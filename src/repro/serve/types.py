"""Job-server request/response types and their canonical forms.

The bottom layer of the client/runner/types split: plain schema-versioned
dataclasses with no I/O, imported by both the client and the runner so
the two sides can never disagree about the wire format.

Two request shapes exist:

* :class:`JobSpec` — one ``repro.simulate()`` call (``POST /v1/simulate``);
* :class:`SweepSpec` — a catalogued experiment sweep through the
  supervised executor (``POST /v1/sweeps``).

Both canonicalise to a sorted, compact JSON document
(:meth:`JobSpec.canonical_json`) whose sha256 is the job's
**content-addressed cache key**.  Determinism makes this sound: every
seeded simulation is a pure function of its canonical spec, so equal
keys mean equal results, forever.  A spec with an unseeded graph or run
is not (:attr:`JobSpec.deterministic`), and the server never caches
its result.  Fields that cannot change the result are
excluded from the key — ``backend`` (all kernel backends are
bit-identical) and ``jobs`` (``jobs=1 ≡ jobs=N`` byte-identity) — so a
numba client and a numpy client share cache entries.

:class:`JobStatus` is the response shape for every endpoint that talks
about a job; it round-trips through :meth:`JobStatus.to_dict` /
:meth:`JobStatus.from_dict` so the in-process client and the HTTP client
return identical objects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import InvalidParameterError
from ..schema import RESULT_SCHEMA_VERSION, canonical_json

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JOB_TIMEOUT",
    "TERMINAL_STATES",
    "JobSpec",
    "SweepSpec",
    "JobStatus",
    "spec_from_dict",
]

#: Version of the job-spec wire layout (bump on incompatible change).
JOB_SCHEMA_VERSION = 1

#: Lifecycle states a job moves through.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_TIMEOUT = "timeout"

#: States a job never leaves.  ``done`` is the only success.
TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED, JOB_TIMEOUT)


def _require(payload: dict, key: str, types, what: str):
    """Fetch and type-check one field of a wire payload."""
    if key not in payload:
        raise InvalidParameterError(f"{what} is missing required field {key!r}")
    value = payload[key]
    if not isinstance(value, types):
        names = (
            types.__name__
            if isinstance(types, type)
            else "/".join(t.__name__ for t in types)
        )
        raise InvalidParameterError(
            f"{what} field {key!r} must be {names}, "
            f"got {type(value).__name__}"
        )
    return value


def _check_jsonable(value, where: str) -> None:
    """Reject values that cannot survive the canonical JSON round trip."""
    if value is None or isinstance(value, (bool, int, str)):
        return
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise InvalidParameterError(f"{where} must be finite, got {value!r}")
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_jsonable(item, f"{where}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise InvalidParameterError(
                    f"{where} keys must be strings, got {key!r}"
                )
            _check_jsonable(item, f"{where}.{key}")
        return
    raise InvalidParameterError(
        f"{where} must be JSON-typed (null/bool/number/str/list/dict), "
        f"got {type(value).__name__}"
    )


def _check_int(key: str, value, minimum: int, *, nullable: bool = False) -> None:
    """Validate an integer field: an ``int`` (never a ``bool``) >= ``minimum``.

    ``True`` would otherwise pass as ``1`` under a different cache key,
    and a negative seed or budget would be cached or fail only at
    execution.
    """
    if value is None and nullable:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        kind = "an int or null" if nullable else "an int"
        raise InvalidParameterError(f"{key} must be {kind}, got {type(value).__name__}")
    if value < minimum:
        raise InvalidParameterError(f"{key} must be >= {minimum}, got {value}")


def _check_deadline(value) -> float | None:
    """Validate an optional ``deadline_s``: a positive finite number."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(
            f"deadline_s must be a number or null, got {type(value).__name__}"
        )
    value = float(value)
    if not (value > 0) or value in (float("inf"), float("-inf")):
        raise InvalidParameterError(
            f"deadline_s must be a positive finite number, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class JobSpec:
    """One ``repro.simulate()`` request, normalised for the wire.

    Attributes
    ----------
    process: registered dynamics name (``"broadcast"``, ``"gossip"``,
        ``"multimessage"``, ``"push"``, ``"push-pull"``, ``"agents"``).
    graph: the ambient-graph parameters, ``{"n": ..., "p": ...,
        "seed": ...}`` sampled as a connected ``G(n, p)``.
    params: process-specific keywords as plain JSON.  A ``"protocol"``
        entry is a declarative spec — ``{"kind": "uniform", "q": 0.05}``,
        ``{"kind": "decay"}``, ``{"kind": "eg-randomized"}`` — resolved
        against the graph by the runner; everything else passes through
        to the dynamics' ``build`` (``source``, ``sources``,
        ``num_agents``, ...).
    seed: run RNG seed (distinct from the graph seed).
    max_rounds: optional round budget; a budget miss returns the partial
        trace rather than failing the job.
    backend: optional kernel backend name.  **Excluded from the cache
        key**: backends are bit-identical, so it is a throughput hint,
        not part of the result's identity.
    deadline_s: optional wall-clock budget, in seconds, enforced
        cooperatively at round boundaries; an expired job ends in the
        ``timeout`` terminal state.  **Excluded from the cache key**: a
        timed-out job has no result, and a completed one is identical
        whatever its budget was.
    """

    process: str
    graph: dict
    params: dict = field(default_factory=dict)
    seed: int | None = None
    max_rounds: int | None = None
    backend: str | None = None
    deadline_s: float | None = None

    def __post_init__(self):
        if not isinstance(self.process, str) or not self.process:
            raise InvalidParameterError(
                f"process must be a non-empty string, got {self.process!r}"
            )
        _check_jsonable(self.graph, "graph")
        _check_jsonable(self.params, "params")
        if "protocol" in self.params and not isinstance(
            self.params["protocol"], dict
        ):
            raise InvalidParameterError(
                "params.protocol must be a {'kind': ..., ...} mapping, "
                f"got {type(self.params['protocol']).__name__}"
            )
        _check_int("seed", self.seed, 0, nullable=True)
        _check_int("max_rounds", self.max_rounds, 0, nullable=True)
        if self.backend is not None and not isinstance(self.backend, str):
            raise InvalidParameterError(
                f"backend must be a string or null, "
                f"got {type(self.backend).__name__}"
            )
        _check_deadline(self.deadline_s)

    @property
    def kind(self) -> str:
        return "simulate"

    @property
    def deterministic(self) -> bool:
        """Whether the result is a pure function of this spec.

        True when both the graph seed and the run seed are ints.  A
        missing or null seed draws fresh OS entropy, so such a spec
        names a random sample, not one result: the job server executes
        it every time and keeps none of it in any cache.
        """
        graph_seed = self.graph.get("seed")
        return (
            self.seed is not None
            and isinstance(graph_seed, int)
            and not isinstance(graph_seed, bool)
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        """Parse and validate a wire payload (unknown fields rejected)."""
        if not isinstance(payload, dict):
            raise InvalidParameterError(
                f"simulate spec must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("schema_version", JOB_SCHEMA_VERSION)
        if version != JOB_SCHEMA_VERSION:
            raise InvalidParameterError(
                f"simulate spec has schema_version {version!r}; "
                f"this server speaks version {JOB_SCHEMA_VERSION}"
            )
        known = {
            "schema_version",
            "process",
            "graph",
            "params",
            "seed",
            "max_rounds",
            "backend",
            "deadline_s",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidParameterError(
                f"simulate spec has unknown fields {unknown}"
            )
        return cls(
            process=_require(payload, "process", str, "simulate spec"),
            graph=_require(payload, "graph", dict, "simulate spec"),
            params=dict(payload.get("params") or {}),
            seed=payload.get("seed"),
            max_rounds=payload.get("max_rounds"),
            backend=payload.get("backend"),
            deadline_s=payload.get("deadline_s"),
        )

    def to_dict(self) -> dict:
        """The full wire form (includes non-identity fields)."""
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            "process": self.process,
            "graph": dict(self.graph),
            "params": dict(self.params),
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "backend": self.backend,
            "deadline_s": self.deadline_s,
        }

    def canonical(self) -> dict:
        """The identity-defining subset, in canonical layout.

        ``backend`` is deliberately absent: every kernel backend returns
        bit-identical results, so it must not split the cache.
        """
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            "kind": self.kind,
            "process": self.process,
            "graph": self.graph,
            "params": self.params,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
        }

    def canonical_json(self) -> str:
        """Canonical bytes (sorted keys, no whitespace) for hashing."""
        return canonical_json(self.canonical())

    def cache_key(self) -> str:
        """sha256 of the canonical form — the content address."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    """A catalogued experiment sweep request (``POST /v1/sweeps``).

    ``jobs`` is the supervised executor's worker count and is excluded
    from the cache key: the executor guarantees ``jobs=1 ≡ jobs=N``
    byte-identity, so parallelism is a latency hint, not part of the
    result's identity.  ``deadline_s`` is likewise excluded (see
    :class:`JobSpec`); note sweep cancellation is coarse — the
    supervisor only surfaces events at task-fault and sweep-end
    boundaries, so a sweep's deadline/cancel check may lag by a task.
    """

    experiments: tuple[str, ...]
    quick: bool = True
    seed: int = 0
    jobs: int = 1
    deadline_s: float | None = None

    def __post_init__(self):
        if not self.experiments:
            raise InvalidParameterError("sweep spec needs at least one experiment")
        for exp in self.experiments:
            if not isinstance(exp, str) or not exp:
                raise InvalidParameterError(
                    f"experiment ids must be non-empty strings, got {exp!r}"
                )
        _check_int("seed", self.seed, 0)
        _check_int("jobs", self.jobs, 1)
        _check_deadline(self.deadline_s)

    @property
    def kind(self) -> str:
        return "sweep"

    @property
    def deterministic(self) -> bool:
        """Always true: a sweep's seed is a required int."""
        return True

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        """Parse and validate a wire payload (unknown fields rejected)."""
        if not isinstance(payload, dict):
            raise InvalidParameterError(
                f"sweep spec must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version", JOB_SCHEMA_VERSION)
        if version != JOB_SCHEMA_VERSION:
            raise InvalidParameterError(
                f"sweep spec has schema_version {version!r}; "
                f"this server speaks version {JOB_SCHEMA_VERSION}"
            )
        known = {
            "schema_version",
            "experiments",
            "quick",
            "seed",
            "jobs",
            "deadline_s",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidParameterError(f"sweep spec has unknown fields {unknown}")
        experiments = _require(payload, "experiments", (list, tuple), "sweep spec")
        return cls(
            experiments=tuple(experiments),
            quick=bool(payload.get("quick", True)),
            seed=payload.get("seed", 0),
            jobs=payload.get("jobs", 1),
            deadline_s=payload.get("deadline_s"),
        )

    def to_dict(self) -> dict:
        """The full wire form (includes non-identity fields)."""
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            "experiments": list(self.experiments),
            "quick": self.quick,
            "seed": self.seed,
            "jobs": self.jobs,
            "deadline_s": self.deadline_s,
        }

    def canonical(self) -> dict:
        """Identity-defining subset (``jobs`` deliberately absent)."""
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            "kind": self.kind,
            "experiments": list(self.experiments),
            "quick": self.quick,
            "seed": self.seed,
        }

    def canonical_json(self) -> str:
        """Canonical bytes (sorted keys, no whitespace) for hashing."""
        return canonical_json(self.canonical())

    def cache_key(self) -> str:
        """sha256 of the canonical form — the content address."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def spec_from_dict(payload: dict):
    """Parse either request shape, discriminating on the fields present.

    A payload with an ``experiments`` field is a :class:`SweepSpec`;
    anything else must parse as a :class:`JobSpec`.
    """
    if isinstance(payload, dict) and "experiments" in payload:
        return SweepSpec.from_dict(payload)
    return JobSpec.from_dict(payload)


@dataclass
class JobStatus:
    """The server's public view of one job, identical on every surface.

    ``result`` is the schema-versioned result document (see
    :mod:`repro.schema`) once ``state == "done"``; ``cache`` records how
    the request was satisfied (``"hit"``, ``"miss"`` or ``"coalesced"``
    onto an identical in-flight job).  ``elapsed_s`` is wall time and is
    therefore the one non-deterministic field; everything under
    ``result`` is a pure function of the spec.
    """

    id: str
    kind: str
    state: str
    spec: dict
    cache: str = "miss"
    error: str = ""
    elapsed_s: float = 0.0
    events: int = 0
    result: dict | None = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def ok(self) -> bool:
        return self.state == JOB_DONE

    def to_dict(self) -> dict:
        """The wire form returned by every job endpoint."""
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "spec": self.spec,
            "cache": self.cache,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
            "events": self.events,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobStatus":
        """Rebuild a status from its wire form."""
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            state=payload["state"],
            spec=payload["spec"],
            cache=payload.get("cache", "miss"),
            error=payload.get("error", ""),
            elapsed_s=payload.get("elapsed_s", 0.0),
            events=payload.get("events", 0),
            result=payload.get("result"),
        )
