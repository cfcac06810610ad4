"""Persistence: save/load graphs, schedules and experiment results.

Long sweeps are expensive; this module lets a pipeline checkpoint its
artifacts:

* graphs — NumPy ``.npz`` holding the CSR arrays (compact, exact);
* schedules — ``.npz`` with per-round sets flattened plus offsets/labels;
* experiment results — JSON, round-trippable back into
  :class:`~repro.experiments.runner.ExperimentResult` (fits included).

All loaders validate structure and raise :class:`~repro.errors.ReproError`
subclasses on malformed input rather than propagating raw KeyErrors.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ._atomic import atomic_write
from .errors import GraphError, ReproError, ScheduleError
from .experiments.runner import ExperimentResult
from .graphs.adjacency import Adjacency
from .radio.schedule import Schedule
from .theory.fitting import FitResult

__all__ = [
    "save_graph",
    "load_graph",
    "save_schedule",
    "load_schedule",
    "save_result",
    "load_result",
    "result_to_payload",
    "result_from_payload",
    "result_wire",
    "result_from_wire",
]


def save_graph(adj: Adjacency, path: str | Path) -> Path:
    """Write a graph's CSR arrays to ``path`` (``.npz`` appended if absent)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez_compressed(path, indptr=adj.indptr, indices=adj.indices)
    return path


def load_graph(path: str | Path) -> Adjacency:
    """Load a graph saved by :func:`save_graph` (structure re-validated)."""
    path = Path(path)
    try:
        with np.load(path) as data:
            indptr = data["indptr"]
            indices = data["indices"]
    except (KeyError, OSError, ValueError) as exc:
        raise GraphError(f"not a saved graph file: {path} ({exc})") from exc
    return Adjacency(indptr, indices, validate=True)


def save_schedule(schedule: Schedule, path: str | Path) -> Path:
    """Write a schedule (flattened sets + offsets + labels) to ``.npz``."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    offsets = np.zeros(len(schedule) + 1, dtype=np.int64)
    for i, r in enumerate(schedule.rounds):
        offsets[i + 1] = offsets[i] + r.size
    flat = (
        np.concatenate(schedule.rounds)
        if len(schedule)
        else np.empty(0, dtype=np.int64)
    )
    labels = np.array(schedule.labels, dtype=object)
    np.savez_compressed(
        path,
        n=np.int64(schedule.n),
        offsets=offsets,
        flat=flat,
        labels=labels,
    )
    return path


def load_schedule(path: str | Path) -> Schedule:
    """Load a schedule saved by :func:`save_schedule`."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=True) as data:
            n = int(data["n"])
            offsets = data["offsets"]
            flat = data["flat"]
            labels = [str(x) for x in data["labels"]]
    except (KeyError, OSError, ValueError) as exc:
        raise ScheduleError(f"not a saved schedule file: {path} ({exc})") from exc
    rounds = [flat[offsets[i] : offsets[i + 1]] for i in range(offsets.size - 1)]
    if len(labels) != len(rounds):
        raise ScheduleError(f"corrupt schedule file: {path} (label count mismatch)")
    return Schedule(n, rounds, labels=labels)


def result_to_payload(result: ExperimentResult) -> dict:
    """An experiment result as a plain-JSON-typed dict.

    Normalised through the JSON codec (NumPy scalars become Python
    numbers), so the payload can be embedded in any JSON document.
    """
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "claim": result.claim,
        "columns": result.columns,
        "rows": result.rows,
        "notes": result.notes,
        "fits": {
            name: {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
                "feature_name": fit.feature_name,
            }
            for name, fit in result.fits.items()
        },
    }
    return json.loads(json.dumps(payload, default=_json_default))


def result_from_payload(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its payload dict."""
    result = ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        claim=payload["claim"],
        columns=list(payload["columns"]),
        rows=list(payload["rows"]),
        notes=list(payload.get("notes", [])),
    )
    for name, fit in payload.get("fits", {}).items():
        result.fits[name] = FitResult(
            slope=fit["slope"],
            intercept=fit["intercept"],
            r_squared=fit["r_squared"],
            feature_name=fit.get("feature_name", "x"),
        )
    return result


def result_wire(result: ExperimentResult) -> dict:
    """An experiment result in the pinned wire schema.

    The :func:`result_to_payload` document wrapped in the shared
    schema-versioned envelope (:mod:`repro.schema`) — exactly what
    ``repro run --json`` prints and the job server's sweep payloads
    embed, so the two surfaces cannot drift apart.  Non-finite row cells
    and fit values (an ``inf`` mean over budget misses) are tagged so
    the document stays strict JSON; :func:`result_from_wire` restores
    them.
    """
    from .schema import RESULT_SCHEMA_VERSION

    payload = _map_floats(result_to_payload(result), _strict_float)
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "kind": "experiment-result",
        **payload,
    }


def result_from_wire(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its wire document."""
    from .schema import check_schema_version

    check_schema_version(payload, what="experiment-result")
    if payload.get("kind") != "experiment-result":
        raise ReproError(
            f"expected an experiment-result document, got kind "
            f"{payload.get('kind')!r}"
        )
    return result_from_payload(_map_floats(payload, _loose_float))


#: Wire tag of a non-finite float: strict JSON has no ``Infinity`` or
#: ``NaN``, so ``inf`` travels as ``{"$float": "inf"}`` (also ``"-inf"``,
#: ``"nan"``) and :func:`result_from_wire` restores the float.
_FLOAT_TAG = "$float"


def _strict_float(value):
    if isinstance(value, float) and not math.isfinite(value):
        return {_FLOAT_TAG: repr(value)}
    return value


def _loose_float(value):
    if isinstance(value, dict) and value.keys() == {_FLOAT_TAG}:
        return float(value[_FLOAT_TAG])
    return value


def _map_floats(payload: dict, convert) -> dict:
    """``payload`` with ``convert`` applied to every row cell and fit value."""
    return {
        **payload,
        "rows": [{k: convert(v) for k, v in row.items()} for row in payload["rows"]],
        "fits": {
            name: {k: convert(v) for k, v in fit.items()}
            for name, fit in payload.get("fits", {}).items()
        },
    }


def save_result(result: ExperimentResult, path: str | Path) -> Path:
    """Write an experiment result to JSON (``.json`` appended if absent).

    Crash-safe: a reader sees the old file or the new one, never a torn
    write.
    """
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(path.suffix + ".json")
    return atomic_write(path, json.dumps(result_to_payload(result), indent=2) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serialisable: {type(obj)}")


def load_result(path: str | Path) -> ExperimentResult:
    """Load an experiment result saved by :func:`save_result`."""
    path = Path(path)
    try:
        result = result_from_payload(json.loads(path.read_text()))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ReproError(f"not a saved result file: {path} ({exc})") from exc
    return result
