"""The benchmark's four workloads and the closed loop that drives them.

Every input is generated from the workload seed; the program only sees
the generated specs.  A *unit* is the piece of work one latency sample
times: one served request, one sweep of three ``protocol_times`` calls,
or one catalogue run.  The first ``min_units`` units always run, and
their outputs feed the digest that ``bench/reference.json`` pins for the
default seed.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import random
import resource
import statistics
import threading
from pathlib import Path
from time import perf_counter

from tracing import UNIT

#: Default parameters of each workload.  ``min_units`` is also the
#: length of the digested output prefix; ``tail_pct`` the percentile
#: reported as ``latency_tail_ms``.
DEFAULTS = {
    "serve-cold": {"n": 20000, "clients": 2, "min_units": 24, "tail_pct": 90},
    "serve-mixed": {
        "n": 20000, "clients": 2, "min_units": 48, "tail_pct": 95,
        "fill": 8, "miss_graphs": 4, "miss_every": 10,
    },
    "sweep-mc": {"n": 20000, "repetitions": 32, "min_units": 3, "tail_pct": 90},
    "runall-quick": {"experiments": None, "jobs": 2, "min_units": 3, "tail_pct": 90},
}


#: Seconds of load between two speed probes (see :func:`closed_loop`).
SLICE_S = 4.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Phase:
    """What one closed-loop phase measured and produced.

    ``latencies[i]`` is unit ``i``'s wall time and ``slowdowns[i]`` the
    machine slowdown measured around the slice it ran in; ``wall`` is the
    time the load ran and ``scaled_wall`` the same time at reference
    speed.  ``rss_mb`` is the resident high-water mark when the
    ``min_units``-th unit finished.  ``outputs[i]`` is the sha256 of unit
    ``i``'s output, for the units that record one.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.slowdowns: list[float] = []
        self.wall = 0.0
        self.scaled_wall = 0.0
        self.rss_mb = 0.0
        self.outputs: dict[int, str] = {}
        self.failures: list[str] = []

    @property
    def units(self) -> int:
        return len(self.latencies)

    @property
    def scaled_latencies(self) -> list[float]:
        return [t / s for t, s in zip(self.latencies, self.slowdowns)]

    def digest(self, count: int) -> str:
        """sha256 over the output digests of units ``0..count-1``."""
        return sha256("".join(self.outputs[i] for i in range(count)).encode())


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def closed_loop(
    run_unit, *, clients: int, budget=None, count=None, min_units=1, probe=None
) -> Phase:
    """Run ``run_unit(i, phase)`` for ``i = 0, 1, ...`` from ``clients`` threads.

    Each client starts its next unit only when its previous one returned.
    ``run_unit`` may return a callable, which the client runs after the
    unit's latency is taken (bookkeeping that is not the program's work).
    With ``count`` exactly that many units run.  Otherwise the loop stops
    starting units once the median latency so far would carry the next
    one past ``budget`` seconds of load (never before ``min_units``).

    With a :class:`~speed.SpeedProbe`, the load drains every ``SLICE_S``
    seconds: no unit starts until the running ones returned, the probe
    measures how fast the machine is right now, and the load resumes.  A
    slice's slowdown is the mean of the probes before and after it.
    Probe pauses do not count as load time.
    """
    phase = Phase()
    cond = threading.Condition()
    latencies: dict[int, float] = {}
    slice_of: dict[int, int] = {}
    slowdowns = [probe.slowdown()] if probe else [1.0]
    slice_walls: list[float] = []
    state = {"next": 0, "running": 0, "pausing": False, "paused": 0.0}
    start = perf_counter()
    slice_start = start

    def load_time():
        return perf_counter() - start - state["paused"]

    def take():
        nonlocal slice_start
        with cond:
            while True:
                while state["pausing"]:
                    cond.wait()
                i = state["next"]
                if count is not None:
                    if i >= count:
                        return None
                elif i >= min_units and latencies:
                    if load_time() + statistics.median(latencies.values()) > budget:
                        return None
                if probe is None or perf_counter() - slice_start < SLICE_S:
                    break
                state["pausing"] = True
                while state["running"]:
                    cond.wait()
                paused = perf_counter()
                slice_walls.append(paused - slice_start)
                slowdowns.append(probe.slowdown())
                slice_start = perf_counter()
                state["paused"] += slice_start - paused
                state["pausing"] = False
                cond.notify_all()
            state["next"] = i + 1
            state["running"] += 1
            slice_of[i] = len(slowdowns) - 1
            return i

    def client():
        while (i := take()) is not None:
            t0 = perf_counter()
            follow_up = None
            try:
                follow_up = run_unit(i, phase)
            except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
                with cond:
                    phase.failures.append(f"unit {i}: {type(exc).__name__}: {exc}")
            latency = perf_counter() - t0
            if follow_up is not None:
                follow_up()
            with cond:
                latencies[i] = latency
                state["running"] -= 1
                if len(latencies) == min_units:
                    phase.rss_mb = peak_rss_mb()
                cond.notify_all()

    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    slice_walls.append(perf_counter() - slice_start)
    phase.wall = load_time()
    slowdowns.append(probe.slowdown() if probe else 1.0)
    around = [(a + b) / 2 for a, b in zip(slowdowns, slowdowns[1:])]
    phase.scaled_wall = sum(wall / s for wall, s in zip(slice_walls, around))
    phase.latencies = [latencies[i] for i in range(len(latencies))]
    phase.slowdowns = [around[slice_of[i]] for i in range(len(latencies))]
    return phase


def edge_probability(n: int) -> float:
    """The paper's ambient density, ``p = 2 ln n / n``."""
    return 2.0 * math.log(n) / n


class Workload:
    """One workload: set-up, a unit of work, output checks, teardown."""

    name = ""
    unit = ""
    #: Span whose time the traced run splits into layers.
    root = UNIT

    def __init__(self, seed: int, params: dict, tmp: Path):
        self.seed = seed
        self.params = {**DEFAULTS[self.name], **params}
        self.tmp = tmp

    def setup(self) -> None:
        """Work done before the ready line (timed as ``setup_s``)."""

    def teardown(self) -> None:
        """Release what :meth:`setup` made."""

    def reset(self) -> None:
        """Fresh state for the traced rerun of the same units."""

    def run_unit(self, i: int, phase: Phase) -> None:
        raise NotImplementedError

    def run(self, *, budget=None, count=None, tracer=None, probe=None) -> Phase:
        def unit(i, phase):
            if tracer is None:
                return self.run_unit(i, phase)
            with tracer.span(UNIT, i):
                return self.run_unit(i, phase)

        return closed_loop(
            unit, clients=1, budget=budget, count=count,
            min_units=self.params["min_units"], probe=probe,
        )

    def traced(self, phase: Phase, tracer) -> tuple[Phase, float]:
        """Rerun ``phase``'s units under ``tracer``.

        Returns the traced phase and the untraced wall time of the same
        units, the base of ``trace.overhead``.
        """
        self.reset()
        with tracer:
            return self.run(count=phase.units, tracer=tracer), phase.wall

    def checks(self, phase: Phase) -> list[tuple[str, bool, str]]:
        """Seed-independent output checks: ``(name, passed, detail)``."""
        return []

    def properties(self, phase: Phase) -> dict:
        """Per-layer numbers describing the traffic or the executor."""
        from repro.experiments.catalog import EXPERIMENTS

        out = {
            "cache_hit_share": 0.0,
            "graph_repeat_share": 0.0,
            "exec.parallel_efficiency": 0.0,
            "exec.retries": 0.0,
        }
        out.update({f"exec.task_busy_s.{key}": 0.0 for key in EXPERIMENTS})
        return out


# ----------------------------------------------------------------------
# Served jobs
# ----------------------------------------------------------------------


class LoopbackServer:
    """An in-process job server on an ephemeral loopback port."""

    def __init__(self, root: Path):
        from repro.serve import JobManager, Server

        self.manager = JobManager(cache=root / "cache", journal=root / "journal", workers=2)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.server = Server(manager=self.manager)
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(30)
        self.address = self.server.address

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.close(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()
        self.manager.shutdown()


class _Serve(Workload):
    unit = "request"
    root = "serve.execute"

    def __init__(self, seed, params, tmp):
        super().__init__(seed, params, tmp)
        n = self.params["n"]
        self.graph_p = edge_probability(n)
        self.protocol = {"kind": "uniform", "q": 1.0 / ((n - 1) * self.graph_p)}
        self.server = None
        self.generation = 0
        self._local = threading.local()
        self.specs: list = []
        self.expected: list[str] = []
        self._spec_lock = threading.Lock()
        self.seen: list[tuple[str, str]] = []
        #: Specs submitted during set-up, before the measured requests.
        self.fill: list = []

    def job(self, graph_seed: int, run_seed: int):
        from repro.serve import JobSpec

        graph = {"n": self.params["n"], "p": self.graph_p, "seed": graph_seed}
        return JobSpec(
            process="broadcast", graph=graph, params={"protocol": self.protocol}, seed=run_seed
        )

    def next_spec(self, i: int) -> tuple:
        """``(spec, expected cache outcome)`` of request ``i``."""
        raise NotImplementedError

    def spec(self, i: int) -> tuple:
        with self._spec_lock:
            while len(self.specs) <= i:
                spec, expect = self.next_spec(len(self.specs))
                self.specs.append(spec)
                self.expected.append(expect)
            return self.specs[i], self.expected[i]

    def setup(self):
        self.generation += 1
        self.server = LoopbackServer(self.tmp / f"server-{self.generation}")
        self._local = threading.local()
        for spec in self.fill:
            status = self.client().submit(spec)
            if status.state != "done":
                raise RuntimeError(f"cache fill failed: {status.state} {status.error}")

    def teardown(self):
        if self.server is not None:
            self.server.close()
            self.server = None

    def reset(self):
        self.teardown()
        self.setup()

    def client(self):
        from repro.serve import Client

        client = getattr(self._local, "client", None)
        if client is None:
            client = self._local.client = Client(self.server.address)
        return client

    def run(self, *, budget=None, count=None, tracer=None, probe=None) -> Phase:
        lock = threading.Lock()
        seen: dict[int, tuple[str, str]] = {}

        def unit(i, phase):
            spec, expect = self.spec(i)
            status = self.client().submit(spec)
            with lock:
                seen[i] = (status.state, status.cache)
            if status.state != "done":
                raise RuntimeError(f"job {status.id} ended {status.state}: {status.error}")
            if status.cache != expect:
                raise RuntimeError(f"expected a cache {expect}, got {status.cache}")
            if i < self.params["min_units"]:
                return lambda: phase.outputs.__setitem__(i, _document_digest(status.result))
            return None

        phase = closed_loop(
            unit,
            clients=self.params["clients"],
            budget=budget,
            count=count,
            min_units=self.params["min_units"],
            probe=probe,
        )
        self.seen = [seen.get(i, ("missing", "")) for i in range(phase.units)]
        return phase

    def checks(self, phase):
        from repro.serve.runner import execute_spec

        count = self.params["min_units"]
        checks = []
        for i in sorted({0, count // 2, count - 1}):
            spec, _ = self.spec(i)
            same = phase.outputs.get(i) == _document_digest(execute_spec(spec))
            checks.append((f"request {i} recomputed in-process", same, ""))
        return checks

    def properties(self, phase):
        hits = sum(1 for _state, cache in self.seen if cache == "hit")
        graphs_seen = {(spec.graph["seed"], spec.graph["n"]) for spec in self.fill}
        misses = repeats = 0
        for spec, expect in zip(self.specs[: phase.units], self.expected):
            key = (spec.graph["seed"], spec.graph["n"])
            if expect == "miss":
                misses += 1
                repeats += key in graphs_seen
            graphs_seen.add(key)
        out = super().properties(phase)
        out["cache_hit_share"] = hits / phase.units if phase.units else 0.0
        out["graph_repeat_share"] = repeats / misses if misses else 0.0
        return out


def _document_digest(document) -> str:
    from repro.schema import canonical_json

    return sha256(canonical_json(document).encode())


class ServeCold(_Serve):
    """Every request samples a new graph with a new run seed: all misses."""

    name = "serve-cold"

    def next_spec(self, i):
        base = self.seed * 1_000_000
        return self.job(base + i, base + 500_000 + i), "miss"


class ServeMixed(_Serve):
    """Resubmits of a filled cache, plus misses that repeat filled graphs.

    Each block of ``miss_every`` requests holds exactly one miss at a
    seeded position, so every run has the same hit/miss mix: a binomial
    mix would move the miss count, which is over half the work, by about
    12 % between seeds.
    """

    name = "serve-mixed"

    def __init__(self, seed, params, tmp):
        super().__init__(seed, params, tmp)
        base = seed * 1_000_000
        self.fill = [self.job(base + k, base + 100 + k) for k in range(self.params["fill"])]
        self.rng = random.Random(seed)
        self.miss_at = 0

    def next_spec(self, i):
        every = self.params["miss_every"]
        if i % every == 0:
            self.miss_at = i + self.rng.randrange(every)
        if i != self.miss_at:
            return self.fill[self.rng.randrange(len(self.fill))], "hit"
        graph = self.fill[self.rng.randrange(self.params["miss_graphs"])].graph
        return self.job(graph["seed"], self.seed * 1_000_000 + 500_000 + i), "miss"


# ----------------------------------------------------------------------
# Monte-Carlo sweeps
# ----------------------------------------------------------------------


class SweepMC(Workload):
    """Repeated ``protocol_times`` sweeps of three protocols on one graph."""

    name = "sweep-mc"
    unit = "sweep"

    def setup(self):
        from repro.broadcast.distributed import (
            DecayProtocol,
            EGRandomizedProtocol,
            UniformProtocol,
        )
        from repro.graphs.random_graphs import gnp_connected
        from repro.radio.model import RadioNetwork

        n = self.params["n"]
        self.p = edge_probability(n)
        self.network = RadioNetwork(gnp_connected(n, self.p, seed=self.seed))
        self.protocols = [
            UniformProtocol(1.0 / ((n - 1) * self.p)),
            DecayProtocol(n),
            EGRandomizedProtocol(n, self.p),
        ]

    def run_unit(self, i, phase):
        from repro.experiments.runner import protocol_times

        import numpy as np

        times = [
            protocol_times(
                self.network,
                protocol,
                repetitions=self.params["repetitions"],
                seed=self.seed * 1000 + i,
                p=self.p,
            )
            for protocol in self.protocols
        ]
        rounds = np.concatenate(times)
        if i < self.params["min_units"]:
            phase.outputs[i] = sha256(b"".join(np.asarray(t, np.float64).tobytes() for t in times))
        if not np.all(np.isfinite(rounds)):
            raise RuntimeError(f"{int(np.sum(~np.isfinite(rounds)))} trials did not complete")


# ----------------------------------------------------------------------
# Catalogue runs
# ----------------------------------------------------------------------


class RunAllQuick(Workload):
    """The whole experiment catalogue through the supervised executor."""

    name = "runall-quick"
    unit = "catalogue run"

    def setup(self):
        from repro.experiments.catalog import EXPERIMENTS

        self.ids = list(self.params["experiments"] or EXPERIMENTS)
        self.jobs = self.params["jobs"]
        self.outcomes: dict[int, list] = {}
        self.walls: dict[int, float] = {}

    def run_unit(self, i, phase):
        from repro.experiments.parallel import run_catalog_supervised

        t0 = perf_counter()
        outcomes = run_catalog_supervised(self.ids, quick=True, seed=self.seed, jobs=self.jobs)
        self.walls[i] = perf_counter() - t0
        self.outcomes[i] = outcomes
        text = "\n".join(o.result.table() for o in outcomes if o.ok)
        phase.outputs[i] = sha256(text.encode())
        bad = [f"{o.key}: {o.status} {o.error}" for o in outcomes if not o.ok]
        if bad:
            raise RuntimeError("; ".join(bad))

    def traced(self, phase, tracer):
        # The pool's workers are fresh processes the wrappers cannot reach,
        # so one catalogue run is traced in-process (jobs=1) and timed
        # against an untraced in-process run of the same work.
        self.jobs = 1
        try:
            reference = self.run(count=1)
            with tracer:
                return self.run(count=1, tracer=tracer), reference.wall
        finally:
            self.jobs = self.params["jobs"]

    def checks(self, phase):
        agree = len({phase.outputs.get(i) for i in range(phase.units)}) == 1
        return [(f"{phase.units} catalogue runs agree", agree, "")]

    def properties(self, phase):
        out = super().properties(phase)
        for i in range(phase.units):
            outcomes = self.outcomes[i]
            for o in outcomes:
                out[f"exec.task_busy_s.{o.key}"] += o.elapsed / phase.units
                out["exec.retries"] += (o.attempts - 1) / phase.units
            out["exec.parallel_efficiency"] += sum(o.elapsed for o in outcomes) / (
                self.walls[i] * self.jobs * phase.units
            )
        return out


WORKLOADS = {cls.name: cls for cls in (ServeCold, ServeMixed, SweepMC, RunAllQuick)}
