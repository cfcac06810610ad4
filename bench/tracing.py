"""Span tracer that times each layer of ``repro`` from outside the package.

The benchmark never edits ``src/``: a traced run replaces the public
functions and methods listed in :data:`LAYERS` with thin wrappers, runs
the workload, and puts the originals back.

* A module-level function is bound by name wherever it was imported
  (``from ..graphs.bfs import bfs_distances`` in ``radio/engine.py``,
  ``radio/dynamics.py``, ``gossip/batch.py`` ...), so every binding of the
  function object across the ``repro`` modules in ``sys.modules`` is
  replaced.
* A method is replaced on the class that defines it.

Each wrapper records one span ``[id, parent, name, trace, start,
child_s, end]`` on a per-thread stack, because served jobs run on worker
threads.  Self time is the span's duration minus the time covered by its
direct children, so self times never double count.  Accounting done by
the wrappers themselves (kernel operation counts, cache byte counts)
runs inside a ``trace.harness`` child span, which keeps it out of every
layer's self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

HARNESS = "trace.harness"
UNIT = "bench.unit"

#: Marker attribute set on every wrapper.
WRAPPED_MARK = "__bench_wrapped__"


def _arg(index):
    return lambda tracer, args: args[index]


def _spec(index):
    return lambda tracer, args: tracer.key_of(args[index])


def _key_of_result(tracer, result):
    return tracer.key_of(result)


def _count_serial(tracer, result, args):
    adj = args[0]
    # A CSR matvec touches every stored entry once.
    ops = adj.indices.size
    tracer.add("kernel.ops", ops)
    tracer.add("kernel.bytes_computed", 8 * (ops + adj.n))


def _count_batch(tracer, result, args):
    from repro.backends import get_backend

    adj, masks = args[0], args[1]
    n, reps = masks.shape
    if get_backend()._last_path == "matmul":
        ops = adj.indices.size * reps
        tracer.add("kernel.matmul_calls", 1)
    else:
        # Scatter work: one gathered endpoint per neighbour of every
        # transmitting (node, trial) pair.
        trial_major = masks.T.flags.c_contiguous and not masks.flags.c_contiguous
        flat = (masks.T if trial_major else masks).ravel()
        hits = flat.nonzero()[0]
        nodes = hits % n if trial_major else hits // reps
        ops = int(adj.degrees[nodes].sum())
    tracer.add("kernel.ops", ops)
    tracer.add("kernel.bytes_computed", 8 * (ops + n * reps))


def _cache_bytes_read(tracer, result, args):
    tracer.add("serve.cache.gets", 1)
    if result is not None:
        tracer.add("serve.cache.hits", 1)
        tracer.add("serve.cache.bytes_read", args[0].path_for(args[1]).stat().st_size)


def _cache_bytes_written(tracer, result, args):
    tracer.add("serve.cache.bytes_written", result.stat().st_size)


#: (span name, module, attribute path, options).  ``trace`` derives the
#: span's trace id from the call arguments, ``trace_result`` from the
#: return value, and ``after`` records counters once the call returned.
LAYERS = [
    ("graphs.gnp", "repro.graphs.random_graphs", "gnp", {}),
    ("graphs.gnp_connected", "repro.graphs.random_graphs", "gnp_connected", {}),
    ("graphs.is_connected", "repro.graphs.properties", "is_connected", {}),
    ("graphs.bfs_distances", "repro.graphs.bfs", "bfs_distances", {}),
    ("kernel.neighbor_counts", "repro.graphs.adjacency", "Adjacency.neighbor_counts",
     {"after": _count_serial}),
    ("kernel.neighbor_counts_batch", "repro.graphs.adjacency",
     "Adjacency.neighbor_counts_batch", {"after": _count_batch}),
    ("radio.step", "repro.radio.model", "RadioNetwork.step", {}),
    ("radio.step_batch", "repro.radio.model", "RadioNetwork.step_batch", {}),
    ("driver.run_dissemination", "repro.radio.dynamics", "run_dissemination", {}),
    ("driver.run_broadcast_batch", "repro.radio.engine", "run_broadcast_batch", {}),
    ("serve.client", "repro.serve.client", "Client.submit", {"trace": _spec(1)}),
    ("serve.parse", "repro.serve.types", "spec_from_dict", {"trace_result": _key_of_result}),
    ("serve.parse", "repro.serve.types", "JobSpec.from_dict",
     {"trace_result": _key_of_result}),
    ("serve.hash", "repro.serve.types", "JobSpec.cache_key", {}),
    ("serve.submit", "repro.serve.runner", "JobManager.submit", {"trace": _spec(1)}),
    ("serve.cache.get", "repro.serve.cache", "ResultCache.get",
     {"trace": _arg(1), "after": _cache_bytes_read}),
    ("serve.cache.put", "repro.serve.cache", "ResultCache.put",
     {"trace": _arg(1), "after": _cache_bytes_written}),
    ("serve.journal.append", "repro.serve.journal", "JobJournal.record_submit",
     {"trace": _arg(1)}),
    ("serve.journal.append", "repro.serve.journal", "JobJournal.record_terminal",
     {"trace": _arg(1)}),
    ("serve.execute", "repro.serve.runner", "execute_spec", {"trace": _spec(0)}),
    ("serve.encode", "repro.radio.trace", "BroadcastTrace.to_dict", {}),
]

#: Protocol mask draws: every protocol class of ``repro.broadcast.distributed``
#: that defines these methods itself is wrapped under one span name each.
PROTOCOL_METHODS = {
    "transmit_mask": "protocol.transmit_mask",
    "transmit_mask_batch": "protocol.transmit_mask_batch",
}


def span_names() -> list[str]:
    """Every layer span name a traced run can record, in table order."""
    names = [name for name, *_ in LAYERS] + list(PROTOCOL_METHODS.values())
    return list(dict.fromkeys(names))


class Tracer:
    """In-memory span recorder plus the install/restore of its wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._cache_key = None

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, trace=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent[3]
        frame = [next(self._ids), parent[0] if parent else 0, name, trace,
                 perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][5] += end - frame[4]
        frame.append(end)
        self.spans.append(frame)

    @contextmanager
    def span(self, name: str, trace=None):
        """Record one span around a block (the harness's own spans)."""
        frame = self._enter(name, trace)
        try:
            yield frame
        finally:
            self._exit(frame)

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def key_of(self, spec) -> str | None:
        """The spec's cache key, computed without recording a hash span."""
        if spec is None or self._cache_key is None:
            return None
        return self._cache_key(spec)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, fn, *, trace=None, trace_result=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, trace(tracer, args) if trace else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if trace_result is not None or after is not None:
                with tracer.span(HARNESS, frame[3]):
                    if trace_result is not None:
                        frame[3] = trace_result(tracer, result)
                    if after is not None:
                        after(tracer, result, args)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, name, fn, options) -> None:
        wrapper = self._wrap(name, fn, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _wrap_method(self, name, cls, attr, options) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, raw.__func__, **options))
        else:
            wrapped = self._wrap(name, raw, **options)
        self._patch(cls, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary in :data:`LAYERS` (idempotent per tracer)."""
        import importlib

        if self._patches:
            return
        from repro.serve.types import JobSpec

        self._cache_key = JobSpec.cache_key
        for name, module_name, path, options in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                self._wrap_method(name, getattr(module, owner_name), attr, options)
            else:
                self._wrap_function(name, getattr(module, attr), options)
        import repro.broadcast.distributed as protocols
        from repro.radio.protocol import RadioProtocol

        for value in vars(protocols).values():
            if isinstance(value, type) and issubclass(value, RadioProtocol):
                for attr, name in PROTOCOL_METHODS.items():
                    if attr in value.__dict__:
                        self._wrap_method(name, value, attr, {})

    def uninstall(self) -> None:
        """Put every original binding back, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple]:
        """``(owner, attribute, original)`` for every binding replaced."""
        return list(self._patches)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def layer_metrics(tracer: Tracer, units: int, root: str) -> dict:
    """Per-layer numbers of one traced phase, per unit of work.

    ``units`` is the number of units of work (requests, sweeps or
    catalogue runs) the phase ran.  ``trace.attributed_share`` is the
    share of the time inside ``root`` spans that lands in the self time
    of a named layer below them, harness accounting excluded.
    """
    units = max(units, 1)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    by_id = {}
    for span in tracer.spans:
        span_id, _parent, name, _trace, start, child, end = span
        by_id[span_id] = span
        calls[name] += 1
        self_s[name] += end - start - child
    out: dict[str, float] = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name] / units
        out[f"{name}.self_s"] = self_s[name] / units

    def parent_name(span):
        parent = by_id.get(span[1])
        return parent[2] if parent else None

    def under(span, name):
        while span is not None:
            if span[2] == name:
                return True
            span = by_id.get(span[1])
        return False

    gnp_in_connected = sum(
        1 for s in tracer.spans if s[2] == "graphs.gnp" and parent_name(s) == "graphs.gnp_connected"
    )
    executions = calls["serve.execute"]
    bfs_in_jobs = sum(
        1 for s in tracer.spans if s[2] == "graphs.bfs_distances" and under(s, "serve.execute")
    )
    kernel_calls = calls["kernel.neighbor_counts"] + calls["kernel.neighbor_counts_batch"]
    steps = calls["radio.step"] + calls["radio.step_batch"]
    counters = tracer.counters
    out["graphs.gnp_connected.attempts_per_graph"] = (
        gnp_in_connected / calls["graphs.gnp_connected"] if calls["graphs.gnp_connected"] else 0.0
    )
    out["graphs.bfs_per_job"] = bfs_in_jobs / executions if executions else 0.0
    out["kernel.matmul_share"] = (
        counters["kernel.matmul_calls"] / calls["kernel.neighbor_counts_batch"]
        if calls["kernel.neighbor_counts_batch"] else 0.0
    )
    out["kernel.ops"] = counters["kernel.ops"] / units
    out["kernel.bytes_computed"] = counters["kernel.bytes_computed"] / units
    out["radio.counts_per_round"] = kernel_calls / steps if steps else 0.0
    out["driver.rounds"] = steps / units
    out["serve.cache.hit_ratio"] = (
        counters["serve.cache.hits"] / counters["serve.cache.gets"]
        if counters["serve.cache.gets"] else 0.0
    )
    out["serve.cache.bytes_read"] = counters["serve.cache.bytes_read"] / units
    out["serve.cache.bytes_written"] = counters["serve.cache.bytes_written"] / units
    out.update(_serve_timing(tracer.spans))
    roots = [s for s in tracer.spans if s[2] == root]
    total = sum(s[6] - s[4] for s in roots)
    root_self = sum(s[6] - s[4] - s[5] for s in roots)
    harness = sum(
        s[6] - s[4] - s[5] for s in tracer.spans if s[2] == HARNESS and under(s, root)
    )
    covered = total - harness
    out["trace.harness_share"] = harness / total if total > 0 else 0.0
    out["trace.attributed_share"] = (covered - root_self) / covered if covered > 0 else 0.0
    return out


def _serve_timing(spans) -> dict:
    """Queue wait and HTTP time, from the spans that share a trace id.

    A request's HTTP time is its client round trip minus the time the
    server spent admitting it (``JobManager.submit``) and, for an
    execution, the time from admission to the end of the job's last
    server-side span (execution, cache write, terminal journal record).
    """
    client = sum(s[6] - s[4] for s in spans if s[2] == "serve.client")
    requests = sum(1 for s in spans if s[2] == "serve.client")
    submits: dict = {}
    submit_total = 0.0
    job_end: dict = defaultdict(float)
    starts: dict = {}
    for s in spans:
        name, trace, start, end = s[2], s[3], s[4], s[6]
        if name == "serve.submit":
            submit_total += end - start
            submits.setdefault(trace, end)
        elif name == "serve.execute":
            starts[trace] = start
            job_end[trace] = max(job_end[trace], end)
        elif name in ("serve.cache.put", "serve.journal.append"):
            job_end[trace] = max(job_end[trace], end)
    waits = [starts[t] - submits[t] for t in starts if t in submits]
    job_waits = sum(job_end[t] - submits[t] for t in starts if t in submits)
    http = client - submit_total - job_waits
    return {
        "serve.queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "serve.http.self_ms": 1e3 * http / requests if requests else 0.0,
    }
