"""One workload in a fresh process; ``bench/run.py`` spawns it.

Protocol on standard output: a ``READY`` line once set-up is done (the
parent times spawn -> ready as ``setup_s``), then, unless
``--setup-only``, one ``RESULT <json>`` line.  The measured phase runs
for ``--seconds``; with ``--trace 1`` it runs for half of that and the
same units are then rerun under the span tracer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from speed import SpeedProbe
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

#: Units of the per-layer metrics that are not ``<span>.calls`` or
#: ``<span>.self_s`` (those are per unit of work).
LAYER_UNITS = {
    "graphs.gnp_connected.attempts_per_graph": "attempts/graph",
    "graphs.bfs_per_job": "calls/job",
    "kernel.matmul_share": "share",
    "kernel.ops": "ops/unit",
    "kernel.bytes_computed": "B/unit",
    "radio.counts_per_round": "calls/round",
    "driver.rounds": "rounds/unit",
    "serve.cache.hit_ratio": "share",
    "serve.cache.bytes_read": "B/unit",
    "serve.cache.bytes_written": "B/unit",
    "serve.queue_wait_s": "s/job",
    "serve.http.self_ms": "ms/request",
    "exec.parallel_efficiency": "share",
    "exec.retries": "retries/run",
    "cache_hit_share": "share",
    "graph_repeat_share": "share",
    "trace.overhead": "share",
    "trace.attributed_share": "share",
    "trace.harness_share": "share",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.startswith("exec.task_busy_s."):
        return "s/run"
    if name.endswith(".calls"):
        return "calls/unit"
    if name.endswith(".self_s"):
        return "s/unit"
    raise KeyError(f"no unit for per-layer metric {name!r}")


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def timings(latencies: list[float], wall: float, tail_pct: float) -> dict:
    samples = len(latencies)
    return {
        "requests_per_s": {"value": samples / wall, "unit": "req/s", "samples": samples},
        "latency_p50_ms": {
            "value": 1e3 * statistics.median(latencies), "unit": "ms", "samples": samples,
        },
        "latency_tail_ms": {
            "value": 1e3 * percentile(latencies, tail_pct),
            "unit": "ms",
            "samples": samples,
            "percentile": tail_pct,
        },
    }


def write_spans(path: Path, workload: str, tracer: Tracer) -> None:
    spans = [
        {"id": s[0], "parent": s[1], "name": s[2], "trace": s[3], "start": s[4], "end": s[6]}
        for s in tracer.spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "spans": spans}))


def measure(workload, args, probe: SpeedProbe) -> dict:
    budget = args.seconds / 2 if args.trace else args.seconds
    phase = workload.run(budget=budget, probe=probe)
    min_units = workload.params["min_units"]
    failures = list(phase.failures)
    checks = [
        {"name": name, "passed": passed, "detail": detail}
        for name, passed, detail in workload.checks(phase)
    ]
    have_prefix = all(i in phase.outputs for i in range(min_units))
    result = {
        "workload": workload.name,
        "seed": workload.seed,
        "params": workload.params,
        "unit": workload.unit,
        "units": phase.units,
        "wall_s": phase.wall,
        "end_to_end": {
            **timings(phase.scaled_latencies, phase.scaled_wall, workload.params["tail_pct"]),
            "peak_rss_mb": {"value": phase.rss_mb, "unit": "MB", "samples": 1},
        },
        "unscaled": timings(phase.latencies, phase.wall, workload.params["tail_pct"]),
        "slowdown": statistics.median(phase.slowdowns),
        "digest": (
            {"units": min_units, "sha256": phase.digest(min_units)} if have_prefix else None
        ),
        "checks": checks,
    }
    attempted = phase.units + len(checks)
    if args.trace:
        properties = workload.properties(phase)
        tracer = Tracer()
        traced, base_wall = workload.traced(phase, tracer)
        failures += [f"traced {failure}" for failure in traced.failures]
        attempted += traced.units
        metrics = layer_metrics(tracer, traced.units, root=workload.root)
        metrics.update(properties)
        metrics["trace.overhead"] = traced.wall / base_wall - 1.0
        result["traced"] = {"units": traced.units, "wall_s": traced.wall}
        result["per_layer"] = {
            name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()
        }
        if args.trace_out:
            write_spans(Path(args.trace_out), workload.name, tracer)
    result["failures"] = failures
    result["attempted"] = attempted
    result["failed"] = len(failures) + sum(not check["passed"] for check in checks)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--params", default="{}", help="JSON overrides of the workload's defaults")
    parser.add_argument("--tmp", required=True, help="scratch directory owned by this process")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, json.loads(args.params), Path(args.tmp))
    workload.setup()
    print("READY", flush=True)
    try:
        probe = SpeedProbe()
        print(f"SLOWDOWN {probe.slowdown()}", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args, probe)
    finally:
        workload.teardown()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
