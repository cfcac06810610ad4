"""K7 — engineering: observability-layer overhead.

The acceptance bound for the observability layer is that the *no-op
path* — instrumented engines run with no registry or sink attached —
costs <= 5% of a round's work.  The per-run cost of that path is one
``current_observer()`` context-variable read; the per-round cost is one
``obs is None`` branch.  ``measure_noop_guard`` times those primitives
directly and compares them against the measured per-round cost of the
batch engine, which is robust against CI timing noise (the ratio is a
few hundredths of a percent, not a wall-clock diff between two runs).

``measure_observed_overhead`` reports the *opt-in* cost: the same batch
and serial workloads run off vs under a metrics registry vs under a full
registry + in-memory sink observer.  That overhead is allowed to be
visible (it buys per-round events); it is reported, not bounded.

Also runnable as a script for the CI artifact::

    PYTHONPATH=src python benchmarks/bench_k07_obs_overhead.py --quick \\
        --out BENCH_obs.json
"""

from __future__ import annotations

import argparse
import json
import time
from statistics import median

import numpy as np

from repro.api import simulate
from repro.broadcast.distributed.uniform import UniformProtocol
from repro.graphs import gnp
from repro.obs import MemoryTraceSink, MetricsRegistry, Observer, use_observer
from repro.obs.context import current_observer
from repro.radio import RadioNetwork
from repro.radio.engine import run_broadcast_batch


def make_case(n: int, seed: int = 1):
    p = 2 * np.log(n) / n
    net = RadioNetwork(gnp(n, p, seed=seed))
    net.adj.matrix()
    proto = UniformProtocol(1.0 / (p * (n - 1)))
    return net, proto, p


def _time(fn, loops: int) -> float:
    """Median wall-clock seconds of ``loops`` calls."""
    samples = []
    for _ in range(loops):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples)


def measure_noop_guard(n: int, repetitions: int, loops: int = 3) -> dict:
    """Per-round cost of the absent-observer guard vs the round itself.

    The guard is ``obs = current_observer()`` once per run plus
    ``if obs is not None`` once per round; both are timed over a million
    iterations.  The engine's per-round cost comes from an unobserved
    batch run.  The ratio is the no-op overhead the <= 5% bound is about.
    """
    net, proto, p = make_case(n)

    iters = 1_000_000
    start = time.perf_counter()
    for _ in range(iters):
        obs = current_observer()
        if obs is not None:  # pragma: no cover - never taken here
            raise AssertionError
    guard_s = (time.perf_counter() - start) / iters

    result = None

    def run():
        nonlocal result
        result = run_broadcast_batch(
            net, proto, repetitions=repetitions, seed=123, p=p, max_rounds=4096
        )

    engine_s = _time(run, loops)
    rounds = result.num_rounds
    per_round_s = engine_s / max(rounds, 1)
    return {
        "n": n,
        "repetitions": repetitions,
        "rounds": rounds,
        "guard_seconds_per_round": guard_s,
        "engine_seconds_per_round": per_round_s,
        "noop_overhead_pct": 100.0 * guard_s / per_round_s,
    }


def measure_observed_overhead(n: int, repetitions: int, loops: int = 3) -> dict:
    """Opt-in cost: off vs registry-only vs registry + memory sink."""
    net, proto, p = make_case(n)
    kwargs = dict(repetitions=repetitions, seed=123, p=p, max_rounds=4096)

    def batch_off():
        run_broadcast_batch(net, proto, **kwargs)

    def batch_under(make_obs):
        def run():
            with use_observer(make_obs()):
                run_broadcast_batch(net, proto, **kwargs)

        return run

    def serial_off():
        for rep in range(8):
            simulate("broadcast", net, protocol=proto, seed=1000 + rep, p=p, max_rounds=4096)

    def serial_full():
        obs = Observer(MetricsRegistry(), MemoryTraceSink())
        with use_observer(obs):
            serial_off()

    t_off = _time(batch_off, loops)
    t_registry = _time(batch_under(lambda: Observer(MetricsRegistry())), loops)
    t_full = _time(
        batch_under(lambda: Observer(MetricsRegistry(), MemoryTraceSink())), loops
    )
    t_serial_off = _time(serial_off, loops)
    t_serial_full = _time(serial_full, loops)
    return {
        "n": n,
        "repetitions": repetitions,
        "batch_off_seconds": t_off,
        "batch_registry_seconds": t_registry,
        "batch_full_seconds": t_full,
        "batch_registry_overhead_pct": 100.0 * (t_registry / t_off - 1.0),
        "batch_full_overhead_pct": 100.0 * (t_full / t_off - 1.0),
        "serial_off_seconds": t_serial_off,
        "serial_full_seconds": t_serial_full,
        "serial_full_overhead_pct": 100.0 * (t_serial_full / t_serial_off - 1.0),
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_k07_noop_overhead_under_5pct():
    stats = measure_noop_guard(1_000, 32)
    print(
        f"\nno-op guard: {stats['guard_seconds_per_round'] * 1e9:,.0f} ns/round "
        f"vs engine {stats['engine_seconds_per_round'] * 1e6:,.0f} us/round "
        f"-> {stats['noop_overhead_pct']:.4f}% overhead"
    )
    assert stats["noop_overhead_pct"] <= 5.0


def test_k07_observed_runs_match_unobserved():
    net, proto, p = make_case(1_000)
    kwargs = dict(repetitions=16, seed=123, p=p, max_rounds=4096)
    plain = run_broadcast_batch(net, proto, **kwargs)
    with use_observer(Observer(MetricsRegistry(), MemoryTraceSink())):
        observed = run_broadcast_batch(net, proto, **kwargs)
    np.testing.assert_array_equal(plain.completion_rounds, observed.completion_rounds)


def test_k07_observed_overhead_reported():
    stats = measure_observed_overhead(1_000, 16, loops=2)
    print(
        f"\nbatch n=1000 R=16: off={stats['batch_off_seconds'] * 1e3:.1f} ms, "
        f"registry +{stats['batch_registry_overhead_pct']:.1f}%, "
        f"full +{stats['batch_full_overhead_pct']:.1f}%"
    )
    # Opt-in instrumentation may cost, but not multiples of the run.
    assert stats["batch_full_seconds"] < 10 * stats["batch_off_seconds"]


# ----------------------------------------------------------------------
# Script mode: emit the CI observability-overhead artifact
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="observability overhead bench")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sizes and fewer loops (CI budget)",
    )
    parser.add_argument("--out", default=None, help="write JSON results to this path")
    args = parser.parse_args(argv)

    sizes = (1_000,) if args.quick else (1_000, 10_000)
    reps = 16 if args.quick else 64
    loops = 2 if args.quick else 3

    noop = [measure_noop_guard(n, reps, loops) for n in sizes]
    observed = [measure_observed_overhead(n, reps, loops) for n in sizes]
    payload = {
        "benchmark": "k07_obs_overhead",
        "mode": "quick" if args.quick else "full",
        "noop": noop,
        "observed": observed,
    }
    for row in noop:
        print(
            f"n={row['n']:>6}  no-op guard "
            f"{row['guard_seconds_per_round'] * 1e9:>6,.0f} ns/round vs engine "
            f"{row['engine_seconds_per_round'] * 1e6:>8,.0f} us/round  "
            f"-> {row['noop_overhead_pct']:.4f}%"
        )
    for row in observed:
        print(
            f"n={row['n']:>6}  batch: registry "
            f"+{row['batch_registry_overhead_pct']:.1f}%  full "
            f"+{row['batch_full_overhead_pct']:.1f}%  serial full "
            f"+{row['serial_full_overhead_pct']:.1f}%"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
