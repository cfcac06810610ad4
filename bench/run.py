"""Run the benchmark: each workload in a fresh process, every metric by name.

    python bench/run.py [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
                        [--trace-out F] [--out F]

Without ``--workload`` all four workloads run.  The untraced run reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace`` reports the
per-layer ones, from a rerun of the same units under the span tracer.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_tmp"
WORKLOADS = ["serve-cold", "serve-mixed", "sweep-mc", "runall-quick"]
#: Spawns per untraced workload; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Wall-clock allowance for one workload's processes, set-up included.
WORKLOAD_TIMEOUT_S = 150.0

PROBE = """\
import json, platform, numpy, scipy
from repro.backends.numpy_backend import NumpyBackend
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "kernel.calibrated_scatter_cost": NumpyBackend().calibrate(force=True),
}))
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def worker_env(pinned: dict, tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(pinned)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp / "repro-cache")
    return env


def environment_stamp(pinned: dict) -> dict:
    """Machine, versions and pinned settings of this run.

    ``kernel.calibrated_scatter_cost`` is what a fresh process would
    calibrate to without the pin; it is measured in a throwaway process
    and only recorded, so calibration drift stays visible.
    """
    tmp = SCRATCH / f"{os.getpid()}-probe"
    env = worker_env(pinned, tmp)
    env.pop("REPRO_SCATTER_COST", None)
    try:
        probe = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if probe.returncode != 0:
        raise BenchError(f"environment probe failed:\n{probe.stderr}")
    return {
        "git_sha": git_sha(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        **json.loads(probe.stdout),
        "env": pinned,
    }


def run_worker(cmd: list[str], env: dict, timeout: float) -> tuple[float, float, dict | None]:
    """Spawn one workload process.

    Returns the spawn -> ready seconds, the machine slowdown the process
    measured right after, and its result (``None`` for a set-up-only spawn).
    """
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    ready = slowdown = result = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY"):
                ready = perf_counter() - start
            elif line.startswith("SLOWDOWN "):
                slowdown = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or slowdown is None:
        raise BenchError(f"{' '.join(cmd[2:6])} exited with code {code}")
    return ready, slowdown, result


def run_workload(name: str, args, pinned: dict) -> tuple[dict, list | None]:
    """Set the workload up ``SETUP_REPEATS`` times, measure on the last spawn.

    ``setup_s`` is the median spawn -> ready time at reference machine
    speed, like every other timing (see ``speed.py``).
    """
    repeats = 1 if args.trace else SETUP_REPEATS
    deadline = perf_counter() + WORKLOAD_TIMEOUT_S
    setups, scaled, spans, result = [], [], None, None
    for k in range(repeats):
        last = k == repeats - 1
        tmp = SCRATCH / f"{os.getpid()}-{name}-{k}"
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--params", json.dumps(args.params.get(name, {})), "--tmp", str(tmp),
        ]
        if not last:
            cmd.append("--setup-only")
        elif args.trace and args.trace_out:
            cmd += ["--trace-out", str(tmp / "spans.json")]
        try:
            setup_s, slowdown, result = run_worker(
                cmd, worker_env(pinned, tmp), deadline - perf_counter()
            )
            if last and args.trace and args.trace_out:
                spans = json.loads((tmp / "spans.json").read_text())["spans"]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        setups.append(setup_s)
        scaled.append(setup_s / slowdown)
    if result is None:
        raise BenchError(f"{name} printed no result")
    result["end_to_end"]["setup_s"] = {
        "value": statistics.median(scaled), "unit": "s", "samples": len(setups),
    }
    result["unscaled"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s", "samples": len(setups),
    }
    return result, spans


def check_reference(result: dict, reference: dict) -> None:
    """Compare the output digest with the one pinned for this seed and size."""
    pinned = reference.get("digests", {}).get(result["workload"])
    if not pinned or pinned["seed"] != result["seed"] or pinned["params"] != result["params"]:
        return
    digest = result["digest"] or {}
    passed = digest.get("units") == pinned["units"] and digest.get("sha256") == pinned["sha256"]
    result["checks"].append({
        "name": f"output digest pinned for seed {pinned['seed']}",
        "passed": passed,
        "detail": "" if passed else f"got {digest.get('sha256')}, pinned {pinned['sha256']}",
    })
    result["attempted"] += 1
    result["failed"] += not passed


def select(result: dict, declared: list[dict], section: str) -> dict:
    """The declared metrics of one result, checked for presence and unit."""
    emitted = result.get(section, {})
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in emitted:
            raise BenchError(f"{result['workload']} did not emit {section} metric {name}")
        if emitted[name]["unit"] != metric["unit"]:
            raise BenchError(
                f"{result['workload']} emitted {name} in {emitted[name]['unit']}, "
                f"BENCHMARK.json says {metric['unit']}"
            )
        metrics[name] = {"value": emitted[name]["value"], "unit": metric["unit"]}
    return metrics


def report(result: dict, declared: dict) -> None:
    """Human-readable block for one workload."""
    units = result["units"]
    print(f"\n== {result['workload']} (seed {result['seed']}): "
          f"{units} x {result['unit']} in {result['wall_s']:.1f} s; slowdown "
          f"{result['slowdown']:.2f} against the reference machine, timings scaled by it")
    for metric in declared["end_to_end"]:
        value = result["end_to_end"][metric["name"]]
        extra = f", p{value['percentile']}" if "percentile" in value else ""
        print(f"  {metric['name']:<18} {value['value']:>12.4f} {metric['unit']:<6}"
              f" ({value['samples']} samples{extra})")
    print(f"  {'error_rate':<18} {result['failed']:>7} / {result['attempted']}")
    if "per_layer" in result:
        print("  per layer, per unit of work (traced rerun):")
        for name, value in result["per_layer"].items():
            if value["value"]:
                print(f"    {name:<44} {value['value']:>14.6g} {value['unit']}")
    for check in result["checks"]:
        status = "ok" if check["passed"] else f"FAILED {check['detail']}"
        print(f"  check: {check['name']}: {status}")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    if result["digest"]:
        print(f"  digest of the first {result['digest']['units']} units: "
              f"{result['digest']['sha256']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="run only this workload (repeatable); default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload (default 20)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="rerun the units under the span tracer; report per-layer metrics")
    parser.add_argument("--trace-out", help="write the traced spans to this JSON file")
    parser.add_argument("--out", help="write the full result document to this JSON file")
    parser.add_argument("--reference", default=str(BENCH / "reference.json"),
                        help="pinned environment and output digests")
    parser.add_argument("--params", type=json.loads, default={},
                        help='JSON {"<workload>": {overrides}} of workload sizes (self-tests)')
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads(Path(args.reference).read_text())
        pinned = reference["env"]
        stamp = environment_stamp(pinned)
        print("environment: " + json.dumps(stamp, sort_keys=True))
        results, traces = {}, {}
        for name in args.workload or WORKLOADS:
            result, spans = run_workload(name, args, pinned)
            check_reference(result, reference)
            report(result, declared)
            results[name], traces[name] = result, spans
        section = "per_layer" if args.trace else "end_to_end"
        chosen = {name: select(result, declared[section], section)
                  for name, result in results.items()}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            SCRATCH.rmdir()  # each process removed its own directory
        except OSError:
            pass

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"stamp": stamp, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "workloads": results}, indent=1) + "\n")
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps({"stamp": stamp, "workloads": traces}) + "\n")
    if len(chosen) == 1:
        metrics = next(iter(chosen.values()))
    else:
        metrics = {f"{workload}.{name}": value
                   for workload, values in chosen.items() for name, value in values.items()}
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
