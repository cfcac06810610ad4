"""Self-tests of the benchmark harness, at smoke size.

    python -m pytest bench/

The sizes below are the tests' own; the benchmark's defaults are in
``workloads.DEFAULTS``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

SMOKE = {
    "serve-cold": {"n": 2000, "min_units": 4},
    "serve-mixed": {"n": 2000, "min_units": 8, "fill": 4, "miss_graphs": 2},
    "sweep-mc": {"n": 2000, "repetitions": 4, "min_units": 2},
    "runall-quick": {"experiments": ["E7", "E19"], "min_units": 2},
}
SECONDS = "1"


def run_bench(tmp_path: Path, *extra: str) -> tuple[subprocess.CompletedProcess, dict]:
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", SECONDS,
         "--params", json.dumps(SMOKE), "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    document = json.loads(out.read_text()) if out.exists() else {}
    return proc, document


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    proc, document = run_bench(tmp, "--trace", "--trace-out", str(tmp / "spans.json"))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    spans = json.loads((tmp / "spans.json").read_text())["workloads"]
    return proc, document, spans


def test_every_declared_metric_is_emitted_with_its_unit(traced_run):
    proc, document, _spans = traced_run
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, result in document["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric in declared[section]:
                emitted = result[section][metric["name"]]
                assert emitted["unit"] == metric["unit"], (name, metric["name"])
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert len(last["metrics"]) == len(declared["per_layer"]) * len(document["workloads"])


def test_layer_self_times_fit_in_the_traced_wall_time(traced_run):
    _proc, document, spans = traced_run
    # Single-threaded workloads: every layer's self time is wall time of
    # the one thread that ran the traced units.
    for name in ("sweep-mc", "runall-quick"):
        result = document["workloads"][name]
        self_s = sum(
            value["value"] for key, value in result["per_layer"].items() if key.endswith(".self_s")
        )
        assert 0 < self_s * result["traced"]["units"] <= result["traced"]["wall_s"]
    # Served jobs run on several threads at once, so the check is per
    # execution: the layers below execute_spec fit inside it.
    by_id = {span["id"]: span for span in spans["serve-cold"]}
    for execute in (s for s in by_id.values() if s["name"] == "serve.execute"):
        below = [s for s in by_id.values() if s["parent"] == execute["id"]]
        assert sum(s["end"] - s["start"] for s in below) <= execute["end"] - execute["start"]
        assert all(execute["start"] <= s["start"] <= s["end"] <= execute["end"] for s in below)


def test_tampered_reference_digest_fails_the_run(traced_run, tmp_path):
    _proc, document, _spans = traced_run
    result = document["workloads"]["sweep-mc"]
    reference = json.loads((BENCH / "reference.json").read_text())
    entry = {"seed": 0, "params": result["params"], **result["digest"]}
    reference["digests"] = {"sweep-mc": entry}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(reference))
    proc, _ = run_bench(tmp_path, "--workload", "sweep-mc", "--reference", str(good))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "output digest pinned for seed 0: ok" in proc.stdout

    entry["sha256"] = "0" * 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(reference))
    proc, _ = run_bench(tmp_path, "--workload", "sweep-mc", "--reference", str(bad))
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] == 1


def leftover_wrappers() -> list[str]:
    """``module.attr`` / ``Class.attr`` names still bound to a wrapper."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, tracing.WRAPPED_MARK, False):
                found.append(f"{module_name}.{attr}")
            if isinstance(value, type) and value.__module__ == module_name:
                for cattr, raw in vars(value).items():
                    func = getattr(raw, "__func__", raw)
                    if getattr(func, tracing.WRAPPED_MARK, False):
                        found.append(f"{module_name}.{value.__name__}.{cattr}")
    return found


def test_every_wrapped_binding_is_restored():
    import repro.graphs.bfs as bfs
    import repro.radio.engine as engine
    from repro.graphs.adjacency import Adjacency

    original_bfs = bfs.bfs_distances
    original_counts = Adjacency.__dict__["neighbor_counts_batch"]
    tracer = tracing.Tracer()
    with tracer:
        patched = tracer.patched
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
        # Bound by name in another module, so replaced there too.
        assert getattr(engine.bfs_distances, tracing.WRAPPED_MARK)
        assert engine.bfs_distances is bfs.bfs_distances
        assert leftover_wrappers()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    assert leftover_wrappers() == []
    assert engine.bfs_distances is original_bfs is bfs.bfs_distances
    assert Adjacency.__dict__["neighbor_counts_batch"] is original_counts


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*"):
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
