"""Unit tests for persistence (graphs, schedules, results)."""

import numpy as np
import pytest

from repro.errors import GraphError, ReproError, ScheduleError
from repro.experiments.runner import ExperimentResult
from repro.graphs import gnp
from repro.io import (
    load_graph,
    load_result,
    load_schedule,
    result_from_wire,
    result_wire,
    save_graph,
    save_result,
    save_schedule,
)
from repro.radio import Schedule
from repro.theory.fitting import linear_fit


class TestGraphIO:
    def test_roundtrip(self, tmp_path):
        g = gnp(200, 0.05, seed=1)
        path = save_graph(g, tmp_path / "g")
        assert path.suffix == ".npz"
        assert load_graph(path) == g

    def test_empty_graph_roundtrip(self, tmp_path):
        from repro.graphs import Adjacency

        g = Adjacency.empty(5)
        assert load_graph(save_graph(g, tmp_path / "empty")) == g

    def test_bad_file_raises(self, tmp_path):
        bad = tmp_path / "bad.npz"
        np.savez(bad, wrong_key=np.arange(3))
        with pytest.raises(GraphError, match="not a saved graph"):
            load_graph(bad)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphError):
            load_graph(tmp_path / "nope.npz")

    def test_corrupted_structure_rejected(self, tmp_path):
        bad = tmp_path / "bad2.npz"
        # Asymmetric CSR: loader must re-validate and refuse.
        np.savez(bad, indptr=np.array([0, 1, 1]), indices=np.array([1]))
        with pytest.raises(GraphError):
            load_graph(bad)


class TestScheduleIO:
    def test_roundtrip(self, tmp_path):
        s = Schedule(10, [[0], [1, 2], []], labels=["a", "b", "c"])
        path = save_schedule(s, tmp_path / "s")
        loaded = load_schedule(path)
        assert loaded.n == 10
        assert len(loaded) == 3
        assert [list(r) for r in loaded] == [[0], [1, 2], []]
        assert loaded.labels == ["a", "b", "c"]

    def test_empty_schedule(self, tmp_path):
        s = Schedule(5)
        loaded = load_schedule(save_schedule(s, tmp_path / "empty"))
        assert len(loaded) == 0
        assert loaded.n == 5

    def test_bad_file_raises(self, tmp_path):
        bad = tmp_path / "bad.npz"
        np.savez(bad, nothing=np.arange(2))
        with pytest.raises(ScheduleError, match="not a saved schedule"):
            load_schedule(bad)

    def test_built_schedule_roundtrip(self, tmp_path):
        from repro.broadcast.centralized import GreedyCoverScheduler
        from repro.graphs import gnp_connected
        from repro.radio import RadioNetwork, verify_schedule

        g = gnp_connected(100, 0.15, seed=2)
        s = GreedyCoverScheduler(seed=0).build(g, 0)
        loaded = load_schedule(save_schedule(s, tmp_path / "built"))
        assert verify_schedule(RadioNetwork(g), loaded, 0)


class TestResultIO:
    def make_result(self):
        res = ExperimentResult(
            experiment_id="EX",
            title="demo",
            claim="c",
            columns=["n", "t"],
            rows=[{"n": 10, "t": 1.5}, {"n": 20, "t": None}],
            notes=["note"],
        )
        res.fits["f"] = linear_fit(np.array([1.0, 2.0]), np.array([2.0, 4.0]), "x")
        return res

    def test_roundtrip(self, tmp_path):
        res = self.make_result()
        path = save_result(res, tmp_path / "r")
        assert path.suffix == ".json"
        loaded = load_result(path)
        assert loaded.experiment_id == "EX"
        assert loaded.rows == res.rows
        assert loaded.notes == ["note"]
        assert loaded.fits["f"].slope == pytest.approx(2.0)
        assert loaded.fits["f"].feature_name == "x"

    def test_numpy_scalars_serialised(self, tmp_path):
        res = self.make_result()
        res.rows.append({"n": np.int64(5), "t": np.float64(2.5)})
        loaded = load_result(save_result(res, tmp_path / "np"))
        assert loaded.rows[-1] == {"n": 5, "t": 2.5}

    def test_table_renders_after_load(self, tmp_path):
        loaded = load_result(save_result(self.make_result(), tmp_path / "t"))
        assert "[EX] demo" in loaded.table()

    def test_bad_file_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"half\": true}")
        with pytest.raises(ReproError, match="not a saved result"):
            load_result(bad)

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        import repro._atomic

        path = save_result(self.make_result(), tmp_path / "r")
        before = path.read_bytes()
        changed = self.make_result()
        changed.notes = ["changed"]

        def torn(_fd):
            raise OSError("disk full")

        # The new bytes are written, then the write fails before the rename.
        monkeypatch.setattr(repro._atomic.os, "fsync", torn)
        with pytest.raises(OSError, match="disk full"):
            save_result(changed, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]

    def test_real_experiment_roundtrip(self, tmp_path):
        from repro.experiments import run_experiment

        res = run_experiment("E7", quick=True, seed=3)
        loaded = load_result(save_result(res, tmp_path / "e7"))
        assert loaded.experiment_id == "E7"
        assert len(loaded.rows) == len(res.rows)

    def test_nonfinite_cells_survive_strict_wire(self):
        # A mean over budget misses is ``inf``; the strict canonical JSON
        # of the wire form must still encode, and decode back to floats.
        import json
        import math

        from repro.schema import canonical_json
        from repro.theory.fitting import FitResult

        res = self.make_result()
        res.rows.append({"n": 30, "t": float("inf")})
        res.rows.append({"n": 40, "t": float("-inf")})
        res.rows.append({"n": 50, "t": float("nan")})
        res.fits["g"] = FitResult(float("nan"), 1.0, float("inf"), "x")
        text = canonical_json(result_wire(res))
        loaded = result_from_wire(json.loads(text))
        assert loaded.rows[:2] == res.rows[:2]
        assert loaded.rows[2] == {"n": 30, "t": math.inf}
        assert loaded.rows[3] == {"n": 40, "t": -math.inf}
        assert math.isnan(loaded.rows[4]["t"])
        assert math.isnan(loaded.fits["g"].slope)
        assert loaded.fits["g"].r_squared == math.inf
        assert loaded.table() == res.table()
        assert canonical_json(result_wire(loaded)) == text
