"""Trace sinks and the v1 event schema."""

import io

import numpy as np
import pytest

from repro.obs import JsonlTraceSink, MemoryTraceSink
from repro.obs.sinks import SCHEMA_VERSION, read_jsonl_events, validate_event


def run_start(**over):
    event = {
        "v": SCHEMA_VERSION,
        "kind": "run-start",
        "run": 0,
        "dynamics": "broadcast",
        "n": 100,
        "max_rounds": 500,
        "faulty": False,
    }
    event.update(over)
    return event


def round_event(**over):
    event = {
        "v": SCHEMA_VERSION,
        "kind": "round",
        "run": 0,
        "dynamics": "broadcast",
        "t": 1,
        "transmitters": 3,
        "collisions": 0,
        "received": 2,
        "wall_s": 0.001,
    }
    event.update(over)
    return event


class TestValidateEvent:
    def test_accepts_minimal_events_of_every_kind(self):
        validate_event(run_start())
        validate_event(round_event())
        validate_event(
            {
                "v": 1,
                "kind": "run-end",
                "run": 0,
                "dynamics": "push",
                "rounds": 12,
                "completed": True,
                "wall_s": 0.5,
            }
        )
        validate_event(
            {
                "v": 1,
                "kind": "batch-start",
                "run": 0,
                "engine": "broadcast-batch",
                "backend": "numpy",
                "n": 64,
                "repetitions": 32,
                "max_rounds": 400,
            }
        )
        validate_event(
            {
                "v": 1,
                "kind": "batch-round",
                "run": 0,
                "engine": "broadcast-batch",
                "t": 1,
                "active": 32,
                "wall_s": 0.01,
            }
        )
        validate_event(
            {
                "v": 1,
                "kind": "batch-end",
                "run": 0,
                "engine": "broadcast-batch",
                "rounds": 40,
                "num_completed": 32,
                "wall_s": 0.2,
            }
        )

    def test_accepts_executor_health_events(self):
        validate_event(
            {"v": 1, "kind": "task-requeue", "task": "E7", "attempt": 2,
             "reason": "worker process died"}
        )
        validate_event(
            {"v": 1, "kind": "exec-task-timeout", "task": "E7",
             "elapsed_s": 30.2}
        )
        validate_event({"v": 1, "kind": "exec-worker-crash", "victims": 2})
        validate_event(
            {"v": 1, "kind": "exec-pool-rebuild", "rebuilds": 1, "requeued": 3}
        )
        validate_event({"v": 1, "kind": "exec-degraded", "remaining": 4})

    def test_rejects_malformed_executor_events(self):
        with pytest.raises(ValueError, match="attempt"):
            validate_event(
                {"v": 1, "kind": "task-requeue", "task": "E7",
                 "reason": "crash"}
            )
        with pytest.raises(ValueError, match="must be int"):
            validate_event(
                {"v": 1, "kind": "exec-worker-crash", "victims": 2.5}
            )
        with pytest.raises(ValueError, match="elapsed_s"):
            validate_event(
                {"v": 1, "kind": "exec-task-timeout", "task": "E7",
                 "elapsed_s": "slow"}
            )

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="must be a dict"):
            validate_event([("v", 1)])

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            validate_event(run_start(v=0))
        with pytest.raises(ValueError, match="version"):
            validate_event({"kind": "round"})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            validate_event(run_start(kind="nope"))

    def test_rejects_missing_required_keys(self):
        broken = round_event()
        del broken["transmitters"]
        with pytest.raises(ValueError, match="transmitters"):
            validate_event(broken)

    def test_rejects_numpy_ints(self):
        # Producers must cast with int(); numpy scalars break json and
        # cross-version compatibility.
        with pytest.raises(ValueError, match="must be int"):
            validate_event(round_event(transmitters=np.int64(3)))

    def test_rejects_non_numeric_wall_s(self):
        with pytest.raises(ValueError, match="wall_s"):
            validate_event(round_event(wall_s="fast"))

    def test_faults_subdict_must_map_to_ints(self):
        validate_event(round_event(faults={"alive": 90, "forgot": 2, "garbage": 1}))
        with pytest.raises(ValueError, match="faults"):
            validate_event(round_event(faults={"alive": "many"}))
        with pytest.raises(ValueError, match="faults"):
            validate_event(round_event(faults=[1, 2, 3]))

    def test_extra_keys_are_allowed(self):
        # Consumers ignore unknown keys; producers may add extras.
        validate_event(round_event(new=2, informed=7, task="E4"))


class TestMemoryTraceSink:
    def test_buffers_in_order(self):
        sink = MemoryTraceSink()
        sink.emit(run_start())
        sink.emit(round_event())
        assert len(sink) == 2
        assert sink.events[0]["kind"] == "run-start"
        sink.close()  # no-op, must not raise
        sink.emit(round_event(t=2))
        assert len(sink) == 3


class TestJsonlTraceSink:
    def test_writes_one_compact_line_per_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.emit(run_start())
        sink.emit(round_event())
        sink.close()
        assert sink.num_emitted == 2
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert " " not in lines[0]  # compact separators

    def test_round_trips_through_read_jsonl_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        events = [run_start(), round_event(), round_event(t=2)]
        for event in events:
            sink.emit(event)
        sink.close()
        back = list(read_jsonl_events(str(path)))
        assert back == events
        for event in back:
            validate_event(event)

    def test_accepts_open_file_object_and_does_not_close_it(self):
        buf = io.StringIO()
        sink = JsonlTraceSink(buf)
        sink.emit(run_start())
        sink.close()
        assert not buf.closed  # caller owns the handle
        assert buf.getvalue().count("\n") == 1

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.emit(run_start())
