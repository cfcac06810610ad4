"""Multi-host sweep fabric tests: recovery invariants under network chaos.

The contract under test is the one the supervisor established and the
fabric extends across machines: **no failure mode changes a single byte
of the results.**  Every test here compares a chaos-ridden distributed
sweep byte-for-byte against the serial (``jobs=1``) run — worker
crashes, network partitions, dropped / duplicated frames, coordinator
death and restart included.

Loopback workers are real ``repro worker`` subprocesses (spawned by the
coordinator), so an injected ``os._exit`` is a genuine worker death and
an injected partition a genuine silent socket — nothing is mocked.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.chaos import FaultRule, FaultSchedule, attempt_count, chaos_task
from repro.errors import CoordinatorHalted, InvalidParameterError
from repro.experiments import run_fabric_sweep, run_supervised_sweep
from repro.experiments.supervisor import (
    TASK_OK,
    SweepTask,
    TaskOutcome,
    TaskStore,
    task_store_key,
)
from repro.obs import MemoryTraceSink, MetricsRegistry, Observer, use_observer
from repro.obs.sinks import validate_event
from repro.rng import spawn_seeds
from repro.serve.cache import ResultCache

#: Aggressive failure-detection knobs so chaos tests finish in seconds.
FAST = dict(heartbeat_interval=0.2, liveness_timeout=1.5, worker_wait=60.0)


def counted_tasks(count, state_dir, **overrides):
    """Sweep tasks whose executions are tallied in per-key counter files.

    Zero-injection :func:`chaos_task` is byte-identical to a healthy
    task but bumps its attempt counter on every execution — which is how
    the resume tests prove completed tasks were *not* re-executed.
    ``overrides`` maps a key to extra ``chaos_task`` kwargs.
    """
    tasks = []
    for i in range(count):
        key = f"t{i}"
        kwargs = {"key": key, "state_dir": str(state_dir), "draws": 3}
        kwargs.update(overrides.get(key, {}))
        tasks.append(SweepTask(key=key, fn=chaos_task, kwargs=kwargs))
    return tasks


def barrier_task(seed, *, barrier_dir, parties, **chaos_kwargs):
    """:func:`chaos_task` held until ``parties`` distinct tasks started.

    No task can finish before that many run at once, so with one task
    in flight per worker, each of ``parties`` workers is certain to run
    one.  Module-level so spawned workers can unpickle it.
    """
    barrier = Path(barrier_dir)
    barrier.mkdir(parents=True, exist_ok=True)
    (barrier / chaos_kwargs["key"]).touch()
    deadline = time.monotonic() + 60.0
    while len(list(barrier.iterdir())) < parties and time.monotonic() < deadline:
        time.sleep(0.02)
    return chaos_task(seed, **chaos_kwargs)


def halt_on(outcome, state_dir):
    """A coordinator schedule that halts on its ``outcome``-th recorded outcome."""
    return FaultSchedule(state_dir, [FaultRule("outcome", "halt", after=outcome - 1)])


def serial_reference(count, state_dir, seed):
    """The ``jobs=1`` comparator: same payloads, zero injections."""
    outcomes = run_supervised_sweep(
        counted_tasks(count, state_dir), jobs=1, seed=seed
    )
    return [o.result for o in outcomes]


class TestNetChaosSchedule:
    """The wire rules of a :class:`FaultSchedule` (what ``repro worker
    --chaos-net`` loads)."""

    def test_action_validation(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(kind="task", action="explode")
        with pytest.raises(ValueError, match="invalid fault window"):
            FaultRule(kind="task", action="drop", count=-1)
        with pytest.raises(ValueError, match="invalid fault window"):
            FaultRule(kind="task", action="delay", after=-1)

    def test_fires_by_occurrence_window(self, tmp_path):
        chaos = FaultSchedule(
            tmp_path, [FaultRule(kind="task", action="drop", after=2, count=2)]
        )
        fired = [chaos.fire("task", "drop") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]
        # A site that cannot act on a rule neither fires nor counts it.
        assert chaos.fire("task", "hold") is None
        assert chaos.seen(0) == 6

    def test_counters_survive_process_death(self, tmp_path):
        """A respawned worker resumes its schedule, not restarts it."""
        faults = [FaultRule(kind="result", action="drop", after=1, count=1)]
        first = FaultSchedule(tmp_path, faults)
        assert first.fire("result", "drop") is None
        # Simulate death: a brand-new schedule over the same state_dir
        # (what a respawned worker constructs) continues at occurrence 2.
        reborn = FaultSchedule(tmp_path, faults)
        assert reborn.fire("result", "drop") is not None
        assert reborn.fire("result", "drop") is None

    def test_spec_file_round_trip(self, tmp_path):
        faults = [
            FaultRule(kind="*", action="delay", after=3, count=2, seconds=0.5),
            FaultRule(kind="result", action="partition", seconds=1.0),
        ]
        spec = FaultSchedule(tmp_path / "state", faults).save(tmp_path / "spec.json")
        loaded = FaultSchedule.load(spec)
        assert loaded.rules == faults
        assert loaded.state_dir == tmp_path / "state"


class TestValidationAndEdges:
    def test_parameter_validation(self):
        task = counted_tasks(1, "/tmp/unused")
        with pytest.raises(InvalidParameterError):
            run_fabric_sweep(task, workers=-1)
        with pytest.raises(InvalidParameterError):
            run_fabric_sweep(task, max_task_retries=-1)
        with pytest.raises(InvalidParameterError):
            run_fabric_sweep(task, task_timeout=0.0)
        with pytest.raises(InvalidParameterError):
            run_fabric_sweep(task, heartbeat_interval=0.0)

    def test_empty_tasks(self):
        assert run_fabric_sweep([], seed=0) == []

    def test_store_requires_json_kwargs(self, tmp_path):
        store = TaskStore(ResultCache(tmp_path / "store"))
        tasks = [SweepTask(key="t0", fn=chaos_task, kwargs={"state_dir": tmp_path})]
        with pytest.raises(InvalidParameterError, match="not JSON"):
            run_fabric_sweep(tasks, seed=0, store=store)

    def test_fully_resumed_sweep_never_listens(self, tmp_path, monkeypatch):
        """All tasks on record: return immediately, no socket, no workers."""
        store = TaskStore(ResultCache(tmp_path / "store"))
        tasks = counted_tasks(3, tmp_path / "exec")
        first = run_fabric_sweep(tasks, seed=5, worker_wait=0.2, store=store)
        assert all(o.ok for o in first)
        import socket as socket_module

        def explode(*args, **kwargs):  # any bind attempt fails the test
            raise AssertionError("fully-resumed sweep opened a socket")

        monkeypatch.setattr(socket_module.socket, "bind", explode)
        again = run_fabric_sweep(tasks, seed=5, store=store)
        assert [o.result for o in again] == [o.result for o in first]
        # Completed tasks were served from the store, not re-run.
        assert all(attempt_count(tmp_path / "exec", f"t{i}") == 1 for i in range(3))


class TestDegradedPath:
    """No workers ever join: the fabric must finish locally, identically."""

    def test_degrades_to_local_pool_byte_identical(self, tmp_path):
        reference = serial_reference(4, tmp_path / "serial", seed=42)
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = run_fabric_sweep(
                counted_tasks(4, tmp_path / "fab"),
                seed=42,
                workers=0,
                worker_wait=0.3,
            )
        assert [o.result for o in outcomes] == reference
        assert all(o.status == TASK_OK and o.host == "local" for o in outcomes)
        kinds = [e["kind"] for e in sink.events]
        assert "fabric-degraded" in kinds and "fabric-end" in kinds
        degraded = next(e for e in sink.events if e["kind"] == "fabric-degraded")
        assert degraded["reason"] == "no-workers"
        assert degraded["remaining"] == 4
        for event in sink.events:
            validate_event(event)

    def test_one_attempt_budget_across_degrade(self, tmp_path):
        """Attempts the fabric charged count against the degraded run:
        a task crashes its only worker, then fails in-process until its
        one ``1 + max_task_retries`` budget is spent — not a fresh one."""
        state = tmp_path / "fab"
        registry = MetricsRegistry()
        sink = MemoryTraceSink()
        with use_observer(Observer(registry, sink)):
            outcomes = run_fabric_sweep(
                counted_tasks(
                    2, state, t0={"crash_attempts": 1, "error_attempts": 99}
                ),
                seed=5,
                workers=1,
                max_task_retries=2,
                max_worker_respawns=0,
                heartbeat_interval=0.2,
                worker_wait=5.0,
            )
        poisoned = outcomes[0]
        assert poisoned.status == "error"
        assert poisoned.lost_leases == 1  # the fabric charged attempt 1
        assert poisoned.attempts == 3 == attempt_count(state, "t0")
        assert poisoned.host == "local"
        assert outcomes[1].ok
        degraded = next(e for e in sink.events if e["kind"] == "fabric-degraded")
        assert degraded["reason"] == "all-workers-lost"
        # Each terminal outcome counts once, under the fabric's metrics.
        assert registry.counter_value("fabric.tasks", label="error") == 1
        assert registry.counter_value("fabric.tasks", label="ok") == 1
        assert registry.counter_value("exec.tasks", label="ok") == 0
        for event in sink.events:
            validate_event(event)


@pytest.mark.usefixtures("tmp_path")
class TestLoopbackFabric:
    """Real spawned workers over loopback TCP — the distributed paths."""

    def test_healthy_sweep_byte_identical(self, tmp_path):
        reference = serial_reference(6, tmp_path / "serial", seed=42)
        outcomes = run_fabric_sweep(
            counted_tasks(6, tmp_path / "fab"), seed=42, workers=2, **FAST
        )
        assert [o.result for o in outcomes] == reference
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        # Executed on workers, not degraded: host is a worker identity.
        assert all(o.host not in ("", "local") for o in outcomes)

    def test_authenticated_sweep_byte_identical(self, tmp_path, monkeypatch):
        """With ``REPRO_FABRIC_SECRET`` in the environment, every frame
        both ways carries an HMAC tag — spawned workers inherit the
        secret and the sweep is byte-identical to the serial run."""
        from repro.experiments.wire import FABRIC_SECRET_ENV

        monkeypatch.setenv(FABRIC_SECRET_ENV, "lab-segment-secret")
        reference = serial_reference(6, tmp_path / "serial", seed=42)
        outcomes = run_fabric_sweep(
            counted_tasks(6, tmp_path / "fab"), seed=42, workers=2, **FAST
        )
        assert [o.result for o in outcomes] == reference
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert all(o.host not in ("", "local") for o in outcomes)

    def test_worker_crash_mid_task_recovers(self, tmp_path):
        """``os._exit`` in a worker is a lost lease: charged, requeued,
        retried on the original child seed — results unchanged."""
        reference = serial_reference(6, tmp_path / "serial", seed=7)
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = run_fabric_sweep(
                counted_tasks(
                    6, tmp_path / "fab", t2={"crash_attempts": 1}
                ),
                seed=7,
                workers=2,
                **FAST,
            )
        assert [o.result for o in outcomes] == reference
        crashed = outcomes[2]
        assert crashed.ok
        assert crashed.lost_leases >= 1
        assert crashed.requeued >= 1
        assert crashed.attempts == 2
        kinds = [e["kind"] for e in sink.events]
        assert "fabric-worker-lost" in kinds
        assert "task-requeue" in kinds
        for event in sink.events:
            validate_event(event)

    def test_dropped_task_frame_requeued_uncharged(self, tmp_path):
        """A ``task`` frame the network ate never acks; the lease is
        revoked and the attempt refunded — nothing ever ran."""
        reference = serial_reference(6, tmp_path / "serial", seed=3)
        chaos = FaultSchedule(
            tmp_path / "coord",
            [FaultRule(kind="task", action="drop", after=1, count=1)],
        )
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = run_fabric_sweep(
                counted_tasks(6, tmp_path / "fab"),
                seed=3,
                workers=2,
                ack_timeout=0.6,
                chaos=chaos,
                **FAST,
            )
        assert [o.result for o in outcomes] == reference
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        reasons = [
            e["reason"] for e in sink.events if e["kind"] == "task-requeue"
        ]
        assert "undelivered" in reasons

    def test_duplicated_task_frame_executes_once(self, tmp_path):
        """Chaos duplicates an assignment; the worker answers the second
        copy from its result cache and the coordinator discards the
        duplicate result idempotently."""
        reference = serial_reference(6, tmp_path / "serial", seed=3)
        chaos = FaultSchedule(
            tmp_path / "coord",
            [FaultRule(kind="task", action="duplicate", after=2, count=1)],
        )
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = run_fabric_sweep(
                counted_tasks(6, tmp_path / "fab"),
                seed=3,
                workers=2,
                chaos=chaos,
                **FAST,
            )
        assert [o.result for o in outcomes] == reference
        kinds = [e["kind"] for e in sink.events]
        assert "fabric-duplicate-result" in kinds
        # The duplicated assignment was answered from cache, not re-run.
        assert all(
            attempt_count(tmp_path / "fab", f"t{i}") == 1 for i in range(6)
        )

    def test_dropped_result_recovered_by_lease_retransmit(self, tmp_path):
        """A lost ``result`` frame is recovered without re-execution: the
        quiet lease is retransmitted and the worker answers from cache."""
        reference = serial_reference(4, tmp_path / "serial", seed=9)
        spec = FaultSchedule(
            tmp_path / "w0-state",
            [FaultRule(kind="result", action="drop", after=0, count=1)],
        ).save(tmp_path / "w0.json")
        registry = MetricsRegistry()
        with use_observer(Observer(registry, None)):
            outcomes = run_fabric_sweep(
                counted_tasks(4, tmp_path / "fab"),
                seed=9,
                workers=1,
                lease_timeout=0.8,
                worker_chaos=[spec],
                **FAST,
            )
        assert [o.result for o in outcomes] == reference
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert registry.counter_value("fabric.lease_resends") >= 1
        assert all(
            attempt_count(tmp_path / "fab", f"t{i}") == 1 for i in range(4)
        )

    def test_partitioned_worker_leases_revoked(self, tmp_path):
        """A partition window mutes heartbeats too; the coordinator
        declares the worker lost and requeues its leases.

        The partition triggers on worker 0's *first* result send, and
        the tasks hold at a two-party barrier: otherwise the worker that
        joins first can drain all eight tiny tasks before worker 0 even
        says hello, and the fault never fires.
        """
        reference = serial_reference(8, tmp_path / "serial", seed=11)
        tasks = [
            SweepTask(
                key=task.key,
                fn=barrier_task,
                kwargs={
                    **task.kwargs,
                    "barrier_dir": str(tmp_path / "barrier"),
                    "parties": 2,
                },
            )
            for task in counted_tasks(8, tmp_path / "fab")
        ]
        spec = FaultSchedule(
            tmp_path / "w0-state",
            [
                FaultRule(
                    kind="result", action="partition", after=0, count=1,
                    seconds=3.0,
                )
            ],
        ).save(tmp_path / "w0.json")
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = run_fabric_sweep(
                tasks,
                seed=11,
                workers=2,
                worker_chaos=[spec, None],
                **FAST,
            )
        assert [o.result for o in outcomes] == reference
        assert all(o.ok for o in outcomes)
        lost = [e for e in sink.events if e["kind"] == "fabric-worker-lost"]
        assert any(e["reason"] == "partition" for e in lost)

    def test_work_stealing_beats_straggler(self, tmp_path):
        """With the queue dry, an idle worker runs a speculative twin of
        the straggler; first result wins, accounting stays clean."""
        reference = serial_reference(3, tmp_path / "serial", seed=21)
        sink = MemoryTraceSink()
        start = time.perf_counter()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = run_fabric_sweep(
                counted_tasks(
                    3,
                    tmp_path / "fab",
                    t0={"hang_attempts": 1, "hang_seconds": 20.0},
                ),
                seed=21,
                workers=2,
                steal_after=0.5,
                **FAST,
            )
        elapsed = time.perf_counter() - start
        assert [o.result for o in outcomes] == reference
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert any(e["kind"] == "fabric-task-steal" for e in sink.events)
        # The twin finished the sweep; nobody waited out the 20s straggler.
        assert elapsed < 15.0

    def test_task_timeout_is_terminal(self, tmp_path):
        """PR 5 parity: a deadline expiry is a terminal timeout outcome,
        and the sweep's siblings are unharmed."""
        outcomes = run_fabric_sweep(
            counted_tasks(
                3,
                tmp_path / "fab",
                t1={"hang_attempts": 9, "hang_seconds": 60.0},
            ),
            seed=2,
            workers=2,
            task_timeout=1.5,
            max_worker_respawns=2,
            **FAST,
        )
        assert outcomes[0].ok and outcomes[2].ok
        assert outcomes[1].status == "timeout"
        assert "deadline" in outcomes[1].error


class TestCoordinatorRestart:
    """Coordinator death and rerun: the store is the contract."""

    def test_halt_then_resume_without_double_execution(self, tmp_path):
        """Kill the coordinator on its 3rd outcome; every result is in
        the store the moment it is recorded, so the rerun skips exactly
        the completed tasks — none of them execute a second time."""
        reference = serial_reference(8, tmp_path / "serial", seed=13)
        store = TaskStore(ResultCache(tmp_path / "store"))
        chaos = halt_on(3, tmp_path / "coord")
        with pytest.raises(CoordinatorHalted) as excinfo:
            run_fabric_sweep(
                counted_tasks(8, tmp_path / "fab"),
                seed=13,
                workers=2,
                store=store,
                chaos=chaos,
                **FAST,
            )
        assert excinfo.value.completed >= 3
        # The atomic tmp-then-replace puts mean every entry on disk is a
        # complete, valid result even though the coordinator died.
        tasks = counted_tasks(8, tmp_path / "fab")
        completed_keys = {
            task.key
            for task, child in zip(tasks, spawn_seeds(13, 8))
            if task_store_key(task, child) in store.cache
        }
        assert len(completed_keys) >= 3
        # The same schedule again: its halt rule is spent.
        outcomes = run_fabric_sweep(
            tasks, seed=13, workers=2, store=store, chaos=chaos, **FAST
        )
        assert [o.result for o in outcomes] == reference
        assert all(o.ok for o in outcomes)
        assert {o.key for o in outcomes if o.host == "store"} == completed_keys
        # Tasks stored before the halt ran exactly once in total.
        for key in completed_keys:
            assert attempt_count(tmp_path / "fab", key) == 1

    def test_corrupt_checkpoint_quarantined_and_rerun(self, tmp_path):
        """A store entry torn by a crash mid-write is quarantined (not
        trusted, not fatal) and only its task re-runs."""
        reference = serial_reference(4, tmp_path / "serial", seed=17)
        store = TaskStore(ResultCache(tmp_path / "store"))
        with pytest.raises(CoordinatorHalted):
            run_fabric_sweep(
                counted_tasks(4, tmp_path / "fab"),
                seed=17,
                workers=2,
                store=store,
                chaos=halt_on(2, tmp_path / "coord"),
                **FAST,
            )
        entries = sorted(store.cache.root.glob("*/*.json"))
        assert len(entries) >= 2
        torn = entries[0]
        torn.write_text('{"key": "' + torn.stem + '", "result": [TORN')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            outcomes = run_fabric_sweep(
                counted_tasks(4, tmp_path / "fab"),
                seed=17,
                workers=2,
                store=store,
                **FAST,
            )
        assert [o.result for o in outcomes] == reference
        assert all(o.ok for o in outcomes)
        assert torn.with_suffix(".json.corrupt").exists()
        # Only the torn entry's task and the never-stored ones executed.
        executed = [o for o in outcomes if o.host != "store"]
        assert len(executed) == 4 - (len(entries) - 1)


class TestWorkerInterrupt:
    """SIGINT to a worker releases its lease before the process exits."""

    def test_sigint_sends_goodbye_and_lease_is_refunded(self, tmp_path):
        import repro

        reference = serial_reference(3, tmp_path / "serial", seed=31)
        state = tmp_path / "fab"
        tasks = counted_tasks(
            3, state, t0={"hang_attempts": 1, "hang_seconds": 30.0}
        )
        # Pre-pick a port so the test can dial its own worker at it.
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        sink = MemoryTraceSink()
        results = {}

        def coordinate():
            with use_observer(Observer(MetricsRegistry(), sink)):
                results["outcomes"] = run_fabric_sweep(
                    tasks,
                    seed=31,
                    listen=f"127.0.0.1:{port}",
                    workers=0,
                    heartbeat_interval=0.2,
                    liveness_timeout=2.0,
                    worker_wait=2.0,
                )

        thread = threading.Thread(target=coordinate)
        thread.start()
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(repro.__file__).resolve().parents[1])
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        worker = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--connect",
                f"127.0.0.1:{port}",
                "--heartbeat",
                "0.2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until the worker is executing the straggler, then ^C it.
            deadline = time.monotonic() + 30.0
            while (
                attempt_count(state, "t0") < 1 and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert attempt_count(state, "t0") >= 1, "worker never started t0"
            time.sleep(0.3)
            worker.send_signal(signal.SIGINT)
            assert worker.wait(timeout=15.0) == 130
        finally:
            if worker.poll() is None:  # pragma: no cover - cleanup only
                worker.kill()
            thread.join(timeout=120.0)
        assert not thread.is_alive()
        outcomes = results["outcomes"]
        assert [o.result for o in outcomes] == reference
        # The goodbye refunded the attempt: the interrupted task finished
        # on the degraded local pool with clean accounting.
        interrupted = outcomes[0]
        assert interrupted.ok
        assert interrupted.requeued >= 1
        assert interrupted.lost_leases == 0
        reasons = [
            e["reason"] for e in sink.events if e["kind"] == "task-requeue"
        ]
        assert "goodbye" in reasons


class TestAcceptance:
    """The ISSUE's acceptance bar, in one sweep: >= 2 workers under a
    scheduled worker crash, a network partition and one coordinator
    restart — byte-identical to serial, every task a structured outcome."""

    def test_chaos_ridden_fabric_matches_serial(self, tmp_path):
        count = 10
        reference = serial_reference(count, tmp_path / "serial", seed=101)
        state = tmp_path / "fab"
        # Worker 0 partitions for 2.5s after its second result; task t4
        # crashes whichever worker runs it first.
        spec = FaultSchedule(
            tmp_path / "w0-state",
            [
                FaultRule(
                    kind="result", action="partition", after=2, count=1,
                    seconds=2.5,
                )
            ],
        ).save(tmp_path / "w0.json")
        kwargs = dict(
            seed=101,
            workers=2,
            store=TaskStore(ResultCache(tmp_path / "store")),
            worker_chaos=[spec, None],
            # The coordinator dies on its 4th outcome, once.
            chaos=halt_on(4, tmp_path / "coord"),
            **FAST,
        )
        tasks = counted_tasks(count, state, t4={"crash_attempts": 1})
        with pytest.raises(CoordinatorHalted):
            run_fabric_sweep(tasks, **kwargs)
        # One coordinator restart, served from the store where it can be.
        outcomes = run_fabric_sweep(tasks, **kwargs)

        assert [o.result for o in outcomes] == reference
        assert [o.key for o in outcomes] == [f"t{i}" for i in range(count)]
        for outcome in outcomes:
            assert isinstance(outcome, TaskOutcome)
            assert outcome.status == TASK_OK
            assert outcome.attempts >= 1
        # The crash surfaced in the accounting, not in the results: t4
        # crashed exactly once (only attempt 1 is scheduled to crash)
        # and then re-executed successfully.  How many executions the
        # counter shows races with the halt: the crash and rerun may
        # land either side of the restart, and a rerun whose result
        # reaches the coordinator after the halt is lost with it and
        # legitimately re-executed on restart — so 2 or 3 total, never 1
        # (an unsurfaced crash) and never more (a re-run of stored
        # work).
        assert 2 <= attempt_count(state, "t4") <= 3
        if outcomes[4].attempts == 2:
            assert outcomes[4].lost_leases >= 1
