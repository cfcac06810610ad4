"""Multi-host sweep fabric tests: recovery invariants under network chaos.

The contract under test is the one the supervisor established and the
fabric extends across machines: **no failure mode changes a single byte
of the results.**  Every sweep here is compared byte-for-byte against
the serial (``jobs=1``) run — worker crashes, network partitions,
dropped / duplicated frames, coordinator death and restart included.

The tests run on two layers:

* **virtual time** — the fault scenarios drive the coordinator's sans-IO
  core (:class:`~repro.experiments.fabric_core.CoordinatorCore`) from
  ``virtual_fabric.py``: in-memory workers on a fake clock, at the
  production heartbeat of one second.  The workers answer with the real
  ``serve_task``, the faults are real :class:`FaultSchedule` rules
  replayed by the real ``SendFaults``, and the tasks are real chaos
  tasks; only sockets, subprocesses and waiting are simulated, so a
  20-second straggler or a liveness window costs nothing;
* **real processes** — the acceptance tests spawn real ``repro worker``
  subprocesses over loopback TCP, so an injected ``os._exit`` is a
  genuine worker death and a partition a genuine silent socket: the
  healthy, authenticated and worker-crash sweeps, and one chaos-ridden
  sweep with a coordinator restart.
"""

import ast
import socket
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.fabric_core as fabric_core
from repro.chaos import (
    FaultRule,
    FaultSchedule,
    attempt_count,
    chaos_task,
    healthy_task,
)
from repro.errors import CoordinatorHalted, InvalidParameterError
from repro.experiments import run_fabric_sweep, run_supervised_sweep, run_worker
from repro.experiments.fabric_core import MSG_TASK
from repro.experiments.supervisor import (
    TASK_ERROR,
    TASK_OK,
    SweepTask,
    TaskOutcome,
    TaskStore,
    task_store_key,
)
from repro.experiments.wire import FramedChannel
from repro.obs import MemoryTraceSink, MetricsRegistry, Observer, use_observer
from repro.obs.sinks import validate_event
from repro.rng import spawn_seeds
from repro.serve.cache import ResultCache

from .virtual_fabric import Crash, Interrupt, Stall, VirtualFabric

#: The real-process tests' heartbeat: a worker silent for 2.4 s (less
#: than the acceptance test's 2.5 s partition) is partitioned, and the
#: coordinator waits 6 s for a first worker before it degrades.
FAST = dict(heartbeat_interval=0.4)


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


def halt_on(outcome, state_dir):
    """A coordinator schedule that halts on its ``outcome``-th recorded outcome."""
    return FaultSchedule(state_dir, [FaultRule("outcome", "halt", after=outcome - 1)])


def serial_reference(count, state_dir, seed):
    """The ``jobs=1`` comparator: same payloads, zero injections."""
    outcomes = run_supervised_sweep(
        counted_tasks(count, state_dir), jobs=1, seed=seed
    )
    return [o.result for o in outcomes]


def interrupted_task(seed):
    """A task whose worker gets ``^C`` while running it."""
    raise KeyboardInterrupt


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
        # No workers: the first run degrades after 15 heartbeats (0.3 s).
        first = run_fabric_sweep(
            tasks, seed=5, heartbeat_interval=0.02, store=store
        )
        assert all(o.ok for o in first)
        import socket as socket_module

        def explode(*args, **kwargs):  # any bind attempt fails the test
            raise AssertionError("fully-resumed sweep opened a socket")

        monkeypatch.setattr(socket_module.socket, "bind", explode)
        again = run_fabric_sweep(tasks, seed=5, store=store)
        assert [o.result for o in again] == [o.result for o in first]
        # Completed tasks were served from the store, not re-run.
        assert all(attempt_count(tmp_path / "exec", f"t{i}") == 1 for i in range(3))


class TestCore:
    """The coordinator core itself: pure, and never wedged by a silent peer."""

    def test_core_does_no_io_and_reads_no_clock(self):
        tree = ast.parse(Path(fabric_core.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert not imported & {"socket", "selectors", "subprocess", "time", "threading"}
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert "monotonic" not in names

    def test_lost_hello_connection_is_dropped_and_worker_returns(self, tmp_path):
        """A worker whose ``hello`` the network ate never becomes ready.
        Its connection is dropped after the liveness window, the worker
        exits on the closed connection, and its respawn joins and runs
        the sweep on the fabric, before the worker wait runs out."""
        reference = serial_reference(2, tmp_path / "serial", seed=0)
        lost_hello = FaultSchedule(
            tmp_path / "w0", [FaultRule("hello", "drop", count=1)]
        )
        fabric = VirtualFabric(workers=1, worker_chaos=[lost_hello])
        outcomes = fabric.run(counted_tasks(2, tmp_path / "fab"), seed=0)
        assert [o.result for o in outcomes] == reference
        assert all(o.ok and o.host == "virtual-0" for o in outcomes)
        # Dropped after 6 heartbeats, respawned, joined: never degraded.
        assert 6.0 < fabric.now < 15.0
        assert fabric.respawns == 1

    def test_silent_connection_does_not_block_degradation(self, tmp_path):
        """A connection that never says anything (a port probe) does not
        count as a worker: with no ready worker the sweep degrades."""
        reference = serial_reference(2, tmp_path / "serial", seed=0)
        mute = FaultSchedule(tmp_path / "probe", [FaultRule("*", "drop", count=10**6)])
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = VirtualFabric(workers=0, external=1, worker_chaos=[mute]).run(
                counted_tasks(2, tmp_path / "fab"), seed=0
            )
        assert [o.result for o in outcomes] == reference
        assert all(o.ok and o.host == "local" for o in outcomes)
        degraded = next(e for e in sink.events if e["kind"] == "fabric-degraded")
        assert degraded["reason"] == "no-workers"


    def test_stale_failure_leaves_the_current_lease(self, tmp_path):
        """A duplicated ``task`` frame is answered twice from the worker's
        cache.  The second failure report arrives after the retry was
        leased, and the retry's frame is lost: the stale report must not
        take the new lease away, or nothing ever notices the lost frame
        and the sweep never ends."""
        reference = serial_reference(1, tmp_path / "serial", seed=4)
        chaos = FaultSchedule(
            tmp_path / "coord",
            [
                FaultRule(kind="task", action="duplicate", after=0, count=1),
                FaultRule(kind="task", action="drop", after=1, count=1),
            ],
        )
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = VirtualFabric(workers=1, chaos=chaos).run(
                counted_tasks(1, tmp_path / "fab", t0={"error_attempts": 1}),
                seed=4,
            )
        assert [o.result for o in outcomes] == reference
        assert outcomes[0].attempts == 2
        reasons = [e["reason"] for e in sink.events if e["kind"] == "task-requeue"]
        assert "undelivered" in reasons

    def test_lost_ack_buys_no_extra_execution(self, tmp_path):
        """Worker 1 runs ``t1`` but its first ``ack`` is lost in a
        partition that outlasts the liveness window.  The unacked lease
        goes back to worker 1, not to worker 0, so its loss charges the
        attempt that ran: with 3 injected errors and ``max_task_retries=2``
        the task ends ``error`` after exactly 3 executions, the budget."""
        partition = FaultSchedule(
            tmp_path / "w1",
            [FaultRule(kind="ack", action="partition", after=0, count=1, seconds=10.0)],
        )
        state = tmp_path / "fab"
        outcomes = VirtualFabric(workers=2, worker_chaos=[None, partition]).run(
            counted_tasks(2, state, t1={"error_attempts": 3}), seed=5, max_task_retries=2
        )
        assert attempt_count(state, "t1") == 3
        assert outcomes[1].status == TASK_ERROR
        assert outcomes[1].attempts == 3
        assert outcomes[0].ok and attempt_count(state, "t0") == 1

    def test_lost_workers_counted_by_reason(self, tmp_path):
        """``fabric.workers_lost`` is labelled by the loss reason: a
        crashed worker's connection closes, a partitioned one goes
        silent."""
        partition = FaultSchedule(
            tmp_path / "w1",
            [FaultRule(kind="result", action="partition", after=0, count=1, seconds=10.0)],
        )
        registry = MetricsRegistry()
        with use_observer(Observer(registry, None)):
            outcomes = VirtualFabric(
                workers=3,
                worker_chaos=[None, partition],
                task_seconds=2.0,
                script=[Crash(at=1.0, slot=0)],
            ).run(counted_tasks(8, tmp_path / "fab"), seed=2)
        assert all(o.ok for o in outcomes)
        assert registry.counter_value("fabric.workers_lost", label="disconnect") == 1
        assert registry.counter_value("fabric.workers_lost", label="partition") == 1
        assert registry.counter_value("fabric.workers_lost") == 0


class TestDegradedPath:
    """No workers ever join: the fabric must finish locally, identically."""

    def test_degrades_to_local_pool_byte_identical(self, tmp_path):
        reference = serial_reference(4, tmp_path / "serial", seed=42)
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            fabric = VirtualFabric(workers=0)
            outcomes = fabric.run(counted_tasks(4, tmp_path / "fab"), seed=42)
        assert [o.result for o in outcomes] == reference
        assert all(o.status == TASK_OK and o.host == "local" for o in outcomes)
        kinds = [e["kind"] for e in sink.events]
        assert "fabric-degraded" in kinds and "fabric-end" in kinds
        degraded = next(e for e in sink.events if e["kind"] == "fabric-degraded")
        assert degraded["reason"] == "no-workers"
        assert degraded["remaining"] == 4
        # After the worker wait of 15 heartbeats, not before.
        assert fabric.now >= 15.0
        for event in sink.events:
            validate_event(event)

    def test_one_attempt_budget_across_degrade(self, tmp_path):
        """Attempts the fabric charged count against the degraded run:
        a task crashes its only worker (an external one, which nobody
        restarts), then fails in-process until its one
        ``1 + max_task_retries`` budget is spent — not a fresh one."""
        state = tmp_path / "fab"
        registry = MetricsRegistry()
        sink = MemoryTraceSink()
        with use_observer(Observer(registry, sink)):
            outcomes = VirtualFabric(workers=0, external=1).run(
                counted_tasks(
                    2, state, t0={"crash_attempts": 1, "error_attempts": 99}
                ),
                seed=5,
                max_task_retries=2,
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
    """The distributed paths.  The healthy, authenticated and crash
    sweeps run real worker subprocesses over loopback TCP; the wire
    faults run in virtual time."""

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
            outcomes = VirtualFabric(workers=2, chaos=chaos).run(
                counted_tasks(6, tmp_path / "fab"), seed=3
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
            outcomes = VirtualFabric(workers=2, chaos=chaos).run(
                counted_tasks(6, tmp_path / "fab"), seed=3
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
        chaos = FaultSchedule(
            tmp_path / "w0-state",
            [FaultRule(kind="result", action="drop", after=0, count=1)],
        )
        registry = MetricsRegistry()
        with use_observer(Observer(registry, None)):
            outcomes = VirtualFabric(workers=1, worker_chaos=[chaos]).run(
                counted_tasks(4, tmp_path / "fab"), seed=9
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

        The partition opens on worker 0's first result send and outlasts
        the 6-heartbeat liveness window; each task takes 2 s, so worker
        1 is still draining the queue when the window expires (with the
        queue dry, the quiet lease would be stolen first).
        """
        reference = serial_reference(8, tmp_path / "serial", seed=11)
        partition = FaultSchedule(
            tmp_path / "w0-state",
            [
                FaultRule(
                    kind="result", action="partition", after=0, count=1,
                    seconds=10.0,
                )
            ],
        )
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = VirtualFabric(
                workers=2, worker_chaos=[partition], task_seconds=2.0
            ).run(counted_tasks(8, tmp_path / "fab"), seed=11)
        assert [o.result for o in outcomes] == reference
        assert all(o.ok for o in outcomes)
        lost = [e for e in sink.events if e["kind"] == "fabric-worker-lost"]
        assert any(e["reason"] == "partition" for e in lost)

    def test_work_stealing_beats_straggler(self, tmp_path):
        """With the queue dry, an idle worker runs a speculative twin of
        the straggler; first result wins, accounting stays clean."""
        reference = serial_reference(3, tmp_path / "serial", seed=21)
        sink = MemoryTraceSink()
        fabric = VirtualFabric(workers=2, slow={"t0": [20.0]})
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = fabric.run(counted_tasks(3, tmp_path / "fab"), seed=21)
        assert [o.result for o in outcomes] == reference
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert any(e["kind"] == "fabric-task-steal" for e in sink.events)
        # The twin finished the sweep; nobody waited out the 20s straggler.
        assert fabric.now < 15.0

    def test_task_timeout_is_terminal(self, tmp_path):
        """PR 5 parity: a deadline expiry is a terminal timeout outcome,
        and the sweep's siblings are unharmed."""
        outcomes = VirtualFabric(workers=2, slow={"t1": [60.0] * 9}).run(
            counted_tasks(3, tmp_path / "fab"), seed=2, task_timeout=1.5
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
            VirtualFabric(workers=2, chaos=chaos).run(
                counted_tasks(8, tmp_path / "fab"), seed=13, store=store
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
        outcomes = VirtualFabric(workers=2, chaos=chaos).run(
            tasks, seed=13, store=store
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
            VirtualFabric(workers=2, chaos=halt_on(2, tmp_path / "coord")).run(
                counted_tasks(4, tmp_path / "fab"), seed=17, store=store
            )
        entries = sorted(store.cache.root.glob("*/*.json"))
        assert len(entries) >= 2
        torn = entries[0]
        torn.write_text('{"key": "' + torn.stem + '", "result": [TORN')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            outcomes = VirtualFabric(workers=2).run(
                counted_tasks(4, tmp_path / "fab"), seed=17, store=store
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
        # The worker side: ^C inside a task acks it, says goodbye naming
        # the abandoned task, and exits 130.
        received = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]

            def coordinate():
                conn, _addr = listener.accept()
                channel = FramedChannel(conn)
                received.append(channel.recv(timeout=10))
                channel.send(
                    {
                        "kind": MSG_TASK,
                        "index": 0,
                        "key": "t0",
                        "attempt": 1,
                        "task": SweepTask(key="t0", fn=interrupted_task),
                        "seed": None,
                    }
                )
                while (message := channel.recv(timeout=10)) is not None:
                    received.append(message)
                channel.close()

            thread = threading.Thread(target=coordinate)
            thread.start()
            code = run_worker(
                f"127.0.0.1:{port}", heartbeat_interval=60.0, exit_on_disconnect=False
            )
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert code == 130
        assert [m["kind"] for m in received] == ["hello", "ack", "goodbye"]
        assert received[-1]["abandoned"] == "t0"

        # The coordinator side: the goodbye refunds the attempt.  The
        # worker is an external one (nobody respawns it), so the
        # interrupted task finishes on the degraded local pool.
        reference = serial_reference(3, tmp_path / "serial", seed=31)
        state = tmp_path / "fab"
        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            outcomes = VirtualFabric(
                workers=0,
                external=1,
                slow={"t0": [30.0]},
                script=[Interrupt(at=2.0, slot=0)],
            ).run(counted_tasks(3, state), seed=31)
        assert attempt_count(state, "t0") == 2  # on the worker, then locally
        assert [o.result for o in outcomes] == reference
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


# ----------------------------------------------------------------------
# Random fault scripts against the core
# ----------------------------------------------------------------------

# Worker rules leave heartbeats out of their kinds: every consultation
# writes a counter file, and a partition mutes heartbeats anyway.
wire_rules = st.lists(
    st.builds(
        FaultRule,
        kind=st.sampled_from(("hello", "ack", "result", "goodbye")),
        action=st.sampled_from(("drop", "duplicate", "delay", "partition")),
        after=st.integers(0, 6),
        count=st.integers(1, 3),
        seconds=st.sampled_from((0.5, 3.0, 9.0)),
    ),
    max_size=3,
)
coordinator_rules = st.lists(
    st.builds(
        FaultRule,
        kind=st.sampled_from(("task", "bye", "*")),
        action=st.sampled_from(("drop", "duplicate", "delay", "partition")),
        after=st.integers(0, 6),
        count=st.integers(1, 3),
        seconds=st.sampled_from((0.5, 3.0, 9.0)),
    ),
    max_size=2,
)
times = st.floats(0.0, 40.0)
script_events = st.lists(
    st.one_of(
        st.builds(Crash, at=times, slot=st.integers(0, 2)),
        st.builds(Interrupt, at=times, slot=st.integers(0, 2)),
        st.builds(Stall, at=times, seconds=st.sampled_from((2.0, 7.0, 20.0))),
    ),
    max_size=4,
)


class TestFaultScripts:
    """Any interleaving of drops, duplicates, delays (late results),
    partitions, crashes, goodbyes and coordinator clock jumps: every
    task is recorded exactly once, ``attempts`` stays within
    ``[0, 1 + max_task_retries]`` at every step, real executions stay
    within that budget (plus speculative steals and goodbye refunds),
    every ``ok`` result is the serial run's, and the sweep always
    finishes."""

    @given(
        worker_rules=st.lists(wire_rules, min_size=2, max_size=2),
        coord_rules=coordinator_rules,
        script=script_events,
        errors=st.lists(st.integers(0, 3), min_size=4, max_size=4),
        task_seconds=st.sampled_from((0.0, 0.7, 3.0)),
        external=st.integers(0, 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_task_recorded_once_with_serial_results(
        self, worker_rules, coord_rules, script, errors, task_seconds, external
    ):
        max_task_retries = 2
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            # Tasks with injected errors count attempts in files; the rest
            # are healthy (no file I/O), with the same payloads.
            healthy = [
                SweepTask(key=f"t{i}", fn=healthy_task, kwargs={"draws": 3})
                for i in range(4)
            ]
            reference = [o.result for o in run_supervised_sweep(healthy, seed=7)]
            overrides = {
                f"t{i}": {"error_attempts": n} for i, n in enumerate(errors) if n
            }
            faulty = counted_tasks(4, root / "fab", **overrides)
            tasks = [f if f.key in overrides else h for f, h in zip(faulty, healthy)]

            def check(core):
                ledger = core.ledger
                assert all(
                    0 <= a <= ledger.max_attempts for a in ledger.attempts
                ), ledger.attempts
                # A worker is busy exactly while it holds a lease.
                for worker_id, worker in core.workers.items():
                    if worker.busy is not None:
                        assert worker_id in core.leases.get(worker.busy, {})

            fabric = VirtualFabric(
                workers=2,
                external=external,
                worker_chaos=[
                    FaultSchedule(root / f"w{slot}", rules)
                    for slot, rules in enumerate(worker_rules)
                ],
                chaos=FaultSchedule(root / "coord", coord_rules),
                task_seconds=task_seconds,
                script=script,
                check=check,
            )
            registry = MetricsRegistry()
            sink = MemoryTraceSink()
            with use_observer(Observer(registry, sink)):
                outcomes = fabric.run(
                    tasks, seed=7, max_task_retries=max_task_retries
                )
            ledger = fabric.core.ledger
            assert ledger.recorded == 4
            assert sum(
                registry.counter_value("fabric.tasks", label=status)
                for status in ("ok", "error", "crashed", "timeout")
            ) == 4
            for outcome, expected in zip(outcomes, reference):
                assert 1 <= outcome.attempts <= 1 + max_task_retries
                if outcome.ok:
                    assert outcome.result == expected
            # Each execution of a task with injected errors is counted on
            # disk.  Beyond the attempt budget only a speculative twin
            # (a steal) or an attempt refunded by a goodbye may run.
            for key in overrides:
                extra = sum(
                    1
                    for e in sink.events
                    if e.get("task") == key
                    and (
                        e["kind"] == "fabric-task-steal"
                        or (e["kind"] == "task-requeue" and e["reason"] == "goodbye")
                    )
                )
                assert attempt_count(root / "fab", key) <= 1 + max_task_retries + extra
