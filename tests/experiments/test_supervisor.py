"""Supervised executor tests: chaos harness, recovery paths, determinism.

The acceptance properties pinned here:

* a sweep in which chaos injection kills a worker mid-flight completes
  with results byte-identical to the unfaulted ``jobs=1`` run;
* a deadline-expired task yields a ``timeout`` outcome without aborting
  or stalling the remaining tasks;
* degradation to serial execution still completes the sweep;
* a rerun with the sweep's store skips completed tasks.
"""

import time

import pytest

from repro.chaos import (
    CRASH_EXIT_CODE,
    ChaosError,
    attempt_count,
    chaos_payload,
    chaos_task,
    healthy_task,
)
from repro.errors import InvalidParameterError, SweepTaskError
from repro.experiments.runner import outcomes_table
from repro.experiments.supervisor import (
    TASK_CRASHED,
    TASK_ERROR,
    TASK_OK,
    TASK_TIMEOUT,
    SweepTask,
    TaskOutcome,
    TaskStore,
    outcome_counts,
    run_supervised_sweep,
    task_store_key,
)
from repro.obs import (
    MemoryTraceSink,
    MetricsRegistry,
    Observer,
    use_observer,
)
from repro.obs.sinks import validate_event
from repro.rng import spawn_seeds
from repro.serve.cache import ResultCache


def healthy_tasks(count):
    return [SweepTask(key=f"t{i}", fn=healthy_task) for i in range(count)]


def chaos_sweep_task(key, state_dir, **injections):
    return SweepTask(
        key=key,
        fn=chaos_task,
        kwargs={"key": key, "state_dir": str(state_dir), **injections},
    )


class TestChaosHarness:
    """The harness itself must be deterministic before it verifies anything."""

    def test_payload_is_pure_function_of_seed(self):
        import numpy as np

        child = np.random.SeedSequence(7).spawn(1)[0]
        assert chaos_payload(child) == chaos_payload(child)
        assert healthy_task(child) == chaos_payload(child)

    def test_zero_injection_equals_healthy(self, tmp_path):
        import numpy as np

        child = np.random.SeedSequence(3).spawn(1)[0]
        assert chaos_task(
            child, key="k", state_dir=tmp_path
        ) == healthy_task(child)

    def test_attempt_counter_persists_across_calls(self, tmp_path):
        import numpy as np

        child = np.random.SeedSequence(0).spawn(1)[0]
        assert attempt_count(tmp_path, "k") == 0
        with pytest.raises(ChaosError, match="attempt 1"):
            chaos_task(child, key="k", state_dir=tmp_path, error_attempts=2)
        assert attempt_count(tmp_path, "k") == 1
        with pytest.raises(ChaosError, match="attempt 2"):
            chaos_task(child, key="k", state_dir=tmp_path, error_attempts=2)
        # Attempt 3 falls past the error window and succeeds.
        assert chaos_task(
            child, key="k", state_dir=tmp_path, error_attempts=2
        ) == chaos_payload(child)
        assert attempt_count(tmp_path, "k") == 3

    def test_fault_schedule_ordering(self, tmp_path):
        """crash window, then error window, then hang window, then ok."""
        import numpy as np

        child = np.random.SeedSequence(0).spawn(1)[0]
        kwargs = dict(
            key="k",
            state_dir=tmp_path,
            error_attempts=1,
            hang_attempts=1,
            hang_seconds=0.01,
        )
        with pytest.raises(ChaosError):
            chaos_task(child, **kwargs)
        start = time.monotonic()
        assert chaos_task(child, **kwargs) == chaos_payload(child)  # hangs briefly
        assert time.monotonic() - start >= 0.01
        assert chaos_task(child, **kwargs) == chaos_payload(child)

    def test_crash_really_kills_the_process(self, tmp_path):
        """os._exit must not be catchable — prove it in a child process."""
        import subprocess
        import sys

        code = (
            "import numpy as np\n"
            "from repro.chaos import chaos_task\n"
            "child = np.random.SeedSequence(0).spawn(1)[0]\n"
            "try:\n"
            f"    chaos_task(child, key='k', state_dir={str(tmp_path)!r}, "
            "crash_attempts=1)\n"
            "except BaseException:\n"
            "    pass\n"
            "print('survived')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == CRASH_EXIT_CODE
        assert "survived" not in proc.stdout
        assert attempt_count(tmp_path, "k") == 1


class TestTaskOutcome:
    def test_failed_outcome_drops_result(self, tmp_path):
        """Only ``ok`` results reach the store; a failed task reruns."""
        store = TaskStore(ResultCache(tmp_path / "store"))
        tasks = [chaos_sweep_task("e", tmp_path / "chaos", error_attempts=99)]
        outcomes = run_supervised_sweep(
            tasks, jobs=1, seed=0, max_task_retries=0, store=store
        )
        assert outcomes[0].status == TASK_ERROR
        assert len(store.cache) == 0

    def test_outcome_counts(self):
        outcomes = [
            TaskOutcome(key="a", status=TASK_OK),
            TaskOutcome(key="b", status=TASK_OK),
            TaskOutcome(key="c", status=TASK_TIMEOUT),
        ]
        assert outcome_counts(outcomes) == {TASK_OK: 2, TASK_TIMEOUT: 1}

    def test_outcome_counts_with_recovery_totals(self):
        outcomes = [
            TaskOutcome(key="a", status=TASK_OK, requeued=2, lost_leases=1),
            TaskOutcome(key="b", status=TASK_OK, requeued=1),
        ]
        counts = outcome_counts(outcomes, with_recovery=True)
        assert counts == {TASK_OK: 2, "requeued": 3, "lost_leases": 1}
        # Zero recovery stays invisible, even when asked for.
        clean = [TaskOutcome(key="a", status=TASK_OK)]
        assert outcome_counts(clean, with_recovery=True) == {TASK_OK: 1}

    def test_local_sweep_stamps_local_host(self):
        outcomes = run_supervised_sweep(healthy_tasks(2), jobs=1, seed=0)
        assert all(o.host == "local" for o in outcomes)

    def test_outcomes_table_renders(self):
        outcomes = [
            TaskOutcome(key="E7", status=TASK_OK, attempts=1, elapsed=1.0),
            TaskOutcome(
                key="E14", status=TASK_CRASHED, attempts=3, elapsed=2.0,
                error="worker process died",
            ),
        ]
        table = outcomes_table(outcomes)
        assert "task" in table and "status" in table
        assert "E14" in table and "crashed" in table and "worker process died" in table

    def test_outcomes_table_renders_shard_attribution(self):
        outcomes = [
            TaskOutcome(
                key="E7", status=TASK_OK, attempts=2, elapsed=1.0,
                host="lab-3/4411", requeued=1, lost_leases=1,
            ),
        ]
        table = outcomes_table(outcomes)
        assert "host" in table and "requeued" in table and "lost_leases" in table
        assert "lab-3/4411" in table


class TestHealthyPath:
    """Zero faults: supervision must be invisible in the results."""

    def test_outcomes_in_task_order_all_ok(self):
        outcomes = run_supervised_sweep(healthy_tasks(4), jobs=1, seed=0)
        assert [o.key for o in outcomes] == ["t0", "t1", "t2", "t3"]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_jobs_do_not_change_results(self):
        serial = run_supervised_sweep(healthy_tasks(5), jobs=1, seed=123)
        fanned = run_supervised_sweep(healthy_tasks(5), jobs=3, seed=123)
        assert [o.result for o in serial] == [o.result for o in fanned]

    def test_matches_legacy_wrapper(self):
        tasks = healthy_tasks(3)
        outcomes = run_supervised_sweep(tasks, jobs=1, seed=9)
        again = run_supervised_sweep(tasks, jobs=1, seed=9)
        assert [o.unwrap() for o in again] == [o.result for o in outcomes]

    def test_empty_tasks(self):
        assert run_supervised_sweep([], jobs=2, seed=0) == []
        assert run_supervised_sweep([], jobs=1, seed=0) == []

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            run_supervised_sweep(healthy_tasks(1), jobs=0)
        with pytest.raises(InvalidParameterError):
            run_supervised_sweep(healthy_tasks(1), max_task_retries=-1)
        with pytest.raises(InvalidParameterError):
            run_supervised_sweep(healthy_tasks(1), max_pool_rebuilds=-1)
        with pytest.raises(InvalidParameterError):
            run_supervised_sweep(healthy_tasks(1), task_timeout=0.0)

    def test_store_requires_json_kwargs(self, tmp_path):
        """Store keys hash the kwargs, so they must be JSON; task keys
        need not be unique (the content address tells tasks apart)."""
        store = TaskStore(ResultCache(tmp_path / "store"))
        bad = [SweepTask(key="t", fn=healthy_task, kwargs={"draws": {1, 2}})]
        with pytest.raises(InvalidParameterError, match="not JSON"):
            run_supervised_sweep(bad, seed=0, store=store)
        twins = [SweepTask(key="dup", fn=healthy_task)] * 2
        outcomes = run_supervised_sweep(twins, seed=0, store=store)
        assert outcomes[0].result != outcomes[1].result  # distinct children
        assert len(store.cache) == 2


class TestCrashRecovery:
    def test_crash_then_recover_byte_identity(self, tmp_path):
        """Acceptance: a worker killed mid-flight does not change results."""
        keys = [f"c{i}" for i in range(4)]
        faulted = [
            chaos_sweep_task(
                k, tmp_path, crash_attempts=1 if k == "c1" else 0
            )
            for k in keys
        ]
        unfaulted = [SweepTask(key=k, fn=healthy_task) for k in keys]

        baseline = run_supervised_sweep(unfaulted, jobs=1, seed=77)
        recovered = run_supervised_sweep(faulted, jobs=2, seed=77)

        assert all(o.ok for o in recovered)
        assert [o.result for o in recovered] == [o.result for o in baseline]
        # The crashed task really did die once and retry.
        assert attempt_count(tmp_path, "c1") == 2

    def test_poisoned_task_marked_crashed_siblings_survive(self, tmp_path):
        tasks = [chaos_sweep_task("poison", tmp_path, crash_attempts=99)] + [
            SweepTask(key=f"g{i}", fn=healthy_task) for i in range(2)
        ]
        # Generous budgets: innocents sharing a pool with the poisoned
        # task may be charged for breaks they did not cause.
        outcomes = run_supervised_sweep(
            tasks, jobs=2, seed=5, max_task_retries=3, max_pool_rebuilds=10
        )
        assert outcomes[0].status == TASK_CRASHED
        assert outcomes[0].attempts == 4
        assert "worker process died" in outcomes[0].error
        assert all(o.ok for o in outcomes[1:])

    def test_legacy_wrapper_raises_sweep_task_error_on_crash(self, tmp_path):
        tasks = [
            chaos_sweep_task("poison", tmp_path, crash_attempts=99),
            SweepTask(key="g", fn=healthy_task),
        ]
        outcomes = run_supervised_sweep(
            tasks, jobs=2, seed=0, max_task_retries=0, max_pool_rebuilds=5
        )
        assert outcomes[1].unwrap() == outcomes[1].result
        with pytest.raises(SweepTaskError, match="crashed") as excinfo:
            outcomes[0].unwrap()
        assert excinfo.value.outcome is outcomes[0]

    def test_degradation_to_serial_completes_sweep(self, tmp_path):
        """Rebuild budget exhausted -> in-process execution finishes the job."""
        tasks = [chaos_sweep_task("p", tmp_path, crash_attempts=3)] + [
            SweepTask(key=f"g{i}", fn=healthy_task) for i in range(2)
        ]
        baseline = run_supervised_sweep(
            [SweepTask(key=k.key, fn=healthy_task) for k in tasks], jobs=1, seed=11
        )
        outcomes = run_supervised_sweep(
            tasks, jobs=2, seed=11, max_task_retries=4, max_pool_rebuilds=2
        )
        assert all(o.ok for o in outcomes)
        # Three crashes burned the rebuild budget; attempt 4 ran serially.
        assert outcomes[0].attempts == 4
        assert [o.result for o in outcomes] == [o.result for o in baseline]


class TestErrorRetry:
    def test_retry_reuses_original_seed(self, tmp_path):
        """Determinism-under-retry: attempt 2 sees the same child stream."""
        tasks = [chaos_sweep_task("e", tmp_path, error_attempts=1)]
        baseline = run_supervised_sweep(
            [SweepTask(key="e", fn=healthy_task)], jobs=1, seed=21
        )
        outcomes = run_supervised_sweep(tasks, jobs=1, seed=21)
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert outcomes[0].result == baseline[0].result

    def test_error_outcome_after_budget(self, tmp_path):
        tasks = [chaos_sweep_task("e", tmp_path, error_attempts=99)]
        outcomes = run_supervised_sweep(tasks, jobs=1, seed=0, max_task_retries=2)
        assert outcomes[0].status == TASK_ERROR
        assert outcomes[0].attempts == 3
        assert "ChaosError" in outcomes[0].error
        assert isinstance(outcomes[0].exception, ChaosError)

    def test_legacy_wrapper_reraises_original_exception(self, tmp_path):
        tasks = [chaos_sweep_task("e", tmp_path, error_attempts=99)]
        outcomes = run_supervised_sweep(tasks, jobs=1, seed=0, max_task_retries=0)
        with pytest.raises(ChaosError, match="injected failure"):
            outcomes[0].unwrap()

    def test_pooled_error_retry(self, tmp_path):
        tasks = [chaos_sweep_task("e", tmp_path, error_attempts=1)] + [
            SweepTask(key=f"g{i}", fn=healthy_task) for i in range(2)
        ]
        outcomes = run_supervised_sweep(tasks, jobs=2, seed=4)
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 2


class TestDeadlines:
    def test_timeout_outcome_without_stalling_siblings(self, tmp_path):
        """Acceptance: expiry marks `timeout`; siblings complete promptly."""
        tasks = [
            chaos_sweep_task("hang", tmp_path, hang_attempts=1, hang_seconds=120)
        ] + [SweepTask(key=f"h{i}", fn=healthy_task) for i in range(3)]
        start = time.monotonic()
        outcomes = run_supervised_sweep(tasks, jobs=2, seed=3, task_timeout=1.0)
        elapsed = time.monotonic() - start
        assert elapsed < 30  # nowhere near the 120s hang
        assert outcomes[0].status == TASK_TIMEOUT
        assert outcomes[0].attempts == 1  # deadline expiry is not retried
        assert "deadline" in outcomes[0].error
        assert all(o.ok for o in outcomes[1:])

    def test_timeout_does_not_change_sibling_results(self, tmp_path):
        keys = ["hang", "h0", "h1"]
        baseline = run_supervised_sweep(
            [SweepTask(key=k, fn=healthy_task) for k in keys], jobs=1, seed=13
        )
        tasks = [
            chaos_sweep_task("hang", tmp_path, hang_attempts=1, hang_seconds=120)
        ] + [SweepTask(key=k, fn=healthy_task) for k in keys[1:]]
        outcomes = run_supervised_sweep(tasks, jobs=2, seed=13, task_timeout=1.0)
        assert [o.result for o in outcomes[1:]] == [o.result for o in baseline[1:]]

    def test_lone_task_keeps_preemptive_deadline(self, tmp_path):
        """jobs > 1 supervises even a single task: its deadline pre-empts
        the hang instead of being checked after it."""
        tasks = [chaos_sweep_task("hang", tmp_path, hang_attempts=1, hang_seconds=20)]
        start = time.monotonic()
        outcomes = run_supervised_sweep(tasks, jobs=2, seed=0, task_timeout=1.0)
        assert time.monotonic() - start < 10  # nowhere near the 20s hang
        assert outcomes[0].status == TASK_TIMEOUT
        assert outcomes[0].attempts == 1

    def test_serial_deadline_is_posthoc(self):
        """jobs=1 cannot pre-empt: the attempt runs, then expires."""

        outcomes = run_supervised_sweep(
            [SweepTask(key="s", fn=_sleepy_task, kwargs={"seconds": 0.1})],
            jobs=1,
            seed=0,
            task_timeout=0.01,
        )
        assert outcomes[0].status == TASK_TIMEOUT


def _sleepy_task(seed, *, seconds):
    time.sleep(seconds)
    return healthy_task(seed)


class TestInterrupt:
    def test_keyboard_interrupt_cancels_queued_futures(self, monkeypatch):
        """^C during collection shuts the pool down instead of leaking it."""
        from repro.experiments import supervisor as sup

        shutdown_calls = []
        real_shutdown = sup.ProcessPoolExecutor.shutdown

        def spy_shutdown(self, wait=True, *, cancel_futures=False):
            shutdown_calls.append({"wait": wait, "cancel_futures": cancel_futures})
            return real_shutdown(self, wait=wait, cancel_futures=cancel_futures)

        def interrupting_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            sup.ProcessPoolExecutor, "shutdown", spy_shutdown
        )
        monkeypatch.setattr(sup, "futures_wait", interrupting_wait)
        with pytest.raises(KeyboardInterrupt):
            run_supervised_sweep(healthy_tasks(4), jobs=2, seed=0)
        assert shutdown_calls
        assert shutdown_calls[-1] == {"wait": False, "cancel_futures": True}


class TestSweepTaskCheckpoint:
    """The sweep's task checkpoint is its store (``--checkpoint DIR``):
    each ``ok`` result under the sha256 of its task's function, kwargs
    and seed child."""

    def test_round_trip(self, tmp_path):
        store = TaskStore(ResultCache(tmp_path / "store"))
        first = run_supervised_sweep(healthy_tasks(2), jobs=1, seed=4, store=store)
        again = run_supervised_sweep(healthy_tasks(2), jobs=1, seed=4, store=store)
        assert [o.result for o in again] == [o.result for o in first]
        assert all(o.host == "local" and o.attempts == 1 for o in first)
        # A hit is one stored attempt, served in no time by the store.
        assert [(o.host, o.attempts, o.elapsed) for o in again] == [
            ("store", 1, 0.0), ("store", 1, 0.0)
        ]

    def test_different_config_never_mixes(self, tmp_path):
        """Seed, position, function and kwargs are all in the key, so a
        different sweep configuration cannot be served another's result."""
        store = TaskStore(ResultCache(tmp_path / "store"))
        run_supervised_sweep(healthy_tasks(2), jobs=1, seed=4, store=store)
        for tasks, seed in [
            (healthy_tasks(2), 5),
            ([SweepTask(key="t0", fn=healthy_task, kwargs={"draws": 5})], 4),
            ([SweepTask(key="t0", fn=chaos_payload)], 4),
        ]:
            outcomes = run_supervised_sweep(tasks, jobs=1, seed=seed, store=store)
            assert all(o.host == "local" for o in outcomes)

    def test_unseeded_sweep_never_hits(self, tmp_path):
        """``seed=None`` draws fresh entropy: nothing is stored or served."""
        store = TaskStore(ResultCache(tmp_path / "store"))
        first = run_supervised_sweep(healthy_tasks(2), jobs=1, seed=None, store=store)
        again = run_supervised_sweep(healthy_tasks(2), jobs=1, seed=None, store=store)
        assert len(store.cache) == 0
        assert all(o.host == "local" for o in first + again)

    def test_corrupt_file_quarantined(self, tmp_path):
        store = TaskStore(ResultCache(tmp_path / "store"))
        first = run_supervised_sweep(healthy_tasks(2), jobs=1, seed=0, store=store)
        key = task_store_key(healthy_tasks(1)[0], spawn_seeds(0, 2)[0])
        path = store.cache.path_for(key)
        path.write_text('{"truncated')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            again = run_supervised_sweep(
                healthy_tasks(2), jobs=1, seed=0, store=store
            )
        assert path.with_name(path.name + ".corrupt").exists()
        # Only the corrupt entry's task reran; the result is unchanged.
        assert [o.host for o in again] == ["local", "store"]
        assert [o.result for o in again] == [o.result for o in first]

    def test_resume_skips_completed_tasks(self, tmp_path):
        """Acceptance: a rerun with the store does not rerun finished tasks."""
        state = tmp_path / "chaos"
        store = TaskStore(ResultCache(tmp_path / "store"))
        tasks = [
            chaos_sweep_task("fine", state),
            chaos_sweep_task("flaky", state, error_attempts=1),
        ]
        first = run_supervised_sweep(
            tasks, jobs=1, seed=6, max_task_retries=0, store=store,
        )
        assert first[0].ok
        assert first[1].status == TASK_ERROR
        assert attempt_count(state, "fine") == 1

        resumed = run_supervised_sweep(
            tasks, jobs=1, seed=6, max_task_retries=0, store=store,
        )
        # `fine` was served from the store — no new attempt; the
        # failed task got a fresh chance and succeeded (error window: 1).
        assert attempt_count(state, "fine") == 1
        assert attempt_count(state, "flaky") == 2
        assert all(o.ok for o in resumed)
        # Resume reproduces the unfaulted sweep bit-for-bit.
        baseline = run_supervised_sweep(
            [SweepTask(key=t.key, fn=healthy_task) for t in tasks], jobs=1, seed=6
        )
        assert [o.result for o in resumed] == [o.result for o in baseline]

    def test_terminal_outcomes_flushed_incrementally(self, tmp_path):
        """Each result is stored as it lands, so an interrupt loses only
        the task still running and the rerun starts there."""
        store = TaskStore(ResultCache(tmp_path / "store"))
        seen = []

        def task(seed):
            seen.append(len(store.cache))
            if len(seen) == 3:
                raise KeyboardInterrupt
            return healthy_task(seed)

        tasks = [SweepTask(key=f"t{i}", fn=task) for i in range(3)]
        with pytest.raises(KeyboardInterrupt):
            run_supervised_sweep(tasks, jobs=1, seed=0, store=store)
        assert seen == [0, 1, 2]
        outcomes = run_supervised_sweep(tasks, jobs=1, seed=0, store=store)
        assert [o.host for o in outcomes] == ["store", "store", "local"]


class TestMalformedTaskCheckpoint:
    """A store entry holding valid JSON of the wrong shape is quarantined
    like a torn file, and its task reruns."""

    @pytest.mark.parametrize(
        "garbage",
        ['{"tasks": []}', '{"config_key": "cfg", "tasks": "nope"}', "[1, 2]"],
    )
    def test_wrong_shape_quarantined_with_bytes_kept(self, tmp_path, garbage):
        store = TaskStore(ResultCache(tmp_path / "store"))
        task = healthy_tasks(1)
        path = store.cache.path_for(task_store_key(task[0], spawn_seeds(0, 1)[0]))
        path.parent.mkdir(parents=True)
        path.write_text(garbage)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            outcomes = run_supervised_sweep(task, jobs=1, seed=0, store=store)
        assert outcomes[0].ok and outcomes[0].host == "local"
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.read_text() == garbage
        assert store.cache.get(path.stem) is not None  # rewritten


class TestObservability:
    def test_recovery_emits_exec_events_and_metrics(self, tmp_path):
        registry = MetricsRegistry()
        sink = MemoryTraceSink()
        tasks = [chaos_sweep_task("c", tmp_path, crash_attempts=1)] + [
            SweepTask(key=f"g{i}", fn=healthy_task) for i in range(2)
        ]
        with use_observer(Observer(registry, sink)):
            outcomes = run_supervised_sweep(tasks, jobs=2, seed=8)
        assert all(o.ok for o in outcomes)
        kinds = [e["kind"] for e in sink.events]
        assert "exec-worker-crash" in kinds
        assert "exec-pool-rebuild" in kinds
        assert "task-requeue" in kinds
        for event in sink.events:
            if event["kind"].startswith("exec-") or event["kind"] == "task-requeue":
                validate_event(event)
        # One requeue per recovery, on the outcome and in the metric;
        # `attempt` names the attempt the requeue queues.
        requeue = next(
            e for e in sink.events
            if e["kind"] == "task-requeue" and e["task"] == "c"
        )
        assert requeue["attempt"] == 2
        assert outcomes[0].requeued >= 1
        assert registry.counter_value("exec.worker_crashes") >= 1
        assert registry.counter_value("exec.pool_rebuilds") >= 1
        assert registry.counter_value("exec.task_requeues") >= 1
        assert registry.counter_value("exec.tasks", label="ok") == 3
        wall = registry.histogram("exec.task_wall_s", label="ok")
        assert wall is not None and wall.count == 3

    def test_timeout_emits_exec_timeout_event(self, tmp_path):
        sink = MemoryTraceSink()
        tasks = [
            chaos_sweep_task("hang", tmp_path, hang_attempts=1, hang_seconds=120),
            SweepTask(key="g", fn=healthy_task),
        ]
        with use_observer(Observer(None, sink)):
            outcomes = run_supervised_sweep(
                tasks, jobs=2, seed=8, task_timeout=1.0
            )
        assert outcomes[0].status == TASK_TIMEOUT
        timeout_events = [
            e for e in sink.events if e["kind"] == "exec-task-timeout"
        ]
        assert timeout_events and timeout_events[0]["task"] == "hang"
        validate_event(timeout_events[0])

    def test_worker_spans_still_merge_under_supervision(self):
        registry = MetricsRegistry()
        with use_observer(Observer(registry)):
            run_supervised_sweep(healthy_tasks(3), jobs=2, seed=8)
        span_labels = {
            label
            for (name, label) in registry.histograms()
            if name == "span.sweep.task"
        }
        assert span_labels == {"t0", "t1", "t2"}

    def test_observed_and_unobserved_results_identical(self):
        plain = run_supervised_sweep(healthy_tasks(3), jobs=2, seed=8)
        with use_observer(Observer(MetricsRegistry(), MemoryTraceSink())):
            observed = run_supervised_sweep(healthy_tasks(3), jobs=2, seed=8)
        assert [o.result for o in plain] == [o.result for o in observed]
