"""Unit tests for the JobManager: caching, coalescing, events, metrics."""

import json
import threading
import time

import pytest

from repro.errors import JobQueueFullError, ServerDrainingError
from repro.obs import MemoryTraceSink, MetricsRegistry, Observer
from repro.obs.sinks import validate_event
from repro.schema import canonical_json
from repro.serve.cache import ResultCache
from repro.serve.client import Client, load_result
from repro.serve.journal import JobJournal
from repro.serve.runner import JobManager, iter_job_events
from repro.serve.types import JOB_CANCELLED, JOB_TIMEOUT, JobSpec

GRAPH = {"n": 30, "p": 0.3, "seed": 1}


def make_spec(**overrides) -> JobSpec:
    fields = dict(
        process="broadcast",
        graph=dict(GRAPH),
        params={"protocol": {"kind": "decay"}},
        seed=7,
        max_rounds=200,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def slow_spec(**overrides) -> JobSpec:
    """A spec that grinds rounds for minutes: ``q`` is so small that no
    node ever transmits, so the engine spins to ``max_rounds`` — but each
    round is a boundary where cancellation and deadlines are checked."""
    fields = dict(
        process="broadcast",
        graph={"n": 200, "p": 0.05, "seed": 3},
        params={"protocol": {"kind": "uniform", "q": 1e-9}},
        seed=11,
        max_rounds=50_000_000,
    )
    fields.update(overrides)
    return JobSpec(**fields)


def wait_for_running(job, timeout=10.0):
    deadline = time.monotonic() + timeout
    while job.state == "queued" and time.monotonic() < deadline:
        time.sleep(0.005)
    return job.state == "running"


class TestCacheSemantics:
    def test_resubmit_hits_cache_with_identical_bytes(self, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            cold = manager.submit(make_spec())
            assert manager.wait(cold, timeout=30)
            warm = manager.submit(make_spec())
            assert warm.done.is_set()  # born terminal: no execution
            assert cold.cache == "miss" and warm.cache == "hit"
            assert canonical_json(cold.result) == canonical_json(warm.result)
            assert manager.num_executions == 1
            assert manager.registry.counter_value("serve.cache.hits") == 1

    def test_differing_seeds_miss(self, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            first = manager.submit(make_spec(seed=1))
            second = manager.submit(make_spec(seed=2))
            assert manager.wait(first, timeout=30)
            assert manager.wait(second, timeout=30)
            assert first.key != second.key
            assert manager.num_executions == 2
            assert manager.registry.counter_value("serve.cache.hits") == 0
            assert manager.registry.counter_value("serve.cache.misses") == 2

    def test_backend_shares_cache_entry(self, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            cold = manager.submit(make_spec(backend=None))
            assert manager.wait(cold, timeout=30)
            warm = manager.submit(make_spec(backend="numpy"))
            assert warm.cache == "hit"
            assert manager.num_executions == 1

    def test_concurrent_identical_specs_coalesce(self, monkeypatch, tmp_path):
        # Pin the execution open so the second submit is guaranteed to
        # arrive while the first is in flight.
        release = threading.Event()
        calls = []

        def slow_execute(spec):
            calls.append(spec)
            release.wait(10)
            return {"schema_version": 1, "kind": "broadcast-trace"}

        monkeypatch.setattr(
            "repro.serve.runner.execute_spec", slow_execute
        )
        with JobManager(cache=tmp_path / "cache", workers=2) as manager:
            first = manager.submit(make_spec())
            second = manager.submit(make_spec())
            assert second is first  # the SAME job, not a twin
            release.set()
            assert manager.wait(first, timeout=10)
            assert len(calls) == 1
            assert manager.num_executions == 1
            assert (
                manager.registry.counter_value("serve.cache.coalesced") == 1
            )


class TestAdmission:
    def test_queue_full_rejects(self, monkeypatch, tmp_path):
        release = threading.Event()

        def slow_execute(spec):
            release.wait(10)
            return {"schema_version": 1, "kind": "broadcast-trace"}

        monkeypatch.setattr("repro.serve.runner.execute_spec", slow_execute)
        with JobManager(cache=None, workers=1, max_pending=1) as manager:
            manager.submit(make_spec(seed=1))
            with pytest.raises(JobQueueFullError, match="full"):
                manager.submit(make_spec(seed=2))
            release.set()
            assert manager.registry.counter_value("serve.rejections") == 1

    def test_shutdown_refuses_new_work(self, tmp_path):
        manager = JobManager(cache=None, workers=1)
        manager.shutdown()
        with pytest.raises(ServerDrainingError, match="shut down"):
            manager.submit(make_spec())

    def test_shutdown_marks_queued_jobs_failed(self, monkeypatch, tmp_path):
        # A job still queued behind a busy worker at shutdown must reach
        # a terminal state — otherwise its waiters block forever.
        release = threading.Event()
        started = threading.Event()

        def slow_execute(spec):
            started.set()
            release.wait(10)
            return {"schema_version": 1, "kind": "broadcast-trace"}

        monkeypatch.setattr("repro.serve.runner.execute_spec", slow_execute)
        manager = JobManager(cache=None, workers=1, max_pending=4)
        running = manager.submit(make_spec(seed=1))
        assert started.wait(10)
        queued = manager.submit(make_spec(seed=2))
        # Release the worker only once shutdown is underway: shutdown
        # cancels pending futures *before* waiting, so the queued job
        # deterministically never reaches the worker.
        threading.Timer(0.2, release.set).start()
        manager.shutdown()
        assert queued.done.is_set()
        assert queued.state == "failed"
        assert "shutting down" in queued.error
        assert running.done.is_set()


class TestFailures:
    def test_failed_execution_becomes_job_state(self, monkeypatch, tmp_path):
        def boom(spec):
            raise RuntimeError("kaboom")

        monkeypatch.setattr("repro.serve.runner.execute_spec", boom)
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            job = manager.submit(make_spec())
            assert manager.wait(job, timeout=10)
            assert job.state == "failed"
            assert "kaboom" in job.error
            assert job.result is None
            # Failures are never cached: a resubmit re-executes.
            assert job.key not in manager.cache

    def test_unknown_process_fails_cleanly(self, tmp_path):
        with JobManager(cache=None, workers=1) as manager:
            job = manager.submit(make_spec(process="nonsense"))
            assert manager.wait(job, timeout=30)
            assert job.state == "failed"
            assert job.error

    def test_failed_cache_write_fails_the_job(self, tmp_path):
        class UnwritableCache(ResultCache):
            def put(self, key, result):
                raise ValueError("Out of range float values are not JSON compliant")

        journal_dir = tmp_path / "journal"
        with JobManager(
            cache=UnwritableCache(tmp_path / "cache"), workers=1, journal=journal_dir
        ) as manager:
            job = manager.submit(make_spec())
            assert manager.wait(job, timeout=30), "job never reached a terminal state"
            assert job.done.is_set()
            assert job.state == "failed"
            assert "JSON compliant" in job.error
            assert job.result is None
        records = [
            json.loads(line)
            for line in (journal_dir / "journal.jsonl").read_text().splitlines()
        ]
        assert [(r["op"], r.get("state")) for r in records] == [
            ("submit", None),
            ("terminal", "failed"),
        ]


class TestEventsAndMetrics:
    def test_event_tape_is_schema_valid_and_bracketed(self, tmp_path):
        with JobManager(cache=None, workers=1) as manager:
            job = manager.submit(make_spec())
            events = list(iter_job_events(job))
            assert events[0]["kind"] == "serve-job-start"
            assert events[-1]["kind"] == "serve-job-end"
            assert events[-1]["state"] == "done"
            assert any(e["kind"] == "run-start" for e in events)
            assert any(e["kind"] == "round" for e in events)
            for event in events:
                validate_event(event)
            # serve-job events carry the content address, so a stream
            # consumer can correlate jobs with cache entries.
            assert events[0]["spec"] == job.key

    def test_cache_hit_job_has_empty_tape(self, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            cold = manager.submit(make_spec())
            assert manager.wait(cold, timeout=30)
            warm = manager.submit(make_spec())
            assert list(iter_job_events(warm)) == []

    def test_external_observer_sees_tee_and_serve_metrics(self, tmp_path):
        sink = MemoryTraceSink()
        obs = Observer(MetricsRegistry(), sink)
        with JobManager(cache=None, workers=1, obs=obs) as manager:
            job = manager.submit(make_spec())
            assert manager.wait(job, timeout=30)
        kinds = {event["kind"] for event in sink.events}
        assert {"serve-job-start", "serve-job-end", "run-start"} <= kinds
        assert obs.registry.counter_value("serve.requests", label="simulate") == 1
        assert obs.registry.counter_value("serve.jobs", label="done") == 1
        hist = obs.registry.histogram("serve.job_wall_s", label="simulate")
        assert hist is not None and hist.count == 1
        # Engine metrics from inside the job merge into the same registry.
        assert (
            obs.registry.counter_value("round.transmissions", label="broadcast")
            > 0
        )

    def test_status_snapshot(self, tmp_path):
        with JobManager(cache=None, workers=1) as manager:
            job = manager.submit(make_spec())
            assert manager.wait(job, timeout=30)
            status = job.status()
            assert status.ok and status.kind == "simulate"
            assert status.events == job.num_events()
            assert status.result["kind"] == "broadcast-trace"
            stats = manager.stats()
            assert stats["executions"] == 1
            assert stats["jobs"] == {"done": 1}


class TestInProcessClient:
    def test_verbs_and_decode(self, tmp_path):
        with Client.local(cache=tmp_path / "cache", workers=1) as client:
            status = client.simulate(
                "broadcast",
                GRAPH,
                protocol={"kind": "decay"},
                seed=7,
                max_rounds=200,
            )
            assert status.ok and status.cache == "miss"
            trace = load_result(status)
            assert trace.completed and trace.num_rounds >= 1
            again = client.job(status.id)
            assert again.id == status.id and again.ok
            health = client.health()
            assert health["ok"] and health["executions"] == 1
            events = list(client.events(status.id))
            assert events[0]["kind"] == "serve-job-start"

    def test_gossip_process(self, tmp_path):
        with Client.local(workers=1) as client:
            status = client.simulate(
                "gossip",
                {"n": 16, "p": 0.4, "seed": 2},
                protocol={"kind": "uniform", "q": 0.2},
                seed=3,
                max_rounds=400,
            )
            assert status.ok
            assert status.result["kind"] == "gossip-trace"
            trace = load_result(status)
            assert trace.tokens == 16


class TestCancellation:
    def test_cancel_mid_run(self, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            job = manager.submit(slow_spec())
            assert wait_for_running(job)
            assert manager.cancel(job.id) is job
            assert manager.wait(job, timeout=10)
            assert job.state == JOB_CANCELLED
            assert job.result is None
            assert job.key not in manager.cache  # never cached
            events = list(iter_job_events(job))
            assert events[-2]["kind"] == "serve-job-cancelled"
            assert events[-2]["state"] == JOB_CANCELLED
            assert events[-1]["kind"] == "serve-job-end"
            for event in events:
                validate_event(event)
            assert (
                manager.registry.counter_value(
                    "serve.cancellations", label="simulate"
                )
                == 1
            )

    def test_cancel_while_queued_never_executes(self, monkeypatch, tmp_path):
        release = threading.Event()
        started = threading.Event()
        executed = []

        def slow_execute(spec):
            started.set()
            executed.append(spec)
            release.wait(10)
            return {"schema_version": 1, "kind": "broadcast-trace"}

        monkeypatch.setattr("repro.serve.runner.execute_spec", slow_execute)
        with JobManager(cache=None, workers=1, max_pending=4) as manager:
            blocker = manager.submit(make_spec(seed=1))
            assert started.wait(10)
            queued = manager.submit(make_spec(seed=2))
            manager.cancel(queued.id)
            release.set()
            assert manager.wait(queued, timeout=10)
            assert queued.state == JOB_CANCELLED
            # Only the blocker reached the executor.
            assert len(executed) == 1
            assert manager.wait(blocker, timeout=10)

    def test_cancel_unknown_and_terminal_jobs(self, tmp_path):
        with JobManager(cache=None, workers=1) as manager:
            assert manager.cancel("nope") is None
            job = manager.submit(make_spec())
            assert manager.wait(job, timeout=30)
            manager.cancel(job.id)  # no-op on a terminal job
            assert job.state == "done"
            assert (
                manager.registry.counter_value(
                    "serve.cancellations", label="simulate"
                )
                == 0
            )


class TestDeadlines:
    def test_deadline_expiry_times_out_and_frees_the_slot(self, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            doomed = manager.submit(slow_spec(deadline_s=0.2))
            assert manager.wait(doomed, timeout=30)
            assert doomed.state == JOB_TIMEOUT
            assert "deadline" in doomed.error
            assert doomed.key not in manager.cache
            # The worker slot is immediately reusable.
            follow = manager.submit(make_spec())
            assert manager.wait(follow, timeout=30)
            assert follow.state == "done"
            assert manager.registry.counter_value(
                "serve.jobs", label=JOB_TIMEOUT
            ) == 1

    def test_deadline_excluded_from_cache_identity(self, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            cold = manager.submit(make_spec())
            assert manager.wait(cold, timeout=30)
            warm = manager.submit(make_spec(deadline_s=120.0))
            assert warm.cache == "hit"
            assert canonical_json(cold.result) == canonical_json(warm.result)


class TestJournalIntegration:
    def test_lifecycle_writes_submit_then_terminal(self, tmp_path):
        journal_dir = tmp_path / "journal"
        with JobManager(
            cache=tmp_path / "cache", workers=1, journal=journal_dir
        ) as manager:
            job = manager.submit(make_spec())
            assert manager.wait(job, timeout=30)
        lines = (journal_dir / "journal.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["op"] for r in records] == ["submit", "terminal"]
        assert records[0]["key"] == job.key == records[1]["key"]
        assert records[1]["state"] == "done"

    def test_recover_replays_unpaired_submit(self, tmp_path):
        journal_dir = tmp_path / "journal"
        spec = make_spec()
        # Forge the crash: a submit record whose terminal never landed.
        JobJournal(journal_dir).record_submit(spec.cache_key(), spec.to_dict())
        with JobManager(
            cache=tmp_path / "cache", workers=1, journal=journal_dir
        ) as manager:
            replayed = manager.recover()
            assert len(replayed) == 1
            job = replayed[0]
            assert manager.wait(job, timeout=30)
            assert job.state == "done"
            assert job.key == spec.cache_key()
            assert (
                manager.registry.counter_value(
                    "serve.journal.recovered", label="simulate"
                )
                == 1
            )
        # The replay's terminal record paired the submit: a second
        # restart finds nothing incomplete.
        with JobManager(
            cache=tmp_path / "cache", workers=1, journal=journal_dir
        ) as again:
            assert again.recover() == []

    def test_recover_is_idempotent_via_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        journal_dir = tmp_path / "journal"
        spec = make_spec()
        with JobManager(cache=cache_dir, workers=1) as warmup:
            first = warmup.submit(spec)
            assert warmup.wait(first, timeout=30)
            truth = canonical_json(first.result)
        # Crash replay of a job whose result already reached the cache:
        # recover() is a cache hit, not a re-execution.
        JobJournal(journal_dir).record_submit(spec.cache_key(), spec.to_dict())
        with JobManager(
            cache=cache_dir, workers=1, journal=journal_dir
        ) as manager:
            (job,) = manager.recover()
            assert job.done.is_set() and job.cache == "hit"
            assert canonical_json(job.result) == truth
            assert manager.num_executions == 0

    def test_recover_fails_undecodable_spec_without_replaying(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal = JobJournal(journal_dir)
        journal.record_submit("deadbeef", {"kind": "simulate", "nonsense": 1})
        with JobManager(
            cache=None, workers=1, journal=journal_dir
        ) as manager:
            with pytest.warns(RuntimeWarning, match="no longer parses"):
                assert manager.recover() == []
        # The bad entry was terminalised so it never replays again.
        with JobManager(cache=None, workers=1, journal=journal_dir) as again:
            assert again.recover() == []


class TestDrain:
    def test_drain_finishes_inflight_and_refuses_new(self, monkeypatch, tmp_path):
        sink = MemoryTraceSink()
        obs = Observer(MetricsRegistry(), sink)
        release = threading.Event()
        started = threading.Event()

        def held_execute(spec):
            started.set()
            release.wait(10)
            return {"schema_version": 1, "kind": "broadcast-trace"}

        monkeypatch.setattr("repro.serve.runner.execute_spec", held_execute)
        with JobManager(cache=None, workers=1, obs=obs) as manager:
            job = manager.submit(make_spec())
            assert started.wait(10)
            # Release the worker only once the drain is underway, so the
            # job is deterministically still in flight when drain()
            # snapshots it (a fast job could otherwise finish first).
            threading.Timer(0.2, release.set).start()
            summary = manager.drain(budget_s=30.0)
            assert manager.wait(job, timeout=1)
            assert job.state == "done"
            assert summary["finished"] == 1 and summary["journaled"] == 0
            assert manager.draining
            with pytest.raises(ServerDrainingError, match="draining"):
                manager.submit(make_spec(seed=99))
        kinds = [event["kind"] for event in sink.events]
        assert "serve-drain-start" in kinds and "serve-drain-end" in kinds
        for event in sink.events:
            validate_event(event)
        hist = obs.registry.histogram("serve.drain_s")
        assert hist is not None and hist.count == 1

    def test_drain_journals_and_cancels_stragglers(self, tmp_path):
        journal_dir = tmp_path / "journal"
        with JobManager(
            cache=tmp_path / "cache", workers=1, journal=journal_dir
        ) as manager:
            job = manager.submit(slow_spec())
            assert wait_for_running(job)
            summary = manager.drain(budget_s=0.2)
            assert summary["journaled"] == 1 and summary["finished"] == 0
            # The straggler unwinds cooperatively...
            assert manager.wait(job, timeout=10)
            assert job.state == JOB_CANCELLED
        # ...but its submit record stays unpaired, so a restart would
        # pick the job back up.  (Inspect the journal directly — a real
        # recover() would re-execute the deliberately-endless spec.)
        entries = JobJournal(journal_dir).recover()
        assert [entry.key for entry in entries] == [job.key]
