"""Unit tests for the JobManager: caching, coalescing, events, metrics."""

import hashlib
import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.errors import JobQueueFullError, ServerDrainingError
from repro.obs import MemoryTraceSink, MetricsRegistry, Observer
from repro.obs.sinks import SCHEMA_VERSION, validate_event
from repro.schema import canonical_json
from repro.serve.cache import ResultCache
from repro.serve.client import Client, load_result
from repro.serve.journal import JobJournal
from repro.serve.runner import (
    JobManager,
    build_protocol,
    execute_spec,
    iter_job_events,
)
from repro.serve.types import JOB_CANCELLED, JOB_TIMEOUT, JobSpec, SweepSpec

GRAPH = {"n": 30, "p": 0.3, "seed": 1}

#: Jobs run on forked worker processes, so a fake ``execute_spec`` talks
#: to the test through fork-inherited primitives, created before the
#: manager (whose workers fork with the patch in place).
FORK = multiprocessing.get_context("fork")


class ForkedCalls:
    """A call log the workers append to: only its length crosses."""

    def __init__(self):
        self._count = FORK.Value("i", 0)

    def append(self, _item) -> None:
        with self._count.get_lock():
            self._count.value += 1

    def __len__(self) -> int:
        return self._count.value


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

    def test_miss_encodes_once_and_caches_those_bytes(self, monkeypatch, tmp_path):
        encodes = ForkedCalls()

        def counting_canonical_json(payload):
            encodes.append(payload)
            return canonical_json(payload)

        monkeypatch.setattr(
            "repro.serve.runner.canonical_json", counting_canonical_json
        )
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            job = manager.submit(make_spec())
            assert manager.wait(job, timeout=30) and job.state == "done"
            assert len(encodes) == 1
            truth = canonical_json(execute_spec(make_spec())).encode()
            assert job.body == truth
            assert manager.cache.get(job.key) == truth
            assert job.status().result == json.loads(truth)

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
        release = FORK.Event()
        calls = ForkedCalls()

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
        release = FORK.Event()

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
        release = FORK.Event()
        started = FORK.Event()

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

    def test_result_strict_json_cannot_hold_fails_without_cache(self, monkeypatch):
        monkeypatch.setattr(
            "repro.serve.runner.execute_spec", lambda spec: {"x": float("inf")}
        )
        with JobManager(cache=None, workers=1) as manager:
            job = manager.submit(make_spec())
            assert manager.wait(job, timeout=30)
            assert job.state == "failed"
            assert "JSON compliant" in job.error
            assert job.result is None

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
        release = FORK.Event()
        started = FORK.Event()
        executed = ForkedCalls()

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

    def test_failed_terminal_write_ends_the_job_and_spares_later_ones(self, tmp_path):
        journal_dir = tmp_path / "journal"
        with JobManager(
            cache=tmp_path / "cache", workers=1, journal=journal_dir
        ) as manager:
            original = manager.journal.record_terminal
            writes = []

            def flaky(key, state):
                writes.append(key)
                if len(writes) == 1:
                    raise OSError("disk full")
                original(key, state)

            manager.journal.record_terminal = flaky
            with pytest.warns(RuntimeWarning, match="bookkeeping failed"):
                first = manager.submit(make_spec(seed=1))
                assert manager.wait(first, timeout=30)
            later = [manager.submit(make_spec(seed=seed)) for seed in (2, 3)]
            for job in later:
                assert manager.wait(job, timeout=30) and job.state == "done"
            assert first.state == "done"
            assert manager.stats()["jobs"] == {"done": 3}
            assert (
                manager.registry.counter_value("serve.journal.terminals", label="done")
                == 2
            )
        # The unpaired submit replays on restart, as a cache hit.
        with JobManager(
            cache=tmp_path / "cache", workers=1, journal=journal_dir
        ) as again:
            (replayed,) = again.recover()
            assert replayed.key == first.key and replayed.cache == "hit"

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
        release = FORK.Event()
        started = FORK.Event()

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


def graph_spec(graph_seed: int, run_seed: int) -> JobSpec:
    return make_spec(
        graph={"n": 400, "p": 0.03, "seed": graph_seed},
        params={"protocol": {"kind": "uniform", "q": 0.08}},
        seed=run_seed,
        max_rounds=2000,
    )


def fresh_body(spec: JobSpec) -> bytes:
    """The spec's document from a fresh graph build, outside any manager."""
    return canonical_json(execute_spec(spec)).encode()


def probe_worker_maps(monkeypatch, probe):
    """Report ``probe(graph map)`` from inside the worker after each job.

    Wraps ``execute_spec`` before the manager forks its workers; returns
    a function that collects ``{worker pid: its last report}``.  Reports
    must stay small: nothing reads the queue while the jobs run.
    """
    from repro.serve import runner

    reports = FORK.SimpleQueue()
    execute = runner.execute_spec

    def reporting_execute(spec):
        result = execute(spec)
        reports.put((os.getpid(), probe(runner._GRAPH_MAP.get())))
        return result

    monkeypatch.setattr(runner, "execute_spec", reporting_execute)

    def collect() -> dict:
        last = {}
        while not reports.empty():
            pid, report = reports.get()
            last[pid] = report
        return last

    return collect


def adjacency_digest(adj) -> str:
    """A small stand-in for a network's adjacency, to report across the pipe."""
    return hashlib.sha256(adj.indptr.tobytes() + adj.indices.tobytes()).hexdigest()


def cached_networks(graph_map) -> list:
    return [network for network, _size in graph_map.lru._entries.values()]


def reachable_arrays(obj, seen=None):
    """Every numpy array reachable from ``obj`` through its attributes."""
    import numpy as np

    seen = set() if seen is None else seen
    if id(obj) in seen or obj is None or isinstance(obj, (bool, int, float, str)):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
        for cls in type(obj).__mro__:
            children += [
                getattr(obj, slot)
                for slot in getattr(cls, "__slots__", ())
                if slot != "__weakref__" and hasattr(obj, slot)
            ]
    return [arr for child in children for arr in reachable_arrays(child, seen)]


class TestGraphMap:
    def test_repeats_share_one_worker_graph_and_match_fresh_builds(self, tmp_path):
        specs = [graph_spec(5, run_seed) for run_seed in range(8)]
        with JobManager(cache=tmp_path / "cache", workers=2) as manager:
            # The first request builds and forgets; the second admits.
            # Requests one after another all go to the worker returned
            # last, so the rest run on its one cached network.
            jobs = []
            for spec in specs:
                jobs.append(manager.submit(spec))
                assert manager.wait(jobs[-1], timeout=60) and jobs[-1].state == "done"
            graphs = manager.stats()["graphs"]
            assert graphs["misses"] == 2 and graphs["hits"] == len(specs) - 2
            assert graphs["entries"] == 1 and graphs["bytes"] > 0
        for spec, job in zip(specs, jobs):
            assert job.body == fresh_body(spec)

    def test_stress_worker_maps_under_concurrent_jobs(self, monkeypatch, tmp_path):
        import sys

        specs = [
            make_spec(graph={"n": 60, "p": 0.15, "seed": i % 3}, seed=i)
            for i in range(24)
        ]
        collect = probe_worker_maps(
            monkeypatch,
            lambda graphs: (
                len(graphs.lru),
                graphs.lru.bytes,
                sum(size for _network, size in graphs.lru._entries.values()),
            ),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobManager(cache=tmp_path / "cache", workers=4) as manager:
                jobs = [manager.submit(spec) for spec in specs * 2]
                for job in jobs:
                    assert manager.wait(job, timeout=60) and job.state == "done"
                stats = manager.stats()
        finally:
            sys.setswitchinterval(interval)
        # No lost update: every execution counted once, each worker's
        # byte total is the sum of its entries, and healthz sums the
        # workers' maps.
        graphs = stats["graphs"]
        assert graphs["hits"] + graphs["misses"] == stats["executions"]
        maps = collect().values()
        assert all(total == entry_sum for _, total, entry_sum in maps)
        assert graphs["bytes"] == sum(entry_sum for _, _, entry_sum in maps)
        assert graphs["entries"] == sum(entries for entries, _, _ in maps)
        assert all(entries <= 3 for entries, _, _ in maps)
        bodies = {spec.cache_key(): fresh_body(spec) for spec in specs}
        assert all(job.body == bodies[job.key] for job in jobs)

    def test_graphs_that_never_repeat_leave_the_map_empty(self, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=2) as manager:
            jobs = [manager.submit(graph_spec(seed, seed)) for seed in range(4)]
            for job in jobs:
                assert manager.wait(job, timeout=60) and job.state == "done"
            graphs = manager.stats()["graphs"]
            assert graphs == {"hits": 0, "misses": 4, "entries": 0, "bytes": 0}

    def test_lru_evicts_past_the_byte_budget(self, monkeypatch, tmp_path):
        from repro.api import _as_network
        from repro.serve import runner

        size = runner._network_bytes(_as_network(graph_spec(0, 0).graph))
        # Room for two of these graphs (their sizes differ by a few
        # per cent between seeds), never three.
        monkeypatch.setattr(runner, "GRAPH_MAP_BYTES", int(2.5 * size))
        collect = probe_worker_maps(
            monkeypatch,
            lambda graphs: {adjacency_digest(network.adj) for network in cached_networks(graphs)},
        )
        with JobManager(cache=None, workers=1) as manager:
            for graph_seed in range(3):
                for run_seed in range(2):
                    job = manager.submit(graph_spec(graph_seed, run_seed))
                    assert manager.wait(job, timeout=60)
            graphs = manager.stats()["graphs"]
            assert graphs["entries"] == 2
            assert graphs["bytes"] <= runner.GRAPH_MAP_BYTES
            (kept,) = collect().values()
            oldest = adjacency_digest(_as_network(graph_spec(0, 0).graph).adj)
            assert oldest not in kept
            # The most recent graph is still served from memory.
            hits = graphs["hits"]
            job = manager.submit(graph_spec(2, 9))
            assert manager.wait(job, timeout=60)
            assert manager.stats()["graphs"]["hits"] == hits + 1

    def test_lru_keeps_the_recently_used_entry(self):
        from repro.serve.runner import _LRU

        lru = _LRU(budget=10)
        lru.put("a", "A", 4)
        lru.put("b", "B", 4)
        assert lru.get("a") == "A"  # now "b" is the oldest
        lru.put("c", "C", 4)
        assert lru.get("b") is None and lru.get("a") == "A"
        assert len(lru) == 2 and lru.bytes == 8
        lru.put("huge", "H", 11)  # larger than the budget: not admitted
        assert lru.get("huge") is None and len(lru) == 2

    def test_cached_network_arrays_are_read_only(self, monkeypatch, tmp_path):
        def arrays_of(graphs):
            return [
                (
                    network.adj._matrix is not None and network.adj._connected,
                    len(arrays := reachable_arrays(network)),
                    sum(arr.flags.writeable for arr in arrays),
                )
                for network in cached_networks(graphs)
            ]

        collect = probe_worker_maps(monkeypatch, arrays_of)
        with JobManager(cache=None, workers=2) as manager:
            jobs = []
            for seed in range(4):
                jobs.append(manager.submit(graph_spec(3, seed)))
                assert manager.wait(jobs[-1], timeout=60) and jobs[-1].state == "done"
        ((built, num_arrays, writeable),) = [
            network for networks in collect().values() for network in networks
        ]
        # The serial rounds built the lazily cached fields.
        assert built
        assert num_arrays >= 7
        assert not writeable


class TestBodyMap:
    def test_hits_on_one_key_share_one_bytes_object(self, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            cold = manager.submit(make_spec())
            assert manager.wait(cold, timeout=30)
            hits = [manager.submit(make_spec()) for _ in range(3)]
            assert all(job.cache == "hit" and job.body is cold.body for job in hits)
            assert manager.stats()["cache"]["memory_hits"] == 3

    def test_disk_entry_is_read_once_per_key(self, tmp_path):
        reads = []

        class CountingCache(ResultCache):
            def get(self, key):
                reads.append(key)
                return super().get(key)

        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            cold = manager.submit(make_spec())
            assert manager.wait(cold, timeout=30)
        with JobManager(cache=CountingCache(tmp_path / "cache"), workers=1) as manager:
            warm = [manager.submit(make_spec()) for _ in range(4)]
            assert len(reads) == 1
            assert all(job.cache == "hit" and job.body is warm[0].body for job in warm)
            assert warm[0].body == cold.body
            assert manager.registry.counter_value("serve.cache.memory_hits") == 3

    def test_no_cache_executes_every_request(self):
        with JobManager(cache=None, workers=1) as manager:
            jobs = []
            for _ in range(3):
                jobs.append(manager.submit(make_spec()))
                assert manager.wait(jobs[-1], timeout=30)
            assert [job.cache for job in jobs] == ["miss"] * 3
            assert manager.num_executions == 3
            assert len({job.body for job in jobs}) == 1


class TestNondeterministicSpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            make_spec(graph={"n": 200, "p": 0.1}),
            make_spec(seed=None),
            make_spec(graph={"n": 200, "p": 0.1}, seed=None),
        ],
        ids=["unseeded-graph", "unseeded-run", "unseeded-both"],
    )
    def test_executes_every_time_and_is_never_cached(self, spec, tmp_path):
        with JobManager(cache=tmp_path / "cache", workers=1) as manager:
            jobs = []
            for _ in range(3):
                jobs.append(manager.submit(spec))
                assert manager.wait(jobs[-1], timeout=30)
                assert jobs[-1].state == "done"
            assert [job.cache for job in jobs] == ["miss"] * 3
            assert manager.num_executions == 3
            assert len(manager.cache) == 0 and spec.cache_key() not in manager.cache
            stats = manager.stats()
            assert stats["graphs"] == {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}
            assert len(manager._bodies) == 0

    def test_concurrent_identical_specs_do_not_coalesce(self, monkeypatch, tmp_path):
        release = FORK.Event()
        calls = ForkedCalls()

        def slow_execute(spec):
            calls.append(spec)
            release.wait(10)
            return {"schema_version": 1, "kind": "broadcast-trace"}

        monkeypatch.setattr("repro.serve.runner.execute_spec", slow_execute)
        spec = make_spec(seed=None)
        with JobManager(cache=tmp_path / "cache", workers=2) as manager:
            first = manager.submit(spec)
            second = manager.submit(spec)
            assert second is not first
            # Both count as pending: neither displaced the other.
            assert manager.registry.gauge_value("serve.queue.depth") == 2
            release.set()
            assert manager.wait(first, timeout=10) and manager.wait(second, timeout=10)
            assert len(calls) == 2 and manager.num_executions == 2
            assert manager.stats()["jobs"] == {"done": 2}


class TestStats:
    def test_counting_cache_entries_does_not_block_submit(self, tmp_path):
        counting = threading.Event()
        release = threading.Event()

        class SlowCountCache(ResultCache):
            def __len__(self):
                counting.set()
                release.wait(10)
                return super().__len__()

        with JobManager(cache=SlowCountCache(tmp_path / "cache"), workers=1) as manager:
            stats = []
            reader = threading.Thread(target=lambda: stats.append(manager.stats()))
            reader.start()
            try:
                assert counting.wait(10)
                submitted = []
                writer = threading.Thread(
                    target=lambda: submitted.append(manager.submit(make_spec()))
                )
                writer.start()
                writer.join(5)
                assert submitted, "submit blocked behind the cache walk"
            finally:
                release.set()
                reader.join(10)
            assert manager.wait(submitted[0], timeout=30)
            assert stats and stats[0]["cache"]["entries"] == 0


def wait_for_round(job, timeout=10.0):
    """Wait until the job's worker has relayed a round event."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        window, _ = job.events_since(0)
        if any(event["kind"] == "round" for event in window):
            return True
        time.sleep(0.005)
    return False


def busy_worker(manager: JobManager):
    (worker,) = [
        worker
        for slot, worker in enumerate(manager._workers)
        if slot not in manager._idle
    ]
    return worker


class TestWorkers:
    def test_killed_worker_fails_only_its_job_and_is_reforked(self, tmp_path):
        import signal

        journal_dir = tmp_path / "journal"
        with JobManager(
            cache=tmp_path / "cache", workers=2, journal=journal_dir
        ) as manager:
            doomed = manager.submit(slow_spec())
            assert wait_for_round(doomed)
            victim = busy_worker(manager)
            # The other worker keeps serving while one grinds.
            bystander = manager.submit(make_spec())
            assert manager.wait(bystander, timeout=30) and bystander.state == "done"
            os.kill(victim.process.pid, signal.SIGKILL)
            assert manager.wait(doomed, timeout=30)
            assert doomed.state == "failed"
            assert doomed.error == f"worker process exited (code {-signal.SIGKILL})"
            assert doomed.key not in manager.cache
            assert manager.stats()["workers"] == {"processes": 2, "respawns": 1}
            assert victim not in manager._workers
            assert all(worker.process.is_alive() for worker in manager._workers)
            spec = graph_spec(1, 2)
            follow = manager.submit(spec)
            assert manager.wait(follow, timeout=30) and follow.state == "done"
            assert follow.body == canonical_json(execute_spec(spec)).encode()
        records = [
            json.loads(line)
            for line in (journal_dir / "journal.jsonl").read_text().splitlines()
        ]
        pairs = {}
        for record in records:
            pairs.setdefault(record["key"], []).append(record.get("state"))
        assert pairs[doomed.key] == [None, "failed"]
        assert pairs[follow.key] == [None, "done"]

    def test_cancel_stops_a_running_broadcast_within_a_round(self, tmp_path):
        with JobManager(cache=None, workers=1) as manager:
            (worker,) = manager._workers
            job = manager.submit(slow_spec())
            assert wait_for_round(job)
            manager.cancel(job.id)
            taped = job.num_events()
            assert manager.wait(job, timeout=10)
            assert job.state == JOB_CANCELLED
            # At most the one round event that tripped the check lands
            # on the tape after the cancel.
            late, _ = job.events_since(taped)
            assert sum(event["kind"] == "round" for event in late) <= 1
            # The same worker process serves the next job.
            follow = manager.submit(make_spec())
            assert manager.wait(follow, timeout=30) and follow.state == "done"
            assert manager._workers == [worker] and worker.process.is_alive()
            assert manager.stats()["workers"] == {"processes": 1, "respawns": 0}

    def test_racing_cancels_and_readers_leave_the_workers_clean(self):
        # Cancels and first reads land before, while and after each
        # endless job reaches its worker, between quick jobs.  Every
        # stop or watch that arrives late must be dropped, never taken
        # for the next job on that worker.
        import random
        import sys

        rng = random.Random(5)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobManager(cache=None, workers=3, max_pending=64) as manager:
                endless, quick = [], []
                for seed in range(24):
                    endless.append(manager.submit(slow_spec(seed=seed)))
                    quick.append(manager.submit(make_spec(seed=seed)))

                def poke(job):
                    time.sleep(rng.random() * 0.05)
                    if rng.random() < 0.5:
                        job.events_since(0)
                    manager.cancel(job.id)

                pokers = [threading.Thread(target=poke, args=(job,)) for job in endless]
                for thread in pokers:
                    thread.start()
                for thread in pokers:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                for job in endless:
                    assert manager.wait(job, timeout=30) and job.state == JOB_CANCELLED
                for job in quick:
                    assert manager.wait(job, timeout=30) and job.state == "done"
                    assert job.body == canonical_json(execute_spec(job.spec)).encode()
                assert manager.stats()["workers"] == {"processes": 3, "respawns": 0}
        finally:
            sys.setswitchinterval(switch)

    def test_cancel_before_the_job_reaches_its_worker_still_stops_it(self, monkeypatch):
        from repro.serve import runner

        start = runner._Worker.start

        def cancel_then_start(worker, job):
            job.cancel()  # no worker to tell yet: start must see the flag
            start(worker, job)

        monkeypatch.setattr(runner._Worker, "start", cancel_then_start)
        manager = JobManager(cache=None, workers=1)
        try:
            job = manager.submit(slow_spec())
            assert manager.wait(job, timeout=10) and job.state == JOB_CANCELLED
        finally:
            # Should the stop be lost, the endless job ends with its worker.
            manager._workers[0].process.kill()
            manager.shutdown()

    def test_a_stop_pushed_for_a_finished_job_spares_the_next_one(self):
        with JobManager(cache=None, workers=1) as manager:
            (worker,) = manager._workers
            first = manager.submit(make_spec())
            assert manager.wait(first, timeout=30) and first.state == "done"
            second = manager.submit(slow_spec())
            assert wait_for_round(second)
            # A cancel of the first job that read its worker before the
            # reply: the push must not reach the second job.
            worker.push(first, "stop")

            def rounds():
                return sum(event["kind"] == "round" for event in second.events_since(0)[0])

            seen, deadline = rounds(), time.monotonic() + 10
            while rounds() < seen + 3 and not second.done.is_set():
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert not second.done.is_set()
            manager.cancel(second.id)
            assert manager.wait(second, timeout=10) and second.state == JOB_CANCELLED

    def test_cancel_stops_a_running_sweep_without_requeueing_its_task(
        self, monkeypatch
    ):
        from repro import simulate

        started = ForkedCalls()

        def grinding_experiment(*, quick, seed):
            # Real broadcasts, one event per round, for seconds: a task
            # that catches the stop as an error would be retried, and
            # its siblings would run after it.
            started.append(seed)
            spec = slow_spec(max_rounds=20_000)
            end = time.monotonic() + 3.0
            while time.monotonic() < end:
                simulate(
                    spec.process,
                    dict(spec.graph),
                    seed=spec.seed,
                    max_rounds=spec.max_rounds,
                    raise_on_incomplete=False,
                    protocol=build_protocol(spec.params["protocol"], spec.graph),
                )

        monkeypatch.setattr(
            "repro.experiments.parallel.get_experiment",
            lambda _id: grinding_experiment,
        )
        with JobManager(cache=None, workers=1) as manager:
            (worker,) = manager._workers
            job = manager.submit(SweepSpec(experiments=("E1", "E2", "E3"), jobs=1))
            assert wait_for_round(job)
            cancelled_at = time.monotonic()
            manager.cancel(job.id)
            taped = job.num_events()
            assert manager.wait(job, timeout=30)
            assert job.state == JOB_CANCELLED
            assert time.monotonic() - cancelled_at < 2.0
            # One task started: it was neither requeued nor followed by
            # its siblings, on the worker or on the tape.
            assert len(started) == 1
            late, _ = job.events_since(taped)
            assert not [
                event
                for event in late
                if event["kind"] == "task-requeue" or event["kind"] == "run-start"
            ]
            assert manager.registry.counter_value("exec.tasks", label="ok") == 0
            # The same worker process serves the next job.
            follow = manager.submit(make_spec())
            assert manager.wait(follow, timeout=30) and follow.state == "done"
            assert manager._workers == [worker] and worker.process.is_alive()

    def test_shutdown_ends_every_worker(self):
        manager = JobManager(cache=None, workers=2)
        job = manager.submit(make_spec())
        assert manager.wait(job, timeout=30)
        processes = [worker.process for worker in manager._workers]
        manager.shutdown()
        assert all(process.exitcode == 0 for process in processes)
        assert manager.stats()["workers"]["processes"] == 0


def without_wall_s(events):
    return [{key: value for key, value in event.items() if key != "wall_s"} for event in events]


class TestEventDelivery:
    """A worker sends a job's events with its reply unless the job has a
    live reader; either way the finished tape is the same."""

    def reference_tape(self, spec):
        """The tape of one execution outside any manager."""
        from repro.obs import use_observer

        sink = MemoryTraceSink()
        with use_observer(Observer(MetricsRegistry(), sink)):
            execute_spec(spec)
        job = {"job": "job-000001", "spec": spec.cache_key()}
        return (
            [{"v": SCHEMA_VERSION, "kind": "serve-job-start", **job}]
            + sink.events
            + [{"v": SCHEMA_VERSION, "kind": "serve-job-end", **job, "state": "done"}]
        )

    def test_buffered_streamed_and_watched_tapes_are_identical(self):
        spec = graph_spec(3, 4)
        expected = without_wall_s(self.reference_tape(spec))
        assert [event["kind"] for event in expected].count("round") > 1
        with JobManager(cache=None, workers=1) as manager:
            quiet = manager.submit(spec)
            assert manager.wait(quiet, timeout=30) and quiet.state == "done"
        with JobManager(cache=None, workers=1) as manager:
            watched = manager.submit(spec)
            watched.events_since(0)  # a live reader
            assert manager.wait(watched, timeout=30) and watched.state == "done"
        sink = MemoryTraceSink()
        with JobManager(cache=None, workers=1, obs=Observer(MetricsRegistry(), sink)) as manager:
            teed = manager.submit(spec)
            assert manager.wait(teed, timeout=30) and teed.state == "done"
        for job in (quiet, watched, teed):
            tape, _ = job.events_since(0)
            assert without_wall_s(tape) == expected
            for event in tape:
                validate_event(event)
        # The downstream observer saw every event as the tape did.
        assert without_wall_s(sink.events) == expected

    def test_unwatched_running_job_stops_on_cancel(self, tmp_path):
        # An observer's sink is not a live reader: it gets the tape when
        # the job ends.
        sink = MemoryTraceSink()
        with JobManager(cache=None, workers=1, obs=Observer(MetricsRegistry(), sink)) as manager:
            job = manager.submit(slow_spec())
            try:
                assert wait_for_running(job)
                time.sleep(0.1)
                taped, teed = job.num_events(), len(sink.events)
            finally:
                manager.cancel(job.id)  # the spec never ends by itself
            assert taped == 1  # serve-job-start: the rest wait in the worker
            assert teed == 0
            assert manager.wait(job, timeout=10) and job.state == JOB_CANCELLED
            tape = job.events_since(0)[0]
            kinds = [event["kind"] for event in tape]
            assert kinds[:3] == ["serve-job-start", "run-start", "round"]
            assert kinds[-2:] == ["serve-job-cancelled", "serve-job-end"]
            assert sink.events == tape

    def test_worker_reports_its_phase_timings(self):
        with JobManager(cache=None, workers=1) as manager:
            job = manager.submit(make_spec())
            assert manager.wait(job, timeout=30) and job.state == "done"
            for phase in ("execute", "encode"):
                hist = manager.registry.histogram("serve.worker.phase_s", label=phase)
                assert hist is not None and hist.count == 1 and hist.total > 0


_REUSE_FAULTS = """
import ctypes, json, resource
from repro.serve import runner

libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]
size = 16 << 20

def touch():
    block = libc.malloc(size)
    ctypes.memset(block, 1, size)
    libc.free(block)

def reuse_faults():
    touch()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    touch()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

libc.mallopt(runner._M_MMAP_THRESHOLD, 128 << 10)
libc.mallopt(runner._M_TRIM_THRESHOLD, 128 << 10)
default = reuse_faults()
runner._keep_heap()
print(json.dumps([default, reuse_faults()]))
"""


@pytest.mark.skipif(
    not hasattr(__import__("ctypes").CDLL(None), "mallopt"), reason="needs glibc's mallopt"
)
def test_worker_heap_keeps_freed_pages_for_the_next_job():
    """Reusing a freed 16 MB block faults its pages in again under small
    fixed glibc thresholds, and not after ``_keep_heap``.  A fresh
    interpreter, so that no large free chunk of an earlier test's heap
    serves the block."""
    import subprocess
    import sys

    from repro.serve.runner import WORKER_HEAP_BYTES

    assert 16 << 20 < WORKER_HEAP_BYTES <= 32 << 20  # glibc's mmap threshold cap
    out = subprocess.run(
        [sys.executable, "-c", _REUSE_FAULTS],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    default, kept = json.loads(out)
    assert default > 1000  # 4096 pages, unmapped and faulted in again
    assert kept < 100
