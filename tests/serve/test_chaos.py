"""Serve-chaos acceptance: resilience promises proven on real processes.

The deterministic harness (a :class:`repro.chaos.FaultSchedule` with
``hold`` and ``reset`` rules) pins a job
in flight long enough for the test to SIGKILL the server, then the
restarted process — same cache and journal directories — must replay
the job from its journal and produce the byte-identical result.  The
unit half of this file covers the harness itself; the subprocess half
is the acceptance bar the CI serve-chaos job re-runs against a packaged
server.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.chaos import FaultRule, FaultSchedule
from repro.schema import canonical_json
from repro.serve import Client, JobJournal, JobManager, JobSpec
from repro.serve.runner import execute_spec

SPEC_PAYLOAD = {
    "process": "broadcast",
    "graph": {"n": 30, "p": 0.3, "seed": 1},
    "params": {"protocol": {"kind": "decay"}},
    "seed": 7,
    "max_rounds": 200,
}

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def hold(jobs, seconds):
    return FaultRule("execute", "hold", count=jobs, seconds=seconds)


def reset(connections):
    return FaultRule("connection", "reset", count=connections)


class TestHarness:
    def test_counters_survive_process_death(self, tmp_path):
        # Two managers over one state_dir stand in for the server
        # before and after a kill: the schedule resumes, not replays.
        spec = JobSpec.from_dict(SPEC_PAYLOAD)
        first = JobManager(chaos=FaultSchedule(tmp_path, [hold(1, 0.0)]))
        try:
            job = first.submit(spec)  # consumes the single hold
            assert first.wait(job, timeout=30) and job.state == "done"
        finally:
            first.shutdown()
        second = JobManager(chaos=FaultSchedule(tmp_path, [hold(1, 30.0)]))
        try:
            t0 = time.monotonic()
            job = second.submit(spec)  # already spent: must not sleep
            assert second.wait(job, timeout=30) and job.state == "done"
            assert time.monotonic() - t0 < 10.0
        finally:
            second.shutdown()
        assert (tmp_path / "rule0.count").read_text() == "2"

    def test_connection_schedule(self, tmp_path):
        chaos = FaultSchedule(tmp_path, [reset(2)])
        assert chaos.fire("connection", "reset") is not None
        assert chaos.fire("connection", "reset") is not None
        assert chaos.fire("connection", "reset") is None

    def test_zero_schedule_is_free(self, tmp_path):
        chaos = FaultSchedule(tmp_path)
        assert chaos.fire("execute", "hold") is None
        assert chaos.fire("connection", "reset") is None
        assert list(tmp_path.glob("*.count")) == []  # no counter files

    def test_negative_counts_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="invalid fault window"):
            FaultSchedule(tmp_path, [hold(-1, 0.0)])

    def test_concurrent_consultations_never_lose_a_count(self, tmp_path):
        """Executions consult the schedule from several threads at once;
        no read-increment-replace may be lost, and each hold fires once."""
        import sys
        import threading

        chaos = FaultSchedule(tmp_path, [hold(5, 0.0)])
        fired = []

        def consult():
            for _ in range(20):
                if chaos.fire("execute", "hold") is not None:
                    fired.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=consult) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert chaos.seen(0) == 160
        assert len(fired) == 5

    def test_spec_file_round_trip(self, tmp_path):
        path = FaultSchedule(
            tmp_path / "state", [hold(3, 1.5), reset(2)]
        ).save(tmp_path / "chaos.json")
        chaos = FaultSchedule.load(path)
        assert chaos.state_dir == tmp_path / "state"
        assert chaos.rules == [hold(3, 1.5), reset(2)]

    def test_spec_file_written_atomically(self, tmp_path, monkeypatch):
        """The spec goes through the crash-safe writer, so a server or
        worker never loads a torn schedule."""
        import repro.chaos

        written = []
        real = repro.chaos.atomic_write
        monkeypatch.setattr(
            repro.chaos,
            "atomic_write",
            lambda path, data: written.append(path) or real(path, data),
        )
        path = FaultSchedule(tmp_path / "state", [reset(1)]).save(
            tmp_path / "chaos.json"
        )
        assert written == [path]
        assert [p.name for p in tmp_path.iterdir()] == ["chaos.json"]


def _start_server(tmp_path: Path, log_name: str, *extra: str):
    """One `repro serve` subprocess on an ephemeral port; returns
    (process, base_url) once the listener has announced itself."""
    log_path = tmp_path / log_name
    env = {
        **os.environ,
        "PYTHONPATH": SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""),
        "PYTHONUNBUFFERED": "1",
    }
    with open(log_path, "wb") as log:
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--cache",
                str(tmp_path / "cache"),
                *extra,
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        match = re.search(
            rb"serving on (http://[\d.:]+)", log_path.read_bytes()
        )
        if match:
            return process, match.group(1).decode()
        if process.poll() is not None:
            raise AssertionError(
                f"server died at startup:\n{log_path.read_text()}"
            )
        time.sleep(0.05)
    process.kill()
    raise AssertionError(f"server never came up:\n{log_path.read_text()}")


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.mark.slow
class TestKillRestartReplay:
    def test_sigkill_mid_job_replays_byte_identically(self, tmp_path):
        spec = JobSpec.from_dict(SPEC_PAYLOAD)
        reference = canonical_json(execute_spec(spec))
        chaos_spec = FaultSchedule(
            tmp_path / "chaos-state", [hold(1, 300.0)]
        ).save(tmp_path / "chaos.json")
        hold_counter = tmp_path / "chaos-state" / "rule0.count"
        journal = JobJournal(tmp_path / "cache", fsync=False)

        server, url = _start_server(
            tmp_path, "serve-1.log", "--chaos", str(chaos_spec)
        )
        try:
            client = Client(url, backoff_s=0.05)
            queued = client.submit(spec, wait=False)
            assert not queued.done
            # The hold counter appears the moment the execution reaches
            # the worker — by then its submit record is journaled and
            # the worker is pinned in the 300 s hold.  Kill it there.
            _wait_for(hold_counter.exists, message="the held execution")
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()

        # The corpse left an unpaired submit in the journal.
        assert b'"op":"submit"' in journal.path.read_bytes()
        assert b'"op":"terminal"' not in journal.path.read_bytes()

        # Restart against the same cache/journal: the hold is already
        # consumed, so recovery replays the job unheld, before serving.
        server, url = _start_server(
            tmp_path, "serve-2.log", "--chaos", str(chaos_spec)
        )
        try:
            client = Client(url, backoff_s=0.05)
            # An identical submit coalesces with the in-flight replay or
            # hits the cache it filled — either way, the same bytes.
            replayed = client.submit(spec, wait=True)
            assert replayed.ok
            assert canonical_json(replayed.result) == reference
            health = client.health()
            assert health["jobs"].get("done", 0) >= 1
        finally:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            finally:
                if server.poll() is None:
                    server.kill()

        # With the terminal record landed, a third recovery is a no-op.
        assert journal.recover() == []


def _children(pid: int) -> list[int]:
    """Live child process ids of ``pid``, from procfs."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid and fields[0] != "Z":
                children.append(int(entry.name))
    return children


def _alive(pid: int) -> bool:
    """Running (not gone, not a zombie awaiting its reaper)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
class TestOrphanedWorkers:
    def test_sigkilled_server_leaves_no_worker_alive(self, tmp_path):
        server, url = _start_server(
            tmp_path, "serve.log", "--serve-workers", "2"
        )
        try:
            client = Client(url, backoff_s=0.05)
            assert client.submit(JobSpec.from_dict(SPEC_PAYLOAD), wait=True).ok
            assert client.health()["workers"] == {"processes": 2, "respawns": 0}
            workers = _children(server.pid)
            assert len(workers) == 2
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
        # The kernel closed the dead server's pipe ends: each worker
        # reads EOF and exits.
        _wait_for(
            lambda: not any(_alive(pid) for pid in workers),
            timeout=10.0,
            message="the orphaned workers to exit",
        )


@pytest.mark.slow
class TestGracefulDrain:
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        server, url = _start_server(tmp_path, "serve.log", "--drain-s", "10")
        client = Client(url, backoff_s=0.05)
        try:
            done = client.submit(JobSpec.from_dict(SPEC_PAYLOAD), wait=True)
            assert done.ok
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
        log = (tmp_path / "serve.log").read_text()
        assert "serving on" in log
