"""Integration tests for the asyncio HTTP job server.

One real server runs on a loopback port per fixture; requests go
through the HTTP :class:`~repro.serve.client.Client` (and raw
``http.client`` where the test is about wire details).
"""

import asyncio
import contextlib
import json
import threading
from http.client import HTTPConnection

import pytest

from repro.errors import ServeError
from repro.obs.sinks import validate_event
from repro.schema import canonical_json
from repro.chaos import FaultRule, FaultSchedule
from repro.serve import Client, JobManager, JobSpec, JobStatus, Server
from repro.serve.http import _json_bytes
from repro.serve.runner import execute_spec

GRAPH = {"n": 30, "p": 0.3, "seed": 1}
SIM_PAYLOAD = {
    "process": "broadcast",
    "graph": GRAPH,
    "params": {"protocol": {"kind": "decay"}},
    "seed": 7,
    "max_rounds": 200,
}


@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral port; yields (client, manager)."""
    with live_server(manager=JobManager(cache=tmp_path / "cache", workers=2)) as server:
        yield Client(server.address), server.manager


@contextlib.contextmanager
def live_server(executor=None, **server_kwargs):
    """A live server built with arbitrary kwargs; yields the Server.

    ``executor``, when given, becomes the event loop's default executor.
    """
    loop = asyncio.new_event_loop()
    if executor is not None:
        loop.set_default_executor(executor)
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = Server(**server_kwargs)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        assert not thread.is_alive()
        loop.close()
        server.manager.shutdown()


def _raw(client: Client, method: str, path: str, body: dict | None = None):
    status, _headers, payload = _raw_full(client, method, path, body)
    return status, payload


def _raw_full(client: Client, method: str, path: str, body: dict | None = None):
    status, headers, raw = _raw_bytes(client, method, path, body)
    return status, headers, json.loads(raw or b"null")


def _raw_bytes(client: Client, method: str, path: str, body: dict | None = None):
    """One request; the status, headers and undecoded response body."""
    conn = HTTPConnection(client._transport.netloc, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _result_slice(raw: bytes) -> bytes:
    """The bytes of ``result``, the last key of a status document."""
    start = raw.index(b',"result":') + len(b',"result":')
    assert raw.endswith(b"}\n")
    return raw[start:-2]


class TestSimulateEndpoint:
    def test_cold_then_warm_byte_identical(self, served):
        client, manager = served
        cold = client.submit(JobSpec.from_dict(SIM_PAYLOAD))
        warm = client.submit(JobSpec.from_dict(SIM_PAYLOAD))
        assert cold.ok and warm.ok
        assert cold.cache == "miss" and warm.cache == "hit"
        # The acceptance bar: warm is served from the cache (hit metric,
        # no second execution) and the result JSON is byte-identical.
        assert canonical_json(cold.result) == canonical_json(warm.result)
        assert manager.num_executions == 1
        assert manager.registry.counter_value("serve.cache.hits") == 1

    def test_simulate_via_client_verb(self, served):
        client, _ = served
        status = client.simulate(
            "broadcast",
            GRAPH,
            protocol={"kind": "eg-randomized"},
            seed=3,
            max_rounds=400,
        )
        assert status.ok
        assert status.result["kind"] == "broadcast-trace"

    def test_wait_false_returns_immediately(self, served):
        client, _ = served
        status = client.simulate(
            "broadcast", GRAPH, protocol={"kind": "decay"}, seed=9, wait=False
        )
        assert status.state in ("queued", "running", "done")
        final = client.job(status.id, wait=True)
        assert final.ok

    def test_sweep_posted_to_simulate_is_rejected(self, served):
        client, _ = served
        status, payload = _raw(
            client, "POST", "/v1/simulate", {"experiments": ["E1"]}
        )
        assert status == 400
        assert "simulate" in payload["error"]


class TestHitsAsBytes:
    """A hit is served as the cached bytes, pinned to the old encoder."""

    def test_hit_body_matches_parsed_encoding(self, served):
        client, _ = served
        spec = JobSpec.from_dict(SIM_PAYLOAD)
        assert client.submit(spec).cache == "miss"
        status, _headers, posted = _raw_bytes(
            client, "POST", "/v1/simulate?wait=true", SIM_PAYLOAD
        )
        assert status == 200
        hit = JobStatus.from_dict(json.loads(posted))
        status, _headers, fetched = _raw_bytes(client, "GET", f"/v1/jobs/{hit.id}")
        assert status == 200
        for raw in (posted, fetched):
            parsed = JobStatus.from_dict(json.loads(raw))
            assert parsed.cache == "hit"
            # Byte-identical to encoding the parsed document in place.
            assert raw == _json_bytes(parsed.to_dict())
            assert _result_slice(raw) == canonical_json(execute_spec(spec)).encode()

    def test_miss_body_carries_the_canonical_bytes(self, served):
        client, _ = served
        status, _headers, raw = _raw_bytes(
            client, "POST", "/v1/simulate?wait=true", SIM_PAYLOAD
        )
        assert status == 200
        assert json.loads(raw)["cache"] == "miss"
        spec = JobSpec.from_dict(SIM_PAYLOAD)
        assert _result_slice(raw) == canonical_json(execute_spec(spec)).encode()

    def test_hit_is_neither_parsed_nor_reencoded(self, served, monkeypatch):
        client, _ = served
        cold = client.submit(JobSpec.from_dict(SIM_PAYLOAD))
        assert cold.cache == "miss"

        class NoJson:
            def __getattr__(self, name):
                raise AssertionError(f"json.{name} called on a cache hit")

        def no_encode(payload):
            raise AssertionError("canonical_json called on a cache hit")

        encoded = []

        class SpyJson:
            loads = staticmethod(json.loads)

            @staticmethod
            def dumps(payload, **kwargs):
                encoded.append(payload)
                return json.dumps(payload, **kwargs)

        monkeypatch.setattr("repro.serve.cache.json", NoJson(), raising=False)
        monkeypatch.setattr("repro.serve.runner.json", NoJson())
        monkeypatch.setattr("repro.serve.runner.canonical_json", no_encode)
        monkeypatch.setattr("repro.serve.http.json", SpyJson())
        status, _headers, raw = _raw_bytes(
            client, "POST", "/v1/simulate?wait=true", SIM_PAYLOAD
        )
        assert status == 200, raw
        assert json.loads(raw)["cache"] == "hit"
        assert _result_slice(raw) == canonical_json(cold.result).encode()
        # The server encoded the status head only, never the result.
        assert encoded and all("result" not in payload for payload in encoded)

    def test_terminal_job_skips_the_executor(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        class CountingExecutor(ThreadPoolExecutor):
            calls = 0

            def submit(self, fn, *args, **kwargs):
                CountingExecutor.calls += 1
                return super().submit(fn, *args, **kwargs)

        with CountingExecutor(max_workers=2) as executor, live_server(
            executor=executor, cache=tmp_path / "cache"
        ) as server:
            client = Client(server.address)
            cold = client.submit(JobSpec.from_dict(SIM_PAYLOAD))
            assert cold.cache == "miss"
            CountingExecutor.calls = 0
            warm = client.submit(JobSpec.from_dict(SIM_PAYLOAD))
            assert warm.cache == "hit"
            assert client.job(warm.id, wait=True).ok
            assert CountingExecutor.calls == 0


class TestJobEndpoints:
    def test_events_stream_is_schema_valid(self, served):
        client, _ = served
        status = client.simulate(
            "broadcast", GRAPH, protocol={"kind": "decay"}, seed=7, wait=False
        )
        events = list(client.events(status.id))  # follows to completion
        assert events[0]["kind"] == "serve-job-start"
        assert events[-1]["kind"] == "serve-job-end"
        for event in events:
            validate_event(event)

    def test_unknown_job_is_404(self, served):
        client, _ = served
        status, payload = _raw(client, "GET", "/v1/jobs/job-999999")
        assert status == 404
        assert "job-999999" in payload["error"]
        with pytest.raises(ServeError, match="404"):
            client.job("job-999999")

    def test_healthz(self, served):
        client, _ = served
        health = client.health()
        assert health["ok"] is True
        assert {"jobs", "executions", "cache"} <= set(health)


class TestWireDetails:
    def test_bad_json_body_is_400(self, served):
        client, _ = served
        conn = HTTPConnection(client._transport.netloc, timeout=30)
        try:
            conn.request("POST", "/v1/simulate", body=b"{nope")
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_unknown_route_is_404(self, served):
        client, _ = served
        status, _payload = _raw(client, "GET", "/v1/nope")
        assert status == 404

    def test_wrong_method_is_405(self, served):
        client, _ = served
        status, _payload = _raw(client, "GET", "/v1/simulate")
        assert status == 405
        status, _payload = _raw(client, "POST", "/v1/healthz", {})
        assert status == 405

    def test_unknown_spec_fields_are_400(self, served):
        client, _ = served
        status, payload = _raw(
            client, "POST", "/v1/simulate", {**SIM_PAYLOAD, "bogus": 1}
        )
        assert status == 400
        assert "bogus" in payload["error"]

    def test_failed_job_reports_error_state(self, served):
        client, _ = served
        status = client.simulate("nonsense", GRAPH, seed=1)
        assert status.state == "failed"
        assert status.error


class TestResilienceEndpoints:
    def test_readyz_flips_to_503_on_drain(self, served):
        client, manager = served
        status, headers, payload = _raw_full(client, "GET", "/v1/readyz")
        assert status == 200
        assert payload == {"ready": True, "draining": False}
        manager.drain(budget_s=5.0)
        status, headers, payload = _raw_full(client, "GET", "/v1/readyz")
        assert status == 503
        assert payload == {"ready": False, "draining": True}
        assert headers.get("Retry-After") == "1"

    def test_submit_during_drain_is_503_with_retry_after(self, served):
        client, manager = served
        manager.drain(budget_s=5.0)
        status, headers, payload = _raw_full(
            client, "POST", "/v1/simulate", SIM_PAYLOAD
        )
        assert status == 503
        assert headers.get("Retry-After") == "1"
        assert "draining" in payload["error"]
        # A non-retrying client surfaces the 503 as a ServeError.
        direct = Client(client._transport.netloc, retries=0)
        with pytest.raises(ServeError, match="503"):
            direct.submit(JobSpec.from_dict(SIM_PAYLOAD))

    def test_delete_cancels_via_client_verb(self, served):
        client, _ = served
        slow = {
            "process": "broadcast",
            "graph": {"n": 200, "p": 0.05, "seed": 3},
            "params": {"protocol": {"kind": "uniform", "q": 1e-9}},
            "seed": 11,
            "max_rounds": 50_000_000,
        }
        status = client.submit(JobSpec.from_dict(slow), wait=False)
        final = client.cancel(status.id, wait=True)
        assert final.state == "cancelled"
        assert final.done and not final.ok

    def test_delete_unknown_job_is_404(self, served):
        client, _ = served
        status, _payload = _raw(client, "DELETE", "/v1/jobs/job-999999")
        assert status == 404

    def test_deadline_over_http_times_out(self, served):
        client, _ = served
        status = client.simulate(
            "broadcast",
            {"n": 200, "p": 0.05, "seed": 3},
            protocol={"kind": "uniform", "q": 1e-9},
            seed=11,
            max_rounds=50_000_000,
            deadline_s=0.2,
        )
        assert status.state == "timeout"
        assert "deadline" in status.error


class TestClientRetries:
    def test_client_survives_reset_connections(self, tmp_path):
        chaos = FaultSchedule(
            tmp_path / "chaos", [FaultRule("connection", "reset", count=2)]
        )
        with live_server(cache=tmp_path / "cache", chaos=chaos) as server:
            client = Client(server.address, backoff_s=0.01)
            status = client.submit(JobSpec.from_dict(SIM_PAYLOAD))
            assert status.ok and status.result is not None
            assert client._transport.retried == 2
        # The counter records every consulted connection: two aborted
        # plus the one that finally got through.
        counter = tmp_path / "chaos" / "rule0.count"
        assert counter.read_text() == "3"

    def test_retries_exhausted_raises(self, tmp_path):
        chaos = FaultSchedule(
            tmp_path / "chaos", [FaultRule("connection", "reset", count=100)]
        )
        with live_server(cache=None, chaos=chaos) as server:
            client = Client(server.address, retries=1, backoff_s=0.01)
            with pytest.raises(ServeError, match="2 attempt"):
                client.health()
            assert client._transport.retried == 1
