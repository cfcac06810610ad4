"""CLI tests for the serve/submit subcommands and the --json flag."""

import json
import threading

import pytest

from repro.cli import build_parser, main
from repro.io import result_from_wire
from repro.schema import RESULT_SCHEMA_VERSION, canonical_json
from repro.serve import Client, JobManager, Server


class TestParserFlags:
    def test_json_flag(self):
        args = build_parser().parse_args(["run", "E7", "--json"])
        assert args.json is True
        args = build_parser().parse_args(["run-all", "--only", "E7", "--json"])
        assert args.json is True
        args = build_parser().parse_args(["run", "E7"])
        assert args.json is False

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache", "c", "--serve-workers", "4"]
        )
        assert args.port == 0
        assert args.cache == "c"
        assert args.serve_workers == 4
        assert args.max_pending == 256
        assert args.host == "127.0.0.1"

    def test_submit_flags(self):
        args = build_parser().parse_args(
            ["submit", "--experiments", "E1,E2", "--seed", "3", "--no-wait"]
        )
        assert args.experiments == "E1,E2"
        assert args.seed == 3
        assert args.no_wait is True
        assert args.spec is None


class TestRunJson:
    def test_run_json_is_the_wire_document(self, capsys):
        assert main(["run", "E7", "--seed", "1", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema_version"] == RESULT_SCHEMA_VERSION
        assert doc["kind"] == "experiment-result"
        # Canonical bytes: reserialising changes nothing.
        assert out.strip() == canonical_json(doc)
        result = result_from_wire(doc)
        assert result.experiment_id == "E7"

    def test_run_json_round_trips_to_result(self, capsys):
        assert main(["run", "E7", "--seed", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        result = result_from_wire(doc)
        from repro.io import result_wire

        assert canonical_json(result_wire(result)) == canonical_json(doc)

    def test_run_all_json_sweep_document(self, capsys):
        assert main(["run-all", "--only", "E7", "--seed", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "experiment-sweep"
        assert [o["key"] for o in doc["outcomes"]] == ["E7"]
        assert doc["outcomes"][0]["status"] == "ok"
        assert doc["outcomes"][0]["result"]["kind"] == "experiment-result"

    def test_run_all_json_matches_server_sweep(self, tmp_path, capsys):
        """The satellite acceptance: CLI --json == POST /v1/sweeps, bytes."""
        assert main(["run-all", "--only", "E7", "--seed", "1", "--json"]) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        with Client.local(cache=tmp_path / "cache", workers=1) as client:
            status = client.sweep(["E7"], quick=True, seed=1)
        assert status.ok
        assert canonical_json(status.result) == canonical_json(cli_doc)


class TestSubmitCommand:
    @pytest.fixture
    def server_addr(self, tmp_path):
        import asyncio

        manager = JobManager(cache=tmp_path / "cache", workers=1)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        server = Server(manager=manager)
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
        try:
            yield server.address
        finally:
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            manager.shutdown()

    def test_submit_requires_one_input(self, capsys):
        assert main(["submit"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert (
            main(["submit", "--spec", "x.json", "--experiments", "E1"]) == 2
        )

    def test_submit_spec_file(self, tmp_path, server_addr, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "process": "broadcast",
                    "graph": {"n": 30, "p": 0.3, "seed": 1},
                    "params": {"protocol": {"kind": "decay"}},
                    "seed": 7,
                    "max_rounds": 200,
                }
            )
        )
        assert (
            main(["submit", "--server", server_addr, "--spec", str(spec)])
            == 0
        )
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "done"
        assert status["result"]["kind"] == "broadcast-trace"

    def test_submit_unreachable_server_fails_cleanly(self, capsys, monkeypatch):
        import repro.serve.client

        # The retries back off without sleeping in real time.
        sleeps = []
        monkeypatch.setattr(repro.serve.client.time, "sleep", sleeps.append)
        assert (
            main(
                [
                    "submit",
                    "--server",
                    "http://127.0.0.1:1",
                    "--experiments",
                    "E1",
                ]
            )
            == 1
        )
        assert "submit:" in capsys.readouterr().err
        assert sleeps and all(delay > 0 for delay in sleeps)
