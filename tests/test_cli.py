"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_flags(self):
        args = build_parser().parse_args(["run", "E4", "--full", "--seed", "9"])
        assert args.experiment == "E4"
        assert args.full is True
        assert args.seed == 9

    def test_defaults(self):
        args = build_parser().parse_args(["run", "E4"])
        assert args.full is False
        assert args.seed == 0
        assert args.markdown is False
        assert args.jobs is None  # legacy sequential path by default

    def test_jobs_flag(self):
        args = build_parser().parse_args(["run", "E4", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["run-all", "--jobs", "2", "--only", "E4,E5"])
        assert args.jobs == 2
        assert args.only == "E4,E5"

    def test_run_all_only_default(self):
        args = build_parser().parse_args(["run-all"])
        assert args.only is None
        assert args.jobs is None
        assert args.fabric is None
        assert args.workers == 0

    def test_fabric_flags(self):
        args = build_parser().parse_args(
            ["run-all", "--fabric", "127.0.0.1:0", "--workers", "3"]
        )
        assert args.fabric == "127.0.0.1:0"
        assert args.workers == 3

    def test_worker_flags(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "10.0.0.2:7777", "--heartbeat", "0.5"]
        )
        assert args.connect == "10.0.0.2:7777"
        assert args.heartbeat == 0.5
        assert args.chaos_net is None
        assert args.name is None

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E12" in out

    def test_dynamics(self, capsys):
        assert main(["dynamics"]) == 0
        out = capsys.readouterr().out
        for name in ("broadcast", "gossip", "multimessage", "push", "push-pull", "agents"):
            assert name in out
        assert "fault-aware" in out

    def test_describe(self, capsys):
        assert main(["describe", "E4"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 7" in out
        assert "benchmarks/" in out

    def test_describe_unknown(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            main(["describe", "E99"])

    def test_run_quick(self, capsys):
        assert main(["run", "E7", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[E7]" in out
        assert "quick mode" in out

    def test_run_markdown(self, capsys):
        assert main(["run", "E7", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "### E7" in out

    def test_run_all_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        # run-all in quick mode is heavy; keep it to this single test.
        assert main(["run-all", "--markdown", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        for i in range(1, 13):
            assert f"### E{i}" in text


class TestJobs:
    def test_jobs_rejects_zero(self, capsys):
        assert main(["run", "E7", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert main(["run-all", "--only", "E7", "--jobs", "0"]) == 2

    def test_fabric_flag_validation(self, capsys):
        assert main(["run-all", "--only", "E7", "--fabric", ":0", "--jobs", "2"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert main(["run-all", "--only", "E7", "--workers", "2"]) == 2
        assert "--workers requires --fabric" in capsys.readouterr().err
        assert main(["run-all", "--only", "E7", "--fabric", ":0", "--workers", "-1"]) == 2
        assert "--workers must be >= 0" in capsys.readouterr().err

    def test_run_all_fabric_matches_jobs(self, tmp_path, capsys):
        """A loopback fabric run produces the byte-identical report."""
        out_jobs = tmp_path / "jobs.md"
        out_fabric = tmp_path / "fabric.md"
        assert main(["run-all", "--only", "E7", "--jobs", "1", "--seed", "5",
                     "--out", str(out_jobs)]) == 0
        capsys.readouterr()
        assert main(["run-all", "--only", "E7", "--fabric", "127.0.0.1:0",
                     "--workers", "1", "--seed", "5", "--out", str(out_fabric)]) == 0
        out = capsys.readouterr().out
        assert out_jobs.read_text() == out_fabric.read_text()
        assert "supervised sweep summary" in out
        assert "--fabric 127.0.0.1:0 --workers 1" in out

    def test_run_with_jobs(self, capsys):
        assert main(["run", "E7", "--jobs", "1"]) == 0
        assert "[E7]" in capsys.readouterr().out

    def test_run_all_only_with_jobs_identity(self, tmp_path, capsys):
        out1 = tmp_path / "j1.md"
        out2 = tmp_path / "j2.md"
        assert main(["run-all", "--only", "E7", "--jobs", "1", "--seed", "5", "--out", str(out1)]) == 0
        assert main(["run-all", "--only", "E7", "--jobs", "2", "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert "[E7]" in out1.read_text()

    def test_run_all_with_jobs_prints_outcome_summary(self, capsys):
        assert main(["run-all", "--only", "E7", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "supervised sweep summary" in out
        # The summary row names the experiment and its terminal status.
        summary = out[out.index("supervised sweep summary"):]
        assert "E7" in summary and "ok" in summary

    def test_run_all_with_jobs_resumes_past_completed(self, tmp_path, capsys):
        ck = str(tmp_path / "ck")
        args = ["run-all", "--only", "E7", "--jobs", "1", "--seed", "5",
                "--checkpoint", ck]
        assert main(args) == 0
        manifests = list(tmp_path.glob("ck/catalog-tasks-*.json"))
        assert len(manifests) == 1
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        # The resumed run served E7 from the sweep checkpoint but still
        # prints its table and the outcome summary.
        assert "[E7]" in out
        assert "supervised sweep summary" in out


class TestRunOut:
    def test_run_saves_json(self, tmp_path, capsys):
        out_file = tmp_path / "e7.json"
        assert main(["run", "E7", "--out", str(out_file)]) == 0
        assert out_file.exists()
        from repro.io import load_result

        result = load_result(out_file)
        assert result.experiment_id == "E7"
        assert "saved to" in capsys.readouterr().out


class TestSharedParents:
    """The shared flags must parse identically on every subcommand."""

    @pytest.mark.parametrize("command", [["run", "E4"], ["run-all"], ["profile", "E4"]])
    def test_seed_and_sweep_flags(self, command):
        args = build_parser().parse_args(
            command + ["--seed", "7", "--jobs", "3", "--checkpoint", "ckpt"]
        )
        assert args.seed == 7
        assert args.jobs == 3
        assert args.checkpoint == "ckpt"
        assert args.resume is False

    @pytest.mark.parametrize("command", [["run", "E4"], ["run-all"], ["profile", "E4"]])
    def test_supervision_flags(self, command):
        args = build_parser().parse_args(command)
        assert args.task_timeout is None
        assert args.max_task_retries == 2
        args = build_parser().parse_args(
            command + ["--task-timeout", "30.5", "--max-task-retries", "0"]
        )
        assert args.task_timeout == 30.5
        assert args.max_task_retries == 0

    @pytest.mark.parametrize("command", [["run", "E4"], ["run-all"], ["profile", "E4"]])
    def test_trace_out_flag(self, command):
        assert build_parser().parse_args(command).trace_out is None
        args = build_parser().parse_args(command + ["--trace-out", "t.jsonl"])
        assert args.trace_out == "t.jsonl"

    @pytest.mark.parametrize("command", [["run", "E4"], ["run-all"], ["profile", "E4"]])
    def test_backend_flag(self, command):
        assert build_parser().parse_args(command).backend is None
        args = build_parser().parse_args(command + ["--backend", "numba"])
        assert args.backend == "numba"

    def test_dynamics_only_flag(self):
        args = build_parser().parse_args(["dynamics", "--only", "push,gossip"])
        assert args.only == "push,gossip"


class TestDynamicsOnly:
    def test_filters_to_subset(self, capsys):
        assert main(["dynamics", "--only", "push,gossip"]) == 0
        out = capsys.readouterr().out
        assert "push" in out and "gossip" in out
        assert "broadcast" not in out

    def test_unknown_name_fails(self, capsys):
        assert main(["dynamics", "--only", "flooding"]) == 2
        assert "unknown dynamics: flooding" in capsys.readouterr().err


class TestProfile:
    def test_profile_prints_span_breakdown(self, capsys):
        assert main(["profile", "E7", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "[E7]" in out and "profile" in out
        assert "-- spans" in out
        assert "span.experiment.E7" in out

    def test_profile_rejects_bad_jobs(self, capsys):
        assert main(["profile", "E7", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


class TestBackends:
    @pytest.fixture(autouse=True)
    def _clean_selection(self, monkeypatch):
        """``--backend`` installs process/env state; undo it per test."""
        from repro.backends import BACKEND_ENV_VAR, set_backend

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        yield
        set_backend(None)

    def test_backends_lists_registry_with_probes(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("numpy", "numba"):
            assert name in out
        assert "available" in out
        assert "active: numpy" in out
        assert "scatter-cost" in out

    def test_run_with_numpy_backend(self, capsys):
        assert main(["run", "E4", "--backend", "numpy", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "numpy backend" in out

    def test_run_unknown_backend_exits_2(self, capsys):
        assert main(["run", "E4", "--backend", "nope"]) == 2
        assert "unknown kernel backend" in capsys.readouterr().err

    def test_run_unavailable_backend_exits_2(self, capsys):
        from repro.backends import probe_backends

        unavailable = [p.name for p in probe_backends() if not p.available]
        if not unavailable:
            pytest.skip("every registered backend is available here")
        assert main(["run", "E4", "--backend", unavailable[0]]) == 2
        assert "not available" in capsys.readouterr().err

    def test_backend_flag_exports_env_for_workers(self, capsys, monkeypatch):
        import os

        from repro.backends import BACKEND_ENV_VAR

        assert main(["run", "E4", "--backend", "numpy", "--seed", "1"]) == 0
        assert os.environ.get(BACKEND_ENV_VAR) == "numpy"

    def test_profile_reports_backend_and_kernel_metrics(self, capsys):
        # E4 runs the batched broadcast engine, so the profile must show
        # the kernel dispatch counters the backend emits.
        assert main(["profile", "E4", "--seed", "3", "--backend", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "numpy backend" in out
        assert "kernel.batch_calls{numpy" in out


class TestTraceOut:
    def test_run_streams_schema_valid_events(self, tmp_path, capsys):
        from repro.obs.sinks import read_jsonl_events, validate_event

        path = tmp_path / "e4.jsonl"
        assert main(["run", "E4", "--trace-out", str(path)]) == 0
        err = capsys.readouterr().err
        assert f"trace events written to {path}" in err
        events = list(read_jsonl_events(str(path)))
        assert events
        for event in events:
            validate_event(event)
        assert {event["kind"] for event in events} <= {
            "batch-start",
            "batch-round",
            "batch-end",
            "run-start",
            "round",
            "run-end",
        }
