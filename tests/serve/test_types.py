"""Unit tests for the job-server wire types and their canonical forms."""

import pytest

from repro.errors import InvalidParameterError
from repro.serve.types import (
    JOB_SCHEMA_VERSION,
    JobSpec,
    JobStatus,
    SweepSpec,
    spec_from_dict,
)

GRAPH = {"n": 40, "p": 0.3, "seed": 1}


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


class TestJobSpec:
    def test_round_trip(self):
        spec = make_spec()
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.cache_key() == spec.cache_key()

    def test_cache_key_is_content_addressed(self):
        assert make_spec().cache_key() == make_spec().cache_key()
        assert make_spec(seed=8).cache_key() != make_spec().cache_key()
        assert (
            make_spec(params={"protocol": {"kind": "uniform", "q": 0.1}}).cache_key()
            != make_spec().cache_key()
        )

    def test_backend_excluded_from_key(self):
        # Backends are bit-identical, so they must not split the cache.
        assert (
            make_spec(backend="numpy").cache_key() == make_spec().cache_key()
        )
        assert "backend" not in make_spec(backend="numpy").canonical()

    def test_unknown_fields_rejected(self):
        payload = make_spec().to_dict()
        payload["bogus"] = 1
        with pytest.raises(InvalidParameterError, match="unknown fields"):
            JobSpec.from_dict(payload)

    def test_wrong_schema_version_rejected(self):
        payload = make_spec().to_dict()
        payload["schema_version"] = JOB_SCHEMA_VERSION + 1
        with pytest.raises(InvalidParameterError, match="schema_version"):
            JobSpec.from_dict(payload)

    def test_non_jsonable_params_rejected(self):
        with pytest.raises(InvalidParameterError, match="JSON-typed"):
            make_spec(params={"x": object()})
        with pytest.raises(InvalidParameterError, match="finite"):
            make_spec(params={"x": float("inf")})

    def test_protocol_must_be_mapping(self):
        with pytest.raises(InvalidParameterError, match="protocol"):
            make_spec(params={"protocol": "decay"})

    def test_missing_process_rejected(self):
        with pytest.raises(InvalidParameterError, match="process"):
            JobSpec.from_dict({"graph": dict(GRAPH)})

    def test_cache_key_is_pinned(self):
        # The integer-field checks must not move a valid spec's address.
        assert make_spec().cache_key() == (
            "0fdddaeee6a4d35c3544d5233e704452e34d62446fdb7803fe7c3b7027ec2443"
        )

    @pytest.mark.parametrize(
        "field, bad",
        [("seed", True), ("max_rounds", True), ("max_rounds", -3), ("seed", -1), ("seed", 7.0)],
    )
    def test_invalid_integer_fields_rejected_at_parse(self, field, bad):
        # A bool would run the same job as 1 under another cache key; a
        # negative seed or budget would fail at execution or cache a
        # 0-round document.
        payload = make_spec().to_dict()
        payload[field] = bad
        with pytest.raises(InvalidParameterError, match=field):
            JobSpec.from_dict(payload)

    def test_deadline_round_trips(self):
        spec = make_spec(deadline_s=2.5)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec and again.deadline_s == 2.5

    def test_deadline_excluded_from_key(self):
        # A deadline budgets the execution; it must not split the cache —
        # a completed job is identical whatever its budget was.
        assert make_spec(deadline_s=5.0).cache_key() == make_spec().cache_key()
        assert "deadline_s" not in make_spec(deadline_s=5.0).canonical()

    @pytest.mark.parametrize(
        "bad", [0, -1.0, float("inf"), float("nan"), True, "10"]
    )
    def test_invalid_deadlines_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="deadline_s"):
            make_spec(deadline_s=bad)

    def test_deterministic_needs_both_seeds_as_ints(self):
        assert make_spec().deterministic
        assert make_spec(graph={**GRAPH, "seed": 0}, seed=0).deterministic
        assert not make_spec(seed=None).deterministic
        assert not make_spec(graph={"n": 40, "p": 0.3}).deterministic
        for seed in (None, True, 1.0, "1"):
            assert not make_spec(graph={**GRAPH, "seed": seed}).deterministic

    def test_sweeps_are_deterministic(self):
        assert SweepSpec(experiments=("E1",)).deterministic


class TestSweepSpec:
    def test_round_trip(self):
        spec = SweepSpec(experiments=("E1", "E2"), quick=True, seed=3, jobs=2)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_jobs_excluded_from_key(self):
        # jobs=1 and jobs=N are byte-identical, so parallelism must not
        # split the cache.
        one = SweepSpec(experiments=("E1",), jobs=1)
        four = SweepSpec(experiments=("E1",), jobs=4)
        assert one.cache_key() == four.cache_key()
        assert (
            one.cache_key() != SweepSpec(experiments=("E1",), seed=9).cache_key()
        )

    def test_cache_key_is_pinned(self):
        spec = SweepSpec(experiments=("E1", "E2"), quick=True, seed=3, jobs=2)
        assert spec.cache_key() == (
            "97e9faed3fb48a746586e350098315bd53880b01e41666937ba8cd3eebc4a38d"
        )

    @pytest.mark.parametrize("field, bad", [("seed", -5), ("seed", True), ("jobs", True)])
    def test_invalid_integer_fields_rejected_at_parse(self, field, bad):
        with pytest.raises(InvalidParameterError, match=field):
            SweepSpec.from_dict({"experiments": ["E1"], field: bad})

    def test_needs_experiments(self):
        with pytest.raises(InvalidParameterError, match="experiment"):
            SweepSpec(experiments=())


class TestSpecFromDict:
    def test_discriminates_on_experiments_field(self):
        assert isinstance(
            spec_from_dict({"experiments": ["E1"]}), SweepSpec
        )
        assert isinstance(
            spec_from_dict({"process": "broadcast", "graph": dict(GRAPH)}),
            JobSpec,
        )


class TestJobStatus:
    def test_round_trip(self):
        status = JobStatus(
            id="job-000001",
            kind="simulate",
            state="done",
            spec=make_spec().to_dict(),
            cache="hit",
            elapsed_s=0.5,
            events=12,
            result={"kind": "broadcast-trace"},
        )
        again = JobStatus.from_dict(status.to_dict())
        assert again == status
        assert again.done and again.ok

    def test_failed_is_done_but_not_ok(self):
        status = JobStatus(
            id="j", kind="simulate", state="failed", spec={}, error="boom"
        )
        assert status.done and not status.ok

    @pytest.mark.parametrize("state", ["cancelled", "timeout"])
    def test_cancelled_and_timeout_are_terminal(self, state):
        status = JobStatus(
            id="j", kind="simulate", state=state, spec={}, error="stopped"
        )
        assert status.done and not status.ok

    def test_running_is_not_done(self):
        status = JobStatus(id="j", kind="simulate", state="running", spec={})
        assert not status.done
