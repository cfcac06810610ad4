"""Unit tests for the adversarial fault models and the FaultPlan bundle."""

import math

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import (
    EGRandomizedProtocol,
    EpochRestartProtocol,
    UniformProtocol,
)
from repro.errors import InvalidParameterError
from repro.faults import (
    AdversarialJammer,
    ChurnSchedule,
    CrashSchedule,
    FaultPlan,
    LossyLinkModel,
    SpuriousNoiseModel,
)
from repro.graphs import gnp_connected
from repro.radio import RadioNetwork
from repro.rng import spawn_generators


def flood():
    return UniformProtocol(1.0)


class TestAdversarialJammer:
    def test_random_budget_and_exclusion(self, gnp_small, rng):
        jam = AdversarialJammer(gnp_small, 5, strategy="random", exclude=[0, 3])
        for t in range(1, 20):
            mask = jam.jam_mask(t, rng)
            assert mask.sum() == 5
            assert not mask[0] and not mask[3]

    def test_degree_strategy_targets_hub(self, star10, rng):
        jam = AdversarialJammer(star10, 1, strategy="degree")
        mask = jam.jam_mask(1, rng)
        assert list(np.flatnonzero(mask)) == [0]
        # The fixed set does not change between rounds.
        assert np.array_equal(mask, jam.jam_mask(7, rng))

    def test_duty_cycle_thins_the_fixed_set(self, star10):
        jam = AdversarialJammer(star10, 9, strategy="degree",
                                active_probability=0.5, exclude=[0])
        rng = np.random.default_rng(3)
        counts = [jam.jam_mask(t, rng).sum() for t in range(1, 200)]
        assert 0.35 * 9 < np.mean(counts) < 0.65 * 9

    def test_budget_clamps_to_eligible(self, star10):
        jam = AdversarialJammer(star10, 100, exclude=[0])
        assert jam.k == 9

    def test_is_null(self, star10):
        assert AdversarialJammer(star10, 0).is_null
        assert AdversarialJammer(star10, 3, active_probability=0.0).is_null
        assert not AdversarialJammer(star10, 3).is_null

    def test_validation(self, star10):
        with pytest.raises(InvalidParameterError):
            AdversarialJammer(star10, -1)
        with pytest.raises(InvalidParameterError):
            AdversarialJammer(star10, 1, strategy="psychic")
        with pytest.raises(InvalidParameterError):
            AdversarialJammer(star10, 1, active_probability=1.5)

    def test_always_on_hub_jammer_kills_star_broadcast(self, star10):
        # An always-jamming hub never listens, so a leaf source can never
        # deliver to it — and nothing reaches the other leaves through it.
        jam = AdversarialJammer(star10, 1, strategy="degree")
        trace = simulate(
            "broadcast", RadioNetwork(star10), protocol=flood(), source=1,
            faults=FaultPlan(jammer=jam), seed=0, max_rounds=30, raise_on_incomplete=False,
        )
        assert not trace.completed
        assert trace.num_informed == 1

    def test_random_jammers_only_delay(self, gnp_small):
        # A small roaming jammer leaves enough clean slots for the
        # broadcast to finish, just later on average.
        net = RadioNetwork(gnp_small)

        def mean_time(plan):
            times = []
            for s in range(5):
                tr = simulate(
                    "broadcast", net, protocol=UniformProtocol(0.1), faults=plan, seed=s,
                    max_rounds=4000,
                )
                times.append(tr.completion_round)
            return np.mean(times)

        clean = mean_time(FaultPlan())
        jammed = mean_time(
            FaultPlan(jammer=AdversarialJammer(gnp_small, 10, exclude=[0]))
        )
        assert jammed > clean


class TestChurnSchedule:
    def test_alive_at_semantics(self):
        cs = ChurnSchedule(4, [(1, 2, 3), (2, 5, -1)])
        assert list(cs.alive_at(1)) == [True, True, True, True]
        assert list(cs.alive_at(2)) == [True, False, True, True]
        assert list(cs.alive_at(3)) == [True, False, True, True]
        assert list(cs.alive_at(4)) == [True, True, True, True]
        assert list(cs.alive_at(6)) == [True, True, False, True]

    def test_rejoin_and_forget(self):
        cs = ChurnSchedule(4, [(1, 2, 3)])
        assert list(cs.rejoining_at(4)) == [1]
        assert list(cs.forget_at(4)) == [1]
        assert cs.forget_at(3).size == 0
        retain = ChurnSchedule(4, [(1, 2, 3)], forget_on_recovery=False)
        assert retain.forget_at(4).size == 0

    def test_eventually_alive_excludes_never_recovering(self):
        cs = ChurnSchedule(4, [(1, 2, 3), (2, 5, -1)])
        assert list(cs.eventually_alive()) == [True, True, False, True]

    def test_overlap_rejected(self):
        with pytest.raises(InvalidParameterError, match="overlap"):
            ChurnSchedule(4, [(1, 2, 5), (1, 4, 6)])
        with pytest.raises(InvalidParameterError, match="overlap"):
            ChurnSchedule(4, [(1, 2, -1), (1, 10, 12)])

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ChurnSchedule(4, [(9, 1, 2)])
        with pytest.raises(InvalidParameterError):
            ChurnSchedule(4, [(1, 0, 2)])
        with pytest.raises(InvalidParameterError):
            ChurnSchedule(4, [(1, 5, 2)])

    def test_random_respects_protect(self, rng):
        cs = ChurnSchedule.random(50, 1.0, 20, seed=rng, protect=[0, 7])
        churned = set(cs.intervals[:, 0].tolist())
        assert 0 not in churned and 7 not in churned
        assert cs.num_churning() == 48

    def test_forgetful_rejoiner_is_reinformed(self, star10):
        # Leaf 5 reboots during the flood and loses its state; the hub
        # (still transmitting) re-informs it the round it comes back up.
        churn = ChurnSchedule(10, [(5, 1, 3)])
        trace = simulate(
            "broadcast", RadioNetwork(star10), protocol=flood(), source=0,
            faults=FaultPlan(churn=churn), seed=0, max_rounds=30,
        )
        assert trace.completed
        assert trace.informed_round[5] == 4
        assert trace.completion_round == 4

    def test_retaining_rejoiner_keeps_state(self, star10):
        churn = ChurnSchedule(10, [(5, 2, 4)], forget_on_recovery=False)
        trace = simulate(
            "broadcast", RadioNetwork(star10), protocol=flood(), source=0,
            faults=FaultPlan(churn=churn), seed=0, max_rounds=30,
        )
        assert trace.completed
        # Informed in round 1, before the interval started; nothing lost.
        assert trace.informed_round[5] == 1
        assert trace.completion_round == 1


class TestSpuriousNoiseModel:
    def test_q_one_fires_every_round(self, rng):
        noise = SpuriousNoiseModel(6, [1, 4], 1.0)
        mask = noise.noise_mask(1, rng)
        assert list(np.flatnonzero(mask)) == [1, 4]

    def test_q_thins(self):
        noise = SpuriousNoiseModel(100, np.arange(100), 0.3)
        rng = np.random.default_rng(5)
        counts = [noise.noise_mask(t, rng).sum() for t in range(1, 100)]
        assert 20 < np.mean(counts) < 40

    def test_bool_mask_constructor(self):
        mask = np.zeros(5, dtype=bool)
        mask[2] = True
        noise = SpuriousNoiseModel(5, mask, 0.5)
        assert noise.num_byzantine() == 1

    def test_is_null(self):
        assert SpuriousNoiseModel(5, [], 0.5).is_null
        assert SpuriousNoiseModel(5, [1], 0.0).is_null
        assert not SpuriousNoiseModel(5, [1], 0.5).is_null

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SpuriousNoiseModel(5, [1], 1.5)
        with pytest.raises(InvalidParameterError):
            SpuriousNoiseModel(5, [9], 0.5)
        with pytest.raises(InvalidParameterError):
            SpuriousNoiseModel(5, np.zeros(4, dtype=bool), 0.5)

    def test_random_respects_protect(self, rng):
        noise = SpuriousNoiseModel.random(50, 1.0, 0.5, seed=rng, protect=[0])
        assert not noise.byzantine[0]
        assert noise.num_byzantine() == 49

    def test_byzantine_source_corrupts_its_own_payload(self, star10):
        # The hub is Byzantine with q = 1: every transmission it makes is
        # garbage, so the message never leaves it.
        noise = SpuriousNoiseModel(10, [0], 1.0)
        trace = simulate(
            "broadcast", RadioNetwork(star10), protocol=flood(), source=0,
            faults=FaultPlan(noise=noise), seed=0, max_rounds=30, raise_on_incomplete=False,
        )
        assert not trace.completed
        assert trace.num_informed == 1


class TestFaultPlan:
    def test_null_plan(self):
        assert FaultPlan().is_null

    def test_each_component_activates(self, star10):
        crash = np.full(10, -1, dtype=np.int64)
        crash[3] = 2
        assert not FaultPlan(crashes=CrashSchedule(crash)).is_null
        assert not FaultPlan(churn=ChurnSchedule(10, [(1, 2, 3)])).is_null
        assert not FaultPlan(jammer=AdversarialJammer(star10, 1)).is_null
        assert not FaultPlan(noise=SpuriousNoiseModel(10, [1], 0.5)).is_null
        # A perfect link model still exercises the fault path (that is
        # exactly what the trace-parity test relies on).
        assert not FaultPlan(links=LossyLinkModel(star10, 1.0)).is_null

    def test_null_components_stay_null(self, star10):
        plan = FaultPlan(
            crashes=CrashSchedule.none(10),
            churn=ChurnSchedule.none(10),
            jammer=AdversarialJammer(star10, 0),
            noise=SpuriousNoiseModel(10, [], 0.5),
        )
        assert plan.is_null

    def test_validate_size_mismatch(self, star10):
        plan = FaultPlan(jammer=AdversarialJammer(star10, 1))
        with pytest.raises(InvalidParameterError, match="covers"):
            plan.validate(12)

    def test_target_intersects_crashes_and_churn(self):
        crash = np.full(4, -1, dtype=np.int64)
        crash[1] = 3
        plan = FaultPlan(
            crashes=CrashSchedule(crash),
            churn=ChurnSchedule(4, [(2, 5, -1)]),
        )
        assert list(plan.target(4)) == [True, False, False, True]

    def test_garbage_mask_draws_nothing_when_inactive(self, star10):
        plan = FaultPlan(crashes=CrashSchedule.none(10))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert plan.garbage_mask(1, rng) is None
        assert rng.bit_generator.state == before

    def test_garbage_mask_unions_jammer_and_noise(self, star10):
        plan = FaultPlan(
            # The hub is excluded from jamming but Byzantine, so the union
            # must hold the two leaf jammers plus the hub.
            jammer=AdversarialJammer(star10, 2, strategy="degree", exclude=[0]),
            noise=SpuriousNoiseModel(10, [0], 1.0),
        )
        mask = plan.garbage_mask(1, np.random.default_rng(0))
        assert mask[0]
        assert mask.sum() == 3

    def test_plan_and_components_are_exclusive(self, star10):
        # Faults arrive as one plan; a loose fault-model keyword beside it
        # is rejected, not merged.
        with pytest.raises(InvalidParameterError, match="'crashes'"):
            simulate(
                "broadcast", RadioNetwork(star10), protocol=flood(), source=0,
                faults=FaultPlan(), crashes=CrashSchedule.none(10),
            )


class TestChurnResilienceDemo:
    """Epoch restart completes where the strict Theorem 7 rule stalls."""

    @pytest.fixture(scope="class")
    def churn_setup(self):
        n = 256
        p = 4.0 * math.log(n) / n
        return RadioNetwork(gnp_connected(n, p, seed=42)), n, p

    def _traces(self, churn_setup, proto_factory, trials=6):
        net, n, p = churn_setup
        traces = []
        for rng in spawn_generators(3, trials):
            plan = FaultPlan(
                churn=ChurnSchedule.random(
                    n, 0.6, 120, mean_downtime=40.0, seed=rng, protect=[0]
                )
            )
            traces.append(simulate(
                "broadcast", net, protocol=proto_factory(), faults=plan, seed=rng,
                p=p, max_rounds=600, check_connected=False, raise_on_incomplete=False,
            ))
        return traces

    def test_stock_strict_protocol_stalls_under_churn(self, churn_setup):
        _, n, p = churn_setup
        traces = self._traces(
            churn_setup, lambda: EGRandomizedProtocol(n, p, strict_participation=True)
        )
        stalled = [t for t in traces if not t.completed]
        assert stalled, "strict EG completed every trial under forgetful churn"
        # A stall is a measured outcome with partial progress.
        for trace in stalled:
            assert 0.0 < trace.num_informed / trace.n < 1.0

    def test_epoch_restart_completes_under_same_churn(self, churn_setup):
        _, n, p = churn_setup
        traces = self._traces(
            churn_setup,
            lambda: EpochRestartProtocol.for_eg(n, p, strict_participation=True),
        )
        assert all(t.completed for t in traces)
