"""Unit tests for the Theorem 8 oblivious-family sweep."""

import math

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import ObliviousProtocol
from repro.errors import InvalidParameterError
from repro.graphs import gnp_connected
from repro.lowerbounds.distributed import best_oblivious_time, oblivious_candidates
from repro.radio import RadioNetwork
from repro.rng import spawn_generators


def serial_means(network, candidates, trials, seed, max_rounds=None):
    """Per-candidate means from one serial ``simulate`` per trial."""
    means = {}
    for proto in candidates:
        times = []
        for rng in spawn_generators(seed, trials):
            trace = simulate(
                "broadcast", network, protocol=proto, seed=rng,
                max_rounds=max_rounds, raise_on_incomplete=False,
            )
            times.append(trace.completion_round if trace.completed else math.inf)
        means[proto.name] = float(np.mean(times))
    return means


class TestCandidates:
    def test_family_diversity(self):
        cands = oblivious_candidates(512, 0.05)
        names = [c.name for c in cands]
        assert len(names) == len(set(names))  # unique labels
        assert len(cands) >= 15
        assert any("const" in n for n in names)
        assert any("switch" in n for n in names)
        assert any("decay" in n for n in names)
        assert any("harmonic" in n for n in names)

    def test_probabilities_valid(self):
        for proto in oblivious_candidates(256, 0.1):
            for t in (1, 2, 5, 20, 100):
                q = proto.probability_at(t)
                assert 0.0 <= q <= 1.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            oblivious_candidates(1, 0.1)
        with pytest.raises(InvalidParameterError):
            oblivious_candidates(100, 0.0)


class TestBestObliviousTime:
    @pytest.fixture(scope="class")
    def net(self):
        n = 256
        p = 4 * math.log(n) / n
        return RadioNetwork(gnp_connected(n, p, seed=8)), n, p

    def test_returns_best_of_family(self, net):
        network, n, p = net
        cands = oblivious_candidates(n, p)
        best, name, means = best_oblivious_time(
            network, cands, trials=2, seed=0
        )
        assert name in means
        assert best == min(means.values())
        assert len(means) == len(cands)

    def test_best_at_least_diameterish(self, net):
        network, n, p = net
        best, _, _ = best_oblivious_time(
            network, oblivious_candidates(n, p), trials=2, seed=1
        )
        # No oblivious protocol can beat ~ln n / ln d (the diameter).
        assert best >= math.log(n) / math.log(p * n)

    def test_failed_candidates_score_inf(self, net):
        network, n, p = net
        hopeless = [ObliviousProtocol([1e-9], name="silent")]
        best, name, means = best_oblivious_time(
            network, hopeless, trials=1, seed=2, max_rounds=20
        )
        assert math.isinf(means["silent"])
        assert math.isinf(best)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_means_equal_serial_simulate(self, net, seed):
        network, n, p = net
        cands = oblivious_candidates(n, p)
        _, _, means = best_oblivious_time(network, cands, trials=3, seed=seed)
        assert means == serial_means(network, cands, 3, seed)

    def test_generator_seed_spawns_in_candidate_order(self, net):
        # A Generator seed is drawn once per candidate, in order, on both paths.
        network, n, p = net
        cands = oblivious_candidates(n, p)[:6]
        _, _, means = best_oblivious_time(
            network, cands, trials=3, seed=np.random.default_rng(9), max_rounds=40
        )
        assert means == serial_means(
            network, cands, 3, np.random.default_rng(9), max_rounds=40
        )

    def test_trials_validation(self, net):
        network, n, p = net
        with pytest.raises(InvalidParameterError):
            best_oblivious_time(network, [], trials=0)
