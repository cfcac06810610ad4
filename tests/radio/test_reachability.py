"""Reachability prechecks: one pass per graph, and still a hard error.

``Adjacency`` caches its connectivity, so the precheck of
``run_dissemination``, traced or over many trials, costs one
reachability pass (a BFS or the connectivity sweep) per graph however
many runs check it — including the check ``gnp_connected`` made while
sampling the graph.
"""

import math
import sys

import numpy as np
import pytest

import repro
from repro.broadcast.distributed import UniformProtocol
from repro.errors import DisconnectedGraphError, GraphError
from repro.experiments.runner import protocol_times
from repro.graphs import Adjacency, gnp_connected
from repro.graphs import bfs as bfs_module
from repro.graphs import properties as properties_module
from repro.radio import RadioNetwork
from repro.radio.dynamics import BroadcastDynamics, run_dissemination


@pytest.fixture
def bfs_calls(monkeypatch):
    """Every reachability pass: the source of each ``bfs_distances`` call,
    through any module's binding, and ``"sweep"`` for each run of the
    connectivity sweep."""
    original = bfs_module.bfs_distances
    sweep = properties_module._reaches_all_from_zero
    calls = []

    def counting(adj, source):
        calls.append(source)
        return original(adj, source)

    def counting_sweep(adj):
        calls.append("sweep")
        return sweep(adj)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    monkeypatch.setattr(properties_module, "_reaches_all_from_zero", counting_sweep)
    return calls


def _protocol(n, p):
    return UniformProtocol(1.0 / (p * (n - 1)))


def test_simulated_job_runs_one_bfs(bfs_calls):
    n = 400
    p = 2 * math.log(n) / n
    result = repro.simulate(
        "broadcast", {"n": n, "p": p, "seed": 3}, protocol=_protocol(n, p), seed=5
    )
    assert result.completed
    assert len(bfs_calls) == 1


def test_protocol_times_share_one_bfs_per_network(bfs_calls):
    n = 300
    p = 2 * math.log(n) / n
    net = RadioNetwork(gnp_connected(n, p, seed=8))
    bfs_calls.clear()  # the sampler's own check already cached the answer
    for seed in (1, 2):
        times = protocol_times(net, _protocol(n, p), repetitions=4, seed=seed, p=p)
        assert np.all(np.isfinite(times))
    assert len(bfs_calls) <= 1


def _two_triangles():
    return Adjacency.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.mark.parametrize("source", [0, 4])
def test_serial_driver_rejects_a_disconnected_graph(source):
    net = RadioNetwork(_two_triangles())
    dynamics = BroadcastDynamics(UniformProtocol(0.5), source)
    with pytest.raises(DisconnectedGraphError, match=f"source {source}"):
        run_dissemination(net, dynamics, seed=0)


@pytest.mark.parametrize("source", [0, 4])
def test_lockstep_driver_rejects_a_disconnected_graph(source):
    net = RadioNetwork(_two_triangles())
    dynamics = BroadcastDynamics(UniformProtocol(0.5), source)
    with pytest.raises(DisconnectedGraphError, match=f"source {source}"):
        run_dissemination(net, dynamics, repetitions=3, seed=0)


def test_out_of_range_root_still_raises_graph_error():
    net = RadioNetwork(_two_triangles())
    dynamics = BroadcastDynamics(UniformProtocol(0.5), 6)
    with pytest.raises(GraphError, match="out of range"):
        run_dissemination(net, dynamics, seed=0)
