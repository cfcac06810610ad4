"""Public API surface tests: imports, exports, version, docstrings."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_key_classes_exported(self):
        for name in (
            "Adjacency",
            "RadioNetwork",
            "Schedule",
            "BroadcastTrace",
            "ElsasserGasieniecScheduler",
            "EGRandomizedProtocol",
            "DecayProtocol",
            "simulate",
            "gnp",
            "gnm",
        ):
            assert name in repro.__all__

    def test_quickstart_docstring_works(self):
        # The example in the package docstring must actually run.
        from repro import EGRandomizedProtocol, RadioNetwork, gnp_connected, simulate

        g = gnp_connected(500, 0.05, seed=1)
        net = RadioNetwork(g)
        trace = simulate("broadcast", net, protocol=EGRandomizedProtocol(n=500, p=0.05),
                         seed=2)
        assert trace.completed


SUBMODULES = [
    "repro.graphs",
    "repro.graphs.adjacency",
    "repro.graphs.random_graphs",
    "repro.graphs.families",
    "repro.graphs.properties",
    "repro.graphs.bfs",
    "repro.graphs.layers",
    "repro.graphs.covering",
    "repro.graphs.geometric",
    "repro.radio",
    "repro.radio.analysis",
    "repro.gossip",
    "repro.faults",
    "repro.theory.stats",
    "repro.radio.model",
    "repro.radio.trace",
    "repro.radio.schedule",
    "repro.radio.protocol",
    "repro.broadcast",
    "repro.broadcast.centralized",
    "repro.broadcast.distributed",
    "repro.singleport",
    "repro.lowerbounds",
    "repro.theory",
    "repro.experiments",
    "repro.cli",
    "repro.api",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.spans",
    "repro.obs.sinks",
    "repro.obs.context",
]


@pytest.mark.parametrize("module_name", SUBMODULES)
class TestSubmodules:
    def test_imports_cleanly(self, module_name):
        mod = importlib.import_module(module_name)
        assert mod.__doc__, f"{module_name} has no module docstring"

    def test_all_exports_resolve(self, module_name):
        mod = importlib.import_module(module_name)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module_name}.__all__ lists missing {name}"


class TestSimulate:
    """The one front door: dispatch, graph arguments and keyword checks."""

    @pytest.fixture(scope="class")
    def net(self):
        from repro import RadioNetwork, gnp_connected

        return RadioNetwork(gnp_connected(40, 0.25, seed=5))

    @pytest.fixture(scope="class")
    def protocol(self):
        from repro import UniformProtocol

        return UniformProtocol(0.25)

    def test_available_dynamics_names(self):
        names = set(repro.available_dynamics())
        assert names == {
            "broadcast",
            "gossip",
            "multimessage",
            "push",
            "push-pull",
            "agents",
        }

    def test_every_process_returns_a_simulation_result(self, net, protocol):
        keywords = {
            "broadcast": {"protocol": protocol},
            "gossip": {"protocol": protocol},
            "multimessage": {"protocol": protocol, "sources": [0, 1, 2]},
            "push": {},
            "push-pull": {},
            "agents": {"num_agents": 8},
        }
        assert set(keywords) == set(repro.available_dynamics())
        for name, extra in keywords.items():
            trace = repro.simulate(name, net, seed=11, **extra)
            assert isinstance(trace, repro.SimulationResult), name
            assert trace.completed, name

    def test_unknown_keyword_names_the_accepted_ones(self, net, protocol):
        with pytest.raises(repro.InvalidParameterError) as info:
            repro.simulate("gossip", net, protocol=protocol, source=3)
        message = str(info.value)
        assert "'source'" in message
        assert "accepted keywords: protocol, p" in message

    def test_missing_keyword_is_invalid_parameter(self, net):
        from repro.radio.dynamics import BroadcastDynamics

        for process in ("broadcast", BroadcastDynamics):
            with pytest.raises(repro.InvalidParameterError, match="protocol"):
                repro.simulate(process, net)

    def test_negative_budget_rejected(self, net, protocol):
        with pytest.raises(repro.InvalidParameterError, match="max_rounds"):
            repro.simulate(
                "broadcast", net, protocol=protocol, max_rounds=-3,
                raise_on_incomplete=False,
            )

    def test_backend_kwarg_is_result_invariant(self, net, protocol):
        default = repro.simulate("broadcast", net, protocol=protocol, seed=11)
        from repro.backends import available_backend_names

        for name in available_backend_names():
            picked = repro.simulate(
                "broadcast", net, protocol=protocol, seed=11, backend=name
            )
            assert picked.records == default.records

    def test_backend_kwarg_scope_is_the_call(self, net, protocol):
        from repro.backends import base as backends_base

        before = backends_base._STATE.active
        repro.simulate("broadcast", net, protocol=protocol, seed=11, backend="numpy")
        assert backends_base._STATE.active is before  # not left installed

    def test_backend_kwarg_unknown_name(self, net, protocol):
        with pytest.raises(repro.InvalidParameterError, match="unknown kernel backend"):
            repro.simulate(
                "broadcast", net, protocol=protocol, seed=11, backend="nope"
            )

    def test_graph_params_mapping(self, protocol):
        # {"n", "p", "seed"} samples the same connected G(n, p) the
        # explicit construction does.
        from repro import RadioNetwork, gnp_connected

        explicit = repro.simulate(
            "broadcast",
            RadioNetwork(gnp_connected(40, 0.25, seed=5)),
            protocol=protocol,
            seed=11,
        )
        implicit = repro.simulate(
            "broadcast",
            {"n": 40, "p": 0.25, "seed": 5},
            protocol=protocol,
            seed=11,
        )
        assert implicit.records == explicit.records

    def test_unknown_process_rejected(self, net):
        from repro import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="registered"):
            repro.simulate("flooding", net)

    def test_bad_graph_params_rejected(self, protocol):
        from repro import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="missing"):
            repro.simulate("broadcast", {"n": 10}, protocol=protocol)
        with pytest.raises(InvalidParameterError, match="unknown graph"):
            repro.simulate(
                "broadcast", {"n": 10, "p": 0.5, "m": 3}, protocol=protocol
            )

    def test_instance_process_rejects_extra_kwargs(self, net, protocol):
        from repro import InvalidParameterError
        from repro.radio.dynamics import BroadcastDynamics

        dynamics = BroadcastDynamics.build(net, protocol=protocol)
        with pytest.raises(InvalidParameterError, match="already-constructed"):
            repro.simulate(dynamics, net, protocol=protocol)

    def test_explicit_observer_sees_the_run(self, net, protocol):
        from repro import MemoryTraceSink, Observer

        obs = Observer(sink=MemoryTraceSink())
        trace = repro.simulate(
            "broadcast", net, protocol=protocol, seed=11, obs=obs
        )
        kinds = [event["kind"] for event in obs.sink.events]
        assert kinds[0] == "run-start" and kinds[-1] == "run-end"
        assert kinds.count("round") == trace.num_rounds


class TestDocstringCoverage:
    def test_public_callables_documented(self):
        import inspect

        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") or not callable(member):
                        continue
                    # Accept docs inherited from the interface (ABC) the
                    # method implements.
                    doc = member.__doc__ or next(
                        (
                            getattr(base, attr).__doc__
                            for base in obj.__mro__[1:]
                            if hasattr(base, attr)
                        ),
                        None,
                    )
                    if not (doc or "").strip():
                        undocumented.append(f"{name}.{attr}")
        assert not undocumented, f"undocumented public items: {undocumented}"
