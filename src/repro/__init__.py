"""repro — Radio broadcasting in random graphs.

A production-quality reproduction of

    R. Elsässer, L. Gąsieniec. "Radio communication in random graphs."
    SPAA 2005 / J. Comput. Syst. Sci. 72 (2006) 490-506.

The package provides the radio-network model with collision semantics, the
paper's centralized (Theorem 5) and distributed (Theorem 7) broadcasting
algorithms with baselines, the lower-bound experiment machinery (Theorems 6
and 8), the combinatorial toolkit behind Lemmas 3-4 and Proposition 2, and
an experiment harness reproducing the shape of every stated bound.

Quickstart
----------
>>> from repro import gnp_connected, RadioNetwork, EGRandomizedProtocol, simulate
>>> g = gnp_connected(500, 0.05, seed=1)
>>> net = RadioNetwork(g)
>>> trace = simulate("broadcast", net, protocol=EGRandomizedProtocol(n=500, p=0.05),
...                  seed=2)
>>> trace.completed
True
"""

from .backends import (
    KernelBackend,
    available_backend_names,
    backend_names,
    current_backend_name,
    probe_backends,
    set_backend,
    use_backend,
)
from .errors import (
    BackendError,
    BackendUnavailableError,
    BroadcastIncompleteError,
    DisconnectedGraphError,
    GraphError,
    InvalidParameterError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from .graphs import (
    Adjacency,
    LayerDecomposition,
    balanced_tree,
    complete_graph,
    cycle_graph,
    diameter,
    gnm,
    gnp,
    gnp_connected,
    grid_2d,
    hypercube,
    is_connected,
    layer_decomposition,
    path_graph,
    random_regular,
    star_graph,
    torus_2d,
)
from .obs import (
    JsonlTraceSink,
    MemoryTraceSink,
    MetricsRegistry,
    Observer,
    current_observer,
    use_observer,
)
from .radio import (
    BroadcastTrace,
    RadioNetwork,
    RadioProtocol,
    Schedule,
    execute_schedule,
    verify_schedule,
)
from .api import SimulationResult, available_dynamics, simulate
from .schema import RESULT_SCHEMA_VERSION, result_from_dict
from .serve import Client, JobSpec, JobStatus, SweepSpec, serve_forever

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "InvalidParameterError",
    "ScheduleError",
    "SimulationError",
    "BroadcastIncompleteError",
    "BackendError",
    "BackendUnavailableError",
    # kernel backends
    "KernelBackend",
    "backend_names",
    "available_backend_names",
    "current_backend_name",
    "probe_backends",
    "set_backend",
    "use_backend",
    # graphs
    "Adjacency",
    "gnp",
    "gnm",
    "gnp_connected",
    "hypercube",
    "grid_2d",
    "torus_2d",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "random_regular",
    "balanced_tree",
    "is_connected",
    "diameter",
    "LayerDecomposition",
    "layer_decomposition",
    # radio
    "RadioNetwork",
    "RadioProtocol",
    "Schedule",
    "BroadcastTrace",
    "execute_schedule",
    "verify_schedule",
    # unified simulation API
    "simulate",
    "SimulationResult",
    "available_dynamics",
    # result wire schema
    "RESULT_SCHEMA_VERSION",
    "result_from_dict",
    # simulation-as-a-service front door
    "Client",
    "JobSpec",
    "JobStatus",
    "SweepSpec",
    "serve_forever",
    # observability
    "Observer",
    "MetricsRegistry",
    "MemoryTraceSink",
    "JsonlTraceSink",
    "use_observer",
    "current_observer",
]


def _register_algorithms() -> None:
    """Late import of algorithm classes to avoid import cycles."""
    from .broadcast.centralized import (
        ElsasserGasieniecScheduler,
        GreedyCoverScheduler,
        RoundRobinScheduler,
        SequentialLayerScheduler,
    )
    from .broadcast.distributed import (
        DecayProtocol,
        EGRandomizedProtocol,
        ObliviousProtocol,
        UniformProtocol,
    )

    globals().update(
        ElsasserGasieniecScheduler=ElsasserGasieniecScheduler,
        GreedyCoverScheduler=GreedyCoverScheduler,
        RoundRobinScheduler=RoundRobinScheduler,
        SequentialLayerScheduler=SequentialLayerScheduler,
        DecayProtocol=DecayProtocol,
        EGRandomizedProtocol=EGRandomizedProtocol,
        ObliviousProtocol=ObliviousProtocol,
        UniformProtocol=UniformProtocol,
    )
    __all__.extend(
        [
            "ElsasserGasieniecScheduler",
            "GreedyCoverScheduler",
            "RoundRobinScheduler",
            "SequentialLayerScheduler",
            "DecayProtocol",
            "EGRandomizedProtocol",
            "ObliviousProtocol",
            "UniformProtocol",
        ]
    )


_register_algorithms()
del _register_algorithms
