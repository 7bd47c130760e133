"""Dissipative quantum walks on directed graphs.

Builds the Lindblad walk whose jumps follow the Google-matrix rates of
a directed graph, tilts its generator to count jumps per node, and
extracts large-deviation thermodynamics: dynamical free energy,
per-node activity (a dynamical quantum pagerank), and the index of
dispersion locating the crossover between the classically active and
coherently inactive trajectory regimes.  A quantum-jump Monte Carlo
unraveling and a tilted-integration estimator provide independent
stochastic and dynamical cross-checks of the spectral route.
"""

from . import data
from .errors import (
    ConvergenceError,
    DegeneracyError,
    DivergenceError,
    EdgeListError,
    QswError,
    SizeBudgetError,
    ZeroActivityError,
)
from .graph import (
    DirectedGraph,
    google_matrix,
    pagerank,
    parse_edge_list,
    symmetrized_adjacency,
)
from .lindblad import (
    QswModel,
    build_qsw,
    evolve,
    liouvillian,
    steady_state,
)
from .linalg import (
    SpectralResult,
    eig_general,
    integrate_linear,
    null_vector,
    rk4_step_matrix,
    unvec,
    vec,
)
from .tilt import (
    ThermoPoint,
    activity,
    activity_from_steady_state,
    active_limit_normalized_activity,
    dispersion,
    free_energy,
    normalized_activity,
    scan,
    stationary_references,
    tilted_superoperator,
    uniform_tilt,
)
from .trajectory import (
    EnsembleStats,
    TiltedIntegration,
    TrajectoryRecord,
    ensemble_stats,
    free_energy_by_integration,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "data",
    "ConvergenceError",
    "DegeneracyError",
    "DirectedGraph",
    "DivergenceError",
    "EdgeListError",
    "EnsembleStats",
    "QswError",
    "QswModel",
    "SizeBudgetError",
    "SpectralResult",
    "ThermoPoint",
    "TiltedIntegration",
    "TrajectoryRecord",
    "ZeroActivityError",
    "activity",
    "activity_from_steady_state",
    "active_limit_normalized_activity",
    "build_qsw",
    "dispersion",
    "eig_general",
    "ensemble_stats",
    "evolve",
    "free_energy",
    "free_energy_by_integration",
    "google_matrix",
    "integrate_linear",
    "liouvillian",
    "normalized_activity",
    "null_vector",
    "pagerank",
    "parse_edge_list",
    "rk4_step_matrix",
    "scan",
    "simulate",
    "stationary_references",
    "steady_state",
    "symmetrized_adjacency",
    "tilted_superoperator",
    "unvec",
    "uniform_tilt",
    "vec",
]
