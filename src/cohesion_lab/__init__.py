"""cohesion-lab: spectral network-cohesion toolkit.

Graph metrics, Laplacian spectra and bounds, diffusion/consensus dynamics,
seeded network generators, least-squares fits, and reproduction experiments.
"""

from .errors import (
    CohesionError,
    ConvergenceError,
    DomainError,
    EdgeListParseError,
    ResourceBudgetError,
    ValidationError,
)
from .graphs import (
    Cycle,
    DistanceSummary,
    Graph,
    connected_components,
    distance_summary,
    from_edge_list,
    is_connected,
    longest_chordless_cycle,
    smallest_cycle,
    to_edge_list,
    vertex_connectivity,
)
from .spectra import (
    BoundReport,
    LaplacianKind,
    Spectrum,
    algebraic_connectivity,
    bound_report,
    laplacian,
    spectrum,
)
from .dynamics import (
    MemoryExperimentResult,
    convergence_time,
    diffuse_spectral,
    memory_experiment,
    run_rounds,
)
from .generators import (
    chord_midway,
    clique,
    clique_chain,
    clique_chain_groups,
    cycle,
    path,
    random_poisson,
    random_skewed,
    relocation_suite,
    rewire,
    ring_lattice,
    square_lattice,
    star,
    two_cliques_bridged,
)
from .fitting import FitResult, fit_hyperbola, fit_line, fit_power_law
from .experiments import ExperimentConfig, ExperimentReport, load_targets, run_experiment

__version__ = "0.1.0"
