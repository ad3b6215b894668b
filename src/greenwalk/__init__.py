"""Green's functions, hitting times, exit frequencies, and exact mixing measures for random walks on weighted digraphs."""

from .duality import DualityReport, duality_checks, forget_distribution, pi_core, reverse_chain
from .errors import (
    GreenWalkError,
    IntegrityError,
    NumericalError,
    ParseError,
    RunawayError,
    ValidationError,
)
from .graph import (
    Distribution,
    TransitionMatrix,
    WeightedDigraph,
    load_graph,
    parse_graph,
    stationary_distribution,
    strongly_connected,
    transition_matrix,
)
from .greens import (
    ExitFrequencyMatrix,
    GreensMatrix,
    MixingReport,
    Rules,
    exit_frequency_matrix,
    greens_general,
    hitting_from_greens,
    mixing_report,
    verify_green_constraints,
)
from .hitting import (
    HittingTimeMatrix,
    fundamental_matrix,
    hit_time,
    hitting_column,
    hitting_times,
    reversed_hitting_times,
)
from .montecarlo import SimStats, empirical_hitting, empirical_random_target
from .pipeline import ChainAnalysis, analyze, verify_checks
from .spectral import SpectralDecomposition, decompose, normalized_laplacian, spectral_greens

__version__ = "0.1.0"
