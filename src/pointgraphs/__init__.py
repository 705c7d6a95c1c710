"""Random graphs as point processes on nested label-space windows."""

from .coins import CoinPRF, derive_seeds, poisson_from_uniform
from .groups import (
    DyadicSwaps,
    RandomRotations,
    Transpositions,
    apply_table,
    extend_element,
    generator_coins,
    sample_generators,
    serialize_element,
)
from .harness import (
    EnumeratedDistribution,
    TestReport,
    enumerate_labeled_distribution,
    test_compatibility,
    test_invariance,
    test_projectivity,
)
from .kernels import (
    Constant,
    FixedDirectionIndicator,
    GraphexIndicator,
    GraphexProduct,
    GraphonGrid,
    HardDistance,
    HyperbolicSoft,
    RadialSum,
    SoftDistance,
    WindowScaledConstant,
)
from .pairs import GraphTable, differing_trials, make_graph, restrict_table
from .samplers import (
    FamilySpec,
    PoissonRate,
    RadialTable,
    SpecMismatchError,
    extend_sample,
    fingerprint,
    graphex_spec,
    graphon_spec,
    reseeded,
    rotinv_spec,
    sample,
    sample_graphex,
    sample_graphon,
    sample_rotinv,
    sample_table,
    spec_from_dict,
    spec_to_dict,
    window_for,
)
from .stats import (
    chi2_sf,
    chi_square_gof,
    graph_stats,
    kolmogorov_sf,
    ks_two_sample,
    table_stats,
)
from .windows import (
    Window,
    WindowKind,
    ball_radius,
    make_window,
    unit_ball_volume,
    window_to_dict,
)

__version__ = "0.1.0"
