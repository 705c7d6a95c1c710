"""Random graphs as point processes on nested label-space windows."""

from .coins import (
    CoinPRF,
    coin,
    coin_position,
    coin_u64,
    derive_seed,
    derive_seeds,
    poisson_from_uniform,
)
from .groups import (
    DyadicSwaps,
    DyadicSwapWord,
    Permutation,
    RandomRotations,
    Rotation,
    Transpositions,
    apply_graph,
    apply_label,
    apply_pairs,
    extend_element,
    haar_rotation,
    sample_generator,
    serialize_element,
    transposition,
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
from .pairs import (
    BallSector,
    Graph,
    IntRange,
    PairConfiguration,
    RealRange,
    count,
    graph_to_pairs,
    make_graph,
    pair_config,
    pairs_to_graph,
    prune_isolated,
    restrict,
    restrict_graph,
)
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
    sample_batch,
    sample_graphex,
    sample_graphon,
    sample_rotinv,
    spec_from_dict,
    spec_to_dict,
    window_for,
)
from .stats import chi2_sf, chi_square_gof, graph_stats, kolmogorov_sf, ks_two_sample
from .windows import (
    Window,
    WindowKind,
    ball_radius,
    contains,
    make_window,
    unit_ball_volume,
    window_to_dict,
)

__version__ = "0.1.0"
