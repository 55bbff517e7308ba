"""Random walks on concrete hyperbolic groups: Green and Martin kernels,
harmonic measure on the boundary, and the ratio-set classification."""

__version__ = "0.1.0"

from .groups import (
    GroupModel,
    GroupElement,
    GeodesicSegment,
    Ball,
    ball,
    conjugacy_representatives,
    distance,
    estimate_delta,
    geodesic,
    gromov_product,
    multiply,
    word_length,
)
from .walks import (
    WalkSpec,
    WalkValidation,
    PathSample,
    BoundarySample,
    SpectralRadiusEstimate,
    make_walk,
    reversed_walk,
    sample_boundary_point,
    sample_path,
    spectral_radius_estimate,
    uniform_walk,
    validate_walk,
)
from .green import (
    AnconaReport,
    GreenEstimate,
    GreenTable,
    ancona_check,
    first_passage,
    first_passage_set,
    green,
    green_decay_slope,
    green_z,
    harnack_constant,
    last_exit,
    restricted_green,
)
from .martin import (
    BoundaryPoint,
    HoelderReport,
    LivschitzReport,
    MartinEstimate,
    RatioValue,
    hoelder_probe,
    limit_gromov,
    livschitz_coboundary,
    martin_kernel,
    martin_kernel_at,
    radon_nikodym,
    ratio_invariant,
)
from .measure import (
    Cylinder,
    MeasureEstimate,
    GibbsReport,
    RadonNikodymReport,
    cylinder_membership,
    estimate_measure,
    gibbs_ratio,
    radon_nikodym_check,
)
from .classify import RatioSetReport, classify
from .config import ExperimentConfig, load_config, parse_config
from .report import ReportBundle, run_experiment
