"""Random walks on concrete hyperbolic groups: Green and Martin kernels,
harmonic measure on the boundary, and the ratio-set classification."""

__version__ = "0.1.0"

from .groups import (
    GroupModel,
    GroupElement,
    conjugacy_representatives,
    distance,
    gromov_product,
    words_by_length,
)
from .walks import (
    WalkSpec,
    WalkValidation,
    PathSample,
    SpectralRadiusEstimate,
    make_walk,
    reversed_walk,
    sample_path,
    spectral_radius_estimate,
    uniform_walk,
    validate_walk,
)
from .green import (
    AnconaReport,
    GreenEstimate,
    ancona_check,
    first_passage,
    green_decay_rate,
    harnack_constant,
)
from .martin import (
    BoundaryPoint,
    HoelderReport,
    MartinEstimate,
    RatioValue,
    hoelder_probe,
    martin_kernel,
    martin_kernel_at,
    ratio_invariant,
)
from .measure import (
    Cylinder,
    MeasureEstimate,
    GibbsReport,
    RadonNikodymReport,
    SampleSet,
    estimate_measure,
    gibbs_ratio,
    radon_nikodym_check,
)
from .classify import RatioSetReport, classify
from .config import ExperimentConfig, load_config, parse_config
from .report import ReportBundle, run_experiment

# The ball solver serves the tests as an oracle and no package path calls
# it.  It loads with the package because perfbench's layer tracer looks up
# hypwalk._solver.RestrictedSolver in sys.modules and cannot install its
# wrappers without it; so does hypwalk.groups.Ball.  Loading it costs no
# numpy import: its solves import numpy and scipy.sparse when called.
from . import _solver  # noqa: E402,F401
