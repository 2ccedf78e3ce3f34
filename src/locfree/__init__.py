"""Location-free spectrum cartography toolkit.

Simulates indoor multipath radio scenarios, extracts localization-free
pilot-signal features, learns power maps by kernel ridge regression, and
benchmarks against a localization-based baseline.
"""

from .errors import ConfigurationError, DomainError, SolverError
from .scenario import (
    SPEED_OF_LIGHT,
    Scenario,
    Transmitter,
    WallSegment,
    load_scenario,
    preset,
    save_scenario,
)
from .propagation import (
    PathComponent,
    discretize_channel,
    sample_sensor_locations,
    simulate_points,
    synthesize_pilot_matrix,
    trace_paths,
    true_power,
)
from .features import com_impulse, estimate_toa, feature_vector_sync
from .kernels import (
    FittedMap,
    GaussianKernel,
    fit,
    load_model,
    predict,
    save_model,
)
from .reduction import ReducedBasis, center, project, reduce_features, select_rank
from .completion import (
    CompletionConfig,
    IncompleteFeatureMatrix,
    build_recovery_context,
    gram_schmidt_basis,
    rls_recover_query,
    svp_complete,
)
from .localization import (
    AnchorSet,
    LocationEstimate,
    locb_fit,
    srdls_localize,
    tdoa_feature_set,
)
from .evaluation import (
    ExperimentConfig,
    NmseResult,
    mask_features,
    nmse,
    precompute_grid,
    run_experiments,
)

__version__ = "0.1.0"
