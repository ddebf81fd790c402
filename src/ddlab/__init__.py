"""Data-driven cost predictors and prescriptors over finite scenario sets,
with an exact disappointment laboratory for their out-of-sample guarantees.
"""
from types import ModuleType as _ModuleType

from .decisions import (
    SCHEMA_VERSION,
    LossMatrix,
    Problem,
    cost,
    covariance,
    load_scenario,
    min_variance_minimizer,
    save_scenario,
    variance,
)
from .deviation import (
    DisappointmentReport,
    MethodInfo,
    Mode,
    disappointment_exact,
    disappointment_importance,
    disappointment_mc,
    importance_shift,
    rate_curve,
    theoretical_rate_saa,
)
from .errors import (
    ConvergenceError,
    EllipsoidConditionError,
    LatticeCapError,
    ScenarioFormatError,
    ValidationError,
)
from .predictors import (
    CustomTable,
    ExponentialRate,
    Logarithmic,
    PowerLaw,
    PredictionResult,
    PredictorSpec,
    RegimeSchedule,
    dro_condition_holds,
    ellipsoid_linear_max,
    predict_kl_dual,
    predict_robust,
    predict_saa,
    predict_svp,
    predictor_value_matrix,
    predictor_value_rows,
    speed_ratio,
    svp_direction,
    svp_worst_case,
    variance_matrix,
)
from .prescriptors import (
    PrescriptionResult,
    convexity_certificate,
    prescribe,
    prescription_gap_bound,
)
from .simplex import (
    DEFAULT_LATTICE_CAP,
    Distribution,
    EmpiricalDistribution,
    SimplexDelta,
    ellipsoid_norm_sq,
    enumerate_lattice,
    kl_divergence,
    lattice_size,
    multinomial_log_prob,
    sample_empirical,
)

__version__ = "0.1.0"

# every public name imported above, and the version; the submodules that
# the imports bind are not part of it
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
