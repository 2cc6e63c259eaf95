"""Non-autonomous compositions of perturbed parabolic maps.

Numerics for compositions f_N o ... o f_1 of Moebius maps
f_k(z) = rho_k z/(1 - z) + eps_k^2 near the parabolic model z/(1 - z):
coefficient recurrences, convergence-rate sweeps, seeded random ensembles,
and skew-product drivers, with CSV/SVG output through the ``parimplode``
command-line tool.
"""
from types import ModuleType as _ModuleType

from .convergence import (
    DecayFit,
    RatePoint,
    fit_loglog,
    run_point,
    run_sweep,
    write_rate_csv,
)
from .errors import (
    DegenerateMapError,
    DegenerateNormalizationError,
    IdentityViolationError,
    InvalidSpecError,
    NonPositiveValueError,
    OracleMismatchError,
    ParimplodeError,
    RecurrenceOverflowError,
    SweepError,
    UsageError,
)
from .mobius import (
    EvalRegion,
    MoebiusCoeffs,
    compose_chain,
    identity_distance,
    projective_coeff_error,
    projective_distance,
)
from .randomlab import (
    EnsembleSummary,
    TrialRecord,
    azuma_tail_bound,
    martingale_check,
    quantile_nearest_rank,
    run_ensemble,
    union_bound,
    write_summary_csv,
    write_trial_csv,
)
from .recurrences import (
    PerturbationSequences,
    QRSTriple,
    closed_form_T_array,
    coefficients_from_qr,
    run_recurrences,
    wronskian_residual,
)
from .schedules import (
    CounterexampleC,
    Custom,
    QuadraticNonconvergent,
    RandomSchedule,
    SkewExample,
    TheoremA,
    TheoremB,
    UniformSymmetric,
    materialize,
    random_small_schedule,
    random_small_schedules,
    summation_diagnostic,
)
from .skew import (
    SkewOrbitResult,
    SkewSystem,
    build_example,
    induced_schedule,
    write_skew_csv,
)

__version__ = "0.1.0"

# the names imported above; the submodules they bind (``rng``, ``ioutil``, ...)
# stay out of ``from parimplode import *``
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
