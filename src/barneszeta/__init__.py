"""Barnes double zeta-function toolkit.

Evaluation of zeta_2(s, alpha; v, w) across the complex plane; Laurent
coefficients at the poles s = 1 and s = 2 from one Euler-Maclaurin jet,
checked at both poles by the finite-M limit formulas and at s = 2 by the
closed integral form; double gamma / poly-gamma special values; numerical
certification suites for the underlying identities.
"""

from .barnes import (
    BarnesParams,
    log_gamma2,
    polygamma2,
    zeta2,
    zeta2_direct,
    zeta2_s_derivatives_at_0,
)
from .errors import (
    AccuracyError,
    BarnesZetaError,
    DomainError,
    PoleError,
)
from .hurwitz import (
    hurwitz_zeta,
    riemann_zeta,
    stieltjes_constants,
)
from .laurent import (
    LaurentExpansion,
    gamma0_at_2_integral,
    gammak_at_1_limit,
    gammak_at_2_limit,
    laurent_at_1,
    laurent_at_2,
    residue_at_1,
    residue_at_2,
)
from .numerics import (
    ContourSpec,
    bernoulli_numbers,
    contour_coefficients,
    frac_part_integral_1d,
    frac_part_integral_2d,
    richardson_extrapolate,
)
from .verify import (
    Check,
    VerificationReport,
    default_parameter_suite,
    run_suites,
    verify_bounds,
    verify_reduction,
    verify_theorem1,
    verify_theorem1_s1,
    verify_theorem2_altsum,
    verify_theorem2_derivative,
)

__version__ = "0.1.0"
