"""Numerics for the spectral curve and tau-function expansion of the (3,4)
string equation: the branch-equation root that defines the domain D,
three-sheet uniformization, steepest-descent sign certification, topological
expansion data, global and local parametrix algebra, and the Painleve I
degeneration."""

__version__ = "0.1.0"

from .param_domain import (BoundaryReached, Params, eval_P, in_domain_D,
                           sigma_jets, solve_sigma)
from .spectral_curve import (SpectralCurve, branch_coeffs, build_curve,
                             check_g_asymptotics)

__all__ = [
    "BoundaryReached", "Params", "SpectralCurve", "branch_coeffs",
    "build_curve", "check_g_asymptotics", "eval_P", "in_domain_D",
    "sigma_jets", "solve_sigma",
]
