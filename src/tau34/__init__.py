"""Numerics for the spectral curve and tau-function expansion of the (3,4)
string equation: the branch-equation root that defines the domain D,
three-sheet uniformization, steepest-descent sign certification, topological
expansion data, global and local parametrix algebra, and the Painleve I
degeneration."""

__version__ = "0.1.0"

from .param_domain import (ABCoords, BoundaryReached, Params, eval_P,
                           in_domain_D, map_abc, sigma_jets, solve_sigma,
                           viete_roots)
from .spectral_curve import (SpectralCurve, branch_coeffs, build_curve,
                             check_g_asymptotics, g_sheet, theta_phase,
                             uniformize)

__all__ = [
    "ABCoords", "BoundaryReached", "Params", "SpectralCurve",
    "branch_coeffs", "build_curve", "check_g_asymptotics", "eval_P",
    "g_sheet", "in_domain_D", "map_abc", "sigma_jets", "solve_sigma",
    "theta_phase", "uniformize", "viete_roots",
]
