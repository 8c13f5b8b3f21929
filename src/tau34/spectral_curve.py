"""Genus-zero spectral curve, three-sheet uniformization and g-functions.

The curve is parameterized by

    lam(u) = u^3 - (3/2) s u - 3 mu/(5 eta - 3 s)
    Y(u)   = u^4 + (5 eta/3 - 2 s) u^2 - 4 mu/(5 eta - 3 s) u + s^2/2 - 5 eta s/3

with s the branch-equation root, and g(u) is the antiderivative of
Y(u) lam'(u) normalized so that the sheet restrictions g_j(lam) = g(u_j(lam))
match the exponential phases theta_j at infinity up to O(lam^(-1/3)).

Note: the only explicit degree-7 form of g we use is the antiderivative
itself; the constant of integration is -2*c*a^4 (c the constant term of
lam, a = sqrt(s/2)), which kills the lam^0 term of every g_j at infinity.

At infinity every sheet shares one phase polynomial: with tau = w^m lam^(1/3)
(w = exp(2 i pi/3), m fixed by the sheet and half-plane), theta = Theta(tau)
= (3/7) tau^7 + eta tau^5 + mu tau^2 + nu tau and the sheet root is
U(tau) = tau (1 + sum_k e_k tau^-k).  `laurent_at_infinity` expands
g(U(tau)) - Theta(tau) exactly; `check_g_asymptotics` reads the matching
claim g_j - theta_j = c tau^-1 + O(tau^-2), c != 0, off that expansion.

Sheets are cut along (-inf, beta] (1|2 gluing) and [alpha, inf) (2|3
gluing), alpha = lam(-a), beta = lam(a).  Side limits on the cuts are exact
(conjugate-pair assignment), not epsilon offsets.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .param_domain import Params, DomainError, solve_sigma

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)

#: branch-point exclusion radius of `parametrix.global_M`, relative to
#: 1 + |lambda|
BRANCH_POINT_TOL = 1e-10


class OnBranchPoint(ValueError):
    """lambda within BRANCH_POINT_TOL of a branch point."""


@dataclass(frozen=True)
class SpectralCurve:
    params: Params
    sigma: float
    a: float
    lam_coeffs: np.ndarray      # ascending, degree 3
    Y_coeffs: np.ndarray        # ascending, degree 4
    g_coeffs: np.ndarray        # ascending, degree 7
    alpha: float
    beta: float

    @property
    def c(self):
        """Constant term of lam(u)."""
        return float(self.lam_coeffs[0])

    @property
    def b(self):
        """-(u^2 coefficient) of Y, i.e. b = 2 s - 5 eta / 3."""
        return 2.0 * self.sigma - 5.0 * self.params.eta / 3.0


@dataclass(frozen=True)
class BranchCoeffs:
    case: str                   # 'generic' | 'boundary-mu' | 'gamma-plus' | 'gamma-minus'
    rho_alpha: float = math.nan
    rho_beta: float = math.nan
    rho_hat_beta: float = math.nan
    rho_hat: float = math.nan
    b_coeff: float = math.nan   # (3/5) b, the gamma-minus amplitude


def build_curve(p, sigma=None):
    """Construct the curve at p; sigma may be supplied for boundary points."""
    if sigma is None:
        sigma = solve_sigma(p).sigma
    eta, mu = p.eta, p.mu
    den = 5.0 * eta - 3.0 * sigma
    c = -3.0 * mu / den if mu != 0.0 else 0.0
    a = math.sqrt(sigma / 2.0) if sigma > 0 else 0.0
    lam = np.array([c, -1.5 * sigma, 0.0, 1.0])
    Y = np.array([0.5 * sigma**2 - (5.0 / 3.0) * eta * sigma,
                  (4.0 / 3.0) * c,
                  (5.0 / 3.0) * eta - 2.0 * sigma,
                  0.0,
                  1.0])
    # numpy imports np.polynomial on first use, so the commands that build
    # no curve (sigma, tau) never load it
    npoly = np.polynomial.polynomial
    g = npoly.polyint(npoly.polymul(Y, npoly.polyder(lam)))
    g[0] = -2.0 * c * a**4
    alpha = float(npoly.polyval(-a, lam).real)
    beta = float(npoly.polyval(a, lam).real)
    return SpectralCurve(params=p, sigma=sigma, a=a, lam_coeffs=lam,
                         Y_coeffs=Y, g_coeffs=g, alpha=alpha, beta=beta)


def _cut_side_roots(curve, x):
    """Exact upper-side limits (3, n) of (u1, u2, u3) for real x (n,) on
    the cuts; x > alpha is on [alpha, inf), anything else on (-inf, beta].

    On [alpha, inf) sheets 2 and 3 carry the conjugate pair (upper side:
    u2 = x0 - i y0, u3 = x0 + i y0 with y0 > 0); on (-inf, beta] sheets 1
    and 2 do (upper side: u1 = x0 + i y0, u2 = x0 - i y0).  By Cardano,
    with q = c - x and t the real cube root of -q/2 - sign(q) d, the real
    root is t + a^2/t, x0 = -(t + a^2/t)/2 and y0 = (sqrt 3/2)|t - a^2/t|.
    d^2 = q^2/4 - a^6 = (x - alpha)(x - beta)/4 is taken from the branch
    points, which avoids both cancellation and overflow.
    """
    x = np.asarray(x, dtype=float)
    q = curve.c - x
    d = 0.5 * (np.sqrt(np.abs(x - curve.alpha))
               * np.sqrt(np.abs(x - curve.beta)))
    t = np.cbrt(-0.5 * q - np.copysign(d, q))
    s = curve.a**2 / t
    real_root = t + s
    pair = -0.5 * real_root + 1j * (0.5 * math.sqrt(3.0)) * np.abs(t - s)
    return np.where(x > curve.alpha, [real_root, pair.conjugate(), pair],
                    [pair, pair.conjugate(), real_root])


def uniformize_all(curve, lam):
    """Sheet-resolved roots (3, ...) for an array of lambda values."""
    return _kernels.sheet_roots(curve.a**2, curve.c, lam)


def g_of_u(curve, u):
    return np.polynomial.polynomial.polyval(u, curve.g_coeffs)


def g_sheets_all(curve, lam, sheets):
    """g_j over an array of lambda (vectorized, off-cut samples), one row per
    entry of `sheets`: a sheet number, or an array of them shaped like lam."""
    u = uniformize_all(curve, lam)
    return g_of_u(curve, np.stack([np.choose(np.subtract(j, 1), u)
                                   for j in sheets]))


def branch_coeffs(curve, case=None):
    """Closed-form local amplitudes of the g-differences at the branch points.

    generic:   (g3-g2) ~ +-i rho_a (lam-alpha)^(3/2),  (g2-g1) ~ rho_b (lam-beta)^(3/2)
    boundary-mu: beta exponent becomes 5/2 with amplitude rho_hat_beta
    gamma-plus:  both exponents 5/2 with common amplitude rho_hat
    gamma-minus: alpha = beta = 0, amplitude (3/5) b on lam^(5/3)
    """
    p = curve.params
    a = curve.a
    b = curve.b
    c = curve.c
    if case is None:
        if curve.sigma < 1e-12:
            case = "gamma-minus"
        elif abs(curve.sigma - 5.0 * p.eta / 3.0) < 1e-10 * (1.0 + abs(p.eta)):
            case = "gamma-plus"
        else:
            from .param_domain import eval_P
            _, dP = eval_P(curve.sigma, p)
            case = "generic" if abs(dP) > 1e-8 * (1.0 + curve.sigma**2) \
                else "boundary-mu"
    if case == "gamma-minus":
        return BranchCoeffs(case=case, b_coeff=0.6 * b)
    f = 6.0 * a**3 - 3.0 * a * b
    pref = -8.0 / (9.0 * math.sqrt(3.0 * a))
    rho_alpha = pref * (f - 2.0 * c)
    if case == "generic":
        return BranchCoeffs(case=case, rho_alpha=rho_alpha,
                            rho_beta=pref * (f + 2.0 * c))
    hat_pref = 8.0 * math.sqrt(3.0) / (135.0 * a**3.5)
    if case == "boundary-mu":
        return BranchCoeffs(case=case, rho_alpha=rho_alpha,
                            rho_hat_beta=hat_pref * (2.0 * a * b - c))
    if case == "gamma-plus":
        # c -> 0 limit of the boundary-mu amplitude: 2ab, at both points
        return BranchCoeffs(case=case, rho_hat=hat_pref * 2.0 * a * b)
    raise DomainError(f"unknown branch-coefficient case {case!r}")


# ---------------------------------------------------------------------------
# Laurent expansion at infinity: the exact form of the phase matching
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).smallest_subnormal)

#: rounding allowance in units of eps times the magnitude sum of the terms
#: a value is built from (measured at most 5 on d_grid20 and on 60 random
#: interior points), plus as many subnormal units TINY; a real mismatch, a
#: wrong sheet or constant, is O(1)
ROUNDING_ULPS = 64

#: most Laurent terms the remainder bound may ask for (q ~ 0.57)
LAURENT_MAX_TERMS = 64


class AsymptoticsError(ValueError):
    """The Laurent check of g - theta at infinity failed or could not run."""


@dataclass(frozen=True)
class LaurentExpansion:
    """g(U(tau)) - Theta(tau) at infinity, tau = w^m lam^(1/3).

    `root[k]` is e_k in U(tau) = tau sum_k e_k tau^-k (e_0 = 1); `head[i]`
    is the coefficient of tau^(7-i), i = 0..7, and `head_bound[i]` its
    rounding allowance; `tail[m-1]` is the coefficient of tau^-m, and
    `tail_bound[m-1]` its rounding allowance.
    """
    root: np.ndarray
    head: np.ndarray
    head_bound: np.ndarray
    tail: np.ndarray
    tail_bound: np.ndarray


def _root_series(a2, c, degree):
    """e_0..e_degree of U/tau for U^3 - 3 a2 U + c = tau^3, U ~ tau.

    With x = 1/tau and U = tau (1 + w(x)) the cubic reads
    w = a2 x^2 (1 + w) - c x^3 / 3 - w^2 - w^3 / 3.  Order n of the right
    side involves w only up to order n - 2, so each sweep of this fixed
    point fixes two more orders and degree // 2 + 1 sweeps are exact.
    """
    w = np.zeros(degree + 1)
    for _ in range(degree // 2 + 1):
        w2 = np.convolve(w, w)[:degree + 1]
        nxt = -w2 - np.convolve(w2, w)[:degree + 1] / 3.0
        nxt[2:] += a2 * w[:-2]
        nxt[2] += a2
        nxt[3] -= c / 3.0
        w = nxt
    w[0] = 1.0
    return w


def _compose(g, root, n_terms):
    """Coefficients of tau^7 .. tau^-n_terms of sum_k g[k] U(tau)^k."""
    degree = len(root) - 1
    out = np.zeros(8 + n_terms)
    power = np.zeros(degree + 1)
    power[0] = 1.0
    for k, gk in enumerate(g):
        out[7 - k:] += gk * power[:n_terms + 1 + k]
        power = np.convolve(power, root)[:degree + 1]
    return out


def laurent_at_infinity(curve, n_terms):
    """Laurent expansion of g(U(tau)) - Theta(tau) through tau^-n_terms.

    Every coefficient is exact up to rounding: the truncated root series
    carries all orders that reach tau^-n_terms.  The head (tau^7 .. tau^0)
    is the normalization of g and vanishes; the tail starts with
    tau^-1: -h1_0/2 and tau^-2: -h2_0/4 (`tau_expansion.leading_hamiltonians`).
    """
    p = curve.params
    root = _root_series(curve.a**2, curve.c, n_terms + 7)
    theta = np.zeros(8 + n_terms)
    theta[[0, 2, 5, 6]] = (3.0 / 7.0, p.eta, p.mu, p.nu)
    series = _compose(curve.g_coeffs, root, n_terms) - theta
    bound = ROUNDING_ULPS * (EPS * (
        _compose(np.abs(curve.g_coeffs), np.abs(root), n_terms)
        + np.abs(theta)) + TINY)
    return LaurentExpansion(root=root, head=series[:8], head_bound=bound[:8],
                            tail=series[8:], tail_bound=bound[8:])


def _laurent_terms(curve, tau_min):
    """Tail terms needed at |tau| >= tau_min, from the remainder bound.

    The expansion converges outside the image of the branch points,
    |tau| > R = max(|alpha|, |beta|)^(1/3), so its coefficients are at most
    C R^m for some C and, with q = R / tau_min, the terms after the N-th add
    up to at most C q^(N+1) / (1 - q).  N is the least count that puts this
    below eps C.
    """
    q = max(abs(curve.alpha), abs(curve.beta)) ** (1.0 / 3.0) / tau_min
    if q == 0.0:
        return 1
    n = math.ceil(math.log(EPS * (1.0 - q)) / math.log(q)) - 1 \
        if q < 1.0 else math.inf
    if n > LAURENT_MAX_TERMS:
        raise AsymptoticsError(
            f"remainder bound not met: q = {q:.3g} needs {n} > "
            f"{LAURENT_MAX_TERMS} Laurent terms")
    return max(n, 1)


#: w^m of sheet j's root U(w^m lam^(1/3)): row j - 1, column upper/lower
_SHEET_ROTATION = np.array([[1.0, 1.0], [OMEGA**2, OMEGA], [OMEGA, OMEGA**2]])


def check_g_asymptotics(curve, radii=(1e3, 1e6)):
    """The matching claim g_j - theta_j = c tau^-1 + O(tau^-2) with c != 0,
    read off `laurent_at_infinity`; returns the margin of c.

    The head (tau^7 .. tau^0) must vanish within its rounding bound.  The
    expansion never looks at the kernel's roots, so those must equal U(tau)
    on every sheet, at each radius on the rays arg lam = +-0.9.  The margin
    is the rounding bound of c = -h1_0/2 over |c|: small, c is nonzero and
    every g_j - theta_j decays exactly like lam^(-1/3).  Raises
    AsymptoticsError when the term count at the smallest radius exceeds
    LAURENT_MAX_TERMS or either check fails.
    """
    radii = np.asarray(radii, dtype=float)
    ser = laurent_at_infinity(curve, _laurent_terms(curve,
                                                    radii.min() ** (1.0 / 3.0)))
    if np.any(np.abs(ser.head) > ser.head_bound):
        raise AsymptoticsError(
            f"tau^7..tau^0 coefficients {ser.head} exceed their rounding "
            f"bound {ser.head_bound}")
    lam = np.array([radii * cmath.exp(0.9j), radii * cmath.exp(-0.9j)])
    x = 1.0 / (_SHEET_ROTATION[:, :, None] * lam ** (1.0 / 3.0))
    u = np.polynomial.polynomial.polyval(x, ser.root) / x
    bad = np.argwhere(np.abs(uniformize_all(curve, lam) - u)
                      > ROUNDING_ULPS * EPS * np.abs(u))
    if bad.size:
        sheet, half, _ = bad[0]
        raise AsymptoticsError(
            f"sheet {sheet + 1} root is not U(tau) in the "
            f"{('upper', 'lower')[half]} half-plane")
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(ser.tail_bound[0] / abs(ser.tail[0]))
