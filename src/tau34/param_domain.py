"""Branch equation for the leading string-equation coefficient.

The degree-5 equation

    P(s; eta, mu, nu) = nu + s^3/2 - (5/4)*eta*s^2 + 6*mu^2/(5*eta - 3*s)^2 = 0

has a distinguished root s(eta, mu, nu): the largest real root above
max(5*eta/3, 0) of the cleared quintic (5*eta - 3*s)^2 * P = 0.  The
parameter region D is where that root exists and is simple; it is the
natural domain of every other module.  Its boundary is the critical surface
nu = nu_critical(eta, mu) handled in `critical`, where the root collides
with another one.

P is strictly convex above max(5*eta/3, 0), so this module finds the root
by Newton's method started to the right of it, and produces derivative
towers of the root by implicit differentiation.
"""
import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Input outside the documented parameter domain."""


class BoundaryReached(DomainError):
    """No simple root above max(5 eta/3, 0): the point is outside D."""


# scale-aware margin below which the root is declared multiple
BOUNDARY_MARGIN = 1e-8
NEWTON_TOL = 1e-13
# from the start below, Newton needs about log2(start / (root gap)) steps
NEWTON_MAXIT = 100


def _is_multiple(sigma, p, dP):
    """Root-collision test at a converged root with P_s = dP.

    |P_s| < 1e-8 (1+s^2) is the documented hard floor, but at an exact double
    root Newton stalls with |P_s| ~ sqrt(|P_ss| * residual) ~ 1e-6, so the
    margin is also compared against that Newton-basin floor.
    """
    scale = 1.0 + sigma * sigma
    if abs(dP) < BOUNDARY_MARGIN * scale:
        return True
    dP2 = _P_sigma_derivatives(sigma, p, 2)[1]
    floor = math.sqrt(8.0 * abs(dP2) * NEWTON_TOL * (1.0 + abs(sigma) ** 3))
    return abs(dP) < floor


@dataclass(frozen=True)
class Params:
    eta: float
    mu: float
    nu: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.eta, self.mu, self.nu))):
            raise DomainError("parameters must be finite")


@dataclass(frozen=True)
class SigmaSolution:
    sigma: float
    dP_dsigma: float
    residual: float


@dataclass(frozen=True)
class DomainReport:
    in_D: bool
    sigma: float
    margin: float
    reason: str


@dataclass(frozen=True)
class SigmaJets:
    """d^n s / d nu^n for n <= depth, plus first-order mu/eta derivatives."""
    sigma: float
    dnu: tuple          # (s, s', s'', ...) with ' = d/dnu
    dmu: float
    deta: float


def eval_P(sigma, p):
    """P(sigma; p) and dP/dsigma, exactly as written (pole term included)."""
    eta, mu = p.eta, p.mu
    value = p.nu + 0.5 * sigma**3 - 1.25 * eta * sigma**2
    d_dsigma = 1.5 * sigma**2 - 2.5 * eta * sigma
    if mu != 0.0:
        den = 5.0 * eta - 3.0 * sigma
        value += 6.0 * mu**2 / den**2
        d_dsigma += 36.0 * mu**2 / den**3
    return value, d_dsigma


def _newton(sigma, p):
    """Newton iterations on P from the right of its largest root above
    max(5 eta/3, 0); returns (sigma, value, dP) or None.

    On s > max(5 eta/3, 0), P is strictly convex:

        P_ss = 3 s - 5 eta/2 + 324 mu^2/(5 eta - 3 s)^4 > 0.

    So from a start where P >= 0 and P_s > 0 the iterates decrease
    monotonically onto the largest root; they stop once rounding makes the
    step negligible or negative.  Where there is no root they pass the
    minimum of P, and P_s turns non-positive.
    """
    try:
        for _ in range(NEWTON_MAXIT):
            value, dP = eval_P(sigma, p)
            if dP < BOUNDARY_MARGIN * (1.0 + sigma**2):
                return None
            step = value / dP
            sigma -= step
            if step < 1e-16 * (1.0 + abs(sigma)):
                break
        else:
            return None
        value, dP = eval_P(sigma, p)
    except ZeroDivisionError:       # landed on the pole 5 eta = 3 sigma
        return None
    if abs(value) > NEWTON_TOL * (1.0 + abs(sigma) ** 3):
        return None
    return sigma, value, dP


def _start(p):
    """A point right of every root of P above max(5 eta/3, 0), where P >= 0
    and P_s > 0.

    At s >= 5|eta|/2 + (2|nu|)^(1/3) the cubic part of P is >= 0, and at
    s >= 5|eta|/2 + (72 mu^2)^(1/5) the cubic part of P_s, at least s^2/2,
    exceeds the pole part, at most 36 mu^2/s^3; the pole part of P is >= 0.
    """
    start = 1.5 * (2.5 * abs(p.eta) + (2.0 * abs(p.nu)) ** (1.0 / 3.0)
                   + 72.0**0.2 * abs(p.mu) ** 0.4)
    if not math.isfinite(start):
        raise OverflowError("the Newton start overflows")
    return start


def solve_sigma(p):
    """The distinguished root: the largest real root of P above
    max(5 eta/3, 0), which is that of the cleared quintic.

    Raises BoundaryReached (a DomainError) when that root does not exist or
    is not simple, i.e. when p is outside D, and DomainError when P
    overflows at the scale of p.
    """
    try:
        got = _newton(_start(p), p)
        if got is None or not got[0] > max(5.0 * p.eta / 3.0, 0.0):
            raise BoundaryReached(
                "no real root above max(5 eta/3, 0): the point is on or "
                "past the critical surface")
        sigma, value, dP = got
        if _is_multiple(sigma, p, dP):
            raise BoundaryReached("the root is multiple: the point lies on "
                                  "the critical surface")
    except OverflowError:
        raise DomainError("branch equation overflows at this scale") from None
    return SigmaSolution(sigma=sigma, dP_dsigma=dP, residual=abs(value))


def in_domain_D(p):
    """Domain membership report; never raises."""
    try:
        sol = solve_sigma(p)
    except DomainError as exc:
        return DomainReport(False, math.nan, 0.0, str(exc))
    return DomainReport(True, sol.sigma, abs(sol.dP_dsigma), "")


def _P_sigma_derivatives(sigma, p, n):
    """[P_s, P_ss, P_sss, P_ssss][:n] at the root (mu-pole term included)."""
    eta, mu = p.eta, p.mu
    den = 5.0 * eta - 3.0 * sigma
    out = [1.5 * sigma**2 - 2.5 * eta * sigma,
           3.0 * sigma - 2.5 * eta,
           3.0,
           0.0]
    if mu != 0.0:
        m2 = mu * mu
        out[0] += 36.0 * m2 / den**3
        out[1] += 324.0 * m2 / den**4
        out[2] += 3888.0 * m2 / den**5
        out[3] += 58320.0 * m2 / den**6
    return out[:n]


def sigma_jets(p, depth=1, sigma=None):
    """Derivative tower of the root: d^n s/d nu^n (n <= depth <= 4) plus
    first-order d s/d mu and d s/d eta from the implicit function theorem,
    in the scalar type of p and sigma (floats, or mpmath with both given).

    P(s; eta, mu, nu) = nu + Q(s; eta, mu) with P_nu = 1, so the nu-tower is
    the inverse-function expansion of nu(s) = -Q(s).
    """
    if not 1 <= depth <= 4:
        raise ValueError("depth must be between 1 and 4")
    if sigma is None:
        sigma = solve_sigma(p).sigma
    Ps, Pss, Psss, Pssss = _P_sigma_derivatives(sigma, p, 4)
    # nu(s) = -Q(s): nu' = -P_s, nu'' = -P_ss, ...
    n1, n2, n3, n4 = -Ps, -Pss, -Psss, -Pssss
    tower = [sigma, 1.0 / n1]
    if depth >= 2:
        tower.append(-n2 / n1**3)
    if depth >= 3:
        tower.append((3.0 * n2**2 - n1 * n3) / n1**5)
    if depth >= 4:
        tower.append((-15.0 * n2**3 + 10.0 * n1 * n2 * n3 - n1**2 * n4)
                     / n1**7)
    # P_nu = 1; P_eta and P_mu at fixed s
    P_eta, P_mu = -1.25 * sigma**2, 0.0
    if p.mu != 0.0:
        den = 5.0 * p.eta - 3.0 * sigma
        P_eta -= 60.0 * p.mu**2 / den**3
        P_mu = 12.0 * p.mu / den**2
    return SigmaJets(sigma=sigma, dnu=tuple(tower),
                     dmu=-P_mu / Ps, deta=-P_eta / Ps)
