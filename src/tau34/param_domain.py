"""Branch equation for the leading string-equation coefficient.

The degree-5 equation

    P(s; eta, mu, nu) = nu + s^3/2 - (5/4)*eta*s^2 + 6*mu^2/(5*eta - 3*s)^2 = 0

has a distinguished simple root s(eta, mu, nu) fixed by continuation from
s = 5*eta/2 on the reference ray (eta > 0, mu = nu = 0).  The parameter
region D where this root stays simple is the natural domain of every other
module; its boundary is the critical surface handled in `critical`.

This module solves the equation (predictor-corrector continuation), manages
the (a, b, c) <-> (eta, mu, nu) coordinate systems of the uniformized
spectral curve, and produces derivative towers of the root by implicit
differentiation.

The continuation runs on plain floats: a numpy call on a 3-vector costs more
than a step's few float operations.  So the predictor's dot product is a
written-out sum; it may round unlike a BLAS dot, which Newton absorbs.
"""
import math
from dataclasses import dataclass

import numpy as np


class BoundaryReached(RuntimeError):
    """Continuation hit a multiple root (the critical surface)."""


class PolePassed(RuntimeError):
    """5*eta - 3*s crossed zero along the continuation path."""


class DomainError(ValueError):
    """Input outside the documented parameter domain."""


# scale-aware margin below which the root is declared multiple
BOUNDARY_MARGIN = 1e-8
NEWTON_TOL = 1e-13


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
class ABCoords:
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class SigmaSolution:
    sigma: float
    dP_dsigma: float
    residual: float
    path_ok: bool


@dataclass(frozen=True)
class VieteRoots:
    z_minus: float
    z_zero: float
    z_plus: float


@dataclass(frozen=True)
class DomainReport:
    in_D: bool
    sigma: float
    margin: float
    path_ok: bool
    sign_ok: bool
    reason: str


@dataclass(frozen=True)
class SigmaJets:
    """d^n s / d nu^n for n <= depth, plus first-order mu/eta derivatives."""
    sigma: float
    dnu: tuple          # (s, s', s'', ...) with ' = d/dnu
    dmu: float
    deta: float


def _eval_P(sigma, eta, mu, nu):
    """P and dP/dsigma on plain floats (see `eval_P`)."""
    den = 5.0 * eta - 3.0 * sigma
    if mu == 0.0:
        pole = 0.0
        dpole = 0.0
    else:
        if abs(den) < 1e-12 * (1.0 + abs(eta) + abs(sigma)):
            raise PolePassed(f"5*eta - 3*sigma = {den:g} is at the pole")
        pole = 6.0 * mu**2 / den**2
        dpole = 36.0 * mu**2 / den**3
    value = nu + 0.5 * sigma**3 - 1.25 * eta * sigma**2 + pole
    d_dsigma = 1.5 * sigma**2 - 2.5 * eta * sigma + dpole
    return value, d_dsigma


def eval_P(sigma, p):
    """P(sigma; p) and dP/dsigma, exactly as written (pole term included)."""
    return _eval_P(sigma, p.eta, p.mu, p.nu)


def _P_eta_mu(sigma, eta, mu):
    """(dP/deta, dP/dmu) at fixed sigma on plain floats; dP/dnu = 1."""
    if mu == 0.0:
        return -1.25 * sigma**2, 0.0
    den = 5.0 * eta - 3.0 * sigma
    return -1.25 * sigma**2 - 60.0 * mu**2 / den**3, 12.0 * mu / den**2


def _param_gradient(sigma, p):
    """(dP/deta, dP/dmu, dP/dnu) at fixed sigma."""
    return np.array([*_P_eta_mu(sigma, p.eta, p.mu), 1.0])


def _newton(sigma, eta, mu, nu, tol=NEWTON_TOL, maxit=5):
    """Newton iterations on P; returns (sigma, value, dP) or None."""
    try:
        for _ in range(maxit):
            value, dP = _eval_P(sigma, eta, mu, nu)
            if abs(dP) < BOUNDARY_MARGIN * (1.0 + sigma**2):
                return None
            step = value / dP
            sigma -= step
            if abs(step) < 1e-16 * (1.0 + abs(sigma)):
                break
        value, dP = _eval_P(sigma, eta, mu, nu)
    except (PolePassed, OverflowError):     # overflow: far out of scale
        return None
    if abs(value) > tol * (1.0 + abs(sigma) ** 3):
        return None
    return sigma, value, dP


def solve_sigma(p, reference=None):
    """Continue the root from the reference ray to `p`.

    Straight-segment predictor-corrector (Euler + Newton) with step halving.
    Raises BoundaryReached when |dP/ds| collapses (root collision) and
    PolePassed when 5*eta - 3*s changes sign along the path.
    """
    # mu < 0 handled by the symmetry s(eta, mu, nu) = s(eta, -mu, nu)
    if p.mu < 0.0:
        p = Params(p.eta, -p.mu, p.nu)
    if reference is None:
        reference = Params(max(p.eta, 1.0), 0.0, 0.0)
    e0, m0, n0 = reference.eta, reference.mu, reference.nu
    de, dm, dn = p.eta - e0, p.mu - m0, p.nu - n0
    sigma = 2.5 * e0
    # P_s and (P_eta, P_mu) at (sigma, t); the corrector evaluated P_s
    dP = eval_P(sigma, reference)[1]
    P_eta, P_mu = _P_eta_mu(sigma, e0, m0)
    t = 0.0
    dt = 0.1
    pole_sign = 5.0 * e0 - 3.0 * sigma
    while t < 1.0:
        dt = min(dt, 1.0 - t)
        s = t + dt
        e, m, n = e0 + s * de, m0 + s * dm, n0 + s * dn
        # Euler predictor: ds = -(P_eta deta + P_mu dmu + P_nu dnu)/P_s
        pred = sigma - dt * (P_eta * de + P_mu * dm + dn) / dP
        got = _newton(pred, e, m, n)
        # guard against hopping onto a different branch across a pinch:
        # the D-root satisfies sigma > max(5 eta/3, 0) and its margin cannot
        # collapse by an order of magnitude within one accepted step.
        bad = got is None
        if not bad:
            s_new, _, dP_new = got
            scale = 1.0 + s_new * s_new
            bad = (s_new < max(5.0 * e / 3.0, 0.0) - 1e-9 * scale
                   or abs(dP_new) < BOUNDARY_MARGIN * scale
                   or abs(dP_new) < 0.1 * abs(dP) and dt > 1e-6)
        if bad:
            if dt > 1e-10:
                dt /= 2.0
                continue
            raise BoundaryReached(
                f"root became multiple near t={t:.6f} at {(e, m, n)}")
        sigma, _, dP = got
        new_sign = 5.0 * e - 3.0 * sigma
        if p.mu != 0.0 and (new_sign == 0.0 or (new_sign > 0) != (pole_sign > 0)):
            raise PolePassed(f"5*eta - 3*sigma changed sign near t={s:.6f}")
        pole_sign = new_sign
        t = s
        P_eta, P_mu = _P_eta_mu(sigma, e, m)
        dt = min(dt * 2.0, 0.1)
    value, dP = eval_P(sigma, p)
    if _is_multiple(sigma, p, dP):
        raise BoundaryReached("target point lies on the critical surface")
    return SigmaSolution(sigma=sigma, dP_dsigma=dP, residual=abs(value),
                         path_ok=True)


def viete_roots(b, c):
    """Three real roots of z^3 - b z / 2 + c / 3 = 0, sorted ascending.

    Trigonometric form, valid on 0 < b, |c| <= b^(3/2)/sqrt(6).
    """
    if not b > 0.0:
        raise DomainError("viete_roots requires b > 0")
    arg = c * math.sqrt(6.0) / b**1.5
    if abs(arg) > 1.0 + 1e-12:
        raise DomainError("discriminant condition |c| <= b^(3/2)/sqrt(6) violated")
    arg = min(1.0, max(-1.0, arg))
    r = math.sqrt(2.0 * b / 3.0)
    phi = math.asin(arg) / 3.0
    z0 = r * math.sin(phi)
    zp = r * math.sin(phi + 2.0 * math.pi / 3.0)
    zm = r * math.sin(phi - 2.0 * math.pi / 3.0)
    return VieteRoots(z_minus=zm, z_zero=z0, z_plus=zp)


def map_abc(q):
    """(a, b, c) -> ((eta, mu, nu), sigma) with sigma = 2 a^2."""
    a, b, c = q.a, q.b, q.c
    eta = 0.6 * (4.0 * a * a - b)
    mu = c * (b - 2.0 * a * a)
    nu = 8.0 * a**6 - 3.0 * a**4 * b - (2.0 / 3.0) * c * c
    return Params(eta, mu, nu), 2.0 * a * a


def jacobian_abc(q):
    """|d(eta,mu,nu)/d(a,b,c)| = (4/5)|a (6a^3-3ab+2c)(6a^3-3ab-2c)|.

    (The 3/5 of the eta-map belongs in the prefactor; finite differences of
    map_abc confirm 4/5.)
    """
    a, b, c = q.a, q.b, q.c
    f = 6.0 * a**3 - 3.0 * b * a
    return 0.8 * abs(a * (f + 2.0 * c) * (f - 2.0 * c))


def inverse_abc(p, sigma=None):
    """Numeric inverse of map_abc on the domain (a > 0 convention).

    a = sqrt(s/2), b = 2 s - 5 eta/3, c = -3 mu/(5 eta - 3 s) with s the
    continued root; the a < 0 mirror corresponds to (a, c) -> (-a, -c).
    """
    if sigma is None:
        sigma = solve_sigma(p).sigma
    a = math.sqrt(sigma / 2.0)
    b = 2.0 * sigma - 5.0 * p.eta / 3.0
    c = -3.0 * p.mu / (5.0 * p.eta - 3.0 * sigma) if p.mu != 0.0 else 0.0
    return ABCoords(a=a, b=b, c=c)


def in_domain_D(p):
    """Domain membership report; never raises."""
    try:
        sol = solve_sigma(p)
    except (BoundaryReached, PolePassed) as exc:
        return DomainReport(False, math.nan, 0.0, False, False, str(exc))
    sign_ok = sol.sigma > max(5.0 * p.eta / 3.0, 0.0)
    in_d = sol.path_ok and sign_ok
    reason = "" if in_d else "sign condition sigma > max(5 eta/3, 0) failed"
    return DomainReport(in_d, sol.sigma, abs(sol.dP_dsigma), sol.path_ok,
                        sign_ok, reason)


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
    first-order d s/d mu and d s/d eta from the implicit function theorem.

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
    grad = _param_gradient(sigma, p)
    return SigmaJets(sigma=sigma, dnu=tuple(tower),
                     dmu=-grad[1] / Ps, deta=-grad[0] / Ps)
