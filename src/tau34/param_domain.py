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

One rule solves one point and a grid.  The start, the Newton steps, their
stopping and failure tests and the multiplicity test are written once, and
run unchanged on Python floats (`solve_sigma`, `in_domain_D`) and on 1-d
float arrays (`in_domain_D_grid`, one array solve for a whole grid).

- Outcomes are flags, not exceptions, and they are kept per entry: an entry
  that stops or fails keeps its iterate while the others go on, and no
  operation mixes entries.  So a grid entry does not depend on the rest of
  the batch.
- The rule uses + - * / only, never **: numpy's array ** rounds unlike
  libm's pow at about 5% of arguments, while the basic operations round
  alike in both.  The few fractional powers (the start's, the square root
  of the multiplicity floor) go through libm's pow on both paths (`_pow`).
- The rule's constants are formed once per solve (`_Constants`), as 0-d
  arrays on a grid, where numpy would convert a Python float at each
  operation.
- `_Constants`, `_where`, `_any` and `_pow` are the only code that tells a
  float from an array.

So a grid entry equals the one-point call bit for bit.
"""
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


class DomainError(ValueError):
    """Input outside the documented parameter domain."""


class BoundaryReached(DomainError):
    """No simple root above max(5 eta/3, 0): the point is outside D."""


# scale-aware margin below which the root is declared multiple
BOUNDARY_MARGIN = 1e-8
NEWTON_TOL = 1e-13
# from the start below, Newton needs about log2(start / (root gap)) steps
NEWTON_MAXIT = 100


def _where(cond, a, b):
    """a where cond holds, else b: on arrays written into b, which the
    caller must own (half the cost of np.where), on floats a branch."""
    if isinstance(cond, np.ndarray):
        np.copyto(b, a, where=cond)
        return b
    return a if cond else b


def _any(flags):
    """Whether any flag holds (a float's flag is a bool); counting is a
    third of the cost of ndarray.any on a grid."""
    if isinstance(flags, np.ndarray):
        return np.count_nonzero(flags) > 0
    return flags


def _pow(x, e):
    """x**e by libm's pow, elementwise on arrays."""
    if isinstance(x, np.ndarray):
        return np.array([v ** e for v in x.tolist()])
    return x ** e


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


class _Constants:
    """What `_P` and `_newton` read besides sigma, formed once per solve: nu,
    the eta and mu products of P, and the rule's literal constants.

    On a grid the literals are 0-d arrays: numpy converts a Python float
    operand afresh at every ufunc call, which costs about as much as the
    operation itself on a 100-entry grid, and takes a 0-d array as it is.
    On a float they stay Python floats, set on the instance like the rest,
    where the interpreter reads them faster than from the class.  The
    operations, and so the roundings, are those of P written out left to
    right: 5 eta - 3 s, (1.25 eta) s^2, (2.5 eta) s and ((6 mu) mu)/den^2
    form the same products inline or hoisted.
    """
    LITERALS = (0.0, 1.0, 3.0, 0.5, 1.5, 6.0, math.inf, True, BOUNDARY_MARGIN,
                1e-16)

    def __init__(self, p):
        eta, mu = p.eta, p.mu
        self.nu, self.mu_nonzero = p.nu, mu != 0.0
        self.eta5, self.eta5_4, self.eta5_2 = 5.0 * eta, 1.25 * eta, 2.5 * eta
        self.mu6 = 6.0 * mu * mu
        literals = self.LITERALS
        if isinstance(eta, np.ndarray):
            literals = map(np.asarray, literals)
        (self.zero, self.one, self.three, self.half, self.three_halves,
         self.six, self.inf, self.true, self.margin, self.tiny) = literals


def _P(sigma, c):
    """(P, P_s, on the pole) at sigma, on floats or arrays, for the
    `_Constants` c of the point or grid.

    The pole 5 eta = 3 sigma is where (5 eta - 3 sigma)^2 is 0; there the
    denominator becomes 1 (adding the flag: den + 1 rounds to 1 when den^2
    is 0, and den + 0 is den), so nothing divides by zero, and the flag
    holds when mu != 0 (at mu = 0 the pole term is 0 and P is exact).
    """
    s2 = sigma * sigma
    den = c.eta5 - c.three * sigma
    pole = den * den == c.zero
    den = den + pole
    q = c.mu6 / (den * den)
    return (c.nu + c.half * s2 * sigma - c.eta5_4 * s2 + q,
            c.three_halves * s2 - c.eta5_2 * sigma + c.six * q / den,
            pole & c.mu_nonzero)


def eval_P(sigma, p):
    """P(sigma; p) and dP/dsigma at one point, exactly as written (pole term
    included); ZeroDivisionError on the pole."""
    value, dP, pole = _P(sigma, _Constants(p))
    if pole:
        raise ZeroDivisionError("sigma is on the pole 5 eta = 3 sigma")
    return value, dP


def _is_multiple(sigma, p, dP):
    """Root-collision test at a converged root with P_s = dP.

    |P_s| < 1e-8 (1+s^2) is the documented hard floor, but at an exact double
    root Newton stalls with |P_s| ~ sqrt(|P_ss| * residual) ~ 1e-6, so the
    margin is also compared against that Newton-basin floor.  P_ss's pole
    term 324 mu^2/den^4 is written 54 q/den^2 with q = 6 mu^2/den^2, so it
    divides by nothing smaller than P does.
    """
    eta, mu = p.eta, p.mu
    den = 5.0 * eta - 3.0 * sigma
    den2 = den * den
    den2 = den2 + (den2 == 0.0)
    dP2 = 3.0 * sigma - 2.5 * eta + 54.0 * (6.0 * mu * mu / den2) / den2
    floor = _pow(8.0 * abs(dP2) * NEWTON_TOL
                 * (1.0 + abs(sigma * sigma * sigma)), 0.5)
    margin = abs(dP)
    return (margin < BOUNDARY_MARGIN * (1.0 + sigma * sigma)) \
        | (margin < floor)


def _newton(sigma, c):
    """Newton iterations on P, for the `_Constants` c of a point or grid,
    from the right of its largest root above max(5 eta/3, 0); returns
    (sigma, value, dP, converged, overflowed).

    On s > max(5 eta/3, 0), P is strictly convex:

        P_ss = 3 s - 5 eta/2 + 324 mu^2/(5 eta - 3 s)^4 > 0.

    So from a start where P >= 0 and P_s > 0 the iterates decrease
    monotonically onto the largest root; they stop once rounding makes the
    step negligible or negative, or once the iterate no longer moves: the
    rounding noise of P at the root over P_s can keep the step above the
    negligible bound while s - step rounds back to s, and such an iterate
    would repeat until the step limit, so stopping it moves no root.  Where
    there is no root they pass the minimum of P, and P_s turns
    non-positive.  An iterate fails there, on the pole, or where P or P_s
    is not finite (it overflowed), and a stopped one converged if its
    residual is at most NEWTON_TOL (1 + |s|^3).
    The same lines run on a float and on arrays, with + - * / only, so
    both round alike.  Each flag is per entry on arrays, and an entry that
    stops or fails keeps its iterate while the others go on, so no entry
    depends on the rest of the batch, and the last evaluation is at every
    entry's final iterate: it holds the residual of a stopped entry and
    shows whether a failed one overflowed.  On a grid the iterate is updated
    in place, so the start must be the caller's own array.
    """
    zero, one, true, margin, tiny = c.zero, c.one, c.true, c.margin, c.tiny
    live = abs(sigma) < c.inf
    done = False
    for k in range(NEWTON_MAXIT + 1):
        value, dP, pole = _P(sigma, c)
        # 0 x is +-0 at a finite x and nan at inf or nan; on flags, a > b
        # is a and not b
        finite = zero * value * dP == zero
        ok = finite > pole
        live = live & ok & (dP >= margin * (one + sigma * sigma))
        if k == NEWTON_MAXIT or not _any(live):
            break
        step = value / dP
        nxt = sigma - step
        stop = (step < tiny * (one + abs(nxt))) | (nxt == sigma)
        sigma = _where(live, nxt, sigma)
        done = done | (live & stop)
        live = live > stop
    converged = done & ok \
        & (abs(value) <= NEWTON_TOL * (one + abs(sigma * sigma * sigma)))
    return sigma, value, dP, converged, (finite | pole) ^ true


def _start(p):
    """A point right of every root of P above max(5 eta/3, 0), where P >= 0
    and P_s > 0 (inf where that overflows).

    At s >= 5|eta|/2 + (2|nu|)^(1/3) the cubic part of P is >= 0, and at
    s >= 5|eta|/2 + (72 mu^2)^(1/5) the cubic part of P_s, at least s^2/2,
    exceeds the pole part, at most 36 mu^2/s^3; the pole part of P is >= 0.
    """
    return 1.5 * (2.5 * abs(p.eta) + _pow(2.0 * abs(p.nu), 1.0 / 3.0)
                  + 72.0**0.2 * _pow(abs(p.mu), 0.4))


def _solve(p):
    """The rule on a point or a grid: (sigma, value, dP, root, in_D,
    overflowed).

    root holds where Newton converged above max(5 eta/3, 0), in_D where
    that root is also simple, and overflowed where the start, or P or P_s at
    the last iterate, is not finite.
    """
    sigma, value, dP, converged, over = _newton(_start(p), _Constants(p))
    root = converged & (sigma > 5.0 * p.eta / 3.0) & (sigma > 0.0)
    in_D = root & (_is_multiple(sigma, p, dP) ^ True)
    return sigma, value, dP, root, in_D, over


def solve_sigma(p):
    """The distinguished root: the largest real root of P above
    max(5 eta/3, 0), which is that of the cleared quintic.

    Raises BoundaryReached (a DomainError) when that root does not exist or
    is not simple, i.e. when p is outside D, and DomainError when P
    overflows at the scale of p.  `in_domain_D_grid` runs the same rule on
    arrays, so this root is bit-equal to a grid's entry for p.
    """
    sigma, value, dP, root, in_D, over = _solve(p)
    if over:
        raise DomainError("branch equation overflows at this scale")
    if not root:
        raise BoundaryReached(
            "no real root above max(5 eta/3, 0): the point is on or "
            "past the critical surface")
    if not in_D:
        raise BoundaryReached("the root is multiple: the point lies on "
                              "the critical surface")
    return SigmaSolution(sigma=sigma, dP_dsigma=dP, residual=abs(value))


def in_domain_D(p):
    """Domain membership report; never raises."""
    try:
        sol = solve_sigma(p)
    except DomainError as exc:
        return DomainReport(False, math.nan, 0.0, str(exc))
    return DomainReport(True, sol.sigma, abs(sol.dP_dsigma), "")


def in_domain_D_grid(eta, mu, nu):
    """`in_domain_D` on 1-d float arrays, in one array Newton solve: the
    arrays (in_D, sigma, margin), each entry bit-equal to the one-point
    report's field (sigma nan and margin 0 outside D)."""
    eta, mu, nu = (np.asarray(a, dtype=float) for a in (eta, mu, nu))
    if not all(np.isfinite(a).all() for a in (eta, mu, nu)):
        raise DomainError("parameters must be finite")
    p = SimpleNamespace(eta=eta, mu=mu, nu=nu)      # Params with array fields
    with np.errstate(all="ignore"):
        sigma, _, dP, _, in_D, _ = _solve(p)
        return (in_D, np.where(in_D, sigma, math.nan),
                np.where(in_D, abs(dP), 0.0))


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
