"""Critical-surface geometry and the Painleve I degeneration.

The boundary of the domain D is (part of) the zero set of the quintic
discriminant; its two distinguished curves are nu = (125/108) eta^3
(eta > 0, "plus stratum") and nu = 0 (eta < 0, "minus stratum").  Near
either stratum, with the coefficients drifting as below, the double-scaled
branch-equation root follows the pole-free Painleve I branch:
`tritronquee_constant` reads its leading coefficient off the branch
equation, one scaled cubic solved in doubles, and `pi_integrate` solves
Painleve I itself.

Conventions: Painleve I is q'' = 6 q^2 + x, on the branch seeded by
q ~ +sqrt(-x/6) as x -> -inf.  About the plus-stratum point eta0 > 0
(nu0 = (125/108) eta0^3) the coefficients drift as eta_hat = eta0 -
C n_eta x h^(4/5), nu_hat = nu0 - C n_nu x h^(4/5), for a direction n below
the tangent line and C = scaling_constant_plus(eta0, n); about the
minus-stratum point eta0 = -s < 0 only nu drifts, nu_hat = (5s/6)^(1/5)
x h^(4/5).  The tritronquee normalizer is exp(h^-2 tauhat0_exponent), the
quadratic Taylor polynomial (at the plus-stratum point) of the nu-analytic
part of varpi0.  It agrees with varpi0 and its gradient on the stratum, and
its differential cancels the leading phase-pairing residues.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .param_domain import DomainError


class PoleEncountered(RuntimeError):
    """No pole-free Painleve I trajectory on the interval (movable pole)."""


class InadmissibleDirection(ValueError):
    """Scaling direction does not point below the tangent line (C <= 0)."""


# ---------------------------------------------------------------------------
# critical surface
# ---------------------------------------------------------------------------

def surface_discriminant(p):
    """The 12-term discriminant polynomial D(eta, mu, nu).

    D is the essential factor of the sigma-discriminant of the cleared
    quintic (the full discriminant equals 1660753125 * mu^2 * D).  Note
    every monomial carries mu or nu, so D vanishes identically on the
    mu = nu = 0 ray: there the *other* roots of the quintic collide.  D
    vanishes wherever any two roots collide, so it does not decide
    membership in the domain D alone; that is nu < nu_critical(eta, mu)
    (`param_domain.in_domain_D`).
    """
    e, m, n = p.eta, p.mu, p.nu
    m2 = m * m
    m4 = m2 * m2
    return (Fraction(78125, 93312) * e**12 * n
            + Fraction(3125, 15552) * e**10 * m2
            - Fraction(625, 216) * e**9 * n**2
            - Fraction(75, 16) * e**7 * m2 * n
            - Fraction(17, 18) * e**5 * m4
            + Fraction(15, 4) * e**6 * n**3
            + Fraction(153, 20) * e**4 * m2 * n**2
            + 6 * e**2 * m4 * n
            - Fraction(54, 25) * e**3 * n**4
            + m2 * m4
            - Fraction(81, 25) * e * m2 * n**3
            + Fraction(1458, 3125) * n**5)


def surface_param(sigma, eta):
    """Parametrization of the critical surface over sigma > max(5 eta/3, 0).

    Returns (nu, mu_plus, mu_minus, t1, t2_plus, t5); the t-columns repeat
    the same polynomials in the unrescaled time variables.
    """
    floor = max(5.0 * eta / 3.0, 0.0)
    if sigma < floor - 1e-12 * (1.0 + abs(floor)):
        raise DomainError(
            "surface parametrization needs sigma >= max(5 eta/3, 0)")
    nu = -(5.0 * sigma / 12.0) * (5.0 * eta**2 - 9.0 * eta * sigma
                                  + 3.0 * sigma**2)
    mu = (math.sqrt(2.0 * sigma) / 12.0) * (5.0 * eta - 3.0 * sigma) ** 2
    return nu, mu, -mu, nu, mu, eta


def nu_critical(eta, mu):
    """Critical nu of the domain D: (eta, mu, nu) is in D iff nu < this.

    At nu = nu_critical the distinguished root (the largest real root
    above max(5 eta/3, 0) of the cleared quintic) collides with another
    root; above it no real root is left above that floor.  Bisects the
    surface parametrization |mu|(sigma), increasing above that floor, down
    to two adjacent doubles and returns nu(sigma) at the nearer.  It is nan
    where that overflows double precision (|eta| beyond about 1e102, or
    |mu| so large that (5 eta - 3 sigma)^2 does).
    """
    mu = abs(mu)
    floor = max(5.0 * eta / 3.0, 0.0)

    def mu_of(s):
        return (math.sqrt(2.0 * s) / 12.0) * (5.0 * eta - 3.0 * s) ** 2

    if not math.isfinite(5.0 * eta):
        return math.nan
    try:
        if mu == 0.0:
            return 125.0 * eta**3 / 108.0 if eta > 0 else 0.0
        # mu_of(floor) is 0 up to the rounding of 5 eta - 3 floor; where
        # that already reaches |mu| the root lies within rounding of floor
        lo = hi = floor
        if mu_of(lo) < mu:
            hi = max(2.0 * lo, 1.0)
            while mu_of(hi) < mu:
                lo, hi = hi, 2.0 * hi
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:    # mu_of(lo) < mu <= mu_of(hi)
                lo, hi = (mid, hi) if mu_of(mid) < mu else (lo, mid)
                mid = 0.5 * (lo + hi)
        s = min((lo, hi), key=lambda t: abs(mu_of(t) - mu))
        return surface_param(s, eta)[0]
    except OverflowError:
        return math.nan


def gauss_angle(eta):
    """Angle between the two surface normals along the plus stratum."""
    if not eta > 0:
        raise DomainError("the stratum requires eta > 0")
    e4 = 15625.0 * eta**4
    return math.acos((e4 - 4320.0 * eta + 1296.0)
                     / (e4 + 4320.0 * eta + 1296.0))


#: location of the unique maximum of gauss_angle: (2/(5 sqrt 5)) 3^(3/4)
GAUSS_ANGLE_ARGMAX = 2.0 * 3.0**0.75 / (5.0 * math.sqrt(5.0))


def gauss_angle_max():
    """(eta*, angle*) at the maximum of gauss_angle, eta* in closed form."""
    return GAUSS_ANGLE_ARGMAX, gauss_angle(GAUSS_ANGLE_ARGMAX)


# ---------------------------------------------------------------------------
# scaling constant
# ---------------------------------------------------------------------------

def _tangent_gap(eta0, n_vec):
    """125 eta0^2 n_eta/36 - n_nu: positive iff n lies below the tangent."""
    n_eta, n_nu = n_vec
    gap = 125.0 * eta0**2 * n_eta / 36.0 - n_nu
    if gap <= 0.0:
        raise InadmissibleDirection(
            "direction must lie below the tangent line of the stratum")
    return gap


def scaling_constant_plus(eta0, n_vec):
    """C of the plus-stratum drift along the direction n = (n_eta, n_nu)."""
    return (10.0 * eta0 / 3.0) ** 0.2 / _tangent_gap(eta0, n_vec)


# ---------------------------------------------------------------------------
# Painleve I machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PITrajectory:
    """A Painleve I solve on the points `x`: q, q' = p, the Hamiltonian H
    and H_residual = |dH/dx + q| = |p p' - (6 q^2 + x) q'|, with ' the exact
    derivatives of the two Chebyshev series of `dense`."""
    x: np.ndarray
    q: np.ndarray
    qprime: np.ndarray
    H: np.ndarray
    H_residual: np.ndarray
    dense: object = None        # ChebInterpolant; nodes .x


def pi_hamiltonian(x, q, qprime):
    """H = (1/2) q'^2 - 2 q^3 - x q; dH/dx = -q along trajectories."""
    return 0.5 * qprime**2 - 2.0 * q**3 - x * q


def pi_seed(x):
    """Two-term large-negative-x seed of the pole-free branch.

    q = sqrt(-x/6) - 1/(48 x^2) + O((-x)^(-9/2)).
    """
    if x >= 0:
        raise ValueError("seed valid for x < 0")
    r = math.sqrt(-x / 6.0)
    q = r - 1.0 / (48.0 * x * x)
    qp = -1.0 / (12.0 * r) + 1.0 / (24.0 * x**3)
    return q, qp


@dataclass(frozen=True)
class ChebInterpolant:
    """x -> (q, q', dq/dx, dq'/dx) from four Chebyshev series on the
    collocation nodes `x`.

    `coeffs` holds one series per column, zero-padded to one length, in
    t = off + scl x, which maps [x[0], x[-1]] onto [-1, 1].  A call
    evaluates the four columns by one Clenshaw recurrence (numpy's
    `chebval`); the zero padding leaves each column's values those of its
    own series, bit for bit.
    """
    x: np.ndarray
    coeffs: np.ndarray      # (length, 4)
    off: float
    scl: float

    def __call__(self, x):
        from numpy.polynomial.chebyshev import chebval
        return chebval(self.off + self.scl * x, self.coeffs)


def _cheb_nodes(n, a, b):
    """The n + 1 Chebyshev-Gauss-Lobatto points on [a, b], ascending, and
    the differentiation matrix on them (Trefethen, Spectral Methods in
    MATLAB, 2000, `cheb`)."""
    j = np.arange(n + 1)
    h = np.pi / (2 * n)
    # s_i - s_k for s_j = -cos(2 j h), as a product of sines: no
    # cancellation.  sin((i + k) h) and sin((i - k) h) are sin(m h) for the
    # integers m from -n to 2n, each computed once.
    sines = np.sin(np.arange(-n, 2 * n + 1) * h)
    ds = 2.0 * sines[j[:, None] + (j + n)] * sines[j[:, None] - (j - n)]
    ds.flat[::n + 2] = 1.0      # the diagonal, 0 + 1
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1.0 / c)
    D /= ds
    D.flat[::n + 2] -= D.sum(axis=1)
    D *= 2.0 / (b - a)
    x = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(2 * j * h)
    x[0], x[-1] = a, b
    return x, D


def _cheb_coeffs(v):
    """Chebyshev coefficients of the interpolant through the values `v` at
    the ascending nodes of `_cheb_nodes` (a DCT-I by a real FFT)."""
    n = len(v) - 1
    v = v[::-1]
    c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / n
    c[0] /= 2.0
    c[n] /= 2.0
    return c


def _clenshaw(x, c):
    """numpy's `chebval(x, c)` at a float x, for a list c of floats (three
    or more), in numpy's order of operations."""
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for ci in reversed(c[:-2]):
        c0, c1 = ci - c1, c0 + c1 * x2
    return c0 + c1 * x


def _chebder(c, scl):
    """numpy's `chebder(c, 1, scl)` on a list c of floats (three or more),
    in numpy's order of operations: a list of floats, one shorter."""
    c = [v * scl for v in c]
    n = len(c) - 1
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    der[1] = 4 * c[2]
    der[0] = c[1]
    return der


def _chebint(c, lbnd, scl):
    """numpy's `chebint(c, 1, [], lbnd, scl)` on a list c of floats (two or
    more), in numpy's order of operations: a list of floats, one longer,
    whose series is 0 at lbnd."""
    c = [v * scl for v in c]
    n = len(c)
    tmp = [0.0] * (n + 1)
    tmp[0] = c[0] * 0
    tmp[1] = c[0]
    tmp[2] = c[1] / 4
    for j in range(2, n):
        tmp[j + 1] = c[j] / (2 * (j + 1))
        tmp[j - 1] -= c[j] / (2 * (j - 1))
    tmp[0] += 0 - _clenshaw(lbnd, tmp)
    return tmp


#: node-count cap of `pi_integrate`: n doubles from 64 up to this
PI_MAX_N = 1024


def pi_integrate(x_start, x_end, n_points=512, tol=1e-11, blowup=1e6):
    """Solve q'' = 6 q^2 + x on [x_start, x_end], seeded at x_start.

    x_start <= -20 is required so the two-term seed is accurate.  The
    pole-free branch is a connection problem: the linearization carries a
    mode growing like exp(int sqrt(12 q)), which makes a plain forward
    march lose the branch within a few units (and blow up at a spurious
    movable pole).  The trajectory is therefore computed as a
    boundary-value problem: the seed value at the left end, and a
    decaying-direction Robin condition at the right end, which suppresses
    the growing mode where it would amplify.

    Method: Chebyshev collocation (Trefethen 2000; Fornberg & Weideman,
    J. Comput. Phys. 2011, solve the pole-free segments of PI the same
    way).  On the n + 1 Chebyshev-Gauss-Lobatto points of [x_start, x_end]
    the equation reads D^2 q = 6 q^2 + x, with its first and last rows
    replaced by the two boundary conditions; Newton's method solves it
    with dense linear solves, from q = sqrt(max(-x, 1e-3)/6) at n = 64 and
    from the previous interpolant after that.  n doubles while the
    trailing eighth of the Chebyshev coefficients of q exceeds `tol`
    relative to the largest one, up to n = PI_MAX_N: [-24, -1] and
    [-30, -1] take n = 64, [-40, 0] takes 128 and [-1e4, -1] takes 1024.

    `dense` holds four Chebyshev series on the nodes (`dense.x`): the
    interpolant of q through them, q' as the integral of 6 q^2 + x from
    the Robin value at x_end, and the exact derivatives of both.  One
    evaluation of the four on `n_points` equispaced points gives the
    trajectory: q, q', H and H_residual = |p p' - (6 q^2 + x) q'| (p = q'),
    by how much dH/dx = -q fails.  The series are built by loops over
    floats in numpy's own order of operations (`_chebder`, `_chebint`), so
    every value is the one numpy's `Chebyshev` class gives.

    Raises PoleEncountered where no pole-free solution is found (a movable
    pole on or near the interval, as on [-24, 3]): Newton's method does
    not converge in 30 steps, the coefficients have not decayed at
    n = PI_MAX_N, or |q| exceeds `blowup` on the output grid.

    Near the right end the computed trajectory can deviate from the true
    pole-free branch at the neighboring-solution scale exp(-(4/5) 12^(1/2)
    6^(-1/4) (-x)^(5/4)); it remains an accurate solution of the equation
    itself throughout (the Hamiltonian identity is unaffected).
    """
    if x_start > -20.0:
        raise ValueError("x_start must be <= -20 (asymptotic seed region)")
    if x_end <= x_start:
        raise ValueError("x_end must exceed x_start")
    from numpy.polynomial import chebyshev, polyutils

    q_left, _ = pi_seed(x_start)
    if x_end < 0.0:
        w_r, wp_r = pi_seed(x_end)
    else:
        w_r, wp_r = 0.0, -1.0
    slope = -math.sqrt(12.0 * max(w_r, 0.05))
    # t = off + scl x maps [x_start, x_end] onto the series' [-1, 1]
    off, scl = polyutils.mapparms([x_start, x_end], [-1.0, 1.0])

    n, c = 64, None
    while True:
        x, D = _cheb_nodes(n, x_start, x_end)
        D2 = D @ D
        q = (np.sqrt(np.maximum(-x, 1e-3) / 6.0) if c is None
             else chebyshev.chebval(off + scl * x, c))
        converged = False
        for _ in range(30):
            F = D2 @ q - 6.0 * q * q - x
            J = D2.copy()
            J.flat[::n + 2] -= 12.0 * q
            F[0] = q[0] - q_left
            J[0] = 0.0
            J[0, 0] = 1.0
            F[-1] = D[-1] @ q - wp_r - slope * (q[-1] - w_r)
            J[-1] = D[-1]
            J[-1, -1] -= slope
            try:
                dq = np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                break
            q = q - dq
            # a nan step fails this test
            converged = (np.max(np.abs(dq))
                         <= 1e-13 * (1.0 + np.max(np.abs(q))))
            if converged or not np.all(np.isfinite(q)):
                break
        if not converged:
            raise PoleEncountered(
                f"no pole-free solution on [{x_start!r}, {x_end!r}]: Newton's "
                f"method did not converge on {n + 1} Chebyshev nodes")
        c = _cheb_coeffs(q)
        if np.max(np.abs(c[-(n // 8):])) <= tol * np.max(np.abs(c)):
            break
        if n >= PI_MAX_N:
            raise PoleEncountered(
                f"no pole-free solution on [{x_start!r}, {x_end!r}]: the "
                f"Chebyshev coefficients do not fall below {tol!r} on "
                f"{n + 1} nodes")
        n *= 2
    # q' integrates q'' = 6 q^2 + x back from the Robin value at x_end:
    # differentiating the interpolant amplifies the rounding of q by ~n^2
    # (1e-12 at x_start on [-40, 0], against 1e-13 this way)
    qprime = _chebint(_cheb_coeffs(6.0 * q * q + x).tolist(),
                      off + scl * x_end, 1.0 / scl)
    qprime[0] += float(wp_r + slope * (q[-1] - w_r))
    coeffs = np.zeros((n + 2, 4))
    coeffs[:n + 1, 0] = c
    coeffs[:, 1] = qprime
    coeffs[:n, 2] = _chebder(c.tolist(), scl)
    coeffs[:n + 1, 3] = _chebder(qprime, scl)
    dense = ChebInterpolant(x=x, coeffs=coeffs, off=off, scl=scl)
    xs = np.linspace(x_start, x_end, n_points)
    q, qp, dq, dqp = dense(xs)
    if np.max(np.abs(q)) > blowup:
        raise PoleEncountered("trajectory magnitude exceeded the pole guard")
    return PITrajectory(x=xs, q=q, qprime=qp, H=pi_hamiltonian(xs, q, qp),
                        H_residual=np.abs(qp * dqp - (6.0 * q * q + xs) * dq),
                        dense=dense)


def tauhat0_exponent(eta, nu, eta0):
    """Quadratic normalizer exponent at the plus-stratum point eta0.

    Equals varpi0 and its (eta, nu)-gradient on the stratum; hbar^2 log of
    the normalizing factor.
    """
    return (-Fraction(15625, 15552) * eta0**5 * eta**2
            + Fraction(78125, 69984) * eta0**6 * eta
            + Fraction(625, 648) * eta0**3 * eta * nu
            - Fraction(78125, 244944) * eta0**7
            - Fraction(625, 1296) * eta0**4 * nu
            - Fraction(5, 12) * eta0 * nu**2)


def _cubic_root(delta):
    """The positive root of T^3/2 + T^2 + delta, delta < 0, by Newton's
    method from sqrt(-delta): the cubic is increasing and convex on T > 0,
    so the iterates decrease until rounding stops them, an ulp or two off."""
    t = math.sqrt(-delta)
    while True:
        nxt = t - ((0.5 * t + 1.0) * t * t + delta) / ((1.5 * t + 2.0) * t)
        if not nxt < t:
            return t
        t = nxt


def tritronquee_constant(eta0, side, n_vec=(0.0, -1.0), x=-1.0):
    """Leading coefficient of the double-scaled branch root against
    sqrt(-x); equals 6^(-1/2) on both strata.

    Plus stratum: c = lim (1/4) (10 eta0/3)^(2/5) h^(-2/5)
                         [sigma(eta_hat, 0, nu_hat) - 5 eta_hat/3] / sqrt(-x)
    Minus stratum: c = lim (1/2) (5s/6)^(2/5) h^(-2/5)
                         sigma(eta0, 0, nu(h)) / sqrt(-x),  s = -eta0.

    On mu = 0 the branch equation is s^3/2 - (5/4) eta s^2 + nu.  Shifted
    to its double point (s = 5 eta_hat/3, resp. 0) it is t^3/2 + b t^2 + d,
    b = (5/4)|eta_hat| > 0 > d, the drift d written without its O(eta0^3)
    cancellation; t = b T makes it T^3/2 + T^2 + delta, delta = d/b^3, on
    both strata (the minus one is the plus one with n = (0, -1)).
    Richardson in h^(2/5) on h = 1e-10 and 1e-10/32 removes the leading
    splitting correction, whose size delta sets.  As b is O(|eta0|) and d
    is O(|eta0|^(1/5) h^(4/5)), both h are scaled by min(1, |eta0|)^(7/2):
    delta does not grow as eta0 -> 0, and on the default direction and the
    minus stratum neither delta nor the result depends on |eta0| < 1.
    Above 1 the powers of max(1, |eta0|) are kept apart, so none
    overflows; delta leaves the normal doubles near |eta0| = 1e106.
    Doubles suffice: nothing cancels in the scaled cubic, the root's
    relative condition number in delta is (T/2 + 1)/(3T/2 + 2) <= 1/2, and
    the step (4 v(h/32) - v(h))/3 multiplies rounding by at most 5/3.
    """
    if x >= 0:
        raise ValueError("x must be negative (real splitting side)")
    # per stratum, e = |eta0|: k = C/e^(1/5) of the drift, a of the root;
    # below, the drift C x h^0.8, eps = eta0 - eta_hat, b and d are taken
    # over e^3, e, e and e^3
    try:
        if side == "plus" and eta0 > 0:
            e, (n_eta, n_nu) = eta0, n_vec
            k = (10 / 3) ** 0.2 / _tangent_gap(e, n_vec)
            a = 0.25 * (10 / 3) ** 0.4
        elif side == "minus" and eta0 < 0:
            e, n_eta, n_nu = -eta0, 0.0, -1.0
            k, a = (5 / 6) ** 0.2, 0.5 * (5 / 6) ** 0.4
        else:
            raise DomainError(f"no {side!r} stratum through eta0 = {eta0!r}")
        big = max(1.0, e) ** 1.4
    except OverflowError:
        # eta0^2 in the tangent gap, or e^1.4, is past double range
        raise DomainError(f"eta0 = {eta0!r} overflows the scaled cubic") \
            from None
    vals = []
    for h in (1e-10, 1e-10 / 32.0):
        g = k * x * h**0.8 / big / big
        eps = g * n_eta * e * e
        b = 1.25 * (1.0 - eps)
        d = 125.0 / 108.0 * eps * (3.0 - 3.0 * eps + eps * eps) - g * n_nu
        delta = d / (b * b * b)
        if not delta <= -2.0**-1022:    # not a normal double
            raise DomainError(f"eta0 = {eta0!r} underflows the scaled cubic")
        vals.append(a * b * big * _cubic_root(delta) / h**0.4)
    return (4.0 * vals[1] - vals[0]) / 3.0 / math.sqrt(-x)  # 32^(2/5) = 4
