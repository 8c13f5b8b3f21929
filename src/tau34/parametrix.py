"""Stokes-data algebra, the explicit global parametrix and the first
correction residue.

The 3x3 Riemann-Hilbert problem carries 14 Stokes parameters s_{+-1..+-7}
on rays at angles +-pi/14 +- pi/7 (k-1), one elementary matrix I + s_k E_ij
per ray, a cyclic matrix on the negative axis, and the product constraint

    S_-7 ... S_-1 S_1 ... S_7 = Scal^T.

The symmetric (s_k = -s_{k+8}) solution manifold contains seven planes; the
distinguished data set sits on the intersection of planes 0 and 1.

The global parametrix M solves the two-cut model problem in closed form via
the uniformization coordinates; the first small-norm correction is the
residue W1 of M (P1 (+) 0) M^-1 at the left branch point beta.  Near beta
the sheet roots are power series in omega = sqrt(lam - beta) (scaled), so
W1 is one coefficient of a finite Laurent computation (`residue_W1`): no
radius, no nodes.

M is evaluated on arrays: `global_M` and `global_M_sides` take the
`SpectralCurve` and an array of lam (or x) and return (..., 3, 3) stacks
(3x3 for a scalar) from one call of `_kernels.sheet_roots`, the one root
kernel, on and off the cuts; so do the jump residuals and normalization fit.
"""
import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral_curve import (BRANCH_POINT_TOL, OMEGA, OnBranchPoint,
                             uniformize_all)

#: E_ij index pattern of the ray matrices, S_k = I + s_k E[pattern[k]]
STOKES_PATTERN = {
    1: (2, 1), -1: (3, 1),
    2: (2, 3), -2: (3, 2),
    3: (1, 3), -3: (1, 2),
    4: (1, 2), -4: (1, 3),
    5: (3, 2), -5: (2, 3),
    6: (3, 1), -6: (2, 1),
    7: (2, 1), -7: (3, 1),
}

#: cyclic matrix on the negative real axis
SCAL = ((0, 1, 0), (0, 0, 1), (1, 0, 0))

#: the distinguished truncated data set (indices 1..7)
TRUNCATED_S7 = (0, -1, 0, 0, 1, -1, 0)

#: symmetric-plane parametrizations in the seven parameters (s1..s7);
#: entries are ints (fixed) or (variable, slope, offset) for the affine
#: slot slope * variable + offset in a free parameter 'x' or 'y'
STOKES_PLANES = {
    0: (("x", 1, 1), -1, 0, 0, 1, ("x", 1, 0), ("y", 1, 0)),
    1: (0, -1, ("x", 1, 0), ("y", 1, 0), ("x", -1, 1), -1, 0),
    2: (("x", 1, 0), ("y", 1, -1), 1, 0, 0, -1, ("y", 1, 0)),
    3: (0, 0, 1, ("x", 1, 0), ("y", 1, 0), ("x", -1, -1), 1),
    4: (("x", 1, 0), ("y", 1, 0), ("x", -1, 1), -1, 0, 0, 1),
    5: (1, 0, 0, -1, ("y", -1, 1), ("x", 1, 0), ("y", 1, 0)),
    6: (1, ("y", -1, -1), ("x", 1, 0), ("y", 1, 0), 1, 0, 0),
}


@dataclass(frozen=True)
class StokesData:
    s: dict     # k -> parameter, k in +-1..+-7

    @classmethod
    def truncated(cls):
        return cls.from_seven(TRUNCATED_S7)

    @classmethod
    def from_seven(cls, s7):
        """Build the symmetric 14-parameter set: s_{k-8} = -s_k."""
        s = {}
        for i, val in enumerate(s7, start=1):
            s[i] = val
            s[i - 8] = -val
        return cls(s=s)


def _exact(x):
    """x as an exact rational: ints and Fractions as they are, a float as
    the ratio with denominator up to 10^6 nearest to it, which must round
    back to the float (0.1 is 1/10; pi and 0.1 + 1e-13 raise ValueError)."""
    if isinstance(x, (int, Fraction)):
        return x
    f = Fraction(x).limit_denominator(10**6)
    if float(f) != x:
        raise ValueError(f"Stokes parameter {x!r} is not exactly representable")
    return f


def identity3():
    return [[int(i == j) for j in range(3)] for i in range(3)]


def _stokes_product(data):
    """S_-7 ... S_-1 S_1 ... S_7, exact.  Right-multiplying by
    S_k = I + s_k E_ij adds s_k times column i to column j."""
    prod = identity3()
    for k in list(range(-7, 0)) + list(range(1, 8)):
        i, j = STOKES_PATTERN[k]
        s = _exact(data.s[k])
        for row in prod:
            row[j - 1] += s * row[i - 1]
    return prod


def stokes_check(data):
    """Exact product identity S_-7 ... S_-1 S_1 ... S_7 == Scal^T (in
    integers for integer data)."""
    target = [[SCAL[j][i] for j in range(3)] for i in range(3)]
    return _stokes_product(data) == target


def plane_membership(s7, tol=1e-12):
    """Labels of the symmetric Stokes planes containing the 7-tuple.

    Each plane slot is either a fixed integer or an affine expression in one
    free parameter with slope +-1; membership solves the free parameters and
    checks consistency across repeated slots.
    """
    out = set()
    for label, pattern in STOKES_PLANES.items():
        free = {}
        ok = True
        for pat, val in zip(pattern, s7):
            if isinstance(pat, int):
                if abs(val - pat) > tol:
                    ok = False
                    break
                continue
            var, slope, offset = pat
            need = (val - offset) / slope
            if var in free and abs(free[var] - need) > tol:
                ok = False
                break
            free[var] = need
        if ok:
            out.add(label)
    return out


# ---------------------------------------------------------------------------
# Airy coefficient series and the correction factors P_k
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AiryCoeffs:
    s: tuple    # Fractions s_0..s_kmax
    t: tuple


def airy_series(kmax):
    """Exact rationals via s_k / s_(k-1) = (6k-5)(6k-1)/(72 k); t_0 = 1 and
    t_k = (1+6k)/(1-6k) s_k."""
    if not 0 <= kmax <= 20:
        raise ValueError("kmax must be between 0 and 20")
    s = [Fraction(1)]
    t = [Fraction(1)]
    for k in range(1, kmax + 1):
        s.append(s[-1] * Fraction((6 * k - 5) * (6 * k - 1), 72 * k))
        t.append(Fraction(1 + 6 * k, 1 - 6 * k) * s[-1])
    return AiryCoeffs(s=tuple(s), t=tuple(t))


@functools.cache
def P_k_factor(k):
    """The zeta-free factor (1/2) [[1,-i],[-i,1]] diag(s_k,t_k)
    [[(-1)^k, i], [(-1)^k i, 1]] of P_k, computed once per k and read-only."""
    coeffs = airy_series(k)
    A = np.array([[1.0, -1.0j], [-1.0j, 1.0]])
    D = np.diag([float(coeffs.s[k]), float(coeffs.t[k])])
    B = np.array([[(-1.0) ** k, 1.0j], [(-1.0) ** k * 1.0j, 1.0]])
    out = 0.5 * (A @ D @ B)
    out.setflags(write=False)
    return out


def P_k_matrix(k, zeta):
    """P_k(zeta) = P_k_factor(k) (2/3 zeta^(3/2))^(-k), principal
    zeta^(3/2)."""
    zeta = complex(zeta)
    if zeta.real <= 0.0 and zeta.imag == 0.0:
        raise ValueError("zeta on (-inf, 0] is on the branch cut")
    return P_k_factor(k) * ((2.0 / 3.0) * zeta ** 1.5) ** (-k)


# ---------------------------------------------------------------------------
# global parametrix
# ---------------------------------------------------------------------------

def _phi_rows(u, sigma):
    """M_ij = phi_i(u_j) for sheet roots u (..., 3): shape (..., 3, 3).

    sqrt cut on [-a, a], a = sqrt(s/2), branch with 1/sqrt(u^2 - a^2) =
    u^-1 + O(u^-2).  An exactly real u is the root at lam + i0: its zero
    imaginary part takes the sign of Im u there, which is that of
    lam'(u) ~ u^2 - a^2, so -0 inside the cut and +0 outside.  Only the
    middle root of a real lam in the gap (beta, alpha) lies inside; the
    real roots on both cuts lie outside, where the sign does not matter.
    """
    a = math.sqrt(sigma / 2.0) if sigma > 0 else 0.0
    u = np.asarray(u, dtype=complex).copy()
    real = u.imag == 0.0
    # set .imag itself: a complex product such as 1j * -0.0 rounds to +0.0
    u.imag[real] = np.copysign(0.0, np.abs(u.real[real]) - a)
    srt = np.sqrt(u - a) * np.sqrt(u + a)
    pref = 1j / math.sqrt(3.0)
    return np.stack([pref * (u * u - 0.75 * sigma) / srt,
                     pref * u / srt,
                     pref / srt], axis=-2)


def global_M(curve, lam):
    """The 3x3 parametrix M_ij(lam) = phi_i(u_j(lam)), with the column-2
    sign flip in the lower half plane; Im lam = +-0 is the upper limit, as in
    the root kernel.  An array of lam gives a stack lam.shape + (3, 3)."""
    lam = np.asarray(lam, dtype=complex)
    flat = lam.ravel()
    near = np.minimum(np.abs(flat - curve.alpha), np.abs(flat - curve.beta))
    at_branch = near < BRANCH_POINT_TOL * (1.0 + np.abs(flat))
    if at_branch.any():
        raise OnBranchPoint(
            f"lambda = {complex(flat[at_branch][0])} is at a branch point")
    u = uniformize_all(curve, flat).T
    # in the gap all three roots are real, and the kernel's imaginary parts
    # are rounding noise of either sign, which would pick the branch
    gap = (flat.imag == 0.0) & (flat.real > curve.beta) \
        & (flat.real < curve.alpha)
    u[gap] = u[gap].real
    M = _phi_rows(u, curve.sigma)
    M[flat.imag < 0.0, :, 1] *= -1.0
    return M.reshape(lam.shape + (3, 3))


def global_M_sides(curve, x):
    """Boundary values (M(x + i0), M(x - i0)) of M on a cut.  The upper
    side's roots are the root kernel's at real x, and the lower side's are
    their conjugates.  An array of x gives two stacks of shape
    x.shape + (3, 3)."""
    x = np.asarray(x, dtype=float)
    u = uniformize_all(curve, x.ravel()).T
    Mp = _phi_rows(u, curve.sigma)
    Mm = _phi_rows(u.conjugate(), curve.sigma)
    Mm[..., 1] *= -1.0
    return Mp.reshape(x.shape + (3, 3)), Mm.reshape(x.shape + (3, 3))


#: J V^-1 / (i/sqrt 3) in the upper and the lower half plane (`fhat_inv`)
_FHAT_INV_LEFT = np.array(
    [[[1, 1, 1], [OMEGA, 1, OMEGA**2], [OMEGA**2, 1, OMEGA]],
     [[1, 1, 1], [-OMEGA**2, -1, -OMEGA], [OMEGA, 1, OMEGA**2]]]) \
    / (1j * math.sqrt(3.0))


def fhat_inv(lam):
    """Inverse of the normalization matrix f-hat(lam) = (i/sqrt 3)
    diag(l, 1, 1/l) V J, l = lam^(1/3), as a stack lam.shape + (3, 3).

    V is the third-root Vandermonde [[1, w, w^2], [1, 1, 1], [1, w^2, w]],
    J = 1 (+) sigma1 for Im lam >= 0 and sigma3 (+) 1 below; V^-1 = V^H / 3
    and J^-1 = J give the inverse J V^H diag(1/l, 1, l) / (i sqrt 3).
    """
    lam = np.asarray(lam, dtype=complex)
    t = lam ** (1.0 / 3.0)
    d = np.stack([1.0 / t, np.ones_like(t), t], axis=-1)
    return _FHAT_INV_LEFT[np.where(lam.imag >= 0.0, 0, 1)] * d[..., None, :]


#: cut jump factors of M: on [alpha, inf) M+ = M- (1 (+) -i sigma2); on
#: (-inf, beta] the ray is oriented outward (toward -inf), so the + side is
#: the lower half plane: M(x - i0) = M(x + i0) ((-i sigma2) (+) 1).
JUMP_ALPHA = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=complex)
JUMP_BETA = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)

#: reflection factors: M(lam; eta, mu, nu) =
#:   diag(1,-1,1) M(-lam; eta,-mu,nu) REFLECT_RIGHT
REFLECT_LEFT = np.diag([1.0, -1.0, 1.0]).astype(complex)
REFLECT_RIGHT = np.array([[0, 0, -1], [0, 1, 0], [-1, 0, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# the first correction: a Laurent coefficient at beta
# ---------------------------------------------------------------------------

class ResidueError(RuntimeError):
    """The Laurent series of the residue integrand at beta is not finite,
    or keeps an odd power of sqrt(lam - beta)."""


@dataclass(frozen=True)
class ResidueData:
    W1: np.ndarray
    W1_hat: np.ndarray


def _binomial(p, n):
    """[binom(p, 0), ..., binom(p, n - 1)] for real p."""
    out = [1.0]
    for k in range(1, n):
        out.append(out[-1] * (p - k + 1) / k)
    return out


#: terms of the local series at beta: g2 - g1 = omega^3 G(omega) needs G
#: through omega^3, so the sheet roots are carried through omega^6
_ORDER = 7
_LAG = np.subtract.outer(np.arange(_ORDER), np.arange(_ORDER))


def _toeplitz(x):
    """Lower-triangular Toeplitz matrices (..., n, n) of truncated power
    series x (..., n): the product of x and y is _toeplitz(x) @ y.  The
    negative lags above the diagonal index from the end and are masked."""
    lag = _LAG[:x.shape[-1], :x.shape[-1]]
    return x[..., lag] * (lag >= 0)


def _series_pow(x, p):
    """x^p for truncated power series x (..., n) whose constant terms are
    positive (nonzero for integer p): x0^p (1 + d)^p with d = x/x0 - 1,
    summed as the binomial series."""
    x0 = x[..., :1]
    d = x / x0
    d[..., 0] = 0.0
    shift = _toeplitz(d)
    term = np.zeros_like(d)
    term[..., 0] = 1.0
    out = term
    for c in _binomial(p, x.shape[-1])[1:]:
        term = (shift @ term[..., None])[..., 0]
        out = out + c * term
    return x0 ** p * out


# The local series at beta = lam(a).  Put u = a (1 + tau), so that
# lam - beta = a^3 tau^2 (3 + tau) = a^3 omega^2.  Lagrange inversion gives
# sheet 1 as tau = sum_k binom(-k/2, k-1) 3^(1 - 3k/2) omega^k / k, omega
# the principal root above the cut, and sheet 2 is sheet 1 at -omega.  In
# tau and omega nothing depends on the point: these are constants.

_TAU = np.array([0.0] + [_binomial(-0.5 * k, k)[-1] * 3.0 ** (1.0 - 1.5 * k)
                         / k for k in range(1, _ORDER)])
#: the two sheets, (sheet, omega^k)
_SHEETS = np.stack([_TAU, (-1.0) ** np.arange(_ORDER) * _TAU])
#: tau_j^p, (sheet, p, omega^k)
_POWERS = np.stack([np.linalg.matrix_power(_toeplitz(_SHEETS), p)[..., 0]
                    for p in range(_ORDER)], axis=1)
#: (g2 - g1)/omega^3 through omega^3 from the tau^2..tau^6 Taylor
#: coefficients of g(a (1 + tau)); the tau^1 one is zero, as lam'(a) is
_G_OF_TAYLOR = (_POWERS[1, 2:] - _POWERS[0, 2:])[:, 3:]
#: tau^k coefficients (k = 2..6) of (1 + tau)^n (n = 0..7, the degree of g)
_SHIFT = np.array([[math.comb(n, k) for k in range(2, _ORDER)]
                   for n in range(8)], dtype=float)
#: 1/h_j through omega^3: s_j = a sqrt(+-omega) h_j (principal roots, + on
#: sheet 1), h_j^2 = +-tau_j (2 + tau_j)/omega
_INV_H = _series_pow(np.array([[1.0], [-1.0]])
                     * (2.0 * _POWERS[:, 1] + _POWERS[:, 2])[:, 1:5], -0.5)
#: q = (u^2 - 3 sigma/4, u, 1) = (a^2 (-1/2 + 2 tau + tau^2), a (1 + tau), 1),
#: as coefficients of tau^0..tau^2
_Q_OF_TAU = np.array([[-0.5, 2.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
#: phi_ij = q_i(u_j)/(a^(3-i) h_j) through omega^3, (j, i, omega^k)
_PHI = np.einsum("jab,ic,jcb->jia", _toeplitz(_INV_H), _Q_OF_TAU,
                 _POWERS[:, :3, :4])
#: phi_ij phi_mk through omega^3, (j, k, i, m, omega^n)
_PHI_PAIRS = np.einsum("jiab,kmb->jkima", _toeplitz(_PHI), _PHI)
#: omega a^2/(s_j s_k) = _BRANCH_jk/(h_j h_k): s1 s2 = -i omega a^2 h1 h2
_BRANCH = np.array([[1.0, 1.0j], [1.0j, -1.0]])
#: W1_il carries a^(d_i + d_(4-l) + 1), d = (2, 1, 0) the a-degrees of q
_A_POWER = 3 - np.subtract.outer(np.arange(3), np.arange(3))
#: largest odd coefficient of R(omega) allowed, relative to its largest one
ODD_TOL = 1e-12


def residue_W1(curve):
    """W1 = Res at beta of M (P1 (+) 0) M^-1 from its Laurent series, and
    W1_hat = diag(1,-1,1) W1(mu -> -mu) diag(1,-1,1).

    P1 is `P_k_factor(1)` (core) times (2/3 zeta^(3/2))^(-1) = 2/(g2 - g1),
    and M^-1 = -M^T K, K the exchange matrix: with M_ij = (i/sqrt 3)
    q_i(u_j)/s_j and s_j^2 = u_j^2 - a^2, Lagrange interpolation on the
    roots gives it, since the product of u_j - u_m over m != j is
    lam'(u_j) = 3 s_j^2; the column-2 sign flip cancels out of it.  So the
    integrand is

        F_il = (2/3) (g2 - g1)^-1 sum_{j,k <= 2} core_jk q_i(u_j)
               q_(4-l)(u_k) / (s_j s_k).

    In the local variables u = a (1 + tau), lam - beta = a^3 omega^2 (see
    `_SHEETS`), g2 - g1 = omega^3 G(omega) and
    F_il = (2/3) a^(l - i) omega^-4 R_i(4-l)(omega) with the power series
    R_im = sum_jk core_jk _BRANCH_jk phi_ij phi_mk / G, so that
    W1_il = (2/3) a^(3 - i + l) R_i(4-l),2 (i, l = 1..3).  Only G depends
    on the point, through the Taylor coefficients of g at a.  The -mu curve
    has the same a and g(u; -mu) = C - g(-u; mu), so its coefficients are
    those of -g at -a.

    F is single-valued in lam, so R_1 and R_3 vanish: an odd coefficient
    above ODD_TOL times the largest one, or a series that is not finite
    (a branch point of higher order, or double overflow), raises
    ResidueError.
    """
    a = curve.a
    A = np.einsum("jk,jkimn->imn", P_k_factor(1) * _BRANCH, _PHI_PAIRS)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # tau^2..tau^6 coefficients of g(a (1 + tau)) and of -g(-a (1 + tau))
        at = np.array([[a], [-a]]) ** np.arange(_SHIFT.shape[0])
        taylor = np.array([[1.0], [-1.0]]) * ((curve.g_coeffs * at) @ _SHIFT)
        inv_G = _series_pow(taylor @ _G_OF_TAYLOR, -1.0)     # (mu, -mu)
        R = np.einsum("imb,sab->sima", A, _toeplitz(inv_G))
        odd, top = np.max(np.abs(R[..., 1::2])), np.max(np.abs(R))
        if not (np.isfinite(top) and odd <= ODD_TOL * top):
            raise ResidueError(
                f"the Laurent series at beta = {curve.beta!r} is not a "
                f"series in lambda - beta: odd coefficient {odd!r}, largest "
                f"{top!r}")
        W = (2.0 / 3.0) * a ** _A_POWER * R[:, :, ::-1, 2]
    D = np.diag([1.0, -1.0, 1.0])
    return ResidueData(W1=W[0], W1_hat=D @ W[1] @ D)


# ---------------------------------------------------------------------------
# diagnostics used by the certification suite
# ---------------------------------------------------------------------------

def jump_residuals(curve, n_points=20):
    """max |M+ - M- J| over points on each cut (exact side limits), both
    cuts in one `global_M_sides` call.  The points lie 0.3 to 6 times
    1 + alpha - beta, the lensing scale, from the branch points."""
    d = np.linspace(0.3, 6.0, n_points) * (1.0 + (curve.alpha - curve.beta))
    with np.errstate(divide="ignore", invalid="ignore"):
        Mp, Mm = global_M_sides(curve, np.concatenate([curve.alpha + d,
                                                       curve.beta - d]))
        a, b = slice(None, n_points), slice(n_points, None)
        return {"alpha": float(np.max(np.abs(Mp[a] - Mm[a] @ JUMP_ALPHA))),
                "beta": float(np.max(np.abs(Mm[b] - Mp[b] @ JUMP_BETA)))}


def normalization_slope(curve, radii=None, arg=0.8):
    """Fitted decay slope of ||M f^-1 - I|| over |lam| in [1e3, 1e6]."""
    if radii is None:
        radii = np.logspace(3, 6, 12)
    lam = radii * cmath.exp(1j * arg)
    dev = global_M(curve, lam) @ fhat_inv(lam) - np.eye(3)
    devs = np.linalg.norm(dev, axis=(1, 2))
    return float(np.polyfit(np.log(radii), np.log(devs), 1)[0])
