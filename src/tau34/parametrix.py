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
residue W1 of M (P1 (+) 0) M^-1 at the left branch point, computed by circle
quadrature (the integrand is single-valued around the point).

M is evaluated on arrays: `global_M` and `global_M_sides` take the
`SpectralCurve` and an array of lam (or x) and return (..., 3, 3) stacks
from one root-kernel call (one closed-form Cardano evaluation on the
cuts), and a scalar still gives 3x3 matrices.  The residue quadrature,
the jump residuals and the normalization fit each evaluate all their
points in one such call; the inverse of M is the exact M^-1 = -M^T K
(K the exchange matrix, see `residue_W1`), and sums run in node order.
"""
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .param_domain import Params
from .spectral_curve import (BRANCH_POINT_TOL, OMEGA, OnBranchPoint,
                             _cut_side_roots, build_curve, g_of_u,
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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    f = Fraction(x).limit_denominator(10**12)
    if abs(float(f) - x) > 1e-12:
        raise ValueError(f"Stokes parameter {x!r} is not exactly representable")
    return f


def identity3():
    return [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


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
    """Exact product identity S_-7 ... S_-1 S_1 ... S_7 == Scal^T."""
    target = [[Fraction(SCAL[j][i]) for j in range(3)] for i in range(3)]
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


def P_k_factor(k):
    """The zeta-free factor (1/2) [[1,-i],[-i,1]] diag(s_k,t_k)
    [[(-1)^k, i], [(-1)^k i, 1]] of P_k."""
    coeffs = airy_series(k)
    A = np.array([[1.0, -1.0j], [-1.0j, 1.0]])
    D = np.diag([float(coeffs.s[k]), float(coeffs.t[k])])
    B = np.array([[(-1.0) ** k, 1.0j], [(-1.0) ** k * 1.0j, 1.0]])
    return 0.5 * (A @ D @ B)


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

class QuadratureError(RuntimeError):
    """The residue quadrature did not settle as the radius shrank."""


@dataclass(frozen=True)
class ResidueData:
    W1: np.ndarray
    W1_hat: np.ndarray


def _phi_rows(u, sigma):
    """M_ij = phi_i(u_j) for sheet roots u (..., 3): shape (..., 3, 3).

    sqrt cut on [-sqrt(s/2), sqrt(s/2)], branch with 1/sqrt(u^2 - s/2) =
    u^-1 + O(u^-2).
    """
    a = math.sqrt(sigma / 2.0) if sigma > 0 else 0.0
    u = np.asarray(u, dtype=complex).copy()
    # normalize -0.0 imaginary parts: off the cut the product below is
    # continuous across the real axis, but only if both factors see the same
    # zero sign; exactly-real points use the upper-limit branch.
    real_mask = u.imag == 0.0
    u[real_mask] = u[real_mask].real + 0.0j
    srt = np.sqrt(u - a) * np.sqrt(u + a)
    pref = 1j / math.sqrt(3.0)
    return np.stack([pref * (u * u - 0.75 * sigma) / srt,
                     pref * u / srt,
                     pref / srt], axis=-2)


def _M_off_cut(curve, lam):
    """Sheet roots (3, n) and M (n, 3, 3) at lam (n,) off the cuts, with
    the column-2 sign flip in the lower half plane."""
    u = uniformize_all(curve, lam)
    M = _phi_rows(u.T, curve.sigma)
    M[lam.imag < 0.0, :, 1] *= -1.0
    return u, M


def global_M(curve, lam):
    """The 3x3 parametrix M_ij(lam) = phi_i(u_j(lam)), with the column-2
    sign flip in the lower half plane; Im lam = 0 is treated as the upper
    limit.  An array of lam gives a stack of shape lam.shape + (3, 3)."""
    lam = np.asarray(lam, dtype=complex)
    flat = lam.ravel()
    near = np.minimum(np.abs(flat - curve.alpha), np.abs(flat - curve.beta))
    at_branch = near < BRANCH_POINT_TOL * (1.0 + np.abs(flat))
    if at_branch.any():
        raise OnBranchPoint(
            f"lambda = {complex(flat[at_branch][0])} is at a branch point")
    on_cut = (flat.imag == 0.0) & ((flat.real > curve.alpha)
                                   | (flat.real < curve.beta))
    M = np.empty((flat.size, 3, 3), dtype=complex)
    if on_cut.any():
        M[on_cut] = global_M_sides(curve, flat.real[on_cut])[0]
    if not on_cut.all():
        M[~on_cut] = _M_off_cut(curve, flat[~on_cut])[1]
    return M.reshape(lam.shape + (3, 3))


def global_M_sides(curve, x):
    """Exact boundary values (M(x + i0), M(x - i0)) of M on a cut, from one
    `_cut_side_roots` call: the lower side's roots are the conjugates of
    the upper side's.  An array of x gives two stacks of shape
    x.shape + (3, 3)."""
    x = np.asarray(x, dtype=float)
    u = _cut_side_roots(curve, x.ravel()).T
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


def residue_W1(curve, radius_factor=1e-2, n_nodes=256, agreement=1e-8,
               max_shrink=4):
    """W1 = Res at beta of M (P1 (+) 0) M^-1, by circle quadrature.

    P1 is `P_k_factor(1)` times (2/3 zeta^(3/2))^(-1) = 2/(g2 - g1), which
    makes the integrand single-valued around the point.  Two radii (r, r/2)
    must agree to `agreement`; the radius auto-shrinks a few times
    otherwise, and QuadratureError is raised when they never do.  The
    first radius is radius_factor (1 + |alpha - beta|), but at most
    |alpha - beta|/4, so that the circle about beta never encloses alpha.
    W1_hat is diag(1,-1,1) W1(mu -> -mu) diag(1,-1,1).

    Each radius is one batched evaluation over all n_nodes midpoint nodes:
    one root-kernel call and a node-order sum.  The inverse is exact: with
    M_ij = (i/sqrt 3) q_i(u_j)/s_j, q = (u^2 - 3 sigma/4, u, 1) and
    s_j^2 = u_j^2 - a^2, Lagrange interpolation on the roots (the product
    of u_j - u_m over m != j is lam'(u_j) = 3 s_j^2) gives M^-1 = -M^T K,
    K the exchange matrix; the column-2 sign flip cancels out of it.
    """
    gap = abs(curve.alpha - curve.beta)
    r0 = min(radius_factor * (1.0 + gap), 0.25 * gap)
    core = P_k_factor(1)
    nodes = np.exp(1j * (2.0 * math.pi * (np.arange(n_nodes) + 0.5)
                         / n_nodes))

    def quad(cv, radius):
        z = cv.beta + radius * nodes
        u, M = _M_off_cut(cv, z)
        g = g_of_u(cv, u)
        P = np.zeros((n_nodes, 3, 3), dtype=complex)
        P[:, :2, :2] = core * (2.0 / (g[1] - g[0]))[:, None, None]
        M_inv = -M.swapaxes(1, 2)[:, :, ::-1]
        terms = (M @ P @ M_inv) * (radius * 1j * nodes)[:, None, None]
        return terms.sum(axis=0) * (2.0 * math.pi / n_nodes) / (2j * math.pi)

    def converged(cv):
        r = r0
        for _ in range(max_shrink):
            w_a = quad(cv, r)
            w_b = quad(cv, r / 2.0)
            if np.max(np.abs(w_a - w_b)) < agreement:
                return w_b
            r /= 2.0
        diff = float(np.max(np.abs(w_a - w_b)))
        raise QuadratureError(
            f"residue quadrature did not stabilize: radii {2.0 * r!r} and "
            f"{r!r} differ by {diff!r} > {agreement!r}")

    W1 = converged(curve)
    p = curve.params
    W1m = W1 if p.mu == 0.0 else converged(
        build_curve(Params(p.eta, -p.mu, p.nu), sigma=curve.sigma))
    D = np.diag([1.0, -1.0, 1.0])
    return ResidueData(W1=W1, W1_hat=D @ W1m @ D)


# ---------------------------------------------------------------------------
# diagnostics used by the certification suite
# ---------------------------------------------------------------------------

def jump_residuals(curve, n_points=20):
    """max |M+ - M- J| over points on each cut (exact side limits), both
    cuts in one `global_M_sides` call."""
    steps = np.linspace(0.3, 6.0, n_points)
    # where alpha + steps rounds to alpha, M is infinite: the rows read NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        Mp, Mm = global_M_sides(curve, np.concatenate([curve.alpha + steps,
                                                       curve.beta - steps]))
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
