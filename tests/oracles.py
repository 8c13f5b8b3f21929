"""Reference computations that tests check the package against.

None of these is run by a `tau34` command:

  * the g-functions and phases in mpmath, Newton-refined from the double
    sheet roots: sampled fits of g_i - g_j near a branch point and of
    g_j - theta_j at infinity, where double precision hits the
    cancellation floor;
  * `fit_branch_exponent`, the sampled power-law fit of `branch_coeffs`;
  * `fitted_g_asymptotics`, the log-log slope fit of g_j - theta_j on the
    Laurent tail, which the exact claim of `check_g_asymptotics` replaced;
  * `fhat`, the normalization matrix whose inverse `parametrix.fhat_inv`
    writes in closed form;
  * `node_loop_residue`, the residue W1 by circle quadrature with one
    root-kernel call and one matrix inverse per node, which the Laurent
    series of `parametrix.residue_W1` replaced;
  * `h1_first_correction` (mu = 0) and `genus_one_pairing` (all of D), the
    closed-form oracles of the residue pairing;
  * `genus_one_u1`, the order-hbar^2 coefficient u1 of the string equation
    from the genus-one free energy, an oracle for `expansion_jet`;
  * `fd_dlogtau_consistency`, the tau-differential identities by central
    differences with six neighbour solves, which the complex step of
    `tau_expansion.dlogtau_consistency` replaced;
  * `viete_roots` and `map_abc`, the (a, b, c) coordinates of the
    uniformized curve: they build boundary-mu curves and admissible
    samples whose sigma = 2 a^2 is known without solving the branch
    equation;
  * `cheb_nodes_product`, the Chebyshev nodes and differentiation matrix
    with one sine per factor of each matrix entry, which
    `critical._cheb_nodes` computes from 3n + 1 sines.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

from tau34 import param_domain as pd
from tau34 import spectral_curve as sc
from tau34 import tau_expansion as te
from tau34.parametrix import airy_series
from tau34.series import Jet


def mp_context(dps):
    import mpmath
    mp = mpmath.mp.clone()
    mp.dps = dps
    return mp


def mp_g_coeffs(curve, mp):
    """Rebuild (lam1, lam0, g_coeffs) in mp arithmetic.

    The doubles sigma/eta/mu are promoted exactly and the polynomial algebra
    redone in mp, so that differences like g_i - g_j near a branch point are
    not limited by the 1e-16 rounding of the stored double coefficients.
    """
    s = mp.mpf(curve.sigma)
    eta = mp.mpf(curve.params.eta)
    mu = mp.mpf(curve.params.mu)
    c = -3 * mu / (5 * eta - 3 * s) if mu != 0 else mp.mpf(0)
    a2 = s / 2
    lam1 = -mp.mpf(3) / 2 * s
    Y = [s * s / 2 - mp.mpf(5) / 3 * eta * s, mp.mpf(4) / 3 * c,
         mp.mpf(5) / 3 * eta - 2 * s, mp.mpf(0), mp.mpf(1)]
    dlam = [lam1, mp.mpf(0), mp.mpf(3)]
    prod = [mp.mpf(0)] * (len(Y) + len(dlam) - 1)
    for i, yi in enumerate(Y):
        for j, dj in enumerate(dlam):
            prod[i + j] += yi * dj
    g = [-2 * c * a2 * a2] + [prod[k] / (k + 1) for k in range(len(prod))]
    return lam1, c, g


def mp_sheet_value(curve, lam, sheet, dps=50):
    """(u_sheet(lam), g(u_sheet(lam)), mp) with mpmath, Newton-refined root."""
    mp = mp_context(dps)
    lam1, lam0, g = mp_g_coeffs(curve, mp)
    u = mp.mpc(complex(sc.uniformize_all(curve, np.array([lam]))[sheet - 1,
                                                                 0]))
    p0 = lam0 - mp.mpc(lam)
    for _ in range(80):
        f = u * (u * u + lam1) + p0
        fp = 3 * u * u + lam1
        du = f / fp
        u -= du
        if abs(du) < mp.mpf(10) ** (-dps + 4) * (1 + abs(u)):
            break
    acc = mp.mpc(0)
    for ck in reversed(g):
        acc = acc * u + ck
    return u, acc, mp


def g_sheet_mp(curve, lam, sheet, dps=50):
    """High-precision g_j(lam); returns an mpmath complex value."""
    return mp_sheet_value(curve, lam, sheet, dps=dps)[1]


def theta_phase_mp(lam, j, p, dps=50):
    """theta_j(lam) = (3/7) w^(j-1) lam^(7/3) + w^(1-j) [eta lam^(5/3)
    + mu lam^(2/3)] + w^(j-1) nu lam^(1/3) in mpmath, w = exp(2 i pi/3),
    principal lam^(1/3)."""
    mp = mp_context(dps)
    lam = mp.mpc(lam)
    t = lam ** (mp.mpf(1) / 3)
    w = mp.exp(2j * mp.pi / 3) ** (j - 1)
    wi = mp.exp(2j * mp.pi / 3) ** (1 - j)
    return ((mp.mpf(3) / 7) * w * t**7 + wi * p.eta * t**5 + wi * p.mu * t**2
            + w * p.nu * t)


def g_difference_mp(curve, lam, pair, dps):
    return (g_sheet_mp(curve, lam, pair[0], dps=dps)
            - g_sheet_mp(curve, lam, pair[1], dps=dps))


def fit_branch_exponent(curve, point="alpha", n_radii=12, scale_lo=1e-4,
                        scale_hi=1e-2, direction=None, dps=50):
    """Power law |g_i - g_j| = rho * r^p near a branch point.

    The exponent is fitted on log-spaced radii in [scale_lo, scale_hi] *
    (1 + |anchor|) along the bisector of the local sector.  The prefactor is
    then extracted in the near field (r ~ 1e-8 * scale, where the 1 + O(r)
    correction is negligible) with the exponent snapped to the nearest half
    integer.  Returns (p_fit, rho).  Generic exponent 3/2 (amplitudes
    rho_alpha / rho_beta), 5/2 on the critical strata.
    """
    anchor = curve.alpha if point == "alpha" else curve.beta
    pair = (3, 2) if point == "alpha" else (2, 1)
    if direction is None:
        direction = 5.0 * math.pi / 6.0 if point == "alpha" else math.pi / 4.0
    scale = 1.0 + abs(anchor)
    radii = np.logspace(math.log10(scale_lo), math.log10(scale_hi),
                        n_radii) * scale
    vals = []
    for r in radii:
        lam = anchor + r * cmath.exp(1j * direction)
        vals.append(float(abs(g_difference_mp(curve, lam, pair, dps))))
    q = np.polyfit(np.log(radii), np.log(np.array(vals)), 1)
    p_fit = float(q[0])
    p_snap = round(2.0 * p_fit) / 2.0
    rho = 0.0
    for r in (1e-8 * scale, 2e-8 * scale):
        lam = anchor + r * cmath.exp(1j * direction)
        rho += float(abs(g_difference_mp(curve, lam, pair, dps))) / r**p_snap
    return p_fit, rho / 2.0


def fitted_g_asymptotics(curve, radii=None):
    """Log-log decay fit of |g_j - theta_perm(j)| on each sheet/half-plane.

    Returns a dict keyed by (sheet, 'upper'|'lower') with entries
    (slope, max_residual); the matching claim is slope = -1/3.  The
    residuals come from the tail (tau^-1, tau^-2, ...) of
    `laurent_at_infinity` on the rays arg lam = +-0.9, with as many terms as
    `_laurent_terms` asks for at the smallest radius.  Where the tau^-1
    coefficient is small against the tau^-2 one the fit misses -1/3 on
    [1e3, 1e6]: -0.201 on sheet 1 at (1.1829, 0.1138, 1.1306).
    """
    if radii is None:
        radii = np.logspace(3, 6, 24)
    radii = np.asarray(radii, dtype=float)
    ser = sc.laurent_at_infinity(
        curve, sc._laurent_terms(curve, radii.min() ** (1.0 / 3.0)))
    report = {}
    for half, arg, perm in (("upper", 0.9, (1, 3, 2)),
                            ("lower", -0.9, (1, 2, 3))):
        t = (radii * cmath.exp(1j * arg)) ** (1.0 / 3.0)
        for sheet in (1, 2, 3):
            x = 1.0 / (sc.OMEGA ** (perm[sheet - 1] - 1) * t)
            diffs = np.abs(x * np.polynomial.polynomial.polyval(x, ser.tail))
            slope = np.polyfit(np.log(radii), np.log(diffs), 1)[0]
            report[(sheet, half)] = (float(slope), float(diffs.max()))
    return report


def fhat(lam, half=None):
    """Asymptotic normalization matrix f-hat(lam), one 3x3 matrix.

    f(lam) = (i/sqrt 3) diag(l,1,1/l) V with l = lam^(1/3) and V the
    third-root Vandermonde, post-multiplied by 1 (+) sigma1 in the upper
    half plane and sigma3 (+) 1 in the lower.
    """
    lam = complex(lam)
    if half is None:
        half = "+" if lam.imag >= 0 else "-"
    t = lam ** (1.0 / 3.0)
    w = sc.OMEGA
    V = np.array([[1, w, w**2], [1, 1, 1], [1, w**2, w]], dtype=complex)
    f = (1j / math.sqrt(3.0)) * np.diag([t, 1.0, 1.0 / t]) @ V
    if half == "+":
        J = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    else:
        J = np.diag([1.0, -1.0, 1.0]).astype(complex)
    return f @ J


def h1_first_correction(p, sigma=None):
    """First hbar^2 correction of the nu-Hamiltonian density on mu = 0.

    Closed form (9 s - 5 eta) / (6 s^2 (5 eta - 3 s)^2), obtained by feeding
    the order-hbar^2 jet through the Darboux representation of the
    t1-Hamiltonian.  The independent oracle of the first-residue pairing
    `-(W1 + W1_hat)[2, 0]` of `parametrix.residue_W1`.
    """
    if p.mu != 0.0:
        raise pd.DomainError("closed form available on the mu = 0 slice only")
    if sigma is None:
        sigma = pd.solve_sigma(p).sigma
    s, e = sigma, p.eta
    return (9.0 * s - 5.0 * e) / (6.0 * s**2 * (5.0 * e - 3.0 * s) ** 2)


def genus_one_pairing(p, sigma=None):
    """d/dnu F1 with F1 = -(1/24) log chi, chi = `tau_leading(p).chi`: the
    genus-one term that the residue pairing -(W1 + W1_hat)[2, 0] of
    `parametrix.residue_W1` equals on all of D (Dijkgraaf & Witten 1990).

    d/dnu log chi is one complex step along the root, as
    `tau_expansion._along_root` takes it: chi at (eta, mu, s + i h s_nu),
    h = 1e-30.  On mu = 0 it is half of `h1_first_correction`.
    """
    jets = pd.sigma_jets(p, depth=1, sigma=sigma)
    h = 1e-30
    chi = te._tau(p.eta, p.mu, jets.sigma)[1]
    step = te._tau(p.eta, p.mu, complex(jets.sigma, h * jets.dnu[1]))[1]
    return -(step.imag / h) / (24.0 * chi)


def genus_one_u1(p):
    """u1 = (1/12) d^2/dnu^2 log chi, chi = `tau_leading(p).chi`: the
    order-hbar^2 coefficient of u = -2 d^2 F/dnu^2 + ... with
    F1 = -(1/24) log chi (Dijkgraaf & Witten 1990).

    chi is carried as a nu-jet of order 2 over the root's nu-tower, so both
    derivatives are exact up to rounding, and no string-equation line
    enters: it checks `expansion_jet`'s u1 independently.
    """
    s = Jet.from_derivatives(pd.sigma_jets(p, depth=2).dnu)
    den = 5.0 * p.eta - 3.0 * s
    chi = s * den * den - 72.0 * p.mu**2 / (den * den)
    c0, c1, c2 = (chi.derivative(k) for k in range(3))
    return (c2 * c0 - c1 * c1) / (12.0 * c0 * c0)


def node_loop_residue(curve, radius_factor=1e-2, n_nodes=256,
                      agreement=1e-8, max_shrink=4):
    """(W1, W1_hat) of `parametrix.residue_W1` by circle quadrature about
    beta: one root-kernel call and one `np.linalg.inv` per midpoint node,
    the -mu curve built again.

    Two radii (r, r/2) must agree to `agreement` (absolute); the radius
    halves up to max_shrink times, else RuntimeError.  The first radius is
    radius_factor (1 + |alpha - beta|), at most |alpha - beta|/4, so that
    the circle never encloses alpha.  P1 = core 2/(g2 - g1), core the
    zeta-free factor of `parametrix.P_k_factor(1)` written out again, makes
    the integrand single-valued around beta.
    """
    gap = abs(curve.alpha - curve.beta)
    r0 = min(radius_factor * (1.0 + gap), 0.25 * gap)
    co = airy_series(1)
    A = np.array([[1.0, -1.0j], [-1.0j, 1.0]])
    B = np.array([[-1.0, 1.0j], [-1.0j, 1.0]])
    core = 0.5 * (A @ np.diag([float(co.s[1]), float(co.t[1])]) @ B)

    def quad(cv, radius):
        a = math.sqrt(cv.sigma / 2.0)
        tot = np.zeros((3, 3), dtype=complex)
        for k in range(n_nodes):
            e = cmath.exp(1j * 2.0 * math.pi * (k + 0.5) / n_nodes)
            z = cv.beta + radius * e
            u = sc.uniformize_all(cv, np.array([z]))[:, 0]
            g = sc.g_of_u(cv, u)
            P = np.zeros((3, 3), dtype=complex)
            P[:2, :2] = core * (2.0 / (g[1] - g[0]))
            srt = np.sqrt(u - a) * np.sqrt(u + a)
            M = (1j / math.sqrt(3.0)) * np.array(
                [(u * u - 0.75 * cv.sigma) / srt, u / srt, 1.0 / srt])
            if z.imag < 0.0:
                M[:, 1] *= -1.0
            tot += (M @ P @ np.linalg.inv(M)) * (radius * 1j * e)
        return tot * (2.0 * math.pi / n_nodes) / (2j * math.pi)

    def converged(cv):
        r = r0
        for _ in range(max_shrink):
            w_a, w_b = quad(cv, r), quad(cv, r / 2.0)
            if np.max(np.abs(w_a - w_b)) < agreement:
                return w_b
            r /= 2.0
        raise RuntimeError("residue quadrature did not stabilize")

    p = curve.params
    W1 = converged(curve)
    W1m = W1 if p.mu == 0.0 else converged(
        sc.build_curve(pd.Params(p.eta, -p.mu, p.nu), sigma=curve.sigma))
    D = np.diag([1.0, -1.0, 1.0])
    return W1, D @ W1m @ D


def fd_dlogtau_consistency(p, step=1e-5):
    """The six residuals of `tau_expansion.dlogtau_consistency` by central
    differences with the step step * (1 + |x|) in each coordinate x.

    The branch equation is solved at p and at each of the six neighbours
    p +- h e_x; within about the step of the critical surface a neighbour
    leaves D and `solve_sigma` raises BoundaryReached.  The truncation error
    is O(h^2) relative: up to about 5e-9 at the default step.
    """
    h = te.leading_hamiltonians(p)
    ends = {}
    for k, var in enumerate(("eta", "mu", "nu")):
        hh = step * (1.0 + abs(getattr(p, var)))
        d = [0.0, 0.0, 0.0]
        d[k] = hh
        vals = []
        for q in (pd.Params(p.eta + d[0], p.mu + d[1], p.nu + d[2]),
                  pd.Params(p.eta - d[0], p.mu - d[1], p.nu - d[2])):
            sigma = pd.solve_sigma(q).sigma
            hq = te.leading_hamiltonians(q, sigma=sigma)
            vals.append((te.tau_leading(q, sigma=sigma).varpi0,
                         hq.h1_0, hq.h2_0, hq.h5_0))
        ends[var] = (hh, vals)

    def fd(i, var):
        hh, (plus, minus) = ends[var]
        return (plus[i] - minus[i]) / (2.0 * hh)

    varpi0, h1, h2, h5 = range(4)
    grad = (fd(varpi0, "nu") - 0.5 * h.h1_0,
            fd(varpi0, "mu") - 0.5 * h.h2_0,
            fd(varpi0, "eta") - 0.5 * h.h5_0)
    closed = (fd(h1, "mu") - fd(h2, "nu"),
              fd(h1, "eta") - fd(h5, "nu"),
              fd(h2, "eta") - fd(h5, "mu"))
    return grad, closed


@dataclass(frozen=True)
class ABCoords:
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class VieteRoots:
    z_minus: float
    z_zero: float
    z_plus: float


def viete_roots(b, c):
    """Three real roots of z^3 - b z / 2 + c / 3 = 0, sorted ascending.

    Trigonometric form, valid on 0 < b, |c| <= b^(3/2)/sqrt(6).
    """
    if not b > 0.0:
        raise pd.DomainError("viete_roots requires b > 0")
    arg = c * math.sqrt(6.0) / b**1.5
    if abs(arg) > 1.0 + 1e-12:
        raise pd.DomainError(
            "discriminant condition |c| <= b^(3/2)/sqrt(6) violated")
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
    return pd.Params(eta, mu, nu), 2.0 * a * a


def cheb_nodes_product(n, a, b):
    """The n + 1 Chebyshev-Gauss-Lobatto points on [a, b] and their
    differentiation matrix (Trefethen, Spectral Methods in MATLAB, 2000,
    `cheb`), with s_i - s_k = 2 sin((i + k) h) sin((i - k) h) taken from two
    sines per entry, h = pi/(2n)."""
    j = np.arange(n + 1)
    i, k = j[:, None], j
    h = np.pi / (2 * n)
    ds = 2.0 * np.sin((i + k) * h) * np.sin((i - k) * h)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (ds + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    x = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(2 * j * h)
    x[0], x[-1] = a, b
    return x, D * (2.0 / (b - a))
