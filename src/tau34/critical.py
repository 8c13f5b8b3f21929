"""Critical-surface geometry, modified curves, scaling maps and the
Painleve I degeneration.

The boundary of the domain D is (part of) the zero set of the quintic
discriminant; its two distinguished curves are nu = (125/108) eta^3
(eta > 0, "plus stratum") and nu = 0 (eta < 0, "minus stratum").  Around
points of either stratum the spectral curve is deformed into a modified
curve whose g-functions match phases with slowly drifting coefficients;
conformal scaling maps then produce the Painleve I variables.

The tritronquee normalizer exponent implemented here is the quadratic
Taylor polynomial (at the plus-stratum point) of the nu-analytic part of
varpi0.  It agrees with varpi0 and its gradient on the stratum and its
differential cancels the leading phase-pairing residues; see the README
notes on conventions.
"""
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import spectral_curve as sc
from .param_domain import DomainError, Params


class PoleEncountered(RuntimeError):
    """Painleve I trajectory blew up (movable pole)."""


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
    mu = nu = 0 ray: there the *other* roots of the quintic collide, and
    membership of the distinguished root in D is decided by continuation,
    not by D alone.
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
    """Critical nu above which (eta, mu, nu) leaves the domain.

    Solves the surface parametrization for |mu| (monotone in sigma on
    sigma > max(5 eta/3, 0)) and returns nu(sigma).
    """
    from scipy.optimize import brentq

    mu = abs(mu)
    s_lo = max(5.0 * eta / 3.0, 0.0) + 1e-12

    def mu_of(s):
        return (math.sqrt(2.0 * s) / 12.0) * (5.0 * eta - 3.0 * s) ** 2

    if mu == 0.0:
        if eta > 0:
            return 125.0 * eta**3 / 108.0
        return 0.0
    s_hi = max(s_lo * 2.0, 1.0)
    while mu_of(s_hi) < mu:
        s_hi *= 2.0
    s = brentq(lambda t: mu_of(t) - mu, s_lo, s_hi, xtol=1e-14)
    return surface_param(s, eta)[0]


def gauss_angle(eta):
    """Angle between the two surface normals along the plus stratum."""
    if not eta > 0:
        raise DomainError("the stratum requires eta > 0")
    e4 = 15625.0 * eta**4
    return math.acos((e4 - 4320.0 * eta + 1296.0)
                     / (e4 + 4320.0 * eta + 1296.0))


#: location of the unique maximum of gauss_angle: (2/(5 sqrt 5)) 3^(3/4)
GAUSS_ANGLE_ARGMAX = 2.0 * 3.0**0.75 / (5.0 * math.sqrt(5.0))


def gauss_angle_max(lo=1e-3, hi=2.0, tol=1e-10):
    """(eta*, angle*) located by bounded golden-section minimization."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda e: -gauss_angle(e), bounds=(lo, hi),
                          method="bounded",
                          options={"xatol": tol})
    return float(res.x), float(-res.fun)


# ---------------------------------------------------------------------------
# modified spectral curves
# ---------------------------------------------------------------------------

def _plus_base_curve(eta0):
    """Critical curve at the plus-stratum point (sigma = 5 eta0/3)."""
    nu0 = 125.0 * eta0**3 / 108.0
    return sc.build_curve(Params(eta0, 0.0, nu0), sigma=5.0 * eta0 / 3.0)


def _plus_correction_polys(eta0):
    """Deformation polynomials d_a, d_c (ascending coefficients).

    ghat(u) = g_crit(u) + s_a d_a(u) + s_c d_c(u) matches phases with
    (eta_hat, 0, nu_hat) when

        s_a = [ (nu_hat - nu0) + (36/125) eta0^-2 (eta_hat - eta0) ] / Cd
        s_c = [ -(nu_hat - nu0) + (125/36) eta0^2 (eta_hat - eta0) ] / Cd
        Cd  = (125/36) eta0^2 + (36/125) eta0^-2;

    d_a contributes lam^(5/3) + (125/36) eta0^2 lam^(1/3) at infinity and
    d_c contributes lam^(5/3) - (36/125) eta0^-2 lam^(1/3).
    """
    q = 125.0 * eta0**2 / 36.0
    r = 36.0 / (125.0 * eta0**2)
    d_a = np.array([0.0, 125.0 * eta0**2 / 18.0, 0.0,
                    -25.0 * eta0 / 6.0, 0.0, 1.0])
    d_c = np.array([0.0, q - r, 0.0, -25.0 * eta0 / 6.0, 0.0, 1.0])
    return d_a, d_c, q + r


@dataclass(frozen=True)
class ModifiedCurve:
    """Modified curve about a critical point.

    For eta0 > 0: the lam-polynomial is frozen at the critical one and the
    g-polynomial drifts with (eta_hat(h), nu_hat(h)).  For eta0 < 0 the
    curve is the pure cube lam = u^3 with exact uniformization.
    """
    eta0: float
    base: object                 # SpectralCurve (plus case) or None
    eta_hat_fn: object           # hbar -> eta_hat
    nu_hat_fn: object            # hbar -> nu_hat
    u_star: float                # u-plane critical point (plus case)
    alpha_hat: float             # lam-plane branch point (0 in minus case)

    @property
    def sign_case(self):
        return "plus" if self.eta0 > 0 else "minus"

    def g_hat_coeffs(self, hbar):
        """Ascending coefficients of ghat(u) at parameter hbar (plus case)."""
        if self.eta0 < 0:
            eh = self.eta_hat_fn(hbar)
            nh = self.nu_hat_fn(hbar)
            return np.array([0.0, nh, 0.0, 0.0, 0.0, eh, 0.0, 3.0 / 7.0])
        d_a, d_c, cd = _plus_correction_polys(self.eta0)
        nu0 = 125.0 * self.eta0**3 / 108.0
        dn = self.nu_hat_fn(hbar) - nu0
        de = self.eta_hat_fn(hbar) - self.eta0
        s_a = (dn + 36.0 / (125.0 * self.eta0**2) * de) / cd
        s_c = (-dn + 125.0 * self.eta0**2 / 36.0 * de) / cd
        g = self.base.g_coeffs.copy()
        g[: len(d_a)] += s_a * d_a + s_c * d_c
        return g

    def g_hat_sheet(self, lam, sheet, hbar, side=None):
        """ghat_j(lam; hbar)."""
        if self.eta0 < 0:
            u = _cube_root_sheet(lam, sheet)
            co = self.g_hat_coeffs(hbar)
            return np.polynomial.polynomial.polyval(u, co)
        u = sc.uniformize(self.base, lam, sheet, side=side)
        return np.polynomial.polynomial.polyval(u, self.g_hat_coeffs(hbar))


def _cube_root_sheet(lam, sheet):
    """Exact omega-rotated principal cube roots per sheet/half-plane."""
    lam = complex(lam)
    t = lam ** (1.0 / 3.0)
    upper = lam.imag >= 0.0
    w = sc.OMEGA
    if sheet == 1:
        return t
    if sheet == 2:
        return t * (w**2 if upper else w)
    return t * (w if upper else w**2)


def modified_curve(eta0, eta_hat_fn=None, nu_hat_fn=None):
    """Build the modified curve about the critical point at eta0 != 0.

    The default coefficient drifts are frozen at the critical values; pass
    callables (of hbar) to deform, e.g. the ones from the scaling maps.
    """
    if eta0 == 0.0:
        raise DomainError("eta0 must be nonzero")
    if eta0 > 0:
        base = _plus_base_curve(eta0)
        u_star = math.sqrt(5.0 * eta0 / 6.0)
        alpha_hat = (5.0 * eta0 / 3.0) * u_star
        if eta_hat_fn is None:
            eta_hat_fn = lambda h: eta0
        if nu_hat_fn is None:
            nu_hat_fn = lambda h: 125.0 * eta0**3 / 108.0
        return ModifiedCurve(eta0=eta0, base=base, eta_hat_fn=eta_hat_fn,
                             nu_hat_fn=nu_hat_fn, u_star=u_star,
                             alpha_hat=alpha_hat)
    if eta_hat_fn is None:
        eta_hat_fn = lambda h: eta0
    if nu_hat_fn is None:
        nu_hat_fn = lambda h: 0.0
    return ModifiedCurve(eta0=eta0, base=None, eta_hat_fn=eta_hat_fn,
                         nu_hat_fn=nu_hat_fn, u_star=0.0, alpha_hat=0.0)


def modified_matching_report(mcurve, hbar, radii=None, arg=0.9, dps=50):
    """Decay of |ghat_j - theta_j(.; eta_hat, 0, nu_hat)| per sheet.

    Plus case: mp fit of the log-log slope (expected -1/3).  Minus case:
    the match is exact; the report carries slope None and the max residual.
    """
    import mpmath
    mp = mpmath.mp.clone()
    mp.dps = dps
    eh = mcurve.eta_hat_fn(hbar)
    nh = mcurve.nu_hat_fn(hbar)
    phase_params = Params(eh, 0.0, nh)
    if radii is None:
        # higher window than the base-curve fit: the drifted coefficients
        # mix in stronger lam^(-2/3) contamination at the low end
        radii = np.logspace(6, 9, 16)
    report = {}
    coeffs = _g_hat_coeffs_mp(mcurve, hbar, mp)
    for half, argv in (("upper", arg), ("lower", -arg)):
        perm = {1: 1, 2: 3, 3: 2} if half == "upper" else {1: 1, 2: 2, 3: 3}
        for sheet in (1, 2, 3):
            diffs = []
            for r in radii:
                lam = r * cmath.exp(1j * argv)
                th = sc.theta_phase_mp(lam, perm[sheet], phase_params, dps=dps)
                if mcurve.eta0 > 0:
                    u, _, _ = sc._mp_sheet_value(mcurve.base, lam, sheet,
                                                 dps=dps)
                else:
                    u = mp.mpc(lam) ** (mp.mpf(1) / 3)
                    w = mp.exp(2j * mp.pi / 3)
                    if sheet == 2:
                        u *= w**2 if complex(lam).imag >= 0 else w
                    elif sheet == 3:
                        u *= w if complex(lam).imag >= 0 else w**2
                acc = mp.mpc(0)
                for ckk in reversed(coeffs):
                    acc = acc * u + ckk
                diffs.append(float(abs(acc - th)))
            diffs = np.array(diffs)
            if np.max(diffs) < 1e-12 * float(radii[-1]) ** (1.0 / 3.0):
                report[(sheet, half)] = (None, float(diffs.max()))
            else:
                slope = np.polyfit(np.log(radii), np.log(diffs), 1)[0]
                report[(sheet, half)] = (float(slope), float(diffs.max()))
    return report


def _g_hat_coeffs_mp(mcurve, hbar, mp):
    """ghat coefficients rebuilt in mp (exactly-promoted inputs)."""
    eh = mp.mpf(mcurve.eta_hat_fn(hbar))
    nh = mp.mpf(mcurve.nu_hat_fn(hbar))
    if mcurve.eta0 < 0:
        z = mp.mpf(0)
        return [z, nh, z, z, z, eh, z, mp.mpf(3) / 7]
    eta0 = mp.mpf(mcurve.eta0)
    _, _, g = sc._mp_g_coeffs(mcurve.base, mp)
    q = mp.mpf(125) * eta0**2 / 36
    r = mp.mpf(36) / (125 * eta0**2)
    z = mp.mpf(0)
    d_a = [z, mp.mpf(125) * eta0**2 / 18, z, -mp.mpf(25) * eta0 / 6, z,
           mp.mpf(1)]
    d_c = [z, q - r, z, -mp.mpf(25) * eta0 / 6, z, mp.mpf(1)]
    nu0 = mp.mpf(125) * eta0**3 / 108
    dn = nh - nu0
    de = eh - eta0
    s_a = (dn + r * de) / (q + r)
    s_c = (-dn + q * de) / (q + r)
    out = list(g)
    for k in range(6):
        out[k] = out[k] + s_a * d_a[k] + s_c * d_c[k]
    return out


# ---------------------------------------------------------------------------
# scaling maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingMaps:
    case: str
    C: float
    zeta: object        # lam -> conformal coordinate
    x_of_lambda: object  # (lam, hbar) -> scaling function
    eta_hat: object     # hbar -> coefficient drift
    nu_hat: object
    mcurve: ModifiedCurve


def scaling_constant_plus(eta0, n_vec):
    n_eta, n_nu = n_vec
    denom = 125.0 * eta0**2 * n_eta / 36.0 - n_nu
    if denom <= 0.0:
        raise InadmissibleDirection(
            "direction must lie below the tangent line of the stratum")
    return (10.0 * eta0 / 3.0) ** 0.2 / denom


def scaling_maps_plus(eta0, n_vec, x):
    """Conformal map and scaling function at a plus-stratum point.

    zeta(lam) = [(5/8) psi(lam; 0)]^(2/5) with psi = ghat_1 - ghat_2, and

        x(lam; h) = (1/2)(8/5)^(1/5) [psi(lam;h) - psi(lam;0)] / psi(lam;0)^(1/5)

    with the drift eta_hat = eta0 - C n_eta x h^(4/5), nu_hat = nu0 -
    C n_nu x h^(4/5).  h^(-4/5) x(lam; h) -> x as lam -> -alpha_hat.
    """
    if eta0 <= 0:
        raise DomainError("plus-stratum maps need eta0 > 0")
    C = scaling_constant_plus(eta0, n_vec)
    nu0 = 125.0 * eta0**3 / 108.0
    eta_hat = lambda h: eta0 - C * n_vec[0] * x * h ** 0.8
    nu_hat = lambda h: nu0 - C * n_vec[1] * x * h ** 0.8
    mcurve = modified_curve(eta0, eta_hat, nu_hat)
    base = mcurve.base

    def psi(lam, hbar):
        g1 = mcurve.g_hat_sheet(lam, 1, hbar)
        g2 = mcurve.g_hat_sheet(lam, 2, hbar)
        return g1 - g2

    def psi_diff(lam, hbar):
        # psi(lam; h) - psi(lam; 0), evaluated through the deformation
        # polynomials only (exact difference, no large cancellation)
        d_a, d_c, cd = _plus_correction_polys(eta0)
        dn = nu_hat(hbar) - nu0
        de = eta_hat(hbar) - eta0
        s_a = (dn + 36.0 / (125.0 * eta0**2) * de) / cd
        s_c = (-dn + 125.0 * eta0**2 / 36.0 * de) / cd
        u1 = sc.uniformize(base, lam, 1)
        u2 = sc.uniformize(base, lam, 2)
        pv = np.polynomial.polynomial.polyval
        return (s_a * (pv(u1, d_a) - pv(u2, d_a))
                + s_c * (pv(u1, d_c) - pv(u2, d_c)))

    def zeta(lam):
        w = 0.625 * psi(lam, 0.0)
        theta = cmath.phase(complex(lam) - (-mcurve.alpha_hat))
        arg = cmath.phase(w)
        target = 2.5 * theta
        k = round((target - arg) / (2.0 * math.pi))
        return abs(w) ** 0.4 * cmath.exp(0.4j * (arg + 2.0 * math.pi * k))

    def x_of_lambda(lam, hbar):
        w = psi(lam, 0.0)
        return (0.5 * (8.0 / 5.0) ** 0.2 * psi_diff(lam, hbar)
                / w ** 0.2)

    return ScalingMaps(case="plus", C=C, zeta=zeta, x_of_lambda=x_of_lambda,
                       eta_hat=eta_hat, nu_hat=nu_hat, mcurve=mcurve)


def scaling_maps_minus(s, x):
    """Scaling data at a minus-stratum point (s = -eta0 > 0).

    zeta(lam) = (5s/6)^(3/5) lam, x(lam; h) = (5s/6)^(-1/5) [nu(h) +
    (3/7) lam^2], nu(h) = (5s/6)^(1/5) h^(4/5) x.
    """
    if s <= 0:
        raise DomainError("minus-stratum maps need s = -eta0 > 0")
    c = (5.0 * s / 6.0) ** 0.2
    nu_hat = lambda h: c * h ** 0.8 * x
    mcurve = modified_curve(-s, None, nu_hat)

    def zeta(lam):
        return c**3 * lam

    def x_of_lambda(lam, hbar):
        return (nu_hat(hbar) + (3.0 / 7.0) * lam * lam) / c

    return ScalingMaps(case="minus", C=c, zeta=zeta,
                       x_of_lambda=x_of_lambda,
                       eta_hat=lambda h: -s, nu_hat=nu_hat, mcurve=mcurve)


def x_limit_plus(maps, x, hbars=(1e-3, 1e-4), deltas=(2e-2, 1e-2, 5e-3)):
    """Richardson-extrapolated value of h^(-4/5) x(lam; h) at -alpha_hat.

    The hbar-dependence is exactly linear in x h^(4/5) by construction, so
    the extrapolation is in the lam-offset delta (the O(lam + alpha) term).
    """
    out = []
    for h in hbars:
        vals = []
        beta_hat = -maps.mcurve.alpha_hat
        for d in deltas:
            lam = beta_hat + d
            vals.append(maps.x_of_lambda(lam, h) / h ** 0.8)
        # Richardson on a halving ladder: eliminate O(d) then O(d^2)
        r1 = [2.0 * vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
        r2 = [(4.0 * r1[i + 1] - r1[i]) / 3.0 for i in range(len(r1) - 1)]
        out.append(r2[-1])
    return out


# ---------------------------------------------------------------------------
# Painleve I machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PIState:
    x: float
    q: float
    qprime: float
    H: float
    kappa: int = 1


@dataclass(frozen=True)
class PITrajectory:
    x: np.ndarray
    q: np.ndarray
    qprime: np.ndarray
    H: np.ndarray
    dense: object = None        # collocation interpolant x -> (q, q')

    def state(self, i):
        return PIState(x=float(self.x[i]), q=float(self.q[i]),
                       qprime=float(self.qprime[i]), H=float(self.H[i]))

    def hamiltonian_residuals(self, xs=None, step=3e-3):
        """|dH/dx + q| by five-point differencing of the dense solution."""
        if xs is None:
            xs = self.x
        xs = np.asarray(xs, dtype=float)
        lo, hi = float(self.x[0]), float(self.x[-1])
        xs = np.clip(xs, lo + 2 * step, hi - 2 * step)
        stencil = np.array([-2.0, -1.0, 1.0, 2.0]) * step
        weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * step)
        hvals = []
        for off in stencil:
            qq, qp = self.dense(xs + off)[:2]
            hvals.append(pi_hamiltonian(xs + off, qq, qp))
        d = sum(w * h for w, h in zip(weights, hvals))
        qmid = self.dense(xs)[0]
        return np.abs(d + qmid)


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


def pi_integrate(x_start, x_end, n_points=512, tol=1e-11, blowup=1e6):
    """Solve q'' = 6 q^2 + x on [x_start, x_end], seeded at x_start.

    x_start <= -20 is required so the two-term seed is accurate.  The
    pole-free branch is a connection problem: the linearization carries a
    mode growing like exp(int sqrt(12 q)), which makes a plain forward
    march lose the branch within a few units (and blow up at a spurious
    movable pole).  The trajectory is therefore computed by collocation
    with the seed value at the left end and a decaying-direction Robin
    condition at the right end, which suppresses the growing mode where it
    would amplify.

    Near the right end the computed trajectory can deviate from the true
    pole-free branch at the neighboring-solution scale exp(-(4/5) 12^(1/2)
    6^(-1/4) (-x)^(5/4)); it remains an accurate solution of the equation
    itself throughout (the Hamiltonian identity is unaffected).
    """
    from scipy.integrate import solve_bvp

    if x_start > -20.0:
        raise ValueError("x_start must be <= -20 (asymptotic seed region)")
    if x_end <= x_start:
        raise ValueError("x_end must exceed x_start")
    q_left, _ = pi_seed(x_start)
    if x_end < 0.0:
        w_r, wp_r = pi_seed(x_end)
    else:
        w_r, wp_r = 0.0, -1.0
    slope = -math.sqrt(12.0 * max(w_r, 0.05))

    def rhs(x, y):
        return np.vstack([y[1], 6.0 * y[0] ** 2 + x])

    def bc(ya, yb):
        return np.array([ya[0] - q_left,
                         yb[1] - wp_r - slope * (yb[0] - w_r)])

    mesh = np.linspace(x_start, x_end, 801)
    guess = np.vstack([np.sqrt(np.maximum(-mesh, 1e-3) / 6.0),
                       -1.0 / (12.0 * np.sqrt(np.maximum(-mesh, 1e-3) / 6.0))])
    sol = solve_bvp(rhs, bc, mesh, guess, tol=tol, max_nodes=400000)
    if not sol.success:
        raise PoleEncountered(f"collocation failed: {sol.message}")
    xs = np.linspace(x_start, x_end, n_points)
    vals = sol.sol(xs)
    q, qp = vals[0], vals[1]
    if np.max(np.abs(q)) > blowup:
        raise PoleEncountered("trajectory magnitude exceeded the pole guard")
    return PITrajectory(x=xs, q=q, qprime=qp, H=pi_hamiltonian(xs, q, qp),
                        dense=sol.sol)


def schlesinger_factor(lam, state, s, hbar):
    """Triangular gauge factor of the minus-stratum analysis.

    p(lam) = I - h^(1/5) H E31/(c lam)
             + h^(2/5) (H^2 - q)(E32 - E21)/(2 c^2 lam)
             - h^(4/5) (H^2 - q)^2 E31/(8 c^4 lam^2),  c = (5s/6)^(1/5).

    Strictly lower triangular corrections: det = 1 identically.
    """
    if lam == 0:
        raise ZeroDivisionError("lam = 0 is a pole of the factor")
    c = (5.0 * s / 6.0) ** 0.2
    H = state.H
    w = H * H - state.q
    m = np.eye(3, dtype=complex)
    m[2, 0] += (-hbar ** 0.2 * H / (c * lam)
                - hbar ** 0.8 * w * w / (8.0 * c**4 * lam * lam))
    m[2, 1] += hbar ** 0.4 * w / (2.0 * c * c * lam)
    m[1, 0] += -hbar ** 0.4 * w / (2.0 * c * c * lam)
    return m


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


def _largest_real_root(mp, b, d):
    """Largest real root of s^3/2 + b s^2 + d at the precision of `mp`.

    Real Newton iteration seeded from the largest real root of `np.roots`;
    on the plus stratum the split roots are ~h^(2/5) apart against a seed
    error of ~1e-8, so the seed lies in the right root's basin.  The
    iteration runs with 80 extra bits, so that the step of a nearly double
    root still falls below the 2^-(prec+4) relative stopping bound.
    """
    seeds = np.roots([0.5, float(b), 0.0, float(d)])
    s = mp.mpf(float(seeds[seeds.imag == 0].real.max()))
    tol = mp.ldexp(1, -(mp.prec + 4))
    with mp.extraprec(80):
        for _ in range(60):
            ds = ((s / 2 + b) * s * s + d) / ((3 * s / 2 + 2 * b) * s)
            s -= ds
            if abs(ds) <= tol * abs(s):
                break
        else:
            raise mp.NoConvergence("largest real root: no Newton convergence")
    return +s


def tritronquee_constant(eta0, side, n_vec=(0.0, -1.0), x=-1.0,
                         hbars=(1e-10, 1e-10 / 32.0), dps=40):
    """Leading coefficient of the double-scaled branch root against
    sqrt(-x); equals 6^(-1/2) on both strata.

    Plus stratum: c = lim (1/4) (10 eta0/3)^(2/5) h^(-2/5)
                         [sigma(eta_hat, 0, nu_hat) - 5 eta_hat/3] / sqrt(-x)
    Minus stratum: c = lim (1/2) (5s/6)^(2/5) h^(-2/5)
                         sigma(eta0, 0, nu(h)) / sqrt(-x),  s = -eta0.

    The mu = 0 root is cubic-exact (mpmath); a two-point Richardson step in
    h^(2/5) removes the leading splitting correction.
    """
    import mpmath
    mp = mpmath.mp.clone()
    mp.dps = dps
    if x >= 0:
        raise ValueError("x must be negative (real splitting side)")
    vals = []
    for h in hbars:
        hm = mp.mpf(h)
        if side == "plus":
            if eta0 <= 0:
                raise DomainError("plus stratum needs eta0 > 0")
            C = mp.mpf(scaling_constant_plus(eta0, n_vec))
            eh = mp.mpf(eta0) - C * n_vec[0] * x * hm ** mp.mpf("0.8")
            nh = (mp.mpf(125) / 108 * mp.mpf(eta0) ** 3
                  - C * n_vec[1] * x * hm ** mp.mpf("0.8"))
            sig = _largest_real_root(mp, -mp.mpf("1.25") * eh, nh)
            delta = sig - 5 * eh / 3
            val = (mp.mpf(0.25) * (mp.mpf(10) * eta0 / 3) ** mp.mpf("0.4")
                   * delta / hm ** mp.mpf("0.4") / mp.sqrt(-mp.mpf(x)))
        elif side == "minus":
            if eta0 >= 0:
                raise DomainError("minus stratum needs eta0 < 0")
            s = -eta0
            c = (mp.mpf(5) * s / 6) ** mp.mpf("0.2")
            nh = c * hm ** mp.mpf("0.8") * x
            sig = _largest_real_root(mp, -mp.mpf("1.25") * eta0, nh)
            val = (mp.mpf(0.5) * (mp.mpf(5) * s / 6) ** mp.mpf("0.4")
                   * sig / hm ** mp.mpf("0.4") / mp.sqrt(-mp.mpf(x)))
        else:
            raise ValueError("side must be 'plus' or 'minus'")
        vals.append(val)
    # two-point Richardson in h^(2/5): hbars with ratio 32 give factor 4
    r = (vals[0] / vals[1]) if vals[1] != 0 else mp.mpf(1)
    t = (mp.mpf(hbars[0]) / mp.mpf(hbars[1])) ** mp.mpf("0.4")
    extrap = (t * vals[1] - vals[0]) / (t - 1)
    return float(extrap)


# ---------------------------------------------------------------------------
# Painleve I Riemann-Hilbert data (2x2 and 3x3), stored for reuse
# ---------------------------------------------------------------------------

def pi_rhp_2x2(kappa=1):
    """Sector jump data of the 2x2 tronquee problem.

    Rays at arg = 2 pi k/5 (k = +-1, +-2) plus the negative axis; the
    cyclic (counterclockwise) product of the jumps is the identity for
    every kappa.
    """
    up = np.array([[1, kappa], [0, 1]], dtype=float)
    dn = np.array([[1, 1 - kappa], [0, 1]], dtype=float)
    lo = np.array([[1, 0], [-1, 1]], dtype=float)
    ax = np.array([[0, -1], [1, 0]], dtype=float)
    return {
        2 * math.pi / 5: up,
        4 * math.pi / 5: lo,
        math.pi: ax,
        -4 * math.pi / 5: lo,
        -2 * math.pi / 5: dn,
    }


def pi_phi_coefficients(state):
    """Phi_1 and Phi_2 of the 2x2 asymptotic expansion from a PI state."""
    H, q = state.H, state.q
    phi1 = np.diag([-H, H]).astype(float)
    phi2 = 0.5 * np.array([[H * H, q], [q, H * H]])
    return phi1, phi2


PI3_PATTERN = {
    1: (1, 3), 2: (2, 3), 3: (2, 1), 4: (3, 1), 5: (3, 2),
    -5: (2, 3), -4: (2, 1), -3: (3, 1), -2: (3, 2), -1: (1, 2),
}


def pi3_stokes_values(kappa=1):
    """s_1..s_5 of the 3x3 problem; negative rays carry s_{-k} = -s_{6-k}."""
    return (1 - kappa, -1, 0, -1, kappa)


def pi3_matrices(kappa=1):
    """All ray matrices of the 3x3 problem keyed by ray index."""
    from .parametrix import identity3, _exact
    s = pi3_stokes_values(kappa)
    vals = {k: s[k - 1] for k in range(1, 6)}
    vals.update({-k: -s[6 - k - 1] for k in range(1, 6)})
    out = {}
    for k, (i, j) in PI3_PATTERN.items():
        m = identity3()
        m[i - 1][j - 1] += _exact(vals[k])
        out[k] = m
    return out


def pi3_stokes_relation(kappa=1):
    """Exact check of S_1...S_5 Scal^T == Scal (S_1...S_5)^T."""
    from .parametrix import identity3, _matmul3, SCAL
    mats = pi3_matrices(kappa)
    prod = identity3()
    for k in range(1, 6):
        prod = _matmul3(prod, mats[k])
    scal = [[Fraction(SCAL[i][j]) for j in range(3)] for i in range(3)]
    scal_t = [[Fraction(SCAL[j][i]) for j in range(3)] for i in range(3)]
    lhs = _matmul3(prod, scal_t)
    prod_t = [[prod[j][i] for j in range(3)] for i in range(3)]
    rhs = _matmul3(scal, prod_t)
    return lhs == rhs


def pi3_cyclic_identity(kappa=1):
    """Counterclockwise product of all 3x3 jumps (with the cyclic matrix on
    the negative axis) equals the identity."""
    from .parametrix import identity3, _matmul3, SCAL
    mats = pi3_matrices(kappa)
    prod = identity3()
    for k in (1, 2, 3, 4, 5):
        prod = _matmul3(prod, mats[k])
    scal = [[Fraction(SCAL[i][j]) for j in range(3)] for i in range(3)]
    prod = _matmul3(prod, scal)
    for k in (-5, -4, -3, -2, -1):
        prod = _matmul3(prod, mats[k])
    return prod == identity3()


def pi3_expansion_coeffs(state):
    """Xi_1 and Xi_2 of the 3x3 expansion; both satisfy the cyclic symmetry
    w^(-k) Scal^T Xi_k Scal = Xi_k."""
    w = sc.OMEGA
    H, q = state.H, state.q
    xi1 = np.diag([-H, -w**2 * H, -w * H])
    xi2 = np.array([
        [0.5 * H * H, (w - 1) / 6.0 * q, (w**2 - 1) / 6.0 * q],
        [(1 - w) / 6.0 * q, 0.5 * w * H * H, (w**2 - w) / 6.0 * q],
        [(1 - w**2) / 6.0 * q, (w - w**2) / 6.0 * q, 0.5 * w**2 * H * H],
    ])
    return xi1, xi2
