"""Leading tau-function data and the recursive expansion machinery.

Contents:
  * closed forms of the leading Hamiltonian densities h1, h2, h5 and of the
    leading free energy varpi0 / one-loop factor chi;
  * the order-by-order solution (u_k, v_k) of the rescaled string equation,
    carried as nu-derivative jets so residual evaluation is analytic;
  * the flow-compatibility and tau-differential consistency checks, whose
    first derivatives along the branch-equation root are complex steps of
    the closed forms (exact to rounding; no finite differences).

All scalar formulas are written once over (eta, mu, sigma) and are
dtype-generic (floats, complex numbers or mpmath): residual-scaling tests at
hbar = 1e-4 sit below double precision, so jets can be built in mpmath via
the dps argument.
"""
from dataclasses import dataclass

from . import param_domain as pd
from .series import Jet


@dataclass(frozen=True)
class LeadingHamiltonians:
    h1_0: float
    h2_0: float
    h5_0: float


@dataclass(frozen=True)
class TauLeading:
    varpi0: float
    chi: float


@dataclass(frozen=True)
class ExpansionJet:
    """u_k, v_k at a point with nu-derivatives up to order 4 - 2k."""
    params: object
    order: int
    u: tuple        # u[k] = (value, d/dnu, d2/dnu2, ...) for k <= order
    v: tuple

    @property
    def u0(self):
        return self.u[0][0]

    @property
    def v0(self):
        return self.v[0][0]


def _hamiltonians(eta, mu, sigma):
    """(h1, h2, h5) over scalars: floats, complex numbers or mpmath."""
    den = 5.0 * eta - 3.0 * sigma
    h1 = -sigma**3 * (20.0 * eta - 9.0 * sigma) / 24.0
    h2 = -mu * sigma**2
    h5 = (5.0 / 48.0) * sigma**5 * (2.0 * eta - sigma)
    if mu != 0.0:
        h1 += 2.0 * mu**2 * (6.0 * sigma - 5.0 * eta) / den**2
        h2 += 16.0 * mu**3 / den**3
        h5 += 2.5 * mu**2 * sigma**2 * (5.0 * eta - 4.0 * sigma) / den**2 \
            - 30.0 * mu**4 / den**4
    return h1, h2, h5


def _tau(eta, mu, sigma):
    """(varpi0, chi) over scalars: floats, complex numbers or mpmath."""
    den = 5.0 * eta - 3.0 * sigma
    varpi0 = -sigma**5 * (54.0 * sigma**2 - 245.0 * eta * sigma
                          + 280.0 * eta**2) / 1344.0
    chi = sigma * den**2
    if mu != 0.0:
        varpi0 += (-mu**2 * sigma**2 * (50.0 * eta**2 - 80.0 * eta * sigma
                                        + 27.0 * sigma**2) / (8.0 * den**2)
                   + mu**4 * (25.0 * eta - 24.0 * sigma) / den**4)
        chi -= 72.0 * mu**2 / den**2
    return varpi0, chi


def leading_hamiltonians(p, sigma=None):
    """h1, h2, h5 (closed forms at the branch-equation root)."""
    if sigma is None:
        sigma = pd.solve_sigma(p).sigma
    return LeadingHamiltonians(*_hamiltonians(p.eta, p.mu, sigma))


def tau_leading(p, sigma=None):
    """varpi0 and chi; chi = -2(5 eta - 3 s) dP/ds identically."""
    if sigma is None:
        sigma = pd.solve_sigma(p).sigma
    return TauLeading(*_tau(p.eta, p.mu, sigma))


# ---------------------------------------------------------------------------
# recursive expansion of the rescaled string equation
# ---------------------------------------------------------------------------

def _sigma_refined(p, pm, mp):
    """Branch-equation root at pm, the mpmath copy of p: Newton on
    `param_domain.eval_P` from the double-precision root."""
    s = mp.mpf(pd.solve_sigma(p).sigma)
    for _ in range(80):
        value, dP = pd.eval_P(s, pm)
        step = value / dP
        s -= step
        if abs(step) < mp.mpf(10) ** (-mp.dps + 4) * (1 + abs(s)):
            break
    return s


def _jet_derivative(jet):
    """Jet of f' given the jet of f (one order lower)."""
    return Jet([(k + 1) * c for k, c in enumerate(jet.c[1:])])


def expansion_jet(p, K=1, dps=None):
    """Solve the string-equation expansion through order hbar^(2K), K <= 2.

    u0 = s, v0 = -2 mu/(5 eta - 3 s); the order-hbar^(2k) equations are 2x2
    linear systems with the matrix whose determinant is
    (5 eta - 3 s) dP/ds != 0 on the domain.  Each u_k, v_k is carried with
    nu-derivatives up to order 4 - 2k.
    """
    if not 0 <= K <= 2:
        raise ValueError("expansion order K must be 0, 1 or 2")
    pm, sigma = p, None
    if dps is not None:
        import mpmath
        mp = mpmath.mp.clone()
        mp.dps = dps
        pm = pd.Params(*map(mp.mpf, (p.eta, p.mu, p.nu)))
        sigma = _sigma_refined(p, pm, mp)
    eta, mu = pm.eta, pm.mu

    depth = 4
    u0 = Jet.from_derivatives(pd.sigma_jets(pm, depth, sigma=sigma).dnu)
    v0 = (-2 * mu) / (5 * eta - 3 * u0) if mu != 0 else u0 * 0
    series_u = [u0]
    series_v = [v0]
    for k in (1, 2):
        if K < k:
            break
        m11 = 1.5 * u0 * u0 - 2.5 * eta * u0
        m12 = 3 * v0
        m21 = -1.5 * v0
        m22 = 2.5 * eta - 1.5 * u0
        if k == 1:
            du = _jet_derivative(u0)
            ddu = _jet_derivative(du)
            r1 = 0.375 * du * du + 0.75 * u0 * ddu - (5.0 / 12.0) * eta * ddu
            r2 = -_jet_derivative(_jet_derivative(v0))
        else:
            u1, v1 = series_u[1], series_v[1]
            du0 = _jet_derivative(u0)
            ddu0 = _jet_derivative(du0)
            d4u0 = _jet_derivative(_jet_derivative(ddu0))
            du1 = _jet_derivative(u1)
            ddu1 = _jet_derivative(du1)
            ddv1 = _jet_derivative(_jet_derivative(v1))
            r1 = (-1.5 * u0 * u1 * u1 - 1.5 * v1 * v1 + 1.25 * eta * u1 * u1
                  + 0.75 * du0 * du1 + 0.75 * (u0 * ddu1 + u1 * ddu0)
                  - (5.0 / 12.0) * eta * ddu1 - d4u0 / 12.0)
            r2 = 1.5 * u1 * v1 - ddv1
        det = m11 * m22 - m12 * m21
        series_u.append((r1 * m22 - m12 * r2) / det)
        series_v.append((m11 * r2 - r1 * m21) / det)

    def tup(jet, upto):
        return tuple(jet.derivative(m) for m in range(upto + 1))

    u_out = tuple(tup(series_u[k], depth - 2 * k) for k in range(K + 1))
    v_out = tuple(tup(series_v[k], depth - 2 * k) for k in range(K + 1))
    return ExpansionJet(params=p, order=K, u=u_out, v=v_out)


def string_residual(p, jet, hbar):
    """Absolute residuals of the two rescaled string-equation lines.

    The truncated series u = sum u_k hbar^(2k) (and v) is inserted into

        r1 = (5/2) eta v - (3/2) u v + mu + hbar^2 v''
        r2 = u^3/2 + (3/2) v^2 - (5/4) eta u^2 + nu
             - hbar^2 ((3/8)(u')^2 + (3/4) u u'' - (5/12) eta u'')
             + hbar^4 u''''/12

    with every derivative taken from the jet (analytic, no finite
    differences).  A jet of order K leaves residuals O(hbar^(2K+2)).
    """
    h2 = hbar * hbar

    def series_val(tab, m):
        # m-th nu-derivative of the truncated series; drop orders whose
        # recorded depth does not reach m (their contribution is beyond the
        # jet's documented accuracy)
        tot = 0.0
        for k, derivs in enumerate(tab):
            if m < len(derivs):
                tot = tot + derivs[m] * h2**k
        return tot

    u, du, ddu = (series_val(jet.u, m) for m in range(3))
    d4u = series_val(jet.u, 4)
    v = series_val(jet.v, 0)
    ddv = series_val(jet.v, 2)
    eta, mu, nu = p.eta, p.mu, p.nu
    r1 = 2.5 * eta * v - 1.5 * u * v + mu + h2 * ddv
    r2 = (u**3 / 2 + 1.5 * v * v - 1.25 * eta * u * u + nu
          - h2 * (0.375 * du * du + 0.75 * u * ddu - (5.0 / 12.0) * eta * ddu)
          + h2 * h2 * d4u / 12.0)
    return abs(r1), abs(r2)


def _along_root(f, p, jets):
    """(d/deta, d/dmu, d/dnu) of the real values f(eta, mu, s) returns, with
    s = s(eta, mu, nu) the root, by the complex step (Squire & Trapp, SIAM
    Rev. 40, 1998): d/dx f = f_x + f_s s_x is Im f(p + i h e_x, s + i h s_x)/h
    up to O(h^2) relative, with no difference taken, so h = 1e-30 leaves
    rounding alone.  f must be analytic; mu != 0 is its only comparison."""
    h, s = 1e-30, jets.sigma
    return tuple(
        tuple(v.imag / h for v in f(complex(p.eta, h * de),
                                    complex(p.mu, h * dm),
                                    complex(s, h * ds)))
        for de, dm, ds in ((1.0, 0.0, jets.deta), (0.0, 1.0, jets.dmu),
                           (0.0, 0.0, jets.dnu[1])))


def flow_compatibility(p, sigma=None):
    """Residuals of the three leading-order flow identities.

      (i)   du0/dmu + 2 dv0/dnu
      (ii)  dv0/dmu + u0 du0/dnu
      (iii) du0/deta - d/dnu [u0^3/4 - v0^2/2 - (5/3) eta u0^2] - 4/3

    with u0 = s and v0 = -2 mu/(5 eta - 3 s), differentiated along the root
    by the complex step (no finite differences).
    """
    jets = pd.sigma_jets(p, depth=1, sigma=sigma)

    def fields(eta, mu, s):
        v0 = -2.0 * mu / (5.0 * eta - 3.0 * s)
        return s, v0, s**3 / 4 - v0**2 / 2 - (5.0 / 3.0) * eta * s**2

    (du_deta, _, _), (du_dmu, dv_dmu, _), (du_dnu, dv_dnu, dbracket_dnu) = \
        _along_root(fields, p, jets)
    return (du_dmu + 2.0 * dv_dnu,
            dv_dmu + jets.sigma * du_dnu,
            du_deta - dbracket_dnu - 4.0 / 3.0)


def dlogtau_consistency(p, sigma=None):
    """Residuals of the six tau-differential identities at p.

    Gradient identities:
        d varpi0/d nu - h1/2, d varpi0/d mu - h2/2, d varpi0/d eta - h5/2
    and closedness cross-partials of (h1, h2, h5)/2 in (nu, mu, eta).
    Every derivative is a complex step along the root, so the branch
    equation is solved at p alone, and only when sigma is not given.
    """
    jets = pd.sigma_jets(p, depth=1, sigma=sigma)
    h1, h2, h5 = _hamiltonians(p.eta, p.mu, jets.sigma)
    d_eta, d_mu, d_nu = _along_root(
        lambda eta, mu, s: (_tau(eta, mu, s)[0], *_hamiltonians(eta, mu, s)),
        p, jets)
    grad = (d_nu[0] - 0.5 * h1, d_mu[0] - 0.5 * h2, d_eta[0] - 0.5 * h5)
    closed = (d_mu[1] - d_nu[2], d_eta[1] - d_nu[3], d_eta[2] - d_mu[3])
    return grad, closed
