import math
from fractions import Fraction

import numpy as np
import pytest

from tau34.param_domain import DomainError, Params, sigma_jets, solve_sigma
from tau34.series import Jet
from tau34.tau_expansion import (dlogtau_consistency, expansion_jet,
                                 flow_compatibility, leading_hamiltonians,
                                 string_residual, tau_leading)

from oracles import fd_dlogtau_consistency, h1_first_correction


# ---------------------------------------------------------------------------
# the quartic two-matrix model bridge: an oracle for the branch equation.
# Each formula is written once for floats, Fractions and mpmath numbers
# (Fraction constants stay on the left of products and on the right of
# sums: mpmath does not take a Fraction on the left of - or /).
# ---------------------------------------------------------------------------

MULTISCALE_C1 = Fraction(9, 164)
MULTISCALE_C2 = Fraction(2, 3)
MULTISCALE_C5 = Fraction(5, 12)
CRITICAL_TAU = Fraction(1, 4)
CRITICAL_T = Fraction(-5, 72)


def matrix_model_ideal(sigma, t, tau, H, cosh=math.cosh):
    """The resolvent algebraic equation of the quartic two-matrix model.

    J = -t - tau^2 sigma (sigma^2-3)/9 - sigma/(3 (1+sigma)^2)
        + (2/3) (sigma/(1-sigma^2))^2 (cosh H - 1)

    Rational inputs with H = 0 are evaluated exactly (Fraction arithmetic
    passes through); the cosh term is only active for H != 0.
    """
    if abs(1 + sigma) < 1e-14:
        raise ZeroDivisionError("sigma = -1 is a pole of the equation")
    out = (-t - tau**2 * sigma * (sigma**2 - 3) / 9
           - sigma / (3 * (1 + sigma) ** 2))
    if H != 0:
        if abs(1 - sigma**2) < 1e-14:
            raise ZeroDivisionError("sigma = +-1 is a pole of the cosh term")
        out += Fraction(2, 3) * (sigma / (1 - sigma**2)) ** 2 * (cosh(H) - 1)
    return out


def multiscaling_point(p, eps):
    """(tau, t, H) of the multiscaling family at N^(-2/7) = eps.

    The combination is tuned so that inserting sigma = 1 + s1 eps + ... into
    the resolvent equation makes orders eps^0..eps^2 vanish identically and
    reproduces the branch equation for s1 = 5 eta/3 - s at order eps^3.
    (H scales as N^(-5/7) = eps^(5/2), entering only through cosh H - 1.)
    """
    c1, c2, c5 = MULTISCALE_C1, MULTISCALE_C2, MULTISCALE_C5
    eta, nu = p.eta, p.nu
    tau = -c5 * eta * eps + c1 * nu * eps**3 / 9 + CRITICAL_TAU
    t = (-c5 * eta * eps / 9 - c1 * nu * eps**3
         + 2 * c5**2 * eta**2 * eps**2 / 9
         + 8 * c5**3 * eta**3 * eps**3 / 9 + CRITICAL_T)
    H = c2 * p.mu * eps**2.5
    return tau, t, H


def multiscaling_sigma1(p, eps, sigma=None, dps=40):
    """(sigma(eps) - 1)/eps for the resolvent root near sigma = 1.

    Converges to 5 eta/3 - s as eps -> 0 (s the branch-equation root).
    Solved in mpmath: near the critical point the equation value is O(eps^3)
    out of O(1) cancellations, far below double resolution for small eps.
    """
    import mpmath
    mp = mpmath.mp.clone()
    mp.dps = dps
    if sigma is None:
        sigma = solve_sigma(p).sigma
    e = mp.mpf(eps)
    tau, t, H = multiscaling_point(Params(*map(mp.mpf, (p.eta, p.mu, p.nu))),
                                   e)
    x0 = 1 + (5.0 * p.eta / 3.0 - sigma) * e
    root = mp.findroot(lambda sg: matrix_model_ideal(sg, t, tau, H, mp.cosh),
                       (x0, x0 * (1 + mp.mpf(10) ** (-8))),
                       solver="secant", tol=mp.mpf(10) ** (-2 * dps + 10))
    return float((root - 1) / e)


class TestJet:
    def test_mul_div_roundtrip(self):
        a = Jet([2.0, 1.0, -0.5, 0.25])
        b = Jet([1.0, -3.0, 2.0, 0.1])
        c = a * b / b
        assert np.allclose(c.c, a.c)

    def test_derivative_extraction(self):
        j = Jet.from_derivatives([1.0, 2.0, 6.0, 12.0])
        assert j.derivative(2) == 6.0
        assert j.c[2] == 3.0

    def test_reciprocal(self):
        x = Jet([4.0, 1.0, 0.0])
        r = 1.0 / x
        assert np.allclose((x * r).c, [1.0, 0.0, 0.0])


class TestLeadingData:
    def test_reference_hamiltonians(self):
        h = leading_hamiltonians(Params(1.0, 0.0, 0.0))
        assert h.h1_0 == pytest.approx(625.0 / 384.0, rel=1e-14)
        assert h.h2_0 == 0.0
        assert h.h5_0 == pytest.approx(-15625.0 / 3072.0, rel=1e-14)

    def test_reference_tau(self):
        tl = tau_leading(Params(1.0, 0.0, 0.0))
        assert tl.varpi0 == pytest.approx(-15625.0 / 43008.0, rel=1e-14)
        assert tl.chi == pytest.approx(125.0 / 8.0, rel=1e-14)

    def test_eta_homogeneity(self):
        for eta in (0.5, 1.0, 2.0):
            tl = tau_leading(Params(eta, 0.0, 0.0))
            assert tl.varpi0 == pytest.approx(-15625.0 / 43008.0 * eta**7,
                                              rel=1e-13)

    def test_chi_identity(self, rng):
        from conftest import random_domain_points
        for p in random_domain_points(rng, 50):
            sol = solve_sigma(p)
            tl = tau_leading(p, sigma=sol.sigma)
            lhs = tl.chi + 2.0 * (5.0 * p.eta - 3.0 * sol.sigma) \
                * sol.dP_dsigma
            assert abs(lhs) < 1e-12 * (1.0 + abs(tl.chi))
            assert tl.chi > 0.0


class TestDlogTau:
    def test_eta_anchor(self):
        # analytic eta-derivative of the homogeneous ray value
        h = leading_hamiltonians(Params(1.0, 0.0, 0.0))
        assert -109375.0 / 43008.0 == pytest.approx(0.5 * h.h5_0, rel=1e-14)

    def test_mu_parity_anchor(self):
        h = leading_hamiltonians(Params(1.0, 0.0, 0.0))
        assert h.h2_0 == 0.0

    def test_identities_interior(self):
        grad, closed = dlogtau_consistency(Params(1.0, 0.1, 0.2))
        for r in grad:
            assert abs(r) < 1e-6
        for r in closed:
            assert abs(r) < 1e-6

    def test_identities_sample(self, rng):
        # the complex-step rows against the central-difference oracle,
        # whose own truncation error is up to about 5e-9 relative
        from conftest import random_domain_points
        for p in random_domain_points(rng, 10):
            grad, closed = dlogtau_consistency(p)
            scale = 1.0 + abs(tau_leading(p).varpi0)
            assert max(map(abs, grad)) < 1e-6 * scale
            assert max(map(abs, closed)) < 1e-6 * scale
            fd_grad, fd_closed = fd_dlogtau_consistency(p)
            for got, want in zip(grad + closed, fd_grad + fd_closed):
                assert abs(got - want) < 1e-7 * scale

    def test_identities_exact_on_grid(self, d_grid20):
        # exact to rounding: no step, so no truncation error
        for p in d_grid20:
            grad, closed = dlogtau_consistency(p)
            scale = 1.0 + abs(tau_leading(p).varpi0)
            assert max(map(abs, grad + closed)) <= 1e-12 * scale


class TestExpansion:
    def test_leading_values(self):
        jet = expansion_jet(Params(1.0, 0.0, 0.0), K=1)
        assert jet.u0 == pytest.approx(2.5, rel=1e-14)
        assert jet.v0 == 0.0
        # order-h^2 coefficient from the 2x2 solve (closed form on mu = 0)
        assert jet.u[1][0] == pytest.approx(-0.06417066666666667, rel=1e-10)
        assert jet.v[1][0] == 0.0

    def test_mu_parity(self):
        jp = expansion_jet(Params(1.0, 0.08, 0.1), K=1)
        jm = expansion_jet(Params(1.0, -0.08, 0.1), K=1)
        for k in range(2):
            assert jp.u[k][0] == pytest.approx(jm.u[k][0], abs=1e-12)
            assert jp.v[k][0] == pytest.approx(-jm.v[k][0], abs=1e-12)

    def test_residual_zero_at_hbar_zero(self):
        # exactly zero on the symmetric slice, rounding-level off it
        p0 = Params(1.0, 0.0, 0.0)
        r1, r2 = string_residual(p0, expansion_jet(p0, K=0), 0.0)
        assert r1 == 0.0 and r2 == 0.0
        p = Params(1.0, 0.05, 0.1)
        r1, r2 = string_residual(p, expansion_jet(p, K=0), 0.0)
        assert r1 < 1e-15
        assert r2 < 1e-13

    @pytest.mark.parametrize("K,slope,tol", [(0, 2.0, 0.02), (1, 4.0, 0.05),
                                             (2, 6.0, 0.05)])
    def test_residual_scaling(self, K, slope, tol):
        p = Params(1.0, 0.05, 0.1)
        jet = expansion_jet(p, K=K, dps=40)
        hs = np.array([1e-2, 1e-3, 1e-4])
        rs = [max(float(r) for r in string_residual(p, jet, h)) for h in hs]
        fit = np.polyfit(np.log(hs), np.log(rs), 1)[0]
        assert abs(fit - slope) < tol


class TestFlows:
    def test_interior_residuals(self):
        for p in (Params(1.0, 0.1, 0.2), Params(2.0, -0.1, 0.3)):
            r = flow_compatibility(p)
            assert max(map(abs, r)) < 1e-10

    def test_mu_zero_degenerate(self):
        r = flow_compatibility(Params(1.0, 0.0, 0.2))
        assert r[0] == 0.0

    def test_fd_cross_check(self):
        # identity (i): du0/dmu + 2 dv0/dnu against finite differences
        p = Params(1.0, 0.1, 0.2)
        h = 1e-6

        def v0(nu):
            s = solve_sigma(Params(p.eta, p.mu, nu)).sigma
            return -2.0 * p.mu / (5.0 * p.eta - 3.0 * s)

        fd_v = (v0(p.nu + h) - v0(p.nu - h)) / (2.0 * h)
        fd_u = (solve_sigma(Params(p.eta, p.mu + h, p.nu)).sigma
                - solve_sigma(Params(p.eta, p.mu - h, p.nu)).sigma) / (2 * h)
        assert abs(fd_u + 2.0 * fd_v) < 1e-6


class TestMatrixModel:
    def test_multicritical_root_exact(self):
        val = matrix_model_ideal(1, Fraction(-5, 72), Fraction(1, 4), 0)
        assert val == 0

    def test_simple_value(self):
        assert matrix_model_ideal(1.0, 0.0, 0.0, 0.0) == pytest.approx(
            -1.0 / 12.0, rel=1e-15)

    def test_pole_guard(self):
        with pytest.raises(ZeroDivisionError):
            matrix_model_ideal(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ZeroDivisionError):
            matrix_model_ideal(1.0, 0.0, 0.0, 0.5)

    def test_multiscaling_exact_in_fractions(self):
        # sigma = 1 + (5 eta/3 - s) eps leaves J = P(s) eps^3/18 + O(eps^4)
        # for any s: orders eps^0..eps^2 cancel identically in exact
        # arithmetic, so J/eps^3 - P/18 shrinks tenfold with eps
        for s, eta, nu in ((Fraction(5, 2), 1, 0),
                           (Fraction(3), 1, Fraction(-3, 4)),
                           (Fraction(7, 5), Fraction(-1, 2), Fraction(1, 3))):
            P = nu + s**3 / 2 - Fraction(5, 4) * eta * s**2
            gaps = []
            for eps in (Fraction(1, 10**3), Fraction(1, 10**4)):
                tau, t, H = multiscaling_point(Params(eta, 0, nu), eps)
                J = matrix_model_ideal(1 + (Fraction(5, 3) * eta - s) * eps,
                                       t, tau, H)
                assert isinstance(J, Fraction)
                gaps.append(J / eps**3 - P / 18)
            assert abs(gaps[1] / gaps[0] - Fraction(1, 10)) < Fraction(1, 100)

    @pytest.mark.parametrize("pt", [Params(1.0, 0.0, 0.0),
                                    Params(1.0, 0.05, 0.1),
                                    Params(2.0, -0.1, 0.3)])
    def test_multiscaling_limit(self, pt):
        sigma = solve_sigma(pt).sigma
        target = 5.0 * pt.eta / 3.0 - sigma
        v1 = multiscaling_sigma1(pt, 1e-5, sigma=sigma)
        v2 = multiscaling_sigma1(pt, 5e-6, sigma=sigma)
        extrap = 2.0 * v2 - v1
        assert extrap == pytest.approx(target, abs=1e-6)


class TestFirstCorrection:
    def test_reference_value(self):
        val = h1_first_correction(Params(1.0, 0.0, 0.0))
        assert val == pytest.approx(28.0 / 375.0, rel=1e-13)

    def test_requires_mu_zero(self):
        with pytest.raises(DomainError):
            h1_first_correction(Params(1.0, 0.1, 0.0))
