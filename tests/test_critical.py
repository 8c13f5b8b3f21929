import cmath
import math

import numpy as np
import pytest

import tau34.critical as cr
from tau34.critical import (GAUSS_ANGLE_ARGMAX, InadmissibleDirection,
                            PIState, gauss_angle, gauss_angle_max,
                            modified_curve, modified_matching_report,
                            nu_critical, pi_hamiltonian, pi_integrate,
                            pi_rhp_2x2, pi_seed, pi3_cyclic_identity,
                            pi3_expansion_coeffs, pi3_stokes_relation,
                            scaling_constant_plus, scaling_maps_minus,
                            scaling_maps_plus, schlesinger_factor,
                            surface_discriminant, surface_param,
                            tauhat0_exponent, tritronquee_constant,
                            x_limit_plus)
from tau34.param_domain import Params
from tau34.tau_expansion import leading_hamiltonians, tau_leading

INV_SQRT6 = 1.0 / math.sqrt(6.0)


def _polyroots_largest_real_root(mp, b, d):
    """Test-only oracle: the largest real root of s^3/2 + b s^2 + d by
    mpmath's complex Durand-Kerner `polyroots`."""
    roots = mp.polyroots([mp.mpf("0.5"), b, mp.mpf(0), d], maxsteps=200,
                         extraprec=80)
    return sorted(r.real for r in roots if abs(r.imag) < 1e-20)[-1]


class TestSurface:
    def test_gamma_plus_in_surface(self):
        d = float(surface_discriminant(Params(1.0, 0.0, 125.0 / 108.0)))
        assert abs(d) < 1e-12

    def test_gamma_minus_in_surface(self):
        assert float(surface_discriminant(Params(-1.0, 0.0, 0.0))) == 0.0

    def test_interior_regression_value(self):
        # generic interior point with mu != 0; frozen by direct evaluation.
        # (mu = nu = 0 makes every monomial vanish, so the nonzero witness
        # needs mu or nu off axis.)
        d = float(surface_discriminant(Params(1.0, 0.05, 0.1)))
        assert d == pytest.approx(0.057839459397153646, rel=1e-12)

    def test_parametrization_lies_on_surface(self, rng):
        for _ in range(100):
            eta = rng.uniform(-1.0, 1.0)
            sig = max(5.0 * eta / 3.0, 0.0) + rng.uniform(0.05, 3.0)
            nu, mup, mum, t1, t2p, t5 = surface_param(sig, eta)
            for mu in (mup, mum):
                d = float(surface_discriminant(Params(eta, mu, nu)))
                scale = max(abs(eta), abs(mu), abs(nu), 1.0) ** 15
                assert abs(d) < 1e-10 * scale
            assert t1 == nu and t2p == mup and t5 == eta

    def test_gamma_limits(self):
        nu, mup, _, *_ = surface_param(5.0 / 3.0, 1.0)
        assert mup == pytest.approx(0.0, abs=1e-14)
        assert nu == pytest.approx(125.0 / 108.0, rel=1e-12)
        nu0, mu0, _, *_ = surface_param(0.0, -1.0)
        assert nu0 == 0.0 and mu0 == 0.0

    def test_nu_critical(self):
        assert nu_critical(1.0, 0.0) == pytest.approx(125.0 / 108.0)
        # off the symmetric slice the surface sits below the cube law
        assert nu_critical(0.5, 0.05) < 125.0 / 108.0 * 0.125


class TestGauss:
    def test_reference_value(self):
        assert gauss_angle(1.0) == pytest.approx(
            math.acos(12601.0 / 21241.0), rel=1e-14)

    def test_maximum(self):
        eta_star, angle = gauss_angle_max()
        assert abs(eta_star - GAUSS_ANGLE_ARGMAX) < 1e-6
        assert abs(eta_star - 0.40778) < 1e-4
        assert abs(angle - 1.580416) < 1e-4

    def test_small_eta_square_root_law(self):
        for eta in (1e-3, 5e-4):
            assert gauss_angle(eta) == pytest.approx(
                math.sqrt(40.0 * eta / 3.0), rel=0.05)

    def test_large_eta_decay(self):
        assert gauss_angle(100.0) < 2e-3
        assert gauss_angle(1e4) < 2e-6


class TestNormalizer:
    def test_value_on_stratum(self):
        for eta0 in (0.5, 1.0, 2.0):
            nu0 = 125.0 * eta0**3 / 108.0
            q = float(tauhat0_exponent(eta0, nu0, eta0))
            v = tau_leading(Params(eta0, 0.0, nu0),
                            sigma=5.0 * eta0 / 3.0).varpi0
            assert abs(q - v) < 1e-10 * (1.0 + abs(v))

    def test_gradient_on_stratum(self):
        eta0 = 1.0
        nu0 = 125.0 / 108.0
        h = 1e-6
        dn = (float(tauhat0_exponent(eta0, nu0 + h, eta0))
              - float(tauhat0_exponent(eta0, nu0 - h, eta0))) / (2.0 * h)
        de = (float(tauhat0_exponent(eta0 + h, nu0, eta0))
              - float(tauhat0_exponent(eta0 - h, nu0, eta0))) / (2.0 * h)
        lh = leading_hamiltonians(Params(eta0, 0.0, nu0), sigma=5.0 / 3.0)
        assert dn == pytest.approx(0.5 * lh.h1_0, abs=1e-6)
        assert de == pytest.approx(0.5 * lh.h5_0, abs=1e-6)

    def test_eta0_zero_limit(self):
        assert float(tauhat0_exponent(1.0, 1.0, 0.0)) == 0.0


class TestModifiedCurves:
    def test_plus_frozen_equals_critical(self):
        mc = modified_curve(1.0)
        base = mc.base
        assert np.allclose(mc.g_hat_coeffs(0.0), base.g_coeffs, atol=1e-14)
        for lam in np.linspace(-4.0, 4.0, 20) + 0.37j:
            for sheet in (1, 2, 3):
                ghat = mc.g_hat_sheet(lam, sheet, 0.0)
                from tau34.spectral_curve import g_sheet
                assert abs(ghat - g_sheet(base, lam, sheet)) < 1e-10

    def test_minus_exact_cube_roots(self):
        mc = modified_curve(-1.0, None, lambda h: 0.3 * h ** 0.8)
        rep = modified_matching_report(mc, 1e-2)
        for (sheet, half), (slope, resid) in rep.items():
            assert slope is None
            assert resid < 1e-20

    def test_plus_matching_slopes(self):
        sm = scaling_maps_plus(1.0, (0.0, -1.0), x=1.0)
        rep = modified_matching_report(sm.mcurve, 1e-2)
        for key, (slope, _) in rep.items():
            assert abs(slope + 1.0 / 3.0) < 0.02, (key, slope)

    def test_branch_point_location(self):
        mc = modified_curve(1.0)
        assert mc.u_star == pytest.approx(math.sqrt(5.0 / 6.0), rel=1e-14)
        assert mc.alpha_hat == pytest.approx(
            (5.0 / 3.0) * math.sqrt(5.0 / 6.0), rel=1e-14)
        assert mc.alpha_hat == pytest.approx(mc.base.alpha, rel=1e-14)


class TestScalingMaps:
    def test_constant_value(self):
        assert scaling_constant_plus(1.0, (0.0, -1.0)) == pytest.approx(
            (10.0 / 3.0) ** 0.2, rel=1e-12)

    def test_inadmissible_direction(self):
        with pytest.raises(InadmissibleDirection):
            scaling_constant_plus(1.0, (0.0, 1.0))

    def test_x_limit(self):
        for x in (1.0, -2.0, 0.4):
            sm = scaling_maps_plus(1.0, (0.0, -1.0), x=x)
            for val in x_limit_plus(sm, x, hbars=(1e-3, 1e-4)):
                assert abs(val - x) < 1e-6

    def test_zeta_conformal(self):
        sm = scaling_maps_plus(1.0, (0.0, -1.0), x=1.0)
        beta_hat = -sm.mcurve.alpha_hat
        d = 1e-4
        der = (sm.zeta(beta_hat + 2.0 * d) - sm.zeta(beta_hat + d)) / d
        assert abs(der) > 1e-3

    def test_minus_literal(self):
        sm = scaling_maps_minus(1.0, x=0.0)
        for lam in (0.3, -0.7, 1.1):
            want = (5.0 / 6.0) ** (-0.2) * (3.0 / 7.0) * lam**2
            assert sm.x_of_lambda(lam, 1e-3) == pytest.approx(want, rel=1e-13)

    def test_minus_uniform_limit_slope(self):
        # max |h^(-4/5) x(lam) - x| over |lam| < h^(2/5 + delta) scales like
        # h^(2 delta) with delta = 0.1
        x = 0.7
        sm = scaling_maps_minus(1.3, x=x)
        hs = np.array([1e-4, 1e-5, 1e-6])
        devs = []
        for h in hs:
            lams = np.linspace(-(h ** 0.5), h ** 0.5, 41)
            vals = [abs(sm.x_of_lambda(l, h) / h ** 0.8 - x) for l in lams]
            devs.append(max(vals))
        slope = np.polyfit(np.log(hs), np.log(devs), 1)[0]
        assert abs(slope - 0.2) < 0.02

    def test_minus_phase_reconstruction(self):
        # ghat on each sheet equals the displayed zeta/x combination, with
        # the upper-half-plane phase permutation (1, 3, 2)
        OM = cmath.exp(2j * math.pi / 3.0)
        sm = scaling_maps_minus(1.0, x=0.7)
        hb = 1e-2
        perm = {1: 1, 2: 3, 3: 2}
        for lam in (0.3 + 0.2j, -0.4 + 0.5j, 1.2 + 0.01j):
            for sheet in (1, 2, 3):
                j = perm[sheet]
                gh = sm.mcurve.g_hat_sheet(lam, sheet, hb)
                ze = sm.zeta(lam)
                xv = sm.x_of_lambda(lam, hb)
                want = (-(6.0 / 5.0) * OM ** (1 - j) * ze ** (5.0 / 3.0)
                        + OM ** (j - 1) * xv * ze ** (1.0 / 3.0))
                assert abs(gh - want) < 1e-10 * (1.0 + abs(want))

    def test_nu_scaling_exponent(self):
        sm = scaling_maps_minus(1.0, x=0.7)
        hs = np.array([1e-2, 1e-3, 1e-4])
        nus = np.abs([sm.nu_hat(h) for h in hs])
        slope = np.polyfit(np.log(hs), np.log(nus), 1)[0]
        assert abs(slope - 0.8) < 0.01


class TestPainleve:
    def test_seed_region_guard(self):
        with pytest.raises(ValueError):
            pi_integrate(-5.0, -1.0)

    def test_seed_asymptote(self):
        tr = pi_integrate(-24.0, -1.0, n_points=201)
        assert abs(tr.q[0] - 2.0) / 2.0 < 1e-2

    def test_hamiltonian_identity(self):
        tr = pi_integrate(-24.0, -1.0, n_points=201)
        resid = tr.hamiltonian_residuals()
        assert float(np.max(resid)) < 1e-8

    def test_two_seed_consistency(self):
        tr_a = pi_integrate(-24.0, -1.0, n_points=201)
        tr_b = pi_integrate(-30.0, -1.0, n_points=201)
        for x in (-15.0, -10.0, -5.0):
            qa = tr_a.dense(x)[0]
            qb = tr_b.dense(x)[0]
            assert abs(qa - qb) < 1e-6

    def test_seed_hamiltonian_consistency(self):
        q0, qp0 = pi_seed(-24.0)
        tr = pi_integrate(-24.0, -4.0, n_points=11)
        assert tr.H[0] == pytest.approx(pi_hamiltonian(-24.0, q0, qp0),
                                        rel=1e-8)

    def test_schlesinger_determinant(self):
        st = PIState(x=-5.0, q=0.9, qprime=0.05,
                     H=pi_hamiltonian(-5.0, 0.9, 0.05))
        for lam in (0.7 + 0.3j, -1.2 + 0.1j, 2.0):
            m = schlesinger_factor(lam, st, 1.0, 1e-3)
            assert abs(np.linalg.det(m) - 1.0) < 1e-14
            assert m[1, 0] == pytest.approx(-m[2, 1], rel=1e-14)

    def test_schlesinger_trivial_state(self):
        st = PIState(x=0.0, q=0.0, qprime=0.0, H=0.0)
        m = schlesinger_factor(1.0, st, 1.0, 1e-2)
        assert np.allclose(m, np.eye(3))


class TestDegenerationConstant:
    @pytest.mark.parametrize("eta0", [0.5, 1.0, 2.0])
    def test_plus_stratum(self, eta0):
        c = tritronquee_constant(eta0, "plus")
        assert abs(c - INV_SQRT6) < 1e-6

    @pytest.mark.parametrize("eta0", [-0.5, -1.0, -2.0])
    def test_minus_stratum(self, eta0):
        c = tritronquee_constant(eta0, "minus")
        assert abs(c - INV_SQRT6) < 1e-6

    @pytest.mark.parametrize("n_vec", [(0.0, -1.0), (1.0, 0.0), (0.2, -0.5)])
    def test_direction_independence(self, n_vec):
        c = tritronquee_constant(1.0, "plus", n_vec=n_vec)
        assert abs(c - INV_SQRT6) < 1e-6

    def test_x_independence(self):
        for x in (-0.5, -1.0, -3.0):
            c = tritronquee_constant(1.0, "plus", x=x)
            assert abs(c - INV_SQRT6) < 1e-6

    @pytest.mark.parametrize("eta0", np.linspace(0.1, 3.0, 12))
    def test_newton_root_matches_polyroots(self, eta0, monkeypatch):
        fast = (tritronquee_constant(eta0, "plus"),
                tritronquee_constant(-eta0, "minus"))
        monkeypatch.setattr(cr, "_largest_real_root",
                            _polyroots_largest_real_root)
        assert fast == (tritronquee_constant(eta0, "plus"),
                        tritronquee_constant(-eta0, "minus"))


class TestPIRHPData:
    def test_2x2_cyclic_identity(self):
        for kappa in (0.0, 1.0, 0.37):
            jumps = pi_rhp_2x2(kappa)
            order = [2 * math.pi / 5, 4 * math.pi / 5, math.pi,
                     -4 * math.pi / 5, -2 * math.pi / 5]
            prod = np.eye(2)
            for ang in order:
                prod = prod @ jumps[ang]
            assert np.max(np.abs(prod - np.eye(2))) < 1e-14

    def test_phi_coefficients(self):
        st = PIState(x=-3.0, q=0.7, qprime=0.1,
                     H=pi_hamiltonian(-3.0, 0.7, 0.1))
        phi1, phi2 = cr.pi_phi_coefficients(st)
        assert phi1[0, 0] == -st.H and phi1[1, 1] == st.H
        assert phi2[0, 1] == phi2[1, 0] == 0.5 * st.q

    def test_3x3_stokes_relation(self):
        assert pi3_stokes_relation(1)
        assert pi3_stokes_relation(0)

    def test_3x3_cyclic_identity(self):
        assert pi3_cyclic_identity(1)
        assert pi3_cyclic_identity(0)

    def test_xi_symmetry(self):
        st = PIState(x=-3.0, q=0.7, qprime=0.1,
                     H=pi_hamiltonian(-3.0, 0.7, 0.1))
        x1, x2 = pi3_expansion_coeffs(st)
        S = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        w = cmath.exp(2j * math.pi / 3.0)
        for k, xi in ((1, x1), (2, x2)):
            resid = np.max(np.abs(w ** (-k) * S.T @ xi @ S - xi))
            assert resid < 1e-14
