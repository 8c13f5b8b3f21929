import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import tau34.critical as cr
from tau34.critical import (GAUSS_ANGLE_ARGMAX, InadmissibleDirection,
                            gauss_angle, gauss_angle_max, nu_critical,
                            pi_hamiltonian, pi_integrate, pi_seed,
                            scaling_constant_plus, surface_discriminant,
                            surface_param, tauhat0_exponent,
                            tritronquee_constant)
from tau34.param_domain import Params
from tau34.tau_expansion import leading_hamiltonians, tau_leading

INV_SQRT6 = 1.0 / math.sqrt(6.0)


def _polyroots_largest_real_root(mp, b, d):
    """Test-only oracle: the largest real root of s^3/2 + b s^2 + d by
    mpmath's complex Durand-Kerner `polyroots`."""
    roots = mp.polyroots([mp.mpf("0.5"), b, mp.mpf(0), d], maxsteps=200,
                         extraprec=80)
    return sorted(r.real for r in roots if abs(r.imag) < 1e-20)[-1]


def _reference_pi_integrate(x_start, x_end, xs, tol=1e-11):
    """Test-only oracle: the boundary-value problem of `pi_integrate` (seed
    value at x_start, Robin condition at x_end, the same initial guess)
    solved by scipy's `solve_bvp`; returns (q, q') at xs."""
    from scipy.integrate import solve_bvp

    q_left, _ = pi_seed(x_start)
    w_r, wp_r = pi_seed(x_end) if x_end < 0.0 else (0.0, -1.0)
    slope = -math.sqrt(12.0 * max(w_r, 0.05))

    def rhs(x, y):
        return np.vstack([y[1], 6.0 * y[0] ** 2 + x])

    def bc(ya, yb):
        return np.array([ya[0] - q_left,
                         yb[1] - wp_r - slope * (yb[0] - w_r)])

    mesh = np.linspace(x_start, x_end, 801)
    root = np.sqrt(np.maximum(-mesh, 1e-3) / 6.0)
    sol = solve_bvp(rhs, bc, mesh, np.vstack([root, -1.0 / (12.0 * root)]),
                    tol=tol, max_nodes=400000)
    assert sol.success, sol.message
    return sol.sol(xs)


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

    @pytest.mark.parametrize("eta,mu", [(-1.0, 1e-7), (0.0, 7e-142),
                                        (1.0, 1e-30)])
    def test_nu_critical_tiny_mu(self, eta, mu):
        # the root sigma lies within about 1e-15 of the floor, and the
        # surface meets the mu = 0 value
        assert nu_critical(eta, mu) == pytest.approx(nu_critical(eta, 0.0),
                                                     rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("eta,mu", [(-1.0, 1e-7), (1.0, 0.05),
                                        (0.5, -0.2), (-2.0, 3.0)])
    def test_nu_critical_against_mpmath(self, eta, mu):
        # (-1, 1e-7): sigma is about 1.2e-15, and a 1e-14 absolute stop on
        # sigma returned -0.0 for the surface at about -2.4e-15
        import mpmath
        mp = mpmath.mp.clone()
        mp.dps = 40
        e, m = mp.mpf(eta), abs(mp.mpf(mu))
        s = mp.findroot(lambda t: mp.sqrt(2 * t) / 12 * (5 * e - 3 * t) ** 2
                        - m, (max(5 * e / 3, 0), 10), solver="anderson")
        want = -(5 * s / 12) * (5 * e**2 - 9 * e * s + 3 * s**2)
        assert nu_critical(eta, mu) == pytest.approx(float(want), rel=1e-14,
                                                     abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_nu_critical_never_raises(self, eta, mu):
        # nan where the parametrization overflows; otherwise the surface
        # sits at or below its mu = 0 value
        nc, nc0 = nu_critical(eta, mu), nu_critical(eta, 0.0)
        assert math.isnan(nc) or math.isnan(nc0) \
            or nc <= nc0 + 1e-12 * (1.0 + abs(nc0))


class TestGauss:
    def test_reference_value(self):
        assert gauss_angle(1.0) == pytest.approx(
            math.acos(12601.0 / 21241.0), rel=1e-14)

    def test_maximum(self):
        eta_star, angle = gauss_angle_max()
        assert abs(eta_star - GAUSS_ANGLE_ARGMAX) < 1e-6
        assert abs(eta_star - 0.40778) < 1e-4
        assert abs(angle - 1.580416) < 1e-4
        for f in (0.9, 0.999, 1.001, 1.1):
            assert gauss_angle(f * eta_star) < angle

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


class TestScalingMaps:
    def test_constant_value(self):
        assert scaling_constant_plus(1.0, (0.0, -1.0)) == pytest.approx(
            (10.0 / 3.0) ** 0.2, rel=1e-12)

    def test_inadmissible_direction(self):
        with pytest.raises(InadmissibleDirection):
            scaling_constant_plus(1.0, (0.0, 1.0))


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

    @pytest.mark.parametrize("x_start, x_end", [(-24.0, -1.0), (-30.0, -1.0),
                                                (-40.0, 0.0), (-100.0, -1.0)])
    def test_matches_solve_bvp(self, x_start, x_end):
        tr = pi_integrate(x_start, x_end, n_points=512)
        q_ref, qp_ref = _reference_pi_integrate(x_start, x_end, tr.x)
        assert np.all(np.abs(tr.q - q_ref) <= 1e-10 * (1.0 + np.abs(q_ref)))
        assert np.all(np.abs(tr.qprime - qp_ref)
                      <= 1e-10 * (1.0 + np.abs(qp_ref)))

    def test_chebyshev_node_counts(self):
        # n doubles from 64 while the coefficients have not decayed
        assert [len(pi_integrate(a, b).dense.x)
                for a, b in ((-24.0, -1.0), (-30.0, -1.0), (-40.0, 0.0))] \
            == [65, 65, 129]

    def test_pole_raises_within_node_cap(self, monkeypatch):
        sizes = []
        nodes = cr._cheb_nodes

        def counted(n, a, b):
            sizes.append(n)
            return nodes(n, a, b)

        monkeypatch.setattr(cr, "_cheb_nodes", counted)
        with pytest.raises(cr.PoleEncountered):
            pi_integrate(-24.0, 3.0)
        assert sizes and max(sizes) <= cr.PI_MAX_N

    def test_long_interval(self):
        # solve_bvp takes about 15 s here; the coefficients need n = 1024
        tr = pi_integrate(-1e4, -1.0)
        assert len(tr.dense.x) <= cr.PI_MAX_N + 1
        assert tr.q[0] == pytest.approx(pi_seed(-1e4)[0], abs=1e-12)
        short = pi_integrate(-100.0, -1.0)
        for x in (-50.0, -10.0, -2.0):
            assert abs(tr.dense(x)[0] - short.dense(x)[0]) < 1e-10
        resid = tr.hamiltonian_residuals()
        assert np.max(resid / (1.0 + np.abs(tr.H))) < 1e-10
        # |H| reaches 2.7e5: a step-free residual stays at rounding level
        assert np.max(resid) <= 1e-12

    def test_seed_hamiltonian_consistency(self):
        q0, qp0 = pi_seed(-24.0)
        tr = pi_integrate(-24.0, -4.0, n_points=11)
        assert tr.H[0] == pytest.approx(pi_hamiltonian(-24.0, q0, qp0),
                                        rel=1e-8)


class TestDegenerationConstant:
    @pytest.mark.parametrize("eta0", [0.5, 1.0, 2.0, 300.0, 1000.0])
    def test_plus_stratum(self, eta0):
        c = tritronquee_constant(eta0, "plus")
        assert abs(c - INV_SQRT6) < 1e-6

    @pytest.mark.parametrize("eta0", [-0.5, -1.0, -2.0])
    def test_minus_stratum(self, eta0):
        c = tritronquee_constant(eta0, "minus")
        assert abs(c - INV_SQRT6) < 1e-6

    # the h-pair scales with eta0^(7/2) below 1; a fixed pair read 0.397 at
    # 1e-3 and 0.034 at 1e-6, and raised NoConvergence at 1e-150
    @pytest.mark.parametrize("eta0", [1e-3, 1e-6, 1e-150, 1e-300])
    def test_small_eta0(self, eta0):
        assert abs(tritronquee_constant(eta0, "plus") - INV_SQRT6) < 1e-9
        assert abs(tritronquee_constant(-eta0, "minus") - INV_SQRT6) < 1e-9

    @pytest.mark.parametrize("n_vec", [(0.0, -1.0), (1.0, 0.0), (0.2, -0.5)])
    def test_direction_independence(self, n_vec):
        c = tritronquee_constant(1.0, "plus", n_vec=n_vec)
        assert abs(c - INV_SQRT6) < 1e-6

    def test_x_independence(self):
        for x in (-0.5, -1.0, -3.0):
            c = tritronquee_constant(1.0, "plus", x=x)
            assert abs(c - INV_SQRT6) < 1e-6

    # at 300 and 1000 np.roots once split the near-double root of the
    # unshifted cubic into a complex pair, and Newton took the root -5 eta/6
    @pytest.mark.parametrize("eta0",
                             [*np.linspace(0.1, 3.0, 12), 300.0, 1000.0])
    def test_newton_root_matches_polyroots(self, eta0, monkeypatch):
        fast = (tritronquee_constant(eta0, "plus"),
                tritronquee_constant(-eta0, "minus"))
        monkeypatch.setattr(cr, "_largest_real_root",
                            _polyroots_largest_real_root)
        assert fast == (tritronquee_constant(eta0, "plus"),
                        tritronquee_constant(-eta0, "minus"))
