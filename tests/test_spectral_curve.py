import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tau34 import spectral_curve as sc
from tau34.cli import certify_point
from tau34.param_domain import Params
from tau34.parametrix import global_M
from tau34.spectral_curve import (AsymptoticsError, OnBranchPoint,
                                  branch_coeffs, build_curve,
                                  check_g_asymptotics, g_of_u, g_sheets_all,
                                  laurent_at_infinity, uniformize_all)
from tau34.tau_expansion import leading_hamiltonians

from oracles import (ABCoords, fit_branch_exponent, fitted_g_asymptotics,
                     g_sheet_mp, map_abc, theta_phase_mp)

pv = np.polynomial.polynomial.polyval


@pytest.fixture(scope="module")
def curve_ref():
    return build_curve(Params(1.0, 0.0, 0.0))


_CURVE_MU = None


def _curve_mu_singleton():
    global _CURVE_MU
    if _CURVE_MU is None:
        _CURVE_MU = build_curve(Params(1.0, 0.1, 0.0))
    return _CURVE_MU


@pytest.fixture(scope="module")
def curve_mu():
    return _curve_mu_singleton()


@pytest.fixture(scope="module")
def curve_gp():
    return build_curve(Params(1.0, 0.0, 125.0 / 108.0), sigma=5.0 / 3.0)


class TestBuild:
    def test_reference_curve(self, curve_ref):
        assert np.allclose(curve_ref.lam_coeffs, [0.0, -15.0 / 4.0, 0.0, 1.0])
        assert curve_ref.alpha == pytest.approx(2.5 * math.sqrt(1.25),
                                                rel=1e-14)
        assert curve_ref.beta == pytest.approx(-curve_ref.alpha, rel=1e-14)

    def test_cube_curve(self):
        cv = build_curve(Params(-0.6, 0.0, 0.0), sigma=0.0)
        assert np.allclose(cv.lam_coeffs, [0.0, 0.0, 0.0, 1.0])
        assert cv.alpha == cv.beta == 0.0

    def test_gamma_plus_branch_points(self, curve_gp):
        assert curve_gp.a == pytest.approx(math.sqrt(5.0 / 6.0), rel=1e-14)
        assert curve_gp.alpha == pytest.approx(
            (5.0 / 3.0) * math.sqrt(5.0 / 6.0), rel=1e-14)

    def test_antiderivative_identity_exact(self):
        # g' = Y lam' coefficientwise in exact rational arithmetic
        eta, mu, nu = Fraction(1), Fraction(1, 10), Fraction(0)
        sigma = Fraction(5, 2)        # representative rational root slot
        den = 5 * eta - 3 * sigma
        c = -3 * mu / den
        lam = [c, -Fraction(3, 2) * sigma, Fraction(0), Fraction(1)]
        Y = [sigma**2 / 2 - Fraction(5, 3) * eta * sigma, Fraction(4, 3) * c,
             Fraction(5, 3) * eta - 2 * sigma, Fraction(0), Fraction(1)]
        dlam = [lam[1], 2 * lam[2], 3 * lam[3]]
        prod = [Fraction(0)] * (len(Y) + len(dlam) - 1)
        for i, yi in enumerate(Y):
            for j, dj in enumerate(dlam):
                prod[i + j] += yi * dj
        g = [Fraction(0)] + [prod[k] / (k + 1) for k in range(len(prod))]
        dg = [(k + 1) * g[k + 1] for k in range(len(g) - 1)]
        assert dg == prod

    def test_float_identity(self, curve_mu):
        dg = np.polynomial.polynomial.polyder(curve_mu.g_coeffs)
        prod = np.polynomial.polynomial.polymul(
            curve_mu.Y_coeffs,
            np.polynomial.polynomial.polyder(curve_mu.lam_coeffs))
        assert np.max(np.abs(dg - prod)) < 1e-12

    def test_coefficients_match_numpy_polynomial(self, d_grid20):
        """g, alpha and beta are numpy.polynomial's, bit for bit, on the
        interior grid and at the in-D points of the extreme inputs."""
        from test_reachability import EXTREME

        from tau34.cli import build_parser
        from tau34.param_domain import in_domain_D

        extreme = []
        for argv in EXTREME:
            args = build_parser().parse_args(argv)
            if args.grid is None:
                p = Params(args.eta, args.mu, args.nu)
                if in_domain_D(p).in_D:
                    extreme.append(p)
        assert len(extreme) >= 4
        npoly = np.polynomial.polynomial
        for p in list(d_grid20) + extreme:
            cv = build_curve(p)
            with np.errstate(all="ignore"):
                g = npoly.polyint(npoly.polymul(
                    cv.Y_coeffs, npoly.polyder(cv.lam_coeffs)))
                g[0] = -2.0 * cv.c * cv.a**4
                ends = [float(npoly.polyval(x, cv.lam_coeffs).real)
                        for x in (-cv.a, cv.a)]
            assert cv.g_coeffs.tobytes() == g.tobytes()
            assert np.array([cv.alpha, cv.beta]).tobytes() \
                == np.array(ends).tobytes()


def sheet_root(curve, lam, sheet):
    """u_sheet(lam) off the cuts, as one complex number."""
    return complex(uniformize_all(curve, np.array([lam]))[sheet - 1, 0])


class TestUniformize:
    def test_exact_cube_root(self):
        cv = build_curve(Params(-0.6, 0.0, 0.0), sigma=0.0)
        assert sheet_root(cv, 8.0, 1) == pytest.approx(2.0, abs=1e-13)

    def test_cube_curve_roots_and_laurent_exact(self):
        # on lam = u^3 (sigma = mu = nu = 0) the sheet root is tau itself
        # and g is Theta: every Laurent coefficient is exactly zero
        cv = build_curve(Params(-1.0, 0.0, 0.0), sigma=0.0)
        assert cv.a == 0.0 and cv.c == 0.0
        ex = laurent_at_infinity(cv, 8)
        assert not np.any(ex.head) and not np.any(ex.tail)
        # the kernel's roots are the omega-rotated principal cube roots
        lam = 2.0 * np.exp(1j * np.array([0.9, 2.5, -0.9, -2.5]))
        t = lam ** (1.0 / 3.0)
        up = lam.imag > 0
        w = sc.OMEGA
        want = [t, t * np.where(up, w**2, w), t * np.where(up, w, w**2)]
        assert np.allclose(uniformize_all(cv, lam), want,
                           rtol=4 * sc.EPS, atol=0.0)

    def test_largest_real_root_at_zero(self, curve_ref):
        u = sheet_root(curve_ref, 0.0, 1)
        assert u == pytest.approx(math.sqrt(15.0) / 2.0, abs=1e-13)

    def test_on_branch_point(self, curve_ref):
        with pytest.raises(OnBranchPoint):
            global_M(curve_ref, curve_ref.alpha)

    @given(st.floats(-15, 15), st.floats(-15, 15))
    @settings(max_examples=200, deadline=None)
    def test_residual_property(self, re, im):
        cv = _curve_mu_singleton()
        lam = complex(re, im)
        if min(abs(lam - cv.alpha), abs(lam - cv.beta)) < 1e-6:
            return
        u = uniformize_all(cv, np.array([lam]))[:, 0]
        resid = np.abs(pv(u, cv.lam_coeffs) - lam)
        assert np.max(resid) < 1e-12 * (1.0 + abs(lam))

    def test_bulk_residuals(self, curve_mu, rng):
        lam = rng.normal(size=10000) * 5 + 1j * rng.normal(size=10000) * 5
        u = uniformize_all(curve_mu, lam)
        resid = np.abs(pv(u, curve_mu.lam_coeffs) - lam[None, :])
        assert np.max(resid / (1.0 + np.abs(lam))) < 1e-12

    def test_reflection_symmetry(self, rng):
        # u_1(-lam; eta, -mu, nu) = -u_3(lam; eta, mu, nu) and cyclically
        cp = build_curve(Params(1.0, 0.1, 0.05))
        cm = build_curve(Params(1.0, -0.1, 0.05))
        for _ in range(25):
            lam = complex(rng.normal() * 3, rng.normal() * 3)
            if abs(lam.imag) < 1e-3:
                continue
            u_p = uniformize_all(cp, np.array([lam]))[:, 0]
            u_m = uniformize_all(cm, np.array([-lam]))[:, 0]
            assert abs(u_m[0] + u_p[2]) < 1e-10 * (1 + abs(lam))
            assert abs(u_m[1] + u_p[1]) < 1e-10 * (1 + abs(lam))
            assert abs(u_m[2] + u_p[0]) < 1e-10 * (1 + abs(lam))

    def test_sheet_gluing_conjugacy(self, curve_mu):
        # upper sheet-2 and lower sheet-3 limits coincide on the cut: the
        # lower limits are the conjugates of the upper ones, as in
        # `parametrix.global_M_sides`
        x = curve_mu.alpha + 2.3
        _, u2p, u3p = uniformize_all(curve_mu, np.array([x + 0j]))[:, 0]
        u2m, u3m = u2p.conjugate(), u3p.conjugate()
        assert u2p == u3m
        assert u3p == u2m
        assert abs(u2p.imag) > 1e-3
        # both limits are roots of lam(u) = x
        for u in (u2p, u3p):
            assert abs(pv(u, curve_mu.lam_coeffs) - x) < 1e-13 * (1 + x)


class TestGSheet:
    def test_trivial_zero(self):
        cv = build_curve(Params(0.0, 0.0, 0.0), sigma=0.0)
        g = g_sheets_all(cv, np.array([1e-3 + 1e-3j]))
        assert np.max(np.abs(g)) < 1e-6

    def test_conjugation(self, curve_mu):
        g_up, g_down = g_sheets_all(curve_mu, np.array([1.7 + 0.9j,
                                                        1.7 - 0.9j]))[0]
        assert g_down == pytest.approx(g_up.conjugate(), rel=1e-13)

    def test_eta_term_exact_on_cube_curve(self):
        # sigma = mu = 0 keeps the uniformization an exact cube root, so the
        # phase match is exact including the eta-term; sheet 1 carries the
        # principal phase theta_1 off the negative axis
        cv = build_curve(Params(0.7, 0.0, 0.0), sigma=0.0)
        lam = np.array([3.0 + 1.0j, -2.0 + 0.4j, 9.0 - 2.0j])
        got = g_sheets_all(cv, lam)[0]
        for z, g in zip(lam, got):
            want = complex(theta_phase_mp(z, 1, cv.params))
            assert abs(g - want) < 1e-12 * (1 + abs(want))


def sampled_g_asymptotics(curve, dps=50):
    """Reference fit: |g_j - theta_perm(j)| sampled in mpmath at 50 digits.

    Same radii, rays, sheet permutation and fit as `fitted_g_asymptotics`,
    which reads the residuals off the Laurent tail instead.
    """
    radii = np.logspace(3, 6, 24)
    report = {}
    for half, arg in (("upper", 0.9), ("lower", -0.9)):
        perm = {1: 1, 2: 3, 3: 2} if half == "upper" else {1: 1, 2: 2, 3: 3}
        for sheet in (1, 2, 3):
            diffs = []
            for r in radii:
                lam = r * cmath.exp(1j * arg)
                gj = g_sheet_mp(curve, lam, sheet, dps=dps)
                th = theta_phase_mp(lam, perm[sheet], curve.params, dps=dps)
                diffs.append(float(abs(gj - th)))
            diffs = np.array(diffs)
            slope = np.polyfit(np.log(radii), np.log(diffs), 1)[0]
            report[(sheet, half)] = (float(slope), float(diffs.max()))
    return report


class TestAsymptotics:
    def test_slopes_reference(self, curve_ref):
        rep = fitted_g_asymptotics(curve_ref)
        for (sheet, half), (slope, _) in rep.items():
            assert abs(slope + 1.0 / 3.0) < 0.02, (sheet, half, slope)
        assert check_g_asymptotics(curve_ref) <= 1e-10

    def test_slopes_interior(self):
        cv = build_curve(Params(1.0, 0.1, 0.2))
        rep = fitted_g_asymptotics(cv)
        for key, (slope, _) in rep.items():
            assert abs(slope + 1.0 / 3.0) < 0.02, (key, slope)
        assert check_g_asymptotics(cv) <= 1e-10

    def test_margin_on_d_grid20(self, d_grid20):
        # the tau^-1 coefficient stands 1e8 and more above its rounding
        # bound on the grid (1.7e-12 to 8.5e-12 when written)
        for p in d_grid20:
            assert check_g_asymptotics(build_curve(p)) <= 1e-10, p

    def test_small_leading_coefficient_margin(self):
        # tau^-1 = -h1_0/2 = -0.0127 is small against tau^-2 = 0.196: the
        # fitted slope misses -1/3 on [1e3, 1e6], the exact claim does not
        cv = build_curve(Params(1.1829, 0.1138, 1.1306))
        slopes = [v[0] for v in fitted_g_asymptotics(cv).values()]
        assert max(abs(s + 1.0 / 3.0) for s in slopes) > 0.1
        assert check_g_asymptotics(cv) <= 1e-8

    def test_subnormal_mu_head_bound(self):
        # c = -3 mu/(5 eta - 3 s) is subnormal: the tau^0 coefficient keeps
        # a rounding residue of 1.5e-323 that a purely relative bound, 0
        # there, rejected
        cv = build_curve(Params(1.0, 2.2250738585e-313, -1.110185185185185))
        ex = laurent_at_infinity(cv, 2)
        assert np.all(np.abs(ex.head) <= ex.head_bound), ex.head
        assert check_g_asymptotics(cv) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.4, 2.2), st.floats(-0.12, 0.12), st.floats(0.0, 1.0))
    def test_margin_agrees_with_hamiltonian(self, eta, mu, frac):
        # the row's verdict from tau_expansion's h1_0 instead of the
        # Laurent tau^-1 coefficient: the two modules must agree
        from tau34.critical import nu_critical
        # nu from -0.7 |nc| - 0.3 up to 0.15 |nc| below nc (nc < 0 for
        # small eta and large |mu|, where 0.85 nc is past the surface)
        nc = nu_critical(eta, mu)
        top = nc - 0.15 * abs(nc)
        p = Params(eta, mu, -0.7 * abs(nc) - 0.3
                   + frac * (top + 0.7 * abs(nc) + 0.3))
        cv = build_curve(p)
        margin = check_g_asymptotics(cv)
        bound = laurent_at_infinity(cv, 1).tail_bound[0]
        h1 = abs(leading_hamiltonians(p, sigma=cv.sigma).h1_0 / 2.0)
        assert (margin <= 0.02) == (bound / h1 <= 0.02), (p, margin, h1)
        assert margin == pytest.approx(bound / h1, rel=1e-6), p

    @pytest.mark.parametrize("pt", [(1.0, 0.0, 0.0), (1.0, 0.1, 0.2)])
    def test_matches_sampled_mp_fit(self, pt):
        cv = build_curve(Params(*pt))
        got = fitted_g_asymptotics(cv)
        want = sampled_g_asymptotics(cv)
        assert got.keys() == want.keys()
        for key, (slope, resid) in want.items():
            assert abs(got[key][0] - slope) <= 1e-9, key
            assert abs(got[key][1] / resid - 1.0) <= 1e-10, key

    def test_laurent_matches_hamiltonians(self, d_grid20):
        # g_j - theta_j = -(h1_0/2) tau^-1 - (h2_0/4) tau^-2 + ..., with no
        # tau^7..tau^0 terms: spectral_curve against tau_expansion
        for p in d_grid20:
            cv = build_curve(p)
            ex = laurent_at_infinity(cv, 2)
            h = leading_hamiltonians(p, sigma=cv.sigma)
            assert np.all(np.abs(ex.head) <= ex.head_bound), (p, ex.head)
            assert abs(ex.tail[0] + h.h1_0 / 2.0) <= 1e-12, p
            assert abs(ex.tail[1] + h.h2_0 / 4.0) <= 1e-12, p

    def test_remainder_bound_not_met(self, curve_ref):
        # |tau_min| = 1 lies inside the branch-point radius 1.41
        with pytest.raises(AsymptoticsError, match="remainder bound"):
            check_g_asymptotics(curve_ref, radii=(1.0, 1e3))

    def test_swapped_sheets_fail_certify(self, monkeypatch):
        # negative control: the tail alone never sees the roots, so the
        # sheet check is what catches a wrong sheet assignment
        pt = (1.0, 0.1, 0.2)
        real = sc.uniformize_all
        monkeypatch.setattr(sc, "uniformize_all",
                            lambda curve, lam: real(curve, lam)[[0, 2, 1]])
        with pytest.raises(AsymptoticsError, match="sheet 2"):
            check_g_asymptotics(build_curve(Params(*pt)))
        rows = [r for r in certify_point(pt, 1.0)
                if r["check"] == "g-asymptotics-slope"]
        assert len(rows) == 1 and rows[0]["passed"] is False


class TestBranchCoeffs:
    def test_generic_reference(self, curve_ref):
        bc = branch_coeffs(curve_ref)
        assert bc.case == "generic"
        a = math.sqrt(1.25)
        want = 20.0 * a / (9.0 * math.sqrt(3.0 * a))
        assert bc.rho_alpha == pytest.approx(want, rel=1e-14)
        assert bc.rho_alpha == bc.rho_beta    # mu = 0 symmetric curve
        assert bc.rho_alpha == pytest.approx(1.3566079635, rel=1e-9)

    def test_gamma_plus(self, curve_gp):
        bc = branch_coeffs(curve_gp)
        assert bc.case == "gamma-plus"
        a = math.sqrt(5.0 / 6.0)
        # c -> 0 limit of the mu != 0 boundary amplitude: prefactor 2ab
        want = 8.0 * math.sqrt(3.0) / (135.0 * a**3.5) * 2.0 * a * (5.0 / 3.0)
        assert bc.rho_hat == pytest.approx(want, rel=1e-14)

    def test_gamma_minus(self):
        cv = build_curve(Params(-0.6, 0.0, 0.0), sigma=0.0)
        bc = branch_coeffs(cv)
        assert bc.case == "gamma-minus"
        assert bc.b_coeff == pytest.approx(0.6 * cv.b, rel=1e-14)

    def test_local_fit_generic(self, curve_ref):
        for point in ("alpha", "beta"):
            p, rho = fit_branch_exponent(curve_ref, point)
            assert abs(p - 1.5) < 0.01
            bc = branch_coeffs(curve_ref)
            want = bc.rho_alpha if point == "alpha" else bc.rho_beta
            assert rho == pytest.approx(want, rel=1e-6)

    def test_local_fit_gamma_plus(self, curve_gp):
        bc = branch_coeffs(curve_gp)
        for point in ("alpha", "beta"):
            p, rho = fit_branch_exponent(curve_gp, point)
            assert abs(p - 2.5) < 0.02
            assert rho == pytest.approx(bc.rho_hat, rel=1e-6)

    def test_local_fit_boundary_mu(self):
        pms, sigma = map_abc(ABCoords(1.0, 3.0, 1.5))
        cv = build_curve(pms, sigma=sigma)
        bc = branch_coeffs(cv, case="boundary-mu")
        p, rho = fit_branch_exponent(cv, "beta")
        assert abs(p - 2.5) < 0.02
        assert rho == pytest.approx(bc.rho_hat_beta, rel=1e-6)
        p, rho = fit_branch_exponent(cv, "alpha")
        assert abs(p - 1.5) < 0.01
        assert rho == pytest.approx(bc.rho_alpha, rel=1e-6)


class TestCutAntisymmetry:
    def test_real_part_vanishes_on_cuts(self, curve_mu):
        # Re(g3 - g2) = 0 on (alpha, inf), Re(g2 - g1) = 0 on (-inf, beta),
        # on the upper-side roots that `parametrix.global_M_sides` uses
        x = np.concatenate([
            np.linspace(curve_mu.alpha + 0.2, curve_mu.alpha + 8.0, 15),
            np.linspace(curve_mu.beta - 8.0, curve_mu.beta - 0.2, 15)])
        g1, g2, g3 = g_of_u(curve_mu, uniformize_all(curve_mu, x + 0j))
        a, b = slice(None, 15), slice(15, None)
        assert np.all(np.abs((g3 - g2)[a].real)
                      < 1e-10 * (1 + np.abs(g3[a])))
        assert np.all(np.abs((g2 - g1)[b].real)
                      < 1e-10 * (1 + np.abs(g2[b])))
