import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tau34.param_domain import (BOUNDARY_MARGIN, NEWTON_TOL, ABCoords,
                                BoundaryReached, DomainError, Params,
                                PolePassed, SigmaSolution, _is_multiple,
                                _param_gradient, eval_P, in_domain_D,
                                inverse_abc, jacobian_abc, map_abc,
                                sigma_jets, solve_sigma, viete_roots)


class TestEvalP:
    def test_reference_root(self):
        value, d = eval_P(2.5, Params(1.0, 0.0, 0.0))
        assert value == 0.0
        assert d == 25.0 / 8.0

    def test_origin_degenerate(self):
        value, d = eval_P(0.0, Params(1.0, 0.0, 0.0))
        assert value == 0.0 and d == 0.0

    def test_double_root_on_boundary(self):
        value, d = eval_P(5.0 / 3.0, Params(1.0, 0.0, 125.0 / 108.0))
        assert abs(value) < 1e-15
        assert abs(d) < 1e-15

    def test_eta_scaling_of_margin(self):
        for eta in (0.5, 2.0, 3.0):
            _, d = eval_P(2.5 * eta, Params(eta, 0.0, 0.0))
            assert d == pytest.approx(25.0 / 8.0 * eta**2, rel=1e-14)


class TestSolveSigma:
    def test_reference_values(self):
        assert solve_sigma(Params(1.0, 0.0, 0.0)).sigma == 2.5
        assert solve_sigma(Params(2.0, 0.0, 0.0)).sigma == 5.0

    def test_boundary_raises(self):
        with pytest.raises(BoundaryReached):
            solve_sigma(Params(1.0, 0.0, 125.0 / 108.0))

    def test_mu_symmetry(self):
        sp = solve_sigma(Params(1.0, 0.08, -0.3)).sigma
        sm = solve_sigma(Params(1.0, -0.08, -0.3)).sigma
        assert sp == sm

    def test_path_independence(self):
        target = Params(1.3, 0.2, -0.4)
        s_direct = solve_sigma(target).sigma
        s_via = solve_sigma(target, reference=Params(2.0, 0.0, 0.0)).sigma
        assert abs(s_direct - s_via) < 1e-10
        s_via2 = solve_sigma(target, reference=Params(0.7, 0.0, 0.0)).sigma
        assert abs(s_direct - s_via2) < 1e-10

    def test_residual_small(self, rng):
        from conftest import random_domain_points
        for p in random_domain_points(rng, 10):
            sol = solve_sigma(p)
            assert sol.residual <= 1e-13 * (1.0 + abs(sol.sigma) ** 3)
            assert sol.path_ok


def _reference_newton(sigma, p, tol=NEWTON_TOL, maxit=5):
    try:
        for _ in range(maxit):
            value, dP = eval_P(sigma, p)
            if abs(dP) < BOUNDARY_MARGIN * (1.0 + sigma**2):
                return None
            step = value / dP
            sigma -= step
            if abs(step) < 1e-16 * (1.0 + abs(sigma)):
                break
        value, dP = eval_P(sigma, p)
    except PolePassed:
        return None
    if abs(value) > tol * (1.0 + abs(sigma) ** 3):
        return None
    return sigma, value, dP


def _reference_solve_sigma(p, reference=None):
    """Test-only oracle: the continuation on numpy 3-vectors and `Params`
    path points, with the predictor's dot product taken by numpy."""
    if p.mu < 0.0:
        p = Params(p.eta, -p.mu, p.nu)
    if reference is None:
        reference = Params(max(p.eta, 1.0), 0.0, 0.0)
    sigma = 2.5 * reference.eta
    start = np.array([reference.eta, reference.mu, reference.nu])
    target = np.array([p.eta, p.mu, p.nu])
    t = 0.0
    dt = 0.1
    pole_sign = 5.0 * reference.eta - 3.0 * sigma
    margin = abs(eval_P(sigma, reference)[1])
    while t < 1.0:
        dt = min(dt, 1.0 - t)
        pt = Params(*(start + (t + dt) * (target - start)))
        here = Params(*(start + t * (target - start)))
        _, dP = eval_P(sigma, here)
        grad = _param_gradient(sigma, here)
        pred = sigma - dt * float(grad @ (target - start)) / dP
        got = _reference_newton(pred, pt)
        bad = got is None
        if not bad:
            s_new, _, dP_new = got
            scale = 1.0 + s_new * s_new
            bad = (s_new < max(5.0 * pt.eta / 3.0, 0.0) - 1e-9 * scale
                   or abs(dP_new) < BOUNDARY_MARGIN * scale
                   or abs(dP_new) < 0.1 * margin and dt > 1e-6)
        if bad:
            if dt > 1e-10:
                dt /= 2.0
                continue
            raise BoundaryReached(f"root became multiple near t={t:.6f}")
        sigma = got[0]
        margin = abs(got[2])
        new_sign = 5.0 * pt.eta - 3.0 * sigma
        if p.mu != 0.0 and (new_sign == 0.0
                            or (new_sign > 0) != (pole_sign > 0)):
            raise PolePassed(f"5*eta - 3*sigma changed sign near t={t:.6f}")
        pole_sign = new_sign
        t += dt
        dt = min(dt * 2.0, 0.1)
    value, dP = eval_P(sigma, p)
    if _is_multiple(sigma, p, dP):
        raise BoundaryReached("target point lies on the critical surface")
    return SigmaSolution(sigma=sigma, dP_dsigma=dP, residual=abs(value),
                         path_ok=True)


def _outcome(solve, p, reference=None):
    try:
        return solve(p, reference=reference)
    except (BoundaryReached, PolePassed) as exc:
        return type(exc)


# the 5 x 4 x 4 smoke axes of the benchmark's sigma sweep
SWEEP_SMOKE = list(itertools.product(np.linspace(-3.0, 3.0, 5),
                                     np.linspace(-1.0, 1.0, 4),
                                     np.linspace(-5.0, 5.0, 4)))


class TestAgainstReference:
    """The float continuation against the numpy-vector oracle.

    The two round every path point and P evaluation alike; only the
    predictor's dot may round differently (BLAS against a written-out sum),
    which the Newton corrector absorbs, so results agree to a few ulps.
    """

    @staticmethod
    def _check(p, reference=None):
        got = _outcome(solve_sigma, p, reference)
        want = _outcome(_reference_solve_sigma, p, reference)
        if isinstance(want, type):
            assert got is want, p
            return want
        assert isinstance(got, SigmaSolution), p
        assert got.path_ok == want.path_ok
        for name in ("sigma", "dP_dsigma", "residual"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b))), (p, name)
        return SigmaSolution

    def test_sweep_smoke_axes(self):
        outcomes = [self._check(Params(*map(float, pt)))
                    for pt in SWEEP_SMOKE]
        n_out = outcomes.count(BoundaryReached)
        assert 0 < n_out < len(outcomes)

    def test_gamma_plus_raises(self):
        p = Params(1.0, 0.0, 125.0 / 108.0)
        assert self._check(p) is BoundaryReached

    def test_pole_passed(self):
        # The sign test after an accepted step did not fire in 40,000
        # random paths (the sigma > 5 eta/3 guard rejects those steps
        # first), so the pole is met at the reference point itself.
        p = Params(1.0, 0.1, 0.0)
        assert self._check(p, Params(0.0, 0.1, 0.0)) is PolePassed

    def test_negative_mu(self):
        assert self._check(Params(1.0, -0.08, -0.3)) is SigmaSolution

    @pytest.mark.parametrize("reference", [Params(2.0, 0.0, 0.0),
                                           Params(0.7, 0.0, 0.0)])
    def test_explicit_reference(self, reference):
        assert self._check(Params(1.3, 0.2, -0.4), reference) \
            is SigmaSolution


class TestViete:
    def test_symmetric(self):
        r = viete_roots(2.0, 0.0)
        assert (r.z_minus, r.z_zero, r.z_plus) == (-1.0, 0.0, 1.0)

    def test_factorized(self):
        r = viete_roots(10.0 / 3.0, 0.0)
        assert r.z_plus == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-14)
        assert r.z_zero == pytest.approx(0.0, abs=1e-14)

    def test_residual_oracle(self):
        r = viete_roots(3.2, 1.2)
        for z in (r.z_minus, r.z_zero, r.z_plus):
            assert abs(z**3 - 1.6 * z + 0.4) < 1e-12
        assert r.z_minus < 0.0 < r.z_zero < r.z_plus

    def test_domain_error(self):
        with pytest.raises(DomainError):
            viete_roots(-1.0, 0.0)
        with pytest.raises(DomainError):
            viete_roots(1.0, 1.0)   # |c| > b^(3/2)/sqrt(6)

    @given(st.floats(0.2, 5.0), st.floats(-0.99, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_roots_solve_cubic(self, b, cfrac):
        c = cfrac * b**1.5 / math.sqrt(6.0)
        r = viete_roots(b, c)
        scale = max(1.0, b**1.5)
        for z in (r.z_minus, r.z_zero, r.z_plus):
            assert abs(z**3 - 0.5 * b * z + c / 3.0) < 1e-12 * scale

    def test_monotonicity_in_c(self):
        b = 2.7
        cs = np.linspace(0.0, 0.95 * b**1.5 / math.sqrt(6.0), 12)
        roots = [viete_roots(b, c) for c in cs]
        z0 = [r.z_zero for r in roots]
        zp = [r.z_plus for r in roots]
        zm = [r.z_minus for r in roots]
        assert all(np.diff(z0) > 0)
        assert all(np.diff(zp) < 0)
        assert all(np.diff(zm) < 0)


def abc_samples(n=50, seed=7):
    """Interior samples of the admissible (a, b, c) region, both mu signs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        b = rng.uniform(0.3, 4.0)
        c = rng.uniform(-0.95, 0.95) * b**1.5 / math.sqrt(6.0)
        r = viete_roots(b, c)
        f = rng.uniform(0.05, 0.95)
        if c >= 0:
            a = r.z_zero + f * (r.z_plus - r.z_zero)
        else:
            a = r.z_minus + f * (r.z_zero - r.z_minus)
        out.append(ABCoords(a, b, c))
    return out


class TestMapABC:
    def test_reference_point(self):
        p, sigma = map_abc(ABCoords(math.sqrt(1.25), 10.0 / 3.0, 0.0))
        assert p.eta == pytest.approx(1.0, abs=1e-14)
        assert p.mu == 0.0
        assert p.nu == pytest.approx(0.0, abs=1e-14)
        assert sigma == pytest.approx(2.5, abs=1e-14)

    def test_degenerate_a(self):
        p, sigma = map_abc(ABCoords(0.0, 1.0, 0.0))
        assert (p.eta, p.mu, p.nu, sigma) == (-0.6, 0.0, 0.0, 0.0)

    def test_sigma_solves_branch_equation(self):
        for q in abc_samples():
            p, sigma = map_abc(q)
            value, _ = eval_P(sigma, p)
            scale = 1.0 + abs(sigma) ** 3 + abs(p.nu)
            assert abs(value) < 1e-12 * scale
            assert sigma > max(5.0 * p.eta / 3.0, 0.0)

    def test_figure_values(self):
        p, sigma = map_abc(ABCoords(0.8, 3.2, 1.2))
        value, _ = eval_P(sigma, p)
        assert abs(value) < 1e-12


class TestJacobian:
    def test_reference_value(self):
        # (4/5) a (3ba - 6a^3)^2 at the reference point; the finite
        # difference oracle below fixes the 4/5 prefactor
        a = math.sqrt(1.25)
        jac = jacobian_abc(ABCoords(a, 10.0 / 3.0, 0.0))
        expected = 0.8 * a * (3.0 * (10.0 / 3.0) * a - 6.0 * a**3) ** 2
        assert jac == pytest.approx(expected, rel=1e-14)
        assert jac == pytest.approx(6.987712429686839, rel=1e-10)

    def test_vanishing_at_a_zero(self):
        assert jacobian_abc(ABCoords(0.0, 1.0, 1.0)) == 0.0

    def _fd_jacobian(self, q, h=1e-5):
        def f(vec):
            p, _ = map_abc(ABCoords(*vec))
            return np.array([p.eta, p.mu, p.nu])
        base = np.array([q.a, q.b, q.c])
        cols = []
        for k in range(3):
            dv = np.zeros(3)
            dv[k] = h * (1.0 + abs(base[k]))
            cols.append((f(base + dv) - f(base - dv)) / (2.0 * dv[k]))
        return abs(np.linalg.det(np.column_stack(cols)))

    def test_matches_finite_differences(self):
        for q in abc_samples(50):
            jac = jacobian_abc(q)
            assert jac > 0.0
            assert jac == pytest.approx(self._fd_jacobian(q), rel=1e-6)

    def test_figure_point_fd(self):
        q = ABCoords(0.8, 3.2, 1.2)
        assert jacobian_abc(q) == pytest.approx(self._fd_jacobian(q),
                                                rel=1e-6)


class TestInverse:
    def test_round_trip(self, rng):
        from conftest import random_domain_points
        for p in random_domain_points(rng, 50):
            q = inverse_abc(p)
            p2, _ = map_abc(q)
            scale = 1.0 + max(abs(p.eta), abs(p.mu), abs(p.nu))
            assert abs(p2.eta - p.eta) < 1e-10 * scale
            assert abs(p2.mu - p.mu) < 1e-10 * scale
            assert abs(p2.nu - p.nu) < 1e-10 * scale


class TestDomainMembership:
    def test_interior(self):
        rep = in_domain_D(Params(1.0, 0.0, 0.0))
        assert rep.in_D and rep.margin == 25.0 / 8.0

    def test_gamma_plus_boundary(self):
        rep = in_domain_D(Params(1.0, 0.0, 125.0 / 108.0))
        assert not rep.in_D

    def test_gamma_minus_boundary(self):
        rep = in_domain_D(Params(-1.0, 0.0, 0.0))
        assert not rep.in_D


class TestSigmaJets:
    def test_first_derivative_reference(self):
        jets = sigma_jets(Params(1.0, 0.0, 0.0), depth=1)
        assert jets.dnu[1] == pytest.approx(-8.0 / 25.0, rel=1e-14)

    def test_mu_derivative_vanishes_at_mu_zero(self):
        jets = sigma_jets(Params(1.3, 0.0, 0.2), depth=1)
        assert jets.dmu == 0.0

    def test_against_finite_differences(self):
        p = Params(1.0, 0.1, 0.0)
        jets = sigma_jets(p, depth=2)
        h = 1e-5

        def s(nu):
            return solve_sigma(Params(p.eta, p.mu, nu)).sigma

        fd1 = (s(h) - s(-h)) / (2.0 * h)
        fd2 = (s(h) - 2.0 * s(0.0) + s(-h)) / h**2
        assert jets.dnu[1] == pytest.approx(fd1, rel=1e-6)
        assert jets.dnu[2] == pytest.approx(fd2, rel=1e-4)
        fd_mu = (solve_sigma(Params(p.eta, p.mu + h, p.nu)).sigma
                 - solve_sigma(Params(p.eta, p.mu - h, p.nu)).sigma) / (2 * h)
        fd_eta = (solve_sigma(Params(p.eta + h, p.mu, p.nu)).sigma
                  - solve_sigma(Params(p.eta - h, p.mu, p.nu)).sigma) / (2 * h)
        assert jets.dmu == pytest.approx(fd_mu, rel=1e-6)
        assert jets.deta == pytest.approx(fd_eta, rel=1e-6)

    def test_depth_four_vs_finite_differences(self):
        p = Params(1.0, 0.05, -0.2)
        jets = sigma_jets(p, depth=4)
        h = 1e-3

        def s(nu):
            return solve_sigma(Params(p.eta, p.mu, nu)).sigma

        vals = [s(p.nu + k * h) for k in range(-3, 4)]
        fd3 = (vals[6] - 3 * vals[4] + 3 * vals[2] - vals[0]) / (2 * h) ** 3
        assert jets.dnu[3] == pytest.approx(fd3, rel=1e-3)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            sigma_jets(Params(1.0, 0.0, 0.0), depth=5)
