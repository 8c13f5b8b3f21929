import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tau34.critical import nu_critical
from tau34.param_domain import (BOUNDARY_MARGIN, NEWTON_TOL, BoundaryReached,
                                DomainError, Params, SigmaSolution,
                                _is_multiple, eval_P, in_domain_D,
                                in_domain_D_grid, sigma_jets, solve_sigma)

from oracles import ABCoords, map_abc, viete_roots


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


# points where the straight-line continuation from (max(eta, 1), 0, 0) ends
# on a smaller simple root than the largest one above max(5 eta/3, 0)
WRONG_ROOT = [(0.0, 0.75, -1.0), (0.0, -0.75, -1.0), (-0.15, 0.6, -0.75),
              (-0.15, -0.6, -0.75)]


class TestSolveSigma:
    def test_reference_values(self):
        assert solve_sigma(Params(1.0, 0.0, 0.0)).sigma == 2.5
        assert solve_sigma(Params(2.0, 0.0, 0.0)).sigma == 5.0

    def test_boundary_raises(self):
        with pytest.raises(BoundaryReached):
            solve_sigma(Params(1.0, 0.0, 125.0 / 108.0))

    def test_boundary_is_a_domain_error(self):
        assert issubclass(BoundaryReached, DomainError)

    def test_mu_symmetry(self):
        sp = solve_sigma(Params(1.0, 0.08, -0.3)).sigma
        sm = solve_sigma(Params(1.0, -0.08, -0.3)).sigma
        assert sp == sm

    def test_path_independence(self):
        # the continuation oracle meets the same root from either reference
        target = Params(1.3, 0.2, -0.4)
        s_direct = solve_sigma(target).sigma
        for reference in (Params(2.0, 0.0, 0.0), Params(0.7, 0.0, 0.0)):
            s_via = _reference_solve_sigma(target, reference).sigma
            assert abs(s_direct - s_via) < 1e-10

    def test_residual_small(self, rng):
        from conftest import random_domain_points
        for p in random_domain_points(rng, 10):
            sol = solve_sigma(p)
            assert sol.residual <= 1e-13 * (1.0 + abs(sol.sigma) ** 3)

    def test_random_points_are_in_domain_where_nu_critical_is_negative(self):
        # eta near 0.4 with |mu| near 0.12 puts nu_critical below 0 (129 of
        # these 300 draws): 0.85 nu_critical lay past the surface there
        from conftest import random_domain_points
        pts = random_domain_points(np.random.default_rng(1), 300,
                                   eta_range=(0.38, 0.45))
        assert all(in_domain_D(p).in_D for p in pts)

    @pytest.mark.parametrize("pt", WRONG_ROOT)
    def test_largest_root_where_the_continuation_is_wrong(self, pt):
        # both are simple roots of P above max(5 eta/3, 0); D's is the
        # larger one, with which every lensing contour passes
        p = Params(*pt)
        sol = solve_sigma(p)
        other = _reference_solve_sigma(p).sigma
        assert other < sol.sigma - 0.1
        assert abs(eval_P(other, p)[0]) < 1e-12
        assert other > max(5.0 * p.eta / 3.0, 0.0)


def _reference_newton(sigma, p, maxit=5):
    """Plain Newton corrector: at most five steps from either side."""
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
    except ZeroDivisionError:
        return None
    if abs(value) > NEWTON_TOL * (1.0 + abs(sigma) ** 3):
        return None
    return sigma, value, dP


def _reference_gradient(sigma, p):
    """(dP/deta, dP/dmu, dP/dnu) at fixed sigma."""
    if p.mu == 0.0:
        return np.array([-1.25 * sigma**2, 0.0, 1.0])
    den = 5.0 * p.eta - 3.0 * sigma
    return np.array([-1.25 * sigma**2 - 60.0 * p.mu**2 / den**3,
                     12.0 * p.mu / den**2, 1.0])


def _reference_solve_sigma(p, reference=None):
    """Test-only oracle: continue the root 2.5 eta of the reference ray along
    the straight segment to p (Euler predictor, Newton corrector, step
    halving down to 1e-10); BoundaryReached where the root collides."""
    if p.mu < 0.0:
        p = Params(p.eta, -p.mu, p.nu)
    if reference is None:
        reference = Params(max(p.eta, 1.0), 0.0, 0.0)
    sigma = 2.5 * reference.eta
    start = np.array([reference.eta, reference.mu, reference.nu])
    target = np.array([p.eta, p.mu, p.nu])
    t = 0.0
    dt = 0.1
    margin = abs(eval_P(sigma, reference)[1])
    while t < 1.0:
        dt = min(dt, 1.0 - t)
        pt = Params(*(start + (t + dt) * (target - start)))
        here = Params(*(start + t * (target - start)))
        _, dP = eval_P(sigma, here)
        grad = _reference_gradient(sigma, here)
        pred = sigma - dt * float(grad @ (target - start)) / dP
        got = _reference_newton(pred, pt)
        bad = got is None
        if not bad:
            s_new, _, dP_new = got
            scale = 1.0 + s_new * s_new
            # guard against hopping onto another branch across a pinch
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
        t += dt
        dt = min(dt * 2.0, 0.1)
    value, dP = eval_P(sigma, p)
    if _is_multiple(sigma, p, dP):
        raise BoundaryReached("target point lies on the critical surface")
    return SigmaSolution(sigma=sigma, dP_dsigma=dP, residual=abs(value))


# the 41 x 21 x 41 grid over eta in [-3, 3], mu in [-1, 1], nu in [-5, 5]
GRID_AXES = (np.linspace(-3.0, 3.0, 41), np.linspace(-1.0, 1.0, 21),
             np.linspace(-5.0, 5.0, 41))
# every fourth grid line per axis (11 x 6 x 11 points), then the
# continuation's wrong-root points
THIN_GRID = [Params(*map(float, pt))
             for pt in itertools.product(*(a[::4] for a in GRID_AXES))] \
    + [Params(*pt) for pt in WRONG_ROOT]


def _is_wrong_root_point(p):
    return any(all(math.isclose(a, b, abs_tol=1e-12)
                   for a, b in zip((p.eta, p.mu, p.nu), pt))
               for pt in WRONG_ROOT)


# the 5 x 4 x 4 smoke axes of the benchmark's sigma sweep
SWEEP_SMOKE = [Params(*map(float, pt))
               for pt in itertools.product(np.linspace(-3.0, 3.0, 5),
                                           np.linspace(-1.0, 1.0, 4),
                                           np.linspace(-5.0, 5.0, 4))]


class TestAgainstReference:
    """The largest root against the straight-line continuation oracle.

    Wherever the continuation reaches the point, both end on a root whose
    Newton residual is at most NEWTON_TOL (1 + |s|^3), so they differ by at
    most twice that over |P_s|.  The WRONG_ROOT points are the exception:
    there the continuation ends on a smaller simple root.
    """

    @staticmethod
    def _check(p, reference=None):
        try:
            want = _reference_solve_sigma(p, reference).sigma
        except BoundaryReached:
            return BoundaryReached
        rep = in_domain_D(p)
        bound = 2.0 * NEWTON_TOL * (1.0 + abs(rep.sigma) ** 3) / rep.margin
        assert rep.in_D and abs(rep.sigma - want) <= bound, (p, rep, want)
        return SigmaSolution

    def test_sweep_smoke_axes(self):
        outcomes = [self._check(p) for p in SWEEP_SMOKE]
        n_out = outcomes.count(BoundaryReached)
        assert 0 < n_out < len(outcomes)

    def test_same_root_where_the_continuation_succeeds(self):
        outcomes = [self._check(p) for p in THIN_GRID
                    if not _is_wrong_root_point(p)]
        assert outcomes.count(SigmaSolution) > 100

    def test_gamma_plus_raises(self):
        p = Params(1.0, 0.0, 125.0 / 108.0)
        assert self._check(p) is BoundaryReached
        assert not in_domain_D(p).in_D

    def test_negative_mu(self):
        assert self._check(Params(1.0, -0.08, -0.3)) is SigmaSolution

    @pytest.mark.parametrize("reference", [Params(2.0, 0.0, 0.0),
                                           Params(0.7, 0.0, 0.0)])
    def test_explicit_reference(self, reference):
        assert self._check(Params(1.3, 0.2, -0.4), reference) \
            is SigmaSolution


def _companion_roots(p):
    """Roots of the cleared quintic (5 eta - 3 s)^2 (nu + s^3/2 - 5 eta s^2/4)
    + 6 mu^2, from the eigenvalues of its companion matrix (np.roots)."""
    e, m, n = p.eta, p.mu, p.nu
    return np.roots([4.5, -26.25 * e, 50.0 * e**2, 9.0 * n - 31.25 * e**3,
                     -30.0 * e * n, 25.0 * e**2 * n + 6.0 * m**2])


class TestAgainstCompanionMatrix:
    """D and its root against the cleared quintic's eigenvalue roots: a point
    is in D iff a real root lies above max(5 eta/3, 0), and sigma is the
    largest such root.  Eigenvalues within 1e-6 (1 + |z|) of the real axis
    count as real."""

    def test_largest_real_root_on_grid(self):
        wrong = []
        for p in THIN_GRID:
            z = _companion_roots(p)
            real = z.real[(np.abs(z.imag) <= 1e-6 * (1.0 + np.abs(z)))
                          & (z.real > max(5.0 * p.eta / 3.0, 0.0))]
            rep = in_domain_D(p)
            if rep.in_D != bool(real.size) or rep.in_D and \
                    abs(real.max() - rep.sigma) > 1e-9 * (1.0 + rep.sigma):
                wrong.append((p, rep.sigma, real))
        assert wrong == []


def _grid(pts):
    """in_domain_D_grid on the eta, mu and nu columns of a point list."""
    return in_domain_D_grid(*(np.array(col, dtype=float)
                              for col in zip(*pts)))


def _bits(x):
    return np.float64(x).tobytes()


def _near_surface(eta, mu, k):
    return (eta, mu, (1.0 - 10.0 ** -k) * nu_critical(eta, mu))


_signed_huge = st.builds(lambda x, sign: sign * x,
                         st.floats(1e100, 1e308), st.sampled_from([-1, 1]))
# (0, 0, 0) starts on the pole 5 eta = 3 sigma; at (1.2, 0, 2) and on
# gamma_+ the double root is there; 1e-300 is a mu whose square is 0
POLE_POINTS = [(0.0, 0.0, 0.0), (1.2, 0.0, 2.0), (1.0, 0.0, 125.0 / 108.0),
               (0.0, 1e-300, 0.0), (0.0, -1e-300, 1e-300)]
ONE_RULE_POINTS = st.one_of(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-1.0, 1.0),
              st.floats(-5.0, 5.0)),
    st.tuples(st.floats(-3.0, 3.0), st.just(0.0), st.floats(-5.0, 5.0)),
    st.builds(_near_surface, st.floats(0.05, 3.0),
              st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
              st.integers(1, 15)),
    st.tuples(_signed_huge, st.floats(-1.0, 1.0), _signed_huge),
    st.tuples(st.floats(-1.0, 1.0), _signed_huge, st.floats(-1.0, 1.0)),
    st.sampled_from(POLE_POINTS))


class TestOneRule:
    """A point and a grid run one rule: every grid entry is bit-equal to
    its point's one-point call, whatever else the grid holds."""

    @staticmethod
    def _check(pts):
        in_D, sigma, margin = _grid(pts)
        for k, pt in enumerate(pts):
            rep = in_domain_D(Params(*pt))
            got = (bool(in_D[k]), _bits(sigma[k]), _bits(margin[k]))
            assert got == (rep.in_D, _bits(rep.sigma), _bits(rep.margin)), \
                (pt, rep, sigma[k], margin[k])

    @given(st.lists(ONE_RULE_POINTS, min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_grid_entry_is_the_point_call(self, pts):
        self._check(pts)

    def test_thin_grid(self):
        self._check([(p.eta, p.mu, p.nu) for p in THIN_GRID])

    def test_near_surface_grid(self):
        # nu = (1 -+ 10^-k) nu_critical and nu_critical itself: near a
        # double root the last bits of the start decide where Newton stops
        # (numpy's ** in the grid's start moved 11 of these 7161 entries)
        pts = []
        for eta, mu in itertools.product(np.linspace(-1.0, 3.0, 21),
                                         np.linspace(-1.0, 1.0, 11)):
            nc = nu_critical(float(eta), float(mu))
            pts += [(float(eta), float(mu), f * nc)
                    for k in range(1, 16)
                    for f in (1.0 - 10.0 ** -k, 1.0 + 10.0 ** -k)]
            pts.append((float(eta), float(mu), nc))
        self._check(pts)

    def test_pole_and_overflow_points(self):
        pts = POLE_POINTS + [(1e103, 0.0, 0.0), (1e308, 0.0, 0.0),
                             (1e300, 0.5, -1e300), (1.0, 1e200, 0.0)]
        self._check(pts)
        in_D, sigma, margin = _grid(pts)
        assert not in_D.any() and np.isnan(sigma).all() and \
            (margin == 0.0).all()

    @pytest.mark.parametrize("pts", [
        # s*s*s overflows; mu = 0 points start on the pole
        list(itertools.product(np.geomspace(1e250, 1e300, 3), (-1.0, 0, 1.0),
                               (-1e300, 0.0, 1e300))),
        list(itertools.product((-1.2, 0.0, 1.2), (-1.0, 0.0, 1.0),
                               (-2.0, 0.0, 2.0)))])
    def test_grid_warns_nothing(self, pts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _grid(pts)

    def test_root_where_the_iterate_stops_moving(self):
        # the rounding noise of P at the root over P_s kept the step above
        # 1e-16 (1 + |s|) while s - step rounded back to s, and after 100
        # steps this point read "no real root"
        pt = (-7.836093009380605e-05, 1.4854483656354422e-06,
              -174178631690967.8)
        assert pt[2] < nu_critical(pt[0], pt[1])
        rep = in_domain_D(Params(*pt))
        assert rep.in_D and rep.sigma == 70362.55853934445
        in_D, sigma, _ = _grid([(1.0, 0.05, -0.3), pt])
        assert in_D.tolist() == [True, True]
        assert sigma[1] == rep.sigma
        self._check([pt, (1.0, 0.05, -0.3)])

    def test_outputs_are_arrays_of_the_grid_shape(self):
        in_D, sigma, margin = in_domain_D_grid([1.0, -1.0], [0.0, 0.0],
                                               [0.0, 0.0])
        assert in_D.dtype == bool and in_D.tolist() == [True, False]
        assert sigma.tolist()[0] == 2.5 and math.isnan(sigma[1])
        assert margin.tolist() == [3.125, 0.0]

    def test_non_finite_input_raises(self):
        with pytest.raises(DomainError):
            in_domain_D_grid([1.0], [0.0], [math.nan])


# the seed-0 axes of the benchmark's 2000-point sigma sweep
SWEEP = [Params(*map(float, pt))
         for pt in itertools.product(np.linspace(-3.0, 3.0, 20),
                                     np.linspace(-1.0, 1.0, 10),
                                     np.linspace(-5.0, 5.0, 10))]


def test_sweep_roots_are_the_largest_companion_roots():
    in_D, sigma, _ = _grid([(p.eta, p.mu, p.nu) for p in SWEEP])
    assert in_D.sum() == 1240
    wrong = []
    for p, inside, s in zip(SWEEP, in_D, sigma):
        z = _companion_roots(p)
        real = z.real[(np.abs(z.imag) <= 1e-6 * (1.0 + np.abs(z)))
                      & (z.real > max(5.0 * p.eta / 3.0, 0.0))]
        if inside != bool(real.size) or inside and \
                abs(real.max() - s) > 1e-12 * s:
            wrong.append((p, s, real))
    assert wrong == []


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

    @pytest.mark.parametrize("eta", [1e103, 1e200, 1e308])
    def test_overflowing_scale_is_reported(self, eta):
        # a coefficient of the cleared quintic (31.25 eta^3) is inf
        rep = in_domain_D(Params(eta, 0.0, 0.0))
        assert not rep.in_D and math.isnan(rep.sigma)
        assert "overflow" in rep.reason

    def test_matches_nu_critical_on_grid(self):
        # Cross-module oracle: D is nu < nu_critical(eta, mu).  Points within
        # 1e-12 (1 + |nu_critical|) of the surface are skipped: there the
        # verdict rests on how nu_critical and the root were rounded.  On
        # this grid that is (1.2, 0, 2), one ulp below nu_critical.
        from tau34.critical import nu_critical
        etas, mus, nus = GRID_AXES
        inside, wrong = 0, []
        for eta, mu in itertools.product(map(float, etas), map(float, mus)):
            nc = nu_critical(eta, mu)
            for nu in map(float, nus):
                if abs(nu - nc) <= 1e-12 * (1.0 + abs(nc)):
                    continue
                rep = in_domain_D(Params(eta, mu, nu))
                inside += rep.in_D
                if rep.in_D != (nu < nc):
                    wrong.append((eta, mu, nu, rep.reason))
        assert wrong == []
        assert 0 < inside < len(etas) * len(mus) * len(nus)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_never_raises(self, eta, mu, nu):
        rep = in_domain_D(Params(eta, mu, nu))
        assert rep.in_D == (rep.reason == "")
        if rep.in_D:
            assert rep.sigma > max(5.0 * eta / 3.0, 0.0)


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
