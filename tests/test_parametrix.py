import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tau34 import cli
from tau34 import parametrix as px
from tau34.param_domain import Params
from tau34.parametrix import (JUMP_ALPHA, JUMP_BETA, REFLECT_LEFT,
                              REFLECT_RIGHT, SCAL, STOKES_PATTERN,
                              STOKES_PLANES, TRUNCATED_S7, P_k_matrix,
                              ResidueError, StokesData, _exact,
                              _stokes_product, _phi_rows, airy_series,
                              fhat_inv, global_M, global_M_sides, identity3,
                              jump_residuals, normalization_slope,
                              plane_membership, residue_W1, stokes_check)
from tau34.spectral_curve import OnBranchPoint, build_curve, uniformize_all

from oracles import (fhat, genus_one_pairing, h1_first_correction,
                     node_loop_residue)


def _matmul3(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _matmul_stokes_product(data):
    """Test-only oracle: S_-7 ... S_-1 S_1 ... S_7 as 14 full exact 3x3
    matrix products."""
    prod = identity3()
    for k in list(range(-7, 0)) + list(range(1, 8)):
        i, j = STOKES_PATTERN[k]
        m = identity3()
        m[i - 1][j - 1] += _exact(data.s[k])
        prod = _matmul3(prod, m)
    return prod


def _oracle_check(data):
    target = [[Fraction(SCAL[j][i]) for j in range(3)] for i in range(3)]
    return _matmul_stokes_product(data) == target


class TestStokes:
    def test_truncated_data_satisfies_constraint(self):
        assert stokes_check(StokesData.truncated())

    def test_zero_data_fails(self):
        assert not stokes_check(StokesData.from_seven((0,) * 7))

    def test_antisymmetry_construction(self):
        d = StokesData.truncated()
        for k in range(1, 8):
            assert d.s[k - 8] == -d.s[k]

    def test_plane_one_origin(self):
        # the (x, y) = (0, 0) member of plane 1
        assert stokes_check(StokesData.from_seven((0, -1, 0, 0, 1, -1, 0)))

    @given(st.integers(-5, 5), st.integers(-5, 5),
           st.sampled_from(sorted(STOKES_PLANES)))
    @settings(max_examples=80, deadline=None)
    def test_planes_satisfy_constraint(self, x, y, label):
        free = {"x": x, "y": y}
        s7 = tuple(p if isinstance(p, int) else p[1] * free[p[0]] + p[2]
                   for p in STOKES_PLANES[label])
        assert stokes_check(StokesData.from_seven(s7))

    def test_column_operations_match_matrix_products(self):
        corrupt = StokesData.truncated()
        corrupt = StokesData(s={**corrupt.s, 5: corrupt.s[5] + 1})
        cases = [StokesData.truncated(), corrupt,
                 StokesData.from_seven((0,) * 7)]
        for label, pattern in STOKES_PLANES.items():
            free = {"x": label - 3, "y": 2 - label}
            cases.append(StokesData.from_seven(tuple(
                p if isinstance(p, int) else p[1] * free[p[0]] + p[2]
                for p in pattern)))
        for data in cases:
            assert _stokes_product(data) == _matmul_stokes_product(data)
            assert stokes_check(data) == _oracle_check(data)
        assert _oracle_check(cases[0]) and not _oracle_check(corrupt)

    @given(st.lists(st.one_of(
        st.integers(-4, 4),
        st.fractions(min_value=-3, max_value=3, max_denominator=7)),
        min_size=7, max_size=7))
    @settings(max_examples=100, deadline=None)
    def test_column_operations_random(self, s7):
        data = StokesData.from_seven(tuple(s7))
        assert _stokes_product(data) == _matmul_stokes_product(data)

    def test_float_data_give_an_exact_product(self):
        half = StokesData.from_seven((0.5,) + TRUNCATED_S7[1:])
        prod = _stokes_product(half)
        h = Fraction(1, 2)
        assert prod == [[-h, 0, 1], [1, 0, 0], [3 * h / 2, 1, -h]]
        assert isinstance(prod[0][0], Fraction)
        assert prod == _matmul_stokes_product(half)
        assert not stokes_check(half)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_data_raise(self, bad):
        # Fraction itself rejects these, before any denominator bound
        with pytest.raises((ValueError, OverflowError)):
            stokes_check(StokesData.from_seven((bad,) + (0,) * 6))

    @pytest.mark.parametrize("x, want", [(0.5, Fraction(1, 2)),
                                         (0.1, Fraction(1, 10)),
                                         (1 / 3, Fraction(1, 3))])
    def test_float_that_rounds_back_is_its_small_ratio(self, x, want):
        assert _exact(x) == want

    @pytest.mark.parametrize("bad", [math.pi, 0.1 + 1e-13])
    def test_float_without_a_small_ratio_raises(self, bad):
        with pytest.raises(ValueError):
            _exact(bad)
        with pytest.raises(ValueError):
            stokes_check(StokesData.from_seven((bad,) + (0,) * 6))

    def test_integer_data_stay_integers(self):
        prod = _stokes_product(StokesData.truncated())
        assert all(type(x) is int for row in prod for x in row)

    def test_membership_truncated(self):
        assert plane_membership(TRUNCATED_S7) == {0, 1}

    def test_membership_other_intersection(self):
        # this tuple solves planes 5 (x=0, y=0) and 6 (x=0, y=-1): it is
        # their intersection point
        assert plane_membership((1, 0, 0, -1, 1, 0, 0)) == {5, 6}

    def test_membership_empty(self):
        assert plane_membership((9,) * 7) == set()


class TestAiry:
    def test_first_coefficients(self):
        co = airy_series(2)
        assert co.s[0] == 1 and co.t[0] == 1
        assert co.s[1] == Fraction(5, 72)
        assert co.t[1] == Fraction(-7, 72)
        assert co.s[2] == Fraction(385, 10368)

    def test_gamma_formula(self):
        co = airy_series(10)
        for k in range(1, 11):
            want = math.gamma(3 * k + 0.5) / (54.0**k * math.factorial(k)
                                              * math.gamma(k + 0.5))
            assert float(co.s[k]) == pytest.approx(want, rel=1e-12)
            assert float(co.t[k]) == pytest.approx(
                (1 + 6 * k) / (1 - 6 * k) * want, rel=1e-12)

    def test_kmax_guard(self):
        with pytest.raises(ValueError):
            airy_series(21)

    def test_P1_matrix_structure(self):
        z = 1.0
        P1 = P_k_matrix(1, z)
        s1, t1 = 5.0 / 72.0, -7.0 / 72.0
        x = 1.0 / (2.0 / 3.0)
        assert P1[0, 0] == pytest.approx(-(s1 + t1) / 2.0 * x, rel=1e-14)
        assert P1[1, 1] == pytest.approx((s1 + t1) / 2.0 * x, rel=1e-14)
        assert P1[0, 1] == pytest.approx(1j * (s1 - t1) / 2.0 * x, rel=1e-14)
        assert P1[1, 0] == pytest.approx(1j * (s1 - t1) / 2.0 * x, rel=1e-14)

    def test_P_k_decay(self):
        for k in (1, 2, 3):
            small = np.max(np.abs(P_k_matrix(k, 1e6)))
            assert small < 2.0 * (2.0 / 3.0 * 1e9) ** (-k)

    def test_branch_guard(self):
        with pytest.raises(ValueError):
            P_k_matrix(1, -1.0)

    def test_P_k_factor_cached_read_only(self):
        core = px.P_k_factor(1)
        assert px.P_k_factor(1) is core
        with pytest.raises(ValueError):
            core[0, 0] = 0.0
        assert P_k_matrix(1, 1.0).flags.writeable

    def test_against_airy_function(self):
        # truncated series against an actual Airy evaluation at |zeta| = 30
        from scipy.special import airy
        w = np.exp(2j * np.pi / 3.0)
        zeta = 30.0 * np.exp(1j * np.pi / 5.0)

        def A_matrix(z):
            # second row is -i d/dzeta of the first
            ai, aip, _, _ = airy(z)
            ai2, aip2, _, _ = airy(w**2 * z)
            return math.sqrt(2.0 * math.pi) * np.array(
                [[ai, -w**2 * ai2], [-1j * aip, 1j * w * aip2]])

        lhs = A_matrix(zeta) @ np.diag([np.exp(2.0 / 3.0 * zeta**1.5),
                                        np.exp(-2.0 / 3.0 * zeta**1.5)])
        pref = np.diag([zeta ** (-0.25), zeta ** 0.25]) / math.sqrt(2.0)
        pref = pref @ np.array([[1.0, 1j], [1j, 1.0]])
        series = np.eye(2, dtype=complex)
        for k in (1, 2, 3, 4):
            series += P_k_matrix(k, zeta)
        rhs = pref @ series
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(lhs))


@pytest.fixture(scope="module")
def cv_mu():
    return build_curve(Params(1.0, 0.3, -0.2))


@pytest.fixture(scope="module")
def cv_sym():
    return build_curve(Params(1.0, 0.0, 0.0))


class TestGlobalM:
    def test_cut_jumps(self, cv_mu, cv_sym):
        for cv in (cv_mu, cv_sym):
            res = jump_residuals(cv, n_points=20)
            assert res["alpha"] < 1e-10
            assert res["beta"] < 1e-10

    def test_jump_matches_offset_evaluation(self, d_grid20, cv_mu):
        """The exact side limits against the root kernel at x +- i eps, and
        the kernel's own jumps, at a few x on each cut of every d_grid20
        curve.  Unlike `jump_residuals`, whose lower side is built from the
        upper side's roots, this compares two root solvers."""
        eps = 1e-8
        steps = np.array([0.3, 1.9, 6.0])
        for cv in [build_curve(p) for p in d_grid20] + [cv_mu]:
            xs = np.concatenate([cv.alpha + steps, cv.beta - steps])
            Mp, Mm = global_M(cv, xs + 1j * eps), global_M(cv, xs - 1j * eps)
            a, b = slice(None, 3), slice(3, None)
            assert np.max(np.abs(Mp[a] - Mm[a] @ JUMP_ALPHA)) < 1e-6
            assert np.max(np.abs(Mm[b] - Mp[b] @ JUMP_BETA)) < 1e-6
            exact = global_M_sides(cv, xs)
            assert np.max(np.abs(exact[0] - Mp)) < 1e-6
            assert np.max(np.abs(exact[1] - Mm)) < 1e-6

    def test_real_lambda_in_the_gap_is_the_upper_limit(self):
        # in (beta, alpha) all three roots are real and the kernel's
        # imaginary parts are rounding noise: 771 of these 800 points once
        # flipped the sign of column 2 against x + 1e-13 i
        for pt in PARAMETRIX_POINTS:
            cv = build_curve(Params(*pt))
            xs = np.linspace(cv.beta, cv.alpha, 202)[1:-1]
            at, above = global_M(cv, xs), global_M(cv, xs + 1e-13j)
            rel = (np.linalg.norm(at - above, axis=(1, 2))
                   / np.linalg.norm(above, axis=(1, 2)))
            assert rel.max() <= 1e-10, (pt, rel.max())

    def test_real_lambda_on_a_cut_is_the_upper_limit(self, d_grid20):
        # x + 0j and x - 0j alike: the kernel's upper-side roots
        for cv in [build_curve(p) for p in d_grid20]:
            xs = np.concatenate([cv.alpha + np.geomspace(1e-3, 1e3, 7),
                                 cv.beta - np.geomspace(1e-3, 1e3, 7)])
            upper = global_M_sides(cv, xs)[0].tobytes()
            assert global_M(cv, xs + 0j).tobytes() == upper
            assert global_M(cv, xs - 0j).tobytes() == upper

    def test_jump_rows_finite_at_huge_alpha(self):
        # the steps scale with 1 + |alpha - beta|: at |alpha| = 6e44,
        # absolute steps would round onto alpha and both rows read NaN
        cv = build_curve(Params(-1e40, 0.0, -1e100))
        res = jump_residuals(cv)
        steps = np.linspace(0.3, 6.0, 20) * (1.0 + abs(cv.alpha - cv.beta))
        Mp, Mm = global_M_sides(cv, np.concatenate([cv.alpha + steps,
                                                    cv.beta - steps]))
        scale = max(np.max(np.abs(Mp)), np.max(np.abs(Mm)))
        assert np.isfinite(res["alpha"]) and np.isfinite(res["beta"])
        assert max(res.values()) <= ULPS * scale

    def test_normalization_slope(self, cv_mu):
        assert abs(normalization_slope(cv_mu) + 1.0) < 0.05

    def test_reflection_symmetry(self, cv_mu):
        p = cv_mu.params
        cv_m = build_curve(Params(p.eta, -p.mu, p.nu))
        for z in (2.5 + 1.3j, -4.0 + 0.7j, 1.0 - 2.0j):
            lhs = global_M(cv_mu, z)
            rhs = REFLECT_LEFT @ global_M(cv_m, -z) @ REFLECT_RIGHT
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_det_constant_per_half_plane(self, cv_mu):
        for half in (1.0, -1.0):
            dets = [np.linalg.det(global_M(cv_mu, z))
                    for z in (3 + 2j * half, -5 + 1j * half, 40 + 9j * half,
                              0.4 + 0.2j * half)]
            assert np.ptp([abs(d) for d in dets]) < 1e-10
            assert np.ptp(np.angle(np.array(dets) / dets[0])) < 1e-10

    def test_fhat_leading_asymptotics(self, cv_sym):
        lam = 1e5 * np.exp(0.7j)
        M = global_M(cv_sym, lam)
        dev = np.linalg.norm(M @ np.linalg.inv(fhat(lam)) - np.eye(3))
        assert dev < 1e-4

    def test_fhat_inv_closed_form(self):
        # up to |lam| = 1e6, the largest radius of normalization_slope
        # (at most 1.03e-15 when written); beyond it the condition of
        # f-hat, ~|lam|^(2/3), shows in inv
        lam = np.concatenate([np.geomspace(1e-3, 1e6, 19)
                              * np.exp(1j * a) for a in
                              (0.8, 3.1, -0.8, -3.1, 0.0, math.pi)])
        got = fhat_inv(lam)
        assert got.shape == lam.shape + (3, 3)
        for z, inv in zip(lam, got):
            want = np.linalg.inv(fhat(z))
            assert np.linalg.norm(inv - want) <= ULPS * np.linalg.norm(want)


class TestResidue:
    def test_reflection_at_mu_zero(self, cv_sym):
        rd = residue_W1(cv_sym)
        D = np.diag([1.0, -1.0, 1.0])
        assert np.allclose(rd.W1_hat, D @ rd.W1 @ D, atol=1e-14)

    def test_entries_finite_real(self, cv_sym):
        rd = residue_W1(cv_sym)
        assert np.all(np.isfinite(rd.W1))
        assert np.max(np.abs(rd.W1.imag)) < 1e-10

    # the last two sit near the minus stratum, |alpha - beta| = 1.1e-5 and
    # 7.1e-7: a circle about beta as wide as 1e-2 encloses alpha as well
    @pytest.mark.parametrize("pt", [Params(1.0, 0.0, 0.0),
                                    Params(2.0, 0.0, 0.3),
                                    Params(-5.0, 0.0, -1e-6),
                                    Params(-2.0, 0.0, -1e-8)])
    def test_pairing_against_first_correction(self, pt):
        # -tr(E13 (W1 + W1hat)) equals half the first correction of the
        # nu-Hamiltonian density (independent closed-form oracle)
        rd = residue_W1(build_curve(pt))
        pairing = -(rd.W1 + rd.W1_hat)[2, 0]
        assert abs(pairing.imag) < 1e-10 * max(1.0, abs(pairing.real))
        want = 0.5 * h1_first_correction(pt)
        assert pairing.real == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("pt", [(1.0, 0.0, 0.0), (1.0, 0.05, -0.3),
                                    (0.5, -0.05, -0.1), (2.0, 0.1, 0.2)])
    def test_exact_inverse_matches_linalg_inv(self, pt):
        """M^-1 = -M^T K (K the exchange matrix), on which the series of
        `residue_W1` rests, on two circles about beta (the first two radii
        of the quadrature oracle) and off the cuts in both half planes, for
        mu and -mu; np.linalg.inv is the oracle."""
        nodes = np.exp(1j * 2.0 * math.pi * (np.arange(256) + 0.5) / 256)
        for mu in (pt[1], -pt[1]):
            cv = build_curve(Params(pt[0], mu, pt[2]))
            gap = abs(cv.alpha - cv.beta)
            r0 = min(1e-2 * (1.0 + gap), 0.25 * gap)
            lam = np.concatenate([cv.beta + r0 * nodes,
                                  cv.beta + 0.5 * r0 * nodes,
                                  [2.5 + 1.3j, -4.0 + 0.7j, 1.0 - 2.0j,
                                   40.0 - 9.0j, 0.1 + 1e-3j, 0.1 - 1e-3j]])
            M = global_M(cv, lam)
            want = np.linalg.inv(M)
            err = np.linalg.norm(-M.swapaxes(1, 2)[:, :, ::-1] - want,
                                 axis=(1, 2))
            assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=(1, 2)))


#: the four parametrix points of the benchmark; with d_grid20, 24 points
PARAMETRIX_POINTS = [(1.0, 0.0, 0.0), (1.0, 0.05, -0.3), (0.5, -0.05, -0.1),
                     (2.0, 0.1, 0.2)]
#: near the minus stratum, |alpha - beta| = 1.1e-5 and 7.1e-7, and a point
#: with |alpha - beta| = 2.8e-9, where the circle quadrature never settled
HARD_POINTS = [(-5.0, 0.0, -1e-6), (-2.0, 0.0, -1e-8),
               (-676586.4282446072, 138843.51463656646,
                -0.010108945468011433)]


@pytest.fixture(scope="module")
def residue_points(d_grid20):
    return [Params(*pt) for pt in PARAMETRIX_POINTS] + list(d_grid20)


def assert_series_matches_node_loop(cv):
    """The series W1 and W1_hat against the circle-quadrature oracle, to
    1e-12 of the entry scale: the quadrature's own round-off near beta is
    up to 4e-13 of it."""
    rd = residue_W1(cv)
    for got, want in zip((rd.W1, rd.W1_hat), node_loop_residue(cv)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def pairing_gap(p):
    """Relative gap of the residue pairing to the genus-one closed form."""
    rd = residue_W1(build_curve(p))
    want = genus_one_pairing(p)
    return abs(-(rd.W1 + rd.W1_hat)[2, 0] - want) / abs(want)


def mutant(old, new):
    """The namespace of `tau34.parametrix` run again with one substitution
    in its source, whose constants a test can put in place."""
    src = Path(px.__file__).read_text()
    assert src.count(old) == 1
    ns = {"__name__": "tau34._parametrix_mutant", "__package__": "tau34"}
    exec(compile(src.replace(old, new), px.__file__, "exec"), ns)
    return ns


class TestResidueSeries:
    def test_matches_quadrature_oracle(self, d_grid20):
        # at most 4.4e-13 max|W1| when written; the four benchmark points
        # are TestBatched::test_residue_matches_node_loop
        for p in d_grid20:
            assert_series_matches_node_loop(build_curve(p))

    def test_pairing_against_genus_one(self, residue_points):
        # -(W1 + W1_hat)_31 = d/dnu F1, F1 = -(1/24) log chi, on all of D
        for p in residue_points + [Params(*pt) for pt in HARD_POINTS]:
            assert pairing_gap(p) <= 1e-13

    @pytest.mark.parametrize("pt", [(1.0, 0.0, 0.0), (2.0, 0.0, 0.3),
                                    (-5.0, 0.0, -1e-6), (0.5, 0.0, -0.1)])
    def test_genus_one_oracle_on_mu_zero(self, pt):
        p = Params(*pt)
        assert genus_one_pairing(p) == pytest.approx(
            0.5 * h1_first_correction(p), rel=1e-11)

    def test_sheet_series_match_kernel(self, residue_points):
        """u_j = a (1 + tau_j(omega)) and s_j = a sqrt(+-omega) h_j, the
        sheets and square roots `residue_W1` expands, against the root
        kernel and `_phi_rows`' roots at lam = beta + a^3 omega^2 above the
        cut."""
        omega = 1e-3 * np.exp(1j * np.array([0.2, 0.8, 1.4]))
        npoly = np.polynomial.polynomial
        for p in residue_points:
            cv = build_curve(p)
            a = cv.a
            u = uniformize_all(cv, cv.beta + a**3 * omega**2)[:2]
            tau = np.array([npoly.polyval(omega, c) for c in px._SHEETS])
            assert np.max(np.abs(u - a * (1.0 + tau))) <= 1e-10 * a
            s = np.sqrt(u - a) * np.sqrt(u + a)
            h = 1.0 / np.array([npoly.polyval(omega, c) for c in px._INV_H])
            want = a * np.sqrt(np.array([omega, -omega])) * h
            assert np.max(np.abs(s - want) / np.abs(want)) <= 1e-8

    def test_wrong_sheet_fails_the_odd_check(self, monkeypatch, capsys):
        # sheet 2 as -tau(omega) instead of tau(-omega): the series keeps
        # odd powers of sqrt(lam - beta)
        ns = mutant("(-1.0) ** np.arange(_ORDER) * _TAU", "-_TAU")
        for name in ("_G_OF_TAYLOR", "_PHI_PAIRS"):
            monkeypatch.setattr(px, name, ns[name])
        with pytest.raises(ResidueError, match="odd coefficient"):
            residue_W1(build_curve(Params(1.0, 0.05, -0.3)))
        assert cli.main(["parametrix"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("tau34: error: the Laurent series at beta")

    def test_wrong_cross_branch_fails_the_pairing(self, monkeypatch):
        # s1 s2 = +i omega a^2 h1 h2 keeps the series even, so the odd
        # check passes it; the genus-one closed form does not
        monkeypatch.setattr(px, "_BRANCH",
                            np.array([[1.0, -1.0j], [-1.0j, -1.0]]))
        assert pairing_gap(Params(1.0, 0.05, -0.3)) > 1e-3


# ---------------------------------------------------------------------------
# batched evaluation against the per-point loops it replaced
# ---------------------------------------------------------------------------

#: a few ulps of the entry scale: the batched and the scalar calls do the
#: same arithmetic, but numpy's vector loops may round a length-1 array and
#: a longer one differently on some CPUs
ULPS = 8 * np.finfo(float).eps


def scalar_cut_side_roots(curve, x):
    """Per-point side limits through np.roots (the loop the batch replaced)."""
    r = np.roots([1.0, 0.0, float(curve.lam_coeffs[1]),
                  float(curve.lam_coeffs[0]) - x])
    i_real = int(np.argmin(np.abs(r.imag)))
    real_root = complex(r[i_real].real, 0.0)
    pair = [r[i] for i in range(3) if i != i_real]
    lo = min(pair, key=lambda z: z.imag)
    hi = max(pair, key=lambda z: z.imag)
    lo = complex(lo.real, -abs(lo.imag))
    hi = complex(hi.real, abs(hi.imag))
    if x > curve.alpha:
        return np.array([real_root, lo, hi])
    return np.array([hi, lo, real_root])


def one_side_M(curve, x, side):
    """Test-only oracle: one boundary value of M per root-kernel call."""
    x = np.asarray(x, dtype=float)
    u = uniformize_all(curve, x.ravel() + 0j)
    if side == "-":
        u = u.conjugate()
    M = _phi_rows(u.T, curve.sigma)
    if side == "-":
        M[..., 1] *= -1.0
    return M.reshape(x.shape + (3, 3))


def four_call_jump_residuals(curve, n_points=20):
    """Test-only oracle: `jump_residuals` with one root-kernel call per cut
    and side."""
    steps = np.linspace(0.3, 6.0, n_points) * (1.0 + abs(curve.alpha
                                                         - curve.beta))
    xs_a = curve.alpha + steps
    Mp, Mm = one_side_M(curve, xs_a, "+"), one_side_M(curve, xs_a, "-")
    out = {"alpha": float(np.max(np.abs(Mp - Mm @ JUMP_ALPHA)))}
    xs_b = curve.beta - steps
    Mp, Mm = one_side_M(curve, xs_b, "+"), one_side_M(curve, xs_b, "-")
    out["beta"] = float(np.max(np.abs(Mm - Mp @ JUMP_BETA)))
    return out


@pytest.fixture(params=[(1.0, 0.3, -0.2), (1.0, 0.0, 0.0), (0.5, -0.05, -0.1)],
                ids=["pt0", "pt1", "pt2"])
def cut_roots(request):
    """A curve, 80 x on its cuts (1e-6 to 1e3 from each branch point) and
    the upper-side roots (3, 80) the kernel gives there."""
    cv = build_curve(Params(*request.param))
    xs = np.concatenate([cv.alpha + np.geomspace(1e-6, 1e3, 40),
                         cv.beta - np.geomspace(1e-6, 1e3, 40)])
    return cv, xs, uniformize_all(cv, xs + 0j)


class TestBatched:
    def test_jump_residuals_equal_four_calls(self, d_grid20, cv_mu, cv_sym):
        for cv in [build_curve(p) for p in d_grid20] + [cv_mu, cv_sym]:
            assert jump_residuals(cv) == four_call_jump_residuals(cv)
            xs = np.concatenate([cv.alpha + np.geomspace(1e-3, 1e3, 9),
                                 cv.beta - np.geomspace(1e-3, 1e3, 9)])
            Mp, Mm = global_M_sides(cv, xs)
            assert Mp.tobytes() == one_side_M(cv, xs, "+").tobytes()
            assert Mm.tobytes() == one_side_M(cv, xs, "-").tobytes()

    @pytest.mark.parametrize("pt", PARAMETRIX_POINTS)
    def test_residue_matches_node_loop(self, pt):
        # the Laurent series replaced the per-node quadrature loop
        assert_series_matches_node_loop(build_curve(Params(*pt)))

    def test_global_M_stack_equals_scalar_calls(self, cv_mu):
        cv = cv_mu
        lam = np.array([2.5 + 1.3j, -4.0 + 0.7j, 1.0 - 2.0j, 40.0 - 9.0j,
                        cv.alpha + 1.9, cv.beta - 0.8, 0.5 * (cv.alpha
                                                              + cv.beta)])
        stack = global_M(cv, lam)
        assert stack.shape == (len(lam), 3, 3)
        for z, M in zip(lam, stack):
            one = global_M(cv, complex(z))
            assert one.shape == (3, 3)
            assert np.max(np.abs(M - one)) <= ULPS * np.max(np.abs(one))
        assert global_M(cv, lam.reshape(7, 1)).shape == (7, 1, 3, 3)

    def test_global_M_stack_rejects_branch_point(self, cv_mu):
        with pytest.raises(OnBranchPoint):
            global_M(cv_mu, np.array([1.0 + 1.0j, cv_mu.beta]))

    @pytest.mark.parametrize("side", ["+", "-"])
    def test_global_M_side_stack_equals_scalar_calls(self, cv_mu, side):
        cv = cv_mu
        k = "+-".index(side)
        xs = np.concatenate([cv.alpha + np.linspace(0.3, 6.0, 5),
                             cv.beta - np.linspace(0.3, 6.0, 5)])
        stack = global_M_sides(cv, xs)[k]
        for x, M in zip(xs, stack):
            one = global_M_sides(cv, float(x))[k]
            assert one.shape == (3, 3)
            assert np.max(np.abs(M - one)) <= ULPS * np.max(np.abs(one))

    def test_cut_side_roots_match_np_roots(self, cut_roots):
        # an independent root solver (1.3e-13 relative when written)
        cv, xs, batch = cut_roots
        for k, x in enumerate(xs):
            want = scalar_cut_side_roots(cv, x)
            assert np.max(np.abs(batch[:, k] - want)) \
                <= 1e-11 * np.max(np.abs(want))

    def test_cubic_residual(self, cut_roots):
        cv, xs, u = cut_roots
        lam1, q = float(cv.lam_coeffs[1]), cv.c - xs
        res = np.abs(u**3 + lam1 * u + q)
        scale = np.abs(u)**3 + abs(lam1) * np.abs(u) + np.abs(q)
        assert np.all(res <= 4.0 * np.finfo(float).eps * scale)

    def test_exactly_conjugate_pair(self, cut_roots):
        # exact on [alpha, inf), where t and s are real; on (-inf, beta]
        # the phase exp(i pi/3) rounds: the pair is conjugate and u3 real to
        # a few ulps (measured 4 and 0.7 eps relative)
        cv, xs, (u1, u2, u3) = cut_roots
        on_alpha = xs > cv.alpha
        assert np.all(u1[on_alpha].imag == 0.0)
        assert np.array_equal(u2[on_alpha], u3[on_alpha].conjugate())
        assert np.all(u3.imag[on_alpha] > 0.0)
        assert np.all(u1.imag[~on_alpha] > 0.0)
        assert np.all(np.abs(u2 - u1.conjugate())[~on_alpha]
                      <= ULPS * np.abs(u1[~on_alpha]))
        assert np.all(np.abs(u3.imag[~on_alpha])
                      <= ULPS * np.abs(u3[~on_alpha]))

    def test_batch_equals_scalar_calls(self, cut_roots):
        cv, xs, batch = cut_roots
        for k, x in enumerate(xs):
            assert np.array_equal(uniformize_all(cv, np.array([x + 0j]))[:, 0],
                                  batch[:, k])
            assert np.array_equal(uniformize_all(cv, x + 0j)[:, 0],
                                  batch[:, k])
