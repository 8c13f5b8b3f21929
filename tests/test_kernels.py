from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tau34 import _kernels
from tau34.critical import nu_critical
from tau34.lensing import standard_contours
from tau34.param_domain import Params
from tau34.spectral_curve import build_curve, g_of_u

from oracles import mp_context

pv = np.polynomial.polynomial.polyval

EPS = np.finfo(float).eps

_OMEGA = np.exp(2j * np.pi / 3)


def _reference_cubic_roots(a2, c0, lam):
    lam = np.asarray(lam, dtype=np.complex128)
    p = np.complex128(-3.0 * a2)
    q = c0 - lam
    disc = np.sqrt(q * q / 4.0 + p**3 / 27.0)
    c3a = -q / 2.0 + disc
    c3b = -q / 2.0 - disc
    c3 = np.where(np.abs(c3a) >= np.abs(c3b), c3a, c3b)
    cval = c3 ** (1.0 / 3.0)
    roots = np.empty(lam.shape + (3,), dtype=np.complex128)
    for k in range(3):
        ck = cval * _OMEGA**k
        with np.errstate(divide="ignore", invalid="ignore"):
            u = ck - p / (3.0 * ck)
        u = np.where(np.abs(ck) < 1e-300, (-q) ** (1.0 / 3.0) * _OMEGA**k, u)
        for _ in range(2):
            f = u * (u * u + p) + q
            fp = 3.0 * u * u + p
            step = np.where(np.abs(fp) > 1e-300, f / fp, 0.0)
            u = u - step
        roots[..., k] = u
    return roots


def _reference_sheet_roots(a2, c0, lam):
    """Test-only oracle: the kernel the closed form replaced, complex
    Cardano with two Newton steps per root, labelled by the hyperbola
    regions 3x^2 - y^2 = 3 a2 of the u-plane (sheet 2 the middle region,
    sheet 1 the larger real part of the other two)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.complex128))
    flat = lam.ravel()
    r = _reference_cubic_roots(a2, c0, flat)
    region = 3.0 * r.real**2 - r.imag**2 - 3.0 * a2
    n = flat.shape[0]
    idx = np.arange(n)
    i2 = np.argmin(region, axis=-1)
    out = np.empty((3, n), dtype=np.complex128)
    out[1] = r[idx, i2]
    mask = np.ones_like(region, dtype=bool)
    mask[idx, i2] = False
    rest = r[mask].reshape(n, 2)
    hi = np.argmax(rest.real, axis=-1)
    out[0] = rest[idx, hi]
    out[2] = rest[idx, 1 - hi]
    return out.reshape((3,) + lam.shape)


def nearest_labels(got, want):
    """For roots (3, n): the sheet of the reference root nearest to each
    kernel root, (3, n).  Identical labels read [[0...], [1...], [2...]]."""
    return np.argmin(np.abs(got[:, None, :] - want[None, :, :]), axis=1)


def assert_same_labels(got, want):
    labels = nearest_labels(got, want)
    bad = np.flatnonzero(np.any(labels != np.arange(3)[:, None], axis=0))
    assert bad.size == 0, f"{bad.size} samples relabelled, first {bad[0]}"


def _random_inputs(rng, n):
    a2 = rng.uniform(0.05, 3.0)
    c0 = rng.uniform(-2.0, 2.0)
    lam = rng.normal(size=n) * 6 + 1j * rng.normal(size=n) * 6
    return a2, c0, lam


def _branch_distance(a2, c0, lam):
    two_a3 = 2.0 * a2 ** 1.5
    return np.minimum(np.abs(lam - (c0 + two_a3)), np.abs(lam - (c0 - two_a3)))


def test_numpy_roots_residual(rng):
    a2, c0, lam = _random_inputs(rng, 5000)
    roots = _kernels.sheet_roots(a2, c0, lam)
    coeffs = np.array([c0, -3.0 * a2, 0.0, 1.0])
    resid = np.abs(pv(roots, coeffs) - lam[None, :])
    assert np.max(resid / (1.0 + np.abs(lam))) < 1e-12


def test_sheet_partition(rng):
    # every sample yields one root per hyperbola region
    a2, c0, lam = _random_inputs(rng, 2000)
    roots = _kernels.sheet_roots(a2, c0, lam)
    region = 3 * roots.real**2 - roots.imag**2 - 3 * a2
    assert np.all(region[1] <= region[0] + 1e-12)
    assert np.all(region[1] <= region[2] + 1e-12)
    assert np.all(roots[0].real >= roots[2].real - 1e-12)


@given(st.floats(0.05, 3.0), st.floats(-2, 2), st.floats(-10, 10),
       st.floats(-10, 10))
@settings(max_examples=150, deadline=None)
def test_single_point_residual(a2, c0, re, im):
    lam = np.array([complex(re, im)])
    roots = _kernels.sheet_roots(a2, c0, lam)
    coeffs = np.array([c0, -3.0 * a2, 0.0, 1.0])
    resid = abs(pv(roots[:, 0], coeffs) - lam[0]).max()
    assert resid < 1e-11 * (1.0 + abs(lam[0]))


#: the roots against the Newton-polished reference, in units of
#: eps (1 + |u|), at least 1e-3 from a branch point (measured: 4.6 on
#: 1e6 samples)
FAR_ULPS = 8

#: the roots against 60-digit mpmath, in units of eps (|u| + a), within
#: 1e-6 to 1e-4 of a branch point and at the edge cases (measured: 1.4);
#: t and s, of sizes |t| >= a >= |s|, make up every root
MP_ULPS = 8


def assert_roots_of(got, a2, c0, lam):
    """Each column of got (3, n) is the three roots of lam(u) = lam, in
    some order, to MP_ULPS against 60-digit mpmath."""
    mp = mp_context(60)
    for k, x in enumerate(lam):
        q = mp.mpf(c0) - mp.mpc(x)
        if q == 0:      # u (u^2 - 3 a2), whose multiple roots stall polyroots
            r = float(mp.sqrt(3 * mp.mpf(a2)))
            want = np.array([0.0, r, -r])
        else:           # in u = scale v, so that polyroots sees roots ~ 1
            scale = max(mp.cbrt(abs(q)), mp.sqrt(mp.mpf(a2)))
            want = np.array([complex(scale * v) for v in mp.polyroots(
                [1, 0, -3 * mp.mpf(a2) / scale**2, q / scale**3],
                maxsteps=100, extraprec=100)])
        err = min((np.abs(got[:, k] - want[list(perm)])
                   for perm in permutations(range(3))), key=np.max)
        assert np.all(err <= MP_ULPS * EPS * (np.abs(got[:, k])
                                              + np.sqrt(a2))), (x, err)


class TestAgainstReference:
    @pytest.mark.parametrize("n", [1, 7, 1000, 3001, 6000, 8000])
    def test_same_labels(self, n, rng):
        for _ in range(3):
            a2, c0, lam = _random_inputs(rng, n)
            assert_same_labels(_kernels.sheet_roots(a2, c0, lam),
                               _reference_sheet_roots(a2, c0, lam))

    def test_same_labels_large(self, rng):
        a2, c0, lam = _random_inputs(rng, 100000)
        assert_same_labels(_kernels.sheet_roots(a2, c0, lam),
                           _reference_sheet_roots(a2, c0, lam))

    def test_ulp_bound_away_from_branch_points(self, rng):
        for _ in range(20):
            a2, c0, lam = _random_inputs(rng, 5000)
            lam = lam[_branch_distance(a2, c0, lam) > 1e-3]
            got = _kernels.sheet_roots(a2, c0, lam)
            want = _reference_sheet_roots(a2, c0, lam)
            assert np.all(np.abs(got - want)
                          <= FAR_ULPS * EPS * (1.0 + np.abs(want)))

    def test_same_labels_on_lensing_samples(self, d_grid20):
        # the certified grid, and points 1e-8 (1 + nu_c) below the
        # critical surface, where the branch points close in
        near = [Params(eta, mu, nu_critical(eta, mu)
                       - 1e-8 * (1.0 + nu_critical(eta, mu)))
                for eta in (0.5, 1.0, 2.0) for mu in (0.0, 0.05)]
        for p in list(d_grid20) + near:
            cv = build_curve(p)
            lam = np.concatenate([s.points() for s in standard_contours(cv)])
            assert_same_labels(_kernels.sheet_roots(cv.a**2, cv.c, lam),
                               _reference_sheet_roots(cv.a**2, cv.c, lam))

    @pytest.mark.parametrize("a2, c0, lam", [
        # a2 = 0: t vanishes at lam = c0, where the roots are exactly 0
        (0.0, 0.5, [0.5, 1.0, -1.0, 1j, 0.0]),
        (0.0, 0.0, [0.0, 0.0, 1e-300]),
        # the branch points lam = c0 -+ 2 a2^(3/2) and the cut midpoint
        (1.0, 0.3, [2.3, -1.7, 0.3]),
        (1e-200, 0.0, [1e-300, 0.0, 1e-310]),
        (2.0, 1.0, [[1.0, 2.0], [3.0, 4j]]),
        (1.0, 0.3, [np.nan, np.inf, complex(np.inf, 1.0), 1e300, -1e300]),
    ])
    def test_edge_cases(self, a2, c0, lam):
        # roots of the exact input: at 2.3, which is 1.7e-16 below
        # alpha = 0.3 + 2, the double root splits into -1 -+ 7.5e-9
        lam = np.asarray(lam, dtype=np.complex128)
        got = _kernels.sheet_roots(a2, c0, lam)
        assert got.shape == (3,) + lam.shape
        got, lam = got.reshape(3, -1), lam.ravel()
        finite = np.isfinite(lam)
        assert np.all(np.isnan(got[:, ~finite]))
        assert_roots_of(got[:, finite], a2, c0, lam[finite])

    @given(st.floats(0.0, 5.0), st.floats(-3, 3),
           st.lists(st.complex_numbers(max_magnitude=1e6,
                                       allow_nan=False), min_size=1,
                    max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_property(self, a2, c0, lam):
        lam = np.array(lam, dtype=np.complex128)
        got = _kernels.sheet_roots(a2, c0, lam)
        with np.errstate(all="ignore"):
            want = _reference_sheet_roots(a2, c0, lam)
        # the reference labels are decided where its region values and real
        # parts are apart: on and next to the cuts a conjugate pair ties,
        # and near a double root its Newton steps stall at sqrt(eps)
        scale = 1.0 + np.max(np.abs(want), axis=0)
        region = np.sort(3.0 * want.real**2 - want.imag**2 - 3.0 * a2, axis=0)
        keep = ((region[1] - region[0] > 1e-6 * scale**2)
                & (want[0].real - want[2].real > 1e-6 * scale))
        assert_same_labels(got[:, keep], want[:, keep])


def test_branch_points_against_mpmath(d_grid20):
    # the roots move like sqrt(lam - alpha) there: alpha and beta rounded
    # to doubles would put them off by up to 1.2e-13 relative
    offsets = np.outer(np.geomspace(1e-6, 1e-4, 3),
                       np.exp(1j * np.array([0.3, 1.9, -0.8, -2.7]))).ravel()
    for p in d_grid20:
        cv = build_curve(p)
        lam = np.concatenate([cv.alpha + offsets, cv.beta + offsets])
        assert_roots_of(_kernels.sheet_roots(cv.a**2, cv.c, lam),
                        cv.a**2, cv.c, lam)


@pytest.mark.parametrize("a2, c0, alpha, want", [
    (1.0, 0.25, 2.25, [2.0, -1.0, -1.0]),
    (4.0, 0.5, 16.5, [4.0, -2.0, -2.0]),
])
def test_exact_double_root_at_alpha(a2, c0, alpha, want):
    # t^3 = a^3 > 0, so the phase is exactly 1 and t = s = a
    assert np.array_equal(
        _kernels.sheet_roots(a2, c0, np.array([alpha]))[:, 0], want)


@pytest.mark.parametrize("a2, c0, beta, want", [
    (1.0, 0.25, -1.75, [1.0, 1.0, -2.0]),
    (4.0, 0.5, -15.5, [2.0, 2.0, -4.0]),
])
def test_double_root_at_beta(a2, c0, beta, want):
    # t^3 = -a^3: the phase exp(i pi/3) rounds, and the roots by an ulp
    got = _kernels.sheet_roots(a2, c0, np.array([beta]))[:, 0]
    assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want))


def test_negative_zero_is_the_upper_side():
    # on both cuts and between them, x - 0j gives the x + 0j roots
    x = np.array([-40.0, -2.5, 0.1, 1.9, 3.0, 1e6])
    plus = _kernels.sheet_roots(1.0, 0.3, x + 0j)
    assert plus.tobytes() == _kernels.sheet_roots(1.0, 0.3, x - 0j).tobytes()
    # the upper limits on [alpha, inf): Im u3 > 0
    assert np.all(plus[2, -2:].imag > 0.0)


#: numpy reuses the temporaries of arrays of 256 KiB and more, which may
#: swap the operands of a complex product; batches on both sides of it
_ELIDE_POINTS = 256 * 1024 // 16


def test_roots_do_not_depend_on_batch_size(rng):
    a2, c0, lam = _random_inputs(rng, 2 * _ELIDE_POINTS + 11)
    whole = _kernels.sheet_roots(a2, c0, lam)
    for m in (1, 37, 1000):
        parts = [_kernels.sheet_roots(a2, c0, lam[i:i + m])
                 for i in range(0, 2000, m)]
        assert np.array_equal(np.concatenate(parts, axis=1)[:, :2000],
                              whole[:, :2000])


def assert_mirror(curve, lam):
    """Schwarz reflection, which lensing's mirrored lower lenses rest on:
    the roots and g at conj(lam) are the conjugates of those at lam, bit
    for bit (+ 0.0 drops the sign of zero parts, which Re(g_i - g_j) never
    sees), for Im lam != 0."""
    lam = np.asarray(lam, dtype=np.complex128)
    lam = lam[lam.imag != 0.0]
    up = _kernels.sheet_roots(curve.a**2, curve.c, lam)
    down = _kernels.sheet_roots(curve.a**2, curve.c, lam.conj())
    assert (down + 0.0).tobytes() == (up.conj() + 0.0).tobytes()
    g_up, g_down = g_of_u(curve, up), g_of_u(curve, down)
    assert (g_down + 0.0).tobytes() == (g_up.conj() + 0.0).tobytes()


@given(st.floats(-2.0, 3.0), st.floats(-1.0, 1.0), st.floats(-3.0, 3.0),
       st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
       st.lists(st.complex_numbers(max_magnitude=1e12, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_conjugate_mirror_property(eta, mu, nu, sigma, lam):
    # any sigma: the identity needs real coefficients, not the branch
    # equation
    if abs(5.0 * eta - 3.0 * sigma) < 1e-6:
        sigma += 0.5
    assert_mirror(build_curve(Params(eta, mu, nu), sigma=sigma), lam)


def test_conjugate_mirror_on_lensing_samples(d_grid20):
    # the lens samples, rays 1e-6 from the branch points and |lam| out to
    # 1e12
    rays = np.exp(1j * np.linspace(-3.1, 3.1, 32))
    far = np.outer(np.geomspace(1e3, 1e12, 10), rays).ravel()
    for p in d_grid20:
        cv = build_curve(p)
        lam = np.concatenate([s.points() for s in standard_contours(cv)]
                             + [cv.alpha + 1e-6 * rays,
                                cv.beta + 1e-6 * rays, far])
        assert_mirror(cv, lam)
