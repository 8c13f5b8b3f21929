import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tau34 import _kernels

pv = np.polynomial.polynomial.polyval

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
    """Test-only oracle: the earlier kernel, which evaluated the fallback
    power on every sample and sorted the sheets through a boolean mask."""
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


def _fancy_index_assignment(a2, r):
    """Test-only oracle: the sheet assignment of roots r (3, n) by the
    fancy-index gathers that `np.where` selections replaced."""
    n = r.shape[1]
    cols = np.arange(n)
    mid = np.argmin(3.0 * r.real**2 - r.imag**2 - 3.0 * a2, axis=0)
    first = r[(mid == 0).view(np.int8), cols]
    second = r[2 - (mid == 2).view(np.int8), cols]
    x0, x1 = first.real, second.real
    swap = (x1 > x0) | (np.isnan(x1) & ~np.isnan(x0))
    out = np.empty((3, n), dtype=np.complex128)
    out[0] = np.where(swap, second, first)
    out[1] = r[mid, cols]
    out[2] = np.where(swap, first, second)
    return out


#: numpy reuses the temporaries of arrays of 256 KiB and more; the oracle's
#: `u * (u * u + p)` then multiplies in swapped operand order, which rounds
#: differently, so it is evaluated on chunks below that size
_ELIDE_POINTS = 256 * 1024 // 16


def _reference_chunked(a2, c0, lam):
    m = _ELIDE_POINTS - 1
    return np.concatenate([_reference_sheet_roots(a2, c0, lam[i:i + m])
                           for i in range(0, lam.shape[0], m)], axis=1)


def _random_inputs(rng, n):
    a2 = rng.uniform(0.05, 3.0)
    c0 = complex(rng.uniform(-2.0, 2.0))
    lam = rng.normal(size=n) * 6 + 1j * rng.normal(size=n) * 6
    return a2, c0, lam


def test_numpy_roots_residual(rng):
    a2, c0, lam = _random_inputs(rng, 5000)
    roots = _kernels.sheet_roots(a2, c0, lam)
    coeffs = np.array([c0, -3.0 * a2, 0.0, 1.0])
    resid = np.abs(pv(roots, coeffs) - lam[None, :])
    assert np.max(resid / (1.0 + np.abs(lam))) < 1e-12


def test_sheet_partition(rng):
    # every sample yields one root per region
    a2, c0, lam = _random_inputs(rng, 2000)
    roots = _kernels.sheet_roots(a2, c0, lam)
    region = 3 * roots.real**2 - roots.imag**2 - 3 * a2
    # middle sheet has the smallest region value by construction
    assert np.all(region[1] <= region[0] + 1e-12)
    assert np.all(region[1] <= region[2] + 1e-12)
    assert np.all(roots[0].real >= roots[2].real - 1e-12)


@given(st.floats(0.05, 3.0), st.floats(-2, 2), st.floats(-10, 10),
       st.floats(-10, 10))
@settings(max_examples=150, deadline=None)
def test_single_point_residual(a2, c0, re, im):
    lam = np.array([complex(re, im)])
    roots = _kernels.sheet_roots(a2, complex(c0), lam)
    coeffs = np.array([complex(c0), -3.0 * a2, 0.0, 1.0])
    resid = abs(pv(roots[:, 0], coeffs) - lam[0]).max()
    assert resid < 1e-11 * (1.0 + abs(lam[0]))


class TestAgainstReference:
    @pytest.mark.parametrize("n", [1, 7, 1000, 3001, 6000, 8000])
    def test_bit_equal(self, n, rng):
        for _ in range(3):
            a2, c0, lam = _random_inputs(rng, n)
            assert np.array_equal(_kernels.sheet_roots(a2, c0, lam),
                                  _reference_sheet_roots(a2, c0, lam),
                                  equal_nan=True)

    def test_bit_equal_large(self, rng):
        a2, c0, lam = _random_inputs(rng, 100000)
        assert np.array_equal(_kernels.sheet_roots(a2, c0, lam),
                              _reference_chunked(a2, c0, lam),
                              equal_nan=True)

    @pytest.mark.parametrize("a2, c0, lam", [
        # a2 = 0: the Cardano cube vanishes at lam = c0
        (0.0, 0.5, [0.5, 1.0, -1.0, 1j, 0.0]),
        (0.0, 0.0, [0.0, 0.0, 1e-300]),
        # the branch points lam = c0 -+ 2 a2^(3/2) and the cut midpoint
        (1.0, 0.3, [2.3, -1.7, 0.3]),
        (1e-200, 0.0, [1e-300, 0.0, 1e-310]),
        (2.0, 1.0 + 0.5j, [[1.0, 2.0], [3.0, 4j]]),
        (1.0, 0.3, [np.nan, np.inf, complex(np.inf, 1.0), 1e300, -1e300]),
    ])
    def test_edge_cases(self, a2, c0, lam):
        lam = np.asarray(lam, dtype=np.complex128)
        with np.errstate(all="ignore"):
            got = _kernels.sheet_roots(a2, c0, lam)
            want = _reference_sheet_roots(a2, c0, lam)
        assert got.shape == want.shape == (3,) + lam.shape
        assert np.array_equal(got, want, equal_nan=True)

    @given(st.floats(0.0, 5.0), st.floats(-3, 3), st.floats(-3, 3),
           st.lists(st.complex_numbers(max_magnitude=1e6,
                                       allow_nan=False), min_size=1,
                    max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_property(self, a2, c0_re, c0_im, lam):
        c0 = complex(c0_re, c0_im)
        lam = np.array(lam, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _reference_sheet_roots(a2, c0, lam)
        assert np.array_equal(_kernels.sheet_roots(a2, c0, lam), want,
                              equal_nan=True)


@pytest.mark.parametrize("a2", [0.0, 0.25, 1.0])
def test_assignment_equals_fancy_index(a2, rng, monkeypatch):
    # roots from a few values, so that region values and real parts tie,
    # with NaN and infinite parts among them
    vals = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, np.nan, np.inf])
    r = np.empty((3, 6000), dtype=np.complex128)
    r.real = rng.choice(vals, (3, 6000))
    r.imag = rng.choice(vals, (3, 6000))
    monkeypatch.setattr(_kernels, "_cubic_roots", lambda a2_, c0, lam: r)
    with np.errstate(invalid="ignore"):
        got = _kernels.sheet_roots(a2, 0.0, np.zeros(6000))
        want = _fancy_index_assignment(a2, r)
    assert got.tobytes() == want.tobytes()


def test_roots_do_not_depend_on_batch_size(rng):
    a2, c0, lam = _random_inputs(rng, 2 * _ELIDE_POINTS + 11)
    whole = _kernels.sheet_roots(a2, c0, lam)
    for m in (1, 37, 1000):
        parts = [_kernels.sheet_roots(a2, c0, lam[i:i + m])
                 for i in range(0, 2000, m)]
        assert np.array_equal(np.concatenate(parts, axis=1)[:, :2000],
                              whole[:, :2000])
