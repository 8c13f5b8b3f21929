"""The hot kernel: sheet-resolved roots of the curve cubic, in numpy.

The spectral curve is lam(u) = u^3 - 3*a2*u + c0.  For each sample lam the
three roots are computed by complex Cardano (plus two Newton polish steps)
and assigned to sheets by the hyperbola-region rule: the preimages of the
three sheets in the u-plane are separated by the curve 3x^2 - y^2 = 3*a2
(x = Re u, y = Im u).  Sheet 2 is the middle region, sheet 1 the right
component, sheet 3 the left one.  The rule agrees with the asymptotic
labels u1 ~ lam^(1/3), u2 ~ w^{+-2} lam^(1/3), u3 ~ w^{+-1} lam^(1/3)
(w = exp(2i pi/3)) on the respective half-planes.

Every elementwise step runs on contiguous 1-D arrays of the n samples (one
row per Cardano branch), so a sample's roots do not depend on how many
samples share the call.  `benchmarks/bench_kernels.py` times the kernel at
n = 1, 1e3 and 1e5.
"""
import numpy as np

BACKEND = "numpy"

_OMEGA = np.exp(2j * np.pi / 3)
#: the cube-root branch factors w^k of the three Cardano roots
_BRANCHES = tuple(_OMEGA**k for k in range(3))


def _cubic_roots(a2, c0, lam):
    """Roots of u^3 - 3*a2*u + (c0 - lam) = 0 for 1-D lam, shape (3, n)."""
    p = np.complex128(-3.0 * a2)
    q = c0 - lam
    roots = np.empty((3, lam.shape[0]), dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(q * q / 4.0 + p**3 / 27.0)
        # pick the Cardano cube whose magnitude avoids cancellation
        c3a = -q / 2.0 + disc
        c3b = -q / 2.0 - disc
        cval = np.where(np.abs(c3a) >= np.abs(c3b), c3a, c3b) ** (1.0 / 3.0)
        for k, w in enumerate(_BRANCHES):
            ck = cval * w
            u = ck - p / (3.0 * ck)
            # a vanishing Cardano cube (p = 0): the root is the cube root of -q
            small = np.abs(ck) < 1e-300
            if small.any():
                u[small] = (-q[small]) ** (1.0 / 3.0) * w
            for _ in range(2):
                # np.multiply keeps the operand order: from 256 KiB up, numpy
                # would reuse the temporary of `u * (u * u + p)` and swap the
                # operands, and its FMA complex product is not symmetric
                f = np.multiply(u, u * u + p) + q
                fp = 3.0 * u * u + p
                u = u - np.where(np.abs(fp) > 1e-300, f / fp, 0.0)
            roots[k] = u
    return roots


def sheet_roots(a2, c0, lam):
    """Sheet-assigned roots, shape (3,) + lam.shape (sheets 1, 2, 3)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.complex128))
    r = _cubic_roots(a2, c0, lam.ravel())
    n = r.shape[1]
    cols = np.arange(n)
    # sheet 2: the smallest region value (the first one on ties)
    mid = np.argmin(3.0 * r.real**2 - r.imag**2 - 3.0 * a2, axis=0)
    # the other two roots in index order; sheet 1 takes the larger real part,
    # the first root on a tie, and a NaN real part as the larger (as argmax)
    first = r[(mid == 0).view(np.int8), cols]
    second = r[2 - (mid == 2).view(np.int8), cols]
    x0, x1 = first.real, second.real
    swap = (x1 > x0) | (np.isnan(x1) & ~np.isnan(x0))
    out = np.empty((3, n), dtype=np.complex128)
    out[0] = np.where(swap, second, first)
    out[1] = r[mid, cols]
    out[2] = np.where(swap, first, second)
    return out.reshape((3,) + lam.shape)
