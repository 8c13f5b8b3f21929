"""The hot kernel: sheet-resolved roots of the curve cubic, in closed form.

lam(u) = u^3 - 3 a2 u + c0 (a2 = a^2, c0 real) has branch points
alpha, beta = c0 +- 2 a^3 and cuts (-inf, beta] (sheets 1|2), [alpha, inf)
(2|3).  With principal roots, omega = exp(2 i pi/3) and w = conj(omega) for
Im lam >= 0, w = omega below,

    t^3 = (lam - c0 + sqrt(lam - alpha) sqrt(lam - beta))/2,   s = a2/t,
    u1 = t + s,   u2 = w t + conj(w) s,   u3 = conj(w) t + w s.

t^3 is the inverse Joukowski map, so |t|^3 >= a^3: t and s never cancel, and
no Newton polish is needed (Kahan, "To Solve a Real Cubic Equation", 1986).
t = cbrt|t^3| exp(i arg(t^3)/3), s = a2/|t| times the conjugate phase (0 at
t = 0).  Near a branch point the roots move like sqrt(lam - alpha), so
lam - alpha and lam - beta take the exact error of lam - c0 and 2 a^3 as a
double word.  The labels are analytic continuation, not a search: the cube
root jumps only on (-inf, beta], and w glues sheets 2|3 across [alpha, inf).
A zero imaginary part of either sign is the upper side: -0.0 becomes +0.0 on
entry, for the square roots, the angle and w alike.  Every step is
elementwise, so no root depends on the batch size.
"""
import math

import numpy as np

BACKEND = "numpy"

OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))


def _two_prod(x, y):
    """(p, e) with x y = p + e exactly, for floats below about 1e300."""
    xh, yh = 134217729.0 * x, 134217729.0 * y
    xh, yh = xh - (xh - x), yh - (yh - y)
    xl, yl = x - xh, y - yh
    return x * y, xh * yh - x * y + xh * yl + xl * yh + xl * yl


def sheet_roots(a2, c0, lam):
    """Sheet-assigned roots, shape (3,) + lam.shape (sheets 1, 2, 3)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.complex128))
    flat = lam.ravel() + 0.0    # -0.0 imaginary parts become +0.0
    a = math.sqrt(a2)
    p, pl = _two_prod(a, a)
    h, l = _two_prod(2.0 * a2, a)     # 2 a^3 = h + l, where l also
    l += a * ((a2 - p) - pl)          # corrects the rounding of a
    with np.errstate(invalid="ignore"):
        q = flat - c0
        z = q.real - flat.real
        qe = (flat.real - (q.real - z)) - (c0 + z)     # (lam - c0) - q exactly
        d = np.sqrt(q - h + (qe - l)) * np.sqrt(q + h + (qe + l))
        t3 = 0.5 * (q + d)
        r = np.cbrt(np.abs(t3))
        e = np.exp(1j * (np.angle(t3) / 3.0))
        s = np.divide(a2, r, out=np.zeros_like(r), where=r > 0.0) * e.conj()
    t = r * e
    w = np.where(flat.imag >= 0.0, OMEGA.conjugate(), OMEGA)
    wc = w.conj()
    out = np.stack([t + s, w * t + wc * s, wc * t + w * s])
    return out.reshape((3,) + lam.shape)
