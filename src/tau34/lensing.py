"""Numerical certification of the steepest-descent sign conditions.

Four contour families are certified for each curve:

    rising-alpha   Re(g3 - g2) > 0 on the contour from alpha toward 9 pi/14
    rising-beta    Re(g2 - g1) > 0 on the contour from beta toward -5 pi/14
    lens-alpha     Re(g3 - g2) < 0 on the lens boundaries around [alpha, inf)
    lens-beta      Re(g2 - g1) < 0 on the lens boundaries around (-inf, beta]

plus the u-plane separation of the cut preimages (hyperbola) from the
zero set of Im Y (the sign-change curve of Re g), which is what makes the
sign conditions global.

Contours bend smoothly from a departure angle inside the local sector at
the anchor to their asymptotic direction over the first unit of arclength;
the geometry is recorded on the spec so failures are attributable.
"""
import math
from dataclasses import dataclass

import numpy as np

from .param_domain import viete_roots
from .spectral_curve import g_sheets_all

#: asymptotic directions (bisectors of the decay sectors at infinity)
DIR_RISING_ALPHA = 9.0 * math.pi / 14.0
DIR_RISING_BETA = -5.0 * math.pi / 14.0
#: lens boundary half-opening about the cut
LENS_HALF_ANGLE = math.pi / 12.0
#: samples closer to the anchor than this are excluded (difference vanishes)
ANCHOR_EXCLUSION = 1e-6


@dataclass(frozen=True)
class ContourSpec:
    kind: str                # 'rising-alpha' | 'rising-beta' | 'lens-upper-alpha' | ...
    anchor: float
    direction: float         # asymptotic angle
    local_angle: float       # departure angle at the anchor
    samples: int
    r_min: float
    r_max: float
    bend_length: float = 1.0  # arclength over which the angle rotates

    def points(self):
        r = np.geomspace(self.r_min, self.r_max, self.samples)
        blend = np.clip(r / self.bend_length, 0.0, 1.0) ** 2
        phi = self.local_angle + (self.direction - self.local_angle) * blend
        return self.anchor + r * np.exp(1j * phi)


@dataclass(frozen=True)
class SignReport:
    contour: ContourSpec
    min_signed_value: float
    all_pass: bool
    worst_point: complex


def standard_contours(curve, samples=1000):
    """The four certified families for a curve (six contours in all).

    Departure angles track the local sign sectors, which depend on the
    vanishing order at each branch point: order 3/2 gives the positivity
    sectors (2pi/3, pi) at alpha and (-pi/3, pi/3) at beta; on the critical
    strata the order is 5/2 and the sectors shrink to (2pi/5, 4pi/5) and
    (+-pi/5, +-3pi/5).  On those strata the anchor exclusion is enlarged:
    a 5/2-power difference is below double-precision sign resolution for
    r < ~1e-4.
    """
    from .spectral_curve import branch_coeffs

    case = branch_coeffs(curve).case
    alpha52 = case == "gamma-plus"
    beta52 = case in ("gamma-plus", "boundary-mu")
    extent = 10.0 * (1.0 + abs(curve.alpha - curve.beta))
    # the rotation toward the asymptotic direction happens over a curve-sized
    # arc; a fixed bend length pinches out of the sign region on large curves
    bend = 1.0 + 0.5 * abs(curve.alpha - curve.beta)
    local_ra = 3.0 * math.pi / 5.0 if alpha52 else 5.0 * math.pi / 6.0
    # overlap bisectors of the local sector with (-4pi/7, -pi/7) at infinity
    local_rb = -2.0 * math.pi / 5.0 if beta52 else -5.0 * math.pi / 21.0
    excl_a = 1e-4 if alpha52 else ANCHOR_EXCLUSION
    excl_b = 1e-4 if beta52 else ANCHOR_EXCLUSION
    out = [
        ContourSpec("rising-alpha", curve.alpha, DIR_RISING_ALPHA,
                    local_ra, samples, excl_a, extent, bend),
        ContourSpec("rising-beta", curve.beta, DIR_RISING_BETA,
                    local_rb, samples, excl_b, extent, bend),
        ContourSpec("lens-upper-alpha", curve.alpha, LENS_HALF_ANGLE,
                    LENS_HALF_ANGLE, samples, excl_a, extent, bend),
        ContourSpec("lens-lower-alpha", curve.alpha, -LENS_HALF_ANGLE,
                    -LENS_HALF_ANGLE, samples, excl_a, extent, bend),
        ContourSpec("lens-upper-beta", curve.beta, math.pi - LENS_HALF_ANGLE,
                    math.pi - LENS_HALF_ANGLE, samples, excl_b, extent, bend),
        ContourSpec("lens-lower-beta", curve.beta, -math.pi + LENS_HALF_ANGLE,
                    -math.pi + LENS_HALF_ANGLE, samples, excl_b, extent,
                    bend),
    ]
    return out


_ORIENT = {
    # (sheet pair, sign): signed value = sign * Re(g_i - g_j) must be > 0
    "rising-alpha": ((3, 2), +1.0),
    "rising-beta": ((2, 1), +1.0),
    "lens-upper-alpha": ((3, 2), -1.0),
    "lens-lower-alpha": ((3, 2), -1.0),
    "lens-upper-beta": ((2, 1), -1.0),
    "lens-lower-beta": ((2, 1), -1.0),
}


def verify_inequalities(curve, contours=None, samples=1000):
    """Sampled certification of the four sign conditions; returns reports.

    The samples of all contours go through one `g_sheets_all` call."""
    if contours is None:
        contours = standard_contours(curve, samples=samples)
    points = [spec.points() for spec in contours]
    if not points:
        return []
    g = g_sheets_all(curve, np.concatenate(points))
    reports = []
    start = 0
    for spec, lam in zip(contours, points):
        (i, j), sign = _ORIENT[spec.kind]
        stop = start + lam.shape[0]
        vals = sign * np.real(g[i - 1, start:stop] - g[j - 1, start:stop])
        start = stop
        k = int(np.argmin(vals))
        reports.append(SignReport(contour=spec,
                                  min_signed_value=float(vals[k]),
                                  all_pass=bool(vals[k] > 0.0),
                                  worst_point=complex(lam[k])))
    return reports


def gamma_C_separation(q, n_samples=2000, margin=1e-6):
    """Minimum distance between the cut preimages and the Im Y = 0 curve.

    The cut preimage in the u-plane is the hyperbola y^2 = 3x^2 - 3a^2; the
    sign-change curve is y^2 = (6x^3 - 3bx + 2c)/(6x) on the intervals where
    the right side is positive.  Both are sampled (upper half plane plus the
    real-axis vertex points; the mirror images add nothing by symmetry) and
    the minimum pairwise distance is returned.
    """
    a, b, c = q.a, q.b, q.c
    aa = abs(a)
    roots = viete_roots(b, c)
    x_max = 3.0 * max(abs(roots.z_minus), abs(roots.z_plus), aa, 1.0)

    def hyperbola():
        # geometric spacing off the vertices resolves the near-tangency limit
        t = np.geomspace(1e-9, x_max - aa if x_max > aa else 1.0,
                         n_samples // 2)
        xs = np.concatenate([[aa], aa + t, [-aa], -aa - t])
        ys = np.sqrt(np.maximum(3.0 * xs**2 - 3.0 * a * a, 0.0))
        return xs, ys

    def sign_curve():
        segs = []
        eps = 1e-12
        if c > 0:
            # branches on (-inf, z-), (0, z0), (z+, inf)
            segs = [(-x_max, roots.z_minus - eps), (eps, roots.z_zero - eps),
                    (roots.z_plus + eps, x_max)]
        elif c < 0:
            # mirror (z- < z0 < 0 < z+): (-inf, z-), (z0, 0), (z+, inf)
            segs = [(-x_max, roots.z_minus - eps), (roots.z_zero + eps, -eps),
                    (roots.z_plus + eps, x_max)]
        else:
            segs = [(-x_max, roots.z_minus), (roots.z_plus, x_max)]
        xs_all = [np.array([roots.z_minus, roots.z_zero, roots.z_plus])]
        ys_all = [np.zeros(3)]      # closure endpoints on the real axis
        for lo, hi in segs:
            if hi <= lo:
                continue
            xs = np.linspace(lo, hi, max(n_samples // 3, 64))
            num = 6.0 * xs**3 - 3.0 * b * xs + 2.0 * c
            with np.errstate(divide="ignore", invalid="ignore"):
                y2 = num / (6.0 * xs)
            good = np.isfinite(y2) & (y2 >= 0.0)
            xs_all.append(xs[good])
            ys_all.append(np.sqrt(y2[good]))
        return np.concatenate(xs_all), np.concatenate(ys_all)

    from scipy.spatial import cKDTree

    hx, hy = hyperbola()
    cx, cy = sign_curve()
    tree = cKDTree(np.column_stack([cx, cy]))
    dmin, _ = tree.query(np.column_stack([hx, hy]))
    min_distance = float(np.min(dmin))
    return min_distance > margin, min_distance
