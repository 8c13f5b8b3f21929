"""Numerical certification of the steepest-descent sign conditions.

Four contour families are certified for each curve:

    rising-alpha   Re(g3 - g2) > 0 on the contour from alpha toward 9 pi/14
    rising-beta    Re(g2 - g1) > 0 on the contour from beta toward -5 pi/14
    lens-alpha     Re(g3 - g2) < 0 on the lens boundaries around [alpha, inf)
    lens-beta      Re(g2 - g1) < 0 on the lens boundaries around (-inf, beta]

Contours bend smoothly from a departure angle inside the local sector at
the anchor to their asymptotic direction over the first unit of arclength;
the geometry is recorded on the spec so failures are attributable.

The curve has real coefficients, so g_j(conj lam) = conj g_j(lam) off the
real axis (Schwarz reflection), which the root kernel and `g_of_u` keep bit
for bit up to the sign of a zero part.  A lower lens boundary, the mirror
image of the upper one, thus has the upper one's signed values at the
conjugate samples, and is not evaluated again.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

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

    def radial(self):
        """(r, blend): the sample radii and how far each has turned."""
        r = np.geomspace(self.r_min, self.r_max, self.samples)
        return r, np.clip(r / self.bend_length, 0.0, 1.0) ** 2

    def points(self, radial=None):
        """The samples; `radial` is `radial()` of a contour with the same
        samples, r_min, r_max and bend_length, computed once for all."""
        r, blend = self.radial() if radial is None else radial
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


def _geometry(spec, flip=1.0):
    """The data that fix a contour's signed values, angles times `flip`."""
    return (_ORIENT[spec.kind], spec.anchor, spec.samples, spec.r_min,
            spec.r_max, spec.bend_length, flip * spec.direction,
            flip * spec.local_angle)


def verify_inequalities(curve, contours=None, samples=1000):
    """Sampled certification of the four sign conditions; returns reports.

    A contour with a real anchor mirrors an earlier evaluated one whose
    `_geometry` is its own with negated angles: it takes that report with
    the worst point conjugated (its samples are the conjugates; a real
    sample is its own, as the kernel reads -0.0 as +0.0).  The samples of
    the other contours go through one `g_sheets_all` call, and each
    contour compares two of its three rows.  Contours with the same
    samples, r_min, r_max and bend_length share one radial grid; a contour
    whose r_min differs (1e-4 at a 5/2 anchor on the critical strata) gets
    its own."""
    if contours is None:
        contours = standard_contours(curve, samples=samples)
    points, mirror = {}, {}     # index -> samples; index -> mirrored index
    radial = {}                 # one radial grid per distinct geometry
    for n, spec in enumerate(contours):
        m = next((m for m in points
                  if _geometry(spec) == _geometry(contours[m], -1.0)), None)
        if m is None or np.imag(spec.anchor) != 0.0:
            key = (spec.samples, spec.r_min, spec.r_max, spec.bend_length)
            if key not in radial:
                radial[key] = spec.radial()
            points[n] = spec.points(radial[key])
        else:
            mirror[n] = m
    if not points:
        return []
    g = g_sheets_all(curve, np.concatenate(list(points.values())))
    reports = [None] * len(contours)
    start = 0
    for n, lam in points.items():
        (i, j), sign = _ORIENT[contours[n].kind]
        stop = start + lam.shape[0]
        vals = sign * np.real(g[i - 1, start:stop] - g[j - 1, start:stop])
        start = stop
        k = int(np.argmin(vals))
        reports[n] = SignReport(contour=contours[n],
                                min_signed_value=float(vals[k]),
                                all_pass=bool(vals[k] > 0.0),
                                worst_point=complex(lam[k]))
    for n, m in mirror.items():
        reports[n] = replace(reports[m], contour=contours[n],
                             worst_point=reports[m].worst_point.conjugate())
    return reports
