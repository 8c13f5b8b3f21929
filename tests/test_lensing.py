import math

import numpy as np
import pytest

from tau34.lensing import (_ORIENT, ContourSpec, SignReport,
                           standard_contours, verify_inequalities)
from tau34.param_domain import Params
from tau34.spectral_curve import build_curve, g_of_u, uniformize_all

from oracles import ABCoords, map_abc


def _per_contour_reports(curve, contours):
    """Test-only oracle: g on all three sheets, one contour at a time."""
    reports = []
    for spec in contours:
        (i, j), sign = _ORIENT[spec.kind]
        lam = spec.points()
        g = g_of_u(curve, uniformize_all(curve, lam))
        vals = sign * np.real(g[i - 1] - g[j - 1])
        k = int(np.argmin(vals))
        reports.append(SignReport(contour=spec,
                                  min_signed_value=float(vals[k]),
                                  all_pass=bool(vals[k] > 0.0),
                                  worst_point=complex(lam[k])))
    return reports


class TestInequalities:
    def test_reference_point_all_pass(self):
        cv = build_curve(Params(1.0, 0.0, 0.0))
        reports = verify_inequalities(cv, samples=1000)
        assert len(reports) == 6
        for r in reports:
            assert r.all_pass, (r.contour.kind, r.min_signed_value)
            assert r.min_signed_value > 0.0

    def test_domain_grid(self, d_grid20):
        for p in d_grid20:
            cv = build_curve(p)
            for r in verify_inequalities(cv, samples=400):
                assert r.all_pass, (p, r.contour.kind, r.min_signed_value)

    def test_gamma_plus_boundary(self):
        cv = build_curve(Params(1.0, 0.0, 125.0 / 108.0), sigma=5.0 / 3.0)
        for r in verify_inequalities(cv, samples=1000):
            assert r.all_pass, (r.contour.kind, r.min_signed_value)

    def test_boundary_mu_point(self):
        pms, sigma = map_abc(ABCoords(1.0, 3.0, 1.5))
        cv = build_curve(pms, sigma=sigma)
        for r in verify_inequalities(cv, samples=1000):
            assert r.all_pass, (r.contour.kind, r.min_signed_value)

    def test_contour_geometry_recorded(self):
        cv = build_curve(Params(1.0, 0.0, 0.0))
        specs = standard_contours(cv)
        kinds = {s.kind for s in specs}
        assert kinds == {"rising-alpha", "rising-beta", "lens-upper-alpha",
                         "lens-lower-alpha", "lens-upper-beta",
                         "lens-lower-beta"}
        ra = next(s for s in specs if s.kind == "rising-alpha")
        assert ra.direction == pytest.approx(9.0 * math.pi / 14.0)
        assert ra.anchor == cv.alpha
        rb = next(s for s in specs if s.kind == "rising-beta")
        assert rb.direction == pytest.approx(-5.0 * math.pi / 14.0)


class TestBatchedContours:
    # 3000 samples: the batch passes numpy's 256 KiB temporary-reuse size
    @pytest.mark.parametrize("samples", [1000, 37, 3000])
    def test_equals_per_contour_loop(self, d_grid20, samples):
        for p in d_grid20[::3] + [Params(0.0, 0.75, -1.0)]:
            cv = build_curve(p)
            contours = standard_contours(cv, samples=samples)
            assert verify_inequalities(cv, samples=samples) == \
                _per_contour_reports(cv, contours)

    def test_custom_contours_unequal_samples(self):
        cv = build_curve(Params(1.0, 0.05, 0.3))
        std = standard_contours(cv)
        contours = [
            std[0],
            ContourSpec("lens-upper-beta", cv.beta, 3.0, 2.9, 5, 1e-3, 4.0),
            ContourSpec("rising-beta", cv.beta, -1.0, -0.8, 1, 0.5, 0.5),
            std[3],
            ContourSpec("rising-alpha", cv.alpha, 2.0, 2.5, 250, 1e-5, 30.0),
        ]
        got = verify_inequalities(cv, contours=contours)
        assert got == _per_contour_reports(cv, contours)
        assert [r.contour for r in got] == contours

    def test_empty_contour_list(self):
        cv = build_curve(Params(1.0, 0.0, 0.0))
        assert verify_inequalities(cv, contours=[]) == []

    def test_one_kernel_call(self, monkeypatch):
        import tau34.spectral_curve as sc
        calls = []
        kernel = sc._kernels.sheet_roots

        def counted(a2, c0, lam):
            calls.append(np.size(lam))
            return kernel(a2, c0, lam)

        monkeypatch.setattr(sc._kernels, "sheet_roots", counted)
        verify_inequalities(build_curve(Params(1.0, 0.0, 0.0)), samples=100)
        assert calls == [600]
