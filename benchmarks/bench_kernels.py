"""Warm microbenchmark of the `sheet_roots` kernel at n = 1, 1e3 and 1e5.

    python3 benchmarks/bench_kernels.py

Reports the median time per call (n = 1) and per point, and the computed
bytes moved: 16 B of complex input and 48 B of sheet-resolved output per
point.  The traced benchmark run reports the same figures as per-layer
metrics.
"""
import os
import statistics
import sys
import time

import numpy as np

BYTES_PER_POINT = 16 + 48
SIZES = (1, 1000, 100000)


def measure(sizes=SIZES, budget_s=0.4, min_reps=5):
    """{n: median seconds per call} over warm calls on a fixed curve."""
    from tau34 import _kernels
    from tau34.param_domain import Params
    from tau34.spectral_curve import build_curve

    curve = build_curve(Params(1.0, 0.05, -0.3))
    a2, c0 = curve.a ** 2, curve.c
    rng = np.random.default_rng(0)
    out = {}
    for n in sizes:
        lam = 10.0 ** rng.uniform(-1, 3, n) * np.exp(2j * np.pi * rng.random(n))
        _kernels.sheet_roots(a2, c0, lam)
        times = []
        stop = time.perf_counter() + budget_s
        while len(times) < min_reps or time.perf_counter() < stop:
            t0 = time.perf_counter()
            _kernels.sheet_roots(a2, c0, lam)
            times.append(time.perf_counter() - t0)
        out[n] = statistics.median(times)
    return out


def layer_metrics(per_call):
    """The per-layer metrics the traced run reports for the kernel."""
    return {
        "kernels.sheet_roots.n1_us": per_call[1] * 1e6,
        "kernels.sheet_roots.n1e3_ns_per_pt": per_call[1000] / 1000 * 1e9,
        "kernels.sheet_roots.n1e5_ns_per_pt": per_call[100000] / 100000 * 1e9,
        "kernels.sheet_roots.n1e5_MB_per_s":
            BYTES_PER_POINT * 100000 / per_call[100000] / 1e6,
    }


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    from tau34 import _kernels

    print(f"sheet_roots backend: {_kernels.BACKEND}")
    for n, t in measure().items():
        print(f"n={n:>6}: {t * 1e6:10.1f} us/call  {t / n * 1e9:9.1f} ns/pt  "
              f"{BYTES_PER_POINT * n / t / 1e6:8.1f} MB/s "
              f"({BYTES_PER_POINT * n} B moved per call)")


if __name__ == "__main__":
    main()
