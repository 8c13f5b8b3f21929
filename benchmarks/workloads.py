"""Seeded inputs of the benchmark workloads.

A workload is a list of `Call`s: the argv a user would pass to the `tau34`
CLI (without `--out`), the number of parameter points (or PI solves) the call
completes, and what its output checker needs to know.  Seed 0 gives the
fixed inputs named in BENCHMARK.json; every seed gives the same inputs on
every run.
"""
import itertools
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Call:
    argv: tuple
    points: int
    kind: str           # output checker: certify | sigma | parametrix | pi
    inputs: tuple       # (eta, mu, nu), grid points, or (x_start, x_end)


def d_grid20():
    """The 20-point interior certification grid: nu = frac * nu_critical."""
    from tau34.critical import nu_critical

    pts = [(eta, mu, frac * nu_critical(eta, mu))
           for eta in (0.5, 1.0, 2.0)
           for mu in (0.0, 0.05, -0.05)
           for frac in (0.3, 0.75)]
    return pts + [(1.0, 0.0, -0.5), (2.0, 0.1, 0.2)]


def _point_call(command, kind, pt):
    eta, mu, nu = (float(v) for v in pt)
    return Call((command, f"--eta={eta!r}", f"--mu={mu!r}", f"--nu={nu!r}"),
                1, kind, (eta, mu, nu))


def certify_d20(rng, smoke):
    # Every seed certifies the d_grid20 points and sets only their order:
    # among random interior points some fail the sampled g-asymptotics slope
    # fit (|slope + 1/3| > 0.02 where the lambda^(-1/3) term is small), an
    # open defect of that check that would fail the run on some seeds.
    pts = d_grid20()
    if rng is not None:
        pts = [pts[i] for i in rng.permutation(len(pts))]
    if smoke:
        pts = pts[:2]
    return [_point_call("certify", "certify", p) for p in pts]


SIGMA_AXES = ((-3.0, 3.0, 20), (-1.0, 1.0, 10), (-5.0, 5.0, 10))
SIGMA_SMOKE_COUNTS = (5, 4, 4)


def sigma_sweep(rng, smoke):
    # The 20 x 10 x 10 sweep runs as one call per eta value (100 points
    # each), so a run has enough calls for a tail latency.  Other seeds offset
    # the grid by up to a tenth of a cell per axis: a half-cell offset moved
    # the number of points in D by 90 of 2000, and points outside D cost more
    # (the continuation halves its step until it gives up), so the work per
    # sweep would depend on the seed.
    axes = []
    for k, (lo, hi, count) in enumerate(SIGMA_AXES):
        if smoke:
            count = SIGMA_SMOKE_COUNTS[k]
        if rng is not None:
            shift = 0.1 * rng.uniform(-1, 1) * (hi - lo) / (count - 1)
            lo, hi = lo + shift, hi + shift
        axes.append((lo, hi, count))
    etas, mus, nus = ([float(v) for v in np.linspace(lo, hi, count)]
                      for lo, hi, count in axes)
    rest = ",".join(f"{lo!r}:{hi!r}:{count}" for lo, hi, count in axes[1:])
    calls = []
    for eta in etas:
        points = tuple(itertools.product([eta], mus, nus))
        calls.append(Call(("sigma", f"--grid={eta!r}:{eta!r}:1,{rest}"),
                          len(points), "sigma", points))
    return calls


PARAMETRIX_POINTS = ((1.0, 0.0, 0.0), (1.0, 0.05, -0.3), (0.5, -0.05, -0.1),
                     (2.0, 0.1, 0.2))
PI_RANGES = ((-24.0, -1.0), (-30.0, -1.0), (-40.0, 0.0))


def parametrix_pi(rng, smoke):
    # Other seeds jitter the fixed points (eta and mu by up to 5%, nu by up
    # to 0.05, x_start by up to 0.5) so every seed does the same work: the
    # three mu != 0 points run the residue quadrature twice, the fourth once.
    pts, ranges = PARAMETRIX_POINTS, PI_RANGES
    if rng is not None:
        pts = [(eta * (1 + 0.05 * rng.uniform(-1, 1)),
                mu * (1 + 0.05 * rng.uniform(-1, 1)),
                nu + 0.05 * rng.uniform(-1, 1)) for eta, mu, nu in pts]
        ranges = [(xs + 0.5 * rng.uniform(-1, 1), xe) for xs, xe in ranges]
    if smoke:
        pts, ranges = pts[:1], ranges[:1]
    calls = [_point_call("parametrix", "parametrix", p) for p in pts]
    calls += [Call(("pi", f"--x-start={xs!r}", f"--x-end={xe!r}"), 1, "pi",
                   (xs, xe)) for xs, xe in ranges]
    return calls


WORKLOADS = {
    "certify_d20": certify_d20,
    "sigma_sweep": sigma_sweep,
    "parametrix_pi": parametrix_pi,
}


def build(name, seed, smoke=False):
    """The calls of one pass of workload `name` at `seed`."""
    rng = None if seed == DEFAULT_SEED else np.random.default_rng(seed)
    return WORKLOADS[name](rng, smoke)
