import numpy as np
import pytest

from tau34.critical import nu_critical
from tau34.param_domain import Params


def domain_grid(etas=(0.5, 1.0, 2.0), mus=(0.0, 0.05, -0.05),
                fracs=(0.3, 0.75)):
    """Points strictly inside the domain: nu = frac * nu_critical."""
    pts = []
    for eta in etas:
        for mu in mus:
            for frac in fracs:
                pts.append(Params(eta, mu, frac * nu_critical(eta, mu)))
    return pts


@pytest.fixture(scope="session")
def d_grid20():
    """The 20-point interior grid used by the certification criteria."""
    pts = domain_grid()
    pts.append(Params(1.0, 0.0, -0.5))
    pts.append(Params(2.0, 0.1, 0.2))
    assert len(pts) == 20
    return pts


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


def random_domain_points(rng, n, eta_range=(0.4, 2.2), mu_max=0.12):
    """Deterministic sample of interior points: nu drawn below the
    critical surface by at least 0.15 |nu_critical|, on either sign of it."""
    pts = []
    while len(pts) < n:
        eta = rng.uniform(*eta_range)
        mu = rng.uniform(-mu_max, mu_max)
        nc = nu_critical(eta, mu)
        nu = rng.uniform(-0.7 * abs(nc) - 0.3, nc - 0.15 * abs(nc))
        pts.append(Params(eta, mu, nu))
    return pts
