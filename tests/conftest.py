import numpy as np
import pytest

from musielak.modular import GridDomain, GridFunction


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def unit_interval():
    return GridDomain.interval(101)


@pytest.fixture
def unit_square():
    return GridDomain.box((33, 33))


def random_field_h3(rng, domain=None, N=None):
    """A random exponent field satisfying the strong hypotheses nodewise."""
    N = int(N or rng.integers(3, 6))
    shape = domain.shape if domain is not None else ()
    size = int(np.prod(shape)) if shape else 1
    p = rng.uniform(1.2, 0.6 * N, size)
    ratio = rng.uniform(1.01, 1.0 + 1.0 / N - 0.01, size)
    q = np.minimum(p * ratio, 0.95 * N)
    q = np.maximum(q, p * 1.001)
    mu = rng.uniform(0.0, 3.0, size)
    mu[rng.random(size) < 0.2] = 0.0
    if shape:
        kw = {"spacing": domain.spacing} if domain is not None else {}
        return __import__("musielak").ExponentField(
            N, p.reshape(shape), q.reshape(shape), mu.reshape(shape), **kw)
    import musielak

    return musielak.ExponentField(N, float(p[0]), float(q[0]), float(mu[0]))


def random_grid_function(rng, domain, scale=1.0, zero_boundary=False):
    vals = rng.normal(0.0, scale, domain.shape)
    if zero_boundary:
        vals[domain.boundary_mask] = 0.0
    return GridFunction(domain, vals)


def grid_json(domain):
    """The JSON object of a lattice, as a payload's ``grid`` gives it."""
    return {"shape": list(domain.shape), "spacing": list(domain.spacing), "origin": list(domain.origin)}


def function_json(u):
    """The JSON object of a grid function with its own lattice."""
    return {"grid": grid_json(u.domain), "values": u.values.tolist()}
