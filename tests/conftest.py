import numpy as np
import pytest

from plurigeo.families import MetricFamily
from plurigeo.grid import MetricField, TorusGrid, perturb_with_potential, sample


@pytest.fixture(scope="session")
def torus_field():
    return sample(MetricFamily("torus_pluriclosed", 0.5), (4, 4, 16, 4))


@pytest.fixture(scope="session")
def kahler_field():
    return sample(MetricFamily("kahler_potential", 0.4), (16, 4, 16, 4))


@pytest.fixture(scope="session")
def flat_field():
    return sample(MetricFamily("flat"), (8, 4, 8, 4))


@pytest.fixture(scope="session")
def generic_fields():
    """All-axis fields at 8^4: a pluriclosed one and a generic one."""
    base = sample(MetricFamily("torus_pluriclosed", 0.5), (8, 8, 8, 8))
    pluriclosed = perturb_with_potential(base, 0.05 * random_trig(base.grid, 7))
    x = base.grid.coords()
    values = pluriclosed.values.copy()
    values[..., 0, 0] += 0.1 * np.cos(x[1]) * np.sin(x[3])
    values[..., 1, 1] += 0.1 * np.sin(x[0] + x[2])
    return pluriclosed, MetricField(base.grid, values)


def random_trig(grid: TorusGrid, seed: int, modes: int = 2, amp: float = 1.0):
    """Seeded real trigonometric polynomial on the grid (all four axes)."""
    rng = np.random.default_rng(seed)
    x = grid.coords()
    out = np.zeros(grid.dims)
    for axis in range(4):
        kmax = min(modes, grid.dims[axis] // 2 - 1)
        for k in range(1, kmax + 1):
            a, b = rng.uniform(-1, 1, 2)
            out += amp * (a * np.cos(k * x[axis]) + b * np.sin(k * x[axis]))
    return out
