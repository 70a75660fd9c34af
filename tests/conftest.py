import numpy as np
import pytest

from trm import CellularDensity


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_interior_state(rng, n):
    """Strictly interior barycentric vector, bounded away from the faces."""
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


def enumerate_cellular(n_outcomes, n_cells):
    """Enumeration oracle: every cellular density on a subdivision, one per
    nonempty subset of its cells, in bitmask order (cell 1 is the lowest
    bit)."""
    for mask in range(1, 1 << n_cells):
        cells = frozenset(c + 1 for c in range(n_cells) if mask >> c & 1)
        yield CellularDensity(n_outcomes, n_cells, cells)
