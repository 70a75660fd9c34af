from typing import Iterator

import numpy as np
import pytest

from trm import CellularDensity
from trm.utr import _regions_at_break_point


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def eager_exponentials(rng, shape):
    """The standard exponentials the package draws, written out eagerly:
    -log(1 - U) of one rng.random(shape) draw."""
    return -np.log(1.0 - rng.random(shape))


class ServedUniforms:
    """A generator stand-in whose random() serves preset uniforms in order,
    for an int or tuple size or an out array, as Generator.random does; `at`
    counts the uniforms served so far."""

    def __init__(self, u):
        self.flat, self.at = np.ravel(u), 0

    def random(self, size=None, out=None):
        shape = out.shape if out is not None else size
        k = int(np.prod(shape))
        vals = self.flat[self.at : self.at + k]
        assert vals.size == k, f"asked for {k} uniforms, {vals.size} left to serve"
        self.at += k
        if out is None:
            return vals.reshape(shape).copy()
        out[...] = vals.reshape(out.shape)
        return out


def support_exponentials(rng, x, size):
    """The (size, n) break points the utr trials draw for a state x,
    written out eagerly: eager_exponentials of shape (support, size),
    transposed into the columns of the positive x_j, zeros in the others."""
    x = np.asarray(x)
    support = np.flatnonzero(x > 0.0)
    e = np.zeros((size, x.size))
    e[:, support] = eager_exponentials(rng, (support.size, size)).T
    return e


def random_interior_state(rng, n):
    """Strictly interior barycentric vector, bounded away from the faces."""
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


def regions_at_break_point(lam, states):
    """utr._regions_at_break_point on the rows of an (m, n) state array,
    whose columns it copies, so the kernel leaves the array as it was."""
    return _regions_at_break_point(
        lam, states.shape[0], lambda j, out: np.copyto(out, states[:, j])
    )


def enumerate_cellular(n_outcomes, n_cells):
    """Enumeration oracle: every cellular density on a subdivision, one per
    nonempty subset of its cells, in bitmask order (cell 1 is the lowest
    bit)."""
    for mask in range(1, 1 << n_cells):
        cells = frozenset(c + 1 for c in range(n_cells) if mask >> c & 1)
        yield CellularDensity(n_outcomes, n_cells, cells)


def iter_partitions(n: int) -> Iterator[tuple[frozenset[int], ...]]:
    """Reference enumerator: all set partitions of {1..n}, each as a tuple
    of frozensets.

    Generated in restricted-growth order: element i either joins an existing
    block or opens a new one.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    def rec(i: int, blocks: list[list[int]]) -> Iterator[tuple[frozenset[int], ...]]:
        if i > n:
            yield tuple(frozenset(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    return rec(1, [])
