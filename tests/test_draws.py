"""How many uniforms each sampler draws per call.

A sampler draws exactly the numbers its result reads, so the table below
is also the length of each sampler's random stream.  Every draw in the
package is a call of rng.random or rng.normal, which the last test checks
over the source, so a new draw method fails a named test instead of
slipping past the table.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import trm
from trm import CellularDensity, DoublePoint, Epsilon, PointBreak, sample_uniform_batch
from trm.cells import pick_cells, sample_in_cells
from trm.gtr import Z_MAX, sample_break_point, sample_outcomes_1d
from conftest import ServedUniforms

pytestmark = pytest.mark.stream

DRAW_METHODS = {"random", "normal"}


# (outcomes, cells, uniforms per point): lam_1 of a slab, plus a normalised
# remainder of n - 1 exponentials from n >= 4 on; two chart coordinates of a
# triangle cell
@pytest.mark.parametrize("n, n_c, per_point", [(2, 4, 1), (3, 9, 2), (4, 8, 4), (5, 6, 5)])
def test_cell_samplers_draw_only_what_their_points_read(n, n_c, per_point):
    m = 96
    idx = np.arange(m) % n_c
    u = np.random.default_rng(n).random(m * per_point + 7)
    served = ServedUniforms(u)
    pts = sample_in_cells(n, n_c, idx, served)
    assert served.at == m * per_point
    # the stand-in serves what the generator draws: same points, same state
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(sample_in_cells(n, n_c, idx, rng), pts)
    ref.random(m * per_point)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_a_two_outcome_slab_point_is_its_remainder_for_any_uniform():
    # the remainder is lam_2 = 1 - lam_1 with no draw; a one-column
    # remainder normalised by its own sum was -0.0 / -0.0 = NaN at U = 0
    u = np.array([0.0, 0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    pts = sample_in_cells(2, 4, np.array([1, 2, 0, 3, 3]), ServedUniforms(u))
    np.testing.assert_array_equal(pts[:2], [[0.25, 0.75], [0.5, 0.5]])
    assert np.isfinite(pts).all()
    assert np.array_equal(pts[:, 1], 1.0 - pts[:, 0])


def test_a_row_of_zero_uniforms_is_drawn_again():
    # n zero uniforms are n exponentials of -0.0, a row with no direction
    # that divided by its sum was NaN; it is redrawn after the batch
    n, fresh = 3, np.array([0.25, 0.5, 0.75])
    first = np.random.default_rng(9).random((2, n))
    served = ServedUniforms(np.concatenate([np.zeros(n), first[1], fresh]))
    pts = sample_uniform_batch(n, 2, served)
    assert served.at == 3 * n
    e = -np.log(1.0 - np.stack([fresh, first[1]]))
    np.testing.assert_array_equal(pts, e / e.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("n, n_c, per_point", [(2, 6, 1), (3, 9, 2), (4, 5, 4)])
def test_a_cellular_break_picks_its_cell_with_one_uniform(n, n_c, per_point):
    # one uniform picks among the breakable cells as pick_cells does, then
    # the point inside the cell draws what sample_in_cells draws
    size, breakable = 64, np.array([2, 3, n_c])
    u = np.random.default_rng(n).random(size * (1 + per_point))
    served = ServedUniforms(u)
    pts = sample_break_point(CellularDensity(n, n_c, frozenset(breakable)), served, size)
    assert served.at == size * (1 + per_point)
    k = np.array([breakable.size])
    idx = pick_cells(breakable - 1, np.zeros(1, np.intp), k, u[None, :size])[0]
    np.testing.assert_array_equal(pts, sample_in_cells(n, n_c, idx, ServedUniforms(u[size:])))


# z_a = cos(theta) Z_MAX: no break ties, some do, every break does
@pytest.mark.parametrize(
    "density, cos_theta",
    [(Epsilon(0.6), -0.2), (DoublePoint(0.3, 0.7), 1.0), (DoublePoint(0.3, 0.7), -1.0),
     (PointBreak(0.0), 0.0)],
)
def test_a_1d_block_draws_one_coin_per_tied_break(density, cos_theta):
    size = 512
    u = np.random.default_rng(8).random(2 * size)
    served = ServedUniforms(u)
    z, plus = sample_outcomes_1d(density, cos_theta, served, size)
    ties = z == cos_theta * Z_MAX
    assert served.at == size + np.count_nonzero(ties)
    # the k-th tied break is settled by the k-th coin after the breaks
    expected = z < cos_theta * Z_MAX
    expected[ties] = u[size : served.at] < 0.5
    np.testing.assert_array_equal(plus, expected)


def test_the_package_draws_only_through_the_tabled_methods():
    found = {}
    for path in sorted(Path(trm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "rng"):
                found.setdefault(node.attr, []).append(f"{path.name}:{node.lineno}")
    assert "random" in found
    assert set(found) <= DRAW_METHODS, {k: v for k, v in found.items() if k not in DRAW_METHODS}
