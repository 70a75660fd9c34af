"""Break densities: CDFs, atoms, transition laws, sampling, JSON forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trm import (
    BarycentricVector,
    CellularDensity,
    DoublePoint,
    Epsilon,
    OutcomePartition,
    PiecewiseConstant1D,
    PointBreak,
    SchemaError,
    Uniform,
    density_from_json,
    density_to_json,
    epsilon_probability,
    regions_of_batch,
    sample_break_point,
    transition_probabilities_1d,
    transition_probabilities_nd,
)
from trm.cells import slab_bounds, triangle_vertices
from trm.gtr import Z_MAX, atom, cdf, frequency_plus_1d, sample_outcomes_1d
from conftest import random_interior_state


def test_z_max_is_half_diagonal():
    assert abs(Z_MAX - math.sqrt(2) / 2) < 1e-15


def test_uniform_law_is_linear_in_cos_theta():
    for c in np.linspace(-1, 1, 11):
        p_plus, p_minus = transition_probabilities_1d(c, Uniform())
        assert abs(p_plus - (1 + c) / 2) < 1e-12
        assert abs(p_plus + p_minus - 1.0) < 1e-15


def test_epsilon_law_branches():
    # saturates outside the breakable segment, linear inside
    assert epsilon_probability(0.9, 0.5) == (1.0, 0.0)
    assert epsilon_probability(-0.9, 0.5) == (0.0, 1.0)
    p, q = epsilon_probability(0.25, 0.5)
    assert abs(p - 0.75) < 1e-12 and abs(q - 0.25) < 1e-12


def test_epsilon_law_equals_cdf_route():
    for eps in np.linspace(0.05, 1.0, 12):
        d = Epsilon(eps)
        for c in np.linspace(-1, 1, 41):
            closed = epsilon_probability(c, eps)[0]
            integrated = transition_probabilities_1d(c, d)[0]
            assert abs(closed - integrated) < 1e-12, (c, eps)


def test_epsilon_one_is_squared_half_angle():
    for theta in np.linspace(0, math.pi, 25):
        p = epsilon_probability(math.cos(theta), 1.0)[0]
        assert abs(p - math.cos(theta / 2) ** 2) < 1e-12


def test_epsilon_domain():
    with pytest.raises(ValueError):
        Epsilon(0.0)
    with pytest.raises(ValueError):
        Epsilon(1.5)
    with pytest.raises(ValueError):
        epsilon_probability(2.0, 0.5)
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            epsilon_probability(0.3, bad)


def test_point_break_is_deterministic_with_split_atom():
    d = PointBreak(0.2)
    z_hit = 0.2 / Z_MAX  # cos(theta) whose z_a equals the atom
    assert transition_probabilities_1d(0.9, d) == (1.0, 0.0)
    assert transition_probabilities_1d(-0.9, d) == (0.0, 1.0)
    assert transition_probabilities_1d(z_hit, d) == (0.5, 0.5)


def test_double_point_is_state_independent():
    d = DoublePoint(0.3, 0.7)
    for c in np.linspace(-0.99, 0.99, 7):
        p_plus, p_minus = transition_probabilities_1d(c, d)
        # all mass at the far endpoints: the atom b at -z_max always falls
        # below the particle, a at +z_max above it
        assert abs(p_plus - 0.7) < 1e-12
        assert abs(p_minus - 0.3) < 1e-12
    # at cos(theta) = 1 the top atom sits exactly at the particle and splits
    p_plus, _ = transition_probabilities_1d(1.0, d)
    assert abs(p_plus - (0.7 + 0.15)) < 1e-12


def test_piecewise_constant_cdf_and_law():
    d = PiecewiseConstant1D((-Z_MAX, 0.0, Z_MAX), (0.25, 0.75))
    assert abs(cdf(d, 0.0) - 0.25) < 1e-12
    assert abs(cdf(d, Z_MAX / 2) - 0.25 - 0.375) < 1e-12
    assert atom(d, 0.0) == 0.0
    p_plus, _ = transition_probabilities_1d(0.5, d)
    assert abs(p_plus - 0.625) < 1e-12


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant1D((0.0, -0.1), (1.0,))  # not increasing
    with pytest.raises(ValueError):
        PiecewiseConstant1D((-Z_MAX, Z_MAX), (0.4,))  # mass 0.4 != 1
    with pytest.raises(ValueError):
        PiecewiseConstant1D((-1.0, 1.0), (1.0,))  # outside the interval
    with pytest.raises(ValueError):
        PiecewiseConstant1D((-Z_MAX, Z_MAX, Z_MAX + 5e-13), (0.5, 0.5))  # clamped to nothing


def test_piecewise_breakpoints_are_clamped_onto_the_interval():
    # sqrt(0.5) is one ulp above Z_MAX: accepted, and clamped so that the
    # density reaches exactly the interval's ends
    d = PiecewiseConstant1D((-math.sqrt(0.5), math.sqrt(0.5)), (1.0,))
    assert d.breakpoints == (-Z_MAX, Z_MAX)
    assert transition_probabilities_1d(1.0, d) == (1.0, 0.0)
    assert transition_probabilities_1d(-1.0, d) == (0.0, 1.0)


NAN = float("nan")


def test_point_break_clamps_the_pole_like_piecewise():
    # both variants that take a position clamp sqrt(0.5), one ulp above
    # Z_MAX, onto the interval's end, and both refuse anything farther out
    assert PointBreak(math.sqrt(0.5)).z0 == Z_MAX
    assert PointBreak(-math.sqrt(0.5)).z0 == -Z_MAX
    assert transition_probabilities_1d(1.0, PointBreak(math.sqrt(0.5))) == (0.5, 0.5)
    for z in (Z_MAX + 2e-12, -Z_MAX - 2e-12, NAN):
        with pytest.raises(ValueError):
            PointBreak(z)
        with pytest.raises(ValueError):
            PiecewiseConstant1D((-Z_MAX, z) if z > 0 else (z, Z_MAX), (1.0,))


@pytest.mark.parametrize(
    "make",
    [
        lambda: DoublePoint(NAN, 0.5),
        lambda: DoublePoint(0.5, NAN),
        lambda: PiecewiseConstant1D((NAN, Z_MAX), (1.0,)),
        lambda: PiecewiseConstant1D((-Z_MAX, NAN), (1.0,)),
        lambda: PiecewiseConstant1D((-Z_MAX, NAN, Z_MAX), (0.5, 0.5)),
        lambda: PiecewiseConstant1D((-Z_MAX, 0.0, Z_MAX), (NAN, 1.0)),
        lambda: PiecewiseConstant1D((-Z_MAX, Z_MAX), (NAN,)),
    ],
    ids=["double-a", "double-b", "bp-low", "bp-high", "bp-inner", "mass", "only-mass"],
)
def test_one_dimensional_densities_refuse_nan(make):
    with pytest.raises(ValueError):
        make()


def test_cdf_is_monotone_and_normalized():
    densities = [
        Uniform(),
        Epsilon(0.4),
        PiecewiseConstant1D((-Z_MAX, -0.1, 0.3, Z_MAX), (0.2, 0.5, 0.3)),
        DoublePoint(0.5, 0.5),
        PointBreak(-0.3),
    ]
    zs = np.linspace(-Z_MAX, Z_MAX, 101)
    for d in densities:
        vals = [cdf(d, z) for z in zs]
        assert vals[-1] == 1.0
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:])), d


def test_sampler_matches_cdf(rng):
    # Kolmogorov-Smirnov style bound: empirical CDF near analytic CDF on a
    # grid that holds both ends of the interval, and the empirical point
    # mass at every atom near the analytic one
    cases = [
        (Uniform(), []),
        (Epsilon(0.6), []),
        (PiecewiseConstant1D((-Z_MAX, 0.0, Z_MAX), (0.7, 0.3)), []),
        (PiecewiseConstant1D((-Z_MAX, -0.2, 0.1, Z_MAX), (0.4, 0.0, 0.6)), []),
        (PointBreak(0.1), [0.1]),
        (DoublePoint(0.25, 0.75), [Z_MAX, -Z_MAX]),
    ]
    for d, atoms in cases:
        z = sample_break_point(d, rng, size=20_000)
        for q in np.linspace(-Z_MAX, Z_MAX, 9):
            emp = (z <= q).mean()
            assert abs(emp - cdf(d, q)) < 0.02, (d, q)
        for q in atoms:
            assert atom(d, q) > 0.0
            assert abs((z == q).mean() - atom(d, q)) < 0.02, (d, q)


def test_sampler_point_masses(rng):
    z = sample_break_point(PointBreak(0.1), rng, size=100)
    assert (z == 0.1).all()
    z = sample_break_point(DoublePoint(0.25, 0.75), rng, size=50_000)
    assert set(np.unique(z)) == {-Z_MAX, Z_MAX}
    assert abs((z == Z_MAX).mean() - 0.25) < 0.02


def test_outcomes_1d_follow_the_break_rule(rng):
    z, plus = sample_outcomes_1d(Uniform(), 0.2, rng, 1000)
    assert z.shape == plus.shape == (1000,)
    assert (plus == (z < 0.2 * Z_MAX)).all()
    # every break ties at the particle: a fair coin per break
    z, plus = sample_outcomes_1d(PointBreak(0.0), 0.0, rng, 20_000)
    assert (z == 0.0).all()
    assert abs(plus.mean() - 0.5) < 4 * 0.5 / math.sqrt(20_000)


def test_outcomes_1d_refuse_a_cellular_density_before_drawing():
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        sample_outcomes_1d(CellularDensity(3, 4, frozenset({1})), 0.0, rng, 5)
    with pytest.raises(ValueError):
        sample_outcomes_1d(Uniform(), 1.5, rng, 5)
    assert rng.bit_generator.state == before


def test_frequency_plus_1d_is_worker_invariant():
    d = Epsilon(0.5)
    one = frequency_plus_1d(0.2, d, 150_000, seed=9, workers=1)
    assert frequency_plus_1d(0.2, d, 150_000, seed=9, workers=2) == one
    p_plus = transition_probabilities_1d(0.2, d)[0]
    assert abs(one - p_plus) < 4 * math.sqrt(p_plus * (1 - p_plus) / 150_000)
    with pytest.raises(ValueError):
        frequency_plus_1d(1.5, d, 10, seed=9)


def test_nd_uniform_is_exact_block_sums(rng):
    x = BarycentricVector((0.1, 0.2, 0.3, 0.4))
    part = OutcomePartition.of([[1, 2], [3, 4]])
    probs = transition_probabilities_nd(x, part, Uniform())
    np.testing.assert_allclose(probs, [0.3, 0.7], atol=1e-15)


def test_nd_cellular_two_outcomes_exact():
    x = BarycentricVector((0.3, 0.7))
    full = CellularDensity(2, 5, frozenset(range(1, 6)))
    probs = transition_probabilities_nd(x, OutcomePartition.singletons(2), full)
    np.testing.assert_allclose(probs, [0.3, 0.7], atol=1e-12)
    # only the top cell breakable: the break always lands above x1 = 0.3,
    # inside region 2's half... region 1 is lam_1 < x_1
    top = CellularDensity(2, 5, frozenset({5}))
    probs = transition_probabilities_nd(x, OutcomePartition.singletons(2), top)
    np.testing.assert_allclose(probs, [0.0, 1.0], atol=1e-12)


def _exact_law_matches_draws(rng, n, n_cells, breakable, blocks):
    """The exact nd law of a cellular density against 2e5 break points drawn
    from it with sample_break_point, within 4 sigma per block."""
    x = BarycentricVector(tuple(random_interior_state(rng, n)))
    d = CellularDensity(n, n_cells, frozenset(breakable))
    part = OutcomePartition.of(blocks)
    probs = transition_probabilities_nd(x, part, d)
    assert abs(probs.sum() - 1.0) < 1e-12
    m = 200_000
    hits, ties = regions_of_batch(x, sample_break_point(d, rng, size=m))
    assert not ties.any()
    freqs = part.count(hits)[0] / m
    sigma = np.sqrt(probs * (1.0 - probs) / m)
    assert (np.abs(freqs - probs) <= 4 * sigma).all(), (freqs, probs)


def test_nd_cellular_three_outcomes_mc(rng):
    _exact_law_matches_draws(rng, 3, 9, {1, 3, 4, 8}, [[1, 3], [2]])


def test_nd_cellular_four_outcomes_mc(rng):
    _exact_law_matches_draws(rng, 4, 8, {1, 2, 5, 8}, [[1, 4], [2], [3]])


def _cells_of(points, n, n_cells):
    """(m, n_cells) membership of barycentric points in the cells of the
    subdivision: lam_1 within a slab's bounds, or (lam_2, lam_3) within a
    triangle's chart corners, each up to 1e-12."""
    if n != 3:
        lo, hi = slab_bounds(n, n_cells).T
        lam1 = points[:, :1]
        return (lam1 >= lo - 1e-12) & (lam1 <= hi + 1e-12)
    tri = triangle_vertices(math.isqrt(n_cells))  # (n_cells, 3, 2)
    a = tri[:, 0]
    edges = np.stack([tri[:, 1] - a, tri[:, 2] - a], axis=-1)  # (n_cells, 2, 2)
    offset = points[:, None, 1:] - a  # (m, n_cells, 2)
    s, t = np.moveaxis(np.linalg.solve(edges, offset[..., None])[..., 0], -1, 0)
    return (s >= -1e-12) & (t >= -1e-12) & (s + t <= 1.0 + 1e-12)


@pytest.mark.parametrize(
    "n, n_cells, breakable",
    [(3, 9, {1, 3, 4, 8}), (4, 8, {1, 2, 5, 8}), (4, 32, set(range(3, 33, 4)))],
    ids=["triangles", "slabs", "many-slabs"],
)
def test_sample_break_point_in_a_cellular_density(rng, n, n_cells, breakable):
    density = CellularDensity(n, n_cells, frozenset(breakable))
    one = sample_break_point(density, rng)
    assert one.shape == (n,)
    m = 20000
    pts = sample_break_point(density, rng, size=m)
    assert pts.shape == (m, n)
    np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
    inside = _cells_of(np.vstack([one, pts]), n, n_cells)
    cells = np.array(sorted(breakable)) - 1
    # every point lies in a breakable cell
    assert inside[:, cells].any(axis=1).all()
    # and the breakable cells are picked uniformly: the first cell holding
    # a point (points on shared edges have measure zero) is Bin(m, 1/C)
    first = inside[1:, cells].argmax(axis=1)
    counts = np.bincount(first, minlength=cells.size)
    p = 1.0 / cells.size
    assert (np.abs(counts - m * p) <= 4 * math.sqrt(m * p * (1 - p))).all(), counts


def test_json_roundtrip_all_families():
    densities = [
        Uniform(),
        Epsilon(0.35),
        PointBreak(-0.2),
        DoublePoint(0.6, 0.4),
        PiecewiseConstant1D((-Z_MAX, 0.1, Z_MAX), (0.8, 0.2)),
        CellularDensity(3, 9, frozenset({2, 5, 9})),
    ]
    for d in densities:
        doc = density_to_json(d)
        assert isinstance(doc["type"], str)
        back = density_from_json(doc)
        assert back == d, (d, doc, back)


def test_json_structural_errors():
    with pytest.raises(SchemaError):
        density_from_json({"epsilon": 0.5})  # no type tag
    with pytest.raises(SchemaError):
        density_from_json({"type": "no_such_density"})
    with pytest.raises(SchemaError):
        density_from_json({"type": "epsilon"})  # missing parameter
    with pytest.raises(SchemaError):
        density_from_json({"type": "uniform", "epsilon": 0.3})  # unknown field
    with pytest.raises(SchemaError):
        density_from_json({"type": "epsilon", "epsilon": 0.5, "width": 1.0})
    with pytest.raises(SchemaError):
        density_from_json({"type": ["epsilon"], "epsilon": 0.5})
    # well-formed structure, out-of-range value: domain error, not schema
    with pytest.raises(ValueError) as exc_info:
        density_from_json({"type": "epsilon", "epsilon": 7.0})
    assert not isinstance(exc_info.value, SchemaError)


@given(st.floats(-1.0, 1.0), st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_epsilon_law_properties(c, e):
    p_plus, p_minus = epsilon_probability(c, e)
    assert 0.0 <= p_plus <= 1.0
    assert abs(p_plus + p_minus - 1.0) < 1e-12
    # antisymmetry of the law around theta = pi/2
    q_plus, _ = epsilon_probability(-c, e)
    assert abs(p_plus - (1.0 - q_plus)) < 1e-12
