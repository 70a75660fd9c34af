"""Acceptance gate: one test per shipped guarantee.

Each test pins one external contract of the package, at its stated
tolerance and (where one applies) its runtime budget, with frozen seeds.
Run with -v to get one pass/fail line per criterion.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from trm import (
    BarycentricVector,
    OutcomePartition,
    classify,
    collapse,
    complementary_mc,
    complementary_probabilities,
    convergence_scan,
    counterexample_bundle,
    epsilon_probability,
    height,
    is_product_state,
    kolmogorov_check,
    outcome_probabilities,
    qubit_embeddable,
    region_measure,
    run_batch,
    sequential_probability,
    simplex_measure,
    transition_probabilities_1d,
    transition_probabilities_nd,
    universal_probability_exact,
)
from trm.gtr import Z_MAX, Epsilon
from trm.hilbert import HilbertState, correspondence_batch
from trm.simplex import facet_measure

from conftest import enumerate_cellular

SEED = 20260815


def interior(gen, n):
    w = gen.uniform(0.05, 1.0, size=n)
    return w / w.sum()


def test_c01_simplex_closed_forms_and_identities():
    """measures sqrt(2), sqrt(3)/2, 1/3 at 1e-12; region/height identities
    on a 50-point random grid for up to six outcomes; under one second."""
    t0 = time.perf_counter()
    assert abs(simplex_measure(2) - math.sqrt(2)) < 1e-12
    assert abs(simplex_measure(3) - math.sqrt(3) / 2) < 1e-12
    assert abs(simplex_measure(4) - 1 / 3) < 1e-12
    gen = np.random.default_rng(SEED + 1)
    for _ in range(50):
        n = int(gen.integers(2, 7))
        x = BarycentricVector(tuple(interior(gen, n)))
        total = 0.0
        for i in range(1, n + 1):
            mu = region_measure(x, i)
            xi = x.components[i - 1]
            assert abs(mu - simplex_measure(n) * xi) < 1e-12
            assert abs(height(x, i) - math.sqrt(n / (n - 1)) * xi) < 1e-12
            assert abs(mu - facet_measure(n) * height(x, i) / (n - 1)) < 1e-12
            total += mu
        assert abs(total - simplex_measure(n)) < 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_c02_measurement_law_millions_of_trials():
    """10^6 seeded trials on four outcomes: every frequency within the 4-sigma
    binomial band of the state, for singleton and fused outcomes; under 10 s."""
    t0 = time.perf_counter()
    x = BarycentricVector((0.1, 0.2, 0.3, 0.4))
    trials = 10**6
    for partition, expected in [
        (OutcomePartition.singletons(4), np.array([0.1, 0.2, 0.3, 0.4])),
        (OutcomePartition.of([[1, 2], [3, 4]]), np.array([0.3, 0.7])),
    ]:
        counts = run_batch(x, partition, trials, np.random.default_rng(SEED + 2))
        assert counts.sum() == trials
        freqs = counts / trials
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert (np.abs(freqs - expected) <= 4 * sigma).all(), (partition, freqs)
    assert time.perf_counter() - t0 < 10.0


def test_c03_sequential_composition_identity():
    """Chaining the two interleaved pairings leaves exactly one component:
    probability x_i to 1e-12, in both orders, for 100 random states."""
    a = OutcomePartition.of([[1, 3], [2, 4]])
    b = OutcomePartition.of([[1, 2], [3, 4]])
    gen = np.random.default_rng(SEED + 3)
    for _ in range(100):
        x = BarycentricVector(tuple(interior(gen, 4)))
        for i in range(1, 5):
            target = x.components[i - 1]
            steps_ab = [(a, a.block_of(i)), (b, b.block_of(i))]
            steps_ba = [(b, b.block_of(i)), (a, a.block_of(i))]
            assert abs(sequential_probability(x, steps_ab) - target) < 1e-12
            assert abs(sequential_probability(x, steps_ba) - target) < 1e-12


def test_c04_epsilon_law_three_routes_agree():
    """Closed form == CDF integration (1e-12) and == 10^5-trial Monte Carlo
    (4 sigma) on a 101 x 20 grid; at full breakability the law is the
    squared-half-angle pair (1e-12); under 60 s."""
    t0 = time.perf_counter()
    cos_grid = np.linspace(-1.0, 1.0, 101)
    eps_grid = np.linspace(0.05, 1.0, 20)
    trials = 10**5
    gen = np.random.default_rng(SEED + 4)
    for eps in eps_grid:
        density = Epsilon(float(eps))
        a = eps * Z_MAX
        draws = np.sort(gen.uniform(-a, a, size=trials))
        for c in cos_grid:
            closed = epsilon_probability(float(c), float(eps))[0]
            integrated = transition_probabilities_1d(float(c), density)[0]
            assert abs(closed - integrated) < 1e-12, (c, eps)
            z_a = float(c) * Z_MAX
            freq = np.searchsorted(draws, z_a) / trials
            sigma = math.sqrt(closed * (1 - closed) / trials)
            assert abs(freq - closed) <= 4 * sigma, (c, eps, freq, closed)
    for c in cos_grid:
        p_plus, p_minus = epsilon_probability(float(c), 1.0)
        theta = math.acos(float(c))
        assert abs(p_plus - math.cos(theta / 2) ** 2) < 1e-12
        assert abs(p_minus - math.sin(theta / 2) ** 2) < 1e-12
    assert time.perf_counter() - t0 < 60.0


def test_c05_joint_probabilities_escape_classical_models():
    """The three-direction experiment yields joints (1, 0, 1/2) across the
    deterministic regime and always breaks the set inequality; the margin at
    the regime edge is exactly one half."""
    for eps in np.linspace(1e-9, math.sqrt(2) / 2, 20):
        (joint,) = classify(counterexample_bundle(float(eps)))["joints"]
        assert abs(joint["p_vw"] - 1.0) < 1e-12
        assert abs(joint["p_uw"] - 0.0) < 1e-12
        assert abs(joint["p_ucv"] - 0.5) < 1e-12
        assert not joint["satisfied"]
    (edge,) = classify(counterexample_bundle(math.sqrt(2) / 2))["joints"]
    satisfied, margin = kolmogorov_check(edge["p_vw"], edge["p_uw"], edge["p_ucv"])
    assert not satisfied
    assert abs(margin - 0.5) < 1e-12


def test_c06_transition_probabilities_escape_qubit_models():
    """(1, 1/2, 0) admits no three pure qubit states (angle deficit pi/2);
    the squared-half-angle triple sits exactly on the boundary and embeds."""
    embeddable, deficit, _ = qubit_embeddable(1.0, 0.5, 0.0)
    assert not embeddable
    assert abs(deficit - math.pi / 2) < 1e-9
    embeddable, deficit, _ = qubit_embeddable(
        math.cos(math.pi / 8) ** 2, 0.5, math.cos(3 * math.pi / 8) ** 2
    )
    assert embeddable
    assert deficit < 1e-9


def test_c07_universal_average_collapses_to_uniform_law():
    """Hand-enumerated subset laws first; then exact enumeration (two
    outcomes, 1..12 cells, 10-state grid) within 1e-12; then the sampled
    average on three outcomes with 25 cells, 10^4 densities x 10^3 points,
    within 4x its reported standard error; under 5 min."""
    t0 = time.perf_counter()
    part = OutcomePartition.singletons(2)
    by_cells = {}
    for density in enumerate_cellular(2, 2):
        p = transition_probabilities_nd(BarycentricVector((0.5, 0.5)), part, density)
        by_cells[density.breakable] = p[0]
    assert abs(by_cells[frozenset({1})] - 1.0) < 1e-12
    assert abs(by_cells[frozenset({2})] - 0.0) < 1e-12
    assert abs(by_cells[frozenset({1, 2})] - 0.5) < 1e-12
    assert abs(sum(by_cells.values()) / 3 - 0.5) < 1e-12
    by_cells = {}
    for density in enumerate_cellular(2, 3):
        p = transition_probabilities_nd(BarycentricVector((0.3, 0.7)), part, density)
        by_cells[density.breakable] = p[0]
    for cells, expected in {
        frozenset({1}): 0.9,
        frozenset({2}): 0.0,
        frozenset({3}): 0.0,
        frozenset({1, 2}): 0.45,
        frozenset({1, 3}): 0.45,
        frozenset({2, 3}): 0.0,
        frozenset({1, 2, 3}): 0.3,
    }.items():
        assert abs(by_cells[cells] - expected) < 1e-12, cells
    assert abs(sum(by_cells.values()) / 7 - 0.3) < 1e-12

    gen = np.random.default_rng(SEED + 7)
    states = [BarycentricVector(tuple(interior(gen, 2))) for _ in range(10)]
    for n_c in range(1, 13):
        for x in states:
            dev = np.abs(universal_probability_exact(x, n_c) - x.as_array())
            assert dev.max() < 1e-12, (n_c, x)

    x3 = BarycentricVector(tuple(interior(gen, 3)))
    rows = convergence_scan(
        x3, [25], SEED + 7, "mc", density_samples=10**4, point_samples=10**3
    )
    for r in rows:
        assert abs(r["deviation"]) <= 4 * r["stderr"], (r, x3)
    assert time.perf_counter() - t0 < 300.0


def test_c08_hilbert_route_equals_simplex_route():
    """Born probabilities and collapses agree with the simplex law on every
    outcome grouping, within 1e-12, for 1000 random states per dimension up
    to five; the antisymmetric state shows the 0-vs-1/4 contradiction."""
    gen = np.random.default_rng(SEED + 8)
    for n in (2, 3, 4, 5):
        # state by state, n real parts then n imaginary parts
        raw = gen.normal(size=(1000, 2, n))
        amps = raw[:, 0] + 1j * raw[:, 1]
        worst = correspondence_batch(amps / np.linalg.norm(amps, axis=1, keepdims=True)).max()
        assert worst < 1e-12, (n, worst)
    singlet = HilbertState((0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0))
    is_product, determinant_residual, law_residuals = is_product_state(singlet)
    assert not is_product
    assert abs(law_residuals[0] - (-0.25)) < 1e-12
    assert abs(determinant_residual - 0.5) < 1e-12


def test_c09_fixed_break_point_law():
    """The fixed-break-point outcome law sums to one (1e-12) and matches its
    Monte Carlo estimate within 4 sigma on 20 interior points for two to
    eight outcomes; the reference point maps to (1/6, 5/12, 5/12)."""
    gen = np.random.default_rng(SEED + 9)
    trials = 10**5
    for n in range(2, 9):
        for _ in range(20):
            lam = BarycentricVector(tuple(interior(gen, n)))
            exact = complementary_probabilities(lam)
            assert abs(exact.sum() - 1.0) < 1e-12
            est = complementary_mc(lam, trials, gen)
            sigma = np.sqrt(exact * (1 - exact) / trials)
            assert (np.abs(est - exact) <= 4 * sigma).all(), (lam, est, exact)
    ref = complementary_probabilities(BarycentricVector((0.5, 0.25, 0.25)))
    np.testing.assert_allclose(ref, [1 / 6, 5 / 12, 5 / 12], atol=1e-12)


def test_c10_cli_output_is_worker_invariant(tmp_path):
    """Identical config and seed give byte-identical CLI output at 1, 4,
    and 16 workers, for every Monte Carlo route: utr trials, the sampled
    universal average on triangle and on slab cells and gtr 1d trials.  The
    universal route draws each cell count from one generator on the calling
    thread at any worker count, so its two configs check that --workers
    reaches none of its draws; the exact gtr nd law, on slab and on
    triangle cells, draws nothing and must not depend on the worker count
    either."""
    configs = [
        {
            "kind": "utr",
            "seed": SEED,
            "params": {"x": [0.1, 0.2, 0.3, 0.4], "trials": 300_000},
        },
        {
            "kind": "universal",
            "seed": SEED,
            "params": {"x": [0.2, 0.3, 0.5], "cell_counts": [9], "method": "mc",
                       "density_samples": 500, "point_samples": 200},
        },
        {
            # four outcomes on slab cells; 700 densities leave a short last block
            "kind": "universal",
            "seed": SEED,
            "params": {"x": [0.1, 0.2, 0.3, 0.4], "cell_counts": [5, 8], "method": "mc",
                       "density_samples": 700, "point_samples": 100},
        },
        {
            "kind": "gtr",
            "seed": SEED,
            "params": {"mode": "1d", "cos_theta": 0.3, "trials": 200_000,
                       "density": {"type": "epsilon", "epsilon": 0.6}},
        },
        {
            # exact law of 4 breakable slab cells
            "kind": "gtr",
            "seed": SEED,
            "params": {"mode": "nd", "x": [0.1, 0.2, 0.3, 0.4],
                       "density": {"type": "cellular", "n_outcomes": 4, "n_cells": 8,
                                   "breakable": [1, 2, 5, 8]}},
        },
        {
            # exact law of 3 breakable triangle cells, two outcome blocks
            "kind": "gtr",
            "seed": SEED,
            "params": {"mode": "nd", "x": [0.2, 0.3, 0.5], "blocks": [[1, 3], [2]],
                       "density": {"type": "cellular", "n_outcomes": 3, "n_cells": 9,
                                   "breakable": [1, 4, 8]}},
        },
    ]
    for k, config in enumerate(configs):
        path = tmp_path / f"c{k}.json"
        path.write_text(json.dumps(config))
        blobs = []
        for workers in (1, 4, 16):
            out = tmp_path / f"c{k}-w{workers}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "trm.cli", "run", str(path),
                 "--workers", str(workers), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], config["kind"]
