"""Model checks: single-probability-space admissibility and qubit overlap
realizability, plus the bundle classifier over all four verdict patterns."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trm import (
    SchemaError,
    classify,
    counterexample_bundle,
    kolmogorov_check,
    qubit_embeddable,
)

FIXTURE = Path(__file__).parent / "data" / "kolmogorov_not_qubit.json"


def random_space_joints(gen, atoms=8):
    """Sample an actual finite probability space and read off the joints
    (p_vw, p_uw, p_ucv)."""
    p = gen.dirichlet(np.ones(atoms))
    u, v, w = (gen.random(atoms) < 0.5 for _ in range(3))
    return float(p[v & w].sum()), float(p[u & w].sum()), float(p[~u & v].sum())


def random_qubit_transitions(gen):
    """Pairwise squared overlaps (p_ab, p_bc, p_ac) of three random pure
    qubit states."""
    vecs = gen.normal(size=(3, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    overlap = lambda a, b: (1.0 + float(np.dot(a, b))) / 2.0
    return overlap(vecs[0], vecs[1]), overlap(vecs[1], vecs[2]), overlap(vecs[0], vecs[2])


def gram_min_eigenvalue(p_ab, p_bc, p_ac):
    """Independent realizability witness: three unit vectors with the
    prescribed angles exist iff their would-be Gram matrix is PSD."""
    t = [2.0 * math.acos(math.sqrt(p)) for p in (p_ab, p_bc, p_ac)]
    g = np.array(
        [
            [1.0, math.cos(t[0]), math.cos(t[2])],
            [math.cos(t[0]), 1.0, math.cos(t[1])],
            [math.cos(t[2]), math.cos(t[1]), 1.0],
        ]
    )
    return float(np.linalg.eigvalsh(g)[0])


def test_kolmogorov_soundness_on_real_spaces(rng):
    for _ in range(10_000):
        satisfied, margin = kolmogorov_check(*random_space_joints(rng))
        assert satisfied
        assert margin <= 1e-12


def test_kolmogorov_detects_the_extremal_violation():
    satisfied, margin = kolmogorov_check(1.0, 0.0, 0.5)
    assert not satisfied
    assert abs(margin - 0.5) < 1e-15


def test_qubit_soundness_on_real_qubits(rng):
    for _ in range(10_000):
        embeddable, *witnesses = qubit_embeddable(*random_qubit_transitions(rng))
        assert embeddable, witnesses


def test_qubit_check_matches_gram_witness(rng):
    agreements = 0
    for _ in range(2_000):
        tr = rng.random(3)
        embeddable, *witnesses = qubit_embeddable(*tr)
        eig = gram_min_eigenvalue(*tr)
        if abs(eig) < 1e-6:
            continue  # too close to the boundary to compare verdicts
        assert embeddable == (eig > 0), (tr, witnesses, eig)
        agreements += 1
    assert agreements > 1_500


def test_qubit_rejects_the_degenerate_triple():
    embeddable, deficit, angles = qubit_embeddable(1.0, 0.5, 0.0)
    assert not embeddable
    assert abs(deficit - math.pi / 2) < 1e-9
    np.testing.assert_allclose(angles, [0.0, math.pi / 2, math.pi], atol=1e-12)


def test_qubit_accepts_the_boundary_triple():
    embeddable, deficit, angles = qubit_embeddable(
        math.cos(math.pi / 8) ** 2, 0.5, math.cos(3 * math.pi / 8) ** 2
    )
    assert embeddable
    assert deficit == 0.0
    # pi/4 + pi/2 equals 3pi/4: the triangle closes exactly
    assert abs(sum(angles[:2]) - angles[2]) < 1e-9


def test_probability_validation():
    # matched by message: math.sqrt(-0.2) would raise a ValueError of its own
    with pytest.raises(ValueError, match="p_vw = 1.2 is not a probability"):
        kolmogorov_check(1.2, 0.0, 0.0)
    with pytest.raises(ValueError, match="p_bc = -0.2 is not a probability"):
        qubit_embeddable(0.5, -0.2, 0.5)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_kolmogorov_margin_formula(seed):
    gen = np.random.default_rng(seed)
    p = gen.random(3)
    _, margin = kolmogorov_check(*p)
    assert abs(margin - (p[0] - p[1] - p[2])) < 1e-15


# the four verdict patterns -------------------------------------------------


def test_classify_both_ok(rng):
    j = random_space_joints(rng)
    t = random_qubit_transitions(rng)
    report = classify(
        {
            "joints": [dict(zip(("p_vw", "p_uw", "p_ucv"), j))],
            "transitions": [dict(zip(("p_ab", "p_bc", "p_ac"), t))],
        }
    )
    assert report["classical_ok"] and report["qubit_ok"]
    assert report["warnings"] == []


def test_classify_quantum_but_not_classical():
    # squared-half-angle regime: the joints break the set inequality while
    # the pairwise transitions close a spherical triangle exactly
    report = classify(counterexample_bundle(1.0))
    assert not report["classical_ok"]
    assert report["qubit_ok"]


def test_classify_classical_but_not_qubit():
    doc = json.loads(FIXTURE.read_text())
    report = classify({"joints": doc["joints"], "transitions": doc["transitions"]})
    assert report["classical_ok"] == doc["expected"]["classical_ok"]
    assert report["qubit_ok"] == doc["expected"]["qubit_ok"]
    assert report["classical_ok"] and not report["qubit_ok"]
    # independent witness agrees that no three qubit states fit
    assert gram_min_eigenvalue(**doc["transitions"][0]) < -1e-6


def test_classify_neither():
    report = classify(counterexample_bundle(0.5))
    assert not report["classical_ok"]
    assert not report["qubit_ok"]
    assert abs(report["joints"][0]["margin"] - 0.5) < 1e-12
    assert abs(report["transitions"][0]["deficit"] - math.pi / 2) < 1e-9


def test_classify_empty_bundle_warns():
    report = classify({})
    assert report["classical_ok"] and report["qubit_ok"]
    assert report["warnings"]


def test_classify_schema_errors():
    with pytest.raises(SchemaError):
        classify([])
    with pytest.raises(SchemaError):
        classify({"joints": [{"p_vw": 0.5}]})
    with pytest.raises(SchemaError):
        classify({"joints": "nope"})
    with pytest.raises(SchemaError):
        classify({"transitions": [{"p_ab": "x", "p_bc": 0.1, "p_ac": 0.2}]})
    with pytest.raises(SchemaError):
        classify({"joint": [{"p_vw": 0.5, "p_uw": 0.5, "p_ucv": 0.5}]})  # unknown field
    with pytest.raises(SchemaError):
        classify({"transitions": [{"p_ab": 0.5, "p_bc": 0.1, "p_ac": 0.2, "p_ad": 0.3}]})
