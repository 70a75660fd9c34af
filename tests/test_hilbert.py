"""Hilbert-space route and its exact agreement with the simplex route."""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trm import (
    BarycentricVector,
    HilbertObservable,
    HilbertState,
    ImpossibleOutcomeError,
    OutcomePartition,
    born_probabilities,
    is_product_state,
    product_state,
    tensor,
)
from trm import cli
from trm.hilbert import NORM_TOL, collapse, correspondence_batch
from trm.simplex import iter_partitions
from trm.utr import collapse as utr_collapse
from trm.utr import outcome_probabilities


def random_state(rng, n):
    raw = rng.normal(size=n) + 1j * rng.normal(size=n)
    return HilbertState(tuple(raw / np.linalg.norm(raw)))


def haar_basis(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_amplitudes(rng, size, n):
    raw = rng.normal(size=(size, n)) + 1j * rng.normal(size=(size, n))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def loop_correspondence(state, basis=None):
    """Reference: the state-by-state, partition-by-partition comparison
    through HilbertObservable objects and the one-state collapse functions
    of both routes.  Returns (worst deviation, partitions checked)."""
    n = state.n
    base = np.eye(n, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
    coords = base.conj() @ state.as_array()
    x = BarycentricVector(tuple(np.abs(coords) ** 2))
    worst = 0.0
    checked = 0
    for blocks in iter_partitions(n):
        partition = OutcomePartition(blocks)
        obs = HilbertObservable.standard(n, partition, base)
        law = outcome_probabilities(x, partition)
        worst = max(worst, float(np.max(np.abs(born_probabilities(state, obs) - law))))
        for k in range(1, partition.n_blocks + 1):
            if law[k - 1] == 0.0:
                continue
            post = np.abs(base.conj() @ collapse(state, obs, k).as_array()) ** 2
            post_law = utr_collapse(x, partition, k).as_array()
            worst = max(worst, float(np.max(np.abs(post - post_law))))
        checked += 1
    return worst, checked


def test_state_norm_validation():
    s = HilbertState((0.6, 0.8j))
    np.testing.assert_allclose(s.moduli_squared(), [0.36, 0.64], atol=1e-15)
    with pytest.raises(ValueError):
        HilbertState((0.0, 0.0))
    with pytest.raises(ValueError):
        HilbertState((3.0, 4.0j))  # norm 5 is far outside tolerance


def test_nan_amplitude_is_refused():
    with pytest.raises(ValueError):
        HilbertState((float("nan"), 0.5))


def test_nan_in_the_basis_is_refused():
    basis = np.eye(2)
    basis[0, 1] = float("nan")
    with pytest.raises(ValueError):
        HilbertObservable.standard(2, basis=basis)


def test_observable_requires_orthonormal_rows():
    with pytest.raises(ValueError):
        HilbertObservable(
            ((1.0, 0.0), (1.0, 0.0)),
            OutcomePartition.singletons(2),
            (1.0, 2.0),
        )


def test_born_probabilities_computational_basis():
    s = HilbertState((0.6, 0.8j, 0.0, 0.0))
    obs = HilbertObservable.standard(4)
    np.testing.assert_allclose(born_probabilities(s, obs), [0.36, 0.64, 0, 0], atol=1e-15)
    coarse = HilbertObservable.standard(4, OutcomePartition.of([[1, 2], [3, 4]]))
    np.testing.assert_allclose(born_probabilities(s, coarse), [1.0, 0.0], atol=1e-15)


def test_collapse_projects_and_renormalizes():
    s = HilbertState((0.6, 0.0, 0.8, 0.0))
    coarse = HilbertObservable.standard(4, OutcomePartition.of([[1, 2], [3, 4]]))
    post = collapse(s, coarse, 1)
    np.testing.assert_allclose(post.as_array(), [1, 0, 0, 0], atol=1e-15)
    post2 = collapse(s, coarse, 2)
    np.testing.assert_allclose(post2.as_array(), [0, 0, 1, 0], atol=1e-15)


def test_collapse_zero_block_raises():
    s = HilbertState((0.6, 0.8, 0.0, 0.0))
    coarse = HilbertObservable.standard(4, OutcomePartition.of([[1, 2], [3, 4]]))
    with pytest.raises(ImpossibleOutcomeError):
        collapse(s, coarse, 2)


def test_tensor_orders_amplitudes_row_major():
    a = HilbertState((1.0, 0.0))
    b = HilbertState((0.0, 1.0))
    np.testing.assert_allclose(tensor(a, b).as_array(), [0, 1, 0, 0], atol=1e-15)


def test_product_state_closed_form_factors():
    s = product_state(0.3, 0.7, 0.6, 0.4, 0.1, 0.9, 0.2, 0.5)
    check = is_product_state(s)
    assert check.is_product
    assert check.determinant_residual < 1e-15
    assert max(abs(r) for r in check.law_residuals) < 1e-15
    sub_a = HilbertState(
        (math.sqrt(0.3) * cmath.exp(0.1j), math.sqrt(0.7) * cmath.exp(0.9j))
    )
    sub_b = HilbertState(
        (math.sqrt(0.6) * cmath.exp(0.5j), math.sqrt(0.4) * cmath.exp(0.2j))
    )
    np.testing.assert_allclose(s.as_array(), tensor(sub_a, sub_b).as_array(), atol=1e-15)


def test_singlet_contradiction():
    """The antisymmetric two-qubit state: every probability residual says
    product (all moduli relations fail by -1/4... the first one does), and
    the determinant witness reports 1/2, so the state cannot factor."""
    singlet = HilbertState((0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0))
    check = is_product_state(singlet)
    assert not check.is_product
    assert abs(check.determinant_residual - 0.5) < 1e-12
    assert abs(check.law_residuals[0] - (-0.25)) < 1e-12


def test_phase_blind_law_misses_entanglement():
    # moduli identical to (0.6, 0.8) (x) (0.6, 0.8), one sign flipped:
    # every probability residual vanishes yet the state is entangled
    s = HilbertState((0.36, 0.48, 0.48, -0.64))
    check = is_product_state(s)
    assert not check.is_product
    assert check.determinant_residual > 0.4
    assert max(abs(r) for r in check.law_residuals) < 1e-15


def test_correspondence_computational_basis(rng):
    for n, bell in [(2, 2), (3, 5), (4, 15), (5, 52)]:
        rep = correspondence_batch(random_state(rng, n).as_array()[None, :])
        assert rep.ok[0] and rep.partitions_checked == bell
        assert rep.max_deviation[0] < 1e-12


def test_correspondence_random_unitary_basis(rng):
    for n in (2, 3, 4):
        state = random_state(rng, n)
        rep = correspondence_batch(state.as_array()[None, :], haar_basis(rng, n))
        assert rep.ok[0], rep


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_correspondence_property(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 5))
    rep = correspondence_batch(random_state(gen, n).as_array()[None, :])
    assert rep.ok[0]


def test_batch_agrees_with_one_row_calls_and_the_loop_reference(rng):
    for n, bell in [(2, 2), (3, 5), (4, 15), (5, 52)]:
        amps = random_amplitudes(rng, 30, n)
        batch = correspondence_batch(amps)
        assert batch.partitions_checked == bell
        assert batch.ok.shape == batch.max_deviation.shape == (30,)
        for s, row in enumerate(amps):
            state = HilbertState(tuple(row))
            one = correspondence_batch(state.as_array()[None, :])
            assert one.ok[0] == batch.ok[s]
            assert one.partitions_checked == bell
            assert abs(one.max_deviation[0] - batch.max_deviation[s]) <= 1e-15
            worst, checked = loop_correspondence(state)
            assert checked == bell
            assert abs(worst - batch.max_deviation[s]) <= 1e-15
        assert batch.ok.all() and batch.max_deviation.max() < 1e-12


def test_batch_rows_with_zero_amplitudes_stay_finite():
    rows = [np.eye(n, dtype=complex)[i] for n in (2, 3, 4, 5) for i in range(n)]
    rows += [np.array([0.6, 0.0, 0.8j, 0.0]), np.array([0.0, 0.0, 0.6, 0.8j])]
    for row in rows:
        batch = correspondence_batch(row[None, :])
        assert np.isfinite(batch.max_deviation).all()
        assert batch.max_deviation[0] <= 1e-12 and batch.ok[0]
        worst, _ = loop_correspondence(HilbertState(tuple(row)))
        assert abs(worst - batch.max_deviation[0]) <= 1e-15
    mixed = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8j], [0.6, 0.0, 0.8]])
    assert correspondence_batch(mixed).max_deviation.max() <= 1e-12


def test_batch_checks_basis_and_norms(rng):
    for n in (2, 3, 4, 5):
        basis = haar_basis(rng, n)
        amps = random_amplitudes(rng, 20, n)
        batch = correspondence_batch(amps, basis=basis)
        assert batch.ok.all(), batch.max_deviation
        state = HilbertState(tuple(amps[0]))
        worst, _ = loop_correspondence(state, basis)
        assert abs(worst - batch.max_deviation[0]) <= 1e-15
        assert correspondence_batch(state.as_array()[None, :], basis).ok[0]
    amps = random_amplitudes(rng, 4, 3)
    with pytest.raises(ValueError, match="orthonormal"):
        correspondence_batch(amps, basis=np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="orthonormal"):
        correspondence_batch(amps, basis=np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        correspondence_batch(amps, basis=np.eye(2))
    for bad in (1.0 + 10 * NORM_TOL, np.nan):
        off = amps.copy()
        off[2] *= bad
        with pytest.raises(ValueError, match="norm"):
            correspondence_batch(off)
    with pytest.raises(ValueError):
        correspondence_batch(amps[0])


def test_oracle_memory_is_bounded_by_its_chunk(tmp_path):
    # unchunked, 3000 five-outcome states would hold (3000, 151, 5) complex
    # arrays of 36 MB each
    states = 3000
    path = tmp_path / "oracle.json"
    doc = {"kind": "oracle", "seed": 4, "params": {"dims": [5], "states": states}}
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads((tmp_path / "out.json").read_text())["result"]["states_per_dim"] == states
    assert peak < 4 * 2**20, peak
