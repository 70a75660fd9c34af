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
    tensor,
)
from trm import cli, hilbert
from trm.hilbert import NORM_TOL, collapse, correspondence_batch
from trm.simplex import _subset_masks
from trm.utr import collapse as utr_collapse
from trm.utr import outcome_probabilities, restrict

from conftest import iter_partitions


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
    sub_a = HilbertState(
        (math.sqrt(0.3) * cmath.exp(0.1j), math.sqrt(0.7) * cmath.exp(0.9j))
    )
    sub_b = HilbertState(
        (math.sqrt(0.6) * cmath.exp(0.5j), math.sqrt(0.4) * cmath.exp(0.2j))
    )
    is_product, determinant_residual, law_residuals = is_product_state(tensor(sub_a, sub_b))
    assert is_product
    assert determinant_residual < 1e-15
    assert max(abs(r) for r in law_residuals) < 1e-15


def test_singlet_contradiction():
    """The antisymmetric two-qubit state: every probability residual says
    product (all moduli relations fail by -1/4... the first one does), and
    the determinant witness reports 1/2, so the state cannot factor."""
    singlet = HilbertState((0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0))
    is_product, determinant_residual, law_residuals = is_product_state(singlet)
    assert not is_product
    assert abs(determinant_residual - 0.5) < 1e-12
    assert abs(law_residuals[0] - (-0.25)) < 1e-12


def test_phase_blind_law_misses_entanglement():
    # moduli identical to (0.6, 0.8) (x) (0.6, 0.8), one sign flipped:
    # every probability residual vanishes yet the state is entangled
    s = HilbertState((0.36, 0.48, 0.48, -0.64))
    is_product, determinant_residual, law_residuals = is_product_state(s)
    assert not is_product
    assert determinant_residual > 0.4
    assert max(abs(r) for r in law_residuals) < 1e-15


def test_correspondence_computational_basis(rng):
    for n in (2, 3, 4, 5):
        worst = correspondence_batch(random_state(rng, n).as_array()[None, :])
        assert worst.shape == (1,) and worst[0] < 1e-12


def test_correspondence_random_unitary_basis(rng):
    for n in (2, 3, 4):
        state = random_state(rng, n)
        worst = correspondence_batch(state.as_array()[None, :], haar_basis(rng, n))
        assert worst[0] <= 1e-12, worst


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_correspondence_property(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 5))
    assert correspondence_batch(random_state(gen, n).as_array()[None, :])[0] <= 1e-12


def test_batch_agrees_with_one_row_calls_and_the_loop_reference(rng):
    for n, bell in [(2, 2), (3, 5), (4, 15), (5, 52)]:
        amps = random_amplitudes(rng, 30, n)
        batch = correspondence_batch(amps)
        assert batch.shape == (30,)
        for s, row in enumerate(amps):
            assert correspondence_batch(row[None, :])[0] == batch[s]
            worst, checked = loop_correspondence(HilbertState(tuple(row)))
            assert checked == bell
            assert abs(worst - batch[s]) <= 1e-15
        assert batch.max() < 1e-12


def test_a_state_reads_the_same_bits_alone_as_in_its_batch(rng):
    # every Born and simplex block sum runs along one row, so no state's
    # deviation depends on how many states share its call
    for n in range(2, 9):
        amps = random_amplitudes(rng, 60, n)
        amps[::5, rng.integers(0, n)] = 0.0
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        batch = correspondence_batch(amps)
        for i in range(len(amps)):
            assert correspondence_batch(amps[i:i + 1])[0] == batch[i], (n, i)


def test_batch_rows_with_zero_amplitudes_stay_finite():
    rows = [np.eye(n, dtype=complex)[i] for n in (2, 3, 4, 5) for i in range(n)]
    rows += [np.array([0.6, 0.0, 0.8j, 0.0]), np.array([0.0, 0.0, 0.6, 0.8j])]
    for row in rows:
        batch = correspondence_batch(row[None, :])
        assert np.isfinite(batch).all()
        assert batch[0] <= 1e-12
        worst, _ = loop_correspondence(HilbertState(tuple(row)))
        assert abs(worst - batch[0]) <= 1e-15
    mixed = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8j], [0.6, 0.0, 0.8]])
    assert correspondence_batch(mixed).max() <= 1e-12


def test_batch_checks_basis_and_norms(rng):
    for n in (2, 3, 4, 5):
        basis = haar_basis(rng, n)
        amps = random_amplitudes(rng, 20, n)
        batch = correspondence_batch(amps, basis=basis)
        assert batch.max() <= 1e-12, batch
        state = HilbertState(tuple(amps[0]))
        worst, _ = loop_correspondence(state, basis)
        assert abs(worst - batch[0]) <= 1e-15
        assert correspondence_batch(state.as_array()[None, :], basis)[0] <= 1e-12
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
    # unchunked, 3000 states would hold (3000, 31, 5) complex arrays of
    # 7.4 MB each at five outcomes and (3000, 255, 8) ones of 98 MB at eight
    states = 3000
    path = tmp_path / "oracle.json"
    doc = {"kind": "oracle", "seed": 4, "params": {"dims": [5, 8], "states": states}}
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


def test_one_restrict_call_gives_the_block_sums_of_aggregate(rng):
    # the oracle's bytes rest on this: each block weight adds the same terms
    # left to right as aggregate does, the masked ones as exact zeros
    for n in (2, 3, 4, 5):
        x = rng.exponential(size=(400, n))
        x[::3, rng.integers(0, n)] = 0.0
        x[::7, :-1] = 0.0
        x /= x.sum(axis=1, keepdims=True)
        law = restrict(x[:, None, :], _subset_masks(n))[0]
        for blocks in iter_partitions(n):
            partition = OutcomePartition(blocks)
            # a block's subset row is its bit pattern less one
            rows = partition.block_masks() @ (1 << np.arange(n)) - 1
            assert np.array_equal(law[:, rows], partition.aggregate(x))


def test_subsets_give_the_deviations_of_every_partition_block(rng, monkeypatch):
    # every (partition, block) pair repeats some subset's check, so the
    # largest deviation over the pairs is the largest over the subsets
    pairs = {
        n: np.concatenate([OutcomePartition(b).block_masks() for b in iter_partitions(n)])
        for n in range(2, 7)
    }
    for n in pairs:
        amps = random_amplitudes(rng, 200, n)
        amps[::3, rng.integers(1, n)] = 0.0
        amps[::7, 1:] = 0.0
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        subsets = correspondence_batch(amps)
        with monkeypatch.context() as m:
            m.setattr(hilbert, "_subset_masks", pairs.get)
            assert np.array_equal(correspondence_batch(amps), subsets)


@pytest.mark.parametrize("part", [0, 1])
def test_oracle_notices_a_wrong_simplex_route(rng, monkeypatch, part):
    """Shifting one pair's block weight (part 0) or its restriction (part 1)
    by delta in the simplex route shows up as a deviation of delta."""
    delta = 1e-6

    def shifted(x, mask):
        out = restrict(x, mask)
        out[part][:, mask.shape[0] // 2] += delta
        return out

    monkeypatch.setattr(hilbert, "restrict", shifted)
    for n in (2, 3, 4, 5):
        worst = correspondence_batch(random_amplitudes(rng, 50, n))
        assert np.all(worst >= delta - 1e-12), worst.min()
        assert np.all(worst <= delta + 1e-12), worst.max()
