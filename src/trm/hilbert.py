"""Complex Hilbert-space oracle for the simplex measurement law.

Finite-dimensional pure states and projective measurements whose outcomes
may be degenerate, one block of eigenbasis indices per outcome.  The
squared moduli of a state's coordinates in a measurement eigenbasis form a
barycentric vector, and under that mapping the Born rule, degenerate block
probabilities, and projective collapse agree with the uniform simplex law
component by component.

correspondence_batch checks that agreement for many states and every
outcome block at once, along two routes that stay independent, and returns
each state's largest deviation; the CLI oracle holds it against its
configured tolerance.  A block's Born weight, its simplex weight and both
of its collapses depend on the block alone, not on the partition it sits
in, and every nonempty subset of the basis indices is a block of some
partition; so checking the 2^n - 1 subsets once checks every partition.
The Hilbert route works on amplitudes only: eigenbasis coordinates, squared
moduli masked to each block and summed in outcome order, and projection,
renormalization and re-measurement for each collapse.  The simplex route is
the library's own collapse code, one utr.restrict call over every subset
that gives both the block probabilities and the collapses of the squared
moduli.  Only the subset masks, which both routes need, are shared.  Both
routes sum each row on its own, so on the computational basis, where the
coordinates are the amplitudes exactly, a state's deviation does not
depend on the other states in its batch.

is_product_state returns (is_product, determinant_residual, law_residuals):
the verdict first, then its witnesses, as the checker functions do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleOutcomeError
from .simplex import OutcomePartition, _subset_masks
from .utr import PRODUCT_TOL, product_relation_residuals, restrict

__all__ = [
    "HilbertObservable",
    "HilbertState",
    "born_probabilities",
    "collapse",
    "correspondence_batch",
    "is_product_state",
    "tensor",
]

NORM_TOL = 1e-9


@dataclass(frozen=True)
class HilbertState:
    """Pure state: complex amplitudes with unit norm (within NORM_TOL,
    renormalized exactly on construction)."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) < 2:
            raise ValueError("a state needs at least two amplitudes")
        norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", tuple(a / norm for a in amps))

    @property
    def n(self) -> int:
        return len(self.amplitudes)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.amplitudes, dtype=complex)

    def moduli_squared(self) -> np.ndarray:
        return np.abs(self.as_array()) ** 2


def _check_orthonormal(basis: np.ndarray) -> None:
    """Refuse a square basis whose rows are not orthonormal within NORM_TOL."""
    gram = basis.conj() @ basis.T
    if not np.max(np.abs(gram - np.eye(basis.shape[0]))) <= NORM_TOL:
        raise ValueError("eigenbasis is not orthonormal")


@dataclass(frozen=True)
class HilbertObservable:
    """Projective measurement: an orthonormal eigenbasis and a grouping of
    the basis indices into outcome blocks.

    basis[i] is the i-th eigenvector and block k is outcome k; the
    partition keeps the blocks disjoint, so no two describe the same
    outcome.
    """

    basis: tuple[tuple[complex, ...], ...]
    partition: OutcomePartition

    def __post_init__(self) -> None:
        rows = tuple(tuple(complex(a) for a in row) for row in self.basis)
        m = np.asarray(rows, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"eigenbasis must be square, got shape {m.shape}")
        _check_orthonormal(m)
        n = m.shape[0]
        if self.partition.n != n:
            raise ValueError(
                f"grouping covers 1..{self.partition.n} but basis has {n} vectors"
            )
        object.__setattr__(self, "basis", rows)

    @classmethod
    def standard(
        cls,
        n: int,
        partition: OutcomePartition | None = None,
        basis: np.ndarray | None = None,
    ) -> "HilbertObservable":
        """Observable on the computational basis (or a supplied one), with
        singleton outcomes unless a partition is given."""
        p = partition or OutcomePartition.singletons(n)
        b = np.eye(n, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
        return cls(tuple(tuple(row) for row in b), p)

    @property
    def n(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> np.ndarray:
        return np.asarray(self.basis, dtype=complex)

    def coordinates(self, state: HilbertState) -> np.ndarray:
        """Amplitudes of the state in the eigenbasis, c_i = <a_i|psi>."""
        if state.n != self.n:
            raise ValueError(f"dimension mismatch: state {state.n}, basis {self.n}")
        return self.basis_matrix().conj() @ state.as_array()


def born_probabilities(state: HilbertState, obs: HilbertObservable) -> np.ndarray:
    """Block outcome probabilities: sums of |<a_i|psi>|^2 over each block,
    in outcome order as utr.outcome_probabilities sums x."""
    return obs.partition.aggregate(np.abs(obs.coordinates(state)) ** 2)


def collapse(state: HilbertState, obs: HilbertObservable, block_index: int) -> HilbertState:
    """Project onto the block's eigenspace and renormalize.

    Raises ImpossibleOutcomeError when the block has zero Born weight.
    """
    if not 1 <= block_index <= obs.partition.n_blocks:
        raise ValueError(
            f"block index {block_index} outside 1..{obs.partition.n_blocks}"
        )
    coords = obs.coordinates(state)
    mask = obs.partition.block_masks()[block_index - 1]
    projected = np.where(mask, coords, 0.0 + 0.0j)
    norm = float(np.linalg.norm(projected))
    if norm == 0.0:
        raise ImpossibleOutcomeError(
            f"block {block_index} has zero weight in state {state.amplitudes}"
        )
    psi = obs.basis_matrix().T @ (projected / norm)
    return HilbertState(tuple(psi))


def tensor(a: HilbertState, b: HilbertState) -> HilbertState:
    """Composite of two subsystem states, ordered |i,j> = |i>|j>."""
    return HilbertState(tuple(np.kron(a.as_array(), b.as_array())))


def is_product_state(
    state: HilbertState,
) -> tuple[bool, float, tuple[float, float, float, float]]:
    """(is_product, determinant_residual, law_residuals) of a four-amplitude
    state.

    The state factors exactly when psi1*psi4 == psi2*psi3; the verdict
    allows a determinant |psi1*psi4 - psi2*psi3| of PRODUCT_TOL.  The four
    probability product residuals are reported alongside: they vanish for
    every product state but, unlike the determinant, cannot see phases.
    """
    if state.n != 4:
        raise ValueError(f"product structure is defined for four amplitudes, not {state.n}")
    a1, a2, a3, a4 = state.amplitudes
    det = abs(a1 * a4 - a2 * a3)
    return det <= PRODUCT_TOL, det, product_relation_residuals(state.moduli_squared())


def correspondence_batch(
    amplitudes: np.ndarray, basis: np.ndarray | None = None
) -> np.ndarray:
    """Compare the Hilbert route against the simplex route for many states.

    amplitudes is an (S, n) complex array, one state per row; each row's
    norm must be 1 within NORM_TOL and is then renormalized.  basis (rows
    are the eigenvectors, default the computational basis) must be
    orthonormal within NORM_TOL.  A row's squared moduli in the eigenbasis
    define a barycentric vector x.  For every nonempty subset of the basis
    indices, which covers every block of every partition, the row's Born
    probability of the subset must match the subset sum of x, and for a
    subset of nonzero weight the squared moduli of the collapsed state must
    match the renormalized restriction of x.  Returns each row's largest
    absolute difference over all of these, an (S,) array; judging it is
    the caller's call.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] < 2:
        raise ValueError(f"need an (S, n) array of amplitudes with n >= 2, got {amps.shape}")
    n = amps.shape[1]
    base = np.eye(n, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
    if base.shape != (n, n):
        raise ValueError(f"eigenbasis must be {n} x {n}, got shape {base.shape}")
    _check_orthonormal(base)
    norms = np.linalg.norm(amps, axis=1)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if off.size:
        raise ValueError(f"state norm {norms[off[0]]} of row {off[0]} is not 1 within {NORM_TOL}")
    masks = _subset_masks(n)

    # Hilbert route: coordinates c = <a_i|psi> and Born block sums of |c|^2.
    coords = (amps / norms[:, None]) @ base.conj().T
    moduli = np.abs(coords) ** 2
    born = np.where(masks, moduli[:, None, :], 0.0).sum(axis=-1)
    collapse_gap = _collapsed_moduli(coords, masks, born, base)

    # Simplex route on x: block weights and restrictions from the library.
    x = moduli / moduli.sum(axis=1, keepdims=True)
    law, post = restrict(x[:, None, :], masks)
    collapse_gap -= post

    np.abs(collapse_gap, out=collapse_gap)
    # a block the simplex route gives zero weight cannot fire: no collapse
    collapse_gap[law == 0.0] = 0.0
    return np.maximum(np.abs(born - law).max(axis=1), collapse_gap.max(axis=(1, 2)))


def _collapsed_moduli(
    coords: np.ndarray, masks: np.ndarray, born: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """(S, 2^n - 1, n) squared moduli, in the eigenbasis, of each state
    after each subset fires as a block: the coordinates projected onto the
    subset, renormalized, mapped back through the basis and measured again.

    A block of zero Born weight projects to zero.  Each step replaces the
    previous array, which keeps two (S, 2^n - 1, n) arrays alive at most.
    """
    post = np.where(masks, coords[:, None, :], 0.0)
    post /= np.sqrt(np.where(born == 0.0, 1.0, born))[..., None]
    post = post @ base
    post = post @ base.conj().T
    return np.abs(post) ** 2
