"""Complex Hilbert-space oracle for the simplex measurement law.

Finite-dimensional pure states and projective measurements with possibly
degenerate eigenvalues.  The squared moduli of a state's coordinates in a
measurement eigenbasis form a barycentric vector, and under that mapping the
Born rule, degenerate block probabilities, and projective collapse agree
with the uniform simplex law component by component.

correspondence_batch checks that agreement for many states and every
grouping of the basis indices at once, along two routes that stay
independent.  The Hilbert route works on amplitudes only: eigenbasis
coordinates, squared moduli summed by a block-indicator matrix, and
projection, renormalization and re-measurement for each collapse.  The
simplex route is the library's own code, OutcomePartition.aggregate for the
block probabilities and utr.restrict for the collapses, applied to the
squared moduli.  Only the outcome grouping, which both routes need, is
shared.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleOutcomeError
from .simplex import BarycentricVector, OutcomePartition, iter_partitions
from .utr import product_relation_residuals, restrict

__all__ = [
    "CorrespondenceReport",
    "HilbertObservable",
    "HilbertState",
    "ProductCheck",
    "born_probabilities",
    "collapse",
    "correspondence_batch",
    "is_product_state",
    "product_state",
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

    def to_barycentric(self) -> BarycentricVector:
        return BarycentricVector(tuple(self.moduli_squared()))


@dataclass(frozen=True)
class HilbertObservable:
    """Projective measurement: an orthonormal eigenbasis, a grouping of the
    basis indices into outcome blocks, and one eigenvalue per block.

    basis[i] is the i-th eigenvector; block eigenvalues must be pairwise
    distinct, otherwise two blocks would describe the same outcome.
    """

    basis: tuple[tuple[complex, ...], ...]
    partition: OutcomePartition
    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(complex(a) for a in row) for row in self.basis)
        m = np.asarray(rows, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"eigenbasis must be square, got shape {m.shape}")
        n = m.shape[0]
        gram = m.conj() @ m.T
        if not np.max(np.abs(gram - np.eye(n))) <= NORM_TOL:
            raise ValueError("eigenbasis is not orthonormal")
        if self.partition.n != n:
            raise ValueError(
                f"grouping covers 1..{self.partition.n} but basis has {n} vectors"
            )
        eigs = tuple(float(v) for v in self.eigenvalues)
        if len(eigs) != self.partition.n_blocks:
            raise ValueError(
                f"{len(eigs)} eigenvalues for {self.partition.n_blocks} blocks"
            )
        if len(set(eigs)) != len(eigs):
            raise ValueError(f"block eigenvalues must be distinct, got {eigs}")
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "eigenvalues", eigs)

    @classmethod
    def standard(
        cls,
        n: int,
        partition: OutcomePartition | None = None,
        basis: np.ndarray | None = None,
    ) -> "HilbertObservable":
        """Observable on the computational basis (or a supplied one) with
        eigenvalues 1..k."""
        p = partition or OutcomePartition.singletons(n)
        b = np.eye(n, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
        eigs = tuple(float(k) for k in range(1, p.n_blocks + 1))
        return cls(tuple(tuple(row) for row in b), p, eigs)

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
    """Block outcome probabilities: sums of |<a_i|psi>|^2 over each block."""
    return np.abs(obs.coordinates(state)) ** 2 @ obs.partition.block_masks().T.astype(float)


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


@dataclass(frozen=True)
class ProductCheck:
    """Verdict on whether a two-qubit state factors, with both witnesses:
    the amplitude determinant and the four probability product residuals."""

    is_product: bool
    determinant_residual: float
    law_residuals: tuple[float, float, float, float]


def is_product_state(state: HilbertState, tol: float = 1e-9) -> ProductCheck:
    """A four-amplitude state factors exactly when psi1*psi4 == psi2*psi3.

    The probability residuals are reported alongside: they vanish for every
    product state but, unlike the determinant, cannot see phases.
    """
    if state.n != 4:
        raise ValueError(f"product structure is defined for four amplitudes, not {state.n}")
    a1, a2, a3, a4 = state.amplitudes
    det = abs(a1 * a4 - a2 * a3)
    residuals = product_relation_residuals(state.moduli_squared())
    return ProductCheck(det <= tol, det, residuals)


def product_state(
    a: float, b: float, c: float, d: float, alpha: float, beta: float, gamma: float, delta: float
) -> HilbertState:
    """Tensor product of (sqrt(a) e^{i alpha}, sqrt(b) e^{i beta}) and
    (sqrt(c) e^{i delta}, sqrt(d) e^{i gamma}) built from the closed form."""
    return HilbertState(
        (
            math.sqrt(a * c) * cmath.exp(1j * (alpha + delta)),
            math.sqrt(a * d) * cmath.exp(1j * (alpha + gamma)),
            math.sqrt(b * c) * cmath.exp(1j * (beta + delta)),
            math.sqrt(b * d) * cmath.exp(1j * (beta + gamma)),
        )
    )


@dataclass(frozen=True)
class CorrespondenceReport:
    """Verdict of the Hilbert-vs-simplex comparison, as (S,) arrays with one
    entry per state: ok says max_deviation <= tol."""

    ok: np.ndarray
    max_deviation: np.ndarray
    partitions_checked: int


@functools.lru_cache(maxsize=None)
def _groupings(n: int) -> tuple[tuple[OutcomePartition, ...], np.ndarray]:
    """Every partition of 1..n and the (pairs, n) block masks of all its
    (partition, block) pairs, in partition then block order.

    Built on first use per dimension and kept; the mask array is read-only
    because every caller shares it.
    """
    partitions = tuple(OutcomePartition(blocks) for blocks in iter_partitions(n))
    masks = np.concatenate([p.block_masks() for p in partitions])
    masks.setflags(write=False)
    return partitions, masks


def correspondence_batch(
    amplitudes: np.ndarray,
    basis: np.ndarray | None = None,
    tol: float = 1e-12,
) -> CorrespondenceReport:
    """Compare the Hilbert route against the simplex route for many states.

    amplitudes is an (S, n) complex array, one state per row; each row's
    norm must be 1 within NORM_TOL and is then renormalized.  basis (rows
    are the eigenvectors, default the computational basis) must be
    orthonormal within NORM_TOL.  A row's squared moduli in the eigenbasis
    define a barycentric vector x.  For every partition of the basis
    indices, the row's block Born probabilities must match the block sums
    of x, and for every block of nonzero weight the squared moduli of the
    collapsed state must match the renormalized restriction of x.  The
    report holds each row's largest absolute difference over all of these
    and its verdict against tol, as (S,) arrays, and the number of
    partitions checked per row.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] < 2:
        raise ValueError(f"need an (S, n) array of amplitudes with n >= 2, got {amps.shape}")
    n = amps.shape[1]
    base = np.eye(n, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
    if base.shape != (n, n):
        raise ValueError(f"eigenbasis must be {n} x {n}, got shape {base.shape}")
    if not np.max(np.abs(base.conj() @ base.T - np.eye(n))) <= NORM_TOL:
        raise ValueError("eigenbasis is not orthonormal")
    norms = np.linalg.norm(amps, axis=1)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if off.size:
        raise ValueError(f"state norm {norms[off[0]]} of row {off[0]} is not 1 within {NORM_TOL}")
    partitions, masks = _groupings(n)

    # Hilbert route: coordinates c = <a_i|psi> and Born block sums of |c|^2.
    coords = (amps / norms[:, None]) @ base.conj().T
    moduli = np.abs(coords) ** 2
    born = moduli @ masks.T.astype(float)
    collapse_gap = _collapsed_moduli(coords, masks, born, base)

    # Simplex route on x: block sums and restrictions from the library.
    x = moduli / moduli.sum(axis=1, keepdims=True)
    law = np.concatenate([p.aggregate(x) for p in partitions], axis=1)
    collapse_gap -= restrict(x[:, None, :], masks)[1]

    np.abs(collapse_gap, out=collapse_gap)
    # a block the simplex route gives zero weight cannot fire: no collapse
    collapse_gap[law == 0.0] = 0.0
    worst = np.maximum(np.abs(born - law).max(axis=1), collapse_gap.max(axis=(1, 2)))
    return CorrespondenceReport(worst <= tol, worst, len(partitions))


def _collapsed_moduli(
    coords: np.ndarray, masks: np.ndarray, born: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """(S, pairs, n) squared moduli, in the eigenbasis, of each state after
    each (partition, block) pair fires: the coordinates projected onto the
    block, renormalized, mapped back through the basis and measured again.

    A block of zero Born weight projects to zero.  Each step replaces the
    previous array, which keeps two (S, pairs, n) arrays alive at most.
    """
    post = np.where(masks, coords[:, None, :], 0.0)
    post /= np.sqrt(np.where(born == 0.0, 1.0, born))[..., None]
    post = post @ base
    post = post @ base.conj().T
    return np.abs(post) ** 2
