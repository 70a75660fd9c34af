"""Deterministic sharded Monte Carlo execution.

Work is split into fixed-size blocks of trials.  Block i always draws from
the generator seeded with (seed, spawn_key=i), and every block returns
integer tallies, whose sum is exact in any order, so the final numbers are
byte-identical for a given (seed, BLOCK_SIZE) no matter how many workers
run the blocks or in which order they finish.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

__all__ = ["BLOCK_SIZE", "block_rng", "run_sharded"]

BLOCK_SIZE = 1 << 16


def block_rng(seed: int, index: int) -> np.random.Generator:
    """The generator assigned to block `index` of a run seeded with `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def run_sharded(
    total: int,
    seed: int,
    block_fn: Callable[[np.random.Generator, int], np.ndarray],
    workers: int = 1,
) -> np.ndarray:
    """Sum of block_fn(rng_i, count_i) over blocks of BLOCK_SIZE trials
    covering `total`.

    block_fn must depend only on its arguments and return an integer array
    of tallies (counts, not frequencies: divide after the sum); a float or
    bool result raises TypeError, since only integer addition is exact in
    any order.  T = min(workers, number of blocks, CPU count) threads run
    the blocks, and none when T is 1, since more threads than CPUs add
    memory and wall time but change no result.  Thread t runs blocks t,
    t + T, t + 2T, ... and adds each result into its own running sum, and
    the calling thread adds the T sums, so no list of results is kept and
    the memory a run holds does not grow with its number of blocks.  A
    block that raises surfaces as its own exception once the other threads
    have finished their strides.
    """
    if total <= 0:
        raise ValueError(f"need a positive total, got {total}")
    size = BLOCK_SIZE
    blocks = -(-total // size)
    threads = max(1, min(workers, blocks, os.cpu_count() or 1))

    def stride(t: int) -> np.ndarray:
        acc = 0
        for i in range(t, blocks, threads):
            r = np.asarray(block_fn(block_rng(seed, i), min(size, total - i * size)))
            if r.dtype.kind not in "iu":
                raise TypeError(f"a block must return integer tallies, not {r.dtype}")
            acc = acc + r
        return acc

    if threads == 1:
        return stride(0)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(stride, range(threads)))
