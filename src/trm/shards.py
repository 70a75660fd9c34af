"""Deterministic sharded Monte Carlo execution.

Work is split into fixed-size blocks of trials.  Block i always draws from
the generator seeded with (seed, spawn_key=i), and block results are
reduced in index order, so the final numbers are byte-identical for a given
(seed, BLOCK_SIZE) no matter how many workers run the blocks or in which
order they finish.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

__all__ = ["BLOCK_SIZE", "block_rng", "run_sharded"]

BLOCK_SIZE = 1 << 16

# Blocks per thread submitted to the pool and not yet added into the sum:
# enough that no thread waits for work while the sum catches up.
WINDOW = 2


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

    block_fn must depend only on its arguments; the reduction happens in
    block-index order regardless of completion order.  At most
    min(workers, number of blocks, CPU count) threads run the blocks, and
    none when that is 1, since more threads than CPUs add memory and wall
    time but change no result; each block's result is added into the sum
    as soon as it is its turn, so no list of results is kept.  Each block's trial count follows
    from its index, and at most WINDOW blocks per thread are submitted and
    not yet added, so the memory a run holds does not grow with its number
    of blocks.
    """
    if total <= 0:
        raise ValueError(f"need a positive total, got {total}")
    size = BLOCK_SIZE
    blocks = -(-total // size)

    def one(i: int) -> np.ndarray:
        return np.asarray(block_fn(block_rng(seed, i), min(size, total - i * size)))

    threads = min(workers, blocks, os.cpu_count() or 1)
    if threads <= 1:
        return _sum(map(one, range(blocks)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _sum(_in_order(pool, one, blocks, WINDOW * threads))


def _in_order(
    pool: ThreadPoolExecutor, fn: Callable[[int], np.ndarray], n: int, window: int
) -> Iterator[np.ndarray]:
    """fn(0), ..., fn(n - 1) run on pool and yielded in index order, with at
    most `window` of them submitted and not yet yielded."""
    pending: deque[Future] = deque()
    for i in range(n):
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, i))
    while pending:
        yield pending.popleft().result()


def _sum(results: Iterator[np.ndarray]) -> np.ndarray:
    """Sum of the results in the order they are yielded."""
    acc = next(results).copy()
    for r in results:
        acc += r
    return acc
