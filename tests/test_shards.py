"""Sharded execution must give the same numbers for any worker count."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import trm.shards
from trm import BarycentricVector, OutcomePartition, block_rng, run_batch, run_sharded
from trm.shards import BLOCK_SIZE


def counting_fn(rng, m):
    return np.array([m, rng.integers(0, 1000)])


def test_block_rng_is_deterministic_per_index():
    a = block_rng(7, 3).random(5)
    np.testing.assert_array_equal(a, block_rng(7, 3).random(5))
    assert not np.array_equal(a, block_rng(7, 4).random(5))
    assert not np.array_equal(a, block_rng(8, 3).random(5))


def test_blocks_cover_total_exactly():
    total = 3 * BLOCK_SIZE + 77
    out = run_sharded(total, 1, counting_fn, workers=2)
    assert out[0] == total


def test_worker_count_does_not_change_results():
    x = BarycentricVector((0.5, 0.3, 0.2))
    part = OutcomePartition.singletons(3)
    fn = lambda rng, m: run_batch(x, part, m, rng)
    total = 2 * BLOCK_SIZE + 1234  # exercises a partial final block
    baseline = run_sharded(total, 42, fn, workers=1)
    assert baseline.sum() == total
    for workers in (2, 4, 16):
        np.testing.assert_array_equal(run_sharded(total, 42, fn, workers=workers), baseline)


def test_different_seeds_differ():
    x = BarycentricVector((0.5, 0.5))
    part = OutcomePartition.singletons(2)
    fn = lambda rng, m: run_batch(x, part, m, rng)
    a = run_sharded(50_000, 1, fn)
    b = run_sharded(50_000, 2, fn)
    assert not np.array_equal(a, b)


def test_block_size_is_part_of_the_contract(monkeypatch):
    # changing the block layout legitimately changes the stream
    fn = counting_fn
    monkeypatch.setattr(trm.shards, "BLOCK_SIZE", 1000)
    a = run_sharded(5000, 9, fn)
    monkeypatch.setattr(trm.shards, "BLOCK_SIZE", 500)
    b = run_sharded(5000, 9, fn)
    assert a[0] == b[0] == 5000
    assert a[1] != b[1]


def test_input_validation():
    with pytest.raises(ValueError):
        run_sharded(0, 1, counting_fn)


def recording_pool(monkeypatch, cpus):
    """Record the thread count run_sharded asks for on a host of `cpus` CPUs."""
    asked = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(trm.shards, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(trm.shards.os, "cpu_count", lambda: cpus)
    return asked


def test_threads_never_outnumber_blocks(monkeypatch):
    asked = recording_pool(monkeypatch, 16)
    three = run_sharded(2 * BLOCK_SIZE + 500, 3, counting_fn, workers=16)
    assert asked == [3]
    one = run_sharded(BLOCK_SIZE - 200, 3, counting_fn, workers=16)
    assert asked == [3]
    monkeypatch.undo()
    np.testing.assert_array_equal(three, run_sharded(2 * BLOCK_SIZE + 500, 3, counting_fn))
    np.testing.assert_array_equal(one, run_sharded(BLOCK_SIZE - 200, 3, counting_fn))


def test_threads_never_outnumber_cpus(monkeypatch):
    # more threads than CPUs only add memory and wall time: a million
    # workers over 8 blocks on 3 CPUs ask for 3 threads, and an unknown CPU
    # count runs on the calling thread
    asked = recording_pool(monkeypatch, 3)
    many = run_sharded(8 * BLOCK_SIZE, 5, counting_fn, workers=10**6)
    assert asked == [3]
    monkeypatch.setattr(trm.shards.os, "cpu_count", lambda: None)
    assert run_sharded(8 * BLOCK_SIZE, 5, counting_fn, workers=10**6).tolist() == many.tolist()
    assert asked == [3]
    monkeypatch.undo()
    np.testing.assert_array_equal(many, run_sharded(8 * BLOCK_SIZE, 5, counting_fn))


def test_blocks_in_flight_are_bounded(monkeypatch):
    # submitting every block at once held about 1.5 kB per block, some 30 MB
    # for 20 000 blocks; a thread that runs its own stride of blocks into
    # one running sum holds a few kB whatever the block count.  The
    # generators are stubbed out, so only the scheduling is measured.
    blocks = 20_000
    monkeypatch.setattr(trm.shards, "block_rng", lambda seed, i: None)
    tracemalloc.start()
    try:
        out = run_sharded(blocks * BLOCK_SIZE, 1, lambda rng, m: np.array([m]), workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tolist() == [blocks * BLOCK_SIZE]
    assert peak < 1 << 20


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "result", [np.array([0.5]), np.array([1.0, 2.0]), np.array([True]), 0.25, True]
)
def test_a_block_that_is_not_an_integer_tally_is_refused(workers, result):
    # a float sum depends on the order of its terms; only integer tallies
    # sum to the same bytes whichever thread adds them
    with pytest.raises(TypeError, match="integer tallies"):
        run_sharded(3 * BLOCK_SIZE, 1, lambda rng, m: result, workers=workers)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_every_block_is_drawn_exactly_once(monkeypatch, workers):
    # 5 blocks, the last one partial, over 1 to 4 strides
    drawn = []
    monkeypatch.setattr(trm.shards, "block_rng", lambda seed, i: drawn.append(i) or i)
    monkeypatch.setattr(trm.shards.os, "cpu_count", lambda: 4)
    total = 4 * BLOCK_SIZE + 99
    out = run_sharded(total, 1, lambda i, m: np.array([1, m, i]), workers=workers)
    assert sorted(drawn) == [0, 1, 2, 3, 4]
    assert out.tolist() == [5, total, 0 + 1 + 2 + 3 + 4]


class BlockFault(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_a_raising_block_surfaces_its_own_exception(workers):
    def fn(rng, m):
        if m < BLOCK_SIZE:
            raise BlockFault("the partial block")
        return np.array([m])

    with pytest.raises(BlockFault, match="the partial block"):
        run_sharded(3 * BLOCK_SIZE + 5, 1, fn, workers=workers)
