"""Self-tests of the benchmark itself.

    python3 -m pytest bench

They check that tracing changes no output byte and restores every binding,
that the generator is deterministic in its seed, that the wrappers miss no
call, and that at one worker the traced self times add up to the run time.
"""

from __future__ import annotations

import json
import math
import sys

import pytest

from run import SRC, layer_metrics, merge_layers, op_env, run_op
from tracer import BLOCK, SHARDED, TARGETS, Tracer, summarize
from workloads import WORKLOADS, check, configs

sys.path.insert(0, str(SRC))


def _run(tmp_path, name, config, workers="default", traced=False):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    trace = tmp_path / f"{name}.spans.json" if traced else None
    op = run_op(config, cfg, tmp_path / f"{name}.{traced}.out", workers, trace, op_env())
    assert op.problems == []
    return op


SMALL = {
    "utr": {"kind": "utr", "seed": 11, "params": {
        "x": [0.1, 0.2, 0.3, 0.4], "blocks": [[1, 2], [3], [4]], "trials": 300_000}},
    "gtr": {"kind": "gtr", "seed": 12, "params": {
        "mode": "nd", "x": [0.1, 0.2, 0.3, 0.4], "samples_per_cell": 512,
        "density": {"type": "cellular", "n_outcomes": 4, "n_cells": 8, "breakable": [2, 7]}}},
    "universal_mc": {"kind": "universal", "seed": 13, "params": {
        "x": [0.2, 0.3, 0.5], "method": "mc", "cell_counts": [9], "density_samples": 600,
        "point_samples": 16}},
    "oracle": {"kind": "oracle", "seed": 14, "params": {"dims": [2, 3, 4, 5], "states": 4}},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_output_bytes_unchanged(tmp_path, name):
    plain = _run(tmp_path, name, SMALL[name])
    traced = _run(tmp_path, name, SMALL[name], traced=True)
    assert traced.layers
    assert plain.sha256 == traced.sha256


def test_uninstall_restores_every_binding():
    import trm.cli  # noqa: F401  (loads every module the CLI uses)

    def bindings():
        found = {}
        for modname, mod in sys.modules.items():
            if modname == "trm" or modname.startswith("trm."):
                found.update({(modname, k): v for k, v in vars(mod).items()})
        for modname, path, _, _ in TARGETS:
            if "." in path:
                cls, attr = path.split(".")
                found[(modname, path)] = vars(getattr(sys.modules[modname], cls))[attr]
        return found

    before = bindings()
    tracer = Tracer()
    tracer.install()
    during = bindings()
    tracer.uninstall()
    after = bindings()
    changed = {key for key in before if during[key] is not before[key]}
    # aliases are caught: utr.collapse is also bound in cli, hilbert and the package
    assert {("trm.cli", "utr_collapse"), ("trm.hilbert", "utr_collapse"), ("trm", "collapse"),
            ("trm.cli", "hilbert_collapse"), ("trm.utr", "regions_of_batch"),
            ("trm.simplex", "BarycentricVector.__post_init__")} <= changed
    assert all(after[key] is before[key] for key in before)


def test_generator_is_deterministic_in_its_seed():
    for workload in WORKLOADS:
        first, again, other = configs(workload, 7), configs(workload, 7), configs(workload, 8)
        assert first == again
        for (name, a), (other_name, b) in zip(first, other):
            assert name == other_name
            assert a["seed"] != b["seed"]
            assert a["params"].get("x") != b["params"].get("x") or "x" not in a["params"]
            # only the seed and the state change; sizes stay fixed
            assert {k: v for k, v in a["params"].items() if k != "x"} == {
                k: v for k, v in b["params"].items() if k != "x"}


def _partition_counts(n):
    """(number of set partitions of n items, total blocks over all of them),
    from the Stirling numbers of the second kind."""
    s = [[0] * (n + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for i in range(1, n + 1):
        for k in range(1, i + 1):
            s[i][k] = k * s[i - 1][k] + s[i - 1][k - 1]
    return sum(s[n]), sum(k * s[n][k] for k in range(n + 1))


def test_wrappers_miss_no_call(tmp_path):
    oracle = SMALL["oracle"]
    states, dims = oracle["params"]["states"], oracle["params"]["dims"]
    m = layer_metrics(_run(tmp_path, "oracle", oracle, traced=True).layers, 0)
    # random complex states have no zero amplitude, so every block collapses
    partitions = sum(states * _partition_counts(n)[0] for n in dims)
    blocks = sum(states * _partition_counts(n)[1] for n in dims)
    assert m["hilbert.born_probabilities.calls"] == partitions
    assert m["utr.outcome_probabilities.calls"] == partitions
    assert m["utr.collapse.calls"] == blocks
    assert m["hilbert.collapse.calls"] == blocks

    utr = SMALL["utr"]
    trials = utr["params"]["trials"]
    m = layer_metrics(_run(tmp_path, "utr", utr, traced=True).layers, 0)
    assert m["utr.run_batch.calls"] == m["shards.blocks"] == math.ceil(trials / 65536)
    assert m["simplex.regions_of_batch.rows"] - m["simplex.tie_rows"] == trials
    assert m["simplex.sample_uniform_batch.rows"] == m["simplex.regions_of_batch.rows"]


@pytest.mark.parametrize("name", ["utr", "gtr"])
def test_gates_reject_a_shifted_law(tmp_path, name):
    config = SMALL[name]
    op = _run(tmp_path, name, config)
    doc = json.loads((tmp_path / f"{name}.False.out").read_text())
    result = doc["result"]
    if name == "utr":
        shift = result["trials"] // 50
        result["counts"][0] += shift
        result["counts"][1] -= shift
    else:
        result["probabilities"][0] += 0.05
        result["probabilities"][1] -= 0.05
    assert op.problems == [] and check(config, doc)


def test_parallel_eff_counts_idle_workers():
    # one run_sharded call with workers=2 whose two 1 s blocks ran one after
    # the other on a single thread: half the capacity was used
    doc = {"names": [SHARDED, BLOCK],
           "spans": [[1, 0, 1, 7, 0.0, 1.0, 10, 0], [2, 0, 1, 7, 1.0, 2.0, 10, 0],
                     [0, -1, 0, 7, 0.0, 2.0, 2, 0]]}
    m = layer_metrics(summarize(doc), 0)
    assert m["shards.parallel_eff"] == pytest.approx(0.5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_run_time_at_one_worker(tmp_path, workload):
    ops = [_run(tmp_path, name, config, workers="1", traced=True)
           for name, config in configs(workload, 1)]
    self_total = sum(agg["self_s"] for agg in merge_layers(ops).values())
    run_total = sum(op.run_s for op in ops)
    assert abs(self_total - run_total) <= 0.05 * run_total
