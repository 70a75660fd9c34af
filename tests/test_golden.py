"""Golden outputs: the sha256 of the JSON output of one small config per
sampled CLI route, and of the sphere and classify routes.

The CLI output of a fixed config and seed is meant to stay byte-identical
across refactors; only a change that deliberately moves a random stream or
a float result may alter it, and then it updates the hash here and says so.
c10 covers worker invariance; this covers the bytes themselves.
"""

import hashlib
import json

import pytest

from trm import cli

pytestmark = pytest.mark.stream

GOLDEN = {
    "utr_blocks": (
        {"kind": "utr", "seed": 11,
         "params": {"x": [0.1, 0.2, 0.3, 0.4], "blocks": [[1, 4], [2], [3]], "trials": 100000}},
        "29635e55cfe6b5f0d7f45b47132ee8072e1952e499ed0cdcaf947a404f36ae4f",
    ),
    "utr_vertex": (
        {"kind": "utr", "seed": 12,
         "params": {"x": [0.0, 1.0, 0.0], "blocks": [[1, 2], [3]], "trials": 1000}},
        "224f41136e5aa848473df3af941da16319a654a23753bef5681ef6fbeb35041b",
    ),
    "gtr_1d_trials": (
        {"kind": "gtr", "seed": 13,
         "params": {"mode": "1d", "cos_theta": 0.3, "trials": 100000,
                    "density": {"type": "piecewise", "breakpoints": [-0.5, 0.0, 0.6],
                                "masses": [0.3, 0.7]}}},
        "36183abdb9d5cd852572f280f6e2706416556ef2f8f4b56e69853ef1c693b185",
    ),
    "gtr_1d_double_point_trials": (
        {"kind": "gtr", "seed": 24,
         "params": {"mode": "1d", "cos_theta": 1.0, "trials": 100000,
                    "density": {"type": "double_point", "a": 0.3, "b": 0.7}}},
        "0ce782a3123a1a0964ecc1d2d151ee181dff7354efab6a97e10f3c26cc20c368",
    ),
    "gtr_1d_epsilon_trials": (
        {"kind": "gtr", "seed": 25,
         "params": {"mode": "1d", "cos_theta": -0.2, "trials": 100000,
                    "density": {"type": "epsilon", "epsilon": 0.6}}},
        "e190bf47e2951a33b2185089e15ec018623831d6cd41cffaf9475f7731c9884c",
    ),
    "gtr_nd_n3": (
        {"kind": "gtr", "seed": 14,
         "params": {"mode": "nd", "x": [0.2, 0.3, 0.5], "blocks": [[1, 3], [2]],
                    "density": {"type": "cellular", "n_outcomes": 3, "n_cells": 9,
                                "breakable": [1, 3, 4, 8]}}},
        "7c126eabb6c75325feec7e344b9f81ac6e4df334044f7aec98095df6d83a083f",
    ),
    "gtr_nd_n4": (
        {"kind": "gtr", "seed": 15,
         "params": {"mode": "nd", "x": [0.1, 0.2, 0.3, 0.4],
                    "density": {"type": "cellular", "n_outcomes": 4, "n_cells": 8,
                                "breakable": [1, 2, 5, 8]}}},
        "534049bfd60c3034b4a71aa5c613d27eb410d731c5e499b9e53df00e49a9b666",
    ),
    "universal_mc_n3_blocks": (
        {"kind": "universal", "seed": 16,
         "params": {"method": "mc", "x": [0.2, 0.3, 0.5], "blocks": [[1], [2, 3]],
                    "cell_counts": [4, 9], "density_samples": 300, "point_samples": 40}},
        "b46a33003b122c4127ec204bbfed585f04d5ed124c46539afddb05cf5ec4a15e",
    ),
    # three chunks of densities at 9 and 25 cells, eleven at 289 cells,
    # whose cell lists need uint16
    "universal_mc_n3_chunks": (
        {"kind": "universal", "seed": 26,
         "params": {"method": "mc", "x": [0.15, 0.35, 0.5], "cell_counts": [9, 25, 289],
                    "density_samples": 600, "point_samples": 64}},
        "396f5d87490c8e8b0a0359d8c3733f8b7a81929287fb64d2fed4d8f4d089ea80",
    ),
    "universal_mc_n4_slabs": (
        {"kind": "universal", "seed": 18,
         "params": {"method": "mc", "x": [0.1, 0.2, 0.3, 0.4], "blocks": [[1, 4], [2, 3]],
                    "cell_counts": [5, 16], "density_samples": 300, "point_samples": 40}},
        "af6ac7e43547ad36572cf42b69e913034105a3275636a4ac5a022581d9ce1001",
    ),
    "utr_n6": (
        {"kind": "utr", "seed": 19,
         "params": {"x": [0.05, 0.1, 0.15, 0.2, 0.22, 0.28],
                    "blocks": [[1, 6], [2, 3], [4], [5]], "trials": 100000}},
        "71e291223d78b0353c2fc1689177a2c68b64f6c465a0719ca8cd98ca2a7c1c25",
    ),
    "oracle": (
        {"kind": "oracle", "seed": 17, "params": {"dims": [2, 3, 4, 5], "states": 40}},
        "17fea29fabe3528764565dab015083c240c4c95e7e602cf000d5ab2025b68675",
    ),
    "sphere_counterexample_eps_0_3": (
        {"kind": "sphere", "seed": 20, "params": {"mode": "counterexample", "epsilon": 0.3}},
        "caf4837fcd24e7a3f0caa9b5e3e693445fb1a1e91715ac0036554c95199986b8",
    ),
    "sphere_counterexample_eps_1": (
        {"kind": "sphere", "seed": 21, "params": {"mode": "counterexample", "epsilon": 1.0}},
        "532ada1a429fe89fdcd1382ff0ae0a40f123c96ee02381d23102fcbb55f4441d",
    ),
    "sphere_sequential": (
        {"kind": "sphere", "seed": 22,
         "params": {"mode": "sequential", "initial": [0.7071067811865476, 0.0, 0.0],
                    "density": {"type": "epsilon", "epsilon": 0.9},
                    "steps": [{"direction": [0.5, 0.5, 0.0], "sign": 1},
                              {"direction": [-0.5, 0.5, 0.0], "sign": -1},
                              {"direction": [0.0, 0.0, 0.7071067811865476], "sign": 1}]}},
        "37fa6a02cd86e8f08eb63d1ccb4b9522dc84e4f8d35a2af4a859d209611d8570",
    ),
    "classify": (
        {"kind": "classify", "seed": 23,
         "params": {"bundle": {
             "joints": [{"p_vw": 0.5, "p_uw": 0.25, "p_ucv": 0.25},
                        {"p_vw": 0.9, "p_uw": 0.1, "p_ucv": 0.2}],
             "transitions": [{"p_ab": 0.5, "p_bc": 0.5, "p_ac": 0.5},
                             {"p_ab": 1.0, "p_bc": 1.0, "p_ac": 0.0}]}}},
        "8e878152ef50bfba1a0555d64c05c3b2e0d94271b4d9aaeaf53ba6ce509ab952",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(tmp_path, name):
    doc, digest = GOLDEN[name]
    cfg, out = tmp_path / "config.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg), "--workers", "1", "--out", str(out)]) == 0
    computed = hashlib.sha256(out.read_bytes()).hexdigest()
    assert computed == digest, f"golden {name!r} now hashes to {computed}"
