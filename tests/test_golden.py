"""Golden outputs: the sha256 of the JSON output of one small config per
sampled CLI route.

The CLI output of a fixed config and seed is meant to stay byte-identical
across refactors; only a change that deliberately moves a random stream or
a float result may alter it, and then it updates the hash here and says so.
c10 covers worker invariance; this covers the bytes themselves.
"""

import hashlib
import json

import pytest

from trm import cli

GOLDEN = {
    "utr_blocks": (
        {"kind": "utr", "seed": 11,
         "params": {"x": [0.1, 0.2, 0.3, 0.4], "blocks": [[1, 4], [2], [3]], "trials": 100000}},
        "78969919d120d978ef326ab8c437db2bc3504ca848b7e6e4a5f4cde4553c2c1e",
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
    "gtr_nd_n3": (
        {"kind": "gtr", "seed": 14,
         "params": {"mode": "nd", "x": [0.2, 0.3, 0.5], "blocks": [[1, 3], [2]],
                    "samples_per_cell": 2000,
                    "density": {"type": "cellular", "n_outcomes": 3, "n_cells": 9,
                                "breakable": [1, 3, 4, 8]}}},
        "3747aecc7fedc96524665a5821038624cda532b88df12ac62400c71ac4cbe142",
    ),
    "gtr_nd_n4": (
        {"kind": "gtr", "seed": 15,
         "params": {"mode": "nd", "x": [0.1, 0.2, 0.3, 0.4], "samples_per_cell": 1000,
                    "density": {"type": "cellular", "n_outcomes": 4, "n_cells": 8,
                                "breakable": [1, 2, 5, 8]}}},
        "c4287221690b99f17681df9f96537cbdbdaa012721b23eb1f33089b3ab986e84",
    ),
    "universal_mc_n3_blocks": (
        {"kind": "universal", "seed": 16,
         "params": {"method": "mc", "x": [0.2, 0.3, 0.5], "blocks": [[1], [2, 3]],
                    "cell_counts": [4, 9], "density_samples": 300, "point_samples": 40}},
        "c50c7ee2efbc4408e6ce52fa65fa972bae2e7887a359f7f97d0c930593171115",
    ),
    "universal_mc_n4_slabs": (
        {"kind": "universal", "seed": 18,
         "params": {"method": "mc", "x": [0.1, 0.2, 0.3, 0.4], "blocks": [[1, 4], [2, 3]],
                    "cell_counts": [5, 16], "density_samples": 300, "point_samples": 40}},
        "2ed155c99e0483dabc9472c915733d3b9db2a951785d04f7af9772d67501e133",
    ),
    "utr_n6": (
        {"kind": "utr", "seed": 19,
         "params": {"x": [0.05, 0.1, 0.15, 0.2, 0.22, 0.28],
                    "blocks": [[1, 6], [2, 3], [4], [5]], "trials": 100000}},
        "f9f101cef48fce9e030092c09b42efec0b04e332c386b5e557a6fab9e2dcd4e8",
    ),
    "oracle": (
        {"kind": "oracle", "seed": 17, "params": {"dims": [2, 3, 4, 5], "states": 40}},
        "43c6bf4aaf1c0092f5a2f09871d1fbf185ce2095fa7017e8be7fe702461c146b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(tmp_path, name):
    doc, digest = GOLDEN[name]
    cfg, out = tmp_path / "config.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg), "--workers", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
