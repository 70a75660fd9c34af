"""End-to-end runs of the command line interface: in subprocesses, and
in-process where a test replaces one of its parts."""

import ast
import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trm
from trm import cli, hilbert
from trm.cells import MAX_CELLS
from trm.errors import BRIEF_CHARS, brief
from trm.hilbert import correspondence_batch
from trm.shards import block_rng

FIXTURE = Path(__file__).parent / "data" / "kolmogorov_not_qubit.json"


def run_cli(*args, env_seed=None, cwd=None):
    import os

    env = dict(os.environ)
    env.pop("TRM_SEED", None)
    if env_seed is not None:
        env["TRM_SEED"] = str(env_seed)
    return subprocess.run(
        [sys.executable, "-m", "trm.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


@pytest.fixture
def utr_config(tmp_path):
    return write_config(
        tmp_path,
        "utr.json",
        {"kind": "utr", "seed": 123, "params": {"x": [0.5, 0.3, 0.2], "trials": 50_000}},
    )


def test_run_utr_payload_shape(utr_config):
    proc = run_cli("run", utr_config)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "utr"
    assert payload["seed"] == 123
    assert payload["version"] == trm.__version__
    assert len(payload["config_sha256"]) == 64
    result = payload["result"]
    assert result["trials"] == 50_000
    assert sum(result["counts"]) == 50_000
    assert result["within_four_sigma"] is True


def test_worker_count_is_invisible_in_output(tmp_path, utr_config):
    outs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}.json"
        proc = run_cli("run", utr_config, "--workers", workers, "--out", out)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_repeated_runs_are_byte_identical(utr_config):
    a = run_cli("run", utr_config)
    b = run_cli("run", utr_config)
    assert a.stdout == b.stdout


def test_env_seed_overrides_config(utr_config):
    a = run_cli("run", utr_config)
    b = run_cli("run", utr_config, env_seed=999)
    pa, pb = json.loads(a.stdout), json.loads(b.stdout)
    assert pa["seed"] == 123 and pb["seed"] == 999
    assert pa["result"]["counts"] != pb["result"]["counts"]


def test_config_seed_is_checked_under_env_seed(tmp_path):
    cfg = write_config(
        tmp_path, "badseed.json",
        {"kind": "oracle", "seed": "abc", "params": {"dims": [2], "states": 1}},
    )
    assert_rejected(run_cli("run", cfg, env_seed=5), 2)


def test_missing_seed_is_a_schema_error(tmp_path):
    cfg = write_config(tmp_path, "noseed.json", {"kind": "utr", "params": {}})
    proc = run_cli("run", cfg)
    assert proc.returncode == 2
    assert "seed" in proc.stderr


def test_malformed_json_is_a_schema_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert run_cli("run", p).returncode == 2


@pytest.mark.parametrize(
    "kind",
    ["weird", [], {}, 1, None, True, "utr "],
    ids=["weird", "list", "object", "number", "null", "true", "padded"],
)
def test_unknown_kind_is_a_schema_error(tmp_path, kind):
    # a kind that is not a string must not reach a dict lookup, where a
    # list or an object would raise TypeError (unhashable) as a traceback
    cfg = write_config(tmp_path, "weird.json", {"kind": kind, "seed": 1, "params": {}})
    proc = run_cli("run", cfg)
    assert_rejected(proc, 2)
    # the kinds are listed in the order the runners are registered
    kinds = "['utr', 'gtr', 'universal', 'sphere', 'classify', 'oracle']"
    assert proc.stderr.endswith(f" must be one of {kinds}\n"), proc.stderr


def test_non_string_mode_is_a_schema_error(tmp_path):
    cfg = write_config(
        tmp_path, "mode.json", {"kind": "gtr", "seed": 1, "params": {**_gtr_1d(), "mode": []}}
    )
    assert_rejected(run_cli("run", cfg), 2)


def test_kind_subcommand_mismatch(tmp_path, utr_config):
    assert run_cli("sphere", utr_config).returncode == 2


def test_domain_error_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "kind": "gtr",
            "seed": 1,
            "params": {"mode": "1d", "cos_theta": 0.3,
                       "density": {"type": "epsilon", "epsilon": -2.0}},
        },
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 3
    assert "epsilon" in proc.stderr


def _gtr_1d(density=None, cos_theta=0.3):
    density = density or {"type": "uniform"}
    return {"mode": "1d", "cos_theta": cos_theta, "density": density}


def _gtr_nd(cellular):
    return {"mode": "nd", "x": [0.25] * 4, "density": {"type": "cellular", **cellular}}


@pytest.mark.parametrize(
    "kind, params, code",
    [
        ("utr", {"x": [float("nan"), 0.5], "trials": 10}, 2),
        ("utr", {"x": [True, False], "trials": 10}, 2),
        ("utr", {"x": [10**400, 1], "trials": 10}, 3),
        ("utr", {"x": [0.5, 0.5], "blocks": [[1, None]], "trials": 10}, 2),
        ("utr", {"x": [0.5, 0.5], "blocks": [[1], [True]], "trials": 10}, 2),
        ("oracle", {"dims": [2], "states": 1, "tolerance": float("nan")}, 2),
        ("oracle", {"dims": [2], "states": 1, "tolerance": float("inf")}, 2),
        ("oracle", {"dims": [2], "states": 1, "tolerance": True}, 2),
        ("oracle", {"dims": [2], "states": 1, "tolerance": 10**400}, 3),
        ("gtr", _gtr_1d(cos_theta=True), 2),
        ("gtr", _gtr_1d({"type": "epsilon", "epsilon": True}), 2),
        ("gtr", _gtr_1d({"type": "point", "z0": True}), 2),
        ("gtr", _gtr_1d({"type": "double_point", "a": 0.2, "b": False}), 2),
        ("gtr", _gtr_1d({"type": "piecewise", "breakpoints": [-0.7, True, 0.7],
                         "masses": [0.5, 0.5]}), 2),
        ("gtr", _gtr_1d({"type": "piecewise", "breakpoints": [-0.7, 0.0, 0.7],
                         "masses": [0.5, True]}), 2),
        ("gtr", _gtr_nd({"n_outcomes": 4, "n_cells": 4.7, "breakable": [1]}), 2),
        ("gtr", _gtr_nd({"n_outcomes": 4.0, "n_cells": 4, "breakable": [1]}), 2),
        ("gtr", _gtr_nd({"n_outcomes": 4, "n_cells": 4, "breakable": [1, True]}), 2),
        ("gtr", _gtr_nd({"n_outcomes": 4, "n_cells": 4, "breakable": [1, 2.5]}), 2),
        ("sphere", {"mode": "counterexample", "epsilon": True}, 2),
        ("sphere", {"mode": "sequential", "density": {"type": "uniform"},
                    "initial": [True, 0, 0], "steps": [{"direction": [0, 0, 1], "sign": 1}]}, 2),
        ("sphere", {"mode": "sequential", "density": {"type": "uniform"},
                    "initial": [0, 0, 0.5**0.5],
                    "steps": [{"direction": [0, False, 0.5**0.5], "sign": 1}]}, 2),
        ("sphere", {"mode": "sequential", "density": {"type": "uniform"},
                    "initial": [0, 0, 0.5**0.5],
                    "steps": [{"direction": [0, 0, 0.5**0.5], "sign": True}]}, 2),
        ("classify", {"bundle": {"joints": [{"p_vw": True, "p_uw": 0.5, "p_ucv": 0.5}]}}, 2),
        # unknown fields, at every level of the document
        ("universal", {"x": [0.5, 0.5], "cell_counts": [4], "method": "mc",
                       "density_sample": 10, "point_samples": 10}, 2),
        ("gtr", _gtr_1d({"type": "uniform", "epsilon": 0.3}), 2),
        ("classify", {"bundle": {"joint": [{"p_vw": 0.5, "p_uw": 0.5, "p_ucv": 0.5}]}}, 2),
        ("sphere", {"mode": "sequential", "density": {"type": "uniform"},
                    "initial": [0, 0, 0.5**0.5],
                    "steps": [{"direction": [0, 0, 0.5**0.5], "sign": 1, "weight": 2}]}, 2),
        ("oracle", {"dims": [2], "states": 1, "inject_fault": "no"}, 2),
        ("gtr", {**_gtr_1d(), "samples_per_cell": 16}, 2),
        ("universal", {"x": [0.5, 0.5], "cell_counts": [4], "method": "exact",
                       "density_samples": 10}, 2),
        ("universal", {"x": [0.5, 0.5], "cell_counts": [4], "n_cells": 5}, 2),
        ("universal", {"x": [0.5, 0.5]}, 2),
        # NaN and Infinity are not JSON numbers
        ("gtr", _gtr_1d({"type": "double_point", "a": float("nan"), "b": 0.5}), 2),
        ("gtr", _gtr_1d({"type": "piecewise", "breakpoints": [-0.7, 0.7],
                         "masses": [float("nan")]}), 2),
        ("gtr", _gtr_1d(cos_theta=float("inf")), 2),
        ("oracle", {"dims": [], "states": 1}, 2),
        # one cell more than any subdivision holds
        ("universal", {"x": [0.5, 0.5], "cell_counts": [MAX_CELLS + 1]}, 3),
        ("universal", {"x": [0.5, 0.5], "cell_counts": [MAX_CELLS + 1], "method": "mc",
                       "density_samples": 2, "point_samples": 1}, 3),
        ("gtr", _gtr_nd({"n_outcomes": 4, "n_cells": MAX_CELLS + 1, "breakable": [1]}), 3),
        # n_cells is not a universal field: cell_counts gives every count
        ("universal", {"x": [0.5, 0.5], "n_cells": 4}, 2),
        # a repeated index is refused, not merged; so is an empty block
        ("utr", {"x": [0.5, 0.5], "blocks": [[1, 1], [2]], "trials": 10}, 3),
        ("gtr", _gtr_nd({"n_outcomes": 4, "n_cells": 4, "breakable": [1, 1, 2]}), 3),
        ("utr", {"x": [0.5, 0.5], "blocks": [[1], []], "trials": 10}, 3),
        # a dimension beyond what the oracle supports
        ("oracle", {"dims": [9], "states": 1}, 2),
        # well-formed values that no density or partition accepts
        ("gtr", _gtr_1d({"type": "double_point", "a": 0.3, "b": 0.3}), 3),
        ("gtr", _gtr_1d({"type": "piecewise", "breakpoints": [0.1], "masses": []}), 3),
        ("gtr", {"mode": "nd", "x": [0.25] * 4, "density": {"type": "epsilon", "epsilon": 0.5}},
         3),
        ("gtr", _gtr_nd({"n_outcomes": 3, "n_cells": 4, "breakable": [1]}), 3),
        ("utr", {"x": [0.5, 0.5], "blocks": [], "trials": 10}, 3),
    ],
)
def test_malformed_values_are_rejected_without_output(tmp_path, kind, params, code):
    cfg = write_config(tmp_path, "bad.json", {"kind": kind, "seed": 1, "params": params})
    assert_rejected(run_cli("run", cfg), code)


def test_unknown_top_level_field_is_rejected_without_output(tmp_path):
    doc = {"kind": "oracle", "seed": 1, "params": {"dims": [2], "states": 1}, "note": "x"}
    assert_rejected(run_cli("run", write_config(tmp_path, "bad.json", doc)), 2)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"kind": "utr", "seed": 1, "seed": 2, "params": {"x": [0.5, 0.5], "trials": 10}}',
         "seed"),
        ('{"kind": "utr", "seed": 1, "params": {"x": [0.5, 0.5], "trials": 10, "trials": 1000}}',
         "trials"),
        ('{"kind": "gtr", "seed": 1, "params": {"cos_theta": 0.5, '
         '"density": {"type": "epsilon", "epsilon": 0.5, "epsilon": 1.0}}}', "epsilon"),
        ('{"kind": "classify", "seed": 1, "params": {"bundle": {"joints": '
         '[{"p_vw": 0.5, "p_uw": 0.5, "p_ucv": 0.5, "p_uw": 0.2}]}}}', "p_uw"),
    ],
    ids=["top-level", "params", "density", "bundle-entry"],
)
def test_repeated_keys_are_rejected_without_output(tmp_path, text, key):
    cfg = tmp_path / "repeated.json"
    cfg.write_text(text)
    out = tmp_path / "out.json"
    proc = run_cli("run", cfg, "--out", out)
    assert_rejected(proc, 2)
    assert repr(key) in proc.stderr
    assert not out.exists()


def test_deeply_nested_config_is_rejected_without_output(tmp_path):
    # json.dumps cannot build this document: it recurses as the parser does
    depth = 10**5
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"kind": "oracle", "seed": 1, "x": ' + "[" * depth + "]" * depth + "}")
    proc = run_cli("run", cfg)
    assert_rejected(proc, 2)
    assert "nested" in proc.stderr


def test_config_that_is_not_utf8_is_rejected_without_output(tmp_path):
    cfg = tmp_path / "latin.json"
    cfg.write_bytes(b'{"kind": "oracle", "seed": 1, "params": {"note": "\xff"}}')
    proc = run_cli("run", cfg)
    assert_rejected(proc, 2)
    assert "cannot read config" in proc.stderr


def _utr_config(seed="1", x="[0.5, 0.5]", blocks=None):
    params = f'"x": {x}' + ("" if blocks is None else f', "blocks": {blocks}')
    return '{"kind": "utr", "seed": ' + seed + ', "params": {' + params + "}}"


@pytest.mark.parametrize(
    "text, code, message",
    [
        (_utr_config(seed='"' + "s" * 5000 + '"'), 2, "config.seed must be an integer"),
        (_utr_config(seed="[" * 900 + "]" * 900), 2, "config.seed must be an integer"),
        (_utr_config(x=json.dumps([-0.5] + [0.0001] * 9999)), 3, "negative component in"),
        (_utr_config(blocks=json.dumps([[1] * 5000, [2]])), 3, "lists an outcome twice"),
    ],
    ids=["long-string", "nested-900", "long-state", "long-block"],
)
def test_rejected_values_are_quoted_briefly(tmp_path, text, code, message):
    # the message quotes the bad value, a config value or a state or
    # partition built from one, cut to about 80 characters, so one stderr
    # line stays short however long or deep the value is
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    proc = run_cli("run", cfg)
    assert_rejected(proc, code)
    assert message in proc.stderr
    assert len(proc.stderr.encode()) < 300


def test_brief_cuts_long_reprs():
    assert brief("ab") == "'ab'"
    assert brief([1] * 3) == "[1, 1, 1]"
    cut = brief("x" * 1000)
    assert len(cut) == BRIEF_CHARS and cut.endswith("…") and cut.startswith("'xxx")


def assert_rejected(proc, code):
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_is_an_argument_error(utr_config, workers):
    # they ran on one worker before, silently
    proc = run_cli("run", utr_config, "--workers", workers)
    assert_rejected(proc, 2)
    assert proc.stderr.startswith("argument error: --workers must be at least 1")


def test_gtr_one_dimensional_run(tmp_path):
    cfg = write_config(
        tmp_path,
        "gtr.json",
        {
            "kind": "gtr",
            "seed": 7,
            "params": {"mode": "1d", "cos_theta": 0.5, "trials": 40_000,
                       "density": {"type": "epsilon", "epsilon": 1.0}},
        },
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert abs(result["p_plus"] - 0.75) < 1e-12
    assert result["closed_form_deviation"] < 1e-12
    assert abs(result["mc_frequency_plus"] - 0.75) < 0.02


def test_gtr_one_dimensional_tie_is_a_fair_coin(tmp_path):
    # every break lands exactly on the particle, so each trial tosses a coin
    cfg = write_config(
        tmp_path,
        "tie.json",
        {
            "kind": "gtr",
            "seed": 5,
            "params": {"mode": "1d", "cos_theta": 0.0, "trials": 100_000,
                       "density": {"type": "point", "z0": 0.0}},
        },
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["p_plus"] == 0.5
    assert abs(result["mc_frequency_plus"] - 0.5) <= 4 * 0.5 / 100_000**0.5


def test_gtr_point_at_the_pole_is_clamped(tmp_path):
    # sqrt(0.5) is one ulp above Z_MAX; piecewise breakpoints clamp it too
    cfg = write_config(
        tmp_path,
        "pole.json",
        {
            "kind": "gtr",
            "seed": 5,
            "params": {"mode": "1d", "cos_theta": 1.0,
                       "density": {"type": "point", "z0": 0.7071067811865476}},
        },
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["p_plus"] == 0.5


def test_gtr_nd_ignores_samples_per_cell(tmp_path):
    # the nd law is exact; the field is still accepted and changes nothing
    params = {"mode": "nd", "x": [0.1, 0.2, 0.3, 0.4], "blocks": [[1, 4], [2], [3]],
              "density": {"type": "cellular", "n_outcomes": 4, "n_cells": 8,
                          "breakable": [1, 2, 5, 8]}}
    outputs = []
    for extra in ({}, {"samples_per_cell": 65536}):
        doc = {"kind": "gtr", "seed": 15, "params": {**params, **extra}}
        proc = run_cli("run", write_config(tmp_path, "nd.json", doc))
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0]["result"] == outputs[1]["result"]
    assert outputs[0]["config_sha256"] != outputs[1]["config_sha256"]
    assert "standard_errors" not in outputs[0]["result"]


def test_utr_subnormal_probability_keeps_its_sigma(tmp_path):
    # p(1 - p)/trials underflows to 0 at p = 5e-324; no warning either
    cfg = write_config(
        tmp_path,
        "tiny.json",
        {"kind": "utr", "seed": 1, "params": {"x": [5e-324, 0.5, 0.5], "trials": 1000}},
    )
    proc = run_cli("run", cfg, "--format", "json")
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["counts"][0] == 0
    assert result["within_four_sigma"] is True
    rows = run_cli("run", cfg, "--format", "csv").stdout.splitlines()
    assert float(rows[2].split(",")[3]) == math.sqrt(5e-324) / math.sqrt(1000)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "universal", "params": {"x": [5e-324, 0.2, 0.3, 0.5], "method": "exact",
                                         "cell_counts": [3]}},
        {"kind": "universal", "params": {"x": [5e-324, 1.0], "method": "exact",
                                         "cell_counts": [1, 4]}},
        {"kind": "gtr", "params": {"mode": "nd", "x": [5e-324, 0.2, 0.3, 0.5],
                                   "density": {"type": "cellular", "n_outcomes": 4,
                                               "n_cells": 8, "breakable": [1, 2, 5, 8]}}},
    ],
    ids=["universal-n4", "universal-n2", "gtr-nd-n4"],
)
def test_subnormal_first_component_on_slab_cells_warns_nothing(tmp_path, doc):
    # the slab law divides by x_1; the overflow to inf gives the right 0,
    # and must not print a RuntimeWarning
    proc = run_cli("run", write_config(tmp_path, "sub.json", {"seed": 1, **doc}))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)["result"]
    if doc["kind"] == "gtr":
        assert result["probabilities"][0] < 1e-300
    else:
        assert result["max_abs_deviation"] <= 1e-12


def test_universal_scan_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        "uni.json",
        {
            "kind": "universal",
            "seed": 3,
            "params": {"x": [0.25, 0.75], "cell_counts": [1, 2, 3], "method": "exact"},
        },
    )
    proc = run_cli("universal-scan", cfg, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# trm=")
    assert "seed=3" in lines[0] and "config_sha256=" in lines[0]
    assert lines[1] == "n_c,outcome_index,probability,stderr,deviation"
    assert len(lines) == 2 + 6
    for line in lines[2:]:
        dev = float(line.split(",")[-1])
        assert abs(dev) < 1e-12


def test_universal_scan_with_blocks(tmp_path):
    cfg = write_config(
        tmp_path,
        "uniblk.json",
        {
            "kind": "universal",
            "seed": 5,
            "params": {"x": [0.2, 0.3, 0.5], "cell_counts": [9], "method": "exact",
                       "blocks": [[1, 3], [2]]},
        },
    )
    proc = run_cli("universal-scan", cfg)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["blocks"] == [[1, 3], [2]]
    rows = result["scan"]
    assert [r["outcome_index"] for r in rows] == [1, 2]
    assert abs(rows[0]["probability"] - 0.7) < 1e-12
    assert abs(rows[1]["probability"] - 0.3) < 1e-12
    assert result["max_abs_deviation"] < 1e-12


def test_universal_scan_mc_worker_invariance(tmp_path, monkeypatch):
    # the universal mc route draws on the calling thread at any --workers,
    # so a thread pool that cannot be built changes nothing
    class NoThreads:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the universal route started a thread pool")

    monkeypatch.setattr(trm.shards, "ThreadPoolExecutor", NoThreads)
    cfg = write_config(
        tmp_path,
        "unimc.json",
        {
            "kind": "universal",
            "seed": 11,
            "params": {"x": [0.2, 0.3, 0.5], "cell_counts": [9], "method": "mc",
                       "density_samples": 600, "point_samples": 200},
        },
    )
    outs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"u{workers}.json"
        assert run_main("universal-scan", cfg, "--workers", workers, "--out", out) == (0, "", "")
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    rows = json.loads(outs[0])["result"]["scan"]
    for row in rows:
        assert abs(row["deviation"]) <= 4 * row["stderr"] + 1e-12


def test_sphere_counterexample_run(tmp_path):
    cfg = write_config(
        tmp_path,
        "sphere.json",
        {"kind": "sphere", "seed": 1, "params": {"mode": "counterexample", "epsilon": 0.7071}},
    )
    proc = run_cli("sphere", cfg)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["joints"] == [1.0, 0.0, 0.5]
    assert result["classical_violation"] is True
    assert result["qubit_ok"] is False


def test_sphere_sequential_run(tmp_path):
    cfg = write_config(
        tmp_path,
        "seq.json",
        {
            "kind": "sphere",
            "seed": 1,
            "params": {
                "mode": "sequential",
                "initial": [0.7071067811865476, 0.0, 0.0],
                "steps": [
                    {"direction": [0.5, 0.5, 0.0], "sign": 1},
                    {"direction": [-0.5, 0.5, 0.0], "sign": -1},
                ],
                "density": {"type": "epsilon", "epsilon": 1.0},
            },
        },
    )
    proc = run_cli("sphere", cfg)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert 0.0 < result["probability"] < 1.0


def test_classify_run(tmp_path):
    doc = json.loads(FIXTURE.read_text())
    cfg = write_config(
        tmp_path,
        "cls.json",
        {
            "kind": "classify",
            "seed": 0,
            "params": {"bundle": {"joints": doc["joints"], "transitions": doc["transitions"]}},
        },
    )
    proc = run_cli("classify", cfg)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["classical_ok"] is True
    assert result["qubit_ok"] is False


def test_oracle_compare_passes_and_fault_injection_fails(tmp_path):
    cfg = write_config(
        tmp_path,
        "oracle.json",
        {"kind": "oracle", "seed": 5, "params": {"dims": [2, 3], "states": 10}},
    )
    ok = run_cli("oracle-compare", cfg)
    assert ok.returncode == 0, ok.stderr
    result = json.loads(ok.stdout)["result"]
    assert result["ok"] is True and result["max_deviation"] < 1e-12

    # a tolerance below the rounding floor of the Born comparison fails
    strict = write_config(
        tmp_path,
        "strict.json",
        {"kind": "oracle", "seed": 5,
         "params": {"dims": [2, 3], "states": 10, "tolerance": 1e-300}},
    )
    bad = run_cli("oracle-compare", strict)
    assert bad.returncode == 1, bad.stderr
    result = json.loads(bad.stdout)["result"]
    assert result["ok"] is False
    assert result["max_deviation"] > result["tolerance"]


def test_oracle_checks_eight_outcomes(tmp_path):
    cfg = write_config(
        tmp_path, "oracle.json", {"kind": "oracle", "seed": 5, "params": {"dims": [8], "states": 3}}
    )
    proc = run_cli("run", cfg)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["ok"] is True and result["max_deviation"] < 1e-12


@pytest.mark.parametrize("where", ["missing/out.json", "."], ids=["no-directory", "directory"])
def test_unwritable_output_is_a_one_line_error(tmp_path, utr_config, where):
    out = tmp_path / where
    proc = run_cli("run", utr_config, "--out", out)
    assert_rejected(proc, 2)
    assert proc.stderr.startswith(f"output error: cannot write {out}")
    assert not (tmp_path / "missing").exists()


def run_main(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*map(str, args)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_result_is_a_one_line_domain_error(tmp_path, monkeypatch, fmt):
    def nan_runner(params, seed, workers):
        nan = float("nan")
        return {"max_deviation": nan, "ok": False}, [{"dim": 2, "max_deviation": nan}]

    monkeypatch.setitem(cli._RUNNERS, "oracle", nan_runner)
    cfg = write_config(tmp_path, "o.json", {"kind": "oracle", "seed": 1, "params": {"dims": [2]}})
    out = tmp_path / "out.txt"
    code, stdout, stderr = run_main("run", cfg, "--format", fmt)
    assert code == 3 and stdout == ""
    assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr
    assert run_main("run", cfg, "--format", fmt, "--out", out)[0] == 3
    assert not out.exists()


def test_oracle_chunks_draw_the_per_state_stream(tmp_path, monkeypatch):
    """A states count spanning several chunks checks the same states as
    drawing them one at a time with two normal(size=n) calls each, and
    reports the per-dim worst of those states checked one at a time."""
    seen = []

    def recording(amps, *args):
        seen.append(amps.copy())
        return correspondence_batch(amps, *args)

    monkeypatch.setattr(hilbert, "correspondence_batch", recording)
    dims, seed = [5, 8], 17
    # oracle_deviation checks CHUNK_BYTES // (48 n (2^n - 1)) states a call
    chunks = [max(1, hilbert.CHUNK_BYTES // (48 * n * ((1 << n) - 1))) for n in dims]
    states = 2 * max(chunks) + 5
    doc = {"kind": "oracle", "seed": seed, "params": {"dims": dims, "states": states}}
    cfg = write_config(tmp_path, "o.json", doc)
    code, stdout, _ = run_main("run", cfg, "--format", "csv")
    assert code == 0
    rows = stdout.splitlines()[2:]
    calls = [-(-states // c) for c in chunks]
    assert len(rows) == len(dims) and min(calls) >= 3 and len(seen) == sum(calls)
    ends = np.cumsum([0, *calls])
    for d_i, n in enumerate(dims):
        rng = block_rng(seed, d_i)
        reference = []
        for _ in range(states):
            raw = rng.normal(size=n) + 1j * rng.normal(size=n)
            reference.append(raw / np.linalg.norm(raw))
        reference = np.array(reference)
        checked = np.concatenate(seen[ends[d_i]:ends[d_i + 1]])
        np.testing.assert_allclose(checked, reference, rtol=0, atol=1e-15)
        worst = max(float(correspondence_batch(state[None, :])[0]) for state in checked)
        dim, count, reported = rows[d_i].split(",")
        assert (int(dim), int(count)) == (n, states)
        assert float(reported) == worst


def test_cli_imports_no_private_name_of_the_package():
    """The runners are a thin layer over the public library: cli.py imports
    no underscore-prefixed name from a trm module (a dunder such as
    __version__ is public)."""
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        f"{'.' * node.level}{node.module or ''} {alias.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "trm")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, private
