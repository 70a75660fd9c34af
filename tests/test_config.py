"""Config documents run through trm.cli.main in-process: the README's
examples, and fuzzed mutations of small valid configs."""

import contextlib
import copy
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trm.cells import MAX_CELLS
from trm.cli import main

README = Path(__file__).parent.parent / "README.md"


def run_main(path, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), "--workers", "1", *args])
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} in output")

    return json.loads(text, parse_constant=refuse)


def readme_examples():
    section = README.read_text().split("## Config reference")[1].split("\n## ")[0]
    return re.findall(r"```json\n(.*?)```", section, re.S)


def test_readme_lists_config_examples():
    assert len(readme_examples()) >= 8


@pytest.mark.parametrize(
    "example", [pytest.param(e, id=f"example{i}") for i, e in enumerate(readme_examples())]
)
def test_readme_config_examples_run(tmp_path, example):
    path = tmp_path / "example.json"
    path.write_text(example)
    code, out, err = run_main(path)
    assert code == 0, err
    assert strict_json(out)["kind"] == json.loads(example)["kind"]


SEQUENTIAL = {
    "mode": "sequential",
    "initial": [0.7071067811865476, 0.0, 0.0],
    "steps": [{"direction": [0.5, 0.5, 0.0], "sign": 1}],
    "density": {"type": "epsilon", "epsilon": 0.5},
}

# Cheap valid configs covering every kind, mode and density form.
BASES = [
    ("utr", {"x": [0.5, 0.3, 0.2], "blocks": [[1, 2], [3]], "trials": 100}),
    ("gtr", {"mode": "1d", "cos_theta": 0.3, "trials": 100,
             "density": {"type": "piecewise", "breakpoints": [-0.5, 0.0, 0.5],
                         "masses": [0.4, 0.6]}}),
    ("gtr", {"cos_theta": -0.2, "density": {"type": "double_point", "a": 0.3, "b": 0.7}}),
    ("gtr", {"cos_theta": 0.1, "density": {"type": "point", "z0": 0.1}}),
    ("gtr", {"mode": "nd", "x": [0.2, 0.3, 0.5], "samples_per_cell": 8,
             "density": {"type": "cellular", "n_outcomes": 3, "n_cells": 4,
                         "breakable": [1, 2]}}),
    ("gtr", {"mode": "nd", "x": [0.4, 0.6], "density": {"type": "uniform"}}),
    ("universal", {"method": "exact", "x": [0.4, 0.6], "cell_counts": [1, 2]}),
    ("universal", {"method": "mc", "x": [0.2, 0.3, 0.5], "n_cells": 4,
                   "density_samples": 4, "point_samples": 4}),
    ("sphere", {"mode": "counterexample", "epsilon": 0.5}),
    ("sphere", SEQUENTIAL),
    ("classify", {"bundle": {"joints": [{"p_vw": 1.0, "p_uw": 0.0, "p_ucv": 0.5}],
                             "transitions": [{"p_ab": 0.85, "p_bc": 0.5, "p_ac": 0.15}]}}),
    ("oracle", {"dims": [2, 3], "states": 2, "tolerance": 1e-9}),
]

VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.integers(-3, 12),
    st.floats(),
    st.lists(st.integers(-1, 4), max_size=4),
    st.just(float("nan")),
    st.just(MAX_CELLS + 1),
)


def slots(doc):
    """Every (container, key) pair in a document, the top level included."""
    keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
    for key in keys:
        yield doc, key
        if isinstance(doc[key], (dict, list)):
            yield from slots(doc[key])


@st.composite
def mutated_configs(draw):
    kind, params = draw(st.sampled_from(BASES))
    doc = {"kind": kind, "seed": 1, "params": copy.deepcopy(params)}
    container, key = draw(st.sampled_from(list(slots(doc))))
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "drop":
        del container[key]
    elif action == "add" and isinstance(container, dict):
        container[draw(st.sampled_from(["extra", "mode", "trials", "n_cells"]))] = draw(VALUES)
    elif action == "add":
        container.append(draw(VALUES))
    else:
        container[key] = draw(VALUES)
    return doc


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@given(mutated_configs())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_configs_exit_cleanly(config_path, doc):
    config_path.write_text(json.dumps(doc))
    code, out, err = run_main(config_path)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out == ""
        assert len(err.splitlines()) == 1, err
    else:
        assert strict_json(out)["kind"] == doc["kind"]
