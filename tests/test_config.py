"""Config documents run through trm.cli.main in-process: the README's
examples, fuzzed mutations of small valid configs, and valid configs with
numbers at the edges of floating point."""

import contextlib
import copy
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trm.cells import MAX_CELLS
from trm.cli import main
from trm.gtr import Z_MAX
from trm.sphere import RADIUS

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
    ("gtr", {"mode": "nd", "x": [0.2, 0.3, 0.5],
             "density": {"type": "cellular", "n_outcomes": 3, "n_cells": 4,
                         "breakable": [1, 2]}}),
    ("gtr", {"mode": "nd", "x": [0.4, 0.6], "density": {"type": "uniform"}}),
    ("universal", {"method": "exact", "x": [0.4, 0.6], "cell_counts": [1, 2]}),
    ("universal", {"method": "mc", "x": [0.2, 0.3, 0.5], "cell_counts": [4],
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
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_configs_exit_cleanly(config_path, doc):
    config_path.write_text(json.dumps(doc))
    code, out, err = run_main(config_path)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out == ""
        assert len(err.splitlines()) == 1, err
    else:
        # exit 1 is the oracle's failed comparison, and a run that exits 0
        # or 1 writes nothing to stderr
        assert err == ""
        assert code == 0 or doc["kind"] == "oracle"
        assert strict_json(out)["kind"] == doc["kind"]


# The smallest, a middle and the largest subnormal, and the largest double
# below one.
SUBNORMALS = [5e-324, 2.0**-1050, 2.0**-1022 - 5e-324]
BELOW_ONE = 1.0 - 2.0**-53


@st.composite
def edge_state(draw, x):
    """x with one component moved to a subnormal, to 1 - 2^-53 or to -0.0,
    and the others rescaled to make up the rest of the unit sum."""
    i = draw(st.integers(0, len(x) - 1))
    value = draw(st.sampled_from([*SUBNORMALS, BELOW_ONE, -0.0]))
    others = math.fsum(x) - x[i]
    return [value if j == i else v * (1.0 - abs(value)) / others for j, v in enumerate(x)]


@st.composite
def mass_pair(draw):
    t = draw(st.sampled_from([*SUBNORMALS, BELOW_ONE]))
    return [t, 1.0 - t]


@st.composite
def edge_bloch(draw):
    """A Bloch vector of norm RADIUS along an axis, signs and -0.0 drawn, or
    one tilted off an axis by a subnormal."""
    axis = draw(st.integers(0, 2))
    vec = [draw(st.sampled_from([0.0, -0.0])) for _ in range(3)]
    vec[axis] = draw(st.sampled_from([RADIUS, -RADIUS]))
    if draw(st.booleans()):
        vec[(axis + 1) % 3] = draw(st.sampled_from(SUBNORMALS))
    return vec


# Field -> strategy of its edge values, for each field of the BASES that
# carries a number; a and b, the two masses of double_point, move together.
# Cell counts are squares, which every outcome count accepts, up to
# MAX_CELLS = 256^2; integer fields also go to their smallest and largest
# accepted values.
CELLS = st.sampled_from([1, 4, 64, MAX_CELLS])
EDGES = {
    "seed": st.sampled_from([0, 2**64 - 1]),
    "states": st.just(1),
    "dims": st.sampled_from([[2], [8]]),
    "x": edge_state,
    "cos_theta": st.sampled_from([1.0, -1.0, -0.0, BELOW_ONE, -BELOW_ONE, *SUBNORMALS]),
    "epsilon": st.sampled_from([1.0, BELOW_ONE, *SUBNORMALS]),
    "z0": st.sampled_from([Z_MAX, -Z_MAX, -0.0, *SUBNORMALS]),
    "a": mass_pair(),
    "masses": mass_pair(),
    "breakpoints": st.sampled_from([[-Z_MAX, -0.0, Z_MAX], [-Z_MAX, 5e-324, Z_MAX]]),
    "initial": edge_bloch(),
    "direction": edge_bloch(),
    "trials": st.sampled_from([1, 10**4]),
    "cell_counts": st.lists(CELLS, min_size=1, max_size=3),
    "n_cells": CELLS,
    "density_samples": st.sampled_from([2, 64]),
    "point_samples": st.sampled_from([1, 64]),
    **{p: st.sampled_from([0.0, -0.0, 1.0, BELOW_ONE, *SUBNORMALS])
       for p in ("p_vw", "p_uw", "p_ucv", "p_ab", "p_bc", "p_ac")},
}


@st.composite
def edge_configs(draw):
    kind, params = draw(st.sampled_from(BASES))
    doc = {"kind": kind, "seed": 1, "params": copy.deepcopy(params)}
    for container, key in list(slots(doc)):
        if key not in EDGES or not draw(st.booleans()):
            continue
        edge = EDGES[key]
        value = draw(edge(container[key]) if key == "x" else edge)
        if key == "a":
            container["a"], container["b"] = value
        else:
            container[key] = value
        if key == "n_cells":
            container["breakable"] = sorted({1, value})
    return doc


@given(edge_configs())
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_edge_values_run_quietly_and_exactly(config_path, doc):
    """Valid documents whose numbers sit at the edges of floating point run:
    exit 0, nothing on stderr, strict JSON out, and the exact universal
    average within 1e-12 of x."""
    config_path.write_text(json.dumps(doc))
    code, out, err = run_main(config_path)
    assert (code, err) == (0, "")
    payload = strict_json(out)
    if doc["kind"] == "universal" and doc["params"]["method"] == "exact":
        assert payload["result"]["max_abs_deviation"] <= 1e-12
