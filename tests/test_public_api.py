"""The public names: every module's __all__ resolves, every name the
package exports is also listed by the submodule that defines it, and the
package exports exactly the pinned list below.  Every function the package
defines is also used somewhere: in the package, the tests or the
benchmark."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import trm
from trm import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(trm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"trm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_names_come_from_submodule_all():
    assert all(hasattr(trm, n) for n in trm.__all__)
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"trm.{name}")
        for n in module.__all__:
            exported.setdefault(n, []).append(getattr(module, n))
    orphans = [
        n
        for n in trm.__all__
        if n != "__version__" and not any(obj is getattr(trm, n) for obj in exported.get(n, []))
    ]
    assert not orphans, orphans


PUBLIC = [
    "BarycentricVector",
    "BlochVector",
    "CellularDensity",
    "DegenerateDensityError",
    "DoublePoint",
    "Epsilon",
    "HilbertObservable",
    "HilbertState",
    "ImpossibleOutcomeError",
    "OutcomePartition",
    "PiecewiseConstant1D",
    "PointBreak",
    "SchemaError",
    "Uniform",
    "UnstableEquilibriumError",
    "__version__",
    "block_rng",
    "born_probabilities",
    "cell_fraction_in_regions",
    "classify",
    "collapse",
    "complementary_mc",
    "complementary_probabilities",
    "convergence_scan",
    "counterexample_bundle",
    "counterexample_directions",
    "density_from_json",
    "density_to_json",
    "epsilon_probability",
    "facet_measure",
    "height",
    "is_product_state",
    "kolmogorov_check",
    "measure",
    "outcome_probabilities",
    "product_probability_check",
    "product_relation_residuals",
    "qubit_embeddable",
    "region_measure",
    "region_of",
    "regions_of_batch",
    "run_batch",
    "run_sharded",
    "sample_break_point",
    "sample_in_cells",
    "sample_uniform_batch",
    "sequential_joint",
    "sequential_probability",
    "simplex_measure",
    "tensor",
    "transition_probabilities_1d",
    "transition_probabilities_nd",
    "transition_probability",
    "universal_probability_exact",
]

# Names removed because nothing in the package or the CLI called them, each
# with the submodule that defined it.
REMOVED = [
    ("simplex", "sample_uniform"),
    ("utr", "UtrOutcome"),
    ("utr", "run_once"),
    ("hilbert", "utr_correspondence"),
    ("hilbert", "state_to_json"),
    ("hilbert", "state_from_json"),
    ("universal", "enumerate_cellular"),
    ("universal", "ENUMERATION_LIMIT"),
    ("universal", "universal_probability_mc"),
    ("hilbert", "CorrespondenceReport"),
    ("sphere", "kolmogorov_counterexample"),
    ("sphere", "CounterexampleReport"),
    ("universal", "UNIVERSAL_BLOCK"),
    ("cells", "region_counts_in_cells"),
    ("checker", "KolmogorovVerdict"),
    ("checker", "QubitVerdict"),
    ("hilbert", "ProductCheck"),
    ("sphere", "SequentialRecord"),
    ("checker", "JointTriple"),
    ("checker", "PairwiseTransitions"),
    ("sphere", "MeasureResult"),
    ("universal", "mc_combine"),
    ("simplex", "iter_partitions"),
    ("hilbert", "product_state"),
]


def test_package_exports_the_pinned_names():
    assert sorted(trm.__all__) == PUBLIC


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_removed(module, name):
    assert not hasattr(trm, name)
    assert not hasattr(importlib.import_module(f"trm.{module}"), name)


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trm"
# A string that is a dotted name, such as the tracer's "Class.method" targets.
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _uses(tree: ast.AST) -> Counter:
    """Names a tree refers to: bare names, attributes, imported names and
    the parts of dotted-name strings."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                uses.update(node.value.split("."))
    return uses


def test_every_function_is_used_outside_its_definition():
    uses: Counter = Counter()
    own: Counter = Counter()
    defined = []
    for folder in (PACKAGE, ROOT / "tests", ROOT / "bench"):
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text())
            uses += _uses(tree)
            if folder != PACKAGE:
                continue
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                    if name.startswith("__") and name.endswith("__"):
                        continue
                    defined.append((f"{path.name}:{node.lineno}", name))
                    own[name] += _uses(node)[name]
    dead = [(where, name) for where, name in defined if uses[name] == own[name]]
    assert not dead, dead


def _bench_tracer():
    """bench/tracer.py, loaded from its path: bench is not a package."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_trace_target_resolves():
    # Tracer.install looks each target up in its defining module's
    # namespace, through the class for a dotted path; a deleted or renamed
    # name would break the benchmark's trace, so it fails here too
    def resolves(modname, path):
        owner = sys.modules.get(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        return callable(getattr(owner, "__dict__", {}).get(attr))

    targets = _bench_tracer().TARGETS
    assert targets
    missing = [(modname, path) for modname, path, _, _ in targets if not resolves(modname, path)]
    assert not missing, missing


def test_cli_runners_map_each_kind_to_a_callable():
    # the benchmark's bench/op.py wraps every runner in cli._RUNNERS to time
    # the run from its first runner call
    assert cli._RUNNERS
    assert all(isinstance(k, str) and callable(r) for k, r in cli._RUNNERS.items())
