"""The public names: every module's __all__ resolves, every name the
package exports is also listed by the submodule that defines it, and the
package exports exactly the pinned list below."""

import importlib
import pkgutil

import pytest

import trm

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
    "JointTriple",
    "KolmogorovVerdict",
    "OutcomePartition",
    "PairwiseTransitions",
    "PiecewiseConstant1D",
    "PointBreak",
    "QubitVerdict",
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
    "kolmogorov_counterexample",
    "measure",
    "outcome_probabilities",
    "product_probability_check",
    "product_relation_residuals",
    "product_state",
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
    "universal_probability_mc",
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
]


def test_package_exports_the_pinned_names():
    assert sorted(trm.__all__) == PUBLIC


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_removed(module, name):
    assert not hasattr(trm, name)
    assert not hasattr(importlib.import_module(f"trm.{module}"), name)
