"""Tension-reduction measurement models: simplex state spaces, measurement
simulation, density families, and classicality checks."""

from .errors import (
    DegenerateDensityError,
    ImpossibleOutcomeError,
    SchemaError,
    UnstableEquilibriumError,
)
from .simplex import (
    BarycentricVector,
    OutcomePartition,
    facet_measure,
    height,
    region_measure,
    region_of,
    regions_of_batch,
    sample_uniform_batch,
    simplex_measure,
)
from .utr import (
    collapse,
    complementary_mc,
    complementary_probabilities,
    outcome_probabilities,
    product_probability_check,
    product_relation_residuals,
    run_batch,
    sequential_probability,
)
from .hilbert import (
    HilbertObservable,
    HilbertState,
    born_probabilities,
    is_product_state,
    tensor,
)
from .cells import CellularDensity, cell_fraction_in_regions, sample_in_cells
from .gtr import (
    DoublePoint,
    Epsilon,
    PiecewiseConstant1D,
    PointBreak,
    Uniform,
    density_from_json,
    density_to_json,
    epsilon_probability,
    sample_break_point,
    transition_probabilities_1d,
    transition_probabilities_nd,
)
from .universal import convergence_scan, universal_probability_exact
from .sphere import (
    BlochVector,
    counterexample_bundle,
    counterexample_directions,
    measure,
    sequential_joint,
    transition_probability,
)
from .checker import classify, kolmogorov_check, qubit_embeddable
from .shards import block_rng, run_sharded

__version__ = "0.1.0"

__all__ = [
    "__version__",
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
