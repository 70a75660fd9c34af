"""Library refusals: each malformed argument raises its own exception, with a
message that names what is wrong, before any work is done."""

import numpy as np
import pytest

from trm import (
    BarycentricVector,
    BlochVector,
    CellularDensity,
    HilbertObservable,
    HilbertState,
    OutcomePartition,
    Uniform,
    cell_fraction_in_regions,
    complementary_mc,
    density_to_json,
    height,
    is_product_state,
    product_probability_check,
    region_measure,
    region_of,
    run_batch,
    sample_uniform_batch,
    sequential_joint,
    sequential_probability,
)
from trm import hilbert, utr

X3 = BarycentricVector((0.2, 0.3, 0.5))
PSI2 = HilbertState((1.0, 0.0))
PSI3 = HilbertState((1.0, 0.0, 0.0))
OBS2 = HilbertObservable.standard(2)
PAIR = OutcomePartition.of([[1, 2], [3]])
UP = BlochVector((0.0, 0.0, 0.5**0.5))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: HilbertState((1.0,)), ValueError, "at least two amplitudes"),
        (lambda: HilbertObservable(((1.0, 0.0),), OutcomePartition.singletons(2)),
         ValueError, "must be square"),
        (lambda: HilbertObservable(((1.0, 0.0), (0.0, 1.0)), PAIR),
         ValueError, "grouping covers 1..3 but basis has 2"),
        (lambda: OBS2.coordinates(PSI3), ValueError, "dimension mismatch"),
        (lambda: hilbert.collapse(PSI2, OBS2, 3), ValueError, "block index 3 outside 1..2"),
        (lambda: utr.collapse(X3, PAIR, 0), ValueError, "block index 0 outside 1..2"),
        (lambda: sequential_probability(X3, [(PAIR, 3)]), ValueError,
         "block index 3 outside 1..2"),
        (lambda: is_product_state(PSI3), ValueError, "four amplitudes, not 3"),
        (lambda: product_probability_check(X3), ValueError, "four outcomes, not 3"),
        (lambda: run_batch(X3, PAIR, -1, np.random.default_rng(0)), ValueError,
         "negative trial count -1"),
        (lambda: complementary_mc(X3, 0, np.random.default_rng(0)), ValueError,
         "positive trial count, got 0"),
        (lambda: region_of(X3, (0.5, 0.5)), ValueError, "dimension mismatch: 3 vs 2"),
        (lambda: height(X3, 4), ValueError, "outcome index 4 outside 1..3"),
        (lambda: region_measure(X3, 0), ValueError, "outcome index 0 outside 1..3"),
        (lambda: sample_uniform_batch(1, 4, np.random.default_rng(0)), ValueError,
         "at least two outcomes, got n=1"),
        (lambda: BlochVector((0.0, 0.5**0.5)), ValueError, "three coordinates, got 2"),
        (lambda: sequential_joint(UP, [(UP, 0)], Uniform()), ValueError,
         "+1 or -1, got 0"),
        (lambda: density_to_json(X3), ValueError, "unknown density BarycentricVector"),
    ],
    ids=[
        "hilbert-state-one-amplitude",
        "observable-non-square-basis",
        "observable-partition-size",
        "coordinates-dimension",
        "hilbert-collapse-block",
        "utr-collapse-block",
        "sequential-probability-block",
        "is-product-state-n",
        "product-probability-check-n",
        "run-batch-negative-trials",
        "complementary-mc-zero-trials",
        "region-of-dimension",
        "height-index",
        "region-measure-index",
        "sample-uniform-batch-n",
        "bloch-two-coordinates",
        "sequential-joint-sign",
        "density-to-json-non-density",
    ],
)
def test_malformed_arguments_are_refused(call, error, fragment):
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: OutcomePartition.of([[1.9], [2.2]]),
        lambda: CellularDensity(4, 8, {1.5, 3}),
        lambda: CellularDensity(4.7, 8.2, {1}),
        lambda: cell_fraction_in_regions(X3.as_array(), 3, 9.0),
        lambda: cell_fraction_in_regions(X3.as_array(), 3.0, 9),
    ],
    ids=[
        "partition-index",
        "cellular-breakable",
        "cellular-counts",
        "fraction-cell-count",
        "fraction-outcome-count",
    ],
)
def test_a_float_index_or_count_is_refused_not_truncated(call):
    # int() would truncate 1.9 to 1 and 4.7 to 4 and go on with the wrong
    # value; an index or count must be an integer
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()
