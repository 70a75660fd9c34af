"""Two-outcome sphere model and the joint-probability inequality it breaks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trm import (
    BlochVector,
    Epsilon,
    PointBreak,
    Uniform,
    classify,
    counterexample_bundle,
    counterexample_directions,
    measure,
    sequential_joint,
    transition_probability,
)
from trm.sphere import RADIUS, fall


def counterexample_joint(eps):
    """classify's entry for the counterexample's one joint triple."""
    (joint,) = classify(counterexample_bundle(eps))["joints"]
    return joint


def test_bloch_norm_is_enforced():
    v = BlochVector((RADIUS, 0.0, 0.0))
    assert abs(np.linalg.norm(v.as_array()) - RADIUS) < 1e-15
    with pytest.raises(ValueError):
        BlochVector((1.0, 0.0, 0.0))  # norm 1 is the wrong sphere


def test_nan_coordinate_is_refused():
    with pytest.raises(ValueError):
        BlochVector((float("nan"), 0.0, 0.0))


def test_from_angles_matches_coordinates():
    v = BlochVector.from_angles(math.pi / 3, math.pi / 4)
    assert abs(np.linalg.norm(v.as_array()) - RADIUS) < 1e-12
    assert abs(v.coords[2] - RADIUS * 0.5) < 1e-12


def test_fall_is_cos_angle():
    w = BlochVector((RADIUS, 0.0, 0.0))
    assert abs(fall(w, w) - 1.0) < 1e-12
    assert abs(fall(w, -w) + 1.0) < 1e-12
    v = BlochVector((0.0, RADIUS, 0.0))
    assert abs(fall(w, v)) < 1e-12


def test_counterexample_geometry():
    w, v, u = counterexample_directions()
    assert abs(fall(w, v) - math.cos(math.pi / 4)) < 1e-12
    assert abs(fall(v, u) - math.cos(math.pi / 2)) < 1e-12
    assert abs(fall(w, u) - math.cos(3 * math.pi / 4)) < 1e-12


def test_transition_probability_uniform_law():
    w, v, _ = counterexample_directions()
    p_plus, p_minus = transition_probability(w, v, Uniform())
    assert abs(p_plus - (1 + math.cos(math.pi / 4)) / 2) < 1e-12
    assert abs(p_plus + p_minus - 1.0) < 1e-15


def test_sequential_joint_multiplies_conditionals():
    w, v, u = counterexample_directions()
    d = Epsilon(0.5)
    probability = sequential_joint(w, [(v, 1), (u, -1)], d)
    p1 = transition_probability(w, v, d)[0]
    p2 = transition_probability(v, u, d)[1]
    assert abs(probability - p1 * p2) < 1e-15


def test_small_epsilon_joints_are_extremal():
    """Below the geometric threshold the three joints freeze at (1, 0, 1/2)
    and the inequality fails by exactly one half."""
    for eps in np.linspace(1e-6, math.sqrt(2) / 2, 20):
        joint = counterexample_joint(eps)
        np.testing.assert_allclose(
            [joint["p_vw"], joint["p_uw"], joint["p_ucv"]], [1.0, 0.0, 0.5], atol=1e-12
        )
        assert abs(joint["margin"] - 0.5) < 1e-12
        assert not joint["satisfied"]


def test_born_regime_still_violates():
    joint = counterexample_joint(1.0)
    expected = (3 * math.sqrt(2) - 2) / 8
    assert abs(joint["margin"] - expected) < 1e-12
    assert not joint["satisfied"]
    # J1: measuring w on state w is certain, then w -> v costs cos^2(pi/8)
    c = math.cos(math.pi / 4)
    assert abs(joint["p_vw"] - (1 + c) / 2) < 1e-12
    # J2: then w -> u costs cos^2(3pi/8) = (1 - c)/2
    assert abs(joint["p_uw"] - (1 - c) / 2) < 1e-12
    # J3: w -> +v again costs (1 + c)/2, then the minus branch of a right
    # angle halves it
    assert abs(joint["p_ucv"] - (1 + c) / 4) < 1e-12


def test_violation_region_boundary():
    # between sqrt(2)/2 and 1 the margin shrinks but stays positive
    margins = [counterexample_joint(e)["margin"] for e in np.linspace(0.72, 1.0, 8)]
    assert all(m > 0 for m in margins)
    assert margins == sorted(margins, reverse=True)


def test_bundle_shape_and_consistency():
    """The joints are products of the bundle's own transitions, exactly:
    measuring w on w is certain and the minus branch of v -> u has
    probability 1 - p_bc.  classify finds the joints non-classical at every
    band width."""
    for eps in [*np.linspace(0.0025, 1.0, 400), math.sqrt(2) / 2, 1.0]:
        bundle = counterexample_bundle(float(eps))
        (joint,) = bundle["joints"]
        (tr,) = bundle["transitions"]
        assert set(joint) == {"p_vw", "p_uw", "p_ucv"}
        assert set(tr) == {"p_ab", "p_bc", "p_ac"}
        assert joint["p_vw"] == tr["p_ab"]
        assert joint["p_uw"] == tr["p_ac"]
        assert joint["p_ucv"] == tr["p_ab"] * (1 - tr["p_bc"])
        assert classify(bundle)["classical_ok"] is False


def test_measure_collapses_to_signed_direction(rng):
    w, v, _ = counterexample_directions()
    sign, post_state, break_coordinate = measure(w, v, Uniform(), rng)
    assert sign in (1, -1)
    target = v.as_array() if sign == 1 else -v.as_array()
    np.testing.assert_allclose(post_state.as_array(), target, atol=1e-15)
    assert -RADIUS - 1e-12 <= break_coordinate <= RADIUS + 1e-12


def test_measure_frequencies(rng):
    w, v, _ = counterexample_directions()
    d = Epsilon(0.8)
    p_plus = transition_probability(w, v, d)[0]
    trials = 20_000
    hits = sum(measure(w, v, d, rng)[0] == 1 for _ in range(trials))
    sigma = math.sqrt(p_plus * (1 - p_plus) / trials)
    assert abs(hits / trials - p_plus) <= 4 * sigma


def test_measure_point_break_at_state_is_fair_coin(rng):
    # orthogonal direction puts the landing point at exactly 0, where the
    # atom sits: the tie must resolve as a fair coin
    w = BlochVector((RADIUS, 0.0, 0.0))
    v = BlochVector((0.0, RADIUS, 0.0))
    d = PointBreak(0.0)
    signs = [measure(w, v, d, rng)[0] for _ in range(2000)]
    frac = sum(s == 1 for s in signs) / len(signs)
    assert abs(frac - 0.5) < 0.05


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_rotation_invariance_of_transitions(seed):
    # the law depends only on the angle between state and direction
    gen = np.random.default_rng(seed)
    theta = gen.uniform(0, math.pi)
    phi = gen.uniform(0, 2 * math.pi)
    w = BlochVector.from_angles(0.0)
    u = BlochVector.from_angles(theta, phi)
    d = Epsilon(0.6)
    p_here = transition_probability(w, u, d)[0]
    # same angle after moving the pair somewhere else on the sphere
    w2 = BlochVector.from_angles(gen.uniform(0, math.pi), 0.0)
    # build u2 at angular distance theta from w2 along a random azimuth:
    # rotate the (sin, cos) construction into w2's frame
    a = w2.as_array() / RADIUS
    helper = np.array([0.0, 0.0, 1.0]) if abs(a[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(a, helper)
    e1 /= np.linalg.norm(e1)
    u2 = BlochVector(tuple(RADIUS * (math.cos(theta) * a + math.sin(theta) * e1)))
    p_rotated = transition_probability(w2, u2, d)[0]
    assert abs(p_here - p_rotated) < 1e-12
