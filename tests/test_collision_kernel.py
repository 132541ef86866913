"""Collision rules: hand values, conservation laws, inverses, Jacobians."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinetics.collision_kernel import (
    CollisionBranch,
    Species,
    actual_energy_loss,
    collide,
    energy_loss_formula,
    inverse_collide,
    jacobian_analytic,
    jacobian_numeric,
    jacobian_signed,
    transform_velocities,
)
from kinetics.collision_operator import GainNormalization
from kinetics.errors import InvalidRestitution, NonFiniteEstimate, NonUnitNormal

UNIT = Species(mass=1.0, diameter=1.0)
EX = np.array([1.0, 0.0, 0.0])


def random_setup(rng):
    s1 = Species(mass=float(rng.uniform(0.5, 3.0)), diameter=1.0)
    s2 = Species(mass=float(rng.uniform(0.5, 3.0)), diameter=1.0)
    v1 = rng.uniform(-3.0, 3.0, 3)
    v2 = rng.uniform(-3.0, 3.0, 3)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    epsilon = float(rng.uniform(0.1, 1.0))
    branch = CollisionBranch.REFLECTIVE if rng.uniform() < 0.5 else CollisionBranch.PASSING
    return v1, v2, n, epsilon, branch, s1, s2


@st.composite
def setups(draw):
    """random_setup's ranges as a strategy; n from polar angles, so |n| = 1."""
    masses = [draw(st.floats(0.5, 3.0)) for _ in range(2)]
    v1, v2 = (np.array([draw(st.floats(-3.0, 3.0)) for _ in range(3)]) for _ in range(2))
    cos_polar = draw(st.floats(-1.0, 1.0))
    azimuth = draw(st.floats(0.0, 2.0 * math.pi))
    sin_polar = math.sqrt(1.0 - cos_polar * cos_polar)
    n = np.array([sin_polar * math.cos(azimuth), sin_polar * math.sin(azimuth), cos_polar])
    epsilon = draw(st.floats(0.1, 1.0))
    branch = draw(st.sampled_from(CollisionBranch))
    s1, s2 = (Species(mass=m, diameter=1.0) for m in masses)
    return v1, v2, n, epsilon, branch, s1, s2


def test_reflective_head_on_hand_value():
    event = collide((0, 0, 0), (2, 0, 0), EX, 0.5, CollisionBranch.REFLECTIVE, UNIT, UNIT)
    np.testing.assert_allclose(event.w1, [1.5, 0, 0], atol=1e-15)
    np.testing.assert_allclose(event.w2, [0.5, 0, 0], atol=1e-15)
    assert event.delta_e == pytest.approx(0.75, abs=1e-15)
    assert event.lambda1 == pytest.approx(1.5)
    assert event.lambda2 == pytest.approx(-1.5)


def test_passing_head_on_hand_value():
    event = collide((0, 0, 0), (2, 0, 0), EX, 0.5, CollisionBranch.PASSING, UNIT, UNIT)
    np.testing.assert_allclose(event.w1, [0.5, 0, 0], atol=1e-15)
    np.testing.assert_allclose(event.w2, [1.5, 0, 0], atol=1e-15)
    assert event.delta_e == pytest.approx(0.75, abs=1e-15)


def test_zero_relative_velocity_is_identity():
    v = np.array([3.0, -1.0, 2.0])
    for branch in CollisionBranch:
        event = collide(v, v, EX, 0.7, branch, UNIT, UNIT)
        np.testing.assert_array_equal(event.w1, v)
        np.testing.assert_array_equal(event.w2, v)
        assert event.delta_e == 0.0


def test_impulse_is_along_normal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v1, v2, n, epsilon, branch, s1, s2 = random_setup(rng)
        event = collide(v1, v2, n, epsilon, branch, s1, s2)
        np.testing.assert_allclose(event.w1 - v1, event.lambda1 * n, atol=1e-14)
        np.testing.assert_allclose(event.w2 - v2, event.lambda2 * n, atol=1e-14)
        assert abs(s1.mass * event.lambda1 + s2.mass * event.lambda2) < 1e-12 * (
            abs(s1.mass * event.lambda1) + 1e-300)


@settings(deadline=None, max_examples=500)
@given(setups())
def test_momentum_conservation_sweep(setup):
    v1, v2, n, epsilon, branch, s1, s2 = setup
    event = collide(v1, v2, n, epsilon, branch, s1, s2)
    before = s1.mass * v1 + s2.mass * v2
    after = s1.mass * event.w1 + s2.mass * event.w2
    # the largest component, not the norm, whose square underflows below ~1e-154
    scale = s1.mass * np.max(np.abs(v1)) + s2.mass * np.max(np.abs(v2))
    assert np.max(np.abs(after - before)) < 1e-12 * max(scale, 1e-300)


def test_normal_relative_velocity_law():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v1, v2, n, epsilon, _, s1, s2 = random_setup(rng)
        g_n = (v2 - v1) @ n
        refl = collide(v1, v2, n, epsilon, CollisionBranch.REFLECTIVE, s1, s2)
        assert (refl.w2 - refl.w1) @ n == pytest.approx(-epsilon * g_n, rel=1e-12, abs=1e-13)
        passing = collide(v1, v2, n, epsilon, CollisionBranch.PASSING, s1, s2)
        assert (passing.w2 - passing.w1) @ n == pytest.approx(epsilon * g_n, rel=1e-12, abs=1e-13)
        # tangential relative velocity untouched
        for event in (refl, passing):
            g_before = v2 - v1
            g_after = event.w2 - event.w1
            tang_before = g_before - (g_before @ n) * n
            tang_after = g_after - (g_after @ n) * n
            np.testing.assert_allclose(tang_after, tang_before, atol=1e-13)


def test_actual_energy_deficit_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(200):
        v1, v2, n, epsilon, branch, s1, s2 = random_setup(rng)
        event = collide(v1, v2, n, epsilon, branch, s1, s2)
        expected = actual_energy_loss(v1, v2, n, epsilon, s1, s2)
        assert event.delta_e == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_energy_loss_formula_values():
    assert energy_loss_formula((0, 0, 0), (2, 0, 0), 1.0, UNIT, UNIT) == 0.0
    assert energy_loss_formula((0, 0, 0), (2, 0, 0), 0.5, UNIT, UNIT) == pytest.approx(0.75)
    v = np.array([1.0, 2.0, 3.0])
    assert energy_loss_formula(v, v, 0.5, UNIT, UNIT) == 0.0


def test_inverse_collide_hand_value():
    v1, v2 = inverse_collide((1.5, 0, 0), (0.5, 0, 0), EX, 0.5,
                             CollisionBranch.REFLECTIVE, UNIT, UNIT)
    np.testing.assert_allclose(v1, [0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(v2, [2, 0, 0], atol=1e-14)


def test_elastic_reflection_is_self_inverse():
    rng = np.random.default_rng(5)
    v1, v2, n, _, _, s1, s2 = random_setup(rng)
    forward = collide(v1, v2, n, 1.0, CollisionBranch.REFLECTIVE, s1, s2)
    inv = inverse_collide(v1, v2, n, 1.0, CollisionBranch.REFLECTIVE, s1, s2)
    np.testing.assert_allclose(inv[0], forward.w1, atol=1e-14)
    np.testing.assert_allclose(inv[1], forward.w2, atol=1e-14)


@settings(deadline=None, max_examples=1000)
@given(setups())
def test_inverse_collide_round_trip_property(setup):
    v1, v2, n, epsilon, branch, s1, s2 = setup
    event = collide(v1, v2, n, epsilon, branch, s1, s2)
    back1, back2 = inverse_collide(event.w1, event.w2, n, epsilon, branch, s1, s2)
    again = collide(back1, back2, n, epsilon, branch, s1, s2)
    scale = max(np.max(np.abs(event.w1)), np.max(np.abs(event.w2)), 1.0)
    assert np.max(np.abs(again.w1 - event.w1)) < 1e-10 * scale
    assert np.max(np.abs(again.w2 - event.w2)) < 1e-10 * scale


def test_jacobian_analytic_values():
    assert jacobian_analytic(1.0, CollisionBranch.REFLECTIVE) == pytest.approx(1.0)
    assert jacobian_analytic(0.5, CollisionBranch.REFLECTIVE) == pytest.approx(0.5)
    assert jacobian_analytic(0.5, CollisionBranch.PASSING) == pytest.approx(0.5)
    assert jacobian_signed(0.5, CollisionBranch.REFLECTIVE) == pytest.approx(-0.5)
    assert jacobian_signed(0.5, CollisionBranch.PASSING) == pytest.approx(0.5)


def test_jacobian_numeric_matches_restitution():
    rng = np.random.default_rng(7)
    v1, v2, n, _, _, s1, s2 = random_setup(rng)
    det = jacobian_numeric(v1, v2, n, 0.7, CollisionBranch.REFLECTIVE, s1, s2)
    assert det == pytest.approx(0.7, abs=1e-6)
    det = jacobian_numeric(v1, v2, n, 1.0, CollisionBranch.PASSING, s1, s2)
    assert det == pytest.approx(1.0, abs=1e-6)


@settings(deadline=None, max_examples=100)
@given(setups())
def test_jacobian_numeric_sweep(setup):
    v1, v2, n, epsilon, branch, s1, s2 = setup
    det = jacobian_numeric(v1, v2, n, epsilon, branch, s1, s2)
    assert abs(det - epsilon) < 1e-6


def _reference_jacobian_numeric(v1, v2, n, epsilon, branch, s1, s2):
    """Former body of jacobian_numeric: one map call per stencil point."""
    x0 = np.concatenate([v1, v2])
    h = 1e-5 * max(1.0, float(np.max(np.abs(x0))))

    def f(x):
        w1, w2 = transform_velocities(x[:3], x[3:], n, epsilon, branch, s1.mass, s2.mass)
        return np.concatenate([w1, w2])

    jac = np.empty((6, 6))
    for i in range(6):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (f(xp) - f(xm)) / (2.0 * h)
    return abs(float(np.linalg.det(jac)))


@settings(deadline=None, max_examples=300)
@given(setups(), st.floats(1.0, 16.0))
def test_jacobian_numeric_matches_the_per_point_stencil_bits(setup, scale):
    # the 12 stencil points in one broadcast map give the loop's determinant bit for bit
    v1, v2, n, epsilon, branch, s1, s2 = setup
    args = (v1 * scale, v2 * scale, n, epsilon, branch, s1, s2)
    got, want = jacobian_numeric(*args), _reference_jacobian_numeric(*args)
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_transform_velocities_broadcasts():
    rng = np.random.default_rng(9)
    v1 = rng.uniform(-2, 2, (40, 3))
    v2 = rng.uniform(-2, 2, (40, 3))
    n = rng.standard_normal((40, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    w1, w2 = transform_velocities(v1, v2, n, 0.6, CollisionBranch.REFLECTIVE, 1.0, 2.0)
    s1 = Species(mass=1.0, diameter=1.0)
    s2 = Species(mass=2.0, diameter=1.0)
    for k in (0, 17, 39):
        event = collide(v1[k], v2[k], n[k], 0.6, CollisionBranch.REFLECTIVE, s1, s2)
        np.testing.assert_array_equal(w1[k].view(np.uint64), event.w1.view(np.uint64))
        np.testing.assert_array_equal(w2[k].view(np.uint64), event.w2.view(np.uint64))


def test_event_owns_read_only_arrays():
    v1, v2, n = np.array([0.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), EX.copy()
    event = collide(v1, v2, n, 0.5, CollisionBranch.REFLECTIVE, UNIT, UNIT)
    v1[:] = 9.0
    v2[:] = 9.0
    n[:] = [0.0, 1.0, 0.0]
    np.testing.assert_array_equal(event.w1, [1.5, 0.0, 0.0])
    np.testing.assert_array_equal(event.w2, [0.5, 0.0, 0.0])
    for array in (event.w1, event.w2):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("v1, v2", [
    ([1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]),  # the relative velocity overflows
    ([1e200, 0.0, 0.0], [1e200, 0.0, 0.0]),   # w is finite, the energies are not
])
@pytest.mark.filterwarnings("error")
def test_overflowing_collision_is_a_numerical_failure(v1, v2):
    # the caller's numpy error state governs the overflow: by default, numpy warns
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteEstimate,
                                                     match="^collision is not finite"):
        collide(v1, v2, EX, 0.5, CollisionBranch.REFLECTIVE, UNIT, UNIT)


def test_validation_errors():
    with pytest.raises(NonUnitNormal):
        collide((0, 0, 0), (1, 0, 0), (1.0, 1.0, 0.0), 0.5,
                CollisionBranch.REFLECTIVE, UNIT, UNIT)
    with pytest.raises(NonUnitNormal):
        collide((0, 0, 0), (1, 0, 0), (0.999, 0.0, 0.0), 0.5,
                CollisionBranch.REFLECTIVE, UNIT, UNIT)
    # a NaN normal is bad input, not a NaN outcome or a numerical failure
    nan_normal = (math.nan, 0.0, 0.0)
    with pytest.raises(ValueError, match="^n must be finite$"):
        collide((0, 0, 0), (1, 0, 0), nan_normal, 0.5, CollisionBranch.REFLECTIVE, UNIT, UNIT)
    with pytest.raises(ValueError, match="^n must be finite$"):
        inverse_collide((0, 0, 0), (1, 0, 0), nan_normal, 0.5, CollisionBranch.PASSING,
                        UNIT, UNIT)
    with pytest.raises(ValueError, match="^n must be finite$"):
        actual_energy_loss((0, 0, 0), (1, 0, 0), nan_normal, 0.5, UNIT, UNIT)
    # |n| is computed without overflow, so the message names the true magnitude
    with pytest.raises(NonUnitNormal, match=r"^\|n\| = 1e\+200 "):
        collide((0, 0, 0), (1, 0, 0), (1e200, 0.0, 0.0), 0.5,
                CollisionBranch.REFLECTIVE, UNIT, UNIT)
    for bad_epsilon in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidRestitution):
            collide((0, 0, 0), (1, 0, 0), EX, bad_epsilon,
                    CollisionBranch.REFLECTIVE, UNIT, UNIT)
    with pytest.raises(InvalidRestitution):
        inverse_collide((0, 0, 0), (1, 0, 0), EX, 0.0,
                        CollisionBranch.REFLECTIVE, UNIT, UNIT)
    with pytest.raises(InvalidRestitution):
        inverse_collide((0, 0, 0), (1, 0, 0), EX, -1.0,
                        CollisionBranch.PASSING, UNIT, UNIT)
    # no impact has these restitutions, so no impact has an inverse at them
    for bad_epsilon in (float("nan"), float("inf"), 1.5):
        for branch in CollisionBranch:
            with pytest.raises(InvalidRestitution):
                inverse_collide((0, 0, 0), (1, 0, 0), EX, bad_epsilon, branch, UNIT, UNIT)
    with pytest.raises(ValueError):
        Species(mass=-1.0, diameter=1.0)
    with pytest.raises(ValueError):
        Species(mass=1.0, diameter=0.0)


@pytest.mark.parametrize("branch", ["reflective", None, GainNormalization.RESTITUTION_WEIGHTED],
                         ids=["string", "none", "other-enum"])
@pytest.mark.parametrize("call", [
    lambda branch: collide((0, 0, 0), (1, 0, 0), EX, 0.5, branch, UNIT, UNIT),
    lambda branch: inverse_collide((0, 0, 0), (1, 0, 0), EX, 0.5, branch, UNIT, UNIT),
    lambda branch: jacobian_signed(0.5, branch),
    lambda branch: jacobian_analytic(0.5, branch),
    lambda branch: jacobian_numeric((0, 0, 0), (1, 0, 0), EX, 0.5, branch, UNIT, UNIT),
], ids=["collide", "inverse_collide", "jacobian_signed", "jacobian_analytic",
        "jacobian_numeric"])
def test_a_branch_that_is_not_a_member_is_rejected_by_name(call, branch):
    # not the unnamed AttributeError of branch.normal_factor
    with pytest.raises(ValueError,
                       match=f"^branch must be a CollisionBranch, got {re.escape(repr(branch))}$"):
        call(branch)
