"""Sphere embedding, stereographic chart, quaternion subgroups."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinetics.errors import ChartSingularity, SpeedExceedsLambda
from kinetics.sphere_group import (
    IDENTITY,
    ChartCoords,
    PureQuaternion,
    SpherePoint,
    chart_jacobian,
    embed,
    exp_subgroup,
    match_generator,
    project_chart,
    pushforward_derivative,
    quaternion_multiply,
    transport_relation_residual,
    unproject_chart,
)


def random_sphere_point(rng):
    raw = rng.standard_normal(4)
    return SpherePoint(raw / np.linalg.norm(raw))


def test_embed_hand_values():
    np.testing.assert_allclose(embed((0, 0, 0), 1.0, "lower").theta,
                               [0, 0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(embed((0.6, 0, 0), 1.0, "lower").theta,
                               [0.6, 0, 0, -0.8], atol=1e-15)
    np.testing.assert_allclose(embed((0.6, 0, 0), 2.0, "lower").theta,
                               [0.3, 0, 0, -math.sqrt(0.91)], atol=1e-15)
    np.testing.assert_allclose(embed((0.6, 0, 0), 1.0, "upper").theta,
                               [0.6, 0, 0, 0.8], atol=1e-15)


def test_embed_rejects_fast_velocities():
    with pytest.raises(SpeedExceedsLambda):
        embed((1.0, 0, 0), 1.0, "lower")
    with pytest.raises(SpeedExceedsLambda):
        embed((3.0, 0, 0), 2.0, "lower")
    with pytest.raises(ValueError):
        embed((0.1, 0, 0), -1.0, "lower")
    with pytest.raises(ValueError):
        embed((0.1, 0, 0), 1.0, "sideways")


@pytest.mark.parametrize("hemisphere", ["lower", "upper"])
def test_nan_velocity_or_time_is_rejected(hemisphere):
    with pytest.raises(SpeedExceedsLambda):
        embed((math.nan, 0, 0), 1.0, hemisphere)
    with pytest.raises(SpeedExceedsLambda):
        chart_jacobian((math.nan, 0, 0), 1.0, hemisphere)
    with pytest.raises(ValueError, match="^tau must be finite"):
        exp_subgroup(PureQuaternion((0.3, -0.1, 0.2)), math.nan)


def test_off_sphere_point_is_rejected_with_its_norm():
    with pytest.raises(ValueError, match=r"^\|theta\|\^2 = 1\.25 is not 1 within tolerance$"):
        SpherePoint((1.0, 0.5, 0.0, 0.0))


def test_project_chart_hand_values():
    np.testing.assert_allclose(
        project_chart(SpherePoint((0, 0, 0, -1))).vstar, [0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(
        project_chart(SpherePoint((0.6, 0, 0, -0.8))).vstar, [1 / 3, 0, 0],
        atol=1e-15)
    np.testing.assert_allclose(
        project_chart(SpherePoint((1, 0, 0, 0))).vstar, [1, 0, 0], atol=1e-15)


def test_project_chart_singularity_guard():
    with pytest.raises(ChartSingularity):
        project_chart(SpherePoint((0, 0, 0, 1)))
    near = SpherePoint((1e-6, 0, 0, math.sqrt(1 - 1e-12)))
    with pytest.raises(ChartSingularity):
        project_chart(near)


def test_unproject_hand_values():
    np.testing.assert_allclose(unproject_chart(ChartCoords((0, 0, 0))).theta,
                               [0, 0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(unproject_chart(ChartCoords((1 / 3, 0, 0))).theta,
                               [0.6, 0, 0, -0.8], atol=1e-15)


@settings(deadline=None, max_examples=1000)
@given(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_chart_round_trip_property(vstar):
    coords = ChartCoords(vstar)
    point = unproject_chart(coords)
    assert abs(float(point.theta @ point.theta) - 1.0) < 1e-12
    back = project_chart(point)
    assert np.max(np.abs(back.vstar - coords.vstar)) < 1e-12


def test_chart_jacobian_at_origin():
    matrix, det = chart_jacobian((0, 0, 0), 1.0, "lower")
    np.testing.assert_allclose(matrix, 0.5 * np.eye(3), atol=1e-15)
    assert det == pytest.approx(0.125, rel=1e-12)


def test_chart_jacobian_matches_finite_differences():
    rng = np.random.default_rng(21)
    step = 1e-6
    for _ in range(50):
        lam = float(rng.uniform(0.8, 3.0))
        v = rng.uniform(-0.5, 0.5, 3) * lam
        if np.linalg.norm(v) >= 0.9 * lam:
            continue
        matrix, det = chart_jacobian(v, lam, "lower")
        fd = np.zeros((3, 3))
        for i in range(3):
            vp = v.copy()
            vm = v.copy()
            vp[i] += step
            vm[i] -= step
            cp = project_chart(embed(vp, lam, "lower")).vstar
            cm = project_chart(embed(vm, lam, "lower")).vstar
            fd[i, :] = (cp - cm) / (2.0 * step)
        assert np.max(np.abs(matrix - fd)) < 1e-6
        assert det == pytest.approx(np.linalg.det(fd), rel=1e-5)


def test_chart_jacobian_lambda_scaling_at_origin():
    dets = [chart_jacobian((0, 0, 0), lam, "lower")[1] for lam in (1.0, 2.0, 4.0)]
    assert dets[0] / dets[1] == pytest.approx(8.0, rel=1e-12)
    assert dets[1] / dets[2] == pytest.approx(8.0, rel=1e-12)


def test_chart_jacobian_upper_hemisphere_origin_is_singular():
    with pytest.raises(ChartSingularity):
        chart_jacobian((0, 0, 0), 1.0, "upper")


def test_quaternion_identity_and_inverse():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = random_sphere_point(rng)
        np.testing.assert_allclose(quaternion_multiply(a, IDENTITY).theta, a.theta,
                                   atol=1e-14)
        conjugate = SpherePoint(a.theta * np.array([1.0, -1.0, -1.0, -1.0]))
        product = quaternion_multiply(a, conjugate)
        np.testing.assert_allclose(product.theta, IDENTITY.theta, atol=1e-14)


def test_quaternion_hamilton_table():
    i = SpherePoint((0, 1, 0, 0))
    j = SpherePoint((0, 0, 1, 0))
    k = SpherePoint((0, 0, 0, 1))
    np.testing.assert_allclose(quaternion_multiply(i, j).theta, k.theta, atol=1e-15)
    np.testing.assert_allclose(quaternion_multiply(j, i).theta, -k.theta, atol=1e-15)


def test_quaternion_norm_maintained():
    rng = np.random.default_rng(23)
    point = random_sphere_point(rng)
    for _ in range(1000):
        point = quaternion_multiply(point, random_sphere_point(rng))
        assert abs(float(point.theta @ point.theta) - 1.0) < 1e-12


def test_exp_subgroup_values():
    np.testing.assert_array_equal(exp_subgroup(PureQuaternion((0.3, 0.1, 0)), 0.0).theta,
                                  IDENTITY.theta)
    np.testing.assert_array_equal(exp_subgroup(PureQuaternion((0, 0, 0)), 5.0).theta,
                                  IDENTITY.theta)
    half_turn = exp_subgroup(PureQuaternion((1, 0, 0)), math.pi)
    np.testing.assert_allclose(half_turn.theta, [-1, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("u, tau", [
    ((0.3, -0.1, 0.2), math.inf),
    ((0.3, -0.1, 0.2), -math.inf),
    ((0.3, -0.1, 0.2), math.nan),
    ((3.0, 0.0, 0.0), 1e308),      # |u| tau overflows
    ((0.0, 0.0, 0.0), math.inf),   # even where the subgroup is the identity
    ((1e200, 0.0, 0.0), math.nan),  # |u|^2 overflows, |u| does not
    ((1e200, 0.0, 0.0), 1e200),
])
@pytest.mark.filterwarnings("error")
def test_exp_subgroup_names_a_non_finite_angle(u, tau):
    with pytest.raises(ValueError, match=r"^tau must be finite.*got tau = "):
        exp_subgroup(PureQuaternion(u), tau)


@pytest.mark.filterwarnings("error")
def test_exp_subgroup_of_a_generator_whose_square_overflows():
    u = PureQuaternion((1e200, 0.0, 0.0))
    np.testing.assert_allclose(exp_subgroup(u, 1e-300).theta, [1.0, 1e-100, 0.0, 0.0],
                               rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(exp_subgroup(u, 0.0).theta, IDENTITY.theta)
    tilted = exp_subgroup(PureQuaternion((-3e200, 4e200, 0.0)), 1e-200)
    np.testing.assert_allclose(tilted.theta[1:], [-0.6 * math.sin(5.0), 0.8 * math.sin(5.0), 0.0],
                               rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_exp_subgroup_of_a_generator_whose_norm_overflows():
    # |u| = 1.5e308 sqrt(2) is past the float range; the angle is scaled, not the speed
    u = PureQuaternion((1.5e308, 1.5e308, 0.0))
    np.testing.assert_array_equal(exp_subgroup(u, 0.0).theta, IDENTITY.theta)
    assert np.all(np.isfinite(exp_subgroup(u, 1e-300).theta))
    angle = 1.5 * math.sqrt(2.0)  # at tau = 1e-308
    side = math.sin(angle) / math.sqrt(2.0)
    np.testing.assert_allclose(exp_subgroup(u, 1e-308).theta,
                               [math.cos(angle), side, side, 0.0], rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match=r"^tau must be finite.*got tau = 1.0"):
        exp_subgroup(u, 1.0)


def test_exp_subgroup_homomorphism():
    rng = np.random.default_rng(24)
    for _ in range(100):
        u = PureQuaternion(rng.uniform(-2, 2, 3))
        tau = float(rng.uniform(-3, 3))
        sigma = float(rng.uniform(-3, 3))
        combined = exp_subgroup(u, tau + sigma)
        product = quaternion_multiply(exp_subgroup(u, tau), exp_subgroup(u, sigma))
        assert np.max(np.abs(combined.theta - product.theta)) < 1e-12


def test_match_generator_zero_force():
    u = match_generator((0, 0, 0), 1.0, 1.0, "lower")
    np.testing.assert_array_equal(u.xi, np.zeros(3))


def test_match_generator_finite_difference_verification():
    rng = np.random.default_rng(25)
    for _ in range(10):
        force = rng.uniform(-2, 2, 3)
        mass = float(rng.uniform(0.5, 3.0))
        lam = float(rng.uniform(0.5, 2.0))
        u = match_generator(force, mass, lam, "lower")
        _, det = chart_jacobian((0, 0, 0), lam, "lower")
        target = det * np.asarray(force) / mass
        step = 1e-6
        plus = project_chart(exp_subgroup(u, step)).vstar
        minus = project_chart(exp_subgroup(u, -step)).vstar
        fd = (plus - minus) / (2.0 * step)
        assert np.max(np.abs(fd - target)) < 1e-6


def test_match_generator_linear_in_force():
    force = np.array([0.8, -0.3, 0.5])
    u1 = match_generator(force, 2.0, 1.0, "lower")
    u4 = match_generator(4.0 * force, 2.0, 1.0, "lower")
    np.testing.assert_allclose(u4.xi, 4.0 * u1.xi, rtol=1e-9)


def test_match_generator_upper_hemisphere_is_singular():
    with pytest.raises(ChartSingularity):
        match_generator((1, 0, 0), 1.0, 1.0, "upper")


def test_pushforward_constant_and_zero_generator():
    u = PureQuaternion((0.4, -0.2, 0.9))
    assert pushforward_derivative(lambda vs: 3.5, u) == 0.0
    zero = PureQuaternion((0, 0, 0))
    assert pushforward_derivative(lambda vs: float(np.sum(vs**2)), zero) == 0.0


def test_pushforward_linear_field_directional_derivative():
    rng = np.random.default_rng(26)
    for _ in range(20):
        a = rng.uniform(-2, 2, 3)
        u = PureQuaternion(rng.uniform(-1.5, 1.5, 3))
        got = pushforward_derivative(lambda vs, a=a: float(a @ vs), u)
        # Linearizing the projection at the identity sends the tangent vector
        # (0, u1, u2, u3) to (u3, u1, u2): the orbit's initial chart velocity.
        want = float(a @ np.roll(u.xi, 1))
        assert abs(got - want) < 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xi", [(1e200, 0.0, 0.0), (-3e200, 4e200, 1e199), (1e308, 0.0, 0.0)])
def test_pushforward_of_a_generator_whose_square_overflows(xi):
    # |xi|^2 passes the float range from |xi| ~ 1.3e154, but |xi| and the step do not
    a = np.array([0.7, -1.2, 0.4])
    u = PureQuaternion(xi)
    got = pushforward_derivative(lambda vs: float(a @ vs), u)
    assert got == pytest.approx(float(a @ np.roll(u.xi, 1)), rel=1e-9)


def test_pushforward_of_a_generator_whose_norm_overflows_is_named():
    u = PureQuaternion((1.5e308, 1.5e308, 0.0))
    with pytest.raises(ValueError, match=r"^\|xi\| is past the float range"):
        pushforward_derivative(lambda vs: 0.0, u)


def test_transport_relation_zero_field():
    probe = ChartCoords((0.1, 0.0, -0.05))
    residual = transport_relation_residual(
        lambda vs, t: 0.0, PureQuaternion((0.2, 0.1, -0.3)), lambda t: t,
        lambda vs: 0.0, [0.0, 0.5, 1.0], probe)
    assert residual == 0.0


def test_transport_relation_reports_diagnostic_residual():
    probe = ChartCoords((0.2, 0.05, 0.0))
    generator = PureQuaternion((0.3, -0.1, 0.2))

    def steady(vstar, t):
        return math.exp(-float(np.dot(vstar, vstar)))

    residual = transport_relation_residual(
        steady, generator, lambda t: t, lambda vs: steady(vs, 0.0),
        [0.0, 0.25, 0.5], probe)
    assert np.isfinite(residual)
    assert residual >= 0.0


def test_transport_relation_exact_construction_has_zero_residual():
    # choose C so the relation holds exactly at the probe for theta(t) = t
    probe = ChartCoords((0.15, -0.1, 0.05))
    generator = PureQuaternion((0.25, 0.4, -0.1))

    def field(vstar, t):
        return 2.0

    residual = transport_relation_residual(
        field, generator, lambda t: t, lambda vs: 4.0, [0.0, 0.3, 0.7], probe)
    assert residual < 1e-9
