"""Planar rigid-transform algebra: group laws, re-anchoring, perturbation
draws, blending."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovergen.envs import PlanarBlockRotate, PointReach, augmented_demo_actions
from recovergen.geometry import (Pose, compose, reanchor_trajectory,
                                 sample_object_perturbation)

ATOL = 1e-9


def random_pose(rng):
    x, y = rng.uniform(-1.0, 1.0, size=2)
    return Pose(x, y, rng.uniform(-math.pi, math.pi))


def inverse(p):
    """Group inverse: rotate by -yaw, translate by -R(-yaw) t."""
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    return Pose(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.yaw)


def apply(pose, points):
    """The pose acting on the rows of an (n, 2) array."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    return points @ np.array([[c, s], [-s, c]]) + [pose.x, pose.y]


def close(a, b, atol=ATOL):
    """Equal as rigid transforms: yaw compared modulo 2 pi."""
    return (abs(a.x - b.x) <= atol and abs(a.y - b.y) <= atol
            and abs(math.remainder(a.yaw - b.yaw, 2.0 * math.pi)) <= atol)


# ---------------------------------------------------------------------------
# Pose


def test_pose_defaults_to_identity_and_holds_floats():
    assert (Pose().x, Pose().y, Pose().yaw) == (0.0, 0.0, 0.0)
    p = Pose(0.1, -0.2, 0.4)
    assert (p.x, p.y, p.yaw) == (0.1, -0.2, 0.4)
    p = sample_object_perturbation((0.08, 0.08, 0.0), 0.3, np.random.default_rng(1))
    assert all(type(v) is float for v in (p.x, p.y, p.yaw))


@given(st.floats(-50.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_yaw_kept_in_range(yaw):
    p = Pose(0.0, 0.0, yaw)
    assert -math.pi <= p.yaw <= math.pi
    assert math.isclose(math.cos(p.yaw), math.cos(yaw), abs_tol=1e-12)
    assert math.isclose(math.sin(p.yaw), math.sin(yaw), abs_tol=1e-12)


def test_yaw_within_range_is_kept_exactly():
    for yaw in (0.0, 0.3, -0.3, 1e-300, math.pi, -math.pi, np.nextafter(math.pi, 0.0)):
        assert Pose(0.0, 0.0, yaw).yaw == yaw


def test_about_z_rotates_x_to_y():
    p = compose(Pose(0.0, 0.0, math.pi / 2.0), Pose(1.0, 0.0, 0.0))
    assert close(p, Pose(0.0, 1.0, math.pi / 2.0))


@given(st.floats(-math.pi, math.pi))
@settings(max_examples=50, deadline=None)
def test_rotation_inverse_is_identity(yaw):
    r = Pose(0.0, 0.0, yaw)
    assert close(compose(r, inverse(r)), Pose())


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_rotation_ops_preserve_invariants(seed):
    # a product of rotations stays a canonical pose: yaw in [-pi, pi]
    rng = np.random.default_rng(seed)
    p = compose(random_pose(rng), random_pose(rng))
    assert -math.pi <= p.yaw <= math.pi
    assert all(isinstance(v, float) for v in (p.x, p.y, p.yaw))


# ---------------------------------------------------------------------------
# Pose composition


def test_compose_identity():
    p = random_pose(np.random.default_rng(0))
    assert compose(Pose(), p) == p
    assert compose(p, Pose()) == p


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_compose_inverse_is_identity(seed):
    p = random_pose(np.random.default_rng(seed))
    assert close(compose(p, inverse(p)), Pose())
    assert close(compose(inverse(p), p), Pose())


def test_commuting_translations():
    a, b = Pose(0.3, 0.0), Pose(0.0, 1.0)
    assert compose(a, b) == compose(b, a) == Pose(0.3, 1.0)


def test_inverse_of_pure_translation():
    assert inverse(Pose(0.3, -0.2)) == Pose(-0.3, 0.2)


def test_inverse_of_z_rotation():
    assert close(inverse(Pose(0.0, 0.0, math.pi / 2.0)), Pose(0.0, 0.0, -math.pi / 2.0))


def test_compose_associative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b, c = (random_pose(rng) for _ in range(3))
        assert close(compose(compose(a, b), c), compose(a, compose(b, c)), atol=1e-12)


def test_compose_acts_as_applying_b_then_a():
    rng = np.random.default_rng(8)
    a, b = random_pose(rng), random_pose(rng)
    points = rng.uniform(-1.0, 1.0, size=(5, 2))
    assert np.allclose(apply(compose(a, b), points), apply(a, apply(b, points)), atol=1e-12)


# ---------------------------------------------------------------------------
# perturbation sampling


def test_perturbation_degenerate_ranges_give_identity():
    rng = np.random.default_rng(0)
    assert sample_object_perturbation((0.0, 0.0, 0.0), 0.0, rng) == Pose()


def test_perturbation_respects_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = sample_object_perturbation((0.08, 0.05, 0.0), 0.3, rng)
        assert abs(p.x) <= 0.08
        assert abs(p.y) <= 0.05
        assert abs(p.yaw) <= 0.3


def test_perturbation_negative_bounds_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_object_perturbation((-0.1, 0.0, 0.0), 0.0, rng)
    with pytest.raises(ValueError):
        sample_object_perturbation((0.1, 0.0, 0.0), -0.1, rng)


def test_perturbation_deterministic_given_seed():
    a = sample_object_perturbation((0.08, 0.08, 0.0), 0.3, np.random.default_rng(42))
    b = sample_object_perturbation((0.08, 0.08, 0.0), 0.3, np.random.default_rng(42))
    assert a == b


@pytest.mark.parametrize("seed", [0, 7, 2 ** 31 + 5])
def test_perturbation_takes_uniform_draws_1_2_and_4(seed):
    # x, y, a discarded z, then yaw: the draw order of every stored dataset
    trans, yaw = (0.08, 0.05, 0.02), 0.3
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    p = sample_object_perturbation(trans, yaw, rng)
    draws = [twin.uniform(-b, b) for b in trans] + [twin.uniform(-yaw, yaw)]
    assert (p.x, p.y, p.yaw) == (draws[0], draws[1], draws[3])
    assert rng.random() == twin.random()
    # a zero yaw range makes no yaw draw
    p = sample_object_perturbation(trans, 0.0, rng)
    draws = [twin.uniform(-b, b) for b in trans]
    assert (p.x, p.y, p.yaw) == (draws[0], draws[1], 0.0)
    assert rng.random() == twin.random()


def test_perturbation_empirical_mean_near_zero():
    rng = np.random.default_rng(7)
    n = 10_000
    xs = np.array([(p.x, p.y) for p in (sample_object_perturbation((0.08, 0.08, 0.0), 0.3, rng)
                                        for _ in range(n))])
    sigma = 0.08 / np.sqrt(3.0)  # std of U(-b, b)
    assert np.all(np.abs(xs.mean(axis=0)) < 3.0 * sigma / np.sqrt(n))


# ---------------------------------------------------------------------------
# re-anchoring


def test_reanchor_identity_perturbation_is_noop():
    rng = np.random.default_rng(4)
    obj0 = random_pose(rng)
    points = rng.uniform(-1.0, 1.0, size=(5, 2))
    assert np.allclose(reanchor_trajectory(points, obj0, obj0), points, atol=1e-12)


def test_reanchor_pure_translation_shift():
    points = np.array([[0.0, 0.0], [0.5, 0.0]])
    out = reanchor_trajectory(points, Pose(), Pose(0.1, 0.0))
    assert np.allclose(out, points + [0.1, 0.0], atol=ATOL)


def test_reanchor_preserves_object_relative_pose():
    # the positions expressed in the (new) object frame must equal the
    # demo expressed in the (old) object frame
    rng = np.random.default_rng(5)
    obj0 = random_pose(rng)
    new0 = compose(Pose(0.02, -0.05, np.pi / 6.0), obj0)
    points = rng.uniform(-1.0, 1.0, size=(6, 2))
    out = reanchor_trajectory(points, obj0, new0)
    assert np.allclose(apply(inverse(new0), out), apply(inverse(obj0), points), atol=1e-12)


def test_reanchor_roundtrip():
    rng = np.random.default_rng(6)
    a_pose, b_pose = random_pose(rng), random_pose(rng)
    points = rng.uniform(-1.0, 1.0, size=(4, 2))
    back = reanchor_trajectory(reanchor_trajectory(points, a_pose, b_pose), b_pose, a_pose)
    assert np.allclose(back, points, atol=1e-12)


def test_reanchor_empty_rejected():
    for points in (np.zeros((0, 2)), np.zeros(2), np.zeros((4, 3))):
        with pytest.raises(ValueError):
            reanchor_trajectory(points, Pose(), Pose())


# ---------------------------------------------------------------------------
# blend prefix: augmented_demo_actions approaches the first re-anchored demo
# position linearly from the reset position over l_blend steps


def positions(env, l_blend, variant=None):
    """Effector path (horizon + 1, 2) that the augmented demo's actions
    trace from the reset position."""
    variant = env.demo_object_pose() if variant is None else variant
    steps = augmented_demo_actions(env, variant, l_blend)
    start = env.reset_ee_positions()[0]
    return np.concatenate([[start], start + np.cumsum(steps, axis=0)])


def test_effector_paths_are_planar():
    for env in (PlanarBlockRotate(), PointReach()):
        assert all(p.shape == (2,) for p in env.reset_ee_positions())
        assert all(d.shape == (7, 2) for d in env.demo_ee_positions(7))


def test_blend_two_point():
    # l_blend = 1: the reset position, then the demo from its first position
    env = PointReach(horizon=4, start=(0.0, 0.0), goal=(1.0, 0.0))
    path = positions(env, 1)
    assert np.allclose(path, [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0], [1.0, 0.0]],
                       atol=ATOL)


def test_blend_degenerate_endpoints_constant():
    # a variant that moves the demo's first position onto the reset position
    env = PointReach(horizon=8, start=(0.2, 0.1), goal=(0.6, 0.3))
    variant = Pose(0.4, 0.2, 0.0)   # first demo position (0.4, 0.2) -> (0.2, 0.1)
    path = positions(env, 7, variant)
    assert np.allclose(path[:8], [0.2, 0.1], atol=ATOL)
    assert np.allclose(path[8], [0.4, 0.2], atol=ATOL)


def test_blend_linear_translation_schedule():
    env = PointReach(horizon=8, start=(0.0, 0.0), goal=(5.0, 0.0))
    path = positions(env, 4)
    assert np.allclose(path[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0], atol=ATOL)
    assert np.all(path[:, 1] == 0.0)


def test_blend_rejects_zero_length():
    for env in (PlanarBlockRotate(), PointReach()):
        for l_blend in (0, -1):
            with pytest.raises(ValueError, match="l_blend must be >= 1"):
                augmented_demo_actions(env, env.demo_object_pose(), l_blend)
