"""Rigid-transform algebra: group laws, re-anchoring, blending."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovergen.envs import PlanarBlockRotate, PointReach, augmented_demo_actions
from recovergen.geometry import (Pose, Rotation, compose, inverse,
                                 reanchor_trajectory, sample_object_perturbation)

ATOL = 1e-9


def random_rotation(rng):
    q = rng.standard_normal(4)
    return Rotation(q)


def random_pose(rng):
    return Pose(random_rotation(rng), rng.uniform(-1.0, 1.0, size=3))


def apply(pose, points):
    return pose.rotation.apply(points) + pose.translation


# ---------------------------------------------------------------------------
# Rotation


def test_quaternion_canonicalization():
    r = Rotation(np.array([-1.0, 0.0, 0.0, 0.0]))
    assert r.wxyz[0] >= 0.0
    assert np.isclose(np.linalg.norm(r.wxyz), 1.0, atol=ATOL)


def test_zero_quaternion_rejected():
    with pytest.raises(ValueError):
        Rotation(np.zeros(4))
    with pytest.raises(ValueError):
        Rotation(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_about_z_rotates_x_to_y():
    r = Rotation.about_z(np.pi / 2.0)
    assert np.allclose(r.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=ATOL)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_rotation_inverse_is_identity(seed):
    r = random_rotation(np.random.default_rng(seed))
    assert r.multiply(r.inverse()).allclose(Rotation.identity(), atol=ATOL)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_rotation_ops_preserve_invariants(seed):
    rng = np.random.default_rng(seed)
    r = random_rotation(rng).multiply(random_rotation(rng))
    assert np.isclose(np.linalg.norm(r.wxyz), 1.0, atol=ATOL)
    assert r.wxyz[0] >= 0.0


# ---------------------------------------------------------------------------
# Pose composition


def test_compose_identity():
    rng = np.random.default_rng(0)
    p = random_pose(rng)
    assert compose(Pose.identity(), p).allclose(p)
    assert compose(p, Pose.identity()).allclose(p)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = random_pose(rng)
        assert compose(p, inverse(p)).allclose(Pose.identity(), atol=ATOL)
        assert compose(inverse(p), p).allclose(Pose.identity(), atol=ATOL)


def test_commuting_translations():
    a = Pose(Rotation.identity(), np.array([0.0, 0.0, 1.0]))
    b = Pose(Rotation.identity(), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(compose(a, b).translation, [0.0, 1.0, 1.0])


def test_inverse_of_pure_translation():
    p = Pose(Rotation.identity(), np.array([0.3, -0.2, 0.1]))
    assert np.allclose(inverse(p).translation, [-0.3, 0.2, -0.1])


def test_inverse_of_z_rotation():
    p = Pose(Rotation.about_z(np.pi / 2.0), np.zeros(3))
    assert inverse(p).rotation.allclose(Rotation.about_z(-np.pi / 2.0))


def test_compose_associative():
    rng = np.random.default_rng(2)
    a, b, c = (random_pose(rng) for _ in range(3))
    assert compose(compose(a, b), c).allclose(compose(a, compose(b, c)), atol=1e-8)


def test_from_xy_yaw_roundtrip():
    p = Pose.from_xy_yaw(0.1, -0.2, 0.4)
    assert np.isclose(p.yaw(), 0.4, atol=ATOL)
    assert np.allclose(p.translation, [0.1, -0.2, 0.0])


# ---------------------------------------------------------------------------
# perturbation sampling


def test_perturbation_degenerate_ranges_give_identity():
    rng = np.random.default_rng(0)
    p = sample_object_perturbation((0.0, 0.0, 0.0), 0.0, rng)
    assert p.allclose(Pose.identity())


def test_perturbation_respects_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = sample_object_perturbation((0.08, 0.08, 0.0), 0.3, rng)
        assert abs(p.translation[0]) <= 0.08
        assert abs(p.translation[1]) <= 0.08
        assert p.translation[2] == 0.0
        assert abs(p.yaw()) <= 0.3


def test_perturbation_negative_bounds_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_object_perturbation((-0.1, 0.0, 0.0), 0.0, rng)


def test_perturbation_deterministic_given_seed():
    a = sample_object_perturbation((0.08, 0.08, 0.0), 0.3, np.random.default_rng(42))
    b = sample_object_perturbation((0.08, 0.08, 0.0), 0.3, np.random.default_rng(42))
    assert a.allclose(b, atol=0.0)


def test_perturbation_empirical_mean_near_zero():
    rng = np.random.default_rng(7)
    n = 10_000
    xs = np.array([sample_object_perturbation((0.08, 0.08, 0.0), 0.3, rng).translation
                   for _ in range(n)])
    sigma = 0.08 / np.sqrt(3.0)  # std of U(-b, b)
    assert np.all(np.abs(xs[:, :2].mean(axis=0)) < 3.0 * sigma / np.sqrt(n))


# ---------------------------------------------------------------------------
# re-anchoring


def test_reanchor_identity_perturbation_is_noop():
    rng = np.random.default_rng(4)
    obj0 = random_pose(rng)
    points = rng.uniform(-1.0, 1.0, size=(5, 3))
    assert np.allclose(reanchor_trajectory(points, obj0, obj0), points, atol=1e-9)


def test_reanchor_pure_translation_shift():
    shifted = Pose(Rotation.identity(), np.array([0.1, 0.0, 0.0]))
    points = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    out = reanchor_trajectory(points, Pose.identity(), shifted)
    assert np.allclose(out, points + [0.1, 0.0, 0.0], atol=ATOL)


def test_reanchor_preserves_object_relative_pose():
    # the positions expressed in the (new) object frame must equal the
    # demo expressed in the (old) object frame
    rng = np.random.default_rng(5)
    obj0 = random_pose(rng)
    new0 = compose(Pose.from_xy_yaw(0.02, -0.05, np.pi / 6.0), obj0)
    points = rng.uniform(-1.0, 1.0, size=(6, 3))
    out = reanchor_trajectory(points, obj0, new0)
    assert np.allclose(apply(inverse(new0), out), apply(inverse(obj0), points), atol=1e-8)


def test_reanchor_roundtrip():
    rng = np.random.default_rng(6)
    a_pose, b_pose = random_pose(rng), random_pose(rng)
    points = rng.uniform(-1.0, 1.0, size=(4, 3))
    back = reanchor_trajectory(reanchor_trajectory(points, a_pose, b_pose), b_pose, a_pose)
    assert np.allclose(back, points, atol=1e-8)


def test_reanchor_empty_rejected():
    for points in (np.zeros((0, 3)), np.zeros(3), np.zeros((4, 2))):
        with pytest.raises(ValueError):
            reanchor_trajectory(points, Pose.identity(), Pose.identity())


# ---------------------------------------------------------------------------
# blend prefix: augmented_demo_actions approaches the first re-anchored demo
# position linearly from the reset position over l_blend steps


def positions(env, l_blend, variant=None):
    """Effector path (horizon + 1, 2) that the augmented demo's actions
    trace from the reset position."""
    variant = env.demo_object_pose() if variant is None else variant
    steps = augmented_demo_actions(env, variant, l_blend)
    start = env.reset_ee_positions()[0][:2]
    return np.concatenate([[start], start + np.cumsum(steps, axis=0)])


def test_blend_two_point():
    # l_blend = 1: the reset position, then the demo from its first position
    env = PointReach(horizon=4, start=(0.0, 0.0), goal=(1.0, 0.0))
    path = positions(env, 1)
    assert np.allclose(path, [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0], [1.0, 0.0]],
                       atol=ATOL)


def test_blend_degenerate_endpoints_constant():
    # a variant that moves the demo's first position onto the reset position
    env = PointReach(horizon=8, start=(0.2, 0.1), goal=(0.6, 0.3))
    variant = Pose.from_xy_yaw(0.4, 0.2, 0.0)   # first demo position (0.4, 0.2) -> (0.2, 0.1)
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
