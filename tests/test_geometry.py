"""Rigid-transform algebra: group laws, slerp, re-anchoring, blending."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovergen.geometry import (Pose, Rotation, blend_prefix, compose,
                                 inverse, reanchor_trajectory,
                                 sample_object_perturbation, slerp)

ATOL = 1e-9


def random_rotation(rng):
    q = rng.standard_normal(4)
    return Rotation(q)


def random_pose(rng):
    return Pose(random_rotation(rng), rng.uniform(-1.0, 1.0, size=3))


angles = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


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


def test_angle_of_z_rotation():
    assert np.isclose(Rotation.about_z(0.7).angle(), 0.7, atol=ATOL)
    # double cover: -0.7 about z has the same geodesic angle
    assert np.isclose(Rotation.about_z(-0.7).angle(), 0.7, atol=ATOL)


@pytest.mark.parametrize("phi", [1e-12, 2e-9, 1e-6, np.pi - 1e-9])
def test_angle_accurate_at_the_edges(phi):
    # arccos(|w|) loses every angle below ~1e-8 rad to rounding
    assert np.isclose(Rotation.about_z(phi).angle(), phi, rtol=1e-9, atol=0.0)


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
# slerp


def test_slerp_endpoints():
    r0 = Rotation.about_z(0.3)
    r1 = Rotation.about_z(1.2)
    assert slerp(r0, r1, 0.0).allclose(r0, atol=ATOL)
    assert slerp(r0, r1, 1.0).allclose(r1, atol=ATOL)


def test_slerp_midpoint_of_quarter_turn():
    mid = slerp(Rotation.identity(), Rotation.about_z(np.pi / 2.0), 0.5)
    assert mid.allclose(Rotation.about_z(np.pi / 4.0), atol=ATOL)


def test_slerp_rejects_alpha_outside_unit_interval():
    with pytest.raises(ValueError):
        slerp(Rotation.identity(), Rotation.about_z(0.1), 1.5)


@given(angles, angles, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_slerp_angle_linearity(a0, a1, alpha):
    r0 = Rotation.about_z(a0)
    r1 = Rotation.about_z(a1)
    total = r0.angle_to(r1)
    if total > np.pi - 1e-6:  # antipodal pairs excluded from the property
        return
    assert np.isclose(r0.angle_to(slerp(r0, r1, alpha)), alpha * total, atol=1e-9)


def test_slerp_takes_shorter_arc():
    # 170 deg vs -170 deg about z: the geodesic crosses the pi branch
    r0 = Rotation.about_z(np.deg2rad(170.0))
    r1 = Rotation.about_z(np.deg2rad(-170.0))
    mid = slerp(r0, r1, 0.5)
    assert np.isclose(r0.angle_to(mid), np.deg2rad(10.0), atol=1e-9)


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
    seq = [random_pose(rng) for _ in range(5)]
    out = reanchor_trajectory(seq, obj0, obj0)
    assert all(a.allclose(b, atol=1e-9) for a, b in zip(out, seq))


def test_reanchor_pure_translation_shift():
    obj0 = Pose.identity()
    shifted = Pose(Rotation.identity(), np.array([0.1, 0.0, 0.0]))
    seq = [Pose(Rotation.identity(), np.array([x, 0.0, 0.0])) for x in (0.0, 0.5)]
    out = reanchor_trajectory(seq, obj0, shifted)
    for a, b in zip(out, seq):
        assert np.allclose(a.translation, b.translation + [0.1, 0.0, 0.0], atol=ATOL)


def test_reanchor_preserves_object_relative_pose():
    # the trajectory expressed in the (new) object frame must equal the
    # demo expressed in the (old) object frame
    rng = np.random.default_rng(5)
    obj0 = random_pose(rng)
    new0 = compose(Pose.from_xy_yaw(0.02, -0.05, np.pi / 6.0), obj0)
    seq = [random_pose(rng) for _ in range(6)]
    out = reanchor_trajectory(seq, obj0, new0)
    for a, b in zip(out, seq):
        rel_new = compose(inverse(new0), a)
        rel_old = compose(inverse(obj0), b)
        assert rel_new.allclose(rel_old, atol=1e-8)


def test_reanchor_roundtrip():
    rng = np.random.default_rng(6)
    a_pose, b_pose = random_pose(rng), random_pose(rng)
    seq = [random_pose(rng) for _ in range(4)]
    back = reanchor_trajectory(reanchor_trajectory(seq, a_pose, b_pose), b_pose, a_pose)
    assert all(x.allclose(y, atol=1e-8) for x, y in zip(back, seq))


def test_reanchor_empty_rejected():
    with pytest.raises(ValueError):
        reanchor_trajectory([], Pose.identity(), Pose.identity())


# ---------------------------------------------------------------------------
# blend prefix


def test_blend_two_point():
    reset = Pose.from_xy_yaw(0.0, 0.0, 0.0)
    first = Pose.from_xy_yaw(1.0, 0.0, 0.5)
    out = blend_prefix(reset, first, 1)
    assert len(out) == 2
    assert out[0].allclose(reset) and out[1].allclose(first)


def test_blend_degenerate_endpoints_constant():
    p = Pose.from_xy_yaw(0.2, 0.1, 0.3)
    assert all(q.allclose(p, atol=ATOL) for q in blend_prefix(p, p, 7))


def test_blend_linear_translation_schedule():
    reset = Pose.identity()
    first = Pose(Rotation.identity(), np.array([1.0, 0.0, 0.0]))
    out = blend_prefix(reset, first, 4)
    assert np.allclose([p.translation[0] for p in out], [0.0, 0.25, 0.5, 0.75, 1.0],
                       atol=ATOL)


def test_blend_slerps_rotation():
    out = blend_prefix(Pose.identity(), Pose.from_xy_yaw(0.0, 0.0, 1.0), 10)
    yaws = [p.yaw() for p in out]
    assert np.allclose(yaws, np.linspace(0.0, 1.0, 11), atol=1e-9)


def test_blend_rejects_zero_length():
    with pytest.raises(ValueError):
        blend_prefix(Pose.identity(), Pose.identity(), 0)
