"""Simulator contracts: determinism, contact rules, success predicates,
and the scripted demonstrations."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovergen.envs import (PlanarBlockRotate, PointReach,
                             augmented_demo_actions, make_env,
                             rollout, rollout_with_resume, trajectory_table,
                             wrap_angle)
from recovergen.geometry import Pose, sample_object_perturbation


@pytest.fixture
def block_env():
    return PlanarBlockRotate()


@pytest.fixture
def reach_env():
    return PointReach()


def nominal(env):
    return env.nominal_friction()


# ---------------------------------------------------------------------------
# angle utilities and the success predicate


@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_wrap_angle_range_and_equivalence(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)


def _block_success(theta, theta_des, eps_theta):
    env = PlanarBlockRotate(theta_des=theta_des, eps_theta=eps_theta)
    return bool(env.success_batch(np.array([[0.0, 0.0, theta, 0.0, 0.0, 0.0, 0.0]]))[0])


def test_success_rotate_exact_match():
    assert _block_success(1.3, 1.3, 0.1)


def test_success_rotate_boundary_is_strict():
    assert not _block_success(1.3 + 0.1, 1.3, 0.1)


def test_success_rotate_small_error_passes():
    assert _block_success(1.3 + 0.05, 1.3, 0.1)


def test_success_rotate_wraps_branch_cut():
    # theta = -pi + 0.01 vs target pi - 0.01: error is 0.02 after wrapping
    assert _block_success(-math.pi + 0.01, math.pi - 0.01, 0.1)


# ---------------------------------------------------------------------------
# parameter randomization


def test_sample_friction_point_ranges_are_constant():
    rng = np.random.default_rng(0)
    f = PlanarBlockRotate(friction_range=(1.1, 1.1)).sample_friction(rng, 1)
    assert f.tolist() == [1.1]


def test_sample_friction_within_ranges():
    rng = np.random.default_rng(1)
    env = PlanarBlockRotate()
    assert env.friction_range == (0.8, 1.2)
    for _ in range(100):
        f = env.sample_friction(rng, 1)
        assert f.shape == (1,)
        assert 0.8 <= f[0] <= 1.2
    f = env.sample_friction(rng, 100)
    assert f.shape == (100,) and np.all((0.8 <= f) & (f <= 1.2))


def test_sample_friction_deterministic():
    a = PlanarBlockRotate().sample_friction(np.random.default_rng(9), 1)
    b = PlanarBlockRotate().sample_friction(np.random.default_rng(9), 1)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("env, mass_range", [
    pytest.param(PlanarBlockRotate(), (0.5, 3.0), id="planar_block_rotate"),
    pytest.param(PointReach(), (1.0, 1.0), id="point_reach")])
@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_sample_friction_equals_the_former_mass_then_friction_draws(env, mass_range, n):
    # until dataset format 4 each row drew a mass, which no dynamics read,
    # and then its friction scale, one row at a time; sample_friction
    # discards the mass draw, so every friction scale and every later draw
    # of the generator are unchanged bit for bit
    old, new = np.random.default_rng(21), np.random.default_rng(21)
    want = []
    for _ in range(n):
        float(old.uniform(mass_range[0], mass_range[1]))
        want.append(float(old.uniform(env.friction_range[0], env.friction_range[1])))
    got = env.sample_friction(new, n)
    assert got.shape == (n,) and got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()
    assert old.random(3).tobytes() == new.random(3).tobytes()


# ---------------------------------------------------------------------------
# rollout machinery


def test_rollout_shape_and_dimension_check(reach_env):
    s0 = reach_env.reset(reach_env.demo_object_pose())
    actions = np.zeros((reach_env.horizon, reach_env.action_dim))
    traj = rollout(reach_env, s0, actions, nominal(reach_env))
    assert traj.states.shape == (reach_env.horizon + 1, reach_env.state_dim)
    assert traj.actions.shape == (reach_env.horizon, reach_env.action_dim)
    with pytest.raises(ValueError):
        rollout(reach_env, s0, np.zeros((5, 2)), nominal(reach_env))


def test_rollout_bitwise_deterministic(block_env):
    pose = Pose(0.01, -0.02, 0.1)
    friction = 0.93
    s0 = block_env.reset(pose)
    rng = np.random.default_rng(0)
    actions = rng.uniform(-0.03, 0.03, size=(block_env.horizon, block_env.action_dim))
    t1 = rollout(block_env, s0, actions, friction)
    t2 = rollout(block_env, s0, actions, friction)
    assert np.array_equal(t1.states, t2.states)
    assert t1.success == t2.success


def test_pointreach_straight_line_succeeds(reach_env):
    friction = nominal(reach_env)
    s0 = reach_env.reset(reach_env.demo_object_pose())
    actions = augmented_demo_actions(reach_env, reach_env.demo_object_pose(), l_blend=1)
    traj = rollout(reach_env, s0, actions, friction)
    assert traj.success


def test_block_zero_actions_fail(block_env):
    friction = nominal(block_env)
    s0 = block_env.reset(Pose())
    traj = rollout(block_env, s0,
                   np.zeros((block_env.horizon, block_env.action_dim)), friction)
    assert not traj.success


def test_trajectory_length_mismatch_rejected():
    # T + 1 states per T actions and one row count
    for states, actions in (((1, 3, 2), (1, 3, 1)),
                            ((1, 3, 2), (2, 2, 1)),
                            ((3, 2), (2, 1))):
        with pytest.raises(ValueError):
            trajectory_table(np.zeros(states), np.zeros(actions), False, 1.0)
    with pytest.raises(ValueError):   # one friction scale, or one per row
        trajectory_table(np.zeros((2, 3, 2)), np.zeros((2, 2, 1)), False, [0.9, 0.8, 0.7])
    for points in ((2, 2), (1, 2, 1), (2, 2, 2)):   # (n, M, d_a) control points
        with pytest.raises(ValueError):
            trajectory_table(np.zeros((2, 3, 2)), np.zeros((2, 2, 1)), False, 1.0,
                             control_points=np.zeros(points))
    table = trajectory_table(np.zeros((2, 3, 2)), np.zeros((2, 2, 1)), [True, False],
                             np.array([1.0, 2.0]), variant=[4, 5])
    assert table.dtype.names == ("variant", "success", "friction_scale", "states", "actions",
                                 "control_points")
    # by default the actions are their own control points, M = T
    assert table["control_points"].tobytes() == table["actions"].tobytes()
    points = trajectory_table(np.zeros((2, 3, 2)), np.zeros((2, 2, 1)), False, 1.0,
                              control_points=np.ones((2, 5, 1)))["control_points"]
    assert points.shape == (2, 5, 1) and np.all(points == 1.0)
    assert table["variant"].tolist() == [4, 5]
    assert table["friction_scale"].tolist() == [1.0, 2.0]
    assert table["success"].tolist() == [True, False]


def test_rollout_with_resume_identity_relabel(block_env):
    friction = nominal(block_env)
    pose = Pose()
    actions = augmented_demo_actions(block_env, pose, l_blend=10)
    src = rollout(block_env, block_env.reset(pose), actions, friction)
    t = 20
    cont = rollout_with_resume(block_env, src.states[t], actions[t:t + 15],
                               actions[t + 15:], friction)
    assert np.allclose(cont.states[-1], src.states[-1], atol=1e-12)
    assert cont.success == src.success


def test_rollout_with_resume_empty_prefix(block_env):
    friction = nominal(block_env)
    pose = Pose()
    actions = augmented_demo_actions(block_env, pose, l_blend=10)
    src = rollout(block_env, block_env.reset(pose), actions, friction)
    cont = rollout_with_resume(block_env, src.states[0],
                               np.zeros((0, block_env.action_dim)), actions, friction)
    assert np.allclose(cont.states, src.states)


def test_rollout_with_resume_adversarial_prefix_fails(block_env):
    friction = nominal(block_env)
    pose = Pose()
    actions = augmented_demo_actions(block_env, pose, l_blend=10)
    src = rollout(block_env, block_env.reset(pose), actions, friction)
    assert src.success
    # drive both effectors away from the block for 15 steps, then resume
    away = np.tile([-0.03, -0.03, 0.03, 0.03], (15, 1))
    cont = rollout_with_resume(block_env, src.states[20], away, actions[35:], friction)
    assert not cont.success


def test_rollout_with_resume_rejects_overlong_span(block_env):
    friction = nominal(block_env)
    s = block_env.reset(Pose())
    too_long = np.zeros((block_env.horizon + 1, block_env.action_dim))
    with pytest.raises(ValueError):
        rollout_with_resume(block_env, s, too_long,
                            np.zeros((0, block_env.action_dim)), friction)


# ---------------------------------------------------------------------------
# PlanarBlockRotate contact model


def test_block_frozen_without_contact(block_env):
    friction = nominal(block_env)
    s = block_env.reset(Pose())  # effectors far from block
    s2 = block_env.step(s, np.array([0.01, 0.01, -0.01, 0.02]), friction)
    assert np.allclose(s2[:3], s[:3])  # block pose unchanged
    assert np.allclose(s2[3:], s[3:] + [0.01, 0.01, -0.01, 0.02])


def test_block_frozen_with_single_contact(block_env):
    # left effector grasping, right effector far away
    s = np.array([0.0, 0.0, 0.0, -0.08, 0.0, 0.5, 0.0])
    s2 = block_env.step(s, np.array([0.0, 0.02, 0.0, 0.02]), nominal(block_env))
    assert np.allclose(s2[:3], s[:3])


def test_block_follows_common_translation(block_env):
    # both effectors grasping: a common displacement translates the block
    s = np.array([0.0, 0.0, 0.0, -0.08, 0.0, 0.08, 0.0])
    d = np.array([0.01, 0.005, 0.01, 0.005])
    s2 = block_env.step(s, d, 1.0)
    assert np.allclose(s2[:3], [0.01, 0.005, 0.0], atol=1e-12)


def test_block_rigid_attachment_rotation(block_env):
    # rotate both grasp points by a small angle about the block center: the
    # block must compose with the same rotation (two-point rigid fit)
    phi = 0.05
    r = 0.08
    s = np.array([0.0, 0.0, 0.0, -r, 0.0, r, 0.0])
    c, sn = math.cos(phi), math.sin(phi)
    d = np.array([-c * r - (-r), -sn * r - 0.0, c * r - r, sn * r - 0.0])
    s2 = block_env.step(s, d, 1.0)
    assert np.allclose(s2[:3], [0.0, 0.0, phi], atol=1e-6)


def test_block_slip_attenuates_rotation(block_env):
    phi = 0.05
    r = 0.08
    s = np.array([0.0, 0.0, 0.0, -r, 0.0, r, 0.0])
    c, sn = math.cos(phi), math.sin(phi)
    d = np.array([-c * r - (-r), -sn * r, c * r - r, sn * r])
    s2 = block_env.step(s, d, 0.8)
    assert np.isclose(s2[2], 0.8 * phi, atol=1e-9)


def test_high_friction_slip_clamped_to_one(block_env):
    phi = 0.05
    r = 0.08
    s = np.array([0.0, 0.0, 0.0, -r, 0.0, r, 0.0])
    c, sn = math.cos(phi), math.sin(phi)
    d = np.array([-c * r - (-r), -sn * r, c * r - r, sn * r])
    s2 = block_env.step(s, d, 1.2)
    assert np.isclose(s2[2], phi, atol=1e-9)  # never overshoots


def test_action_clamped_to_a_max(block_env):
    s = block_env.reset(Pose())
    s2 = block_env.step(s, np.array([10.0, -10.0, 10.0, -10.0]), nominal(block_env))
    assert np.allclose(s2[3:] - s[3:], [0.03, -0.03, 0.03, -0.03])


# ---------------------------------------------------------------------------
# scripted demos and spatial augmentation


def test_block_demo_replay_succeeds(block_env):
    friction = nominal(block_env)
    pose = block_env.demo_object_pose()
    actions = augmented_demo_actions(block_env, pose, l_blend=10)
    traj = rollout(block_env, block_env.reset(pose), actions, friction)
    assert traj.success
    assert abs(wrap_angle(traj.states[-1, 2] - block_env.theta_des)) < 1e-6


def test_block_demo_respects_action_bounds(block_env):
    actions = augmented_demo_actions(block_env, block_env.demo_object_pose(), 10)
    assert np.all(np.abs(actions) <= block_env.a_max + 1e-12)


# sha256 of the concatenated augmented demo actions below, recorded with the
# planar (x, y, yaw) re-anchor (glibc's libm on x86-64); any change to the
# re-anchor or blend arithmetic moves it
DEMO_ACTIONS_DIGEST = "d7fc0b71580fea518a1063b82a20e13daa529690d245ce25a98563ba0f76687f"


def test_augmented_demo_actions_bitwise():
    # both environments, 20 seeds of 40 poses each (the first unperturbed),
    # and blends of 1, 2, 10 and horizon - 1 steps
    h = hashlib.sha256()
    for env in (PlanarBlockRotate(), PointReach()):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for k in range(40):
                scale = 0.0 if k == 0 else 1.0
                pose = sample_object_perturbation(np.array([0.08, 0.08, 0.0]) * scale,
                                                  0.3 * scale, rng)
                for l_blend in (1, 2, 10, env.horizon - 1):
                    h.update(augmented_demo_actions(env, pose, l_blend).tobytes())
    assert h.hexdigest() == DEMO_ACTIONS_DIGEST


def test_augmented_demo_small_perturbation_succeeds(block_env):
    # small translation-only perturbation: re-anchored replay still succeeds
    friction = nominal(block_env)
    pose = Pose(0.03, -0.02, 0.0)
    actions = augmented_demo_actions(block_env, pose, l_blend=10)
    traj = rollout(block_env, block_env.reset(pose), actions, friction)
    assert traj.success


def test_augmented_demo_success_degrades_with_perturbation(block_env):
    # average open-loop replay success should decrease as the initial-pose
    # perturbation magnitude grows
    rng = np.random.default_rng(11)
    rates = []
    for scale in (0.0, 0.5, 1.0):
        ok = 0
        for _ in range(20):
            dx, dy = rng.uniform(-0.08, 0.08, 2) * scale
            yaw = rng.uniform(-0.3, 0.3) * scale
            pose = Pose(dx, dy, yaw)
            friction = block_env.sample_friction(rng, 1)[0]
            actions = augmented_demo_actions(block_env, pose, 10)
            ok += rollout(block_env, block_env.reset(pose),
                          actions, friction).success
        rates.append(ok / 20)
    assert rates[0] >= rates[2]
    assert rates[2] < 1.0


def test_observe_concatenates_start_state(reach_env):
    s = np.array([1.0, 2.0, 3.0, 4.0])
    s0 = np.array([9.0, 8.0, 7.0, 6.0])
    assert np.array_equal(reach_env.observe(s, s0), np.concatenate([s, s0]))


def test_batched_observe_equals_per_row_observe(block_env, reach_env):
    # (n, w, d_s) window states against (n, 1, d_s) start states, as
    # export_pairs calls it, bitwise equal to one call per row
    rng = np.random.default_rng(4)
    for env in (block_env, reach_env):
        states = rng.standard_normal((3, 5, env.state_dim))
        states[1, 2, 0] = -0.0
        batch = env.observe(states, states[:, :1])
        assert batch.shape == (3, 5, 2 * env.state_dim)
        rows = np.array([[env.observe(s, traj[0]) for s in traj] for traj in states])
        assert batch.tobytes() == rows.tobytes()
        assert env.observe(states[0], states[0, 0]).tobytes() == rows[0].tobytes()


def test_make_env_overrides_and_unknown_name():
    env = make_env("planar_block_rotate", horizon=40, eps_theta=0.2)
    assert env.horizon == 40 and env.eps_theta == 0.2
    with pytest.raises(ValueError):
        make_env("nonexistent")


def test_psi_scales_match_psi_dim(block_env, reach_env):
    for env in (block_env, reach_env):
        s0 = env.reset(env.demo_object_pose())
        assert env.psi(s0).shape == env.psi_scales.shape
