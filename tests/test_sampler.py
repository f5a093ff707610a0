"""Control-point decoder and the diagonal-Gaussian proposal sampler."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovergen.envs import (PlanarBlockRotate, PointReach, augmented_demo_actions,
                             rollout_batch)
from recovergen.geometry import Pose
from recovergen.sampler import (Proposal, decode, draw_plans, fit_control_points,
                                generate_success_batch, init_proposal,
                                interp_matrix, sample_batch, widen)


# ---------------------------------------------------------------------------
# decoder


def test_decode_identity_when_m_equals_horizon():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((7, 3))
    assert decode(c, 7).tobytes() == c.tobytes()


def test_decode_with_m_equal_to_horizon_returns_the_input_bits():
    # the identity product would turn -0.0 into 0.0 and spread an infinity
    # or a NaN payload over its column; decode skips it
    nan = np.array([0x7FF8_0000_DEAD_BEEF, 0xFFF0_0000_0000_0001], np.uint64).view(np.float64)
    points = np.array([[-0.0, nan[0]], [np.inf, -np.inf], [nan[1], 2.5]])
    for c in (points, np.stack([points, points[::-1]])):
        out = decode(c, 3)
        assert out.shape == c.shape
        assert out.view(np.uint64).tolist() == c.view(np.uint64).tolist()


def test_decode_linear_interpolation_endpoints():
    c = np.array([[0.0], [1.0]])
    assert np.allclose(decode(c, 3), [[0.0], [0.5], [1.0]], atol=1e-12)


def test_decode_exact_at_knots():
    rng = np.random.default_rng(1)
    horizon, m = 21, 5
    c = rng.standard_normal((m, 2))
    out = decode(c, horizon)
    knots = np.linspace(0, horizon - 1, m)
    for j, t in enumerate(knots):
        assert np.allclose(out[int(round(t))], c[j], atol=1e-12)


def test_decode_rejects_single_control_point():
    with pytest.raises(ValueError):
        decode(np.zeros((1, 2)), 5)


def test_decode_rejects_more_control_points_than_steps_and_no_matrix():
    for shape in ((6, 2), (3, 6, 2), (4,)):
        with pytest.raises(ValueError, match="2 <= M <= T = 5"):
            decode(np.zeros(shape), 5)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_decode_is_row_independent_bit_for_bit(data):
    # for 2 <= M <= T, decoding a row alone, a block of rows at any offset
    # or gathered rows gives the bits of the batch decode, also from a
    # field of a structured table (unaligned, after a 1-byte field), as the
    # readers decode
    horizon = data.draw(st.integers(2, 70), label="T")
    m = data.draw(st.integers(2, horizon), label="M")
    n = data.draw(st.integers(1, 40), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    points = rng.standard_normal((n, m, data.draw(st.integers(1, 4), label="d_a")))
    points *= 10.0 ** rng.integers(-3, 4, (n, 1, 1))
    bits = decode(points, horizon).view(np.uint64)
    table = np.zeros(n, [("flag", "?"), ("points", "<f8", points.shape[1:])])
    table["points"] = points
    row = data.draw(st.integers(0, n - 1), label="row")
    lo = data.draw(st.integers(0, n - 1), label="lo")
    hi = data.draw(st.integers(lo + 1, n), label="hi")
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=60),
                              label="rows"))
    for source in (points, table["points"]):
        assert np.array_equal(decode(source[row], horizon).view(np.uint64), bits[row])
        assert np.array_equal(decode(source[lo:hi], horizon).view(np.uint64), bits[lo:hi])
        assert np.array_equal(decode(source[rows], horizon).view(np.uint64), bits[rows])


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(8, 30))
@settings(max_examples=50, deadline=None)
def test_decode_is_linear_in_control_points(seed, m, horizon):
    rng = np.random.default_rng(seed)
    c1 = rng.standard_normal((m, 2))
    c2 = rng.standard_normal((m, 2))
    a, b = rng.standard_normal(2)
    assert np.allclose(decode(a * c1 + b * c2, horizon),
                       a * decode(c1, horizon) + b * decode(c2, horizon),
                       atol=1e-12)


def test_interp_matrix_rows_sum_to_one():
    w = interp_matrix(17, 5)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w >= 0.0)


def test_interp_matrix_is_shared_and_read_only():
    w = interp_matrix(23, 6)
    assert interp_matrix(23, 6) is w
    with pytest.raises(ValueError):
        w[0, 0] = 5.0
    assert interp_matrix(23, 7) is not w


# ---------------------------------------------------------------------------
# least-squares fit


def test_fit_recovers_piecewise_linear_demo():
    rng = np.random.default_rng(2)
    horizon, m = 25, 7
    c_true = rng.standard_normal((m, 3))
    demo = decode(c_true, horizon)
    c_fit = fit_control_points(demo, m)
    assert np.allclose(c_fit, c_true, atol=1e-9)
    assert np.allclose(decode(c_fit, horizon), demo, atol=1e-9)


def test_fit_constant_demo_gives_constant_points():
    demo = np.full((20, 2), 0.37)
    c = fit_control_points(demo, 6)
    assert np.allclose(c, 0.37, atol=1e-10)


def test_fit_identity_when_m_equals_horizon():
    rng = np.random.default_rng(3)
    demo = rng.standard_normal((12, 2))
    assert np.allclose(fit_control_points(demo, 12), demo, atol=1e-9)


def test_fit_rejects_short_demo():
    with pytest.raises(ValueError):
        fit_control_points(np.zeros((3, 2)), 5)


def test_fit_is_least_squares_optimal():
    # residual of the returned fit matches the lstsq residual of the
    # interpolation system
    rng = np.random.default_rng(4)
    demo = rng.standard_normal((30, 2))
    m = 6
    c = fit_control_points(demo, m)
    w = interp_matrix(30, m)
    # normal equations hold at the optimum: W^T (W c - demo) = 0
    assert np.allclose(w.T @ (w @ c - demo), 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# proposal initialization and sampling


def test_init_proposal_mean_is_fit():
    rng = np.random.default_rng(5)
    demo = rng.standard_normal((20, 2)) * 0.03
    q = init_proposal(demo, 6, sigma0=0.01, variance_floor=1e-8)
    assert np.allclose(q.mean, fit_control_points(demo, 6).reshape(-1))
    assert np.allclose(q.std, 0.01)


def test_init_proposal_floors_sigma():
    demo = np.zeros((20, 2))
    q = init_proposal(demo, 5, sigma0=0.0, variance_floor=1e-3)
    assert np.allclose(q.std, np.sqrt(1e-3))


def test_init_proposal_broadcasts_scalar_sigma():
    demo = np.zeros((20, 3))
    q = init_proposal(demo, 4, sigma0=0.05, variance_floor=1e-8)
    assert q.std.shape == (12,)
    assert np.allclose(q.std, 0.05)


def test_init_proposal_rejects_negative_sigma():
    with pytest.raises(ValueError):
        init_proposal(np.zeros((20, 2)), 5, sigma0=-0.1, variance_floor=1e-8)


def test_sample_batch_deterministic_and_shaped():
    q = Proposal(mean=np.zeros(8), std=np.ones(8), m_points=4, action_dim=2)
    a = sample_batch(q, 5, np.random.default_rng(0))
    b = sample_batch(q, 5, np.random.default_rng(0))
    assert a.shape == (5, 8)
    assert np.array_equal(a, b)


def test_sample_batch_mean_converges():
    mu = np.array([1.0, -2.0, 0.5])
    q = Proposal(mean=mu, std=np.full(3, 0.2), m_points=3, action_dim=1)
    n = 10_000
    draws = sample_batch(q, n, np.random.default_rng(6))
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 4.0 * 0.2 / np.sqrt(n))


def test_sample_batch_rejects_empty():
    q = Proposal(mean=np.zeros(2), std=np.ones(2), m_points=2, action_dim=1)
    with pytest.raises(ValueError):
        sample_batch(q, 0, np.random.default_rng(0))


def test_widen_scales_std_only():
    q = Proposal(mean=np.ones(4), std=np.full(4, 0.1), m_points=2, action_dim=2)
    q2 = widen(q, 1.5)
    assert np.allclose(q2.std, 0.15)
    assert np.array_equal(q2.mean, q.mean)


# ---------------------------------------------------------------------------
# success filtering


def _reach_proposal(env, sigma0, floor=1e-10):
    demo = augmented_demo_actions(env, env.demo_object_pose(), l_blend=1)
    return init_proposal(demo, 6, sigma0=sigma0, variance_floor=floor)


def test_success_batch_near_replay_keeps_all():
    env = PointReach()
    q = _reach_proposal(env, sigma0=1e-5)
    batch = generate_success_batch(env, env.demo_object_pose(), q, 10,
                                   np.random.default_rng(0))
    assert len(batch) == 10
    assert batch.n_sampled == 10


def test_success_batch_guaranteed_failure_is_empty():
    env = PointReach()
    q = _reach_proposal(env, sigma0=1e-5)
    far = Pose(10.0, 10.0, 0.0)  # unreachable goal
    batch = generate_success_batch(env, far, q, 10, np.random.default_rng(0))
    assert len(batch) == 0
    assert batch.n_sampled == 10


def test_success_batch_members_revalidate():
    env = PointReach()
    q = _reach_proposal(env, sigma0=0.003)
    batch = generate_success_batch(env, env.demo_object_pose(), q, 30,
                                   np.random.default_rng(1))
    assert 0 < len(batch) <= 30
    plans, states = batch.plans, batch.states
    assert all(len(column) == len(batch) for column in plans)
    assert env.success_batch(states[:, -1]).all()  # re-evaluation agrees
    assert np.array_equal(states[:, 0], plans.s0s)
    # the rows are the draws whose rollouts succeed, in draw order
    drawn = draw_plans(env, env.demo_object_pose(), q, 30, np.random.default_rng(1))
    ok = rollout_batch(env, drawn.s0s, drawn.actions, drawn.friction)[1]
    for column, kept in zip(drawn, plans):
        assert column[ok].tobytes() == kept.tobytes()
    # each row's control points are the draw its actions decode from
    assert plans.control_points.shape == (len(batch), 6, 2)
    for c, actions in zip(plans.control_points, plans.actions):
        assert np.array_equal(decode(c, env.horizon), actions)


def test_stored_control_points_fix_the_actions():
    # the dataset stores the control points, not the actions, because the
    # points fix them: the actions are their decode bit for bit, for the
    # whole table and for each row alone, as a reader decodes them
    env = PlanarBlockRotate()
    demo = augmented_demo_actions(env, env.demo_object_pose(), l_blend=10)
    q = init_proposal(demo, 16, sigma0=0.003, variance_floor=1e-8)
    w = interp_matrix(env.horizon, 16)
    rows = 0
    for seed in range(5):
        plans = generate_success_batch(env, env.demo_object_pose(), q, 64,
                                       np.random.default_rng(seed)).plans
        points, actions = plans.control_points, plans.actions
        rows += len(points)
        assert points.shape == (len(actions), 16, 4)
        assert (w @ points).tobytes() == actions.tobytes()
        assert decode(points, env.horizon).tobytes() == actions.tobytes()
        for c, plan in zip(points, actions):
            assert decode(c, env.horizon).tobytes() == plan.tobytes()
    assert rows > 0


def test_draw_plans_decodes_each_draw_as_decode_does():
    # one stacked product over every draw equals decode of each draw, bitwise
    env = PlanarBlockRotate()
    demo = augmented_demo_actions(env, env.demo_object_pose(), l_blend=10)
    q = init_proposal(demo, 16, sigma0=0.003, variance_floor=1e-8)
    for seed in range(20):
        plans = draw_plans(env, env.demo_object_pose(), q, 64, np.random.default_rng(seed))
        per_draw = np.array([decode(c, env.horizon) for c in plans.control_points])
        assert plans.control_points.shape == (64, 16, 4)
        assert plans.actions.tobytes() == per_draw.tobytes()


def test_success_batch_deterministic():
    env = PointReach()
    q = _reach_proposal(env, sigma0=0.02)
    a = generate_success_batch(env, env.demo_object_pose(), q, 20,
                               np.random.default_rng(2))
    b = generate_success_batch(env, env.demo_object_pose(), q, 20,
                               np.random.default_rng(2))
    assert len(a) == len(b) and a.n_sampled == b.n_sampled
    for x, y in zip((*a.plans, a.states), (*b.plans, b.states)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
