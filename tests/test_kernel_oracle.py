"""The batched simulation kernel against a scalar reference.

The scalar ``step`` functions below are the one-row dynamics the batched
kernel replaced, kept here only as an oracle; they call numpy's
``arctan2`` and ``hypot`` on one element at a time.  Agreement is asserted
bitwise, not within a tolerance: the pipeline's output bytes depend on
every bit of every state, and a row must get the same bits alone and at
any position in any batch.
"""
import math

import numpy as np
import pytest

from recovergen import envs
from recovergen.envs import (PlanarBlockRotate, PointReach, lockstep,
                             rollout_batch, rollout_with_resume)


# ---------------------------------------------------------------------------
# scalar reference dynamics


def _wrap_angle(theta):
    out = math.fmod(theta + math.pi, 2.0 * math.pi)
    if out <= 0.0:
        out += 2.0 * math.pi
    return out - math.pi


def _rect_distance(px, py, hx, hy):
    dx = abs(px) - hx
    dy = abs(py) - hy
    if dx <= 0.0 and dy <= 0.0:
        return 0.0
    return float(np.hypot(max(dx, 0.0), max(dy, 0.0)))


def _in_contact(env, ex, ey, bx, by, bth):
    c = math.cos(-bth)
    s = math.sin(-bth)
    dx = ex - bx
    dy = ey - by
    px = c * dx - s * dy
    py = s * dx + c * dy
    return _rect_distance(px, py, *env.half_extents) <= env.contact_margin


def scalar_block_step(env, state, action, friction):
    bx, by, bth, lx, ly, rx, ry = (float(v) for v in state)
    amax = env.a_max
    dlx, dly, drx, dry = (min(max(float(a), -amax), amax) for a in action)
    nlx, nly = lx + dlx, ly + dly
    nrx, nry = rx + drx, ry + dry
    if _in_contact(env, lx, ly, bx, by, bth) and _in_contact(env, rx, ry, bx, by, bth):
        cox = 0.5 * (lx + rx)
        coy = 0.5 * (ly + ry)
        cnx = 0.5 * (nlx + nrx)
        cny = 0.5 * (nly + nry)
        ux, uy = rx - lx, ry - ly
        vx, vy = nrx - nlx, nry - nly
        dth = float(np.arctan2(ux * vy - uy * vx, ux * vx + uy * vy))
        slip = min(max(friction, 0.0), 1.0)
        sth = slip * dth
        c = math.cos(sth)
        s = math.sin(sth)
        relx, rely = bx - cox, by - coy
        bx = c * relx - s * rely + cox + slip * (cnx - cox)
        by = s * relx + c * rely + coy + slip * (cny - coy)
        bth = _wrap_angle(bth + sth)
    return np.array([bx, by, bth, nlx, nly, nrx, nry])


def scalar_reach_step(env, state, action, friction):
    x, y, gx, gy = (float(v) for v in state)
    amax = env.a_max
    dx = min(max(float(action[0]), -amax), amax)
    dy = min(max(float(action[1]), -amax), amax)
    return np.array([x + dx, y + dy, gx, gy])


# ---------------------------------------------------------------------------
# random rows that reach every branch


def _block_rows(env, n, rng):
    """Block poses with effectors placed in, near and outside the contact
    band, at the rectangle's corners and faces, with clamped and free
    actions and friction scales on both sides of [0, 1]."""
    hx, hy = env.half_extents
    bx, by = rng.uniform(-0.1, 0.1, (2, n))
    bth = rng.uniform(-4.0, 4.0, n)
    rows = np.empty((n, 7))
    rows[:, 0], rows[:, 1], rows[:, 2] = bx, by, bth
    for col in (3, 5):
        kind = rng.integers(0, 4, n)
        # block-frame offsets: inside, on a face, at a corner, far away
        px = np.where(kind == 0, rng.uniform(-hx, hx, n),
             np.where(kind == 1, np.sign(rng.standard_normal(n)) * hx,
             np.where(kind == 2, np.sign(rng.standard_normal(n)) * hx,
                      rng.uniform(-0.5, 0.5, n))))
        py = np.where(kind == 0, rng.uniform(-hy, hy, n),
             np.where(kind == 1, rng.uniform(-hy, hy, n),
             np.where(kind == 2, np.sign(rng.standard_normal(n)) * hy,
                      rng.uniform(-0.5, 0.5, n))))
        jitter = rng.uniform(-1.5, 1.5, (2, n)) * env.contact_margin
        px, py = px + jitter[0], py + jitter[1]
        c, s = np.cos(bth), np.sin(bth)
        rows[:, col] = bx + c * px - s * py
        rows[:, col + 1] = by + s * px + c * py
    actions = rng.uniform(-2.0, 2.0, (n, 4)) * env.a_max
    frictions = rng.uniform(-0.5, 1.5, n)
    return rows, actions, frictions


def _boundary_rows(env, n, rng):
    """Left effector on the outer edge of the contact band around a
    corner, where the distance to the block lands within a few ulp of
    contact_margin on either side; the right effector is inside the block,
    so the left one decides contact."""
    hx, hy = env.half_extents
    m = env.contact_margin
    phi = rng.uniform(0.05, math.pi / 2.0 - 0.05, n)
    rows = np.zeros((n, 7))
    rows[:, 3] = hx + m * np.cos(phi)
    rows[:, 4] = hy + m * np.sin(phi)
    rows[:, 5] = -0.05
    actions = np.tile([0.01, -0.02, 0.03, 0.05], (n, 1))
    return rows, actions, np.full(n, 0.9)


def _reference(env, ref_step, rows, actions, frictions):
    return np.array([ref_step(env, s, a, f)
                     for s, a, f in zip(rows, actions, frictions)])


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module")
def block_rows():
    env = PlanarBlockRotate()
    rng = np.random.default_rng(11)
    rows, actions, frictions = _block_rows(env, 4000, rng)
    edge_rows, edge_actions, edge_frictions = _boundary_rows(env, 4000, rng)
    return (env, np.concatenate([rows, edge_rows]),
            np.concatenate([actions, edge_actions]),
            np.concatenate([frictions, edge_frictions]))


# ---------------------------------------------------------------------------


def test_block_step_bitwise_equals_scalar_reference(block_rows):
    env, rows, actions, frictions = block_rows
    ref = _reference(env, scalar_block_step, rows, actions, frictions)
    got = env.step(rows, actions, frictions)
    assert _bitwise_equal(got, ref)
    # every branch is exercised: contact, no contact, clamping, slip clamps
    moved = np.any(ref[:, :3] != rows[:, :3], axis=1)
    assert 0.05 < moved.mean() < 0.95
    assert np.any(np.abs(actions) > env.a_max)
    assert np.any(moved & (frictions > 1.0)) and np.any(moved & (frictions < 0.0))


@pytest.mark.parametrize("touching", [True, False])
def test_block_step_uniform_contact_batches(block_rows, touching):
    """Batches in which every row, or no row, has both effectors in
    contact, as the scalar reference decides it: the kernel fits all rows in the
    first and none in the second."""
    env, rows, actions, frictions = block_rows
    both = np.array([_in_contact(env, lx, ly, bx, by, bth)
                     and _in_contact(env, rx, ry, bx, by, bth)
                     for bx, by, bth, lx, ly, rx, ry in rows.tolist()])
    idx = np.flatnonzero(both == touching)
    assert len(idx) > 640
    ref = _reference(env, scalar_block_step, rows[idx], actions[idx], frictions[idx])
    assert np.any(ref[:, :3] != rows[idx, :3]) == touching
    for batch in (slice(None), slice(0, 640), slice(5, 6)):
        got = env.step(rows[idx][batch], actions[idx][batch], frictions[idx][batch])
        assert _bitwise_equal(got, ref[batch])
    friction = 0.85
    ref = _reference(env, scalar_block_step, rows[idx], actions[idx],
                     np.full(len(idx), friction))
    assert _bitwise_equal(env.step(rows[idx], actions[idx], np.full(len(idx), friction)), ref)


def test_block_step_one_params_for_all_rows(block_rows):
    env, rows, actions, _ = block_rows
    friction = 0.85
    ref = _reference(env, scalar_block_step, rows, actions,
                     np.full(len(rows), friction))
    assert _bitwise_equal(env.step(rows, actions, np.full(len(rows), friction)), ref)


def test_reach_step_bitwise_equals_scalar_reference():
    env = PointReach()
    rng = np.random.default_rng(3)
    rows = rng.uniform(-0.5, 0.5, (500, 4))
    actions = rng.uniform(-3.0, 3.0, (500, 2)) * env.a_max
    ref = _reference(env, scalar_reach_step, rows, actions, np.ones(500))
    assert _bitwise_equal(env.step(rows, actions, np.ones(500)), ref)
    assert _bitwise_equal(env.step(rows[7:8], actions[7:8], np.ones(1)), ref[7:8])


@pytest.mark.parametrize("size", [*range(1, 10), 15, 16, 17, 31, 32, 33, 63, 64, 65,
                                  255, 256, 257, 640, 4099])
def test_row_result_independent_of_batch_size_and_position(block_rows, size):
    """A row gets the same bits alone and at any position in a batch of
    any size, which byte-identical output at every ``--jobs`` needs.  The
    sizes cross the SIMD widths of numpy's elementwise loops, whose tail
    lanes can take another code path."""
    env, rows, actions, frictions = block_rows
    ref = env.step(rows, actions, frictions)
    rng = np.random.default_rng(size)
    batches = [rng.permutation(len(rows))[:size] for _ in range(5)]
    batches += [np.arange(offset, offset + size) for offset in (0, 7, 901)]
    for idx in batches:
        got = env.step(rows[idx], actions[idx], frictions[idx])
        assert _bitwise_equal(got, ref[idx])


def test_rollout_batch_with_lengths_matches_resume_rollouts():
    env = PlanarBlockRotate()
    rng = np.random.default_rng(5)
    n = 24
    rows, _, frictions = _block_rows(env, n, rng)
    # grasp-like starts so most rows stay in contact for a while
    rows[:, 3:5] = rows[:, 0:2] + [[-0.08, 0.0]]
    rows[:, 5:7] = rows[:, 0:2] + [[0.08, 0.0]]
    horizon = env.horizon
    actions = rng.uniform(-1.5, 1.5, (n, horizon, 4)) * env.a_max
    # the rows come longest first, as lockstep orders them
    lengths = np.sort(rng.integers(1, horizon + 1, n))[::-1]
    states, success = rollout_batch(env, rows, actions, frictions, lengths=lengths)
    assert states.shape == (n, horizon + 1, 7) and success.shape == (n,)
    for i in range(n):
        ref, ref_success = rollout_with_resume(env, rows[i], actions[i, :lengths[i]],
                                               np.zeros((0, 4)), frictions[i])
        assert _bitwise_equal(states[i, :lengths[i] + 1], ref)
        s = rows[i]
        for t in range(lengths[i]):
            s = scalar_block_step(env, s, actions[i, t], frictions[i])
        assert _bitwise_equal(ref[-1], s)
        # rows that end early hold their final state
        assert np.all(states[i, lengths[i]:] == ref[-1])
        assert bool(success[i]) == ref_success


@pytest.mark.parametrize("params_per_row", [False, True])
def test_rollout_batch_full_horizon_equals_explicit_lengths(params_per_row):
    env = PlanarBlockRotate()
    rng = np.random.default_rng(8)
    n = 40
    rows, _, frictions = _block_rows(env, n, rng)
    rows[:, 3:5] = rows[:, 0:2] + [[-0.08, 0.0]]
    rows[:, 5:7] = rows[:, 0:2] + [[0.08, 0.0]]
    actions = rng.uniform(-1.5, 1.5, (n, env.horizon, 4)) * env.a_max
    friction = frictions if params_per_row else np.full(n, 0.9)
    before = rows.copy()
    states, success = rollout_batch(env, rows, actions, friction)
    ref_states, ref_success = rollout_batch(env, rows, actions, friction,
                                            lengths=np.full(n, env.horizon))
    assert _bitwise_equal(states, ref_states)
    assert success.tolist() == ref_success.tolist()
    assert np.any(states[:, -1, :3] != rows[:, :3])
    # rows are stepped in place on a copy of the start states
    assert _bitwise_equal(rows, before)


def test_rollout_batch_rejects_bad_lengths():
    env = PointReach()
    s0s = np.zeros((2, 4))
    actions = np.zeros((2, 5, 2))
    for bad in ([0, 3], [1, 6], [1, 2, 3], [3, 5]):
        with pytest.raises(ValueError):
            rollout_batch(env, s0s, actions, np.ones(2), lengths=bad)


def test_rollout_batch_and_lockstep_refuse_friction_not_one_per_row():
    env = PointReach()
    s0s = np.zeros((2, 4))
    actions = np.zeros((2, 5, 2))

    def loop(request):
        yield request

    for bad in (1.0, np.ones(()), np.ones(1), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="friction"):
            rollout_batch(env, s0s, actions, bad)
        with pytest.raises(ValueError, match="friction"):
            lockstep(env, [loop((s0s, actions, bad))])
    # two requests whose frictions have the right total but not each its own rows
    with pytest.raises(ValueError, match="friction"):
        lockstep(env, [loop((s0s[:1], actions[:1], np.ones(2))),
                       loop((s0s, actions, np.ones(1)))])


def test_lockstep_gives_each_loop_the_rows_it_gets_alone(monkeypatch):
    # round 1 carries a full-horizon request, a 15-step one and a loop that
    # returns after its first reply; round 2 the two loops left; round 3 a
    # 15-step request before a full-horizon one in loop order
    env = PlanarBlockRotate()
    rng = np.random.default_rng(12)
    requests = []
    for n, steps in ((5, env.horizon), (3, 15), (2, 30), (4, env.horizon), (3, 15),
                     (2, 15), (3, env.horizon)):
        rows, _, frictions = _block_rows(env, n, rng)
        rows[:, 3:5] = rows[:, 0:2] + [[-0.08, 0.0]]
        rows[:, 5:7] = rows[:, 0:2] + [[0.08, 0.0]]
        actions = rng.uniform(-1.5, 1.5, (n, steps, 4)) * env.a_max
        requests.append((rows, actions, np.full(n, 0.9) if n == 2 else frictions))

    def loop(own):
        replies = []
        for request in own:
            replies.append((yield request))
        return replies

    calls, lengths, stepped = [], [], []

    def counted(env, s0s, actions, friction, steps, _rollout_batch=envs.rollout_batch):
        calls.append(len(s0s))
        lengths.append(np.asarray(steps))
        return _rollout_batch(env, s0s, actions, friction, steps)

    def counted_step(self, states, *args, _step=PlanarBlockRotate.step):
        stepped.append(len(states))
        return _step(self, states, *args)

    own = [[requests[i] for i in (0, 3, 5)], [requests[i] for i in (1, 4, 6)],
           requests[2:3]]
    monkeypatch.setattr(envs, "rollout_batch", counted)
    monkeypatch.setattr(PlanarBlockRotate, "step", counted_step)
    got = lockstep(env, [loop(r) for r in own])
    monkeypatch.undo()
    assert calls == [5 + 3 + 2, 4 + 3, 2 + 3]
    # the driver orders the rows longest first, whatever the loop order
    assert all(np.all(steps[:-1] >= steps[1:]) for steps in lengths)
    # each row takes its own request's steps, not the longest request's
    assert sum(stepped) == sum(len(s0s) * a.shape[1] for s0s, a, _ in requests)
    for reqs, replies in zip(own, got):
        assert len(replies) == len(reqs)
        for (s0s, actions, friction), (states, success) in zip(reqs, replies):
            alone_states, alone_success = rollout_batch(env, s0s, actions, friction)
            assert _bitwise_equal(states, alone_states)
            assert success.tolist() == alone_success.tolist()
        assert any(np.any(states[:, -1] != s0s) for (s0s, _, _), (states, _) in
                   zip(reqs, replies))
    assert lockstep(env, []) == []


def test_success_batch_matches_scalar_predicates():
    rng = np.random.default_rng(9)
    block = PlanarBlockRotate()
    theta = (block.theta_des + rng.uniform(-2.0, 2.0, 3000) * block.eps_theta
             + rng.integers(-2, 3, 3000) * 2.0 * math.pi)
    finals = np.zeros((3000, 7))
    finals[:, 2] = theta
    ref = [abs(_wrap_angle(th - block.theta_des)) < block.eps_theta for th in theta]
    assert block.success_batch(finals).tolist() == ref
    # goal-ball edge, where the distance lands within a few ulp of eps_p
    reach = PointReach()
    phi = rng.uniform(0.0, 2.0 * math.pi, 20000)
    goal = rng.uniform(-0.3, 0.3, (20000, 2))
    finals = np.column_stack([goal[:, 0] + reach.eps_p * np.cos(phi),
                              goal[:, 1] + reach.eps_p * np.sin(phi), goal])
    ref = [float(np.hypot(x - gx, y - gy)) < reach.eps_p
           for x, y, gx, gy in finals.tolist()]
    assert reach.success_batch(finals).tolist() == ref
    assert 0 < sum(ref) < len(ref)
