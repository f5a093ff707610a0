"""Deterministic toy simulators and the batched rollout kernel.

Two desk-scale environments are provided:

* ``PlanarBlockRotate`` -- two position-controlled effectors rotate a
  rectangular block in the plane under a quasi-static contact model with
  friction-dependent slip.  This is the environment the pipeline targets.
* ``PointReach`` -- a single point mass with position-target actions and a
  terminal goal ball; an analytic fixture used mainly by the tests.

Both environments are immutable descriptions.  The one randomized physical
parameter is a friction scale: ``sample_friction`` draws one per row, and
``nominal_friction`` is the middle of ``friction_range``.  ``step(states
(n, d_s), actions (n, d_a), friction (n,))`` advances many rows at once,
each under its own friction scale, and is a pure function of its inputs.
``rollout_batch`` checks the shapes once and runs open-loop plans for
many rows, each for its own number of steps, longest first, and
``success_batch`` evaluates the success predicate on final states.
``rollout`` and ``rollout_with_resume`` are its one-row forms, from one
start state under one friction scale; each returns its one row's states
(L+1, d_s) and success.  ``lockstep`` runs generators of rollout
requests (the variant loops, the CEM relabel points) together, with one
``rollout_batch`` call per round for all the live ones, their requests
ordered longest plan first.

Rows are independent: a row's result has the same bits alone and at any
position in a batch of any size, so how rows are batched (and ``--jobs``)
never changes the output bytes.

Caveat on the contact model: when fewer than two effectors touch the
block, the block simply does not move.  This "block freezes" rule is a
deliberate stand-in for full rigid-body contact resolution.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Any, Generator, Sequence, Tuple

from . import _np as np

from .geometry import Pose, reanchor_trajectory


# most rows per block when stored plans are decoded or replayed: a reader
# holds one block's control points, plans and states beside its
# tables (3.0 MB for 512 planar rows), for any dataset size; a smaller block
# costs more rollout calls
ROLLOUT_BLOCK = 512


def blocks(n: int):
    """The rows 0..n-1 as consecutive slices of at most ``ROLLOUT_BLOCK``
    rows each."""
    return (slice(lo, min(lo + ROLLOUT_BLOCK, n)) for lo in range(0, n, ROLLOUT_BLOCK))


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Wrap the angles ``theta`` to (-pi, pi], elementwise."""
    out = np.fmod(theta + math.pi, 2.0 * math.pi)
    return np.where(out <= 0.0, out + 2.0 * math.pi, out) - math.pi


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Elementwise min(max(x, lo), hi) with Python's tie and NaN rules."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


class Environment:
    """Abstract deterministic-simulator contract.

    Subclasses define the dynamics ``step``, the binary success predicate,
    the observation map, and a scripted demonstration expressed as
    effector position sequences so the spatial-randomization machinery can
    re-anchor it.
    """

    name: str = "abstract"
    horizon: int
    state_dim: int
    action_dim: int
    a_max: float
    psi_scales: np.ndarray      # normalization of the task subspace
    friction_range: tuple = (1.0, 1.0)
    _POSITIVE: Tuple[str, ...] = ()   # constants that must be > 0

    def __post_init__(self):
        """Reject a constant that is not finite, an integer constant that
        is not an integer, a tuple of the wrong length, a reversed
        ``*_range``, a non-positive one of ``_POSITIVE`` and other state or
        action dimensions than the dynamics have."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, str):
                continue
            if f.name in ("state_dim", "action_dim") and value != f.default:
                raise ValueError(f"{f.name} is fixed at {f.default}, got {value!r}")
            if isinstance(f.default, tuple):
                n = len(f.default)
                items = value if isinstance(value, tuple) and len(value) == n else None
                what = f"{n} finite numbers"
            else:
                items, what = (value,), "a finite number"
            if items is None or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                        and math.isfinite(v) for v in items):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            if isinstance(f.default, int) and not isinstance(value, int):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.name in self._POSITIVE and min(items) <= 0:
                raise ValueError(f"{f.name} must be {what} > 0, got {value!r}")
            if f.name.endswith("_range") and items[0] > items[1]:
                raise ValueError(f"{f.name} must be (low, high) with low <= high, "
                                 f"got {value!r}")

    # -- dynamics ---------------------------------------------------------
    def reset(self, variant: Pose) -> np.ndarray:
        raise NotImplementedError

    def step(self, states: np.ndarray, actions: np.ndarray,
             friction: np.ndarray) -> np.ndarray:
        """Advance states (n, d_s) by actions (n, d_a) under the friction
        scales (n,), one per row."""
        raise NotImplementedError

    def success_batch(self, final_states: np.ndarray) -> np.ndarray:
        """Success predicate on final states (n, d_s), as (n,) bools."""
        raise NotImplementedError

    def psi(self, states: np.ndarray) -> np.ndarray:
        """Task-relevant subspace of one state (d_s,) or a batch (n, d_s)."""
        raise NotImplementedError

    def observe(self, state: np.ndarray, start_state: np.ndarray) -> np.ndarray:
        """Full state concatenated with the episode-start state, over
        states (..., d_s); the start state is broadcast to them."""
        state = np.asarray(state, float)
        start = np.broadcast_to(np.asarray(start_state, float), state.shape)
        return np.concatenate([state, start], axis=-1)

    def sample_friction(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform friction scales (n,), one per row.  Each row first
        draws a number that it discards, where dataset format 3 drew a mass
        that no dynamics read, so every friction scale and every later draw
        from ``rng`` are the ones that format stored."""
        return rng.uniform(self.friction_range[0], self.friction_range[1], (n, 2))[:, 1]

    def nominal_friction(self) -> float:
        return 0.5 * (self.friction_range[0] + self.friction_range[1])

    # -- scripted demonstration -------------------------------------------
    def demo_object_pose(self) -> Pose:
        raise NotImplementedError

    def demo_ee_positions(self, n: int) -> list:
        """Per-effector planar world positions of the scripted demo, one
        (n, 2) array each, under the nominal object pose."""
        raise NotImplementedError

    def reset_ee_positions(self) -> list:
        """Effector positions (2,) right after environment reset."""
        raise NotImplementedError


def rollout_batch(env: Environment, s0s: np.ndarray, actions: np.ndarray,
                  friction, lengths=None) -> Tuple[np.ndarray, np.ndarray]:
    """Execute open-loop plans for n rows at once.

    ``s0s`` is (n, d_s), ``actions`` (n, L, d_a) and ``friction`` (n,),
    one friction scale per row.  Row i takes ``lengths[i]`` steps (L by
    default, each in [1, L]) and then holds its final state.  Returns the
    states (n, L + 1, d_s) and each row's success (n,).

    The rows come longest first (``lockstep`` orders them so), and each
    step advances only the prefix of rows still running, so the env work
    is sum(lengths) steps.  Lengths that are not non-increasing raise
    ValueError, as do arrays of other shapes, before the first step.
    """
    s0s = np.asarray(s0s, dtype=float)
    actions = np.asarray(actions, dtype=float)
    friction = np.asarray(friction, dtype=float)
    if actions.ndim != 3 or actions.shape[1] < 1 or actions.shape[2] != env.action_dim \
            or s0s.shape != (len(actions), env.state_dim) or friction.shape != (len(actions),):
        raise ValueError(f"expected s0s (n, {env.state_dim}), actions (n, L >= 1, "
                         f"{env.action_dim}) and friction (n,), got {s0s.shape}, "
                         f"{actions.shape} and {friction.shape}")
    n, horizon = actions.shape[:2]
    lengths = np.full(n, horizon) if lengths is None else np.asarray(lengths)
    if lengths.shape != (n,) or np.any(lengths < 1) or np.any(lengths > horizon) \
            or np.any(lengths[:-1] < lengths[1:]):
        raise ValueError(f"lengths must give each of the {n} rows 1..{horizon} steps, "
                         f"longest first")
    running = (lengths[:, None] > np.arange(horizon)).sum(axis=0)
    s = s0s.copy()
    out = np.empty((n, horizon + 1, env.state_dim))
    out[:, 0] = s
    for t in range(horizon):
        k = running[t]
        s[:k] = env.step(s[:k], actions[:k, t], friction[:k])
        out[:, t + 1] = s
    return out, env.success_batch(out[:, -1])


# A rollout request, (s0s (n, d_s), actions (n, L, d_a), friction (n,)), as
# ``rollout_batch`` takes it, and its reply, (states (n, L + 1, d_s),
# success (n,)).
Request = Tuple["np.ndarray", "np.ndarray", "np.ndarray"]
Reply = Tuple["np.ndarray", "np.ndarray"]


def lockstep(env: Environment, loops: Sequence[Generator[Request, Reply, Any]]) -> list:
    """Run generators of rollout requests together and return each one's
    return value, in loop order.  Every loop is primed first; then each
    round rolls out the pending request of every live loop in one
    ``rollout_batch`` call, each row for its own request's L steps, with
    the requests ordered longest plan first, and sends each loop its rows,
    in loop order.  A row's result does not depend on the batch it is in,
    so each loop sees what it would alone."""
    results = [None] * len(loops)
    pending = {j: next(loop) for j, loop in enumerate(loops)}
    while pending:
        # longest plan first, a stable sort so that equal lengths keep loop
        # order: rollout_batch steps a shrinking prefix of the rows
        order = sorted(pending, key=lambda j: -pending[j][1].shape[1])
        s0s, actions, friction = zip(*map(pending.get, order))
        n = [len(s) for s in s0s]
        if [np.shape(f) for f in friction] != [(k,) for k in n]:
            raise ValueError(f"expected each request's friction (n,), one per row, for n = {n}")
        rows = [slice(end - k, end) for end, k in zip(np.cumsum(n).tolist(), n)]
        lengths = np.repeat([a.shape[1] for a in actions], n)
        plans = np.zeros((len(lengths), lengths.max(), env.action_dim))
        for r, a in zip(rows, actions):
            plans[r, :a.shape[1]] = a
        states, success = rollout_batch(env, np.concatenate(s0s), plans,
                                        np.concatenate(friction), lengths)
        for j, r, a in sorted(zip(order, rows, actions), key=lambda reply: reply[0]):
            try:
                pending[j] = loops[j].send((states[r, :a.shape[1] + 1], success[r]))
            except StopIteration as stop:
                results[j] = stop.value
                del pending[j]
        del states, success   # not held through the next round's rollout
    return results


def rollout(env: Environment, s0: np.ndarray, actions: np.ndarray,
            friction: float) -> Tuple[np.ndarray, bool]:
    """Execute a full-episode open-loop plan and evaluate success; returns
    its states (T+1, d_s) and success, ``rollout_batch``'s one row."""
    actions = np.asarray(actions, dtype=float)
    if actions.shape != (env.horizon, env.action_dim):
        raise ValueError(
            f"expected actions of shape ({env.horizon}, {env.action_dim}), got {actions.shape}")
    return _rollout_row(env, s0, actions, friction)


def rollout_with_resume(env: Environment, s_t: np.ndarray, prefix: np.ndarray,
                        reference_suffix: np.ndarray, friction: float
                        ) -> Tuple[np.ndarray, bool]:
    """Apply a corrective prefix from s_t, then resume the reference plan;
    success is evaluated on the full continuation, returned as
    ``rollout`` returns it."""
    prefix = np.asarray(prefix, dtype=float).reshape(-1, env.action_dim)
    suffix = np.asarray(reference_suffix, dtype=float).reshape(-1, env.action_dim)
    n = len(prefix) + len(suffix)
    if n < 1 or n > env.horizon:
        raise ValueError("prefix plus suffix must cover a positive span within the horizon")
    return _rollout_row(env, s_t, np.concatenate([prefix, suffix], axis=0), friction)


def _rollout_row(env: Environment, s0, actions: np.ndarray,
                 friction: float) -> Tuple[np.ndarray, bool]:
    # the one-row forms share this tail rather than call each other, so a
    # traced run counts each of their rollouts once
    states, success = rollout_batch(env, np.asarray(s0, dtype=float)[None], actions[None],
                                    [friction])
    return states[0], bool(success[0])


@dataclass(frozen=True)
class PlanarBlockRotate(Environment):
    """Quasi-static planar block rotation with two effectors.

    State (7): block pose (x, y, theta), left effector (x, y), right
    effector (x, y).  Action (4): per-step target displacements of both
    effectors, clamped to +-a_max.

    Each step, effectors move by the clamped displacement.  If both
    effectors were within contact_margin of the block boundary at the
    start of the step, the block follows the least-squares rigid planar
    transform fitted to the two effector motions, attenuated by a
    friction-dependent slip factor slip = clamp(friction_scale, 0, 1).
    Otherwise the block does not move.  Low friction therefore yields
    partial following, which is what makes open-loop spatial replay fail
    under friction randomization.
    """

    horizon: int = 60
    a_max: float = 0.03
    contact_margin: float = 0.02
    half_extents: tuple = (0.10, 0.06)
    theta_des: float = math.pi / 2.0
    eps_theta: float = 0.1
    friction_range: tuple = (0.8, 1.2)
    reset_left: tuple = (-0.25, 0.0)
    reset_right: tuple = (0.25, 0.0)
    grasp_press: float = 0.02    # demo grasp depth inside the block faces

    name: str = "planar_block_rotate"
    state_dim: int = 7
    action_dim: int = 4
    _POSITIVE = ("horizon", "a_max", "contact_margin", "half_extents", "eps_theta")

    @property
    def psi_scales(self) -> np.ndarray:
        # positions in ~0.1 m units, angle in ~0.5 rad units
        return np.array([0.1, 0.1, 0.5, 0.1, 0.1, 0.1, 0.1])

    def reset(self, variant: Pose) -> np.ndarray:
        return np.array([variant.x, variant.y, variant.yaw,
                         self.reset_left[0], self.reset_left[1],
                         self.reset_right[0], self.reset_right[1]])

    def _both_in_contact(self, cols: np.ndarray) -> np.ndarray:
        """Rows whose two effectors are both within contact_margin of the
        solid rectangle (distance 0 inside it), from the (7, n) state
        columns; both effectors are tested as one (2, n) array."""
        bx, by, bth = cols[:3]
        c = np.cos(-bth)
        s = np.sin(-bth)
        dx = cols[3::2] - bx
        dy = cols[4::2] - by
        px = c * dx - s * dy
        py = s * dx + c * dy
        gap_x = np.maximum(np.abs(px) - self.half_extents[0], 0.0)
        gap_y = np.maximum(np.abs(py) - self.half_extents[1], 0.0)
        return (np.hypot(gap_x, gap_y) <= self.contact_margin).all(axis=0)

    def step(self, states, actions, friction):
        cols = states.T.copy()   # (7, n): one contiguous array per variable
        out = cols.copy()
        out[3:] += _clamp(actions.T, -self.a_max, self.a_max)
        i = np.flatnonzero(self._both_in_contact(cols))
        if len(i):
            # two-point rigid planar fit: old (l, r) -> new (l, r)
            bx, by, bth, lx, ly, rx, ry = cols.take(i, axis=1)
            nlx, nly, nrx, nry = out[3:].take(i, axis=1)
            cox = 0.5 * (lx + rx)
            coy = 0.5 * (ly + ry)
            cnx = 0.5 * (nlx + nrx)
            cny = 0.5 * (nly + nry)
            ux, uy = rx - lx, ry - ly
            vx, vy = nrx - nlx, nry - nly
            dth = np.arctan2(ux * vy - uy * vx, ux * vx + uy * vy)
            slip = _clamp(friction[i], 0.0, 1.0)
            sth = slip * dth
            c = np.cos(sth)
            s = np.sin(sth)
            # rotate block about the old effector centroid, translate by the
            # slip-scaled centroid motion
            relx, rely = bx - cox, by - coy
            out[0, i] = c * relx - s * rely + cox + slip * (cnx - cox)
            out[1, i] = s * relx + c * rely + coy + slip * (cny - coy)
            out[2, i] = wrap_angle(bth + sth)
        return out.T.copy()

    def success_batch(self, final_states: np.ndarray) -> np.ndarray:
        return np.abs(wrap_angle(final_states[:, 2] - self.theta_des)) < self.eps_theta

    def psi(self, states):
        return np.asarray(states, dtype=float)

    def demo_object_pose(self) -> Pose:
        return Pose()

    def demo_ee_positions(self, n: int) -> list:
        """Grab the block slightly inside its short faces (a pressing
        grasp, so contact survives small execution noise), then rotate
        both effectors about the block center up to theta_des."""
        r = self.half_extents[0] - self.grasp_press
        phi = self.theta_des * np.arange(n) / (n - 1)
        right = np.column_stack([np.cos(phi) * r, np.sin(phi) * r])
        return [-right, right]

    def reset_ee_positions(self) -> list:
        return [np.array(self.reset_left, dtype=float), np.array(self.reset_right, dtype=float)]


@dataclass(frozen=True)
class PointReach(Environment):
    """Single point mass with position-target actions.

    State (4): position (x, y) plus the episode goal (gx, gy), kept in the
    state so success is a pure function of the trajectory.  Action (2):
    per-step displacement clamped to +-a_max.  Success: terminal position
    within eps_p of the goal.
    """

    horizon: int = 30
    a_max: float = 0.05
    eps_p: float = 0.02
    goal: tuple = (0.25, 0.15)
    start: tuple = (0.0, 0.0)

    name: str = "point_reach"
    state_dim: int = 4
    action_dim: int = 2
    _POSITIVE = ("horizon", "a_max", "eps_p")

    @property
    def psi_scales(self) -> np.ndarray:
        return np.array([0.1, 0.1])

    def reset(self, variant: Pose) -> np.ndarray:
        return np.array([self.start[0], self.start[1], variant.x, variant.y])

    def step(self, states, actions, friction):
        out = states.copy()
        out[:, :2] += _clamp(actions, -self.a_max, self.a_max)
        return out

    def success_batch(self, final_states: np.ndarray) -> np.ndarray:
        x, y, gx, gy = final_states.T
        return np.hypot(x - gx, y - gy) < self.eps_p

    def psi(self, states):
        states = np.asarray(states, dtype=float)
        return states[..., :2]

    def demo_object_pose(self) -> Pose:
        return Pose(self.goal[0], self.goal[1])

    def demo_ee_positions(self, n: int) -> list:
        sx, sy = self.start
        gx, gy = self.goal
        alpha = np.arange(1, n + 1) / n
        return [np.stack([sx + alpha * (gx - sx), sy + alpha * (gy - sy)], axis=1)]

    def reset_ee_positions(self) -> list:
        return [np.array(self.start, dtype=float)]


def make_env(name: str, **overrides) -> Environment:
    envs = {"planar_block_rotate": PlanarBlockRotate, "point_reach": PointReach}
    if name not in envs:
        raise ValueError(f"unknown environment '{name}' (have {sorted(envs)})")
    return envs[name](**overrides)


def augmented_demo_actions(env: Environment, variant: Pose, l_blend: int) -> np.ndarray:
    """Re-anchor the scripted demo's effector positions to a perturbed
    initial object pose, prepend a linear approach of l_blend steps from
    the reset positions, and return the per-step planar displacements
    (horizon, d_a), effector after effector."""
    if l_blend < 1:
        raise ValueError("l_blend must be >= 1")
    n_demo = env.horizon + 1 - l_blend
    if n_demo < 2:
        raise ValueError("l_blend leaves too few demo poses")
    demo_obj0 = env.demo_object_pose()
    alpha = (np.arange(l_blend) / l_blend)[:, None]
    actions = []
    for reset, demo in zip(env.reset_ee_positions(), env.demo_ee_positions(n_demo)):
        points = reanchor_trajectory(demo, demo_obj0, variant)
        blend = (1.0 - alpha) * reset + alpha * points[0]
        actions.append(np.diff(np.concatenate([blend, points]), axis=0))
    return np.concatenate(actions, axis=1)
