"""Deterministic toy simulators and the batched rollout kernel.

Two desk-scale environments are provided:

* ``PlanarBlockRotate`` -- two position-controlled effectors rotate a
  rectangular block in the plane under a quasi-static contact model with
  friction-dependent slip.  This is the environment the pipeline targets.
* ``PointReach`` -- a single point mass with position-target actions and a
  terminal goal ball; an analytic fixture used mainly by the tests.

Both environments are immutable descriptions.  ``step(states (n, d_s),
actions (n, d_a), params)`` advances many rows at once and is a pure
function of its inputs; ``params`` is one ``EnvParams`` for every row or
one per row, and a 1-D state gives a 1-D result.  ``rollout_batch`` runs
open-loop plans for many rows, each for its own number of steps, and
``success_batch`` evaluates the success predicate on final states.
``rollout`` and ``rollout_with_resume`` are its one-row forms.

Each row's result is bitwise identical to the one-row scalar dynamics,
whatever the batch size or the row's position in it.  Where numpy's
elementwise function may differ from Python's ``math`` in the last ulp
(``arctan2``, ``hypot``), ``math`` is used for the rows it matters for.

Caveat on the contact model: when fewer than two effectors touch the
block, the block simply does not move.  This "block freezes" rule is a
deliberate stand-in for full rigid-body contact resolution.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import Pose, reanchor_trajectory


@dataclass(frozen=True)
class EnvParams:
    """Per-episode randomized physical parameters.  A batched ``step``
    also accepts one whose fields are (n,) arrays, one entry per row."""

    mass: float = 1.0
    friction_scale: float = 1.0


@dataclass
class Trajectory:
    """Full-episode rollout: T+1 states, T actions, a success flag, and
    the provenance needed to re-derive it deterministically."""

    states: np.ndarray        # (T+1, d_s)
    actions: np.ndarray       # (T, d_a)
    success: bool
    env_params: EnvParams
    origin: Optional[np.ndarray] = None   # flattened control-point vector
    variant: int = 0

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.actions = np.asarray(self.actions, dtype=float)
        self.variant = operator.index(self.variant)
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("need len(states) == len(actions) + 1")

    @property
    def horizon(self) -> int:
        return len(self.actions)


def wrap_angle(theta):
    """Wrap to (-pi, pi]; elementwise over an array."""
    out = np.fmod(np.asarray(theta, dtype=float) + math.pi, 2.0 * math.pi)
    out = np.where(out <= 0.0, out + 2.0 * math.pi, out) - math.pi
    return out if out.ndim else float(out)


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Elementwise min(max(x, lo), hi) with Python's tie and NaN rules."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _hypot(x: np.ndarray, y: np.ndarray, near: float) -> np.ndarray:
    """Elementwise math.hypot(x, y).  np.hypot can differ from it in the
    last ulp, so values close to ``near``, the bound the caller compares
    them with, are recomputed with math.hypot."""
    h = np.hypot(x, y)
    for i in np.flatnonzero(np.abs(h - near) <= 1e-12 * abs(near)):
        h[i] = math.hypot(x[i], y[i])
    return h


ParamsArg = Union[EnvParams, Sequence[EnvParams]]


def _param_rows(params: ParamsArg, name: str, n: int) -> np.ndarray:
    """Field ``name`` as an (n,) array from one EnvParams (scalar or
    per-row fields) or from a sequence of one EnvParams per row."""
    if isinstance(params, EnvParams):
        return np.broadcast_to(np.asarray(getattr(params, name), dtype=float), (n,))
    values = np.array([getattr(p, name) for p in params], dtype=float)
    if values.shape != (n,):
        raise ValueError(f"expected one EnvParams per row ({n}), got {len(values)}")
    return values


def randomize_env_params(mass_range, friction_range, rng: np.random.Generator) -> EnvParams:
    """Uniform per-episode draw of mass and friction scale."""
    return EnvParams(
        mass=float(rng.uniform(mass_range[0], mass_range[1])),
        friction_scale=float(rng.uniform(friction_range[0], friction_range[1])),
    )


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
    mass_range: tuple = (1.0, 1.0)
    friction_range: tuple = (1.0, 1.0)

    # -- dynamics ---------------------------------------------------------
    def reset(self, variant: Pose, params: EnvParams) -> np.ndarray:
        raise NotImplementedError

    def step(self, state: np.ndarray, action: np.ndarray, params: ParamsArg) -> np.ndarray:
        """Advance states (n, d_s) by actions (n, d_a); a 1-D state gives
        a 1-D result."""
        raise NotImplementedError

    def success_batch(self, final_states: np.ndarray) -> np.ndarray:
        """Success predicate on final states (n, d_s), as (n,) bools."""
        raise NotImplementedError

    def success(self, traj: Trajectory) -> bool:
        return bool(self.success_batch(traj.states[-1:])[0])

    def psi(self, states: np.ndarray) -> np.ndarray:
        """Task-relevant subspace of one state (d_s,) or a batch (n, d_s)."""
        raise NotImplementedError

    def observe(self, state: np.ndarray, start_state: np.ndarray) -> np.ndarray:
        """Full state concatenated with the episode-start state."""
        return np.concatenate([np.asarray(state, float), np.asarray(start_state, float)])

    def sample_env_params(self, rng: np.random.Generator) -> EnvParams:
        return randomize_env_params(self.mass_range, self.friction_range, rng)

    def nominal_env_params(self) -> EnvParams:
        return EnvParams(mass=0.5 * (self.mass_range[0] + self.mass_range[1]),
                         friction_scale=0.5 * (self.friction_range[0] + self.friction_range[1]))

    # -- scripted demonstration -------------------------------------------
    def demo_object_pose(self) -> Pose:
        raise NotImplementedError

    def demo_ee_positions(self, n: int) -> list:
        """Per-effector world positions of the scripted demo, one (n, 3)
        array each, under the nominal object pose."""
        raise NotImplementedError

    def reset_ee_positions(self) -> list:
        """Effector positions (3,) right after environment reset."""
        raise NotImplementedError


def rollout_batch(env: Environment, s0s: np.ndarray, actions: np.ndarray,
                  params: ParamsArg, lengths=None) -> Tuple[np.ndarray, np.ndarray]:
    """Execute open-loop plans for n rows at once.

    ``s0s`` is (n, d_s) and ``actions`` (n, L, d_a); ``params`` is one
    EnvParams for every row or one per row.  Row i takes ``lengths[i]``
    steps (L by default, each in [1, L]) and then holds its final state.
    Returns the states (n, L + 1, d_s) and each row's success (n,).

    Rows are stepped in order of descending length and each step advances
    only the rows still running, so the env work is sum(lengths) steps.
    """
    s0s = np.asarray(s0s, dtype=float)
    actions = np.asarray(actions, dtype=float)
    if actions.ndim != 3 or actions.shape[1] < 1 or actions.shape[2] != env.action_dim \
            or s0s.shape != (len(actions), env.state_dim):
        raise ValueError(f"expected s0s (n, {env.state_dim}) and actions (n, L >= 1, "
                         f"{env.action_dim}), got {s0s.shape} and {actions.shape}")
    n, horizon = actions.shape[:2]
    lengths = np.full(n, horizon) if lengths is None else np.asarray(lengths)
    if lengths.shape != (n,) or np.any(lengths < 1) or np.any(lengths > horizon):
        raise ValueError(f"lengths must give each of the {n} rows 1..{horizon} steps")
    order = np.argsort(-lengths, kind="stable")
    running = (lengths[:, None] > np.arange(horizon)).sum(axis=0)
    by_row = {f.name: _param_rows(params, f.name, n)[order] for f in fields(EnvParams)}
    s = s0s[order]
    acts = actions[order]
    out = np.empty((n, horizon + 1, env.state_dim))
    out[:, 0] = s
    for t in range(horizon):
        k = running[t]
        p = EnvParams(**{name: v[:k] for name, v in by_row.items()})
        s[:k] = env.step(s[:k], acts[:k, t], p)
        out[:, t + 1] = s
    states = np.empty_like(out)
    states[order] = out
    return states, env.success_batch(states[:, -1])


def rollout(env: Environment, s0: np.ndarray, actions: np.ndarray,
            params: EnvParams, origin: Optional[np.ndarray] = None,
            variant: int = 0) -> Trajectory:
    """Execute a full-episode open-loop plan and evaluate success."""
    actions = np.asarray(actions, dtype=float)
    if actions.shape != (env.horizon, env.action_dim):
        raise ValueError(
            f"expected actions of shape ({env.horizon}, {env.action_dim}), got {actions.shape}")
    states, success = rollout_batch(env, np.asarray(s0, dtype=float)[None], actions[None],
                                    params)
    return Trajectory(states=states[0], actions=actions.copy(), success=bool(success[0]),
                      env_params=params, origin=origin, variant=variant)


def rollout_with_resume(env: Environment, s_t: np.ndarray, prefix: np.ndarray,
                        reference_suffix: np.ndarray, params: EnvParams) -> Trajectory:
    """Apply a corrective prefix from s_t, then resume the reference plan;
    success is evaluated on the full continuation."""
    prefix = np.asarray(prefix, dtype=float).reshape(-1, env.action_dim)
    suffix = np.asarray(reference_suffix, dtype=float).reshape(-1, env.action_dim)
    n = len(prefix) + len(suffix)
    if n < 1 or n > env.horizon:
        raise ValueError("prefix plus suffix must cover a positive span within the horizon")
    actions = np.concatenate([prefix, suffix], axis=0)
    states, success = rollout_batch(env, np.asarray(s_t, dtype=float)[None], actions[None],
                                    params)
    return Trajectory(states=states[0], actions=actions, success=bool(success[0]),
                      env_params=params)


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
    mass_range: tuple = (0.5, 3.0)
    friction_range: tuple = (0.8, 1.2)
    reset_left: tuple = (-0.25, 0.0)
    reset_right: tuple = (0.25, 0.0)
    grasp_press: float = 0.02    # demo grasp depth inside the block faces

    name: str = "planar_block_rotate"
    state_dim: int = 7
    action_dim: int = 4

    @property
    def psi_scales(self) -> np.ndarray:
        # positions in ~0.1 m units, angle in ~0.5 rad units
        return np.array([0.1, 0.1, 0.5, 0.1, 0.1, 0.1, 0.1])

    def reset(self, variant: Pose, params: EnvParams) -> np.ndarray:
        bx, by, _ = variant.translation
        bth = variant.yaw()
        return np.array([bx, by, bth,
                         self.reset_left[0], self.reset_left[1],
                         self.reset_right[0], self.reset_right[1]])

    def _both_in_contact(self, bx, by, bth, lx, ly, rx, ry) -> np.ndarray:
        """Rows whose two effectors are both within contact_margin of the
        solid rectangle (distance 0 inside it)."""
        c = np.cos(-bth)
        s = np.sin(-bth)
        both = np.ones(len(bx), dtype=bool)
        for ex, ey in ((lx, ly), (rx, ry)):
            dx = ex - bx
            dy = ey - by
            px = c * dx - s * dy
            py = s * dx + c * dy
            gap_x = np.maximum(np.abs(px) - self.half_extents[0], 0.0)
            gap_y = np.maximum(np.abs(py) - self.half_extents[1], 0.0)
            both &= _hypot(gap_x, gap_y, self.contact_margin) <= self.contact_margin
        return both

    def step(self, state, action, params: ParamsArg):
        state = np.asarray(state, dtype=float)
        rows = np.atleast_2d(state)
        out = rows.copy()
        out[:, 3:] += _clamp(np.asarray(action, dtype=float), -self.a_max, self.a_max)
        i = np.flatnonzero(self._both_in_contact(*rows.T))
        if len(i):
            # two-point rigid planar fit: old (l, r) -> new (l, r)
            bx, by, bth, lx, ly, rx, ry = rows[i].T
            nlx, nly, nrx, nry = out[i, 3:].T
            cox = 0.5 * (lx + rx)
            coy = 0.5 * (ly + ry)
            cnx = 0.5 * (nlx + nrx)
            cny = 0.5 * (nly + nry)
            ux, uy = rx - lx, ry - ly
            vx, vy = nrx - nlx, nry - nly
            # math.atan2 per row: np.arctan2 differs from it in the last ulp
            dth = np.array([math.atan2(a, b) for a, b in
                            zip((ux * vy - uy * vx).tolist(), (ux * vx + uy * vy).tolist())])
            slip = _clamp(_param_rows(params, "friction_scale", len(rows))[i], 0.0, 1.0)
            sth = slip * dth
            c = np.cos(sth)
            s = np.sin(sth)
            # rotate block about the old effector centroid, translate by the
            # slip-scaled centroid motion
            relx, rely = bx - cox, by - coy
            out[i, 0] = c * relx - s * rely + cox + slip * (cnx - cox)
            out[i, 1] = s * relx + c * rely + coy + slip * (cny - coy)
            out[i, 2] = wrap_angle(bth + sth)
        return out if state.ndim == 2 else out[0]

    def success_batch(self, final_states: np.ndarray) -> np.ndarray:
        theta = np.asarray(final_states, dtype=float)[:, 2]
        return np.abs(wrap_angle(theta - self.theta_des)) < self.eps_theta

    def psi(self, states):
        return np.asarray(states, dtype=float)

    def demo_object_pose(self) -> Pose:
        return Pose.identity()

    def demo_ee_positions(self, n: int) -> list:
        """Grab the block slightly inside its short faces (a pressing
        grasp, so contact survives small execution noise), then rotate
        both effectors about the block center up to theta_des."""
        r = self.half_extents[0] - self.grasp_press
        left, right = [], []
        for j in range(n):
            phi = self.theta_des * j / (n - 1)
            # math.cos/math.sin, as when the stored data were recorded:
            # np.cos/np.sin may differ from them in the last ulp on some builds
            c, s = math.cos(phi), math.sin(phi)
            left.append((-c * r, -s * r, 0.0))
            right.append((c * r, s * r, 0.0))
        return [np.array(left), np.array(right)]

    def reset_ee_positions(self) -> list:
        return [np.array([self.reset_left[0], self.reset_left[1], 0.0]),
                np.array([self.reset_right[0], self.reset_right[1], 0.0])]


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

    @property
    def psi_scales(self) -> np.ndarray:
        return np.array([0.1, 0.1])

    def reset(self, variant: Pose, params: EnvParams) -> np.ndarray:
        gx, gy, _ = variant.translation
        return np.array([self.start[0], self.start[1], gx, gy])

    def step(self, state, action, params: ParamsArg):
        state = np.asarray(state, dtype=float)
        out = np.atleast_2d(state).copy()
        out[:, :2] += _clamp(np.asarray(action, dtype=float), -self.a_max, self.a_max)
        return out if state.ndim == 2 else out[0]

    def success_batch(self, final_states: np.ndarray) -> np.ndarray:
        x, y, gx, gy = np.asarray(final_states, dtype=float).T
        return _hypot(x - gx, y - gy, self.eps_p) < self.eps_p

    def psi(self, states):
        states = np.asarray(states, dtype=float)
        return states[..., :2]

    def demo_object_pose(self) -> Pose:
        return Pose.from_xy_yaw(self.goal[0], self.goal[1], 0.0)

    def demo_ee_positions(self, n: int) -> list:
        sx, sy = self.start
        gx, gy = self.goal
        alpha = np.arange(1, n + 1) / n
        return [np.stack([sx + alpha * (gx - sx), sy + alpha * (gy - sy), np.zeros(n)], axis=1)]

    def reset_ee_positions(self) -> list:
        return [np.array([self.start[0], self.start[1], 0.0])]


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
        actions.append(np.diff(np.concatenate([blend, points])[:, :2], axis=0))
    return np.concatenate(actions, axis=1)
