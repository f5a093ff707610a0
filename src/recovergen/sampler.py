"""Control-point plan parameterization and the diagonal-Gaussian sampler.

A nominal plan is M control points in action space, expanded to a full
T-step action sequence by piecewise-linear interpolation on a uniform
knot grid.  The proposal over the flattened control-point vector is a
diagonal Gaussian that the curator refits between iterations, from the
``control_points`` of the selected rows of a ``SuccessBatch``'s trajectory
table.  The dataset stores the control points, not the actions: ``decode``
expands them to the actions bit for bit, one row alone or among any rows,
in M / T of the bytes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Generator, NamedTuple

import numpy as np

from .envs import Environment, Reply, Request, lockstep, trajectory_table
from .geometry import Pose


@lru_cache(maxsize=32)
def interp_matrix(horizon: int, m_points: int) -> np.ndarray:
    """(T, M) matrix W with decode(C) = W @ C: piecewise-linear
    interpolation of M knots placed at t_j = j (T-1)/(M-1).  Memoised per
    (T, M); the returned array is read-only, since callers share it."""
    if m_points < 2:
        raise ValueError("need at least 2 control points")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    times = np.arange(horizon, dtype=float)
    knots = np.linspace(0.0, horizon - 1.0, m_points)
    idx = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, m_points - 2)
    w = (times - knots[idx]) / (knots[idx + 1] - knots[idx])
    mat = np.zeros((horizon, m_points))
    rows = np.arange(horizon)
    mat[rows, idx] = 1.0 - w
    mat[rows, idx + 1] += w
    mat.flags.writeable = False
    return mat


def decode(control_points: np.ndarray, horizon: int) -> np.ndarray:
    """Expand control points (..., M, d_a), 2 <= M <= T, into actions
    (..., T, d_a) with one stacked product over the leading axes.  The
    product reads aligned contiguous memory (a strided or unaligned input,
    such as a field of a structured table, is copied first), so a row's
    actions have the same bits alone, in any block and among gathered rows.
    M == T gives the points back unchanged: ``interp_matrix(T, T)`` is the
    identity, and skipping the product also keeps -0.0, NaN payloads and
    infinities."""
    control_points = np.require(control_points, float, ["C_CONTIGUOUS", "ALIGNED"])
    if control_points.ndim < 2 or not 2 <= control_points.shape[-2] <= horizon:
        raise ValueError(f"control_points must be (..., M, d_a) with 2 <= M <= T = "
                         f"{horizon}, got {control_points.shape}")
    if control_points.shape[-2] == horizon:
        return control_points
    return interp_matrix(horizon, control_points.shape[-2]) @ control_points


def fit_control_points(demo_actions: np.ndarray, m_points: int) -> np.ndarray:
    """Least-squares control points minimizing the decode error to a
    demonstrated action sequence."""
    demo_actions = np.asarray(demo_actions, dtype=float)
    if demo_actions.ndim != 2:
        raise ValueError("demo_actions must be (T, d_a)")
    if len(demo_actions) < m_points:
        raise ValueError("demo must be at least as long as the number of control points")
    w = interp_matrix(len(demo_actions), m_points)
    c, *_ = np.linalg.lstsq(w, demo_actions, rcond=None)
    return c


@dataclass(frozen=True)
class Proposal:
    """Diagonal Gaussian over the flattened control-point vector."""

    mean: np.ndarray           # (M * d_a,)
    std: np.ndarray            # (M * d_a,), elementwise >= sqrt(variance_floor)
    m_points: int
    action_dim: int


@dataclass
class SuccessBatch:
    """Successful rollouts of one iteration, as a trajectory table whose
    ``control_points`` are the draws its actions decode from."""

    table: np.ndarray
    n_sampled: int

    def __len__(self) -> int:
        return len(self.table)


def init_proposal(demo_actions: np.ndarray, m_points: int, sigma0,
                  variance_floor: float) -> Proposal:
    """Proposal centered on the least-squares control-point fit of the
    demo, with spread sigma0 (scalar broadcast or per-dimension), floored
    at sqrt(variance_floor)."""
    sigma0 = np.asarray(sigma0, dtype=float)
    if np.any(sigma0 < 0):
        raise ValueError("sigma0 must be non-negative")
    c = fit_control_points(demo_actions, m_points)
    mean = c.reshape(-1)
    std = np.maximum(np.broadcast_to(sigma0, mean.shape), np.sqrt(variance_floor)).copy()
    return Proposal(mean=mean, std=std, m_points=m_points, action_dim=c.shape[1])


def sample_batch(q: Proposal, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws c = mu + sigma * z, as an (n, M d_a) array of
    flat control-point vectors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = rng.standard_normal((n, q.mean.size))
    return q.mean + q.std * z


class Plans(NamedTuple):
    """n sampled plans, ready for one rollout batch."""

    control_points: np.ndarray  # (n, M, d_a), the draws
    friction: np.ndarray        # (n,) friction scales
    s0s: np.ndarray             # (n, d_s)
    actions: np.ndarray         # (n, T, d_a)


def draw_plans(env: Environment, variant: Pose, q: Proposal, n: int,
               rng: np.random.Generator) -> Plans:
    """Sample n plans, each with a fresh friction scale drawn after all n
    plans, and decode them all with one stacked product."""
    points = sample_batch(q, n, rng).reshape(n, q.m_points, q.action_dim)
    friction = env.sample_friction(rng, n)
    s0s = np.tile(env.reset(variant), (n, 1))
    return Plans(points, friction, s0s, decode(points, env.horizon))


def sample_successes(env: Environment, variant: Pose, q: Proposal, n: int,
                     rng: np.random.Generator,
                     variant_index: int = 0) -> Generator[Request, Reply, SuccessBatch]:
    """Sample n plans, each under a fresh friction scale, request their
    rollouts in one batch and return only the successful trajectories."""
    plans = draw_plans(env, variant, q, n, rng)
    states, success = yield plans.s0s, plans.actions, plans.friction
    ok = np.flatnonzero(success)
    table = trajectory_table(states[ok], plans.actions[ok], True, plans.friction[ok],
                             variant_index, plans.control_points[ok])
    return SuccessBatch(table=table, n_sampled=n)


def generate_success_batch(env: Environment, variant: Pose, q: Proposal, n: int,
                           rng: np.random.Generator, variant_index: int = 0) -> SuccessBatch:
    """``sample_successes`` run on its own."""
    return lockstep(env, [sample_successes(env, variant, q, n, rng, variant_index)])[0]


def widen(q: Proposal, factor: float) -> Proposal:
    return replace(q, std=q.std * factor)
