"""Selective local relabeling: pick the riskiest states of the curated
dataset and optimize short corrective action chunks with the
cross-entropy method under a full-episode success check.  The risk of a
state is its distance to the expert, one (n, T+1) array over the curated
trajectories, as the variant loops computed it.

A corrective chunk is only emitted when its full continuation (chunk
followed by the original plan's remainder) succeeded when it was scored,
so every stored pair is simulation-verified supervision.  Each point's
search is a generator of rollout requests, and all points run together on
``envs.lockstep``: one rollout batch per iteration carries every live
point's population, and a stopped point leaves it.  The emitted
pairs are returned as the ``records.npy`` table the writer stores.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from .config import RelabelConfig
from .curator import TubeBounds, state_distances
from .dataset_io import record_dtype
from .envs import Environment, Reply, Request, lockstep

log = logging.getLogger(__name__)

STD_FLOOR = 1e-6   # lower bound on each CEM spread, per action dimension
# a point stops once its best candidate succeeds and its best cost has
# fallen by at most TOL (absolute: the costs tend to 0) over W iterations
TOL = 0.01
W = 5


@dataclass(frozen=True)
class RelabelPoint:
    trajectory_id: int
    t: int
    risk: float


def select_risky_states(distances: np.ndarray, k_rel: int, min_sep: int,
                        horizon_h: int) -> List[RelabelPoint]:
    """Globally top-k_rel states by distance-to-expert, greedy in
    descending risk, enforcing a minimum temporal separation within each
    trajectory.  Timesteps are clipped so a full H-step prefix fits.
    ``distances`` (n, T+1) holds each trajectory's distance to its expert
    at each of its states; any other shape raises ValueError."""
    if k_rel < 0 or min_sep < 1:
        raise ValueError("need k_rel >= 0 and min_sep >= 1")
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2:
        raise ValueError(f"expected distances (n, T+1), got shape {distances.shape}")
    n, steps = distances.shape
    t_hi = steps - 1 - horizon_h
    if k_rel == 0 or t_hi < 0:
        return []
    risk = distances.ravel()
    traj_ids = np.repeat(np.arange(n), steps)
    ts = np.tile(np.minimum(np.arange(steps), t_hi), n)
    # descending risk; deterministic tie-break by trajectory then timestep
    order = np.lexsort((ts, traj_ids, -risk))
    chosen: List[RelabelPoint] = []
    taken: dict = {}
    for r, i, t in zip(risk[order].tolist(), traj_ids[order].tolist(), ts[order].tolist()):
        if len(chosen) == k_rel:
            break
        slots = taken.setdefault(i, [])
        if any(abs(t - s) < min_sep for s in slots):
            continue
        slots.append(t)
        chosen.append(RelabelPoint(trajectory_id=i, t=t, risk=r))
    return chosen


# one relabel point's fixed context: (its trajectory's table row, timestep,
# tube, expert states)
_Point = Tuple[np.void, int, TubeBounds, np.ndarray]


def _score(env: Environment, cfg: RelabelConfig, point: _Point,
           u: np.ndarray) -> Generator[Request, Reply, Tuple[np.ndarray, np.ndarray]]:
    """Relabel cost (see ``relabel_cost``) and continuation success of the
    candidate chunks u (m, H * d_a) of one point: requests their
    continuations, each chunk from the risky state and then the reference
    plan's remainder, under the trajectory's stored friction."""
    traj, t, tube, expert = point
    h = cfg.horizon
    actions = np.repeat(traj["actions"][None, t:], len(u), axis=0)
    actions[:, :h] = u.reshape(len(u), h, -1)
    states, success = yield (np.repeat(traj["states"][None, t], len(u), axis=0), actions,
                             traj["friction_scale"])
    cost = cfg.w_ref * np.sum((u - traj["actions"][t:t + h].reshape(-1)) ** 2, axis=1)
    if cfg.w_fail > 0:
        cost = np.where(success, cost, cost + cfg.w_fail)
    if cfg.w_tube > 0:
        d = state_distances(states[:, 1:h + 1], expert, env.psi, env.psi_scales)
        excess = np.maximum(d - tube.r_max, 0.0)
        cost = cost + cfg.w_tube * np.sum(excess ** 2, axis=1)
    return cost, success


def relabel_cost(u: np.ndarray, traj: np.void, t: int, tube: TubeBounds,
                 env: Environment, cfg: RelabelConfig, expert_states) -> float:
    """J = w_fail [continuation fails] + w_tube sum relu(d - r_max)^2 over
    the corrected span + w_ref ||u - u_ref||^2, for the trajectory table
    row ``traj``."""
    u = np.asarray(u, dtype=float).reshape(1, cfg.horizon * env.action_dim)
    [(cost, _)] = lockstep(env, [_score(env, cfg, (traj, t, tube, expert_states), u)])
    return float(cost[0])


def _cem_point(env: Environment, cfg: RelabelConfig, point: _Point, rng: np.random.Generator
               ) -> Generator[Request, Reply, Tuple[np.ndarray, float, bool]]:
    """Cross-entropy search at one point, with its own mean, spread, best
    candidate and random stream.  Iteration 0 scores the reference chunk;
    each later one scores a population drawn around the mean.  The point
    stops after iteration k >= W once its best candidate succeeds (best
    cost below ``w_fail``) and its best cost has fallen by at most TOL
    since iteration k - W; ``cem_iterations`` bounds it.  ``init_std`` 0
    starts the spread at 0.25 x the action range.  Returns the best
    candidate (H * d_a,), its cost and whether its continuation
    succeeded."""
    traj, t, _, _ = point
    if t < 0 or t + cfg.horizon > len(traj["actions"]):
        raise ValueError("relabel point does not leave room for a full chunk")
    dim = cfg.horizon * env.action_dim
    mean = traj["actions"][t:t + cfg.horizon].reshape(-1)
    std = np.full(dim, cfg.init_std if cfg.init_std > 0 else 0.25 * (2.0 * env.a_max))
    n_elites = max(1, int(round(cfg.population * cfg.elite_frac)))
    best_u = mean.copy()
    cost, ok = yield from _score(env, cfg, point, mean[None])
    best_cost, best_ok = float(cost[0]), bool(ok[0])
    history = [best_cost]   # the best cost after every iteration
    for k in range(1, cfg.cem_iterations + 1):
        pop = mean + std * rng.standard_normal((cfg.population, dim))
        pop[0] = mean  # keep the current mean in the population
        cost, ok = yield from _score(env, cfg, point, pop)
        order = np.argsort(cost, kind="stable")
        i = order[0]
        if cost[i] < best_cost:
            best_u, best_cost, best_ok = pop[i].copy(), float(cost[i]), bool(ok[i])
        history.append(best_cost)
        elites = pop[order[:n_elites]]
        mean = elites.mean(axis=0)
        std = np.maximum(elites.std(axis=0), STD_FLOOR)
        if not (k < W or best_cost >= cfg.w_fail or history[k - W] - best_cost > TOL):
            break
    return best_u, best_cost, best_ok


def cem_optimize(point: RelabelPoint, traj: np.void, env: Environment,
                 tube: TubeBounds, cfg: RelabelConfig, rng: np.random.Generator,
                 expert_states) -> Optional[Tuple[np.ndarray, float]]:
    """Cross-entropy search for a corrective chunk around the reference
    segment of the trajectory table row ``traj``.  Keeps the best
    candidate ever seen; returns it as an (H, d_a) chunk with its cost
    only if its full continuation succeeds."""
    search = _cem_point(env, cfg, (traj, point.t, tube, expert_states), rng)
    [(u, cost, ok)] = lockstep(env, [search])
    return (u.reshape(cfg.horizon, env.action_dim), cost) if ok else None


def relabel_dataset(curated: np.ndarray, env: Environment,
                    tube: Sequence[TubeBounds], cfg: RelabelConfig,
                    rng: np.random.Generator, expert_states: Sequence[np.ndarray],
                    distances: np.ndarray) -> np.ndarray:
    """Select the ``cfg.k_rel`` riskiest states across the curated
    trajectory table, at least ``cfg.min_sep`` steps apart (0: the
    horizon), and optimize a corrective chunk at each; failed points are
    dropped with a logged diagnostic.  ``tube[i]``, ``expert_states[i]``
    and ``distances[i]``, the row of ``distances`` (n, T+1) that holds
    ``state_distances`` of its states to that expert, belong to
    ``curated[i]``.  Returns the emitted pairs as a table with the fields
    of ``records.npy``, in selection rank: a row holds its point's
    trajectory ``traj`` and step ``t``, the observation
    ``observe(states[t], states[0])`` and the (H, d_a) chunk."""
    if len(curated) == 0:
        raise ValueError("curated set must be non-empty")
    if not len(tube) == len(expert_states) == len(distances) == len(curated):
        raise ValueError("need one tube, one expert state sequence and one distance "
                         "array per trajectory")
    min_sep = cfg.min_sep if cfg.min_sep > 0 else cfg.horizon
    points = select_risky_states(distances, cfg.k_rel, min_sep, cfg.horizon)
    context = [(curated[p.trajectory_id], p.t, tube[p.trajectory_id],
                expert_states[p.trajectory_id]) for p in points]
    results = lockstep(env, [_cem_point(env, cfg, c, r)
                             for c, r in zip(context, rng.spawn(len(points)))])
    for point, (_, _, ok) in zip(points, results):
        if not ok:
            log.info("relabel point (traj %d, t %d) found no successful correction",
                     point.trajectory_id, point.t)
    table = np.empty(len(points), record_dtype(2 * env.state_dim,
                                               (cfg.horizon, env.action_dim)))
    table["traj"] = [p.trajectory_id for p in points]
    table["t"] = [p.t for p in points]
    table["obs"] = env.observe(curated["states"][table["traj"], table["t"]],
                               curated["states"][table["traj"], 0])
    table["chunk"] = np.reshape([u for u, _, _ in results], table["chunk"].shape)
    return table[np.array([ok for _, _, ok in results], dtype=bool)]
