"""Selective local relabeling: pick the riskiest states of the curated
dataset and optimize short corrective action chunks with the
cross-entropy method under a full-episode success check.

A corrective chunk is only emitted when its full continuation (chunk
followed by the original plan's remainder) succeeded when it was scored,
so every stored pair is simulation-verified supervision.  The emitted
pairs are returned as the ``records.npy`` table the writer stores.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import RelabelConfig
from .curator import TubeBounds, state_distances
from .dataset_io import record_dtype
from .envs import Environment, rollout_batch

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


def select_risky_states(distances: Sequence[np.ndarray], k_rel: int, min_sep: int,
                        horizon_h: int) -> List[RelabelPoint]:
    """Globally top-k_rel states by distance-to-expert, greedy in
    descending risk, enforcing a minimum temporal separation within each
    trajectory.  Timesteps are clipped so a full H-step prefix fits.
    ``distances[i]`` holds trajectory i's distance to its expert at each
    of its states (horizon + 1 values)."""
    if k_rel < 0 or min_sep < 1:
        raise ValueError("need k_rel >= 0 and min_sep >= 1")
    if k_rel == 0:
        return []
    dists, ids, steps = [], [], []
    for i, d in enumerate(distances):
        t_hi = len(d) - 1 - horizon_h
        if t_hi < 0:
            continue
        dists.append(d)
        ids.append(np.full(len(d), i))
        steps.append(np.minimum(np.arange(len(d)), t_hi))
    if not dists:
        return []
    risk, traj_ids, ts = (np.concatenate(c) for c in (dists, ids, steps))
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


def _continuations(env: Environment, cfg: RelabelConfig, points: Sequence[_Point],
                   chunks: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Roll out every candidate chunk of every point in one batch: the
    chunk from the risky state, then the reference plan's remainder.
    ``chunks[j]`` is (m_j, H * d_a); rows are stacked in point order."""
    table = np.array([row for row, _, _, _ in points])
    point = np.repeat(np.arange(len(points)), [len(u) for u in chunks])
    t = np.array([t for _, t, _, _ in points])[point]
    horizon = table.dtype["actions"].shape[0]
    lengths = horizon - t
    # the reference plan from t on; a row's steps past its length are not run
    steps = np.minimum(t[:, None] + np.arange(lengths.max()), horizon - 1)
    actions = table["actions"][point[:, None], steps]
    actions[:, :cfg.horizon] = np.concatenate(chunks).reshape(len(point), cfg.horizon, -1)
    return rollout_batch(env, table["states"][point, t], actions,
                         table["friction_scale"][point], lengths)


def _costs(env: Environment, cfg: RelabelConfig, points: Sequence[_Point],
           chunks: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Relabel cost (see ``relabel_cost``) and continuation success of
    every candidate chunk of every point, with one rollout batch for all
    of them."""
    h = cfg.horizon
    states, success = _continuations(env, cfg, points, chunks)
    costs, successes = [], []
    row = 0
    for (traj, t, tube, expert), u in zip(points, chunks):
        rows = slice(row, row + len(u))
        row += len(u)
        cost = cfg.w_ref * np.sum((u - traj["actions"][t:t + h].reshape(-1)) ** 2, axis=1)
        if cfg.w_fail > 0:
            cost = np.where(success[rows], cost, cost + cfg.w_fail)
        if cfg.w_tube > 0:
            span = states[rows, 1:h + 1].reshape(-1, env.state_dim)
            if h == 1:
                # a one-row product takes BLAS's matrix-vector path, whose
                # rounding differs from the matrix-matrix one; keep it
                d = np.concatenate([state_distances(x[None], expert, env.psi, env.psi_scales)
                                    for x in span])
            else:
                d = state_distances(span, expert, env.psi, env.psi_scales)
            excess = np.maximum(d.reshape(len(u), h) - tube.r_max, 0.0)
            cost = cost + cfg.w_tube * np.sum(excess ** 2, axis=1)
        costs.append(cost)
        successes.append(success[rows])
    return costs, successes


def relabel_cost(u: np.ndarray, traj: np.void, t: int, tube: TubeBounds,
                 env: Environment, cfg: RelabelConfig, expert_states) -> float:
    """J = w_fail [continuation fails] + w_tube sum relu(d - r_max)^2 over
    the corrected span + w_ref ||u - u_ref||^2, for the trajectory table
    row ``traj``."""
    u = np.asarray(u, dtype=float).reshape(1, cfg.horizon * env.action_dim)
    return float(_costs(env, cfg, [(traj, t, tube, expert_states)], [u])[0][0][0])


def _cem_lockstep(env: Environment, cfg: RelabelConfig, context: Sequence[_Point],
                  rngs: Sequence[np.random.Generator]) -> List[Tuple[np.ndarray, float, bool]]:
    """Cross-entropy search at every point at once: each iteration rolls
    out the live points' populations in one batch, while each point keeps
    its own mean, spread, best candidate and random stream.  A point stops
    after iteration k >= W once its best candidate succeeds (best cost
    below ``w_fail``) and its best cost has fallen by at most TOL since
    iteration k - W; it then draws nothing more, so the other points run
    as they would alone.  ``cem_iterations`` bounds every point.
    ``init_std`` 0 starts each spread at 0.25 x the action range.  Returns
    each point's best candidate (H * d_a,), its cost and whether its
    continuation succeeded."""
    for traj, t, _, _ in context:
        if t < 0 or t + cfg.horizon > len(traj["actions"]):
            raise ValueError("relabel point does not leave room for a full chunk")
    dim = cfg.horizon * env.action_dim
    means = [traj["actions"][t:t + cfg.horizon].reshape(-1) for traj, t, _, _ in context]
    init_std = cfg.init_std if cfg.init_std > 0 else 0.25 * (2.0 * env.a_max)
    n_elites = max(1, int(round(cfg.population * cfg.elite_frac)))
    stds = [np.full(dim, init_std) for _ in context]
    best_us = [m.copy() for m in means]
    costs, success = _costs(env, cfg, context, [m[None] for m in means])
    best_costs = [float(c[0]) for c in costs]
    best_ok = [bool(ok[0]) for ok in success]
    history = [[c] for c in best_costs]   # each point's best cost after every iteration
    live = list(range(len(context)))
    for k in range(1, cfg.cem_iterations + 1):
        if not live:
            break
        pops = []
        for j in live:
            pop = means[j] + stds[j] * rngs[j].standard_normal((cfg.population, dim))
            pop[0] = means[j]  # keep the current mean in the population
            pops.append(pop)
        costs, success = _costs(env, cfg, [context[j] for j in live], pops)
        for j, pop, cost, ok in zip(live, pops, costs, success):
            order = np.argsort(cost, kind="stable")
            if cost[order[0]] < best_costs[j]:
                best_costs[j] = float(cost[order[0]])
                best_us[j] = pop[order[0]].copy()
                best_ok[j] = bool(ok[order[0]])
            history[j].append(best_costs[j])
            elites = pop[order[:n_elites]]
            means[j] = elites.mean(axis=0)
            stds[j] = np.maximum(elites.std(axis=0), STD_FLOOR)
        live = [j for j in live if k < W or best_costs[j] >= cfg.w_fail
                or history[j][k - W] - best_costs[j] > TOL]
    return list(zip(best_us, best_costs, best_ok))


def cem_optimize(point: RelabelPoint, traj: np.void, env: Environment,
                 tube: TubeBounds, cfg: RelabelConfig, rng: np.random.Generator,
                 expert_states) -> Optional[Tuple[np.ndarray, float]]:
    """Cross-entropy search for a corrective chunk around the reference
    segment of the trajectory table row ``traj``.  Keeps the best
    candidate ever seen; returns it as an (H, d_a) chunk with its cost
    only if its full continuation succeeds."""
    [(u, cost, ok)] = _cem_lockstep(env, cfg, [(traj, point.t, tube, expert_states)], [rng])
    return (u.reshape(cfg.horizon, env.action_dim), cost) if ok else None


def relabel_dataset(curated: np.ndarray, env: Environment,
                    tube: Sequence[TubeBounds], cfg: RelabelConfig,
                    rng: np.random.Generator, expert_states: Sequence[np.ndarray],
                    distances: Sequence[np.ndarray]) -> np.ndarray:
    """Select the ``cfg.k_rel`` riskiest states across the curated
    trajectory table, at least ``cfg.min_sep`` steps apart (0: the
    horizon), and optimize a corrective chunk at each; failed points are
    dropped with a logged diagnostic.  ``tube[i]``, ``expert_states[i]``
    and ``distances[i]`` (``state_distances`` of its states to that
    expert) belong to ``curated[i]``.  Returns the emitted pairs as a
    table with the fields of ``records.npy``, in selection rank: a row
    holds its point's trajectory ``traj`` and step ``t``, the observation
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
    results = _cem_lockstep(env, cfg, context, rng.spawn(len(points))) if points else []
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
