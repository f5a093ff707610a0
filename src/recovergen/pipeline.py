"""End-to-end orchestration: spatial variants, the iterative
sample / score / select / update loop, global relabeling, and export, plus
the spatial-only baseline and the open-loop replay evaluation harness.

Everything is deterministic given the master seed: variant poses and all
per-variant randomness come from pre-spawned seed substreams, and
variant results are merged in variant order, so the output is identical
for any degree of parallelism.  Each variant's loop is a generator of
rollout requests, and the variants of each worker run together on
``envs.lockstep``: one rollout batch per round carries every live
variant's request, and no row's result depends on the batch it is in.
"""
from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from . import curator as cur
from . import sampler as smp
from .config import ConfigError, PipelineConfig, config_parameters
from .curator import TubeBounds
from .dataset_io import (DatasetManifest, open_dataset, read_manifest, serialize,
                         _atomic_write)
from .envs import (Environment, Reply, Request, augmented_demo_actions, blocks, lockstep,
                   make_env, rollout_batch, trajectory_table)
from .geometry import Pose, compose, sample_object_perturbation
from .relabel import relabel_dataset

log = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    """Raised when no variant produces any usable data."""


@dataclass
class IterationStats:
    variant: int
    iteration: int
    n_sampled: int
    n_success: int
    n_selected: int
    r_min: float
    r_max: float
    sigma_mean: float
    stalled: bool = False


@dataclass
class VariantResult:
    index: int
    pose: Pose
    # the selected rollouts as one trajectory table, and each one's
    # distances to the expert at its T + 1 states; empty when skipped
    curated: np.ndarray = field(default_factory=lambda: np.empty(0))
    distances: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    expert_states: Optional[np.ndarray] = None
    final_tube: Optional[TubeBounds] = None
    stats: List[IterationStats] = field(default_factory=list)
    n_generated: int = 0
    n_successful: int = 0
    skipped: bool = False


@dataclass
class RunReport:
    """A finished run: its variants and the manifest it wrote, which owns
    the run's counts."""

    variants: List[VariantResult]
    manifest: DatasetManifest
    wall_time_s: float = 0.0


def _build_env(cfg: PipelineConfig) -> Environment:
    return make_env(cfg.env, **cfg.env_overrides)


def _default_sigma0(env: Environment, configured: float) -> float:
    return configured if configured > 0 else 0.05 * (2.0 * env.a_max)


def sample_variant_poses(env: Environment, cfg: PipelineConfig,
                         rng: np.random.Generator) -> List[Pose]:
    base = env.demo_object_pose()
    return [compose(sample_object_perturbation(cfg.trans_range, cfg.yaw_range, rng), base)
            for _ in range(cfg.n_variants)]


VariantLoop = Generator[Request, Reply, VariantResult]


def _variant_loop(env: Environment, cfg: PipelineConfig, index: int, pose: Pose,
                  seed_seq: np.random.SeedSequence) -> VariantLoop:
    """One variant's full generation loop: K iterations of
    sample -> filter -> tube -> score -> embed -> select -> refit.  Yields
    each rollout request it needs and receives its reply."""
    rng = np.random.default_rng(seed_seq)
    result = VariantResult(index=index, pose=pose)

    demo_actions = augmented_demo_actions(env, pose, cfg.l_blend)
    states, _ = yield env.reset(pose)[None], demo_actions[None], env.nominal_friction()
    expert_states = result.expert_states = states[0].copy()

    q = smp.init_proposal(demo_actions, cfg.sampler.m_points,
                          _default_sigma0(env, cfg.sampler.sigma0),
                          cfg.sampler.variance_floor)
    tube: Optional[TubeBounds] = None
    curated: List[np.ndarray] = []
    distances: List[np.ndarray] = []
    for k in range(cfg.iterations):
        batch = yield from smp.sample_successes(env, pose, q, cfg.samples, rng, index)
        result.n_generated += batch.n_sampled
        if tube is None and len(batch) < cur.MIN_SUCCESSES_FOR_TUBE:
            # first-iteration starvation: widen once and resample
            q = smp.widen(q, 1.5)
            batch = yield from smp.sample_successes(env, pose, q, cfg.samples, rng, index)
            result.n_generated += batch.n_sampled
            if len(batch) < cur.MIN_SUCCESSES_FOR_TUBE:
                log.warning("variant %d: starved of successes, skipping", index)
                result.skipped = True
                return result
        result.n_successful += len(batch)

        table = batch.table
        dists = cur.state_distances(table["states"], expert_states, env.psi, env.psi_scales)
        tube = cur.compute_tube(cur.peak_deviation(dists), cfg.curator.q_min,
                                cfg.curator.q_max, previous=tube)

        if len(batch) == 0:
            result.stats.append(IterationStats(index, k, batch.n_sampled, 0, 0,
                                               tube.r_min, tube.r_max,
                                               float(q.std.mean()), stalled=True))
            continue

        rewards = cur.tube_reward(dists, tube)
        embeddings = cur.dct_embed(table["states"], table["actions"], env.psi, env.psi_scales,
                                   env.horizon, cfg.curator.k_dct)
        sigma_rbf = (cfg.curator.sigma_rbf if cfg.curator.sigma_rbf > 0
                     else cur.median_pairwise_distance(embeddings))
        kernel = cur.build_kernel(embeddings, sigma_rbf)
        m = max(1, math.ceil(cfg.curator.m_fraction * len(batch)))
        selected = cur.dpp_select_greedy(kernel, m, cfg.curator.eps_dpp)

        sel_w = cur.reward_to_weight(rewards[selected], cfg.curator.temperature)
        q = cur.update_proposal(q, table["control_points"][selected], sel_w,
                                cfg.curator.eps_stab, cfg.curator.delta)
        curated.append(table[selected])
        distances.append(dists[selected])
        result.stats.append(IterationStats(index, k, batch.n_sampled, len(batch),
                                           len(selected), tube.r_min, tube.r_max,
                                           float(q.std.mean())))
    result.final_tube = tube
    result.curated = np.concatenate(curated)
    result.distances = np.concatenate(distances)
    return result


def run_variant(env: Environment, cfg: PipelineConfig, index: int, pose: Pose,
                seed_seq: np.random.SeedSequence) -> VariantResult:
    """One variant's full generation loop, run on its own."""
    return lockstep(env, [_variant_loop(env, cfg, index, pose, seed_seq)])[0]


def _group_task(args) -> List[VariantResult]:
    env, cfg, group = args
    return lockstep(env, [_variant_loop(env, cfg, *task) for task in group])


def _run_variants(env: Environment, cfg: PipelineConfig,
                  poses: List[Pose], seeds) -> List[VariantResult]:
    """All variants, as min(jobs, n) lockstep groups of consecutive
    variants, one per worker process; results in variant order."""
    tasks = list(zip(range(len(poses)), poses, seeds))
    jobs = min(cfg.jobs, len(tasks))
    groups = [(env, cfg, tasks[g * len(tasks) // jobs:(g + 1) * len(tasks) // jobs])
              for g in range(jobs)]
    if jobs > 1:
        # imported only here: its import would slow every one-process command
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return [v for group in pool.map(_group_task, groups) for v in group]
    return _group_task(groups[0])


def _manifest(cfg: PipelineConfig, env: Environment, source: str) -> DatasetManifest:
    env_config = {f.name: (list(v) if isinstance(v := getattr(env, f.name), tuple) else v)
                  for f in dataclasses.fields(env)}
    return DatasetManifest(env_name=env.name, env_config=env_config, seed=cfg.seed,
                           source=source, iterations=cfg.iterations,
                           samples_per_iteration=cfg.samples,
                           n_variants=cfg.n_variants, chunk_len=cfg.chunk_len,
                           parameters=config_parameters(cfg))


def _write_report(out_dir: str, report: RunReport) -> None:
    import json
    import os
    rows = []
    text = [f"seed: {report.manifest.seed}"]
    for v in report.variants:
        if v.skipped:
            text.append(f"variant {v.index}: skipped (starved of successes)")
        for s in v.stats:
            rows.append(dataclasses.asdict(s))
            text.append(
                f"variant {s.variant} iter {s.iteration}: "
                f"success {s.n_success}/{s.n_sampled}, selected {s.n_selected}, "
                f"tube [{s.r_min:.4f}, {s.r_max:.4f}], sigma {s.sigma_mean:.5f}"
                + (" (stalled)" if s.stalled else ""))
    m = report.manifest
    text.append(f"totals: generated {m.n_generated}, successful {m.n_successful}, "
                f"selected {m.n_selected}, relabeled {m.n_relabeled}, records {m.n_records}")
    _atomic_write(os.path.join(out_dir, "report.txt"), ["\n".join(text) + "\n"])
    _atomic_write(os.path.join(out_dir, "report.jsonl"), (json.dumps(r) + "\n" for r in rows))


def run_pgdg(cfg: PipelineConfig) -> RunReport:
    """Full closed-loop generation run; writes the dataset to cfg.out_dir."""
    t0 = time.perf_counter()
    cfg.validate()
    env = _build_env(cfg)
    root = np.random.SeedSequence(cfg.seed)
    seeds = root.spawn(cfg.n_variants + 2)
    poses = sample_variant_poses(env, cfg, np.random.default_rng(seeds[0]))
    variants = _run_variants(env, cfg, poses, seeds[1:1 + cfg.n_variants])

    active = [v for v in variants if not v.skipped and len(v.curated)]
    if not active:
        raise PipelineError("all variants starved of successful rollouts")

    curated = np.concatenate([v.curated for v in active])
    distances = np.concatenate([v.distances for v in active])
    experts = [v.expert_states for v in active for _ in range(len(v.curated))]
    tubes = [v.final_tube for v in active for _ in range(len(v.curated))]

    records = relabel_dataset(curated, env, tubes, cfg.relabel,
                              np.random.default_rng(seeds[-1]), experts, distances)

    manifest = _manifest(cfg, env, "generate")
    manifest.n_generated = sum(v.n_generated for v in variants)
    manifest.n_successful = sum(v.n_successful for v in variants)
    manifest.n_selected = len(curated)
    manifest.final_tubes = [(v.final_tube.r_min, v.final_tube.r_max) for v in active]
    serialize(manifest, cfg.out_dir, curated, records)

    report = RunReport(variants=variants, manifest=manifest)
    _write_report(cfg.out_dir, report)
    report.wall_time_s = time.perf_counter() - t0
    return report


def run_spatial_only(cfg: PipelineConfig) -> RunReport:
    """Spatial-randomization-only baseline: re-anchor + blend the demo per
    variant, roll it out once under randomized physical parameters, and
    export every rollout (no filtering, no curation)."""
    t0 = time.perf_counter()
    cfg.validate()
    env = _build_env(cfg)
    root = np.random.SeedSequence(cfg.seed)
    seeds = root.spawn(cfg.n_variants + 2)
    poses = sample_variant_poses(env, cfg, np.random.default_rng(seeds[0]))

    friction = np.concatenate([env.sample_friction(np.random.default_rng(seed), 1)
                               for seed in seeds[1:1 + cfg.n_variants]])
    actions = np.array([augmented_demo_actions(env, pose, cfg.l_blend) for pose in poses])
    states, success = rollout_batch(env, np.array([env.reset(pose) for pose in poses]),
                                    actions, friction)
    rollouts = trajectory_table(states, actions, success, friction, np.arange(len(poses)))

    manifest = _manifest(cfg, env, "baseline")
    manifest.n_generated = len(rollouts)
    manifest.n_successful = int(np.sum(success))
    manifest.n_selected = len(rollouts)      # every rollout is stored
    serialize(manifest, cfg.out_dir, rollouts)

    report = RunReport(variants=[VariantResult(index=i, pose=pose)
                                 for i, pose in enumerate(poses)], manifest=manifest)
    _write_report(cfg.out_dir, report)
    report.wall_time_s = time.perf_counter() - t0
    return report


def _binomial_ci(successes: int, trials: int) -> Tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return (max(0.0, p - half), min(1.0, p + half))


def _successes(env: Environment, rows: int, block) -> int:
    """Successful rows among ``rows`` replays, rolled out in blocks of at
    most ``envs.ROLLOUT_BLOCK`` rows; ``block(i)`` gives the
    ``rollout_batch`` arguments of the rows of index array i, block after
    block."""
    return sum(int(np.sum(rollout_batch(env, *block(np.arange(b.start, b.stop)))[1]))
               for b in blocks(rows))


def evaluate_replay(dataset_dir: str, n_trials: int, seed: int = 0) -> Dict:
    """Open-loop replay of a dataset's stored plans.

    Every replay is a full plan, decoded from its trajectory's stored
    control points (``sampler.decode``), from its trajectory's start state.
    Reports the success rate of the stored trajectories under their stored
    friction; of the relabeled records (None when there are none), each
    its trajectory's plan with its chunk over steps t to t + H - 1, under
    that trajectory's friction; and of n_trials fresh friction draws,
    trial j on plan j % n with the j-th draw of one ``sample_friction``
    stream, with a 95% binomial CI.  A row's steps depend only on its
    start state, plan and friction, and a row's plan only on its control
    points, so a record's replay reaches its trajectory's state at step t,
    the one the record was relabeled from, although the dataset stores
    only each trajectory's ``start`` state and control points.

    The replayed columns (the ``start`` states, control points and
    friction scales of ``trajectories.npy``, and each record's trajectory,
    step and chunk) are copied out and the loaded tables dropped before the
    first rollout.  Every rollout batch gathers and decodes at most
    ``envs.ROLLOUT_BLOCK`` rows from those columns, so from the first
    rollout on, memory is the replayed columns plus one block's control
    points, plans, states and step arrays, for any dataset size and
    n_trials.  Rows are independent and the friction stream does not
    depend on how the trials are split, so neither does the report.
    """
    if n_trials < 0:
        raise ConfigError(f"trials must be >= 0, got {n_trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    manifest, env, table, records = open_dataset(dataset_dir)
    n, horizon = len(table), env.horizon
    if not n:
        raise PipelineError(f"{dataset_dir}: no trajectories to replay")
    s0s, points = table["start"].copy(), table["control_points"].copy()
    friction = table["friction_scale"].copy()
    traj, t, chunks = (records[name].copy() for name in ("traj", "t", "chunk"))
    del table, records

    def relabeled(i):
        # each record's trajectory plan, its chunk over steps t to t + H - 1
        plans = smp.decode(points[traj[i]], horizon)
        plans[np.arange(len(i))[:, None], t[i, None] + np.arange(chunks.shape[1])] = chunks[i]
        return s0s[traj[i]], plans, friction[traj[i]]

    rng = np.random.default_rng(seed)
    stored_ok = _successes(env, n, lambda i: (s0s[i], smp.decode(points[i], horizon),
                                              friction[i]))
    relabeled_ok = _successes(env, len(t), relabeled)
    fresh_ok = _successes(env, n_trials, lambda i: (s0s[i % n],
                                                    smp.decode(points[i % n], horizon),
                                                    env.sample_friction(rng, len(i))))

    return {
        "dataset": dataset_dir,
        "source": manifest.source,
        "n_trajectories": n,
        "stored_success_rate": stored_ok / n,
        "relabeled_success_rate": relabeled_ok / len(t) if len(t) else None,
        "fresh_trials": n_trials,
        "fresh_success_rate": fresh_ok / n_trials if n_trials else 0.0,
        "fresh_ci95": _binomial_ci(fresh_ok, n_trials),
    }


def compare_replay(pgdg_dir: str, baseline_dir: str, n_trials: int,
                   seed: int = 0) -> Dict:
    """Replay comparison between a curated dataset and the spatial-only
    baseline.  ``gap_fresh`` is curated minus baseline success, both under
    fresh friction, with a 95% normal-approximation CI for a difference of
    two proportions.  Datasets of different environments, by name or
    configuration, are refused with ConfigError before any rollout."""
    envs = [(m.env_name, m.env_config) for m in map(read_manifest, (pgdg_dir, baseline_dir))]
    if envs[0] != envs[1]:
        raise ConfigError(f"cannot compare {pgdg_dir} ({envs[0][0]} {envs[0][1]}) with "
                          f"{baseline_dir} ({envs[1][0]} {envs[1][1]}): their environments "
                          f"differ")
    ours = evaluate_replay(pgdg_dir, n_trials, seed)
    base = evaluate_replay(baseline_dir, n_trials, seed)
    p, q = ours["fresh_success_rate"], base["fresh_success_rate"]
    gap_fresh = p - q
    if n_trials:
        half = 1.96 * math.sqrt((p * (1.0 - p) + q * (1.0 - q)) / n_trials)
        ci = (max(-1.0, gap_fresh - half), min(1.0, gap_fresh + half))
    else:
        ci = (-1.0, 1.0)
    return {
        "curated": ours,
        "baseline": base,
        "gap_fresh": gap_fresh,
        "gap_fresh_ci95": ci,
    }
