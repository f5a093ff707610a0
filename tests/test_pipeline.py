"""End-to-end orchestration: determinism across parallelism, iteration
accounting, starvation handling, baseline, and the replay harness."""
import filecmp
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from recovergen import envs, pipeline, sampler
from recovergen.cli import main as cli_main
from recovergen.config import PipelineConfig
from recovergen.curator import state_distances
from recovergen.dataset_io import (DatasetFormatError, DatasetManifest, dataset_stats,
                                   deserialize, export_pairs, load_trajectories,
                                   open_dataset, read_manifest, rebuild_trajectories,
                                   record_dtype, serialize, stored_table)
from recovergen.envs import augmented_demo_actions, make_env, rollout, rollout_batch
from recovergen.geometry import Pose
from recovergen.pipeline import (PipelineError, _run_variants, compare_replay,
                                 evaluate_replay, run_pgdg, run_spatial_only,
                                 run_variant, sample_variant_poses)


def fast_cfg(out_dir, **kw):
    cfg = PipelineConfig(env="point_reach", out_dir=str(out_dir), seed=5,
                         n_variants=2, iterations=2, samples=16,
                         chunk_len=10, l_blend=2,
                         trans_range=(0.01, 0.01, 0.0), yaw_range=0.0)
    cfg.sampler.sigma0 = 0.001
    cfg.relabel.k_rel = 2
    cfg.relabel.population = 8
    cfg.relabel.cem_iterations = 2
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ---------------------------------------------------------------------------
# generation runs


def test_run_pgdg_outputs_and_accounting(tmp_path):
    cfg = fast_cfg(tmp_path / "ds")
    report = run_pgdg(cfg)
    m = report.manifest
    assert m.n_records > 0
    assert m.n_generated >= cfg.n_variants * cfg.iterations * cfg.samples
    assert m.n_successful <= m.n_generated
    assert m.n_selected <= m.n_successful
    for v in report.variants:
        if not v.skipped:
            assert len(v.stats) == cfg.iterations
            for s in v.stats:
                assert s.n_selected <= s.n_success <= s.n_sampled
    for name in ("manifest", "records.npy", "trajectories.npy", "report.txt",
                 "report.jsonl"):
        assert (tmp_path / "ds" / name).exists()


def test_run_pgdg_curated_trajectories_revalidate(tmp_path):
    cfg = fast_cfg(tmp_path / "ds")
    run_pgdg(cfg)
    env = make_env(cfg.env)
    rows = load_trajectories(str(tmp_path / "ds"))
    for row, plan, states in zip(rows, *rebuild_trajectories(rows, env)):
        replay, success = rollout(env, row.start, plan, row.friction_scale)
        assert success
        assert np.array_equal(replay, states)


def test_run_pgdg_manifest_counts_match(tmp_path):
    cfg = fast_cfg(tmp_path / "ds")
    report = run_pgdg(cfg)
    records, manifest = deserialize(str(tmp_path / "ds"))
    assert manifest.n_records == len(records) == report.manifest.n_records
    assert manifest.n_relabeled == report.manifest.n_relabeled > 0
    assert manifest.n_selected == sum(len(v.curated) for v in report.variants)
    assert manifest.seed == cfg.seed
    assert 0.0 <= manifest.omission_fraction <= 1.0
    assert len(manifest.final_tubes) >= 1


def test_every_report_keeps_its_stored_rows_by_variant(tmp_path):
    # the variants of a baseline and of a generate run each keep their
    # stored rows: together they are the rows written, n_selected of them,
    # and each variant's rows rebuild under the run's environment
    env = make_env(PipelineConfig().env)
    for run in (run_spatial_only, run_pgdg):
        out = str(tmp_path / run.__name__)
        report = run(PipelineConfig(out_dir=out, seed=7))
        assert sum(len(v.curated) for v in report.variants) == report.manifest.n_selected > 0
        rows = np.concatenate([v.curated for v in report.variants])
        written = np.load(os.path.join(out, "trajectories.npy"), allow_pickle=False)
        assert rows.dtype == written.dtype and rows.tobytes() == written.tobytes()
        for v in report.variants:
            actions, states = rebuild_trajectories(v.curated, env)
            assert len(actions) == len(states) == len(v.curated)


def test_run_pgdg_deterministic_across_jobs(tmp_path):
    a = fast_cfg(tmp_path / "a", jobs=1)
    b = fast_cfg(tmp_path / "b", jobs=4)
    run_pgdg(a)
    run_pgdg(b)
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_run_pgdg_deterministic_across_uneven_jobs(tmp_path):
    # 4 variants over 3 workers: lockstep groups of 1, 1 and 2 variants
    a = fast_cfg(tmp_path / "a", jobs=1, n_variants=4)
    b = fast_cfg(tmp_path / "b", jobs=3, n_variants=4)
    run_pgdg(a)
    run_pgdg(b)
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _assert_variant_results_equal(a, b):
    assert (a.index, a.skipped, a.n_generated, a.n_successful) == \
        (b.index, b.skipped, b.n_generated, b.n_successful)
    assert a.pose == b.pose
    assert a.stats == b.stats and a.final_tube == b.final_tube
    assert _bits(a.expert_states) == _bits(b.expert_states)
    assert len(a.curated) == len(b.curated) == len(a.distances) == len(b.distances)
    assert _bits(a.distances) == _bits(b.distances)
    assert _bits(a.curated) == _bits(b.curated)


def test_lockstep_variants_equal_one_at_a_time():
    # seed 7 at the defaults: variant 2 starves and drops out of the lockstep
    cfg = PipelineConfig(seed=7, jobs=1)
    env = make_env(cfg.env)

    def variant_inputs():
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_variants + 2)
        poses = sample_variant_poses(env, cfg, np.random.default_rng(seeds[0]))
        return poses, seeds[1:1 + cfg.n_variants]

    together = _run_variants(env, cfg, *variant_inputs())
    poses, seeds = variant_inputs()
    alone = [run_variant(env, cfg, i, pose, seed)
             for i, (pose, seed) in enumerate(zip(poses, seeds))]
    assert [v.skipped for v in together] == [False, False, True, False]
    assert len(together) == len(alone) == cfg.n_variants
    for a, b in zip(together, alone):
        _assert_variant_results_equal(a, b)
    # relabeling reuses each curated trajectory's distances: they must be
    # the bits a fresh computation gives on its rebuilt states
    for v in together:
        for states, d in zip(rebuild_trajectories(v.curated, env)[1], v.distances):
            fresh = state_distances(states, v.expert_states, env.psi, env.psi_scales)
            assert _bits(d) == _bits(fresh)


def test_a_starved_variant_returns_no_stored_rows():
    # seed 7 at the defaults: variant 2 starves, and its curated rows are a
    # table of no rows in the layout of the others, which rebuilds to none
    cfg = PipelineConfig(seed=7, jobs=1)
    env = make_env(cfg.env)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_variants + 2)
    poses = sample_variant_poses(env, cfg, np.random.default_rng(seeds[0]))
    variants = _run_variants(env, cfg, poses, seeds[1:1 + cfg.n_variants])
    assert [v.skipped for v in variants] == [False, False, True, False]
    rebuilt = [rebuild_trajectories(v.curated, env)[1] for v in variants]
    assert [len(t) for t in rebuilt] == [len(v.curated) for v in variants]
    assert len(rebuilt[2]) == len(variants[2].distances) == 0
    assert len({v.curated.dtype for v in variants}) == 1
    assert all(v.distances.shape[1:] == (env.horizon + 1,) for v in variants)


def test_workers_return_stored_rows():
    # a --jobs worker sends back each curated trajectory as its stored row,
    # 585 B for the planar block, and its distances, 8 (T + 1) B, not its
    # states and actions (5,865 B a row with the row's control points); the
    # rest of its pickle, each variant's expert states (3,416 B) and
    # iteration stats among it, stays within 8 KiB a variant
    cfg = PipelineConfig(seed=7, jobs=1)
    env = make_env(cfg.env)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_variants + 2)
    poses = sample_variant_poses(env, cfg, np.random.default_rng(seeds[0]))
    group = list(zip(range(cfg.n_variants), poses, seeds[1:1 + cfg.n_variants]))
    results = pipeline._group_task((env, cfg, group))
    row = np.dtype([("variant", "<i8"), ("success", "?"), ("friction_scale", "<f8"),
                    ("start", "<f8", (env.state_dim,)),
                    ("control_points", "<f8", (cfg.sampler.m_points, env.action_dim))])
    assert row.itemsize == 585
    live = [v for v in results if not v.skipped]
    assert len(live) == 3 and all(v.curated.dtype == row for v in results)
    n = sum(len(v.curated) for v in results)
    assert n == 146
    assert len(pickle.dumps(results)) <= n * (585 + 8 * (env.horizon + 1)) + 8192 * len(results)


def test_variant_loop_calls_state_distances_once_per_scored_batch(monkeypatch):
    # seed 7 at the defaults scores 174 successes in 15 batches (variant 2
    # starves): one call over each whole (n, T + 1, d_s) batch, not one per
    # trajectory
    from recovergen import curator
    rows = []

    def counted(states, *args, _real=curator.state_distances):
        assert states.shape[1:] == (env.horizon + 1, env.state_dim)
        rows.append(len(states))
        return _real(states, *args)

    monkeypatch.setattr(curator, "state_distances", counted)
    cfg = PipelineConfig(seed=7, jobs=1)
    env = make_env(cfg.env)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_variants + 2)
    poses = sample_variant_poses(env, cfg, np.random.default_rng(seeds[0]))
    variants = _run_variants(env, cfg, poses, seeds[1:1 + cfg.n_variants])
    assert len(rows) == sum(len(v.stats) for v in variants) == 15
    assert sum(rows) == sum(v.n_successful for v in variants) == 174


def test_run_pgdg_repeat_identical(tmp_path):
    run_pgdg(fast_cfg(tmp_path / "a"))
    run_pgdg(fast_cfg(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", os.listdir(tmp_path / "a"),
        shallow=False)
    assert not mismatch and not errors


def test_run_pgdg_different_seeds_differ(tmp_path):
    run_pgdg(fast_cfg(tmp_path / "a", seed=1))
    run_pgdg(fast_cfg(tmp_path / "b", seed=2))
    assert dir_bytes(tmp_path / "a") != dir_bytes(tmp_path / "b")


def test_run_pgdg_all_starved_raises(tmp_path):
    cfg = fast_cfg(tmp_path / "ds", n_variants=1)
    cfg.env_overrides = {"goal": (50.0, 50.0)}  # unreachable
    with pytest.raises(PipelineError):
        run_pgdg(cfg)


def test_variant_poses_deterministic():
    env = make_env("point_reach")
    cfg = fast_cfg("unused")
    a = sample_variant_poses(env, cfg, np.random.default_rng(3))
    b = sample_variant_poses(env, cfg, np.random.default_rng(3))
    assert len(a) == cfg.n_variants
    assert a == b


# ---------------------------------------------------------------------------
# baseline


def test_baseline_exports_one_rollout_per_variant(tmp_path):
    cfg = fast_cfg(tmp_path / "base", n_variants=5)
    report = run_spatial_only(cfg)
    trajs = load_trajectories(str(tmp_path / "base"))
    assert len(trajs) == 5
    assert report.manifest.n_generated == 5
    _, manifest = deserialize(str(tmp_path / "base"))
    assert manifest.source == "baseline"
    # no filtering: failures are kept too
    assert manifest.n_trajectories == 5


def test_baseline_selects_every_stored_rollout(tmp_path):
    # the block under randomized friction: some of the 40 rollouts fail
    run_spatial_only(PipelineConfig(out_dir=str(tmp_path / "base"), seed=7, n_variants=40))
    manifest = read_manifest(str(tmp_path / "base"))
    assert 0 < manifest.n_successful < manifest.n_generated == 40
    assert manifest.n_selected == manifest.n_trajectories == 40
    assert manifest.omission_fraction == 0.0
    stats = dataset_stats(manifest)
    assert stats["selected"] == 40 and stats["omission_fraction"] == 0.0


def test_baseline_format_matches_generate(tmp_path):
    run_pgdg(fast_cfg(tmp_path / "gen"))
    run_spatial_only(fast_cfg(tmp_path / "base"))
    recs_g, man_g = deserialize(str(tmp_path / "gen"))
    recs_b, man_b = deserialize(str(tmp_path / "base"))
    assert recs_g.curated.dtype == recs_b.curated.dtype
    assert recs_g.curated.dtype["obs"].shape == recs_g.relabeled.dtype["obs"].shape


# ---------------------------------------------------------------------------
# replay evaluation


def test_evaluate_replay_stored_params_pure(tmp_path):
    cfg = fast_cfg(tmp_path / "ds")
    run_pgdg(cfg)
    report = evaluate_replay(str(tmp_path / "ds"), n_trials=10, seed=1)
    assert report["stored_success_rate"] == 1.0
    assert 0.0 <= report["fresh_success_rate"] <= 1.0
    lo, hi = report["fresh_ci95"]
    assert 0.0 <= lo <= report["fresh_success_rate"] <= hi <= 1.0


def test_evaluate_replay_deterministic(tmp_path):
    run_pgdg(fast_cfg(tmp_path / "ds"))
    a = evaluate_replay(str(tmp_path / "ds"), n_trials=10, seed=7)
    b = evaluate_replay(str(tmp_path / "ds"), n_trials=10, seed=7)
    assert a == b


def test_evaluate_replay_missing_dump(tmp_path):
    os.makedirs(tmp_path / "empty")
    with open(tmp_path / "empty" / "manifest", "w") as fh:
        fh.write("format = 7\nenv_name = point_reach\nseed = 0\nsource = generate\n"
                 "iterations = 0\nsamples_per_iteration = 0\nn_variants = 0\n"
                 "n_generated = 0\nn_successful = 0\nn_selected = 0\nn_relabeled = 0\n"
                 "n_records = 0\nn_trajectories = 0\nchunk_len = 1\nenv_config = {}\n"
                 "parameters = {}\nfinal_tubes = []\n")
    with pytest.raises((PipelineError, DatasetFormatError), match="trajectories.npy: file missing"):
        evaluate_replay(str(tmp_path / "empty"), n_trials=5)


PLANAR = make_env("planar_block_rotate")
H = 15   # the chunk length of replay_dataset's records


def replay_dataset(out_dir, n, n_records, seed=0):
    """A planar dataset of n noisy demo plans rolled out under their own
    friction draws, some failing, and n_records relabeled records on them,
    each the reference chunk plus noise at a random (traj, t), with
    repeats; returns its directory."""
    env, rng = PLANAR, np.random.default_rng(seed)
    actions = (augmented_demo_actions(env, Pose(), 10)
               + rng.normal(0.0, 0.002, (n, env.horizon, env.action_dim)))
    friction = env.sample_friction(rng, n)
    s0s = np.repeat(env.reset(Pose())[None], n, axis=0)
    states, success = rollout_batch(env, s0s, actions, friction)
    records = np.empty(n_records, record_dtype(2 * env.state_dim, (H, env.action_dim)))
    records["traj"] = rng.integers(0, n, n_records)
    records["t"] = rng.integers(0, env.horizon - H + 1, n_records) // 5 * 5
    records["obs"] = env.observe(states[records["traj"], records["t"]],
                                 states[records["traj"], 0])
    records["chunk"] = (actions[records["traj"][:, None], records["t"][:, None] + np.arange(H)]
                        + rng.normal(0.0, 0.01, records["chunk"].shape))
    serialize(DatasetManifest(env_name=env.name), str(out_dir),
              stored_table(0, success, friction, s0s, actions), records)
    return str(out_dir)


def replay_oracle(out_dir, n_trials, seed):
    """evaluate_replay's rates, from one rollout_batch over all stored
    plans, one over all fresh trials (trial j on plan j % n, friction from
    one sample_friction call) and one per relabeled record, from its
    trajectory's state at t."""
    _, env, _, records = open_dataset(out_dir)
    table = load_trajectories(out_dir)
    actions, states = rebuild_trajectories(table, env)
    n, s0s = len(table), table["start"]
    stored = rollout_batch(env, s0s, actions, table["friction_scale"])[1]
    rows = np.arange(n_trials) % n
    fresh = rollout_batch(env, s0s[rows], actions[rows],
                          env.sample_friction(np.random.default_rng(seed), n_trials))[1]
    relabeled = 0
    for i, t, chunk in zip(records["traj"], records["t"], records["chunk"]):
        plan = np.concatenate([chunk, actions[i, t + len(chunk):]])
        relabeled += int(rollout_batch(env, states[i, t][None], plan[None],
                                       table["friction_scale"][i, None])[1][0])
    return {"stored_success_rate": int(stored.sum()) / n,
            "relabeled_success_rate": relabeled / len(records) if len(records) else None,
            "fresh_success_rate": int(fresh.sum()) / n_trials if n_trials else 0.0}


@pytest.fixture(scope="module")
def replay_datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay")
    return {n: replay_dataset(root / str(n), n, n_records=7, seed=n) for n in (3, 11)}


@pytest.mark.parametrize("n", [3, 11])
def test_evaluate_replay_equals_the_one_batch_oracle_at_any_block(replay_datasets, n,
                                                                  monkeypatch):
    out = replay_datasets[n]
    for n_trials in (0, n - 1, 3 * n, 2 * n + 1):
        want = replay_oracle(out, n_trials, seed=n_trials)
        for block in (1, 2, n - 1, n, n + 1, 2 * n + 1, 4096):
            monkeypatch.setattr(envs, "ROLLOUT_BLOCK", block)
            report = evaluate_replay(out, n_trials, seed=n_trials)
            assert {k: report[k] for k in want} == want, (n_trials, block)
            assert report["n_trajectories"] == n and report["fresh_trials"] == n_trials
    # the fixtures draw outcomes of both kinds, so a wrong row would show
    assert all(0 < want[k] < 1 for k in want)


def test_evaluate_replay_memory_is_the_replayed_columns_plus_one_block(tmp_path,
                                                                      monkeypatch):
    # from the first rollout on, the loaded tables are gone and no batch
    # holds more than one block: the peak stays below the replayed columns
    # (start states, control points and friction scales) plus twice one
    # block's states and plans, although every stored row and 3 passes are
    # replayed.  replay_dataset's plans are their own control points
    # (M = T), so decode returns a block's gathered points as its plans.
    # The second block's worth (85 KB) covers what a block holds beside its
    # states and plans: the step's working arrays, about 1 KB a row, and
    # some 17 KB of small objects.  A batch of all 53 stored rows holds
    # 283 KB of states and plans alone.
    block, env = 16, PLANAR
    n = 3 * block + 5
    out = replay_dataset(tmp_path / "ds", n, n_records=0)
    columns = 8 * n * (env.state_dim + env.horizon * env.action_dim + 1)
    bound = columns + 2 * 8 * block * (
        (env.horizon + 1) * env.state_dim + env.horizon * env.action_dim)
    monkeypatch.setattr(envs, "ROLLOUT_BLOCK", block)
    calls = []

    def rollout_batch_resetting_the_peak(*args):
        if not calls:
            tracemalloc.reset_peak()
        calls.append(len(args[1]))
        return rollout_batch(*args)

    monkeypatch.setattr(pipeline, "rollout_batch", rollout_batch_resetting_the_peak)
    tracemalloc.start()
    try:
        evaluate_replay(out, n_trials=3 * n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
    assert max(calls) == block


def test_rebuild_trajectories_memory_is_the_arrays_plus_one_block(tmp_path, monkeypatch):
    # the returned plans and states are allocated once and filled block by
    # block: the peak stays below them plus one block's control points,
    # plans and states.  Rebuilding them by a whole-table rollout, as
    # format 6 did, holds every row's states twice
    block, env = 16, PLANAR
    out = str(tmp_path / "ds")
    run_pgdg(PipelineConfig(out_dir=out, seed=7))
    m_points = PipelineConfig().sampler.m_points
    rows = load_trajectories(out)
    monkeypatch.setattr(envs, "ROLLOUT_BLOCK", block)
    tracemalloc.start()
    try:
        actions, states = rebuild_trajectories(rows, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) > 8 * block
    bound = actions.nbytes + states.nbytes + 8 * block * (
        m_points * env.action_dim + env.horizon * env.action_dim
        + (env.horizon + 1) * env.state_dim)
    assert peak < bound, (peak, bound)


def test_every_relabeled_record_replays_at_seeds_1_to_10(tmp_path):
    # each stored record was verified when it was emitted, under the
    # friction of its trajectory: its replay must succeed
    for seed in range(1, 11):
        out = tmp_path / str(seed)
        report = run_pgdg(PipelineConfig(out_dir=str(out), seed=seed, jobs=1))
        assert report.manifest.n_relabeled > 0
        assert evaluate_replay(str(out), 0)["relabeled_success_rate"] == 1.0, seed


def test_evaluate_replay_refuses_a_record_outside_its_plans(tmp_path):
    # serialize refuses such a record, so it is written here by hand; the
    # dataset check refuses it before any rollout
    out = replay_dataset(tmp_path / "ds", 3, n_records=2)
    path = os.path.join(out, "records.npy")
    records = np.load(path, allow_pickle=False)
    for traj, t in ((3, 0), (-1, 0), (0, PLANAR.horizon - H + 1), (0, -1)):
        bad = records.copy()
        bad["traj"][1], bad["t"][1] = traj, t
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, bad, allow_pickle=False)
        with pytest.raises(DatasetFormatError, match="relabeled record 1 .* no room"):
            evaluate_replay(out, 2)


def test_trajectories_file_stores_each_start_state_not_the_states(tmp_path):
    # a row of trajectories.npy is variant, success and friction (17 bytes),
    # the start state (d_s floats) and the control points (M x d_a floats):
    # 585 bytes for a generated planar row (M = 16) and 1,993 for a
    # baseline row, whose plan is its own M = T points
    env = PLANAR
    runs = {"generate": (run_pgdg, 16, 585), "baseline": (run_spatial_only, env.horizon, 1993)}
    for source, (run, m_points, row) in runs.items():
        out = str(tmp_path / source)
        n = run(PipelineConfig(out_dir=out, seed=7)).manifest.n_trajectories
        path = os.path.join(out, "trajectories.npy")
        table = np.load(path, allow_pickle=False)
        assert table.dtype == np.dtype([
            ("variant", "<i8"), ("success", "?"), ("friction_scale", "<f8"),
            ("start", "<f8", (env.state_dim,)),
            ("control_points", "<f8", (m_points, env.action_dim))])
        with open(path, "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            np.lib.format.read_array_header_1_0(fh)
            header = fh.tell()
        assert table.dtype.itemsize == 17 + 8 * env.state_dim \
            + 8 * m_points * env.action_dim == row
        assert os.path.getsize(path) == header + n * row
        loaded = load_trajectories(out)
        assert loaded.dtype == table.dtype and loaded.tobytes() == table.tobytes()
        assert np.array_equal(table["start"], rebuild_trajectories(loaded, env)[1][:, 0])
    # a record's replay reaches its trajectory's rebuilt state at t
    out = replay_dataset(tmp_path / "ds", 11, n_records=7, seed=11)
    assert 0 < evaluate_replay(out, 30, seed=3)["relabeled_success_rate"] < 1


@pytest.mark.parametrize("case", ["generate", "generate-jobs-2", "baseline", "point_reach",
                                  "empty"])
def test_readers_return_the_written_table_bit_for_bit(tmp_path, monkeypatch, case):
    # the states and actions are not stored: the readers rebuild them, and
    # every row that the sampler or the baseline rolled out and the run
    # stored reads back with the plan and states it was rolled out with,
    # also when the variants ran in two worker processes
    out, written, rolled = str(tmp_path / "ds"), [], []

    def serialize_recording(manifest, out_dir, trajectories, records=None):
        written.append((manifest, trajectories, records))
        return serialize(manifest, out_dir, trajectories, records)

    def sample_recording(env, pose, *args, _real=sampler.sample_successes):
        batch = yield from _real(env, pose, *args)
        rolled.append((pose, batch))
        return batch

    def rollout_recording(env, s0s, actions, friction):
        states, success = rollout_batch(env, s0s, actions, friction)
        rolled.append((stored_table(np.arange(len(s0s)), success, friction, states[:, 0],
                                    actions), actions, states))
        return states, success

    monkeypatch.setattr(pipeline, "serialize", serialize_recording)
    monkeypatch.setattr(sampler, "sample_successes", sample_recording)
    monkeypatch.setattr(pipeline, "rollout_batch", rollout_recording)
    report = None
    if case == "generate":
        report = run_pgdg(PipelineConfig(out_dir=out, seed=7))
    elif case == "generate-jobs-2":
        # the workers sample in their own processes; a one-process run of
        # the same configuration records the same batches
        wide = dict(seed=13, n_variants=8, samples=128)
        report = run_pgdg(PipelineConfig(out_dir=str(tmp_path / "jobs-1"), jobs=1, **wide))
        written.clear()
        run_pgdg(PipelineConfig(out_dir=out, jobs=2, **wide))
    elif case == "baseline":     # under randomized friction, some rollouts fail
        run_spatial_only(PipelineConfig(out_dir=out, seed=7, n_variants=40))
    elif case == "point_reach":
        report = run_pgdg(fast_cfg(out))
    else:
        pipeline.serialize(DatasetManifest(env_name=PLANAR.name), out, stored_table(
            0, True, (), np.empty((0, PLANAR.state_dim)),
            np.empty((0, PLANAR.horizon, PLANAR.action_dim))))
        # what was rolled out: no rows
        rolled.append((stored_table(0, True, (), np.empty((0, PLANAR.state_dim)),
                                    np.empty((0, PLANAR.horizon, PLANAR.action_dim))),
                       np.empty((0, PLANAR.horizon, PLANAR.action_dim)),
                       np.empty((0, PLANAR.horizon + 1, PLANAR.state_dim))))
    ((manifest, rows, records),) = written
    got = load_trajectories(out)
    if report is None:
        ((table, actions, states),) = rolled
    else:
        # each stored row is one sampled success, found by its control
        # points; the variants' rows are stored in variant order
        poses = [v.pose for v in report.variants]
        drawn = {points.tobytes(): (poses.index(pose), batch, i) for pose, batch in rolled
                 for i, points in enumerate(batch.plans.control_points)}
        hits = [drawn[points.tobytes()] for points in got["control_points"]]
        assert len({points.tobytes() for points in got["control_points"]}) == len(got)
        assert len(got) == manifest.n_selected and np.all(np.diff(got["variant"]) >= 0)
        actions = np.array([batch.plans.actions[i] for _, batch, i in hits])
        states = np.array([batch.states[i] for _, batch, i in hits])
        table = stored_table(np.array([v for v, _, _ in hits]), True,
                             np.array([batch.plans.friction[i] for _, batch, i in hits]),
                             states[:, 0],
                             np.array([batch.plans.control_points[i] for _, batch, i in hits]))
    assert rows.tobytes() == table.tobytes()
    assert (len(table) > 0) == (case != "empty")
    assert bool(np.any(~table["success"])) == (case == "baseline")
    assert got.dtype == table.dtype and got.tobytes() == table.tobytes()
    env = open_dataset(out)[1]
    for rebuilt, want in zip(rebuild_trajectories(got, env), (actions, states)):
        assert rebuilt.shape == want.shape and rebuilt.tobytes() == want.tobytes()
    pairs, _ = deserialize(out)
    curated = export_pairs(states, actions, manifest.chunk_len, env.observe)
    assert pairs.curated.dtype == curated.dtype
    assert pairs.curated.tobytes() == curated.tobytes()
    if records is None:
        assert len(pairs.relabeled) == 0
    else:
        assert pairs.relabeled.dtype == records.dtype
        assert pairs.relabeled.tobytes() == records.tobytes()


def test_every_stored_row_is_one_draw(tmp_path, monkeypatch):
    # each row of trajectories.npy holds the control points, friction scale
    # and start state of one draw of the sampler, bit for bit
    draws = {}

    def draw_recording(*args, _real=sampler.draw_plans):
        plans = _real(*args)
        for points, friction, s0 in zip(plans.control_points, plans.friction, plans.s0s):
            draws[points.tobytes()] = (friction.tobytes(), s0.tobytes())
        return plans

    monkeypatch.setattr(sampler, "draw_plans", draw_recording)
    assert cli_main(["generate", "--seed", "7", "--out", str(tmp_path)]) == 0
    rows = np.load(tmp_path / "trajectories.npy", allow_pickle=False)
    assert len(rows) == read_manifest(str(tmp_path)).n_selected == 146
    assert len(draws) == read_manifest(str(tmp_path)).n_generated
    for row in rows:
        assert draws[row["control_points"].tobytes()] == (row["friction_scale"].tobytes(),
                                                          row["start"].tobytes())


def test_compare_replay_gap(tmp_path):
    # no stored-against-fresh gap: the curated side's stored success is 1.0
    # by construction, so only the like-for-like gap_fresh is reported
    run_pgdg(fast_cfg(tmp_path / "gen"))
    run_spatial_only(fast_cfg(tmp_path / "base"))
    out = compare_replay(str(tmp_path / "gen"), str(tmp_path / "base"),
                         n_trials=10, seed=2)
    assert out["curated"]["stored_success_rate"] == 1.0
    assert sorted(out) == ["baseline", "curated", "gap_fresh", "gap_fresh_ci95"]
    assert out["gap_fresh"] == (out["curated"]["fresh_success_rate"]
                                - out["baseline"]["fresh_success_rate"])


def test_compare_replay_fresh_gap_and_ci(tmp_path):
    # two small planar baselines: fresh physics makes both rates lie in (0, 1)
    for name, seed in (("a", 1), ("b", 2)):
        run_spatial_only(PipelineConfig(out_dir=str(tmp_path / name), seed=seed,
                                        n_variants=8))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    out = compare_replay(a, b, n_trials=40, seed=2)
    p = out["curated"]["fresh_success_rate"]
    q = out["baseline"]["fresh_success_rate"]
    assert 0.0 < p < 1.0 and 0.0 < q < 1.0
    assert out["gap_fresh"] == p - q
    half = 1.96 * np.sqrt((p * (1 - p) + q * (1 - q)) / 40)
    lo, hi = out["gap_fresh_ci95"]
    assert np.isclose(lo, p - q - half) and np.isclose(hi, p - q + half)
    empty = compare_replay(a, b, n_trials=0)
    assert empty["gap_fresh"] == 0.0 and empty["gap_fresh_ci95"] == (-1.0, 1.0)


def test_evaluate_respects_env_overrides_in_manifest(tmp_path):
    cfg = fast_cfg(tmp_path / "ds")
    cfg.env_overrides = {"horizon": 20}
    run_pgdg(cfg)
    # replays must run under the stored horizon, not the default
    report = evaluate_replay(str(tmp_path / "ds"), n_trials=4, seed=0)
    assert report["stored_success_rate"] == 1.0


# ---------------------------------------------------------------------------
# report files


def test_report_files_have_no_timing(tmp_path):
    cfg = fast_cfg(tmp_path / "ds")
    run_pgdg(cfg)
    for name in ("report.txt", "report.jsonl"):
        text = (tmp_path / "ds" / name).read_text()
        assert "time" not in text.lower()


def test_sigma_concentrates_on_average(tmp_path):
    # soft property: the proposal spread tends to shrink across iterations
    cfg = fast_cfg(tmp_path / "ds", iterations=3)
    report = run_pgdg(cfg)
    for v in report.variants:
        if v.skipped or len(v.stats) < 2:
            continue
        sigmas = [s.sigma_mean for s in v.stats]
        assert sigmas[-1] <= sigmas[0] * 1.5  # logged, loosely bounded
