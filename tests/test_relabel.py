"""Risky-state selection and cross-entropy relabeling."""
import numpy as np
import pytest

from recovergen import envs, pipeline, relabel
from recovergen.config import PipelineConfig, RelabelConfig
from recovergen.curator import TubeBounds, state_distances
from recovergen.dataset_io import deserialize
from recovergen.envs import (PlanarBlockRotate, PointReach,
                             augmented_demo_actions, lockstep, rollout,
                             rollout_with_resume, trajectory_table)
from recovergen.geometry import Pose
from recovergen.relabel import (RelabelPoint, _score, cem_optimize, relabel_cost,
                                relabel_dataset, select_risky_states)

IDENT = lambda s: np.asarray(s, dtype=float)  # noqa: E731


def risks(curated, expert_states, psi=IDENT, scales=(1.0,)):
    """Each trajectory's distances to its own expert, as the pipeline
    keeps them for relabeling."""
    return [state_distances(traj.states, expert, psi, scales)
            for traj, expert in zip(curated, expert_states)]


def line_traj(values, success=True):
    states = np.asarray(values, dtype=float)[None, :, None]
    return trajectory_table(states, np.zeros((1, states.shape[1] - 1, 1)), success,
                            1.0).view(np.recarray)[0]


# ---------------------------------------------------------------------------
# risky-state selection


def test_select_empty_when_k_zero():
    traj = line_traj(np.linspace(0, 1, 21))
    experts = np.array([[0.0]])
    assert select_risky_states(risks([traj], [experts]), 0, 5, 5) == []


def test_select_picks_global_maxima_in_risk_order():
    experts = np.array([[0.0]])
    a = line_traj([0.0] * 15 + [0.9] + [0.0] * 10)   # spike risk 0.9 at t=15
    b = line_traj([0.0] * 5 + [0.5] + [0.0] * 20)    # spike risk 0.5 at t=5
    pts = select_risky_states(risks([a, b], [experts] * 2), 2, 5, 5)
    assert (pts[0].trajectory_id, pts[0].t) == (0, 15)
    assert (pts[1].trajectory_id, pts[1].t) == (1, 5)
    assert pts[0].risk >= pts[1].risk


def test_select_min_separation_suppresses_nearby_spike():
    experts = np.array([[0.0]])
    vals = [0.0] * 26
    vals[10], vals[13] = 0.9, 0.8  # spikes 3 steps apart
    traj = line_traj(vals)
    pts = select_risky_states(risks([traj], [experts]), 2, 5, 5)
    same = [p for p in pts if p.trajectory_id == 0]
    ts = [p.t for p in same]
    assert 10 in ts and 13 not in ts
    for i, t1 in enumerate(ts):
        for t2 in ts[i + 1:]:
            assert abs(t1 - t2) >= 5


def test_select_clips_timestep_for_full_chunk():
    experts = np.array([[0.0]])
    vals = [0.0] * 25 + [1.0]  # riskiest state is the terminal one
    traj = line_traj(vals)
    pts = select_risky_states(risks([traj], [experts]), 1, 5, horizon_h=10)
    assert pts[0].t == len(traj.actions) - 10


def test_select_returns_fewer_when_not_enough_points():
    experts = np.array([[0.0]])
    traj = line_traj(np.linspace(0, 1, 12))
    pts = select_risky_states(risks([traj], [experts]), 50, 6, 4)
    assert 0 < len(pts) < 50
    ts = sorted(p.t for p in pts)
    assert all(b - a >= 6 for a, b in zip(ts, ts[1:]))


def test_select_measures_each_trajectory_against_its_own_expert():
    traj = line_traj([0.0] * 26)
    near, far = np.array([[0.1]]), np.array([[0.7]])
    pts = select_risky_states(risks([traj, traj], [near, far]), 2, 30, 5)
    assert [p.trajectory_id for p in pts] == [1, 0]
    assert np.isclose(pts[0].risk, 0.7) and np.isclose(pts[1].risk, 0.1)


def _tuple_sort_select(curated, expert_states, psi, scales, k_rel, min_sep, horizon_h):
    """Reference selection: one (risk, trajectory, t) tuple per state,
    sorted by descending risk, then trajectory, then timestep."""
    candidates = []
    for i, traj in enumerate(curated):
        t_hi = len(traj.actions) - horizon_h
        if t_hi < 0:
            continue
        d = state_distances(traj.states, expert_states[i], psi, scales)
        for t in range(len(d)):
            candidates.append((float(d[t]), i, min(t, t_hi)))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    chosen, taken = [], {}
    for risk, i, t in candidates:
        if len(chosen) == k_rel:
            break
        slots = taken.setdefault(i, [])
        if any(abs(t - s) < min_sep for s in slots):
            continue
        slots.append(t)
        chosen.append(RelabelPoint(trajectory_id=i, t=t, risk=risk))
    return chosen


@pytest.mark.parametrize("seed", range(5))
def test_select_order_equals_tuple_sort(seed):
    rng = np.random.default_rng(seed)
    # four levels against shared experts: risks tie within and across
    # trajectories; each call draws one length for all its trajectories,
    # so short ones clip many timesteps to t_hi, and those under horizon_h
    # steps give no point
    experts = [np.array([[0.0]]), np.array([[0.25], [0.75]])]
    for k_rel in (1, 4, 25, 1000):
        for min_sep in (1, 3):
            length = int(rng.integers(4, 30))
            shapes = [line_traj(rng.choice([0.0, 0.25, 0.5, 1.0], length)) for _ in range(5)]
            curated = [shapes[j] for j in rng.integers(0, len(shapes), 12)]
            expert_states = [experts[j] for j in rng.integers(0, len(experts), 12)]
            got = select_risky_states(risks(curated, expert_states), k_rel, min_sep, 6)
            assert got == _tuple_sort_select(curated, expert_states, IDENT, [1.0], k_rel,
                                             min_sep, 6)
            assert all(type(p.trajectory_id) is int and type(p.t) is int
                       and type(p.risk) is float for p in got)
    short = [line_traj([0.0, 1.0, 0.5])] * 2
    assert select_risky_states(risks(short, [experts[0]] * 2), 3, 1, 6) == []
    # the distances are one (n, T+1) array: ragged or 1-D ones are refused
    ragged = [line_traj([0.0] * 8), line_traj([0.0] * 9)]
    with pytest.raises(ValueError, match="shape"):
        select_risky_states(risks(ragged, [experts[0]] * 2), 3, 1, 6)
    with pytest.raises(ValueError, match=r"shape \(9,\)"):
        select_risky_states(risks(ragged, [experts[0]] * 2)[1], 3, 1, 6)


def test_select_rejects_bad_args():
    with pytest.raises(ValueError):
        select_risky_states([], -1, 5, 5)
    with pytest.raises(ValueError):
        select_risky_states([], 3, 0, 5)


# ---------------------------------------------------------------------------
# relabel cost


def _block_fixture():
    env = PlanarBlockRotate()
    pose = Pose()
    friction = env.nominal_friction()
    actions = augmented_demo_actions(env, pose, l_blend=10)
    traj = rollout(env, env.reset(pose), actions, friction)
    assert traj.success
    expert = traj.states
    return env, traj, expert


def test_cost_zero_for_reference_on_successful_in_tube_trajectory():
    env, traj, expert = _block_fixture()
    cfg = RelabelConfig(horizon=15)
    tube = TubeBounds(0.0, 100.0)  # everything inside
    u = traj.actions[20:35]
    assert relabel_cost(u, traj, 20, tube, env, cfg, expert) == 0.0


def test_cost_reference_term_isolated():
    env, traj, expert = _block_fixture()
    cfg = RelabelConfig(horizon=15, w_fail=0.0, w_tube=0.0, w_ref=2.0)
    tube = TubeBounds(0.0, 100.0)
    u = traj.actions[20:35] + 0.001
    expected = 2.0 * 15 * 4 * 0.001 ** 2
    assert np.isclose(relabel_cost(u, traj, 20, tube, env, cfg, expert),
                      expected, atol=1e-12)


def test_cost_failure_indicator_term():
    env, traj, expert = _block_fixture()
    tube = TubeBounds(0.0, 100.0)
    cfg = RelabelConfig(horizon=15, w_fail=1e3, w_tube=0.0, w_ref=0.0)
    # pull the effectors apart: contact lost, continuation fails
    u = np.tile([-0.03, -0.03, 0.03, 0.03], (15, 1))
    cont = rollout_with_resume(env, traj.states[20], u, traj.actions[35:],
                               traj.friction_scale)
    assert not cont.success
    assert relabel_cost(u, traj, 20, tube, env, cfg, expert) == 1e3


def test_cost_tube_term_quadratic_hinge():
    env, traj, expert = _block_fixture()
    cfg = RelabelConfig(horizon=15, w_fail=0.0, w_tube=10.0, w_ref=0.0)
    tight = TubeBounds(0.0, 0.0)  # any deviation is a violation
    u = traj.actions[20:35]
    cont = rollout_with_resume(env, traj.states[20], u, traj.actions[35:],
                               traj.friction_scale)
    from recovergen.curator import state_distances
    d = state_distances(cont.states[1:16], expert, env.psi, env.psi_scales)
    expected = 10.0 * float(np.sum(np.maximum(d - 0.0, 0.0) ** 2))
    assert np.isclose(relabel_cost(u, traj, 20, tight, env, cfg, expert),
                      expected, atol=1e-10)


# ---------------------------------------------------------------------------
# CEM optimization


def _reach_fixture():
    env = PointReach()
    pose = env.demo_object_pose()
    friction = env.nominal_friction()
    actions = augmented_demo_actions(env, pose, l_blend=1)
    traj = rollout(env, env.reset(pose), actions, friction)
    assert traj.success
    return env, traj, traj.states


def test_cem_quadratic_only_converges_to_reference():
    env, traj, expert = _reach_fixture()
    cfg = RelabelConfig(population=64, elite_frac=0.125, cem_iterations=30,
                        init_std=0.01, w_fail=0.0, w_tube=0.0, w_ref=1.0,
                        horizon=15)
    point = RelabelPoint(trajectory_id=0, t=5, risk=0.0)
    out = cem_optimize(point, traj, env, TubeBounds(0.0, 100.0), cfg,
                       np.random.default_rng(0), expert)
    assert out is not None
    chunk, _ = out
    assert np.all(np.abs(chunk - traj.actions[5:20]) < 1e-2)


def test_cem_best_ever_never_regresses():
    env, traj, expert = _reach_fixture()
    cfg = RelabelConfig(population=16, cem_iterations=5, init_std=0.02, horizon=10)
    point = RelabelPoint(trajectory_id=0, t=0, risk=0.0)
    tube = TubeBounds(0.0, 100.0)
    out = cem_optimize(point, traj, env, tube, cfg,
                       np.random.default_rng(1), expert)
    ref_cost = relabel_cost(traj.actions[0:10], traj, 0, tube, env, cfg, expert)
    assert out is not None
    chunk, cost = out
    assert chunk.shape == (10, env.action_dim)
    assert cost <= ref_cost + 1e-12


def test_cem_deterministic_given_seed():
    env, traj, expert = _reach_fixture()
    cfg = RelabelConfig(population=16, cem_iterations=3, init_std=0.02, horizon=10)
    point = RelabelPoint(trajectory_id=0, t=2, risk=0.0)
    a = cem_optimize(point, traj, env, TubeBounds(0.0, 100.0), cfg,
                     np.random.default_rng(7), expert)
    b = cem_optimize(point, traj, env, TubeBounds(0.0, 100.0), cfg,
                     np.random.default_rng(7), expert)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_cem_rejects_point_without_room():
    env, traj, expert = _reach_fixture()
    cfg = RelabelConfig(horizon=15)
    with pytest.raises(ValueError):
        cem_optimize(RelabelPoint(0, len(traj.actions) - 5, 0.0), traj, env,
                     TubeBounds(0.0, 100.0), cfg, np.random.default_rng(0),
                     expert)


def test_cem_unreachable_goal_emits_nothing():
    env = PointReach()
    friction = env.nominal_friction()
    # goal far beyond what the remaining steps can cover: every candidate fails
    s0 = np.array([0.0, 0.0, 50.0, 50.0])
    traj = rollout(env, s0, np.zeros((env.horizon, 2)), friction)
    assert not traj.success
    cfg = RelabelConfig(population=8, cem_iterations=2, init_std=0.01, horizon=10)
    out = cem_optimize(RelabelPoint(0, 0, 0.0), traj, env,
                       TubeBounds(0.0, 100.0), cfg, np.random.default_rng(0),
                       traj.states)
    assert out is None


@pytest.mark.parametrize("population, elite_frac, n_elites", [(64, 0.125, 8), (4, 0.1, 1)])
def test_cem_mean_moves_to_the_elite_mean(monkeypatch, population, elite_frac, n_elites):
    # the next mean, kept as the next population's first row, is the mean of
    # the round(population x elite_frac) cheapest candidates, and of at least one
    env, traj, expert = _reach_fixture()
    calls = []

    def recorded(env, cfg, point, u):
        costs, success = yield from _score(env, cfg, point, u)
        calls.append((u, costs))
        return costs, success

    monkeypatch.setattr(relabel, "_score", recorded)
    cfg = RelabelConfig(population=population, elite_frac=elite_frac, cem_iterations=2,
                        init_std=0.01, horizon=10)
    cem_optimize(RelabelPoint(0, 2, 0.0), traj, env, TubeBounds(0.0, 100.0), cfg,
                 np.random.default_rng(0), expert)
    (_, _), (pop, costs), (next_pop, _) = calls
    elites = pop[np.argsort(costs, kind="stable")[:n_elites]]
    assert np.array_equal(next_pop[0], elites.mean(axis=0))


@pytest.mark.parametrize("drop_until, iterations", [(0, relabel.W), (8, 8 + relabel.W)])
def test_converged_point_stops_after_w_flat_iterations(monkeypatch, drop_until, iterations):
    # every candidate succeeds and costs 1 - 0.1 min(k, drop_until) at call
    # k (call 0 scores the starting mean): the best cost falls by 0.1 per
    # iteration until ``drop_until``, and the point stops W iterations later
    env, traj, expert = _reach_fixture()
    calls = []

    def flat(env, cfg, point, u):
        yield from _score(env, cfg, point, u)
        cost = 1.0 - 0.1 * min(len(calls), drop_until)
        calls.append(u)
        return np.full(len(u), cost), np.ones(len(u), dtype=bool)

    monkeypatch.setattr(relabel, "_score", flat)
    cfg = RelabelConfig(population=8, cem_iterations=30, init_std=0.01, horizon=10)
    out = cem_optimize(RelabelPoint(0, 2, 0.0), traj, env, TubeBounds(0.0, 100.0), cfg,
                       np.random.default_rng(0), expert)
    assert len(calls) == 1 + iterations
    assert out is not None and out[1] == 1.0 - 0.1 * drop_until


def test_point_whose_candidates_all_fail_runs_every_iteration(monkeypatch):
    # its best cost is flat from the start, but no candidate succeeds
    env = PointReach()
    s0 = np.array([0.0, 0.0, 50.0, 50.0])
    traj = rollout(env, s0, np.zeros((env.horizon, 2)), env.nominal_friction())
    calls = []

    def recorded(env, cfg, point, u):
        costs, success = yield from _score(env, cfg, point, u)
        calls.append(success)
        return costs, success

    monkeypatch.setattr(relabel, "_score", recorded)
    cfg = RelabelConfig(population=8, cem_iterations=12, init_std=0.01, horizon=10)
    out = cem_optimize(RelabelPoint(0, 0, 0.0), traj, env, TubeBounds(0.0, 100.0), cfg,
                       np.random.default_rng(0), traj.states)
    assert out is None
    assert len(calls) == 1 + cfg.cem_iterations
    assert not any(ok.any() for ok in calls)


def test_stopped_points_leave_the_batch_and_the_rest_run_as_alone(monkeypatch):
    # over 30 iterations the points stop at different iterations; the
    # batches shrink as they do, and every point's target is the one it
    # reaches when optimized on its own
    env, traj, expert = _block_fixture()
    expert = expert + [0.02, 0, 0, 0, 0, 0, 0]   # the reference leaves the tube
    cfg = RelabelConfig(k_rel=3, population=12, cem_iterations=30, init_std=0.005,
                        horizon=15)
    tube = TubeBounds(0.0, 0.05)
    dists = risks([traj], [expert], env.psi, env.psi_scales)
    rows = []

    def counted(env, s0s, *args, _rollout_batch=envs.rollout_batch):
        rows.append(len(s0s))
        return _rollout_batch(env, s0s, *args)

    monkeypatch.setattr(envs, "rollout_batch", counted)
    targets = relabel_dataset(np.array([traj]), env, [tube], cfg, np.random.default_rng(3),
                              [expert], dists)
    batched = rows[:]
    points = select_risky_states(dists, 3, cfg.horizon, cfg.horizon)
    alone, iterations = [], []
    for point, rng in zip(points, np.random.default_rng(3).spawn(len(points))):
        rows.clear()
        alone.append(cem_optimize(point, traj, env, tube, cfg, rng, expert))
        iterations.append(len(rows) - 1)
    assert len(set(iterations)) > 1 and max(iterations) < cfg.cem_iterations
    # round 0 scores each point's reference chunk; round k carries the
    # populations of the points still live after iteration k - 1
    assert batched == [len(points)] + [cfg.population * sum(k <= n for n in iterations)
                                       for k in range(1, max(iterations) + 1)]
    assert_rows_are_the_points_alone(targets, points, alone, traj, env, tube, cfg, expert)


def assert_rows_are_the_points_alone(table, points, alone, traj, env, tube, cfg, expert):
    """The rows of ``relabel_dataset``'s table are the points whose
    ``cem_optimize`` alone emitted a chunk, in order: the same point, the
    same chunk, and that chunk's cost is the cost CEM reported alone."""
    kept = [(p, a) for p, a in zip(points, alone) if a is not None]
    assert len(table) == len(kept) > 1
    for (point, (chunk, cost)), row in zip(kept, table):
        assert (point.trajectory_id, point.t) == (row["traj"], row["t"])
        assert np.array_equal(chunk, row["chunk"])
        assert relabel_cost(row["chunk"], traj, row["t"], tube, env, cfg, expert) == cost
        assert np.array_equal(row["obs"], env.observe(traj.states[point.t], traj.states[0]))


@pytest.fixture(scope="module")
def seed_7_relabeling(tmp_path_factory):
    """The default run at seed 7, adaptive and with the stopping rule off
    (TOL -inf): each one's rows passed to ``rollout_batch`` by relabeling,
    its emitted records table, the ``relabel_cost`` of each emitted chunk
    and its output directory."""
    runs = {}
    for name, tol in (("adaptive", relabel.TOL), ("fixed", -np.inf)):
        rows, calls = [], []

        def counted(env, s0s, *args, _rollout_batch=envs.rollout_batch, _rows=rows):
            _rows.append(len(s0s))
            return _rollout_batch(env, s0s, *args)

        def recorded(*args, _relabel_dataset=pipeline.relabel_dataset, _calls=calls):
            # only relabeling's rollouts are counted
            with pytest.MonkeyPatch.context() as inner:
                inner.setattr(envs, "rollout_batch", counted)
                _calls.append((args, _relabel_dataset(*args)))
            return _calls[-1][1]

        out = str(tmp_path_factory.mktemp(name))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relabel, "TOL", tol)
            mp.setattr(pipeline, "relabel_dataset", recorded)
            pipeline.run_pgdg(PipelineConfig(out_dir=out, seed=7, jobs=1))
        [((curated, env, tubes, cfg, _, experts, _), table)] = calls
        costs = [relabel_cost(r["chunk"], curated[r["traj"]], r["t"], tubes[r["traj"]], env,
                              cfg, experts[r["traj"]]) for r in table]
        runs[name] = (sum(rows), table, costs, out)
    return runs


def test_seed_7_relabeling_spends_at_most_a_third_of_the_fixed_budget(seed_7_relabeling):
    # run to all 30 iterations, 10 points take 1 + 30 x 64 rows each; with
    # the one-row re-validation of each best candidate, 19,220 rows were run
    rows, table, _, _ = seed_7_relabeling["adaptive"]
    assert seed_7_relabeling["fixed"][0] == 10 * (1 + 30 * 64)
    assert len(table) == 10 and rows <= 19_220 / 3


def test_stopping_keeps_every_point_and_its_cost_within_0_05(seed_7_relabeling):
    _, adaptive, adaptive_costs, _ = seed_7_relabeling["adaptive"]
    _, fixed, fixed_costs, _ = seed_7_relabeling["fixed"]
    assert len(adaptive) == len(fixed) == len(adaptive_costs) == len(fixed_costs)
    assert adaptive[["traj", "t"]].tolist() == fixed[["traj", "t"]].tolist()
    assert all(a <= f + 0.05 for a, f in zip(adaptive_costs, fixed_costs))


def test_the_returned_table_is_the_stored_records(seed_7_relabeling):
    # serialize writes relabel_dataset's table as it is
    _, table, _, out = seed_7_relabeling["adaptive"]
    stored = deserialize(out)[0].relabeled
    assert len(table) == 10
    assert table.dtype == stored.dtype and table.tobytes() == stored.tobytes()


def test_no_relabeled_pair_keeps_the_empty_header(tmp_path, monkeypatch, caplog):
    # records.npy of no rows has obs (0,) and chunk (0, 0) whether no point
    # is selected (k_rel 0) or every point is dropped, as in the baseline
    def failing(env, cfg, point, u):
        costs, success = yield from _score(env, cfg, point, u)
        return costs, np.zeros_like(success)

    small = dict(seed=7, jobs=1, iterations=1, samples=32)
    pipeline.run_pgdg(PipelineConfig(out_dir=str(tmp_path / "k0"),
                                     relabel=RelabelConfig(k_rel=0), **small))
    pipeline.run_spatial_only(PipelineConfig(out_dir=str(tmp_path / "baseline"), **small))
    monkeypatch.setattr(relabel, "_score", failing)
    with caplog.at_level("INFO", logger="recovergen.relabel"):
        pipeline.run_pgdg(PipelineConfig(out_dir=str(tmp_path / "dropped"), **small))
    assert sum("found no successful correction" in r.message for r in caplog.records) == 10
    empty = np.dtype([("traj", "<i8"), ("t", "<i8"), ("obs", "<f8", (0,)),
                      ("chunk", "<f8", (0, 0))])
    files = [(tmp_path / name / "records.npy").read_bytes()
             for name in ("k0", "dropped", "baseline")]
    assert np.load(tmp_path / "dropped" / "records.npy").dtype == empty
    assert files[0] == files[1] == files[2]
    assert deserialize(str(tmp_path / "dropped"))[1].n_relabeled == 0


def test_zero_init_std_and_min_sep_take_their_auto_values():
    # init_std 0 is 0.25 x the action range (2 a_max); min_sep 0 is the horizon
    env, traj, expert = _block_fixture()
    expert = expert + [0.02, 0, 0, 0, 0, 0, 0]   # the reference leaves the tube
    dists = risks([traj], [expert], env.psi, env.psi_scales)

    def targets(**kw):
        cfg = RelabelConfig(k_rel=3, population=16, cem_iterations=3, horizon=15, **kw)
        tube = TubeBounds(0.0, 0.05)
        return [((r["traj"], r["t"]), r["chunk"].tobytes(),
                 relabel_cost(r["chunk"], traj, r["t"], tube, env, cfg, expert))
                for r in relabel_dataset(np.array([traj]), env, [tube], cfg,
                                         np.random.default_rng(3), [expert], dists)]

    auto = targets()
    assert len(auto) > 1 and all(cost > 0 for _, _, cost in auto)
    assert auto == targets(init_std=0.25 * (2.0 * env.a_max)) == targets(min_sep=15)
    # both settings matter, so the equalities above pin their values
    assert auto != targets(init_std=0.0075)
    assert [p for p, _, _ in auto] != [p for p, _, _ in targets(min_sep=1)]


@pytest.mark.parametrize("horizon", [1, 15])
def test_population_costs_equal_one_candidate_costs(horizon):
    # the batched cost of a whole population, rows of several lengths and
    # points, equals relabel_cost taken one candidate at a time, bitwise
    env, traj, expert = _block_fixture()
    cfg = RelabelConfig(horizon=horizon)
    tube = TubeBounds(0.0, 0.05)
    rng = np.random.default_rng(4)
    points = [(traj, t, tube, expert) for t in (3, 20, len(traj.actions) - horizon)]
    chunks = [traj.actions[t:t + horizon].reshape(-1)
              + 0.01 * rng.standard_normal((9, horizon * env.action_dim))
              for _, t, _, _ in points]
    batched = lockstep(env, [_score(env, cfg, p, u) for p, u in zip(points, chunks)])
    for (_, t, _, _), pop, (costs, ok) in zip(points, chunks, batched):
        one_by_one = [relabel_cost(u, traj, t, tube, env, cfg, expert) for u in pop]
        assert costs.tolist() == one_by_one
        # each flag is the candidate's own continuation, rolled out alone
        alone = [rollout_with_resume(env, traj.states[t], u, traj.actions[t + horizon:],
                                     traj.friction_scale).success for u in pop]
        assert ok.tolist() == alone
    assert any(c > 0 for costs, _ in batched for c in costs)


def test_relabel_dataset_equals_points_optimized_one_at_a_time():
    env, traj, expert = _block_fixture()
    cfg = RelabelConfig(k_rel=3, population=12, cem_iterations=3, init_std=0.005,
                        horizon=15)
    tube = TubeBounds(0.0, 0.05)
    dists = risks([traj], [expert], env.psi, env.psi_scales)
    targets = relabel_dataset(np.array([traj]), env, [tube], cfg, np.random.default_rng(3),
                              [expert], dists)
    points = select_risky_states(dists, 3, cfg.horizon, cfg.horizon)
    alone = [cem_optimize(point, traj, env, tube, cfg, rng, expert)
             for point, rng in zip(points, np.random.default_rng(3).spawn(len(points)))]
    assert_rows_are_the_points_alone(targets, points, alone, traj, env, tube, cfg, expert)


# ---------------------------------------------------------------------------
# relabel_dataset


def test_relabel_dataset_targets_validate_and_separate():
    env, traj, expert = _block_fixture()
    cfg = RelabelConfig(k_rel=4, population=16, cem_iterations=3, init_std=0.005,
                        horizon=15)
    targets = relabel_dataset(np.array([traj]), env, [TubeBounds(0.0, 100.0)], cfg,
                              np.random.default_rng(3), [expert],
                              risks([traj], [expert], env.psi, env.psi_scales))
    assert 0 < len(targets) <= 4
    assert targets.dtype["chunk"].shape == (15, env.action_dim)
    seen = {}
    for row in targets:
        src = [traj][row["traj"]]
        cont = rollout_with_resume(env, src.states[row["t"]], row["chunk"],
                                   src.actions[row["t"] + 15:],
                                   src.friction_scale)
        assert cont.success
        seen.setdefault(row["traj"], []).append(row["t"])
    for ts in seen.values():
        ts = sorted(ts)
        assert all(b - a >= 15 for a, b in zip(ts, ts[1:]))


def test_relabel_dataset_rejects_empty_curated():
    env = PointReach()
    cfg = RelabelConfig()
    with pytest.raises(ValueError):
        relabel_dataset([], env, [], cfg, np.random.default_rng(0), [], [])


def test_relabel_dataset_needs_one_tube_and_expert_per_trajectory():
    env, traj, expert = _block_fixture()
    cfg = RelabelConfig(population=4, cem_iterations=1, horizon=15)
    tube = TubeBounds(0.0, 100.0)
    dists = risks([traj], [expert], env.psi, env.psi_scales)
    for tubes, experts, d in (([tube], [expert] * 2, dists * 2),
                              ([tube] * 2, [expert], dists * 2),
                              ([tube] * 2, [expert] * 2, dists)):
        with pytest.raises(ValueError, match="per trajectory"):
            relabel_dataset([traj, traj], env, tubes, cfg, np.random.default_rng(0),
                            experts, d)


def test_relabel_dataset_deterministic():
    env, traj, expert = _block_fixture()
    cfg = RelabelConfig(k_rel=3, population=8, cem_iterations=2, init_std=0.005,
                        horizon=15)
    runs = []
    for _ in range(2):
        tgts = relabel_dataset(np.array([traj]), env, [TubeBounds(0.0, 100.0)], cfg,
                               np.random.default_rng(5), [expert],
                               risks([traj], [expert], env.psi, env.psi_scales))
        runs.append(tgts)
    assert len(runs[0]) == len(runs[1])
    for a, b in zip(*runs):
        assert np.array_equal(a["chunk"], b["chunk"])
        assert (a["traj"], a["t"]) == (b["traj"], b["t"])
