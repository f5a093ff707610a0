"""Acceptance suite: the twelve release criteria, each at its stated
tolerance.  Every test prints a one-line PASS marker so the suite doubles
as a human-readable checklist (`pytest -s tests/test_acceptance.py`)."""
import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from recovergen.config import PipelineConfig, RelabelConfig
from recovergen.curator import (TubeBounds, build_kernel, compute_tube,
                                dct2_matrix, dct_embed, dpp_select_greedy,
                                quantile, state_distances, tube_reward,
                                update_proposal)
from recovergen.envs import (PlanarBlockRotate, PointReach,
                             augmented_demo_actions, make_env, rollout,
                             rollout_with_resume)
from recovergen.dataset_io import deserialize, read_manifest, stored_table
from recovergen.pipeline import (compare_replay, run_pgdg, run_spatial_only)
from recovergen.relabel import RelabelPoint, cem_optimize, relabel_dataset
from recovergen.sampler import Proposal
from test_curator import dpp_log_det

IDENT = lambda s: np.asarray(s, dtype=float)  # noqa: E731
SEED = 7


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """One full closed-loop run on PlanarBlockRotate (K = 5, N = 64,
    4 variants), timed, shared across criteria 1 and 11."""
    out = tmp_path_factory.mktemp("gen")
    cfg = PipelineConfig(out_dir=str(out), seed=SEED, jobs=1)
    t0 = time.perf_counter()
    report = run_pgdg(cfg)
    elapsed = time.perf_counter() - t0
    pairs, _ = deserialize(cfg.out_dir)
    return cfg, pairs, report, elapsed


def _report(name, detail=""):
    print(f"ACCEPTANCE PASS: {name}" + (f" ({detail})" if detail else ""))


# sha256 of every output file of the seed-7 default run (the ``generated``
# fixture, equal to ``recovergen generate --seed 7 --jobs 1``)
GOLDEN_DIGESTS = {
    "manifest": "19dd5c440be4ccba3290eb464a2e34ded872cd3c4c02589c9e674030b5a73763",
    "records.npy": "bcfcba924b43d37b9a7dc24fd040645fa5a65f8f535273a588663d1e338feb07",
    "report.jsonl": "500d7c12a77a54cbbc86e647d4623156891c2d4eb6b888243b19f127f95d8f56",
    "report.txt": "7b22373813e7d8b110ab61897b0ce07b4351f68f8d0a5ac63a4d003e9f6eac1e",
    "trajectories.npy": "38dbde621cecc700cf30cf7b6f5152fc790a4430a94e11fb19ea6e71da1f8991",
}
# the same run's manifest counts
GOLDEN_COUNTS = {"generated": 1088, "successful": 174, "selected": 146, "relabeled": 10,
                 "records": 4536}


def test_golden_digest_of_default_run(generated):
    """The default run's output bytes are pinned: a change that is meant
    to keep behaviour (a refactor, a faster kernel) must keep them.

    The digests were recorded with numpy 2.4.6 on an x86-64 Linux Xeon
    with AVX-512: numpy dispatches its elementwise loops to X86_V4, and
    OpenBLAS 0.3.31 picks its SkylakeX core.  They pin the last bits of
    that build's cos, sin, arctan2 and hypot and of its matrix products,
    so they depend on the CPU as well as on the libraries.  On the
    recording host, ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
    AVX512_SPR"`` or ``OPENBLAS_CORETYPE=Haswell`` each changes every
    digest but ``report.txt``.  Python's ``math`` would not make them
    portable either: np.arctan2 differs from libm's atan2 in 7.3% of
    random pairs under X86_V4 and equals it without.  So on another
    machine this test can fail while the program is correct; CI prints
    numpy's runtime dispatch and the CPU model before the tests, and the
    digests are re-recorded there from a known-good commit.  An
    intentional change to the output bytes re-records them and says so in
    CHANGES.md.

    The manifest's counts and ``report.txt``, which prints them with
    4-digit tubes and sigmas, were the same under every dispatch and core
    tried on the recording host, so they are checked first: a failure
    there is a change of behaviour, and a failure of only the full
    comparison is one of last bits."""
    cfg, _, _, _ = generated
    manifest = read_manifest(cfg.out_dir)
    assert {name: getattr(manifest, f"n_{name}") for name in GOLDEN_COUNTS} == GOLDEN_COUNTS
    got = {}
    for name in GOLDEN_DIGESTS:
        with open(f"{cfg.out_dir}/{name}", "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got["report.txt"] == GOLDEN_DIGESTS["report.txt"]
    assert got == GOLDEN_DIGESTS
    _report("golden digest", "5 output files byte-identical")


# sha256 of every output file of ``recovergen baseline --seed 7``
BASELINE_DIGESTS = {
    "manifest": "fb928272245646a47a326909679fca2e9160bee4f8e6e7b20ad841fcfe5da863",
    "records.npy": "7923825b0504c9d022f593c5e23f597027c451dd44b58894750807bebc1597df",
    "report.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report.txt": "8dad72ffab282396621954eaf9f583808044cc7b67f9a6d6f33c7fd6592d9532",
    "trajectories.npy": "b6d7d46c67e40cd423b61dfe2f0f5d7684b3714f05676f73c51501ead7a202d4",
}


def test_baseline_digest_of_seed_7(tmp_path, capsys):
    """The spatial-only baseline's output bytes are pinned as the default
    run's are, under the same platform caveat."""
    from recovergen.cli import main
    assert main(["baseline", "--seed", "7", "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in BASELINE_DIGESTS}
    assert got == BASELINE_DIGESTS
    _report("baseline digest", "5 output files byte-identical")


# sha256 of the same run's ``records`` in dataset format 1, which stored
# every curated window as well as the relabeled records; since the planar
# (x, y, yaw) geometry it is the json.dumps oracle encoding of this run,
# not a file that format-1 code wrote
FORMAT_1_RECORDS_DIGEST = "62f85508a690fef666dd09f7757e07d855094e500eac4d671f8a1582fe96d0a5"


def test_rebuilt_records_encode_to_the_format_1_file(generated):
    """Format 2 stores only the relabeled records and rebuilds the curated
    windows from ``trajectories``.  Encoded row by row with the
    ``json.dumps`` oracle, the curated then the relabeled rows of the
    ``Pairs`` that ``deserialize`` returns give the format-1 file byte for
    byte, so rebuilding loses nothing."""
    from recovergen.dataset_io import deserialize
    from test_dataset import oracle_text
    cfg, pairs, _, _ = generated
    rebuilt, manifest = deserialize(cfg.out_dir)
    assert len(rebuilt) == len(pairs) == manifest.n_records
    text = oracle_text(rebuilt)
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_1_RECORDS_DIGEST
    _report("format 2 lossless", f"{len(rebuilt)} rebuilt records encode to format 1")


# sha256 of the same run's ``trajectories`` and ``records`` in dataset
# format 2, which stored them as json.dumps lines; since the planar
# geometry, the oracle encoding of this run, as above, since format 4
# without the ``mass`` key of each trajectory line, and since format 5
# without its ``origin`` key.  Format 7 stores no states and no actions:
# they are the ones ``rebuild_trajectories`` rebuilds from the stored rows
FORMAT_2_DIGESTS = {
    "trajectories": "1ee790f92abff59a0901e533d18f296884bed1ae72517a65aab1fb2e80c74075",
    "records": "71359794f6832c52833a350c20dd0f258a1e15118cb63790d1f2a7879e5aee59",
}


def test_loaded_data_encodes_to_the_format_2_files(generated):
    """Formats 3 to 7 store raw float64.  Encoded line by line with the
    ``json.dumps`` oracle, the trajectories and relabeled records it loads,
    the actions decoded from the control points and the states rebuilt
    from the start states, give the format-2 files byte
    for byte (less the trajectories' ``mass``, which format 4 dropped, and
    ``origin``, which format 5 dropped), so the changes of format lose
    nothing else."""
    from test_dataset import oracle_rows_text, oracle_traj_text, read_back
    cfg, pairs, _, _ = generated
    assert len(pairs.relabeled) == 10
    text = {"trajectories": oracle_traj_text(read_back(cfg.out_dir)),
            "records": oracle_rows_text(pairs.relabeled, "relabeled")}
    assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in text.items()} \
        == FORMAT_2_DIGESTS
    _report("format 7 lossless", "trajectories and relabeled records encode to format 2")


def test_bench_inspect_dataset_passes_on_the_golden_run(generated):
    """The benchmark checks each output directory with
    ``bench/inspect_dataset.py``; it must keep reading the dataset."""
    import json
    import os
    import subprocess
    import sys

    import recovergen
    cfg, _, _, _ = generated
    src = os.path.dirname(os.path.dirname(recovergen.__file__))
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "inspect_dataset.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, script, cfg.out_dir], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    m = report["manifest"]
    assert report["stats_exit"] == 0 and report["all_success"]
    assert report["records_loaded"] == m["n_records"] > m["n_relabeled"] > 0
    assert report["trajectories_loaded"] == m["n_trajectories"] == m["n_selected"]
    st = report["stats"]
    assert (st["records_curated"] + st["records_relabeled"], st["records_relabeled"]) \
        == (m["n_records"], m["n_relabeled"])
    _report("bench inspect", f"{report['records_loaded']} records loaded")


# recovergen is numpy-only: no command may import scipy.  The fresh process
# makes every scipy import fail, and generate must still give the golden bytes.
# No command loads numpy.ma either (np.median imports it for its NaN check),
# which costs every process its import time and memory
NO_SCIPY_SCRIPT = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy import blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from recovergen.cli import main
dataset, base, out = sys.argv[1:]
steps = [("import", None),
         ("stats", ["stats", dataset, "--json"]),
         ("baseline", ["baseline", "--seed", "7", "--set", "n_variants=4", "--out", base]),
         ("evaluate", ["evaluate", dataset, "--compare", base, "--trials", "20"]),
         ("generate", ["generate", "--seed", "7", "--jobs", "1", "--out", out])]
for step, argv in steps:
    if argv is not None:
        assert main(argv) == 0, step
    assert "scipy" not in sys.modules, f"scipy imported by {step}"
    assert "numpy.ma" not in sys.modules, f"numpy.ma imported by {step}"
"""


def test_no_command_imports_scipy(generated, tmp_path):
    import os
    import subprocess
    import sys

    import recovergen
    cfg, _, _, _ = generated
    src = os.path.dirname(os.path.dirname(recovergen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "fresh"
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, cfg.out_dir,
                           str(tmp_path / "base"), str(out)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_DIGESTS}
    assert got == GOLDEN_DIGESTS
    _report("numpy-only", "no command imports scipy or numpy.ma; generate golden "
            "in a fresh process")


def test_src_imports_only_stdlib_numpy_and_the_package():
    # the static side of "numpy-only": every import statement of the
    # package, those inside functions included, names the standard library,
    # numpy or the package itself
    import ast
    import pathlib
    import sys

    import recovergen
    allowed = set(sys.stdlib_module_names) | {"numpy", "recovergen"}
    paths = sorted(pathlib.Path(recovergen.__file__).parent.glob("*.py"))
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["recovergen" if node.level else node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], []).append(f"{path.name}:{node.lineno}")
    assert len(paths) >= 10 and {"numpy", "recovergen", "json"} <= set(found)
    assert {top: where for top, where in found.items() if top not in allowed} == {}
    _report("numpy-only imports", f"{len(paths)} modules import only {sorted(found)}")


# ---------------------------------------------------------------------------


def test_criterion_01_success_purity_and_runtime(generated):
    cfg, _, report, elapsed = generated
    env = make_env(cfg.env)
    from recovergen.dataset_io import load_trajectories, rebuild_trajectories
    trajs = load_trajectories(cfg.out_dir)
    assert len(trajs) > 0
    for traj, plan in zip(trajs, rebuild_trajectories(trajs, env)[0]):
        assert rollout(env, traj.start, plan, traj.friction_scale)[1], \
            "curated trajectory failed re-validation"
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _report("1 success purity",
            f"{len(trajs)} curated trajectories re-validate, {elapsed:.1f}s")


def test_criterion_02_quantile_oracle():
    def oracle(values, q):
        v = np.sort(np.asarray(values, dtype=float))
        h = q * (len(v) - 1)
        lo = int(math.floor(h))
        if lo >= len(v) - 1:
            return float(v[-1])
        return float(v[lo] + (h - lo) * (v[lo + 1] - v[lo]))

    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        values = list(rng.uniform(-100.0, 100.0, n))
        q = float(rng.uniform(0.0, 1.0))
        assert abs(quantile(values, q) - oracle(values, q)) <= 1e-12
        assert quantile(values, 0.0) == min(values)
        assert quantile(values, 1.0) == max(values)
    _report("2 quantile oracle", "1000 cases within 1e-12, exact endpoints")


def test_criterion_03_tube_fallback():
    rng = np.random.default_rng(1)
    for _ in range(100):
        prev = TubeBounds(r_min=float(rng.uniform(0.0, 0.5)),
                          r_max=float(rng.uniform(0.5, 1.0)))
        peaks = list(rng.uniform(0.0, 2.0, int(rng.integers(0, 5))))
        tube = compute_tube(peaks, 0.2, 0.8, previous=prev)
        assert tube is prev
    _report("3 tube fallback", "100 starved batches reuse the previous tube")


def test_criterion_04_tube_reward_closed_forms():
    experts = np.array([[0.0]])

    def dists_at(d, n=6):
        return state_distances(np.full((n, 1), d), experts, IDENT, [1.0])

    tube = TubeBounds(0.1, 0.5)
    assert abs(tube_reward(dists_at(0.3), tube) - 1.0) <= 1e-12
    for g in (0.25, 0.7, 1.0):
        r = tube_reward(dists_at(0.5 + g), tube)
        assert abs(r - (1.0 - g)) <= 1e-12
    assert abs(tube_reward(dists_at(1.5), tube)) <= 1e-12
    _report("4 tube reward closed forms", "in-band R=1, violation g R=1-g")


def test_criterion_05_dct_identities():
    rng = np.random.default_rng(2)
    # constant sequences embed to zero
    for _ in range(10):
        c = rng.standard_normal(2)
        states = np.tile(c, (13, 1))
        actions = np.full((12, 1), float(rng.standard_normal()))
        (phi,) = dct_embed(states[None], actions[None], IDENT, [1.0, 1.0], t_tilde=12,
                           k_dct=6)
        assert np.max(np.abs(phi)) <= 1e-10
    # energy conservation with all coefficients retained
    for _ in range(100):
        t_tilde = int(rng.integers(4, 24))
        x = rng.standard_normal((t_tilde, 3))
        coeffs = dct2_matrix(t_tilde) @ x
        assert np.allclose(np.linalg.norm(coeffs, axis=0),
                           np.linalg.norm(x, axis=0), atol=1e-10)
    # single-frequency input -> single nonzero coefficient
    t_tilde = 20
    for k in (1, 2, 5):
        t = np.arange(t_tilde)
        sig = np.cos(np.pi * (2 * t + 1) * k / (2 * t_tilde))
        states = np.concatenate([sig, [0.0]])[:, None]
        actions = np.zeros((t_tilde, 1))
        (phi,) = dct_embed(states[None], actions[None], IDENT, [1.0], t_tilde=t_tilde,
                           k_dct=8)
        col = phi[:8]
        mask = np.ones(8, dtype=bool)
        mask[k - 1] = False
        assert abs(col[k - 1]) > 0.1
        assert np.max(np.abs(col[mask])) <= 1e-8
    _report("5 DCT identities", "DC-only, energy, single-frequency")


def test_criterion_06_dpp_greedy_matches_exhaustive():
    eps = 1e-6
    rng = np.random.default_rng(3)
    # 50 random diagonal PSD kernels: the log-det objective is separable,
    # so the exhaustive optimum is unique and greedy provably attains it
    for _ in range(50):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, 4))
        diag = rng.uniform(0.05, 3.0, n)
        kernel = np.diag(diag)
        sel = dpp_select_greedy(kernel, m, eps)
        best = max(itertools.combinations(range(n), m),
                   key=lambda s: dpp_log_det(kernel, s, eps))
        assert sorted(sel) == sorted(best)
    # duplicate fixture: the twin is never taken while any sufficiently
    # dissimilar item remains
    base = [np.array([0.0, 0.0]), np.array([0.0, 0.0]),
            np.array([5.0, 0.0]), np.array([0.0, 5.0]), np.array([5.0, 5.0])]
    kernel = build_kernel(base, 1.0)
    sel = dpp_select_greedy(kernel, 4, eps)
    # items 2..4 all have similarity < 0.99 to the duplicates, so with one
    # slot left over after them the twin (index 1) must never be chosen
    assert all(kernel[1, i] < 0.99 for i in (2, 3, 4))
    assert 0 in sel and 1 not in sel
    assert set(sel) == {0, 2, 3, 4}
    _report("6 DPP correctness", "50 exhaustive matches, duplicate deferred")


def test_criterion_07_moment_matching_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(2, 10))
        c = rng.standard_normal((n, dim))
        q = Proposal(mean=np.zeros(dim), std=np.ones(dim),
                     m_points=dim, action_dim=1)
        q2 = update_proposal(q, list(c), np.ones(n), eps_stab=0.0, delta=0.0)
        assert np.allclose(q2.mean, c.mean(axis=0), atol=1e-10)
        assert np.allclose(q2.std ** 2, c.var(axis=0), atol=1e-10)
    # hand-evaluated 1-D fixture with the default stability terms
    q = Proposal(mean=np.zeros(1), std=np.ones(1), m_points=1, action_dim=1)
    q2 = update_proposal(q, [np.array([1.0])], [1.0],
                         eps_stab=1e-3, delta=1e-3)
    mu = 1.0 / 1.001
    var = (1.0 - mu) ** 2 / 1.001 + 1e-3
    assert q2.mean[0] == mu
    assert q2.std[0] == math.sqrt(var)
    # sigma floor holds after arbitrary updates
    for _ in range(50):
        n = int(rng.integers(1, 8))
        c = rng.standard_normal((n, 3)) * rng.uniform(0.0, 1e-4)
        q3 = update_proposal(Proposal(mean=np.zeros(3), std=np.ones(3),
                                      m_points=3, action_dim=1),
                             list(c), rng.uniform(0.0, 1.0, n),
                             eps_stab=1e-3, delta=1e-3)
        assert np.all(q3.std >= math.sqrt(1e-3) - 1e-15)
    _report("7 moment matching", "100 batches, exact 1-D fixture, sigma floor")


def test_criterion_08_cem_quadratic_convergence():
    env = PointReach()
    pose = env.demo_object_pose()
    friction = env.nominal_friction()
    actions = augmented_demo_actions(env, pose, l_blend=1)
    states, success = rollout(env, env.reset(pose), actions, friction)
    assert success
    cfg = RelabelConfig(population=64, elite_frac=0.125, cem_iterations=50,
                        init_std=0.0075, w_fail=0.0, w_tube=0.0, w_ref=1.0,
                        horizon=15)
    point = RelabelPoint(trajectory_id=0, t=4, risk=0.0)
    u_ref = actions[4:19]
    for seed in range(20):
        out = cem_optimize(point, actions, states, friction, env, TubeBounds(0.0, 100.0),
                           cfg, np.random.default_rng(seed), states)
        assert out is not None
        chunk, _ = out
        assert np.all(np.abs(chunk - u_ref) < 1e-2), f"seed {seed}"
    _report("8 CEM convergence", "20/20 seeds within 1e-2 of reference")


def test_criterion_09_relabel_validation():
    env = PlanarBlockRotate()
    pose = env.demo_object_pose()
    friction = env.nominal_friction()
    actions = augmented_demo_actions(env, pose, l_blend=10)
    states, success = rollout(env, env.reset(pose), actions, friction)
    assert success
    k_rel = 10
    cfg = RelabelConfig(k_rel=k_rel, population=16, cem_iterations=3, init_std=0.005,
                        horizon=15)
    # the same trajectory twice, its plan stored as its own M = T points
    curated = stored_table(0, True, friction, np.array([states[0]] * 2),
                           np.array([actions] * 2))
    targets = relabel_dataset(curated, env,
                              [TubeBounds(0.0, 100.0)] * 2, cfg,
                              np.random.default_rng(SEED), [states] * 2,
                              [state_distances(states, states, env.psi,
                                               env.psi_scales)] * 2)
    assert 0 < len(targets) <= k_rel
    per_traj = {}
    for row in targets:
        ok = rollout_with_resume(env, states[row["t"]], row["chunk"],
                                 actions[row["t"] + cfg.horizon:], friction)[1]
        assert ok, "emitted target failed independent re-check"
        per_traj.setdefault(row["traj"], []).append(row["t"])
    for ts in per_traj.values():
        ts = sorted(ts)
        assert all(b - a >= cfg.horizon for a, b in zip(ts, ts[1:]))
    _report("9 relabel validation",
            f"{len(targets)} targets re-validate, min-sep holds")


def test_criterion_10_determinism_across_jobs(tmp_path):
    import os

    def run(jobs, out):
        cfg = PipelineConfig(out_dir=str(out), seed=SEED, jobs=jobs,
                             n_variants=2, iterations=2, samples=32)
        run_pgdg(cfg)

    run(1, tmp_path / "j1")
    run(8, tmp_path / "j8")
    names = sorted(os.listdir(tmp_path / "j1"))
    assert names == sorted(os.listdir(tmp_path / "j8"))
    for name in names:
        a = (tmp_path / "j1" / name).read_bytes()
        b = (tmp_path / "j8" / name).read_bytes()
        assert a == b, f"{name} differs between --jobs 1 and --jobs 8"
    _report("10 determinism", "--jobs 1 and --jobs 8 byte-identical")


def test_criterion_11_comparative_direction(generated, tmp_path):
    cfg, _, _, _ = generated
    base_cfg = PipelineConfig(out_dir=str(tmp_path / "base"), seed=SEED,
                              n_variants=40)
    run_spatial_only(base_cfg)
    out = compare_replay(cfg.out_dir, str(tmp_path / "base"), n_trials=40,
                         seed=3)
    assert out["curated"]["stored_success_rate"] == 1.0
    assert out["baseline"]["fresh_success_rate"] < 1.0
    # like for like: curated beats the baseline under fresh friction
    assert out["gap_fresh"] > 0.0 and out["gap_fresh_ci95"][0] > 0.0
    lo, hi = out["gap_fresh_ci95"]
    _report("11 comparative direction",
            f"fresh friction: curated {out['curated']['fresh_success_rate']:.2f} vs baseline "
            f"{out['baseline']['fresh_success_rate']:.2f}, gap_fresh "
            f"{out['gap_fresh']:.2f} (95% CI {lo:.3f}-{hi:.3f})")


def test_criterion_12_redundancy_pruning():
    # batch of 30 embeddings, 10 of them exact duplicates of one rollout:
    # selecting every distinct item (m = 21) must omit >= duplicate
    # fraction minus one survivor per duplicate group
    rng = np.random.default_rng(5)
    distinct = [rng.standard_normal(6) for _ in range(20)]
    dup = rng.standard_normal(6)
    embeddings = [dup] * 10 + distinct
    kernel = build_kernel(embeddings, 1.0)
    n = len(embeddings)
    m = 21  # number of distinct items
    sel = dpp_select_greedy(kernel, m, eps=1e-6)
    omission = 1.0 - len(sel) / n
    dup_fraction = 10 / n
    bound = dup_fraction - 1 / n  # one survivor per duplicate group
    assert omission >= bound - 1e-12
    assert sum(1 for i in sel if i < 10) == 1, "more than one duplicate kept"
    _report("12 redundancy pruning",
            f"omission {omission:.3f} >= bound {bound:.3f}")
