"""Benchmark of the recovergen CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, seed 7

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload is a closed loop:
one client runs one CLI operation at a time and starts the next when the
previous one has exited, until the operations have taken ``--seconds``
of wall time (at least two operations).  Set-up, fixtures and output
checks run outside that budget.  The workload seed reaches the program
only as ``--seed``.

``--trace 0`` times operations with tracing off and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced operations with
operations run under ``tracer.py`` (always ``--jobs 1``) and prints the
per-layer metrics, the tracing overhead, and any metric whose wrapped
name no longer exists as absent.

Every operation is checked: exit code 0; the output passes
``recovergen stats --json`` with counts equal to the manifest's; every
stored trajectory is a success; and its bytes equal those of the first
operation of the run.  Once per run, ``generate-wide`` at ``--jobs 2``
must be byte-identical to ``--jobs 1``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import benchstats
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_OPS = 2
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170    # a run ends within 180 s, so no process outlives this
DEFAULT_SEED = 7
DEFAULT_SECONDS = 18
WIDE_SETS = ["--set", "n_variants=8", "--set", "samples=128", "--set", "relabel.k_rel=0"]
REPLAY_TRIALS = 2000
BASELINE_VARIANTS = 40


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (program missing, fixture failed)."""


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_proc(argv: List[str], run: "Run") -> Proc:
    """Run one process to exit, killing it at the run's deadline; wall time
    from spawn to reap, CPU time and peak resident set from its rusage
    (which folds in reaped children, e.g. the --jobs pool)."""
    out_path, err_path = run.work / "stdout", run.work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_env())
        timer = threading.Timer(max(1.0, run.deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(code=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, stdout=out_path.read_bytes(),
                stderr=err_path.read_bytes())


def cli(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "recovergen.cli", *args]


def _tail(proc: Proc) -> str:
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else f"exit {proc.code}"


def dir_files(path: Path) -> List[Path]:
    return sorted(p for p in path.rglob("*") if p.is_file())


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in dir_files(path))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# operations and output checks


@dataclass
class Op:
    procs: List[Proc]
    out: Path
    spans: List[str] = field(default_factory=list)
    bytes_written: int = 0

    @property
    def run_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)

    def exit_errors(self) -> List[str]:
        return [f"exit {p.code}: {_tail(p)}" for p in self.procs if p.code != 0]


def inspect_dataset(path: Path, run: "Run") -> dict:
    proc = run_proc([sys.executable, str(BENCH / "inspect_dataset.py"), str(path)], run)
    if proc.code != 0:
        raise BenchError(f"inspecting {path.name} failed: {_tail(proc)}")
    return json.loads(proc.stdout)


def dataset_errors(report: dict) -> List[str]:
    """Checks of a generate output directory, from inspect_dataset."""
    if report["stats_exit"] != 0:
        return [f"recovergen stats --json exited {report['stats_exit']}"]
    st, m = report["stats"], report["manifest"]
    pairs = [(st["generated"], m["n_generated"], "generated"),
             (st["successful"], m["n_successful"], "successful"),
             (st["selected"], m["n_selected"], "selected"),
             (st["relabeled"], m["n_relabeled"], "relabeled"),
             (st["records_relabeled"], m["n_relabeled"], "relabeled records"),
             (st["records_curated"] + st["records_relabeled"], m["n_records"], "records"),
             (report["records_loaded"], m["n_records"], "records loaded"),
             (report["trajectories_loaded"], m["n_trajectories"], "trajectories loaded"),
             (m["n_trajectories"], m["n_selected"], "stored trajectories")]
    errors = [f"{what}: {a} != manifest {b}" for a, b, what in pairs if a != b]
    if not report["all_success"]:
        errors.append("a stored trajectory has success false")
    return errors


@dataclass
class Facts:
    """Counts of one operation's output, for the end-to-end metrics."""

    records: int
    curated: int
    relabeled: int
    output_bytes: int


class Generate:
    """``recovergen generate`` at a fixed configuration; the output
    directory is the operation's output."""

    def __init__(self, jobs: int, sets: List[str]):
        self.jobs, self.sets = jobs, sets

    def prepare(self, run: "Run") -> float:
        return 0.0

    def calls(self, run: "Run", out: Path, jobs: Optional[int] = None) -> List[List[str]]:
        return [["generate", "--seed", str(run.seed), "--jobs", str(jobs or self.jobs),
                 *self.sets, "--out", str(out)]]

    def fingerprint(self, op: Op) -> Dict[str, str]:
        return {str(p.relative_to(op.out)): sha256(p.read_bytes()) for p in dir_files(op.out)}

    def check(self, run: "Run", op: Op, inspect: bool):
        """(errors, facts); facts only when ``inspect``."""
        errors = op.exit_errors()
        if errors or not inspect:
            return errors, None
        try:
            report = inspect_dataset(op.out, run)
        except BenchError as exc:
            return [str(exc)], None
        m = report["manifest"]
        return dataset_errors(report), Facts(records=m["n_records"], curated=m["n_selected"],
                                             relabeled=m["n_relabeled"],
                                             output_bytes=dir_bytes(op.out))

    def printed(self, facts: Facts, ops: List[Op]) -> Dict[str, list]:
        return {"records_per_s": [facts.records / op.run_s for op in ops],
                "relabeled_targets": [facts.relabeled]}

    def jobs_check(self, run: "Run") -> Optional[Op]:
        """``--jobs 2`` must give the bytes of ``--jobs 1``."""
        if self.jobs == 1:
            return None
        op = run.op(self, jobs=1)
        errors = op.exit_errors()
        if not errors and self.fingerprint(op) != run.reference:
            errors.append("--jobs 1 output differs from --jobs 2 output")
        run.record("jobs-1 check", errors)
        run.discard(op)
        return op


class Replay:
    """``recovergen stats <wide> --json`` then ``recovergen evaluate <wide>
    --compare <base>``; the two standard outputs are the operation's
    output.  ``<wide>`` and ``<base>`` are built once per run, untimed."""

    def prepare(self, run: "Run") -> float:
        self.wide, self.base = run.work / "wide", run.work / "base"
        t0 = time.perf_counter()
        for args in (["generate", "--seed", str(run.seed), "--jobs", "2", *WIDE_SETS,
                      "--out", str(self.wide)],
                     ["baseline", "--seed", str(run.seed),
                      "--set", f"n_variants={BASELINE_VARIANTS}", "--out", str(self.base)]):
            proc = run_proc(cli(args), run)
            if proc.code != 0:
                raise BenchError(f"fixture {args[0]} failed: {_tail(proc)}")
        fixture_s = time.perf_counter() - t0
        report = inspect_dataset(self.wide, run)
        errors = dataset_errors(report)
        if errors:
            raise BenchError(f"fixture {self.wide.name}: {'; '.join(errors)}")
        self.manifest = report["manifest"]
        self.input_bytes = dir_bytes(self.wide)
        return fixture_s

    def calls(self, run: "Run", out: Path, jobs: Optional[int] = None) -> List[List[str]]:
        return [["stats", str(self.wide), "--json"],
                ["evaluate", str(self.wide), "--compare", str(self.base),
                 "--trials", str(REPLAY_TRIALS), "--seed", str(run.seed)]]

    def fingerprint(self, op: Op) -> Dict[str, str]:
        return {f"stdout{i}": sha256(p.stdout) for i, p in enumerate(op.procs)}

    def check(self, run: "Run", op: Op, inspect: bool):
        errors = op.exit_errors()
        if errors:
            return errors, None
        m = self.manifest
        try:
            st = json.loads(op.procs[0].stdout)
            ev = json.loads(op.procs[1].stdout)
            records = st["records_curated"] + st["records_relabeled"]
            pairs = [(st["generated"], m["n_generated"], "stats generated"),
                     (st["successful"], m["n_successful"], "stats successful"),
                     (st["selected"], m["n_selected"], "stats selected"),
                     (st["relabeled"], m["n_relabeled"], "stats relabeled"),
                     (records, m["n_records"], "stats records"),
                     (ev["curated"]["n_trajectories"], m["n_trajectories"],
                      "curated trajectories replayed"),
                     (ev["baseline"]["n_trajectories"], BASELINE_VARIANTS,
                      "baseline trajectories replayed"),
                     (ev["curated"]["stored_success_rate"], 1.0, "stored_success_rate")]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"], None
        errors = [f"{what}: {a} != {b}" for a, b, what in pairs if a != b]
        return errors, Facts(records=records, curated=st["selected"],
                             relabeled=st["relabeled"], output_bytes=self.input_bytes)

    def printed(self, facts: Facts, ops: List[Op]) -> Dict[str, list]:
        return {}

    def jobs_check(self, run: "Run") -> Optional[Op]:
        return None


WORKLOADS = {
    "generate-default": lambda: Generate(1, []),
    "generate-wide": lambda: Generate(2, WIDE_SETS),
    "replay-read": Replay,
}


# ---------------------------------------------------------------------------
# one run of one workload


class Run:
    """State of one run: counts of operations attempted and failed, the
    first operation's output fingerprint and output facts."""

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed, self.seconds, self.work = seed, seconds, work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.reference: Optional[Dict[str, str]] = None
        self.facts: Optional[Facts] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.n_ops = 0

    def record(self, what: str, errors: List[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)
        return not errors

    def op(self, workload, jobs: Optional[int] = None, traced: bool = False) -> Op:
        self.n_ops += 1
        out = self.work / f"op{self.n_ops}"
        op = Op(procs=[], out=out)
        for k, args in enumerate(workload.calls(self, out, jobs)):
            if traced:
                prefix = str(self.work / f"spans{self.n_ops}-{k}")
                argv = [sys.executable, str(BENCH / "tracer.py"), prefix, str(self.n_ops),
                        "--", *args]
                op.spans.append(prefix)
            else:
                argv = cli(args)
            op.procs.append(run_proc(argv, self))
        return op

    def discard(self, op: Op) -> None:
        shutil.rmtree(op.out, ignore_errors=True)


def probe(run: Run) -> dict:
    """Import the program once, untimed (fills the bytecode cache), and
    check that it comes from this checkout."""
    code = ("import json, numpy, scipy, recovergen.cli; print(json.dumps({"
            "'file': recovergen.cli.__file__, 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__}))")
    proc = run_proc([sys.executable, "-c", code], run)
    if proc.code != 0:
        raise BenchError(f"cannot import recovergen from {SRC}: {_tail(proc)}")
    info = json.loads(proc.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"recovergen imported from {info['file']}, not {SRC}")
    return info


def setup_times(run: Run) -> List[float]:
    """Fresh interpreter to ``import recovergen.cli`` done."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = run_proc([sys.executable, "-c", "import recovergen.cli"], run)
        if proc.code != 0:
            raise BenchError(f"import recovergen.cli failed: {_tail(proc)}")
        times.append(proc.wall_s)
    return times


def machine(versions: dict, seed: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": versions["numpy"],
            "scipy": versions["scipy"], "commit": commit, "seed": seed}


def checked_op(workload, run: Run, jobs: Optional[int] = None, traced: bool = False):
    """Run one operation and its output checks.  The first operation that
    passes sets the run's reference bytes and output facts."""
    op = run.op(workload, jobs=jobs, traced=traced)
    errors, facts = workload.check(run, op, inspect=run.facts is None)
    if not errors:
        fp = workload.fingerprint(op)
        if run.reference is None:
            run.reference = fp
        elif fp != run.reference:
            errors.append("output bytes differ from the first operation of this run")
    ok = run.record("traced operation" if traced else "operation", errors)
    if ok:
        run.facts = run.facts or facts
        op.bytes_written = dir_bytes(op.out) if op.out.is_dir() else 0
    run.discard(op)
    return op, ok


def run_untraced(workload, run: Run) -> dict:
    """End-to-end metrics, tracing off."""
    setup = setup_times(run)
    fixture_s = workload.prepare(run)
    ops, measured = [], 0.0
    while measured < run.seconds or (len(ops) < MIN_OPS and run.failed < MIN_OPS):
        op, ok = checked_op(workload, run)
        measured += op.run_s
        if ok:
            ops.append(op)
    jobs_op = workload.jobs_check(run) if ops else None
    facts = run.facts
    if not ops or facts is None:
        raise BenchError("no operation succeeded: " + "; ".join(run.errors[:3]))
    series = {
        "run_s": [op.run_s for op in ops],
        "setup_s": setup,
        "peak_rss_mb": [op.rss_mb for op in ops],
        "output_mb": [facts.output_bytes / 1e6],
        "curated_trajectories": [facts.curated],
    }
    extra = {"fixture_s": fixture_s}
    if jobs_op is not None:
        extra["jobs1_run_s"] = jobs_op.run_s
    return {"series": series, "printed": workload.printed(facts, ops),
            "extra": extra}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

# curator stages: the time covered by any span of their functions
STAGES = {
    "score": ["curator.peak_deviation", "curator.compute_tube", "curator.tube_reward"],
    "select": ["curator.dct_embed", "curator.median_pairwise_distance",
               "curator.build_kernel", "curator.dpp_select_greedy"],
    "refit": ["curator.reward_to_weight", "curator.update_proposal"],
}
ROLLOUTS = ["envs.rollout", "envs.rollout_with_resume"]


def aggregate(prefix: str) -> dict:
    """Sums over one traced process's spans."""
    meta, fn, parent, rows, start, end = tracer.read_spans(prefix)
    names, layers = meta["names"], meta["layers"]
    selfs = benchstats.self_times(parent, start, end)
    per_fn = {n: {"calls": 0, "rows": 0, "incl_s": 0.0} for n in names}
    layer_self: Dict[str, float] = {layer: 0.0 for layer in layers}
    in_relabel = [False] * len(fn)
    relabel_rollouts = 0
    staged = {n for group in STAGES.values() for n in group}
    spans_of: Dict[str, list] = {}
    rollout_idx = {names.index(n) for n in ROLLOUTS if n in names}
    for i in range(len(fn)):
        name = names[fn[i]]
        agg = per_fn[name]
        agg["calls"] += 1
        agg["rows"] += rows[i]
        agg["incl_s"] += end[i] - start[i]
        layer_self[layers[fn[i]]] += selfs[i]
        p = parent[i]
        in_relabel[i] = layers[fn[i]] == "relabel" or (p >= 0 and in_relabel[p])
        if fn[i] in rollout_idx and p >= 0 and in_relabel[p]:
            relabel_rollouts += rows[i]
        if name in staged:
            spans_of.setdefault(name, []).append((start[i], end[i]))
    stages = {key: benchstats.covered(iv for n in group for iv in spans_of.get(n, []))
              for key, group in STAGES.items() if any(n in per_fn for n in group)}
    return {"fn": per_fn, "layer_self": layer_self, "stages": stages,
            "relabel_rollouts": relabel_rollouts, "counters": meta["counters"],
            "bytes_read": meta["bytes_read"], "absent": meta["absent"]}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _rollouts(r) -> int:
    present = [n for n in ROLLOUTS if n in r["fn"]]
    if not present:
        raise KeyError("envs.rollout")
    return sum(r["fn"][n]["rows"] for n in present)


# name -> (unit, better, kind, value from the summed aggregates of one traced
# operation).  kind "count" must repeat exactly between traced operations,
# "time" is their median, "run" is one value per run.
LAYER_METRICS = {
    "envs.steps": ("count", "lower", "count", lambda r: r["fn"]["envs.step"]["rows"]),
    "envs.rollouts": ("count", "lower", "count", _rollouts),
    "envs.rows_per_call": ("ratio", "higher", "count", lambda r: _ratio(
        r["fn"]["envs.step"]["rows"], r["fn"]["envs.step"]["calls"])),
    "envs.step_s": ("s", "lower", "time", lambda r: r["fn"]["envs.step"]["incl_s"]),
    "envs.us_per_step": ("us", "lower", "time", lambda r: 1e6 * _ratio(
        r["fn"]["envs.step"]["incl_s"], r["fn"]["envs.step"]["rows"])),
    "sampler.batches": ("count", "lower", "count",
                        lambda r: r["fn"]["sampler.generate_success_batch"]["calls"]),
    "sampler.self_s": ("s", "lower", "time", lambda r: r["layer_self"]["sampler"]),
    "sampler.success_ratio": ("ratio", "higher", "count", lambda r: _ratio(
        r["counters"]["successes"], r["counters"]["sampled"])),
    "sampler.starved_variants": ("count", "lower", "count", lambda r: r["counters"]["starved"]),
    "curator.state_distances.calls": ("count", "lower", "count",
                                      lambda r: r["fn"]["curator.state_distances"]["calls"]),
    "curator.state_distances_s": ("s", "lower", "time",
                                  lambda r: r["fn"]["curator.state_distances"]["incl_s"]),
    "curator.score_s": ("s", "lower", "time", lambda r: r["stages"]["score"]),
    "curator.select_s": ("s", "lower", "time", lambda r: r["stages"]["select"]),
    "curator.refit_s": ("s", "lower", "time", lambda r: r["stages"]["refit"]),
    "curator.selected_ratio": ("ratio", "higher", "count", lambda r: _ratio(
        r["counters"]["selected"], r["counters"]["successes"])),
    "relabel.points": ("count", "higher", "count", lambda r: r["counters"]["points"]),
    "relabel.emitted": ("count", "higher", "count", lambda r: r["counters"]["emitted"]),
    "relabel.dropped": ("count", "lower", "count",
                        lambda r: r["counters"]["points"] - r["counters"]["emitted"]),
    "relabel.rollouts": ("count", "lower", "count", lambda r: r["relabel_rollouts"]),
    "relabel.rollouts_per_target": ("ratio", "lower", "count", lambda r: _ratio(
        r["relabel_rollouts"], r["counters"]["emitted"])),
    "relabel.busy_s": ("s", "lower", "time",
                       lambda r: r["fn"]["relabel.relabel_dataset"]["incl_s"]),
    "relabel.self_s": ("s", "lower", "time", lambda r: r["layer_self"]["relabel"]),
    "dataset_io.export_s": ("s", "lower", "time",
                            lambda r: r["fn"]["dataset_io.export_pairs"]["incl_s"]),
    "dataset_io.serialize_s": ("s", "lower", "time",
                               lambda r: r["fn"]["dataset_io.serialize"]["incl_s"]),
    "dataset_io.bytes_written": ("B", "lower", "count", lambda r: r["bytes_written"]),
    "dataset_io.deserialize_s": ("s", "lower", "time",
                                 lambda r: r["fn"]["dataset_io.deserialize"]["incl_s"]),
    "dataset_io.load_trajectories_s": (
        "s", "lower", "time", lambda r: r["fn"]["dataset_io.load_trajectories"]["incl_s"]),
    "dataset_io.bytes_read": ("B", "lower", "count", lambda r: r["bytes_read"]),
    "pipeline.variant_loop_s": ("s", "lower", "time",
                                lambda r: r["fn"]["pipeline.run_variant"]["incl_s"]),
    "pipeline.self_s": ("s", "lower", "time", lambda r: r["layer_self"]["pipeline"]),
    "pipeline.cpu_per_wall": ("ratio", "higher", "run", lambda r: r["cpu_per_wall"]),
    "trace.overhead_s": ("s", "lower", "run", lambda r: r["overhead_s"]),
}


def _add(a: dict, b: dict) -> dict:
    """Sum two aggregates (the processes of one operation)."""
    out = {}
    for key in set(a) | set(b):
        x, y = a.get(key), b.get(key)
        if isinstance(x, dict) or isinstance(y, dict):
            out[key] = _add(x or {}, y or {})
        elif isinstance(x, list) or isinstance(y, list):
            out[key] = sorted(set(x or []) | set(y or []))
        else:
            out[key] = (x or 0) + (y or 0)
    return out


def layer_values(r: dict):
    """(values, absent) of every per-layer metric for one traced operation."""
    values, absent = {}, []
    for name, (_, _, _, get) in LAYER_METRICS.items():
        try:
            values[name] = get(r)
        except KeyError:
            absent.append(name)
    return values, absent


def run_traced(workload, run: Run) -> dict:
    """Per-layer metrics: untraced and traced operations alternate."""
    workload.prepare(run)
    plain, base, traced, measured = [], [], [], 0.0
    while (measured < run.seconds or not traced) and run.failed < MIN_OPS:
        op, ok = checked_op(workload, run)
        measured += op.run_s
        if ok:
            plain.append(op)
        if ok and not base:
            jobs_op = workload.jobs_check(run)
            base = [jobs_op] if jobs_op is not None else []
        op, ok = checked_op(workload, run, jobs=1, traced=True)
        measured += op.run_s
        if ok:
            traced.append(op)
    base = base or plain
    if not traced or not base:
        raise BenchError("no traced operation succeeded: " + "; ".join(run.errors[:3]))

    per_run = {"cpu_per_wall": benchstats.median([o.cpu_s / o.run_s for o in plain or base]),
               "overhead_s": benchstats.median([o.run_s for o in traced])
               - benchstats.median([o.run_s for o in base])}
    per_op, absent = [], set()
    for op in traced:
        r = {}
        for prefix in op.spans:
            r = _add(r, aggregate(prefix))
        r.update(per_run, bytes_written=op.bytes_written)
        values, missing = layer_values(r)
        absent |= set(missing) | set(r["absent"])
        per_op.append(values)
    series = {}
    for name, (_, _, kind, _) in LAYER_METRICS.items():
        vals = [v[name] for v in per_op if name in v]
        if not vals:
            continue
        if kind == "count" and any(v != vals[0] for v in vals):
            run.record("trace counts", [f"{name} differs between traced operations: {vals}"])
        series[name] = vals if kind == "time" else vals[:1]
    return {"series": series, "printed": {}, "extra": {
        "absent": sorted(absent),
        "traced_run_s": [o.run_s for o in traced], "untraced_run_s": [o.run_s for o in base]}}


# ---------------------------------------------------------------------------
# entry point

# name -> (unit, better); the bounds live in BENCHMARK.json
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "output_mb": ("MB", "lower"),
    "curated_trajectories": ("count", "higher"),
}
# printed beside them, not in BENCHMARK.json: records_per_s says what
# run_s says at a fixed seed, relabeled_targets is 0 without relabeling
# and fail_frac is 0 when the benchmark is correct (the result line
# carries attempted and failed instead)
PRINTED_UNITS = {"records_per_s": "records/s", "relabeled_targets": "count",
                 "fail_frac": "ratio"}


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload; prints its table and returns the result."""
    workload = WORKLOADS[name]()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(seed, seconds, work)
        info = machine(probe(run), seed)
        res = (run_traced if trace else run_untraced)(workload, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    units = {n: spec[0] for n, spec in (LAYER_METRICS if trace else END_TO_END).items()}
    units.update(PRINTED_UNITS)
    print(f"# {name} seed {seed} {'traced' if trace else 'untraced'}: "
          f"{run.attempted} operations, {run.failed} failed")
    print(f"# machine {json.dumps(info)}")
    printed = dict(res["printed"], fail_frac=[benchstats.fail_frac(run.attempted, run.failed)])
    metrics = {}
    for metric, values in [*res["series"].items(), *printed.items()]:
        s = benchstats.summary(values)
        if metric in res["series"]:
            metrics[metric] = {"value": s["median"], "unit": units[metric]}
        print(f"{metric:34s} {s['median']:>14.6g} {units[metric]:10s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
              + ("" if metric in res["series"] else "  (printed only)"))
    for key, value in res["extra"].items():
        print(f"# {key} {json.dumps(value)}")
    for err in run.errors:
        print(f"# FAILED {err}")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: measure(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
