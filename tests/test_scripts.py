"""Smoke tests of the experiment scripts: each runs at a small size as its
own process, exits 0 and prints output that parses."""
import json
import os
import subprocess
import sys

import recovergen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(recovergen.__file__))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_compare_baseline_runs(tmp_path):
    out = run_script("compare_baseline.py", "--out", str(tmp_path), "--trials", "4",
                     "--baseline-variants", "4")
    generate, baseline, rest = out.split("\n", 2)
    assert generate.startswith("generate: ") and " relabeled, " in generate
    assert baseline.startswith("baseline: ") and baseline.endswith(" of 4 replays")
    report = json.loads(rest)
    assert report["curated"]["fresh_trials"] == report["baseline"]["fresh_trials"] == 4
    assert report["baseline"]["n_trajectories"] == 4
    assert (tmp_path / "generate" / "manifest").exists()


def test_perturbation_sweep_runs():
    out = run_script("perturbation_sweep.py", "--episodes", "5", "--levels", "2")
    rows = [line.split() for line in out.splitlines() if not line.startswith("#")]
    assert [float(scale) for scale, _ in rows] == [0.0, 1.0]
    assert all(0.0 <= float(rate) <= 1.0 for _, rate in rows)
