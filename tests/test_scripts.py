"""Smoke tests of the experiment scripts: each runs at a small size as its
own process, exits 0 and prints output that parses; bad arguments exit 2."""
import json
import os
import subprocess
import sys

import pytest

import recovergen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(recovergen.__file__))


def script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=600)


def run_script(name, *args):
    proc = script(name, *args)
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


def test_perturbation_sweep_output_pinned():
    # recorded with one rollout per episode, before episodes were batched
    assert run_script("perturbation_sweep.py", "--episodes", "6", "--levels", "3",
                      "--seed", "2") == (
        "# env=planar_block_rotate episodes=6 seed=2\n"
        "# scale  replay_success_rate\n"
        "  0.00  0.500\n"
        "  0.50  0.667\n"
        "  1.00  0.333\n")


@pytest.mark.parametrize("args", [["--l-blend", "0"], ["--l-blend", "60"],
                                  ["--env", "point_reach", "--l-blend", "30"],
                                  ["--episodes", "0"], ["--levels", "0"],
                                  ["--yaw-range", "-1"], ["--yaw-range", "nan"],
                                  ["--trans-range", "0.1", "-0.1", "0"],
                                  ["--trans-range", "0.1", "inf", "0"], ["--seed", "-1"]])
def test_perturbation_sweep_rejects_bad_arguments(args):
    proc = script("perturbation_sweep.py", "--levels", "1", *args)
    assert proc.returncode == 2
    assert "error: --" in proc.stderr and "Traceback" not in proc.stderr
