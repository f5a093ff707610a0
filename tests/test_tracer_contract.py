"""The benchmark tracer's contract with the program: every function it
wraps still exists and is not a generator function, and a traced
``generate`` and ``stats`` yield every per-layer metric of the
benchmark.  ``bench/`` is read, not edited."""
import ast
import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recovergen

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(recovergen.__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402


def test_traced_functions_exist_and_are_not_generators():
    for _, (module, names) in tracer.TARGETS.items():
        mod = importlib.import_module(module)
        for name in names:
            func = getattr(mod, name, None)
            assert callable(func), f"{module}.{name} is gone"
            assert not inspect.isgeneratorfunction(func), f"{module}.{name} is a generator"


def _unreferenced(src):
    """The module-level functions and classes, and the methods that are not
    dunders, of the package under ``src`` that no name or attribute in
    ``src`` refers to and that ``tracer.TARGETS`` does not name."""
    trees = [ast.parse(path.read_text()) for path in sorted((src / "recovergen").glob("*.py"))]
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(m.name for m in node.body if isinstance(m, ast.FunctionDef)
                               and not (m.name.startswith("__") and m.name.endswith("__")))
        used.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
    traced = {name for _, names in tracer.TARGETS.values() for name in names}
    return sorted(defined - used - traced)


def test_every_definition_in_src_is_used_or_traced():
    # a definition that only the tests call belongs in the tests
    assert _unreferenced(SRC) == []


def _traced(tmp_path, tag, *cli_args):
    prefix = str(tmp_path / tag)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), prefix, "0", "--",
                           *cli_args], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return run.aggregate(prefix)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    # 16 samples starve every variant at seed 7; 32 leave three alive
    tmp_path = tmp_path_factory.mktemp("traced")
    out = tmp_path / "ds"
    generate = _traced(tmp_path, "generate", "generate", "--seed", "7", "--jobs", "1",
                       "--out", str(out), "--set", "iterations=1", "--set", "samples=32",
                       "--set", "relabel.k_rel=1")
    stats = _traced(tmp_path, "stats", "stats", "--json", str(out))
    return out, {"generate": generate, "stats": stats}


def _layer_values(dataset, command):
    out, aggregates = dataset
    r = dict(aggregates[command], cpu_per_wall=1.0, overhead_s=0.0,
             bytes_written=sum(f.stat().st_size for f in out.iterdir()))
    values, absent = run.layer_values(r)
    return r, values, absent


@pytest.mark.parametrize("command", ["generate", "stats"])
def test_traced_run_reports_every_layer_metric(dataset, command):
    r, values, absent = _layer_values(dataset, command)
    assert not r["absent"] and not absent
    assert set(values) == set(run.LAYER_METRICS)
    assert all(math.isfinite(v) for v in values.values())
    # no result counter broke on a changed return type
    assert set(r["counters"]) == {key for counters in tracer.RESULT_COUNTERS.values()
                                  for key, _ in counters}


@pytest.mark.parametrize("metric", ["envs.steps", "curator.state_distances.calls",
                                    "relabel.busy_s", "pipeline.self_s",
                                    "dataset_io.serialize_s"])
def test_traced_generate_calls_into_each_layer(dataset, metric):
    # a wrapper is registered when it is installed, so one that the run
    # never calls (a name the program no longer looks up) reads 0, not absent
    _, values, _ = _layer_values(dataset, "generate")
    assert values[metric] > 0


def test_result_counters_read_the_results_no_command_returns():
    # no command calls sampler.generate_success_batch or pipeline.run_variant,
    # so no traced run applies their result counters; each counter's reader
    # is applied here to a tiny call's result, so that a changed return
    # type fails a test and not only a benchmark that reads 0
    from recovergen import pipeline, sampler
    from recovergen.config import PipelineConfig
    from recovergen.envs import augmented_demo_actions, make_env

    cfg = PipelineConfig(env="point_reach", iterations=1, samples=8, l_blend=2)
    cfg.sampler.sigma0 = 0.001
    env = make_env(cfg.env)
    pose = env.demo_object_pose()
    q = sampler.init_proposal(augmented_demo_actions(env, pose, cfg.l_blend),
                              cfg.sampler.m_points, cfg.sampler.sigma0,
                              cfg.sampler.variance_floor)
    results = {
        "sampler.generate_success_batch": sampler.generate_success_batch(
            env, pose, q, cfg.samples, np.random.default_rng(0)),
        "pipeline.run_variant": pipeline.run_variant(env, cfg, 0, pose,
                                                     np.random.SeedSequence(0)),
    }
    assert set(results) < set(tracer.RESULT_COUNTERS)
    for name, result in results.items():
        for key, read in tracer.RESULT_COUNTERS[name]:
            value = read(result)
            assert isinstance(value, int) and value >= 0, (name, key, value)
    batch, variant = results.values()
    assert 0 < len(batch) <= batch.n_sampled == cfg.samples
    assert not variant.skipped and len(variant.curated) > 0
