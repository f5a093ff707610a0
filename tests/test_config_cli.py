"""Configuration parsing and the command-line surface (exit codes, file
formats, overrides)."""
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import recovergen
from recovergen.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NO_DATA, EXIT_OK, main)
from recovergen.config import (ConfigError, PipelineConfig, apply_option,
                               config_parameters, load_config)
from recovergen.dataset_io import (load_trajectories, open_dataset, read_manifest,
                                   rebuild_trajectories)
from recovergen.sampler import fit_control_points


# ---------------------------------------------------------------------------
# config


def test_defaults_validate():
    cfg = PipelineConfig()
    cfg.validate()
    assert cfg.iterations == 5
    assert cfg.samples == 64
    assert cfg.relabel.k_rel == 10
    assert cfg.relabel.horizon == 15
    assert cfg.curator.q_min == 0.2 and cfg.curator.q_max == 0.8


def test_apply_option_sections_and_coercion():
    cfg = PipelineConfig()
    apply_option(cfg, "sampler.m_points", "8")
    apply_option(cfg, "curator.q_min", "0.1")
    apply_option(cfg, "relabel.cem_iterations", "12")
    apply_option(cfg, "trans_range", "[0.01, 0.02, 0.0]")
    apply_option(cfg, "env.horizon", "40")
    assert cfg.sampler.m_points == 8
    assert cfg.curator.q_min == 0.1
    assert cfg.relabel.cem_iterations == 12
    assert cfg.trans_range == (0.01, 0.02, 0.0)
    assert cfg.env_overrides == {"horizon": 40}


def test_apply_option_unknown_keys_rejected():
    cfg = PipelineConfig()
    with pytest.raises(ConfigError):
        apply_option(cfg, "nonsense", "1")
    with pytest.raises(ConfigError):
        apply_option(cfg, "sampler.nonsense", "1")
    with pytest.raises(ConfigError):
        apply_option(cfg, "nosection.x", "1")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "env = point_reach\n"
        "seed = 11\n"
        "iterations = 2\n"
        "sampler.sigma0 = 0.004\n"
        "curator.k_dct = 6\n")
    cfg = load_config(str(path))
    assert cfg.env == "point_reach"
    assert cfg.seed == 11 and cfg.iterations == 2
    assert cfg.sampler.sigma0 == 0.004
    assert cfg.curator.k_dct == 6


def test_load_config_reports_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 1\nthis has no equals sign\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: line 2: expected 'key = value'")):
        load_config(str(path))


def test_load_config_overrides_take_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\n")
    cfg = load_config(str(path), {"seed": 99})
    assert cfg.seed == 99


def test_validate_rejects_inconsistencies():
    for key, value in [("iterations", 0), ("samples", 0), ("n_variants", 0),
                       ("jobs", 0), ("l_blend", 0), ("chunk_len", 0)]:
        cfg = PipelineConfig()
        setattr(cfg, key, value)
        with pytest.raises(ConfigError):
            cfg.validate()
    cfg = PipelineConfig()
    cfg.curator.q_min = 0.9
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_parameters_flat_dict():
    params = config_parameters(PipelineConfig())
    assert params["sampler.m_points"] == 16
    assert params["relabel.k_rel"] == 10
    assert params["chunk_len"] == 30


# ---------------------------------------------------------------------------
# CLI


def _fast_args(out, extra=()):
    return ["generate", "--env", "point_reach", "--out", str(out),
            "--seed", "4",
            "--set", "iterations=1", "--set", "samples=16",
            "--set", "n_variants=2", "--set", "chunk_len=10",
            "--set", "sampler.sigma0=0.003",
            "--set", "relabel.k_rel=1", "--set", "relabel.population=8",
            "--set", "relabel.cem_iterations=2",
            "--set", "trans_range=[0.01,0.01,0]", "--set", "yaw_range=0",
            *extra]


def test_cli_generate_and_stats(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(_fast_args(out)) == EXIT_OK
    captured = capsys.readouterr().out
    n_records = read_manifest(str(out)).n_records
    assert captured.startswith(f"wrote {n_records} records to {out} ")
    assert (out / "manifest").exists()
    assert (out / "records.npy").exists()
    assert (out / "trajectories.npy").exists()
    assert (out / "report.txt").exists()

    assert main(["stats", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "rollouts selected" in text

    assert main(["stats", str(out), "--json"]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    assert sorted(stats) == sorted(["env", "source", "generated", "successful", "selected",
                                    "omission_fraction", "relabeled", "records_curated",
                                    "records_relabeled", "final_tubes"])
    assert stats["env"] == "point_reach"
    assert stats["selected"] > 0


def test_cli_stats_numbers_tubes_among_the_live_variants(tmp_path, capsys):
    # at seed 7 with 32 samples variants 1 and 3 starve: the manifest keeps
    # the tubes of variants 0 and 2, and stats must not call the second one
    # variant 1
    out = tmp_path / "ds"
    assert main(["generate", "--seed", "7", "--jobs", "1", "--out", str(out),
                 "--set", "iterations=1", "--set", "samples=32",
                 "--set", "relabel.k_rel=1"]) == EXIT_OK
    assert "variant 1: skipped" in (out / "report.txt").read_text()
    tubes = read_manifest(str(out)).final_tubes
    assert len(tubes) == 2
    capsys.readouterr()
    assert main(["stats", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert not any(re.search(r"variant \d", line) for line in lines)
    assert [line for line in lines if "final tube" in line] == [
        f"final tube {k}        : [{r_min:.6f}, {r_max:.6f}]"
        for k, (r_min, r_max) in enumerate(tubes)]


def test_cli_baseline_and_evaluate(tmp_path, capsys):
    gen = tmp_path / "gen"
    base = tmp_path / "base"
    assert main(_fast_args(gen)) == EXIT_OK
    args = _fast_args(base)
    args[0] = "baseline"
    assert main(args) == EXIT_OK
    capsys.readouterr()

    assert main(["evaluate", str(gen), "--trials", "10", "--seed", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["stored_success_rate"] == 1.0
    assert 0.0 <= report["fresh_success_rate"] <= 1.0
    assert len(report["fresh_ci95"]) == 2

    assert main(["evaluate", str(gen), "--compare", str(base),
                 "--trials", "10"]) == EXIT_OK
    cmp_report = json.loads(capsys.readouterr().out)
    assert "gap" not in cmp_report
    assert cmp_report["gap_fresh"] == (cmp_report["curated"]["fresh_success_rate"]
                                       - cmp_report["baseline"]["fresh_success_rate"])


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = main(["generate", "--out", str(tmp_path / "x"),
               "--set", "iterations=0"])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_key_exit_code(capsys):
    assert main(["generate", "--set", "bogus.key=1"]) == EXIT_CONFIG


@pytest.mark.parametrize("sets, message", [
    (["relabel.population=0"], "relabel.population"),
    (["relabel.elite_frac=0"], "relabel.elite_frac"),
    (["relabel.elite_frac=1.5"], "relabel.elite_frac"),
    (["relabel.horizon=0"], "relabel.horizon"),
    (["env.horizon=20", "relabel.horizon=21"], "exceeds the environment horizon"),
    (["env.no_such_constant=1"], "environment"),
    (["env.horizon=20", "chunk_len=21"], "chunk_len (21) exceeds the environment horizon"),
    (["curator.temperature=0"], "curator.temperature"),
    (["curator.temperature=-0.5"], "curator.temperature"),
    (["env.horizon=20", "chunk_len=10", "curator.k_dct=20"], "curator.k_dct + 1 (21) exceeds"),
    (["sampler.m_points=1"], "sampler.m_points"),
    (["sampler.m_points=61"], "sampler.m_points (61) exceeds the environment horizon (60)"),
    (["yaw_range=-0.1"], "yaw_range must be a finite number >= 0, got -0.1"),
    (["yaw_range=Infinity"], "yaw_range must be a finite number >= 0, got inf"),
    (["trans_range=[0.1]"], "trans_range must be three finite numbers >= 0"),
    (["trans_range=[-0.1,0,0]"], "trans_range must be three finite numbers >= 0"),
    (["trans_range=[0.1,NaN,0]"], "trans_range must be three finite numbers >= 0"),
    (["trans_range=0.1"], "trans_range must be three finite numbers >= 0"),
    (["relabel.k_rel=-1"], "relabel.k_rel must be a finite number >= 0"),
    (["curator.eps_dpp=0"], "curator.eps_dpp must be a finite number > 0"),
    (["relabel.w_fail=-1"], "relabel.w_fail must be a finite number >= 0"),
    (["relabel.w_tube=-1"], "relabel.w_tube must be a finite number >= 0"),
    (["relabel.w_ref=-1"], "relabel.w_ref must be a finite number >= 0"),
    (["curator.delta=-1"], "curator.delta must be a finite number >= 0"),
    (["curator.delta=NaN"], "curator.delta must be a finite number >= 0, got nan"),
    (["curator.eps_stab=-1"], "curator.eps_stab must be a finite number >= 0"),
    (["sampler.variance_floor=-1"], "sampler.variance_floor must be a finite number >= 0"),
    (["sampler.sigma0=-1"], "sampler.sigma0 must be a finite number >= 0"),
    (["curator.sigma_rbf=-1"], "curator.sigma_rbf must be a finite number >= 0"),
    (["relabel.init_std=-1"], "relabel.init_std must be a finite number >= 0"),
    (["relabel.min_sep=-1"], "relabel.min_sep must be a finite number >= 0"),
    (["curator.m_fraction=0"], "curator.m_fraction must lie in (0, 1]"),
    (["curator.m_fraction=1.5"], "curator.m_fraction must lie in (0, 1]"),
    (["curator.k_dct=0"], "curator.k_dct must be >= 1"),
    (["relabel.cem_iterations=-1"], "relabel.cem_iterations must be a finite number >= 0"),
    (["env.a_max=-0.03"], "a_max must be a finite number > 0, got -0.03"),
    (["env.eps_theta=-1"], "eps_theta must be a finite number > 0, got -1"),
    (["env.half_extents=[0.1]"], "half_extents must be 2 finite numbers, got (0.1,)"),
    (["env.contact_margin=NaN"], "contact_margin must be a finite number, got nan"),
    (["env.half_extents=[0.1,0]"], "half_extents must be 2 finite numbers > 0"),
    (["env.friction_range=[1.2,0.8]"], "friction_range must be (low, high) with low <= high"),
    (["env.horizon=20.5"], "horizon must be an integer, got 20.5"),
    (["env.state_dim=3"], "state_dim is fixed at 7, got 3"),
    (["--env", "point_reach", "env.eps_p=0"], "eps_p must be a finite number > 0, got 0"),
    (["--env", "point_reach", "env.goal=[0.25,Infinity]"], "goal must be 2 finite numbers"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["seed=-2"], "seed must be >= 0, got -2"),
])
def test_cli_relabel_and_env_config_fail_before_any_rollout(tmp_path, capsys, sets,
                                                           message):
    out = tmp_path / "never"
    argv = ["generate", "--out", str(out)]
    for item in sets:
        argv += [item] if item.startswith("-") or "=" not in item else ["--set", item]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_baseline_rejects_negative_seed_before_any_rollout(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["baseline", "--seed", "-3", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -3" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_l_blend_too_long_for_horizon_fails_before_any_rollout(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["generate", "--out", str(out), "--set", "l_blend=100"]) == EXIT_CONFIG
    assert "l_blend (100) leaves fewer than 2 demo poses" in capsys.readouterr().err
    assert not out.exists()
    # the longest blend that still leaves two demo poses is accepted
    assert load_config(None, {"env.horizon": 20, "chunk_len": 10, "l_blend": 19}).l_blend == 19


@pytest.mark.parametrize("key, value", [
    ("n_variants", "1.7"), ("seed", "2.9"), ("samples", "true"), ("iterations", "false"),
    ("relabel.population", "64.5"), ("seed", "abc"), ("seed", "[1]"),
    ("curator.q_min", "true"), ("curator.q_min", "low"),
])
def test_numeric_keys_reject_inexact_or_non_numeric_values(key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config(None, {key: value})


def test_integer_keys_take_exact_integers():
    cfg = load_config(None, {"n_variants": "2.0", "relabel.population": "1e2", "seed": 9,
                             "curator.q_min": "0"})
    assert (cfg.n_variants, cfg.relabel.population, cfg.seed) == (2, 100, 9)
    assert all(type(v) is int for v in (cfg.n_variants, cfg.relabel.population, cfg.seed))
    assert type(cfg.curator.q_min) is float and cfg.curator.q_min == 0.0


def test_cli_fractional_integer_exits_2(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["generate", "--out", str(out), "--set", "n_variants=1.7"]) == EXIT_CONFIG
    assert "'n_variants' expects an integer, got 1.7" in capsys.readouterr().err
    assert not out.exists()


def test_cli_no_data_exit_code(tmp_path, capsys):
    # impossible goal far outside reach: every variant starves
    rc = main(["generate", "--env", "point_reach", "--out", str(tmp_path / "x"),
               "--set", "iterations=1", "--set", "samples=8",
               "--set", "n_variants=1",
               "--set", "env.goal=[50,50]",
               "--set", "trans_range=[0,0,0]", "--set", "yaw_range=0"])
    assert rc == EXIT_NO_DATA
    assert "pipeline error" in capsys.readouterr().err


def test_cli_io_error_exit_code(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "does_not_exist")]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_cli_config_file_flag(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "env = point_reach\niterations = 1\nsamples = 16\nn_variants = 1\n"
        "chunk_len = 10\nsampler.sigma0 = 0.001\nrelabel.k_rel = 0\n"
        "trans_range = [0.005, 0.005, 0]\nyaw_range = 0\n")
    out = tmp_path / "ds"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "2"]) == EXIT_OK
    assert (out / "manifest").exists()


def test_cli_config_file_repeated_key_exits_2(tmp_path, capsys):
    # a later line must not silently overwrite an earlier one
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed = 3\niterations = 1\n# comment\n seed = 4\n")
    out = tmp_path / "never"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    assert (f"config error: {cfg_path}: line 4: duplicate key 'seed', first set on line 1"
            in capsys.readouterr().err)
    assert not out.exists()
    # a repeated --set still takes its last value
    assert main(["generate", "--out", str(out), "--set", "iterations=1",
                 "--set", "iterations=0"]) == EXIT_CONFIG
    assert "iterations, samples, and n_variants must all be >= 1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "ds"
    assert main(_fast_args(out, ["--set", "relabel.k_rel=2"])) == EXIT_OK
    return out


def _copy_with_manifest_edit(src, dst, edit):
    shutil.copytree(src, dst)
    manifest = dst / "manifest"
    manifest.write_text(edit(manifest.read_text()))
    return dst


@pytest.mark.parametrize("edit, commands", [
    (lambda text: text + "foo = 1\n", ["stats", "evaluate"]),
    (lambda text: re.sub(r"final_tubes = .*", "final_tubes = 5", text), ["stats", "evaluate"]),
    (lambda text: text.replace("env_config = {", 'env_config = {"bogus": 1, '), ["evaluate"]),
    (lambda text: text.replace("format = 7\n", ""), ["stats", "evaluate"]),
    (lambda text: text.replace("format = 7", "format = 2"), ["stats", "evaluate"]),
    (lambda text: text + "no equals sign\n", ["stats", "evaluate"]),
    (lambda text: text + "seed = 4\n", ["stats", "evaluate"]),
    (lambda text: re.sub(r"n_generated = .*", "n_generated = -5", text), ["stats", "evaluate"]),
    (lambda text: re.sub(r"final_tubes = .*", "final_tubes = [[true, NaN]]", text),
     ["stats", "evaluate"]),
    # truncated manifests: the counts without the run's environment and tubes,
    # and then without env_config, which evaluate would replace by the defaults
    (lambda text: "".join(text.splitlines(True)[:13]), ["stats", "evaluate"]),
    (lambda text: text[:text.index("env_config = ")], ["stats", "evaluate"]),
])
def test_cli_manifest_faults_exit_4(small_dataset, tmp_path, capsys, edit, commands):
    bad = _copy_with_manifest_edit(small_dataset, tmp_path / "bad", edit)
    for command in commands:
        argv = [command, str(bad)] + (["--trials", "2"] if command == "evaluate" else [])
        assert main(argv) == EXIT_IO, command
        err = capsys.readouterr().err
        assert "i/o error" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", [3, 4, 5, 6])
def test_cli_refuses_an_old_format_dataset(small_dataset, tmp_path, capsys, fmt):
    # format 6 stored each trajectory's start state and actions (T, d_a)
    # where format 7 stores its start state and control points; format 5
    # stored its states (T+1, d_s) in place of the start state; format 4
    # also stored its control points as ``origin``, after ``actions``;
    # format 3 had them and a mass per trajectory, before ``friction_scale``
    # (and, for the block, a mass_range in env_config).  The reader reads
    # format 7 only.
    old = _copy_with_manifest_edit(small_dataset, tmp_path / "old",
                                   lambda text: text.replace("format = 7", f"format = {fmt}"))
    table = load_trajectories(str(small_dataset))
    m_points = read_manifest(str(small_dataset)).parameters["sampler.m_points"]
    actions, states = rebuild_trajectories(table, open_dataset(str(small_dataset))[1])
    columns = {}
    for name, column in (("variant", table["variant"]), ("success", table["success"]),
                         ("friction_scale", table["friction_scale"]), ("states", states),
                         ("actions", actions)):
        if name == "friction_scale" and fmt == 3:
            columns["mass"] = np.ones(len(table))
        if name == "states" and fmt == 6:
            columns["start"] = table["start"]
        else:
            columns[name] = column
    if fmt < 5:
        columns["origin"] = np.array([fit_control_points(plan, m_points).reshape(-1)
                                      for plan in actions])
    stored = np.empty(len(table), [(n, c.dtype, c.shape[1:]) for n, c in columns.items()])
    for name, column in columns.items():
        stored[name] = column
    np.save(old / "trajectories.npy", stored, allow_pickle=False)
    for argv in (["stats", str(old), "--json"], ["stats", str(old)],
                 ["evaluate", str(old), "--trials", "2"],
                 ["evaluate", str(small_dataset), "--compare", str(old), "--trials", "2"]):
        assert main(argv) == EXIT_IO, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert (f"dataset format {fmt} is not supported (only format 7 is read)"
                in captured.err)


def test_cli_mass_range_is_a_config_error_before_any_rollout(tmp_path, capsys, monkeypatch):
    # the environments have no mass: env.mass_range is an unknown setting
    from recovergen import envs, pipeline

    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before the config was checked")

    # generate rolls out through envs.lockstep, the baseline directly
    monkeypatch.setattr(envs, "rollout_batch", no_rollout)
    monkeypatch.setattr(pipeline, "rollout_batch", no_rollout)
    out = tmp_path / "never"
    for argv in (["generate", "--set", "env.mass_range=[0.5,3.0]", "--out", str(out)],
                 ["baseline", "--set", "env.mass_range=[0.5,3.0]", "--out", str(out)]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "mass_range" in err
        assert "Traceback" not in err
    assert not out.exists()


def test_cli_out_that_is_not_a_directory_is_a_config_error_before_any_rollout(
        tmp_path, capsys, monkeypatch):
    # the output directory is made after the last rollout, so a file in its
    # place must be refused before the first one
    from recovergen import envs, pipeline

    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before the output path was checked")

    monkeypatch.setattr(envs, "rollout_batch", no_rollout)
    monkeypatch.setattr(pipeline, "rollout_batch", no_rollout)
    path = tmp_path / "file"
    path.write_text("kept\n")
    for out in (path, path / "sub"):
        for command in ("generate", "baseline"):
            assert main([command, "--seed", "7", "--out", str(out)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "Traceback" not in err
            assert f"{path} is not a directory" in err
    assert path.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_cli_duplicate_manifest_key_exits_4(small_dataset, tmp_path, capsys):
    # a later line must not silently overwrite an earlier one
    bad = _copy_with_manifest_edit(small_dataset, tmp_path / "bad",
                                   lambda text: text + "n_selected = 999\n")
    lines = (bad / "manifest").read_text().splitlines()
    first = lines.index(next(ln for ln in lines if ln.startswith("n_selected =")))
    for argv in (["stats", str(bad), "--json"], ["evaluate", str(bad), "--trials", "2"]):
        assert main(argv) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert (f"line {len(lines)}: duplicate key 'n_selected', first set on line {first + 1}"
                in captured.err)


def _named_counts(text):
    """The run counts that a CLI line or a report totals line names."""
    counts = {k: int(v) for k, v in
              re.findall(r"(generated|successful|selected|relabeled) (\d+)", text)}
    records = re.search(r"wrote (\d+) records|records (\d+)", text)
    counts["records"] = int(records.group(1) or records.group(2))
    return counts


@pytest.mark.parametrize("command", ["generate", "baseline"])
def test_cli_and_report_counts_equal_stats(tmp_path, capsys, command):
    out = tmp_path / "ds"
    # the baseline runs the block under randomized friction: some rollouts fail
    argv = (_fast_args(out) if command == "generate"
            else ["baseline", "--seed", "7", "--set", "n_variants=40", "--out", str(out)])
    assert main(argv) == EXIT_OK
    line = capsys.readouterr().out
    totals = (out / "report.txt").read_text().splitlines()[-1]
    assert main(["stats", str(out), "--json"]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    want = {k: stats[k] for k in ("generated", "successful", "selected", "relabeled")}
    want["records"] = stats["records_curated"] + stats["records_relabeled"]
    assert _named_counts(line) == want == _named_counts(totals)
    if command == "generate":
        assert 0 < want["selected"] < want["generated"]
    else:   # every rollout is stored, the failed ones included
        assert 0 < want["successful"] < want["selected"] == want["generated"]


def test_cli_evaluate_rejects_negative_trials(small_dataset, capsys):
    assert main(["evaluate", str(small_dataset), "--trials", "-5"]) == EXIT_CONFIG
    assert "trials must be >= 0" in capsys.readouterr().err
    assert main(["evaluate", str(small_dataset), "--compare", str(small_dataset),
                 "--trials", "-1"]) == EXIT_CONFIG
    capsys.readouterr()
    for extra in ([], ["--compare", str(small_dataset)]):
        assert main(["evaluate", str(small_dataset), "--seed", "-1", *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err and "Traceback" not in err
    assert main(["evaluate", str(small_dataset), "--trials", "0"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["fresh_success_rate"] == 0.0 and report["fresh_ci95"] == [0.0, 1.0]


def test_cli_compare_refuses_datasets_of_different_environments(small_dataset, tmp_path,
                                                                capsys, monkeypatch):
    # small_dataset is a point_reach run; a planar_block_rotate baseline and
    # a point_reach baseline of another horizon cannot be compared with it
    from recovergen import pipeline
    block, longer = tmp_path / "block", tmp_path / "longer"
    assert main(["baseline", "--seed", "4", "--set", "n_variants=2",
                 "--out", str(block)]) == EXIT_OK
    assert main(["baseline", "--env", "point_reach", "--seed", "4", "--set", "n_variants=2",
                 "--set", "env.horizon=40", "--out", str(longer)]) == EXIT_OK
    capsys.readouterr()

    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before the environments were compared")

    monkeypatch.setattr(pipeline, "rollout_batch", no_rollout)
    for other, name in ((block, "planar_block_rotate"), (longer, "'horizon': 40")):
        for a, b in ((small_dataset, other), (other, small_dataset)):
            assert main(["evaluate", str(a), "--compare", str(b),
                         "--trials", "2"]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("config error: ")
            assert str(a) in captured.err and str(b) in captured.err
            assert name in captured.err and "environments differ" in captured.err


def test_cli_stats_reads_the_manifest_only(small_dataset, capsys, monkeypatch):
    from recovergen import dataset_io
    want = dataset_io.deserialize(str(small_dataset))
    counts = {"records_curated": len(want[0].curated),
              "records_relabeled": len(want[0].relabeled)}
    assert counts["records_relabeled"] == want[1].n_relabeled > 0

    def fail(*args, **kwargs):
        raise AssertionError("stats parsed a data file")
    for name in ("deserialize", "load_trajectories", "open_dataset", "_load_table"):
        monkeypatch.setattr(dataset_io, name, fail)
    assert main(["stats", str(small_dataset), "--json"]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    assert {k: stats[k] for k in counts} == counts


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool module is imported by --jobs > 1 runs only; every other
    # command would pay its import for nothing
    src = os.path.dirname(os.path.dirname(recovergen.__file__))
    code = ("import sys, recovergen.cli\n"
            "assert 'concurrent.futures.process' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
