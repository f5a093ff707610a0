"""Tests of the benchmark's own arithmetic and of its trace aggregation.

    python3 -m pytest bench/tests -q
"""
import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import benchstats  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# ---------------------------------------------------------------------------
# self time


def test_self_time_nested_spans():
    # root [0, 10] > child [2, 5] > grandchild [3, 4]
    parents = [-1, 0, 1]
    starts = [0.0, 2.0, 3.0]
    ends = [10.0, 5.0, 4.0]
    assert benchstats.self_times(parents, starts, ends) == [7.0, 2.0, 1.0]


def test_self_time_disjoint_siblings():
    parents = [-1, 0, 0]
    starts = [0.0, 1.0, 5.0]
    ends = [10.0, 2.0, 7.0]
    assert benchstats.self_times(parents, starts, ends) == [7.0, 1.0, 2.0]


def test_self_time_overlapping_siblings_count_once():
    parents = [-1, 0, 0]
    starts = [0.0, 1.0, 3.0]
    ends = [10.0, 4.0, 6.0]
    assert benchstats.self_times(parents, starts, ends)[0] == pytest.approx(5.0)


def test_self_time_child_clipped_to_parent():
    parents = [-1, 0]
    starts = [1.0, 0.5]
    ends = [2.0, 1.5]
    assert benchstats.self_times(parents, starts, ends)[0] == pytest.approx(0.5)


def test_self_times_sum_to_root_duration():
    parents = [-1, 0, 1, 1, 0, 4]
    starts = [0.0, 1.0, 1.5, 2.5, 4.0, 4.5]
    ends = [9.0, 3.0, 2.0, 2.75, 8.0, 6.0]
    assert sum(benchstats.self_times(parents, starts, ends)) == pytest.approx(9.0)


def test_covered_merges_and_keeps_gaps():
    assert benchstats.covered([]) == 0.0
    assert benchstats.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert benchstats.covered([(3, 4), (0, 10)]) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# order statistics


def test_median_and_quartiles_match_statistics():
    values = [7.9, 8.4, 7.2, 9.1, 8.0, 7.7, 8.8, 8.3, 7.5, 8.1]
    q1, q2, q3 = benchstats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == benchstats.median(values) == statistics.median(values)


def test_quartiles_small_samples():
    assert benchstats.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert benchstats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert benchstats.median([3.0, 1.0]) == 2.0
    with pytest.raises(ValueError):
        benchstats.quartiles([])


def test_summary():
    values = [1.0, 2.0, 3.0, 4.0]
    assert benchstats.summary(values) == {"median": 2.5, "q1": 1.25, "q3": 3.75, "n": 4}


# ---------------------------------------------------------------------------
# metric names and failure counting


@pytest.mark.parametrize("name", ["run_s", "setup_s", "envs.steps", "9lives",
                                  "curator.state_distances.calls", "a-b", "x" * 64])
def test_valid_metric_names(name):
    assert benchstats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", ".hidden", "_x", "has space", "a/b", "µs",
                                  "x" * 65, "tab\t", None])
def test_invalid_metric_names(name):
    assert not benchstats.valid_metric_name(name)


def test_fail_frac():
    assert benchstats.fail_frac(10, 0) == 0.0
    assert benchstats.fail_frac(4, 1) == 0.25
    with pytest.raises(ValueError):
        benchstats.fail_frac(0, 0)
    with pytest.raises(ValueError):
        benchstats.fail_frac(2, 3)


def test_run_counts_each_failed_operation_once(tmp_path):
    r = run.Run(seed=7, seconds=1, work=tmp_path)
    assert r.record("operation", [])
    assert not r.record("operation", ["exit 1", "output bytes differ"])
    assert r.record("operation", [])
    assert (r.attempted, r.failed) == (3, 1)
    assert benchstats.fail_frac(r.attempted, r.failed) == pytest.approx(1 / 3)
    assert len(r.errors) == 2


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code that measures it


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layer == {n: (u, b) for n, (u, b, _, _) in run.LAYER_METRICS.items()}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert benchstats.valid_metric_name(name), name
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


# ---------------------------------------------------------------------------
# trace recording and aggregation


class _Batch:
    def __init__(self, rows):
        self.ndim, self.shape = 2, (rows, 7)


def test_trace_round_trip_counts_rows_and_relabel_ancestry(tmp_path):
    t = tracer.Tracer()
    step = t.wrap("envs.step", "envs", lambda env, state: None)
    rollout = t.wrap("envs.rollout", "envs",
                     lambda env, s0: [step(env, s0) for _ in range(3)])

    def _relabel(points):
        rollout(None, _Batch(4))
        return points
    relabel = t.wrap("relabel.relabel_dataset", "relabel", _relabel)

    rollout(None, [0.0] * 7)          # one row, outside relabeling
    assert relabel(["p1", "p2"]) == ["p1", "p2"]
    prefix = str(tmp_path / "spans")
    t.write(prefix, op_id=3)

    agg = run.aggregate(prefix)
    assert agg["fn"]["envs.step"]["calls"] == 6
    assert agg["fn"]["envs.step"]["rows"] == 3 * 1 + 3 * 4
    assert agg["fn"]["envs.rollout"]["rows"] == 5
    assert agg["relabel_rollouts"] == 4
    assert agg["counters"] == {"emitted": 2}
    meta, fn, parent, rows, start, end = tracer.read_spans(prefix)
    roots = sum(end[i] - start[i] for i in range(len(fn)) if parent[i] < 0)
    assert sum(agg["layer_self"].values()) == pytest.approx(roots, rel=1e-9)
    assert meta["op_id"] == 3 and list(rows) == [1, 1, 1, 1, 1, 4, 4, 4, 4]


def test_layer_values_mark_missing_names_absent():
    agg = {"fn": {"envs.step": {"calls": 4, "rows": 8, "incl_s": 2e-5}},
           "layer_self": {"envs": 1e-5}, "stages": {}, "relabel_rollouts": 0,
           "counters": {}, "bytes_read": 0, "bytes_written": 0,
           "cpu_per_wall": 1.0, "overhead_s": 0.1}
    values, absent = run.layer_values(agg)
    assert values["envs.steps"] == 8
    assert values["envs.rows_per_call"] == 2.0
    assert values["envs.us_per_step"] == pytest.approx(2.5)
    assert "envs.rollouts" in absent and "relabel.emitted" in absent
    assert set(values) | set(absent) == set(run.LAYER_METRICS)


def test_add_sums_the_processes_of_one_operation():
    a = {"fn": {"x": {"calls": 1, "incl_s": 0.5}}, "bytes_read": 10, "absent": ["p"]}
    b = {"fn": {"x": {"calls": 2, "incl_s": 0.25}, "y": {"calls": 1, "incl_s": 1.0}},
         "bytes_read": 5, "absent": ["q"]}
    out = run._add(a, b)
    assert out["fn"] == {"x": {"calls": 3, "incl_s": 0.75}, "y": {"calls": 1, "incl_s": 1.0}}
    assert out["bytes_read"] == 15
    assert out["absent"] == ["p", "q"]
