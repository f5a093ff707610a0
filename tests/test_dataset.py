"""Dataset assembly, serialization round-trips, and corruption handling."""
import dataclasses
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from recovergen.dataset_io import (DatasetFormatError, DatasetManifest,
                                   DatasetRecord, _json_lines, _record_parts,
                                   dataset_stats, deserialize, export_pairs,
                                   format_stats, load_trajectories, read_manifest,
                                   serialize)
from recovergen.envs import EnvParams, Trajectory
from recovergen.relabel import RelabelPoint, RelabelTarget


def make_traj(horizon=10, seed=0, variant=0):
    rng = np.random.default_rng(seed)
    return Trajectory(states=rng.standard_normal((horizon + 1, 3)),
                      actions=rng.standard_normal((horizon, 2)),
                      success=True,
                      env_params=EnvParams(mass=1.25, friction_scale=0.97),
                      origin=rng.standard_normal(4), variant=variant)


def make_manifest(**kw):
    base = dict(env_name="point_reach", seed=3, n_generated=10,
                n_successful=8, n_selected=6)
    base.update(kw)
    return DatasetManifest(**base)


def as_relabeled(records):
    """The same values as relabeled records, which ``records`` stores."""
    return [dataclasses.replace(r, source="relabeled") for r in records]


# ---------------------------------------------------------------------------
# export_pairs


def test_export_window_count():
    traj = make_traj(horizon=60)
    records = export_pairs([traj], [], chunk_len=30)
    assert len(records) == 31  # T - k + 1 window starts


def test_export_chunk_len_one():
    traj = make_traj(horizon=10)
    records = export_pairs([traj], [], chunk_len=1)
    assert len(records) == 10
    assert all(r.action_chunk.shape == (1, 2) for r in records)


def test_export_chunks_match_source_slices():
    traj = make_traj(horizon=12)
    for rec in export_pairs([traj], [], chunk_len=5):
        assert np.array_equal(rec.action_chunk,
                              traj.actions[rec.t:rec.t + 5])
        assert rec.source == "curated"


def test_export_includes_relabels():
    traj = make_traj(horizon=12)
    target = RelabelTarget(observation=np.arange(6.0),
                           chunk=np.ones((4, 2)),
                           point=RelabelPoint(0, 3, 0.5), cost=0.1)
    records = export_pairs([traj], [target], chunk_len=5)
    relab = [r for r in records if r.source == "relabeled"]
    assert len(relab) == 1
    assert relab[0].t == 3 and relab[0].trajectory_id == 0
    assert np.array_equal(relab[0].action_chunk, np.ones((4, 2)))


def test_export_rejects_overlong_chunk():
    with pytest.raises(ValueError):
        export_pairs([make_traj(horizon=5)], [], chunk_len=6)


def test_record_rejects_bad_source():
    with pytest.raises(ValueError):
        DatasetRecord(observation=np.zeros(2), action_chunk=np.ones((1, 1)),
                      source="other", trajectory_id=0, t=0)


# ---------------------------------------------------------------------------
# serialization round trip


def test_round_trip_bitwise(tmp_path):
    trajs = [make_traj(seed=i, variant=i) for i in range(3)]
    records = export_pairs(trajs, [], chunk_len=4)
    manifest = make_manifest(final_tubes=[(0.1, 0.5)],
                             parameters={"sampler.m_points": 16},
                             env_config={"horizon": 30}, chunk_len=4)
    serialize(records, manifest, str(tmp_path), trajectories=trajs)
    records2, manifest2 = deserialize(str(tmp_path))
    assert len(records2) == len(records)
    for a, b in zip(records, records2):
        assert np.array_equal(a.observation, b.observation)
        assert np.array_equal(a.action_chunk, b.action_chunk)
        assert (a.source, a.trajectory_id, a.t) == (b.source, b.trajectory_id, b.t)
    assert manifest2 == manifest

    trajs2 = load_trajectories(str(tmp_path))
    for a, b in zip(trajs, trajs2):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.origin, b.origin)
        assert a.env_params == b.env_params
        assert (a.success, a.variant) == (b.success, b.variant)


def test_empty_dataset_round_trip(tmp_path):
    serialize([], make_manifest(n_generated=0, n_successful=0, n_selected=0),
              str(tmp_path))
    records, manifest = deserialize(str(tmp_path))
    assert records == [] and manifest.n_records == 0


def test_large_round_trip(tmp_path):
    trajs = [make_traj(horizon=40, seed=i) for i in range(30)]
    records = export_pairs(trajs, [], chunk_len=5)
    assert len(records) > 1000
    serialize(records, make_manifest(chunk_len=5), str(tmp_path), trajectories=trajs)
    records2, _ = deserialize(str(tmp_path))
    assert all(np.array_equal(a.action_chunk, b.action_chunk)
               for a, b in zip(records, records2))


def test_truncated_records_detected(tmp_path):
    trajs = [make_traj()]
    records = export_pairs(trajs, [], chunk_len=4)
    records += as_relabeled(records)
    serialize(records, make_manifest(chunk_len=4), str(tmp_path), trajectories=trajs)
    path = os.path.join(tmp_path, "records")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-2])
    with pytest.raises(DatasetFormatError, match="truncated"):
        deserialize(str(tmp_path))


def test_malformed_line_reports_location(tmp_path):
    trajs = [make_traj()]
    records = export_pairs(trajs, [], chunk_len=4)
    records += as_relabeled(records)
    serialize(records, make_manifest(chunk_len=4), str(tmp_path), trajectories=trajs)
    path = os.path.join(tmp_path, "records")
    with open(path) as fh:
        lines = fh.readlines()
    lines[2] = lines[2][:10] + "###garbage\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(DatasetFormatError, match="line 3"):
        deserialize(str(tmp_path))


def test_missing_manifest_keys_rejected(tmp_path):
    with open(tmp_path / "manifest", "w") as fh:
        fh.write("format = 2\nseed = 1\n")
    with pytest.raises(DatasetFormatError, match="missing required"):
        deserialize(str(tmp_path))


def test_missing_trajectory_dump_rejected(tmp_path):
    serialize([], make_manifest(), str(tmp_path))
    os.remove(tmp_path / "trajectories")
    with pytest.raises(DatasetFormatError, match="missing"):
        load_trajectories(str(tmp_path))
    with pytest.raises(DatasetFormatError, match="missing"):
        deserialize(str(tmp_path))


# ---------------------------------------------------------------------------
# writer bytes against the per-line json.dumps encoder it replaced


def oracle_record_line(rec):
    return json.dumps({
        "traj": rec.trajectory_id,
        "t": rec.t,
        "source": rec.source,
        "obs": rec.observation.tolist(),
        "chunk": rec.action_chunk.tolist(),
    })


def oracle_traj_line(i, traj):
    return json.dumps({
        "id": i,
        "variant": traj.variant,
        "success": bool(traj.success),
        "mass": traj.env_params.mass,
        "friction_scale": traj.env_params.friction_scale,
        "states": traj.states.tolist(),
        "actions": traj.actions.tolist(),
        "origin": None if traj.origin is None else np.asarray(traj.origin).tolist(),
    })


def oracle_text(records):
    return "".join(oracle_record_line(r) + "\n" for r in records)


def assert_bytes_match_oracle(records, trajectories=()):
    """The writer's text of any records, curated or relabeled, and the
    files of a dataset that stores the relabeled ones, equal the oracle's."""
    assert "".join(_json_lines(map(_record_parts, records))) == oracle_text(records)
    relabeled = [r for r in records if r.source == "relabeled"]
    with tempfile.TemporaryDirectory() as out:
        serialize(export_pairs(trajectories, [], 1) + relabeled, make_manifest(), out,
                  trajectories=trajectories)
        with open(os.path.join(out, "records")) as fh:
            assert fh.read() == oracle_text(relabeled)
        with open(os.path.join(out, "trajectories")) as fh:
            assert fh.read() == "".join(oracle_traj_line(i, t) + "\n"
                                        for i, t in enumerate(trajectories))


EDGE_VALUES = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
               1e16, 1e-7, 1e22, 3.0, -2.0, 0.1, 1.0 / 3.0, 2.0 ** 53]
floats = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(width=64))
few_floats = st.sampled_from(EDGE_VALUES[:6])     # forces repeated rows


def float_arrays(shape):
    return st.one_of(hnp.arrays(np.float64, shape, elements=floats),
                     hnp.arrays(np.float64, shape, elements=few_floats))


@st.composite
def record_lists(draw):
    d_obs, d_a = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    records = []
    for i in range(draw(st.integers(0, 6))):
        actions = draw(float_arrays((draw(st.integers(1, 6)), d_a)))
        k = draw(st.integers(1, len(actions)))
        for t in range(len(actions) - k + 1):
            records.append(DatasetRecord(observation=draw(float_arrays(d_obs)),
                                         action_chunk=actions[t:t + k],
                                         source="curated", trajectory_id=i, t=t))
        if draw(st.booleans()):
            chunk = draw(float_arrays((draw(st.integers(1, 4)), d_a)))
            records.append(DatasetRecord(observation=draw(float_arrays(d_obs)),
                                         action_chunk=chunk, source="relabeled",
                                         trajectory_id=i, t=draw(st.integers(0, 9))))
    return records


@st.composite
def trajectory_lists(draw):
    d_s, d_a = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    trajs = []
    for i in range(draw(st.integers(0, 4))):
        horizon = draw(st.integers(1, 5))
        origin = draw(st.one_of(st.none(), float_arrays(draw(st.integers(0, 6)))))
        trajs.append(Trajectory(states=draw(float_arrays((horizon + 1, d_s))),
                                actions=draw(float_arrays((horizon, d_a))),
                                success=draw(st.booleans()),
                                env_params=EnvParams(mass=draw(floats),
                                                     friction_scale=draw(floats)),
                                origin=origin, variant=draw(st.integers(0, 50))))
    return trajs


@given(record_lists(), trajectory_lists())
@settings(max_examples=200, deadline=None)
def test_writer_bytes_equal_json_dumps_oracle(records, trajectories):
    assert_bytes_match_oracle(records, trajectories)


def test_writer_edge_values_keep_their_own_text():
    # rows equal by value but not by bit pattern must not share text
    obs = np.array(EDGE_VALUES)
    chunk = np.array([[-0.0, 0.0], [0.0, -0.0], [np.nan, np.inf], [-np.inf, 5e-324],
                      [1e16, 1e-7], [4.0, -7.0], [0.0, 0.0], [-0.0, -0.0]])
    records = [DatasetRecord(observation=obs, action_chunk=chunk[i:i + 2],
                             source="curated", trajectory_id=0, t=i) for i in range(7)]
    records.append(DatasetRecord(observation=-obs, action_chunk=chunk[::-1],
                                 source="relabeled", trajectory_id=0, t=3))
    assert_bytes_match_oracle(records)
    text = "".join(_json_lines(map(_record_parts, records)))
    assert "[-0.0, 0.0]" in text and "[0.0, -0.0]" in text
    assert "NaN" in text and "-Infinity" in text and "5e-324" in text and "1e+16" in text


def test_writer_mixes_relabeled_and_curated_chunk_lengths():
    trajs = [make_traj(horizon=12, seed=i) for i in range(3)]
    targets = [RelabelTarget(observation=np.arange(6.0) + i,
                             chunk=make_traj(horizon=7, seed=10 + i).actions,
                             point=RelabelPoint(i, 2 * i, 0.5), cost=0.1)
               for i in range(3)]
    records = export_pairs(trajs, targets, chunk_len=4)
    assert {r.action_chunk.shape for r in records} == {(4, 2), (7, 2)}
    assert_bytes_match_oracle(records, trajs)


def test_writer_one_dimensional_and_scalar_arrays():
    records = [DatasetRecord(observation=np.float64(2.5), action_chunk=np.array([1.0, -0.0]),
                             source="curated", trajectory_id=0, t=0),
               DatasetRecord(observation=np.zeros(0), action_chunk=np.ones((2, 2, 3)),
                             source="relabeled", trajectory_id=1, t=4)]
    assert_bytes_match_oracle(records)


def test_writer_empty_record_list():
    assert_bytes_match_oracle([], [])


def test_writer_blocks_split_a_trajectorys_windows(monkeypatch):
    from recovergen import dataset_io
    trajs = [make_traj(horizon=40, seed=i) for i in range(40)]
    for traj in trajs:
        traj.actions[::3] = 0.0          # repeated rows within and across blocks
    records = export_pairs(trajs, [], chunk_len=5)
    assert len(records) > 1024 and 1024 % 36 != 0    # 36 windows per trajectory
    assert_bytes_match_oracle(records, trajs)
    monkeypatch.setattr(dataset_io, "_BLOCK_LINES", 7)
    assert_bytes_match_oracle(records, trajs)


def test_writer_trajectories_with_and_without_origin():
    trajs = [make_traj(seed=i, variant=i) for i in range(4)]
    trajs[1].origin = None
    trajs[3].origin = None
    assert_bytes_match_oracle(export_pairs(trajs, [], chunk_len=3), trajs)


def test_failed_write_keeps_previous_file_and_no_temp_file(tmp_path):
    trajs = [make_traj(horizon=40, seed=i) for i in range(40)]
    records = as_relabeled(export_pairs(trajs, [], chunk_len=5))
    serialize(records[:10], make_manifest(), str(tmp_path))
    before = (tmp_path / "records").read_bytes()
    records[-1].t = 2.5                  # fails to format in the second block
    with pytest.raises(ValueError):
        serialize(records, make_manifest(), str(tmp_path))
    assert (tmp_path / "records").read_bytes() == before
    assert not (tmp_path / "records.tmp").exists()


def test_record_ids_must_be_integers():
    rec = DatasetRecord(observation=np.zeros(2), action_chunk=np.ones((1, 1)),
                        source="curated", trajectory_id=np.int64(3), t=np.int32(4))
    assert type(rec.trajectory_id) is int and type(rec.t) is int
    with pytest.raises(TypeError):
        DatasetRecord(observation=np.zeros(2), action_chunk=np.ones((1, 1)),
                      source="curated", trajectory_id=0, t=1.5)


def test_trajectory_variant_must_be_an_integer(tmp_path):
    trajs = [make_traj(seed=0), make_traj(seed=1, variant=np.int64(2)), make_traj(seed=2)]
    assert type(trajs[1].variant) is int
    serialize(export_pairs(trajs, [], 1), make_manifest(), str(tmp_path), trajectories=trajs)
    assert [t.variant for t in load_trajectories(str(tmp_path))] == [0, 2, 0]
    with pytest.raises(TypeError):
        make_traj(variant=1.5)


def test_failed_records_write_keeps_previous_dataset_readable(tmp_path):
    trajs = [make_traj(horizon=40, seed=i) for i in range(40)]
    relabeled = as_relabeled(export_pairs(trajs, [], chunk_len=5))
    serialize(export_pairs(trajs[:2], [], 5) + relabeled[:10], make_manifest(chunk_len=5),
              str(tmp_path), trajectories=trajs[:2])
    before = {name: (tmp_path / name).read_bytes()
              for name in ("manifest", "records", "trajectories")}
    relabeled[-1].t = 2.5                # fails to format in the second block
    with pytest.raises(ValueError):
        serialize(export_pairs(trajs, [], 5) + relabeled, make_manifest(chunk_len=5),
                  str(tmp_path), trajectories=trajs)
    relabeled[-1].t = 0
    trajs[-1].variant = object()         # records succeed, trajectories fail
    with pytest.raises(TypeError):
        serialize(export_pairs(trajs, [], 5) + relabeled, make_manifest(chunk_len=5),
                  str(tmp_path), trajectories=trajs)
    assert before == {name: (tmp_path / name).read_bytes() for name in before}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
    assert len(deserialize(str(tmp_path))[0]) == 2 * 36 + 10
    assert len(load_trajectories(str(tmp_path))) == 2


# ---------------------------------------------------------------------------
# reader against the whole-file reader it replaced, and its error paths


def oracle_read_jsonl(path):
    with open(path) as fh:
        return [json.loads(raw) for raw in fh if raw.strip()]


def oracle_deserialize(out_dir, chunk_len):
    """The whole-file reader on format 2: each stored trajectory's windows,
    then the stored relabeled records."""
    curated = [DatasetRecord(observation=np.concatenate([traj.states[t], traj.states[0]]),
                             action_chunk=traj.actions[t:t + chunk_len], source="curated",
                             trajectory_id=i, t=t)
               for i, traj in enumerate(oracle_load_trajectories(out_dir))
               for t in range(traj.horizon - chunk_len + 1)]
    rows = oracle_read_jsonl(os.path.join(out_dir, "records"))
    return curated + [DatasetRecord(observation=np.array(row["obs"], dtype=float),
                                    action_chunk=np.array(row["chunk"], dtype=float),
                                    source=row["source"], trajectory_id=row["traj"],
                                    t=row["t"])
                      for row in rows]


def oracle_load_trajectories(out_dir):
    rows = oracle_read_jsonl(os.path.join(out_dir, "trajectories"))
    return [Trajectory(states=np.array(row["states"], dtype=float),
                       actions=np.array(row["actions"], dtype=float),
                       success=bool(row["success"]),
                       env_params=EnvParams(mass=row["mass"],
                                            friction_scale=row["friction_scale"]),
                       origin=None if row["origin"] is None
                       else np.array(row["origin"], dtype=float),
                       variant=int(row["variant"]))
            for row in rows]


def same_value(a, b):
    """Bitwise for arrays (dtype, shape, bytes); type and repr otherwise,
    so NaN equals NaN and -0.0 differs from 0.0."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())
    return type(a) is type(b) and repr(a) == repr(b)


def assert_reader_matches_oracle(records, trajectories, chunk_len):
    with tempfile.TemporaryDirectory() as out:
        serialize(records, make_manifest(chunk_len=chunk_len), out, trajectories=trajectories)
        got, want = deserialize(out)[0], oracle_deserialize(out, chunk_len)
        assert len(got) == len(want) == len(records)
        for a, b in zip(got, want):
            for name in ("observation", "action_chunk", "source", "trajectory_id", "t"):
                assert same_value(getattr(a, name), getattr(b, name)), name
        got, want = load_trajectories(out), oracle_load_trajectories(out)
        assert len(got) == len(want) == len(trajectories)
        for a, b in zip(got, want):
            for name in ("states", "actions", "success", "origin", "variant"):
                assert same_value(getattr(a, name), getattr(b, name)), name
            for name in ("mass", "friction_scale"):
                assert same_value(getattr(a.env_params, name), getattr(b.env_params, name))


@st.composite
def datasets(draw):
    """(records, trajectories, chunk_len): the curated windows of the drawn
    trajectories, then the relabeled records of a drawn record list."""
    trajectories = draw(trajectory_lists())
    chunk_len = draw(st.integers(1, min((t.horizon for t in trajectories), default=1)))
    relabeled = [r for r in draw(record_lists()) if r.source == "relabeled"]
    return export_pairs(trajectories, [], chunk_len) + relabeled, trajectories, chunk_len


@given(datasets())
@settings(max_examples=100, deadline=None)
def test_reader_equals_whole_file_oracle(dataset):
    assert_reader_matches_oracle(*dataset)


def test_reader_equals_oracle_across_blocks_and_edge_values():
    trajs = [make_traj(horizon=40, seed=i, variant=i % 3) for i in range(30)]
    trajs[4].origin = None
    trajs[7].states[3] = [-0.0, np.nan, np.inf]
    records = export_pairs(trajs, [], chunk_len=5)
    assert_reader_matches_oracle(records + as_relabeled(records), trajs, 5)


def _dataset(tmp_path):
    trajs = [make_traj(seed=i, variant=i) for i in range(3)]
    records = export_pairs(trajs, [], chunk_len=4)
    serialize(records + as_relabeled(records[:5]), make_manifest(chunk_len=4), str(tmp_path),
              trajectories=trajs)
    return str(tmp_path)


READERS = {"records": deserialize, "trajectories": load_trajectories}
ARRAY_KEY = {"records": "chunk", "trajectories": "actions"}


def _edit_line(path, lineno, edit):
    with open(path) as fh:
        lines = fh.readlines()
    row = json.loads(lines[lineno - 1])
    edit(row)
    lines[lineno - 1] = json.dumps(row) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _rewrite(path, edit):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(edit(lines))


def _raises_naming(path, *patterns):
    return pytest.raises(DatasetFormatError,
                         match=".*".join(re.escape(p) for p in (path,) + patterns))


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_reports_line_and_offset_of_non_json(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name)
    _rewrite(path, lambda lines: lines[:2] + [lines[2][:10] + "###garbage\n"] + lines[3:])
    with _raises_naming(path, "line 3, offset 10"):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_missing_key(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name)
    _edit_line(path, 2, lambda row: row.pop(ARRAY_KEY[name]))
    with _raises_naming(path, "line 2: bad record", ARRAY_KEY[name]):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_ragged_array(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name)
    _edit_line(path, 1, lambda row: row.update({ARRAY_KEY[name]: [[1.0, 2.0], [3.0]]}))
    with _raises_naming(path, "line 1: bad record"):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_empty_chunk(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name)
    _edit_line(path, 3, lambda row: row.update({ARRAY_KEY[name]: []}))
    with _raises_naming(path, "line 3: bad record"):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_too_few_and_too_many_lines(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name)
    with open(path) as fh:
        lines = fh.readlines()
    n = len(lines)
    _rewrite(path, lambda lines: lines[:-1])
    with _raises_naming(path, f"expected {n} lines per manifest, found {n - 1}"):
        READERS[name](out)
    _rewrite(path, lambda _: lines + lines[:2])
    with _raises_naming(path, f"expected {n} lines per manifest, found {n + 2}"):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_skips_blank_lines_without_counting_them(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name)
    want = READERS[name](out)
    _rewrite(path, lambda lines: ["\n"] + lines[:2] + ["   \n", "\t\n"] + lines[2:] + ["\n"])
    got = READERS[name](out)
    if name == "records":
        got, want = got[0], want[0]
    assert len(got) == len(want)
    key = "action_chunk" if name == "records" else "actions"
    assert all(np.array_equal(getattr(a, key), getattr(b, key)) for a, b in zip(got, want))
    # line numbers count the blank lines
    _rewrite(path, lambda lines: lines[:4] + ["{broken\n"] + lines[5:])
    with _raises_naming(path, "line 5, offset 1"):
        READERS[name](out)


def test_reader_bad_record_is_reported_before_a_wrong_line_count(tmp_path):
    # the reader streams, so a bad record is found before the file ends
    out = _dataset(tmp_path)
    path = os.path.join(out, "records")
    _edit_line(path, 1, lambda row: row.pop("obs"))
    _rewrite(path, lambda lines: lines[:-1])
    with _raises_naming(path, "line 1: bad record"):
        deserialize(out)


# ---------------------------------------------------------------------------
# format 2: curated windows rebuilt from trajectories, strict manifest


def _set_manifest_line(out, key, value=None):
    """Replace the ``key`` line of the manifest, drop it (value None), or
    append it when absent."""
    path = os.path.join(out, "manifest")
    with open(path) as fh:
        lines = [ln for ln in fh if ln.partition("=")[0].strip() != key]
    if value is not None:
        lines.append(f"{key} = {value}\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


ALL_READERS = [read_manifest, deserialize, load_trajectories]


def test_manifest_pins_format_and_chunk_len(tmp_path):
    out = _dataset(tmp_path)
    with open(os.path.join(out, "manifest")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "format = 2" and "chunk_len = 4" in lines
    assert read_manifest(out).chunk_len == 4
    with open(os.path.join(out, "records")) as fh:
        assert len(fh.readlines()) == 5           # the relabeled records only


@pytest.mark.parametrize("value", [None, "1", "3"])
def test_any_format_but_2_is_rejected(tmp_path, value):
    out = _dataset(tmp_path)
    _set_manifest_line(out, "format", value)
    for reader in ALL_READERS:
        with pytest.raises(DatasetFormatError, match=f"format {value} is not supported"):
            reader(out)


def test_truncated_trajectories_detected_by_both_readers(tmp_path):
    out = _dataset(tmp_path)
    path = os.path.join(out, "trajectories")
    _rewrite(path, lambda lines: lines[:-1])
    for reader in (deserialize, load_trajectories):
        with _raises_naming(path, "expected 3 lines per manifest, found 2 (truncated?)"):
            reader(out)


@pytest.mark.parametrize("key, value, message", [
    ("foo", "1", "unknown key 'foo'"),
    ("final_tubes", "5", "final_tubes must be a list"),
    ("final_tubes", "[[0.1]]", "final_tubes must be"),
    ("final_tubes", '[["a", 0.2]]', "final_tubes must be"),
    ("env_config", "[]", "env_config must be a dict"),
    ("parameters", "3", "parameters must be a dict"),
    ("n_records", "x", "invalid literal"),
    ("env_config", "{bad", "line"),
])
def test_manifest_faults_raise_dataset_format_error(tmp_path, key, value, message):
    out = _dataset(tmp_path)
    _set_manifest_line(out, key, value)
    for reader in ALL_READERS:
        with pytest.raises(DatasetFormatError, match=re.escape(message)):
            reader(out)


@pytest.mark.parametrize("env_config, env_name", [('{"bogus": 1}', "point_reach"),
                                                  ("{}", "no_such_env")])
def test_environment_the_manifest_rejects_is_a_format_error(tmp_path, env_config, env_name):
    out = _dataset(tmp_path)
    _set_manifest_line(out, "env_config", env_config)
    _set_manifest_line(out, "env_name", env_name)
    for reader in (deserialize, load_trajectories):
        with pytest.raises(DatasetFormatError, match="environment"):
            reader(out)


@pytest.mark.parametrize("key, value", [("n_records", 27), ("chunk_len", 0),
                                        ("chunk_len", 11)])
def test_deserialize_checks_counts_and_chunk_len(tmp_path, key, value):
    out = _dataset(tmp_path)                       # 3 x 7 windows + 5 relabeled
    _set_manifest_line(out, key, value)
    with pytest.raises(DatasetFormatError, match="n_records|chunk_len"):
        deserialize(out)


def test_records_file_holds_relabeled_records_only(tmp_path):
    out = _dataset(tmp_path)
    path = os.path.join(out, "records")
    _edit_line(path, 2, lambda row: row.update({"source": "curated"}))
    with _raises_naming(path, "line 2: bad record", "only relabeled"):
        deserialize(out)


def test_serialize_needs_the_trajectories_windows_first(tmp_path):
    trajs = [make_traj(seed=i) for i in range(2)]
    records = export_pairs(trajs, [], chunk_len=4)
    relabeled = as_relabeled(records[:2])
    bad = [(records, (), 4),                          # curated without trajectories
           (records[:-1] + relabeled, trajs, 4),      # a window missing
           (relabeled + records, trajs, 4),           # relabeled before curated
           (records[::-1], trajs, 4),                 # windows out of order
           (records + relabeled, trajs, 3),           # windows of another length
           (records + records[:1], trajs, 4)]         # a curated record after them
    for recs, trajectories, k in bad:
        with pytest.raises(ValueError, match="windows of the trajectories"):
            serialize(recs, make_manifest(chunk_len=k), str(tmp_path),
                      trajectories=trajectories)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# stats


def test_omission_fraction():
    m = make_manifest(n_successful=96, n_selected=84)
    assert np.isclose(m.omission_fraction, 0.125)
    assert make_manifest(n_successful=0, n_selected=0).omission_fraction == 0.0


def test_dataset_stats_counts_and_render(tmp_path):
    trajs = [make_traj(horizon=8)]
    target = RelabelTarget(observation=np.zeros(6), chunk=np.ones((3, 2)),
                           point=RelabelPoint(0, 1, 0.2), cost=0.0)
    records = export_pairs(trajs, [target], chunk_len=4)
    manifest = make_manifest(final_tubes=[(0.05, 0.2)], chunk_len=4)
    serialize(records, manifest, str(tmp_path), trajectories=trajs)
    stats = dataset_stats(read_manifest(str(tmp_path)))
    assert stats == dataset_stats(manifest)
    assert stats["records_curated"] == 5
    assert stats["records_relabeled"] == 1
    assert np.isclose(stats["omission_fraction"], 1.0 - 6 / 8)
    text = format_stats(stats)
    assert "omission fraction" in text
    assert "variant 0 final tube" in text
