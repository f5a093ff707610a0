"""Dataset assembly, serialization round-trips, and corruption handling."""
import ast
import dataclasses
import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from recovergen.cli import main as cli_main
from recovergen.dataset_io import (DatasetFormatError, DatasetManifest, Pairs,
                                   dataset_stats, deserialize, export_pairs, format_stats,
                                   load_trajectories, open_dataset, read_manifest,
                                   serialize)
from recovergen import envs
from recovergen.envs import make_env, rollout_batch, trajectory_table
from recovergen.pipeline import evaluate_replay
from recovergen.sampler import decode

D_S, D_A = 4, 2     # state and action sizes of point_reach, make_manifest's environment
REACH = make_env("point_reach")


def rolled_out(starts, actions, success, friction, variant=0, control_points=None):
    """A trajectory table whose states ``rollout_batch`` rolls out from the
    start states ``starts`` (n, d_s) under ``actions`` and ``friction`` in
    make_manifest's environment, as in every table the package writes: the
    states that the readers rebuild.  Edge values roll out without a
    warning, as the readers rebuild them."""
    with np.errstate(all="ignore"):
        states = rollout_batch(REACH, starts, actions, friction)[0]
    return trajectory_table(states, actions, success, friction, variant, control_points)


def make_traj(horizon=10, seed=0, variant=0, start=None, m_points=None):
    """A one-row trajectory table, from a random start state (or ``start``)
    under random actions, or under the decode of ``m_points`` random
    control points."""
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((1, D_S)) if start is None else np.array([start], float)
    if m_points is None:
        return rolled_out(starts, rng.standard_normal((1, horizon, D_A)), True, 0.97, variant)
    points = rng.standard_normal((1, m_points, D_A))
    return rolled_out(starts, decode(points, horizon), True, 0.97, variant, points)


def stack(trajs):
    """The one-row tables ``trajs`` as one trajectory table, a record
    array (an empty one of horizon 10 when there are none)."""
    return np.concatenate(list(trajs) or [make_traj()[:0]]).view(np.recarray)


def fitting_manifest(trajs, **kw):
    """make_manifest, its horizon the length of the plans of ``trajs``."""
    return make_manifest(env_config={"horizon": trajs.dtype["actions"].shape[0]}, **kw)


def make_manifest(**kw):
    """A point_reach manifest; its horizon, 10 unless ``env_config`` says
    otherwise, is the length of make_traj's plans."""
    base = dict(env_name="point_reach", seed=3, n_generated=10,
                n_successful=8, n_selected=6, env_config={"horizon": 10})
    base.update(kw)
    return DatasetManifest(**base)


OBSERVE = make_env("point_reach").observe


def windows(trajs, chunk_len):
    """The curated windows of the trajectory table ``trajs``, as
    ``export_pairs`` makes them."""
    return export_pairs(trajs["states"], trajs["actions"], chunk_len, OBSERVE)


def make_records(obs, chunk, traj=0, t=0):
    """A table with the fields of ``records.npy`` whose row j holds
    ``traj[j]``, ``t[j]``, ``obs[j]`` and ``chunk[j]`` (``traj`` and ``t``
    may be one number for every row); each field takes the shape of its
    values, so a table of shapes no reader accepts can be built too."""
    n = len(obs)
    return _rebuild(np.zeros(n, [("traj", "<i8"), ("t", "<i8")]),
                    traj=np.broadcast_to(np.asarray(traj, "<i8"), n),
                    t=np.broadcast_to(np.asarray(t, "<i8"), n),
                    obs=np.asarray(obs, float), chunk=np.asarray(chunk, float))


def same_table(a, b):
    """Bitwise: equal dtypes, lengths and bytes."""
    return a.dtype == b.dtype and len(a) == len(b) and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# export_pairs


def test_export_window_count():
    traj = make_traj(horizon=60)
    assert len(windows(traj, chunk_len=30)) == 31  # T - k + 1 window starts


def test_export_chunk_len_one():
    traj = make_traj(horizon=10)
    table = windows(traj, chunk_len=1)
    assert len(table) == 10
    assert table.dtype["chunk"].shape == (1, 2)


def test_export_chunks_match_source_slices():
    trajs = stack(make_traj(horizon=12, seed=i) for i in range(3))
    table = windows(trajs, chunk_len=5)
    assert table.dtype.names == ("traj", "t", "obs", "chunk")
    assert table["traj"].tolist() == [i for i in range(3) for _ in range(8)]
    assert table["t"].tolist() == list(range(8)) * 3
    for row in table:
        traj = trajs[row["traj"]]
        assert bits(row["chunk"]) == bits(traj.actions[row["t"]:row["t"] + 5])
        assert bits(row["obs"]) == bits(OBSERVE(traj.states[row["t"]], traj.states[0]))


def test_export_rejects_overlong_chunk():
    with pytest.raises(ValueError):
        windows(make_traj(horizon=5), chunk_len=6)


# ---------------------------------------------------------------------------
# serialization round trip


def test_round_trip_bitwise(tmp_path):
    trajs = stack(make_traj(seed=i, variant=i) for i in range(3))
    curated = windows(trajs, chunk_len=4)
    manifest = make_manifest(final_tubes=[(0.1, 0.5)],
                             parameters={"sampler.m_points": 16},
                             env_config={"horizon": 10}, chunk_len=4)
    serialize(manifest, str(tmp_path), trajs, curated[:3])
    pairs, manifest2 = deserialize(str(tmp_path))
    assert len(pairs) == len(curated) + 3 == manifest2.n_records
    assert same_table(pairs.curated, curated)
    assert same_table(pairs.relabeled, curated[:3])
    assert manifest2 == manifest

    assert same_table(load_trajectories(str(tmp_path)), trajs)


def test_empty_dataset_round_trip(tmp_path):
    serialize(make_manifest(n_generated=0, n_successful=0, n_selected=0), str(tmp_path),
              stack([]))
    pairs, manifest = deserialize(str(tmp_path))
    assert len(pairs) == len(pairs.curated) == len(pairs.relabeled) == manifest.n_records == 0


def test_large_round_trip(tmp_path):
    trajs = stack(make_traj(horizon=40, seed=i) for i in range(30))
    curated = windows(trajs, chunk_len=5)
    assert len(curated) > 1000
    serialize(fitting_manifest(trajs, chunk_len=5), str(tmp_path), trajs)
    pairs, manifest = deserialize(str(tmp_path))
    assert same_table(pairs.curated, curated)
    assert len(pairs) == len(curated) == manifest.n_records


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_round_trip_keeps_every_bit_of_edge_values(tmp_path):
    # a quiet NaN with a payload and a negative signalling NaN keep their bits
    nans = np.array([0x7FF8_0000_DEAD_BEEF, 0xFFF0_0000_0000_0001], np.uint64).view(np.float64)
    edge = np.concatenate([[-0.0, np.inf, -np.inf, 5e-324, 1e16, -5e-324], nans])
    # horizon 4, so that the 4-step chunk fits; chunk_len 4 gives one window
    start = edge[[0, 6, 1, 7]]          # the start state is stored, both NaNs too
    (traj,) = rolled_out(start[None], np.resize(edge, (1, 4, D_A)), False, nans[0], 3)
    relabeled = make_records([edge[::-1]], [edge.reshape(4, D_A)])
    serialize(fitting_manifest(traj[None], chunk_len=4), str(tmp_path), traj[None], relabeled)
    (got,) = load_trajectories(str(tmp_path))
    for name in ("states", "actions", "control_points"):
        assert bits(getattr(got, name)) == bits(traj[name]), name
    assert struct.pack("<d", got.friction_scale) == struct.pack("<d", nans[0])
    pairs = deserialize(str(tmp_path))[0]
    (curated,), (stored,) = pairs.curated, pairs.relabeled
    assert bits(curated["obs"]) == bits(np.concatenate([start, start]))
    assert bits(stored["obs"]) == bits(edge[::-1])
    assert bits(stored["chunk"]) == bits(edge.reshape(4, D_A))


def test_truncated_records_detected(tmp_path):
    trajs = make_traj()
    serialize(make_manifest(chunk_len=4), str(tmp_path), trajs, windows(trajs, chunk_len=4))
    path = os.path.join(tmp_path, "records.npy")
    _truncate(path)
    with _raises_naming(path, "not a readable .npy array"):
        deserialize(str(tmp_path))


def test_malformed_line_reports_location(tmp_path):
    # the .npy header is one text line; a damaged one is refused, naming the file
    out = _dataset(tmp_path)
    path = os.path.join(out, "records.npy")
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data.replace(b"'descr'", b"'dexcr'", 1))
    with _raises_naming(path, "not a readable .npy array"):
        deserialize(out)


@pytest.mark.parametrize("keep, missing", [
    pytest.param(None, "env_name, source, iterations", id="format-and-seed-only"),
    # the counts are all there, but not the run's environment and tubes
    pytest.param(13, "chunk_len, env_config, parameters, final_tubes", id="cut-after-line-13"),
    # a manifest without env_config would be replayed under the default physics
    pytest.param(14, "env_config, parameters, final_tubes", id="cut-after-chunk_len"),
])
def test_missing_manifest_keys_rejected(tmp_path, keep, missing):
    # every key is required: none is filled in with a default
    path = os.path.join(tmp_path, "manifest")
    if keep is None:
        with open(path, "w") as fh:
            fh.write("format = 7\nseed = 1\n")
    else:
        _dataset(tmp_path)
        _rewrite(path, lambda lines: lines[:keep])
    for reader in ALL_READERS:
        with _raises_naming(path, f"missing required manifest keys: {missing}"):
            reader(str(tmp_path))


def test_missing_trajectory_dump_rejected(tmp_path):
    serialize(make_manifest(), str(tmp_path), stack([]))
    os.remove(tmp_path / "trajectories.npy")
    with pytest.raises(DatasetFormatError, match="missing"):
        load_trajectories(str(tmp_path))
    with pytest.raises(DatasetFormatError, match="missing"):
        deserialize(str(tmp_path))


# ---------------------------------------------------------------------------
# what formats 3 to 7 load keeps the bytes of the per-line json.dumps
# encoding of format 2, without its ``mass`` key, and since format 5
# without its ``origin``


def oracle_record_line(traj, t, source, obs, chunk):
    return json.dumps({
        "traj": int(traj),
        "t": int(t),
        "source": source,
        "obs": obs.tolist(),
        "chunk": chunk.tolist(),
    })


def oracle_traj_line(i, row):
    """Format 2's line of the trajectory table row ``row``, without the
    ``mass`` and ``origin`` that format 2 also stored."""
    return json.dumps({
        "id": i,
        "variant": int(row["variant"]),
        "success": bool(row["success"]),
        "friction_scale": float(row["friction_scale"]),
        "states": row["states"].tolist(),
        "actions": row["actions"].tolist(),
    })


def oracle_rows_text(table, source):
    return "".join(oracle_record_line(r["traj"], r["t"], source, r["obs"], r["chunk"]) + "\n"
                   for r in table)


def oracle_text(pairs):
    """The oracle lines of ``Pairs``: the curated rows, then the relabeled."""
    return oracle_rows_text(pairs.curated, "curated") + oracle_rows_text(pairs.relabeled,
                                                                         "relabeled")


def oracle_traj_text(trajectories):
    return "".join(oracle_traj_line(i, t) + "\n" for i, t in enumerate(trajectories))


def assert_round_trip_keeps_oracle_text(trajectories, relabeled, chunk_len):
    """Every pair and trajectory read back encodes, with the json.dumps
    oracle, to the text of what was written."""
    with tempfile.TemporaryDirectory() as out:
        serialize(fitting_manifest(trajectories, chunk_len=chunk_len), out, trajectories,
                  relabeled)
        assert oracle_traj_text(load_trajectories(out)) == oracle_traj_text(trajectories)
        want = (oracle_rows_text(windows(trajectories, chunk_len), "curated")
                + oracle_rows_text(relabeled, "relabeled"))
        assert oracle_text(deserialize(out)[0]) == want


EDGE_VALUES = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
               1e16, 1e-7, 1e22, 3.0, -2.0, 0.1, 1.0 / 3.0, 2.0 ** 53]
floats = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(width=64))
few_floats = st.sampled_from(EDGE_VALUES[:6])     # forces repeated rows


def float_arrays(shape):
    return st.one_of(hnp.arrays(np.float64, shape, elements=floats),
                     hnp.arrays(np.float64, shape, elements=few_floats))


@st.composite
def datasets(draw):
    """(trajectory table, relabeled records table, chunk_len) as the
    package builds them: one shape per field, each row's actions decoded
    from its 2 <= M <= T control points and its states rolled out from its
    start state."""
    horizon = draw(st.integers(2, 5))
    n = draw(st.integers(0, 4))
    points = draw(float_arrays((n, draw(st.integers(2, horizon)), D_A)))
    with np.errstate(all="ignore"):
        actions = decode(points, horizon)
    trajectories = rolled_out(
        draw(float_arrays((n, D_S))), actions,
        draw(hnp.arrays(bool, n)),
        draw(float_arrays(n)),
        draw(hnp.arrays(np.int64, n, elements=st.integers(0, 50))), points)
    # each record's chunk fits in a stored plan: traj in [0, n), t in [0, T - H]
    chunk = draw(st.integers(1, horizon))
    rows = [(draw(st.integers(0, n - 1)), draw(st.integers(0, horizon - chunk)),
             draw(float_arrays(2 * D_S)), draw(float_arrays((chunk, D_A))))
            for _ in range(draw(st.integers(0, 6 if n else 0)))]
    traj, t, obs, chunks = zip(*rows) if rows else ((), (), (), ())
    relabeled = make_records(np.reshape(obs, (len(rows), 2 * D_S)),
                             np.reshape(chunks, (len(rows), chunk, D_A)), traj, t)
    return trajectories, relabeled, draw(st.integers(1, horizon))


@given(datasets())
@settings(max_examples=200, deadline=None)
def test_writer_bytes_equal_json_dumps_oracle(dataset):
    assert_round_trip_keeps_oracle_text(*dataset)


def test_writer_edge_values_keep_their_own_text(tmp_path):
    # values equal by value but not by bit pattern keep their own text
    obs = np.array(EDGE_VALUES[:2 * D_S])
    chunk = np.array([[-0.0, 0.0], [0.0, -0.0], [np.nan, np.inf], [-np.inf, 5e-324],
                      [1e16, 1e-7], [4.0, -7.0], [0.0, 0.0], [-0.0, -0.0]])
    relabeled = make_records([obs if i % 2 else -obs for i in range(7)],
                             [chunk[i:i + 2] for i in range(7)], t=np.arange(7))
    serialize(make_manifest(), str(tmp_path), make_traj(), relabeled)
    text = oracle_rows_text(deserialize(str(tmp_path))[0].relabeled, "relabeled")
    assert text == oracle_rows_text(relabeled, "relabeled")
    assert "[-0.0, 0.0]" in text and "[0.0, -0.0]" in text
    assert "NaN" in text and "-Infinity" in text and "5e-324" in text and "1e+16" in text


def test_writer_mixes_relabeled_and_curated_chunk_lengths(tmp_path):
    trajs = stack(make_traj(horizon=12, seed=i) for i in range(3))
    relabeled = make_records([np.arange(8.0) + i for i in range(3)],
                             [make_traj(horizon=7, seed=10 + i)["actions"][0] for i in range(3)],
                             np.arange(3), 2 * np.arange(3))
    serialize(fitting_manifest(trajs, chunk_len=4), str(tmp_path), trajs, relabeled)
    pairs = deserialize(str(tmp_path))[0]
    assert (pairs.curated.dtype["chunk"].shape, pairs.relabeled.dtype["chunk"].shape) \
        == ((4, 2), (7, 2))
    assert_round_trip_keeps_oracle_text(trajs, relabeled, 4)


def test_writer_one_dimensional_and_scalar_arrays(tmp_path):
    # each field keeps its number of axes; anything else is refused unwritten
    scalar_obs = make_records([2.5], [np.ones((2, 2))])
    cube_chunk = make_records([np.zeros(8)], [np.ones((2, 2, 3))], 1, 4)
    flat = _rebuild(make_traj(), states=make_traj()["states"].reshape(1, -1))
    for trajs, relabeled, field in ((stack([]), scalar_obs, "records: .* wrong: obs$"),
                                    (stack([]), cube_chunk, "records: .* wrong: chunk$"),
                                    (flat, None, "trajectories: .* wrong: states$")):
        with pytest.raises(ValueError, match=field):
            serialize(make_manifest(), str(tmp_path), trajs, relabeled)
    assert list(tmp_path.iterdir()) == []


def test_writer_empty_record_list(tmp_path):
    serialize(make_manifest(), str(tmp_path / "none"), stack([]))
    serialize(make_manifest(chunk_len=4), str(tmp_path / "curated"), make_traj())
    for name, n_curated in (("none", 0), ("curated", 7)):
        out = str(tmp_path / name)
        assert len(np.load(os.path.join(out, "records.npy"), allow_pickle=False)) == 0
        pairs = deserialize(out)[0]
        assert len(pairs) == len(pairs.curated) == n_curated and len(pairs.relabeled) == 0


def test_writer_refuses_an_origin_column(tmp_path):
    # format 4 stored each trajectory's control points as ``origin``; a
    # trajectory table has one layout, and one with that column is refused
    # unwritten
    trajs = stack(make_traj(seed=i, variant=i) for i in range(4))
    for origin in (np.zeros((4, 12)), np.zeros(4)):
        with pytest.raises(ValueError, match=r"trajectories: fields \(.*'origin'\), expected"):
            serialize(make_manifest(), str(tmp_path / "out"), _rebuild(trajs, origin=origin))
    assert list(tmp_path.iterdir()) == []


REAL_WRITE_ARRAY = np.lib.format.write_array


def fail_npy_write(monkeypatch, nth):
    """The ``nth`` .npy write of the next serialize writes a few bytes and
    fails as a full disk would."""
    calls = []

    def write_array(fh, array, *args, **kwargs):
        calls.append(array)
        if len(calls) == nth:
            fh.write(b"\x93NUMPY partial")
            raise OSError(28, "No space left on device")
        return REAL_WRITE_ARRAY(fh, array, *args, **kwargs)
    monkeypatch.setattr(np.lib.format, "write_array", write_array)


def test_failed_write_keeps_previous_file_and_no_temp_file(tmp_path, monkeypatch):
    trajs = stack(make_traj(horizon=40, seed=i) for i in range(40))
    relabeled = windows(trajs, chunk_len=5)
    serialize(fitting_manifest(trajs, chunk_len=5), str(tmp_path), trajs[:2], relabeled[:10])
    before = (tmp_path / "records.npy").read_bytes()
    fail_npy_write(monkeypatch, 1)       # records.npy is written first
    with pytest.raises(OSError, match="No space"):
        serialize(fitting_manifest(trajs, chunk_len=5), str(tmp_path), trajs, relabeled)
    assert (tmp_path / "records.npy").read_bytes() == before
    assert not (tmp_path / "records.npy.tmp").exists()


def test_trajectory_variant_must_be_an_integer(tmp_path):
    trajs = stack([make_traj(seed=0), make_traj(seed=1, variant=np.int64(2)), make_traj(seed=2)])
    assert trajs.dtype["variant"] == np.dtype("<i8")
    serialize(make_manifest(), str(tmp_path), trajs)
    assert [t.variant for t in load_trajectories(str(tmp_path))] == [0, 2, 0]
    with pytest.raises(TypeError):
        make_traj(variant=1.5)


def test_failed_records_write_keeps_previous_dataset_readable(tmp_path, monkeypatch):
    trajs = stack(make_traj(horizon=40, seed=i) for i in range(40))
    relabeled = windows(trajs, chunk_len=5)
    serialize(fitting_manifest(trajs, chunk_len=5), str(tmp_path), trajs[:2], relabeled[:10])
    before = {name: (tmp_path / name).read_bytes()
              for name in ("manifest", "records.npy", "trajectories.npy")}
    for nth in (1, 2):                   # records.npy fails, then trajectories.npy
        fail_npy_write(monkeypatch, nth)
        with pytest.raises(OSError):
            serialize(fitting_manifest(trajs, chunk_len=5), str(tmp_path), trajs, relabeled)
    monkeypatch.undo()
    narrow = _rebuild(trajs, variant=trajs["variant"].astype("<i4"))   # refused unwritten
    with pytest.raises(ValueError):
        serialize(fitting_manifest(trajs, chunk_len=5), str(tmp_path), narrow, relabeled)
    assert before == {name: (tmp_path / name).read_bytes() for name in before}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
    assert len(deserialize(str(tmp_path))[0]) == 2 * 36 + 10
    assert len(load_trajectories(str(tmp_path))) == 2


# ---------------------------------------------------------------------------
# reader against an independent parse of the .npy bytes, and its error paths


def oracle_read_npy(path):
    """The rows of an .npy file parsed by hand (NEP 1: magic, version,
    header length, header dict, then the raw rows)."""
    with open(path, "rb") as fh:
        data = fh.read()
    assert data[:6] == b"\x93NUMPY"
    width = 2 if data[6] == 1 else 4
    start = 8 + width + int.from_bytes(data[8:8 + width], "little")
    header = ast.literal_eval(data[8 + width:start].decode("latin1"))
    assert header["fortran_order"] is False and len(header["shape"]) == 1
    return np.frombuffer(data, np.dtype(header["descr"]), header["shape"][0], start)


def oracle_states(start, actions, friction):
    """The states (T+1, d_s) of one stored row of make_manifest's
    environment, one 1-D ``step`` at a time."""
    states = [start]
    with np.errstate(all="ignore"):
        for action in actions:
            states.append(REACH.step(states[-1], action, friction))
    return np.array(states)


def oracle_deserialize(out_dir, chunk_len, horizon):
    """The two tables of ``Pairs``: each stored trajectory's windows, its
    plan decoded one row at a time and its states stepped one row and one
    step at a time, and the stored relabeled rows."""
    trajs = oracle_read_npy(os.path.join(out_dir, "trajectories.npy"))
    d_a, d_s = trajs.dtype["control_points"].shape[1], trajs.dtype["start"].shape[0]
    starts = [(i, t) for i in range(len(trajs)) for t in range(horizon - chunk_len + 1)]
    curated = np.empty(len(starts), [("traj", "<i8"), ("t", "<i8"), ("obs", "<f8", (2 * d_s,)),
                                     ("chunk", "<f8", (chunk_len, d_a))])
    for j, (i, t) in enumerate(starts):
        with np.errstate(all="ignore"):
            actions = decode(trajs["control_points"][i], horizon)
        states = oracle_states(trajs["start"][i], actions, trajs["friction_scale"][i])
        curated["traj"][j], curated["t"][j] = i, t
        curated["obs"][j] = np.concatenate([states[t], states[0]])
        curated["chunk"][j] = actions[t:t + chunk_len]
    return Pairs(curated, oracle_read_npy(os.path.join(out_dir, "records.npy")))




def assert_reader_matches_oracle(trajectories, relabeled, chunk_len):
    with tempfile.TemporaryDirectory() as out:
        serialize(fitting_manifest(trajectories, chunk_len=chunk_len), out, trajectories,
                  relabeled)
        horizon = trajectories.dtype["actions"].shape[0]
        (got, manifest), want = deserialize(out), oracle_deserialize(out, chunk_len, horizon)
        assert len(got) == len(want) == manifest.n_records \
            == len(windows(trajectories, chunk_len)) + len(relabeled)
        assert same_table(got.curated, want.curated)
        assert same_table(got.relabeled, want.relabeled)
        assert same_table(load_trajectories(out), trajectories)
        stored = oracle_read_npy(os.path.join(out, "trajectories.npy"))
        assert stored.dtype.names == ("variant", "success", "friction_scale", "start",
                                      "control_points")
        assert same_table(stored["start"], trajectories["states"][:, 0])
        for name in ("variant", "success", "friction_scale", "control_points"):
            assert same_table(stored[name], trajectories[name])


@given(datasets())
@settings(max_examples=100, deadline=None)
def test_reader_equals_whole_file_oracle(dataset):
    assert_reader_matches_oracle(*dataset)


def test_reader_equals_oracle_across_blocks_and_edge_values(monkeypatch):
    # blocks of 7 rows, 6 control points per plan of 40 steps
    monkeypatch.setattr(envs, "ROLLOUT_BLOCK", 7)
    edge = [-0.0, np.nan, np.inf, 5e-324]
    trajs = stack(make_traj(horizon=40, seed=i, variant=i % 3, start=edge if i == 7 else None,
                            m_points=6) for i in range(30))
    assert_reader_matches_oracle(trajs, windows(trajs, chunk_len=5), 5)


def _dataset(tmp_path):
    """3 trajectories of horizon 10 (3 x 7 windows of 4) and 5 relabeled
    pairs, under a point_reach of horizon 10, so replay runs too."""
    trajs = stack(make_traj(seed=i, variant=i) for i in range(3))
    serialize(make_manifest(chunk_len=4, env_config={"horizon": 10}), str(tmp_path), trajs,
              windows(trajs, chunk_len=4)[:5])
    return str(tmp_path)


READERS = {"records": deserialize, "trajectories": load_trajectories}
ARRAY_KEY = {"records": "chunk", "trajectories": "control_points"}
SCALAR_KEY = {"records": "t", "trajectories": "variant"}


def _rewrite(path, edit):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(edit(lines))


def _truncate(path, n_bytes=7):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:-n_bytes])


def _edit_table(path, edit):
    """Replace the array stored in ``path`` by ``edit(array)``."""
    table = np.load(path, allow_pickle=False)
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, edit(table), allow_pickle=False)


def _rebuild(table, **fields):
    """``table`` with the given fields replaced by (n, ...) arrays, or
    dropped where the value is None."""
    columns = {name: table[name] for name in table.dtype.names}
    columns.update(fields)
    columns = {name: np.asarray(col) for name, col in columns.items() if col is not None}
    out = np.empty(len(table), [(name, col.dtype, col.shape[1:])
                                for name, col in columns.items()])
    for name, col in columns.items():
        out[name] = col
    return out


def _raises_naming(path, *patterns):
    return pytest.raises(DatasetFormatError,
                         match=".*".join(re.escape(p) for p in (path,) + patterns))


def _manifest_lineno(out, key):
    with open(os.path.join(out, "manifest")) as fh:
        return next(i for i, ln in enumerate(fh, start=1) if ln.startswith(key + " ="))


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_reports_line_and_offset_of_non_json(tmp_path, name):
    # the manifest's env_config, parameters and final_tubes are JSON
    out = _dataset(tmp_path)
    path = os.path.join(out, "manifest")
    _rewrite(path, lambda lines: [ln.replace("parameters = {}", 'parameters = {"a": 1,}')
                                  for ln in lines])
    with _raises_naming(path, f"line {_manifest_lineno(out, 'parameters')}:", "(char 8)"):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_missing_key(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name + ".npy")
    _edit_table(path, lambda t: _rebuild(t, **{ARRAY_KEY[name]: None}))
    with _raises_naming(path, "fields", "expected", ARRAY_KEY[name]):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_ragged_array(tmp_path, name):
    # the writer refuses rows of two shapes, which no table holds (a table
    # has one shape per field); the reader refuses a shape that does not fit
    # the manifest's environment
    out = _dataset(tmp_path)
    traj = make_traj(horizon=10)
    relabeled = [windows(traj, 4)[0], windows(traj, 5)[0]]
    with pytest.raises(ValueError, match="records: not a 1-D structured"):
        serialize(make_manifest(chunk_len=4), str(tmp_path / "ragged"), traj, relabeled)
    assert not (tmp_path / "ragged").exists()
    path = os.path.join(out, name + ".npy")
    wide = {"records": {"chunk": np.zeros((5, 4, D_A + 1))},
            "trajectories": {"start": np.zeros((3, D_S + 1))}}[name]
    _edit_table(path, lambda t: _rebuild(t, **wide))
    with _raises_naming(path, "do not fit point_reach"):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_empty_chunk(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name + ".npy")
    empty = {"records": {"chunk": np.zeros((5, 0, D_A))},
             "trajectories": {"actions": np.zeros((3, 0, D_A))}}[name]
    _edit_table(path, lambda t: _rebuild(t, **empty))
    with _raises_naming(path):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_too_few_and_too_many_lines(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name + ".npy")
    table = np.load(path, allow_pickle=False)
    n = len(table)
    _edit_table(path, lambda t: t[:-1])
    with _raises_naming(path, f"{n - 1} rows, the manifest says {n}"):
        READERS[name](out)
    _edit_table(path, lambda _: np.concatenate([table, table[:2]]))
    with _raises_naming(path, f"{n + 2} rows, the manifest says {n}"):
        READERS[name](out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_skips_blank_lines_without_counting_them(tmp_path, name):
    # blank and comment lines of the manifest are skipped, but line numbers count them
    out = _dataset(tmp_path)
    path = os.path.join(out, "manifest")
    want = READERS[name](out)
    _rewrite(path, lambda lines: ["\n", "# by hand\n"] + lines[:2] + ["   \n", "\t\n"]
             + lines[2:] + ["\n"])
    got = READERS[name](out)
    if name == "records":
        (got, _), (want, _) = got, want
        assert same_table(got.curated, want.curated)
        assert same_table(got.relabeled, want.relabeled)
    assert len(got) == len(want)
    if name == "trajectories":
        assert all(np.array_equal(a.actions, b.actions) for a, b in zip(got, want))
    first = _manifest_lineno(out, "seed")
    _rewrite(path, lambda lines: lines + ["seed = 4\n"])
    with _raises_naming(path, f"line {first + 16}: duplicate key 'seed', "
                              f"first set on line {first}"):
        READERS[name](out)


def test_reader_bad_record_is_reported_before_a_wrong_line_count(tmp_path):
    out = _dataset(tmp_path)
    path = os.path.join(out, "records.npy")
    _edit_table(path, lambda t: _rebuild(t, obs=None)[:-1])
    with _raises_naming(path, "fields"):
        deserialize(out)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_a_file_that_is_not_npy(tmp_path, name):
    out = _dataset(tmp_path)
    path = os.path.join(out, name + ".npy")
    for data in (b"", b"garbage\n", b"\x93NUMPY\x01\x00"):
        with open(path, "wb") as fh:
            fh.write(data)
        with _raises_naming(path, "not a readable .npy array"):
            READERS[name](out)
    np.savez(path[:-len(".npy")], rows=np.zeros(3))
    os.replace(path[:-len(".npy")] + ".npz", path)
    with _raises_naming(path, "not a 1-D structured .npy array"):
        READERS[name](out)


# ---------------------------------------------------------------------------
# every reader refuses every fault of a stored array


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class Tripwire:
    """An object whose unpickling is recorded."""

    def __reduce__(self):
        return (_record_unpickling, ())


def _object_array(path):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, np.array([Tripwire()] * 3, dtype=object),
                                  allow_pickle=True)


FAULTS = {
    "truncated": lambda path, name: _truncate(path),
    "object dtype": lambda path, name: _object_array(path),
    "missing field": lambda path, name: _edit_table(
        path, lambda t: _rebuild(t, **{ARRAY_KEY[name]: None})),
    "wrong shape": lambda path, name: _edit_table(path, lambda t: _rebuild(t, **{
        ARRAY_KEY[name]: np.zeros(t[ARRAY_KEY[name]].shape[:-1] + (D_A + 1,))})),
    "scalar with an axis": lambda path, name: _edit_table(path, lambda t: _rebuild(t, **{
        SCALAR_KEY[name]: np.zeros((len(t), 2), "<i8")})),
    "row count": lambda path, name: _edit_table(path, lambda t: t[:-1]),
    "empty": lambda path, name: _edit_table(path, lambda t: t[:0]),
}


def assert_every_reader_refuses(out, capsys, *patterns):
    """deserialize, load_trajectories and evaluate_replay raise
    DatasetFormatError naming the patterns; ``evaluate`` exits 4."""
    for reader in (deserialize, load_trajectories, lambda d: evaluate_replay(d, 2)):
        with _raises_naming(*patterns):
            reader(out)
    assert cli_main(["evaluate", out, "--trials", "2"]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_reader_refuses_a_faulty_array(tmp_path, capsys, fault, name):
    out = _dataset(tmp_path)
    assert evaluate_replay(out, 2)["n_trajectories"] == 3
    path = os.path.join(out, name + ".npy")
    FAULTS[fault](path, name)
    if (fault, name) == ("empty", "trajectories"):
        # the records then name trajectories that are gone, and are refused first
        path = os.path.join(out, "records.npy")
    assert_every_reader_refuses(out, capsys, path)
    assert UNPICKLED == []


def test_every_reader_refuses_a_format_2_directory(tmp_path, capsys):
    # format 2 stored the same data as JSON lines
    out = _dataset(tmp_path)
    trajs = load_trajectories(out)
    relabeled = deserialize(out)[0].relabeled
    for name in READERS:
        os.remove(os.path.join(out, name + ".npy"))
    with open(os.path.join(out, "trajectories"), "w") as fh:
        fh.write(oracle_traj_text(trajs))
    with open(os.path.join(out, "records"), "w") as fh:
        fh.write(oracle_rows_text(relabeled, "relabeled"))
    _set_manifest_line(out, "format", 2)
    assert_every_reader_refuses(out, capsys, os.path.join(out, "manifest"),
                                "format 2 is not supported")


# ---------------------------------------------------------------------------
# format 7: curated windows rebuilt from trajectories, strict manifest


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
    assert lines[0] == "format = 7" and "chunk_len = 4" in lines
    assert read_manifest(out).chunk_len == 4
    assert len(np.load(os.path.join(out, "records.npy"), allow_pickle=False)) == 5


def _default(f):
    return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()


def test_manifest_with_every_field_set_round_trips(tmp_path):
    trajs = stack(make_traj(seed=i, variant=i) for i in range(3))
    manifest = DatasetManifest(
        env_name="point_reach", seed=11, source="baseline", iterations=2,
        samples_per_iteration=16, n_variants=3, n_generated=40, n_successful=30,
        n_selected=3, chunk_len=4, env_config={"horizon": 10, "goal": [0.25, 0.1]},
        parameters={"yaw_range": 0.3, "trans_range": [0.08, 0.08, 0.0], "name": "x"},
        final_tubes=[(0.01, 0.25), (0.0, 1e-300)])
    serialize(manifest, str(tmp_path), trajs, windows(trajs, chunk_len=4)[:2])
    # serialize sets the three row counts
    assert (manifest.n_trajectories, manifest.n_relabeled, manifest.n_records) == (3, 2, 23)
    unset = [f.name for f in dataclasses.fields(DatasetManifest)
             if getattr(manifest, f.name) == _default(f)]
    assert unset == []
    assert read_manifest(str(tmp_path)) == manifest


def test_manifest_keys_are_format_then_the_fields_in_order(tmp_path):
    out = _dataset(tmp_path)
    with open(os.path.join(out, "manifest")) as fh:
        keys = [line.partition(" = ")[0] for line in fh]
    assert keys == ["format"] + [f.name for f in dataclasses.fields(DatasetManifest)]


@pytest.mark.parametrize("value", [None, "1", "2", "3", "4", "5", "6"])
def test_any_format_but_3_is_rejected(tmp_path, value):
    out = _dataset(tmp_path)
    _set_manifest_line(out, "format", value)
    for reader in ALL_READERS:
        with pytest.raises(DatasetFormatError, match=f"format {value} is not supported"):
            reader(out)


def test_truncated_trajectories_detected_by_both_readers(tmp_path):
    out = _dataset(tmp_path)
    path = os.path.join(out, "trajectories.npy")
    _truncate(path)
    for reader in (deserialize, load_trajectories):
        with _raises_naming(path, "not a readable .npy array"):
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
    ("n_generated", "-5", "n_generated must be >= 0, got -5"),
    ("final_tubes", "[[true, 0.2]]", "final_tubes must be"),
    ("final_tubes", "[[0.1, NaN]]", "final_tubes must be"),
    ("final_tubes", "[[0.1, Infinity]]", "final_tubes must be"),
    ("final_tubes", "[[0.3, 0.2]]", "final_tubes must be"),
    ("final_tubes", "[[-0.1, 0.2]]", "final_tubes must be"),
    pytest.param("final_tubes", f"[[0, 1{'0' * 400}]]", "final_tubes must be",
                 id="final_tubes-an integer too large for a float"),
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
    pairs = deserialize(out)[0]
    assert (len(pairs.curated), len(pairs.relabeled)) == (21, 5)
    assert same_table(pairs.relabeled, np.load(os.path.join(out, "records.npy"),
                                               allow_pickle=False))
    path = os.path.join(out, "records.npy")
    _edit_table(path, lambda t: _rebuild(t, source=np.zeros(len(t), "<i8")))
    with _raises_naming(path, "fields", "source"):
        deserialize(out)


def test_serialize_refuses_wrong_dtypes_and_misfit_targets(tmp_path):
    trajs = stack(make_traj(seed=i) for i in range(2))
    relabeled = windows(trajs, chunk_len=4)[:2]
    long_obs = _rebuild(relabeled, obs=np.zeros((2, 9)))
    bad = [(list(trajs), None, 4, "not a 1-D structured"),  # rows, not a table
           (_rebuild(trajs, variant=None), None, 4, "expected"),  # a field missing
           (_rebuild(trajs, success=np.ones(2, "<i8")), None, 4, "not of the types"),
           (trajs, list(relabeled), 4, "records: not a 1-D structured"),  # rows, not a table
           (trajs, _rebuild(relabeled, t=None), 4, "records: fields .* expected"),
           (trajs, _rebuild(relabeled, t=np.zeros(2, "<i4")), 4, "records: .* wrong: t$"),
           (trajs, long_obs, 4, r"records: obs \(9,\)"),  # an observation size d_s lacks
           (trajs, relabeled, 11, "exceeds"),              # windows longer than T
           (trajs, relabeled, 0, "chunk_len")]
    for trajectories, records, k, message in bad:
        with pytest.raises(ValueError, match=message):
            serialize(make_manifest(chunk_len=k), str(tmp_path), trajectories, records)
    assert list(tmp_path.iterdir()) == []


def test_serialize_refuses_trajectories_that_no_reader_accepts(tmp_path):
    # point_reach of make_manifest's horizon 10 needs (11, 4) states,
    # (10, 2) actions and (M, 2) control points with 2 <= M <= 10; such
    # tables were once written, and then refused by every reader
    table = trajectory_table(np.zeros((1, 11, 5)), np.zeros((1, 10, D_A)), True, 1.0)
    trajs = stack(make_traj(seed=i) for i in range(2))
    wide = np.zeros((2, 10, D_A + 1))
    plans = "are not plans of the environment's horizon 10"
    bad = [(table, "start (5,) and control points (10, 2) do not fit point_reach "
                   "(d_s 4, d_a 2, 2 <= M <= T 10)"),
           (_rebuild(trajs, actions=wide, control_points=wide),
            "start (4,) and control points (10, 3) do not fit"),
           (_rebuild(trajs, control_points=np.zeros((2, 1, D_A))),
            "start (4,) and control points (1, 2) do not fit"),
           (_rebuild(trajs, control_points=np.zeros((2, 11, D_A))),
            "start (4,) and control points (11, 2) do not fit"),
           (_rebuild(trajs, states=np.zeros((2, 12, D_S))),
            "states (12, 4) are not one longer than actions (10, 2)"),
           (_rebuild(trajs, actions=wide), f"actions (10, 3) {plans} in the 2 dimensions"),
           (stack(make_traj(horizon=12, seed=i) for i in range(2)), f"actions (12, 2) {plans}"),
           (make_traj(horizon=12)[:0], f"actions (12, 2) {plans}")]
    for trajectories, message in bad:
        with pytest.raises(ValueError, match=re.escape(f"trajectories: {message}")):
            serialize(make_manifest(chunk_len=4), str(tmp_path / "out"), trajectories)
    # a plan of one step has no two control points to store
    one = make_traj(horizon=1)
    with pytest.raises(ValueError, match=re.escape("control points (1, 2) do not fit")):
        serialize(fitting_manifest(one), str(tmp_path / "out"), one)
    assert list(tmp_path.iterdir()) == []
    serialize(make_manifest(chunk_len=4), str(tmp_path / "out"), trajs)
    assert len(load_trajectories(str(tmp_path / "out"))) == 2


def test_serialize_refuses_control_points_that_do_not_decode_to_the_actions(tmp_path,
                                                                            monkeypatch):
    # checked block by block, bitwise, before any file is written; the
    # error names the first row whose actions are not its decoded points
    monkeypatch.setattr(envs, "ROLLOUT_BLOCK", 4)
    trajs = stack(make_traj(seed=i, m_points=4) for i in range(11))
    serialize(make_manifest(), str(tmp_path / "ok"), trajs)
    assert same_table(load_trajectories(str(tmp_path / "ok")), trajs)
    for rows in ([9], [6, 9], [0, 5], [10]):
        bad = trajs.copy()
        for row in rows:        # one ulp off in one action
            bad["actions"][row, 3, 1] = np.nextafter(bad["actions"][row, 3, 1], np.inf)
        message = f"trajectories: row {rows[0]}: its actions are not its control points"
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize(make_manifest(), str(tmp_path / "bad"), bad)
    # equal values are not enough: with M = T, the points are the actions,
    # and 0.0 is not the bits of -0.0
    bad = stack(make_traj(seed=i) for i in range(3))
    bad["actions"][2, 0, 0], bad["control_points"][2, 0, 0] = 0.0, -0.0
    with pytest.raises(ValueError, match=re.escape("trajectories: row 2: its actions")):
        serialize(make_manifest(), str(tmp_path / "bad"), bad)
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("points", [(1, D_A), (11, D_A), (10, D_A + 1), (4, D_A - 1)])
def test_every_reader_refuses_control_points_that_do_not_fit(tmp_path, capsys, points):
    # M < 2, M > T = 10, or another d_a than point_reach's 2
    out = _dataset(tmp_path)
    path = os.path.join(out, "trajectories.npy")
    _edit_table(path, lambda t: _rebuild(t, control_points=np.zeros((len(t), *points))))
    assert_every_reader_refuses(out, capsys, path, f"control points {points} do not fit "
                                                   f"point_reach (d_s 4, d_a 2, 2 <= M <= T 10)")


def test_serialize_refuses_targets_that_no_reader_accepts(tmp_path):
    # point_reach needs (2 d_s,) = (8,) observations and (H >= 1, d_a) chunks
    trajs = stack(make_traj(seed=i) for i in range(2))
    target = windows(trajs, chunk_len=4)[:1]
    bad = [_rebuild(target, chunk=np.zeros((1, 0, D_A))),
           _rebuild(target, obs=np.zeros((1, 3))),
           _rebuild(target, chunk=np.zeros((1, 4, D_A + 1)))]
    for relabeled in bad:
        with pytest.raises(ValueError, match="records: .* do not fit point_reach"):
            serialize(make_manifest(chunk_len=4), str(tmp_path), trajs, relabeled)
    assert list(tmp_path.iterdir()) == []
    serialize(make_manifest(chunk_len=4), str(tmp_path), trajs, target)
    assert len(deserialize(str(tmp_path))[0].relabeled) == 1


@pytest.mark.parametrize("traj, t", [(3, 0), (-1, 0), (0, 7), (0, -1)])
def test_every_reader_refuses_a_record_outside_its_plans(tmp_path, capsys, traj, t):
    # _dataset's records hold 4-step chunks for 3 plans of 10 steps:
    # traj must lie in [0, 3) and t in [0, 6]
    out = _dataset(tmp_path / "ds")
    trajs, path = load_trajectories(out), os.path.join(out, "records.npy")
    bad = np.load(path, allow_pickle=False)
    bad["traj"][1], bad["t"][1] = traj, t
    message = f"relabeled record 1 (traj {traj}, t {t}) leaves no room for its 4-step chunk"
    with pytest.raises(ValueError, match=re.escape(f"records: {message}")):
        serialize(make_manifest(chunk_len=4), str(tmp_path / "unwritten"), trajs, bad)
    assert not os.path.exists(tmp_path / "unwritten")
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, bad, allow_pickle=False)
    with _raises_naming(path, message):
        open_dataset(out)
    assert_every_reader_refuses(out, capsys, path, message)


# ---------------------------------------------------------------------------
# stats


def test_omission_fraction():
    m = make_manifest(n_successful=96, n_selected=84)
    assert np.isclose(m.omission_fraction, 0.125)
    assert make_manifest(n_successful=0, n_selected=0).omission_fraction == 0.0
    # the baseline stores every rollout, so it selects more than succeeded
    assert make_manifest(n_successful=14, n_selected=40).omission_fraction == 0.0


def test_dataset_stats_counts_and_render(tmp_path):
    trajs = make_traj(horizon=8)
    target = make_records([np.zeros(8)], [np.ones((3, 2))], 0, 1)
    manifest = fitting_manifest(trajs, final_tubes=[(0.05, 0.2)], chunk_len=4)
    serialize(manifest, str(tmp_path), trajs, target)
    stats = dataset_stats(read_manifest(str(tmp_path)))
    assert stats == dataset_stats(manifest)
    assert stats["records_curated"] == 5
    assert stats["records_relabeled"] == 1
    assert np.isclose(stats["omission_fraction"], 1.0 - 6 / 8)
    text = format_stats(stats)
    assert "omission fraction" in text
    assert "final tube 0        : [0.050000, 0.200000]" in text.splitlines()
