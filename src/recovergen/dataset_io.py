"""Dataset assembly and on-disk persistence.

Layout under the output directory (dataset format 7):

* ``manifest``          -- plain-text ``key = value`` run metadata:
  ``format = 7``, then one line per field of ``DatasetManifest``, its schema,
  every one required; ``n_trajectories`` and ``n_relabeled`` are the row
  counts of the arrays
* ``trajectories.npy``  -- one row per curated trajectory, with the fields
  ``variant`` ``<i8``, ``success`` ``?``, ``friction_scale`` ``<f8``,
  ``start`` ``<f8 (d_s,)`` and ``control_points`` ``<f8 (M, d_a)``: a
  trajectory table's columns, with its start state in place of its states
  and actions; M is read from the dtype, 2 <= M <= T, and T is the
  ``horizon`` of the manifest's environment
* ``records.npy``       -- one row per relabeled supervision pair, with the
  fields ``traj`` ``<i8``, ``t`` ``<i8``, ``obs`` ``<f8 (2 d_s,)`` and
  ``chunk`` ``<f8 (H, d_a)``; the table ``relabel_dataset`` returns, written
  as it is, except that one of no rows has ``obs (0,)`` and ``chunk (0, 0)``

Both arrays are structured NumPy ``.npy`` files (the NEP 1 format) holding
raw little-endian numbers, so every stored value reads back bit for bit, and
``np.load(path, allow_pickle=False)`` opens either one without this package.

A trajectory's plan is a pure function of its control points
(``sampler.decode``), and its states of its start state, plan and friction
scale, so neither is stored: ``deserialize`` and ``load_trajectories``
rebuild the trajectory table, decoding the plans and rolling them out
block by block.  Its actions are the writer's bit for bit, since the
writer checks them; its states are the writer's when the writer's were
rolled out by ``rollout_batch`` too, as in every table this package
builds.  Both hold when the reader runs under the writer's numpy dispatch
and OpenBLAS core.  A curated pair is the window
``observe(states[t], states[0])``, ``actions[t:t + chunk_len]`` of a
trajectory, so it is not stored either: ``deserialize`` returns ``Pairs``,
the curated windows rebuilt from the trajectories by ``export_pairs`` and
the loaded ``records.npy`` table, two tables with the fields of
``records.npy``.

Files are written to temporary names and renamed once all are complete, the
manifest last.  The writer and every reader check both stored arrays with
one check: each array's fields and dtypes, and its shapes against the
manifest's environment and ``chunk_len``, and each relabeled record's
``traj`` and ``t`` against the trajectories.  Readers also check each row
count against the manifest.  The writer refuses a misfit, and a trajectory
whose actions are not its decoded control points, with ValueError before it
writes any file.  A truncated, foreign or pickled file, a misfit and a
``format`` other than 7 raise DatasetFormatError; nothing is returned
from a dataset that fails a check.  ``read_manifest`` alone reads no array.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from typing import (IO, Callable, Dict, Iterable, List, Optional, Tuple, get_origin,
                    get_type_hints)

import numpy as np

from .config import key_value_lines
from .envs import TRAJECTORY_FIELDS, Environment, blocks, make_env, rollout_batch
from .sampler import decode


FORMAT = 7   # the one dataset format this module writes and reads

# the fields of trajectories.npy and of records.npy, as ``TRAJECTORY_FIELDS``:
# field -> (dtype, axes per row), in file order
_STORED_FIELDS = {"variant": ("<i8", 0), "success": ("?", 0),
                  "friction_scale": ("<f8", 0), "start": ("<f8", 1),
                  "control_points": ("<f8", 2)}
_RECORD_FIELDS = {"traj": ("<i8", 0), "t": ("<i8", 0), "obs": ("<f8", 1),
                  "chunk": ("<f8", 2)}


class DatasetFormatError(ValueError):
    """Malformed or truncated dataset file."""


@dataclass(frozen=True, eq=False)
class Pairs:
    """A dataset's supervision pairs, as two tables with the fields of
    ``records.npy``: the curated windows, by trajectory and ``t``, and the
    relabeled pairs, as stored."""

    curated: np.ndarray
    relabeled: np.ndarray

    def __len__(self) -> int:
        return len(self.curated) + len(self.relabeled)


@dataclass
class DatasetManifest:
    """The manifest's schema: one line per field, in this order, whose
    value is parsed as the field's type (int, str, or a JSON dict or list)."""

    env_name: str
    seed: int = 0
    source: str = "generate"          # "generate" | "baseline"
    iterations: int = 0
    samples_per_iteration: int = 0
    n_variants: int = 0
    n_generated: int = 0
    n_successful: int = 0
    n_selected: int = 0
    n_relabeled: int = 0
    n_records: int = 0
    n_trajectories: int = 0
    chunk_len: int = 1                # length of each curated window
    env_config: Dict[str, float] = field(default_factory=dict)
    parameters: Dict[str, float] = field(default_factory=dict)
    final_tubes: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def omission_fraction(self) -> float:
        """Share of the successful rollouts that were not selected."""
        if self.n_successful == 0:
            return 0.0
        return max(0, self.n_successful - self.n_selected) / self.n_successful


# every manifest key, in file order, with the type its value is parsed as
_KINDS = {"format": int, **{name: get_origin(hint) or hint
                            for name, hint in get_type_hints(DatasetManifest).items()}}


def _window_count(horizon: int, chunk_len: int) -> int:
    """Number of curated windows, starts t in [0, T - k], of one trajectory."""
    if chunk_len < 1:
        raise ValueError("chunk_len must be >= 1")
    if chunk_len > horizon:
        raise ValueError("chunk length exceeds trajectory horizon")
    return horizon - chunk_len + 1


def _dtype(fields: Dict[str, Tuple[str, int]], shapes: Dict[str, Tuple[int, ...]]) -> np.dtype:
    return np.dtype([(name, fields[name][0], shape) for name, shape in shapes.items()])


def record_dtype(obs_dim: int, chunk_shape: Tuple[int, int]) -> np.dtype:
    """The dtype of a table with the fields of ``records.npy``, of
    (obs_dim,) observations and chunk_shape chunks."""
    return _dtype(_RECORD_FIELDS, {"traj": (), "t": (), "obs": (obs_dim,),
                                   "chunk": chunk_shape})


# what records.npy holds when nothing was relabeled
_NO_RECORDS = np.empty(0, record_dtype(0, (0, 0)))


def export_pairs(states: np.ndarray, actions: np.ndarray, chunk_len: int,
                 observe: Callable) -> np.ndarray:
    """Every curated window of trajectories ``states`` (n, T+1, d_s) and
    ``actions`` (n, T, d_a), as a table with the fields of ``records.npy``:
    row (i, t) holds ``observe(states[i, t], states[i, 0])`` and
    ``actions[i, t:t + chunk_len]``, for each t in [0, T - chunk_len]."""
    n, horizon, d_a = actions.shape
    w = _window_count(horizon, chunk_len) if n else 0
    table = np.empty((n, w), record_dtype(2 * states.shape[-1], (chunk_len, d_a)))
    if n:
        table["traj"] = np.arange(n)[:, None]
        table["t"] = np.arange(w)
        table["obs"] = observe(states[:, :w], states[:, :1])
        table["chunk"] = np.lib.stride_tricks.sliding_window_view(
            actions, chunk_len, axis=1).swapaxes(2, 3)
    return table.reshape(-1)


# ---------------------------------------------------------------------------
# serialization


def _write_temp(path: str, write: Callable[[IO], object], mode: str = "w") -> str:
    """Open ``path + ".tmp"``, let ``write`` fill it and return that name.
    If ``write`` fails, the temporary file is removed."""
    tmp = path + ".tmp"
    with open(tmp, mode) as fh:
        try:
            write(fh)
        except BaseException:
            fh.close()
            os.unlink(tmp)
            raise
    return tmp


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to a temporary file and rename it to ``path``,
    so ``path`` keeps its previous content if producing a chunk fails."""
    os.replace(_write_temp(path, lambda fh: fh.writelines(chunks)), path)


def _manifest_lines(manifest: DatasetManifest) -> str:
    lines = [f"format = {FORMAT}"]
    for f in dataclasses.fields(manifest):
        value = getattr(manifest, f.name)
        if _KINDS[f.name] in (dict, list):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def read_manifest(out_dir: str) -> DatasetManifest:
    """Parse and check ``out_dir/manifest``; every fault, an unknown,
    repeated or missing key or a ``format`` other than 7 included, raises
    DatasetFormatError."""
    path = os.path.join(out_dir, "manifest")
    values: Dict = {}
    for lineno, key, value in key_value_lines(path, DatasetFormatError):
        kind = _KINDS.get(key)
        try:
            if kind is None:
                raise ValueError(f"unknown key {key!r}")
            if kind in (dict, list):
                values[key] = json.loads(value)
                if not isinstance(values[key], kind):
                    raise ValueError(f"{key} must be a {kind.__name__}")
            else:
                values[key] = kind(value)
                if kind is int and values[key] < 0:
                    raise ValueError(f"{key} must be >= 0, got {values[key]}")
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from exc
    fmt = values.pop("format", None)
    if fmt != FORMAT:
        raise DatasetFormatError(f"{path}: dataset format {fmt} is not supported "
                                 f"(only format {FORMAT} is read)")
    missing = [key for key in _KINDS if key != "format" and key not in values]
    if missing:
        raise DatasetFormatError(f"{path}: missing required manifest keys: "
                                 f"{', '.join(missing)}")
    tubes = values["final_tubes"]
    # the chained comparison also refuses NaN, infinities and integers too
    # large for a float
    if not all(isinstance(t, list) and len(t) == 2 and all(type(x) in (int, float) for x in t)
               and 0 <= t[0] <= t[1] <= sys.float_info.max for t in tubes):
        raise DatasetFormatError(f"{path}: final_tubes must be [r_min, r_max] pairs of "
                                 f"finite numbers, 0 <= r_min <= r_max")
    values["final_tubes"] = [tuple(t) for t in tubes]
    return DatasetManifest(**values)


def _npy_writer(table: np.ndarray) -> Callable[[IO], None]:
    return lambda fh: np.lib.format.write_array(fh, table, allow_pickle=False)


def _manifest_env(manifest: DatasetManifest) -> Environment:
    """The environment ``manifest`` describes."""
    env_config = {k: (tuple(v) if isinstance(v, list) else v)
                  for k, v in manifest.env_config.items() if k != "name"}
    return make_env(manifest.env_name, **env_config)


def _fields_misfit(table, fields: Dict[str, Tuple[str, int]]) -> str:
    """Why ``table`` is not a 1-D structured array with exactly ``fields``,
    each of its dtype and number of axes; empty if it is."""
    if not isinstance(table, np.ndarray) or table.ndim != 1 or table.dtype.names is None:
        return "not a 1-D structured .npy array"
    if table.dtype.names != tuple(fields):
        return f"fields {table.dtype.names}, expected {tuple(fields)}"
    expected = _dtype(fields, {name: table.dtype[name].shape for name in fields})
    wrong = [name for name in fields if table.dtype[name] != expected[name]
             or table.dtype[name].ndim != fields[name][1]]
    if wrong or table.dtype != expected:
        return (f"fields {table.dtype.descr} are not of the types "
                f"{[(n, *fields[n]) for n in fields]} (dtype, axes); wrong: "
                f"{', '.join(wrong) or 'the layout'}")
    return ""


def _stored(trajectories, horizon: int) -> np.ndarray:
    """The rows of trajectories.npy of the trajectory table
    ``trajectories``: its columns, with each row's start state in place of
    its states and actions.  A table without the fields of
    ``TRAJECTORY_FIELDS``, whose plans are not ``horizon`` steps of its
    control points' d_a, or whose states are not one longer than its plans,
    raises ValueError."""
    misfit = _fields_misfit(trajectories, TRAJECTORY_FIELDS)
    if not misfit:
        states, actions, points = (trajectories.dtype[name].shape
                                   for name in ("states", "actions", "control_points"))
        if states[0] != actions[0] + 1:
            misfit = f"states {states} are not one longer than actions {actions}"
        elif actions != (horizon, points[1]):
            misfit = (f"actions {actions} are not plans of the environment's horizon "
                      f"{horizon} in the {points[1]} dimensions of control points {points}")
    if misfit:
        raise ValueError(f"trajectories: {misfit}")
    columns = {name: trajectories[name] for name in _STORED_FIELDS if name != "start"}
    columns["start"] = trajectories["states"][:, 0]
    table = np.empty(len(trajectories), _dtype(_STORED_FIELDS, {
        name: columns[name].shape[1:] for name in _STORED_FIELDS}))
    for name, column in columns.items():
        table[name] = column
    return table


def _n_windows(n: int, horizon: int, chunk_len: int) -> int:
    """Number of curated windows of n trajectories of ``horizon`` steps."""
    return n * _window_count(horizon, chunk_len) if n else 0


def _misdecoded(trajectories: np.ndarray, horizon: int) -> int:
    """The first row of the trajectory table ``trajectories`` whose actions
    are not ``decode`` of its control points bit for bit, or -1; decoded
    block by block."""
    for rows in blocks(len(trajectories)):
        # a stored value may be infinite or NaN: decoding it is no fault
        with np.errstate(all="ignore"):
            plans = decode(trajectories["control_points"][rows], horizon)
        actions = trajectories["actions"][rows]
        wrong = np.flatnonzero(np.any(plans.view(np.uint64) != actions.view(np.uint64),
                                      axis=(1, 2)))
        if len(wrong):
            return rows.start + int(wrong[0])
    return -1


def _misfit(env: Environment, chunk_len: int, trajectories,
            records) -> Tuple[str, str]:
    """The first of the tables, "trajectories" or "records", that cannot
    be stored under ``env`` and ``chunk_len``, and why; ("", "") if both
    can.  Each needs the fields of its file (``_fields_misfit``).  Non-empty
    trajectories need (d_s,) start states, (M, d_a) control points with
    2 <= M <= T, the environment's horizon, and 1 <= chunk_len <= T;
    non-empty records need (2 d_s,) observations, (H >= 1, d_a) chunks, and
    each a ``traj`` in [0, n) and a ``t`` in [0, T - H], so that its chunk
    fits in a stored plan."""
    horizon = env.horizon
    misfit = _fields_misfit(trajectories, _STORED_FIELDS)
    if not misfit and len(trajectories):
        start, points = (trajectories.dtype[name].shape for name in ("start", "control_points"))
        if start != (env.state_dim,) or points[1] != env.action_dim \
                or not 2 <= points[0] <= horizon:
            misfit = (f"start {start} and control points {points} do not fit {env.name} "
                      f"(d_s {env.state_dim}, d_a {env.action_dim}, 2 <= M <= T {horizon})")
        else:
            try:
                _window_count(horizon, chunk_len)
            except ValueError as exc:
                misfit = f"chunk_len {chunk_len}: {exc}"
    if misfit:
        return "trajectories", misfit
    misfit = _fields_misfit(records, _RECORD_FIELDS)
    if not misfit and len(records):
        obs, chunk = records.dtype["obs"].shape, records.dtype["chunk"].shape
        n = len(trajectories)
        outside = np.flatnonzero((records["traj"] < 0) | (records["traj"] >= n)
                                 | (records["t"] < 0) | (records["t"] > horizon - chunk[0]))
        if obs != (2 * env.state_dim,) or chunk[0] < 1 or chunk[1] != env.action_dim:
            misfit = (f"obs {obs} and chunk {chunk} do not fit {env.name} "
                      f"(d_s {env.state_dim}, d_a {env.action_dim})")
        elif len(outside):
            j = outside[0]
            misfit = (f"relabeled record {j} (traj {records['traj'][j]}, t {records['t'][j]}) "
                      f"leaves no room for its {chunk[0]}-step chunk in the {n} stored plans "
                      f"of {horizon} steps")
    return ("records", misfit) if misfit else ("", "")


def serialize(manifest: DatasetManifest, out_dir: str, trajectories: np.ndarray,
              records: Optional[np.ndarray] = None) -> None:
    """Write a dataset: the trajectory table ``trajectories`` without its
    states and actions, and the relabeled pairs ``records`` (none by
    default), a table with the fields of ``records.npy`` such as
    ``relabel_dataset`` returns, as they are.  The curated windows of length
    ``manifest.chunk_len`` are not written either.  Sets the manifest's
    ``n_trajectories``, ``n_relabeled`` and ``n_records`` (windows plus
    relabeled pairs).

    Precondition, not checked: each row's states are its ``rollout_batch``
    from its start state, under its plan and friction scale, as in every
    table that the sampler, the baseline and ``rollout`` build.  Readers
    rebuild the states so; other states would not read back.

    Raises ValueError before any file is written when the trajectory table
    does not have the fields and dtypes of ``TRAJECTORY_FIELDS``, when its
    plans are not the manifest environment's horizon long, when either
    table does not fit that environment, when ``chunk_len`` or a relabeled
    record's chunk does not fit the trajectories, or, checked block by
    block, when a row's actions are not ``decode`` of its control points
    bit for bit (the error names the first such row).  Each file goes to a
    temporary file first; they are renamed into place only once all are
    complete, the manifest last, since it pins the row counts of the
    others.  So a failure while writing any file leaves the previous
    dataset whole and readable."""
    records = _NO_RECORDS if records is None else records
    env = _manifest_env(manifest)
    stored = _stored(trajectories, env.horizon)
    name, misfit = _misfit(env, manifest.chunk_len, stored, records)
    if not misfit and (row := _misdecoded(trajectories, env.horizon)) >= 0:
        name, misfit = "trajectories", (f"row {row}: its actions are not its control points "
                                        f"decoded bit for bit")
    if misfit:
        raise ValueError(f"{name}: {misfit}")
    if not len(records):
        records = _NO_RECORDS

    os.makedirs(out_dir, exist_ok=True)
    manifest.n_records = (_n_windows(len(stored), env.horizon, manifest.chunk_len)
                          + len(records))
    manifest.n_relabeled = len(records)
    manifest.n_trajectories = len(stored)
    files = [("records.npy", "wb", _npy_writer(records)),
             ("trajectories.npy", "wb", _npy_writer(stored)),
             ("manifest", "w", lambda fh: fh.write(_manifest_lines(manifest)))]
    temps: List[str] = []
    try:
        for name, mode, write in files:
            temps.append(_write_temp(os.path.join(out_dir, name), write, mode))
    except BaseException:
        for tmp in temps:
            os.unlink(tmp)
        raise
    for (name, _, _), tmp in zip(files, temps):
        os.replace(tmp, os.path.join(out_dir, name))


def _load_table(path: str) -> np.ndarray:
    """The array stored in ``path``, refused unless it is a readable .npy
    file of no objects."""
    try:
        with open(path, "rb") as fh:
            return np.load(fh, allow_pickle=False)
    except FileNotFoundError as exc:
        raise DatasetFormatError(f"{path}: file missing") from exc
    except (ValueError, EOFError) as exc:
        raise DatasetFormatError(f"{path}: not a readable .npy array: {exc}") from exc


def open_dataset(out_dir: str) -> Tuple[DatasetManifest, Environment, np.ndarray, np.ndarray]:
    """The manifest, the environment it describes, the stored
    ``trajectories.npy`` table (start states and control points, not
    states and actions) and the ``records.npy`` table, with the manifest
    parsed once and the whole dataset checked (see the module docstring).
    An ``env_config`` the environment rejects raises DatasetFormatError."""
    manifest = read_manifest(out_dir)
    manifest_path = os.path.join(out_dir, "manifest")
    try:
        env = _manifest_env(manifest)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{manifest_path}: environment: {exc}") from exc
    paths = {name: os.path.join(out_dir, name + ".npy") for name in ("trajectories", "records")}
    tables = {name: _load_table(path) for name, path in paths.items()}
    name, misfit = _misfit(env, manifest.chunk_len, **tables)
    if misfit:
        raise DatasetFormatError(f"{paths[name]}: {misfit}")
    for name, rows in (("trajectories", manifest.n_trajectories),
                       ("records", manifest.n_relabeled)):
        if len(tables[name]) != rows:
            raise DatasetFormatError(f"{paths[name]}: {len(tables[name])} rows, "
                                     f"the manifest says {rows}")
    trajectories, records = tables["trajectories"], tables["records"]
    windows = _n_windows(len(trajectories), env.horizon, manifest.chunk_len)
    if manifest.n_records != windows + len(records):
        raise DatasetFormatError(f"{manifest_path}: n_records {manifest.n_records} is not "
                                 f"{windows} curated + {len(records)} relabeled")
    return manifest, env, trajectories, records


def _open_trajectories(out_dir: str) -> Tuple[DatasetManifest, Environment, np.ndarray,
                                               np.ndarray]:
    """``open_dataset``, with the trajectory table the writer was given in
    place of the stored one: each row's plan decoded from its control
    points, and its states rebuilt by ``rollout_batch`` of its start
    state, plan and friction scale.  The table is allocated once; the
    loaded rows are dropped once copied into it, and its plans and states
    are filled in blocks of at most ``envs.ROLLOUT_BLOCK`` rows, so memory
    is the table plus the larger of the loaded rows and one block's
    arrays."""
    manifest, env, stored, records = open_dataset(out_dir)
    n, horizon = len(stored), env.horizon
    table = np.empty(n, _dtype(TRAJECTORY_FIELDS, {
        "variant": (), "success": (), "friction_scale": (),
        "states": (horizon + 1, env.state_dim), "actions": (horizon, env.action_dim),
        "control_points": stored.dtype["control_points"].shape}))
    for name in ("variant", "success", "friction_scale", "control_points"):
        table[name] = stored[name]
    table["states"][:, 0] = stored["start"]
    del stored
    # a stored value may be infinite or NaN: its rollout is no fault of reading
    with np.errstate(all="ignore"):
        for rows in blocks(n):
            actions = table["actions"][rows] = decode(table["control_points"][rows], horizon)
            table["states"][rows] = rollout_batch(env, table["states"][rows, 0], actions,
                                                  table["friction_scale"][rows])[0]
    return manifest, env, table, records


def deserialize(out_dir: str) -> Tuple[Pairs, DatasetManifest]:
    """Every supervision pair: the curated windows rebuilt from the
    trajectories by ``export_pairs``, and the ``records.npy`` table."""
    manifest, env, trajectories, relabeled = _open_trajectories(out_dir)
    curated = export_pairs(trajectories["states"], trajectories["actions"],
                           manifest.chunk_len, env.observe)
    return Pairs(curated, relabeled), manifest


def load_trajectories(out_dir: str) -> np.recarray:
    """The trajectory table, its actions and states rebuilt, checked as
    ``open_dataset`` checks the dataset, as a record array: its rows'
    fields read as attributes."""
    return _open_trajectories(out_dir)[2].view(np.recarray)


# ---------------------------------------------------------------------------
# reporting


def dataset_stats(manifest: DatasetManifest) -> Dict:
    """Machine-readable summary from the manifest alone; render with
    format_stats for humans."""
    return {
        "env": manifest.env_name,
        "source": manifest.source,
        "generated": manifest.n_generated,
        "successful": manifest.n_successful,
        "selected": manifest.n_selected,
        "omission_fraction": manifest.omission_fraction,
        "relabeled": manifest.n_relabeled,
        "records_curated": manifest.n_records - manifest.n_relabeled,
        "records_relabeled": manifest.n_relabeled,
        "final_tubes": list(manifest.final_tubes),
    }


def format_stats(stats: Dict) -> str:
    lines = [
        f"environment         : {stats['env']}",
        f"run type            : {stats['source']}",
        f"rollouts generated  : {stats['generated']}",
        f"rollouts successful : {stats['successful']}",
        f"rollouts selected   : {stats['selected']}",
        f"omission fraction   : {stats['omission_fraction']:.4f}",
        f"relabeled targets   : {stats['relabeled']}",
        f"curated records     : {stats['records_curated']}",
        f"relabeled records   : {stats['records_relabeled']}",
    ]
    # the manifest keeps only the live variants' tubes, so they are
    # numbered among those, not by variant index
    for k, (r_min, r_max) in enumerate(stats["final_tubes"]):
        lines.append(f"{f'final tube {k}':<20}: [{r_min:.6f}, {r_max:.6f}]")
    return "\n".join(lines) + "\n"
