"""Dataset assembly and on-disk persistence.

Layout under the output directory (dataset format 2):

* ``manifest``      -- plain-text ``key = value`` run metadata; its
  ``format`` is 2 and its ``chunk_len`` is the curated window length
* ``trajectories``  -- line-delimited JSON, one curated trajectory per line
* ``records``       -- line-delimited JSON, one relabeled supervision pair
  per line

A curated record is the window ``observe(states[t], states[0])``,
``actions[t:t + chunk_len]`` of a stored trajectory, so it is not stored
again: ``deserialize`` rebuilds the curated records from ``trajectories``
through ``export_pairs``, the function that built them before writing,
and appends the relabeled records.  A manifest of any other ``format``
(or none) is rejected.

Numbers are written with shortest round-trip decimals, so a serialize /
deserialize round trip is bitwise lossless.  ``records`` and
``trajectories`` go through one writer that works in blocks of
``_BLOCK_LINES`` lines: within a block, each distinct float row (the last
axis of an array, told apart by bit pattern, so ``-0.0`` and ``0.0`` keep
their own text) is formatted once by a single ``json.dumps`` call, each
line is joined from those row texts, and the block is streamed to disk
before the next one is built.  The bytes equal those of ``json.dumps``
on each line's dict.  Files are written to temporary names and renamed
once all are complete, the manifest last, and the manifest pins the
expected line counts, so a truncated file is detected instead of
yielding a partial dataset.

The reader streams too: each line is parsed and turned into its
``DatasetRecord`` or ``Trajectory`` at once, so the parsed JSON of a whole
file is never held.  ``read_manifest`` alone parses no floats.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .envs import Environment, EnvParams, Trajectory, make_env
from .relabel import RelabelTarget


FORMAT = 2   # the one dataset format this module writes and reads


class DatasetFormatError(ValueError):
    """Malformed or truncated dataset file."""


@dataclass
class DatasetRecord:
    """Timestep-level (observation, action-chunk) supervision pair."""

    observation: np.ndarray
    action_chunk: np.ndarray     # (k, d_a) for curated pairs, (H, d_a) for relabeled
    source: str                  # "curated" | "relabeled"
    trajectory_id: int
    t: int

    def __post_init__(self):
        if self.source not in ("curated", "relabeled"):
            raise ValueError(f"bad record source {self.source!r}")
        self.trajectory_id = operator.index(self.trajectory_id)
        self.t = operator.index(self.t)
        self.observation = np.asarray(self.observation, dtype=float)
        self.action_chunk = np.asarray(self.action_chunk, dtype=float)
        if self.action_chunk.size == 0:
            raise ValueError("action chunk must be non-empty")


@dataclass
class DatasetManifest:
    """Run metadata: environment constants, seeds, loop sizes, and the
    counts needed for the omission statistic."""

    env_name: str
    env_config: Dict[str, float] = field(default_factory=dict)
    seed: int = 0
    source: str = "generate"          # "generate" | "baseline"
    iterations: int = 0
    samples_per_iteration: int = 0
    n_variants: int = 0
    parameters: Dict[str, float] = field(default_factory=dict)
    n_generated: int = 0
    n_successful: int = 0
    n_selected: int = 0
    n_relabeled: int = 0
    n_records: int = 0
    n_trajectories: int = 0
    chunk_len: int = 1                # length of each curated window
    final_tubes: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def omission_fraction(self) -> float:
        if self.n_successful == 0:
            return 0.0
        return 1.0 - self.n_selected / self.n_successful


def _windows(curated: Sequence[Trajectory], chunk_len: int) -> Iterator[Tuple[int, int]]:
    """(trajectory index, window start t) of every curated window, t in
    [0, T - k] per trajectory, in order."""
    if chunk_len < 1:
        raise ValueError("chunk_len must be >= 1")
    for i, traj in enumerate(curated):
        if chunk_len > traj.horizon:
            raise ValueError("chunk length exceeds trajectory horizon")
        yield from ((i, t) for t in range(traj.horizon - chunk_len + 1))


def export_pairs(curated: Sequence[Trajectory], relabels: Sequence[RelabelTarget],
                 chunk_len: int, observe=None) -> List[DatasetRecord]:
    """One standard record per curated window, plus one record per
    relabeled target."""
    records = []
    for i, t in _windows(curated, chunk_len):
        states = curated[i].states
        obs = (observe(states[t], states[0]) if observe is not None
               else np.concatenate([states[t], states[0]]))
        records.append(DatasetRecord(observation=obs,
                                     action_chunk=curated[i].actions[t:t + chunk_len],
                                     source="curated", trajectory_id=i, t=t))
    for target in relabels:
        records.append(DatasetRecord(observation=target.observation,
                                     action_chunk=target.chunk,
                                     source="relabeled",
                                     trajectory_id=target.point.trajectory_id,
                                     t=target.point.t))
    return records


# ---------------------------------------------------------------------------
# serialization


def _write_temp(path: str, chunks: Iterable[str]) -> str:
    """Write the chunks to ``path + ".tmp"`` and return that name.  If
    producing a chunk fails, the temporary file is removed."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        try:
            fh.writelines(chunks)
        except BaseException:
            fh.close()
            os.unlink(tmp)
            raise
    return tmp


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to a temporary file and rename it to ``path``, so
    ``path`` keeps its previous content if producing a chunk fails."""
    os.replace(_write_temp(path, chunks), path)


def _manifest_lines(manifest: DatasetManifest) -> str:
    lines = [
        f"format = {FORMAT}",
        f"env_name = {manifest.env_name}",
        f"seed = {manifest.seed}",
        f"source = {manifest.source}",
        f"iterations = {manifest.iterations}",
        f"samples_per_iteration = {manifest.samples_per_iteration}",
        f"n_variants = {manifest.n_variants}",
        f"n_generated = {manifest.n_generated}",
        f"n_successful = {manifest.n_successful}",
        f"n_selected = {manifest.n_selected}",
        f"n_relabeled = {manifest.n_relabeled}",
        f"n_records = {manifest.n_records}",
        f"n_trajectories = {manifest.n_trajectories}",
        f"chunk_len = {manifest.chunk_len}",
        f"env_config = {json.dumps(manifest.env_config, sort_keys=True)}",
        f"parameters = {json.dumps(manifest.parameters, sort_keys=True)}",
        f"final_tubes = {json.dumps(manifest.final_tubes)}",
    ]
    return "\n".join(lines) + "\n"


_INT_KEYS = {"format", "seed", "iterations", "samples_per_iteration", "n_variants",
             "n_generated", "n_successful", "n_selected", "n_relabeled",
             "n_records", "n_trajectories", "chunk_len"}
_STR_KEYS = {"env_name", "source"}
_JSON_KEYS = {"env_config": dict, "parameters": dict, "final_tubes": list}


def read_manifest(out_dir: str) -> DatasetManifest:
    """Parse and check ``out_dir/manifest``; every fault, an unknown key
    or a ``format`` other than 2 included, raises DatasetFormatError."""
    path = os.path.join(out_dir, "manifest")
    fields: Dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetFormatError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key in _INT_KEYS:
                    fields[key] = int(value)
                elif key in _JSON_KEYS:
                    fields[key] = json.loads(value)
                    if not isinstance(fields[key], _JSON_KEYS[key]):
                        raise ValueError(f"{key} must be a {_JSON_KEYS[key].__name__}")
                elif key in _STR_KEYS:
                    fields[key] = value
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from exc
    fmt = fields.pop("format", None)
    if fmt != FORMAT:
        raise DatasetFormatError(f"{path}: dataset format {fmt} is not supported "
                                 f"(only format {FORMAT} is read)")
    if "env_name" not in fields or "n_records" not in fields:
        raise DatasetFormatError(f"{path}: missing required manifest keys")
    tubes = fields.get("final_tubes", [])
    if not all(isinstance(t, list) and len(t) == 2
               and all(isinstance(x, (int, float)) for x in t) for t in tubes):
        raise DatasetFormatError(f"{path}: final_tubes must be [r_min, r_max] pairs")
    fields["final_tubes"] = [tuple(t) for t in tubes]
    return DatasetManifest(**fields)


_BLOCK_LINES = 1024


def _row_texts(rows: np.ndarray) -> List[str]:
    """JSON text of each row of a 2-D float64 array.  Rows are keyed by
    their bytes, and the distinct ones are formatted by one ``json.dumps``
    call, so the spelling is json's (``NaN``, ``-0.0``, shortest repr)."""
    n, width = rows.shape
    if width == 0:
        return ["[]"] * n
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * width))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    body = json.dumps(rows[first].tolist())          # "[[a, b], [c, d]]"
    distinct = ["[" + s + "]" for s in body[2:-2].split("], [")]
    return [distinct[i] for i in inverse.tolist()]


def _nest(texts: List[str], start: int, shape: Tuple[int, ...]) -> str:
    """JSON text of an array of ``shape`` whose rows are ``texts[start:]``."""
    if len(shape) < 2:
        return texts[start] if shape else texts[start][1:-1]
    if len(shape) == 2:
        return "[" + ", ".join(texts[start:start + shape[0]]) + "]"
    step = math.prod(shape[1:-1])
    return "[" + ", ".join(_nest(texts, start + i * step, shape[1:])
                           for i in range(shape[0])) + "]"


def _format_block(lines: Sequence[Sequence]) -> str:
    """Text of a block of lines, each a sequence of literal strings and
    float arrays."""
    rows: Dict[int, List[np.ndarray]] = {}    # row width -> arrays, in order
    used: Dict[int, int] = {}                 # row width -> rows registered
    layout: List = []                         # str, or (width, first row, shape)
    for parts in lines:
        for part in parts:
            if isinstance(part, str):
                layout.append(part)
                continue
            a = np.asarray(part, dtype=np.float64)
            width = a.shape[-1] if a.ndim else 1
            n = math.prod(a.shape[:-1]) if a.ndim else 1
            start = used.get(width, 0)
            rows.setdefault(width, []).append(a.reshape(n, width))
            layout.append((width, start, a.shape))
            used[width] = start + n
    texts = {w: _row_texts(np.concatenate(arrays)) for w, arrays in rows.items()}
    return "".join(p if isinstance(p, str) else _nest(texts[p[0]], p[1], p[2])
                   for p in layout)


def _json_lines(lines: Iterable[Sequence]) -> Iterator[str]:
    """Stream lines block by block; see the module docstring."""
    it = iter(lines)
    while block := list(itertools.islice(it, _BLOCK_LINES)):
        yield _format_block(block)


def _record_parts(rec: DatasetRecord) -> tuple:
    return (f'{{"traj": {rec.trajectory_id:d}, "t": {rec.t:d}, '
            f'"source": "{rec.source}", "obs": ', rec.observation,
            ', "chunk": ', rec.action_chunk, "}\n")


def _trajectory_parts(i: int, traj: Trajectory) -> tuple:
    head = json.dumps({"id": i, "variant": traj.variant, "success": bool(traj.success),
                       "mass": traj.env_params.mass,
                       "friction_scale": traj.env_params.friction_scale})
    return (head[:-1] + ', "states": ', traj.states, ', "actions": ', traj.actions,
            ', "origin": ', "null" if traj.origin is None else traj.origin, "}\n")


def _relabeled_tail(records: Sequence[DatasetRecord], trajectories: Sequence[Trajectory],
                    chunk_len: int) -> Sequence[DatasetRecord]:
    """The records after the curated windows of ``trajectories``.  The
    reader rebuilds those windows, so ``records`` must start with exactly
    them, in order, and hold only relabeled records after them."""
    windows = [("curated", i, t, (chunk_len,)) for i, t in _windows(trajectories, chunk_len)]
    head, tail = records[:len(windows)], records[len(windows):]
    if ([(r.source, r.trajectory_id, r.t, r.action_chunk.shape[:1]) for r in head] != windows
            or any(r.source != "relabeled" for r in tail)):
        raise ValueError("records must be the chunk_len windows of the trajectories, "
                         "in order, followed by relabeled records only")
    return tail


def serialize(records: Sequence[DatasetRecord], manifest: DatasetManifest,
              out_dir: str, trajectories: Sequence[Trajectory] = ()) -> None:
    """Write a dataset: ``records`` as ``export_pairs`` builds them from
    ``trajectories`` and ``manifest.chunk_len`` (curated windows first,
    then relabeled records).  Only the relabeled records go to ``records``;
    the curated ones are rebuilt on read from ``trajectories``.

    Each file goes to a temporary file first; they are renamed into place
    only once all are complete, the manifest last, since it pins the line
    counts of the others.  So a failure while producing any file leaves
    the previous dataset whole and readable."""
    relabeled = _relabeled_tail(records, trajectories, manifest.chunk_len)
    os.makedirs(out_dir, exist_ok=True)
    manifest.n_records = len(records)
    manifest.n_relabeled = len(relabeled)
    manifest.n_trajectories = len(trajectories)
    files = [("records", _json_lines(map(_record_parts, relabeled))),
             ("trajectories", _json_lines(itertools.starmap(
                 _trajectory_parts, enumerate(trajectories)))),
             ("manifest", [_manifest_lines(manifest)])]
    temps: List[str] = []
    try:
        for name, chunks in files:
            temps.append(_write_temp(os.path.join(out_dir, name), chunks))
    except BaseException:
        for tmp in temps:
            os.unlink(tmp)
        raise
    for (name, _), tmp in zip(files, temps):
        os.replace(tmp, os.path.join(out_dir, name))


def _read_jsonl(path: str, expected: int, build: Callable[[Dict], object]) -> Iterator:
    """Yield ``build(row)`` for each non-blank line of ``path``, one line at
    a time, so the parsed JSON of the whole file is never held.  A line
    that is not JSON or that ``build`` rejects raises DatasetFormatError
    with its line number; a line count other than ``expected`` raises it
    once the file ends."""
    count = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.isspace():
                continue
            try:
                row = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(
                    f"{path}: line {lineno}, offset {exc.pos}: {exc.msg}") from exc
            try:
                item = build(row)
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: bad record: {exc!r}") from exc
            count += 1
            yield item
    if count != expected:
        raise DatasetFormatError(
            f"{path}: expected {expected} lines per manifest, found {count} (truncated?)")


def _record_from_row(row: Dict) -> DatasetRecord:
    if row["source"] != "relabeled":
        raise ValueError(f"source {row['source']!r}: only relabeled records are stored")
    return DatasetRecord(observation=np.array(row["obs"], dtype=float),
                         action_chunk=np.array(row["chunk"], dtype=float),
                         source=row["source"], trajectory_id=row["traj"], t=row["t"])


def _trajectory_from_row(row: Dict) -> Trajectory:
    return Trajectory(
        states=np.array(row["states"], dtype=float),
        actions=np.array(row["actions"], dtype=float),
        success=bool(row["success"]),
        env_params=EnvParams(mass=row["mass"], friction_scale=row["friction_scale"]),
        origin=None if row["origin"] is None else np.array(row["origin"], dtype=float),
        variant=int(row["variant"]))


def open_dataset(out_dir: str) -> Tuple[DatasetManifest, Environment, List[Trajectory]]:
    """The manifest, the environment it describes and the trajectory dump,
    with the manifest parsed once.  An ``env_config`` the environment
    rejects raises DatasetFormatError."""
    manifest = read_manifest(out_dir)
    env_config = {k: (tuple(v) if isinstance(v, list) else v)
                  for k, v in manifest.env_config.items() if k != "name"}
    try:
        env = make_env(manifest.env_name, **env_config)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{os.path.join(out_dir, 'manifest')}: "
                                 f"environment: {exc}") from exc
    path = os.path.join(out_dir, "trajectories")
    if not os.path.exists(path):
        raise DatasetFormatError(f"{path}: trajectory dump missing")
    return manifest, env, list(_read_jsonl(path, manifest.n_trajectories,
                                           _trajectory_from_row))


def deserialize(out_dir: str) -> Tuple[List[DatasetRecord], DatasetManifest]:
    """Every record, as ``serialize`` was given them: the curated windows
    rebuilt from ``trajectories`` (their chunks are views of the
    trajectory's actions, as ``export_pairs`` makes them), then the
    relabeled records."""
    manifest, env, trajectories = open_dataset(out_dir)
    try:
        records = export_pairs(trajectories, [], manifest.chunk_len, observe=env.observe)
    except ValueError as exc:
        raise DatasetFormatError(f"{out_dir}: chunk_len {manifest.chunk_len}: {exc}") from exc
    if manifest.n_records != len(records) + manifest.n_relabeled:
        raise DatasetFormatError(
            f"{os.path.join(out_dir, 'manifest')}: n_records {manifest.n_records} is not "
            f"{len(records)} curated + {manifest.n_relabeled} relabeled")
    records.extend(_read_jsonl(os.path.join(out_dir, "records"), manifest.n_relabeled,
                               _record_from_row))
    return records, manifest


def load_trajectories(out_dir: str) -> List[Trajectory]:
    return open_dataset(out_dir)[2]


# ---------------------------------------------------------------------------
# reporting


def dataset_stats(manifest: DatasetManifest) -> Dict:
    """Machine-readable summary from the manifest alone; render with
    format_stats for humans."""
    rewards = manifest.parameters.get("reward_histogram")
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
        "reward_histogram": rewards,
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
    for i, (r_min, r_max) in enumerate(stats["final_tubes"]):
        lines.append(f"variant {i} final tube : [{r_min:.6f}, {r_max:.6f}]")
    return "\n".join(lines) + "\n"
