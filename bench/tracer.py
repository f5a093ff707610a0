"""Traced run of one recovergen CLI call.

    python3 bench/tracer.py SPANS_PREFIX OP_ID -- <recovergen arguments>

Imports the program from ``PYTHONPATH``, wraps the public functions of
each layer at every name the program looks them up by (the defining
module and every module that imported the name), runs
``recovergen.cli.main`` and exits with its return code.  The program's
own files are not edited.

Every wrapped call records a span (function, parent span, start, end,
rows); spans stay in memory and are written when the call ends, as
``SPANS_PREFIX.bin`` (five packed arrays) and ``SPANS_PREFIX.json``
(function names, layers, counters, names that no longer exist).  The
benchmark aggregates them after the process has exited, so the traced
wall time carries no aggregation cost.

Env work is counted by wrapping each environment class's ``step`` and
reading the row count from the shape of its state argument, so the
count survives a batched ``step(states (n, d_s), ...)``.
"""
from __future__ import annotations

import builtins
import functools
import importlib
import json
import os
import sys
import time
from array import array

# layer -> (module, functions wrapped at every name bound to them)
TARGETS = {
    "envs": ("recovergen.envs", ["rollout", "rollout_with_resume"]),
    "sampler": ("recovergen.sampler",
                ["generate_success_batch", "sample_batch", "init_proposal", "decode",
                 "widen"]),
    "curator": ("recovergen.curator",
                ["state_distances", "peak_deviation", "compute_tube", "tube_reward",
                 "dct_embed", "median_pairwise_distance", "build_kernel",
                 "dpp_select_greedy", "reward_to_weight", "update_proposal"]),
    "relabel": ("recovergen.relabel",
                ["relabel_dataset", "select_risky_states", "cem_optimize", "relabel_cost"]),
    "dataset_io": ("recovergen.dataset_io",
                   ["export_pairs", "serialize", "deserialize", "load_trajectories",
                    "dataset_stats"]),
    "pipeline": ("recovergen.pipeline",
                 ["run_pgdg", "run_spatial_only", "run_variant", "evaluate_replay",
                  "compare_replay"]),
    "cli": ("recovergen.cli", ["main"]),
}
STEP = "envs.step"
# functions whose second positional argument is a state or a batch of them
ROWS_FROM_STATE = {STEP, "envs.rollout", "envs.rollout_with_resume"}


# counters read from results: function -> (counter, value of the result)
RESULT_COUNTERS = {
    "sampler.generate_success_batch": [("successes", len),
                                       ("sampled", lambda r: r.n_sampled)],
    "curator.dpp_select_greedy": [("selected", len)],
    "relabel.select_risky_states": [("points", len)],
    "relabel.relabel_dataset": [("emitted", len)],
    "pipeline.run_variant": [("starved", lambda r: int(bool(r.skipped)))],
}


def _rows(args) -> int:
    x = args[1] if len(args) > 1 else None
    return int(x.shape[0]) if getattr(x, "ndim", 1) >= 2 else 1


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list = []
        self.layers: list = []
        self.fn = array("i")
        self.parent = array("i")
        self.rows = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict = {}
        self.broken: set = set()
        self.absent: list = []
        self.bytes_read = 0

    def wrap(self, name: str, layer: str, func):
        if name not in self.names:
            self.names.append(name)
            self.layers.append(layer)
        idx = self.names.index(name)
        fn_add, parent_add, rows_add = self.fn.append, self.parent.append, self.rows.append
        start_add, end_add, end = self.start.append, self.end.append, self.end
        stack, push, pop = self.stack, self.stack.append, self.stack.pop
        clock = time.perf_counter
        with_rows = name in ROWS_FROM_STATE
        counters = RESULT_COUNTERS.get(name, ())
        for key, _ in counters:
            self.counters.setdefault(key, 0)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(end)
            fn_add(idx)
            parent_add(stack[-1])
            rows_add(_rows(args) if with_rows else 1)
            end_add(0.0)
            push(sid)
            start_add(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[sid] = clock()
                pop()
            for key, value in counters:
                if key not in self.broken:
                    try:
                        self.counters[key] += value(result)
                    except (AttributeError, TypeError):
                        self.broken.add(key)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "recovergen" or n.startswith("recovergen."))]
        for layer, (mod_name, funcs) in TARGETS.items():
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.absent.extend(f"{layer}.{f}" for f in funcs)
                continue
            for f in funcs:
                orig = getattr(mod, f, None)
                if not callable(orig):
                    self.absent.append(f"{layer}.{f}")
                    continue
                wrapped = self.wrap(f"{layer}.{f}", layer, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
        self._install_step()
        self._install_open()

    def _install_step(self) -> None:
        envs = sys.modules.get("recovergen.envs")
        classes = [c for c in vars(envs).values()
                   if isinstance(c, type) and c.__module__ == envs.__name__
                   and "step" in vars(c)] if envs else []
        if not classes:
            self.absent.append(STEP)
        for cls in classes:
            # every class shares the one name, so steps aggregate
            setattr(cls, "step", self.wrap(STEP, "envs", vars(cls)["step"]))

    def _install_open(self) -> None:
        """Count bytes of files opened for reading inside dataset_io."""
        real_open = builtins.open
        io_layers = {i for i, layer in enumerate(self.layers) if layer == "dataset_io"}

        def traced_open(file, mode="r", *args, **kwargs):
            if isinstance(mode, str) and not set(mode) & set("wax+") \
                    and any(self.fn[s] in io_layers for s in self.stack[1:]):
                try:
                    self.bytes_read += os.path.getsize(file)
                except (OSError, TypeError):
                    pass
            return real_open(file, mode, *args, **kwargs)
        builtins.open = traced_open

    def write(self, prefix: str, op_id: int) -> None:
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.fn, self.parent, self.rows, self.start, self.end):
                arr.tofile(fh)
        counters = {k: v for k, v in self.counters.items() if k not in self.broken}
        meta = {"op_id": op_id, "n_spans": len(self.end), "names": self.names,
                "layers": self.layers, "counters": counters, "absent": self.absent,
                "bytes_read": self.bytes_read}
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh)


def read_spans(prefix: str):
    """(meta, fn, parent, rows, start, end) as written by Tracer.write."""
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    n = meta["n_spans"]
    with open(prefix + ".bin", "rb") as fh:
        data = fh.read()
    out, offset = [], 0
    for code in ("i", "i", "i", "d", "d"):
        arr = array(code)
        width = arr.itemsize * n
        arr.frombytes(data[offset:offset + width])
        offset += width
        out.append(arr)
    return (meta, *out)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    prefix, op_id, cli_args = argv[0], int(argv[1]), argv[3:]
    import recovergen.cli
    tracer = Tracer()
    tracer.install()
    code = recovergen.cli.main(cli_args)
    sys.stdout.flush()
    tracer.write(prefix, op_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
