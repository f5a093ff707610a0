"""Command-line interface.

Subcommands:

* ``generate`` -- full closed-loop generation + curation run
* ``baseline`` -- spatial-randomization-only comparison run
* ``evaluate`` -- open-loop replay harness over a stored dataset
* ``stats``    -- summary report for a stored dataset

Exit codes: 0 success, 2 configuration error, 3 no variant produced data,
4 I/O or dataset-format error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, load_config
from .dataset_io import DatasetFormatError, dataset_stats, format_stats, read_manifest
from .pipeline import (PipelineError, compare_replay, evaluate_replay,
                       run_pgdg, run_spatial_only)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_DATA = 3
EXIT_IO = 4


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--jobs", type=int, help="worker pool size")
    p.add_argument("--env", help="environment name")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key, e.g. --set curator.q_min=0.1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recovergen")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, descr in (("generate", "run the full generation + curation pipeline"),
                        ("baseline", "run the spatial-only baseline")):
        p = sub.add_parser(name, help=descr)
        _add_run_args(p)

    p = sub.add_parser("evaluate", help="open-loop replay evaluation of a dataset")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("--compare", help="baseline dataset directory to compare against")
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("stats", help="summarize a stored dataset")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _load_run_config(args):
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.env:
        overrides["env"] = args.env
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["out_dir"] = args.out
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("generate", "baseline"):
            cfg = _load_run_config(args)
            runner = run_pgdg if args.command == "generate" else run_spatial_only
            report = runner(cfg)
            m = report.manifest
            print(f"wrote {m.n_records} records to {cfg.out_dir} "
                  f"(generated {m.n_generated}, successful {m.n_successful}, "
                  f"selected {m.n_selected}, relabeled {m.n_relabeled}) "
                  f"in {report.wall_time_s:.1f}s")
        elif args.command == "evaluate":
            if args.compare:
                out = compare_replay(args.dataset, args.compare, args.trials, args.seed)
            else:
                out = evaluate_replay(args.dataset, args.trials, args.seed)
            print(json.dumps(out, indent=2))
        elif args.command == "stats":
            stats = dataset_stats(read_manifest(args.dataset))
            print(json.dumps(stats, indent=2) if args.json else format_stats(stats), end="")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_NO_DATA
    except (DatasetFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
