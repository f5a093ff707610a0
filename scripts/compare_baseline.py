#!/usr/bin/env python3
"""Run the full closed-loop generation pipeline and the spatial-only
baseline with the same seed, then compare open-loop replay success.

Usage:
    python3 scripts/compare_baseline.py --out /tmp/cmp --seed 7 --trials 40
"""
import argparse
import json
import os

from recovergen.config import PipelineConfig
from recovergen.pipeline import compare_replay, run_pgdg, run_spatial_only


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="parent output directory")
    ap.add_argument("--env", default="planar_block_rotate")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--baseline-variants", type=int, default=40,
                    help="variants for the baseline (one rollout each)")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    gen_dir = os.path.join(args.out, "generate")
    base_dir = os.path.join(args.out, "baseline")

    cfg = PipelineConfig(env=args.env, out_dir=gen_dir, seed=args.seed,
                         jobs=args.jobs)
    report = run_pgdg(cfg)
    m = report.manifest
    print(f"generate: {m.n_selected} curated of {m.n_successful} successful / "
          f"{m.n_generated} sampled, {m.n_relabeled} relabeled, {report.wall_time_s:.1f}s")

    base_cfg = PipelineConfig(env=args.env, out_dir=base_dir, seed=args.seed,
                              n_variants=args.baseline_variants)
    base = run_spatial_only(base_cfg).manifest
    print(f"baseline: {base.n_successful} successful of {base.n_generated} replays")

    out = compare_replay(gen_dir, base_dir, args.trials, seed=args.seed)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
