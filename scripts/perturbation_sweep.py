#!/usr/bin/env python3
"""Sweep the initial-pose perturbation magnitude and measure how often
open-loop replay of the re-anchored demonstration still succeeds.

This reproduces the failure mode the closed-loop pipeline exists to fix:
spatial re-anchoring alone degrades quickly once yaw perturbations and
friction slip come into play.

Usage:
    python3 scripts/perturbation_sweep.py --env planar_block_rotate \
        --episodes 50 --levels 6 --seed 0
"""
import argparse
import math

import numpy as np

from recovergen.envs import augmented_demo_actions, make_env, rollout_batch
from recovergen.geometry import compose, sample_object_perturbation


def replay_success_rate(env, scale, episodes, rng, trans_range, yaw_range,
                        l_blend):
    """Share of episodes whose replay succeeds; every episode's pose and
    then its friction scale are drawn in turn, and all episodes are
    rolled out in one batch."""
    base = env.demo_object_pose()
    poses, friction = [], []
    for _ in range(episodes):
        delta = sample_object_perturbation(
            tuple(scale * b for b in trans_range), scale * yaw_range, rng)
        poses.append(compose(delta, base))
        friction.append(env.sample_friction(rng, 1))
    s0s = np.array([env.reset(pose) for pose in poses])
    actions = np.array([augmented_demo_actions(env, pose, l_blend) for pose in poses])
    _, success = rollout_batch(env, s0s, actions, np.concatenate(friction))
    return int(success.sum()) / episodes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--env", default="planar_block_rotate")
    ap.add_argument("--episodes", type=int, default=50)
    ap.add_argument("--levels", type=int, default=6,
                    help="number of perturbation scales in [0, 1]")
    ap.add_argument("--trans-range", type=float, nargs=3,
                    default=(0.08, 0.08, 0.0))
    ap.add_argument("--yaw-range", type=float, default=0.3)
    ap.add_argument("--l-blend", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.episodes < 1:
        ap.error("--episodes must be >= 1")
    if args.levels < 1:
        ap.error("--levels must be >= 1")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    # written so that nan fails the comparison too
    if not all(0 <= b < math.inf for b in args.trans_range):
        ap.error("--trans-range bounds must be finite and >= 0")
    if not 0 <= args.yaw_range < math.inf:
        ap.error("--yaw-range must be finite and >= 0")

    env = make_env(args.env)
    if not 1 <= args.l_blend <= env.horizon - 1:
        ap.error(f"--l-blend must be in 1..{env.horizon - 1} for {args.env}")
    rng = np.random.default_rng(args.seed)
    print(f"# env={args.env} episodes={args.episodes} seed={args.seed}")
    print("# scale  replay_success_rate")
    for scale in np.linspace(0.0, 1.0, args.levels):
        rate = replay_success_rate(env, scale, args.episodes, rng,
                                   args.trans_range, args.yaw_range,
                                   args.l_blend)
        print(f"{scale:6.2f}  {rate:.3f}")


if __name__ == "__main__":
    main()
