"""Planar rigid-transform algebra and object-centric spatial randomization.

Both environments are planar, so a pose is (x, y, yaw): a rotation by yaw
about z, then a translation.  Operations are pure; randomized ones take an
explicit numpy Generator.  Rotations use ``math.cos``/``math.sin`` of one
angle, and the stored data depend on their last bits through the variant's
yaw, read by the environment's reset, and through ``reanchor_trajectory``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _rotate(yaw: float, x, y):
    """(x, y) rotated by yaw; elementwise over arrays."""
    c, s = math.cos(yaw), math.sin(yaw)
    return c * x - s * y, s * x + c * y


@dataclass(frozen=True)
class Pose:
    """Planar rigid transform: rotation by yaw (rad) about z, then
    translation by (x, y) (meters).  yaw is kept in [-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        # remainder is exact, so a yaw already in [-pi, pi] keeps its bits
        object.__setattr__(self, "yaw", math.remainder(self.yaw, 2.0 * math.pi))


def compose(a: Pose, b: Pose) -> Pose:
    """SE(2) group product a . b (apply b first, then a)."""
    x, y = _rotate(a.yaw, b.x, b.y)
    return Pose(x + a.x, y + a.y, a.yaw + b.yaw)


def sample_object_perturbation(trans_range, yaw_range: float,
                               rng: np.random.Generator) -> Pose:
    """Random planar perturbation: uniform translation in +-trans_range per
    axis (x, y, z; z is drawn and discarded, which keeps the draw order of
    every stored dataset) and uniform yaw in +-yaw_range."""
    trans_range = np.asarray(trans_range, dtype=float)
    if np.any(trans_range < 0) or yaw_range < 0:
        raise ValueError("perturbation bounds must be non-negative")
    dx, dy, _ = rng.uniform(-trans_range, trans_range).tolist()
    dth = rng.uniform(-yaw_range, yaw_range) if yaw_range > 0 else 0.0
    return Pose(dx, dy, dth)


def reanchor_trajectory(points: np.ndarray, demo_obj0: Pose, new_obj0: Pose) -> np.ndarray:
    """Re-express demonstrated effector positions (n, 2) relative to a new
    initial object pose, preserving their object-relative motion."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or len(points) == 0:
        raise ValueError(f"points must be a non-empty (n, 2) array, got shape {points.shape}")
    x, y = _rotate(new_obj0.yaw - demo_obj0.yaw,
                   points[:, 0] - demo_obj0.x, points[:, 1] - demo_obj0.y)
    return np.stack([x + new_obj0.x, y + new_obj0.y], axis=1)
