"""Rigid-transform algebra and object-centric spatial randomization.

Rotations are stored as unit quaternions (w, x, y, z) canonicalized to
w >= 0 so that pose equality is unambiguous.  All operations are pure;
randomized ones take an explicit numpy Generator.

Both environments are planar (yaw only, z = 0), yet the quaternion form
stays on purpose: the stored data depend on its exact rounding.  The
output bits depend on ``compose`` and ``inverse``, called once per
variant to build the re-anchoring transform, on ``Rotation.apply`` of
that transform to the demo's effector positions, and on a variant's yaw,
read back by ``Pose.yaw`` as 2 atan2(z, w) of a normalised half-angle
quaternion.  Effector orientation never reaches an action.  An SE(2)
(x, y, yaw) rewrite would compute the same values along a different
path, move output bits and change every generated dataset.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_UNIT_TOL = 1e-9


def _canonicalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("quaternion must be nonzero and finite")
    q = q / n
    if q[0] < 0.0:
        q = -q
    return q


@dataclass(frozen=True)
class Rotation:
    """Unit quaternion (w, x, y, z), canonicalized to w >= 0."""

    wxyz: np.ndarray

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def about_z(angle: float) -> "Rotation":
        h = 0.5 * angle
        return Rotation(_canonicalize(np.array([np.cos(h), 0.0, 0.0, np.sin(h)])))

    def __post_init__(self):
        object.__setattr__(self, "wxyz", _canonicalize(self.wxyz))

    def multiply(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self.wxyz
        w2, x2, y2, z2 = other.wxyz
        return Rotation(np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]))

    def inverse(self) -> "Rotation":
        w, x, y, z = self.wxyz
        return Rotation(np.array([w, -x, -y, -z]))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Rotate a 3-vector or each row of an (n, 3) array."""
        v = np.asarray(v, dtype=float)
        w = self.wxyz[0]
        u = self.wxyz[1:]
        return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)

    def allclose(self, other: "Rotation", atol: float = _UNIT_TOL) -> bool:
        return bool(np.allclose(self.wxyz, other.wxyz, atol=atol))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation followed by translation (meters)."""

    rotation: Rotation
    translation: np.ndarray

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation.identity(), np.zeros(3))

    @staticmethod
    def from_xy_yaw(x: float, y: float, yaw: float) -> "Pose":
        return Pose(Rotation.about_z(yaw), np.array([x, y, 0.0]))

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise ValueError("translation must be a finite 3-vector")
        object.__setattr__(self, "translation", t)

    def yaw(self) -> float:
        """Rotation angle about z, valid for planar (z-axis) rotations."""
        w, _, _, z = self.rotation.wxyz
        return 2.0 * np.arctan2(z, w)

    def allclose(self, other: "Pose", atol: float = _UNIT_TOL) -> bool:
        return (self.rotation.allclose(other.rotation, atol=atol)
                and bool(np.allclose(self.translation, other.translation, atol=atol)))


def compose(a: Pose, b: Pose) -> Pose:
    """SE(3) group product a . b (apply b first, then a)."""
    return Pose(a.rotation.multiply(b.rotation), a.rotation.apply(b.translation) + a.translation)


def inverse(p: Pose) -> Pose:
    r_inv = p.rotation.inverse()
    return Pose(r_inv, -r_inv.apply(p.translation))


def sample_object_perturbation(trans_range, yaw_range: float,
                               rng: np.random.Generator) -> Pose:
    """Random planar-ish perturbation: uniform translation in +-trans_range
    per axis and uniform yaw in +-yaw_range."""
    trans_range = np.asarray(trans_range, dtype=float)
    if np.any(trans_range < 0) or yaw_range < 0:
        raise ValueError("perturbation bounds must be non-negative")
    dp = rng.uniform(-trans_range, trans_range)
    dth = rng.uniform(-yaw_range, yaw_range) if yaw_range > 0 else 0.0
    return Pose(Rotation.about_z(dth), dp)


def reanchor_trajectory(points: np.ndarray, demo_obj0: Pose, new_obj0: Pose) -> np.ndarray:
    """Re-express demonstrated effector positions (n, 3) relative to a new
    initial object pose, preserving their object-relative motion."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
        raise ValueError(f"points must be a non-empty (n, 3) array, got shape {points.shape}")
    m = compose(new_obj0, inverse(demo_obj0))
    return m.rotation.apply(points) + m.translation
