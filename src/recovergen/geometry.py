"""Rigid-transform algebra and object-centric spatial randomization.

Rotations are stored as unit quaternions (w, x, y, z) canonicalized to
w >= 0 so that pose equality is unambiguous.  All operations are pure;
randomized ones take an explicit numpy Generator.

Both environments are planar (yaw only, z = 0), yet the quaternion form
stays on purpose: the stored data depend on its exact rounding.  A
variant's yaw is read back as 2 atan2(z, w) of a normalised half-angle
quaternion, and demo poses are re-anchored through ``Rotation.apply``
and ``slerp``.  An SE(2) (x, y, yaw) rewrite would compute the same
values along a different path, move output bits and change every
generated dataset.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

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
    def from_quat(w: float, x: float, y: float, z: float) -> "Rotation":
        return Rotation(_canonicalize(np.array([w, x, y, z], dtype=float)))

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
        """Rotate a 3-vector."""
        v = np.asarray(v, dtype=float)
        w = self.wxyz[0]
        u = self.wxyz[1:]
        return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)

    def angle(self) -> float:
        """Rotation angle in [0, pi].  The half-angle is taken as
        atan2(|xyz|, |w|), which stays accurate for tiny angles where
        arccos(|w|) rounds to 0."""
        return 2.0 * float(np.arctan2(np.linalg.norm(self.wxyz[1:]), abs(self.wxyz[0])))

    def angle_to(self, other: "Rotation") -> float:
        return self.inverse().multiply(other).angle()

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

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.rotation.apply(point) + self.translation

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


def slerp(r0: Rotation, r1: Rotation, alpha: float) -> Rotation:
    """Geodesic interpolation on the shorter arc, alpha in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    q0 = r0.wxyz
    q1 = r1.wxyz.copy()
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    dot = min(1.0, dot)
    omega = np.arccos(dot)
    if omega < 1e-10:
        q = (1.0 - alpha) * q0 + alpha * q1
    else:
        s = np.sin(omega)
        q = (np.sin((1.0 - alpha) * omega) / s) * q0 + (np.sin(alpha * omega) / s) * q1
    return Rotation(_canonicalize(q))


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


def reanchor_trajectory(demo_ee: List[Pose], demo_obj0: Pose, new_obj0: Pose) -> List[Pose]:
    """Re-express a demonstrated effector pose sequence relative to a new
    initial object pose, preserving the object-relative motion."""
    if len(demo_ee) == 0:
        raise ValueError("demo_ee must be non-empty")
    m = compose(new_obj0, inverse(demo_obj0))
    return [compose(m, p) for p in demo_ee]


def blend_prefix(reset: Pose, first: Pose, l_blend: int) -> List[Pose]:
    """Short approach segment from the reset pose to the first trajectory
    pose: linear in translation, slerp in rotation.  Returns l_blend + 1
    poses with endpoints reset and first."""
    if l_blend < 1:
        raise ValueError("l_blend must be >= 1")
    out = []
    for ell in range(l_blend + 1):
        alpha = ell / l_blend
        rot = slerp(reset.rotation, first.rotation, alpha)
        trans = (1.0 - alpha) * reset.translation + alpha * first.translation
        out.append(Pose(rot, trans))
    return out
