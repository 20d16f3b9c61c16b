"""Quaternion, rotation and rigid-transform helpers shared across the package.

Quaternions are numpy arrays in [w, x, y, z] order and are expected to be
unit-norm unless a function says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNIT_NORM_TOL = 1e-6


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.fmod(a + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


def dot(a, b) -> float:
    """a0*b0 + a1*b1 + a2*b2 of two 3-sequences, summed left to right.

    Every 3-vector product whose bits reach an output goes through this one
    fixed order, so no BLAS kernel's order of operations reaches them. On
    (N, 3) arrays the column-wise a[:, 0]*b[:, 0] + a[:, 1]*b[:, 1] +
    a[:, 2]*b[:, 2] has the same bits row by row (a NaN's sign and payload
    aside).
    """
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def plane_offset(plane: tuple, x: float, y: float, z: float) -> float:
    """The signed offset n . (p - c) of the point (x, y, z) from the plane
    (cx, cy, cz, nx, ny, nz): dot's sum, written out to spare the call."""
    cx, cy, cz, nx, ny, nz = plane
    return nx * (x - cx) + ny * (y - cy) + nz * (z - cz)


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("zero-norm quaternion")
    return q / n


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a*b; supports broadcasting over leading axes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vectors v (..., 3) by unit quaternion q."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = q[..., 0:1]
    u = q[..., 1:]
    # v' = v + 2 w (u x v) + 2 u x (u x v)
    uv = np.cross(u, v)
    return v + 2.0 * (w * uv + np.cross(u, uv))


def quat_to_mat(q) -> np.ndarray:
    """Unit quaternion -> 3x3 rotation matrix (batched over leading axes)."""
    q = np.asarray(q, dtype=np.float64)
    # one quaternion: the same arithmetic on Python floats, several times faster
    w, x, y, z = q.tolist() if q.ndim == 1 else (q[..., 0], q[..., 1], q[..., 2], q[..., 3])
    m = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    m[..., 0, 0] = 1 - 2 * (y * y + z * z)
    m[..., 0, 1] = 2 * (x * y - w * z)
    m[..., 0, 2] = 2 * (x * z + w * y)
    m[..., 1, 0] = 2 * (x * y + w * z)
    m[..., 1, 1] = 1 - 2 * (x * x + z * z)
    m[..., 1, 2] = 2 * (y * z - w * x)
    m[..., 2, 0] = 2 * (x * z - w * y)
    m[..., 2, 1] = 2 * (y * z + w * x)
    m[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def mat_to_quat(m) -> np.ndarray:
    """3x3 rotation matrix -> unit quaternion [w,x,y,z] with w >= 0.

    Scalar math on Python floats: the trace and the norm are summed left to
    right, as np.trace and np.linalg.norm(axis=-1) sum them, so the result
    has their bits.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(m, dtype=np.float64).tolist()
    t = m00 + m11 + m22
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w, x, y, z = 0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s
    elif m00 > m11 and m00 > m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        w, x, y, z = (m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s
    elif m11 > m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        w, x, y, z = (m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        w, x, y, z = (m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return np.array([w / n, x / n, y / n, z / n])


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    if axis.shape != (3,):
        raise ValueError(f"rotation axis needs three components, got shape {axis.shape}")
    # the fixed-order dot, not a BLAS norm, so edit-scene bytes do not depend on the kernel
    n = math.sqrt(dot(axis, axis))
    if n == 0.0:
        raise ValueError("zero rotation axis")
    half = 0.5 * angle
    q = np.empty(4)
    q[0] = math.cos(half)
    q[1:] = (math.sin(half) / n) * axis
    return q


def quat_from_yaw(yaw: float) -> np.ndarray:
    return np.array([math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw)])


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (unit quaternion) + translation: maps points as p -> R p + t."""

    rotation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64))
        if not abs(np.linalg.norm(self.rotation) - 1.0) <= UNIT_NORM_TOL:
            raise ValueError("rotation quaternion is not unit-norm")

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform()

    def apply(self, points) -> np.ndarray:
        return quat_rotate(self.rotation, points) + self.translation

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_mat(self.rotation)
