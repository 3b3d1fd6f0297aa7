"""Rigid-body transform algebra for modular-robot identification.

Conventions used throughout the package: rotations are 3x3 orthonormal
matrices, translations are 3-vectors in millimetres, angles are degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHONORMALITY_TOL = 1e-9

# Discrete roll values permitted by the four-pin connector interface.
CONNECTION_ANGLES = (-90.0, 0.0, 90.0, 180.0)


class DegenerateGeometry(ValueError):
    """Two frames whose origins coincide define no direction vector."""


def _cos_sin(deg: float) -> tuple[float, float]:
    rad = math.radians(deg)
    return math.cos(rad), math.sin(rad)


def rot_x(deg: float) -> np.ndarray:
    c, s = _cos_sin(deg)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(deg: float) -> np.ndarray:
    c, s = _cos_sin(deg)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(deg: float) -> np.ndarray:
    c, s = _cos_sin(deg)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle(axis, deg: float) -> np.ndarray:
    """Rotation matrix for a rotation of `deg` about an arbitrary axis."""
    a = np.asarray(axis, dtype=float)
    n = np.linalg.norm(a)
    if n < 1e-12:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = a / n
    c, s = _cos_sin(deg)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def wrap_angle(deg: float) -> float:
    """Wrap an angle into (-180, 180]."""
    return 180.0 - (180.0 - deg) % 360.0


@dataclass(frozen=True)
class Pose:
    """Rigid transform: orthonormal rotation plus millimetre translation.

    The constructor validates its input and is the path for every pose that
    enters from outside: files, noise draws and callers of the package.
    Transforms derived from valid poses or exact rotations inside the
    package go through `_trusted`, which skips the checks.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float).reshape(3, 3)
        t = np.array(self.translation, dtype=float).reshape(3)
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("pose has non-finite entries")
        drift = np.abs(r.T @ r - np.eye(3)).max()
        if drift > 1e-2:
            raise ValueError("rotation is not close to orthonormal")
        if drift > ORTHONORMALITY_TOL:
            u, _, vt = np.linalg.svd(r)
            r = u @ vt
        if np.linalg.det(r) < 0.0:
            raise ValueError("rotation must be proper (det +1)")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def _trusted(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        """Unchecked pose over arrays known to be a proper rotation and a 3-vector.

        The arrays are frozen in place, not copied: the caller hands over
        arrays that nothing else writes to.
        """
        rotation.setflags(write=False)
        translation.setflags(write=False)
        pose = object.__new__(cls)
        object.__setattr__(pose, "rotation", rotation)
        object.__setattr__(pose, "translation", translation)
        return pose

    @staticmethod
    def identity() -> "Pose":
        return Pose._trusted(np.eye(3), np.zeros(3))

    @staticmethod
    def from_rotation(r: np.ndarray) -> "Pose":
        return Pose(r, np.zeros(3))

    @staticmethod
    def from_translation(t) -> "Pose":
        return Pose(np.eye(3), np.asarray(t, dtype=float))

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4) or np.abs(m[3] - [0, 0, 0, 1]).max() > 1e-9:
            raise ValueError("expected a homogeneous 4x4 matrix")
        return Pose(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def approx_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        return (
            np.abs(self.rotation - other.rotation).max() <= tol
            and np.abs(self.translation - other.translation).max() <= tol
        )


def compose(a: Pose, b: Pose) -> Pose:
    """Homogeneous composition a * b."""
    return Pose._trusted(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(p: Pose) -> Pose:
    rt = p.rotation.T
    # np.array keeps the transpose's Fortran order, and with it the BLAS
    # rounding of every product the inverse enters.
    return Pose._trusted(np.array(rt), -rt @ p.translation)


def relative(n: Pose, c: Pose) -> Pose:
    """Transform from frame n to frame c (inverse(n) * c)."""
    return compose(invert(n), c)


@dataclass(frozen=True)
class WeightMatrix:
    """Weights mixing orientation (dimensionless) and translation (1/mm) error."""

    w_o: float = 1.0
    w_t: float = 0.01

    def __post_init__(self):
        if self.w_o <= 0.0 or self.w_t <= 0.0:
            raise ValueError("weights must be positive")

    def mask(self) -> np.ndarray:
        m = np.zeros((4, 4))
        m[:3, :3] = self.w_o
        m[:3, 3] = self.w_t
        return m


def pose_distance(t: Pose, t_ref: Pose, w: WeightMatrix) -> float:
    """Weighted Frobenius norm of the difference of two homogeneous matrices."""
    return float(np.linalg.norm(w.mask() * (t.matrix() - t_ref.matrix())))


def y_axis(p: Pose) -> np.ndarray:
    return p.rotation[:, 1].copy()


def z_axis(p: Pose) -> np.ndarray:
    return p.rotation[:, 2].copy()


def unit_between(p: Pose, c: Pose) -> np.ndarray:
    """Unit vector from the origin of p to the origin of c."""
    d = c.translation - p.translation
    n = np.linalg.norm(d)
    if n <= 1e-6:
        raise DegenerateGeometry("frame origins coincide; no direction defined")
    return d / n


def raw_connection_angle(p: Pose, c: Pose) -> float:
    """Signed angle between the z-axes of two mated frames, in (-180, 180].

    The magnitude is arccos(z_p . z_c); the sign is positive when the
    rotation axis z_p x z_c points along the parent-to-child direction.
    """
    u = unit_between(p, c)
    zp = z_axis(p)
    zc = z_axis(c)
    dot = float(np.clip(zp @ zc, -1.0, 1.0))
    ang = math.degrees(math.acos(dot))
    if float(np.cross(zp, zc) @ u) >= 0.0:
        return ang
    return -ang


def circular_difference(a: float, b: float) -> float:
    """Absolute angular separation of a and b on the circle, in [0, 180]."""
    return abs(wrap_angle(a - b))


def discretize_angle(raw: float) -> float:
    """Snap an angle to the nearest member of the four-pin connection set.

    Ties at the +-45 / +-135 midpoints resolve toward the smaller absolute
    value, and toward the positive sign on an exact sign tie.
    """
    raw = wrap_angle(raw)
    return min(
        CONNECTION_ANGLES,
        key=lambda c: (circular_difference(raw, c), abs(c), 0 if c > 0 else 1),
    )


def quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (x, y, z, w) to rotation matrix."""
    x, y, z, w = np.asarray(q, dtype=float)
    n = math.sqrt(x * x + y * y + z * z + w * w)
    if n < 1e-12:
        raise ValueError("zero-norm quaternion")
    x, y, z, w = x / n, y / n, z / n, w / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(r: np.ndarray) -> np.ndarray:
    """Rotation matrix to unit quaternion (x, y, z, w), w >= 0."""
    r = np.asarray(r, dtype=float)
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s, 0.25 * s]
        )
    elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s, (r[2, 1] - r[1, 2]) / s]
        )
    elif r[1, 1] >= r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s, (r[0, 2] - r[2, 0]) / s]
        )
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array(
            [(r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s, (r[1, 0] - r[0, 1]) / s]
        )
    if q[3] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def finite_number(value) -> float:
    """A JSON number (not a bool) as a finite float; ValueError otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"expected a finite number, got {value!r:.40}")


def pose_to_json(p: Pose) -> dict:
    """File form of a pose: translation `t` in mm, quaternion `q` as (x, y, z, w)."""
    return {
        "t": [float(v) for v in p.translation],
        "q": [float(v) for v in matrix_to_quat(p.rotation)],
    }


def pose_from_json(t, q) -> Pose:
    """Checked pose from the `t` and `q` values of the file form.

    Raises ValueError unless `t` is a list of 3 and `q` a list of 4 finite
    numbers and the quaternion's norm is nonzero and finite.
    """
    for name, values, n in (("t", t, 3), ("q", q, 4)):
        if not isinstance(values, list) or len(values) != n:
            raise ValueError(f"{name} must be a list of {n} numbers")
    q = [finite_number(v) for v in q]
    if not math.isfinite(sum(v * v for v in q)):
        # quat_to_matrix would normalize by an infinite norm into the identity.
        raise ValueError("q is too large to normalize")
    return Pose(quat_to_matrix(q), np.array([finite_number(v) for v in t]))


def rpy_to_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis XYZ (roll, pitch, yaw) angles in radians to a matrix."""
    return (
        rot_z(math.degrees(yaw)) @ rot_y(math.degrees(pitch)) @ rot_x(math.degrees(roll))
    )


def matrix_to_rpy(r: np.ndarray) -> tuple[float, float, float]:
    """Rotation matrix to fixed-axis XYZ angles in radians."""
    sy = math.hypot(r[0, 0], r[1, 0])
    if sy > 1e-9:
        roll = math.atan2(r[2, 1], r[2, 2])
        pitch = math.atan2(-r[2, 0], sy)
        yaw = math.atan2(r[1, 0], r[0, 0])
    else:
        roll = math.atan2(-r[1, 2], r[1, 1])
        pitch = math.atan2(-r[2, 0], sy)
        yaw = 0.0
    return roll, pitch, yaw
