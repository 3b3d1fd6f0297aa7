"""Rigid-body transform algebra for modular-robot identification.

Conventions used throughout the package: rotations are 3x3 orthonormal
matrices, translations are 3-vectors in millimetres, angles are degrees.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from dataclasses import dataclass, field

import numpy as np

from .descriptor import ANGLES

ORTHONORMALITY_TOL = 1e-9

# Discrete roll values permitted by the four-pin connector interface.
CONNECTION_ANGLES = tuple(float(a) for a in ANGLES)


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


_EYE = np.eye(3)
_EYE.setflags(write=False)


def axis_angle(axis, deg) -> np.ndarray:
    """Rotation matrix for a rotation of `deg` about an arbitrary axis; an (n, 3)
    stack of axes with n angles gives (n, 3, 3), layer by layer the same."""
    a = np.asarray(axis, dtype=float).reshape(-1, 3)
    # Row-wise a.dot(a): matmul takes the dot product that np.linalg.norm does.
    n = np.sqrt((a[:, None] @ a[:, :, None]).ravel())
    if (n < 1e-12).any():
        raise ValueError("rotation axis must be nonzero")
    x, y, z = (a / n[:, None]).T
    c, s = np.array([_cos_sin(d) for d in np.ravel(deg).tolist()]).T[:, :, None, None]
    k = np.zeros((len(a), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -z, y, -x
    k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = z, -y, x
    r = _EYE + s * k + (1.0 - c) * (k @ k)
    return r if np.ndim(axis) > 1 else r[0]


# Coordinate plane (a, b) that a turn about base axis y (1) or z (2) takes a into b in.
TURN_PLANES = {1: (2, 0), 2: (0, 1)}


def joint_turns(axis: int, deg) -> np.ndarray:
    """Homogeneous rotations about the y (axis=1) or z (axis=2) base axis, one per angle."""
    a, b = TURN_PLANES[axis]
    rad = np.radians(deg)
    m = np.zeros((len(rad), 4, 4))
    m[:, axis, axis] = m[:, 3, 3] = 1.0
    m[:, a, a] = m[:, b, b] = np.cos(rad)
    m[:, b, a] = np.sin(rad)
    m[:, a, b] = -m[:, b, a]
    return m


def wrap_angle(deg: float) -> float:
    """Wrap an angle into (-180, 180]."""
    return 180.0 - (180.0 - deg) % 360.0


class InvalidPose(ValueError):
    """A pose failed the constructor's checks; `index` is its place in the checked stack."""

    index = 0


def _checked_rotations(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Pose checks over rotations (n, 3, 3) and translations (n, 3), fixing drift in place.

    The first pose that is non-finite, drifts past 1e-2 or is improper raises.
    """
    drift = np.abs(r.transpose(0, 2, 1) @ r - _EYE).max()  # of the worst pose
    if drift <= ORTHONORMALITY_TOL and np.isfinite(t).all() and np.linalg.det(r).min() >= 0.0:
        return r  # finite, within the tolerance and proper throughout
    for i in range(len(r)):  # one pose at a time, so that the first failing pose raises
        ri = r[i : i + 1]
        drift = np.abs(ri.transpose(0, 2, 1) @ ri - _EYE).max()
        if not (np.isfinite(ri).all() and np.isfinite(t[i]).all()):
            error = InvalidPose("pose has non-finite entries")
        elif drift > 1e-2:
            error = InvalidPose("rotation is not close to orthonormal")
        else:
            if drift > ORTHONORMALITY_TOL:
                u, _, vt = np.linalg.svd(ri)
                ri[:] = u @ vt
            if np.linalg.det(ri[0]) >= 0.0:
                continue
            error = InvalidPose("rotation must be proper (det +1)")
        error.index = i
        raise error
    return r


@dataclass(frozen=True)
class Pose:
    """Rigid transform: orthonormal rotation plus millimetre translation.

    The constructor validates its input; its checks serve callers of the
    package and, as one stack, noise draws (`checked_poses`).  File poses,
    transforms derived from valid poses and exact rotations inside the
    package go through `_trusted`, which skips the checks.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float).reshape(1, 3, 3)
        t = np.array(self.translation, dtype=float).reshape(1, 3)
        r, t = _checked_rotations(r, t)[0], t[0]
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
    # The weights laid over a homogeneous matrix, built once and read-only.
    mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.w_o > 0.0 and self.w_t > 0.0):  # NaN fails too
            raise ValueError("weights must be positive")
        # The parent-search solve squares each weight; an int's square compares exactly.
        if not max(self.w_o * self.w_o, self.w_t * self.w_t) <= sys.float_info.max:
            raise ValueError("weights must be finite, with squares a float can hold")
        m = np.zeros((4, 4))
        m[:3, :3] = self.w_o
        m[:3, 3] = self.w_t
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)


def unit_between(p: Pose, c: Pose) -> np.ndarray:
    """Unit vector from the origin of p to the origin of c."""
    d = c.translation - p.translation
    n = np.linalg.norm(d)
    if n <= 1e-6:
        raise DegenerateGeometry("frame origins coincide; no direction defined")
    return d / n


def signed_angle(cos: float, triple: float) -> float:
    """The angle, in degrees, between two unit vectors whose dot product is `cos`
    (clamped into [-1, 1]); negative when `triple`, the scalar triple product
    that orients the turn, is."""
    ang = math.degrees(math.acos(min(max(cos, -1.0), 1.0)))
    return ang if triple >= 0.0 else -ang


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


def quat_rows(q: list) -> list[float]:
    """Rotation matrix, row by row as 9 floats, of the quaternion (x, y, z, w) `q`.

    The one quaternion check: ValueError unless `q` holds finite numbers with
    a squared norm a float can hold and a norm of at least 1e-12.  Then the
    textbook formula in plain floats, each IEEE operation in the order the
    formula over numpy arrays performs it, so the bits match that form.
    """
    x, y, z, w = _finite_floats(q)
    norm2 = x * x + y * y + z * z + w * w
    if not math.isfinite(norm2):
        raise ValueError("q is too large to normalize")
    n = math.sqrt(norm2)
    if n < 1e-12:
        raise ValueError("zero-norm quaternion")
    x, y, z, w = x / n, y / n, z / n, w / n
    return [
        1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
        2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
        2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
    ]


def quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (x, y, z, w) to rotation matrix; an (n, 4) stack gives (n, 3, 3)."""
    q = np.asarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != 4:
        raise ValueError(f"expected one quaternion or an (n, 4) stack, got shape {q.shape}")
    r = np.array([quat_rows(v) for v in q.reshape(-1, 4).tolist()]).reshape(-1, 3, 3)
    return r[0] if q.ndim == 1 else r


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


def write_file(path, data: bytes):
    """Write `data` over the file at `path` (created if missing) and cut it to length.

    Overwriting in place spares the file system the free-and-reallocate of
    truncating first.  Not atomic, like open(path, "w"); only a regular file
    is cut, so devices and pipes work.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def pose_to_json(p: Pose) -> dict:
    """File form of a pose: translation `t` in mm, quaternion `q` as (x, y, z, w)."""
    return {
        "t": [float(v) for v in p.translation],
        "q": [float(v) for v in matrix_to_quat(p.rotation)],
    }


def _finite_floats(values: list) -> list[float]:
    """`finite_number` of each value; a finite float passes as it is."""
    return [v if type(v) is float and v - v == 0.0 else finite_number(v) for v in values]


def checked_poses(r: np.ndarray, t: np.ndarray) -> list[Pose]:
    """Poses over a non-empty stack of rotations (n, 3, 3) and translations (n, 3).

    The stack meets the constructor's checks at once (InvalidPose names the
    first failing pose) and may be fixed in place, so the caller hands over
    arrays that nothing else reads.
    """
    r = _checked_rotations(r, t)
    # Each pose owns fresh arrays, as one built by the constructor does.
    return [Pose._trusted(ri.copy(), ti.copy()) for ri, ti in zip(r, t)]


def pose_from_json(t, q) -> Pose:
    """Pose from the `t` and `q` values of the file form, its one reader (ValueError).

    Checks the shapes, then q (`quat_rows`), then t.  Each normalized component
    of an accepted q is at most 1 in size, so its rotation is orthonormal to a
    few ulps and proper: the constructor's checks would keep it bit for bit.
    """
    for name, values, n in (("t", t, 3), ("q", q, 4)):
        if not isinstance(values, list) or len(values) != n:
            raise ValueError(f"{name} must be a list of {n} numbers")
    r = np.array(quat_rows(q))
    r.shape = (3, 3)  # in place: a reshaped view would keep the flat array alive too
    return Pose._trusted(r, np.array(_finite_floats(t)))


def rpy_to_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis XYZ (roll, pitch, yaw) angles in radians to a matrix."""
    return (
        rot_z(math.degrees(yaw)) @ rot_y(math.degrees(pitch)) @ rot_x(math.degrees(roll))
    )


def matrix_to_rpy(r) -> tuple[float, float, float]:
    """Rotation matrix, as an array or nested lists, to fixed-axis XYZ angles in radians."""
    (r00, _, _), (r10, r11, r12), (r20, r21, r22) = r
    sy = math.hypot(r00, r10)
    if sy > 1e-9:
        roll = math.atan2(r21, r22)
        pitch = math.atan2(-r20, sy)
        yaw = math.atan2(r10, r00)
    else:
        roll = math.atan2(-r12, r11)
        pitch = math.atan2(-r20, sy)
        yaw = 0.0
    return roll, pitch, yaw
