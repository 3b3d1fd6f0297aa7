"""Forward-kinematics scene synthesis for identification testing.

Places virtual master-marker poses for a chain descriptor, joint angles
and a noise model.  Scenes written by this module are the input format of
the identification pipeline, which makes the synthesizer the independent
oracle for round-trip verification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .descriptor import ChainDescriptor
from .geometry import CONNECTION_ANGLES, Pose, axis_angle, checked_poses, finite_number, joint_turns
from .geometry import is_integer, is_number, pose_from_json, pose_to_json, quat_rows, write_file
from .module_db import CONNECTOR_STACK, INVERTED, UPRIGHT, ModuleDatabase, ModuleRecord

SPURIOUS_ID_BASE = 10**6
SPURIOUS_ID_SPAN = 10**4
# The largest noise sigma: a draw overflows a float only beyond 1e8 sigmas.
SIGMA_MAX = 1e300

SCENE_KEYS = frozenset(("marker_id", "t", "q"))


class SynthError(ValueError):
    """Base class for scene-synthesis failures."""


class LimitViolation(SynthError):
    """A requested joint angle lies outside the type's joint limits."""


class MissingInstance(SynthError):
    """The registry has no free module of a required type."""


class SceneParseError(ValueError):
    """A scene file is malformed; carries the failing location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class MarkerObservation:
    """One detected marker: its id and pose in the camera/world frame."""

    marker_id: int
    pose: Pose

    def __post_init__(self):
        check_marker_id(self.marker_id)
        if not isinstance(self.pose, Pose):
            raise ValueError(f"pose must be a Pose, got {self.pose!r:.40}")


def check_marker_id(value):
    """ValueError unless `value` is a marker id: a non-negative integer, bools excluded."""
    if not (is_integer(value) and value >= 0):
        raise ValueError("marker_id must be a non-negative integer")


@dataclass(frozen=True)
class SceneConfig:
    """Noise model for synthesized scenes; all-zero means exact poses."""

    sigma_pos: float = 0.0
    sigma_rot: float = 0.0
    dropout_prob: float = 0.0
    spurious_count: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_pos", "sigma_rot", "dropout_prob"):
            value = getattr(self, name)
            if not is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if min(self.sigma_pos, self.sigma_rot, self.dropout_prob) < 0.0:
            raise ValueError("noise parameters must be non-negative")
        for name in ("sigma_pos", "sigma_rot"):
            try:  # as a float: numpy scalars would cast SIGMA_MAX to their own type
                sigma = finite_number(getattr(self, name))
            except ValueError:
                sigma = math.inf
            if not sigma <= SIGMA_MAX:
                raise ValueError(f"{name} must be finite and at most {SIGMA_MAX:g}")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ValueError("dropout_prob must lie in [0, 1]")
        for name in ("spurious_count", "seed"):
            value = getattr(self, name)
            if not is_integer(value) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.spurious_count > SPURIOUS_ID_SPAN:
            raise ValueError(
                f"spurious_count must be at most {SPURIOUS_ID_SPAN} (the number of spurious"
                f" marker ids), got {self.spurious_count}"
            )


@dataclass(frozen=True)
class ModulePlacement:
    """A placed module: serial, master pose, and output-bundle pose if any."""

    serial: str
    master_pose: Pose
    output_pose: Pose | None = None


def assign_instances(desc: ChainDescriptor, db: ModuleDatabase) -> list[ModuleRecord]:
    """Pick a registry instance per chain entry: the next free one of its type in
    registry order."""
    used: set[str] = set()
    records = []
    for entry in desc.entries:
        rec = next(
            (r for r in db.records if r.type_code == entry.type_code and r.serial not in used),
            None,
        )
        if rec is None:
            raise MissingInstance(f"registry has no free module of type {entry.type_code!r}")
        used.add(rec.serial)
        records.append(rec)
    return records


def forward_poses(
    desc: ChainDescriptor,
    joint_angles: list[float],
    db: ModuleDatabase,
    base: Pose | None = None,
) -> list[ModulePlacement]:
    """Master (and output-bundle) poses for every module of a chain.

    `joint_angles` lists one angle per joint-kind entry in base-to-end
    order.  `base` is the world pose of the base module's master frame.
    The poses are views over the frames of `_marker_frames`.
    """
    records, frames = _marker_frames(desc, joint_angles, db, base)
    poses = iter([Pose._trusted(f[:3, :3], f[:3, 3]) for f in frames])
    return [
        ModulePlacement(r.serial, next(poses), None if r.output_marker_id is None else next(poses))
        for r in records
    ]


def _marker_frames(desc, joint_angles, db, base) -> tuple[list, np.ndarray]:
    """The chain's registry records, and the 4x4 world frame of each true marker as one
    stack: every module's master, then its output bundle if it has one.  Frames are
    products of the catalog's zero-state matrices and the connector stack, with a
    nonzero joint state as one turn about its axis.
    """
    records = assign_instances(desc, db)
    types = [db.types[entry.type_code] for entry in desc.entries]
    joints = sum(mt.is_joint for mt in types)
    if len(joint_angles) != joints:
        raise ValueError(f"chain has {joints} joint modules, got {len(joint_angles)} joint angles")
    angles = iter(joint_angles)
    thetas = [float(next(angles)) if mt.is_joint else 0.0 for mt in types]
    for mt, theta in zip(types, thetas):
        lo, hi = mt.joint_limits if mt.is_joint else (0.0, 0.0)
        if not lo <= theta <= hi:
            raise LimitViolation(f"type {mt.code!r}: joint angle {theta} outside [{lo}, {hi}]")
    # Per joint axis, the turns by theta and -theta of chain position i at 2i and 2i + 1.
    signed = [sign * theta for theta in thetas for sign in (1.0, -1.0)]
    turns = {axis: joint_turns(axis, signed) for axis in {mt.joint_axis for mt in types} - {None}}
    # The 4x4 products go through `dot`, which skips matmul's dispatch: the same BLAS call.
    frames: list[np.ndarray] = []
    childward: np.ndarray | None = None
    for i, (entry, mt, theta) in enumerate(zip(desc.entries, types, thetas)):
        direction = INVERTED if entry.inverted else UPRIGHT
        if direction not in mt.directions:
            raise ValueError(f"type {entry.type_code!r} cannot be installed inverted")
        if i and not (
            parent_direction in parent.parent_directions and direction in mt.child_directions
        ):
            raise ValueError(
                f"chain position {i}: no connector mates {parent.code!r} ({parent_direction})"
                f" to {mt.code!r} ({direction})"
            )
        parent, parent_direction = mt, direction
        if childward is None:
            master = np.eye(4) if base is None else base.matrix()
        else:  # an inverted module is entered behind its joint, which turns by -theta
            entered = mt.matrices["in", direction]
            if theta and entry.inverted:
                entered = entered.dot(turns[mt.joint_axis][2 * i + 1])
            angle = CONNECTION_ANGLES.index(entry.connection_angle)
            master = childward.dot(CONNECTOR_STACK[angle]).dot(entered)
        out = None  # the output connector, which the joint turns by theta
        if mt.dual_bundle or not entry.inverted:
            leaving = mt.matrices["out", UPRIGHT]
            out = master.dot(turns[mt.joint_axis][2 * i].dot(leaving) if theta else leaving)
        childward = master.dot(mt.matrices["out", INVERTED]) if entry.inverted else out
        frames += [master, out] if mt.dual_bundle else [master]
    return records, np.array(frames)


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(v.dot(v))  # np.linalg.norm(v) without its dispatch
        if n > 1e-9:
            return v / n


def synthesize(
    desc: ChainDescriptor,
    joint_angles: list[float],
    db: ModuleDatabase,
    base: Pose | None = None,
    cfg: SceneConfig = SceneConfig(),
) -> list[MarkerObservation]:
    """Generate marker observations for a chain under the given noise model.

    Deterministic for a fixed config: the random draw order per true marker
    is translation noise, rotation axis, rotation angle, then the dropout
    decision, with spurious markers generated last.  The kept poses meet
    the Pose constructor's checks as one stack.
    """
    records, frames = _marker_frames(desc, joint_angles, db, base)
    rng = np.random.default_rng(cfg.seed)
    kept = []  # (index of the true marker, noise axis, noise angle, translation noise)
    for k in range(len(frames)):
        t_noise = rng.normal(0.0, cfg.sigma_pos, size=3) if cfg.sigma_pos > 0 else np.zeros(3)
        axis = _random_unit(rng)
        angle = abs(rng.normal(0.0, cfg.sigma_rot)) if cfg.sigma_rot > 0 else 0.0
        if rng.random() < cfg.dropout_prob:
            continue
        kept.append((k, axis, angle, t_noise))
    ids, rotations, translations = [], np.empty((0, 3, 3)), np.empty((0, 3))
    if kept:  # the noise turns every kept marker in one stacked pass
        index, axes, angles, t_noise = map(list, zip(*kept))
        true_ids = [
            m for r in records for m in (r.master_marker_id, r.output_marker_id) if m is not None
        ]
        ids = [true_ids[k] for k in index]
        rotations = axis_angle(np.array(axes), angles) @ frames[index, :3, :3]
        translations = frames[index, :3, 3] + t_noise
    if cfg.spurious_count > 0:
        points = frames[:, :3, 3]
        spurious_ids, spurious_r, spurious_t = _spurious_markers(rng, points, cfg.spurious_count)
        ids += spurious_ids
        rotations = np.concatenate((rotations, spurious_r))
        translations = np.concatenate((translations, spurious_t))
    if not ids:
        return []
    return [MarkerObservation(m, p) for m, p in zip(ids, checked_poses(rotations, translations))]


def _spurious_markers(
    rng: np.random.Generator, points: np.ndarray, count: int
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Marker ids, rotations (count, 3, 3) and translations (count, 3) of random
    markers around the chain, whose true marker origins are the rows of `points`."""
    ids = SPURIOUS_ID_BASE + rng.choice(SPURIOUS_ID_SPAN, size=count, replace=False)
    center = points.mean(axis=0)
    half = (points.max(axis=0) - points.min(axis=0)) / 2.0
    half = np.maximum(half * 1.2, 50.0)
    offsets, rows = [], []
    for _ in range(count):
        offsets.append(rng.uniform(-1.0, 1.0, size=3))
        xyz = (_random_unit(rng) * np.sin(rng.uniform(0, np.pi) / 2)).tolist()
        rows.append(quat_rows([*xyz, float(np.cos(rng.uniform(0, np.pi) / 2))]))
    return ids.tolist(), np.reshape(rows, (count, 3, 3)), center + np.array(offsets) * half


def write_scene(path, observations: list[MarkerObservation]):
    """Write observations as a JSON array at full float precision."""
    doc = [{"marker_id": obs.marker_id, **pose_to_json(obs.pose)} for obs in observations]
    write_file(path, (json.dumps(doc, indent=1) + "\n").encode())


def read_scene(path) -> list[MarkerObservation]:
    """Read a scene file written by write_scene.

    Every malformed document raises SceneParseError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneParseError(exc.msg, exc.lineno, exc.colno) from exc
        except (ValueError, RecursionError) as exc:
            raise SceneParseError(f"not a JSON document: {exc}") from exc
    if not isinstance(doc, list):
        raise SceneParseError("scene file must contain a JSON array")
    observations = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or entry.keys() != SCENE_KEYS:
            raise SceneParseError(f"observation {i}: must have exactly keys marker_id, t, q")
        try:  # the id first, so that its fault is named before the pose's
            check_marker_id(entry["marker_id"])
            pose = pose_from_json(entry["t"], entry["q"])
        except ValueError as exc:
            raise SceneParseError(f"observation {i}: {exc}") from exc
        observations.append(MarkerObservation(entry["marker_id"], pose))
    return observations
