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
from .geometry import CONNECTION_ANGLES, Pose, axis_angle, checked_poses, joint_turns
from .geometry import pose_from_json, pose_to_json, quat_to_matrix, write_file
from .module_db import CONNECTOR_STACK, INVERTED, UPRIGHT, ModuleDatabase, ModuleRecord

SPURIOUS_ID_BASE = 10**6
SPURIOUS_ID_SPAN = 10**4

SCENE_KEYS = frozenset(("marker_id", "t", "q"))


class SynthError(Exception):
    """Base class for scene-synthesis failures."""


class LimitViolation(SynthError):
    """A requested joint angle lies outside the type's joint limits."""


class MissingInstance(SynthError):
    """The registry has no free module of a required type."""


class SceneParseError(Exception):
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
        if self.marker_id < 0:
            raise ValueError("marker ids are non-negative")


@dataclass(frozen=True)
class SceneConfig:
    """Noise model for synthesized scenes; all-zero means exact poses."""

    sigma_pos: float = 0.0
    sigma_rot: float = 0.0
    dropout_prob: float = 0.0
    spurious_count: int = 0
    seed: int = 0

    def __post_init__(self):
        if min(self.sigma_pos, self.sigma_rot, self.dropout_prob) < 0.0:
            raise ValueError("noise parameters must be non-negative")
        for name in ("sigma_pos", "sigma_rot"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ValueError("dropout_prob must lie in [0, 1]")
        if self.spurious_count < 0:
            raise ValueError("spurious_count must be non-negative")


@dataclass(frozen=True)
class ModulePlacement:
    """A placed module: serial, master pose, and output-bundle pose if any."""

    serial: str
    master_pose: Pose
    output_pose: Pose | None = None


def assign_instances(
    desc: ChainDescriptor, db: ModuleDatabase, assignment: list[str] | None = None
) -> list[ModuleRecord]:
    """Pick a registry instance per chain entry.

    Without an explicit assignment, instances of each type are consumed in
    registry order.  An explicit assignment lists one serial per entry.
    """
    if assignment is not None:
        if len(assignment) != len(desc.entries):
            raise ValueError("assignment must name one serial per chain entry")
        by_serial = {r.serial: r for r in db.records}
        records = []
        for entry, serial in zip(desc.entries, assignment):
            rec = by_serial.get(serial)
            if rec is None:
                raise MissingInstance(f"serial {serial!r} is not registered")
            if rec.type_code != entry.type_code:
                raise MissingInstance(
                    f"serial {serial!r} has type {rec.type_code!r}, chain needs "
                    f"{entry.type_code!r}"
                )
            records.append(rec)
        if len({r.serial for r in records}) != len(records):
            raise MissingInstance("assignment repeats a serial")
        return records
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
    assignment: list[str] | None = None,
) -> list[ModulePlacement]:
    """Master (and output-bundle) poses for every module of a chain.

    `joint_angles` lists one angle per joint-kind entry in base-to-end
    order.  `base` is the world pose of the base module's master frame.
    Frames are 4x4 products of the catalog's zero-state matrices and the
    connector stack, with a nonzero joint state as one turn about its axis.
    """
    records = assign_instances(desc, db, assignment)
    thetas = _spread_joint_angles(desc, joint_angles, db)
    placements = []
    childward: np.ndarray | None = None
    for i, (entry, record, theta) in enumerate(zip(desc.entries, records, thetas)):
        mt = db.types[entry.type_code]
        direction = INVERTED if entry.inverted else UPRIGHT
        if direction not in mt.directions:
            raise ValueError(f"type {entry.type_code!r} cannot be installed inverted")
        if mt.is_tool and 0 < i < len(records) - 1:
            raise ValueError("tool modules may only sit at the ends of a chain")
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
                entered = entered @ joint_turns(mt.joint_axis, [-theta])[0]
            angle = CONNECTION_ANGLES.index(entry.connection_angle)
            master = (childward @ CONNECTOR_STACK[angle]) @ entered
        out = None  # the output connector, which the joint turns by theta
        if mt.dual_bundle or not entry.inverted:
            leaving = mt.matrices["out", UPRIGHT]
            out = master @ (joint_turns(mt.joint_axis, [theta])[0] @ leaving if theta else leaving)
        childward = master @ mt.matrices["out", INVERTED] if entry.inverted else out
        output = Pose._trusted(out[:3, :3], out[:3, 3]) if mt.dual_bundle else None
        master = Pose._trusted(master[:3, :3], master[:3, 3])
        placements.append(ModulePlacement(record.serial, master, output))
    return placements


def _spread_joint_angles(
    desc: ChainDescriptor, joint_angles: list[float], db: ModuleDatabase
) -> list[float]:
    joint_entries = [e for e in desc.entries if db.types[e.type_code].is_joint]
    if len(joint_angles) != len(joint_entries):
        raise ValueError(
            f"chain has {len(joint_entries)} joint modules, got "
            f"{len(joint_angles)} joint angles"
        )
    it = iter(joint_angles)
    thetas = []
    for entry in desc.entries:
        mt = db.types[entry.type_code]
        if mt.is_joint:
            theta = float(next(it))
            lo, hi = mt.joint_limits
            if not lo <= theta <= hi:
                raise LimitViolation(
                    f"type {entry.type_code!r}: joint angle {theta} outside [{lo}, {hi}]"
                )
            thetas.append(theta)
        else:
            thetas.append(0.0)
    return thetas


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
    assignment: list[str] | None = None,
) -> list[MarkerObservation]:
    """Generate marker observations for a chain under the given noise model.

    Deterministic for a fixed config: the random draw order per true marker
    is translation noise, rotation axis, rotation angle, then the dropout
    decision, with spurious markers generated last.  The kept poses meet
    the Pose constructor's checks as one stack.
    """
    placements = forward_poses(desc, joint_angles, db, base, assignment)
    by_serial = {r.serial: r for r in db.records}
    true_markers: list[tuple[int, Pose]] = []
    for pl in placements:
        rec = by_serial[pl.serial]
        true_markers.append((rec.master_marker_id, pl.master_pose))
        if pl.output_pose is not None:
            true_markers.append((rec.output_marker_id, pl.output_pose))
    rng = np.random.default_rng(cfg.seed)
    kept = []  # (marker id, true pose, noise axis, noise angle, translation noise)
    for marker_id, pose in true_markers:
        t_noise = rng.normal(0.0, cfg.sigma_pos, size=3) if cfg.sigma_pos > 0 else np.zeros(3)
        axis = _random_unit(rng)
        angle = abs(rng.normal(0.0, cfg.sigma_rot)) if cfg.sigma_rot > 0 else 0.0
        if rng.random() < cfg.dropout_prob:
            continue
        kept.append((marker_id, pose, axis, angle, t_noise))
    drawn: list[tuple[int, np.ndarray, np.ndarray]] = []
    if kept:  # the noise turns every kept marker in one stacked pass
        ids, poses, axes, angles, t_noise = zip(*kept)
        rotations = axis_angle(np.array(axes), angles) @ np.array([p.rotation for p in poses])
        drawn = list(zip(ids, rotations, np.array([p.translation for p in poses]) + t_noise))
    if cfg.spurious_count > 0:
        drawn += _spurious_markers(rng, true_markers, cfg.spurious_count)
    if not drawn:
        return []
    ids, rotations, translations = zip(*drawn)
    poses = checked_poses(np.array(rotations), np.array(translations))
    return [MarkerObservation(m, p) for m, p in zip(ids, poses)]


def _spurious_markers(
    rng: np.random.Generator, true_markers, count: int
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Marker ids, rotations and translations of random markers around the chain."""
    ids = SPURIOUS_ID_BASE + rng.choice(SPURIOUS_ID_SPAN, size=count, replace=False)
    points = np.array([p.translation for _, p in true_markers])
    center = points.mean(axis=0)
    half = (points.max(axis=0) - points.min(axis=0)) / 2.0
    half = np.maximum(half * 1.2, 50.0)
    spurious = []
    for marker_id in ids:
        t = center + rng.uniform(-1.0, 1.0, size=3) * half
        q = _random_unit(rng)
        q = np.append(q * np.sin(rng.uniform(0, np.pi) / 2), np.cos(rng.uniform(0, np.pi) / 2))
        spurious.append((int(marker_id), quat_to_matrix(q), t))
    return spurious


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
        marker_id = entry["marker_id"]
        if not isinstance(marker_id, int) or isinstance(marker_id, bool) or marker_id < 0:
            raise SceneParseError(f"observation {i}: marker_id must be a non-negative integer")
        try:
            pose = pose_from_json(entry["t"], entry["q"])
        except ValueError as exc:
            raise SceneParseError(f"observation {i}: {exc}") from exc
        observations.append(MarkerObservation(marker_id, pose))
    return observations
