"""Module-type catalog, fabricated-module registry, and mating geometry.

The database is the single source of per-type geometry: where a module's
virtual master frame sits relative to its two connector faces, how long
the body is, what its joint can do, and whether it may be installed
inverted.  Connector frames carry outward-pointing y-axes, so mating two
connectors is always the same transform: a roll about the shared y-axis
by the connection angle followed by a fixed 180-degree flip about x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    Pose,
    compose,
    finite_number,
    invert,
    pose_from_json,
    pose_to_json,
    rot_x,
    rot_y,
    rot_z,
)

KIND_JOINT_COLLINEAR = "joint-collinear"
KIND_JOINT_PERPENDICULAR = "joint-perpendicular"
KIND_TOOL = "tool"
KIND_LINK = "link"
KIND_ADAPTER = "adapter"
KINDS = (
    KIND_JOINT_COLLINEAR,
    KIND_JOINT_PERPENDICULAR,
    KIND_TOOL,
    KIND_LINK,
    KIND_ADAPTER,
)
JOINT_KINDS = (KIND_JOINT_COLLINEAR, KIND_JOINT_PERPENDICULAR)

UPRIGHT = "upright"
INVERTED = "inverted"

# Output connector face of the parent meets the input connector face of the
# child: both outward y-axes are anti-parallel, which a flip about x encodes.
MATING_FLIP = Pose(rot_x(180.0), np.zeros(3))


class DatabaseError(Exception):
    """Base class for database loading and validation failures."""


class DatabaseParseError(DatabaseError):
    """The database file is not syntactically valid."""


class DatabaseValidationError(DatabaseError):
    """The database file violates a structural invariant."""


class EmptyCatalog(DatabaseError):
    """A geometric query requires at least one module type."""


def connection_transform(angle_deg: float) -> Pose:
    """Transform across a mated connector pair for a given connection angle."""
    return compose(Pose._trusted(rot_y(angle_deg), np.zeros(3)), MATING_FLIP)


@dataclass(frozen=True)
class ModuleType:
    """One catalog entry describing a module type's geometry and joint."""

    code: str
    kind: str
    body_length: float
    master_offset_input: Pose
    master_offset_output: Pose
    joint_limits: tuple[float, float] | None
    invertible: bool
    dual_bundle: bool

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DatabaseValidationError(f"type {self.code!r}: unknown kind {self.kind!r}")
        if self.kind != KIND_TOOL and self.body_length <= 0.0:
            raise DatabaseValidationError(f"type {self.code!r}: body_length must be > 0")
        if self.is_joint:
            if self.joint_limits is None or self.joint_limits[0] >= self.joint_limits[1]:
                raise DatabaseValidationError(
                    f"type {self.code!r}: joint kinds need joint_limits with min < max"
                )
        elif self.joint_limits is not None:
            raise DatabaseValidationError(
                f"type {self.code!r}: joint_limits only apply to joint kinds"
            )

    @property
    def is_joint(self) -> bool:
        return self.kind in JOINT_KINDS

    @property
    def is_tool(self) -> bool:
        return self.kind == KIND_TOOL

    @property
    def is_collinear_joint(self) -> bool:
        return self.kind == KIND_JOINT_COLLINEAR

    @property
    def is_perpendicular_joint(self) -> bool:
        return self.kind == KIND_JOINT_PERPENDICULAR

    def joint_rotation(self, theta_deg: float) -> Pose:
        """Rotation about the joint axis: y for collinear, z for perpendicular."""
        if self.kind == KIND_JOINT_COLLINEAR:
            return Pose._trusted(rot_y(theta_deg), np.zeros(3))
        if self.kind == KIND_JOINT_PERPENDICULAR:
            return Pose._trusted(rot_z(theta_deg), np.zeros(3))
        return Pose.identity()

    def parentward_to_master(self, direction: str, theta_deg: float = 0.0) -> Pose:
        """Transform from the parent-facing connector frame to the master frame.

        Upright modules are entered through the input connector, ahead of the
        joint; inverted modules are entered through the output connector, so
        the joint state appears on the way in.
        """
        if direction == UPRIGHT:
            return self.master_offset_input
        return compose(invert(self.master_offset_output), self.joint_rotation(-theta_deg))

    def master_to_childward(self, direction: str, theta_deg: float = 0.0) -> Pose:
        """Transform from the master frame to the child-facing connector frame."""
        if direction == UPRIGHT:
            return compose(self.joint_rotation(theta_deg), self.master_offset_output)
        return invert(self.master_offset_input)

    def can_parent(self, direction: str) -> bool:
        """Tools have a single connector: upright tools cannot carry a child."""
        return not (self.is_tool and direction == UPRIGHT)

    def can_child(self, direction: str) -> bool:
        """An inverted tool would have to mate through its missing output side."""
        return not (self.is_tool and direction == INVERTED)

    def directions(self) -> tuple[str, ...]:
        return (UPRIGHT, INVERTED) if self.invertible else (UPRIGHT,)


@dataclass(frozen=True)
class ModuleRecord:
    """One fabricated module registered in the database."""

    serial: str
    type_code: str
    bus_id: int
    master_marker_id: int
    output_marker_id: int | None = None


class MarkerHit(NamedTuple):
    record: ModuleRecord
    is_output: bool


class ModuleDatabase:
    """Immutable catalog of module types plus the fabricated-module registry."""

    def __init__(self, types: list[ModuleType], records: list[ModuleRecord]):
        self.types: dict[str, ModuleType] = {}
        for mt in types:
            if mt.code in self.types:
                raise DatabaseValidationError(f"duplicate type code {mt.code!r}")
            self.types[mt.code] = mt
        self.records: list[ModuleRecord] = list(records)
        self._by_marker: dict[int, MarkerHit] = {}
        seen_serials: set[str] = set()
        for rec in self.records:
            if rec.serial in seen_serials:
                raise DatabaseValidationError(f"duplicate serial {rec.serial!r}")
            seen_serials.add(rec.serial)
            if rec.type_code not in self.types:
                raise DatabaseValidationError(
                    f"module {rec.serial!r} references unknown type {rec.type_code!r}"
                )
            mt = self.types[rec.type_code]
            if mt.dual_bundle != (rec.output_marker_id is not None):
                raise DatabaseValidationError(
                    f"module {rec.serial!r}: output_marker_id must be present exactly "
                    f"for dual-bundle types"
                )
            self._index_marker(rec.master_marker_id, MarkerHit(rec, False))
            if rec.output_marker_id is not None:
                self._index_marker(rec.output_marker_id, MarkerHit(rec, True))
        self._pair_bounds: dict[tuple[str, str], float] = {
            (pc, cc): _mated_distance(p, c)
            for pc, p in self.types.items()
            for cc, c in self.types.items()
        }
        if not np.isfinite(list(self._pair_bounds.values())).all():
            raise DatabaseValidationError("master offsets too large: a pair bound overflows")
        self._max_bound: float = max(self._pair_bounds.values(), default=0.0)

    def _index_marker(self, marker_id: int, hit: MarkerHit):
        if marker_id < 0:
            raise DatabaseValidationError(
                f"module {hit.record.serial!r}: marker id {marker_id} is negative"
            )
        if marker_id in self._by_marker:
            raise DatabaseValidationError(f"marker id {marker_id} registered twice")
        self._by_marker[marker_id] = hit

    def lookup_marker(self, marker_id: int) -> MarkerHit | None:
        """Resolve a marker id to its module record, or None for unknown ids."""
        return self._by_marker.get(marker_id)

    def type_of(self, record: ModuleRecord) -> ModuleType:
        return self.types[record.type_code]

    def records_of_type(self, code: str) -> list[ModuleRecord]:
        return [r for r in self.records if r.type_code == code]

    def pair_connected_distance(self, parent_code: str, child_code: str) -> float:
        """Largest master-to-master distance of the two types mated directly.

        Evaluated at zero joint angle over every parentable/childable install
        combination the catalog allows.
        """
        return self._pair_bounds[parent_code, child_code]

    def max_connected_distance(self) -> float:
        """Largest master-to-master distance over all ordered type pairs."""
        if not self.types:
            raise EmptyCatalog("catalog has no module types")
        return self._max_bound


def _mated_distance(p: ModuleType, c: ModuleType) -> float:
    """Bound behind `ModuleDatabase.pair_connected_distance`.

    A pair with no legal mating (e.g. two tools pointing the wrong way)
    keeps a zero bound, so it can never pass a distance check.
    """
    best = 0.0
    for dp in p.directions():
        if not p.can_parent(dp):
            continue
        for dc in c.directions():
            if not c.can_child(dc):
                continue
            t = compose(
                compose(p.master_to_childward(dp, 0.0), connection_transform(0.0)),
                c.parentward_to_master(dc, 0.0),
            )
            best = max(best, float(np.linalg.norm(t.translation)))
    return best


def _pose_from_json(obj, where: str) -> Pose:
    if not isinstance(obj, dict) or set(obj) != {"t", "q"}:
        raise DatabaseValidationError(f"{where}: pose must have exactly keys 't' and 'q'")
    try:
        return pose_from_json(obj["t"], obj["q"])
    except ValueError as exc:
        raise DatabaseValidationError(f"{where}: {exc}") from exc


def _number(value, where: str) -> float:
    try:
        return finite_number(value)
    except ValueError as exc:
        raise DatabaseValidationError(f"{where}: {exc}") from exc


def _typed(value, kinds: tuple[type, ...], where: str):
    """The value itself when it is one of `kinds`; bools count only as bool."""
    if isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool)):
        return value
    names = " or ".join(k.__name__ for k in kinds)
    raise DatabaseValidationError(f"{where}: expected {names}, got {value!r:.40}")


_TYPE_KEYS = {
    "code",
    "kind",
    "body_length_mm",
    "master_offset_input",
    "master_offset_output",
    "joint_limits_deg",
    "invertible",
    "dual_bundle",
}
_MODULE_KEYS = {"serial", "type_code", "bus_id", "master_marker_id", "output_marker_id"}


def _check_keys(obj, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise DatabaseValidationError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise DatabaseValidationError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise DatabaseValidationError(f"{where}: missing key {sorted(missing)[0]!r}")


def _type_from_json(entry, where: str) -> ModuleType:
    _check_keys(entry, _TYPE_KEYS, _TYPE_KEYS - {"joint_limits_deg"}, where)
    limits = entry.get("joint_limits_deg")
    if limits is not None:
        if not isinstance(limits, list) or len(limits) != 2:
            raise DatabaseValidationError(f"{where}: joint_limits_deg must be [min, max]")
        limits = tuple(_number(v, f"{where}.joint_limits_deg") for v in limits)
    return ModuleType(
        code=_typed(entry["code"], (str,), f"{where}.code"),
        kind=_typed(entry["kind"], (str,), f"{where}.kind"),
        body_length=_number(entry["body_length_mm"], f"{where}.body_length_mm"),
        master_offset_input=_pose_from_json(entry["master_offset_input"], where),
        master_offset_output=_pose_from_json(entry["master_offset_output"], where),
        joint_limits=limits,
        invertible=_typed(entry["invertible"], (bool,), f"{where}.invertible"),
        dual_bundle=_typed(entry["dual_bundle"], (bool,), f"{where}.dual_bundle"),
    )


def _record_from_json(entry, where: str) -> ModuleRecord:
    _check_keys(entry, _MODULE_KEYS, _MODULE_KEYS - {"output_marker_id"}, where)
    return ModuleRecord(
        serial=_typed(entry["serial"], (str,), f"{where}.serial"),
        type_code=_typed(entry["type_code"], (str,), f"{where}.type_code"),
        bus_id=_typed(entry["bus_id"], (int,), f"{where}.bus_id"),
        master_marker_id=_typed(entry["master_marker_id"], (int,), f"{where}.master_marker_id"),
        output_marker_id=_typed(
            entry.get("output_marker_id"), (int, type(None)), f"{where}.output_marker_id"
        ),
    )


def load_database(path) -> ModuleDatabase:
    """Load and validate a module database file.

    Every malformed document raises a DatabaseError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DatabaseParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"types", "modules"}:
        raise DatabaseValidationError(
            f"{path}: top level must be an object with keys 'types' and 'modules'"
        )
    for key in ("types", "modules"):
        if not isinstance(doc[key], list):
            raise DatabaseValidationError(f"{path}: {key!r} must be an array")
    types = [_type_from_json(entry, f"types[{i}]") for i, entry in enumerate(doc["types"])]
    records = [
        _record_from_json(entry, f"modules[{i}]") for i, entry in enumerate(doc["modules"])
    ]
    return ModuleDatabase(types, records)


def save_database(db: ModuleDatabase, path):
    """Write a database back to its file format (inverse of load_database)."""
    doc = {
        "types": [
            {
                "code": mt.code,
                "kind": mt.kind,
                "body_length_mm": mt.body_length,
                "master_offset_input": pose_to_json(mt.master_offset_input),
                "master_offset_output": pose_to_json(mt.master_offset_output),
                "joint_limits_deg": None if mt.joint_limits is None else list(mt.joint_limits),
                "invertible": mt.invertible,
                "dual_bundle": mt.dual_bundle,
            }
            for mt in db.types.values()
        ],
        "modules": [
            {
                "serial": rec.serial,
                "type_code": rec.type_code,
                "bus_id": rec.bus_id,
                "master_marker_id": rec.master_marker_id,
                "output_marker_id": rec.output_marker_id,
            }
            for rec in db.records
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def centered_type(
    code: str,
    kind: str,
    body_length: float,
    joint_limits: tuple[float, float] | None,
    invertible: bool,
    dual_bundle: bool,
) -> ModuleType:
    """Catalog entry whose master frame sits at the module's geometric center.

    The input connector frame carries an outward y-axis, hence the flip in
    the input offset; the output connector frame shares the master's
    orientation.
    """
    half = body_length / 2.0
    return ModuleType(
        code=code,
        kind=kind,
        body_length=body_length,
        master_offset_input=Pose(rot_x(180.0), np.array([0.0, -half, 0.0])),
        master_offset_output=Pose(np.eye(3), np.array([0.0, half, 0.0])),
        joint_limits=joint_limits,
        invertible=invertible,
        dual_bundle=dual_bundle,
    )


# (code, kind, body length mm, joint limits deg, invertible, dual bundle)
_DEFAULT_TYPES = [
    ("T", KIND_JOINT_PERPENDICULAR, 120.0, (-120.0, 120.0), True, False),
    ("t", KIND_JOINT_PERPENDICULAR, 80.0, (-120.0, 120.0), True, False),
    ("I", KIND_JOINT_COLLINEAR, 120.0, (-180.0, 180.0), True, True),
    ("i", KIND_JOINT_COLLINEAR, 80.0, (-180.0, 180.0), True, True),
    ("G", KIND_TOOL, 50.0, None, True, False),
    ("g", KIND_TOOL, 50.0, None, True, False),
    ("W", KIND_TOOL, 50.0, None, True, False),
    ("S", KIND_TOOL, 50.0, None, True, False),
    ("L", KIND_LINK, 150.0, None, True, False),
    ("l", KIND_LINK, 100.0, None, True, False),
    ("A", KIND_ADAPTER, 60.0, None, False, False),
]

# (count, first master marker id); dual-bundle output ids are master + 1000.
_DEFAULT_REGISTRY = {
    "T": (6, 10),
    "t": (6, 20),
    "I": (6, 30),
    "i": (6, 40),
    "G": (3, 50),
    "g": (3, 55),
    "W": (2, 60),
    "S": (2, 65),
    "L": (6, 70),
    "l": (6, 80),
    "A": (6, 90),
}


def default_database() -> ModuleDatabase:
    """The shipped catalog and registry used by tests and as a CLI default."""
    types = [centered_type(*row) for row in _DEFAULT_TYPES]
    by_code = {mt.code: mt for mt in types}
    records = []
    bus = 1
    for code, (count, first_marker) in _DEFAULT_REGISTRY.items():
        dual = by_code[code].dual_bundle
        for k in range(count):
            marker = first_marker + k
            records.append(
                ModuleRecord(
                    serial=f"{code}-{k + 1:03d}",
                    type_code=code,
                    bus_id=bus,
                    master_marker_id=marker,
                    output_marker_id=marker + 1000 if dual else None,
                )
            )
            bus += 1
    return ModuleDatabase(types, records)
