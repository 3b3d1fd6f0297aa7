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
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .descriptor import is_type_code
from .geometry import (
    CONNECTION_ANGLES,
    Pose,
    finite_number,
    invert,
    is_integer,
    is_number,
    pose_from_json,
    pose_to_json,
    rot_x,
    rot_y,
    write_file,
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

class DatabaseError(ValueError):
    """Base class for database loading and validation failures."""


class DatabaseParseError(DatabaseError):
    """The database file is not syntactically valid."""


class DatabaseValidationError(DatabaseError):
    """The database file violates a structural invariant."""


class EmptyCatalog(DatabaseError):
    """A geometric query requires at least one module type."""


# Mated connectors share their outward y-axis: a roll about it by the
# connection angle, then a 180-degree flip about x.  One 4x4 per CONNECTION_ANGLES.
CONNECTOR_STACK = np.stack(
    [Pose._trusted(rot_y(a) @ rot_x(180.0), np.zeros(3)).matrix() for a in CONNECTION_ANGLES]
)
CONNECTOR_STACK.setflags(write=False)
# Base axis a joint turns about (see geometry.joint_turns): y when collinear, z when perpendicular.
_JOINT_AXES = {KIND_JOINT_COLLINEAR: 1, KIND_JOINT_PERPENDICULAR: 2}


class SearchSide(NamedTuple):
    """One side's factor of a pair transform in the optimization search, with the
    free joint's axis and limits (None when no joint state is free), `reach`, the
    length of the factor's translation, and `key`, the type code and direction of
    a catalog side; a side measured from a seen bundle pair has none."""

    matrix: np.ndarray
    axis: int | None
    limits: tuple[float, float] | None
    reach: float
    key: tuple[str, str] | None

    @classmethod
    def of(cls, matrix: np.ndarray, axis=None, limits=None, key=None) -> SearchSide:
        return cls(matrix, axis, limits, math.hypot(*matrix[:3, 3].tolist()), key)


def _pair_layers(parent: SearchSide, child: SearchSide) -> tuple[tuple[float, ...], ...]:
    """The pair transform with no joint turned, B_k = parent factor @ connector k @
    child factor, at each of the CONNECTION_ANGLES: its top three rows as 12
    floats, row by row."""
    layers = parent.matrix @ CONNECTOR_STACK @ child.matrix
    return tuple(map(tuple, layers[:, :3].reshape(-1, 12).tolist()))


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
    # Zero-state frames as 4x4 matrices, built with the type: ("in", d) maps the
    # parent-facing connector onto the master frame, ("out", d) the master frame
    # onto the child-facing connector.  A joint state turns about `joint_axis`
    # after ("in", INVERTED) and before ("out", UPRIGHT).
    matrices: dict[tuple[str, str], np.ndarray] = field(init=False, repr=False, compare=False)
    # Legal install directions, built with the type: anywhere, as the parent of a
    # mate and as its child.  A tool's one connector faces its child only when
    # the tool is inverted, and its parent only when it is upright.
    directions: tuple[str, ...] = field(init=False, repr=False, compare=False)
    parent_directions: tuple[str, ...] = field(init=False, repr=False, compare=False)
    child_directions: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # Search sides for each legal direction d: ("out", d) as a parent, ("in", d) as a child.
    sides: dict[tuple[str, str], SearchSide] = field(init=False, repr=False, compare=False)
    # What `kind` implies, built with the type.  `joint_axis` is the base axis
    # the joint turns about (1 = y, 2 = z); None without a joint.
    is_joint: bool = field(init=False, repr=False, compare=False)
    is_tool: bool = field(init=False, repr=False, compare=False)
    is_collinear_joint: bool = field(init=False, repr=False, compare=False)
    is_perpendicular_joint: bool = field(init=False, repr=False, compare=False)
    joint_axis: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def fail(message: str):
            raise DatabaseValidationError(f"type {self.code!r}: {message}")

        if not is_type_code(self.code):
            fail("a type code is one ASCII letter")
        if not (isinstance(self.kind, str) and self.kind in KINDS):
            fail(f"unknown kind {self.kind!r:.40}")
        for name, value in (("is_joint", self.kind in JOINT_KINDS),
                            ("is_tool", self.kind == KIND_TOOL),
                            ("is_collinear_joint", self.kind == KIND_JOINT_COLLINEAR),
                            ("is_perpendicular_joint", self.kind == KIND_JOINT_PERPENDICULAR),
                            ("joint_axis", _JOINT_AXES.get(self.kind))):
            object.__setattr__(self, name, value)
        for name, kind in (("invertible", bool), ("dual_bundle", bool),
                           ("master_offset_input", Pose), ("master_offset_output", Pose)):
            if not isinstance(getattr(self, name), kind):
                fail(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r:.40}")
        try:
            length = finite_number(self.body_length)
        except ValueError:
            fail(f"body_length must be finite, got {self.body_length!r:.40}")
        if not self.is_tool and not length > 0.0:
            fail("body_length must be > 0")
        limits = self.joint_limits
        if self.is_joint:
            if not (isinstance(limits, (tuple, list)) and len(limits) == 2
                    and all(map(is_number, limits))):
                fail(f"joint_limits must be two numbers (min, max), got {limits!r:.40}")
            try:
                limits = tuple(map(finite_number, limits))
            except ValueError:
                limits = None
            if not (limits and limits[0] < limits[1]):
                fail("joint kinds need finite joint_limits with min < max")
        elif limits is not None:
            fail("joint_limits only apply to joint kinds")
        object.__setattr__(self, "body_length", length)
        object.__setattr__(self, "joint_limits", limits)
        frames = {
            ("in", UPRIGHT): self.master_offset_input,
            ("in", INVERTED): invert(self.master_offset_output),
            ("out", UPRIGHT): self.master_offset_output,
            ("out", INVERTED): invert(self.master_offset_input),
        }
        matrices = {key: pose.matrix() for key, pose in frames.items()}
        for m in matrices.values():
            m.setflags(write=False)
        object.__setattr__(self, "matrices", matrices)
        directions = (UPRIGHT, INVERTED) if self.invertible else (UPRIGHT,)
        object.__setattr__(self, "directions", directions)
        for name, barred in (("parent_directions", UPRIGHT), ("child_directions", INVERTED)):
            legal = tuple(d for d in directions if not (self.is_tool and d == barred))
            object.__setattr__(self, name, legal)
        free = {"axis": self.joint_axis, "limits": self.joint_limits}
        sides = {}
        for end, legal, turned in (("out", self.parent_directions, UPRIGHT),
                                   ("in", self.child_directions, INVERTED)):
            for d in legal:
                sides[end, d] = SearchSide.of(
                    matrices[end, d], key=(self.code, d), **free if d == turned else {})
        object.__setattr__(self, "sides", sides)


@dataclass(frozen=True)
class ModuleRecord:
    """One fabricated module registered in the database."""

    serial: str
    type_code: str
    bus_id: int
    master_marker_id: int
    output_marker_id: int | None = None

    def __post_init__(self):
        def fail(message: str):
            raise DatabaseValidationError(f"module {self.serial!r:.40}: {message}")

        for name in ("serial", "type_code"):
            if not isinstance(getattr(self, name), str):
                fail(f"{name} must be a str, got {getattr(self, name)!r:.40}")
        serial = self.serial  # printed in `theta SERIAL ANGLE` lines and model XML
        if not (serial and serial.isprintable()) or any(c.isspace() for c in serial):
            fail("serial must be non-empty and printable, with no whitespace")
        for name in ("bus_id", "master_marker_id", "output_marker_id"):
            value = getattr(self, name)
            if value is None and name == "output_marker_id":
                continue
            if not is_integer(value):
                fail(f"{name} must be an integer, got {value!r:.40}")
            if value < 0 and name != "bus_id":
                fail(f"{name}: marker id {value} is negative")
            object.__setattr__(self, name, int(value))


class MarkerHit(NamedTuple):
    record: ModuleRecord
    is_output: bool


class ModuleDatabase:
    """Immutable catalog of module types plus the fabricated-module registry."""

    def __init__(self, types: list[ModuleType], records: list[ModuleRecord]):
        """Checks the members and the faults between them; a fault's message is
        prefixed with its entry (`types[i]: `, `modules[i]: `)."""
        types, self.records = tuple(types), tuple(records)

        def fail(key: str, i: int, message: str):
            raise DatabaseValidationError(f"{key}[{i}]: {message}")

        for key, members, cls in (("types", types, ModuleType),
                                  ("modules", self.records, ModuleRecord)):
            for i, member in enumerate(members):
                if not isinstance(member, cls):
                    fail(key, i, f"expected a {cls.__name__}, got {member!r:.40}")
        by_code: dict[str, ModuleType] = {}
        for i, mt in enumerate(types):
            if mt.code in by_code:
                fail("types", i, f"duplicate type code {mt.code!r}")
            by_code[mt.code] = mt
        self.types = MappingProxyType(by_code)
        self._by_marker: dict[int, MarkerHit] = {}
        seen_serials: set[str] = set()
        for i, rec in enumerate(self.records):
            if rec.serial in seen_serials:
                fail("modules", i, f"duplicate serial {rec.serial!r}")
            seen_serials.add(rec.serial)
            if rec.type_code not in self.types:
                fail("modules", i,
                     f"module {rec.serial!r} references unknown type {rec.type_code!r}")
            if self.types[rec.type_code].dual_bundle != (rec.output_marker_id is not None):
                fail("modules", i, f"module {rec.serial!r}: output_marker_id must be present "
                                   f"exactly for dual-bundle types")
            for marker_id, is_output in ((rec.master_marker_id, False),
                                         (rec.output_marker_id, True)):
                if marker_id in self._by_marker:
                    fail("modules", i, f"marker id {marker_id} registered twice")
                if marker_id is not None:
                    self._by_marker[marker_id] = MarkerHit(rec, is_output)
        # The search's pair layers of every two catalog sides, keyed by both keys.
        # The layers repeat few values, so the table keeps one float per value (a
        # zero by its sign).
        sides = [(end, s) for mt in self.types.values() for (end, _), s in mt.sides.items()]
        floats: dict[float | str, float] = {}
        self._pair_layers = {
            (p.key, c.key): tuple(
                tuple([floats.setdefault(v or repr(v), v) for v in layer])
                for layer in _pair_layers(p, c)
            )
            for p_end, p in sides if p_end == "out"
            for c_end, c in sides if c_end == "in"
        }
        # Each type pair's bound: the longest master-to-master translation of its
        # pair layers.  A pair with no legal mating keeps 0.0, so it can never
        # pass a distance check.
        self._pair_bounds: dict[tuple[str, str], float] = {
            (pc, cc): 0.0 for pc in self.types for cc in self.types
        }
        for ((pc, _), (cc, _)), layers in self._pair_layers.items():
            for layer in layers:
                bound = float(np.linalg.norm(layer[3::4]))
                self._pair_bounds[pc, cc] = max(self._pair_bounds[pc, cc], bound)
        if not np.isfinite(list(self._pair_bounds.values())).all():
            raise DatabaseValidationError("master offsets too large: a pair bound overflows")
        self._max_bound: float = max(self._pair_bounds.values(), default=0.0)

    def lookup_marker(self, marker_id: int) -> MarkerHit | None:
        """Resolve a marker id to its module record, or None for unknown ids."""
        return self._by_marker.get(marker_id)

    def type_of(self, record: ModuleRecord) -> ModuleType:
        return self.types[record.type_code]

    def records_of_type(self, code: str) -> list[ModuleRecord]:
        return [r for r in self.records if r.type_code == code]

    def pair_connected_distance(self, parent_code: str, child_code: str) -> float:
        """Largest master-to-master distance of the two types mated directly.

        Evaluated at zero joint angle over every connection angle and every
        install combination the catalog allows the parent and the child.
        """
        return self._pair_bounds[parent_code, child_code]

    def pair_layers(self, parent: SearchSide, child: SearchSide) -> tuple[tuple[float, ...], ...]:
        """`_pair_layers` of two search sides: read from the table built with the
        database for catalog sides, computed for a side measured from a bundle pair."""
        return self._pair_layers.get((parent.key, child.key)) or _pair_layers(parent, child)

    def max_connected_distance(self) -> float:
        """Largest master-to-master distance over all ordered type pairs."""
        if not self.types:
            raise EmptyCatalog("catalog has no module types")
        return self._max_bound


def _pose_from_json(obj) -> Pose:
    if not isinstance(obj, dict) or set(obj) != {"t", "q"}:
        raise ValueError("pose must have exactly keys 't' and 'q'")
    return pose_from_json(obj["t"], obj["q"])


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


def _check_keys(obj, allowed: set, required: set):
    if not isinstance(obj, dict):
        raise ValueError("expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown key {sorted(unknown)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"missing key {sorted(missing)[0]!r}")


def _type_from_json(entry) -> ModuleType:
    _check_keys(entry, _TYPE_KEYS, _TYPE_KEYS - {"joint_limits_deg"})
    return ModuleType(
        code=entry["code"],
        kind=entry["kind"],
        body_length=entry["body_length_mm"],
        master_offset_input=_pose_from_json(entry["master_offset_input"]),
        master_offset_output=_pose_from_json(entry["master_offset_output"]),
        joint_limits=entry.get("joint_limits_deg"),
        invertible=entry["invertible"],
        dual_bundle=entry["dual_bundle"],
    )


def _record_from_json(entry) -> ModuleRecord:
    _check_keys(entry, _MODULE_KEYS, _MODULE_KEYS - {"output_marker_id"})
    return ModuleRecord(**entry)


def load_database(path) -> ModuleDatabase:
    """Load and validate a module database file.

    The records check their own fields, and a fault's message is prefixed with
    its entry (`types[i]: `, `modules[i]: `).  Every malformed document raises a
    DatabaseError.
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
    entries = {"types": [], "modules": []}
    for key, read in (("types", _type_from_json), ("modules", _record_from_json)):
        for i, entry in enumerate(doc[key]):
            try:
                entries[key].append(read(entry))
            except ValueError as exc:
                raise DatabaseValidationError(f"{key}[{i}]: {exc}") from exc
    return ModuleDatabase(entries["types"], entries["modules"])


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
    write_file(path, (json.dumps(doc, indent=2) + "\n").encode())


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
    """The shipped catalog and registry."""
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
