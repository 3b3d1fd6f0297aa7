"""Robot model emission for identified chains and trees.

Generates a neutral kinematic model (links, revolute/fixed joints, joint
origins and axes derived from the catalog geometry) and writes it either
as robot-description XML for external viewers or as a JSON mirror that
round-trips losslessly.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .descriptor import serialize
from .geometry import (
    CONNECTION_ANGLES,
    Pose,
    finite_number,
    matrix_to_rpy,
    pose_from_json,
    pose_to_json,
    rpy_to_matrix,
    write_file,
)
from .identify import ChainLink, IdentifiedChain, to_descriptor
from .module_db import CONNECTOR_STACK, INVERTED, UPRIGHT, ModuleDatabase

JOINT_REVOLUTE = "revolute"
JOINT_FIXED = "fixed"

VISUAL_RADIUS = 25.0


class InconsistentChain(ValueError):
    """The chains cannot form a valid model (none given, duplicate link names)."""


class ModelParseError(ValueError):
    """A model file is malformed."""


def _check_strs(record, *keys: str):
    """ValueError unless each field of `record` named in `keys` is a str."""
    for key in keys:
        if not isinstance(getattr(record, key), str):
            raise ValueError(f"expected {key!r} holding a str")


@dataclass(frozen=True)
class ModelLink:
    """A link: `name` is a str and `visual_length` a finite real, stored as a float;
    ValueError otherwise."""

    name: str
    visual_length: float

    def __post_init__(self):
        _check_strs(self, "name")
        object.__setattr__(self, "visual_length", finite_number(self.visual_length))


@dataclass(frozen=True)
class ModelJoint:
    """A joint: the names are strs and `origin` a Pose; `axis` is three finite reals,
    `limits` two and `angle` one or None, stored as floats.  A revolute joint has
    limits and a fixed joint none.  ValueError otherwise."""

    name: str
    joint_type: str
    parent: str
    child: str
    origin: Pose
    axis: tuple[float, float, float]
    limits: tuple[float, float] | None = None
    angle: float | None = None

    def __post_init__(self):
        _check_strs(self, "name", "parent", "child")
        if self.joint_type not in (JOINT_REVOLUTE, JOINT_FIXED):
            raise ValueError(f"unknown joint type {self.joint_type!r:.40}")
        if self.joint_type == JOINT_REVOLUTE and self.limits is None:
            raise ValueError(f"revolute joint {self.name!r:.40} has no limits")
        if self.joint_type == JOINT_FIXED and self.limits is not None:
            raise ValueError(f"fixed joint {self.name!r:.40} has limits")
        if not isinstance(self.origin, Pose):
            raise ValueError(f"origin must be a Pose, got {self.origin!r:.40}")
        object.__setattr__(self, "axis", _numbers(self.axis, 3, "axis"))
        if self.limits is not None:
            object.__setattr__(self, "limits", _numbers(self.limits, 2, "limits"))
        if self.angle is not None:
            object.__setattr__(self, "angle", finite_number(self.angle))


@dataclass
class RobotModel:
    name: str
    links: list[ModelLink]
    joints: list[ModelJoint]
    metadata: dict = field(default_factory=dict)


def generate_model(
    chain: IdentifiedChain | list[IdentifiedChain],
    db: ModuleDatabase,
    name: str = "robot",
    metadata: dict | None = None,
) -> RobotModel:
    """Build a robot model from an identified chain or a list of tree branches.

    Every module contributes one link at its master frame (dual-bundle
    modules contribute input and output links joined by their revolute
    joint).  A module's attachment to its parent is a revolute joint for
    perpendicular-joint modules (the pivot sits at their master) and a
    fixed joint otherwise.  Each joint origin is a per-mate product of the
    two mated types' 4x4 tables (`ModuleType.matrices`) and the connector of
    the connection angle, so it does not depend on the module's place in the
    chain.  `db` is not read: each link carries its module type.
    """
    branches = chain if isinstance(chain, list) else [chain]
    if not branches:
        raise InconsistentChain("model generation needs at least one non-empty chain")
    links: list[ModelLink] = []
    joints: list[ModelJoint] = []
    names: set[str] = set()
    # Per module: the link a child attaches to, and the 4x4 from it onto the
    # childward connector.
    visited: dict[str, tuple[str, np.ndarray]] = {}
    for branch in branches:
        prev: tuple[str, np.ndarray] | None = None
        for link in branch.links:
            serial = link.module.serial
            if serial in visited:
                prev = visited[serial]
                continue
            prev = visited[serial] = _emit_module(link, prev, links, joints, names)
    bus_ids = {
        l.module.serial: l.module.record.bus_id for b in branches for l in b.links
    }
    meta = {
        "description": [serialize(to_descriptor(b)) for b in branches],
        "bus_ids": bus_ids,
        "joint_angles_deg": {
            l.module.serial: l.joint_angle
            for b in branches
            for l in b.links
            if l.module.module_type.is_joint
        },
    }
    if metadata:
        meta.update(metadata)
    return RobotModel(name=name, links=links, joints=joints, metadata=meta)


def _add_link(links: list[ModelLink], names: set[str], link: ModelLink):
    if link.name in names:
        raise InconsistentChain(f"duplicate link name {link.name!r}")
    names.add(link.name)
    links.append(link)


def _pose(m: np.ndarray) -> Pose:
    """The pose over a 4x4's rotation block and translation column."""
    return Pose._trusted(m[:3, :3], m[:3, 3])


def _emit_module(
    link: ChainLink,
    prev: tuple[str, np.ndarray] | None,
    links: list[ModelLink],
    joints: list[ModelJoint],
    names: set[str],
) -> tuple[str, np.ndarray]:
    """Emit one module's links and joints; returns the link its child attaches to
    and the 4x4 from that link onto the module's childward connector."""
    mt = link.module.module_type
    serial = link.module.serial
    upright = link.direction == UPRIGHT
    theta = link.joint_angle or 0.0

    def revolute(name: str, parent: str, child: str, origin: Pose, axis):
        joints.append(
            ModelJoint(name, JOINT_REVOLUTE, parent, child, origin, axis, mt.joint_limits, theta)
        )

    if mt.dual_bundle:
        # Attached by its input link when upright, by its output link when inverted.
        ends = (f"{serial}_in", f"{serial}_out")
        for end in ends:
            _add_link(links, names, ModelLink(end, mt.body_length / 2.0))
        attached, chainward = ends if upright else ends[::-1]
    else:
        attached = chainward = serial
        _add_link(links, names, ModelLink(serial, mt.body_length))
    if prev is not None:
        parent, parent_out = prev
        mate = CONNECTOR_STACK[CONNECTION_ANGLES.index(link.connection_angle)]
        # An inverted dual-bundle module is attached by its output link.
        if upright or not mt.dual_bundle:
            mate = mate.dot(mt.matrices["in", link.direction])
        # Grouped as out @ (connector @ in); the other grouping rounds some origins differently.
        origin = _pose(parent_out.dot(mate))
        if mt.is_perpendicular_joint and not mt.dual_bundle:
            # The joint axis passes through this module's master frame; modeling
            # the swing at its own mount keeps all downstream positions exact.
            revolute(f"j_{serial}", parent, serial, origin, (0.0, 0.0, 1.0 if upright else -1.0))
        else:
            axis = (0.0, 0.0, 1.0)
            joints.append(ModelJoint(f"j_{serial}", JOINT_FIXED, parent, attached, origin, axis))
    if mt.dual_bundle:
        # The output offset, or its inverse: the zero-state frames across the joint.
        drive = mt.matrices["out", UPRIGHT] if upright else mt.matrices["in", INVERTED]
        axis = (0.0, 1.0 if upright else -1.0, 0.0)
        revolute(f"j_{serial}_drive", attached, chainward, _pose(drive), axis)
    elif mt.is_perpendicular_joint and upright and prev is None:
        # Root module whose joint swings everything downstream: carry the
        # swing on a dedicated massless link.
        chainward = f"{serial}_swing"
        _add_link(links, names, ModelLink(chainward, 0.0))
        revolute(f"j_{serial}", serial, chainward, Pose.identity(), (0.0, 0.0, 1.0))
    # An upright dual-bundle module's output link sits at its output connector.
    if mt.dual_bundle and upright:
        return chainward, np.eye(4)
    return chainward, mt.matrices["out", link.direction]


def write_model(model: RobotModel, path, fmt: str | None = None):
    """Write a model as robot-description XML or as its JSON mirror.

    The format defaults from the file suffix: .xml selects XML, anything
    else JSON.
    """
    path = str(path)
    if fmt is None:
        fmt = "xml" if path.endswith(".xml") else "json"
    if fmt == "json":
        _write_model_json(model, path)
    elif fmt == "xml":
        _write_model_xml(model, path)
    else:
        raise ValueError(f"unknown model format {fmt!r}")


def _write_model_json(model: RobotModel, path: str):
    doc = {
        "name": model.name,
        "links": [{"name": l.name, "visual_length_mm": l.visual_length} for l in model.links],
        "joints": [
            {
                "name": j.name,
                "type": j.joint_type,
                "parent": j.parent,
                "child": j.child,
                "origin": pose_to_json(j.origin),
                "axis": list(j.axis),
                "limits_deg": None if j.limits is None else list(j.limits),
                "angle_deg": j.angle,
            }
            for j in model.joints
        ],
        "metadata": model.metadata,
    }
    write_file(path, (json.dumps(doc, indent=2) + "\n").encode())


# ElementTree's escapes, applied in one pass.  Attribute values also escape
# quotes and the whitespace that attribute-value normalization would lose.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = _TEXT_ESCAPES | str.maketrans(
    {'"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)
_ATTR_SPECIALS = "".join(map(chr, _ATTR_ESCAPES))


def _escaped(text: str) -> str:
    return text.translate(_ATTR_ESCAPES)


def _write_model_xml(model: RobotModel, path: str):
    """Render the model as one indented XML document and write it at once.

    The names are checked once for the characters an attribute escapes, and
    escaped one by one only when one of those is present.
    """
    fields = (j.name + j.joint_type + j.parent + j.child for j in model.joints)
    text = "".join([model.name, *(l.name for l in model.links), *fields])
    esc = _escaped if any(c in text for c in _ATTR_SPECIALS) else str
    parts = [f"<?xml version='1.0' encoding='utf-8'?>\n<robot name=\"{esc(model.name)}\">"]
    for link in model.links:
        name = esc(link.name)
        if link.visual_length > 0.0:
            parts.append(
                f'\n  <link name="{name}">\n    <visual>\n      <geometry>\n'
                f'        <cylinder length="{link.visual_length / 1000.0!r}"'
                f' radius="{VISUAL_RADIUS / 1000.0!r}" />\n'
                "      </geometry>\n    </visual>\n  </link>"
            )
        else:
            parts.append(f'\n  <link name="{name}" />')
    for joint in model.joints:
        x, y, z = joint.origin.translation.tolist()
        roll, pitch, yaw = matrix_to_rpy(joint.origin.rotation.tolist())
        parts.append(
            f'\n  <joint name="{esc(joint.name)}" type="{esc(joint.joint_type)}">'
            f'\n    <parent link="{esc(joint.parent)}" />'
            f'\n    <child link="{esc(joint.child)}" />'
            f'\n    <origin xyz="{x / 1000.0!r} {y / 1000.0!r} {z / 1000.0!r}"'
            f' rpy="{roll!r} {pitch!r} {yaw!r}" />'
        )
        if joint.joint_type == JOINT_REVOLUTE:
            (lo, hi), (ax, ay, az) = joint.limits, joint.axis
            parts.append(
                f'\n    <axis xyz="{ax!r} {ay!r} {az!r}" />'
                f'\n    <limit lower="{math.radians(lo)!r}" upper="{math.radians(hi)!r}"'
                ' effort="0" velocity="0" />'
            )
        parts.append("\n  </joint>")
    angles = {j.name: j.angle for j in model.joints if j.angle is not None}
    meta = json.dumps({"metadata": model.metadata, "joint_angles_deg": angles})
    parts.append(f"\n  <metadata>{meta.translate(_TEXT_ESCAPES)}</metadata>\n</robot>\n")
    write_file(path, "".join(parts).encode("utf-8", "xmlcharrefreplace"))


def read_model(path) -> RobotModel:
    """Read a model in either format written by write_model.

    Every malformed document raises ModelParseError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            return (_read_model_xml if text.lstrip().startswith("<") else _read_model_json)(text)
        except (ValueError, RecursionError, ET.ParseError) as exc:
            raise ModelParseError(f"{path}: {exc}") from exc


def _field(doc, key: str, kind: type = object):
    """doc[key], which must be present and of JSON type `kind`."""
    if not isinstance(doc, dict) or key not in doc or not isinstance(doc[key], kind):
        raise ValueError(f"expected {key!r} holding a {kind.__name__}")
    return doc[key]


def _numbers(values, n: int, what: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or len(values) != n:
        raise ValueError(f"{what} must hold {n} numbers")
    return tuple(map(finite_number, values))


def _read_model_json(text: str) -> RobotModel:
    doc = json.loads(text)
    links = [
        ModelLink(_field(l, "name"), _field(l, "visual_length_mm"))
        for l in _field(doc, "links", list)
    ]
    joints = []
    for j in _field(doc, "joints", list):
        origin = _field(j, "origin")
        joints.append(
            ModelJoint(
                name=_field(j, "name"),
                joint_type=_field(j, "type"),
                parent=_field(j, "parent"),
                child=_field(j, "child"),
                origin=pose_from_json(_field(origin, "t"), _field(origin, "q")),
                axis=_field(j, "axis"),
                limits=_field(j, "limits_deg"),
                angle=_field(j, "angle_deg"),
            )
        )
    return RobotModel(_field(doc, "name", str), links, joints, _field(doc, "metadata", dict))


def _attr(el: ET.Element, path: str, key: str, n: int | None = None):
    """Attribute `key` of the element at `path` below `el`; n finite numbers when n is given."""
    found = el.find(path)
    if found is None or found.get(key) is None:
        raise ValueError(f"<{el.tag}> lacks {path}/@{key}")
    text = found.get(key)
    return text if n is None else _numbers([float(v) for v in text.split()], n, f"@{key}")


def _read_model_xml(text: str) -> RobotModel:
    robot = ET.fromstring(text)
    cylinder = "./visual/geometry/cylinder"
    links = [
        ModelLink(
            _attr(el, ".", "name"),
            0.0 if el.find(cylinder) is None else _attr(el, cylinder, "length", 1)[0] * 1000.0,
        )
        for el in robot.findall("link")
    ]
    meta_el = robot.find("metadata")
    blob = json.loads(meta_el.text) if meta_el is not None and meta_el.text else {}
    if not isinstance(blob, dict):
        raise ValueError("<metadata> must hold a JSON object")
    blob = {"joint_angles_deg": {}, "metadata": {}, **blob}
    angles = _field(blob, "joint_angles_deg", dict)
    joints = []
    for el in robot.findall("joint"):
        name = _attr(el, ".", "name")
        joints.append(
            ModelJoint(
                name=name,
                joint_type=_attr(el, ".", "type"),
                parent=_attr(el, "parent", "link"),
                child=_attr(el, "child", "link"),
                origin=Pose(
                    rpy_to_matrix(*_attr(el, "origin", "rpy", 3)),
                    np.array(_attr(el, "origin", "xyz", 3)) * 1000.0,
                ),
                axis=(0.0, 0.0, 1.0) if el.find("axis") is None else _attr(el, "axis", "xyz", 3),
                limits=None if el.find("limit") is None else tuple(
                    math.degrees(_attr(el, "limit", key, 1)[0]) for key in ("lower", "upper")
                ),
                angle=angles.get(name),
            )
        )
    return RobotModel(_attr(robot, ".", "name"), links, joints, _field(blob, "metadata", dict))
