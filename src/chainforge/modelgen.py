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
    Pose,
    axis_angle,
    compose,
    matrix_to_rpy,
    pose_from_json,
    pose_to_json,
    relative,
    rpy_to_matrix,
)
from .identify import ChainLink, IdentifiedChain, to_descriptor
from .module_db import UPRIGHT, ModuleDatabase, connection_transform

JOINT_REVOLUTE = "revolute"
JOINT_FIXED = "fixed"

VISUAL_RADIUS = 25.0


class InconsistentChain(Exception):
    """The chain cannot form a valid model (duplicate names, bad limits)."""


@dataclass(frozen=True)
class ModelLink:
    name: str
    visual_length: float


@dataclass(frozen=True)
class ModelJoint:
    name: str
    joint_type: str
    parent: str
    child: str
    origin: Pose
    axis: tuple[float, float, float]
    limits: tuple[float, float] | None = None
    angle: float | None = None


@dataclass
class RobotModel:
    name: str
    links: list[ModelLink]
    joints: list[ModelJoint]
    metadata: dict = field(default_factory=dict)


@dataclass
class _WalkState:
    chainward_name: str  # link the next module attaches to
    link_frame: Pose  # that link's world frame, zero configuration
    connector_frame: Pose  # child-facing connector frame, zero configuration


def _check_angle(link: ChainLink):
    mt = link.module.module_type
    if link.joint_angle is None or not mt.is_joint:
        return
    lo, hi = mt.joint_limits
    if not lo <= link.joint_angle <= hi:
        raise InconsistentChain(
            f"{link.module.serial}: joint angle {link.joint_angle} outside [{lo}, {hi}]"
        )


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
    fixed joint otherwise.  Joint origins are zero-configuration relative
    transforms derived from the catalog offsets and the identified
    connection angles and install directions.
    """
    branches = chain if isinstance(chain, list) else [chain]
    if not branches or not all(b.links for b in branches):
        raise InconsistentChain("model generation needs at least one non-empty chain")
    links: list[ModelLink] = []
    joints: list[ModelJoint] = []
    names: set[str] = set()
    visited: dict[str, _WalkState] = {}
    for branch in branches:
        prev: _WalkState | None = None
        for index, link in enumerate(branch.links):
            serial = link.module.serial
            if serial in visited:
                prev = visited[serial]
                continue
            if prev is None and index > 0:
                raise InconsistentChain(
                    f"branch reaches {serial} without a shared prefix module"
                )
            _check_angle(link)
            prev = _emit_module(link, index, prev, db, links, joints, names)
            visited[serial] = prev
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


def _emit_module(
    link: ChainLink,
    index: int,
    prev: _WalkState | None,
    db: ModuleDatabase,
    links: list[ModelLink],
    joints: list[ModelJoint],
    names: set[str],
) -> _WalkState:
    module = link.module
    mt = module.module_type
    serial = module.serial
    direction = link.direction
    theta = link.joint_angle or 0.0
    is_root = prev is None
    if is_root:
        master0 = Pose.identity()
    else:
        conn_frame = compose(
            prev.connector_frame, connection_transform(link.connection_angle)
        )
        master0 = compose(conn_frame, mt.parentward_to_master(direction, 0.0))
    connector0 = compose(master0, mt.master_to_childward(direction, 0.0))

    def attach(child_name: str, child_frame: Pose, revolute_axis=None):
        if is_root:
            return
        if revolute_axis is None:
            joints.append(
                ModelJoint(
                    name=f"j_{serial}",
                    joint_type=JOINT_FIXED,
                    parent=prev.chainward_name,
                    child=child_name,
                    origin=relative(prev.link_frame, child_frame),
                    axis=(0.0, 0.0, 1.0),
                )
            )
        else:
            joints.append(
                ModelJoint(
                    name=f"j_{serial}",
                    joint_type=JOINT_REVOLUTE,
                    parent=prev.chainward_name,
                    child=child_name,
                    origin=relative(prev.link_frame, child_frame),
                    axis=revolute_axis,
                    limits=mt.joint_limits,
                    angle=theta,
                )
            )

    if mt.dual_bundle:
        in_name, out_name = f"{serial}_in", f"{serial}_out"
        out0 = compose(master0, mt.master_offset_output)
        _add_link(links, names, ModelLink(in_name, mt.body_length / 2.0))
        _add_link(links, names, ModelLink(out_name, mt.body_length / 2.0))
        if direction == UPRIGHT:
            attach(in_name, master0)
            joints.append(
                ModelJoint(
                    name=f"j_{serial}_drive",
                    joint_type=JOINT_REVOLUTE,
                    parent=in_name,
                    child=out_name,
                    origin=relative(master0, out0),
                    axis=(0.0, 1.0, 0.0),
                    limits=mt.joint_limits,
                    angle=theta,
                )
            )
            return _WalkState(out_name, out0, connector0)
        attach(out_name, out0)
        joints.append(
            ModelJoint(
                name=f"j_{serial}_drive",
                joint_type=JOINT_REVOLUTE,
                parent=out_name,
                child=in_name,
                origin=relative(out0, master0),
                axis=(0.0, -1.0, 0.0),
                limits=mt.joint_limits,
                angle=theta,
            )
        )
        return _WalkState(in_name, master0, connector0)

    _add_link(links, names, ModelLink(serial, mt.body_length))
    if mt.is_perpendicular_joint and not is_root:
        # The joint axis passes through this module's master frame; modeling
        # the swing at its own mount keeps all downstream positions exact.
        axis = (0.0, 0.0, 1.0) if direction == UPRIGHT else (0.0, 0.0, -1.0)
        attach(serial, master0, revolute_axis=axis)
        return _WalkState(serial, master0, connector0)
    if mt.is_perpendicular_joint and direction == UPRIGHT:
        # Root module whose joint swings everything downstream: carry the
        # swing on a dedicated massless link.
        swing = f"{serial}_swing"
        _add_link(links, names, ModelLink(swing, 0.0))
        joints.append(
            ModelJoint(
                name=f"j_{serial}",
                joint_type=JOINT_REVOLUTE,
                parent=serial,
                child=swing,
                origin=Pose.identity(),
                axis=(0.0, 0.0, 1.0),
                limits=mt.joint_limits,
                angle=theta,
            )
        )
        return _WalkState(swing, master0, connector0)
    attach(serial, master0)
    return _WalkState(serial, master0, connector0)


def model_world_frames(model: RobotModel, base_pose: Pose | None = None) -> dict[str, Pose]:
    """Forward kinematics of the model at its stored joint angles.

    The root link (never a joint child) is placed at base_pose.
    """
    children = {j.child for j in model.joints}
    roots = [l.name for l in model.links if l.name not in children]
    if len(roots) != 1:
        raise InconsistentChain(f"model must have exactly one root link, found {roots}")
    base = base_pose if base_pose is not None else Pose.identity()
    frames: dict[str, Pose] = {roots[0]: base}
    pending = list(model.joints)
    while pending:
        progressed = False
        for joint in list(pending):
            if joint.parent not in frames:
                continue
            local = joint.origin
            if joint.joint_type == JOINT_REVOLUTE:
                spin = Pose.from_rotation(axis_angle(joint.axis, joint.angle or 0.0))
                local = compose(local, spin)
            frames[joint.child] = compose(frames[joint.parent], local)
            pending.remove(joint)
            progressed = True
        if not progressed:
            raise InconsistentChain("joint graph is not a tree rooted at one base link")
    return frames


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_model_xml(model: RobotModel, path: str):
    robot = ET.Element("robot", name=model.name)
    for link in model.links:
        el = ET.SubElement(robot, "link", name=link.name)
        if link.visual_length > 0.0:
            geom = ET.SubElement(ET.SubElement(el, "visual"), "geometry")
            ET.SubElement(
                geom,
                "cylinder",
                length=repr(link.visual_length / 1000.0),
                radius=repr(VISUAL_RADIUS / 1000.0),
            )
    for joint in model.joints:
        el = ET.SubElement(robot, "joint", name=joint.name, type=joint.joint_type)
        ET.SubElement(el, "parent", link=joint.parent)
        ET.SubElement(el, "child", link=joint.child)
        rpy = matrix_to_rpy(joint.origin.rotation)
        xyz_m = joint.origin.translation / 1000.0
        ET.SubElement(
            el,
            "origin",
            xyz=" ".join(repr(float(v)) for v in xyz_m),
            rpy=" ".join(repr(float(v)) for v in rpy),
        )
        if joint.joint_type == JOINT_REVOLUTE:
            ET.SubElement(el, "axis", xyz=" ".join(repr(float(v)) for v in joint.axis))
            lo, hi = joint.limits
            ET.SubElement(
                el,
                "limit",
                lower=repr(math.radians(lo)),
                upper=repr(math.radians(hi)),
                effort="0",
                velocity="0",
            )
    meta = ET.SubElement(robot, "metadata")
    meta.text = json.dumps(
        {
            "metadata": model.metadata,
            "joint_angles_deg": {
                j.name: j.angle for j in model.joints if j.angle is not None
            },
        }
    )
    tree = ET.ElementTree(robot)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")


def read_model(path) -> RobotModel:
    """Read a model in either format written by write_model."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("<"):
        return _read_model_xml(text)
    return _read_model_json(text)


def _read_model_json(text: str) -> RobotModel:
    doc = json.loads(text)
    links = [ModelLink(l["name"], float(l["visual_length_mm"])) for l in doc["links"]]
    joints = [
        ModelJoint(
            name=j["name"],
            joint_type=j["type"],
            parent=j["parent"],
            child=j["child"],
            origin=pose_from_json(j["origin"]["t"], j["origin"]["q"]),
            axis=tuple(float(v) for v in j["axis"]),
            limits=None if j["limits_deg"] is None else tuple(j["limits_deg"]),
            angle=j["angle_deg"],
        )
        for j in doc["joints"]
    ]
    return RobotModel(doc["name"], links, joints, doc["metadata"])


def _read_model_xml(text: str) -> RobotModel:
    robot = ET.fromstring(text)
    links = []
    for el in robot.findall("link"):
        cylinder = el.find("./visual/geometry/cylinder")
        length = 0.0 if cylinder is None else float(cylinder.get("length")) * 1000.0
        links.append(ModelLink(el.get("name"), length))
    meta_el = robot.find("metadata")
    blob = json.loads(meta_el.text) if meta_el is not None and meta_el.text else {}
    angles = blob.get("joint_angles_deg", {})
    joints = []
    for el in robot.findall("joint"):
        origin_el = el.find("origin")
        xyz = np.array([float(v) for v in origin_el.get("xyz").split()]) * 1000.0
        rpy = [float(v) for v in origin_el.get("rpy").split()]
        axis_el = el.find("axis")
        axis = (
            tuple(float(v) for v in axis_el.get("xyz").split())
            if axis_el is not None
            else (0.0, 0.0, 1.0)
        )
        limit_el = el.find("limit")
        limits = None
        if limit_el is not None:
            limits = (
                math.degrees(float(limit_el.get("lower"))),
                math.degrees(float(limit_el.get("upper"))),
            )
        name = el.get("name")
        joints.append(
            ModelJoint(
                name=name,
                joint_type=el.get("type"),
                parent=el.find("parent").get("link"),
                child=el.find("child").get("link"),
                origin=Pose(rpy_to_matrix(*rpy), xyz),
                axis=axis,
                limits=limits,
                angle=angles.get(name),
            )
        )
    return RobotModel(robot.get("name"), links, joints, blob.get("metadata", {}))
