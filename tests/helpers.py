"""Shared scene builders for the test suite."""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import strategies as st

from chainforge import identify
from chainforge.descriptor import ChainDescriptor, ChainEntry, parse, serialize
from chainforge.geometry import (
    CONNECTION_ANGLES,
    ORTHONORMALITY_TOL,
    TURN_PLANES,
    Pose,
    axis_angle,
    compose,
    discretize_angle,
    invert,
    joint_turns,
    InvalidPose,
    checked_poses,
    finite_number,
    matrix_to_rpy,
    quat_rows,
    rot_x,
    rot_y,
    rot_z,
    signed_angle,
    unit_between,
    wrap_angle,
)
from chainforge import modelgen
from chainforge.modelgen import (
    JOINT_FIXED,
    JOINT_REVOLUTE,
    VISUAL_RADIUS,
    InconsistentChain,
    ModelJoint,
    ModelLink,
    RobotModel,
)
from chainforge.module_db import (
    CONNECTOR_STACK,
    INVERTED,
    KIND_TOOL,
    UPRIGHT,
    ModuleDatabase,
    ModuleRecord,
    ModuleType,
    save_database,
)
from chainforge.synth import (
    SPURIOUS_ID_BASE,
    SPURIOUS_ID_SPAN,
    MarkerObservation,
    ModulePlacement,
    SceneConfig,
    SceneParseError,
    _random_unit,
    assign_instances,
    forward_poses,
    synthesize,
)

MID_CODES = ["I", "i", "T", "t", "L", "l", "A"]
TOOL_CODES = ["G", "g", "W", "S"]

# The four chains shown working on hardware: descriptor, joint setup, and the
# serials to place first, if any (see `registry_first`).
PAPER_CHAINS = [
    ("I-T'0-T'0-A0-t0-i0-g0", [15.0, -40.0, 55.0, 20.0, -40.0], None),
    ("I-T'0-T'0-A0-t0-i0-g0", [-25.0, 30.0, -75.0, 45.0, 10.0], None),
    ("I-T'0-T0-A0-i0-t0-g0", [10.0, -30.0, 45.0, 25.0, -60.0], None),
    # Bi-directional climbing robot: either gripper may act as the chain
    # end; giving the end gripper the lower marker id selects the
    # canonical base-to-end reading.
    (
        "G'-I0-T'0-L0-T'90-T180-I'0-G0",
        [30.0, -45.0, 60.0, -30.0, 90.0],
        ("G-002", "I-001", "T-001", "L-001", "T-002", "T-003", "I-002", "G-001"),
    ),
]


def registry_first(db: ModuleDatabase, serials) -> ModuleDatabase:
    """`db` with the records of `serials` listed first, in that order.  Synthesis
    takes each type's instances in registry order, so a chain that lists its
    entries' serials here is placed on exactly those modules.  No serials leave
    `db` as it is."""
    if not serials:
        return db
    by_serial = {r.serial: r for r in db.records}
    rest = [r for r in db.records if r.serial not in serials]
    return ModuleDatabase(list(db.types.values()), [by_serial[s] for s in serials] + rest)


def random_base(rng: np.random.Generator) -> Pose:
    return Pose(
        axis_angle(rng.normal(size=3), float(rng.uniform(0.0, 180.0))),
        rng.uniform(-400.0, 400.0, size=3),
    )


def random_chain_case(rng: np.random.Generator, db: ModuleDatabase):
    """Random descriptor, joint angles and base pose.

    Chains are 2-10 modules, end in a single upright tool (so the chain-end
    selection is deterministic), respect the registry's instance counts and
    the catalog's invertibility flags, and pin the unobservable joint angle
    of an inverted perpendicular-joint base module to zero.
    """
    counts = {c: len(db.records_of_type(c)) for c in MID_CODES + TOOL_CODES}
    length = int(rng.integers(2, 11))
    entries: list[ChainEntry] = []
    thetas: list[float] = []

    def pick(codes: list[str]) -> str:
        avail = [c for c in codes if counts[c] > 0]
        code = str(rng.choice(avail))
        counts[code] -= 1
        return code

    for k in range(length):
        if k == length - 1:
            code = pick(TOOL_CODES)
            inverted = False
        else:
            code = pick(MID_CODES)
            inverted = bool(rng.random() < 0.3) and db.types[code].invertible
        angle = None if k == 0 else float(rng.choice([-90.0, 0.0, 90.0, 180.0]))
        entries.append(ChainEntry(code, inverted, angle))
        mt = db.types[code]
        if mt.is_joint:
            if k == 0 and inverted and mt.is_perpendicular_joint:
                thetas.append(0.0)
            else:
                lo, hi = mt.joint_limits
                thetas.append(float(rng.uniform(lo, hi)))
    return ChainDescriptor(tuple(entries)), thetas, random_base(rng)


def random_two_tool_case(rng: np.random.Generator, db: ModuleDatabase):
    """Random descriptor, joint angles and base pose of a chain with a tool at each end.

    The base tool is inverted and the end tool upright, with 1-8 middle
    modules between them that respect the catalog's invertibility flags.
    """
    counts = {c: len(db.records_of_type(c)) for c in MID_CODES + TOOL_CODES}

    def pick(codes: list[str]) -> str:
        code = str(rng.choice([c for c in codes if counts[c] > 0]))
        counts[code] -= 1
        return code

    def angle() -> float:
        return float(rng.choice([-90.0, 0.0, 90.0, 180.0]))

    entries = [ChainEntry(pick(TOOL_CODES), True, None)]
    thetas: list[float] = []
    for _ in range(int(rng.integers(1, 9))):
        code = pick(MID_CODES)
        inverted = bool(rng.random() < 0.3) and db.types[code].invertible
        entries.append(ChainEntry(code, inverted, angle()))
        if db.types[code].is_joint:
            thetas.append(float(rng.uniform(*db.types[code].joint_limits)))
    entries.append(ChainEntry(pick(TOOL_CODES), False, angle()))
    return ChainDescriptor(tuple(entries)), thetas, random_base(rng)


def make_corpus(db: ModuleDatabase, count: int, seed: int):
    """Seeded list of (descriptor, canonical string, thetas, base pose)."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        desc, thetas, base = random_chain_case(rng, db)
        cases.append((desc, serialize(desc), thetas, base))
    return cases


def corpus_and_noise_rows(db, corpus_size: int, draws: int) -> list:
    """The first scenes of the criterion-2 corpus, then the first criterion-4 joint
    draws under each of the four noise rows."""
    scenes = [
        synthesize(desc, thetas, db, base=base)
        for desc, _, thetas, base in make_corpus(db, corpus_size, 20260808)
    ]
    desc = parse("I-T'0-T'0-A0-t0-i0-g0")
    rows = [(2.0, 3, 0.0), (4.0, 3, 0.0), (6.0, 3, 0.0), (2.0, 0, 0.05)]
    rng = np.random.default_rng(4242)
    for k in range(draws):
        thetas = [float(rng.uniform(-0.7, 0.7) * hi) for hi in (180.0, 120.0, 120.0, 120.0, 180.0)]
        for sigma, spurious, dropout in rows:
            cfg = SceneConfig(
                sigma_pos=sigma,
                sigma_rot=sigma,
                dropout_prob=dropout,
                spurious_count=spurious,
                seed=9000 + k,
            )
            scenes.append(synthesize(desc, thetas, db, cfg=cfg))
    return scenes


def _skewed_type(code: str, kind: str, limits, dual_bundle: bool) -> ModuleType:
    """A type whose connector offsets are rotated and off-center, unlike the defaults."""
    return ModuleType(
        code=code,
        kind=kind,
        body_length=90.0,
        master_offset_input=Pose(axis_angle([0.3, -1.0, 0.2], 170.0), [3.5, -41.0, 2.25]),
        master_offset_output=Pose(axis_angle([0.1, 0.4, -1.0], 25.0), [-1.5, 47.0, 6.0]),
        joint_limits=limits,
        invertible=True,
        dual_bundle=dual_bundle,
    )


def skewed_database(count: int = 0) -> ModuleDatabase:
    """A catalog of four types, two joints, a link and a tool, with skewed connector
    offsets, and `count` registered modules of each type.  The k-th type's modules
    take master marker ids from 10 (k + 1), their output bundles 1000 more."""
    types = [
        _skewed_type("P", "joint-perpendicular", (-100.0, 110.0), False),
        _skewed_type("C", "joint-collinear", (-170.0, 160.0), True),
        _skewed_type("L", "link", None, False),
        _skewed_type("G", KIND_TOOL, None, False),
    ]
    records = []
    for k, mt in enumerate(types):
        for i in range(count):
            marker = 10 * (k + 1) + i
            output = marker + 1000 if mt.dual_bundle else None
            serial = f"{mt.code}-{i + 1:03d}"
            records.append(ModuleRecord(serial, mt.code, len(records) + 1, marker, output))
    return ModuleDatabase(types, records)


def make_two_branch_scene(rng: np.random.Generator, db: ModuleDatabase):
    """Scene with two arms off a perpendicular-joint branch module.

    The trunk runs base..P where P is an upright T module; arm one continues
    through P's output connector, arm two mates a second, perpendicular
    connector face of P (a right-angle mount off the same joint body).
    Returns (observations, trunk serials, arm1 serials, arm2 serials).
    """
    base = random_base(rng)
    trunk = ChainDescriptor(
        (
            ChainEntry("I", False, None),
            ChainEntry("L", False, 0.0),
            ChainEntry("T", False, 0.0),
        )
    )
    arm1 = [("A", 0.0), ("t", 0.0), ("g", 0.0)]
    arm2 = [("l", 90.0), ("t", 0.0), ("G", 0.0)]
    theta_trunk = [float(rng.uniform(-90.0, 90.0)), 0.0]

    placements = forward_poses(trunk, theta_trunk, db, base=base)
    observations = list(synthesize(trunk, theta_trunk, db, base=base))
    trunk_serials = [p.serial for p in placements]
    used = set(trunk_serials)

    p_master = placements[-1].master_pose
    p_type = db.types["T"]

    def grow(connector: Pose, arm) -> list[str]:
        serials = []
        conn = connector
        for code, angle in arm:
            mt = db.types[code]
            rec = next(r for r in db.records_of_type(code) if r.serial not in used)
            used.add(rec.serial)
            serials.append(rec.serial)
            master = compose(
                compose(conn, reference_connection_transform(angle)),
                reference_parentward_to_master(mt, UPRIGHT),
            )
            observations.append(MarkerObservation(rec.master_marker_id, master))
            if mt.dual_bundle:
                observations.append(
                    MarkerObservation(
                        rec.output_marker_id, compose(master, mt.master_offset_output)
                    )
                )
            conn = compose(master, reference_master_to_childward(mt, UPRIGHT))
        return serials

    out_connector = compose(p_master, reference_master_to_childward(p_type, UPRIGHT))
    arm1_serials = grow(out_connector, arm1)
    # Second connector face: the output offset swung -90 degrees about the
    # joint axis, i.e. a rigid right-angle port on the joint body.
    side_connector = compose(
        compose(p_master, from_rotation(rot_z(-90.0))),
        reference_master_to_childward(p_type, UPRIGHT),
    )
    arm2_serials = grow(side_connector, arm2)
    return observations, trunk_serials, arm1_serials, arm2_serials


# Any JSON value Python's json module reads, including NaN, infinities and
# integers too large for a float; plus short lists, which reach the
# per-element checks of vector fields.
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats()
    | st.text(max_size=8)
)
json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
field_values = json_values | st.lists(_json_scalars, min_size=2, max_size=4)
# Numbers a vector field may hold besides plain floats: bools, integers too
# large for a float, NaN and the infinities, and magnitudes near the limits.
odd_numbers = (
    st.booleans()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.sampled_from([math.inf, -math.inf, math.nan, 0, -0.0, 1e200, 1e-200, 1e155])
)


# --- Reference implementations ----------------------------------------------
# Straightforward one-element forms of code that the package runs batched or
# renders directly.  Tests require the package to match them bit for bit.


# The catalog's transforms as one Pose composition per factor, the algebra that
# `ModuleType.matrices` and `module_db.CONNECTOR_STACK` tabulate and the model's
# joint origins multiply.
REFERENCE_MATING_FLIP = Pose(rot_x(180.0), np.zeros(3))


def reference_connection_transform(angle_deg: float) -> Pose:
    """Across a mated connector pair: a roll about the shared y-axis, then the flip."""
    return compose(Pose._trusted(rot_y(angle_deg), np.zeros(3)), REFERENCE_MATING_FLIP)


def reference_directions(mt: ModuleType, side: str) -> list[str]:
    """Install directions a type may take as the "parent" or the "child" of a mate:
    those its invertibility allows, except that a tool's one connector faces
    its child only when inverted and its parent only when upright."""
    barred = UPRIGHT if side == "parent" else INVERTED
    directions = [UPRIGHT, INVERTED] if mt.invertible else [UPRIGHT]
    return [d for d in directions if not (mt.is_tool and d == barred)]


def reference_joint_rotation(mt: ModuleType, theta_deg: float) -> Pose:
    """Rotation about the joint axis: y for collinear, z for perpendicular."""
    if mt.is_collinear_joint:
        return Pose._trusted(rot_y(theta_deg), np.zeros(3))
    if mt.is_perpendicular_joint:
        return Pose._trusted(rot_z(theta_deg), np.zeros(3))
    return Pose.identity()


def reference_parentward_to_master(mt: ModuleType, direction: str, theta_deg=0.0) -> Pose:
    """Parent-facing connector to master: through the input connector when upright,
    through the output connector, and so behind the joint, when inverted."""
    if direction == UPRIGHT:
        return mt.master_offset_input
    return compose(invert(mt.master_offset_output), reference_joint_rotation(mt, -theta_deg))


def reference_master_to_childward(mt: ModuleType, direction: str, theta_deg=0.0) -> Pose:
    """Master to the child-facing connector."""
    if direction == UPRIGHT:
        return compose(reference_joint_rotation(mt, theta_deg), mt.master_offset_output)
    return invert(mt.master_offset_input)


def reference_mate(mt: ModuleType, direction: str, angle_deg: float) -> Pose:
    """Parent's childward connector to the link the module is attached by: its
    master frame, or an inverted dual-bundle module's output link."""
    pose = reference_connection_transform(angle_deg)
    if mt.dual_bundle and direction == INVERTED:
        return pose
    return compose(pose, reference_parentward_to_master(mt, direction))


def reference_link_out(mt: ModuleType, direction: str) -> Pose:
    """The link a child attaches to onto the childward connector."""
    if mt.dual_bundle and direction == UPRIGHT:
        return Pose.identity()
    return reference_master_to_childward(mt, direction)


def reference_mated_distance(p: ModuleType, c: ModuleType) -> float:
    """The largest master-to-master distance over both sides' legal directions
    and the four connection angles, one 4x4 product per mate.

    A pair with no legal mating (e.g. two tools pointing the wrong way)
    keeps a zero bound, so it can never pass a distance check.
    """
    best = 0.0
    for dp in p.parent_directions:
        for dc in c.child_directions:
            for connector in CONNECTOR_STACK:
                t = (p.matrices["out", dp] @ connector) @ c.matrices["in", dc]
                best = max(best, float(np.linalg.norm(t[:3, 3])))
    return best


def reference_search_side(mt: ModuleType, end: str, direction: str) -> dict:
    """What the optimization search reads of a type's factor, field by field of
    `module_db.SearchSide`, with the factor composed from the catalog offsets:
    master to the child-facing connector as a parent (`end` "out"), the
    parent-facing connector to the master as a child ("in").  A joint state is
    free in an upright parent and an inverted child."""
    if end == "out":
        m = reference_master_to_childward(mt, direction).matrix()
        free = direction == UPRIGHT
    else:
        m = reference_parentward_to_master(mt, direction).matrix()
        free = direction == INVERTED
    axis, limits = (mt.joint_axis, mt.joint_limits) if free and mt.is_joint else (None, None)
    reach = math.hypot(*m[:3, 3].tolist())
    return {"matrix": m, "axis": axis, "limits": limits, "reach": reach, "key": (mt.code, direction)}


def quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (x, y, z, w) to rotation matrix by `quat_rows`; an (n, 4)
    stack gives (n, 3, 3)."""
    q = np.asarray(q, dtype=float)
    r = np.array([quat_rows(v) for v in q.reshape(-1, 4).tolist()]).reshape(-1, 3, 3)
    return r[0] if q.ndim == 1 else r


def reference_quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (x, y, z, w) to rotation matrix, in scalar arithmetic."""
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


def reference_numpy_quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (x, y, z, w) to rotation matrix, the formula evaluated over
    numpy arrays; an (n, 4) stack gives (n, 3, 3)."""
    q = np.asarray(q, dtype=float)
    x, y, z, w = q.T
    norm2 = x * x + y * y + z * z + w * w
    n = np.sqrt(norm2)
    # The first faulty quaternion names its first fault, with the file readers' messages.
    for v, v_norm2, v_n in zip(q.reshape(-1, 4), np.ravel(norm2), np.ravel(n)):
        if not np.isfinite(v).all():
            raise ValueError(f"expected a finite number, got {float(v[~np.isfinite(v)][0])!r}")
        if not np.isfinite(v_norm2):
            raise ValueError("q is too large to normalize")
        if v_n < 1e-12:
            raise ValueError("zero-norm quaternion")
    x, y, z, w = x / n, y / n, z / n, w / n
    r = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
    return r if q.ndim == 1 else np.ascontiguousarray(r.transpose(2, 0, 1))


def reference_read_scene(path) -> list[MarkerObservation]:
    """`synth.read_scene` for a JSON document: each field through `finite_number`, the
    norm checked in floats, then every rotation from `reference_numpy_quat_to_matrix`
    over the scene's stack."""
    doc = json.loads(open(path, encoding="utf-8").read())
    if not isinstance(doc, list):
        raise SceneParseError("scene file must contain a JSON array")
    marker_ids, translations, quats = [], [], []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or set(entry) != {"marker_id", "t", "q"}:
            raise SceneParseError(f"observation {i}: must have exactly keys marker_id, t, q")
        marker_id, t, q = entry["marker_id"], entry["t"], entry["q"]
        if not isinstance(marker_id, int) or isinstance(marker_id, bool) or marker_id < 0:
            raise SceneParseError(f"observation {i}: marker_id must be a non-negative integer")
        try:
            for name, values, n in (("t", t, 3), ("q", q, 4)):
                if not isinstance(values, list) or len(values) != n:
                    raise ValueError(f"{name} must be a list of {n} numbers")
            x, y, z, w = q = [finite_number(v) for v in q]
            norm2 = x * x + y * y + z * z + w * w
            if not math.isfinite(norm2):
                raise ValueError("q is too large to normalize")
            if math.sqrt(norm2) < 1e-12:
                raise ValueError("zero-norm quaternion")
            translations.append([finite_number(v) for v in t])
        except ValueError as exc:
            raise SceneParseError(f"observation {i}: {exc}") from exc
        marker_ids.append(marker_id)
        quats.append(q)
    if not doc:
        return []
    try:
        poses = checked_poses(reference_numpy_quat_to_matrix(quats), np.array(translations))
    except InvalidPose as exc:
        raise SceneParseError(f"observation {exc.index}: {exc}") from exc
    return [MarkerObservation(m, p) for m, p in zip(marker_ids, poses)]


def from_translation(t) -> Pose:
    """A pure translation, checked by the constructor."""
    return Pose(np.eye(3), np.asarray(t, dtype=float))


def from_rotation(r) -> Pose:
    """A pure rotation, checked by the constructor."""
    return Pose(r, np.zeros(3))


def pose_distance(
    t: Pose, t_ref: Pose, w_o: float = identify.W_O, w_t: float = identify.W_T
) -> float:
    """Weighted Frobenius norm of the difference of two homogeneous matrices."""
    mask = np.zeros((4, 4))
    mask[:3, :3] = w_o
    mask[:3, 3] = w_t
    return float(np.linalg.norm(mask * (t.matrix() - t_ref.matrix())))


def y_axis(p: Pose) -> np.ndarray:
    return p.rotation[:, 1].copy()


def z_axis(p: Pose) -> np.ndarray:
    return p.rotation[:, 2].copy()


def raw_connection_angle(p: Pose, c: Pose) -> float:
    """Signed angle between the z-axes of two mated frames, in (-180, 180].

    The magnitude is arccos(z_p . z_c); the sign is positive when the
    rotation axis z_p x z_c points along the parent-to-child direction.
    The dot products are numpy's; the package signs and clamps through
    `geometry.signed_angle`, as this does.
    """
    u = unit_between(p, c)
    zp = z_axis(p)
    zc = z_axis(c)
    # z_p x z_c in the IEEE operations of np.cross, without its overhead.
    (a0, a1, a2), (b0, b1, b2) = zp.tolist(), zc.tolist()
    triple = float(u.dot([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]))
    return signed_angle(float(zp @ zc), triple)


def circular_difference(a: float, b: float) -> float:
    """Absolute angular separation of a and b on the circle, in [0, 180]."""
    return abs(wrap_angle(a - b))


def reference_discretize_angle(raw: float) -> float:
    """`geometry.discretize_angle` as a search: the connection angle nearest on the
    circle, ties toward the smaller absolute value, then toward the positive sign."""
    raw = wrap_angle(raw)
    return min(
        CONNECTION_ANGLES,
        key=lambda c: (circular_difference(raw, c), abs(c), 0 if c > 0 else 1),
    )


def reference_raw_connection_angle(p: Pose, c: Pose) -> float:
    """Signed angle between the z-axes of two frames, its sign from np.cross."""
    u = unit_between(p, c)
    zp = z_axis(p)
    zc = z_axis(c)
    dot = float(np.clip(zp @ zc, -1.0, 1.0))
    ang = math.degrees(math.acos(dot))
    if float(np.cross(zp, zc) @ u) >= 0.0:
        return ang
    return -ang


def reference_effective_frame(module, direction: str, side: str) -> Pose:
    """Frame whose z-axis faces the mating, with the master's origin: the output
    bundle's when an upright collinear-joint parent or an inverted one child
    presents its output link and the bundle is seen, else the master frame."""
    mt = module.module_type
    needs_output = mt.is_collinear_joint and (
        (side == "parent" and direction == UPRIGHT)
        or (side == "child" and direction == INVERTED)
    )
    if needs_output and module.output_pose is not None:
        return Pose._trusted(module.output_pose.rotation, module.master_pose.translation)
    return module.master_pose


def reference_connection_angle_between(parent, parent_direction, child, child_direction) -> float:
    """`identify.connection_angle_between` on Pose frames and numpy's dot products."""
    raw = raw_connection_angle(
        reference_effective_frame(parent, parent_direction, "parent"),
        reference_effective_frame(child, child_direction, "child"),
    )
    if (parent_direction == INVERTED) != (child_direction == INVERTED):
        raw = wrap_angle(raw + 180.0)
    return discretize_angle(raw)


def reference_bundle_twist(module) -> tuple[float, float]:
    """`identify._bundle_twist` with numpy's trace and norm, on the joint turn: the
    bundle pose composed with the inverse of the catalog's output offset."""
    offset = invert(module.module_type.master_offset_output)
    r = compose(relative(module.master_pose, module.output_pose), offset).rotation
    roll = math.degrees(math.atan2(r[0, 2], r[0, 0]))
    residual = rot_y(-roll) @ r
    skew = residual - residual.T
    norm = np.linalg.norm([skew[2, 1], skew[0, 2], skew[1, 0]])
    return roll, math.degrees(math.atan2(norm, np.trace(residual) - 1.0))


def reference_pose_check(rotation, translation) -> np.ndarray:
    """The pose checks on one pose, in order; returns the checked rotation."""
    r = np.array(rotation, dtype=float).reshape(3, 3)
    t = np.array(translation, dtype=float).reshape(3)
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
    return r


def reference_axis_angle(axis, deg: float) -> np.ndarray:
    """Rodrigues' formula with the axis normalized by np.linalg.norm."""
    a = np.asarray(axis, dtype=float)
    x, y, z = a / np.linalg.norm(a)
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def _reference_random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-9:
            return v / n


def reference_synthesize(desc, joint_angles, db, base=None, cfg=SceneConfig()):
    """`synth.synthesize` with every marker built and checked by the Pose constructor."""
    placements = forward_poses(desc, joint_angles, db, base)
    by_serial = {r.serial: r for r in db.records}
    true_markers = []
    for pl in placements:
        rec = by_serial[pl.serial]
        true_markers.append((rec.master_marker_id, pl.master_pose))
        if pl.output_pose is not None:
            true_markers.append((rec.output_marker_id, pl.output_pose))
    rng = np.random.default_rng(cfg.seed)
    observations = []
    for marker_id, pose in true_markers:
        t_noise = rng.normal(0.0, cfg.sigma_pos, size=3) if cfg.sigma_pos > 0 else np.zeros(3)
        axis = _reference_random_unit(rng)
        angle = abs(rng.normal(0.0, cfg.sigma_rot)) if cfg.sigma_rot > 0 else 0.0
        if rng.random() < cfg.dropout_prob:
            continue
        noisy = Pose(reference_axis_angle(axis, angle) @ pose.rotation, pose.translation + t_noise)
        observations.append(MarkerObservation(marker_id, noisy))
    if cfg.spurious_count > 0:
        ids = SPURIOUS_ID_BASE + rng.choice(
            SPURIOUS_ID_SPAN, size=cfg.spurious_count, replace=False
        )
        points = np.array([p.translation for _, p in true_markers])
        center = points.mean(axis=0)
        half = np.maximum((points.max(axis=0) - points.min(axis=0)) / 2.0 * 1.2, 50.0)
        for marker_id in ids:
            t = center + rng.uniform(-1.0, 1.0, size=3) * half
            q = _reference_random_unit(rng)
            q = np.append(q * np.sin(rng.uniform(0, np.pi) / 2), np.cos(rng.uniform(0, np.pi) / 2))
            rotation = reference_numpy_quat_to_matrix(q)
            observations.append(MarkerObservation(int(marker_id), Pose(rotation, t)))
    return observations


def reference_spurious_markers(rng: np.random.Generator, points: np.ndarray, count: int):
    """`synth._spurious_markers` as it drew each marker on its own, its rotation
    through numpy: the quaternion joined by `np.append` and turned by
    one-quaternion `quat_to_matrix`."""
    ids = SPURIOUS_ID_BASE + rng.choice(SPURIOUS_ID_SPAN, size=count, replace=False)
    center = points.mean(axis=0)
    half = (points.max(axis=0) - points.min(axis=0)) / 2.0
    half = np.maximum(half * 1.2, 50.0)
    rotations, translations = [], []
    for _ in ids:
        translations.append(center + rng.uniform(-1.0, 1.0, size=3) * half)
        q = _random_unit(rng)
        q = np.append(q * np.sin(rng.uniform(0, np.pi) / 2), np.cos(rng.uniform(0, np.pi) / 2))
        rotations.append(quat_to_matrix(q))
    return [int(m) for m in ids], np.array(rotations), np.array(translations)


def reference_forward_poses(desc, joint_angles, db, base=None):
    """`synth.forward_poses` composing one Pose per catalog factor and joint state."""
    if base is None:
        base = Pose.identity()
    records = assign_instances(desc, db)
    thetas = iter(joint_angles)
    placements = []
    childward = None
    for entry, record in zip(desc.entries, records):
        mt = db.types[entry.type_code]
        direction = INVERTED if entry.inverted else UPRIGHT
        theta = float(next(thetas)) if mt.is_joint else 0.0
        if childward is None:
            master = base
        else:
            master = compose(
                compose(childward, reference_connection_transform(entry.connection_angle)),
                reference_parentward_to_master(mt, direction, theta),
            )
        output = None
        if mt.dual_bundle:
            output = compose(master, reference_master_to_childward(mt, UPRIGHT, theta))
        placements.append(ModulePlacement(record.serial, master, output))
        childward = compose(master, reference_master_to_childward(mt, direction, theta))
    return placements


def relative(n: Pose, c: Pose) -> Pose:
    """Transform from frame n to frame c (inverse(n) * c)."""
    return compose(invert(n), c)


# The pose metric's weights laid over a homogeneous matrix, for the numpy pair model.
METRIC_MASK = np.zeros((4, 4))
METRIC_MASK[:3, :3] = identify.W_O
METRIC_MASK[:3, 3] = identify.W_T
METRIC_MASK.setflags(write=False)
_ZERO_STATES = np.zeros(len(CONNECTION_ANGLES))
_ZERO_STATES.setflags(write=False)


def numpy_fit_joint(axis: int, h: np.ndarray, limits: tuple[float, float]) -> np.ndarray:
    """Joint states on the limits minimizing const - 2<R(t), H[k]>, one per H[k].

    For one free joint the squared pose metric has this form, the one-axis
    case of Wahba's problem, with H the weighted cross-covariance of the
    observed and modeled frames.  <R(t), H> = p cos t + q sin t + const
    peaks at atan2(q, p); when the limits exclude that, the sinusoid is
    monotone toward it from either end, so the better endpoint wins; when
    every solved state already lies within the limits, they are returned as
    they are.
    """
    a, b = TURN_PLANES[axis]
    p, q = h[:, a, a] + h[:, b, b], h[:, b, a] - h[:, a, b]
    lo, hi = limits
    # numpy's trig, whose last bits math's does not share; the rest in floats.
    # The max covers a shift that rounding leaves just short of lo (for a
    # denormal lo - t the quotient underflows to 0).  A zero shift leaves t and
    # a tie keeps lo, so that a zero keeps the sign numpy's arithmetic gives it.
    raw = np.degrees(np.arctan2(q, p)).tolist()
    theta = [max(lo, t + 360.0 * k if (k := math.ceil((lo - t) / 360.0)) else t) for t in raw]
    if max(theta) > hi:
        ends = np.radians(limits)
        (c_lo, c_hi), (s_lo, s_hi) = np.cos(ends).tolist(), np.sin(ends).tolist()
        theta = [
            t if t <= hi else (lo if pk * c_lo + qk * s_lo >= pk * c_hi + qk * s_hi else hi)
            for t, pk, qk in zip(theta, p.tolist(), q.tolist())
        ]
    return np.array(theta)


class NumpyPairModel:
    """The parent-to-child transform of one hypothesis at all four connection angles.

    Layer k is Rn(theta_n) B[k] Rc(-theta_c): B[k] is the parent factor times
    connector k times the child factor, and Rn, Rc turn the
    free joint states (`joint_turns`; an inverted child is entered behind
    its joint, so its state turns by -theta_c).
    The metric is invariant under a rigid motion of both frames, so the
    observation is always the child master seen from the parent master.
    The model of `identify._PairModel` in numpy, over (4, 4, 4) stacks: the
    reference its float kernel is checked against.
    """

    def __init__(self, parent, child, observed: np.ndarray):
        self.parent, self.child = parent, child
        self._base = parent.matrix @ CONNECTOR_STACK @ child.matrix
        self._observed = observed

    def _stack(self, theta_n: np.ndarray | None, theta_c: np.ndarray | None) -> np.ndarray:
        """The model layers, turned by each free side whose states are given."""
        m = self._base
        if theta_n is not None and self.parent.axis is not None:
            m = joint_turns(self.parent.axis, theta_n) @ m
        if theta_c is not None and self.child.axis is not None:
            m = m @ joint_turns(self.child.axis, -theta_c)
        return m

    def residual(self, theta_n: np.ndarray, theta_c: np.ndarray) -> np.ndarray:
        """Weighted pose metric at one joint state per connection angle (ignored if fixed)."""
        diff = METRIC_MASK * (self._stack(theta_n, theta_c) - self._observed)
        return np.sqrt((diff * diff).sum(axis=(1, 2)))

    def parent_cross(self, theta_c: np.ndarray, position_only: bool = False) -> np.ndarray:
        """H of the metric in theta_n: Rn has no translation, so the model is
        Rn X and H = W_O^2 O_r X_r^T + W_T^2 O_t X_t^T."""
        x, o = self._stack(None, theta_c), self._observed
        h = identify.W_T**2 * o[:3, 3, None] * x[:, None, :3, 3]
        if position_only:
            return h
        return h + identify.W_O**2 * (o[:3, :3] @ x[:, :3, :3].transpose(0, 2, 1))

    def child_cross(self, theta_n: np.ndarray) -> np.ndarray:
        """H of the metric in theta_c: Rc turns only the modeled rotation, Y_r Rc(-theta_c),
        so H = W_O^2 O_r^T Y_r."""
        y = self._stack(theta_n, None)
        return identify.W_O**2 * (self._observed[:3, :3].T @ y[:, :3, :3])

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Free joint states at each connection angle in closed form; 0 where fixed.

        When both are free, the child master position depends only on the
        parent state, so theta_n comes from a translation-only fit and
        theta_c from the full metric at that theta_n; each is then re-solved
        once with the other held fixed.  Every step spans the full limits.
        """
        p, c = self.parent, self.child
        theta_n = theta_c = _ZERO_STATES
        if p.axis is not None and c.axis is not None:
            theta_n = numpy_fit_joint(
                p.axis, self.parent_cross(theta_c, position_only=True), p.limits
            )
            theta_c = numpy_fit_joint(c.axis, self.child_cross(theta_n), c.limits)
        if p.axis is not None:
            theta_n = numpy_fit_joint(p.axis, self.parent_cross(theta_c), p.limits)
        if c.axis is not None:
            theta_c = numpy_fit_joint(c.axis, self.child_cross(theta_n), c.limits)
        return theta_n, theta_c


# The p and q of the one-axis fit written out term by term, as `identify` formed
# them before `_cross`: the bitwise reference for its float order.  Each takes the
# observation and the layers as 12 floats row by row.


def reference_parent_cross(observed, layers, axis: int, position_only=False) -> list[tuple]:
    """p and q in theta_n from rows a and b: W_T^2 of the translation, then W_O^2
    of the rotation rows unless `position_only`."""
    i, j = (4 * a for a in TURN_PLANES[axis])
    o, wo, wt = observed, identify.W_O**2, identify.W_T**2
    (oa0, oa1, oa2, oa3), (ob0, ob1, ob2, ob3) = o[i : i + 4], o[j : j + 4]
    pq = []
    for x in layers:
        (xa0, xa1, xa2, xa3), (xb0, xb1, xb2, xb3) = x[i : i + 4], x[j : j + 4]
        p = wt * (oa3 * xa3 + ob3 * xb3)
        q = wt * (ob3 * xa3 - oa3 * xb3)
        if not position_only:
            aa, bb = oa0 * xa0 + oa1 * xa1 + oa2 * xa2, ob0 * xb0 + ob1 * xb1 + ob2 * xb2
            ba, ab = ob0 * xa0 + ob1 * xa1 + ob2 * xa2, oa0 * xb0 + oa1 * xb1 + oa2 * xb2
            p, q = p + wo * (aa + bb), q + wo * (ba - ab)
        pq.append((p, q))
    return pq


def reference_child_cross(observed, layers, axis: int) -> list[tuple]:
    """p and q in theta_c from columns a and b, W_O^2 of the rotation."""
    a, b = TURN_PLANES[axis]
    o, wo = observed, identify.W_O**2
    (oa0, oa1, oa2), (ob0, ob1, ob2) = o[a:12:4], o[b:12:4]
    pq = []
    for y in layers:
        (ya0, ya1, ya2), (yb0, yb1, yb2) = y[a:12:4], y[b:12:4]
        aa, bb = oa0 * ya0 + oa1 * ya1 + oa2 * ya2, ob0 * yb0 + ob1 * yb1 + ob2 * yb2
        ba, ab = ob0 * ya0 + ob1 * ya1 + ob2 * ya2, oa0 * yb0 + oa1 * yb1 + oa2 * yb2
        pq.append((wo * (aa + bb), wo * (ba - ab)))
    return pq


def reference_floor_cross(observed, layers, axis: int, column: int) -> list[tuple]:
    """p and q in theta_n of the both-free floor: 2 W_O^2 of the column's entries in
    rows a and b, then W_T^2 of the translation's."""
    a, b = TURN_PLANES[axis]
    ia, ib, ta, tb = 4 * a + column, 4 * b + column, 4 * a + 3, 4 * b + 3
    wo, wt = 2.0 * identify.W_O**2, identify.W_T**2
    (oa, ob), (sa, sb) = (observed[ia], observed[ib]), (observed[ta], observed[tb])
    return [
        (
            wo * (oa * x[ia] + ob * x[ib]) + wt * (sa * x[ta] + sb * x[tb]),
            wo * (ob * x[ia] - oa * x[ib]) + wt * (sb * x[ta] - sa * x[tb]),
        )
        for x in layers
    ]


def reference_fit_joint(axis: int, h: np.ndarray, limits) -> np.ndarray:
    """`numpy_fit_joint` weighing the limit endpoints whether or not a state leaves them."""
    a, b = TURN_PLANES[axis]
    p, q = h[:, a, a] + h[:, b, b], h[:, b, a] - h[:, a, b]
    lo, hi = limits
    theta = np.degrees(np.arctan2(q, p))
    theta = np.maximum(theta + 360.0 * np.ceil((lo - theta) / 360.0), lo)
    ends = np.radians(limits)
    at_ends = np.outer(p, np.cos(ends)) + np.outer(q, np.sin(ends))
    return np.where(theta <= hi, theta, np.where(at_ends[:, 0] >= at_ends[:, 1], lo, hi))


class ReferencePairModel(NumpyPairModel):
    """The pair model turning both sides in every product, by an exact identity
    for the side a fit leaves out, and solving with `reference_fit_joint`."""

    def _stack(self, theta_n, theta_c):
        m = self._base
        if self.parent.axis is not None:
            m = joint_turns(self.parent.axis, theta_n) @ m
        if self.child.axis is not None:
            m = m @ joint_turns(self.child.axis, -theta_c)
        return m

    def parent_cross(self, theta_c, position_only=False):
        x, o = self._stack(np.zeros(len(theta_c)), theta_c), self._observed
        h = identify.W_T**2 * o[:3, 3, None] * x[:, None, :3, 3]
        if position_only:
            return h
        return h + identify.W_O**2 * (o[:3, :3] @ x[:, :3, :3].transpose(0, 2, 1))

    def child_cross(self, theta_n):
        y = self._stack(theta_n, np.zeros(len(theta_n)))
        return identify.W_O**2 * (self._observed[:3, :3].T @ y[:, :3, :3])

    def solve(self):
        p, c = self.parent, self.child
        theta_n = theta_c = np.zeros(len(CONNECTION_ANGLES))
        if p.axis is not None and c.axis is not None:
            theta_n = reference_fit_joint(
                p.axis, self.parent_cross(theta_c, position_only=True), p.limits
            )
            theta_c = reference_fit_joint(c.axis, self.child_cross(theta_n), c.limits)
        if p.axis is not None:
            theta_n = reference_fit_joint(p.axis, self.parent_cross(theta_c), p.limits)
        if c.axis is not None:
            theta_c = reference_fit_joint(c.axis, self.child_cross(theta_n), c.limits)
        return theta_n, theta_c


def _least_turned(vectors, targets, weights, axis: int, limits) -> np.ndarray:
    """Per layer, the least over theta within the limits of sum_j w_j |R(theta) v_j - o_j|^2,
    R = `joint_turns(axis, [theta])`, for vectors (L, 3, m), targets (3, m) and m
    weights.  That is const - 2<R, H> with H = sum_j w_j o_j v_j^T, a sinusoid
    whose least value lies at a limit or at its peak atan2(q, p) turned into them."""
    a, b = TURN_PLANES[axis]
    h = np.einsum("j,ij,lkj->lik", weights, targets, vectors)
    peak = np.degrees(np.arctan2(h[:, b, a] - h[:, a, b], h[:, a, a] + h[:, b, b]))
    lo, hi = limits
    least = []
    for v, t in zip(vectors, peak.tolist()):
        ends = [lo, hi] + [t + 360.0 * k for k in (-2, -1, 0, 1, 2) if lo <= t + 360.0 * k <= hi]
        turned = joint_turns(axis, ends)[:, :3, :3] @ v
        least.append(float(((turned - targets) ** 2 @ weights).sum(axis=1).min()))
    return np.array(least)


def reference_layer_floors(parent, child, observed: np.ndarray) -> np.ndarray | None:
    """The least over theta_n of the chord bound on each layer's squared residual,
    2 W_O^2 |M e - O e|^2 + W_T^2 |M_t - O_t|^2 for the column e of the child's
    axis (or, with only the parent's joint free, the row of the parent's axis),
    square-rooted: within the parent's limits when both joints are free, over the
    circle when only the parent's is.  None when neither joint is free."""
    base = parent.matrix @ CONNECTOR_STACK @ child.matrix
    wo, wt = 2.0 * identify.W_O**2, identify.W_T**2
    if child.axis is not None:
        c = child.axis
        vectors = np.stack([base[:, :3, c], base[:, :3, 3]], axis=-1)
        targets = np.stack([observed[:3, c], observed[:3, 3]], axis=-1)
        if parent.axis is None:
            return np.sqrt(((vectors - targets) ** 2 @ [wo, wt]).sum(axis=1))
        weights = np.array([wo, wt])
        return np.sqrt(_least_turned(vectors, targets, weights, parent.axis, parent.limits))
    if parent.axis is None:
        return None
    n = parent.axis
    rows = wo * ((base[:, n, :3] - observed[n, :3]) ** 2).sum(axis=1)
    translation = _least_turned(
        base[:, :3, 3:], observed[:3, 3:], np.array([wt]), n, (-180.0, 180.0)
    )
    return np.sqrt(rows + translation)


def reference_find_parent_optimization(child, pool, db, cfg, child_direction):
    """`identify.find_parent_optimization` building a ParentMatch per connection angle."""
    child_sides = []
    if child_direction in reference_directions(child.module_type, "child"):
        try:
            side = identify._child_side(child, child_direction, cfg.epsilon2)
            child_sides.append(side)
        except identify.NonCollinearBundles:
            pass
    scored = []
    for cand in identify.neighbors(child, pool, db, cfg):
        observed = relative(cand.master_pose, child.master_pose).matrix()
        for d_p in reference_directions(cand.module_type, "parent"):
            try:
                parent_side, measured = identify._parent_side(cand, d_p, cfg.epsilon2)
            except identify.NonCollinearBundles:
                continue
            for child_side in child_sides:
                model = ReferencePairModel(parent_side, child_side, observed)
                theta_n, theta_c = model.solve()
                f = model.residual(theta_n, theta_c)
                for k, angle in enumerate(CONNECTION_ANGLES):
                    t_n, t_c = float(theta_n[k]), float(theta_c[k])
                    theta = measured if parent_side.axis is None else t_n
                    match = identify.ParentMatch(
                        cand, angle, d_p, theta=theta, f_value=float(f[k])
                    )
                    roll = abs(wrap_angle(t_n)) + abs(wrap_angle(t_c))
                    scored.append((match, cand.record.master_marker_id, roll))
    if not scored:
        return None
    f_best = min(match.f_value for match, _, _ in scored)
    tied = (s for s in scored if s[0].f_value <= f_best + identify.RESIDUAL_TIE)
    match = min(tied, key=lambda s: s[1:])[0]
    return match if match.f_value <= cfg.f_threshold else None


def reference_write_model_xml(model, path):
    """The model's XML built as an ElementTree, indented and written by it."""
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


def reference_generate_model(chain, db, name="robot", metadata=None):
    """`modelgen.generate_model` placing every module by world frames walked from the root.

    Each module's zero-configuration master frame is composed from its
    parent's connector frame, and every joint origin is the relative
    transform between two such world frames.
    """
    branches = chain if isinstance(chain, list) else [chain]
    if not branches or not all(b.links for b in branches):
        raise InconsistentChain("model generation needs at least one non-empty chain")
    links, joints, names = [], [], set()
    # serial -> (link a child attaches to, its world frame, childward connector frame)
    visited = {}
    for branch in branches:
        prev = None
        for link in branch.links:
            serial = link.module.serial
            if serial in visited:
                prev = visited[serial]
                continue
            modelgen._check_angle(link)
            prev = visited[serial] = _reference_emit_module(link, prev, links, joints, names)
    meta = {
        "description": [serialize(identify.to_descriptor(b)) for b in branches],
        "bus_ids": {l.module.serial: l.module.record.bus_id for b in branches for l in b.links},
        "joint_angles_deg": {
            l.module.serial: l.joint_angle
            for b in branches
            for l in b.links
            if l.module.module_type.is_joint
        },
    }
    meta.update(metadata or {})
    return RobotModel(name=name, links=links, joints=joints, metadata=meta)


def _reference_emit_module(link, prev, links, joints, names):
    mt = link.module.module_type
    serial = link.module.serial
    direction = link.direction
    theta = link.joint_angle or 0.0
    is_root = prev is None
    if is_root:
        master0 = Pose.identity()
    else:
        conn_frame = compose(prev[2], reference_connection_transform(link.connection_angle))
        master0 = compose(conn_frame, reference_parentward_to_master(mt, direction))
    connector0 = compose(master0, reference_master_to_childward(mt, direction))

    def add(name, length):
        modelgen._add_link(links, names, ModelLink(name, length))

    def revolute(name, parent, child, origin, axis):
        joints.append(
            ModelJoint(name, JOINT_REVOLUTE, parent, child, origin, axis, mt.joint_limits, theta)
        )

    def attach(child_name, child_frame):
        if not is_root:
            origin = relative(prev[1], child_frame)
            joints.append(
                ModelJoint(f"j_{serial}", JOINT_FIXED, prev[0], child_name, origin, (0.0, 0.0, 1.0))
            )

    if mt.dual_bundle:
        in_name, out_name = f"{serial}_in", f"{serial}_out"
        out0 = compose(master0, mt.master_offset_output)
        add(in_name, mt.body_length / 2.0)
        add(out_name, mt.body_length / 2.0)
        if direction == UPRIGHT:
            attach(in_name, master0)
            drive = relative(master0, out0)
            revolute(f"j_{serial}_drive", in_name, out_name, drive, (0.0, 1.0, 0.0))
            return out_name, out0, connector0
        attach(out_name, out0)
        drive = relative(out0, master0)
        revolute(f"j_{serial}_drive", out_name, in_name, drive, (0.0, -1.0, 0.0))
        return in_name, master0, connector0
    add(serial, mt.body_length)
    if mt.is_perpendicular_joint and not is_root:
        axis = (0.0, 0.0, 1.0) if direction == UPRIGHT else (0.0, 0.0, -1.0)
        revolute(f"j_{serial}", prev[0], serial, relative(prev[1], master0), axis)
        return serial, master0, connector0
    if mt.is_perpendicular_joint and direction == UPRIGHT:
        swing = f"{serial}_swing"
        add(swing, 0.0)
        revolute(f"j_{serial}", serial, swing, Pose.identity(), (0.0, 0.0, 1.0))
        return swing, master0, connector0
    attach(serial, master0)
    return serial, master0, connector0


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
                spin = from_rotation(axis_angle(joint.axis, joint.angle or 0.0))
                local = compose(local, spin)
            frames[joint.child] = compose(frames[joint.parent], local)
            pending.remove(joint)
            progressed = True
        if not progressed:
            raise InconsistentChain("joint graph is not a tree rooted at one base link")
    return frames


def record_writes(monkeypatch) -> list[bytes]:
    """Route `os.write`, which every file writer ends in, through a recorder.

    Returns the list of every byte string written while the test runs.
    """
    writes: list[bytes] = []
    real_write = os.write

    def recorder(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", recorder)
    return writes


def save_renamed_database(db: ModuleDatabase, path, old: str, new: str):
    """Save db to path with type code `old` renamed to `new` in its types and modules."""
    save_database(db, path)
    doc = json.loads(path.read_text())
    for entry in doc["types"]:
        if entry["code"] == old:
            entry["code"] = new
    for entry in doc["modules"]:
        if entry["type_code"] == old:
            entry["type_code"] = new
    path.write_text(json.dumps(doc))
