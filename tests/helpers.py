"""Shared scene builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from chainforge.descriptor import ChainDescriptor, ChainEntry, serialize
from chainforge.geometry import Pose, axis_angle, compose
from chainforge.module_db import INVERTED, UPRIGHT, ModuleDatabase, connection_transform
from chainforge.synth import MarkerObservation, SceneConfig, forward_poses, synthesize

MID_CODES = ["I", "i", "T", "t", "L", "l", "A"]
TOOL_CODES = ["G", "g", "W", "S"]

# The four chains shown working on hardware, with joint setups per scene.
PAPER_CHAINS = [
    ("I-T'0-T'0-A0-t0-i0-g0", [15.0, -40.0, 55.0, 20.0, -40.0], None),
    ("I-T'0-T'0-A0-t0-i0-g0", [-25.0, 30.0, -75.0, 45.0, 10.0], None),
    ("I-T'0-T0-A0-i0-t0-g0", [10.0, -30.0, 45.0, 25.0, -60.0], None),
    # Bi-directional climbing robot: either gripper may act as the chain
    # end; assigning the end gripper the lower marker id selects the
    # canonical base-to-end reading.
    (
        "G'-I0-T'0-L0-T'90-T180-I'0-G0",
        [30.0, -45.0, 60.0, -30.0, 90.0],
        ["G-002", "I-001", "T-001", "L-001", "T-002", "T-003", "I-002", "G-001"],
    ),
]


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


def make_corpus(db: ModuleDatabase, count: int, seed: int):
    """Seeded list of (descriptor, canonical string, thetas, base pose)."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        desc, thetas, base = random_chain_case(rng, db)
        cases.append((desc, serialize(desc), thetas, base))
    return cases


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
                compose(conn, connection_transform(angle)),
                mt.parentward_to_master(UPRIGHT, 0.0),
            )
            observations.append(MarkerObservation(rec.master_marker_id, master))
            if mt.dual_bundle:
                observations.append(
                    MarkerObservation(
                        rec.output_marker_id, compose(master, mt.master_offset_output)
                    )
                )
            conn = compose(master, mt.master_to_childward(UPRIGHT, 0.0))
        return serials

    out_connector = compose(p_master, p_type.master_to_childward(UPRIGHT, 0.0))
    arm1_serials = grow(out_connector, arm1)
    # Second connector face: the output offset swung -90 degrees about the
    # joint axis, i.e. a rigid right-angle port on the joint body.
    from chainforge.geometry import rot_z

    side_connector = compose(
        compose(p_master, Pose.from_rotation(rot_z(-90.0))),
        p_type.master_to_childward(UPRIGHT, 0.0),
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
