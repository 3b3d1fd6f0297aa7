"""Kinematic-chain identification from marker observations.

Given marker poses and the module database, this module finds parent-child
relations between detected modules, the discrete connection angle and
install direction of every link, and the joint angles, then assembles the
chain (or tree) from the end-effectors toward the base.

Two interchangeable parent-search back ends are provided: a geometric one
built on distance/collinearity/sign constraints between module frames,
and an optimization one that fits the modeled inter-module transform to
the observed one under a weighted pose metric.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .descriptor import ANGLES, ChainDescriptor, ChainEntry
from .geometry import (
    CONNECTION_ANGLES,
    TURN_PLANES,
    DegenerateGeometry,
    Pose,
    cos_sin,
    discretize_angle,
    is_number,
    joint_turns,
    relative_matrix,
    signed_angle,
    unit_between,
    wrap_angle,
)
from .module_db import (
    INVERTED,
    UPRIGHT,
    ModuleDatabase,
    ModuleRecord,
    ModuleType,
    SearchSide,
)
from .synth import MarkerObservation

REASON_UNKNOWN_MARKER = "UnknownMarker"
REASON_DUPLICATE = "Duplicate"
REASON_ORPHAN = "Orphan"
REASON_MISSING_MASTER = "MissingMaster"

METHOD_GEOMETRIC = "geometric"
METHOD_OPTIMIZATION = "optimization"

LIMIT_SLACK = 2.0
# Pose-metric residuals this close to the best one tie in the optimization back end.
RESIDUAL_TIE = 1e-9
# The pose metric scales orientation error (dimensionless) by W_O and translation
# error (mm) by W_T.
W_O = 1.0
W_T = 0.01


class IdentifyError(Exception):
    """Base class for identification failures."""


class NoToolModule(IdentifyError):
    """No detected module is a tool; there is no chain end to start from."""


class AmbiguousParent(IdentifyError):
    """Multiple candidates satisfy the parent constraints for one child."""

    def __init__(self, child_serial: str, candidate_serials: list[str]):
        self.child_serial = child_serial
        self.candidate_serials = list(candidate_serials)
        super().__init__(
            f"child {child_serial}: multiple parent candidates pass the "
            f"constraints: {', '.join(self.candidate_serials)}"
        )


class NonCollinearBundles(IdentifyError):
    """The two bundles of a collinear-joint module disagree on the joint axis."""


class LimitExceeded(IdentifyError):
    """An estimated joint angle lies far outside the type's limits."""


@dataclass(frozen=True)
class IdentifyConfig:
    """Tolerances and method selection for identification."""

    epsilon1: float = 20.0
    epsilon2: float = 0.05
    f_threshold: float = 0.5
    method: str = METHOD_GEOMETRIC

    def __post_init__(self):
        for name in ("epsilon1", "epsilon2", "f_threshold"):
            value = getattr(self, name)
            if not is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        # Each range check is written so that NaN fails it.
        if not self.epsilon1 > 0.0:
            raise ValueError("epsilon1 must be positive")
        if not 0.0 < self.epsilon2 < 1.0:
            raise ValueError("epsilon2 must lie in (0, 1)")
        if not self.f_threshold >= 0.0:
            raise ValueError("f_threshold must be non-negative")
        if self.method not in (METHOD_GEOMETRIC, METHOD_OPTIMIZATION):
            raise ValueError(f"unknown method {self.method!r}")

    def check_against(self, db: ModuleDatabase):
        limit = 0.5 * db.max_connected_distance()
        if self.epsilon1 >= limit:
            raise ValueError(
                f"epsilon1 ({self.epsilon1} mm) must be well below the maximum "
                f"connected distance (< {limit} mm)"
            )


@dataclass(frozen=True, slots=True)
class DetectedModule:
    """A registered module recognized in the scene, with its observed poses.

    Construction takes what the pair tests read.  `floats` holds the master
    origin at 0, its x-, y- and z-axes at 3, 6 and 9, and, when the output
    bundle is seen, the bundle's z-axis at 12, all as floats.  For a seen
    output bundle, `bundle` is the master-to-output transform as a read-only
    4x4 and `twist` its roll and tilt (see `_bundle_twist`).  `serial` is the
    record's.
    """

    record: ModuleRecord
    module_type: ModuleType
    master_pose: Pose
    output_pose: Pose | None = None
    serial: str = field(init=False, repr=False, compare=False)
    floats: array = field(init=False, repr=False, compare=False)
    bundle: np.ndarray | None = field(init=False, repr=False, compare=False)
    twist: tuple[float, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "serial", self.record.serial)
        master = self.master_pose
        floats = array("d", master.translation.tobytes() + master.rotation.T.tobytes())
        bundle = None
        if self.output_pose is not None:
            floats.frombytes(self.output_pose.rotation[:, 2].tobytes())
            bundle = relative_matrix(master, self.output_pose)
        object.__setattr__(self, "floats", floats)
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "twist", None if bundle is None else _bundle_twist(self))


@dataclass(frozen=True, slots=True)
class ChainLink:
    """One chain position: module, connection angle, install direction, state, each
    checked against the module's type (a fault raises ValueError naming the serial)."""

    module: DetectedModule
    connection_angle: float | None
    direction: str
    joint_angle: float | None = None
    solver_theta: float | None = None

    def __post_init__(self):
        mt, angle, theta = self.module.module_type, self.connection_angle, self.joint_angle
        if self.direction not in mt.directions:
            fault = f"type {mt.code!r} cannot be installed {self.direction!r:.40}"
        elif angle is not None and angle not in CONNECTION_ANGLES:
            fault = f"connection angle must be one of {ANGLES}, got {angle!r:.40}"
        elif theta is not None and not mt.is_joint:
            fault = f"type {mt.code!r} has no joint"
        elif theta is not None and not mt.joint_limits[0] <= theta <= mt.joint_limits[1]:
            fault = "joint angle {} outside [{}, {}]".format(theta, *mt.joint_limits)
        else:
            return
        raise ValueError(f"{self.module.serial}: {fault}")


@dataclass(frozen=True)
class IdentifiedChain:
    """Links ordered base to end, as a tuple, plus everything that was rejected.
    Only the base link has no connection angle (ValueError otherwise)."""

    links: tuple[ChainLink, ...]
    rejected_markers: list[tuple[int, str]]
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise ValueError("a chain needs at least one link")
        for i, link in enumerate(self.links):
            if (link.connection_angle is None) != (i == 0):
                raise ValueError(f"{link.module.serial}: only the base has no connection angle")


@dataclass(frozen=True)
class ConstraintResult:
    satisfied: bool
    parent_direction: str | None = None
    reason: str = ""


# A pass holds nothing but its parent direction, so there are two.
_PASSES = {d: ConstraintResult(True, d) for d in (UPRIGHT, INVERTED)}


@dataclass(frozen=True)
class ParentMatch:
    module: DetectedModule
    connection_angle: float
    parent_direction: str
    theta: float | None = None
    f_value: float | None = None


def validate_markers(
    observations: list[MarkerObservation], db: ModuleDatabase
) -> tuple[list[DetectedModule], list[tuple[int, str]]]:
    """Split observations into recognized modules and rejected markers.

    Output-bundle markers merge into their module's entry, in the order
    the master markers were seen; unknown ids and repeat sightings are
    rejected, keeping the first observation of each id.
    """
    rejected: list[tuple[int, str]] = []
    seen_ids: set[int] = set()
    masters: dict[str, tuple[ModuleRecord, Pose]] = {}
    outputs: dict[str, tuple[ModuleRecord, Pose]] = {}
    for obs in observations:
        if obs.marker_id in seen_ids:
            rejected.append((obs.marker_id, REASON_DUPLICATE))
            continue
        seen_ids.add(obs.marker_id)
        hit = db.lookup_marker(obs.marker_id)
        if hit is None:
            rejected.append((obs.marker_id, REASON_UNKNOWN_MARKER))
            continue
        (outputs if hit.is_output else masters)[hit.record.serial] = (hit.record, obs.pose)
    modules = [
        DetectedModule(rec, db.type_of(rec), pose, outputs.pop(serial, (None, None))[1])
        for serial, (rec, pose) in masters.items()
    ]
    rejected += [(rec.output_marker_id, REASON_MISSING_MASTER) for rec, _ in outputs.values()]
    return modules, rejected


def neighbors(
    child: DetectedModule,
    pool: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
) -> list[DetectedModule]:
    """Pool members close enough to be directly connected to the child."""
    bound = db.max_connected_distance() + cfg.epsilon1
    x, y, z = child.floats[:3]
    return [
        m
        for m in pool
        if m is not child
        and math.hypot(m.floats[0] - x, m.floats[1] - y, m.floats[2] - z) <= bound
    ]


def _dot(floats: array, k: int, u: list[float]) -> float:
    """Dot product of u with the 3-vector that starts at floats[k]."""
    return floats[k] * u[0] + floats[k + 1] * u[1] + floats[k + 2] * u[2]


def constraint_check(
    parent_cand: DetectedModule,
    child: DetectedModule,
    db: ModuleDatabase,
    cfg: IdentifyConfig,
    child_direction: str,
) -> ConstraintResult:
    """Decide whether a neighbor can be the child's parent.

    Evaluates the pairwise geometric constraints: the connected-pair
    distance bound, collinearity of module y-axes with the center-to-center
    direction, and the sign tests that imply the parent's install direction
    and must agree with the child's.  Upright perpendicular-joint parents
    are exempt from the parent-side collinearity test (their output link
    swings the child off-axis), and inverted perpendicular-joint children
    are exempt from the child-side test for the mirror-image reason.  A
    candidate at the child's own origin defines no direction and is
    rejected.  Every quantity here meets only a threshold or a sign test,
    so it is taken in float arithmetic.
    """
    p, c = parent_cand.floats, child.floats
    d = (c[0] - p[0], c[1] - p[1], c[2] - p[2])
    dist = math.hypot(*d)
    if dist <= 1e-6:
        return ConstraintResult(False, reason="coincident origins")
    pt = parent_cand.module_type
    ct = child.module_type
    pair_bound = db.pair_connected_distance(pt.code, ct.code)
    if dist > pair_bound + cfg.epsilon1:
        return ConstraintResult(False, reason="distance")

    u = [v / dist for v in d]
    yp_dot = _dot(p, 6, u)
    yc_dot = _dot(c, 6, u)
    collinear = 1.0 - cfg.epsilon2
    # Same angular tolerance viewed from the joint axis: a swung link stays
    # exactly in the plane normal to its joint's z-axis.
    in_plane = math.sqrt(max(2.0 * cfg.epsilon2 - cfg.epsilon2**2, 0.0))

    if pt.is_perpendicular_joint and not (abs(yp_dot) >= collinear and yp_dot < 0.0):
        # Upright perpendicular joint: the child hangs off the swung output
        # link; it must lie in the swing plane, but no y-collinearity holds.
        parent_direction = UPRIGHT
        if abs(_dot(p, 9, u)) > in_plane:
            return ConstraintResult(False, reason="child off the parent swing plane")
    else:
        if abs(yp_dot) < collinear:
            return ConstraintResult(False, reason="parent collinearity")
        parent_direction = UPRIGHT if yp_dot >= 0.0 else INVERTED
    if parent_direction not in pt.parent_directions:
        return ConstraintResult(False, reason="parent cannot be installed this way")
    if child_direction not in ct.child_directions:
        return ConstraintResult(False, reason="child cannot be installed this way")

    if ct.is_perpendicular_joint and child_direction == INVERTED:
        # The master link of an inverted perpendicular joint swings about its
        # own z-axis, so the parent ray must lie in that swing plane.
        if abs(_dot(c, 9, u)) > in_plane:
            return ConstraintResult(False, reason="parent off the child swing plane")
    elif abs(yc_dot) < collinear:
        return ConstraintResult(False, reason="child collinearity")
    elif (UPRIGHT if yc_dot >= 0.0 else INVERTED) != child_direction:
        return ConstraintResult(False, reason="child direction mismatch")
    return _PASSES[parent_direction]


def _mating_z(module: DetectedModule, presents_output: bool) -> int:
    """Where in `floats` the z-axis facing the mating starts.

    Upright collinear-joint parents present their output link to the child,
    and inverted collinear-joint children present theirs to the parent; in
    both cases the output bundle, when seen, carries the joint roll that
    the master frame does not see.
    """
    if presents_output and module.module_type.is_collinear_joint and len(module.floats) > 12:
        return 12
    return 9


def connection_angle_between(
    parent: DetectedModule,
    parent_direction: str,
    child: DetectedModule,
    child_direction: str,
) -> float:
    """Discrete connection angle of a resolved parent-child pair.

    The raw angle between the mating-side z-axes, taken from `floats` and
    signed by their triple product with the parent-to-child vector, picks up
    a 180-degree offset from the connector flip whenever exactly one side of
    the pair is installed inverted.  Only the snapped angle leaves, so the
    sign is read off the unnormalized parent-to-child vector.
    """
    p, c = parent.floats, child.floats
    i = _mating_z(parent, parent_direction == UPRIGHT)
    j = _mating_z(child, child_direction == INVERTED)
    (a0, a1, a2), (b0, b1, b2) = p[i : i + 3], c[j : j + 3]
    d0, d1, d2 = c[0] - p[0], c[1] - p[1], c[2] - p[2]
    triple = d0 * (a1 * b2 - a2 * b1) + d1 * (a2 * b0 - a0 * b2) + d2 * (a0 * b1 - a1 * b0)
    raw = signed_angle(a0 * b0 + a1 * b1 + a2 * b2, triple)
    if (parent_direction == INVERTED) != (child_direction == INVERTED):
        raw = wrap_angle(raw + 180.0)
    return discretize_angle(raw)


def find_parent_geometric(
    child: DetectedModule,
    pool: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
    child_direction: str,
) -> ParentMatch | None:
    """Select the unique neighbor passing the geometric constraints.

    Returns None when no candidate passes.  When several pass (tightly
    folded chains can park a distant module where a parent could sit), the
    weighted pose metric adjudicates: only candidates whose best-fit
    residual stays within the threshold survive.  Two or more survivors
    raise AmbiguousParent (overlapping scene or too-loose tolerances).
    """
    passing: list[tuple[DetectedModule, ConstraintResult]] = []
    for cand in neighbors(child, pool, db, cfg):
        result = constraint_check(cand, child, db, cfg, child_direction)
        if result.satisfied:
            passing.append((cand, result))
    if len(passing) > 1:
        passing = [
            (cand, result)
            for cand, result in passing
            if find_parent_optimization(child, [cand], db, cfg, child_direction) is not None
        ]
    if not passing:
        return None
    if len(passing) > 1:
        raise AmbiguousParent(child.serial, [c.serial for c, _ in passing])
    cand, result = passing[0]
    angle = connection_angle_between(cand, result.parent_direction, child, child_direction)
    return ParentMatch(cand, angle, result.parent_direction)


def _bundle_twist(module: DetectedModule) -> tuple[float, float]:
    """Roll about the link axis of the joint turn in the master-to-output
    rotation, and the tilt left after removing that roll, in degrees; measured
    once per module.  The bundle is the turn followed by the catalog's output
    offset, so the turn is the bundle times that offset's inverse."""
    turn = module.bundle.dot(module.module_type.matrices["in", INVERTED])
    r00, r01, r02, _, a10, d1, a12, _, r20, r21, r22, _ = turn[:3].ravel().tolist()
    roll = math.degrees(math.atan2(r02, r00))
    # The residual rot_y(-roll) @ r mixes rows 0 and 2 of r.  Its tilt is its
    # rotation angle: atan2 of its skew part against trace - 1 stays exact
    # near zero, where acos of the trace loses half the digits.
    c, s = cos_sin(-roll)
    d0, a01, a02 = c * r00 + s * r20, c * r01 + s * r21, c * r02 + s * r22
    a20, a21, d2 = -s * r00 + c * r20, -s * r01 + c * r21, -s * r02 + c * r22
    skew = math.hypot(a21 - a12, a02 - a20, a10 - a01)
    return roll, math.degrees(math.atan2(skew, d0 + d1 + d2 - 1.0))


def _measure_collinear_theta(module: DetectedModule, epsilon2: float) -> float:
    """Joint angle of a dual-bundle module from its two bundle poses.

    The relative bundle rotation must be a twist about the shared link
    axis; whatever rotation remains after removing the measured twist (the
    tilt the module measured when it was built) is the misalignment,
    bounded by the angular budget of epsilon2.
    """
    if module.twist is None:
        raise NonCollinearBundles("output bundle was not observed")
    theta, tilt = module.twist
    if tilt > math.degrees(math.acos(1.0 - epsilon2)):
        raise NonCollinearBundles(f"bundle axes misaligned by {tilt:.1f} degrees")
    return theta


def estimate_joint_angle(
    module: DetectedModule,
    direction: str,
    parent: DetectedModule | None,
    child: DetectedModule | None,
    cfg: IdentifyConfig,
) -> tuple[float, str | None]:
    """Estimate a joint module's angle from the observed scene.

    Collinear joints read the roll between their two bundles.
    Perpendicular joints measure the signed angle, about their master
    z-axis, of the direction toward the neighbor on their output side:
    the chain child when upright, the chain parent when inverted.
    Returns the angle and None, or the angle and why it is soft: an angle
    with no neighbor on the output side is unobservable, reported as 0 or
    the limit nearest it, and an estimate just outside the limits is clamped
    to them.  Neither that reason nor an error raised here names the module.
    """
    mt = module.module_type
    if not mt.is_joint:
        raise ValueError(f"{module.serial}: type {mt.code!r} has no joint")
    lo, hi = mt.joint_limits
    if mt.is_collinear_joint:
        theta = _measure_collinear_theta(module, cfg.epsilon2)
    else:
        reference = child if direction == UPRIGHT else parent
        if reference is None:
            theta = min(max(0.0, lo), hi)
            return theta, (
                f"no neighbor on the output side; joint angle is unobservable, reporting {theta:g}")
        u = unit_between(module.master_pose, reference.master_pose)
        local = module.master_pose.rotation.T @ u
        theta = math.degrees(math.atan2(-local[0], local[1]))
    if theta < lo - LIMIT_SLACK or theta > hi + LIMIT_SLACK:
        raise LimitExceeded(f"estimated angle {theta:.2f} far outside [{lo}, {hi}]")
    if theta < lo or theta > hi:
        clamped = min(max(theta, lo), hi)
        return clamped, f"estimated angle {theta:.2f} clamped to {clamped:.2f}"
    return theta, None


def _fit_joint(p: float, q: float, limits: tuple[float, float]) -> float:
    """The joint state on the limits maximizing p cos t + q sin t.

    For one free joint the squared pose metric is const - 2<R(t), H>, the
    one-axis case of Wahba's problem, with H the weighted cross-covariance of
    the observed and modeled frames, and <R(t), H> = p cos t + q sin t + const
    for the p and q of H in the joint's turn plane.  That peaks at
    atan2(q, p); when the limits exclude it, the sinusoid is monotone toward
    it from either end, so the better endpoint wins.
    """
    lo, hi = limits
    t = math.degrees(math.atan2(q, p))
    # The max covers a shift that rounding leaves just short of lo (for a
    # denormal lo - t the quotient underflows to 0).  A zero shift leaves t
    # and a tie keeps lo, so that a zero keeps its sign.
    t = max(lo, t + 360.0 * k if (k := math.ceil((lo - t) / 360.0)) else t)
    if t > hi:
        (c_lo, s_lo), (c_hi, s_hi) = cos_sin(lo), cos_sin(hi)
        t = lo if p * c_lo + q * s_lo >= p * c_hi + q * s_hi else hi
    return t


def _parent_side(
    module: DetectedModule, direction: str, eps2: float
) -> tuple[SearchSide, float | None]:
    """Parent side and the joint roll measured from the bundle pair, if any.

    Only an upright joint's state enters the parent factor.  When an upright
    collinear joint's output bundle is seen, the factor is the observed
    master-to-output transform, so the roll drops out of the model.
    """
    mt = module.module_type
    if mt.is_collinear_joint and direction == UPRIGHT and module.bundle is not None:
        return SearchSide.of(module.bundle), _measure_collinear_theta(module, eps2)
    return mt.sides["out", direction], None


def _child_side(module: DetectedModule, direction: str, eps2: float) -> SearchSide:
    """Child side.  Only an inverted joint's state enters it: measured from
    its bundle pair when both are seen, else free as the type's side has it."""
    mt = module.module_type
    if mt.is_collinear_joint and direction == INVERTED and module.bundle is not None:
        turn = joint_turns(mt.joint_axis, [-_measure_collinear_theta(module, eps2)])[0]
        return SearchSide.of(mt.matrices["in", direction].dot(turn))
    return mt.sides["in", direction]


# The (a, b) entry pairs of a 3x4 as 12 floats row by row that a turn about each axis
# mixes (`TURN_PLANES`): Rn(theta) m mixes rows a and b, m Rc(-theta) columns a and b.
_ROW_PAIRS = {n: [(4 * a + k, 4 * b + k) for k in range(4)] for n, (a, b) in TURN_PLANES.items()}
_COLUMN_PAIRS = {n: [(k + a, k + b) for k in (0, 4, 8)] for n, (a, b) in TURN_PLANES.items()}


def _turn(x, pairs, theta: float) -> list[float]:
    """The vector x turned by the joint state theta in the plane of each (i, j) of
    `pairs`: x_i, x_j -> c x_i - s x_j, s x_i + c x_j with (c, s) = `cos_sin`."""
    c, s = cos_sin(theta)
    x = list(x)
    for i, j in pairs:
        x[i], x[j] = c * x[i] - s * x[j], s * x[i] + c * x[j]
    return x


def _cross(o, x, terms) -> tuple[float, float]:
    """p and q of the weighted cross-covariance H of the observation o and the layer x
    in a joint's turn plane, <R(t), H> = p cos t + q sin t + const: summed over each
    (w, pairs) of `terms`, p = w (o_i x_i + o_j x_j), q = w (o_j x_i - o_i x_j) over
    the (i, j) of `pairs`.  Each sum starts from its first product and the terms add
    in order, so the rounding (and a zero's sign, which atan2 reads) is fixed."""
    p = q = None
    for w, pairs in terms:
        ii = None
        for i, j in pairs:
            oi, oj, xi, xj = o[i], o[j], x[i], x[j]
            if ii is None:
                ii, jj, ji, ij = oi * xi, oj * xj, oj * xi, oi * xj
            else:
                ii, jj, ji, ij = ii + oi * xi, jj + oj * xj, ji + oj * xi, ij + oi * xj
        dp, dq = w * (ii + jj), w * (ji - ij)
        p, q = (dp, dq) if p is None else (p + dp, q + dq)
    return p, q


# The terms of H in a free state: a parent turn Rn X (no translation of its own) moves
# the translation and rotation rows, a child turn Y_r Rc(-theta_c) the rotation columns.
_PARENT_TERMS = {n: ((W_T**2, rows[3:]), (W_O**2, rows[:3])) for n, rows in _ROW_PAIRS.items()}
_CHILD_TERMS = {n: ((W_O**2, columns),) for n, columns in _COLUMN_PAIRS.items()}
_ROTATION = itemgetter(0, 1, 2, 4, 5, 6, 8, 9, 10)  # of a 3x4 as 12 floats, row by row


class _PairModel:
    """The parent-to-child transform of one hypothesis at one connection angle.

    It is Rn(theta_n) B Rc(-theta_c): the layer B is the parent factor times
    the connector times the child factor (`ModuleDatabase.pair_layers`), and
    Rn, Rc turn the free joint states (`joint_turns`; an inverted child is
    entered behind its joint, so its state turns by -theta_c).  A side with no
    free joint turns nothing, so a hypothesis with none is its zero-turn case.
    The layer and the observation are the top three rows of the 4x4, as 12
    floats row by row.  The metric is invariant under a rigid motion of both
    frames, so the observation is always the child master seen from the
    parent master.
    """

    def __init__(self, parent: SearchSide, child: SearchSide, layer, observed: list[float]):
        self.parent, self.child = parent, child
        self._layer = layer
        self._observed = observed

    def _turned(self, theta_n: float | None, theta_c: float | None):
        """The layer, turned by each free side whose state is given."""
        m = self._layer
        if theta_n is not None and self.parent.axis is not None:
            m = _turn(m, _ROW_PAIRS[self.parent.axis], theta_n)
        if theta_c is not None and self.child.axis is not None:
            m = _turn(m, _COLUMN_PAIRS[self.child.axis], theta_c)
        return m

    def residual(self, theta_n: float, theta_c: float) -> float:
        """Weighted pose metric at the joint states (each ignored if fixed), from the
        entries of the turned layer."""
        m, o = self._turned(theta_n, theta_c), self._observed
        return math.hypot(
            W_O * math.dist(_ROTATION(m), _ROTATION(o)),
            W_T * math.dist(m[3::4], o[3::4]),
        )

    def solve(self) -> tuple[float, float]:
        """Free joint states in closed form; 0 where fixed.

        When both are free, the child master position depends only on the
        parent state, so theta_n comes from a translation-only fit and
        theta_c from the full metric at that theta_n; each is then re-solved
        once with the other held fixed.  Every step spans the full limits.
        """
        p, c, o = self.parent, self.child, self._observed
        terms_n, terms_c = _PARENT_TERMS.get(p.axis), _CHILD_TERMS.get(c.axis)
        theta_n = theta_c = 0.0
        if p.axis is not None and c.axis is not None:
            theta_n = _fit_joint(*_cross(o, self._layer, terms_n[:1]), p.limits)
            theta_c = _fit_joint(*_cross(o, self._turned(theta_n, None), terms_c), c.limits)
        if p.axis is not None:
            theta_n = _fit_joint(*_cross(o, self._turned(None, theta_c), terms_n), p.limits)
        if c.axis is not None:
            theta_c = _fit_joint(*_cross(o, self._turned(theta_n, None), terms_c), c.limits)
        return theta_n, theta_c


def _observed_rows(cand: DetectedModule, child: DetectedModule) -> list[float]:
    """The child master seen from the candidate's, as the top three rows of the 4x4:
    row i holds the candidate's i-th axis dotted with each of the child's axes,
    then with the vector between the origins."""
    f, c = cand.floats, child.floats
    d = (c[0] - f[0], c[1] - f[1], c[2] - f[2])
    axes = f[3:12].tolist()
    x0, x1, x2, y0, y1, y2, z0, z1, z2 = c[3:12].tolist()
    rows = []
    for k in (0, 3, 6):
        n0, n1, n2 = axes[k : k + 3]
        rows += (n0 * x0 + n1 * x1 + n2 * x2, n0 * y0 + n1 * y1 + n2 * y2)
        rows += (n0 * z0 + n1 * z1 + n2 * z2, n0 * d[0] + n1 * d[1] + n2 * d[2])
    return rows


# Rounding the reach test and the residual floors allow for: 1e-8 of each length
# they meet (mm) and of a unit axis.  It also covers the drift from orthonormal
# that a checked rotation may keep (ORTHONORMALITY_TOL): an observed rotation
# stays within 3e-9 of one, which moves a floor's rotation term by 1 + sqrt(2)
# times as much, and an origin distance by under 2e-9 of itself.
_REACH_ROUNDING = 1e-8
_SQRT2_W_O = math.sqrt(2.0) * W_O


def _layer_floor(parent: SearchSide, child: SearchSide, x, observed) -> float:
    """A lower bound on the residual of the layer x at any joint states within the
    limits, from the entries of x that the free joints cannot move.

    A rotation moves a unit vector by at most its own angle, so rotations R, S
    differ by at least sqrt(2) |R e - S e| in the Frobenius norm for a unit e.
    A child turn acts on the rotation's columns, so with the child's joint free,
    that bound on column c and the translation's distance turn with theta_n
    alone; when the parent's joint is free too, the least over its limits is
    one `_fit_joint`, the squared bound being const - 2<Rn, H> with H = 2 W_O^2
    o_c u_c^T + W_T^2 o_t t^T.  With only the parent's joint free, its turn acts
    on the rows: row n is bound, and the translation differs at least in its
    part along n and in its length about n.  With no free joint, the bound is
    the residual's translation term.
    """
    if child.axis is not None:
        c = child.axis
        if parent.axis is not None:
            # Column c's and the translation's entries in the rows Rn turns.
            rows = _ROW_PAIRS[parent.axis]
            terms = (2.0 * W_O**2, [rows[c]]), (W_T**2, [rows[3]])
            theta = _fit_joint(*_cross(observed, x, terms), parent.limits)
            x = _turn(x, [rows[c], rows[3]], theta)
        return math.hypot(
            _SQRT2_W_O * math.dist(x[c:12:4], observed[c:12:4]),
            W_T * math.dist(x[3::4], observed[3::4]),
        )
    if parent.axis is None:
        return W_T * math.dist(x[3::4], observed[3::4])
    i, (ta, tb) = 4 * parent.axis, _ROW_PAIRS[parent.axis][3]
    return math.hypot(
        _SQRT2_W_O * math.dist(x[i : i + 3], observed[i : i + 3]),
        W_T * (x[i + 3] - observed[i + 3]),
        W_T * (math.hypot(x[ta], x[tb]) - math.hypot(observed[ta], observed[tb])),
    )


def find_parent_optimization(
    child: DetectedModule,
    pool: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
    child_direction: str,
) -> ParentMatch | None:
    """Pick the parent by minimizing the weighted pose metric.

    Enumerates neighbor and install directions and scores each hypothesis
    at every connection angle its bounds leave, one angle at a time: joint
    angles that influence the pair transform are solved in closed form within
    their joint limits, and the residual is the metric at the solved states
    (a hypothesis with no free joint has nothing to solve).  A hypothesis
    whose bundle pair is misaligned is skipped.  So is every connection
    angle whose residual is bounded above f_threshold + RESIDUAL_TIE, where
    it could neither be accepted nor tie an accepted winner; each bound is
    lowered by a rounding allowance relative to `scale` (the sum of both
    origins' distances from the world origin) and `span`, the sum of the
    sides' reaches, and is tried before anything is solved:
    - no joint turn stretches the modeled child origin beyond `span`, so the
      residual is at least W_T times the origin distance less `span`; when
      that skips all four angles, the observation is not even built;
    - `_layer_floor` bounds each angle from what the free joints cannot move,
      and only then is its `_PairModel` built and solved.
    The best candidate is accepted only when its residual stays within the
    configured threshold.
    Residuals within RESIDUAL_TIE of the best tie; ties resolve toward the
    lower marker id, then toward the smallest total solved joint roll, the
    geometric back end's convention of absorbing an unobservable roll into
    the connection angle, then toward the earlier hypothesis and angle.
    Only the winner is built as a ParentMatch.
    """
    if child_direction not in child.module_type.child_directions:
        return None
    try:
        child_side = _child_side(child, child_direction, cfg.epsilon2)
    except NonCollinearBundles:
        return None  # a misaligned bundle pair rules out only the searches it enters
    reach = cfg.f_threshold + RESIDUAL_TIE
    c = child.floats
    child_norm = math.hypot(*c[:3])
    scored = []  # (f_value, cand, d_p, theta, angle index, t_n, t_c) per scored angle
    for cand in neighbors(child, pool, db, cfg):
        f = cand.floats
        distance = math.hypot(c[0] - f[0], c[1] - f[1], c[2] - f[2])
        scale = math.hypot(*f[:3]) + child_norm
        observed = None
        for d_p in cand.module_type.parent_directions:
            try:
                parent_side, measured = _parent_side(cand, d_p, cfg.epsilon2)
            except NonCollinearBundles:
                continue
            span = parent_side.reach + child_side.reach
            rounding = _REACH_ROUNDING * (W_T * (scale + span) + W_O)
            if W_T * (distance - span) - rounding > reach:
                continue
            if observed is None:
                observed = _observed_rows(cand, child)
            for k, layer in enumerate(db.pair_layers(parent_side, child_side)):
                if _layer_floor(parent_side, child_side, layer, observed) - rounding > reach:
                    continue
                model = _PairModel(parent_side, child_side, layer, observed)
                t_n, t_c = model.solve()
                theta = measured if parent_side.axis is None else t_n
                scored.append((model.residual(t_n, t_c), cand, d_p, theta, k, t_n, t_c))
    if not scored:
        return None

    def order(s: tuple) -> tuple[int, float]:
        _, cand, _, _, _, t_n, t_c = s
        return cand.record.master_marker_id, abs(wrap_angle(t_n)) + abs(wrap_angle(t_c))

    cutoff = min(s[0] for s in scored) + RESIDUAL_TIE
    f_value, cand, d_p, theta, k, *_ = min((s for s in scored if s[0] <= cutoff), key=order)
    if not f_value <= cfg.f_threshold:
        return None
    return ParentMatch(cand, CONNECTION_ANGLES[k], d_p, theta=theta, f_value=f_value)


def _grow_branch(
    start: DetectedModule,
    detected: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
) -> tuple[list[ChainLink], list[str], set[str]]:
    """Walk from an end-effector toward the base.

    The start tool is upright; each later child keeps the direction it was
    matched with as a parent.  Each link is built once its parent search
    ends, when both its chain neighbors are known, with its joint angle; a
    note naming the module records each angle that is soft (unobservable or
    clamped) or left unestimated.  Returns the base-first links, their notes
    in the same order and the serials the walk claimed.
    """
    claimed = {start.serial}
    links_end_first: list[ChainLink] = []
    notes_end_first: list[str] = []
    below: DetectedModule | None = None  # the module on the child's tool side
    child = start
    child_direction = UPRIGHT
    child_theta: float | None = None  # the child's state as solved when it was matched
    while True:
        pool = [m for m in detected if m.serial not in claimed]
        if cfg.method == METHOD_OPTIMIZATION:
            match = find_parent_optimization(child, pool, db, cfg, child_direction)
        else:
            match = find_parent_geometric(child, pool, db, cfg, child_direction)
        parent, angle = (None, None) if match is None else (match.module, match.connection_angle)
        theta = None
        if child.module_type.is_joint:
            try:
                theta, why = estimate_joint_angle(child, child_direction, parent, below, cfg)
            except (NonCollinearBundles, LimitExceeded, DegenerateGeometry) as exc:
                why = exc
            if why is not None:
                notes_end_first.append(f"joint angle of {child.serial}: {why}")
        links_end_first.append(ChainLink(child, angle, child_direction, theta, child_theta))
        if match is None:
            break
        claimed.add(parent.serial)
        below, child = child, parent
        child_direction = match.parent_direction
        child_theta = match.theta
    return links_end_first[::-1], notes_end_first[::-1], claimed


def _identify(
    observations: list[MarkerObservation], db: ModuleDatabase, cfg: IdentifyConfig, tree: bool
) -> list[IdentifiedChain]:
    """Grow a branch from every tool module when `tree` is set, else keep the
    walk `build_chain` describes.  Detected modules that join no kept branch
    are rejected as orphans."""
    cfg.check_against(db)
    detected, rejected = validate_markers(observations, db)
    tools = sorted(
        (m for m in detected if m.module_type.is_tool),
        key=lambda m: m.record.master_marker_id,
    )
    if not tools:
        shape = "tree" if tree else "chain"
        raise NoToolModule(f"no tool module detected; cannot start {shape} construction")
    walks = [_grow_branch(tools[0], detected, db, cfg)]
    for tool in tools[1:]:
        if tree:
            walks.append(_grow_branch(tool, detected, db, cfg))
        elif len(walks[0][2]) < len(detected):  # the best walk leaves modules unclaimed
            try:
                walk = _grow_branch(tool, detected, db, cfg)
            except IdentifyError:  # a later walk that fails is skipped
                continue
            walks = [max(walks[0], walk, key=lambda w: len(w[2]))]  # a tie keeps the lower id
    claimed_anywhere = set().union(*(claimed for *_, claimed in walks))
    rejected += [
        (m.record.master_marker_id, REASON_ORPHAN)
        for m in detected
        if m.serial not in claimed_anywhere
    ]
    return [IdentifiedChain(links, list(rejected), notes) for links, notes, _ in walks]


def build_chain(
    observations: list[MarkerObservation],
    db: ModuleDatabase,
    cfg: IdentifyConfig = IdentifyConfig(),
) -> IdentifiedChain:
    """Identify a single serial chain from a scene.

    Walks toward the base by repeated parent search from the detected tool
    module with the lowest marker id, and from each next tool by id while
    the best walk so far leaves modules unclaimed; each walk estimates the
    joint angle of every module it links.  It keeps the walk that claims
    the most (a tie to the lower id; a later walk that raises an
    IdentifyError is skipped).  Detected modules that the kept walk never
    claims are rejected as orphans.
    """
    return _identify(observations, db, cfg, tree=False)[0]


def build_tree(
    observations: list[MarkerObservation],
    db: ModuleDatabase,
    cfg: IdentifyConfig = IdentifyConfig(),
) -> list[IdentifiedChain]:
    """Identify a tree as one branch chain per detected tool module.

    Modules claimed by one branch stay available to the others, so branches
    share their common trunk; a chain scene yields a single branch equal to
    build_chain's output.
    """
    return _identify(observations, db, cfg, tree=True)


def to_descriptor(chain: IdentifiedChain) -> ChainDescriptor:
    """Chain description of an identified chain, base to end."""
    entries = []
    for i, link in enumerate(chain.links):
        entries.append(
            ChainEntry(
                type_code=link.module.module_type.code,
                inverted=link.direction == INVERTED,
                connection_angle=None if i == 0 else link.connection_angle,
            )
        )
    return ChainDescriptor(tuple(entries))
