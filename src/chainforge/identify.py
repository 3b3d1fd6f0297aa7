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
import warnings
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .descriptor import ChainDescriptor, ChainEntry
from .geometry import (
    CONNECTION_ANGLES,
    TURN_PLANES,
    DegenerateGeometry,
    Pose,
    WeightMatrix,
    discretize_angle,
    joint_turns,
    relative,
    rot_y,
    signed_angle,
    unit_between,
    wrap_angle,
)
from .module_db import (
    CONNECTOR_STACK,
    INVERTED,
    UPRIGHT,
    ModuleDatabase,
    ModuleRecord,
    ModuleType,
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
    weights: WeightMatrix = field(default_factory=WeightMatrix)
    f_threshold: float = 0.5
    method: str = METHOD_GEOMETRIC

    def __post_init__(self):
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
    output bundle, `bundle` is the master-to-output transform and `twist`
    its roll and tilt (see `_bundle_twist`).
    """

    record: ModuleRecord
    module_type: ModuleType
    master_pose: Pose
    output_pose: Pose | None = None
    floats: array = field(init=False, repr=False, compare=False)
    bundle: Pose | None = field(init=False, repr=False, compare=False)
    twist: tuple[float, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, y, z = self.master_pose.rotation.T.tolist()
        floats = array("d", self.master_pose.translation.tolist() + x + y + z)
        bundle = None
        if self.output_pose is not None:
            floats.extend(self.output_pose.rotation[:, 2].tolist())
            bundle = relative(self.master_pose, self.output_pose)
        object.__setattr__(self, "floats", floats)
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "twist", None if bundle is None else _bundle_twist(self))

    @property
    def serial(self) -> str:
        return self.record.serial

    @property
    def origin(self) -> np.ndarray:
        return self.master_pose.translation


@dataclass(frozen=True, slots=True)
class ChainLink:
    """One chain position: module, connection angle, install direction, state."""

    module: DetectedModule
    connection_angle: float | None
    direction: str
    joint_angle: float | None = None
    solver_theta: float | None = None


@dataclass(frozen=True)
class IdentifiedChain:
    """Links ordered base to end plus everything that was rejected."""

    links: list[ChainLink]
    rejected_markers: list[tuple[int, str]]
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class ConstraintResult:
    satisfied: bool
    parent_direction: str | None = None
    reason: str = ""


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
    return ConstraintResult(True, parent_direction)


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
    """Roll about the link axis of the master-to-output rotation, and the tilt
    left after removing that roll, in degrees; measured once per module."""
    r = module.bundle.rotation
    r00, _, r02 = r[0].tolist()
    roll = math.degrees(math.atan2(r02, r00))
    # The tilt is the rotation angle of the residual: atan2 of its skew part
    # against trace - 1 stays exact near zero, where acos of the trace loses
    # half the digits.
    (d0, a01, a02), (a10, d1, a12), (a20, a21, d2) = (rot_y(-roll) @ r).tolist()
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
        raise NonCollinearBundles(f"{module.serial}: output bundle was not observed")
    theta, tilt = module.twist
    if tilt > math.degrees(math.acos(1.0 - epsilon2)):
        raise NonCollinearBundles(
            f"{module.serial}: bundle axes misaligned by {tilt:.1f} degrees"
        )
    return theta


def estimate_joint_angle(
    module: DetectedModule,
    direction: str,
    parent: DetectedModule | None,
    child: DetectedModule | None,
    cfg: IdentifyConfig,
) -> float:
    """Estimate a joint module's angle from the observed scene.

    Collinear joints read the roll between their two bundles.
    Perpendicular joints measure the signed angle, about their master
    z-axis, of the direction toward the neighbor on their output side:
    the chain child when upright, the chain parent when inverted.
    """
    mt = module.module_type
    if not mt.is_joint:
        raise ValueError(f"{module.serial}: type {mt.code!r} has no joint")
    if mt.is_collinear_joint:
        theta = _measure_collinear_theta(module, cfg.epsilon2)
    else:
        reference = child if direction == UPRIGHT else parent
        if reference is None:
            warnings.warn(
                f"{module.serial}: no neighbor on the output side; joint angle "
                f"is unobservable, reporting 0"
            )
            return 0.0
        u = unit_between(module.master_pose, reference.master_pose)
        local = module.master_pose.rotation.T @ u
        theta = math.degrees(math.atan2(-local[0], local[1]))
    lo, hi = mt.joint_limits
    if theta < lo - LIMIT_SLACK or theta > hi + LIMIT_SLACK:
        raise LimitExceeded(
            f"{module.serial}: estimated angle {theta:.2f} far outside [{lo}, {hi}]"
        )
    if theta < lo or theta > hi:
        clamped = min(max(theta, lo), hi)
        warnings.warn(
            f"{module.serial}: estimated angle {theta:.2f} clamped to {clamped:.2f}"
        )
        theta = clamped
    return theta


def _fit_joint(axis: int, h: np.ndarray, limits: tuple[float, float]) -> np.ndarray:
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


class _Side(NamedTuple):
    """One side's factor of the pair transform; axis is None when no joint state is free."""

    matrix: np.ndarray
    axis: int | None = None
    limits: tuple[float, float] | None = None


def _parent_side(
    module: DetectedModule, direction: str, eps2: float
) -> tuple[_Side, float | None]:
    """Parent factor and the joint roll measured from the bundle pair, if any.

    Only an upright joint's state enters the parent factor.  When an upright
    collinear joint's output bundle is seen, the factor is the observed
    master-to-output transform, so the roll drops out of the model.
    """
    mt = module.module_type
    free = mt.is_joint and direction == UPRIGHT
    if free and mt.is_collinear_joint and module.output_pose is not None:
        roll = _measure_collinear_theta(module, eps2)
        return _Side(module.bundle.matrix()), roll
    factor = mt.matrices["out", direction]
    return (_Side(factor, mt.joint_axis, mt.joint_limits) if free else _Side(factor)), None


def _child_side(module: DetectedModule, direction: str, theta: float | None, eps2: float) -> _Side:
    """Child factor.  Only an inverted joint's state enters it: measured from
    its bundle pair when both are seen, else the state solved one link down
    the chain (theta), else free."""
    mt = module.module_type
    if not (mt.is_joint and direction == INVERTED):
        return _Side(mt.matrices["in", direction])
    if mt.is_collinear_joint and module.output_pose is not None:
        theta = _measure_collinear_theta(module, eps2)
    entered = mt.matrices["in", direction]
    if theta is None:
        return _Side(entered, mt.joint_axis, mt.joint_limits)
    return _Side(entered @ joint_turns(mt.joint_axis, [-theta])[0])


class _PairModel:
    """The parent-to-child transform of one hypothesis at all four connection angles.

    Layer k is Rn(theta_n) B[k] Rc(-theta_c): B[k] chains the parent factor,
    the k-th connector transform and the child factor, and Rn, Rc turn the
    free joint states (`joint_turns`; an inverted child is entered behind
    its joint, so its state turns by -theta_c).
    The metric is invariant under a rigid motion of both frames, so the
    observation is always the child master seen from the parent master.
    """

    def __init__(self, parent: _Side, child: _Side, observed: np.ndarray, weights: WeightMatrix):
        self.parent, self.child = parent, child
        self._base = parent.matrix @ CONNECTOR_STACK @ child.matrix
        self._observed = observed
        self._weights = weights
        self._turned = None, None  # the last theta_n turning the parent, and its layers

    def _stack(self, theta_n: np.ndarray | None, theta_c: np.ndarray | None) -> np.ndarray:
        """The model layers, turned by each free side whose states are given.

        The parent-turned layers are kept for the next call with the same
        theta_n: the residual at the solved states reuses the final child_cross's.
        """
        m = self._base
        if theta_n is not None and self.parent.axis is not None:
            if self._turned[0] is not theta_n:
                self._turned = theta_n, joint_turns(self.parent.axis, theta_n) @ m
            m = self._turned[1]
        if theta_c is not None and self.child.axis is not None:
            m = m @ joint_turns(self.child.axis, -theta_c)
        return m

    def residual(self, theta_n: np.ndarray, theta_c: np.ndarray) -> np.ndarray:
        """Weighted pose metric at one joint state per connection angle (ignored if fixed)."""
        diff = self._weights.mask * (self._stack(theta_n, theta_c) - self._observed)
        return np.sqrt((diff * diff).sum(axis=(1, 2)))

    def parent_cross(self, theta_c: np.ndarray, position_only: bool = False) -> np.ndarray:
        """H of the metric in theta_n: Rn has no translation, so the model is
        Rn X and H = w_o^2 O_r X_r^T + w_t^2 O_t X_t^T."""
        x, o, w = self._stack(None, theta_c), self._observed, self._weights
        h = w.w_t**2 * o[:3, 3, None] * x[:, None, :3, 3]
        if position_only:
            return h
        return h + w.w_o**2 * (o[:3, :3] @ x[:, :3, :3].transpose(0, 2, 1))

    def child_cross(self, theta_n: np.ndarray) -> np.ndarray:
        """H of the metric in theta_c: Rc turns only the modeled rotation, Y_r Rc(-theta_c),
        so H = w_o^2 O_r^T Y_r."""
        y = self._stack(theta_n, None)
        return self._weights.w_o**2 * (self._observed[:3, :3].T @ y[:, :3, :3])

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Free joint states at each connection angle in closed form; 0 where fixed.

        When both are free, the child master position depends only on the
        parent state, so theta_n comes from a translation-only fit and
        theta_c from the full metric at that theta_n; each is then re-solved
        once with the other held fixed.  Every step spans the full limits.
        """
        p, c = self.parent, self.child
        theta_n = theta_c = np.zeros(len(CONNECTION_ANGLES))
        if p.axis is not None and c.axis is not None:
            theta_n = _fit_joint(p.axis, self.parent_cross(theta_c, position_only=True), p.limits)
            theta_c = _fit_joint(c.axis, self.child_cross(theta_n), c.limits)
        if p.axis is not None:
            theta_n = _fit_joint(p.axis, self.parent_cross(theta_c), p.limits)
        if c.axis is not None:
            theta_c = _fit_joint(c.axis, self.child_cross(theta_n), c.limits)
        return theta_n, theta_c


# Rounding the reach test allows for, relative to the magnitudes it meets.
_REACH_ROUNDING = 1e-9


def _connected_origins(child: _Side) -> list[list[float]]:
    """C_k q at each connection angle: the child factor's translation q carried
    across the k-th connector.  No child-side turn moves it."""
    return (CONNECTOR_STACK[:, :3, :3] @ child.matrix[:3, 3]).tolist()


def _origin_gaps(
    parent: _Side, cq: list[list[float]], cand: DetectedModule, child: DetectedModule
) -> list[float]:
    """At each connection angle, a lower bound on the distance between the
    child's master origin seen from the candidate's and the modeled one, at
    any joint states.

    The modeled origin is b = P_t + P_r C_k q, for the parent factor P and
    `_connected_origins` cq.  A free parent turns b about its joint axis,
    which keeps b's axial offset and its radius about the axis, so the
    distance is at least the hypot of the axial and radial gaps.  Each bound
    is lowered by a rounding allowance, so that w_t times it never exceeds
    the residual of `_PairModel`, which is at least w_t times the distance.
    """
    f, c = cand.floats, child.floats
    d0, d1, d2 = c[0] - f[0], c[1] - f[1], c[2] - f[2]
    o = (  # the candidate's axes dotted with the vector between the origins
        f[3] * d0 + f[4] * d1 + f[5] * d2,
        f[6] * d0 + f[7] * d1 + f[8] * d2,
        f[9] * d0 + f[10] * d1 + f[11] * d2,
    )
    (p00, p01, p02, t0), (p10, p11, p12, t1), (p20, p21, p22, t2) = parent.matrix[:3].tolist()
    scale = (
        math.hypot(f[0], f[1], f[2])
        + math.hypot(c[0], c[1], c[2])
        + math.hypot(t0, t1, t2)
        + math.hypot(*cq[0])
    )
    allowance = _REACH_ROUNDING * scale
    ax = parent.axis
    if ax is not None:
        u, v = TURN_PLANES[ax]
        o_axial, o_radial = o[ax], math.hypot(o[u], o[v])
    gaps = []
    for q0, q1, q2 in cq:
        b = (
            t0 + (p00 * q0 + p01 * q1 + p02 * q2),
            t1 + (p10 * q0 + p11 * q1 + p12 * q2),
            t2 + (p20 * q0 + p21 * q1 + p22 * q2),
        )
        if ax is None:
            gap = math.hypot(o[0] - b[0], o[1] - b[1], o[2] - b[2])
        else:
            gap = math.hypot(o_axial - b[ax], o_radial - math.hypot(b[u], b[v]))
        gaps.append(gap - allowance)
    return gaps


def find_parent_optimization(
    child: DetectedModule,
    pool: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
    child_direction: str,
    child_theta: float | None = None,
) -> ParentMatch | None:
    """Pick the parent by minimizing the weighted pose metric.

    Enumerates neighbor and install directions and scores each hypothesis
    at all four connection angles at once; joint angles that influence the
    pair transform are solved in closed form within their joint limits,
    and the residual is the metric at the solved states.  A hypothesis
    whose bundle pair is misaligned is skipped, and so is one that cannot
    reach the child: when w_t times every `_origin_gaps` bound exceeds
    f_threshold + RESIDUAL_TIE, its residuals could neither be accepted nor
    tie an accepted winner.  The best candidate is accepted only when its
    residual stays within the configured threshold.
    Residuals within RESIDUAL_TIE of the best tie; ties resolve toward the
    lower marker id, then toward the smallest total solved joint roll, the
    geometric back end's convention of absorbing an unobservable roll into
    the connection angle, then toward the earlier hypothesis.  Only the
    winner is built as a ParentMatch.
    """
    if child_direction not in child.module_type.child_directions:
        return None
    try:
        child_side = _child_side(child, child_direction, child_theta, cfg.epsilon2)
    except NonCollinearBundles:
        return None  # a misaligned bundle pair disqualifies its own hypotheses only
    reach = cfg.f_threshold + RESIDUAL_TIE
    cq = _connected_origins(child_side)
    hypotheses = []  # (candidate, its direction, parent side, roll, thetas)
    f_values: list[float] = []  # four per hypothesis, in CONNECTION_ANGLES order
    for cand in neighbors(child, pool, db, cfg):
        observed = None
        for d_p in cand.module_type.parent_directions:
            try:
                parent_side, measured = _parent_side(cand, d_p, cfg.epsilon2)
            except NonCollinearBundles:
                continue
            if cfg.weights.w_t * min(_origin_gaps(parent_side, cq, cand, child)) > reach:
                continue
            if observed is None:
                observed = relative(cand.master_pose, child.master_pose).matrix()
            model = _PairModel(parent_side, child_side, observed, cfg.weights)
            theta_n, theta_c = model.solve()
            f_values += model.residual(theta_n, theta_c).tolist()
            hypotheses.append((cand, d_p, parent_side, measured, theta_n, theta_c))
    if not f_values:
        return None
    n = len(CONNECTION_ANGLES)

    def order(i: int) -> tuple[int, float]:
        cand, *_, theta_n, theta_c = hypotheses[i // n]
        t_n, t_c = float(theta_n[i % n]), float(theta_c[i % n])
        return cand.record.master_marker_id, abs(wrap_angle(t_n)) + abs(wrap_angle(t_c))

    cutoff = min(f_values) + RESIDUAL_TIE
    best = min((i for i, f in enumerate(f_values) if f <= cutoff), key=order)
    if not f_values[best] <= cfg.f_threshold:
        return None
    (cand, d_p, parent_side, measured, theta_n, _), k = hypotheses[best // n], best % n
    theta = measured if parent_side.axis is None else float(theta_n[k])
    return ParentMatch(cand, CONNECTION_ANGLES[k], d_p, theta=theta, f_value=f_values[best])


def _grow_branch(
    start: DetectedModule,
    detected: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
) -> tuple[list[ChainLink], set[str]]:
    """Walk from an end-effector toward the base.

    The start tool is upright; each later child keeps the direction it was
    matched with as a parent.  Returns the base-first links and the serials
    the walk claimed.
    """
    claimed = {start.serial}
    links_end_first: list[ChainLink] = []
    child = start
    child_direction = UPRIGHT
    child_theta: float | None = None  # the child's state as solved when it was matched
    while True:
        pool = [m for m in detected if m.serial not in claimed]
        if cfg.method == METHOD_OPTIMIZATION:
            match = find_parent_optimization(child, pool, db, cfg, child_direction, child_theta)
        else:
            match = find_parent_geometric(child, pool, db, cfg, child_direction)
        angle = None if match is None else match.connection_angle
        links_end_first.append(ChainLink(child, angle, child_direction, solver_theta=child_theta))
        if match is None:
            break
        claimed.add(match.module.serial)
        child = match.module
        child_direction = match.parent_direction
        child_theta = match.theta
    return list(reversed(links_end_first)), claimed


def _estimate_chain_angles(
    links: list[ChainLink], cfg: IdentifyConfig
) -> tuple[list[ChainLink], list[str]]:
    """The links with their joint angles, and a warning per angle left unestimated."""
    estimated, notes = [], []
    for i, link in enumerate(links):
        if link.module.module_type.is_joint:
            parent = links[i - 1].module if i > 0 else None
            child = links[i + 1].module if i + 1 < len(links) else None
            try:
                theta = estimate_joint_angle(link.module, link.direction, parent, child, cfg)
                link = ChainLink(
                    link.module, link.connection_angle, link.direction, theta, link.solver_theta
                )
            except (NonCollinearBundles, LimitExceeded, DegenerateGeometry) as exc:
                notes.append(f"joint angle of {link.module.serial}: {exc}")
        estimated.append(link)
    return estimated, notes


def _identify(
    observations: list[MarkerObservation], db: ModuleDatabase, cfg: IdentifyConfig, tree: bool
) -> list[IdentifiedChain]:
    """Grow a branch from every tool module when `tree` is set, else keep the
    walk `build_chain` describes, then estimate joint angles.  Detected
    modules that join no kept branch are rejected as orphans."""
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
        elif len(walks[0][1]) < len(detected):  # the best walk leaves modules unclaimed
            try:
                walk = _grow_branch(tool, detected, db, cfg)
            except IdentifyError:  # a later walk that fails is skipped
                continue
            walks = [max(walks[0], walk, key=lambda w: len(w[1]))]  # a tie keeps the lower id
    claimed_anywhere = set().union(*(claimed for _, claimed in walks))
    rejected += [
        (m.record.master_marker_id, REASON_ORPHAN)
        for m in detected
        if m.serial not in claimed_anywhere
    ]
    branches = []
    for links, _ in walks:
        links, notes = _estimate_chain_angles(links, cfg)
        branches.append(IdentifiedChain(links, list(rejected), notes))
    return branches


def build_chain(
    observations: list[MarkerObservation],
    db: ModuleDatabase,
    cfg: IdentifyConfig = IdentifyConfig(),
) -> IdentifiedChain:
    """Identify a single serial chain from a scene.

    Walks toward the base by repeated parent search from the detected tool
    module with the lowest marker id, and from each next tool by id while
    the best walk so far leaves modules unclaimed.  It keeps the walk that
    claims the most (a tie to the lower id; a later walk that raises an
    IdentifyError is skipped), then estimates every joint angle.  Detected
    modules that the kept walk never claims are rejected as orphans.
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
