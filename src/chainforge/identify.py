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
from dataclasses import dataclass, field

import numpy as np

from .descriptor import ChainDescriptor, ChainEntry
from .geometry import (
    CONNECTION_ANGLES,
    DegenerateGeometry,
    Pose,
    WeightMatrix,
    discretize_angle,
    raw_connection_angle,
    relative,
    rot_y,
    unit_between,
    wrap_angle,
    y_axis,
    z_axis,
)
from .module_db import (
    INVERTED,
    UPRIGHT,
    ModuleDatabase,
    ModuleRecord,
    ModuleType,
    connection_transform,
)
from .synth import MarkerObservation

REASON_UNKNOWN_MARKER = "UnknownMarker"
REASON_DUPLICATE = "Duplicate"
REASON_ORPHAN = "Orphan"
REASON_MISSING_MASTER = "MissingMaster"

METHOD_GEOMETRIC = "geometric"
METHOD_OPTIMIZATION = "optimization"

LIMIT_SLACK = 2.0


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
        if self.epsilon1 <= 0.0:
            raise ValueError("epsilon1 must be positive")
        if not 0.0 < self.epsilon2 < 1.0:
            raise ValueError("epsilon2 must lie in (0, 1)")
        if self.f_threshold < 0.0:
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


@dataclass
class DetectedModule:
    """A registered module recognized in the scene, with its observed poses."""

    record: ModuleRecord
    module_type: ModuleType
    master_pose: Pose
    output_pose: Pose | None = None

    @property
    def serial(self) -> str:
        return self.record.serial

    @property
    def origin(self) -> np.ndarray:
        return self.master_pose.translation


@dataclass
class ChainLink:
    """One chain position: module, connection angle, install direction, state."""

    module: DetectedModule
    connection_angle: float | None
    direction: str
    joint_angle: float | None = None
    solver_theta: float | None = None


@dataclass
class IdentifiedChain:
    """Links ordered base to end plus everything that was rejected."""

    links: list[ChainLink]
    rejected_markers: list[tuple[int, str]]
    warnings: list[str] = field(default_factory=list)

    def serials(self) -> list[str]:
        return [link.module.serial for link in self.links]


@dataclass(frozen=True)
class ConstraintResult:
    satisfied: bool
    parent_direction: str | None = None
    child_direction: str | None = None
    reason: str = ""


@dataclass(frozen=True)
class ParentMatch:
    module: DetectedModule
    connection_angle: float
    parent_direction: str
    child_direction: str
    theta: float | None = None
    f_value: float | None = None


def validate_markers(
    observations: list[MarkerObservation], db: ModuleDatabase
) -> tuple[list[DetectedModule], list[tuple[int, str]]]:
    """Split observations into recognized modules and rejected markers.

    Output-bundle markers merge into their module's entry; unknown ids and
    repeat sightings are rejected, keeping the first observation of each id.
    """
    rejected: list[tuple[int, str]] = []
    seen_ids: set[int] = set()
    modules: dict[str, DetectedModule] = {}
    pending_outputs: dict[str, Pose] = {}
    for obs in observations:
        if obs.marker_id in seen_ids:
            rejected.append((obs.marker_id, REASON_DUPLICATE))
            continue
        seen_ids.add(obs.marker_id)
        hit = db.lookup_marker(obs.marker_id)
        if hit is None:
            rejected.append((obs.marker_id, REASON_UNKNOWN_MARKER))
            continue
        serial = hit.record.serial
        if hit.is_output:
            if serial in modules:
                modules[serial].output_pose = obs.pose
            else:
                pending_outputs[serial] = obs.pose
        else:
            modules[serial] = DetectedModule(
                record=hit.record,
                module_type=db.type_of(hit.record),
                master_pose=obs.pose,
                output_pose=pending_outputs.pop(serial, None),
            )
    for serial, _pose in pending_outputs.items():
        rec = next(r for r in db.records if r.serial == serial)
        rejected.append((rec.output_marker_id, REASON_MISSING_MASTER))
    return list(modules.values()), rejected


def neighbors(
    child: DetectedModule,
    pool: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
) -> list[DetectedModule]:
    """Pool members close enough to be directly connected to the child."""
    bound = db.max_connected_distance() + cfg.epsilon1
    return [
        m
        for m in pool
        if m is not child and np.linalg.norm(m.origin - child.origin) <= bound
    ]


def constraint_check(
    parent_cand: DetectedModule,
    child: DetectedModule,
    db: ModuleDatabase,
    cfg: IdentifyConfig,
    child_direction: str | None = None,
) -> ConstraintResult:
    """Decide whether a neighbor can be the child's parent.

    Evaluates the pairwise geometric constraints: the connected-pair
    distance bound, collinearity of module y-axes with the center-to-center
    direction, and the sign tests that imply each side's install direction.
    Upright perpendicular-joint parents are exempt from the parent-side
    collinearity test (their output link swings the child off-axis), and
    inverted perpendicular-joint children are exempt from the child-side
    test for the mirror-image reason.  A candidate at the child's own
    origin defines no direction and is rejected.
    """
    try:
        u = unit_between(parent_cand.master_pose, child.master_pose)
    except DegenerateGeometry:
        return ConstraintResult(False, reason="coincident origins")
    dist = float(np.linalg.norm(child.origin - parent_cand.origin))
    pt = parent_cand.module_type
    ct = child.module_type
    pair_bound = db.pair_connected_distance(pt.code, ct.code)
    if dist > pair_bound + cfg.epsilon1:
        return ConstraintResult(False, reason="distance")

    yp_dot = float(y_axis(parent_cand.master_pose) @ u)
    yc_dot = float(y_axis(child.master_pose) @ u)
    collinear = 1.0 - cfg.epsilon2
    # Same angular tolerance viewed from the joint axis: a swung link stays
    # exactly in the plane normal to its joint's z-axis.
    in_plane = math.sqrt(max(2.0 * cfg.epsilon2 - cfg.epsilon2**2, 0.0))

    if pt.is_perpendicular_joint and not (abs(yp_dot) >= collinear and yp_dot < 0.0):
        # Upright perpendicular joint: the child hangs off the swung output
        # link; it must lie in the swing plane, but no y-collinearity holds.
        parent_direction = UPRIGHT
        if abs(float(z_axis(parent_cand.master_pose) @ u)) > in_plane:
            return ConstraintResult(False, reason="child off the parent swing plane")
    else:
        if abs(yp_dot) < collinear:
            return ConstraintResult(False, reason="parent collinearity")
        parent_direction = UPRIGHT if yp_dot >= 0.0 else INVERTED
    if parent_direction == INVERTED and not pt.invertible:
        return ConstraintResult(False, reason="parent not invertible")
    if not pt.can_parent(parent_direction):
        return ConstraintResult(False, reason="parent has no child-side connector")

    def inverted_perpendicular_child() -> ConstraintResult:
        # The master link of an inverted perpendicular joint swings about its
        # own z-axis, so the parent ray must lie in that swing plane.
        if abs(float(z_axis(child.master_pose) @ u)) > in_plane:
            return ConstraintResult(False, reason="parent off the child swing plane")
        return ConstraintResult(True, parent_direction, INVERTED)

    if ct.is_perpendicular_joint and child_direction == INVERTED:
        return inverted_perpendicular_child()

    derived_child = UPRIGHT if yc_dot >= 0.0 else INVERTED
    if abs(yc_dot) < collinear:
        if ct.is_perpendicular_joint and child_direction is None and ct.invertible:
            # Off-axis child frame can only be an inverted perpendicular joint.
            return inverted_perpendicular_child()
        return ConstraintResult(False, reason="child collinearity")
    if child_direction is not None and derived_child != child_direction:
        return ConstraintResult(False, reason="child direction mismatch")
    if derived_child == INVERTED and not ct.invertible:
        return ConstraintResult(False, reason="child not invertible")
    if not ct.can_child(derived_child):
        return ConstraintResult(False, reason="child has no parent-side connector")
    return ConstraintResult(True, parent_direction, derived_child)


def _effective_frame(module: DetectedModule, direction: str, side: str) -> Pose:
    """Frame whose z-axis faces the mating, with the master's origin.

    Upright collinear-joint parents present their output link to the child,
    and inverted collinear-joint children present theirs to the parent; in
    both cases the output bundle carries the joint roll that the master
    frame does not see.
    """
    mt = module.module_type
    needs_output = mt.is_collinear_joint and (
        (side == "parent" and direction == UPRIGHT)
        or (side == "child" and direction == INVERTED)
    )
    if needs_output:
        if module.output_pose is None:
            warnings.warn(
                f"{module.serial}: output bundle missing; connection angle may "
                f"absorb the joint roll"
            )
            return module.master_pose
        return Pose._trusted(module.output_pose.rotation, module.master_pose.translation)
    return module.master_pose


def connection_angle_between(
    parent: DetectedModule,
    parent_direction: str,
    child: DetectedModule,
    child_direction: str,
) -> float:
    """Discrete connection angle of a resolved parent-child pair.

    The raw angle between the mating-side z-axes picks up a 180-degree
    offset from the connector flip whenever exactly one side of the pair is
    installed inverted.
    """
    p_eff = _effective_frame(parent, parent_direction, "parent")
    c_eff = _effective_frame(child, child_direction, "child")
    raw = raw_connection_angle(p_eff, c_eff)
    if (parent_direction == INVERTED) != (child_direction == INVERTED):
        raw = wrap_angle(raw + 180.0)
    return discretize_angle(raw)


def find_parent_geometric(
    child: DetectedModule,
    pool: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
    child_direction: str | None = None,
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
            if find_parent_optimization(
                child, [cand], db, cfg, child_direction=child_direction
            )
            is not None
        ]
    if not passing:
        return None
    if len(passing) > 1:
        raise AmbiguousParent(child.serial, [c.serial for c, _ in passing])
    cand, result = passing[0]
    child_dir = result.child_direction or child_direction or UPRIGHT
    angle = connection_angle_between(cand, result.parent_direction, child, child_dir)
    return ParentMatch(cand, angle, result.parent_direction, child_dir)


def _measure_collinear_theta(module: DetectedModule, epsilon2: float) -> float:
    """Joint angle of a dual-bundle module from its two bundle poses.

    The relative bundle rotation must be a twist about the shared link
    axis; whatever rotation remains after removing the measured twist is
    the misalignment, bounded by the angular budget of epsilon2.
    """
    if module.output_pose is None:
        raise NonCollinearBundles(f"{module.serial}: output bundle was not observed")
    rel = relative(module.master_pose, module.output_pose)
    r = rel.rotation
    theta = math.degrees(math.atan2(r[0, 2], r[0, 0]))
    residual = rot_y(-theta) @ r
    tilt = math.degrees(
        math.acos(float(np.clip((np.trace(residual) - 1.0) / 2.0, -1.0, 1.0)))
    )
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


def _rot4(axis: int, deg: float) -> np.ndarray:
    """Homogeneous rotation about the y (axis=1) or z (axis=2) base axis."""
    rad = math.radians(deg)
    c, s = math.cos(rad), math.sin(rad)
    m = np.eye(4)
    if axis == 1:
        m[0, 0], m[0, 2], m[2, 0], m[2, 2] = c, s, -s, c
    else:
        m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c, -s, s, c
    return m


_CONN_MATS = {angle: connection_transform(angle).matrix() for angle in CONNECTION_ANGLES}


class _PairModel:
    """Matrix-level model of the parent-to-child transform for one hypothesis.

    The pair transform is parent childward factor, connector transform,
    child parentward factor.  Joint angles appear in the model only where
    they influence this transform: the parent's when it is an upright
    joint, the child's when it is an inverted joint.  When a collinear
    joint's roll can be measured from its own bundle pair it is measured,
    not searched; an upright collinear parent with a visible output bundle
    additionally re-anchors the observation on that bundle so its roll
    drops out of the model altogether.
    """

    def __init__(
        self,
        parent: DetectedModule,
        parent_direction: str,
        child: DetectedModule,
        child_direction: str,
        child_theta: float | None,
        cfg: IdentifyConfig,
    ):
        pt = parent.module_type
        ct = child.module_type
        self.measured_parent_theta: float | None = None
        anchor = parent.master_pose
        self.has_theta_n = pt.is_joint and parent_direction == UPRIGHT
        self.parent_axis = 1 if pt.is_collinear_joint else 2
        if self.has_theta_n and pt.is_collinear_joint and parent.output_pose is not None:
            self.measured_parent_theta = _measure_collinear_theta(parent, cfg.epsilon2)
            anchor = parent.output_pose
            self._parent_const = np.eye(4)
            self.has_theta_n = False
        elif self.has_theta_n:
            self._parent_const = pt.master_offset_output.matrix()
        else:
            self._parent_const = pt.master_to_childward(parent_direction, 0.0).matrix()

        self.has_theta_c = ct.is_joint and child_direction == INVERTED
        self.child_axis = 1 if ct.is_collinear_joint else 2
        theta_c_known = 0.0
        if self.has_theta_c:
            if ct.is_collinear_joint and child.output_pose is not None:
                theta_c_known = _measure_collinear_theta(child, cfg.epsilon2)
                self.has_theta_c = False
            elif child_theta is not None:
                theta_c_known = child_theta
                self.has_theta_c = False
        if self.has_theta_c:
            self._child_const = ct.master_offset_output.matrix()
            self._child_inv_base = np.linalg.inv(self._child_const)
        elif ct.is_joint and child_direction == INVERTED:
            self._child_fixed = ct.parentward_to_master(child_direction, theta_c_known).matrix()
        else:
            self._child_fixed = ct.parentward_to_master(child_direction, 0.0).matrix()

        self._observed = relative(anchor, child.master_pose).matrix()
        self._mask = cfg.weights.mask()
        self.limits_n = pt.joint_limits
        self.limits_c = ct.joint_limits

    def _parent_mat(self, theta_n: float) -> np.ndarray:
        if self.has_theta_n:
            return _rot4(self.parent_axis, theta_n) @ self._parent_const
        return self._parent_const

    def _child_mat(self, theta_c: float) -> np.ndarray:
        if self.has_theta_c:
            # parentward_to_master(INVERTED, t) = output_offset^-1 * rot(-t)
            return self._child_inv_base @ _rot4(self.child_axis, -theta_c)
        return self._child_fixed

    def residual(self, angle: float, theta_n: float = 0.0, theta_c: float = 0.0) -> float:
        model = self._parent_mat(theta_n) @ _CONN_MATS[angle] @ self._child_mat(theta_c)
        return float(np.linalg.norm(self._mask * (model - self._observed)))

    def position_residual(self, angle: float, theta_n: float) -> float:
        """Translation-only residual; independent of the child joint state."""
        model = self._parent_mat(theta_n) @ _CONN_MATS[angle] @ self._child_mat(0.0)
        return float(np.linalg.norm(model[:3, 3] - self._observed[:3, 3]))


def _minimize_sinusoid(f, limits: tuple[float, float]) -> float:
    """Minimizer on the joint limits of f, where f(t)**2 = a + b cos t + c sin t.

    The weight mask is uniform on the rotation block and on the translation
    column, so the squared pose metric is linear in the entries of a single
    joint rotation: three evaluations fix a, b and c, and the one minimum on
    the circle lies at atan2(-c, -b).  When the limits exclude it, the
    sinusoid is monotone toward it from either end, so the better endpoint
    wins.
    """
    g0, g90, g180 = (f(t) ** 2 for t in (0.0, 90.0, 180.0))
    a = (g0 + g180) / 2.0
    b = (g0 - g180) / 2.0
    c = g90 - a
    lo, hi = limits
    theta = math.degrees(math.atan2(-c, -b))
    # The max covers a shift that rounding leaves just short of lo (for a
    # denormal lo - theta the quotient underflows to 0).
    theta = max(theta + 360.0 * math.ceil((lo - theta) / 360.0), lo)
    if theta <= hi:
        return theta
    g_lo, g_hi = (b * math.cos(math.radians(t)) + c * math.sin(math.radians(t)) for t in limits)
    return lo if g_lo <= g_hi else hi


def _minimize_two(model: "_PairModel", angle: float) -> tuple[float, float]:
    """Both joint states enter the pair transform: solve them in sequence.

    The child master position depends only on the parent state (the child
    factor contributes a fixed translation), so the parent angle comes from
    a translation-only fit and the child angle from the full metric at that
    parent angle; each is then re-solved once with the other held fixed.
    Every step is a closed-form fit over the full joint limits.
    """
    theta_n = _minimize_sinusoid(lambda t: model.position_residual(angle, t), model.limits_n)
    theta_c = _minimize_sinusoid(lambda t: model.residual(angle, theta_n, t), model.limits_c)
    theta_n = _minimize_sinusoid(lambda t: model.residual(angle, t, theta_c), model.limits_n)
    theta_c = _minimize_sinusoid(lambda t: model.residual(angle, theta_n, t), model.limits_c)
    return theta_n, theta_c


def find_parent_optimization(
    child: DetectedModule,
    pool: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
    child_direction: str | None = None,
    child_theta: float | None = None,
) -> ParentMatch | None:
    """Pick the parent by minimizing the weighted pose metric.

    Enumerates neighbor, install directions, and the four connection
    angles; joint angles that influence the pair transform are solved in
    closed form within their joint limits, and the residual is the metric
    at the solved states.  A hypothesis whose bundle pair is misaligned is
    skipped.  The best candidate is accepted only when its residual stays
    within the configured threshold; exact residual ties resolve toward the
    lower marker id.
    """
    best: tuple[float, int, ParentMatch] | None = None
    for cand in neighbors(child, pool, db, cfg):
        pt = cand.module_type
        ct = child.module_type
        child_dirs = (
            (child_direction,) if child_direction is not None else ct.directions()
        )
        for d_p in pt.directions():
            if not pt.can_parent(d_p):
                continue
            for d_c in child_dirs:
                if not ct.can_child(d_c):
                    continue
                try:
                    model = _PairModel(cand, d_p, child, d_c, child_theta, cfg)
                except NonCollinearBundles:
                    # A misaligned bundle pair disqualifies this hypothesis only.
                    continue
                for angle in CONNECTION_ANGLES:
                    theta_n = theta_c = 0.0
                    if model.has_theta_n and model.has_theta_c:
                        theta_n, theta_c = _minimize_two(model, angle)
                    elif model.has_theta_n:
                        theta_n = _minimize_sinusoid(
                            lambda t: model.residual(angle, theta_n=t), model.limits_n
                        )
                    elif model.has_theta_c:
                        theta_c = _minimize_sinusoid(
                            lambda t: model.residual(angle, theta_c=t), model.limits_c
                        )
                    f_min = model.residual(angle, theta_n, theta_c)
                    if model.measured_parent_theta is not None:
                        reported = model.measured_parent_theta
                    elif model.has_theta_n:
                        reported = theta_n
                    else:
                        reported = None
                    match = ParentMatch(
                        cand, angle, d_p, d_c, theta=reported, f_value=f_min
                    )
                    key = (f_min, cand.record.master_marker_id)
                    if best is None or key < (best[0], best[1]):
                        best = (f_min, cand.record.master_marker_id, match)
    if best is None or best[0] > cfg.f_threshold:
        return None
    return best[2]


def _find_parent(
    child: DetectedModule,
    pool: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
    child_direction: str | None,
    child_theta: float | None,
) -> ParentMatch | None:
    if cfg.method == METHOD_OPTIMIZATION:
        return find_parent_optimization(
            child, pool, db, cfg, child_direction=child_direction, child_theta=child_theta
        )
    return find_parent_geometric(child, pool, db, cfg, child_direction=child_direction)


def _grow_branch(
    start: DetectedModule,
    detected: list[DetectedModule],
    db: ModuleDatabase,
    cfg: IdentifyConfig,
) -> tuple[list[ChainLink], set[str]]:
    """Walk from an end-effector toward the base.

    Returns the base-first links and the serials the walk claimed.
    """
    claimed = {start.serial}
    links_end_first: list[ChainLink] = []
    child = start
    child_direction: str | None = None
    child_theta: float | None = None
    solver_thetas: dict[str, float | None] = {}
    while True:
        pool = [m for m in detected if m.serial not in claimed]
        match = _find_parent(child, pool, db, cfg, child_direction, child_theta)
        if match is None:
            links_end_first.append(
                ChainLink(
                    module=child,
                    connection_angle=None,
                    direction=child_direction or UPRIGHT,
                    solver_theta=solver_thetas.get(child.serial),
                )
            )
            break
        links_end_first.append(
            ChainLink(
                module=child,
                connection_angle=match.connection_angle,
                direction=match.child_direction,
                solver_theta=solver_thetas.get(child.serial),
            )
        )
        parent = match.module
        claimed.add(parent.serial)
        solver_thetas[parent.serial] = match.theta
        child = parent
        child_direction = match.parent_direction
        child_theta = match.theta
    return list(reversed(links_end_first)), claimed


def _estimate_chain_angles(chain: IdentifiedChain, cfg: IdentifyConfig):
    links = chain.links
    for i, link in enumerate(links):
        if not link.module.module_type.is_joint:
            continue
        parent = links[i - 1].module if i > 0 else None
        child = links[i + 1].module if i + 1 < len(links) else None
        try:
            link.joint_angle = estimate_joint_angle(
                link.module, link.direction, parent, child, cfg
            )
        except (NonCollinearBundles, LimitExceeded, DegenerateGeometry) as exc:
            link.joint_angle = None
            chain.warnings.append(f"joint angle of {link.module.serial}: {exc}")


def build_chain(
    observations: list[MarkerObservation],
    db: ModuleDatabase,
    cfg: IdentifyConfig = IdentifyConfig(),
) -> IdentifiedChain:
    """Identify a single serial chain from a scene.

    Starts from the detected tool module with the lowest marker id, grows
    toward the base by repeated parent search, then estimates every joint
    angle.  Detected modules that never join the chain are rejected as
    orphans.
    """
    cfg.check_against(db)
    detected, rejected = validate_markers(observations, db)
    tools = [m for m in detected if m.module_type.is_tool]
    if not tools:
        raise NoToolModule("no tool module detected; cannot start chain construction")
    start = min(tools, key=lambda m: m.record.master_marker_id)
    links, claimed = _grow_branch(start, detected, db, cfg)
    for m in detected:
        if m.serial not in claimed:
            rejected.append((m.record.master_marker_id, REASON_ORPHAN))
    chain = IdentifiedChain(links=links, rejected_markers=rejected)
    _estimate_chain_angles(chain, cfg)
    return chain


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
    cfg.check_against(db)
    detected, rejected = validate_markers(observations, db)
    tools = sorted(
        (m for m in detected if m.module_type.is_tool),
        key=lambda m: m.record.master_marker_id,
    )
    if not tools:
        raise NoToolModule("no tool module detected; cannot start tree construction")
    branches: list[IdentifiedChain] = []
    claimed_anywhere: set[str] = set()
    for tool in tools:
        links, claimed = _grow_branch(tool, detected, db, cfg)
        claimed_anywhere |= claimed
        branches.append(IdentifiedChain(links=links, rejected_markers=[]))
    orphans = [
        (m.record.master_marker_id, REASON_ORPHAN)
        for m in detected
        if m.serial not in claimed_anywhere
    ]
    for branch in branches:
        branch.rejected_markers = list(rejected) + list(orphans)
        _estimate_chain_angles(branch, cfg)
    return branches


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
