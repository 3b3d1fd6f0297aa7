import math
import warnings
from dataclasses import FrozenInstanceError, replace
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chainforge import identify
from chainforge.descriptor import parse, serialize
from chainforge.geometry import (
    CONNECTION_ANGLES,
    Pose,
    axis_angle,
    compose,
    relative,
    rot_x,
    rot_y,
    rot_z,
    wrap_angle,
)
from chainforge.identify import (
    RESIDUAL_TIE,
    REASON_DUPLICATE,
    REASON_ORPHAN,
    REASON_UNKNOWN_MARKER,
    AmbiguousParent,
    DetectedModule,
    IdentifyConfig,
    IdentifyError,
    LimitExceeded,
    NonCollinearBundles,
    NoToolModule,
    build_chain,
    build_tree,
    connection_angle_between,
    constraint_check,
    estimate_joint_angle,
    find_parent_geometric,
    find_parent_optimization,
    neighbors,
    to_descriptor,
    validate_markers,
    _child_side,
    _connected_origins,
    _fit_joint,
    _origin_gaps,
    _PairModel,
    _parent_side,
)
from chainforge.module_db import INVERTED, UPRIGHT, default_database
from chainforge.synth import MarkerObservation, SceneConfig, synthesize

from helpers import (
    ReferencePairModel,
    from_translation,
    make_corpus,
    make_two_branch_scene,
    pose_distance,
    random_base,
    random_chain_case,
    random_two_tool_case,
    reference_bundle_twist,
    reference_connection_angle_between,
    reference_connection_transform,
    reference_find_parent_optimization,
    reference_fit_joint,
    reference_master_to_childward,
    reference_parentward_to_master,
)


def detected_by_serial(obs, db):
    detected, rejected = validate_markers(obs, db)
    return {d.serial: d for d in detected}, detected, rejected


def _detected(db, code: str, pose: Pose) -> DetectedModule:
    record = db.records_of_type(code)[0]
    return DetectedModule(record=record, module_type=db.types[code], master_pose=pose)


class TestIdentifyConfig:
    @pytest.mark.parametrize(
        "name, message",
        [
            ("epsilon1", "epsilon1 must be positive"),
            ("epsilon2", "epsilon2 must lie in"),
            ("f_threshold", "f_threshold must be non-negative"),
        ],
    )
    def test_nan_rejected(self, name, message):
        with pytest.raises(ValueError, match=message):
            IdentifyConfig(**{name: math.nan})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'x'"):
            IdentifyConfig(method="x")

    def test_epsilon1_checked_against_the_catalog(self, db):
        # The default catalog's largest pair bound is 150 mm.
        with pytest.raises(ValueError, match="well below the maximum connected distance"):
            build_chain(synthesize(parse("L-G0"), [], db), db, IdentifyConfig(epsilon1=80.0))


class TestValidateMarkers:
    def test_spurious_rejected(self, db):
        obs = synthesize(
            parse("I-T'0-T'0-A0-t0-i0-g0"),
            [0.0] * 5,
            db,
            cfg=SceneConfig(spurious_count=2, seed=5),
        )
        detected, rejected = validate_markers(obs, db)
        assert len(detected) == 7
        assert len(rejected) == 2
        assert all(reason == REASON_UNKNOWN_MARKER for _, reason in rejected)

    def test_empty(self, db):
        assert validate_markers([], db) == ([], [])

    def test_bundle_merge(self, db):
        obs = synthesize(parse("I-G0"), [30.0], db)
        detected, rejected = validate_markers(obs, db)
        assert rejected == []
        i_mod = next(d for d in detected if d.record.type_code == "I")
        assert i_mod.output_pose is not None

    def test_duplicate_keeps_first(self, db):
        pose_a = Pose.identity()
        pose_b = from_translation([50, 0, 0])
        obs = [MarkerObservation(50, pose_a), MarkerObservation(50, pose_b)]
        detected, rejected = validate_markers(obs, db)
        assert rejected == [(50, REASON_DUPLICATE)]
        assert detected[0].master_pose.approx_equal(pose_a)

    def test_output_without_master(self, db):
        obs = [MarkerObservation(1030, Pose.identity())]
        detected, rejected = validate_markers(obs, db)
        assert detected == []
        assert rejected == [(1030, "MissingMaster")]

    def test_output_seen_before_master(self, db):
        obs = synthesize(parse("I-i0-G0"), [30.0, -40.0], db)
        detected, rejected = validate_markers(list(reversed(obs)), db)
        assert rejected == []
        assert [d.serial for d in detected] == ["G-001", "i-001", "I-001"]
        for d in detected[1:]:
            assert d.output_pose is not None and d.twist is not None

    def test_records_are_frozen(self, db):
        chain = build_chain(synthesize(parse("I-G0"), [30.0], db), db)
        with pytest.raises(FrozenInstanceError):
            chain.links[0].module.output_pose = None
        with pytest.raises(FrozenInstanceError):
            chain.links[0].joint_angle = 0.0

    def test_bundles_measured_once_per_module(self, db, monkeypatch):
        # The optimization back end scores every hypothesis of a dual-bundle
        # neighbor, but reads the roll the module measured when it was built.
        measured = []
        measure = identify._bundle_twist
        monkeypatch.setattr(
            identify, "_bundle_twist", lambda m: measured.append(m.serial) or measure(m)
        )
        desc, canonical, thetas, base = next(
            case
            for case in make_corpus(db, 50, 20260808)
            if sum(e.type_code in "Ii" for e in case[0].entries) >= 2
        )
        obs = synthesize(desc, thetas, db, base=base)
        chain = build_chain(obs, db, IdentifyConfig(method="optimization"))
        assert serialize(to_descriptor(chain)) == canonical
        dual = [link.module.serial for link in chain.links if link.module.output_pose is not None]
        assert len(dual) >= 2
        assert sorted(measured) == sorted(dual)


class TestNeighbors:
    def test_middle_module_sees_both_ends(self, db):
        obs = synthesize(parse("L-l0-G0"), [], db)
        by, detected, _ = detected_by_serial(obs, db)
        middle = by["l-001"]
        found = neighbors(middle, detected, db, IdentifyConfig())
        assert {m.serial for m in found} == {"L-001", "G-001"}

    def test_empty_pool(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        assert neighbors(by["G-001"], [], db, IdentifyConfig()) == []

    def test_far_module_excluded(self, db):
        obs = synthesize(parse("L-l0-A0-g0"), [], db)
        by, detected, _ = detected_by_serial(obs, db)
        found = neighbors(by["g-001"], detected, db, IdentifyConfig())
        assert "L-001" not in {m.serial for m in found}


class TestConstraintCheck:
    def test_link_parents_gripper(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        result = constraint_check(by["L-001"], by["G-001"], db, IdentifyConfig(), UPRIGHT)
        assert result.satisfied
        assert result.parent_direction == UPRIGHT

    def test_reversed_pair_reads_as_inverted(self, db):
        # Viewed from the other end the same geometry is a valid inverted
        # base gripper carrying an inverted link: the chain is readable in
        # both directions, exactly like the bi-directional climbing robot.
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        result = constraint_check(by["G-001"], by["L-001"], db, IdentifyConfig(), INVERTED)
        assert result.satisfied
        assert result.parent_direction == INVERTED

    def test_perpendicular_offset_fails_collinearity(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        child = replace(child, master_pose=Pose(
            child.master_pose.rotation, child.master_pose.translation + [80.0, -100.0, 0.0]
        ))
        result = constraint_check(by["L-001"], child, db, IdentifyConfig(), UPRIGHT)
        assert not result.satisfied

    def test_distance_gate(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        child = replace(child, master_pose=Pose(
            child.master_pose.rotation, child.master_pose.translation + [0.0, 30.0, 0.0]
        ))
        result = constraint_check(by["L-001"], child, db, IdentifyConfig(), UPRIGHT)
        assert not result.satisfied
        assert result.reason == "distance"

    def test_known_child_direction_mismatch(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        result = constraint_check(
            by["L-001"], by["G-001"], db, IdentifyConfig(), child_direction=INVERTED
        )
        assert not result.satisfied

    def test_inverted_tool_is_no_child(self, db):
        # Read from its end, G'-L0-G0 reaches the inverted base gripper; its
        # one connector faces its child, so nothing can be its parent.
        obs = synthesize(parse("G'-L0-G0"), [], db, assignment=["G-002", "L-001", "G-001"])
        by, _, _ = detected_by_serial(obs, db)
        result = constraint_check(by["L-001"], by["G-002"], db, IdentifyConfig(), INVERTED)
        assert not result.satisfied
        assert result.reason == "child cannot be installed this way"

    def test_coincident_candidate_rejected(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        decoy = _detected(db, "T", child.master_pose)
        result = constraint_check(decoy, child, db, IdentifyConfig(), UPRIGHT)
        assert not result.satisfied
        assert result.reason == "coincident origins"


class TestFindParentGeometric:
    def test_paper_chain_gripper_parent(self, db):
        obs = synthesize(parse("I-T'0-T'0-A0-t0-i0-g0"), [15.0, -40.0, 55.0, 20.0, -40.0], db)
        by, detected, _ = detected_by_serial(obs, db)
        child = by["g-001"]
        pool = [d for d in detected if d is not child]
        match = find_parent_geometric(child, pool, db, IdentifyConfig(), UPRIGHT)
        assert match.module.serial == "i-001"
        assert match.connection_angle == 0.0
        assert match.parent_direction == UPRIGHT

    def test_no_neighbors(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        assert find_parent_geometric(by["G-001"], [], db, IdentifyConfig(), UPRIGHT) is None

    def test_overlapping_clone_chains_ambiguous(self, db):
        base_b = from_translation([1.0, 0.0, 0.0])
        obs = synthesize(parse("L-g0"), [], db, assignment=["L-001", "g-001"])
        obs += synthesize(
            parse("L-g0"), [], db, base=base_b, assignment=["L-002", "g-002"]
        )
        by, detected, _ = detected_by_serial(obs, db)
        child = by["g-001"]
        pool = [d for d in detected if d is not child]
        with pytest.raises(AmbiguousParent) as exc:
            find_parent_geometric(child, pool, db, IdentifyConfig(), UPRIGHT)
        assert set(exc.value.candidate_serials) == {"L-001", "L-002"}


class TestFindParentOptimization:
    def test_residual_zero_at_truth(self, db):
        obs = synthesize(parse("I-T'0-T'0-A0-t0-i0-g0"), [15.0, -40.0, 55.0, 20.0, -40.0], db)
        by, detected, _ = detected_by_serial(obs, db)
        child = by["g-001"]
        pool = [d for d in detected if d is not child]
        match = find_parent_optimization(child, pool, db, IdentifyConfig(), UPRIGHT)
        assert match.module.serial == "i-001"
        assert match.connection_angle == 0.0
        assert match.f_value == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_geometric(self, db):
        rng = np.random.default_rng(21)
        cfg = IdentifyConfig()
        for _ in range(10):
            desc, thetas, base = random_chain_case(rng, db)
            obs = synthesize(desc, thetas, db, base=base)
            by, detected, _ = detected_by_serial(obs, db)
            tools = sorted(
                (d for d in detected if d.module_type.is_tool),
                key=lambda d: d.record.master_marker_id,
            )
            child = tools[0]
            pool = [d for d in detected if d is not child]
            geo = find_parent_geometric(child, pool, db, cfg, UPRIGHT)
            opt = find_parent_optimization(child, pool, db, cfg, UPRIGHT)
            assert geo.module.serial == opt.module.serial
            assert geo.connection_angle == opt.connection_angle

    def test_not_found_on_far_candidates(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        far = by["L-001"]
        far = replace(far, master_pose=from_translation([0.0, 500.0, 0.0]))
        assert find_parent_optimization(child, [far], db, IdentifyConfig(), UPRIGHT) is None

    def test_perpendicular_parent_theta(self, db):
        obs = synthesize(parse("T-G0"), [33.0], db)
        by, detected, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        match = find_parent_optimization(child, [by["T-001"]], db, IdentifyConfig(), UPRIGHT)
        assert match.theta == pytest.approx(33.0, abs=1e-3)

    def test_misaligned_bundles_reject_one_hypothesis(self, db):
        # A nearby collinear joint whose bundles disagree on the joint axis
        # drops out of the search; the true parent is still found.
        obs = synthesize(parse("T-G0"), [33.0], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        decoy = _detected(
            db, "I", from_translation(child.origin + np.array([0.0, 0.0, 60.0]))
        )
        decoy = replace(decoy, output_pose=Pose.from_rotation(rot_x(30.0)))
        assert decoy in neighbors(child, [decoy], db, IdentifyConfig())
        match = find_parent_optimization(
            child, [decoy, by["T-001"]], db, IdentifyConfig(), UPRIGHT
        )
        assert match.module.serial == "T-001"
        assert match.theta == pytest.approx(33.0, abs=1e-9)

    def test_inverted_tool_child_has_no_hypotheses(self, db):
        obs = synthesize(parse("G'-L0-G0"), [], db, assignment=["G-002", "L-001", "G-001"])
        by, _, _ = detected_by_serial(obs, db)
        cfg = IdentifyConfig()
        assert find_parent_optimization(by["G-002"], [by["L-001"]], db, cfg, INVERTED) is None
        chain = build_chain(obs, db, replace(cfg, method="optimization"))
        assert serialize(to_descriptor(chain)) == "G'-L0-G0"

    def test_misaligned_child_bundles_have_no_hypotheses(self, db):
        # An inverted collinear child enters the pair by its measured roll;
        # bundles that disagree on the joint axis leave nothing to score.
        obs = synthesize(parse("L-I'0-G0"), [20.0], db)
        by, _, _ = detected_by_serial(obs, db)
        child, cfg = by["I-001"], IdentifyConfig()
        match = find_parent_optimization(child, [by["L-001"]], db, cfg, INVERTED)
        assert match.module.serial == "L-001"
        skewed = compose(child.output_pose, Pose.from_rotation(rot_x(30.0)))
        child = replace(child, output_pose=skewed)
        assert find_parent_optimization(child, [by["L-001"]], db, cfg, INVERTED) is None

    def test_local_optimality_certificate(self, db):
        # The returned residual is a local minimum: nudging the solved joint
        # state by one degree or switching the connection angle never improves.
        obs = synthesize(parse("T-g90"), [47.0], db)
        by, detected, _ = detected_by_serial(obs, db)
        child = by["g-001"]
        cfg = IdentifyConfig()
        match = find_parent_optimization(child, [by["T-001"]], db, cfg, UPRIGHT)
        model = _pair_model(match.module, match.parent_direction, child, UPRIGHT)
        k = CONNECTION_ANGLES.index(match.connection_angle)

        def f(theta_n):
            return model.residual(np.full(4, theta_n), np.zeros(4))

        best = f(match.theta)[k]
        assert best == pytest.approx(match.f_value, abs=1e-9)
        for delta in (-1.0, 1.0):
            assert f(match.theta + delta)[k] >= best
        for j, angle in enumerate(CONNECTION_ANGLES):
            if angle != match.connection_angle:
                assert f(match.theta)[j] >= best

    @pytest.mark.parametrize("theta", [30.0, 60.0, -60.0, 150.0, -170.0])
    def test_unobservable_roll_goes_to_the_connection_angle(self, db, theta):
        # Without its output bundle, an upright collinear parent shows only
        # its roll plus the connection angle; the four hypotheses tie, and
        # the back ends agree on absorbing the roll into the connection angle.
        obs = synthesize(parse("I-G0"), [theta], db)
        output_marker = db.records_of_type("I")[0].output_marker_id
        obs = [o for o in obs if o.marker_id != output_marker]
        by, detected, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        cfg = IdentifyConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            geo = find_parent_geometric(child, [by["I-001"]], db, cfg, UPRIGHT)
        opt = find_parent_optimization(child, [by["I-001"]], db, cfg, UPRIGHT)
        assert opt.connection_angle == geo.connection_angle
        assert abs(wrap_angle(opt.theta)) <= 45.0
        assert opt.f_value == pytest.approx(0.0, abs=1e-9)


def _pair_model(parent, parent_dir, child, child_dir, cfg=IdentifyConfig()) -> _PairModel:
    """One hypothesis's model, built the way find_parent_optimization builds it."""
    parent_side, _ = _parent_side(parent, parent_dir, cfg.epsilon2)
    child_side = _child_side(child, child_dir, None, cfg.epsilon2)
    observed = relative(parent.master_pose, child.master_pose).matrix()
    return _PairModel(parent_side, child_side, observed, cfg.weights)


def _joint_rotation(module_type, t):
    return rot_y(t) if module_type.is_collinear_joint else rot_z(t)


def _inner(r, h):
    """<R, H[k]> for every layer k of a stack H."""
    return np.einsum("ij,kij->k", r, h)


class TestClosedFormFit:
    # Every (type, install direction) that can take each side of a pair, so
    # that drawing them needs no filtering.
    _TYPES = default_database().types.values()
    PARENT_SIDES = [(t.code, d) for t in _TYPES for d in t.parent_directions]
    CHILD_SIDES = [(t.code, d) for t in _TYPES for d in t.child_directions]

    @given(
        parent_side=st.sampled_from(PARENT_SIDES),
        child_side=st.sampled_from(CHILD_SIDES),
        seed=st.integers(0, 2**32 - 1),
        theta_n=st.lists(st.floats(-360.0, 360.0), min_size=4, max_size=4),
        theta_c=st.lists(st.floats(-360.0, 360.0), min_size=4, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_matches_pose_distance(
        self, db, parent_side, child_side, seed, theta_n, theta_c
    ):
        # Layer k of the stacked residual is the weighted pose metric of the
        # pair transform composed from the catalog at the k-th connection
        # angle and the k-th joint states.
        (parent_code, parent_dir), (child_code, child_dir) = parent_side, child_side
        rng = np.random.default_rng(seed)
        parent = _detected(db, parent_code, random_base(rng))
        child = _detected(db, child_code, random_base(rng))
        cfg = IdentifyConfig()
        got = _pair_model(parent, parent_dir, child, child_dir).residual(
            np.array(theta_n), np.array(theta_c)
        )
        observed = relative(parent.master_pose, child.master_pose)
        pt, ct = parent.module_type, child.module_type
        for k, angle in enumerate(CONNECTION_ANGLES):
            parent_factor = reference_master_to_childward(pt, parent_dir, theta_n[k])
            modeled = compose(
                compose(parent_factor, reference_connection_transform(angle)),
                reference_parentward_to_master(ct, child_dir, theta_c[k]),
            )
            expected = pose_distance(modeled, observed, cfg.weights)
            assert got[k] == pytest.approx(expected, rel=1e-12)

    @given(
        parent_side=st.sampled_from(PARENT_SIDES),
        child_side=st.sampled_from(CHILD_SIDES),
        seed=st.integers(0, 2**32 - 1),
        other=st.floats(-180.0, 180.0),
        probes=st.lists(st.floats(-360.0, 360.0), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_squared_residual_is_a_sinusoid(
        self, db, parent_side, child_side, seed, other, probes
    ):
        # The squared metric in one free joint state t is const - 2<R(t), H>
        # with H the model's cross-covariance, at every connection angle.
        # Holds for any observed transform, so the two module poses are drawn
        # independently; no output bundle is seen, so collinear joints stay free.
        (parent_code, parent_dir), (child_code, child_dir) = parent_side, child_side
        rng = np.random.default_rng(seed)
        parent = _detected(db, parent_code, random_base(rng))
        child = _detected(db, child_code, random_base(rng))
        model = _pair_model(parent, parent_dir, child, child_dir)
        assume(model.parent.axis is not None or model.child.axis is not None)
        pt, ct = parent.module_type, child.module_type
        held = np.full(4, other)
        observed = relative(parent.master_pose, child.master_pose).translation
        w_t = IdentifyConfig().weights.w_t

        def position_metric(t):
            # Translation part of the metric, composed from the catalog.
            return np.array([
                w_t**2 * float(np.sum((compose(
                    compose(
                        reference_master_to_childward(pt, parent_dir, t),
                        reference_connection_transform(a),
                    ),
                    reference_parentward_to_master(ct, child_dir, other),
                ).translation - observed) ** 2))
                for a in CONNECTION_ANGLES
            ])

        free = []
        if model.parent.axis is not None:
            free.append((
                pt,
                lambda t: model.residual(np.full(4, t), held) ** 2,
                model.parent_cross(held),
            ))
            free.append((pt, position_metric, model.parent_cross(held, position_only=True)))
        if model.child.axis is not None:
            free.append((
                ct,
                lambda t: model.residual(held, np.full(4, t)) ** 2,
                model.child_cross(held),
            ))
        for module_type, g, h in free:
            const = g(0.0) + 2.0 * _inner(np.eye(3), h)
            mean = (g(0.0) + g(180.0)) / 2.0
            for t in probes:
                predicted = const - 2.0 * _inner(_joint_rotation(module_type, t), h)
                for k in range(4):
                    assert g(t)[k] == pytest.approx(predicted[k], rel=1e-9, abs=1e-9 * mean[k])

    @given(
        code=st.sampled_from(("I", "T")),
        a_excess=st.floats(0.0, 10.0),
        amplitude=st.floats(0.0, 10.0),
        phase=st.floats(-180.0, 180.0),
        lo=st.floats(-540.0, 300.0),
        width=st.floats(1.0, 400.0),
    )
    @example(code="T", a_excess=0.0, amplitude=5e-324, phase=151.0, lo=5e-324, width=1.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_scan_of_sinusoids(
        self, db, code, a_excess, amplitude, phase, lo, width
    ):
        # f(t)^2 = a_excess + amplitude (1 + cos(t - phase)) written in the
        # H-form const - 2 (p cos t + q sin t) about a collinear (I, y) or
        # perpendicular (T, z) joint axis.
        def f(t):
            return math.sqrt(a_excess + amplitude * (1.0 + math.cos(math.radians(t - phase))))

        module_type = db.types[code]

        def r(t):
            return _joint_rotation(module_type, t)

        p = -amplitude * math.cos(math.radians(phase)) / 2.0
        q = -amplitude * math.sin(math.radians(phase)) / 2.0
        # <R(t), R(0) - R(180)> = 4 cos t and <R(t), R(90) - R(-90)> = 4 sin t.
        h = (p * (r(0.0) - r(180.0)) + q * (r(90.0) - r(-90.0))) / 4.0
        limits = (lo, lo + width)
        theta = float(_fit_joint(1 if code == "I" else 2, h[None], limits)[0])
        assert limits[0] <= theta <= limits[1]
        scan = np.append(np.arange(limits[0], limits[1], 0.01), limits[1])
        g_scan = a_excess + amplitude * (1.0 + np.cos(np.radians(scan - phase)))
        assert f(theta) ** 2 <= float(g_scan.min()) + 1e-9

    @pytest.mark.parametrize(
        "limits, expected",
        [
            ((-120.0, 120.0), 33.0),  # interior minimum
            ((40.0, 100.0), 40.0),  # limits above the minimum: lower endpoint
            ((-100.0, 20.0), 20.0),  # limits below the minimum: upper endpoint
            ((150.0, 400.0), 393.0),  # limits past 180 hold the minimum one turn on
        ],
    )
    def test_matches_dense_scan_of_pair_residual(self, db, limits, expected):
        obs = synthesize(parse("T-g90"), [33.0], db)
        by, _, _ = detected_by_serial(obs, db)
        model = _pair_model(by["T-001"], UPRIGHT, by["g-001"], UPRIGHT)
        k = CONNECTION_ANGLES.index(90.0)
        zero = np.zeros(4)

        def f(t):
            return model.residual(np.full(4, t), zero)[k]

        theta = float(_fit_joint(model.parent.axis, model.parent_cross(zero), limits)[k])
        scan = np.append(np.arange(limits[0], limits[1], 0.01), limits[1])
        values = [f(t) for t in scan]
        best = int(np.argmin(values))
        assert theta == pytest.approx(expected, abs=1e-9)
        assert abs(theta - scan[best]) <= 0.01
        assert f(theta) <= values[best] + 1e-12

    def test_solved_states_exact_on_corpus_slice(self, db):
        # Closed-form fits recover every solved joint state to round-off on
        # the first 50 scenes of the criterion-2 corpus.
        cfg = IdentifyConfig(method="optimization")
        solved = 0
        max_err = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for desc, _canonical, thetas, base in make_corpus(db, 50, 20260808):
                chain = build_chain(synthesize(desc, thetas, db, base=base), db, cfg)
                joint_thetas = iter(thetas)
                truth = {
                    link.module.serial: next(joint_thetas)
                    for entry, link in zip(desc.entries, chain.links)
                    if db.types[entry.type_code].is_joint
                }
                for link in chain.links:
                    if link.solver_theta is not None:
                        solved += 1
                        err = abs(wrap_angle(link.solver_theta - truth[link.module.serial]))
                        max_err = max(max_err, err)
        assert solved > 50
        assert max_err <= 1e-9


def _match_fields(match):
    """Every ParentMatch field, the floats by their bits."""
    if match is None:
        return None
    bits = [None if v is None else (type(v), float(v).hex()) for v in (match.theta, match.f_value)]
    return (
        match.module.serial,
        match.connection_angle,
        match.parent_direction,
        *bits,
    )


def _recorded_searches(db, scenes) -> list[tuple]:
    """The arguments of every parent search that chain building runs on the scenes,
    with both back ends (the geometric one searches to adjudicate)."""
    calls = []
    search = identify.find_parent_optimization

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return search(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(identify, "find_parent_optimization", record)
        warnings.simplefilter("ignore")
        for obs in scenes:
            for method in ("geometric", "optimization"):
                try:
                    build_chain(obs, db, IdentifyConfig(method=method))
                except IdentifyError:
                    pass
    return calls


class TestParentSearchOracle:
    """find_parent_optimization returns what the per-angle reference in helpers does."""

    def _assert_matches_reference(self, db, scenes) -> int:
        calls = _recorded_searches(db, scenes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for args, kwargs in calls:
                got = find_parent_optimization(*args, **kwargs)
                want = reference_find_parent_optimization(*args, **kwargs)
                assert _match_fields(got) == _match_fields(want)
                assert got is None or got.module is want.module
        return len(calls)

    def test_corpus_and_noise_rows(self, db):
        scenes = [
            synthesize(desc, thetas, db, base=base)
            for desc, _, thetas, base in make_corpus(db, 100, 20260808)
        ]
        # One draw of each criterion-4 noise row, and the dropout draws whose
        # unobservable roll makes hypotheses tie.
        rng = np.random.default_rng(4242)
        draws = [
            [float(rng.uniform(-0.7, 0.7) * hi) for hi in (180.0, 120.0, 120.0, 120.0, 180.0)]
            for _ in range(39)
        ]
        desc = parse("I-T'0-T'0-A0-t0-i0-g0")
        rows = [(2.0, 3, 0.0, 0), (4.0, 3, 0.0, 0), (6.0, 3, 0.0, 0)]
        rows += [(2.0, 0, 0.05, k) for k in (0, 8, 38)]
        for sigma, spurious, dropout, k in rows:
            cfg = SceneConfig(
                sigma_pos=sigma,
                sigma_rot=sigma,
                dropout_prob=dropout,
                spurious_count=spurious,
                seed=9000 + k,
            )
            scenes.append(synthesize(desc, draws[k], db, cfg=cfg))
        assert self._assert_matches_reference(db, scenes) > 500

    @pytest.mark.parametrize("theta", [45.0, -135.0, 30.0, 150.0, -170.0])
    def test_roll_ties(self, db, theta):
        # Without its output bundle an upright collinear parent fits every
        # connection angle exactly; the smallest roll, then the earlier
        # hypothesis, decides.
        obs = synthesize(parse("I-G0"), [theta], db)
        output_marker = db.records_of_type("I")[0].output_marker_id
        obs = [o for o in obs if o.marker_id != output_marker]
        by, _, _ = detected_by_serial(obs, db)
        cfg = IdentifyConfig()
        got = find_parent_optimization(by["G-001"], [by["I-001"]], db, cfg, UPRIGHT)
        want = reference_find_parent_optimization(by["G-001"], [by["I-001"]], db, cfg, UPRIGHT)
        assert _match_fields(got) == _match_fields(want)

    def test_exact_residual_tie_goes_to_the_lower_marker_id(self, db):
        # A second link observed at the parent's exact pose fits bit for bit
        # as well; whichever comes first in the pool, marker 70 wins.
        obs = synthesize(parse("L-G0"), [], db, base=random_base(np.random.default_rng(5)))
        parent = next(o for o in obs if o.marker_id == 70)
        obs.append(MarkerObservation(71, parent.pose))
        by, _, _ = detected_by_serial(obs, db)
        child, cfg = by["G-001"], IdentifyConfig()
        alone = [
            find_parent_optimization(child, [by[serial]], db, cfg, UPRIGHT)
            for serial in ("L-001", "L-002")
        ]
        assert alone[0].f_value == alone[1].f_value
        for pool in ([by["L-001"], by["L-002"]], [by["L-002"], by["L-001"]]):
            got = find_parent_optimization(child, pool, db, cfg, UPRIGHT)
            want = reference_find_parent_optimization(child, pool, db, cfg, UPRIGHT)
            assert got.module.serial == "L-001"
            assert _match_fields(got) == _match_fields(want)

    @given(
        axis=st.sampled_from([1, 2]),
        h=st.lists(
            st.floats(-1e3, 1e3, allow_subnormal=False), min_size=4 * 16, max_size=4 * 16
        ),
        layers=st.integers(1, 4),
        offset=st.floats(-2.0, 2.0),
        span=st.floats(0.0, 360.0),
    )
    # A state of -0.0 under a zero shift keeps its sign, as numpy's sum does.
    @example(axis=2, h=[0.0] * 20 + [-0.0] + [0.0] * 43, layers=2, offset=0.0, span=1.0)
    @settings(max_examples=200, deadline=None)
    def test_fit_joint_matches_endpoint_form(self, axis, h, layers, offset, span):
        # The upper limit lies near the highest peak, so that the solved
        # states fall on both sides of it.
        h = np.array(h).reshape(4, 4, 4)[:layers]
        hi = float(reference_fit_joint(axis, h, (-180.0, 180.0)).max()) + offset
        limits = (hi - span, hi)
        got = _fit_joint(axis, h, limits)
        assert got.tobytes() == reference_fit_joint(axis, h, limits).tobytes()


def _corpus_and_noise_rows(db, corpus_size: int, draws: int) -> list:
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


def _hypotheses(child, pool, db, cfg, child_direction, child_theta=None) -> list[tuple]:
    """(candidate, parent side, child side) of every hypothesis a search enumerates."""
    if child_direction not in child.module_type.child_directions:
        return []
    try:
        child_side = _child_side(child, child_direction, child_theta, cfg.epsilon2)
    except NonCollinearBundles:
        return []
    found = []
    for cand in neighbors(child, pool, db, cfg):
        for d_p in cand.module_type.parent_directions:
            try:
                parent_side, _ = _parent_side(cand, d_p, cfg.epsilon2)
            except NonCollinearBundles:
                continue
            found.append((cand, parent_side, child_side))
    return found


class _CountedPairModel(_PairModel):
    built = 0

    def __init__(self, *args):
        type(self).built += 1
        super().__init__(*args)


class TestReachTest:
    """A hypothesis whose modeled child origin stays out of reach of the observed
    one is skipped before its pair model is built."""

    _TYPES = default_database().types.values()
    PARENT_KINDS = {
        "fixed": [
            (t.code, d) for t in _TYPES for d in t.parent_directions
            if not (t.is_joint and d == UPRIGHT)
        ],
        "free-y": [(t.code, UPRIGHT) for t in _TYPES if t.is_collinear_joint],
        "free-z": [(t.code, UPRIGHT) for t in _TYPES if t.is_perpendicular_joint],
        "bundle-measured": [(t.code, UPRIGHT) for t in _TYPES if t.is_collinear_joint],
    }
    CHILD_KINDS = {
        "fixed": [
            (t.code, d) for t in _TYPES for d in t.child_directions
            if not (t.is_joint and d == INVERTED)
        ],
        "free": [(t.code, INVERTED) for t in _TYPES if t.is_joint],
        "measured-theta": [(t.code, INVERTED) for t in _TYPES if t.is_joint],
    }

    @pytest.mark.parametrize("parent_kind", PARENT_KINDS)
    @pytest.mark.parametrize("child_kind", CHILD_KINDS)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        near=st.booleans(),
        states=st.lists(st.floats(-360.0, 360.0), min_size=11, max_size=11),
        offset=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_gap_never_exceeds_the_residual(
        self, db, parent_kind, child_kind, data, seed, near, states, offset
    ):
        # Far poses are drawn independently; near ones put the child at the
        # modeled pose of one connection angle and joint state, moved by an
        # offset, where the bound is tight for a fixed parent.
        parent_code, parent_dir = data.draw(st.sampled_from(self.PARENT_KINDS[parent_kind]))
        child_code, child_dir = data.draw(st.sampled_from(self.CHILD_KINDS[child_kind]))
        k0 = data.draw(st.integers(0, 3))
        rng = np.random.default_rng(seed)
        cfg = IdentifyConfig()
        parent_pose = random_base(rng)
        output = None
        if parent_kind == "bundle-measured":
            bundle = Pose(rot_y(states[8]) @ rot_x(states[9] / 72.0), rng.uniform(-50, 50, 3))
            output = compose(parent_pose, bundle)
        parent = DetectedModule(
            db.records_of_type(parent_code)[0], db.types[parent_code], parent_pose, output
        )
        child_theta = states[10] / 2.0 if child_kind == "measured-theta" else None
        child = _detected(db, child_code, random_base(rng))
        parent_side, _ = _parent_side(parent, parent_dir, cfg.epsilon2)
        child_side = _child_side(child, child_dir, child_theta, cfg.epsilon2)
        assert (parent_side.axis is None) == (parent_kind in ("fixed", "bundle-measured"))
        assert (child_side.axis is None) == (child_kind != "free")
        theta_n, theta_c = np.array(states[:4]), np.array(states[4:8])
        if near:
            modeled = _PairModel(parent_side, child_side, np.eye(4), cfg.weights)
            m = modeled._stack(theta_n, theta_c)[k0]
            pose = Pose(m[:3, :3], m[:3, 3] + offset)
            child = _detected(db, child_code, compose(parent_pose, pose))
        observed = relative(parent.master_pose, child.master_pose).matrix()
        model = _PairModel(parent_side, child_side, observed, cfg.weights)
        gaps = np.array(_origin_gaps(parent_side, _connected_origins(child_side), parent, child))
        w_t = cfg.weights.w_t
        assert (w_t * gaps <= model.residual(theta_n, theta_c)).all()
        assert (w_t * gaps <= model.residual(*model.solve())).all()
        if near and parent_kind in ("fixed", "bundle-measured"):
            assert gaps[k0] == pytest.approx(math.hypot(*offset), abs=1e-5)

    def test_skipped_hypotheses_cannot_be_accepted(self, db, monkeypatch):
        # Every hypothesis the search skips has a reference residual above
        # f_threshold + RESIDUAL_TIE at all four connection angles; the others
        # each build one pair model, and with no threshold all of them do.
        calls = _recorded_searches(db, _corpus_and_noise_rows(db, 100, 3))
        monkeypatch.setattr(identify, "_PairModel", _CountedPairModel)
        skipped = total = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for args, kwargs in calls:
                child, _, _, cfg, *_ = args
                reach = cfg.f_threshold + RESIDUAL_TIE
                hypotheses = _hypotheses(*args, **kwargs)
                kept = 0
                for cand, parent_side, child_side in hypotheses:
                    cq = _connected_origins(child_side)
                    gaps = _origin_gaps(parent_side, cq, cand, child)
                    if cfg.weights.w_t * min(gaps) <= reach:
                        kept += 1
                        continue
                    observed = relative(cand.master_pose, child.master_pose).matrix()
                    model = ReferencePairModel(parent_side, child_side, observed, cfg.weights)
                    assert (model.residual(*model.solve()) > reach).all()
                    skipped += 1
                total += len(hypotheses)
                _CountedPairModel.built = 0
                find_parent_optimization(*args, **kwargs)
                assert _CountedPairModel.built == kept
                unbounded = list(args)
                unbounded[3] = replace(cfg, f_threshold=math.inf)
                _CountedPairModel.built = 0
                find_parent_optimization(*unbounded, **kwargs)
                assert _CountedPairModel.built == len(hypotheses)
        assert len(calls) > 500
        assert 0.3 * total < skipped < total


def test_zero_tilt_reads_zero(db):
    # Every seen bundle pair of the zero-noise acceptance corpus is untilted,
    # and the tilt reads so to within rounding, not to the 1e-6 degrees an
    # arccos of the trace can leave.
    twists = 0
    for desc, _, thetas, base in make_corpus(db, 500, 20260808):
        detected, _ = validate_markers(synthesize(desc, thetas, db, base=base), db)
        for module in detected:
            if module.twist is not None:
                assert module.twist[1] < 1e-12
                twists += 1
    assert twists > 500


def test_link_scalars_match_numpy_reference(db):
    # On every link that either back end finds, the float connection angle
    # is the numpy one; every seen bundle pair has the same roll, bit for
    # bit, and the same tilt within 1e-12 degrees.
    links = twists = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for obs in _corpus_and_noise_rows(db, 500, 100):
            detected, _ = validate_markers(obs, db)
            for module in detected:
                if module.bundle is not None:
                    roll, tilt = module.twist
                    ref_roll, ref_tilt = reference_bundle_twist(module)
                    assert roll.hex() == ref_roll.hex()
                    assert abs(tilt - ref_tilt) <= 1e-12
                    twists += 1
            for method in ("geometric", "optimization"):
                try:
                    chain = build_chain(obs, db, IdentifyConfig(method=method))
                except IdentifyError:
                    continue
                for parent, child in pairwise(chain.links):
                    args = (parent.module, parent.direction, child.module, child.direction)
                    assert connection_angle_between(*args) == reference_connection_angle_between(
                        *args
                    )
                    links += 1
    assert links > 5000 and twists > 1000


class TestEstimateJointAngle:
    def test_collinear_joint_from_bundles(self, db):
        obs = synthesize(parse("I-G0"), [37.0], db)
        by, _, _ = detected_by_serial(obs, db)
        theta = estimate_joint_angle(by["I-001"], UPRIGHT, None, by["G-001"], IdentifyConfig())
        assert theta == pytest.approx(37.0, abs=1e-6)

    def test_zero_everywhere(self, db):
        obs = synthesize(parse("I-T0-G0"), [0.0, 0.0], db)
        chain = build_chain(obs, db)
        for link in chain.links:
            if link.module.module_type.is_joint:
                assert link.joint_angle == pytest.approx(0.0, abs=1e-6)

    def test_perpendicular_urpight_uses_child(self, db):
        obs = synthesize(parse("T-G0"), [41.0], db)
        by, _, _ = detected_by_serial(obs, db)
        theta = estimate_joint_angle(by["T-001"], UPRIGHT, None, by["G-001"], IdentifyConfig())
        assert theta == pytest.approx(41.0, abs=1e-6)

    def test_perpendicular_inverted_uses_parent(self, db):
        obs = synthesize(parse("L-T'0-G0"), [-28.0], db)
        by, _, _ = detected_by_serial(obs, db)
        theta = estimate_joint_angle(
            by["T-001"], INVERTED, by["L-001"], by["G-001"], IdentifyConfig()
        )
        assert theta == pytest.approx(-28.0, abs=1e-6)

    def test_non_joint_rejected(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        with pytest.raises(ValueError):
            estimate_joint_angle(by["L-001"], UPRIGHT, None, by["G-001"], IdentifyConfig())

    def test_non_collinear_bundles(self, db):
        obs = synthesize(parse("I-G0"), [10.0], db)
        by, _, _ = detected_by_serial(obs, db)
        module = by["I-001"]
        module = replace(
            module, output_pose=compose(module.output_pose, Pose.from_rotation(rot_x(30.0)))
        )
        with pytest.raises(NonCollinearBundles):
            estimate_joint_angle(module, UPRIGHT, None, by["G-001"], IdentifyConfig())

    def test_missing_bundle(self, db):
        obs = synthesize(parse("I-G0"), [10.0], db)
        by, _, _ = detected_by_serial(obs, db)
        module = by["I-001"]
        module = replace(module, output_pose=None)
        with pytest.raises(NonCollinearBundles):
            estimate_joint_angle(module, UPRIGHT, None, by["G-001"], IdentifyConfig())

    def test_limit_handling(self, db):
        obs = synthesize(parse("T-G0"), [119.0], db)
        by, _, _ = detected_by_serial(obs, db)
        t_mod = by["T-001"]
        g_mod = by["G-001"]
        # Push the observed child direction slightly past the limit: clamped.
        spun = compose(t_mod.master_pose, Pose.from_rotation(axis_angle([0, 0, 1], 2.0)))
        g_mod = replace(g_mod, master_pose=Pose(
            g_mod.master_pose.rotation,
            t_mod.master_pose.translation
            + spun.rotation @ (g_mod.master_pose.translation - t_mod.master_pose.translation),
        ))
        # ~121 degrees: within the 2 degree slack, clamps with a warning.
        with pytest.warns(UserWarning, match="clamped"):
            theta = estimate_joint_angle(t_mod, UPRIGHT, None, g_mod, IdentifyConfig())
        assert theta == pytest.approx(120.0)

    def test_limit_exceeded(self, db):
        obs = synthesize(parse("T-G0"), [0.0], db)
        by, _, _ = detected_by_serial(obs, db)
        t_mod = by["T-001"]
        g_mod = by["G-001"]
        g_mod = replace(g_mod, master_pose=Pose(
            g_mod.master_pose.rotation,
            t_mod.master_pose.translation + np.array([0.0, -100.0, 0.0]),
        ))
        with pytest.raises(LimitExceeded):
            estimate_joint_angle(t_mod, UPRIGHT, None, g_mod, IdentifyConfig())


class TestBuildChain:
    def test_single_tool(self, db):
        obs = synthesize(parse("G"), [], db)
        chain = build_chain(obs, db)
        assert len(chain.links) == 1
        assert chain.links[0].direction == UPRIGHT
        assert serialize(to_descriptor(chain)) == "G"

    def test_no_tool(self, db):
        obs = synthesize(parse("L-l0-A0"), [], db)
        # Drop the rule that a chain must end in a tool by synthesizing a
        # tool-free fragment: identification must refuse it.
        with pytest.raises(NoToolModule):
            build_chain(obs, db)

    def test_spurious_markers_do_not_change_chain(self, db):
        desc = parse("I-T'0-T'0-A0-t0-i0-g0")
        thetas = [15.0, -40.0, 55.0, 20.0, -40.0]
        clean = build_chain(synthesize(desc, thetas, db), db)
        noisy = build_chain(
            synthesize(desc, thetas, db, cfg=SceneConfig(spurious_count=3, seed=17)),
            db,
        )
        assert [l.module.serial for l in clean.links] == [
            l.module.serial for l in noisy.links
        ]
        spurious = [m for m, r in noisy.rejected_markers if r == REASON_UNKNOWN_MARKER]
        assert len(spurious) == 3

    def test_orphans_reported(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        # A second, unreachable fragment far away.
        obs += synthesize(
            parse("l-A0"),
            [],
            db,
            base=from_translation([2000.0, 0.0, 0.0]),
        )
        chain = build_chain(obs, db)
        assert serialize(to_descriptor(chain)) == "L-G0"
        orphaned = {m for m, r in chain.rejected_markers if r == REASON_ORPHAN}
        assert orphaned == {80, 90}  # l-001 and A-001 master markers

    def test_every_marker_accounted_for(self, db):
        desc = parse("I-T'0-T'0-A0-t0-i0-g0")
        obs = synthesize(
            desc, [15.0, -40.0, 55.0, 20.0, -40.0], db, cfg=SceneConfig(spurious_count=2, seed=3)
        )
        chain = build_chain(obs, db)
        in_links = set()
        for link in chain.links:
            in_links.add(link.module.record.master_marker_id)
            if link.module.output_pose is not None:
                in_links.add(link.module.record.output_marker_id)
        rejected = {m for m, _ in chain.rejected_markers}
        observed = {o.marker_id for o in obs}
        assert in_links | rejected == observed
        assert not in_links & rejected

    @pytest.mark.parametrize("method", ["geometric", "optimization"])
    def test_coincident_decoy_is_orphaned(self, db, method):
        # An unused registered module (T-003, marker 12) observed exactly at
        # the tool's pose: neither back end may abort on it.
        desc = parse("I-T'0-T'0-A0-t0-i0-g0")
        obs = synthesize(desc, [15.0, -40.0, 55.0, 20.0, -40.0], db, cfg=SceneConfig(seed=7))
        tool = next(o for o in obs if o.marker_id == 55)
        obs.append(MarkerObservation(12, tool.pose))
        chain = build_chain(obs, db, IdentifyConfig(method=method))
        assert serialize(to_descriptor(chain)) == serialize(desc)
        assert (12, REASON_ORPHAN) in chain.rejected_markers

    @pytest.mark.parametrize("method", ["geometric", "optimization"])
    # A tree branch that stops early can end in a joint whose angle no neighbor shows.
    @pytest.mark.filterwarnings("ignore:.*joint angle is unobservable:UserWarning")
    def test_two_tool_chains_read_in_full(self, db, method):
        # With an inverted tool at the base, the walk from that tool reads
        # every module the other way up and stops at the adapter A, which is
        # not invertible; the walk from the end tool then claims the whole
        # chain.  The kept walk is the first complete branch of the tree.
        cfg = IdentifyConfig(method=method)
        chain = build_chain(synthesize(parse("g'-A90-g0"), [], db), db, cfg)
        assert serialize(to_descriptor(chain)) == "g'-A90-g0"
        assert chain.rejected_markers == []
        rng = np.random.default_rng(0)
        for _ in range(300):
            desc, thetas, base = random_two_tool_case(rng, db)
            obs = synthesize(desc, thetas, db, base=base)
            chain = build_chain(obs, db, cfg)
            assert len(chain.links) == len(desc.entries)
            assert chain.rejected_markers == []
            full = next(b for b in build_tree(obs, db, cfg) if len(b.links) == len(chain.links))
            assert [l.module.serial for l in chain.links] == [l.module.serial for l in full.links]
            assert serialize(to_descriptor(chain)) == serialize(to_descriptor(full))

    def test_pool_strictly_decreases(self, db):
        # Termination on a long chain plus distractor fragment.
        desc = parse("I-T'0-T'0-A0-t0-i0-g0")
        obs = synthesize(desc, [0.0] * 5, db)
        chain = build_chain(obs, db)
        assert len(chain.links) == 7


class TestBuildTree:
    def test_chain_scene_single_branch(self, db):
        desc = parse("I-T'0-T0-A0-i0-t0-g0")
        thetas = [10.0, -30.0, 45.0, 25.0, -60.0]
        obs = synthesize(desc, thetas, db)
        chain = build_chain(obs, db)
        branches = build_tree(obs, db)
        assert len(branches) == 1
        assert [l.module.serial for l in branches[0].links] == [
            l.module.serial for l in chain.links
        ]

    def test_bidirectional_chain_two_branches(self, db):
        desc = parse("G'-I0-T'0-L0-T'90-T180-I'0-G0")
        assignment = ["G-002", "I-001", "T-001", "L-001", "T-002", "T-003", "I-002", "G-001"]
        obs = synthesize(desc, [30.0, -45.0, 60.0, -30.0, 90.0], db, assignment=assignment)
        branches = build_tree(obs, db)
        assert len(branches) == 2
        serials_a = [l.module.serial for l in branches[0].links]
        serials_b = [l.module.serial for l in branches[1].links]
        assert serials_a == list(reversed(serials_b))

    def test_two_branch_tree(self, db):
        rng = np.random.default_rng(31)
        obs, trunk, arm1, arm2 = make_two_branch_scene(rng, db)
        branches = build_tree(obs, db)
        assert len(branches) == 2
        got = {tuple(l.module.serial for l in b.links) for b in branches}
        assert tuple(trunk + arm1) in got
        assert tuple(trunk + arm2) in got
