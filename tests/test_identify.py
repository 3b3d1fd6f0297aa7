import json
import math
import re
import warnings
from dataclasses import FrozenInstanceError, replace
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chainforge import identify
from chainforge.descriptor import ChainDescriptor, ChainEntry, parse, serialize
from chainforge.geometry import (
    CONNECTION_ANGLES,
    TURN_PLANES,
    Pose,
    axis_angle,
    compose,
    invert,
    joint_turns,
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
    W_O,
    W_T,
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
    _CHILD_TERMS,
    _PARENT_TERMS,
    _child_side,
    _cross,
    _fit_joint,
    _layer_floor,
    _observed_rows,
    _PairModel,
    _REACH_ROUNDING,
    _parent_side,
)
from chainforge.modelgen import generate_model
from chainforge.module_db import (
    INVERTED,
    UPRIGHT,
    ModuleDatabase,
    _pair_layers,
    default_database,
)
from chainforge.synth import MarkerObservation, SceneConfig, synthesize

from helpers import (
    NumpyPairModel,
    PAPER_CHAINS,
    ReferencePairModel,
    corpus_and_noise_rows,
    from_rotation,
    from_translation,
    make_corpus,
    make_two_branch_scene,
    pose_distance,
    random_base,
    random_chain_case,
    random_two_tool_case,
    reference_bundle_twist,
    reference_child_cross,
    reference_connection_angle_between,
    reference_connection_transform,
    reference_find_parent_optimization,
    reference_fit_joint,
    reference_floor_cross,
    reference_layer_floors,
    reference_master_to_childward,
    reference_parent_cross,
    reference_parentward_to_master,
    registry_first,
    relative,
    skewed_database,
)


def detected_by_serial(obs, db):
    detected, rejected = validate_markers(obs, db)
    return {d.serial: d for d in detected}, detected, rejected


def _detected(db, code: str, pose: Pose, bundle: Pose | None = None) -> DetectedModule:
    """The first module of a type at pose, with its output bundle at `bundle`
    from the master when given."""
    output = None if bundle is None else compose(pose, bundle)
    return DetectedModule(db.records_of_type(code)[0], db.types[code], pose, output)


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

    @pytest.mark.parametrize(
        "name, value",
        [("epsilon1", "20"), ("epsilon2", None), ("f_threshold", "0.5"), ("epsilon1", True)],
    )
    def test_non_number_named(self, name, value):
        message = f"^{name} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            IdentifyConfig(**{name: value})

    def test_numpy_numbers_accepted(self):
        cfg = IdentifyConfig(np.float64(20.0), np.float32(0.05), np.int64(1))
        assert (cfg.epsilon1, cfg.f_threshold) == (20.0, 1)

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


    def test_serial_stored_from_the_record(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        other = db.records_of_type("L")[1]
        moved = replace(by["L-001"], record=other)
        assert (moved.serial, by["L-001"].serial) == (other.serial, "L-001")
        assert moved == replace(by["L-001"], record=other)


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

    def test_pass_equals_a_fresh_result(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        for parent, child, d in (("L-001", "G-001", UPRIGHT), ("G-001", "L-001", INVERTED)):
            result = constraint_check(by[parent], by[child], db, IdentifyConfig(), d)
            assert result == identify.ConstraintResult(True, d)

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
        obs = synthesize(parse("G'-L0-G0"), [], registry_first(db, ["G-002", "L-001", "G-001"]))
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
        obs = synthesize(parse("L-g0"), [], db)
        obs += synthesize(parse("L-g0"), [], registry_first(db, ["L-002", "g-002"]), base=base_b)
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
            db, "I", from_translation(child.master_pose.translation + np.array([0.0, 0.0, 60.0]))
        )
        decoy = replace(decoy, output_pose=from_rotation(rot_x(30.0)))
        assert decoy in neighbors(child, [decoy], db, IdentifyConfig())
        match = find_parent_optimization(
            child, [decoy, by["T-001"]], db, IdentifyConfig(), UPRIGHT
        )
        assert match.module.serial == "T-001"
        assert match.theta == pytest.approx(33.0, abs=1e-9)

    def test_inverted_tool_child_has_no_hypotheses(self, db):
        obs = synthesize(parse("G'-L0-G0"), [], registry_first(db, ["G-002", "L-001", "G-001"]))
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
        skewed = compose(child.output_pose, from_rotation(rot_x(30.0)))
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
        models = _pair_models(match.module, match.parent_direction, child, UPRIGHT)
        k = CONNECTION_ANGLES.index(match.connection_angle)

        def f(theta_n):
            return [model.residual(theta_n, 0.0) for model in models]

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
        geo = find_parent_geometric(child, [by["I-001"]], db, cfg, UPRIGHT)
        opt = find_parent_optimization(child, [by["I-001"]], db, cfg, UPRIGHT)
        assert opt.connection_angle == geo.connection_angle
        assert abs(wrap_angle(opt.theta)) <= 45.0
        assert opt.f_value == pytest.approx(0.0, abs=1e-9)


def _float_models(parent, child, parent_side, child_side) -> list[_PairModel]:
    """One hypothesis's model at each connection angle, built the way
    find_parent_optimization builds it."""
    observed = _observed_rows(parent, child)
    layers = _pair_layers(parent_side, child_side)
    return [_PairModel(parent_side, child_side, layer, observed) for layer in layers]


def _rounding(parent, child, parent_side, child_side) -> float:
    """The rounding allowance of one hypothesis's bounds, as find_parent_optimization
    takes it."""
    scale = math.hypot(*parent.floats[:3]) + math.hypot(*child.floats[:3])
    span = parent_side.reach + child_side.reach
    return _REACH_ROUNDING * (W_T * (scale + span) + W_O)


def _reach_bound(parent, child, parent_side, child_side) -> float:
    """One hypothesis's lower bound on its residuals from the distance between the
    observed origins, less the rounding allowance, as find_parent_optimization takes it."""
    distance = math.dist(parent.floats[:3], child.floats[:3])
    span = parent_side.reach + child_side.reach
    return W_T * (distance - span) - _rounding(parent, child, parent_side, child_side)


def _floors(db, parent, child, parent_side, child_side) -> list[float]:
    """`_layer_floor` of one hypothesis at each connection angle, as
    find_parent_optimization takes it."""
    observed = _observed_rows(parent, child)
    layers = db.pair_layers(parent_side, child_side)
    return [_layer_floor(parent_side, child_side, x, observed) for x in layers]


def _model_cross(model, theta_n, theta_c, terms) -> tuple[float, float]:
    """`_cross` of a model's layer turned by each side whose state is given, as
    `_PairModel.solve` forms p and q."""
    return _cross(model._observed, model._turned(theta_n, theta_c), terms)


def _pair_models(parent, parent_dir, child, child_dir, cfg=IdentifyConfig()) -> list[_PairModel]:
    """The models of the hypothesis that `parent` in `parent_dir` carries `child`."""
    parent_side, _ = _parent_side(parent, parent_dir, cfg.epsilon2)
    child_side = _child_side(child, child_dir, cfg.epsilon2)
    return _float_models(parent, child, parent_side, child_side)


def _plane_terms(axis: int, h: np.ndarray) -> list[tuple[float, float]]:
    """p and q of each 3x3 layer of H in the turn plane of `axis`, where
    <R(t), H> = p cos t + q sin t + const."""
    a, b = TURN_PLANES[axis]
    return list(zip((h[:, a, a] + h[:, b, b]).tolist(), (h[:, b, a] - h[:, a, b]).tolist()))


def _joint_rotation(module_type, t):
    return rot_y(t) if module_type.is_collinear_joint else rot_z(t)


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
        # The residual of the model at the k-th connection angle is the weighted
        # pose metric of the pair transform composed from the catalog at that
        # angle and the k-th joint states.
        (parent_code, parent_dir), (child_code, child_dir) = parent_side, child_side
        rng = np.random.default_rng(seed)
        parent = _detected(db, parent_code, random_base(rng))
        child = _detected(db, child_code, random_base(rng))
        models = _pair_models(parent, parent_dir, child, child_dir)
        observed = relative(parent.master_pose, child.master_pose)
        pt, ct = parent.module_type, child.module_type
        for k, angle in enumerate(CONNECTION_ANGLES):
            parent_factor = reference_master_to_childward(pt, parent_dir, theta_n[k])
            modeled = compose(
                compose(parent_factor, reference_connection_transform(angle)),
                reference_parentward_to_master(ct, child_dir, theta_c[k]),
            )
            expected = pose_distance(modeled, observed)
            assert models[k].residual(theta_n[k], theta_c[k]) == pytest.approx(expected, rel=1e-12)

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
        # The squared metric in one free joint state t is const - 2(p cos t + q sin t)
        # with p and q of the model's cross-covariance H, at every connection angle.
        # Holds for any observed transform, so the two module poses are drawn
        # independently; no output bundle is seen, so collinear joints stay free.
        (parent_code, parent_dir), (child_code, child_dir) = parent_side, child_side
        rng = np.random.default_rng(seed)
        parent = _detected(db, parent_code, random_base(rng))
        child = _detected(db, child_code, random_base(rng))
        models = _pair_models(parent, parent_dir, child, child_dir)
        assume(models[0].parent.axis is not None or models[0].child.axis is not None)
        pt, ct = parent.module_type, child.module_type
        observed = relative(parent.master_pose, child.master_pose).translation

        def position_metric(t, angle):
            # Translation part of the metric, composed from the catalog.
            return W_T**2 * float(np.sum((compose(
                compose(
                    reference_master_to_childward(pt, parent_dir, t),
                    reference_connection_transform(angle),
                ),
                reference_parentward_to_master(ct, child_dir, other),
            ).translation - observed) ** 2))

        for model, angle in zip(models, CONNECTION_ANGLES):
            free = []
            if model.parent.axis is not None:
                terms = _PARENT_TERMS[model.parent.axis]
                free.append((
                    lambda t, m=model: m.residual(t, other) ** 2,
                    _model_cross(model, None, other, terms),
                ))
                free.append((
                    lambda t, a=angle: position_metric(t, a),
                    _model_cross(model, None, None, terms[:1]),
                ))
            if model.child.axis is not None:
                free.append((
                    lambda t, m=model: m.residual(other, t) ** 2,
                    _model_cross(model, other, None, _CHILD_TERMS[model.child.axis]),
                ))
            for g, (p, q) in free:
                const = g(0.0) + 2.0 * p
                mean = (g(0.0) + g(180.0)) / 2.0
                for t in probes:
                    rad = math.radians(t)
                    predicted = const - 2.0 * (p * math.cos(rad) + q * math.sin(rad))
                    assert g(t) == pytest.approx(predicted, rel=1e-9, abs=1e-9 * mean)

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
        theta = _fit_joint(*_plane_terms(1 if code == "I" else 2, h[None])[0], limits)
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
        model = _pair_models(by["T-001"], UPRIGHT, by["g-001"], UPRIGHT)[
            CONNECTION_ANGLES.index(90.0)
        ]

        def f(t):
            return model.residual(t, 0.0)

        terms = _PARENT_TERMS[model.parent.axis]
        theta = _fit_joint(*_model_cross(model, None, 0.0, terms), limits)
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


# How far the float kernel may stray from the numpy reference: residuals within
# abs 1e-12 + rel 1e-12, solved joint states within 1e-9 degrees.
F_TOL = 1e-12
THETA_TOL = 1e-9


def _close_f(got: float, want: float) -> bool:
    return abs(got - want) <= F_TOL + F_TOL * abs(want)


def _assert_same_match(got, want):
    """The same parent module, connection angle and direction as the reference,
    with theta and f_value within the kernel's tolerance."""
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.module is want.module
    assert (got.module.serial, got.connection_angle, got.parent_direction) == (
        want.module.serial,
        want.connection_angle,
        want.parent_direction,
    )
    assert (got.theta is None) == (want.theta is None)
    if got.theta is not None:
        assert type(got.theta) is float and abs(got.theta - want.theta) <= THETA_TOL
    assert type(got.f_value) is float and _close_f(got.f_value, want.f_value)


def _recorded_searches(db, scenes) -> list[tuple]:
    """The arguments of every parent search that chain building runs on the scenes,
    with both back ends (the geometric one searches to adjudicate)."""
    calls = []
    search = identify.find_parent_optimization

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return search(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identify, "find_parent_optimization", record)
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
        for args, kwargs in calls:
            got = find_parent_optimization(*args, **kwargs)
            want = reference_find_parent_optimization(*args, **kwargs)
            _assert_same_match(got, want)
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
        _assert_same_match(got, want)

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
            _assert_same_match(got, want)

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
        # states fall on both sides of it.  math's atan2 and numpy's differ in
        # the last bits, so the states agree as angles within the tolerance.
        h = np.array(h).reshape(4, 4, 4)[:layers]
        hi = float(reference_fit_joint(axis, h, (-180.0, 180.0)).max()) + offset
        limits = (hi - span, hi)
        got = [_fit_joint(p, q, limits) for p, q in _plane_terms(axis, h)]
        for g, w in zip(got, reference_fit_joint(axis, h, limits).tolist()):
            assert limits[0] <= g <= limits[1]
            assert abs(wrap_angle(g - w)) <= THETA_TOL


GOLDEN_OUTPUTS = Path(__file__).parent / "golden" / "identify_outputs.txt"


def _output_lines(db, scenes) -> list[str]:
    """One JSON line per scene and back end: the scene's index, the back end, then
    the error type, or the chain string, each link's joint angle by float.hex,
    the warnings and the rejected markers."""
    lines = []
    for i, obs in enumerate(scenes):
        for method in ("geometric", "optimization"):
            try:
                chain = build_chain(obs, db, IdentifyConfig(method=method))
            except IdentifyError as exc:
                result = [type(exc).__name__]
            else:
                angles = [l.joint_angle for l in chain.links]
                result = [
                    serialize(to_descriptor(chain)),
                    [None if a is None else a.hex() for a in angles],
                    chain.warnings,
                    chain.rejected_markers,
                ]
            lines.append(json.dumps([i, method, *result]))
    return lines


def test_outputs_match_golden_file(db):
    # Both back ends' outputs on the first corpus scenes and noise draws, bit
    # for bit as recorded, including 4 NoToolModule scenes under dropout.
    got = _output_lines(db, corpus_and_noise_rows(db, 100, 39))
    want = GOLDEN_OUTPUTS.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want) == 2 * (100 + 4 * 39)
    for g, w in zip(got, want):
        assert g == w


def _hypotheses(child, pool, db, cfg, child_direction) -> list[tuple]:
    """(candidate, parent side, child side) of every hypothesis a search enumerates."""
    if child_direction not in child.module_type.child_directions:
        return []
    try:
        child_side = _child_side(child, child_direction, cfg.epsilon2)
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


def _side_kinds(types) -> tuple[dict, dict]:
    """Every (type code, install direction) of `types` by the parent and the child
    kinds of `TestReachTest`."""
    parent_kinds = {
        "fixed": [
            (t.code, d) for t in types for d in t.parent_directions
            if not (t.is_joint and d == UPRIGHT)
        ],
        "free-y": [(t.code, UPRIGHT) for t in types if t.is_collinear_joint],
        "free-z": [(t.code, UPRIGHT) for t in types if t.is_perpendicular_joint],
        "bundle-measured": [(t.code, UPRIGHT) for t in types if t.is_collinear_joint],
    }
    child_kinds = {
        "fixed": [
            (t.code, d) for t in types for d in t.child_directions
            if not (t.is_joint and d == INVERTED)
        ],
        "free": [(t.code, INVERTED) for t in types if t.is_joint],
        # An inverted collinear joint whose seen bundle pair measures its state.
        "measured-theta": [(t.code, INVERTED) for t in types if t.is_collinear_joint],
    }
    return parent_kinds, child_kinds


def _draw_hypothesis(db, parent_kind, child_kind, data, seed, states, offset):
    """A parent and a child module of the kinds of `TestReachTest` from `db`, with
    their sides, and a connection angle index k0.  The child is drawn independently
    of the parent when `offset` is None; otherwise it sits at the modeled pose of k0
    at joint states `states[:8]`, moved by `offset`.  states[8:] measure the bundles,
    each a roll and a tilt followed by the type's output offset."""
    parent_kinds, child_kinds = _side_kinds(db.types.values())
    parent_code, parent_dir = data.draw(st.sampled_from(parent_kinds[parent_kind]))
    child_code, child_dir = data.draw(st.sampled_from(child_kinds[child_kind]))
    k0 = data.draw(st.integers(0, 3))
    rng = np.random.default_rng(seed)
    cfg = IdentifyConfig()
    parent_pose = random_base(rng)
    tilt = rot_x(states[9] / 72.0)
    parent_bundle = child_bundle = None
    if parent_kind == "bundle-measured":
        offset_rotation = db.types[parent_code].master_offset_output.rotation
        parent_bundle = Pose(rot_y(states[8]) @ tilt @ offset_rotation, rng.uniform(-50, 50, 3))
    if child_kind == "measured-theta":
        offset_rotation = db.types[child_code].master_offset_output.rotation
        child_bundle = Pose(rot_y(states[10]) @ tilt @ offset_rotation, rng.uniform(-50, 50, 3))
    parent = _detected(db, parent_code, parent_pose, parent_bundle)
    child = _detected(db, child_code, random_base(rng), child_bundle)
    parent_side, _ = _parent_side(parent, parent_dir, cfg.epsilon2)
    child_side = _child_side(child, child_dir, cfg.epsilon2)
    assert (parent_side.axis is None) == (parent_kind in ("fixed", "bundle-measured"))
    assert (child_side.axis is None) == (child_kind != "free")
    if offset is not None:
        modeled = NumpyPairModel(parent_side, child_side, np.eye(4))
        m = modeled._stack(np.array(states[:4]), np.array(states[4:8]))[k0]
        pose = Pose(m[:3, :3], m[:3, 3] + offset)
        child = _detected(db, child_code, compose(parent_pose, pose), child_bundle)
    return parent, child, parent_side, child_side, k0


def _within_limits(side, states) -> list[float]:
    """Each of `states` (in [-360, 360]) taken to the same place within the side's
    limits; zeros for a side without a free joint."""
    if side.axis is None:
        return [0.0] * len(states)
    lo, hi = side.limits
    return [lo + (hi - lo) * (s + 360.0) / 720.0 for s in states]


class _CountedPairModel(_PairModel):
    """Records the layer of each pair model built, and the layer and residual of
    each residual that a model with no free joint scores."""

    built: list[tuple] = []
    fixed: list[tuple] = []

    def __init__(self, parent, child, layer, observed):
        type(self).built.append(layer)
        super().__init__(parent, child, layer, observed)

    def residual(self, theta_n, theta_c):
        f = super().residual(theta_n, theta_c)
        if self.parent.axis is None and self.child.axis is None:
            type(self).fixed.append((self._layer, f))
        return f


SKEWED = skewed_database(4)


class TestReachTest:
    """A hypothesis whose modeled child origin stays out of reach of the observed
    one is skipped before its observation is built, and a connection angle whose
    residual floor lies above the threshold before its pair model is solved."""

    PARENT_KINDS, CHILD_KINDS = _side_kinds(default_database().types.values())

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
        # offset.
        parent, child, parent_side, child_side, _ = _draw_hypothesis(
            db, parent_kind, child_kind, data, seed, states, offset if near else None
        )
        theta_n, theta_c = states[:4], states[4:8]
        bound = _reach_bound(parent, child, parent_side, child_side)
        for k, model in enumerate(_float_models(parent, child, parent_side, child_side)):
            assert bound <= model.residual(theta_n[k], theta_c[k])
            assert bound <= model.residual(*model.solve())

    @pytest.mark.parametrize("catalog", ["default", "skewed"])
    @pytest.mark.parametrize("parent_kind", PARENT_KINDS)
    @pytest.mark.parametrize("child_kind", CHILD_KINDS)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        near=st.booleans(),
        states=st.lists(st.floats(-360.0, 360.0), min_size=11, max_size=11),
        offset=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_floor_never_exceeds_the_residual(
        self, db, catalog, parent_kind, child_kind, data, seed, near, states, offset
    ):
        # Each floor is at most its layer's residual at joint states within the
        # limits and at the solved ones.  With a free joint it is the least value
        # of its chord bound over the parent's state (helpers.reference_layer_floors);
        # with none it is the residual's translation term.
        db = SKEWED if catalog == "skewed" else db
        parent, child, parent_side, child_side, _ = _draw_hypothesis(
            db, parent_kind, child_kind, data, seed, states, offset if near else None
        )
        floors = _floors(db, parent, child, parent_side, child_side)
        observed = relative(parent.master_pose, child.master_pose).matrix()
        reference = reference_layer_floors(parent_side, child_side, observed)
        if reference is None:
            assert parent_side.axis is None and child_side.axis is None
            modeled = NumpyPairModel(parent_side, child_side, observed)._stack(None, None)
            reference = W_T * np.linalg.norm(modeled[:, :3, 3] - observed[:3, 3], axis=1)
        assert all(map(_close_f, floors, reference.tolist()))
        within = _within_limits(parent_side, states[:4]), _within_limits(child_side, states[4:8])
        for k, model in enumerate(_float_models(parent, child, parent_side, child_side)):
            for theta_n, theta_c in ((within[0][k], within[1][k]), model.solve()):
                f = model.residual(theta_n, theta_c)
                assert floors[k] <= f + F_TOL * (1.0 + f)

    def test_skipped_hypotheses_cannot_be_accepted(self, db, monkeypatch):
        # Every connection angle the search skips, by the reach test, by its
        # floor or by a fixed hypothesis's translation term, has a reference
        # residual above f_threshold + RESIDUAL_TIE.  Each angle left builds one
        # pair model, in order; a fixed hypothesis's model scores it exactly as
        # the float pair model does at zero turn.  With no threshold every
        # hypothesis builds a model at all four angles.
        calls = _recorded_searches(db, corpus_and_noise_rows(db, 100, 3))
        monkeypatch.setattr(identify, "_PairModel", _CountedPairModel)
        skipped = by_reach = by_translation = fixed = total = 0
        for args, kwargs in calls:
            child, _, _, cfg, *_ = args
            reach = cfg.f_threshold + RESIDUAL_TIE
            hypotheses = _hypotheses(*args, **kwargs)
            built, built_all, fixed_kept, fixed_all = [], [], [], []
            for cand, parent_side, child_side in hypotheses:
                is_fixed = parent_side.axis is None and child_side.axis is None
                bound = _reach_bound(cand, child, parent_side, child_side)
                rounding = _rounding(cand, child, parent_side, child_side)
                layers = db.pair_layers(parent_side, child_side)
                if is_fixed:
                    # Its translation terms, as the pose metric forms them.
                    observed = _observed_rows(cand, child)
                    floors = [W_T * math.dist(x[3::4], observed[3::4]) for x in layers]
                else:
                    floors = _floors(db, cand, child, parent_side, child_side)
                if bound > reach:
                    left = []
                    by_reach += 1
                else:
                    left = [k for k in range(4) if floors[k] - rounding <= reach]
                    by_translation += is_fixed * (4 - len(left))
                if len(left) < 4:
                    observed = relative(cand.master_pose, child.master_pose).matrix()
                    model = ReferencePairModel(parent_side, child_side, observed)
                    f = model.residual(*model.solve())
                    assert all(f[k] > reach for k in range(4) if k not in left)
                built += [layers[k] for k in left]
                built_all += layers
                if is_fixed:
                    fixed += 1
                    models = _float_models(cand, child, parent_side, child_side)
                    f = [model.residual(*model.solve()) for model in models]
                    fixed_kept += [(layers[k], f[k]) for k in left]
                    fixed_all += zip(layers, f)
                skipped += 4 - len(left)
            total += 4 * len(hypotheses)
            _CountedPairModel.built, _CountedPairModel.fixed = [], []
            find_parent_optimization(*args, **kwargs)
            assert _CountedPairModel.built == built
            assert _CountedPairModel.fixed == fixed_kept
            unbounded = list(args)
            unbounded[3] = replace(cfg, f_threshold=math.inf)
            _CountedPairModel.built, _CountedPairModel.fixed = [], []
            find_parent_optimization(*unbounded, **kwargs)
            assert _CountedPairModel.built == built_all
            assert _CountedPairModel.fixed == fixed_all
        assert len(calls) > 500
        # The reach test skips 278 of these 1377 hypotheses (20%); 1054 of them
        # (77%) are fixed, and their translation terms skip 1708 of the 5508
        # connection angles (31%), which with the floors makes 3643 skipped (66%).
        assert 0.15 * total < 4 * by_reach < 0.25 * total
        assert 0.70 * total < 4 * fixed < 0.85 * total
        assert 0.25 * total < by_translation < 0.37 * total
        assert 0.60 * total < skipped < 0.72 * total


class TestFloatKernel:
    """The float pair model scores and solves every kind of hypothesis as the numpy
    model does: residuals within abs 1e-12 + rel 1e-12, states within 1e-9 degrees."""

    @pytest.mark.parametrize("parent_kind", TestReachTest.PARENT_KINDS)
    @pytest.mark.parametrize("child_kind", TestReachTest.CHILD_KINDS)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        near=st.booleans(),
        states=st.lists(st.floats(-360.0, 360.0), min_size=11, max_size=11),
        offset=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_model(
        self, db, parent_kind, child_kind, data, seed, near, states, offset
    ):
        parent, child, parent_side, child_side, _ = _draw_hypothesis(
            db, parent_kind, child_kind, data, seed, states, offset if near else None
        )
        models = _float_models(parent, child, parent_side, child_side)
        observed = relative(parent.master_pose, child.master_pose).matrix()
        reference = NumpyPairModel(parent_side, child_side, observed)
        theta_n, theta_c = states[:4], states[4:8]
        want = reference.residual(np.array(theta_n), np.array(theta_c)).tolist()
        for k, model in enumerate(models):
            assert _close_f(model.residual(theta_n[k], theta_c[k]), want[k])
        # A near child can sit where a free state is unobservable or two limits
        # fit exactly as well, and rounding picks the state; independent poses
        # pin every state.
        assume(not near)
        want_solved = reference.solve()
        want = reference.residual(*want_solved).tolist()
        for k, model in enumerate(models):
            solved = model.solve()
            for g, w in zip(solved, want_solved):
                assert type(g) is float and abs(g - w[k]) <= THETA_TOL
            assert _close_f(model.residual(*solved), want[k])

    @pytest.mark.parametrize("axis", sorted(TURN_PLANES))
    def test_plane_turn_matches_joint_turns(self, axis):
        # One plane turn serves the model's rows and columns: over the row pairs
        # it is Rn(theta) m, over the column pairs m Rc(-theta), each 3x4 m as 12
        # floats row by row, with the rotations of `joint_turns`.  A zero state
        # leaves every entry as it was.
        rng = np.random.default_rng(axis)
        thetas = [0.0, 90.0, -90.0, 180.0, *rng.uniform(-360.0, 360.0, 6).tolist()]
        layers = [tuple(v) for v in rng.normal(0.0, 50.0, (len(thetas), 12)).tolist()]
        m = np.array(layers).reshape(-1, 3, 4)
        rows = [identify._turn(x, identify._ROW_PAIRS[axis], t) for x, t in zip(layers, thetas)]
        columns = [
            identify._turn(x, identify._COLUMN_PAIRS[axis], t) for x, t in zip(layers, thetas)
        ]
        want_rows = joint_turns(axis, thetas)[:, :3, :3] @ m
        want_columns = m @ joint_turns(axis, [-t for t in thetas])
        for got, want in ((rows, want_rows), (columns, want_columns)):
            assert all(type(x) is list and len(x) == 12 for x in got)
            np.testing.assert_allclose(np.array(got), want.reshape(-1, 12), rtol=0, atol=1e-12)
            assert got[0] == list(layers[0])
        assert np.array(columns).reshape(-1, 3, 4)[:, :, 3].tolist() == m[:, :, 3].tolist()

    @pytest.mark.parametrize("axis", sorted(TURN_PLANES))
    def test_cross_matches_hand_expansions(self, axis):
        # `_cross` forms p and q bit for bit as the term-by-term expansions in
        # helpers do, the sign of a zero included (atan2 reads it), for the
        # parent, translation-only, child and floor terms.  About a third of the
        # entries are exact zeros of either sign, and a quarter of the layers are
        # all zero, so that whole sums come out -0.0.
        rng = np.random.default_rng(axis)

        def draw(count):
            v = rng.normal(0.0, 50.0, (count, 12))
            v[rng.random((count, 12)) < 0.3] = 0.0
            v[: count // 4] = 0.0
            return np.copysign(v, rng.choice([-1.0, 1.0], (count, 12))).tolist()

        def bits(pq):
            return [(p.hex(), q.hex()) for p, q in pq]

        rows = identify._ROW_PAIRS[axis]
        negative_zeros = 0
        for observed in draw(16):
            layers = draw(64)
            cases = [
                (_PARENT_TERMS[axis], reference_parent_cross(observed, layers, axis)),
                (_PARENT_TERMS[axis][:1], reference_parent_cross(observed, layers, axis, True)),
                (_CHILD_TERMS[axis], reference_child_cross(observed, layers, axis)),
            ]
            for c in TURN_PLANES:
                terms = (2.0 * W_O**2, [rows[c]]), (W_T**2, [rows[3]])
                cases.append((terms, reference_floor_cross(observed, layers, axis, c)))
            for terms, want in cases:
                assert bits([_cross(observed, x, terms) for x in layers]) == bits(want)
                negative_zeros += sum(p == 0.0 and math.copysign(1.0, p) < 0.0 for p, _ in want)
        assert negative_zeros > 100


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
    for obs in corpus_and_noise_rows(db, 500, 100):
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
        theta, note = estimate_joint_angle(
            by["I-001"], UPRIGHT, None, by["G-001"], IdentifyConfig()
        )
        assert theta == pytest.approx(37.0, abs=1e-6)
        assert note is None

    def test_zero_everywhere(self, db):
        obs = synthesize(parse("I-T0-G0"), [0.0, 0.0], db)
        chain = build_chain(obs, db)
        for link in chain.links:
            if link.module.module_type.is_joint:
                assert link.joint_angle == pytest.approx(0.0, abs=1e-6)

    def test_perpendicular_urpight_uses_child(self, db):
        obs = synthesize(parse("T-G0"), [41.0], db)
        by, _, _ = detected_by_serial(obs, db)
        theta, note = estimate_joint_angle(
            by["T-001"], UPRIGHT, None, by["G-001"], IdentifyConfig()
        )
        assert theta == pytest.approx(41.0, abs=1e-6)
        assert note is None

    def test_perpendicular_inverted_uses_parent(self, db):
        obs = synthesize(parse("L-T'0-G0"), [-28.0], db)
        by, _, _ = detected_by_serial(obs, db)
        theta, note = estimate_joint_angle(
            by["T-001"], INVERTED, by["L-001"], by["G-001"], IdentifyConfig()
        )
        assert theta == pytest.approx(-28.0, abs=1e-6)
        assert note is None

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
            module, output_pose=compose(module.output_pose, from_rotation(rot_x(30.0)))
        )
        with pytest.raises(NonCollinearBundles):
            estimate_joint_angle(module, UPRIGHT, None, by["G-001"], IdentifyConfig())

    @pytest.mark.parametrize("epsilon2", [0.001, 0.01, 0.05, 0.3])
    def test_tilt_threshold_matches_reference(self, db, epsilon2):
        # Bundles tilted 1e-6 degrees past or short of the epsilon2 budget,
        # about the x- or z-axis after the roll: the float tilt raises exactly
        # when the numpy tilt of the reference exceeds the budget.
        limit = math.degrees(math.acos(1.0 - epsilon2))
        cfg = IdentifyConfig(epsilon2=epsilon2)
        rng = np.random.default_rng(17)
        for _ in range(50):
            roll = float(rng.uniform(*db.types["I"].joint_limits))
            tilt_axis = (rot_x, rot_z)[int(rng.integers(2))]
            sign = float(rng.choice([-1.0, 1.0]))
            for delta in (-1e-6, 1e-6):
                tilt = tilt_axis(sign * (limit + delta)) @ rot_y(roll)
                module = _detected(db, "I", random_base(rng), Pose(tilt, [0.0, 60.0, 0.0]))
                misaligned = reference_bundle_twist(module)[1] > limit
                assert misaligned == (delta > 0.0)
                if misaligned:
                    with pytest.raises(NonCollinearBundles):
                        estimate_joint_angle(module, UPRIGHT, None, None, cfg)
                else:
                    theta, _ = estimate_joint_angle(module, UPRIGHT, None, None, cfg)
                    assert theta.hex() == reference_bundle_twist(module)[0].hex()

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
        spun = compose(t_mod.master_pose, from_rotation(axis_angle([0, 0, 1], 2.0)))
        g_mod = replace(g_mod, master_pose=Pose(
            g_mod.master_pose.rotation,
            t_mod.master_pose.translation
            + spun.rotation @ (g_mod.master_pose.translation - t_mod.master_pose.translation),
        ))
        # ~121 degrees: within the 2 degree slack, clamps with a note.
        theta, note = estimate_joint_angle(t_mod, UPRIGHT, None, g_mod, IdentifyConfig())
        assert theta == pytest.approx(120.0)
        assert note == "estimated angle 121.00 clamped to 120.00"

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

    def test_later_walk_that_fails_is_skipped(self, db):
        # G-001 (marker 50) walks I-T0-G0 first and leaves two overlapping
        # L-g0 clones unclaimed.  Each walk from g-001 or g-002 finds both
        # L modules passing (AmbiguousParent), so both walks are skipped and
        # the clones are orphans of the kept walk.
        obs = synthesize(parse("I-T0-G0"), [10.0, 20.0], db)
        for k in (1, 2):
            base = from_translation([2000.0 + k, 0.0, 0.0])
            clone = registry_first(db, [f"L-00{k}", f"g-00{k}"])
            obs += synthesize(parse("L-g0"), [], clone, base=base)
        chain = build_chain(obs, db)
        assert serialize(to_descriptor(chain)) == "I-T0-G0"
        assert sorted(chain.rejected_markers) == [(m, REASON_ORPHAN) for m in (55, 56, 70, 71)]
        with pytest.raises(AmbiguousParent):
            build_tree(obs, db)

    def test_pool_strictly_decreases(self, db):
        # Termination on a long chain plus distractor fragment.
        desc = parse("I-T'0-T'0-A0-t0-i0-g0")
        obs = synthesize(desc, [0.0] * 5, db)
        chain = build_chain(obs, db)
        assert len(chain.links) == 7

    def test_skewed_catalog_round_trip(self):
        # Connector offsets that are rotated and off-center: the optimization
        # back end reads every zero-noise chain exactly, and each collinear
        # joint's angle from its bundle roll, taken relative to the catalog's
        # output offset.  Perpendicular angles are not checked: their estimate
        # assumes the connector on the master's axis.
        db = skewed_database(4)
        cfg = IdentifyConfig(method="optimization")
        rng = np.random.default_rng(26)
        collinear = 0
        for _ in range(60):
            entries, thetas = [], []
            for k in range(int(rng.integers(1, 5))):
                code = str(rng.choice(["P", "C", "L"]))
                angle = None if k == 0 else float(rng.choice(CONNECTION_ANGLES))
                entries.append(ChainEntry(code, bool(rng.random() < 0.5), angle))
                if db.types[code].is_joint:
                    thetas.append(float(rng.uniform(*db.types[code].joint_limits)))
            entries.append(ChainEntry("G", False, float(rng.choice(CONNECTION_ANGLES))))
            desc = ChainDescriptor(tuple(entries))
            chain = build_chain(synthesize(desc, thetas, db, base=random_base(rng)), db, cfg)
            assert serialize(to_descriptor(chain)) == serialize(desc)
            joints = [l for l in chain.links if l.module.module_type.is_joint]
            for link, theta in zip(joints, thetas, strict=True):
                if link.module.module_type.is_collinear_joint:
                    assert abs(link.joint_angle - theta) <= 1e-6
                    collinear += 1
        assert collinear > 30


class TestTotality:
    """Every scene ends in a result or an IdentifyError, and every result can be
    described and modeled."""

    @pytest.mark.parametrize("catalog", ["default", "skewed"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 24),
        spread=st.floats(10.0, 600.0),
        unregistered=st.floats(0.0, 0.5),
        duplicates=st.integers(0, 4),
        epsilon1=st.floats(1e-6, 0.999),
        f_threshold=st.floats(min_value=0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_call_ends_in_a_result_or_an_identify_error(
        self, db, catalog, seed, count, spread, unregistered, duplicates, epsilon1, f_threshold
    ):
        # Marker ids are drawn from the registry, or outside it with probability
        # `unregistered`, at random poses within `spread` mm of the origin; some
        # ids are seen again at another pose, and the sightings are shuffled.
        # epsilon1 is a fraction of its bound, and f_threshold may be infinite.
        db = SKEWED if catalog == "skewed" else db
        rng = np.random.default_rng(seed)
        registered = [
            m for r in db.records for m in (r.master_marker_id, r.output_marker_id) if m is not None
        ]

        def sighting(marker_id):
            rotation = axis_angle(rng.normal(size=3), float(rng.uniform(0.0, 180.0)))
            return MarkerObservation(int(marker_id), Pose(rotation, rng.uniform(-spread, spread, 3)))

        obs = [
            sighting(rng.integers(5000) if rng.random() < unregistered else rng.choice(registered))
            for _ in range(count)
        ]
        if obs:
            obs += [sighting(obs[rng.integers(len(obs))].marker_id) for _ in range(duplicates)]
        obs = [obs[i] for i in rng.permutation(len(obs))]
        limit = 0.5 * db.max_connected_distance()
        for method in ("geometric", "optimization"):
            cfg = IdentifyConfig(epsilon1=epsilon1 * limit, f_threshold=f_threshold, method=method)
            for build in (build_chain, build_tree):
                try:
                    result = build(obs, db, cfg)
                except IdentifyError:
                    continue
                for chain in result if isinstance(result, list) else [result]:
                    to_descriptor(chain)
                generate_model(result, db)


class TestChainRecords:
    """A chain link checks its fields against its module's type, and a chain its
    links' connection angles, when they are built."""

    @pytest.fixture()
    def chain(self, db):
        return build_chain(synthesize(parse("I-T0-L0-G0"), [25.0, -40.0], db), db)

    @pytest.mark.parametrize(
        "index, change, message",
        [
            (2, {"direction": "sideways"}, "^L-001: type 'L' cannot be installed 'sideways'$"),
            (2, {"connection_angle": float("nan")}, "^L-001: connection angle must be one of"),
            (2, {"connection_angle": "0"}, "^L-001: connection angle must be one of"),
            (2, {"joint_angle": 0.0}, "^L-001: type 'L' has no joint$"),
            (1, {"joint_angle": -121.0}, r"^T-001: joint angle -121.0 outside \[-120.0, 120.0\]$"),
            (1, {"joint_angle": float("nan")}, "^T-001: joint angle nan outside"),
        ],
    )
    def test_link_fault_names_its_serial(self, chain, index, change, message):
        with pytest.raises(ValueError, match=message):
            replace(chain.links[index], **change)

    def test_links_are_a_tuple(self, chain):
        assert isinstance(chain.links, tuple)
        assert replace(chain, links=list(chain.links)).links == chain.links

    @pytest.mark.parametrize(
        "index, angle, serial", [(0, 0.0, "I-001"), (2, None, "L-001"), (3, None, "G-001")]
    )
    def test_only_the_base_has_no_connection_angle(self, chain, index, angle, serial):
        links = list(chain.links)
        links[index] = replace(links[index], connection_angle=angle)
        with pytest.raises(ValueError, match=f"^{serial}: only the base has no connection angle$"):
            replace(chain, links=links)


class TestWarnings:
    """Every identification caveat is a line of IdentifiedChain.warnings."""

    def test_unobservable_angle(self, db):
        # The inverted base joint has no parent on its output side.
        chain = build_chain(synthesize(parse("T'-L0-G0"), [0.0], db), db)
        assert serialize(to_descriptor(chain)) == "T'-L0-G0"
        assert chain.links[0].joint_angle == 0.0
        assert chain.warnings == [
            "joint angle of T-001: no neighbor on the output side; "
            "joint angle is unobservable, reporting 0"
        ]

    @pytest.mark.parametrize("method", ["geometric", "optimization"])
    def test_unobservable_angle_reports_the_limit_nearest_0(self, db, method):
        # Where T's limits exclude 0, the unobservable angle reads the limit
        # nearest 0, and the chain gets its model.
        narrow = replace(db.types["T"], joint_limits=(10.0, 120.0))
        types = [narrow if mt.code == "T" else mt for mt in db.types.values()]
        catalog = ModuleDatabase(types, db.records)
        obs = synthesize(parse("T'-L0-G0"), [30.0], catalog)
        chain = build_chain(obs, catalog, IdentifyConfig(method=method))
        assert serialize(to_descriptor(chain)) == "T'-L0-G0"
        assert chain.links[0].joint_angle == 10.0
        assert chain.warnings == [
            "joint angle of T-001: no neighbor on the output side; "
            "joint angle is unobservable, reporting 10"
        ]
        model = generate_model(chain, catalog)
        assert model.metadata["joint_angles_deg"]["T-001"] == 10.0

    def test_clamped_angle(self, db):
        # The tool turned 2 more degrees about the joint axis of T-001 at its
        # 119-degree state: the estimate of 121 degrees is clamped to the limit.
        obs = synthesize(parse("T-G0"), [119.0], db)
        t_id, g_id = (db.records_of_type(code)[0].master_marker_id for code in "TG")
        t_pose = next(o.pose for o in obs if o.marker_id == t_id)
        turn = compose(t_pose, compose(from_rotation(rot_z(2.0)), invert(t_pose)))
        obs = [
            MarkerObservation(o.marker_id, compose(turn, o.pose)) if o.marker_id == g_id else o
            for o in obs
        ]
        chain = build_chain(obs, db)
        assert serialize(to_descriptor(chain)) == "T-G0"
        assert chain.links[0].joint_angle == 120.0
        assert chain.warnings == ["joint angle of T-001: estimated angle 121.00 clamped to 120.00"]

    def test_missing_output_bundle(self, db):
        obs = synthesize(parse("I-G0"), [10.0], db)
        output_marker = db.records_of_type("I")[0].output_marker_id
        chain = build_chain([o for o in obs if o.marker_id != output_marker], db)
        assert chain.links[0].joint_angle is None
        assert chain.warnings == ["joint angle of I-001: output bundle was not observed"]

    def test_two_soft_angles_read_base_to_end(self, db):
        # The walk meets I-001 (its output bundle dropped) before the inverted
        # base joint T-001; the warnings follow the links, base to end, with
        # one line per module.
        obs = synthesize(parse("T'-L0-I0-G0"), [0.0, 10.0], db)
        output_marker = db.records_of_type("I")[0].output_marker_id
        chain = build_chain([o for o in obs if o.marker_id != output_marker], db)
        assert [l.module.serial for l in chain.links] == ["T-001", "L-001", "I-001", "G-001"]
        assert chain.warnings == [
            "joint angle of T-001: no neighbor on the output side; "
            "joint angle is unobservable, reporting 0",
            "joint angle of I-001: output bundle was not observed",
        ]

    def test_identify_raises_no_python_warning(self, db):
        # Over the corpus and the four noise rows, no chain or tree build of
        # either back end warns through Python, while the corpus's unobservable
        # angles reach the chains' warnings.
        scenes = corpus_and_noise_rows(db, 500, 25)
        unobservable = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for obs in scenes:
                for method in ("geometric", "optimization"):
                    for build in (build_chain, build_tree):
                        try:
                            built = build(obs, db, IdentifyConfig(method=method))
                        except IdentifyError:
                            continue
                        chains = built if isinstance(built, list) else [built]
                        unobservable += any("unobservable" in n for c in chains for n in c.warnings)
        assert unobservable > 0


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
        text, thetas, serials = PAPER_CHAINS[3]
        obs = synthesize(parse(text), thetas, registry_first(db, serials))
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
