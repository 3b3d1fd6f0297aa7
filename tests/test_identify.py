import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chainforge.descriptor import parse, serialize
from chainforge.geometry import CONNECTION_ANGLES, Pose, axis_angle, compose, rot_x, wrap_angle
from chainforge.identify import (
    REASON_DUPLICATE,
    REASON_ORPHAN,
    REASON_UNKNOWN_MARKER,
    AmbiguousParent,
    DetectedModule,
    IdentifyConfig,
    LimitExceeded,
    NonCollinearBundles,
    NoToolModule,
    build_chain,
    build_tree,
    constraint_check,
    estimate_joint_angle,
    find_parent_geometric,
    find_parent_optimization,
    neighbors,
    to_descriptor,
    validate_markers,
    _minimize_sinusoid,
    _PairModel,
)
from chainforge.module_db import INVERTED, UPRIGHT, default_database
from chainforge.synth import MarkerObservation, SceneConfig, synthesize

from helpers import make_corpus, make_two_branch_scene, random_base, random_chain_case


def detected_by_serial(obs, db):
    detected, rejected = validate_markers(obs, db)
    return {d.serial: d for d in detected}, detected, rejected


def _detected(db, code: str, pose: Pose) -> DetectedModule:
    record = db.records_of_type(code)[0]
    return DetectedModule(record=record, module_type=db.types[code], master_pose=pose)


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
        pose_b = Pose.from_translation([50, 0, 0])
        obs = [MarkerObservation(50, pose_a), MarkerObservation(50, pose_b)]
        detected, rejected = validate_markers(obs, db)
        assert rejected == [(50, REASON_DUPLICATE)]
        assert detected[0].master_pose.approx_equal(pose_a)

    def test_output_without_master(self, db):
        obs = [MarkerObservation(1030, Pose.identity())]
        detected, rejected = validate_markers(obs, db)
        assert detected == []
        assert rejected == [(1030, "MissingMaster")]


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
        result = constraint_check(by["L-001"], by["G-001"], db, IdentifyConfig())
        assert result.satisfied
        assert result.parent_direction == UPRIGHT
        assert result.child_direction == UPRIGHT

    def test_reversed_pair_reads_as_inverted(self, db):
        # Viewed from the other end the same geometry is a valid inverted
        # base gripper carrying an inverted link: the chain is readable in
        # both directions, exactly like the bi-directional climbing robot.
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        result = constraint_check(by["G-001"], by["L-001"], db, IdentifyConfig())
        assert result.satisfied
        assert result.parent_direction == INVERTED
        assert result.child_direction == INVERTED

    def test_perpendicular_offset_fails_collinearity(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        child.master_pose = Pose(
            child.master_pose.rotation, child.master_pose.translation + [80.0, -100.0, 0.0]
        )
        result = constraint_check(by["L-001"], child, db, IdentifyConfig())
        assert not result.satisfied

    def test_distance_gate(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        child.master_pose = Pose(
            child.master_pose.rotation, child.master_pose.translation + [0.0, 30.0, 0.0]
        )
        result = constraint_check(by["L-001"], child, db, IdentifyConfig())
        assert not result.satisfied
        assert result.reason == "distance"

    def test_known_child_direction_mismatch(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        result = constraint_check(
            by["L-001"], by["G-001"], db, IdentifyConfig(), child_direction=INVERTED
        )
        assert not result.satisfied

    def test_coincident_candidate_rejected(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        decoy = _detected(db, "T", child.master_pose)
        result = constraint_check(decoy, child, db, IdentifyConfig())
        assert not result.satisfied
        assert result.reason == "coincident origins"


class TestFindParentGeometric:
    def test_paper_chain_gripper_parent(self, db):
        obs = synthesize(parse("I-T'0-T'0-A0-t0-i0-g0"), [15.0, -40.0, 55.0, 20.0, -40.0], db)
        by, detected, _ = detected_by_serial(obs, db)
        child = by["g-001"]
        pool = [d for d in detected if d is not child]
        match = find_parent_geometric(child, pool, db, IdentifyConfig())
        assert match.module.serial == "i-001"
        assert match.connection_angle == 0.0
        assert match.parent_direction == UPRIGHT
        assert match.child_direction == UPRIGHT

    def test_no_neighbors(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        assert find_parent_geometric(by["G-001"], [], db, IdentifyConfig()) is None

    def test_overlapping_clone_chains_ambiguous(self, db):
        base_b = Pose.from_translation([1.0, 0.0, 0.0])
        obs = synthesize(parse("L-g0"), [], db, assignment=["L-001", "g-001"])
        obs += synthesize(
            parse("L-g0"), [], db, base=base_b, assignment=["L-002", "g-002"]
        )
        by, detected, _ = detected_by_serial(obs, db)
        child = by["g-001"]
        pool = [d for d in detected if d is not child]
        with pytest.raises(AmbiguousParent) as exc:
            find_parent_geometric(child, pool, db, IdentifyConfig())
        assert set(exc.value.candidate_serials) == {"L-001", "L-002"}


class TestFindParentOptimization:
    def test_residual_zero_at_truth(self, db):
        obs = synthesize(parse("I-T'0-T'0-A0-t0-i0-g0"), [15.0, -40.0, 55.0, 20.0, -40.0], db)
        by, detected, _ = detected_by_serial(obs, db)
        child = by["g-001"]
        pool = [d for d in detected if d is not child]
        match = find_parent_optimization(child, pool, db, IdentifyConfig())
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
            geo = find_parent_geometric(child, pool, db, cfg)
            opt = find_parent_optimization(child, pool, db, cfg)
            assert geo.module.serial == opt.module.serial
            assert geo.connection_angle == opt.connection_angle

    def test_not_found_on_far_candidates(self, db):
        obs = synthesize(parse("L-G0"), [], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        far = by["L-001"]
        far.master_pose = Pose.from_translation([0.0, 500.0, 0.0])
        assert find_parent_optimization(child, [far], db, IdentifyConfig()) is None

    def test_perpendicular_parent_theta(self, db):
        obs = synthesize(parse("T-G0"), [33.0], db)
        by, detected, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        match = find_parent_optimization(child, [by["T-001"]], db, IdentifyConfig())
        assert match.theta == pytest.approx(33.0, abs=1e-3)

    def test_misaligned_bundles_reject_one_hypothesis(self, db):
        # A nearby collinear joint whose bundles disagree on the joint axis
        # drops out of the search; the true parent is still found.
        obs = synthesize(parse("T-G0"), [33.0], db)
        by, _, _ = detected_by_serial(obs, db)
        child = by["G-001"]
        decoy = _detected(
            db, "I", Pose.from_translation(child.origin + np.array([0.0, 0.0, 60.0]))
        )
        decoy.output_pose = Pose.from_rotation(rot_x(30.0))
        assert decoy in neighbors(child, [decoy], db, IdentifyConfig())
        match = find_parent_optimization(child, [decoy, by["T-001"]], db, IdentifyConfig())
        assert match.module.serial == "T-001"
        assert match.theta == pytest.approx(33.0, abs=1e-9)

    def test_local_optimality_certificate(self, db):
        # The returned residual is a local minimum: nudging the solved joint
        # state by one degree or switching the connection angle never improves.
        from chainforge.geometry import CONNECTION_ANGLES
        from chainforge.identify import _PairModel

        obs = synthesize(parse("T-g90"), [47.0], db)
        by, detected, _ = detected_by_serial(obs, db)
        child = by["g-001"]
        cfg = IdentifyConfig()
        match = find_parent_optimization(child, [by["T-001"]], db, cfg)
        model = _PairModel(
            match.module, match.parent_direction, child, match.child_direction, None, cfg
        )
        best = model.residual(match.connection_angle, theta_n=match.theta)
        assert best == pytest.approx(match.f_value, abs=1e-9)
        for delta in (-1.0, 1.0):
            assert model.residual(match.connection_angle, theta_n=match.theta + delta) >= best
        for angle in CONNECTION_ANGLES:
            if angle != match.connection_angle:
                assert model.residual(angle, theta_n=match.theta) >= best


def _sinusoid_fit(f):
    """Coefficients (a, b, c) of f(t)**2 = a + b cos t + c sin t from three samples."""
    g0, g90, g180 = (f(t) ** 2 for t in (0.0, 90.0, 180.0))
    a = (g0 + g180) / 2.0
    return a, (g0 - g180) / 2.0, g90 - a


def _sinusoid(a, b, c, t):
    rad = math.radians(t)
    return a + b * math.cos(rad) + c * math.sin(rad)


class TestClosedFormFit:
    # Every (type, install direction) that can take each side of a pair, so
    # that drawing them needs no filtering.
    _TYPES = default_database().types.values()
    PARENT_SIDES = [(t.code, d) for t in _TYPES for d in t.directions() if t.can_parent(d)]
    CHILD_SIDES = [(t.code, d) for t in _TYPES for d in t.directions() if t.can_child(d)]

    @given(
        parent_side=st.sampled_from(PARENT_SIDES),
        child_side=st.sampled_from(CHILD_SIDES),
        angle=st.sampled_from(CONNECTION_ANGLES),
        seed=st.integers(0, 2**32 - 1),
        other=st.floats(-180.0, 180.0),
        probes=st.lists(st.floats(-360.0, 360.0), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_squared_residual_is_a_sinusoid(
        self, db, parent_side, child_side, angle, seed, other, probes
    ):
        # Holds for any observed transform, so the two module poses are drawn
        # independently; no output bundle is seen, so collinear joints stay free.
        (parent_code, parent_dir), (child_code, child_dir) = parent_side, child_side
        rng = np.random.default_rng(seed)
        parent = _detected(db, parent_code, random_base(rng))
        child = _detected(db, child_code, random_base(rng))
        model = _PairModel(parent, parent_dir, child, child_dir, None, IdentifyConfig())
        assume(model.has_theta_n or model.has_theta_c)
        free = []
        if model.has_theta_n:
            free.append(lambda t: model.residual(angle, t, other))
            free.append(lambda t: model.position_residual(angle, t))
        if model.has_theta_c:
            free.append(lambda t: model.residual(angle, other, t))
        for f in free:
            a, b, c = _sinusoid_fit(f)
            for t in probes:
                assert f(t) ** 2 == pytest.approx(
                    _sinusoid(a, b, c, t), rel=1e-9, abs=1e-9 * a
                )

    @given(
        a_excess=st.floats(0.0, 10.0),
        amplitude=st.floats(0.0, 10.0),
        phase=st.floats(-180.0, 180.0),
        lo=st.floats(-540.0, 300.0),
        width=st.floats(1.0, 400.0),
    )
    @example(a_excess=0.0, amplitude=5e-324, phase=151.0, lo=5e-324, width=1.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_scan_of_sinusoids(self, a_excess, amplitude, phase, lo, width):
        def f(t):
            return math.sqrt(a_excess + amplitude * (1.0 + math.cos(math.radians(t - phase))))

        limits = (lo, lo + width)
        theta = _minimize_sinusoid(f, limits)
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
        cfg = IdentifyConfig()
        model = _PairModel(by["T-001"], UPRIGHT, by["g-001"], UPRIGHT, None, cfg)

        def f(t):
            return model.residual(90.0, theta_n=t)

        theta = _minimize_sinusoid(f, limits)
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
        module.output_pose = compose(module.output_pose, Pose.from_rotation(rot_x(30.0)))
        with pytest.raises(NonCollinearBundles):
            estimate_joint_angle(module, UPRIGHT, None, by["G-001"], IdentifyConfig())

    def test_missing_bundle(self, db):
        obs = synthesize(parse("I-G0"), [10.0], db)
        by, _, _ = detected_by_serial(obs, db)
        module = by["I-001"]
        module.output_pose = None
        with pytest.raises(NonCollinearBundles):
            estimate_joint_angle(module, UPRIGHT, None, by["G-001"], IdentifyConfig())

    def test_limit_handling(self, db):
        obs = synthesize(parse("T-G0"), [119.0], db)
        by, _, _ = detected_by_serial(obs, db)
        t_mod = by["T-001"]
        g_mod = by["G-001"]
        # Push the observed child direction slightly past the limit: clamped.
        spun = compose(t_mod.master_pose, Pose.from_rotation(axis_angle([0, 0, 1], 2.0)))
        g_mod.master_pose = Pose(
            g_mod.master_pose.rotation,
            t_mod.master_pose.translation
            + spun.rotation @ (g_mod.master_pose.translation - t_mod.master_pose.translation),
        )
        # ~121 degrees: within the 2 degree slack, clamps with a warning.
        with pytest.warns(UserWarning, match="clamped"):
            theta = estimate_joint_angle(t_mod, UPRIGHT, None, g_mod, IdentifyConfig())
        assert theta == pytest.approx(120.0)

    def test_limit_exceeded(self, db):
        obs = synthesize(parse("T-G0"), [0.0], db)
        by, _, _ = detected_by_serial(obs, db)
        t_mod = by["T-001"]
        g_mod = by["G-001"]
        g_mod.master_pose = Pose(
            g_mod.master_pose.rotation,
            t_mod.master_pose.translation + np.array([0.0, -100.0, 0.0]),
        )
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
            base=Pose.from_translation([2000.0, 0.0, 0.0]),
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
