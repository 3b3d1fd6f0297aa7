import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainforge import synth
from chainforge.cli import main
from chainforge.descriptor import ChainDescriptor, ChainEntry, parse
from chainforge.geometry import (
    CONNECTION_ANGLES,
    InvalidPose,
    Pose,
    rot_y,
    unit_between,
)
from chainforge.synth import (
    LimitViolation,
    MarkerObservation,
    MissingInstance,
    SceneConfig,
    SceneParseError,
    SPURIOUS_ID_BASE,
    SPURIOUS_ID_SPAN,
    forward_poses,
    read_scene,
    synthesize,
    write_scene,
)

from helpers import (
    PAPER_CHAINS,
    corpus_and_noise_rows,
    field_values,
    make_corpus,
    odd_numbers,
    quat_to_matrix,
    random_base,
    random_chain_case,
    raw_connection_angle,
    record_writes,
    reference_forward_poses,
    reference_quat_to_matrix,
    reference_read_scene,
    reference_spurious_markers,
    reference_synthesize,
    registry_first,
    relative,
)


class TestForwardPoses:
    def test_two_module_link_gripper(self, db):
        # Hand-derived: L master to output connector 75 mm, G input connector
        # to master 25 mm, collinear at zero connection angle.
        placements = forward_poses(parse("L-G0"), [], db)
        g = placements[1]
        assert np.allclose(g.master_pose.translation, [0.0, 100.0, 0.0], atol=1e-12)
        assert np.allclose(g.master_pose.rotation, np.eye(3), atol=1e-12)

    def test_straight_configuration_collinear(self, db):
        placements = forward_poses(parse("L-l0-A0-g0"), [], db)
        for pl in placements:
            assert np.allclose(pl.master_pose.rotation[:, 1], [0, 1, 0], atol=1e-12)
            assert np.allclose(pl.master_pose.translation[[0, 2]], 0.0, atol=1e-12)

    def test_collinear_parent_roll(self, db):
        # Hand-derived: the joint of the base module rolls everything
        # downstream about the shared y-axis without moving origins off it.
        placements = forward_poses(parse("I-T0"), [0.0, 0.0], db)
        straight = placements[1].master_pose
        assert np.allclose(straight.translation, [0.0, 120.0, 0.0], atol=1e-12)
        placements = forward_poses(parse("I-T0"), [90.0, 0.0], db)
        rolled = placements[1].master_pose
        assert np.allclose(rolled.translation, [0.0, 120.0, 0.0], atol=1e-12)
        assert np.allclose(rolled.rotation, rot_y(90.0), atol=1e-12)

    def test_output_bundle_relation(self, db):
        theta = 37.0
        placements = forward_poses(parse("I-G0"), [theta], db)
        i_mod = placements[0]
        rel = relative(i_mod.master_pose, i_mod.output_pose)
        assert np.allclose(rel.rotation, rot_y(theta), atol=1e-12)
        assert rel.translation[0] == pytest.approx(0.0, abs=1e-12)
        assert rel.translation[2] == pytest.approx(0.0, abs=1e-12)
        assert rel.translation[1] == pytest.approx(60.0)

    def test_joint_count_mismatch(self, db):
        with pytest.raises(ValueError, match="joint"):
            forward_poses(parse("I-T0-G0"), [0.0], db)

    def test_limit_violation(self, db):
        with pytest.raises(LimitViolation):
            forward_poses(parse("T-G0"), [150.0], db)

    def test_missing_instance(self, db):
        # Seven L entries, and the registry holds six L modules.
        with pytest.raises(MissingInstance, match="free module of type 'L'"):
            forward_poses(parse("L-L0-L0-L0-L0-L0-L0-G0"), [], db)

    def test_unknown_type_is_a_missing_instance(self, db):
        with pytest.raises(MissingInstance, match="free module of type 'X'"):
            forward_poses(parse("L-X0-G0"), [], db)

    def test_instances_taken_in_registry_order(self, db):
        # Each entry takes the next free instance of its type, whatever sits between.
        placements = forward_poses(parse("L-T0-L0-G0"), [0.0], db)
        assert [p.serial for p in placements] == ["L-001", "T-001", "L-002", "G-001"]

    @pytest.mark.parametrize("text", ["A-G'0", "G-G0", "W-S0"])
    def test_mate_without_connectors_rejected(self, db, text):
        # An inverted tool has no childward side to mate by; an upright tool
        # has no connector to carry a child.
        with pytest.raises(ValueError, match="chain position 1: no connector mates"):
            forward_poses(parse(text), [], db)

    def test_inverted_tool_base_carries_a_child(self, db):
        assert len(forward_poses(parse("G'-I0-G0"), [0.0], db)) == 3

    @pytest.mark.parametrize(
        "text, position",
        [("A-G0-L0", 2), ("A-G'0-L0", 1), ("L-G0-L0-G0", 2), ("G'-L0-G0", None)],
    )
    def test_tool_in_mid_chain_fails_the_mate_check(self, db, text, position):
        # A tool has one connector: upright it carries no child, inverted it
        # has no parent, so the mate check alone keeps tools at the chain ends.
        if position is None:
            assert len(synthesize(parse(text), [], db)) == 3
            return
        with pytest.raises(ValueError, match=f"^chain position {position}: no connector mates"):
            synthesize(parse(text), [], db)

    def test_inverted_adapter_rejected(self, db):
        with pytest.raises(ValueError, match="type 'A' cannot be installed inverted"):
            forward_poses(parse("A'-G0"), [], db)

    def test_adjacent_distances_within_bound(self, db):
        rng = np.random.default_rng(11)
        bound = db.max_connected_distance()
        for _ in range(25):
            desc, thetas, base = random_chain_case(rng, db)
            placements = forward_poses(desc, thetas, db, base=base)
            for a, b in zip(placements, placements[1:]):
                gap = np.linalg.norm(
                    b.master_pose.translation - a.master_pose.translation
                )
                assert gap <= bound + 1e-9

    def test_mating_recovers_connection_angle(self, db):
        # Upright non-joint pairs: the raw z-to-z angle at the masters is
        # exactly the synthesized connection angle.
        for c in (-90.0, 0.0, 90.0, 180.0):
            text = f"L-l({int(c)})" if c < 0 else f"L-l{int(c)}"
            placements = forward_poses(parse(text), [], db)
            raw = raw_connection_angle(
                placements[0].master_pose, placements[1].master_pose
            )
            assert raw == pytest.approx(c, abs=1e-6)


def assert_matches_compose_reference(db, desc, thetas, base=None):
    """The table FK against one Pose composition per factor, to 1e-9 mm and 1e-12 per
    rotation entry."""
    got = forward_poses(desc, thetas, db, base=base)
    want = reference_forward_poses(desc, thetas, db, base=base)
    assert [pl.serial for pl in got] == [pl.serial for pl in want]
    for ours, theirs in zip(got, want):
        assert (ours.output_pose is None) == (theirs.output_pose is None)
        pairs = [(ours.master_pose, theirs.master_pose), (ours.output_pose, theirs.output_pose)]
        for a, b in pairs[: 1 if ours.output_pose is None else 2]:
            assert np.abs(a.translation - b.translation).max() <= 1e-9
            assert np.abs(a.rotation - b.rotation).max() <= 1e-12


class TestTableForwardKinematics:
    def test_round_trip_corpus(self, db):
        for desc, _, thetas, base in make_corpus(db, 500, 20260808):
            assert_matches_compose_reference(db, desc, thetas, base)

    def test_manipulator_joint_draws(self, db):
        rng = np.random.default_rng(4242)  # the criterion-4 draws
        for _ in range(100):
            spans = (180.0, 120.0, 120.0, 120.0, 180.0)
            thetas = [float(rng.uniform(-0.7, 0.7) * hi) for hi in spans]
            assert_matches_compose_reference(db, parse("I-T'0-T'0-A0-t0-i0-g0"), thetas)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_inverted_joints_at_nonzero_states(self, db, seed):
        # Joint chains, half of their modules inverted, the dual-bundle I and i among them.
        rng = np.random.default_rng(seed)
        entries, thetas = [], []
        for k in range(int(rng.integers(1, 7))):
            code = str(rng.choice(["I", "i", "T", "t"]))
            angle = None if k == 0 else float(rng.choice(CONNECTION_ANGLES))
            entries.append(ChainEntry(code, bool(rng.random() < 0.5), angle))
            thetas.append(float(rng.uniform(*db.types[code].joint_limits)))
        entries.append(ChainEntry("G", False, float(rng.choice(CONNECTION_ANGLES))))
        desc = ChainDescriptor(tuple(entries))
        assert_matches_compose_reference(db, desc, thetas, random_base(rng))


class TestSynthesize:
    def test_zero_noise_equals_forward(self, db):
        # At zero noise every master and output marker is its forward_poses
        # placement, bit for bit, over the corpus and the criterion-4 draws.
        cases = [(desc, thetas, base) for desc, _, thetas, base in make_corpus(db, 500, 20260808)]
        rng = np.random.default_rng(4242)
        for _ in range(100):
            thetas = [float(rng.uniform(-0.7, 0.7) * hi) for hi in (180, 120, 120, 120, 180)]
            cases.append((parse("I-T'0-T'0-A0-t0-i0-g0"), thetas, None))
        by_serial = {r.serial: r for r in db.records}
        checked = 0
        for desc, thetas, base in cases:
            by_id = {o.marker_id: o.pose for o in synthesize(desc, thetas, db, base=base)}
            expected = []
            for pl in forward_poses(desc, thetas, db, base=base):
                rec = by_serial[pl.serial]
                expected.append((rec.master_marker_id, pl.master_pose))
                if pl.output_pose is not None:
                    expected.append((rec.output_marker_id, pl.output_pose))
            assert len(by_id) == len(expected)
            for marker_id, pose in expected:
                assert np.array_equal(by_id[marker_id].rotation, pose.rotation)
                assert np.array_equal(by_id[marker_id].translation, pose.translation)
            checked += len(expected)
        assert checked == 4651

    def test_total_dropout_leaves_spurious(self, db):
        obs = synthesize(
            parse("I-T0-G0"),
            [0.0, 0.0],
            db,
            cfg=SceneConfig(dropout_prob=1.0, spurious_count=3, seed=8),
        )
        assert len(obs) == 3
        assert all(o.marker_id >= SPURIOUS_ID_BASE for o in obs)

    def test_same_seed_identical(self, db, tmp_path):
        cfg = SceneConfig(sigma_pos=2.0, sigma_rot=2.0, spurious_count=2, seed=123)
        a = synthesize(parse("I-T0-G0"), [5.0, -5.0], db, cfg=cfg)
        b = synthesize(parse("I-T0-G0"), [5.0, -5.0], db, cfg=cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_scene(pa, a)
        write_scene(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_noise_parameters_validated(self):
        with pytest.raises(ValueError):
            SceneConfig(sigma_pos=-1.0)
        with pytest.raises(ValueError):
            SceneConfig(dropout_prob=1.5)
        with pytest.raises(ValueError):
            SceneConfig(spurious_count=-1)
        for name in ("sigma_pos", "sigma_rot"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    SceneConfig(**{name: value})
        with pytest.raises(ValueError, match="dropout_prob"):
            SceneConfig(dropout_prob=math.nan)

    @pytest.mark.parametrize("name", ["sigma_pos", "sigma_rot"])
    def test_sigma_that_can_overflow_a_draw_is_named(self, db, name):
        # A sigma of 1e308 overflows some draws (sigma_rot at seeds 2, 7, 9, 14
        # and 16 of these), so it is refused by name; at the largest sigma
        # allowed every draw stays finite.
        desc = parse("I-T0-G0")
        for seed in range(20):
            with pytest.raises(ValueError, match=f"^{name} must be finite and at most 1e\\+300$"):
                synthesize(desc, [10.0, 20.0], db, cfg=SceneConfig(**{name: 1e308}, seed=seed))
            cfg = SceneConfig(**{name: synth.SIGMA_MAX}, spurious_count=2, seed=seed)
            obs = synthesize(desc, [10.0, 20.0], db, cfg=cfg)
            assert len(obs) == 6

    @pytest.mark.parametrize("name", ["sigma_pos", "sigma_rot", "dropout_prob"])
    @pytest.mark.parametrize("value", ["2", None, True, False, [1.0], 1j])
    def test_noise_parameters_must_be_numbers(self, name, value):
        # A value that is not a number is caught before any comparison, and the
        # message names the field rather than the comparison that failed.
        message = f"^{name} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SceneConfig(**{name: value})

    @pytest.mark.parametrize("value", [1, np.float32(0.5), np.float64(0.25), np.int64(0)])
    def test_noise_parameters_of_any_real_type_accepted(self, value):
        cfg = SceneConfig(sigma_pos=value, sigma_rot=value, dropout_prob=value)
        assert (cfg.sigma_pos, cfg.sigma_rot, cfg.dropout_prob) == (value,) * 3

    @pytest.mark.parametrize("name", ["spurious_count", "seed"])
    @pytest.mark.parametrize("value", [-1, 1.5, 2.0, True, False, "3", None])
    def test_counts_must_be_non_negative_integers(self, name, value):
        # Caught where the configuration is made, naming the field, rather than
        # inside numpy when a scene is drawn.
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer"):
            SceneConfig(**{name: value})

    def test_spurious_count_bounded_by_the_id_span(self, db):
        # Every spurious marker takes a distinct id of the span, so the span is
        # the most there can be; one more is caught where the configuration is
        # made, naming the field and the limit, rather than inside numpy.
        span = SPURIOUS_ID_SPAN
        obs = synthesize(parse("L-G0"), [], db, cfg=SceneConfig(spurious_count=span))
        assert len({o.marker_id for o in obs if o.marker_id >= SPURIOUS_ID_BASE}) == span
        message = f"^spurious_count must be at most {span} .*got {span + 1}$"
        with pytest.raises(ValueError, match=message):
            SceneConfig(spurious_count=span + 1)

    def test_numpy_integer_counts_accepted(self, db):
        def scene(cfg):
            obs = synthesize(parse("L-G0"), [], db, cfg=cfg)
            return [(o.marker_id, o.pose.matrix().tobytes()) for o in obs]

        cfg = SceneConfig(spurious_count=np.int64(2), seed=np.uint32(5))
        assert scene(cfg) == scene(SceneConfig(spurious_count=2, seed=5))

    @given(
        case_seed=st.integers(0, 2**32 - 1),
        sigma_pos=st.floats(0.0, 10.0),
        sigma_rot=st.floats(0.0, 10.0),
        dropout=st.floats(0.0, 1.0),
        spurious=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(case_seed=0, sigma_pos=2.0, sigma_rot=2.0, dropout=1.0, spurious=0, seed=1)
    @example(case_seed=1, sigma_pos=0.0, sigma_rot=0.0, dropout=0.0, spurious=5, seed=2)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_marker_reference(
        self, db, case_seed, sigma_pos, sigma_rot, dropout, spurious, seed
    ):
        desc, thetas, base = random_chain_case(np.random.default_rng(case_seed), db)
        cfg = SceneConfig(sigma_pos, sigma_rot, dropout, spurious, seed)
        got = synthesize(desc, thetas, db, base=base, cfg=cfg)
        want = reference_synthesize(desc, thetas, db, base=base, cfg=cfg)

        def marker_bytes(obs):
            return [
                (o.marker_id, o.pose.rotation.tobytes(), o.pose.translation.tobytes())
                for o in obs
            ]

        assert marker_bytes(got) == marker_bytes(want)
        if dropout == 1.0 and spurious == 0:
            assert got == []
        for o in got:
            assert not (o.pose.rotation.flags.writeable or o.pose.translation.flags.writeable)

    def test_noise_rows_match_numpy_reference(self, db, tmp_path, monkeypatch):
        # The criterion-4 noise rows, whose spurious markers take their
        # rotations from the float quaternion kernel, give the scene files
        # that the numpy quaternion formula gives, and that the synthesizer
        # gave when it drew each spurious rotation through numpy.
        desc = parse("I-T'0-T'0-A0-t0-i0-g0")
        rows = [(2.0, 3, 0.0), (4.0, 3, 0.0), (6.0, 3, 0.0), (2.0, 0, 0.05)]
        rng = np.random.default_rng(4242)

        def numpy_drawn(*args, **kwargs):
            with monkeypatch.context() as mp:
                mp.setattr(synth, "_spurious_markers", reference_spurious_markers)
                return synthesize(*args, **kwargs)

        for k in range(10):
            thetas = [float(rng.uniform(-0.7, 0.7) * hi) for hi in (180, 120, 120, 120, 180)]
            for sigma, spurious, dropout in rows:
                cfg = SceneConfig(sigma, sigma, dropout, spurious, seed=9000 + k)
                files = []
                for make in (synthesize, reference_synthesize, numpy_drawn):
                    write_scene(tmp_path / "scene.json", make(desc, thetas, db, cfg=cfg))
                    files.append((tmp_path / "scene.json").read_bytes())
                assert files[0] == files[1] == files[2]

    def test_scene_poses_still_checked(self, db, monkeypatch):
        monkeypatch.setattr(synth, "axis_angle", lambda axis, deg: np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(InvalidPose, match="proper"):
            synthesize(parse("L-G0"), [], db, cfg=SceneConfig(spurious_count=2))

    def test_spurious_ids_outside_registry(self, db):
        obs = synthesize(
            parse("L-G0"), [], db, cfg=SceneConfig(spurious_count=5, seed=3)
        )
        spurious = [o for o in obs if o.marker_id >= SPURIOUS_ID_BASE]
        assert len(spurious) == 5
        assert len({o.marker_id for o in spurious}) == 5
        assert all(db.lookup_marker(o.marker_id) is None for o in spurious)


class TestSceneFiles:
    def test_round_trip(self, db, tmp_path):
        obs = synthesize(
            parse("I-T'0-G0"),
            [12.5, -33.25],
            db,
            cfg=SceneConfig(sigma_pos=1.0, sigma_rot=1.0, seed=9),
        )
        path = tmp_path / "scene.json"
        write_scene(path, obs)
        loaded = read_scene(path)
        assert [o.marker_id for o in loaded] == [o.marker_id for o in obs]
        for a, b in zip(obs, loaded):
            # Translations never pass through a conversion and come back
            # bit-exact; rotations pass through a unit quaternion.
            assert np.array_equal(a.pose.translation, b.pose.translation)
            assert np.abs(a.pose.rotation - b.pose.rotation).max() <= 1e-12

    def test_empty_scene(self, tmp_path):
        path = tmp_path / "empty.json"
        write_scene(path, [])
        assert read_scene(path) == []

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('[{"marker_id": 3, "t": [0, 0, 0], "q": [0, 0, 0, ')
        with pytest.raises(SceneParseError) as exc:
            read_scene(path)
        assert exc.value.line is not None

    def test_not_an_array(self, tmp_path):
        path = tmp_path / "object.json"
        path.write_text('{"marker_id": 3}')
        with pytest.raises(SceneParseError, match="JSON array"):
            read_scene(path)

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"marker_id": 3, "t": [0, 0, 0]}]')
        with pytest.raises(SceneParseError):
            read_scene(path)

    def test_negative_marker_rejected(self):
        with pytest.raises(ValueError):
            MarkerObservation(-1, Pose.identity())

    @pytest.mark.parametrize("marker_id", [True, "7", 1.5, None])
    def test_non_integer_marker_id_rejected(self, marker_id):
        with pytest.raises(ValueError, match="^marker_id must be a non-negative integer$"):
            MarkerObservation(marker_id, Pose.identity())

    @pytest.mark.parametrize("pose", [None, np.eye(4), [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]])
    def test_pose_must_be_a_pose(self, pose):
        with pytest.raises(ValueError, match="^pose must be a Pose, got "):
            MarkerObservation(7, pose)

    def test_numpy_integer_marker_id_accepted(self):
        assert MarkerObservation(np.int64(7), Pose.identity()).marker_id == 7


ONE_ENTRY = [(1, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0])]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, db):
    from chainforge.module_db import save_database

    path = tmp_path_factory.mktemp("scene-fuzz")
    save_database(db, path / "db.json")
    obs = synthesize(parse("I-T0-G0"), [10.0, 20.0], db, cfg=SceneConfig(seed=7))
    write_scene(path / "valid.json", obs)
    return path


class TestSceneBoundary:
    @given(index=st.integers(0, 3), field=st.sampled_from(["marker_id", "t", "q"]),
           value=field_values)
    @example(index=0, field="t", value=5)
    @example(index=1, field="marker_id", value=1.5)
    @example(index=1, field="marker_id", value=True)
    @example(index=2, field="q", value=[0.0, 0.0, 0.0, 0.0])
    @example(index=2, field="t", value=[10**400, 0, 0])
    @settings(max_examples=150, deadline=None)
    # Coordinates near the float limit overflow numpy norms to inf, which
    # identification handles; the overflow warning itself is expected.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_any_field_value_parses_or_raises_typed(self, fuzz_dir, index, field, value):
        doc = json.loads((fuzz_dir / "valid.json").read_text())
        doc[index][field] = value
        path = fuzz_dir / "scene.json"
        path.write_text(json.dumps(doc))
        argv = ["identify", "--scene", str(path), "--db", str(fuzz_dir / "db.json")]
        try:
            read_scene(path)
        except SceneParseError:
            assert main(argv) == 1
        else:
            assert main(argv) in (0, 1, 2)

    def test_first_bad_observation_is_named(self, tmp_path):
        # The zero quaternion of observation 2 is found before the bad key of
        # observation 3, as a one-by-one reader would find it.
        doc = [{"marker_id": i, "t": [0, 0, i], "q": [0, 0, 0, 1]} for i in range(5)]
        doc[2]["q"] = [0, 0, 0, 0]
        doc[3] = {"marker_id": 3, "t": [0, 0, 0], "quat": [0, 0, 0, 1]}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneParseError, match=r"^observation 2: zero-norm quaternion$"):
            read_scene(path)

    @given(
        markers=st.lists(
            st.tuples(
                st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
                    lambda v: sum(x * x for x in v) > 1e-2
                ),
                st.floats(-11.0, 150.0),
                st.booleans(),
                st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_poses_equal_one_by_one_construction(self, fuzz_dir, markers):
        # Quaternions with norms from 1e-11 to 1e150 and either sign of w;
        # every pose must equal, bit for bit, the pose the constructor builds
        # from the scalar quaternion formula.
        doc = []
        for i, (direction, exponent, negative_w, t) in enumerate(markers):
            norm = math.sqrt(sum(v * v for v in direction))
            q = [v / norm * 10.0**exponent for v in direction]
            q[3] = -abs(q[3]) if negative_w else abs(q[3])
            doc.append({"marker_id": i, "t": t, "q": q})
        path = fuzz_dir / "unnormalized.json"
        path.write_text(json.dumps(doc))
        observations = read_scene(path)
        assert [o.marker_id for o in observations] == list(range(len(doc)))
        for entry, obs in zip(doc, observations):
            t = np.array(entry["t"], dtype=float)
            for rotation in (reference_quat_to_matrix(entry["q"]), quat_to_matrix(entry["q"])):
                expected = Pose(rotation, t)
                assert obs.pose.rotation.tobytes() == expected.rotation.tobytes()
                assert obs.pose.translation.tobytes() == expected.translation.tobytes()
            assert not obs.pose.rotation.flags.writeable
            assert not obs.pose.translation.flags.writeable

    @given(
        entries=st.lists(
            st.tuples(
                st.integers(0, 5000),
                st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3),
                # Norms from below the zero-norm bound to past the overflow one.
                st.tuples(
                    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), st.floats(-14, 160)
                ).map(lambda v: [x * 10.0 ** v[1] for x in v[0]]),
            ),
            max_size=8,
        ),
        faults=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.sampled_from(["marker_id", "t", "q", "extra key", "missing key"]),
                field_values
                | st.lists(st.floats(-1.0, 1.0) | odd_numbers, min_size=2, max_size=5),
            ),
            max_size=2,
        ),
    )
    @example(entries=ONE_ENTRY, faults=[(0, "q", [0, True, 0, 1])])
    @example(entries=ONE_ENTRY, faults=[(0, "t", [0, math.inf, 0])])
    @example(entries=ONE_ENTRY, faults=[(0, "q", [0, 0, 0, 0])])
    @example(entries=ONE_ENTRY, faults=[(2, "missing key", 0)])
    # Both fields bad: the quaternion's checks come first.
    @example(entries=ONE_ENTRY, faults=[(0, "t", [0, math.inf, 0]), (0, "q", [0, 0, 0, 0])])
    @example(entries=[(1, [0.0, 0.0, 0.0], [1e200, 1e200, 0.0, 0.0])], faults=[])
    @settings(max_examples=300, deadline=None)
    def test_reads_like_numpy_reference(self, fuzz_dir, entries, faults):
        # Valid and malformed documents, with up to two faults in one entry or
        # in two: the float read path returns the numpy path's poses bit for
        # bit, or raises its SceneParseError text.
        doc = [{"marker_id": m, "t": t, "q": q} for m, t, q in entries]
        for index, where, value in faults if doc else []:
            entry = doc[index % len(doc)]
            if where == "missing key":
                entry.pop(("marker_id", "t", "q")[index % 3], None)
            else:
                entry["extra" if where == "extra key" else where] = value
        path = fuzz_dir / "document.json"
        path.write_text(json.dumps(doc))

        def outcome(read):
            try:
                observations = read(path)
            except SceneParseError as exc:
                return str(exc)
            return [
                (o.marker_id, o.pose.rotation.tobytes(), o.pose.translation.tobytes())
                for o in observations
            ]

        assert outcome(read_scene) == outcome(reference_read_scene)

    @pytest.mark.parametrize("marker_id", [1.5, True, 3.0, "3", None])
    def test_non_integer_marker_id_rejected(self, tmp_path, marker_id):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps([{"marker_id": marker_id, "t": [0, 0, 0], "q": [0, 0, 0, 1]}]))
        with pytest.raises(SceneParseError, match="marker_id"):
            read_scene(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_bytes(b"[\xff]")
        with pytest.raises(SceneParseError):
            read_scene(path)


def test_write_scene_writes_once(db, tmp_path, monkeypatch):
    obs = synthesize(parse("I-T0-G0"), [10.0, 20.0], db, cfg=SceneConfig(sigma_pos=1.0, seed=3))
    path = tmp_path / "scene.json"
    writes = record_writes(monkeypatch)
    write_scene(path, obs)
    assert writes == [path.read_bytes()]
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=1) + "\n"


GOLDEN_SCENES = Path(__file__).parent / "golden" / "scene_digests.txt"


def scene_digest_lines(db, directory) -> list[str]:
    """One JSON line per scene: its index and the sha256 of its scene file."""
    lines = []
    for i, obs in enumerate(corpus_and_noise_rows(db, 100, 39)):
        write_scene(directory / "scene.json", obs)
        digest = hashlib.sha256((directory / "scene.json").read_bytes()).hexdigest()
        lines.append(json.dumps([i, digest]))
    return lines


def test_scenes_match_golden_digests(db, tmp_path):
    # The first corpus scenes and noise draws, byte for byte as recorded:
    # every marker's frame, noise draw and spurious marker to the last bit.
    got = scene_digest_lines(db, tmp_path)
    want = GOLDEN_SCENES.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want) == 100 + 4 * 39
    for g, w in zip(got, want):
        assert g == w


def test_climbing_robot_scene_matches_golden_digest(db, tmp_path):
    # The climbing robot placed on chosen serials, at zero noise and the default base.
    text, thetas, serials = PAPER_CHAINS[3]
    placed = registry_first(db, serials)
    placements = forward_poses(parse(text), thetas, placed)
    assert [p.serial for p in placements] == list(serials)
    write_scene(tmp_path / "scene.json", synthesize(parse(text), thetas, placed))
    digest = hashlib.sha256((tmp_path / "scene.json").read_bytes()).hexdigest()
    assert digest == "ba53587572b5f07ca3ca6561c438fb5901c3ad04fd6abba508ccf9acb8240df3"
