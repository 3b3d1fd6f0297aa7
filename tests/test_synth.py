import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainforge.cli import main
from chainforge.descriptor import parse
from chainforge.geometry import (
    Pose,
    raw_connection_angle,
    relative,
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
    forward_poses,
    read_scene,
    synthesize,
    write_scene,
)

from helpers import field_values, random_chain_case


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
        with pytest.raises(MissingInstance):
            forward_poses(parse("L-L0-L0-L0-L0-L0-L0-G0"), [], db)

    def test_assignment_respected(self, db):
        placements = forward_poses(
            parse("L-G0"), [], db, assignment=["L-003", "G-002"]
        )
        assert [p.serial for p in placements] == ["L-003", "G-002"]

    def test_assignment_type_checked(self, db):
        with pytest.raises(MissingInstance):
            forward_poses(parse("L-G0"), [], db, assignment=["T-001", "G-001"])

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


class TestSynthesize:
    def test_zero_noise_equals_forward(self, db):
        desc = parse("I-T0-G0")
        placements = forward_poses(desc, [10.0, 20.0], db)
        obs = synthesize(desc, [10.0, 20.0], db, cfg=SceneConfig(seed=4))
        by_id = {o.marker_id: o.pose for o in obs}
        assert len(obs) == 4  # three masters plus one output bundle
        for pl, rec_serial in zip(placements, ["I-001", "T-001", "G-001"]):
            rec = next(r for r in db.records if r.serial == pl.serial)
            assert by_id[rec.master_marker_id].approx_equal(pl.master_pose)
            if pl.output_pose is not None:
                assert by_id[rec.output_marker_id].approx_equal(pl.output_pose)

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

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"marker_id": 3, "t": [0, 0, 0]}]')
        with pytest.raises(SceneParseError):
            read_scene(path)

    def test_negative_marker_rejected(self):
        with pytest.raises(ValueError):
            MarkerObservation(-1, Pose.identity())


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
