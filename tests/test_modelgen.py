import hashlib
import json
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainforge.descriptor import parse, serialize
from chainforge.geometry import CONNECTION_ANGLES, Pose, compose, invert
from chainforge.identify import (
    ChainLink,
    DetectedModule,
    IdentifiedChain,
    IdentifyConfig,
    IdentifyError,
    build_chain,
    build_tree,
    to_descriptor,
)
from chainforge.modelgen import (
    InconsistentChain,
    JOINT_FIXED,
    JOINT_REVOLUTE,
    ModelJoint,
    ModelLink,
    ModelParseError,
    RobotModel,
    generate_model,
    read_model,
    write_model,
)
from chainforge.module_db import (
    UPRIGHT,
    ModuleRecord,
    default_database,
    load_database,
    save_database,
)
from chainforge.synth import forward_poses, synthesize

from helpers import (
    PAPER_CHAINS,
    corpus_and_noise_rows,
    field_values,
    make_corpus,
    make_two_branch_scene,
    model_world_frames,
    random_base,
    record_writes,
    reference_directions,
    reference_generate_model,
    reference_link_out,
    reference_mate,
    reference_write_model_xml,
    registry_first,
    skewed_database,
)

GOLDEN_XML = Path(__file__).parent / "golden" / "manipulator.xml"
GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "model_digests.txt"


def chain_for(db, text, thetas, serials=None):
    obs = synthesize(parse(text), thetas, registry_first(db, serials))
    return build_chain(obs, db)


class TestGenerateModel:
    def test_link_and_joint_counts(self, db):
        model = generate_model(chain_for(db, "I-T0-G0", [25.0, -40.0]), db)
        assert [l.name for l in model.links] == ["I-001_in", "I-001_out", "T-001", "G-001"]
        revolute = [j for j in model.joints if j.joint_type == JOINT_REVOLUTE]
        fixed = [j for j in model.joints if j.joint_type == JOINT_FIXED]
        assert len(revolute) == 2
        assert len(fixed) == 1

    def test_single_tool(self, db):
        model = generate_model(chain_for(db, "G", []), db)
        assert len(model.links) == 1
        assert model.joints == []

    def test_climbing_robot_tools_at_both_ends(self, db):
        text, thetas, serials = PAPER_CHAINS[3]
        model = generate_model(chain_for(db, text, thetas, serials), db)
        names = [l.name for l in model.links]
        assert names[0] == "G-002"  # base gripper
        assert "G-001" in names  # end gripper
        gripper_links = [n for n in names if n.startswith("G-")]
        assert len(gripper_links) == 2

    def test_metadata_description_matches_serialization(self, db):
        chain = chain_for(db, "I-T'0-T'0-A0-t0-i0-g0", [15.0, -40.0, 55.0, 20.0, -40.0])
        model = generate_model(chain, db, metadata={"method": "geometric"})
        assert model.metadata["description"] == [serialize(to_descriptor(chain))]
        assert model.metadata["method"] == "geometric"
        assert model.metadata["bus_ids"]["I-001"] == 13

    def test_limit_violation_rejected(self, db):
        chain = chain_for(db, "T-G0", [30.0])
        chain.links[0] = replace(chain.links[0], joint_angle=500.0)
        with pytest.raises(InconsistentChain):
            generate_model(chain, db)

    def test_joint_graph_is_tree(self, db):
        model = generate_model(chain_for(db, "I-T0-G0", [25.0, -40.0]), db)
        children = [j.child for j in model.joints]
        assert len(children) == len(set(children))
        model_world_frames(model)  # raises if not a rooted tree

    @pytest.mark.parametrize("chain", [[], IdentifiedChain([], [])])
    def test_empty_chain_rejected(self, db, chain):
        with pytest.raises(InconsistentChain, match="at least one non-empty chain"):
            generate_model(chain, db)

    def test_duplicate_link_name_rejected(self, db):
        # A link module registered under the name of I-001's input link.
        chain = chain_for(db, "I-L0-G0", [25.0])
        link = chain.links[1]
        record = replace(link.module.record, serial="I-001_in")
        chain.links[1] = replace(link, module=replace(link.module, record=record))
        with pytest.raises(InconsistentChain, match="duplicate link name 'I-001_in'"):
            generate_model(chain, db)

    def test_world_frames_need_one_root(self):
        model = RobotModel("robot", [ModelLink("a", 1.0), ModelLink("b", 1.0)], [])
        with pytest.raises(InconsistentChain, match="exactly one root link"):
            model_world_frames(model)

    def test_world_frames_need_a_tree(self):
        # b and c are each other's child, so the root a reaches neither.
        joints = [
            ModelJoint(f"j_{child}", JOINT_FIXED, parent, child, Pose.identity(), (0.0, 0.0, 1.0))
            for parent, child in (("b", "c"), ("c", "b"))
        ]
        model = RobotModel("robot", [ModelLink(name, 1.0) for name in "abc"], joints)
        with pytest.raises(InconsistentChain, match="not a tree"):
            model_world_frames(model)


class TestForwardKinematicsAgreement:
    @pytest.mark.parametrize("case", range(4))
    def test_master_positions_match_scene(self, db, case):
        text, thetas, serials = PAPER_CHAINS[case]
        desc = parse(text)
        base = random_base(np.random.default_rng(40 + case))
        placed = registry_first(db, serials)
        placements = forward_poses(desc, thetas, placed, base=base)
        chain = build_chain(synthesize(desc, thetas, placed, base=base), db)
        model = generate_model(chain, db)
        frames = model_world_frames(model, base_pose=chain.links[0].module.master_pose)
        for pl in placements:
            name = pl.serial + ("_in" if pl.output_pose is not None else "")
            assert (
                np.linalg.norm(frames[name].translation - pl.master_pose.translation)
                <= 1e-6
            )

    def test_joint_origin_distances(self, db):
        # Consecutive joint origins coincide with module masters, so their
        # spacing reproduces the synthesized master spacing.
        desc = parse("L-T0-l0-g0")
        placements = forward_poses(desc, [50.0], db)
        chain = build_chain(synthesize(desc, [50.0], db), db)
        model = generate_model(chain, db)
        frames = model_world_frames(model, base_pose=chain.links[0].module.master_pose)
        masters = [pl.master_pose.translation for pl in placements]
        for joint, master in zip(model.joints, masters[1:]):
            assert np.linalg.norm(frames[joint.child].translation - master) <= 1e-6


class TestTreeModels:
    def test_two_branch_tree_shares_trunk(self, db):
        rng = np.random.default_rng(77)
        obs, trunk, arm1, arm2 = make_two_branch_scene(rng, db)
        branches = build_tree(obs, db)
        model = generate_model(branches, db)
        names = {l.name for l in model.links}
        for serial in trunk[:-1] + arm1 + arm2:
            assert serial in names or f"{serial}_in" in names
        # Trunk emitted once even though both branches contain it.
        trunk_links = [n for n in names if n.startswith("L-")]
        assert len(trunk_links) == 1


def assert_matches_reference(model, reference):
    """Equal models, but for joint origins within 1e-12 per rotation entry and 1e-9 mm."""
    assert (model.name, model.links, model.metadata) == (
        reference.name, reference.links, reference.metadata
    )
    assert [replace(j, origin=None) for j in model.joints] == [
        replace(j, origin=None) for j in reference.joints
    ]
    for ours, theirs in zip(model.joints, reference.joints):
        assert np.abs(ours.origin.rotation - theirs.origin.rotation).max() <= 1e-12
        assert np.abs(ours.origin.translation - theirs.origin.translation).max() <= 1e-9


class TestJointOrigins:
    """Joint origins from the catalog's 4x4 tables against Pose compositions."""

    @pytest.mark.parametrize("method", ["geometric", "optimization"])
    def test_corpus_matches_world_frame_reference(self, db, method):
        cfg = IdentifyConfig(method=method)
        for desc, _canonical, thetas, base in make_corpus(db, 50, 20260808):
            chain = build_chain(synthesize(desc, thetas, db, base=base), db, cfg)
            assert_matches_reference(generate_model(chain, db), reference_generate_model(chain, db))

    def test_tree_matches_world_frame_reference(self, db):
        obs, *_ = make_two_branch_scene(np.random.default_rng(77), db)
        branches = build_tree(obs, db)
        assert_matches_reference(
            generate_model(branches, db), reference_generate_model(branches, db)
        )

    @pytest.mark.parametrize(
        "text, thetas, serials",
        PAPER_CHAINS + [("I'-T0-G0", [20.0, 30.0], None), ("T-L0-G0", [30.0], None)],
    )
    def test_chains_match_world_frame_reference(self, db, text, thetas, serials):
        # The paper's chains, and roots that are an inverted I and an upright T.
        chain = chain_for(db, text, thetas, serials)
        assert to_descriptor(chain).entries[0] == parse(text).entries[0]
        assert_matches_reference(generate_model(chain, db), reference_generate_model(chain, db))

    def test_same_mate_same_origin_anywhere_in_the_chain(self, db):
        # World frames accumulate rounding along the chain; a mate's origin must not.
        chain = chain_for(db, "L-T0-L0-T0-L0-T0-G0", [30.0, -45.0, 60.0])
        mates = [j for j in generate_model(chain, db).joints if j.child.startswith("T-")]
        assert [j.parent[:2] for j in mates] == ["L-"] * 3
        origins = {(j.origin.rotation.tobytes(), j.origin.translation.tobytes()) for j in mates}
        assert len(origins) == 1

    @pytest.mark.parametrize("source", ["built", "loaded", "skewed"])
    def test_every_mate_matches_composed_reference(self, tmp_path, source):
        # A two-module chain for every legal mate of the catalog: the child's
        # joint origin is the parent's link-out composed with the child's mate,
        # and each drive is the output offset or its inverse.  Byte for byte
        # on the default catalog; where the offsets are rotated, the 4x4
        # products may round translations differently in the last bits.
        db = default_database()
        if source == "loaded":
            save_database(db, tmp_path / "db.json")
            db = load_database(tmp_path / "db.json")
        elif source == "skewed":
            db = skewed_database()
        def link(mt, serial, direction, angle):
            record = ModuleRecord(serial, mt.code, 1, 0, 1 if mt.dual_bundle else None)
            module = DetectedModule(record, mt, Pose.identity())
            return ChainLink(module, angle, direction, 0.0 if mt.is_joint else None)

        def check(origin, want):
            assert origin.rotation.tobytes() == want.rotation.tobytes()
            if source == "skewed":
                assert np.abs(origin.translation - want.translation).max() <= 1e-12
            else:
                assert origin.translation.tobytes() == want.translation.tobytes()

        mates = 0
        for p in db.types.values():
            for dp in reference_directions(p, "parent"):
                for c in db.types.values():
                    for dc in reference_directions(c, "child"):
                        for angle in CONNECTION_ANGLES:
                            links = [link(p, "p", dp, None), link(c, "c", dc, angle)]
                            joints = generate_model(IdentifiedChain(links, []), db).joints
                            by_name = {j.name: j.origin for j in joints}
                            want = compose(reference_link_out(p, dp), reference_mate(c, dc, angle))
                            check(by_name["j_c"], want)
                            for serial, mt, d in (("p", p, dp), ("c", c, dc)):
                                if mt.dual_bundle:
                                    offset = mt.master_offset_output
                                    drive = offset if d == UPRIGHT else invert(offset)
                                    check(by_name[f"j_{serial}_drive"], drive)
                            mates += 1
        assert mates == (17 * 17 if source != "skewed" else 7 * 7) * len(CONNECTION_ANGLES)

    def test_connection_angle_outside_the_table_raises(self, db):
        chain = chain_for(db, "I-T0-L0-G0", [25.0, -40.0])
        chain.links[2] = replace(chain.links[2], connection_angle=45.0)
        with pytest.raises(InconsistentChain, match="L-001: .*connection angle"):
            generate_model(chain, db)  # no chain string has a 45-degree angle


class TestModelFiles:
    def test_json_round_trip(self, db, tmp_path):
        model = generate_model(chain_for(db, "I-T0-G0", [25.0, -40.0]), db)
        path = tmp_path / "robot.model.json"
        write_model(model, path)
        loaded = read_model(path)
        assert loaded.name == model.name
        assert loaded.links == model.links
        assert loaded.metadata == model.metadata
        for a, b in zip(model.joints, loaded.joints):
            assert a.name == b.name
            assert a.joint_type == b.joint_type
            assert a.parent == b.parent and a.child == b.child
            assert a.axis == b.axis
            assert a.limits == b.limits
            assert a.angle == b.angle
            assert a.origin.approx_equal(b.origin, tol=1e-12)

    def test_xml_round_trip(self, db, tmp_path):
        model = generate_model(chain_for(db, "I-T'0-G0", [25.0, -40.0]), db)
        path = tmp_path / "robot.xml"
        write_model(model, path)
        loaded = read_model(path)
        assert [l.name for l in loaded.links] == [l.name for l in model.links]
        for a, b in zip(model.joints, loaded.joints):
            assert (a.name, a.joint_type, a.parent, a.child) == (
                b.name,
                b.joint_type,
                b.parent,
                b.child,
            )
            assert a.origin.approx_equal(b.origin, tol=1e-9)
            if a.limits is not None:
                assert b.limits == pytest.approx(a.limits)
                assert b.angle == pytest.approx(a.angle)

    def test_xml_revolute_count(self, db, tmp_path):
        model = generate_model(chain_for(db, "I-T0-G0", [25.0, -40.0]), db)
        path = tmp_path / "robot.xml"
        write_model(model, path)
        text = path.read_text()
        assert text.count('type="revolute"') == 2

    def test_format_from_suffix(self, db, tmp_path):
        model = generate_model(chain_for(db, "L-G0", []), db)
        xml_path = tmp_path / "a.xml"
        json_path = tmp_path / "a.model.json"
        write_model(model, xml_path)
        write_model(model, json_path)
        assert xml_path.read_text().startswith("<?xml")
        assert json_path.read_text().lstrip().startswith("{")

    def test_unknown_format(self, db, tmp_path):
        model = generate_model(chain_for(db, "L-G0", []), db)
        with pytest.raises(ValueError):
            write_model(model, tmp_path / "a.bin", fmt="yaml")


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, db):
    """A directory holding one written model in each format."""
    model = generate_model(chain_for(db, "I-T0-G0", [25.0, -40.0]), db)
    directory = tmp_path_factory.mktemp("model-files")
    write_model(model, directory / "robot.json")
    write_model(model, directory / "robot.xml")
    return directory


def _json_paths(doc, prefix=()):
    """Path (keys and indices) of every field of a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield prefix + (key,)
            yield from _json_paths(value, prefix + (key,))


_DELETE = object()


def assert_writes_back_or_raises_typed(path):
    """read_model raises ModelParseError, or its model writes in both formats."""
    try:
        model = read_model(path)
    except ModelParseError:
        return
    write_model(model, path.with_suffix(".back.json"))
    write_model(model, path.with_suffix(".back.xml"))


class TestModelJoint:
    """A joint checks its type and limits when it is built, so a bad one never
    reaches a writer."""

    @pytest.mark.parametrize(
        "joint_type, limits, message",
        [
            (JOINT_REVOLUTE, None, "^revolute joint 'j' has no limits$"),
            (JOINT_FIXED, (-10.0, 10.0), "^fixed joint 'j' has limits$"),
            ("prismatic", (-10.0, 10.0), "^unknown joint type 'prismatic'$"),
        ],
    )
    def test_invalid_joint_rejected(self, joint_type, limits, message):
        with pytest.raises(ValueError, match=message):
            ModelJoint("j", joint_type, "a", "b", Pose.identity(), (0.0, 0.0, 1.0), limits)


class TestModelParseErrors:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {"name": "x", "links": 3},
            lambda doc: {k: v for k, v in doc.items() if k != "joints"},
            lambda doc: [doc],
            lambda doc: {**doc, "joints": [{**doc["joints"][0], "limits_deg": [0.0, 1.0, 2.0]}]},
            lambda doc: {**doc, "joints": [{**doc["joints"][0], "axis": [0.0, 1.0]}]},
            lambda doc: {**doc, "joints": [{**doc["joints"][0], "angle_deg": float("inf")}]},
            lambda doc: {**doc, "joints": [{**doc["joints"][0], "axis": ["0", 1.0, 0.0]}]},
            lambda doc: {**doc, "joints": [{**doc["joints"][0], "type": "prismatic"}]},
        ],
    )
    def test_malformed_json_raises_typed(self, model_dir, edit):
        path = model_dir / "edited.json"
        path.write_text(json.dumps(edit(json.loads((model_dir / "robot.json").read_text()))))
        with pytest.raises(ModelParseError):
            read_model(path)

    @pytest.mark.parametrize(
        "parent, attr, value",
        [
            ("joint/origin/..", "name", None),  # missing attribute
            ("joint/origin", "xyz", "abc 0 0"),  # non-numeric
            ("joint/origin", "rpy", "nan 0 0"),  # non-finite
            ("joint/limit", "lower", "1e999"),  # overflows to inf
            ("joint/axis", "xyz", "0 1"),  # wrong length
            ("joint/parent", "link", None),
            ("joint/origin/..", "type", "prismatic"),
            ("link/visual/geometry/cylinder", "length", "inf"),
        ],
    )
    def test_malformed_xml_raises_typed(self, model_dir, parent, attr, value):
        root = ET.fromstring((model_dir / "robot.xml").read_text())
        el = root.find(parent)
        if value is None:
            del el.attrib[attr]
        else:
            el.set(attr, value)
        path = model_dir / "edited.xml"
        path.write_text(ET.tostring(root, encoding="unicode"))
        with pytest.raises(ModelParseError):
            read_model(path)

    @pytest.mark.parametrize("element", ["joint/origin", "joint/parent", "metadata"])
    def test_missing_or_malformed_xml_element_raises_typed(self, model_dir, element):
        root = ET.fromstring((model_dir / "robot.xml").read_text())
        el = root.find(element)
        if element == "metadata":
            el.text = "[1, 2"
        else:
            root.find(element + "/..").remove(el)
        path = model_dir / "edited.xml"
        path.write_text(ET.tostring(root, encoding="unicode"))
        with pytest.raises(ModelParseError):
            read_model(path)

    def test_xml_metadata_must_be_an_object(self, model_dir):
        root = ET.fromstring((model_dir / "robot.xml").read_text())
        root.find("metadata").text = "[1, 2]"
        path = model_dir / "edited.xml"
        path.write_text(ET.tostring(root, encoding="unicode"))
        with pytest.raises(ModelParseError, match="must hold a JSON object"):
            read_model(path)

    def test_revolute_joint_without_limits_raises_typed(self, model_dir):
        doc = json.loads((model_dir / "robot.json").read_text())
        doc["joints"][0]["limits_deg"] = None
        (model_dir / "edited.json").write_text(json.dumps(doc))
        root = ET.fromstring((model_dir / "robot.xml").read_text())
        root.find("joint").remove(root.find("joint/limit"))
        (model_dir / "edited.xml").write_text(ET.tostring(root, encoding="unicode"))
        name = doc["joints"][0]["name"]
        assert root.find("joint").get("name") == name
        for path in (model_dir / "edited.json", model_dir / "edited.xml"):
            with pytest.raises(ModelParseError, match=f"revolute joint '{name}' has no limits"):
                read_model(path)

    def test_fixed_joint_with_limits_raises_typed(self, model_dir):
        # The XML writer gives only revolute joints a <limit>, so limits on a
        # fixed joint could not survive a trip through both formats.
        doc = json.loads((model_dir / "robot.json").read_text())
        k, joint = next((k, j) for k, j in enumerate(doc["joints"]) if j["type"] == JOINT_FIXED)
        joint["limits_deg"] = [-10.0, 10.0]
        (model_dir / "edited.json").write_text(json.dumps(doc))
        root = ET.fromstring((model_dir / "robot.xml").read_text())
        fixed = root.findall("joint")[k]
        assert fixed.get("name") == joint["name"] and fixed.find("limit") is None
        ET.SubElement(fixed, "limit", lower="-0.1", upper="0.1")
        (model_dir / "edited.xml").write_text(ET.tostring(root, encoding="unicode"))
        for path in (model_dir / "edited.json", model_dir / "edited.xml"):
            with pytest.raises(ModelParseError, match=f"fixed joint '{joint['name']}' has limits"):
                read_model(path)

    def test_truncated_xml_raises_typed(self, model_dir):
        text = (model_dir / "robot.xml").read_text()
        path = model_dir / "edited.xml"
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelParseError):
            read_model(path)

    @given(data=st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_any_bytes_read_back_or_raise_typed(self, model_dir, data):
        path = model_dir / "bytes.model"
        path.write_bytes(data)
        try:
            read_model(path)
        except ModelParseError:
            pass

    @given(field=st.data(), value=field_values | st.just(_DELETE))
    @example(field=("joints", 0, "limits_deg"), value=None)  # a revolute joint without limits
    @example(field=("joints", 2, "limits_deg"), value=[-10.0, 10.0])  # a fixed joint with limits
    @settings(max_examples=200, deadline=None)
    def test_any_json_field_value_reads_back_or_raises_typed(self, model_dir, field, value):
        doc = json.loads((model_dir / "robot.json").read_text())
        if not isinstance(field, tuple):  # drawn, unless an example names it
            field = field.draw(st.sampled_from(list(_json_paths(doc))))
        owner = doc
        for key in field[:-1]:
            owner = owner[key]
        if value is _DELETE:
            del owner[field[-1]]
        else:
            owner[field[-1]] = value
        path = model_dir / "fuzzed.json"
        path.write_text(json.dumps(doc))
        assert_writes_back_or_raises_typed(path)

    @given(
        target=st.data(),
        value=st.none() | st.text(max_size=12) | field_values.map(json.dumps),
    )
    @example(target=("joint/limit", None), value=None)  # a revolute joint without <limit>
    @settings(max_examples=200, deadline=None)
    def test_any_xml_attribute_or_element_reads_back_or_raises_typed(
        self, model_dir, target, value
    ):
        # A target is an attribute, or an element's text (None); a None value
        # deletes the attribute or the element.
        root = ET.fromstring((model_dir / "robot.xml").read_text())
        parents = {child: el for el in root.iter() for child in el}
        targets = [(el, attr) for el in root.iter() for attr in [*el.attrib, None]]
        if isinstance(target, tuple):  # an example names its element by path
            el, attr = root.find(target[0]), target[1]
        else:
            el, attr = target.draw(st.sampled_from(targets))
        if attr is not None and value is None:
            del el.attrib[attr]
        elif attr is not None:
            el.set(attr, value)
        elif value is None and el in parents:
            parents[el].remove(el)
        else:
            el.text = value
        path = model_dir / "fuzzed.xml"
        path.write_text(ET.tostring(root, encoding="unicode"))
        assert_writes_back_or_raises_typed(path)


def golden_manipulator_model(db) -> RobotModel:
    """The paper's manipulator with every number rounded, so the model is the same everywhere.

    Rounding keeps the last bits of BLAS and libm results out of the file.
    """
    text, thetas, _ = PAPER_CHAINS[0]
    model = generate_model(chain_for(db, text, thetas), db, name="manipulator")

    def snap(values, digits):
        return np.round(values, digits) + 0.0  # + 0.0 turns -0.0 into 0.0

    joints = [
        replace(
            j,
            origin=Pose(snap(j.origin.rotation, 12), snap(j.origin.translation, 6)),
            angle=None if j.angle is None else round(j.angle, 6),
        )
        for j in model.joints
    ]
    metadata = {"description": [text], "method": "geometric", "scene": 'a&b <"1">.json'}
    return RobotModel(model.name, model.links, joints, metadata)


@pytest.fixture(scope="module")
def golden_model(db):
    return golden_manipulator_model(db)


@pytest.fixture(scope="module")
def xml_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("xml-writer")


# Names biased toward the characters XML escapes, non-ASCII text, a lone
# surrogate (written as a character reference) and NUL.
_names = st.text(
    alphabet=st.sampled_from(list("&<>\"'\r\n\t") + ["é", "∑", "😀", "\ud800", "\x00"])
    | st.characters(),
    min_size=1,
)


class TestXmlWriter:
    """write_model's XML equals the ElementTree reference's bytes."""

    @staticmethod
    def written_bytes(model, directory) -> bytes:
        ours, reference = directory / "ours.xml", directory / "reference.xml"
        write_model(model, ours)
        reference_write_model_xml(model, reference)
        assert ours.read_bytes() == reference.read_bytes()
        return ours.read_bytes()

    @pytest.mark.parametrize("method", ["geometric", "optimization"])
    def test_corpus_models_match_reference(self, db, tmp_path, method):
        cfg = IdentifyConfig(method=method)
        for desc, _canonical, thetas, base in make_corpus(db, 50, 20260808):
            chain = build_chain(synthesize(desc, thetas, db, base=base), db, cfg)
            model = generate_model(chain, db, metadata={"method": method})
            self.written_bytes(model, tmp_path)

    def test_tree_model_matches_reference(self, db, tmp_path):
        obs, *_ = make_two_branch_scene(np.random.default_rng(77), db)
        self.written_bytes(generate_model(build_tree(obs, db), db), tmp_path)

    def test_root_swing_link_matches_reference(self, db, tmp_path):
        # An upright perpendicular joint at the root carries its swing on a
        # massless link, which has no visual and renders self-closed.
        model = generate_model(chain_for(db, "T-G0", [30.0]), db)
        assert b'\n  <link name="T-001_swing" />\n' in self.written_bytes(model, tmp_path)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_names_match_reference(self, golden_model, xml_dir, data):
        def name():
            return data.draw(_names)

        model = RobotModel(
            name(),
            [replace(l, name=name()) for l in golden_model.links],
            [replace(j, name=name(), parent=name(), child=name()) for j in golden_model.joints],
            {name(): name(), "description": [name()]},
        )
        self.written_bytes(model, xml_dir)

    @pytest.mark.parametrize("where", ["model", "link", "joint", "parent", "child"])
    def test_one_special_name_matches_reference(self, golden_model, tmp_path, where):
        # One name holding &, <, " and a tab, all others plain catalog names:
        # the file still equals the reference's and reads back with that name.
        odd = 'a&b<"c\td'
        model, link, joint = golden_model, golden_model.links[2], golden_model.joints[3]
        if where == "model":
            model = replace(model, name=odd)
        elif where == "link":
            links = [replace(l, name=odd) if l is link else l for l in model.links]
            model = replace(model, links=links)
        else:
            field = "name" if where == "joint" else where
            odd_joint = replace(joint, **{field: odd})
            model = replace(model, joints=[odd_joint if j is joint else j for j in model.joints])
        self.written_bytes(model, tmp_path)
        back = read_model(tmp_path / "ours.xml")
        names = {back.name, *(l.name for l in back.links)}
        names |= {getattr(j, f) for j in back.joints for f in ("name", "parent", "child")}
        assert odd in names

    def test_golden_file(self, golden_model, tmp_path):
        # A fixed file, so that a change in ElementTree cannot move the
        # reference and the writer together.
        path = tmp_path / "robot.xml"
        write_model(golden_model, path)
        assert path.read_bytes() == GOLDEN_XML.read_bytes()


def model_digest_lines(db, directory) -> list[str]:
    """One JSON line per scene and back end: the scene's index, the back end,
    then the error type, or the sha256 of the model written as XML and as JSON."""
    lines = []
    for i, obs in enumerate(corpus_and_noise_rows(db, 100, 39)):
        for method in ("geometric", "optimization"):
            try:
                chain = build_chain(obs, db, IdentifyConfig(method=method))
            except IdentifyError as exc:
                lines.append(json.dumps([i, method, type(exc).__name__]))
                continue
            model = generate_model(chain, db)
            digests = []
            for suffix in (".xml", ".json"):
                path = directory / f"model{suffix}"
                write_model(model, path)
                digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            lines.append(json.dumps([i, method, *digests]))
    return lines


def test_models_match_golden_digests(db, tmp_path):
    # Both back ends' models of the first corpus scenes and noise draws, byte
    # for byte as recorded: their joint origins carry every last bit of the
    # catalog products.
    got = model_digest_lines(db, tmp_path)
    want = GOLDEN_DIGESTS.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want) == 2 * (100 + 4 * 39)
    for g, w in zip(got, want):
        assert g == w


class TestWritesOnce:
    @pytest.mark.parametrize("suffix, indent", [(".json", 2), (".xml", None)])
    def test_model_file_written_in_one_call(self, db, tmp_path, monkeypatch, suffix, indent):
        model = generate_model(chain_for(db, "I-T0-G0", [25.0, -40.0]), db)
        path = tmp_path / f"robot{suffix}"
        writes = record_writes(monkeypatch)
        write_model(model, path)
        assert writes == [path.read_bytes()]
        text = path.read_text(encoding="utf-8")
        if indent is not None:
            assert text == json.dumps(json.loads(text), indent=indent) + "\n"

    @pytest.mark.parametrize("suffix", [".json", ".xml"])
    def test_failed_render_keeps_old_file(self, db, tmp_path, suffix):
        chain = chain_for(db, "I-T0-G0", [25.0, -40.0])
        path = tmp_path / f"robot{suffix}"
        write_model(generate_model(chain, db), path)
        old = path.read_bytes()
        with pytest.raises(TypeError):
            write_model(generate_model(chain, db, metadata={"bad": object()}), path)
        assert path.read_bytes() == old
