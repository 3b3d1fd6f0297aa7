import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainforge import module_db
from chainforge.cli import main
from chainforge.descriptor import parse
from chainforge.identify import IdentifyConfig, build_chain
from chainforge.geometry import (
    CONNECTION_ANGLES,
    ORTHONORMALITY_TOL,
    Pose,
    compose,
    joint_turns,
    rot_x,
)
from chainforge.module_db import (
    EmptyCatalog,
    INVERTED,
    KINDS,
    KIND_TOOL,
    UPRIGHT,
    DatabaseError,
    DatabaseParseError,
    DatabaseValidationError,
    ModuleDatabase,
    ModuleRecord,
    ModuleType,
    centered_type,
    default_database,
    load_database,
    save_database,
)
from chainforge.synth import synthesize

from helpers import (
    field_values,
    odd_numbers,
    record_writes,
    reference_connection_transform,
    reference_directions,
    reference_mated_distance,
    reference_master_to_childward,
    reference_parentward_to_master,
    reference_search_side,
    save_renamed_database,
    skewed_database,
)


def test_default_catalog_shape(db):
    assert len(db.types) == 11
    assert set(db.types) == set("TtIiGgWSLlA")
    assert len(db.records) == 52
    assert len(db._by_marker) >= 20


def test_database_cannot_be_mutated():
    # A registry or catalog edited after construction would leave the marker
    # index and the pair bounds describing the old contents.
    db = default_database()
    record = ModuleRecord("A-999", "A", 999, 999)
    with pytest.raises(AttributeError):
        db.records.append(record)
    with pytest.raises(TypeError):
        db.records[0] = record
    with pytest.raises(TypeError):
        db.types["A"] = db.types["L"]
    with pytest.raises(AttributeError):
        db.types.pop("A")
    assert db.lookup_marker(999) is None
    assert len(db.records) == 52 and "A" in db.types
    assert db.pair_connected_distance("A", "L") == 105.0


def test_module_types_compare_and_hash(db):
    # Their Pose fields compare by identity, so neither raises on numpy arrays.
    t, g = db.types["T"], db.types["G"]
    assert t == t and t != g
    assert {t: 1, g: 2}[t] == 1


def test_lookup_marker(db):
    hit = db.lookup_marker(10)
    assert hit.record.type_code == "T" and not hit.is_output
    out = db.lookup_marker(1030)
    assert out.record.type_code == "I" and out.is_output
    assert db.lookup_marker(9999) is None


def test_lookup_is_total(db):
    for marker_id in (-5, 0, 10**9):
        db.lookup_marker(marker_id)  # never raises


def test_duplicate_marker_id_named():
    types = [centered_type("G", KIND_TOOL, 50.0, None, True, False)]
    records = [
        ModuleRecord("G-001", "G", 1, 7),
        ModuleRecord("G-002", "G", 2, 7),
    ]
    with pytest.raises(DatabaseValidationError, match="7"):
        ModuleDatabase(types, records)


def test_dangling_type_named():
    types = [centered_type("G", KIND_TOOL, 50.0, None, True, False)]
    records = [ModuleRecord("Q-001", "Q", 1, 7)]
    with pytest.raises(DatabaseValidationError, match="Q"):
        ModuleDatabase(types, records)


def test_output_marker_requires_dual_bundle():
    types = [centered_type("G", KIND_TOOL, 50.0, None, True, False)]
    with pytest.raises(DatabaseValidationError, match="dual-bundle"):
        ModuleDatabase(types, [ModuleRecord("G-001", "G", 1, 7, output_marker_id=8)])


@pytest.mark.parametrize(
    "types, records, message",
    [
        (["T"], [], "types[0]: expected a ModuleType, got 'T'"),
        ([], [None], "modules[0]: expected a ModuleRecord, got None"),
        ("GG", [], "types[1]: duplicate type code 'G'"),
        ("G", [("G-001", "G", 1, 7), ("G-001", "G", 2, 8)], "modules[1]: duplicate serial 'G-001'"),
        ("G", [("G-001", "G", 1, 7), ("G-002", "G", 2, 7)], "modules[1]: marker id 7 registered twice"),
        ("G", [("G-001", "G", 1, 7), ("Q-001", "Q", 2, 8)], "modules[1]: module 'Q-001' references"),
        ("G", [("G-001", "G", 1, 7, 8)], "modules[0]: module 'G-001': output_marker_id"),
        ("I", [("I-001", "I", 1, 7, 7)], "modules[0]: marker id 7 registered twice"),
    ],
    ids=["type", "record", "type-code", "serial", "marker-id", "unknown-type", "dual", "own-marker"],
)
def test_member_fault_names_its_entry(types, records, message):
    # A string stands for centered types by code and a tuple for a record's
    # fields; anything else goes in as it is.
    kinds = {"G": (KIND_TOOL, 50.0, None), "I": (module_db.KIND_JOINT_COLLINEAR, 80.0, (-1.0, 1.0))}
    if isinstance(types, str):
        types = [centered_type(c, *kinds[c], True, c == "I") for c in types]
    records = [ModuleRecord(*r) if isinstance(r, tuple) else r for r in records]
    with pytest.raises(DatabaseValidationError) as caught:
        ModuleDatabase(types, records)
    assert str(caught.value).startswith(message)


def test_load_save_round_trip(tmp_path, db):
    path = tmp_path / "db.json"
    save_database(db, path)
    loaded = load_database(path)
    assert set(loaded.types) == set(db.types)
    for code, mt in db.types.items():
        lt = loaded.types[code]
        assert lt.kind == mt.kind
        assert lt.body_length == mt.body_length
        assert lt.joint_limits == mt.joint_limits
        assert lt.invertible == mt.invertible
        assert lt.dual_bundle == mt.dual_bundle
        assert lt.master_offset_input.approx_equal(mt.master_offset_input, tol=1e-12)
        assert lt.master_offset_output.approx_equal(mt.master_offset_output, tol=1e-12)
    assert loaded.records == db.records


def test_unknown_key_rejected(tmp_path, db):
    path = tmp_path / "db.json"
    save_database(db, path)
    doc = json.loads(path.read_text())
    doc["modules"][0]["favourite_colour"] = "green"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatabaseValidationError, match="favourite_colour"):
        load_database(path)


def test_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"types": [')
    with pytest.raises(DatabaseParseError):
        load_database(path)


def test_max_connected_distance_default(db):
    # Largest pair: two large link modules, 75 mm from master to connector
    # on each side.
    assert db.max_connected_distance() == pytest.approx(150.0)


def test_max_connected_distance_brute_force():
    # Independent enumeration over ordered type pairs, install options and
    # connection angles; the skewed catalog's mates sit farther apart at
    # some angles than at 0.
    for db, pairs in ((default_database(), 121), (skewed_database(), 16)):
        before = {name: repr(value) for name, value in vars(db).items()}
        best = 0.0
        for p in db.types.values():
            for c in db.types.values():
                pair = 0.0
                for dp in reference_directions(p, "parent"):
                    for dc in reference_directions(c, "child"):
                        for angle in CONNECTION_ANGLES:
                            t = compose(
                                compose(
                                    reference_master_to_childward(p, dp),
                                    reference_connection_transform(angle),
                                ),
                                reference_parentward_to_master(c, dc),
                            )
                            pair = max(pair, float(np.linalg.norm(t.translation)))
                assert db.pair_connected_distance(p.code, c.code) == pytest.approx(pair)
                best = max(best, pair)
        assert len(db.types) ** 2 == pairs
        assert db.max_connected_distance() == pytest.approx(best)
        # Queries read precomputed bounds: the database holds no cache that fills.
        assert not hasattr(db, "_pair_cache")
        assert {name: repr(value) for name, value in vars(db).items()} == before


def test_trusted_catalog_transforms_are_valid(db):
    # The catalog's tables and joint turns are built unchecked; each is a proper rotation.
    rotations = [m[:3, :3] for m in module_db.CONNECTOR_STACK]
    for mt in db.types.values():
        rotations += [m[:3, :3] for m in mt.matrices.values()]
        if mt.is_joint:
            turns = joint_turns(mt.joint_axis, [-120.0, -33.3, 0.0, 90.0, 120.0])
            rotations += [m[:3, :3] for m in turns]
    for r in rotations:
        assert np.abs(r.T @ r - np.eye(3)).max() <= ORTHONORMALITY_TOL
        assert np.linalg.det(r) > 0.0


@pytest.mark.parametrize("source", ["built", "loaded", "skewed"])
def test_catalog_frames_equal_fresh_compositions(tmp_path, source):
    # Every type builds its zero-state matrices once, bit-identical to
    # composing one Pose per factor at zero joint state.
    db = default_database()
    if source == "loaded":
        save_database(db, tmp_path / "db.json")
        db = load_database(tmp_path / "db.json")
    elif source == "skewed":
        db = skewed_database()
    for mt in db.types.values():
        reference = {
            ("in", d): reference_parentward_to_master(mt, d) for d in (UPRIGHT, INVERTED)
        } | {("out", d): reference_master_to_childward(mt, d) for d in (UPRIGHT, INVERTED)}
        assert set(mt.matrices) == set(reference)
        for key, pose in reference.items():
            assert mt.matrices[key].tobytes() == pose.matrix().tobytes()
            assert not mt.matrices[key].flags.writeable


@pytest.mark.parametrize("source", ["built", "loaded", "skewed"])
def test_pair_bounds_equal_mated_distance(tmp_path, source):
    # Each type pair's bound, read from its pair layers, is bit-identical to
    # the largest norm of one 4x4 product per legal mate: the zero-noise
    # neighbor sets depend on its last bit.
    db = default_database()
    if source == "loaded":
        save_database(db, tmp_path / "db.json")
        db = load_database(tmp_path / "db.json")
    elif source == "skewed":
        db = skewed_database()
    for p in db.types.values():
        for c in db.types.values():
            got = db.pair_connected_distance(p.code, c.code)
            assert type(got) is float
            assert got.hex() == reference_mated_distance(p, c).hex(), (p.code, c.code)


@pytest.mark.parametrize("source", ["built", "skewed"])
def test_search_sides_equal_per_call_formulas(source):
    # Each type holds, for each legal direction, the optimization search's
    # sides as a parent and as a child: byte for byte the freshly composed
    # factors, read-only, with their reach, free joint and key.
    db = default_database() if source == "built" else skewed_database()
    for mt in db.types.values():
        keys = [("out", d) for d in reference_directions(mt, "parent")]
        keys += [("in", d) for d in reference_directions(mt, "child")]
        assert list(mt.sides) == keys
        for key in keys:
            side, want = mt.sides[key], reference_search_side(mt, *key)
            assert side.matrix.tobytes() == want.pop("matrix").tobytes(), (mt.code, key)
            assert not side.matrix.flags.writeable
            assert side._asdict() == {"matrix": side.matrix, **want}
            assert type(side.reach) is float


@pytest.mark.parametrize("source", ["built", "skewed"])
def test_pair_layers_table_covers_every_side_pair(source):
    # The database builds the search's pair layers once, for every legal pair
    # of catalog sides: the top three rows of the parent factor times each
    # connector times the child factor, as floats, byte for byte the product
    # of the factors that the type offsets compose.  A search reads them and
    # adds none.
    db = default_database() if source == "built" else skewed_database()
    parents = [s for mt in db.types.values() for (end, _), s in mt.sides.items() if end == "out"]
    children = [s for mt in db.types.values() for (end, _), s in mt.sides.items() if end == "in"]
    assert len(db._pair_layers) == len(parents) * len(children)
    if source == "built":
        assert len(parents) == len(children) == 17
    for p in parents:
        parent = reference_search_side(db.types[p.key[0]], "out", p.key[1])["matrix"]
        connected = parent @ np.stack(
            [reference_connection_transform(a).matrix() for a in CONNECTION_ANGLES]
        )
        for c in children:
            layers = db.pair_layers(p, c)
            assert layers is db._pair_layers[p.key, c.key]
            assert len(layers) == len(CONNECTION_ANGLES)
            assert all(type(v) is float for layer in layers for v in layer)
            child = reference_search_side(db.types[c.key[0]], "in", c.key[1])["matrix"]
            want = (connected @ child)[:, :3]
            assert np.array(layers).tobytes() == want.reshape(-1, 12).tobytes()
    table = dict(db._pair_layers)
    if source == "built":
        obs = synthesize(parse("I-T0-G0"), [30.0, 20.0], db)
        build_chain(obs, db, IdentifyConfig(method="optimization"))
    assert db._pair_layers == table


def test_pair_layers_of_a_measured_side():
    # A side measured from a seen bundle pair has no key; its layers are
    # computed, with a fixed child and with a free one.
    db = default_database()
    measured = module_db.SearchSide.of(joint_turns(1, [30.0])[0])
    assert measured.key is None
    for child in (db.types["G"].sides["in", UPRIGHT], db.types["T"].sides["in", INVERTED]):
        layers = db.pair_layers(measured, child)
        want = (measured.matrix @ module_db.CONNECTOR_STACK @ child.matrix)[:, :3]
        assert np.array(layers).tobytes() == want.reshape(-1, 12).tobytes()


def test_connection_table_equals_fresh_compositions():
    assert module_db.CONNECTOR_STACK.shape == (len(CONNECTION_ANGLES), 4, 4)
    assert not module_db.CONNECTOR_STACK.flags.writeable
    for layer, angle in zip(module_db.CONNECTOR_STACK, CONNECTION_ANGLES):
        assert layer.tobytes() == reference_connection_transform(angle).matrix().tobytes()


def test_joint_axis_by_kind(db):
    axes = {code: mt.joint_axis for code, mt in db.types.items()}
    assert axes == {c: 1 for c in "Ii"} | {c: 2 for c in "Tt"} | {c: None for c in "GgWSLlA"}


def test_kind_flags_stored_with_the_type(db):
    for mt in db.types.values():
        assert (mt.is_joint, mt.is_tool, mt.is_collinear_joint, mt.is_perpendicular_joint) == (
            mt.kind in module_db.JOINT_KINDS,
            mt.kind == KIND_TOOL,
            mt.kind == module_db.KIND_JOINT_COLLINEAR,
            mt.kind == module_db.KIND_JOINT_PERPENDICULAR,
        )
    # `replace` builds the type again, so its flags follow the new kind.
    link = replace(db.types["T"], kind=module_db.KIND_LINK, joint_limits=None)
    assert (link.is_joint, link.is_perpendicular_joint, link.joint_axis) == (False, False, None)
    # The flags are derived, so they stay out of repr and ==.
    assert replace(db.types["T"]) == db.types["T"]
    assert "is_joint" not in repr(db.types["T"]) and "joint_axis" not in repr(db.types["T"])


def test_tool_only_catalog_hand_sum():
    # Zero-length bodies with 40 mm master offsets: masters of a mated pair
    # sit 40 + 40 = 80 mm apart.
    def tool(code):
        return ModuleType(
            code=code,
            kind=KIND_TOOL,
            body_length=0.0,
            master_offset_input=Pose(rot_x(180.0), [0.0, -40.0, 0.0]),
            master_offset_output=Pose(np.eye(3), [0.0, 40.0, 0.0]),
            joint_limits=None,
            invertible=True,
            dual_bundle=False,
        )

    catalog = ModuleDatabase([tool("G"), tool("W")], [])
    assert catalog.max_connected_distance() == pytest.approx(80.0)


def test_single_type_catalog(db):
    only_l = ModuleDatabase([db.types["L"]], [])
    assert only_l.max_connected_distance() == pytest.approx(150.0)


def test_empty_catalog():
    with pytest.raises(EmptyCatalog):
        ModuleDatabase([], []).max_connected_distance()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_offsets_rejected():
    huge = ModuleType(
        code="L",
        kind="link",
        body_length=150.0,
        master_offset_input=Pose(rot_x(180.0), [1e308, 0.0, 0.0]),
        master_offset_output=Pose(np.eye(3), [0.0, 75.0, 0.0]),
        joint_limits=None,
        invertible=True,
        dual_bundle=False,
    )
    with pytest.raises(DatabaseValidationError, match="overflows"):
        ModuleDatabase([huge], [])


def test_max_distance_ignores_registry(db):
    stripped = ModuleDatabase(list(db.types.values()), [])
    assert stripped.max_connected_distance() == db.max_connected_distance()


def test_pair_distances(db):
    assert db.pair_connected_distance("i", "g") == pytest.approx(65.0)
    assert db.pair_connected_distance("T", "t") == pytest.approx(100.0)
    assert db.pair_connected_distance("L", "L") == pytest.approx(150.0)


def test_offsets_at_centers(db):
    t = db.types["T"]
    assert np.allclose(t.master_offset_input.translation, [0, -60, 0])
    assert np.allclose(t.master_offset_output.translation, [0, 60, 0])


def test_inversion_swaps_offsets(db):
    mt = db.types["L"]
    up_in = mt.matrices["in", UPRIGHT]
    inv_in = mt.matrices["in", INVERTED]
    # Entering an inverted module goes through its output connector: no
    # orientation flip, same 75 mm reach.
    assert np.allclose(up_in[:3, :3], rot_x(180.0))
    assert np.allclose(inv_in[:3, :3], np.eye(3))
    assert np.linalg.norm(up_in[:3, 3]) == pytest.approx(75.0)
    assert np.linalg.norm(inv_in[:3, 3]) == pytest.approx(75.0)


def test_tools_cannot_parent_upright(db):
    g = db.types["G"]
    assert g.directions == (UPRIGHT, INVERTED)
    assert g.parent_directions == (INVERTED,)
    assert g.child_directions == (UPRIGHT,)


def test_adapter_not_invertible(db):
    a = db.types["A"]
    assert a.directions == a.parent_directions == a.child_directions == (UPRIGHT,)


def test_joint_limit_invariants():
    with pytest.raises(DatabaseValidationError):
        centered_type("T", "joint-perpendicular", 120.0, None, True, False)
    with pytest.raises(DatabaseValidationError):
        centered_type("L", "link", 100.0, (-90.0, 90.0), True, False)
    with pytest.raises(DatabaseValidationError):
        centered_type("L", "link", -5.0, None, True, False)


@pytest.mark.parametrize(
    "code, changes",
    [
        ("T", {"body_length": math.nan}),
        ("T", {"body_length": math.inf}),
        ("G", {"body_length": math.nan}),
        ("G", {"body_length": -math.inf}),
        ("T", {"joint_limits": (-math.inf, math.inf)}),
        ("T", {"joint_limits": (math.nan, math.nan)}),
        ("T", {"joint_limits": (0.0, math.nan)}),
        ("I", {"joint_limits": (math.nan, 90.0)}),
        ("I", {"joint_limits": (-90.0, math.inf)}),
    ],
)
def test_non_finite_numbers_rejected(db, code, changes):
    # A type built directly, not loaded, meets the same checks, and NaN fails
    # them: an infinite limit would reach the joint fit and overflow there.
    with pytest.raises(DatabaseValidationError, match=f"^type {code!r}: "):
        replace(db.types[code], **changes)


@pytest.mark.parametrize("limits", [(-120.0, 0.0, 120.0), ("a", "b"), (-120.0,), (True, 5.0)])
def test_joint_limits_are_two_numbers(db, limits):
    # The shape and the types are checked before any limit is compared or used.
    message = r"^type 'T': joint_limits must be two numbers \(min, max\), got "
    with pytest.raises(DatabaseValidationError, match=message):
        replace(db.types["T"], joint_limits=limits)


def test_limits_too_large_for_a_float_rejected(db):
    # An int past the float range compares as finite but would overflow in the
    # joint fit; the catalog rejects it as it is built, before build_chain.
    with pytest.raises(DatabaseValidationError, match="^type 'T': joint kinds need finite"):
        ModuleDatabase(
            [replace(mt, joint_limits=(-10**400, 10**400)) if mt.code == "T" else mt
             for mt in db.types.values()],
            db.records,
        )


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"invertible": "no"}, "invertible must be a bool, got 'no'"),
        ({"dual_bundle": 1}, "dual_bundle must be a bool, got 1"),
        ({"body_length": 10**400}, "body_length must be finite, got 1000"),
        ({"master_offset_input": np.eye(4)}, "master_offset_input must be a Pose, got array"),
    ],
)
def test_type_fields_checked(db, changes, message):
    with pytest.raises(DatabaseValidationError, match=f"^type 'T': {re.escape(message)}"):
        replace(db.types["T"], **changes)


@pytest.mark.parametrize(
    "field, value",
    [
        ("master_marker_id", True),
        ("master_marker_id", 7.5),
        ("master_marker_id", "7"),
        ("master_marker_id", None),
        ("serial", 5),
    ],
)
def test_record_fields_checked(field, value):
    # A bool id would collide with marker 1; a string would fail at the first comparison.
    fields = {"serial": "X-001", "type_code": "G", "bus_id": 1, "master_marker_id": 7}
    fields[field] = value
    module = re.escape(repr(fields["serial"]))
    with pytest.raises(DatabaseValidationError, match=f"^module {module}: {field} must be a"):
        ModuleRecord(**fields)


def test_loaded_record_fault_names_its_entry(tmp_path, db):
    path = tmp_path / "db.json"
    save_database(db, path)
    doc = json.loads(path.read_text())
    doc["modules"][0]["master_marker_id"] = True
    path.write_text(json.dumps(doc))
    message = r"^modules\[0\]: module 'T-001': master_marker_id must be an integer, got True$"
    with pytest.raises(DatabaseValidationError, match=message):
        load_database(path)


def test_numpy_scalars_stored_as_python_numbers(db, tmp_path):
    limits = (np.int64(-120), np.float32(120))
    t = replace(db.types["T"], body_length=np.int64(120), joint_limits=limits)
    assert type(t.body_length) is float and [type(v) for v in t.joint_limits] == [float, float]
    record = ModuleRecord("T-001", "T", np.int32(1), np.int64(10))
    assert type(record.bus_id) is int and type(record.master_marker_id) is int
    # Saved like the same type and record built from plain numbers.
    plain = replace(db.types["T"], body_length=120.0, joint_limits=(-120.0, 120.0))
    plain_record = ModuleRecord("T-001", "T", 1, 10)
    for mt, rec, name in ((t, record, "numpy.json"), (plain, plain_record, "plain.json")):
        save_database(ModuleDatabase([mt], [rec]), tmp_path / name)
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


@pytest.mark.parametrize("code", ["g-", "TT", "", "9", "é"])
def test_type_code_is_one_ascii_letter(tmp_path, db, code):
    path = tmp_path / "db.json"
    save_renamed_database(db, path, "g", code)
    with pytest.raises(DatabaseValidationError, match="one ASCII letter"):
        load_database(path)
    assert main(["db-validate", "--db", str(path)]) == 1


# (path into the saved default database, as keys and indices) of every field
# a database file carries; modules[12] is I-001, a dual-bundle joint.
_TYPE_FIELDS = [
    "code", "kind", "body_length_mm", "master_offset_input", "master_offset_output",
    "joint_limits_deg", "invertible", "dual_bundle",
]
_MODULE_FIELDS = ["serial", "type_code", "bus_id", "master_marker_id", "output_marker_id"]
_DB_FIELDS = (
    [("types",), ("modules",)]
    + [("types", 2, key) for key in _TYPE_FIELDS]
    + [("types", 2, "master_offset_input", key) for key in ("t", "q")]
    + [("modules", 12, key) for key in _MODULE_FIELDS]
)


@pytest.fixture(scope="module")
def saved_db_doc(tmp_path_factory, db):
    path = tmp_path_factory.mktemp("db-fuzz") / "db.json"
    save_database(db, path)
    return path, path.read_text()


@given(field=st.sampled_from(_DB_FIELDS), value=field_values)
@example(field=("types",), value=3)
@example(field=("modules", 12, "master_marker_id"), value=1.5)
@example(field=("modules", 12, "master_marker_id"), value=True)
@example(field=("types", 2, "body_length_mm"), value=float("nan"))
@settings(max_examples=150, deadline=None)
# Offsets near the float limit overflow numpy norms to inf, which the
# database rejects; the overflow warning itself is expected.
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_any_field_value_loads_or_raises_typed(saved_db_doc, field, value):
    path, text = saved_db_doc
    doc = json.loads(text)
    owner = doc
    for key in field[:-1]:
        owner = owner[key]
    owner[field[-1]] = value
    path.write_text(json.dumps(doc))
    try:
        load_database(path)
    except DatabaseError:
        assert main(["db-validate", "--db", str(path)]) == 1
    else:
        assert main(["db-validate", "--db", str(path)]) == 0


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: doc["types"][0].update(kind="wheel"), "unknown kind 'wheel'"),
        (lambda doc: doc["types"].append(doc["types"][0]), "duplicate type code 'T'"),
        (lambda doc: doc["modules"][1].update(serial="T-001"), "duplicate serial 'T-001'"),
        (lambda doc: doc["modules"][0].update(master_marker_id=-1), "marker id -1 is negative"),
        (lambda doc: doc["types"][0].pop("invertible"), "missing key 'invertible'"),
        (lambda doc: doc.update(version=2), "top level must be an object with keys"),
        (
            lambda doc: doc["types"][0].update(joint_limits_deg=[-90]),
            r"types\[0\]: type 'T': joint_limits must be two numbers \(min, max\), got \[-90\]",
        ),
    ],
    ids=["kind", "type-code", "serial", "marker-id", "missing-key", "top-level", "limits"],
)
def test_invalid_document_named(tmp_path, db, change, message):
    path = tmp_path / "db.json"
    save_database(db, path)
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DatabaseValidationError, match=message):
        load_database(path)
    assert main(["db-validate", "--db", str(path)]) == 1


@pytest.mark.parametrize("marker_id", [1.5, True, "30", None])
def test_non_integer_marker_id_rejected(tmp_path, db, marker_id):
    path = tmp_path / "db.json"
    save_database(db, path)
    doc = json.loads(path.read_text())
    doc["modules"][0]["master_marker_id"] = marker_id
    path.write_text(json.dumps(doc))
    with pytest.raises(DatabaseValidationError, match="master_marker_id"):
        load_database(path)


def test_save_database_writes_once(db, tmp_path, monkeypatch):
    path = tmp_path / "db.json"
    writes = record_writes(monkeypatch)
    save_database(db, path)
    assert writes == [path.read_bytes()]
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


_numpy_scalars = (
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1))
    | st.builds(np.float64, st.floats())
    | st.builds(np.float32, st.floats(width=32))
    | st.builds(np.bool_, st.booleans())
)
_numbers = st.integers() | st.floats() | odd_numbers | _numpy_scalars
_TYPE_FIELD_NAMES = [
    "code", "kind", "body_length", "master_offset_input", "master_offset_output",
    "joint_limits", "invertible", "dual_bundle",
]


class TestDirectlyBuiltCatalog:
    """Every record built by a library caller ends in a record or a
    DatabaseValidationError, and holds plain Python numbers."""

    @given(
        code=st.sampled_from("TtIGLA"),
        changes=st.dictionaries(
            st.sampled_from(_TYPE_FIELD_NAMES),
            field_values
            | _numbers
            | st.tuples(_numbers, _numbers)
            | st.sampled_from([*KINDS, None, Pose.identity(), np.eye(4)]),
            max_size=3,
        ),
    )
    @example(code="T", changes={"body_length": np.int64(7), "joint_limits": (np.float32(-1), 9)})
    @example(code="T", changes={"joint_limits": (-(10**400), 10**400)})
    @settings(max_examples=150, deadline=None)
    def test_type_builds_or_raises_typed(self, db, code, changes):
        try:
            mt = replace(db.types[code], **changes)
        except DatabaseValidationError:
            return
        assert type(mt.body_length) is float
        assert mt.joint_limits is None or (
            type(mt.joint_limits) is tuple and [type(v) for v in mt.joint_limits] == [float, float]
        )

    @given(
        fields=st.fixed_dictionaries(
            {
                name: st.text(max_size=4) | st.integers(-5, 10**6) | _numbers | field_values
                for name in _MODULE_FIELDS
            }
        )
    )
    @example(fields={"serial": "X", "type_code": "G", "bus_id": np.int8(1),
                     "master_marker_id": np.uint64(7), "output_marker_id": None})
    @example(fields={"serial": "X", "type_code": "G", "bus_id": 1,
                     "master_marker_id": True, "output_marker_id": None})
    @settings(max_examples=150, deadline=None)
    def test_record_builds_or_raises_typed(self, fields):
        try:
            record = ModuleRecord(**fields)
        except DatabaseValidationError:
            return
        assert type(record.serial) is str and type(record.type_code) is str
        assert type(record.bus_id) is int and type(record.master_marker_id) is int
        assert record.output_marker_id is None or type(record.output_marker_id) is int
        assert min(record.master_marker_id, record.output_marker_id or 0) >= 0
