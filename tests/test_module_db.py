import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainforge.cli import main
from chainforge.geometry import CONNECTION_ANGLES, ORTHONORMALITY_TOL, Pose, compose, rot_x
from chainforge.module_db import (
    EmptyCatalog,
    INVERTED,
    KIND_TOOL,
    UPRIGHT,
    DatabaseError,
    DatabaseParseError,
    DatabaseValidationError,
    ModuleDatabase,
    ModuleRecord,
    ModuleType,
    centered_type,
    connection_transform,
    default_database,
    load_database,
    save_database,
)

from helpers import field_values


def test_default_catalog_shape(db):
    assert len(db.types) == 11
    assert set(db.types) == set("TtIiGgWSLlA")
    assert len(db.records) == 52
    assert len(db._by_marker) >= 20


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
    # Independent enumeration over ordered type pairs and install options.
    db = default_database()
    before = {name: repr(value) for name, value in vars(db).items()}
    best = 0.0
    for p in db.types.values():
        for c in db.types.values():
            pair = 0.0
            for dp in p.directions():
                if not p.can_parent(dp):
                    continue
                for dc in c.directions():
                    if not c.can_child(dc):
                        continue
                    t = compose(
                        compose(p.master_to_childward(dp, 0.0), connection_transform(0.0)),
                        c.parentward_to_master(dc, 0.0),
                    )
                    pair = max(pair, float(np.linalg.norm(t.translation)))
            assert db.pair_connected_distance(p.code, c.code) == pytest.approx(pair)
            best = max(best, pair)
    assert len(db.types) ** 2 == 121
    assert db.max_connected_distance() == pytest.approx(best)
    # Queries read precomputed bounds: the database holds no cache that fills.
    assert not hasattr(db, "_pair_cache")
    assert {name: repr(value) for name, value in vars(db).items()} == before


def test_trusted_catalog_transforms_are_valid(db):
    poses = [connection_transform(a) for a in CONNECTION_ANGLES]
    for mt in db.types.values():
        for theta in (-120.0, -33.3, 0.0, 90.0, 120.0):
            poses.append(mt.joint_rotation(theta))
            for d in mt.directions():
                poses += [mt.parentward_to_master(d, theta), mt.master_to_childward(d, theta)]
    for p in poses:
        r = p.rotation
        assert np.abs(r.T @ r - np.eye(3)).max() <= ORTHONORMALITY_TOL
        assert np.linalg.det(r) > 0.0
        assert not r.flags.writeable and not p.translation.flags.writeable


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
    up_in = mt.parentward_to_master(UPRIGHT)
    inv_in = mt.parentward_to_master(INVERTED)
    # Entering an inverted module goes through its output connector: no
    # orientation flip, same 75 mm reach.
    assert np.allclose(up_in.rotation, rot_x(180.0))
    assert np.allclose(inv_in.rotation, np.eye(3))
    assert np.linalg.norm(up_in.translation) == pytest.approx(75.0)
    assert np.linalg.norm(inv_in.translation) == pytest.approx(75.0)


def test_tools_cannot_parent_upright(db):
    g = db.types["G"]
    assert not g.can_parent(UPRIGHT)
    assert g.can_parent(INVERTED)
    assert g.can_child(UPRIGHT)
    assert not g.can_child(INVERTED)


def test_adapter_not_invertible(db):
    assert db.types["A"].directions() == (UPRIGHT,)


def test_joint_limit_invariants():
    with pytest.raises(DatabaseValidationError):
        centered_type("T", "joint-perpendicular", 120.0, None, True, False)
    with pytest.raises(DatabaseValidationError):
        centered_type("L", "link", 100.0, (-90.0, 90.0), True, False)
    with pytest.raises(DatabaseValidationError):
        centered_type("L", "link", -5.0, None, True, False)


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


@pytest.mark.parametrize("marker_id", [1.5, True, "30", None])
def test_non_integer_marker_id_rejected(tmp_path, db, marker_id):
    path = tmp_path / "db.json"
    save_database(db, path)
    doc = json.loads(path.read_text())
    doc["modules"][0]["master_marker_id"] = marker_id
    path.write_text(json.dumps(doc))
    with pytest.raises(DatabaseValidationError, match="master_marker_id"):
        load_database(path)
