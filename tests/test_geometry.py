import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainforge.geometry import (
    CONNECTION_ANGLES,
    ORTHONORMALITY_TOL,
    DegenerateGeometry,
    InvalidPose,
    Pose,
    _checked_rotations,
    axis_angle,
    compose,
    discretize_angle,
    invert,
    joint_turns,
    matrix_to_quat,
    matrix_to_rpy,
    pose_from_json,
    quat_rows,
    relative_matrix,
    rot_x,
    rot_y,
    rot_z,
    rpy_to_matrix,
    unit_between,
    wrap_angle,
    write_file,
)
from chainforge.module_db import CONNECTOR_STACK, default_database

from helpers import (
    circular_difference,
    from_rotation,
    from_translation,
    pose_distance,
    quat_to_matrix,
    raw_connection_angle,
    reference_axis_angle,
    reference_discretize_angle,
    reference_numpy_quat_to_matrix,
    reference_pose_check,
    reference_quat_to_matrix,
    reference_raw_connection_angle,
    relative,
    y_axis,
    z_axis,
)

I = Pose.identity()

MAX_NORM = math.sqrt(sys.float_info.max)


def near_norm(drawn) -> list[float]:
    """A direction scaled to within a few ulps of the norm `bound`."""
    direction, bound, ulps = drawn
    n = math.sqrt(sum(v * v for v in direction))
    scale = bound
    for _ in range(abs(ulps)):
        scale = math.nextafter(scale, math.copysign(math.inf, ulps))
    return [v / n * scale for v in direction]


def random_pose(rng):
    return Pose(
        axis_angle(rng.normal(size=3), float(rng.uniform(0, 180))),
        rng.uniform(-500, 500, size=3),
    )


rotation_strategy = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-180, 180)
).filter(lambda t: math.hypot(t[0], t[1], t[2]) > 1e-3)


def pose_from(t):
    ax, ay, az, ang = t
    return Pose(axis_angle([ax, ay, az], ang), [10 * ax, 10 * ay, 10 * az])


class TestAxisAngle:
    @given(rotation_strategy)
    @settings(max_examples=300, deadline=None)
    def test_matches_norm_reference(self, t):
        axis, deg = t[:3], t[3]
        assert axis_angle(axis, deg).tobytes() == reference_axis_angle(axis, deg).tobytes()
        big = [v * 1e150 for v in axis]
        assert axis_angle(big, deg).tobytes() == reference_axis_angle(big, deg).tobytes()

    @given(st.lists(rotation_strategy, min_size=1, max_size=8), st.floats(1e-3, 1e150))
    @settings(max_examples=200, deadline=None)
    def test_stack_matches_per_axis_calls(self, rows, scale):
        axes = [[v * scale for v in t[:3]] for t in rows]
        degs = [t[3] for t in rows]
        stacked = axis_angle(axes, degs)
        assert stacked.shape == (len(rows), 3, 3)
        for layer, axis, deg in zip(stacked, axes, degs):
            assert layer.tobytes() == axis_angle(axis, deg).tobytes()

    def test_zero_axis_rejected(self):
        # An axis below 1e-12 in length names no direction, alone or in a stack.
        stack = [[1.0, 0.0, 0.0], [0.0, 1e-13, 0.0]]
        for axis, deg in (([0.0, 0.0, 0.0], 30.0), (stack, [30.0, 40.0])):
            with pytest.raises(ValueError, match="^rotation axis must be nonzero$"):
                axis_angle(axis, deg)


class TestJointTurns:
    def test_turns_about_y_and_z(self):
        deg = [-170.0, -33.3, 0.0, 47.0, 120.0]
        for axis, rot in ((1, rot_y), (2, rot_z)):
            turns = joint_turns(axis, deg)
            assert turns.shape == (len(deg), 4, 4)
            for m, d in zip(turns, deg):
                assert np.abs(m[:3, :3] - rot(d)).max() <= 1e-15
                assert m[:3, 3].tolist() == [0.0] * 3 and m[3].tolist() == [0.0, 0.0, 0.0, 1.0]


class TestCompose:
    def test_identity(self):
        assert compose(I, I).approx_equal(I)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_pose(rng)
            assert compose(p, invert(p)).approx_equal(I, tol=1e-9)
            assert compose(invert(p), p).approx_equal(I, tol=1e-9)

    def test_rotation_group(self):
        a = from_rotation(rot_z(90))
        assert compose(a, a).approx_equal(from_rotation(rot_z(180)))

    @given(rotation_strategy, rotation_strategy, rotation_strategy)
    @settings(max_examples=100, deadline=None)
    def test_associativity(self, ta, tb, tc):
        a, b, c = pose_from(ta), pose_from(tb), pose_from(tc)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.approx_equal(right, tol=1e-8)

    @given(rotation_strategy)
    @settings(max_examples=100, deadline=None)
    def test_inverse_law(self, ta):
        a = pose_from(ta)
        assert compose(a, invert(a)).approx_equal(I, tol=1e-9)


class TestTrustedPath:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["compose", "invert", "relative"]), rotation_strategy),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_derived_poses_stay_valid(self, steps):
        # compose, invert and relative skip the constructor's checks; what
        # they build from validated poses must pass those checks unchanged.
        p = I
        for op, t in steps:
            q = pose_from(t)
            if op == "compose":
                p = compose(p, q)
            elif op == "invert":
                p = invert(p)
            else:
                p = relative(q, p)
            r = p.rotation
            assert np.abs(r.T @ r - np.eye(3)).max() <= ORTHONORMALITY_TOL
            assert np.linalg.det(r) > 0.0
            assert not r.flags.writeable and not p.translation.flags.writeable
            checked = Pose(r, p.translation)
            assert np.array_equal(checked.rotation, r)
            assert np.array_equal(checked.translation, p.translation)


class TestPoseFromJson:
    def test_unit_quaternion(self):
        p = pose_from_json([1, 2, 3], [0.0, 0.0, math.sin(math.pi / 4), math.cos(math.pi / 4)])
        assert p.approx_equal(Pose(rot_z(90.0), [1.0, 2.0, 3.0]), tol=1e-12)

    @pytest.mark.parametrize(
        "t, q",
        [
            ([0, 0], [0, 0, 0, 1]),
            ([0, 0, 0], [0, 0, 0, 0]),
            ([0, 0, float("nan")], [0, 0, 0, 1]),
            ([0, 0, 0], [0, 0, True, 1]),
            # The squared norm overflows: normalizing would give the identity.
            ([0, 0, 0], [1e300, 1e300, 0, 0]),
        ],
    )
    def test_rejects(self, t, q):
        with pytest.raises(ValueError):
            pose_from_json(t, q)

    @given(
        st.lists(
            st.integers(-(2**70), 2**70)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.floats(-1e-300, 1e-300),
            min_size=4,
            max_size=4,
        )
        # Norms about the two bounds, 1e-12 and the square root of the float maximum.
        | st.tuples(
            st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
                lambda v: sum(x * x for x in v) > 1e-2
            ),
            st.sampled_from([1e-12, MAX_NORM]),
            st.integers(-4, 4),
        ).map(near_norm)
    )
    @example([0, 0, 0, 1])
    @example([1, -2, 3, 2**60])
    @example([5e-324, 0.0, -2e-308, 1.0])  # subnormals
    @example([1e-12, 0.0, 0.0, 0.0])
    @example([MAX_NORM, 0.0, 0.0, 0.0])
    @example([1e150, -1e-150, 5e-324, 7e153])  # mixed magnitudes
    @settings(max_examples=500, deadline=None)
    def test_accepted_rotation_passes_pose_checks_unchanged(self, q):
        # Every quaternion the reader accepts gives, through quat_rows, a
        # rotation that the constructor's checks keep bit for bit, which is
        # why a file pose needs no second pass.
        try:
            rows = quat_rows(q)
        except ValueError:
            return
        r = np.array(rows).reshape(1, 3, 3)
        assert np.abs(r[0].T @ r[0] - np.eye(3)).max() <= 1e-12
        assert np.linalg.det(r[0]) > 0.0
        assert _checked_rotations(r.copy(), np.zeros((1, 3))).tobytes() == r.tobytes()
        pose = pose_from_json([0, 0, 0], q)
        assert pose.rotation.tobytes() == r[0].tobytes()
        assert pose.rotation.flags.c_contiguous and not pose.rotation.flags.writeable


class TestRelative:
    def test_self(self):
        rng = np.random.default_rng(2)
        p = random_pose(rng)
        assert relative(p, p).approx_equal(I, tol=1e-9)

    def test_identity_base(self):
        rng = np.random.default_rng(3)
        p = random_pose(rng)
        assert relative(I, p).approx_equal(p)

    def test_algebraic_cancellation(self):
        rng = np.random.default_rng(4)
        h = random_pose(rng)
        t = random_pose(rng)
        assert relative(h, compose(h, t)).approx_equal(t, tol=1e-9)

    @given(rotation_strategy, rotation_strategy, st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matrix_equals_relative_matrix(self, tn, tc, n_strided, c_strided):
        # Frames as the constructor leaves them, or as views into a 4x4, the way
        # forward_poses leaves them: either way the 4x4 is relative's, bit for bit.
        def frame(t, strided):
            p = pose_from(t)
            m = compose(p, from_translation([0.5, -250.0, 3.25])).matrix()
            return Pose._trusted(m[:3, :3], m[:3, 3]) if strided else p

        n, c = frame(tn, n_strided), frame(tc, c_strided)
        got = relative_matrix(n, c)
        assert got.tobytes() == relative(n, c).matrix().tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable


class TestPoseValidation:
    def test_rejects_garbage_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.ones((3, 3)), np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_renormalizes_small_drift(self):
        r = rot_z(30) + 1e-8 * np.ones((3, 3))
        p = Pose(r, np.zeros(3))
        assert np.abs(p.rotation.T @ p.rotation - np.eye(3)).max() <= 1e-9


class TestPoseIdentity:
    """Poses compare and hash by identity, so neither raises on their arrays;
    `approx_equal` is the value comparison."""

    def test_equality_and_hash(self):
        a, b = Pose(rot_z(30.0), [1.0, 2.0, 3.0]), Pose(rot_z(30.0), [1.0, 2.0, 3.0])
        assert a == a and a != b and a.approx_equal(b)
        assert hash(a) == hash(a)
        assert {a: 1, b: 2}[a] == 1 and len({a, b, a}) == 2


class TestBatchedPoseCheck:
    @given(
        kinds=st.lists(
            st.sampled_from(["exact", "drift", "skewed", "improper", "nan", "inf_t"]),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_stack_matches_one_by_one_checks(self, kinds, seed):
        # The stacked check must fix, keep or reject exactly as the checks
        # run on one pose at a time, and name the first pose they reject.
        rng = np.random.default_rng(seed)
        rotations, translations = [], []
        for kind in kinds:
            r = axis_angle(rng.normal(size=3), float(rng.uniform(0.0, 180.0)))
            t = rng.uniform(-100.0, 100.0, size=3)
            if kind == "drift":
                r = r + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-12.0, -2.5)
            elif kind == "skewed":
                r = r + rng.normal(size=(3, 3)) * 0.1
            elif kind == "improper":
                r = -r
            elif kind == "nan":
                r[rng.integers(3), rng.integers(3)] = np.nan
            elif kind == "inf_t":
                t[rng.integers(3)] = np.inf
            rotations.append(r)
            translations.append(t)
        expected, failure = [], None
        for i, (r, t) in enumerate(zip(rotations, translations)):
            try:
                expected.append(reference_pose_check(r, t))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    Pose(r, t)
                failure = failure or (i, str(exc))
            else:
                assert Pose(r, t).rotation.tobytes() == expected[-1].tobytes()
        stack = np.array(rotations)
        if failure is None:
            checked = _checked_rotations(stack, np.array(translations))
            assert checked.tobytes() == np.array(expected).tobytes()
        else:
            with pytest.raises(InvalidPose) as exc:
                _checked_rotations(stack, np.array(translations))
            assert (exc.value.index, str(exc.value)) == failure


class TestPoseDistance:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(5)
        p = random_pose(rng)
        assert pose_distance(p, p) == 0.0

    def test_single_translation_entry(self):
        # Only the (0, 3) entry differs, by 1 mm, weighted by w_t = 1.
        p = from_translation([1.0, 0.0, 0.0])
        assert pose_distance(p, I, w_o=1.0, w_t=1.0) == pytest.approx(1.0)

    def test_linear_in_translation_weight(self):
        p = from_translation([3.0, -4.0, 12.0])
        d1 = pose_distance(p, I, w_o=1.0, w_t=0.01)
        d2 = pose_distance(p, I, w_o=1.0, w_t=0.02)
        assert d2 == pytest.approx(2.0 * d1)

    @given(rotation_strategy, rotation_strategy)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_positivity(self, ta, tb):
        a, b = pose_from(ta), pose_from(tb)
        assert pose_distance(a, b) == pytest.approx(pose_distance(b, a))
        assert pose_distance(a, b) >= 0.0


class TestAxes:
    def test_identity_axes(self):
        assert np.allclose(y_axis(I), [0, 1, 0])
        assert np.allclose(z_axis(I), [0, 0, 1])

    def test_rotated_basis(self):
        assert np.allclose(y_axis(from_rotation(rot_z(90))), [-1, 0, 0])


class TestUnitBetween:
    def test_axis_aligned(self):
        c = from_translation([0, 100, 0])
        assert np.allclose(unit_between(I, c), [0, 1, 0])

    def test_offset_origin(self):
        p = from_translation([1, 1, 1])
        c = from_translation([1, 1, 2])
        assert np.allclose(unit_between(p, c), [0, 0, 1])

    def test_coincident_raises(self):
        with pytest.raises(DegenerateGeometry):
            unit_between(I, from_translation([0, 0, 5e-7]))

    def test_sqrt_of_dot_is_norm(self):
        # unit_between (and synth._random_unit) take a 3-vector's length as
        # sqrt(d.dot(d)); np.linalg.norm of a 1-D float vector computes the same.
        rng = np.random.default_rng(11)
        for magnitude in np.geomspace(1e-3, 1e6, 400):
            d = rng.normal(size=3) * magnitude
            assert math.sqrt(d.dot(d)) == float(np.linalg.norm(d))


def test_dot_is_matmul_on_4x4s():
    # Per-scene products of two C-contiguous 4x4s go through ndarray.dot; it
    # must round as `@` does, on fresh arrays and on the read-only catalog ones.
    rng = np.random.default_rng(5)
    catalog = [m for mt in default_database().types.values() for m in mt.matrices.values()]
    fixed = list(CONNECTOR_STACK) + catalog
    assert all(m.flags.c_contiguous for m in fixed)
    for k in range(300):
        a, b = rng.normal(size=(2, 4, 4)) * 10.0 ** rng.integers(-3, 4, size=2)[:, None, None]
        f, g = fixed[k % len(fixed)], fixed[(3 * k + 1) % len(fixed)]
        for x, y in ((a, b), (f, b), (a, g), (f, g)):
            assert x.dot(y).tobytes() == (x @ y).tobytes()


class TestRawConnectionAngle:
    def test_aligned_z(self):
        c = from_translation([0, 100, 0])
        assert raw_connection_angle(I, c) == pytest.approx(0.0)

    def test_opposed_z(self):
        c = Pose(rot_x(180), [0, 100, 0])
        assert raw_connection_angle(I, c) == pytest.approx(180.0)

    def test_quarter_turn_sign(self):
        # z_p = (0,0,1), z_c = (1,0,0), u = (0,1,0):
        # z_p x z_c = (0,1,0), dotted with u gives +1, so the angle is +90.
        c = Pose(rot_y(90), [0, 100, 0])
        assert raw_connection_angle(I, c) == pytest.approx(90.0)

    def test_rotation_about_shared_y(self):
        for alpha in np.arange(-179.5, 180.5, 7.3):
            c = Pose(rot_y(alpha), [0, 100, 0])
            assert raw_connection_angle(I, c) == pytest.approx(alpha, abs=1e-6)

    def test_propagates_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            raw_connection_angle(I, from_rotation(rot_y(30)))

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        st.lists(st.floats(-500.0, 500.0), min_size=6, max_size=6),
        st.sampled_from(["free", "parallel", "antiparallel", "coincident"]),
        st.floats(-180.0, 180.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_cross_product_reference(self, quats, origins, relation, spin):
        # The sign from the scalar triple product equals the np.cross sign bit
        # for bit, also for (anti)parallel z-axes and coincident origins.
        qp, qc = quats[:4], quats[4:]
        if min(math.hypot(*qp), math.hypot(*qc)) < 1e-3:
            return
        rp = quat_to_matrix(qp)
        rc = {
            "free": quat_to_matrix(qc),
            "parallel": rp @ rot_z(spin),
            "antiparallel": rp * [1.0, -1.0, -1.0],
        }.get(relation, quat_to_matrix(qc))
        tc = origins[:3] if relation == "coincident" else origins[3:]
        p, c = Pose(rp, origins[:3]), Pose(rc, tc)
        try:
            expected = reference_raw_connection_angle(p, c)
        except DegenerateGeometry:
            with pytest.raises(DegenerateGeometry):
                raw_connection_angle(p, c)
            return
        got = raw_connection_angle(p, c)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
        if relation == "parallel":
            assert (z_axis(c) == z_axis(p)).all()
        if relation == "antiparallel":
            assert (z_axis(c) == -z_axis(p)).all()


class TestDiscretize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (-85.0, -90.0),
            (170.0, 180.0),
            (44.9, 0.0),
            (45.1, 90.0),
            (45.0, 0.0),
            (-45.0, 0.0),
            (135.0, 90.0),
            (-135.0, -90.0),
        ],
    )
    def test_values(self, raw, expected):
        assert discretize_angle(raw) == expected

    def test_idempotent(self):
        for c in CONNECTION_ANGLES:
            assert discretize_angle(c) == c

    def test_brute_force_oracle(self):
        # Independent nearest-by-circular-distance check on a 0.1 degree grid.
        for raw in np.arange(-179.9, 180.1, 0.1):
            raw = round(float(raw), 4)
            best = min(
                CONNECTION_ANGLES,
                key=lambda c: (circular_difference(raw, c), abs(c), -c),
            )
            assert discretize_angle(raw) == best, raw

    def test_closed_form_matches_search_near_every_midpoint(self):
        # Within 300 ulps of each multiple of 45 degrees over four turns each
        # way, the closed form picks what the search does, the sign of zero too.
        for m in range(-32, 33):
            up = down = 45.0 * m
            for _ in range(300):
                for raw in (up, down):
                    got, want = discretize_angle(raw), reference_discretize_angle(raw)
                    assert got.hex() == want.hex(), raw.hex()
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(1e300)
    @settings(max_examples=500, deadline=None)
    def test_closed_form_matches_search(self, raw):
        assert discretize_angle(raw).hex() == reference_discretize_angle(raw).hex()

    @pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, raw):
        with pytest.raises(ValueError, match="non-finite"):
            discretize_angle(raw)


class TestQuaternions:
    @given(rotation_strategy)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, ta):
        r = axis_angle([ta[0], ta[1], ta[2]], ta[3])
        q = matrix_to_quat(r)
        assert np.abs(quat_to_matrix(q) - r).max() < 1e-12
        assert np.linalg.norm(q) == pytest.approx(1.0)

    @given(st.lists(st.lists(st.floats(-1e100, 1e100), min_size=4, max_size=4), min_size=1,
                    max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_stack_equals_scalar_formula(self, quats):
        # Row k of a stacked conversion is bit-identical to the scalar formula.
        try:
            expected = [reference_quat_to_matrix(q) for q in quats]
        except ValueError:
            with pytest.raises(ValueError, match="zero-norm"):
                quat_to_matrix(quats)
            return
        assert quat_to_matrix(quats).tobytes() == np.array(expected).tobytes()
        assert quat_to_matrix(quats[0]).tobytes() == expected[0].tobytes()

    @given(
        st.lists(
            st.lists(st.floats() | st.sampled_from([0.0, 1e-7, 1e155]), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        ),
        st.booleans(),
    )
    @example([[1e300, 1e300, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], False)
    @example([[math.nan, 0.0, 0.0, 1.0]], True)
    @settings(max_examples=300, deadline=None)
    def test_float_kernel_matches_numpy_formula(self, quats, single):
        # One quaternion or a stack, any floats: the same bits as the formula
        # evaluated over numpy arrays, or the same ValueError.
        q = quats[0] if single and quats else quats

        def outcome(convert):
            try:
                r = convert(q)
            except ValueError as exc:
                return str(exc)
            return r.shape, r.tobytes()

        with np.errstate(all="ignore"):
            expected = outcome(reference_numpy_quat_to_matrix)
        assert outcome(quat_to_matrix) == expected

    @pytest.mark.parametrize("shape", [(0,), (3,), (8,), (2, 5), (1, 1, 4)])
    def test_rejects_other_shapes(self, shape):
        # The file form's q is a list of exactly four numbers.
        with pytest.raises(ValueError, match="^q must be a list of 4 numbers$"):
            pose_from_json([0, 0, 0], np.ones(shape).tolist())

    @pytest.mark.parametrize(
        "q, message",
        [
            ([1e300, 1e300, 0.0, 0.0], "q is too large to normalize"),
            ([math.nan, 0.0, 0.0, 1.0], "expected a finite number, got nan"),
            ([0.0, math.inf, 0.0, 1.0], "expected a finite number, got inf"),
        ],
        ids=["q0", "q1", "q2"],
    )
    def test_rejects_non_finite_norm(self, q, message):
        # An overflowing norm would normalize into the identity, a NaN into
        # NaNs; the messages are the file readers'.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quat_rows(q)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pose_from_json([0, 0, 0], q)

    def test_rpy_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = axis_angle(rng.normal(size=3), float(rng.uniform(0, 179)))
            assert np.abs(rpy_to_matrix(*matrix_to_rpy(r)) - r).max() < 1e-12
            assert matrix_to_rpy(r.tolist()) == matrix_to_rpy(r)


class TestWrap:
    @pytest.mark.parametrize(
        "a,expected", [(180.0, 180.0), (-180.0, 180.0), (190.0, -170.0), (0.0, 0.0), (540.0, 180.0)]
    )
    def test_wrap(self, a, expected):
        assert wrap_angle(a) == pytest.approx(expected)


class TestWriteFile:
    # Shorter data must leave no stale tail; longer data must replace all.
    @pytest.mark.parametrize("old, new", [(b"0123456789", b"abc"), (b"abc", b"0123456789")])
    def test_overwrite_holds_exactly_the_new_bytes(self, tmp_path, old, new):
        path = tmp_path / "f"
        path.write_bytes(old)
        write_file(path, new)
        assert path.read_bytes() == new

    def test_new_file_mode_matches_open(self, tmp_path):
        old_umask = os.umask(0)
        try:
            with open(tmp_path / "by_open", "w"):
                pass
            write_file(tmp_path / "by_writer", b"x")
        finally:
            os.umask(old_umask)
        assert (tmp_path / "by_writer").stat().st_mode == (tmp_path / "by_open").stat().st_mode

    def test_writes_through_symlink(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"old contents")
        link.symlink_to(target)
        write_file(link, b"new")
        assert link.is_symlink()
        assert target.read_bytes() == b"new"

    def test_devnull_accepted(self):
        write_file(os.devnull, b"discarded")

    def test_full_device_raises_and_closes(self):
        if not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")):
            pytest.skip("needs /dev/full and /proc/self/fd")
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError):
            write_file("/dev/full", b"x")
        assert sorted(os.listdir("/proc/self/fd")) == before
