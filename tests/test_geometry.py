import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainforge.geometry import (
    CONNECTION_ANGLES,
    ORTHONORMALITY_TOL,
    DegenerateGeometry,
    Pose,
    WeightMatrix,
    axis_angle,
    circular_difference,
    compose,
    discretize_angle,
    invert,
    matrix_to_quat,
    matrix_to_rpy,
    pose_distance,
    pose_from_json,
    quat_to_matrix,
    raw_connection_angle,
    relative,
    rot_x,
    rot_y,
    rot_z,
    rpy_to_matrix,
    unit_between,
    wrap_angle,
    y_axis,
    z_axis,
)

I = Pose.identity()


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
        a = Pose.from_rotation(rot_z(90))
        assert compose(a, a).approx_equal(Pose.from_rotation(rot_z(180)))

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


class TestPoseDistance:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(5)
        p = random_pose(rng)
        assert pose_distance(p, p, WeightMatrix()) == 0.0

    def test_single_translation_entry(self):
        # Only the (0, 3) entry differs, by 1 mm, weighted by w_t = 1.
        p = Pose.from_translation([1.0, 0.0, 0.0])
        assert pose_distance(p, I, WeightMatrix(w_o=1.0, w_t=1.0)) == pytest.approx(1.0)

    def test_linear_in_translation_weight(self):
        p = Pose.from_translation([3.0, -4.0, 12.0])
        d1 = pose_distance(p, I, WeightMatrix(w_o=1.0, w_t=0.01))
        d2 = pose_distance(p, I, WeightMatrix(w_o=1.0, w_t=0.02))
        assert d2 == pytest.approx(2.0 * d1)

    @given(rotation_strategy, rotation_strategy)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_positivity(self, ta, tb):
        a, b = pose_from(ta), pose_from(tb)
        w = WeightMatrix()
        assert pose_distance(a, b, w) == pytest.approx(pose_distance(b, a, w))
        assert pose_distance(a, b, w) >= 0.0

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            WeightMatrix(w_o=0.0)
        with pytest.raises(ValueError):
            WeightMatrix(w_t=-1.0)


class TestAxes:
    def test_identity_axes(self):
        assert np.allclose(y_axis(I), [0, 1, 0])
        assert np.allclose(z_axis(I), [0, 0, 1])

    def test_rotated_basis(self):
        assert np.allclose(y_axis(Pose.from_rotation(rot_z(90))), [-1, 0, 0])


class TestUnitBetween:
    def test_axis_aligned(self):
        c = Pose.from_translation([0, 100, 0])
        assert np.allclose(unit_between(I, c), [0, 1, 0])

    def test_offset_origin(self):
        p = Pose.from_translation([1, 1, 1])
        c = Pose.from_translation([1, 1, 2])
        assert np.allclose(unit_between(p, c), [0, 0, 1])

    def test_coincident_raises(self):
        with pytest.raises(DegenerateGeometry):
            unit_between(I, Pose.from_translation([0, 0, 5e-7]))


class TestRawConnectionAngle:
    def test_aligned_z(self):
        c = Pose.from_translation([0, 100, 0])
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
            raw_connection_angle(I, Pose.from_rotation(rot_y(30)))


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


class TestQuaternions:
    @given(rotation_strategy)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, ta):
        r = axis_angle([ta[0], ta[1], ta[2]], ta[3])
        q = matrix_to_quat(r)
        assert np.abs(quat_to_matrix(q) - r).max() < 1e-12
        assert np.linalg.norm(q) == pytest.approx(1.0)

    def test_rpy_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = axis_angle(rng.normal(size=3), float(rng.uniform(0, 179)))
            assert np.abs(rpy_to_matrix(*matrix_to_rpy(r)) - r).max() < 1e-12


class TestWrap:
    @pytest.mark.parametrize(
        "a,expected", [(180.0, 180.0), (-180.0, 180.0), (190.0, -170.0), (0.0, 0.0), (540.0, 180.0)]
    )
    def test_wrap(self, a, expected):
        assert wrap_angle(a) == pytest.approx(expected)
