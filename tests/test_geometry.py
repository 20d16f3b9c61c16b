"""Quaternion/transform math against scipy.spatial.transform as the oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from conftest import random_unit_quats, scipy_rotation, with_signed_zeros
from gatesim.geometry import (
    RigidTransform,
    dot,
    mat_to_quat,
    plane_offset,
    quat_from_axis_angle,
    quat_from_yaw,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_mat,
    wrap_angle,
)
from gatesim.render import camera_pose


def test_wrap_angle_range_and_identity(rng):
    for a in rng.uniform(-50.0, 50.0, size=500):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # same direction on the unit circle
        assert abs(math.sin(w) - math.sin(a)) < 1e-12
        assert abs(math.cos(w) - math.cos(a)) < 1e-12
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(3 * math.pi) - math.pi) < 1e-12


def test_quat_mul_matches_scipy(rng):
    a = random_unit_quats(rng, 100)
    b = random_unit_quats(rng, 100)
    got = quat_mul(a, b)
    for i in range(100):
        expect = scipy_rotation(a[i]) * scipy_rotation(b[i])
        # quaternion double cover: compare as rotations
        diff = scipy_rotation(got[i]) * expect.inv()
        assert diff.magnitude() < 1e-12


def test_quat_rotate_matches_scipy(rng):
    q = random_unit_quats(rng, 50)
    v = rng.normal(size=(50, 3))
    got = quat_rotate(q, v)
    for i in range(50):
        np.testing.assert_allclose(got[i], scipy_rotation(q[i]).apply(v[i]), atol=1e-12)


def test_quat_rotate_batched_vectors(rng):
    q = quat_normalize(rng.normal(size=4))
    pts = rng.normal(size=(20, 3))
    np.testing.assert_allclose(quat_rotate(q, pts), scipy_rotation(q).apply(pts), atol=1e-12)


def test_quat_to_mat_matches_scipy(rng):
    q = random_unit_quats(rng, 100)
    np.testing.assert_allclose(quat_to_mat(q), scipy_rotation(q).as_matrix(), atol=1e-12)


def test_mat_to_quat_round_trip_all_branches():
    # one rotation per code branch of the trace-based reconstruction
    cases = [
        Rotation.from_rotvec([0.1, 0.2, 0.3]),             # trace > 0
        Rotation.from_rotvec([math.pi - 1e-3, 0.0, 0.0]),  # x-dominant
        Rotation.from_rotvec([0.0, math.pi - 1e-3, 0.0]),  # y-dominant
        Rotation.from_rotvec([0.0, 0.0, math.pi - 1e-3]),  # z-dominant
    ]
    for rot in cases:
        q = mat_to_quat(rot.as_matrix())
        assert q[0] >= 0.0
        np.testing.assert_allclose(quat_to_mat(q), rot.as_matrix(), atol=1e-9)


def _mat_to_quat_reference(m):
    """The numpy construction mat_to_quat replaced (np.trace, arrays,
    np.linalg.norm(axis=-1)), kept as the oracle for its bits; also returns
    the branch taken."""
    m = np.asarray(m, dtype=np.float64)
    t = np.trace(m)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
        branch = 0
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
        branch = 1
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
        branch = 2
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
        branch = 3
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q, axis=-1, keepdims=True), branch


def _camera_pose_reference(position, yaw, pitch):
    """The numpy construction camera_pose replaced: (quaternion, translation)."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    forward = np.array([cy * cp, sy * cp, sp])
    right = np.array([sy, -cy, 0.0])
    down = np.cross(forward, right)
    r = np.column_stack([right, down, forward])
    return _mat_to_quat_reference(r)[0], np.asarray(position, dtype=np.float64)


_unit = st.floats(-1.0, 1.0)


@st.composite
def _rotation_matrices(draw):
    """Rotations about random axes by angles up to pi (every branch of
    mat_to_quat), and proper SVD products U S V^T of random matrices, which
    are orthonormal only to rounding."""
    if draw(st.booleans()):
        axis = np.array([draw(_unit) for _ in range(3)])
        if not np.linalg.norm(axis) > 1e-3:
            axis = np.array([0.0, 0.0, 1.0])
        angle = draw(st.floats(0.0, math.pi))
        return Rotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()
    cov = np.array([[draw(_unit) for _ in range(3)] for _ in range(3)])
    u, _, vt = np.linalg.svd(cov + np.eye(3) * draw(st.floats(-1.0, 1.0)))
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        s[2, 2] = -1.0
    return u @ s @ vt


def test_mat_to_quat_has_the_bits_of_the_numpy_construction():
    branches = set()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_rotation_matrices())
    def check(m):
        expect, branch = _mat_to_quat_reference(m)
        assert np.array_equal(mat_to_quat(m), expect)
        branches.add(branch)

    check()
    assert branches == {0, 1, 2, 3}


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.floats(-50.0, 50.0)] * 3), st.floats(-10.0, 10.0), st.floats(-3.2, 3.2))
def test_camera_pose_has_the_bits_of_the_numpy_construction(position, yaw, pitch):
    pose = camera_pose(position, yaw, pitch)
    rotation, translation = _camera_pose_reference(position, yaw, pitch)
    assert np.array_equal(pose.rotation, rotation)
    assert np.array_equal(pose.translation, translation)
    # one quaternion's matrix, on floats, against the batched array path
    assert np.array_equal(pose.rotation_matrix(), quat_to_mat(rotation[None])[0])


def test_quat_conjugate_is_inverse(rng):
    q = random_unit_quats(rng, 50)
    prod = quat_mul(q, q * [1.0, -1.0, -1.0, -1.0])
    np.testing.assert_allclose(prod, np.tile([1.0, 0, 0, 0], (50, 1)), atol=1e-12)


def test_quat_from_axis_angle_matches_scipy(rng):
    for _ in range(20):
        axis = rng.normal(size=3)
        angle = rng.uniform(-math.pi, math.pi)
        q = quat_from_axis_angle(axis, angle)
        expect = Rotation.from_rotvec(angle * axis / np.linalg.norm(axis))
        assert (scipy_rotation(q) * expect.inv()).magnitude() < 1e-12
    with pytest.raises(ValueError):
        quat_from_axis_angle([0.0, 0.0, 0.0], 1.0)
    for axis in ([1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[0.0, 0.0, 1.0]]):
        with pytest.raises(ValueError, match="three components"):
            quat_from_axis_angle(axis, 1.0)


def test_quat_from_yaw_matches_scipy():
    for yaw in (-2.0, -0.5, 0.0, 0.7, 3.0):
        got = scipy_rotation(quat_from_yaw(yaw))
        expect = Rotation.from_euler("z", yaw)
        assert (got * expect.inv()).magnitude() < 1e-12


def test_quat_normalize_rejects_zero():
    with pytest.raises(ValueError):
        quat_normalize([0.0, 0.0, 0.0, 0.0])


def test_rigid_transform_apply_matches_scipy(rng):
    q = quat_normalize(rng.normal(size=4))
    t = rng.normal(size=3)
    T = RigidTransform(q, t)
    pts = rng.normal(size=(30, 3))
    expect = scipy_rotation(q).apply(pts) + t
    np.testing.assert_allclose(T.apply(pts), expect, atol=1e-12)


def test_rigid_transform_validation():
    with pytest.raises(ValueError):
        RigidTransform(np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(3))
    ident = RigidTransform.identity()
    np.testing.assert_array_equal(ident.apply(np.ones((2, 3))), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# the fixed-order 3-vector product
# ---------------------------------------------------------------------------

_U = Fraction(1, 2**53)          # unit roundoff of float64
_GAMMA_3 = 3 * _U / (1 - 3 * _U)
_ETA = Fraction(1, 2**1074)      # smallest subnormal: bounds a product's underflow error
# finite components whose products and sums cannot overflow; tiny ones underflow
_COMPONENT = st.floats(-1e150, 1e150)
_VECTOR = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_VECTOR, _VECTOR)
@example((1.0, 1e-16, -1.0), (1.0, 1.0, 1.0))          # cancellation down to one term
@example((1e-200, 3e-170, -0.0), (1e-130, 7e-160, 5.0))   # products below the subnormals
@example((0.1, 0.2, 0.3), (0.3, 0.2, 0.1))
def test_dot_is_within_gamma_3_of_the_exact_sum(a, b):
    # the forward-error bound of a three-term recursive sum of rounded
    # products: gamma_3 times the sum of |a_i b_i|, plus the absolute error
    # of three underflowing products
    products = [Fraction(x) * Fraction(y) for x, y in zip(a, b)]
    got = dot(a, b)
    assert math.isfinite(got)
    assert abs(Fraction(got) - sum(products)) <= _GAMMA_3 * sum(map(abs, products)) + 3 * _ETA


_SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 1e308, -1e308])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
@example(0, 0.0)
@example(1, 0.5)
def test_dot_is_the_column_wise_numpy_sum(seed, special):
    # row by row over (N, 3) arrays, on Python floats and on numpy rows alike,
    # with signed zeros, subnormals, huge, infinite and NaN entries: what a
    # batch of rollouts can compute in one pass has the scalar bits
    rng = np.random.default_rng(seed)
    n, v = (rng.normal(size=(64, 3)) * 10.0 ** rng.integers(-320, 300, size=(64, 3))
            for _ in range(2))
    for x in (n, v):
        hit = rng.random(x.shape) < special
        x[hit] = rng.choice(_SPECIAL, size=x.shape)[hit]
        with_signed_zeros(rng, x, 0.05)
    with np.errstate(all="ignore"):
        want = n[:, 0] * v[:, 0] + n[:, 1] * v[:, 1] + n[:, 2] * v[:, 2]
        rows = np.array([dot(a, b) for a, b in zip(n, v)])
    floats = np.array([dot(a, b) for a, b in zip(n.tolist(), v.tolist())])
    # which NaN operand an addition propagates depends on the operand order
    # of the machine instruction, so NaNs are compared as NaNs
    nan = np.isnan(want)
    for got in (floats, rows):
        assert (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_VECTOR, _VECTOR, _VECTOR)
@example((0.1, 0.2, 0.3), (0.6, 0.0, 0.8), (1.0, -2.0, 0.7))
def test_plane_offset_is_the_dot_of_the_normal_and_the_offset(center, normal, point):
    # a tilted normal, unlike a gate's, has three nonzero terms, whose sum
    # depends on its order
    want = dot(normal, [p - c for p, c in zip(point, center)])
    assert plane_offset((*center, *normal), *point) == want
