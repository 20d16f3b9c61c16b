"""Renderer checks: projection, splatting against a closed-form oracle,
analytic gate masks, and netpbm bytes."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import frame_arrays, random_scene, read_netpbm, step_ulps, with_signed_zeros
from gatesim import render
from gatesim.geometry import RigidTransform
from gatesim.render import (
    ALPHA_CAP,
    ALPHA_MIN,
    CONDITION_LIMIT,
    COV2D_DILATION,
    DEFAULT_CAMERA,
    RING_MARGIN,
    TRANSMITTANCE_FLOOR,
    ZNEAR,
    PinholeCamera,
    RenderResult,
    _camera_rays,
    _cast_exact,
    _ordered_sum,
    _ring_window,
    camera_pose,
    gate_mask,
    pgm_bytes,
    point_in_view,
    ppm_bytes,
    project,
    render_scene,
    world_to_camera,
)
from gatesim.scene import GaussianScene
from gatesim.tracks import Gate, gate_axes
from gatesim.edits import translate


def _single_gaussian(mean, scale=0.2, color=(1.0, 0.0, 0.0), opacity=0.9):
    return GaussianScene([mean], [[1.0, 0, 0, 0]], [[scale] * 3],
                         [list(color)], [opacity])


def test_camera_pose_axes():
    pose = camera_pose((0.0, 0.0, 1.0), yaw=0.0)
    r = pose.rotation_matrix()
    # columns: right, down, forward in world coordinates (x fwd, y left, z up)
    np.testing.assert_allclose(r[:, 0], [0.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(r[:, 1], [0.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(r[:, 2], [1.0, 0.0, 0.0], atol=1e-12)


def test_camera_pose_pitch_tilts_forward_axis():
    pose = camera_pose((0.0, 0.0, 0.0), yaw=0.0, pitch=0.3)
    fwd = pose.rotation_matrix()[:, 2]
    np.testing.assert_allclose(fwd, [math.cos(0.3), 0.0, math.sin(0.3)], atol=1e-12)


def test_project_on_axis_point():
    cam = PinholeCamera(128, 128, 100.0, 100.0, 64.0, 64.0)
    pose = camera_pose((0.0, 0.0, 0.0), yaw=0.0)
    uv, z = project(cam, pose, [[2.0, 0.0, 0.0]])
    np.testing.assert_allclose(uv[0], [64.0, 64.0], atol=1e-12)
    assert abs(z[0] - 2.0) < 1e-12


def test_project_lateral_offset():
    cam = PinholeCamera(128, 128, 100.0, 100.0, 64.0, 64.0)
    pose = camera_pose((0.0, 0.0, 0.0), yaw=0.0)
    # 1 m to the camera's right at 2 m depth: world right is -y at yaw 0
    uv, z = project(cam, pose, [[2.0, -1.0, 0.0]])
    np.testing.assert_allclose(uv[0], [64.0 + 50.0, 64.0], atol=1e-12)


def test_point_in_view_boundary_inclusive():
    pose = camera_pose((0.0, 0.0, 1.5), yaw=0.0)
    # u = fx * 4 / 3 + cx = 60 * 4/3 + 80 = 160 exactly: the closed image edge
    assert point_in_view(DEFAULT_CAMERA, pose, np.array([3.0, -4.0, 1.5]))
    assert not point_in_view(DEFAULT_CAMERA, pose, np.array([3.0, -4.0001, 1.5]))
    assert not point_in_view(DEFAULT_CAMERA, pose, np.array([-3.0, 0.0, 1.5]))
    # closer than znear
    assert not point_in_view(DEFAULT_CAMERA, pose, np.array([0.01, 0.0, 1.5]))


def test_point_in_view_is_projects_depth_and_rectangle_test(rng):
    # point_in_view computes one point's projection on floats; project, on
    # arrays, is its reference
    cam = DEFAULT_CAMERA
    for _ in range(20):
        pose = camera_pose(rng.uniform(-3.0, 3.0, 3), yaw=rng.uniform(-math.pi, math.pi),
                           pitch=rng.uniform(-0.5, 0.5))
        pts = pose.translation + rng.uniform(-6.0, 6.0, size=(100, 3))
        uv, z = project(cam, pose, pts)
        want = ((z > ZNEAR) & (0.0 <= uv[:, 0]) & (uv[:, 0] <= cam.width)
                & (0.0 <= uv[:, 1]) & (uv[:, 1] <= cam.height))
        assert [point_in_view(cam, pose, p) for p in pts] == want.tolist()
        assert 10 < want.sum() < 90


def test_world_to_camera_round_trip(rng):
    pose = camera_pose(rng.normal(size=3), yaw=0.7, pitch=-0.2)
    pts = rng.normal(size=(10, 3))
    pc = world_to_camera(pose, pts)
    back = pose.apply(pc)
    np.testing.assert_allclose(back, pts, atol=1e-12)


def test_render_empty_scene_is_background():
    out = render_scene(GaussianScene.empty())
    assert out.rgb.shape == (120, 160, 3)
    # black, as +0.0 bits
    assert not out.rgb.view(np.uint64).any()
    np.testing.assert_array_equal(out.alpha, 0.0)
    assert out.skipped == 0


def test_render_single_gaussian_peak_and_decay():
    cam = PinholeCamera(129, 129, 100.0, 100.0, 64.0, 64.0)
    scene = _single_gaussian([3.0, 0.0, 0.0], scale=0.1, opacity=0.95)
    pose = camera_pose((0.0, 0.0, 0.0), yaw=0.0)
    out = render_scene(scene, cam, pose)
    red = out.rgb[:, :, 0]
    assert np.unravel_index(np.argmax(red), red.shape) == (64, 64)
    row = red[64, 64:]
    assert np.all(np.diff(row) <= 1e-12)
    col = red[64:, 64]
    assert np.all(np.diff(col) <= 1e-12)


def _fd_projection_jacobian(cam, pc, eps=1e-6):
    """Central-difference jacobian of the pinhole map at a camera-frame point."""
    def f(p):
        return np.array([cam.fx * p[0] / p[2] + cam.cx, cam.fy * p[1] / p[2] + cam.cy])
    j = np.zeros((2, 3))
    for k in range(3):
        d = np.zeros(3)
        d[k] = eps
        j[:, k] = (f(pc + d) - f(pc - d)) / (2 * eps)
    return j


def test_splat_footprint_matches_fd_jacobian_oracle(rng):
    # rebuild the expected alpha image from scratch: finite-difference
    # jacobian, camera-frame covariance, dilation, then the alpha formula
    cam = PinholeCamera(120, 100, 90.0, 90.0, 60.0, 50.0)
    pose = camera_pose((0.0, 0.0, 1.0), yaw=0.1, pitch=-0.05)
    mean = pose.apply(np.array([[0.4, -0.3, 4.0]]))[0]
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    s = np.array([0.15, 0.3, 0.08])
    scene = GaussianScene([mean], [q], [s], [[1.0, 1.0, 1.0]], [0.8])

    out = render_scene(scene, cam, pose)

    r_wc = pose.rotation_matrix()
    pc = world_to_camera(pose, mean[None, :])[0]
    cov_world = scene.covariances()[0]
    cov_cam = r_wc.T @ cov_world @ r_wc
    j = _fd_projection_jacobian(cam, pc)
    cov2d = j @ cov_cam @ j.T + COV2D_DILATION * np.eye(2)
    u0 = cam.fx * pc[0] / pc[2] + cam.cx
    v0 = cam.fy * pc[1] / pc[2] + cam.cy

    uu, vv = np.meshgrid(np.arange(cam.width, dtype=float),
                         np.arange(cam.height, dtype=float))
    d = np.stack([uu - u0, vv - v0], axis=-1)
    inv = np.linalg.inv(cov2d)
    power = -0.5 * np.einsum("hwi,ij,hwj->hw", d, inv, d)
    alpha = np.minimum(0.8 * np.exp(power), 0.99)
    alpha[alpha < 1.0 / 255.0] = 0.0
    # the rasterizer only evaluates inside the 3 sigma bounding box
    lmax = np.linalg.eigvalsh(cov2d).max()
    radius = 3.0 * math.sqrt(lmax)
    outside = (np.abs(uu - u0) > radius + 1) | (np.abs(vv - v0) > radius + 1)
    alpha[outside] = 0.0

    np.testing.assert_allclose(out.alpha, alpha, atol=5e-4)


def test_dilation_keeps_subpixel_splats_visible():
    scene = _single_gaussian([5.0, 0.0, 0.0], scale=1e-4, opacity=0.9)
    pose = camera_pose((0.0, 0.0, 0.0), yaw=0.0)
    out = render_scene(scene, DEFAULT_CAMERA, pose)
    assert out.alpha.max() > 0.5


def test_depth_order_red_over_blue():
    pose = camera_pose((0.0, 0.0, 0.0), yaw=0.0)
    red = [4.0, 0.0, 0.0]
    blue = [5.0, 0.0, 0.0]
    scene = GaussianScene([red, blue], np.tile([1.0, 0, 0, 0], (2, 1)),
                          np.full((2, 3), 0.3), [[1, 0, 0], [0, 0, 1]], [0.9, 0.9])
    out = render_scene(scene, DEFAULT_CAMERA, pose)
    center = out.rgb[60, 80]
    assert center[0] > center[2] > 0.0
    # swapping input order must not matter: depth sort is internal
    flipped = GaussianScene(scene.means[::-1].copy(), scene.rotations[::-1].copy(),
                            scene.scales[::-1].copy(), scene.colors[::-1].copy(),
                            scene.opacities[::-1].copy())
    out2 = render_scene(flipped, DEFAULT_CAMERA, pose)
    np.testing.assert_array_equal(out.rgb, out2.rgb)


def test_render_permutation_invariance(rng):
    scene = random_scene(rng, 40, span=2.0)
    scene.means[:, 0] = rng.uniform(2.0, 8.0, size=40)  # distinct depths ahead
    pose = camera_pose((0.0, 0.0, 0.0), yaw=0.0)
    base = render_scene(scene, DEFAULT_CAMERA, pose)
    perm = rng.permutation(40)
    shuffled = GaussianScene(scene.means[perm], scene.rotations[perm],
                             scene.scales[perm], scene.colors[perm],
                             scene.opacities[perm])
    again = render_scene(shuffled, DEFAULT_CAMERA, pose)
    np.testing.assert_allclose(again.rgb, base.rgb, atol=1e-12)
    np.testing.assert_allclose(again.alpha, base.alpha, atol=1e-12)


def _reference_render(scene, camera=DEFAULT_CAMERA, pose=None):
    """Reference: the one-splat-at-a-time compositor that render_scene must
    reproduce bit for bit. Every in-front splat is visited in depth order and
    composited over its whole clipped 3 sigma box, then over a black
    background, which render_scene leaves out: adding +0.0 moves no bit."""
    pose = pose if pose is not None else RigidTransform.identity()
    h, w = camera.height, camera.width
    rgb = np.zeros((h, w, 3))
    trans = np.ones((h, w))
    skipped = 0

    if len(scene):
        r_wc = pose.rotation_matrix()
        pc = (scene.means - pose.translation) @ r_wc
        visible = pc[:, 2] > ZNEAR
        order = np.flatnonzero(visible)[np.argsort(pc[visible, 2], kind="stable")]
    else:
        order = np.array([], dtype=np.int64)

    if len(order):
        covs = scene.covariances()[order]
        w_mat = r_wc.T
        cov_cam = np.einsum("ij,njk,lk->nil", w_mat, covs, w_mat)
        x, y, z = pc[order, 0], pc[order, 1], pc[order, 2]
        u0 = camera.fx * x / z + camera.cx
        v0 = camera.fy * y / z + camera.cy
        j = np.zeros((len(order), 2, 3))
        j[:, 0, 0] = camera.fx / z
        j[:, 0, 2] = -camera.fx * x / z**2
        j[:, 1, 1] = camera.fy / z
        j[:, 1, 2] = -camera.fy * y / z**2
        cov2d = np.einsum("nij,njk,nlk->nil", j, cov_cam, j)
        cov2d[:, 0, 0] += COV2D_DILATION
        cov2d[:, 1, 1] += COV2D_DILATION

        colors = scene.colors[order]
        opac = scene.opacities[order]

        for k in range(len(order)):
            a, b, c = cov2d[k, 0, 0], cov2d[k, 0, 1], cov2d[k, 1, 1]
            det = a * c - b * b
            if det <= 0.0:
                skipped += 1
                continue
            mid = 0.5 * (a + c)
            half = math.sqrt(max(mid * mid - det, 0.0))
            lmax, lmin = mid + half, mid - half
            if lmin <= 0.0 or lmax / lmin > CONDITION_LIMIT:
                skipped += 1
                continue
            radius = 3.0 * math.sqrt(lmax)
            x0 = max(0, int(math.floor(u0[k] - radius)))
            x1 = min(w - 1, int(math.ceil(u0[k] + radius)))
            y0 = max(0, int(math.floor(v0[k] - radius)))
            y1 = min(h - 1, int(math.ceil(v0[k] + radius)))
            if x0 > x1 or y0 > y1:
                continue
            tile = trans[y0 : y1 + 1, x0 : x1 + 1]
            live = tile > TRANSMITTANCE_FLOOR
            if not live.any():
                continue
            us = np.arange(x0, x1 + 1) - u0[k]
            vs = np.arange(y0, y1 + 1) - v0[k]
            du, dv = np.meshgrid(us, vs)
            power = -0.5 * (c * du * du - 2.0 * b * du * dv + a * dv * dv) / det
            alpha = np.minimum(opac[k] * np.exp(power), ALPHA_CAP)
            alpha[(alpha < ALPHA_MIN) | ~live] = 0.0
            weight = tile * alpha
            rgb[y0 : y1 + 1, x0 : x1 + 1] += weight[:, :, None] * colors[k]
            tile *= 1.0 - alpha

    alpha_img = 1.0 - trans
    rgb += trans[:, :, None] * np.zeros(3)
    return RenderResult(np.clip(rgb, 0.0, 1.0), alpha_img, skipped)


@st.composite
def _render_case(draw):
    """A random scene in front of a camera at the origin looking along +x,
    with optional near opaque splats that saturate the frame, ill-conditioned
    splats behind them, splats whose boxes cross the frame edge, and a crowd
    of small splats behind the wall that fills several CULL_BATCHes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    scene = random_scene(rng, n, span=2.0)
    scene.means[:, 0] = rng.uniform(-1.0, 9.0, size=n)  # some behind or inside ZNEAR
    parts = [scene]
    if draw(st.booleans()):
        # a wall of wide near opaque splats: every pixel falls below the floor
        k = draw(st.integers(1, 8))
        wall = random_scene(rng, k, span=0.3)
        wall.means[:, 0] = rng.uniform(0.5, 2.0, size=k)
        wall.scales[:] = rng.uniform(2.0, 6.0, size=(k, 3))
        wall.opacities[:] = rng.uniform(0.99, 1.0, size=k)
        parts.append(wall)
    if draw(st.booleans()):
        # condition number far above CONDITION_LIMIT, deeper than the wall
        k = draw(st.integers(1, 4))
        bad = random_scene(rng, k, span=1.0)
        bad.means[:, 0] = rng.uniform(3.0, 9.0, size=k)
        bad.scales[:, 0] = rng.uniform(1e5, 1e7, size=k)
        parts.append(bad)
    if draw(st.booleans()):
        # centers near or past the frame edge, so boxes are clipped
        k = draw(st.integers(1, 12))
        edge = random_scene(rng, k, span=1.0)
        depth = rng.uniform(1.0, 6.0, size=k)
        edge.means[:, 0] = depth
        edge.means[:, 1] = depth * rng.choice([-1.0, 1.0], size=k) * rng.uniform(1.0, 1.6, size=k)
        edge.means[:, 2] = depth * rng.uniform(-1.3, 1.3, size=k)
        parts.append(edge)
    if draw(st.booleans()):
        # behind a saturating wall the crowd's batches are culled and
        # compositing stops early; without one, later batches still composite
        k = draw(st.integers(301, 340))
        crowd = random_scene(rng, k, span=2.0)
        crowd.means[:, 0] = rng.uniform(2.5, 9.0, size=k)
        crowd.scales[:] = rng.uniform(0.01, 0.1, size=(k, 3))
        parts.append(crowd)
    merged = GaussianScene(*map(np.concatenate, zip(*(p.arrays() for p in parts))))
    camera = draw(st.sampled_from([DEFAULT_CAMERA, PinholeCamera(40, 30, 15.0, 15.0, 20.0, 15.0)]))
    pose = camera_pose((0.0, 0.0, draw(st.floats(-0.5, 0.5))), yaw=draw(st.floats(-0.3, 0.3)))
    return merged, camera, pose


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_render_case())
def test_render_scene_matches_reference_bits(case):
    scene, camera, pose = case
    got = render_scene(scene, camera, pose)
    want = _reference_render(scene, camera, pose)
    assert np.array_equal(got.rgb.view(np.uint64), want.rgb.view(np.uint64))
    assert np.array_equal(got.alpha.view(np.uint64), want.alpha.view(np.uint64))
    assert got.skipped == want.skipped


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 64), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_ordered_sum_has_the_einsum_bits(n, zeros, seed):
    rng = np.random.default_rng(seed)
    w_mat = with_signed_zeros(rng, rng.normal(size=(3, 3)), zeros)
    covs = rng.normal(size=(n, 3, 3)) * 10.0 ** rng.uniform(-6.0, 2.0, size=(n, 1, 1))
    covs = with_signed_zeros(rng, covs, zeros)
    jac = with_signed_zeros(rng, rng.normal(size=(n, 2, 3)), zeros)
    # the oracles: the two einsums of the camera-frame and image-plane covariances
    cov_cam = np.einsum("ij,njk,lk->nil", w_mat, covs, w_mat)
    cov2d = np.einsum("nij,njk,nlk->nil", jac, cov_cam, jac)
    got_cam = _ordered_sum(w_mat[:, :, None], covs.transpose(1, 2, 0), w_mat[:, :, None])
    assert np.array_equal(got_cam.transpose(2, 0, 1).view(np.int64), cov_cam.view(np.int64))
    jac_cm = jac.transpose(1, 2, 0)
    got_2d = _ordered_sum(jac_cm, got_cam, jac_cm)
    assert np.array_equal(got_2d.transpose(2, 0, 1).view(np.int64), cov2d.view(np.int64))


def test_gaussians_behind_camera_culled():
    scene = _single_gaussian([-3.0, 0.0, 0.0])
    pose = camera_pose((0.0, 0.0, 0.0), yaw=0.0)
    out = render_scene(scene, DEFAULT_CAMERA, pose)
    np.testing.assert_array_equal(out.alpha, 0.0)


def test_gate_mask_annulus_radii():
    # circular gate, 0.78 m inner diameter and 0.10 m ring, faces the camera
    # 5 m away with fx = 100: ring spans pixel radii [7.8, 9.8]
    cam = PinholeCamera(160, 120, 100.0, 100.0, 80.0, 60.0)
    gate = Gate.static("circular", 0.39, 0.10, (5.0, 0.0, 1.5), math.pi)
    pose = camera_pose((0.0, 0.0, 1.5), yaw=0.0)
    mask = gate_mask([gate], cam, pose)
    assert not mask[60, 80]            # principal point: inside the opening
    assert not mask[60, 87]            # 7 px: still inside (< 7.8)
    assert mask[60, 88]                # 8 px: on the ring
    assert mask[60, 89]                # 9 px
    assert not mask[60, 90]            # 10 px: past the outer boundary (> 9.8)
    assert not mask[60 + 10, 80]
    assert mask[60 + 8, 80]


def test_gate_mask_square_uses_max_norm():
    cam = PinholeCamera(160, 120, 50.0, 50.0, 80.0, 60.0)
    gate = Gate.static("square", 1.0, 0.2, (5.0, 0.0, 1.5), math.pi)
    pose = camera_pose((0.0, 0.0, 1.5), yaw=0.0)
    mask = gate_mask([gate], cam, pose)
    # inner half-extent 1.0 at 5 m with f=50 projects to 10 px
    assert not mask[60, 80]
    assert mask[60, 91]                 # 11 px along the axis: ring
    assert not mask[60, 93]             # 13 px: outside (outer = 12 px)
    # a diagonal pixel at max-norm 11 is on the ring for a square
    assert mask[60 + 11, 80 + 11]


def test_gate_mask_behind_camera_empty():
    gate = Gate.static("square", 1.0, 0.2, (-5.0, 0.0, 1.5), 0.0)
    pose = camera_pose((0.0, 0.0, 1.5), yaw=0.0)
    assert not gate_mask([gate], DEFAULT_CAMERA, pose).any()


def test_gate_mask_moving_gate_uses_schedule_time():
    gate = Gate("circular", 0.39, 0.10,
                ((0.0, np.array([3.0, -1.0, 1.5]), math.pi),
                 (4.0, np.array([3.0, 1.0, 1.5]), math.pi)))
    pose = camera_pose((0.0, 0.0, 1.5), yaw=0.0)
    m0 = gate_mask([gate], DEFAULT_CAMERA, pose, t=0.0)
    m2 = gate_mask([gate], DEFAULT_CAMERA, pose, t=2.0)
    ys0, xs0 = np.nonzero(m0)
    ys2, xs2 = np.nonzero(m2)
    # gate drifts from the camera's right toward center
    assert xs0.mean() > xs2.mean()
    assert abs(xs2.mean() - 80.0) < 1.0


def _full_frame_mask(gates, camera, pose, t=0.0):
    """Reference: every gate ray-cast over every pixel of the frame."""
    h, w = camera.height, camera.width
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dirs_cam = np.stack(
        [(uu - camera.cx) / camera.fx, (vv - camera.cy) / camera.fy, np.ones_like(uu)], axis=-1
    )
    # every 3-vector product is a0*b0 + a1*b1 + a2*b2, column by column
    x, y, z = (dirs_cam[..., k] for k in range(3))
    dirs = [x * r[0] + y * r[1] + z * r[2] for r in pose.rotation_matrix()]
    origin = pose.translation

    mask = np.zeros((h, w), dtype=bool)
    for gate in gates:
        center, _, normal, lateral, up = frame_arrays(gate, t)
        denom = dirs[0] * normal[0] + dirs[1] * normal[1] + dirs[2] * normal[2]
        rel = center - origin
        # a ray along the plane meets it at an infinite or NaN depth, and is no hit
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hit = (normal[0] * rel[0] + normal[1] * rel[1] + normal[2] * rel[2]) / denom
            q = [origin[k] + t_hit * dirs[k] - center[k] for k in range(3)]
            a = q[0] * lateral[0] + q[1] * lateral[1] + q[2] * lateral[2]
            b = q[0] * up[0] + q[1] * up[1] + q[2] * up[2]
        ok = (np.abs(denom) > 1e-12) & (t_hit > 0.0)
        if gate.shape == "square":
            d = np.maximum(np.abs(a), np.abs(b))
        else:
            d = np.hypot(a, b)
        mask |= ok & (d >= gate.inner_half) & (d <= gate.outer_half)
    return mask


_coord = st.floats(-4.0, 4.0, allow_nan=False)
_angle = st.floats(-math.pi, math.pi, allow_nan=False)


@st.composite
def _gate_and_pose(draw):
    """A gate and a camera pose, with the camera anywhere, looking toward the
    ring, near its plane (the ring straddles the camera plane), close in
    front of it (the ring outgrows the frame), facing away from it, or
    flying through the opening (the opening fills the frame, and at a yaw
    the ring's outer corners cross the camera plane)."""
    shape = draw(st.sampled_from(["square", "circular"]))
    inner = draw(st.floats(0.05, 2.0))
    ring = draw(st.floats(0.02, 0.6))
    center = np.array([draw(_coord) for _ in range(3)])
    yaw = draw(_angle)
    if draw(st.booleans()):
        end = center + np.array([draw(_coord) for _ in range(3)])
        gate = Gate(shape, inner, ring, ((0.5, center, yaw), (3.0, end, yaw + draw(_angle))))
        t = draw(st.floats(-1.0, 5.0))  # before, inside and after the schedule
    else:
        gate = Gate.static(shape, inner, ring, center, yaw)
        t = 0.0
    c, gyaw, normal, lateral, up = frame_arrays(gate, t)
    place = draw(st.sampled_from(["free", "looking", "plane", "close", "away", "through"]))
    side = draw(st.floats(-1.0, 1.0))
    lift = draw(st.floats(-1.0, 1.0))
    if place in ("free", "looking"):
        pos = np.array([draw(_coord) for _ in range(3)])
        cam_yaw = draw(_angle)
        if place == "looking":
            cam_yaw = math.atan2(c[1] - pos[1], c[0] - pos[0]) + 0.5 * side
    elif place == "plane":
        pos = c + draw(st.floats(-0.3, 0.3)) * normal + 2.0 * (side * lateral + lift * up)
        cam_yaw = draw(_angle)
    elif place == "through":
        depth = draw(st.floats(0.05, 1.5)) * inner
        pos = c - depth * normal + 0.3 * inner * (side * lateral + lift * up)
        cam_yaw = gyaw + 0.8 * draw(st.floats(-1.0, 1.0))
    else:
        depth = draw(st.floats(0.02, 0.6))
        pos = c - depth * normal + 0.3 * (side * lateral + lift * up)
        cam_yaw = gyaw + (math.pi if place == "away" else 0.0) + 0.3 * draw(st.floats(-1.0, 1.0))
    pitch = draw(st.floats(-1.2, 1.2))
    pose = camera_pose(pos, cam_yaw, 0.3 * pitch if place in ("looking", "through") else pitch)
    camera = draw(st.sampled_from([DEFAULT_CAMERA, DEFAULT_CAMERA.scaled(2.0)]))
    return gate, camera, pose, t


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_gate_and_pose())
def test_gate_mask_window_matches_full_frame(case):
    gate, camera, pose, t = case
    assert np.array_equal(gate_mask([gate], camera, pose, t=t),
                          _full_frame_mask([gate], camera, pose, t=t))


def test_gate_mask_several_gates_match_full_frame(rng):
    gates = [Gate.static(shape, 0.39, 0.10, rng.uniform(-3.0, 3.0, size=3), rng.uniform(-3, 3))
             for shape in ("circular", "square", "circular", "square")]
    for _ in range(40):
        pose = camera_pose(rng.uniform(-3.0, 3.0, size=3), rng.uniform(-3, 3), rng.uniform(-1, 1))
        assert np.array_equal(gate_mask(gates, DEFAULT_CAMERA, pose),
                              _full_frame_mask(gates, DEFAULT_CAMERA, pose))


def _window_of(gate, camera, pose, t=0.0):
    center, _, _, lateral, up = frame_arrays(gate, t)
    r_wc = pose.rotation_matrix()
    return _ring_window(camera, ((center - pose.translation) @ r_wc).tolist(),
                        (lateral @ r_wc).tolist(), (up @ r_wc).tolist(), gate.outer_half)


def test_ring_window_kinds():
    cam = DEFAULT_CAMERA
    full = (slice(0, cam.height), slice(0, cam.width))
    pose = camera_pose((0.0, 0.0, 1.5), yaw=0.0)
    far = Gate.static("circular", 0.39, 0.10, (5.0, 0.0, 1.5), math.pi)
    rows, cols = _window_of(far, cam, pose)
    # 0.49 m at 5 m with fx = 60 spans 5.88 px each side of the center:
    # pixels 55..65 and 75..85, padded by 2
    assert (rows, cols) == (slice(53, 68), slice(73, 88))
    behind = Gate.static("circular", 0.39, 0.10, (-5.0, 0.0, 1.5), 0.0)
    assert _window_of(behind, cam, pose) is None
    # the camera sits in the ring's plane, beside it: corners on both sides
    straddle = Gate.static("square", 1.0, 0.2, (0.0, 3.0, 1.5), math.pi / 2 - 0.2)
    assert _window_of(straddle, cam, pose) == full
    off_frame = Gate.static("circular", 0.39, 0.10, (5.0, 20.0, 1.5), math.pi)
    assert _window_of(off_frame, cam, pose) is None


def _spy_exact():
    """A stand-in for render._cast_exact that records the shape of each
    batch of rays it casts."""
    batches = []

    def spy(rays, *args):
        batches.append(rays.shape[:-1])
        return _cast_exact(rays, *args)

    return batches, mock.patch.object(render, "_cast_exact", spy)


@st.composite
def _boundary_case(draw):
    """A gate placed so that one pixel's ray meets its plane at exactly the
    inner or outer radius, then resized by a few ulps either way. The ray
    may meet the plane head-on or grazing it; or the camera sits within
    rounding of the gate plane, on the ring's edge. Coordinates reach 1e4 m."""
    camera = DEFAULT_CAMERA
    shift = np.array([draw(st.sampled_from([0.0, 37.5, -1e3, 1e4, -1e4])) for _ in range(3)])
    kind = draw(st.sampled_from(["head-on", "head-on", "grazing", "plane"]))
    shape = draw(st.sampled_from(["square", "circular"]))
    inner = draw(st.floats(0.05, 2.0))
    ring = draw(st.floats(0.02, 0.6))
    outer_edge = draw(st.booleans())
    rad = inner + ring if outer_edge else inner
    phi = draw(_angle)
    pos = shift + np.array([draw(_coord) for _ in range(3)])
    pose = camera_pose(pos, draw(_angle), draw(st.floats(-0.6, 0.6)))
    r_wc = pose.rotation_matrix()
    row, col = draw(st.integers(0, camera.height - 1)), draw(st.integers(0, camera.width - 1))
    ray = _camera_rays(camera)[row, col] @ r_wc.T
    if kind == "grazing":
        # the gate's normal all but perpendicular to the ray
        yaw = math.atan2(ray[1], ray[0]) + math.pi / 2 + draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    else:
        yaw = draw(_angle)
    normal, lateral, up = (np.array(v) for v in gate_axes(yaw))
    # the in-plane direction at the boundary: the circle's radius, or a point
    # on the square's edge
    if shape == "circular":
        edge = math.cos(phi) * lateral + math.sin(phi) * up
    else:
        edge = lateral + math.sin(phi) * up
    if kind == "plane":
        center = pos - rad * edge + draw(st.sampled_from([0.0, 1e-15, -4e-12])) * normal
    else:
        center = pos + draw(st.floats(0.3, 30.0)) * ray - rad * edge
    sized = step_ulps(inner, draw(st.integers(-3, 3)))
    if outer_edge:
        # ring = rad - inner puts outer_half within an ulp of rad; move it on
        sized, ring = inner, step_ulps(rad - inner, draw(st.integers(-3, 3)))
    t = 0.0
    if draw(st.booleans()):
        step = np.array([draw(_coord) for _ in range(3)])
        gate = Gate(shape, sized, ring, ((0.0, center - step, yaw), (2.0, center + step, yaw)))
        t = 1.0
    else:
        gate = Gate.static(shape, sized, ring, center, yaw)
    if kind == "plane":
        # look at the ring, so that it does not lie wholly behind the camera
        rel = center - pos
        pose = camera_pose(pos, math.atan2(rel[1], rel[0]), 0.0)
    return gate, camera, pose, t


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_boundary_case())
def test_gate_mask_at_the_ring_boundary_matches_full_frame(case):
    gate, camera, pose, t = case
    batches, patch = _spy_exact()
    with patch:
        got = gate_mask([gate], camera, pose, t=t)
    assert np.array_equal(got, _full_frame_mask([gate], camera, pose, t=t))
    # the pixel aimed at the boundary is too close to it for the sure test
    assert batches and sum(math.prod(b) for b in batches) >= 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_gate_and_pose(), st.integers(0, 2**32 - 1))
def test_cast_exact_has_the_bits_of_the_windowed_mask(case, seed):
    gate, camera, pose, t = case
    window = _window_of(gate, camera, pose, t)
    mask = gate_mask([gate], camera, pose, t=t)
    if window is None:
        assert not mask.any()
        return
    center, _, normal, lateral, up = gate.frame_at(t)
    r_wc = pose.rotation_matrix()
    exact = (np.ascontiguousarray(r_wc.T), pose.translation, center, normal, lateral, up, gate)
    rays = _camera_rays(camera)[window]
    whole = _cast_exact(rays, *exact)
    assert np.array_equal(whole, mask[window])
    outside = mask.copy()
    outside[window] = False
    assert not outside.any()
    # gathered, as gate_mask casts the pixels its sure test leaves open: a
    # random share of them, and single pixels
    rng = np.random.default_rng(seed)
    pick = rng.random(whole.shape) < 0.3
    assert np.array_equal(_cast_exact(rays[pick], *exact), whole[pick])
    for _ in range(3):
        one = np.zeros(whole.shape, dtype=bool)
        one[rng.integers(whole.shape[0]), rng.integers(whole.shape[1])] = True
        assert np.array_equal(_cast_exact(rays[one], *exact), whole[one])


@pytest.mark.parametrize("gate,quat,position", [
    # one pixel within rounding of the inner radius, the only one the exact
    # cast gets
    (Gate("square", 0.5465951367771649, 0.5,
          ((0.0, np.array([0.4113255606290302, 38.38930599753564, 0.5383940143918401]),
            2.9757842176036746),)),
     [0.6434196712158015, -0.5938539075063496, 0.3276297485122206, -0.35497522606769194],
     [0.0, 37.5, 0.0]),
    # the camera on the ring's outer edge, in its plane: two corners of the
    # outer square sit at a depth within rounding of zero
    (Gate.static("square", 0.625, 0.125, [0.35956915395315225, -0.6581869214177796, 0.0], 0.5),
     [0.17494101728127348, -0.17494101728127348, 0.6851245437674768, -0.6851245437674768],
     [0.0, 0.0, 0.0]),
])
def test_gate_mask_boundary_cases_match_full_frame(gate, quat, position):
    pose = RigidTransform(np.array(quat), np.array(position))
    assert np.array_equal(gate_mask([gate], DEFAULT_CAMERA, pose),
                          _full_frame_mask([gate], DEFAULT_CAMERA, pose))


@st.composite
def _in_plane_case(draw):
    """A camera within rounding of a gate's plane, inside the ring solid or
    its opening or beyond it, looking along the plane or across it; about
    half its rays meet the plane at a depth within rounding of zero.
    Coordinates reach 1e4 m."""
    shape = draw(st.sampled_from(["square", "circular"]))
    inner, ring = draw(st.floats(0.05, 2.0)), draw(st.floats(0.02, 0.6))
    shift = np.array([draw(st.sampled_from([0.0, 37.5, -1e3, 1e4])) for _ in range(3)])
    gate = Gate.static(shape, inner, ring, shift + [draw(_coord) for _ in range(3)], draw(_angle))
    c, _, normal, lateral, up = frame_arrays(gate)
    phi = draw(_angle)
    edge = math.cos(phi) * lateral + math.sin(phi) * up
    rad = draw(st.floats(0.0, 2.0)) * (inner + ring)
    pos = c + rad * edge + draw(st.sampled_from([0.0, 1e-17, -1e-16, 1e-15, -4e-12])) * normal
    rel = c - pos
    pose = camera_pose(pos, math.atan2(rel[1], rel[0]) + draw(st.floats(-2.0, 2.0)),
                       draw(st.floats(-1.2, 1.2)))
    return gate, pose


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_in_plane_case())
# the camera inside the ring band, with its offset N from the plane 1 ulp
# from zero, and 3e-12 at coordinates near 1e4 m
@example((Gate.static("circular", 0.39, 0.1, [0.3, -0.7, 1.2], 0.5),
          RigidTransform(np.array([0.3014748603704233, -0.2464945311585045, 0.5830143915131242,
                                   -0.7130550988262859]),
                         np.array([0.09847440722719161, -0.3311098768185503, 1.3300288909309894]))))
@example((Gate.static("circular", 0.39, 0.1, [10000.3, -1000.7, 38.7], 2.2),
          RigidTransform(np.array([0.7346726502877382, -0.6006895243773978, 0.19959316096932053,
                                   -0.24411219206897722]),
                         np.array([10000.112162037354, -1000.8367264595867, 38.338167476532604]))))
def test_gate_mask_with_the_camera_in_the_gate_plane_matches_full_frame(case):
    gate, pose = case
    batches, patch = _spy_exact()
    with patch:
        got = gate_mask([gate], DEFAULT_CAMERA, pose)
    assert np.array_equal(got, _full_frame_mask([gate], DEFAULT_CAMERA, pose))
    # gate_mask's docstring: a window whose N is within rounding of zero,
    # |N| <= 8 u eta / RING_MARGIN + 1e-300, is cast whole
    c, _, normal, _, _ = gate.frame_at(0.0)
    rel = (c - pose.translation).tolist()
    big_n = normal[0] * rel[0] + normal[1] * rel[1] + normal[2] * rel[2]
    eta = abs(normal[0] * rel[0]) + abs(normal[1] * rel[1]) + abs(normal[2] * rel[2])
    window = _window_of(gate, DEFAULT_CAMERA, pose)
    if window is not None and abs(big_n) <= 8.0 * 2.0**-53 * eta / RING_MARGIN + 1e-300:
        rows, cols = window
        assert batches == [(rows.stop - rows.start, cols.stop - cols.start)]


def test_sure_test_decides_a_ring_seen_head_on():
    gates = [Gate.static(shape, 0.39, 0.10, (4.0, y, 1.5), math.pi)
             for shape, y in (("circular", 0.5), ("square", -0.6))]
    pose = camera_pose((0.0, 0.0, 1.5), yaw=0.05, pitch=0.1)
    batches, patch = _spy_exact()
    with patch:
        mask = gate_mask(gates, DEFAULT_CAMERA, pose)
    assert batches == []
    assert mask.sum() > 100
    assert np.array_equal(mask, _full_frame_mask(gates, DEFAULT_CAMERA, pose))


def test_camera_rays_cached_read_only():
    rays = _camera_rays(DEFAULT_CAMERA)
    assert _camera_rays(PinholeCamera()) is rays
    assert rays.shape == (DEFAULT_CAMERA.height, DEFAULT_CAMERA.width, 3)
    assert not rays.flags.writeable
    np.testing.assert_array_equal(rays[60, 80], [0.0, 0.0, 1.0])
    assert _camera_rays(DEFAULT_CAMERA.scaled(2.0)).shape == (240, 320, 3)


def test_mask_translation_consistency(rng):
    # translating the splats and the analytic gate by the same offset keeps
    # the splat mask and the analytic mask in the same agreement
    from gatesim.tracks import gate_splats
    gate = Gate.static("circular", 0.39, 0.10, (2.0, 0.0, 1.5), math.pi)
    offset = np.array([0.0, 0.4, 0.2])
    moved_gate = Gate.static("circular", 0.39, 0.10,
                             np.array([2.0, 0.0, 1.5]) + offset, math.pi)
    splats = gate_splats(gate)
    splats.add_object("gate", np.arange(len(splats)))
    moved_splats = translate(splats, "gate", offset)

    pose = camera_pose((0.0, 0.0, 1.5), yaw=0.0)
    analytic = gate_mask([moved_gate], DEFAULT_CAMERA, pose)
    splatted = render_scene(moved_splats, DEFAULT_CAMERA, pose).alpha >= 0.5
    both = analytic | splatted
    agree = (analytic == splatted).mean()
    assert both.any()
    assert agree > 0.97


def test_ppm_round_trip(rng):
    img = rng.integers(0, 256, size=(17, 23, 3), dtype=np.uint8)
    blob = ppm_bytes(img)
    assert blob.startswith(b"P6\n23 17\n255\n")
    np.testing.assert_array_equal(read_netpbm(blob), img)
    assert ppm_bytes(read_netpbm(blob)) == blob


def test_pgm_round_trip_bool_and_float(rng):
    mask = rng.random((9, 11)) > 0.5
    blob = pgm_bytes(mask)
    assert blob.startswith(b"P5\n11 9\n255\n")
    back = read_netpbm(blob)
    np.testing.assert_array_equal(back == 255, mask)
    assert pgm_bytes(back) == blob
    # floats quantize by round-to-nearest
    gray = np.array([[0.0, 0.5, 1.0]])
    np.testing.assert_array_equal(read_netpbm(pgm_bytes(gray)), [[0, 128, 255]])


def test_netpbm_shape_validation(rng):
    with pytest.raises(ValueError):
        ppm_bytes(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        pgm_bytes(np.zeros((4, 4, 3)))


def test_camera_scaled_same_fov():
    cam2 = DEFAULT_CAMERA.scaled(2.0)
    assert (cam2.width, cam2.height) == (320, 240)
    pose = camera_pose((0.0, 0.0, 0.0), yaw=0.0)
    pt = [[4.0, -1.0, 0.5]]
    uv1, _ = project(DEFAULT_CAMERA, pose, pt)
    uv2, _ = project(cam2, pose, pt)
    np.testing.assert_allclose(uv2, 2.0 * uv1, atol=1e-12)


def test_to_u8_rounding():
    u8 = read_netpbm(ppm_bytes(np.broadcast_to([0.5, 0.0, 1.0], (2, 3, 3))))
    assert u8.dtype == np.uint8
    assert u8[0, 0, 0] == 128 and u8[0, 0, 2] == 255
