"""Pinhole camera, EWA-style splat rasterizer and analytic gate masks.

Camera frame: +z forward, +x right, +y down. Pixel (row, col) has its center
at continuous image coordinates (u=col, v=row). All rendering is float64 and
fully deterministic: gaussians composite front to back in depth order with
index as the tie-break.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform, dot, mat_to_quat
from .scene import GaussianScene
from .tracks import Gate

ZNEAR = 0.05
COV2D_DILATION = 0.3         # px^2, keeps sub-pixel splats visible
ALPHA_CAP = 0.99
ALPHA_MIN = 1.0 / 255.0
TRANSMITTANCE_FLOOR = 1e-4
CONDITION_LIMIT = 1e12
RING_WINDOW_PAD = 2          # px around a ring's projected bounding box
BEHIND_MARGIN = 1e-6         # m; orders above the rounding of a ray-plane hit
CULL_BATCH = 128             # splats culled against one table of live pixels
# relative band about each ring radius that gate_mask's sure test leaves to
# the exact cast; gate_mask's docstring derives the floors that make it safe
RING_MARGIN = 2.0**-20
_UNIT_ROUNDOFF = 2.0**-53    # of float64


@dataclass(frozen=True)
class PinholeCamera:
    width: int = 160
    height: int = 120
    # wide FPV-style lens (106 x 90 degrees): close gates stay in frame until
    # just before the crossing, which vision policies depend on
    fx: float = 60.0
    fy: float = 60.0
    cx: float = 80.0
    cy: float = 60.0

    def scaled(self, factor: float) -> "PinholeCamera":
        """Same field of view at factor x the resolution."""
        return PinholeCamera(
            int(round(self.width * factor)),
            int(round(self.height * factor)),
            self.fx * factor,
            self.fy * factor,
            self.cx * factor,
            self.cy * factor,
        )


DEFAULT_CAMERA = PinholeCamera()


def camera_pose(position, yaw: float, pitch: float = 0.0) -> RigidTransform:
    """World-from-camera pose for a forward-looking camera at (yaw, pitch).

    The optical axis points along the vehicle heading; roll stays zero.
    """
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    f0, f1, f2 = cy * cp, sy * cp, sp        # forward
    r0, r1, r2 = sy, -cy, 0.0                # right
    # down = forward x right, in np.cross's order of operations
    d0, d1, d2 = f1 * r2 - f2 * r1, f2 * r0 - f0 * r2, f0 * r1 - f1 * r0
    r = [[r0, d0, f0], [r1, d1, f1], [r2, d2, f2]]
    return RigidTransform(mat_to_quat(r), np.asarray(position, dtype=np.float64))


def world_to_camera(pose: RigidTransform, points: np.ndarray) -> np.ndarray:
    r = pose.rotation_matrix()
    return (np.atleast_2d(points) - pose.translation) @ r


def project(camera: PinholeCamera, pose: RigidTransform, points) -> tuple[np.ndarray, np.ndarray]:
    """Project world points; returns ((n,2) pixel coords, (n,) camera depth)."""
    pc = world_to_camera(pose, np.asarray(points, dtype=np.float64))
    z = pc[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = camera.fx * pc[:, 0] / z + camera.cx
        v = camera.fy * pc[:, 1] / z + camera.cy
    return np.stack([u, v], axis=1), z


def point_in_view(camera: PinholeCamera, pose: RigidTransform, point) -> bool:
    """Positive depth and projection inside the closed image rectangle.

    project's arithmetic for one point, with the camera-frame coordinates
    taken as geometry.dot products against the rotation's columns.
    """
    rel = (np.asarray(point, dtype=np.float64) - pose.translation).tolist()
    x, y, z = (dot(rel, col) for col in pose.rotation_matrix().T.tolist())
    if not z > ZNEAR:
        return False
    u = camera.fx * x / z + camera.cx
    v = camera.fy * y / z + camera.cy
    return 0.0 <= u <= camera.width and 0.0 <= v <= camera.height


@dataclass
class RenderResult:
    rgb: np.ndarray        # (H, W, 3) in [0, 1]
    alpha: np.ndarray      # (H, W) accumulated opacity
    skipped: int           # gaussians dropped for ill-conditioned projection


def _ordered_sum(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, l] = sum over j, then k, of (a[i, j] * m[j, k]) * b[l, k], on
    channel-major (I, J, n), (J, K, n) and (L, K, n) arrays; a and b may hold
    1 in place of n.

    This is np.einsum("ij,njk,lk->nil") and np.einsum("nij,njk,nlk->nil")
    laid out as (I, L, n): the same products, summed from zero in the same
    order, so the bits are the same, including the sign of a zero.
    """
    out = np.zeros((a.shape[0], b.shape[0], m.shape[-1]))
    for j in range(a.shape[1]):
        for k in range(b.shape[1]):
            out += (a[:, j] * m[j, k])[:, None] * b[None, :, k]
    return out


def render_scene(
    scene: GaussianScene,
    camera: PinholeCamera = DEFAULT_CAMERA,
    pose: RigidTransform | None = None,
) -> RenderResult:
    """Depth-sorted front-to-back alpha compositing of projected gaussians
    over a black background.

    Per gaussian the 3D covariance is pushed through the projection jacobian,
    dilated by COV2D_DILATION px^2, and splatted over its 3 sigma bounding
    box. Pixels whose transmittance falls below TRANSMITTANCE_FLOOR stop
    accumulating.

    Splats are composited one at a time, in depth order with index as the
    tie-break, but only those that can still change a pixel are visited.
    Every CULL_BATCH splats a summed-area table of the live pixels (above
    the floor) drops each splat whose box holds none, and compositing stops
    once no pixel of the frame is live. A visited splat is evaluated only on
    the rows and columns of its box that still hold a live pixel. Since
    transmittance only falls, a dropped splat or pixel would have received
    alpha 0, so the image is the same as visiting every splat over its whole
    box.

    The table is rebuilt only when a splat has been composited since it was
    built; otherwise no transmittance has moved and it is still exact. Within
    a batch it goes stale as splats composite, but a stale table counts a
    superset of the live pixels, so it drops only splats that would draw
    nothing, and its empty frame means that no pixel is live.
    """
    pose = pose if pose is not None else RigidTransform.identity()
    h, w = camera.height, camera.width
    # channel-major while compositing, so each channel's update runs along a row
    planes = np.zeros((3, h, w))
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
        # channel-major (3, 3, n): the transpose of covariances()'s view, no copy
        covs = scene.covariances(order).transpose(1, 2, 0)
        w_mat = r_wc.T[:, :, None]
        cov_cam = _ordered_sum(w_mat, covs, w_mat)
        x, y, z = pc[order, 0], pc[order, 1], pc[order, 2]
        u0 = camera.fx * x / z + camera.cx
        v0 = camera.fy * y / z + camera.cy
        # jacobian rows of the pinhole map at each mean
        jac = np.zeros((2, 3, len(order)))
        jac[0, 0] = camera.fx / z
        jac[0, 2] = -camera.fx * x / z**2
        jac[1, 1] = camera.fy / z
        jac[1, 2] = -camera.fy * y / z**2
        cov2d = _ordered_sum(jac, cov_cam, jac)
        cov2d[0, 0] += COV2D_DILATION
        cov2d[1, 1] += COV2D_DILATION

        a, b, c = cov2d[0, 0], cov2d[0, 1], cov2d[1, 1]
        det = a * c - b * b
        mid = 0.5 * (a + c)
        half = np.sqrt(np.maximum(mid * mid - det, 0.0))
        lmax, lmin = mid + half, mid - half
        with np.errstate(divide="ignore", invalid="ignore"):
            ill = (det <= 0.0) | (lmin <= 0.0) | (lmax / lmin > CONDITION_LIMIT)
            radius = 3.0 * np.sqrt(lmax)
        skipped = int(np.count_nonzero(ill))
        # the clipped 3 sigma box, kept as floats until it is known to be
        # non-empty, hence inside the frame
        x0 = np.maximum(np.floor(u0 - radius), 0.0)
        x1 = np.minimum(np.ceil(u0 + radius), w - 1.0)
        y0 = np.maximum(np.floor(v0 - radius), 0.0)
        y1 = np.minimum(np.ceil(v0 + radius), h - 1.0)
        kept = np.flatnonzero(~ill & (x0 <= x1) & (y0 <= y1))
        x0, x1, y0, y1 = (e[kept].astype(np.intp) for e in (x0, x1, y0, y1))
        colors = scene.colors[order][:, :, None, None]
        opac = scene.opacities[order]

        table = np.zeros((h + 1, w + 1), dtype=np.intp)
        composited = True  # since the table was last built
        for start in range(0, len(kept), CULL_BATCH):
            if composited:
                np.cumsum(np.cumsum(trans > TRANSMITTANCE_FLOOR, axis=0), axis=1,
                          out=table[1:, 1:])
                composited = False
                if not table[h, w]:
                    break
            part = slice(start, start + CULL_BATCH)
            bx0, bx1, by0, by1 = x0[part], x1[part] + 1, y0[part], y1[part] + 1
            live_in_box = table[by1, bx1] - table[by0, bx1] - table[by1, bx0] + table[by0, bx0]
            for i in (start + np.flatnonzero(live_in_box)).tolist():
                k = kept[i]
                bx, by = x0[i], y0[i]
                live = trans[by : y1[i] + 1, bx : x1[i] + 1] > TRANSMITTANCE_FLOOR
                rows = np.flatnonzero(live.any(axis=1))
                if not len(rows):
                    continue
                cols = np.flatnonzero(live.any(axis=0))
                live = live[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
                rs = slice(by + rows[0], by + rows[-1] + 1)
                cs = slice(bx + cols[0], bx + cols[-1] + 1)
                tile = trans[rs, cs]
                du = np.arange(cs.start, cs.stop) - u0[k]
                dv = (np.arange(rs.start, rs.stop) - v0[k])[:, None]
                ak, bk, ck = a[k], b[k], c[k]
                # inverse of [[a, b], [b, c]] scaled by det
                power = -0.5 * (ck * du * du - 2.0 * bk * du * dv + ak * dv * dv) / det[k]
                alpha = np.minimum(opac[k] * np.exp(power), ALPHA_CAP)
                alpha[(alpha < ALPHA_MIN) | ~live] = 0.0
                planes[:, rs, cs] += (tile * alpha) * colors[k]
                tile *= 1.0 - alpha
                composited = True

    alpha_img = 1.0 - trans
    rgb = np.ascontiguousarray(np.moveaxis(planes, 0, -1))
    return RenderResult(np.clip(rgb, 0.0, 1.0), alpha_img, skipped)


@functools.lru_cache(maxsize=8)
def _camera_rays(camera: PinholeCamera) -> np.ndarray:
    """Read-only (H, W, 3) camera-frame ray directions (z = 1) through every
    pixel center."""
    uu, vv = np.meshgrid(
        np.arange(camera.width, dtype=np.float64), np.arange(camera.height, dtype=np.float64)
    )
    dirs = np.stack(
        [(uu - camera.cx) / camera.fx, (vv - camera.cy) / camera.fy, np.ones_like(uu)], axis=-1
    )
    dirs.flags.writeable = False
    return dirs


def _abs_dot(a, b) -> float:
    return abs(a[0] * b[0]) + abs(a[1] * b[1]) + abs(a[2] * b[2])


def _ring_window(camera: PinholeCamera, center, lateral, up, outer_half):
    """(rows, cols) slices holding every pixel whose ray can hit the ring.

    center is the ring's center less the camera position, lateral and up
    its axes, all as three floats in camera coordinates. The window is the
    pixel bounding box of the outer ring square's projected corners, padded
    by RING_WINDOW_PAD and clipped to the frame. It is None when that leaves
    no pixel, or when the whole square lies more than BEHIND_MARGIN behind
    the camera, where no ray of positive depth reaches it. It is the full
    frame when a corner lies less than BEHIND_MARGIN in front of the
    camera: the projection is unbounded once the square straddles the
    camera plane, and a depth within rounding of zero gives no usable
    corner. The mask's bits do not depend on the window as long as it holds
    every ring pixel, and the rounding of the projected corners is far below
    the padding.
    """
    h, w = camera.height, camera.width
    cx, cy, cz = center
    lx, ly, lz = outer_half * lateral[0], outer_half * lateral[1], outer_half * lateral[2]
    ux, uy, uz = outer_half * up[0], outer_half * up[1], outer_half * up[2]
    zs = (cz + lz + uz, cz + lz - uz, cz - lz + uz, cz - lz - uz)
    if max(zs) < -BEHIND_MARGIN:
        return None
    if not min(zs) > BEHIND_MARGIN:
        return slice(0, h), slice(0, w)
    xs = (cx + lx + ux, cx + lx - ux, cx - lx + ux, cx - lx - ux)
    ys = (cy + ly + uy, cy + ly - uy, cy - ly + uy, cy - ly - uy)
    # clamped so that corners at a tiny depth still give finite bounds
    us = [min(max(camera.fx * x / z + camera.cx, -w), 2 * w) for x, z in zip(xs, zs)]
    vs = [min(max(camera.fy * y / z + camera.cy, -h), 2 * h) for y, z in zip(ys, zs)]
    x0 = max(0, math.ceil(min(us)) - RING_WINDOW_PAD)
    x1 = min(w, math.floor(max(us)) + RING_WINDOW_PAD + 1)
    y0 = max(0, math.ceil(min(vs)) - RING_WINDOW_PAD)
    y1 = min(h, math.floor(max(vs)) + RING_WINDOW_PAD + 1)
    if x0 >= x1 or y0 >= y1:
        return None
    return slice(y0, y1), slice(x0, x1)


def _cast_exact(rays, r_cw, origin, center, normal, lateral, up, gate) -> np.ndarray:
    """The ring bits of camera-frame rays (any leading shape, last axis 3)
    by the per-pixel cast of gate_mask's docstring.

    Every 3-vector product is geometry.dot taken column by column, so a
    ray's bits depend neither on the BLAS kernel nor on the rays cast with
    it.
    """
    xyz = [rays[..., k] for k in range(3)]
    dirs = [dot(xyz, r_cw[:, j]) for j in range(3)]
    denom = dot(dirs, normal)
    # a ray along the plane gets an infinite or NaN hit, which ok leaves out
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hit = dot(normal, center - origin) / denom
        q = [t_hit * dirs[k] + origin[k] - center[k] for k in range(3)]
        a = dot(q, lateral)
        b = dot(q, up)
    ok = (np.abs(denom) > 1e-12) & (t_hit > 0.0)
    if gate.shape == "square":
        d = np.maximum(np.abs(a), np.abs(b))
    else:
        d = np.hypot(a, b)
    return ok & (d >= gate.inner_half) & (d <= gate.outer_half)


def _sure_ring(rays, window, cols, o, rel, c, n, l, up, lat_cam, up_cam, gate):
    """The window's ring bits that the sure test decides, and the pixels it
    leaves to _cast_exact, as two boolean arrays; None when the window must
    be cast whole. The names follow gate_mask's docstring; cols holds R's
    columns, rel = c - o, and lat_cam, up_cam are R^T l and R^T up."""
    u, margin, ri, ro = _UNIT_ROUNDOFF, RING_MARGIN, gate.inner_half, gate.outer_half
    big_n = dot(n, rel)
    eta = _abs_dot(n, rel)
    side = [abs(a) + abs(b) for a, b in zip(l, up)]
    eta_t = _abs_dot(side, rel)
    omega = _abs_dot(side, [abs(a) + abs(b) for a, b in zip(o, c)])
    if not (abs(big_n) > 8.0 * u * eta / margin + 1e-300
            and 6.0 * u + 5.0 * u * omega / ri <= 0.25 * margin):
        return None
    rows, cs = window
    xs, ys = rays[0, cs, 0], rays[rows, 0, 1]
    x0, x1, y0, y1 = float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])
    big_x, big_y = max(abs(x0), abs(x1)), max(abs(y0), abs(y1))
    bound = [abs(a) * big_x + abs(b) * big_y + abs(d) for a, b, d in zip(*cols)]
    s, s_t = _abs_dot(n, bound), _abs_dot(side, bound)
    k1 = u * (28.0 * eta * s_t + 13.0 * eta_t * s) / ri + 7.0 * u * s
    k2 = 6.0 * u * eta * s_t * s / ri
    g_floor = max(8.0 * k1 / margin, math.sqrt(8.0 * k2 / margin), 1e-12 + 13.0 * u * s)

    sgn = 1.0 if big_n > 0.0 else -1.0
    g = [sgn * dot(col, n) for col in cols]
    lam_l, lam_up, abs_n = dot(l, rel), dot(up, rel), abs(big_n)
    p = [abs_n * a - lam_l * b for a, b in zip(lat_cam, g)]
    q = [abs_n * a - lam_up * b for a, b in zip(up_cam, g)]
    # G, P and Q: each a column (y, 1 terms) plus a row (x term) over the window
    coef = np.array([g, p, q])
    column = coef[:, 1, None] * ys + coef[:, 2, None]
    big_g, big_p, big_q = column[:, :, None] + (coef[:, 0, None] * xs)[:, None, :]
    # the same sums at the window's corners bound G, since rounding is monotone
    gx, gy = (g[0] * x0, g[0] * x1), (g[1] * y0 + g[2], g[1] * y1 + g[2])
    all_front = min(gx) + min(gy) >= g_floor

    with np.errstate(divide="ignore", invalid="ignore"):
        if gate.shape == "square":
            np.abs(big_p, out=big_p)
            np.abs(big_q, out=big_q)
            ratio = np.maximum(big_p, big_q, out=big_p)
            ratio /= big_g
            power = 1
        else:
            big_p *= big_p
            big_q *= big_q
            big_p += big_q
            ratio = big_p
            ratio /= big_g * big_g
            power = 2
    inside = (ratio >= (ri * (1.0 + margin)) ** power) & (ratio <= (ro * (1.0 - margin)) ** power)
    unsure = (ratio >= (ri * (1.0 - margin)) ** power) & (ratio <= (ro * (1.0 + margin)) ** power)
    unsure ^= inside
    if not all_front:
        front = big_g >= g_floor
        inside &= front
        unsure &= front
        unsure |= np.abs(big_g) < g_floor
    return inside, unsure


def gate_mask(
    gates,
    camera: PinholeCamera = DEFAULT_CAMERA,
    pose: RigidTransform | None = None,
    t: float = 0.0,
) -> np.ndarray:
    """Exact gate-ring mask by ray casting through pixel centers.

    A pixel is set when its ray hits any gate's ring solid (between the
    inner and outer boundary, both inclusive) at positive depth. Square
    rings use the max-norm in the gate plane, circular rings the euclidean
    norm. The bits are those of the per-pixel cast (_cast_exact): with R
    the camera's rotation, o its position, d = (x, y, 1) a pixel's
    camera-frame ray, c the gate's center, (n, l, up) its axes and
    N = n . (c - o),

        D = R d,  t = N / (n . D),  a = ((o + t D) - c) . l,  b = (...) . up,

    every dot product (R d's rows included) in geometry.dot's order, and
    the pixel is set when |n . D| > 1e-12, t > 0 and hypot(a, b) (or
    max(|a|, |b|)) lies in [ri, ro], the inner and outer half-sizes.
    Rays are cast only inside each ring's projected pixel window
    (_ring_window), whose padding keeps every pixel the ring can cover.

    Sure test. With sgn = sign(N), the camera-frame vectors

        g = sgn R^T n,  p = |N| R^T l - (l . (c - o)) g,  q = |N| R^T up - (up . (c - o)) g

    give G = g . d, P = p . d and Q = q . d, each a column plus a row over
    the window. In exact arithmetic on the stored inputs t > 0 iff G > 0,
    and then a = P / G and b = Q / G. So the ring test is
    ri^2 G^2 <= P^2 + Q^2 <= ro^2 G^2, or max(|P|, |Q|) against ri G and
    ro G: no depth, no division by n . D, no hypot. A pixel whose ratio
    (P^2 + Q^2) / G^2, or max(|P|, |Q|) / G, lies outside the band from
    (1 - RING_MARGIN) to (1 + RING_MARGIN) times each radius (squared for
    the circle) takes its bit from that ratio. A pixel inside a band, or
    with |G| under a floor g_f, goes to _cast_exact, gathered.

    Margin. Both computations approximate the same real function of the
    stored R, o, c, n, l, up and d: the ring radius r* of the real hit,
    which is also the real ratio. Let u = 2^-53 and gamma_k = k u / (1 - k u);
    a dot product of 3 terms, in any order, fused or not, is within
    gamma_3 sum |x_i y_i| of its real value. Over the window, with X and Y
    the largest |x| and |y|, let

        S_j = |R_j0| X + |R_j1| Y + |R_j2|, which bounds |D_j|,
        s = sum_j |n_j| S_j, which bounds |G|,   s_t = sum_j (|l_j| + |up_j|) S_j,
        eta = sum_j |n_j (c_j - o_j)|, which bounds |N|,
        eta_t = sum_j (|l_j| + |up_j|) |c_j - o_j|,
        omega = sum_j (|l_j| + |up_j|) (|o_j| + |c_j|).

    To first order in u: N is within gamma_4 eta of its real value (one
    rounding of c - o, then a dot product), and n . D within 2 gamma_3 s
    (two dot products). So t = t* (1 + theta) with
    |theta| <= 4 u eta / |N| + 6 u s / G + u. Each coordinate of
    (o + t D) - c takes three more roundings and a and b a dot product
    each, so

        |a - a*| + |b - b*| <= u eta (s_t / G) (15 + 6 s / G) + 5 u omega,

    and hypot adds at most 2 u r*. In the sure test g, R^T l and R^T up are
    dot products (gamma_3), and each coordinate of p and q takes the error
    of N or of l . (c - o) and two more roundings; with the dot product over
    d, |G - G*| <= 6 u s and |P - P*| + |Q - Q*| <= 13 u (eta s_t + eta_t s).
    The ratio's own rounding is under 4 u. At a radius rho >= ri the two
    computations together are then within rho E of r*, with

        E = 6 u + 5 u omega / ri + K1 / G + K2 / G^2,
        K1 = u (28 eta s_t + 13 eta_t s) / ri + 7 u s,   K2 = 6 u eta s_t s / ri.

    Where E <= RING_MARGIN / 2, a ratio outside the band puts r* and the
    cast's hypot(a, b) on the same side of rho, so the bits agree. A window
    goes through _cast_exact whole when 6 u + 5 u omega / ri > RING_MARGIN / 4
    (coordinates too large for the ring), or when |N| <= 8 u eta / RING_MARGIN
    + 1e-300 (a camera within rounding of the gate plane, where sgn is
    unsure and theta is not small). Otherwise the floor

        g_f = max(8 K1 / RING_MARGIN, sqrt(8 K2 / RING_MARGIN), 1e-12 + 13 u s)

    keeps E <= RING_MARGIN / 2 wherever G >= g_f; the factor of 2 left over
    covers the second-order terms, which are at most RING_MARGIN times the
    first-order ones. G >= g_f also makes |n . D| > 1e-12 and t > 0 sure,
    and G <= -g_f makes t < 0 sure. Pixels with |G| < g_f, rays that graze
    the plane or meet it far away, go to the exact cast. Any RING_MARGIN up
    to about 2^-10 keeps the first-order argument; a smaller one raises the
    floors and the coordinate limit, a larger one widens the bands.
    """
    pose = pose if pose is not None else RigidTransform.identity()
    if isinstance(gates, Gate):
        gates = [gates]
    rays = _camera_rays(camera)
    r_wc = pose.rotation_matrix()
    r_cw = r_wc.T
    origin = pose.translation
    # R's columns, the camera axes in world coordinates: R^T v is (col . v)
    cols = r_cw.tolist()
    o = origin.tolist()

    mask = np.zeros((camera.height, camera.width), dtype=bool)
    for gate in gates:
        center, _, normal, lateral, up = gate.frame_at(t)
        c, n, l, w = center.tolist(), normal.tolist(), lateral.tolist(), up.tolist()
        rel = [c[0] - o[0], c[1] - o[1], c[2] - o[2]]
        lat_cam, up_cam = [dot(col, l) for col in cols], [dot(col, w) for col in cols]
        window = _ring_window(camera, [dot(col, rel) for col in cols], lat_cam, up_cam,
                              gate.outer_half)
        if window is None:
            continue
        exact = (r_cw, origin, center, normal, lateral, up, gate)
        sure = _sure_ring(rays, window, cols, o, rel, c, n, l, w, lat_cam, up_cam, gate)
        if sure is None:
            mask[window] |= _cast_exact(rays[window], *exact)
            continue
        inside, unsure = sure
        if unsure.any():
            inside[unsure] = _cast_exact(rays[window][unsure], *exact)
        mask[window] |= inside
    return mask


# ---------------------------------------------------------------------------
# Netpbm image output (binary PPM/PGM, canonical headers, byte-stable)
# ---------------------------------------------------------------------------


def _to_u8(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.dtype == np.uint8:
        return img
    if img.dtype == np.bool_:
        return img.astype(np.uint8) * 255
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def ppm_bytes(img) -> bytes:
    """Encode an (H, W, 3) image (uint8 or floats in [0,1]) as binary PPM."""
    u8 = _to_u8(img)
    if u8.ndim != 3 or u8.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3), got {u8.shape}")
    h, w = u8.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + u8.tobytes()


def pgm_bytes(img) -> bytes:
    """Encode an (H, W) grayscale image (uint8, bool, or floats) as binary PGM."""
    u8 = _to_u8(img)
    if u8.ndim != 2:
        raise ValueError(f"expected (H, W), got {u8.shape}")
    h, w = u8.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + u8.tobytes()
