"""Controllers behind one policy interface.

Full-state experts for both platforms, the classical mask-centroid
controller, a perception-noise wrapper, and a synthetic learnable policy
whose error shrinks with per-grid training data (a stand-in for neural
policies, so the refinement loop can be exercised end to end).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import QuadParams, UavParams, check_platform, platform_dynamics
from .geometry import dot, plane_offset, wrap_angle
from .render import DEFAULT_CAMERA
from .tracks import NOMINAL_SPEED, Gate

AIM_STANDOFF = 1.0   # m before/behind the gate plane the experts steer for
VELOCITY_STEP = 0.05   # s, half-width of gate_velocity's central difference
SIGMA_SCALE = 0.4    # the learner's sigma0, as a fraction of each control saturation
QUAD_CRUISE_SPEED = NOMINAL_SPEED["quad"]   # m/s, the quad policies' forward command
# gains: the uav expert's rate per rad of bearing (yaw) and elevation (pitch)
# error; the quad expert's speed per m of carrot offset and yaw rate per rad of
# gate yaw error; the mask controller's command per frame width (height, for
# k_z) of centroid offset
UAV_K_YAW, UAV_K_PITCH = 2.0, 2.0
QUAD_K_Y, QUAD_K_Z, QUAD_K_YAW = 1.2, 1.2, 0.8
MASK_K_Y, MASK_K_Z, MASK_K_YAW = 0.4, 2.0, 2.5


@dataclass
class FullStateObs:
    """Everything an expert may use: time, vehicle state, gates, target index.

    state is the tuple of state_dim Python floats that the dynamics hand
    out: inside a rollout the one the last step returned."""

    t: float
    state: tuple
    gates: tuple
    target_index: int


@dataclass
class MaskObs:
    """What a vision policy sees: the binary mask and the past k controls."""

    mask: np.ndarray
    history: np.ndarray  # (k, control_dim), most recent last


class Policy:
    """evaluate(obs) -> control. Stateful policies re-seed in reset().

    Every policy here returns its control as a tuple of Python floats, one
    per control channel. A rollout turns whatever evaluate returns into such
    a tuple once per tick (float() of each entry, the bits of a float64 array
    of it), so a policy may also return an array or any other sequence of
    numbers."""

    platform = "any"
    observes = "full_state"

    def reset(self, rng: np.random.Generator | None = None) -> None:
        pass

    def evaluate(self, obs):
        raise NotImplementedError

    def train(self, records) -> None:
        pass


def _target_gate(obs: FullStateObs) -> Gate:
    return obs.gates[min(obs.target_index, len(obs.gates) - 1)]


def _aim_point(gate: Gate, t: float, position, speed: float):
    """Lead-predicted carrot point near the gate plane, as (aim, center, yaw,
    t_aim) with aim a tuple of three floats; position is any 3-sequence.

    The gate pose is predicted at the estimated arrival time (two fixed-point
    passes), which turns pursuit of a moving gate into a collision course.
    The carrot sits AIM_STANDOFF before the plane on the approach side and
    flips to the far side once the vehicle is inside the standoff, so the
    bearing never becomes singular at the hand-off.

    A static gate's frame does not depend on time, so it skips the passes:
    its aim, center and yaw are the same, and the returned time is t itself.
    Only the quad expert reads that time, and only for a moving gate.

    The lead distance and the side test n . (position - center) <
    -AIM_STANDOFF are geometry.dot's fixed-order sums on floats; the carrot
    center -+ AIM_STANDOFF * normal is elementwise.
    """
    t_go = 0.0
    if gate.moving:
        for _ in range(2):
            d = (gate.frame_at(t + t_go).center - position).tolist()
            t_go = math.sqrt(dot(d, d)) / speed
    frame, plane = gate.frame_plane_at(t + t_go)
    cx, cy, cz, nx, ny, nz = plane
    if plane_offset(plane, *position) < -AIM_STANDOFF:
        aim = (cx - AIM_STANDOFF * nx, cy - AIM_STANDOFF * ny, cz - AIM_STANDOFF * nz)
    else:
        aim = (cx + AIM_STANDOFF * nx, cy + AIM_STANDOFF * ny, cz + AIM_STANDOFF * nz)
    return aim, frame.center, frame.yaw, t + t_go


def gate_velocity(gate: Gate, t: float) -> np.ndarray:
    """Finite-difference center velocity of the pose schedule."""
    h = VELOCITY_STEP
    return (gate.pose_at(t + h)[0] - gate.pose_at(max(t - h, 0.0))[0]) / (
        t + h - max(t - h, 0.0)
    )


def expert_uav_control(obs: FullStateObs) -> tuple:
    """Proportional guidance to the carrot: rate commands from bearing errors."""
    gate = _target_gate(obs)
    x, y, z, psi, theta = obs.state
    (ax, ay, az), _, _, _ = _aim_point(gate, obs.t, (x, y, z), UavParams.speed)
    rx, ry, rz = ax - x, ay - y, az - z
    bearing = math.atan2(ry, rx)
    elevation = math.atan2(rz, math.hypot(rx, ry))
    u_psi = UAV_K_YAW * wrap_angle(bearing - psi)
    u_theta = UAV_K_PITCH * (elevation - theta)
    return (u_psi, u_theta)


def expert_quad_control(obs: FullStateObs) -> tuple:
    """Constant forward speed; lateral/vertical offsets of the carrot drive
    vy/vz (plus the known gate velocity as feedforward); yaw aligns with the
    gate normal."""
    gate = _target_gate(obs)
    state = obs.state
    x, y, z, psi = state[0], state[1], state[2], state[8]
    (ax, ay, az), _, gate_yaw, t_hit = _aim_point(gate, obs.t, (x, y, z), QUAD_CRUISE_SPEED)
    left = (-math.sin(psi), math.cos(psi), 0.0)
    ff = gate_velocity(gate, t_hit).tolist() if gate.moving else [0.0, 0.0, 0.0]
    vy = QUAD_K_Y * dot((ax - x, ay - y, az - z), left) + dot(ff, left)
    vz = QUAD_K_Z * (az - z) + ff[2]
    r = QUAD_K_YAW * wrap_angle(gate_yaw - psi)
    return (QUAD_CRUISE_SPEED, vy, vz, r)


class ExpertUavPolicy(Policy):
    platform = "uav"
    observes = "full_state"

    def evaluate(self, obs: FullStateObs) -> tuple:
        return expert_uav_control(obs)


class ExpertQuadPolicy(Policy):
    platform = "quad"
    observes = "full_state"

    def evaluate(self, obs: FullStateObs) -> tuple:
        return expert_quad_control(obs)


def expert_policy(platform: str) -> Policy:
    """The full-state expert of a platform; ValueError for an unknown one."""
    return {"uav": ExpertUavPolicy, "quad": ExpertQuadPolicy}[check_platform(platform)]()


# per-channel command saturations, for noise scaling: the steppers' clamp
# bounds, with the quad's command norm limit bounding each velocity channel
CONTROL_LIMITS = {
    "uav": np.array([UavParams.yaw_rate_max, UavParams.pitch_rate_max]),
    "quad": np.array([*[QuadParams.v_cmd_max] * 3, QuadParams.yaw_rate_max]),
}


class ZeroPolicy(Policy):
    """Always commands zero; a do-nothing baseline for sanity rows."""

    observes = "full_state"

    def __init__(self, platform: str):
        self.platform = platform
        self._dim = platform_dynamics(platform).control_dim

    def evaluate(self, obs) -> tuple:
        return (0.0,) * self._dim


# ---------------------------------------------------------------------------
# Classical mask-based control
# ---------------------------------------------------------------------------


def _mask_window(mask: np.ndarray, pad: int = 0):
    """(rows, cols) slices of the mask's bounding box grown by pad px and
    clipped to the frame; None for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not len(rows):
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    h, w = mask.shape
    return (
        slice(max(0, rows[0] - pad), min(h, rows[-1] + pad + 1)),
        slice(max(0, cols[0] - pad), min(w, cols[-1] + pad + 1)),
    )


def largest_component_centroid(mask: np.ndarray):
    """Centroid (x, y) px and area of the largest 4-connected white component.

    None for an empty mask; area ties go to the component labelled first in
    raster order.

    The mask is cut into runs: maximal stretches of set pixels in one row,
    found by one flatnonzero over a copy with a clear column after each row,
    so that no run wraps into the next row. One sweep in raster order joins
    each run to the runs of the row above whose columns overlap it; runs
    that touch only at a corner stay apart, which is 4-connectivity. In
    every union the smaller root wins, so a component's root is its first
    run in raster order, and the largest area with the smallest root is the
    component that scipy.ndimage.label numbers first among the largest.

    The centroid is the exact integer sum of the component's indices over
    its area, one rounded quotient: the bits of np.mean, whose float partial
    sums are integers below 2**53.

    Cost: O(pixels) numpy work plus O(runs) Python work, besides the
    union-find's finds, which path halving keeps short (at most four links
    on the recorded masks of a vision pass and on 640 x 480 speckle). The
    mask policies' ring masks have about 140 runs and take about 0.1 ms per
    call (ndimage.label on their bounding box: about 0.13 ms). Speckle is
    the worst case: about 4,800 runs and 2-3 ms on a 120 x 160 frame at
    density 0.5 (ndimage: about 0.5 ms), about 40 ms on 640 x 480 (ndimage:
    about 7 ms). No command makes such masks.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    stride = w + 1
    flat = np.zeros(h * stride + 1, dtype=np.int8)
    flat[1:].reshape(h, stride)[:, :w] = mask
    # changes of value alternate between the starts and the ends of runs,
    # as indices of the strided frame
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    if not len(edges):
        return None
    starts, ends = edges[0::2], edges[1::2]
    # the runs one row up that share a column with run k are lo[k]:hi[k]
    lo = np.searchsorted(ends, starts - stride, side="right").tolist()
    hi = np.searchsorted(starts, ends - stride).tolist()
    parent = list(range(len(lo)))
    for k, (j0, j1) in enumerate(zip(lo, hi)):
        root = k
        for j in range(j0, j1):
            while parent[j] != j:
                parent[j] = parent[parent[j]]   # path halving
                j = parent[j]
            if j < root:
                parent[root] = j
                root = j
            elif root < j:
                parent[j] = root
    # every parent precedes its child, so one pass in order finds each root
    for k, p in enumerate(parent):
        parent[k] = parent[p]
    roots = np.array(parent)
    lengths = ends - starts
    # integer-valued float sums, exact; argmax keeps the first, smallest root
    best = int(np.argmax(np.bincount(roots, weights=lengths)))
    mine = roots == best
    n = lengths[mine]
    y, x0 = np.divmod(starts[mine], stride)
    area = int(n.sum())
    # a run's columns sum to (2 x0 + n - 1) n / 2
    x = int(((2 * x0 + n - 1) * n).sum()) / (2 * area)
    return (x, int((y * n).sum()) / area), area


class MaskCentroidPolicy(Policy):
    """Steer toward the largest mask component's centroid.

    Offsets from the principal point map to lateral/vertical velocity and
    yaw rate (body frame, y-left, z-up: a target right of center means
    negative vy). Steering leans on the yaw channel: rotation re-centers the
    image without building lateral velocity, which matters in the last half
    meter where the ring outgrows the frame and the mask blinks out.

    With no component (hold-and-search): stop forward motion, hold the last
    sideways command and keep the last yaw rate so the camera sweeps until a
    gate reappears; the climb command is dropped because the final glimpse of
    a vanishing ring is a corner fragment whose vertical offset is garbage.
    """

    platform = "quad"
    observes = "mask"

    def __init__(self):
        self.reset()

    def reset(self, rng=None) -> None:
        self._hold = (0.0, 0.0)

    def evaluate(self, obs: MaskObs) -> tuple:
        found = largest_component_centroid(obs.mask)
        if found is None:
            vy, r = self._hold
            return (0.0, vy, 0.0, r)
        (ux, uy), _ = found
        camera = DEFAULT_CAMERA
        ex = (camera.cx - ux) / camera.width
        ey = (camera.cy - uy) / camera.height
        vy = MASK_K_Y * ex
        vz = MASK_K_Z * ey
        r = MASK_K_YAW * ex
        self._hold = (vy, r)
        return (QUAD_CRUISE_SPEED, vy, vz, r)


@dataclass(frozen=True)
class NoiseParams:
    """Perception-noise model: boundary flips plus spurious blobs."""

    flip_prob: float = 0.15     # per boundary-band pixel
    blob_rate: float = 1.5      # Poisson mean per frame
    blob_radius: int = 2        # px


PERCEPTION_NOISE = NoiseParams()   # the noise every noisy mask policy sees


def _boundary_band(mask: np.ndarray) -> np.ndarray:
    """Pixels whose 4-neighbourhood holds both set and clear pixels: the
    cross-structure dilation less the erosion, with zeros outside the array."""
    band = mask.copy()
    band[1:] |= mask[:-1]
    band[:-1] |= mask[1:]
    band[:, 1:] |= mask[:, :-1]
    band[:, :-1] |= mask[:, 1:]
    # the erosion; it is clear on the border, whose outer neighbours are zeros
    core = mask[1:-1, 1:-1] & mask[:-2, 1:-1]
    core &= mask[2:, 1:-1]
    core &= mask[1:-1, :-2]
    core &= mask[1:-1, 2:]
    band[1:-1, 1:-1] &= ~core
    return band


@functools.lru_cache(maxsize=8)
def _disk(r: int) -> np.ndarray:
    """Read-only (2r+1, 2r+1) disk of the pixels within r of the center."""
    ys, xs = np.ogrid[-r : r + 1, -r : r + 1]
    disk = ys * ys + xs * xs <= r * r
    disk.flags.writeable = False
    return disk


def _frame_rows(rng: np.random.Generator, shape, rows: slice) -> np.ndarray:
    """rng.random(shape)[rows] for a slice with a start and a stop, leaving
    rng in the state rng.random(shape) leaves it in.

    rng.random fills the frame in raster order, one 64-bit output per double,
    so a PCG64 stream skips the rows above and below the slice with advance()
    instead of drawing them. advance() clears the buffered 32-bit value that
    integer draws keep, which a full draw leaves alone, so it is put back.
    Any other bit generator draws the whole frame.
    """
    h, w = shape
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        return rng.random(shape)[rows]
    r0, r1 = int(rows.start), int(rows.stop)
    before = bits.state
    bits.advance(r0 * w)  # a Python int: advance() refuses numpy integers
    draws = rng.random((r1 - r0, w))
    bits.advance((h - r1) * w)
    after = bits.state
    after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
    bits.state = after
    return draws


def noisy_perception(mask: np.ndarray, params: NoiseParams, rng: np.random.Generator) -> np.ndarray:
    """Corrupt a mask: flip pixels in the 1 px boundary band with probability
    flip_prob and stamp Poisson-many small false blobs at uniform positions.

    The flips read one uniform per pixel of a full-frame draw, so the stream
    never depends on the mask, but only the rows of the band's window are
    drawn: _frame_rows advances a PCG64 stream past the others in raster
    order and leaves it exactly where the full draw would.
    """
    mask = np.asarray(mask, dtype=bool)
    out = mask.copy()
    if params.flip_prob > 0.0:
        # the band lies within 1 px of the mask, and the zeros around the
        # padded window stand in for the frame's zero border
        window = _mask_window(mask, pad=2)
        draws = _frame_rows(rng, mask.shape, window[0] if window is not None else slice(0, 0))
        if window is not None:
            out[window] ^= _boundary_band(mask[window]) & (draws[:, window[1]] < params.flip_prob)
    n_blobs = int(rng.poisson(params.blob_rate))
    h, w = mask.shape
    r = params.blob_radius
    disk = _disk(r)
    for _ in range(n_blobs):
        cy = int(rng.integers(0, h))
        cx = int(rng.integers(0, w))
        y0, y1 = max(0, cy - r), min(h, cy + r + 1)
        x0, x1 = max(0, cx - r), min(w, cx + r + 1)
        out[y0:y1, x0:x1] |= disk[r - (cy - y0) : r + (y1 - cy), r - (cx - x0) : r + (x1 - cx)]
    return out


class NoisyMaskPolicy(Policy):
    """A mask policy seen through imperfect perception; its noise generator
    is the one reset() is given, default_rng(0) until then or without one."""

    platform = "quad"
    observes = "mask"

    def __init__(self, inner: Policy):
        self.inner = inner
        self.reset()

    def reset(self, rng=None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.inner.reset()

    def evaluate(self, obs: MaskObs) -> tuple:
        noisy = noisy_perception(obs.mask, PERCEPTION_NOISE, self._rng)
        return self.inner.evaluate(MaskObs(noisy, obs.history))


# ---------------------------------------------------------------------------
# Synthetic learnable policy
# ---------------------------------------------------------------------------


class SyntheticLearner(Policy):
    """Expert plus per-grid noise that anneals with training data.

    The control error in layout-grid i has standard deviation
    sigma_i = sigma0 / sqrt(1 + n_i / n0), where n_i counts training records
    whose layout fell in grid i. train() only increments those counts, which
    is the whole point: data allocation, not gradient descent, is what the
    refinement loop is being tested on. sigma0 is SIGMA_SCALE (0.4) times each
    control channel's saturation on the expert's platform (CONTROL_LIMITS).
    The noise generator is the one reset() is given, default_rng(0) until
    then or without one.
    """

    observes = "full_state"

    def __init__(self, partition, expert: Policy, n0: float):
        self.partition = partition
        self.expert = expert
        self.platform = expert.platform
        self.sigma0 = SIGMA_SCALE * CONTROL_LIMITS[expert.platform]
        self.n0 = float(n0)
        self.counts = np.zeros(partition.m, dtype=np.int64)
        self.reset()
        self._gates = self._cell = None   # the last obs.gates and its layout cell
        # the last sigma and its (cell, count) key; keyed on the count rather
        # than cleared by train(), since counts may be written directly
        self._sigma_key = self._sigma = None

    def reset(self, rng=None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def sigma(self, cell: int) -> np.ndarray:
        return self.sigma0 / math.sqrt(1.0 + self.counts[cell] / self.n0)

    def evaluate(self, obs: FullStateObs) -> tuple:
        u = self.expert.evaluate(obs)
        # a rollout passes the same gates tuple on every tick
        if obs.gates is not self._gates:
            self._cell = self.partition.cell_of(layout_of_gates(obs.gates))
            self._gates = obs.gates
        key = (self._cell, self.counts[self._cell])
        if key != self._sigma_key:
            self._sigma_key, self._sigma = key, self.sigma(self._cell).tolist()
        # the bits and generator state of rng.normal(0.0, sigma) added to u,
        # drawn faster and summed per channel on floats
        z = self._rng.standard_normal(len(self._sigma)).tolist()
        return tuple([a + (0.0 + s * e) for a, s, e in zip(u, self._sigma, z)])

    def train(self, records) -> None:
        for rec in records:
            self.counts[self.partition.cell_of(rec.layout)] += 1


def layout_of_gates(gates) -> np.ndarray:
    """Flatten the first two gates' (center, yaw) at t=0 into an 8-vector."""
    vals = []
    for g in gates[:2]:
        c, yaw = g.pose_at(0.0)
        vals.extend([c[0], c[1], c[2], yaw])
    if len(gates) == 1:
        vals = vals * 2
    return np.asarray(vals, dtype=np.float64)
