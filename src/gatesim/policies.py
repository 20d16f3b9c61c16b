"""Controllers behind one policy interface.

Full-state experts for both platforms, the classical mask-centroid
controller, a perception-noise wrapper, and a synthetic learnable policy
whose error shrinks with per-grid training data (a stand-in for neural
policies, so the refinement loop can be exercised end to end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import wrap_angle
from .render import DEFAULT_CAMERA, PinholeCamera
from .tracks import Gate

AIM_STANDOFF = 1.0   # m before/behind the gate plane the experts steer for


@dataclass
class FullStateObs:
    """Everything an expert may use: time, vehicle state, gates, target index."""

    t: float
    state: np.ndarray
    gates: tuple
    target_index: int


@dataclass
class MaskObs:
    """What a vision policy sees: the binary mask and the past k controls."""

    mask: np.ndarray
    history: np.ndarray  # (k, control_dim), most recent last


class Policy:
    """evaluate(obs) -> control. Stateful policies re-seed in reset()."""

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


def _aim_point(gate: Gate, t: float, position: np.ndarray, speed: float):
    """Lead-predicted carrot point near the gate plane.

    The gate pose is predicted at the estimated arrival time (two fixed-point
    passes), which turns pursuit of a moving gate into a collision course.
    The carrot sits AIM_STANDOFF before the plane on the approach side and
    flips to the far side once the vehicle is inside the standoff, so the
    bearing never becomes singular at the hand-off.
    """
    t_go = 0.0
    for _ in range(2):
        d = gate.frame_at(t + t_go).center - position
        t_go = math.sqrt(d @ d) / speed   # np.linalg.norm's sum and root, without its overhead
    center, yaw, normal, _, _ = gate.frame_at(t + t_go)
    signed = float(normal @ (position - center))
    if signed < -AIM_STANDOFF:
        aim = center - AIM_STANDOFF * normal
    else:
        aim = center + AIM_STANDOFF * normal
    return aim, center, yaw, t + t_go


def gate_velocity(gate: Gate, t: float, h: float = 0.05) -> np.ndarray:
    """Finite-difference center velocity of the pose schedule."""
    return (gate.pose_at(t + h)[0] - gate.pose_at(max(t - h, 0.0))[0]) / (
        t + h - max(t - h, 0.0)
    )


def expert_uav_control(
    obs: FullStateObs, k_yaw: float = 2.0, k_pitch: float = 2.0
) -> np.ndarray:
    """Proportional guidance to the carrot: rate commands from bearing errors."""
    gate = _target_gate(obs)
    x, y, z, psi, theta = obs.state[:5].tolist()
    pos = np.array([x, y, z])
    aim, _, _, _ = _aim_point(gate, obs.t, pos, 7.0)
    rx, ry, rz = (aim - pos).tolist()
    bearing = math.atan2(ry, rx)
    elevation = math.atan2(rz, math.hypot(rx, ry))
    u_psi = k_yaw * wrap_angle(bearing - psi)
    u_theta = k_pitch * (elevation - theta)
    return np.array([u_psi, u_theta])


def expert_quad_control(
    obs: FullStateObs,
    k_y: float = 1.2,
    k_z: float = 1.2,
    k_yaw: float = 0.8,
    forward_speed: float = 1.0,
) -> np.ndarray:
    """Constant forward speed; lateral/vertical offsets of the carrot drive
    vy/vz (plus the known gate velocity as feedforward); yaw aligns with the
    gate normal."""
    gate = _target_gate(obs)
    pos = np.asarray(obs.state[:3], dtype=np.float64)
    psi = float(obs.state[8])
    aim, _, gate_yaw, t_hit = _aim_point(gate, obs.t, pos, forward_speed)
    rel = aim - pos
    left = np.array([-math.sin(psi), math.cos(psi), 0.0])
    ff = gate_velocity(gate, t_hit) if gate.moving else np.zeros(3)
    vy = k_y * float(rel @ left) + float(ff @ left)
    vz = k_z * float(rel[2]) + float(ff[2])
    r = k_yaw * wrap_angle(gate_yaw - psi)
    return np.array([forward_speed, vy, vz, r])


class ExpertUavPolicy(Policy):
    platform = "uav"
    observes = "full_state"

    def __init__(self, k_yaw: float = 2.0, k_pitch: float = 2.0):
        self.k_yaw = k_yaw
        self.k_pitch = k_pitch

    def evaluate(self, obs: FullStateObs) -> np.ndarray:
        return expert_uav_control(obs, self.k_yaw, self.k_pitch)


class ExpertQuadPolicy(Policy):
    platform = "quad"
    observes = "full_state"

    def __init__(self, k_y: float = 1.2, k_z: float = 1.2, k_yaw: float = 0.8):
        self.k_y = k_y
        self.k_z = k_z
        self.k_yaw = k_yaw

    def evaluate(self, obs: FullStateObs) -> np.ndarray:
        return expert_quad_control(obs, self.k_y, self.k_z, self.k_yaw)


def expert_policy(platform: str) -> Policy:
    return ExpertUavPolicy() if platform == "uav" else ExpertQuadPolicy()


# per-channel command saturations, used for noise scaling and as a reference
CONTROL_LIMITS = {
    "uav": np.array([1.5, 1.0]),
    "quad": np.array([2.0, 2.0, 2.0, 1.5]),
}


class ZeroPolicy(Policy):
    """Always commands zero; a do-nothing baseline for sanity rows."""

    observes = "full_state"

    def __init__(self, platform: str):
        self.platform = platform
        self._dim = len(CONTROL_LIMITS[platform])

    def evaluate(self, obs) -> np.ndarray:
        return np.zeros(self._dim)


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


# 4-connectivity for component labelling
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def largest_component_centroid(mask: np.ndarray):
    """Centroid (x, y) px and area of the largest 4-connected white component.

    None for an empty mask; area ties go to the component labeled first in
    raster order.
    """
    # imported on first use: the commands that fly no mask policy never load it
    from scipy import ndimage

    mask = np.asarray(mask, dtype=bool)
    window = _mask_window(mask)
    if window is None:
        return None
    # raster order inside the bounding box is the frame's raster order, so
    # labels and the tie-break carry over
    labels, count = ndimage.label(mask[window], structure=_CROSS)
    areas = np.bincount(labels.ravel())[1:]
    best = int(np.argmax(areas)) + 1
    ys, xs = np.nonzero(labels == best)
    ys += window[0].start
    xs += window[1].start
    return (float(xs.mean()), float(ys.mean())), int(areas[best - 1])


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

    def __init__(
        self,
        camera: PinholeCamera = DEFAULT_CAMERA,
        k_y: float = 0.4,
        k_z: float = 2.0,
        k_yaw: float = 2.5,
        forward_speed: float = 1.0,
    ):
        self.camera = camera
        self.k_y = k_y
        self.k_z = k_z
        self.k_yaw = k_yaw
        self.forward_speed = forward_speed
        self._hold = np.zeros(2)

    def reset(self, rng=None) -> None:
        self._hold = np.zeros(2)

    def evaluate(self, obs: MaskObs) -> np.ndarray:
        found = largest_component_centroid(obs.mask)
        if found is None:
            vy, r = self._hold
            return np.array([0.0, vy, 0.0, r])
        (ux, uy), _ = found
        ex = (self.camera.cx - ux) / self.camera.width
        ey = (self.camera.cy - uy) / self.camera.height
        vy = self.k_y * ex
        vz = self.k_z * ey
        r = self.k_yaw * ex
        self._hold = np.array([vy, r])
        return np.array([self.forward_speed, vy, vz, r])


@dataclass(frozen=True)
class NoiseParams:
    """Perception-noise model: boundary flips plus spurious blobs."""

    flip_prob: float = 0.15     # per boundary-band pixel
    blob_rate: float = 1.5      # Poisson mean per frame
    blob_radius: int = 2        # px


def _boundary_band(mask: np.ndarray) -> np.ndarray:
    """Pixels whose 4-neighbourhood holds both set and clear pixels: the
    cross-structure dilation less the erosion, with zeros outside the array."""
    padded = np.pad(mask, 1)
    up, down = padded[:-2, 1:-1], padded[2:, 1:-1]
    left, right = padded[1:-1, :-2], padded[1:-1, 2:]
    dilated = mask | up | down | left | right
    eroded = mask & up & down & left & right
    return dilated & ~eroded


def noisy_perception(mask: np.ndarray, params: NoiseParams, rng: np.random.Generator) -> np.ndarray:
    """Corrupt a mask: flip pixels in the 1 px boundary band with probability
    flip_prob and stamp Poisson-many small false blobs at uniform positions."""
    mask = np.asarray(mask, dtype=bool)
    out = mask.copy()
    if params.flip_prob > 0.0:
        draws = rng.random(mask.shape)  # full frame, so the stream never depends on the mask
        # the band lies within 1 px of the mask, and the zeros around the
        # padded window stand in for the frame's zero border
        window = _mask_window(mask, pad=2)
        if window is not None:
            out[window] ^= _boundary_band(mask[window]) & (draws[window] < params.flip_prob)
    n_blobs = int(rng.poisson(params.blob_rate))
    h, w = mask.shape
    for _ in range(n_blobs):
        cy = rng.integers(0, h)
        cx = rng.integers(0, w)
        r = params.blob_radius
        ys, xs = np.ogrid[-r : r + 1, -r : r + 1]
        disk = ys * ys + xs * xs <= r * r
        y0, y1 = max(0, cy - r), min(h, cy + r + 1)
        x0, x1 = max(0, cx - r), min(w, cx + r + 1)
        out[y0:y1, x0:x1] |= disk[r - (cy - y0) : r + (y1 - cy), r - (cx - x0) : r + (x1 - cx)]
    return out


class NoisyMaskPolicy(Policy):
    """A mask policy seen through imperfect perception; seeded per rollout."""

    platform = "quad"
    observes = "mask"

    def __init__(self, inner: Policy, params: NoiseParams | None = None, seed: int = 0):
        self.inner = inner
        self.params = params or NoiseParams()
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self, rng=None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(self.seed)
        self.inner.reset()

    def evaluate(self, obs: MaskObs) -> np.ndarray:
        noisy = noisy_perception(obs.mask, self.params, self._rng)
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
    refinement loop is being tested on. sigma0 defaults to 0.4x each control
    channel's saturation.
    """

    observes = "full_state"

    def __init__(self, partition, expert: Policy, control_limits, n0: float = 20.0,
                 sigma_scale: float = 0.4, seed: int = 0):
        self.partition = partition
        self.expert = expert
        self.platform = expert.platform
        self.sigma0 = sigma_scale * np.asarray(control_limits, dtype=np.float64)
        self.n0 = float(n0)
        self.counts = np.zeros(partition.m, dtype=np.int64)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._gates = self._cell = None   # the last obs.gates and its layout cell

    def reset(self, rng=None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(self.seed)

    def sigma(self, cell: int) -> np.ndarray:
        return self.sigma0 / math.sqrt(1.0 + self.counts[cell] / self.n0)

    def evaluate(self, obs: FullStateObs) -> np.ndarray:
        u = self.expert.evaluate(obs)
        # a rollout passes the same gates tuple on every tick
        if obs.gates is not self._gates:
            self._cell = self.partition.cell_of(layout_of_gates(obs.gates))
            self._gates = obs.gates
        return u + self._rng.normal(0.0, self.sigma(self._cell))

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
