"""Gates, tracks and arenas.

A track is an ordered list of gates inside an arena, flown by one platform.
Gate poses follow piecewise-linear keyframe schedules (static gates have a
single keyframe), so moving-gate tracks use the same machinery. All gates are
upright rings: yaw orients the crossing normal in the horizontal plane.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dynamics import UavParams, check_platform
from .geometry import dot, wrap_angle
from .scene import GaussianScene

SQUARE = "square"
CIRCULAR = "circular"

# opening half-extent / ring depth / vehicle half-width, per platform
GATE_GEOMETRY = {
    "uav": dict(shape=SQUARE, inner_half=1.0, ring=0.20, vehicle_half_width=0.20),
    "quad": dict(shape=CIRCULAR, inner_half=0.39, ring=0.10, vehicle_half_width=0.09),
}

# m/s: the uav's airspeed, and the forward command of the quad policies
NOMINAL_SPEED = {"uav": UavParams.speed, "quad": 1.0}
INIT_STANDOFF = {"uav": 6.0, "quad": 1.5}


@dataclass(frozen=True)
class Arena:
    """Axis-aligned flight volume; leaving it terminates an episode."""

    name: str
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        # bounds: ((xlo, xhi), (ylo, yhi), (zlo, zhi)) as Python floats, so a
        # containment test is six comparisons
        lo, hi = (np.asarray(b, dtype=np.float64).tolist() for b in (self.lo, self.hi))
        object.__setattr__(self, "bounds", tuple(zip(lo, hi)))

    def contains(self, p) -> bool:
        """Inside the closed box; False for a NaN coordinate."""
        x, y, z = np.asarray(p, dtype=np.float64).tolist()
        (xl, xh), (yl, yh), (zl, zh) = self.bounds
        return xl <= x <= xh and yl <= y <= yh and zl <= z <= zh


ARENAS = {
    "uav": Arena("uav", np.array([-20.0, -10.0, 0.0]), np.array([20.0, 10.0, 4.0])),
    "quad": Arena("quad", np.array([-3.0, -3.0, 0.0]), np.array([3.0, 3.0, 3.0])),
}


def gate_axes(yaw: float) -> tuple[tuple, tuple, tuple]:
    """(normal, lateral, up) unit axes of an upright gate at a given yaw, each
    a tuple of three floats."""
    c, s = math.cos(yaw), math.sin(yaw)
    return (c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0)


class GateFrame(NamedTuple):
    """A gate's pose at one time: center, yaw, and the (normal, lateral, up)
    axes of gate_axes(yaw); every vector a tuple of three Python floats."""

    center: tuple
    yaw: float
    normal: tuple
    lateral: tuple
    up: tuple


def _clip(p: float, lo: float, hi: float) -> float:
    """np.clip(p, lo, hi) on floats: a tie with a bound gives the bound (so
    -0.0 against a bound of 0.0 gives 0.0) and a NaN p stays NaN."""
    p = lo if p <= lo else p
    return hi if p >= hi else p


def _keyframe(t, center, yaw) -> tuple:
    """(time, center, yaw) as Python floats, the center a tuple of three."""
    x, y, z = center
    return float(t), (float(x), float(y), float(z)), float(yaw)


@dataclass(frozen=True)
class Gate:
    """One ring gate with a piecewise-linear pose schedule.

    keyframes: tuple of (time, center(3,), yaw), strictly increasing times,
    stored as Python floats (the center a tuple of three). The pose is
    linearly interpolated (yaw along the shortest arc) and clamped to the
    first/last keyframe outside the schedule. A static gate computes its
    frame once.
    """

    shape: str
    inner_half: float
    ring: float
    keyframes: tuple
    _static_frame = None   # not a field: a static gate's one frame, set once

    def __post_init__(self):
        if self.shape not in (SQUARE, CIRCULAR):
            raise ValueError(f"unknown gate shape: {self.shape!r}")
        if self.inner_half <= 0 or self.ring <= 0:
            raise ValueError("gate opening and ring depth must be > 0")
        if not self.keyframes:
            raise ValueError("gate needs at least one keyframe")
        object.__setattr__(self, "keyframes", tuple(_keyframe(*k) for k in self.keyframes))
        times = [k[0] for k in self.keyframes]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("keyframe times must be strictly increasing")
        if not self.moving:
            object.__setattr__(self, "_static_frame", self.frame_at(0.0))

    @staticmethod
    def static(shape, inner_half, ring, center, yaw) -> "Gate":
        return Gate(shape, inner_half, ring, ((0.0, center, yaw),))

    @property
    def outer_half(self) -> float:
        return self.inner_half + self.ring

    @property
    def moving(self) -> bool:
        return len(self.keyframes) > 1

    def frame_at(self, t: float) -> GateFrame:
        """The pose at t with its axes; a static gate's one frame at every t."""
        if self._static_frame is not None:
            return self._static_frame
        kf = self.keyframes
        if t <= kf[0][0]:
            _, center, yaw = kf[0]
        elif t >= kf[-1][0]:
            _, center, yaw = kf[-1]
        else:
            for (t0, c0, y0), (t1, c1, y1) in zip(kf, kf[1:]):
                if t <= t1:
                    break
            s = (t - t0) / (t1 - t0)
            center = tuple([(1 - s) * a + s * b for a, b in zip(c0, c1)])
            yaw = wrap_angle(y0 + s * wrap_angle(y1 - y0))
        return GateFrame(center, yaw, *gate_axes(yaw))

    def success_threshold(self, vehicle_half_width: float) -> float:
        """Largest center error still clearing the opening."""
        return self.inner_half - vehicle_half_width

    def collision_bound(self, vehicle_half_width: float) -> float:
        """Largest center error that still strikes the ring solid."""
        return self.outer_half + vehicle_half_width


@dataclass(frozen=True)
class Track:
    name: str
    platform: str
    gates: tuple
    arena: Arena

    def __post_init__(self):
        check_platform(self.platform)
        if not self.gates:
            raise ValueError("track needs at least one gate")

    @property
    def vehicle_half_width(self) -> float:
        return GATE_GEOMETRY[self.platform]["vehicle_half_width"]

    @property
    def nominal_speed(self) -> float:
        return NOMINAL_SPEED[self.platform]

    def initial_pose(self) -> tuple[tuple, float]:
        """Start pose: on gate 1's approach axis, facing it, inside the arena,
        as the position's three floats and the yaw.

        center - INIT_STANDOFF * normal of gate 1 at t = 0, clamped to 0.5 m
        inside the arena, on the frame's floats: the bits of
        np.clip(center - k * normal, lo + 0.5, hi - 0.5)."""
        (cx, cy, cz), yaw, (nx, ny, nz), _, _ = self.gates[0].frame_at(0.0)
        k = INIT_STANDOFF[self.platform]
        (xl, xh), (yl, yh), (zl, zh) = self.arena.bounds
        pos = (_clip(cx - k * nx, xl + 0.5, xh - 0.5),
               _clip(cy - k * ny, yl + 0.5, yh - 0.5),
               _clip(cz - k * nz, zl + 0.5, zh - 0.5))
        return pos, yaw

    def timeout(self) -> float:
        """3x the straight-line gate-to-gate time at nominal speed, min 4 s."""
        (px, py, pz), _ = self.initial_pose()
        t = 0.0
        for g in self.gates:
            cx, cy, cz = g.frame_at(0.0).center
            d = (cx - px, cy - py, cz - pz)
            t += math.sqrt(dot(d, d)) / self.nominal_speed
            px, py, pz = cx, cy, cz
        return max(4.0, 3.0 * t)


def perturb_track(track: Track, amplitude_cm: float, rng: np.random.Generator) -> Track:
    """Shift every gate by an independent uniform [-a, a]^3 cm offset.

    Yaw and schedules are preserved; moving gates get one offset applied to
    all keyframes.
    """
    a = amplitude_cm / 100.0
    gates = []
    for g in track.gates:
        delta = rng.uniform(-a, a, size=3)
        kf = tuple((t, np.asarray(c, float) + delta, y) for t, c, y in g.keyframes)
        gates.append(replace(g, keyframes=kf))
    return replace(track, gates=tuple(gates))


def track_from_layout(layout, platform: str) -> Track:
    """Build a static two-gate track from an 8-vector.

    layout = [x1, y1, z1, yaw1, x2, y2, z2, yaw2] in the platform arena.
    """
    v = np.asarray(layout, dtype=np.float64).reshape(8).tolist()
    geo = GATE_GEOMETRY[platform]
    gates = tuple(Gate.static(geo["shape"], geo["inner_half"], geo["ring"], v[i : i + 3], v[i + 3])
                  for i in (0, 4))
    return Track("layout", platform, gates, ARENAS[platform])


# ---------------------------------------------------------------------------
# Serialization and the bundled reference tracks
# ---------------------------------------------------------------------------


def track_to_dict(track: Track) -> dict:
    return {
        "name": track.name,
        "platform": track.platform,
        "arena": track.arena.name,
        "gates": [
            {
                "shape": g.shape,
                "inner_half": g.inner_half,
                "ring": g.ring,
                "keyframes": [
                    {"t": t, "center": list(c), "yaw": y}
                    for t, c, y in g.keyframes
                ],
            }
            for g in track.gates
        ],
    }


def _field(obj, key: str, where: str = ""):
    """obj[key] from a parsed JSON object; ValueError naming where in the
    file the object sits when it is not an object or has no such key."""
    prefix = f"{where}: " if where else ""
    if not isinstance(obj, dict):
        raise ValueError(f"{prefix}expected an object, got {obj!r}")
    if key not in obj:
        raise ValueError(f'{prefix}missing "{key}"')
    return obj[key]


def _keyframe_from_dict(i: int, j: int, k: dict) -> tuple:
    where = f"gates[{i}].keyframes[{j}]"
    t, yaw = float(_field(k, "t", where)), float(_field(k, "yaw", where))
    center = np.asarray(_field(k, "center", where), dtype=np.float64)
    if center.shape != (3,) or not np.all(np.isfinite(center)):
        raise ValueError(f"gates[{i}]: center must be 3 finite numbers, got {k['center']!r}")
    if not (math.isfinite(t) and math.isfinite(yaw)):
        raise ValueError(f"gates[{i}]: keyframe time and yaw must be finite, got t={t}, yaw={yaw}")
    return t, center, yaw


def track_from_dict(d: dict) -> Track:
    """The inverse of track_to_dict. ValueError for an unknown platform or
    arena, a gate whose geometry is not its platform's GATE_GEOMETRY, or a
    non-finite or malformed keyframe, or a missing key."""
    for what, known in (("platform", GATE_GEOMETRY), ("arena", ARENAS)):
        if _field(d, what) not in known:
            raise ValueError(f"unknown {what} {d[what]!r}; accepted: {', '.join(sorted(known))}")
    platform = d["platform"]
    geo = GATE_GEOMETRY[platform]
    gates = []
    for i, g in enumerate(_field(d, "gates")):
        where = f"gates[{i}]"
        shape = _field(g, "shape", where)
        inner_half, ring = float(_field(g, "inner_half", where)), float(_field(g, "ring", where))
        if (shape, inner_half, ring) != (geo["shape"], geo["inner_half"], geo["ring"]):
            raise ValueError(
                f"gates[{i}]: {platform} gates are {geo['shape']} with inner_half "
                f"{geo['inner_half']} and ring {geo['ring']}, got {shape} with inner_half "
                f"{inner_half} and ring {ring}"
            )
        keyframes = tuple(_keyframe_from_dict(i, j, k)
                          for j, k in enumerate(_field(g, "keyframes", where)))
        gates.append(Gate(shape, inner_half, ring, keyframes))
    return Track(_field(d, "name"), platform, tuple(gates), ARENAS[d["arena"]])


def load_track(path) -> Track:
    try:
        return track_from_dict(json.loads(Path(path).read_text()))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_track(path, track: Track) -> None:
    Path(path).write_text(json.dumps(track_to_dict(track), indent=2, sort_keys=True) + "\n")


def _track_dir():
    return resources.files("gatesim") / "data" / "tracks"


def reference_track_names() -> list[str]:
    return sorted(p.name[:-5] for p in _track_dir().iterdir() if p.name.endswith(".json"))


def reference_track(name: str) -> Track:
    path = _track_dir() / f"{name}.json"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise KeyError(f"no reference track named {name!r}; have {reference_track_names()}") from None
    return track_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Splat synthesis: renderable stand-ins for gates
# ---------------------------------------------------------------------------


GATE_SPLAT_OPACITY = 0.97


def gate_splats(gate: Gate, t: float = 0.0, color=(1.0, 1.0, 1.0)) -> GaussianScene:
    """Tile the ring solid of a gate with small isotropic splats.

    The splat sheet lives in the gate plane at a spacing of a third of the
    ring depth, which keeps neighboring splats overlapping at 3 sigma.
    """
    spacing = gate.ring / 3.0
    frame = gate.frame_at(t)
    center, lateral, up = (np.array(v) for v in (frame.center, frame.lateral, frame.up))

    r = gate.outer_half
    n_side = max(3, int(math.ceil(2 * r / spacing)) + 1)
    grid = np.linspace(-r, r, n_side)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    a = aa.ravel()
    b = bb.ravel()
    if gate.shape == SQUARE:
        d = np.maximum(np.abs(a), np.abs(b))
    else:
        d = np.hypot(a, b)
    keep = (d >= gate.inner_half) & (d <= gate.outer_half)
    a, b = a[keep], b[keep]

    means = center[None, :] + a[:, None] * lateral[None, :] + b[:, None] * up[None, :]
    n = len(means)
    sigma = spacing / 2.0
    rots = np.zeros((n, 4))
    rots[:, 0] = 1.0
    return GaussianScene(
        means,
        rots,
        np.full((n, 3), sigma),
        np.tile(np.asarray(color, dtype=np.float64), (n, 1)),
        np.full(n, GATE_SPLAT_OPACITY),
    )


def track_splats(track: Track, t: float = 0.0) -> GaussianScene:
    """All gates of a track as one renderable scene, tagged gate_1, gate_2, ..."""
    palette = [(0.9, 0.25, 0.2), (0.2, 0.55, 0.9), (0.95, 0.75, 0.2), (0.4, 0.85, 0.4)]
    out = GaussianScene.empty()
    for i, g in enumerate(track.gates):
        out = out.append(gate_splats(g, t=t, color=palette[i % len(palette)]), f"gate_{i + 1}")
    return out
