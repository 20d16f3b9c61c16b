"""Closed-loop rollouts: dynamics + observation + policy + crossing scoring.

A rollout holds the control constant between policy ticks (zero-order hold),
integrates the platform dynamics at its fixed dt, and checks every dynamics
transition for a crossing of the current target gate's plane. Success rate
and mean gate error summarize batches of rollouts.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import platform_dynamics
from .geometry import dot, plane_offset
from .policies import FullStateObs, MaskObs
from .render import DEFAULT_CAMERA, camera_pose, gate_mask
from .tracks import Gate, Track

SUCCESS = "success"
FRAME_COLLISION = "frame_collision"
MISS = "miss"
TIMEOUT = "timeout"
ARENA_EXIT = "arena_exit"

HISTORY_LEN = 4

POS_JITTER = 0.3   # m, per axis, of a trial's start position
YAW_JITTER = 0.1   # rad, of a trial's start yaw


@dataclass(frozen=True)
class SimConfig:
    """Loop timing and recording; a None timeout picks the track's own."""

    tick_hz: float = 50.0
    timeout: float | None = None
    record_trajectory: bool = True

    def __post_init__(self):
        # a NaN timeout never fires and a negative one ends the first tick;
        # a zero or NaN tick rate cannot be turned into steps per tick
        if not (math.isfinite(self.tick_hz) and self.tick_hz > 0.0):
            raise ValueError(f"tick_hz must be finite and > 0, got {self.tick_hz!r}")
        if self.timeout is not None and not (math.isfinite(self.timeout) and self.timeout > 0.0):
            raise ValueError(f"timeout must be None or finite and > 0, got {self.timeout!r}")

    def resolve_dt(self, dynamics) -> float:
        """The rollout's step: the platform's own dt."""
        return dynamics.params.dt


def steps_per_tick(tick_hz: float, dt: float) -> int:
    """Dynamics steps of dt in one policy tick at tick_hz; ValueError naming
    tick_hz unless the tick period is a whole number (>= 1) of steps."""
    if not tick_hz > 0.0:
        raise ValueError(f"tick_hz must be > 0, got {tick_hz!r}")
    period = 1.0 / tick_hz
    # an infinite rate's period is 0 steps; a subnormal rate's overflows to inf
    steps = round(period / dt) if period < math.inf else 0
    if steps < 1 or abs(steps * dt - period) > 1e-9:
        raise ValueError(f"tick_hz {tick_hz!r} gives a tick period that is not a whole "
                         f"number of {dt} s dynamics steps")
    return steps


@dataclass
class GateRecord:
    index: int
    outcome: str
    crossed: bool = False
    t_cross: float | None = None
    point: np.ndarray | None = None
    error: float | None = None


@dataclass
class Rollout:
    platform: str
    track_name: str
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    gates: list
    terminal: str
    duration: float

    @property
    def all_success(self) -> bool:
        return all(g.outcome == SUCCESS for g in self.gates)


def signed_gate_distance(gate: Gate, t: float, position) -> float:
    """n . (p - c) of the position (any 3-sequence) from the gate's plane at
    t, in geometry.dot's fixed order."""
    center, _, normal, _, _ = gate.frame_at(t)
    return float(plane_offset((*center, *normal), *position))


def detect_crossing(gate: Gate, t0: float, p0: np.ndarray, t1: float, p1: np.ndarray):
    """Negative-to-positive plane transit between two states, or None.

    Returns (t_cross, p_prime, error): the interpolated crossing time, the
    crossing point projected exactly onto the gate plane (evaluated at
    t_cross for moving gates, refined by bisection), and the in-plane
    distance to the gate center. Transits against the normal are ignored.
    """
    d0 = signed_gate_distance(gate, t0, p0)
    d1 = signed_gate_distance(gate, t1, p1)
    if not (d0 < 0.0 <= d1):
        return None
    if gate.moving:
        lo, hi = 0.0, 1.0
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            pm = p0 + mid * (p1 - p0)
            if signed_gate_distance(gate, t0 + mid * (t1 - t0), pm) < 0.0:
                lo = mid
            else:
                hi = mid
        s = 0.5 * (lo + hi)
    else:
        s = d0 / (d0 - d1)
    t_cross = t0 + s * (t1 - t0)
    p = p0 + s * (p1 - p0)
    center, _, normal, lateral, up = gate.frame_at(t_cross)
    p_prime = p - dot(normal, p - center) * np.array(normal)
    q = p_prime - center
    error = math.hypot(dot(q, lateral), dot(q, up))
    return t_cross, p_prime, error


def classify_crossing(error: float, gate: Gate, vehicle_half_width: float) -> str:
    """Scalar-error taxonomy: clean pass, ring strike, or flew past outside."""
    if error <= gate.success_threshold(vehicle_half_width):
        return SUCCESS
    if error <= gate.collision_bound(vehicle_half_width):
        return FRAME_COLLISION
    return MISS


def jittered_initial_pose(track: Track, rng: np.random.Generator):
    """The track's start pose with bounded position/yaw perturbation."""
    pos, yaw = track.initial_pose()
    pos = np.asarray(pos) + rng.uniform(-POS_JITTER, POS_JITTER, size=3)
    pos = np.clip(pos, track.arena.lo + 0.2, track.arena.hi - 0.2)
    return pos, yaw + rng.uniform(-YAW_JITTER, YAW_JITTER)


def vehicle_camera_pose(dynamics, state: tuple):
    """Pose of the onboard camera at a state tuple: it pitches with a uav
    airframe and stays level on a quad."""
    pitch = state[4] if dynamics.platform == "uav" else 0.0
    return camera_pose(dynamics.position(state), dynamics.yaw(state), pitch)


def _static_plane(gate: Gate):
    """A static gate's (cx, cy, cz, nx, ny, nz) floats, read once per target;
    None for a moving gate, whose plane is read at each step's time."""
    if gate.moving:
        return None
    center, _, normal, _, _ = gate.frame_at(0.0)
    return (*center, *normal)


def rollout(
    policy,
    track: Track,
    config: SimConfig | None = None,
    rng: np.random.Generator | None = None,
    init_state=None,
    observer=None,
) -> Rollout:
    """Run one episode; terminal on last-gate success, ring strike, arena
    exit, or timeout. A miss advances the target gate without terminating.
    The timeout is tested after each whole policy tick, so a rollout may run
    up to one tick period past it.

    The policy's control, whatever sequence of numbers evaluate returns, is
    turned once per tick into a tuple of Python floats (float() of each
    entry: the bits of np.array(control, dtype=np.float64), so float32 or
    integer entries are widened before any step reads them). That one tuple
    is what the steps take, what the recorded controls and the mask history
    hold, and what the observer is given.

    observer(t, state, target, history, control), when given, is called once
    per policy tick with the state tuple, the history the policy was given
    and that control tuple; target is len(track.gates) after a missed last
    gate. The loop never mutates the history array afterwards, and the
    observer must not either.

    The state is a tuple of Python floats throughout: the track's start pose
    through dynamics.initial_state, or init_state (any sequence of
    state_dim numbers) made one tuple once. Each step takes the tuple the
    step before returned, with the tick's control tuple, and the recorded
    trajectory appends both tuples. A full-state policy is given the state
    tuple as FullStateObs.state, a mask policy's camera pose and the
    observer read it, and it is immutable, so none needs a copy. The new
    position serves the arena test and the gate side (geometry.plane_offset
    on the target's center and normal floats, read once per target for a
    static gate and at each step for a moving one). Arrays are built only
    where they are read: the mask history, the two positions at a crossing,
    and Rollout.states and Rollout.controls at the end.
    """
    if policy.platform not in ("any", track.platform):
        raise ValueError(
            f"policy for {policy.platform!r} cannot fly a {track.platform!r} track"
        )
    config = config or SimConfig()
    dynamics = platform_dynamics(track.platform)
    dt = dynamics.params.dt
    n_steps = steps_per_tick(config.tick_hz, dt)
    timeout = config.timeout if config.timeout is not None else track.timeout()

    if init_state is None:
        state = dynamics.initial_state(*track.initial_pose())
    else:
        state = np.asarray(init_state, dtype=np.float64)
        if state.shape != (dynamics.state_dim,):
            raise ValueError(
                f"init_state for a {track.platform!r} track must have shape "
                f"({dynamics.state_dim},), got {state.shape}"
            )
        state = tuple(state.tolist())
    policy.reset(rng if rng is not None else np.random.default_rng(0))

    gates = track.gates
    (xl, xh), (yl, yh), (zl, zh) = track.arena.bounds
    n_gates = len(gates)
    records = [GateRecord(i, outcome=TIMEOUT) for i in range(n_gates)]
    sees_mask = policy.observes == "mask"
    # only mask policies and observers read the history
    keep_history = observer is not None or sees_mask
    history = np.zeros((HISTORY_LEN, dynamics.control_dim))
    record = config.record_trajectory
    step = dynamics.step
    times = [0.0]
    states = [state]
    controls = []
    t = 0.0
    target = 0
    terminal = None
    # signed distance of the position to the target's plane: one step's end
    # distance is the next step's start distance, so each step computes one,
    # and detect_crossing runs only on a sign change it will confirm
    d0 = signed_gate_distance(gates[0], t, state[:3])
    plane = _static_plane(gates[0])

    while terminal is None:
        if sees_mask:
            pose = vehicle_camera_pose(dynamics, state)
            obs = MaskObs(gate_mask(gates, DEFAULT_CAMERA, pose, t=t), history.copy())
        else:
            obs = FullStateObs(t, state, gates, target)
        u = tuple(map(float, policy.evaluate(obs)))
        if observer is not None:
            observer(t, state, target, history, u)
        if keep_history:
            history = np.concatenate((history[1:], [u]))

        for _ in range(n_steps):
            prev, state = state, step(state, u, dt)
            t_new = t + dt
            x, y, z = state[0], state[1], state[2]

            if target < n_gates:
                d1 = (plane_offset(plane, x, y, z) if plane
                      else signed_gate_distance(gates[target], t_new, (x, y, z)))
                # the same transition can cross several coincident gate planes
                while d0 < 0.0 <= d1:
                    p0, p1 = np.array(prev[:3]), np.array(state[:3])
                    t_cross, p_prime, error = detect_crossing(gates[target], t, p0, t_new, p1)
                    outcome = classify_crossing(error, gates[target], track.vehicle_half_width)
                    records[target] = GateRecord(target, outcome, True, t_cross, p_prime, error)
                    if outcome == FRAME_COLLISION:
                        terminal = FRAME_COLLISION
                        break
                    target += 1
                    if target == n_gates:
                        if outcome == SUCCESS:
                            terminal = SUCCESS
                        break
                    plane = _static_plane(gates[target])
                    d0 = signed_gate_distance(gates[target], t, p0)
                    d1 = signed_gate_distance(gates[target], t_new, p1)
                d0 = d1

            t = t_new
            if record:
                times.append(t)
                states.append(state)
                controls.append(u)
            # Arena.contains on the same floats: inside the closed box, and
            # False for a NaN coordinate
            if terminal is None and not (xl <= x <= xh and yl <= y <= yh and zl <= z <= zh):
                terminal = ARENA_EXIT
            if terminal is not None:
                break
        if terminal is None and t >= timeout - 1e-12:
            terminal = TIMEOUT

    for rec in records:
        if not rec.crossed:
            rec.outcome = terminal if terminal in (ARENA_EXIT, TIMEOUT) else TIMEOUT
    return Rollout(
        platform=track.platform,
        track_name=track.name,
        times=np.asarray(times),
        states=np.asarray(states),
        controls=np.asarray(controls) if controls else np.zeros((0, dynamics.control_dim)),
        gates=records,
        terminal=terminal,
        duration=t,
    )


def metrics(rollouts) -> dict:
    """SR over all gates; MGE over successful crossings only (None if SR=0)."""
    rollouts = list(rollouts)
    if not rollouts:
        raise ValueError("metrics needs at least one rollout")
    total = sum(len(r.gates) for r in rollouts)
    errors = [g.error for r in rollouts for g in r.gates if g.outcome == SUCCESS]
    sr = len(errors) / total
    mge = float(np.mean(errors)) if errors else None
    return {"sr": sr, "mge": mge, "gates": total, "successes": len(errors)}


# ---------------------------------------------------------------------------
# Deterministic text outputs
# ---------------------------------------------------------------------------


def trajectory_csv(roll: Rollout) -> str:
    cols = platform_dynamics(roll.platform).state_columns
    n_u = roll.controls.shape[1] if len(roll.controls) else 0
    lines = [",".join(["t", *cols] + [f"u{i}" for i in range(n_u)])]
    # tolist() yields Python floats, whose repr is that of float(np.float64)
    controls, blank = roll.controls.tolist(), [""] * n_u
    for i, (t, state) in enumerate(zip(roll.times.tolist(), roll.states.tolist())):
        u = map(repr, controls[i - 1]) if i > 0 and controls else blank
        lines.append(",".join([repr(t), *map(repr, state), *u]))
    return "\n".join(lines) + "\n"


def events_csv(rollouts) -> str:
    out = io.StringIO()
    out.write("rollout,gate_idx,outcome,t_cross,error\n")
    for ri, roll in enumerate(rollouts):
        for g in roll.gates:
            t_c = repr(float(g.t_cross)) if g.t_cross is not None else ""
            err = repr(float(g.error)) if g.error is not None else ""
            out.write(f"{ri},{g.index},{g.outcome},{t_c},{err}\n")
    return out.getvalue()
