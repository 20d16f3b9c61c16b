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
    def success_count(self) -> int:
        return sum(1 for g in self.gates if g.outcome == SUCCESS)

    @property
    def all_success(self) -> bool:
        return all(g.outcome == SUCCESS for g in self.gates)


def signed_gate_distance(gate: Gate, t: float, position) -> float:
    """n . (p - c) of the position (any 3-sequence) from the gate's plane at
    t, in geometry.dot's fixed order."""
    return float(plane_offset(gate.frame_plane_at(t)[1], *position))


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
    p_prime = p - dot(normal, p - center) * normal
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
    pos = pos + rng.uniform(-POS_JITTER, POS_JITTER, size=3)
    pos = np.clip(pos, track.arena.lo + 0.2, track.arena.hi - 0.2)
    return pos, yaw + rng.uniform(-YAW_JITTER, YAW_JITTER)


def vehicle_camera_pose(dynamics, state: np.ndarray):
    """Pose of the onboard camera: it pitches with a uav airframe and stays
    level on a quad."""
    pitch = float(state[4]) if dynamics.platform == "uav" else 0.0
    return camera_pose(dynamics.position(state), dynamics.yaw(state), pitch)


def _observe(policy, dynamics, track, t, state, target, history):
    if policy.observes == "mask":
        pose = vehicle_camera_pose(dynamics, state)
        mask = gate_mask(list(track.gates), DEFAULT_CAMERA, pose, t=t)
        return MaskObs(mask, history.copy())
    return FullStateObs(t, state.copy(), track.gates, target)


def rollout(
    policy,
    track: Track,
    config: SimConfig | None = None,
    rng: np.random.Generator | None = None,
    init_state: np.ndarray | None = None,
    observer=None,
) -> Rollout:
    """Run one episode; terminal on last-gate success, ring strike, arena
    exit, or timeout. A miss advances the target gate without terminating.
    The timeout is tested after each whole policy tick, so a rollout may run
    up to one tick period past it.

    observer(t, state, target, history, control), when given, is called once
    per policy tick with the history the policy was given and the control it
    returned; target is len(track.gates) after a missed last gate. The loop
    never mutates these arrays afterwards, and the observer must not either.

    The loop copies nothing per dynamics step: the steppers return fresh
    state arrays, and each tick's control is copied once from what the policy
    returned, so the recorded trajectory can share them. The stepper reads
    Python floats: the tick's control as one list, and each state as the one
    list taken from it after the step, whose position also serves the arena
    test and the gate side (geometry.plane_offset on the target's
    frame_plane_at floats); position arrays are built only to resolve a
    crossing.
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
        pos, yaw = track.initial_pose()
        state = dynamics.initial_state(pos, yaw)
    else:
        state = np.asarray(init_state, dtype=np.float64).copy()
        if state.shape != (dynamics.state_dim,):
            raise ValueError(
                f"init_state for a {track.platform!r} track must have shape "
                f"({dynamics.state_dim},), got {state.shape}"
            )
    policy.reset(rng if rng is not None else np.random.default_rng(0))

    gates = track.gates
    (xl, xh), (yl, yh), (zl, zh) = track.arena.bounds
    n_gates = len(gates)
    records = [GateRecord(i, outcome=TIMEOUT) for i in range(n_gates)]
    # only mask policies and observers read the history
    keep_history = observer is not None or policy.observes == "mask"
    history = np.zeros((HISTORY_LEN, dynamics.control_dim))
    record = config.record_trajectory
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
    floats = state.tolist()

    while terminal is None:
        obs = _observe(policy, dynamics, track, t, state, target, history)
        control = np.array(policy.evaluate(obs), dtype=np.float64)
        if observer is not None:
            observer(t, state, target, history, control)
        if keep_history:
            history = np.concatenate((history[1:], control[None]))
        u = control.tolist()

        for _ in range(n_steps):
            prev, state = state, dynamics.step(floats, u, dt)
            t_new = t + dt
            floats = state.tolist()
            x, y, z = floats[0], floats[1], floats[2]

            if target < n_gates:
                d1 = plane_offset(gates[target].frame_plane_at(t_new)[1], x, y, z)
                # the same transition can cross several coincident gate planes
                while d0 < 0.0 <= d1:
                    p0, p1 = dynamics.position(prev), dynamics.position(state)
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
                    d0 = signed_gate_distance(gates[target], t, p0)
                    d1 = signed_gate_distance(gates[target], t_new, p1)
                d0 = d1

            t = t_new
            if record:
                times.append(t)
                states.append(state)
                controls.append(control)
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
    out = io.StringIO()
    out.write(",".join(["t", *cols] + [f"u{i}" for i in range(n_u)]) + "\n")
    for i, t in enumerate(roll.times):
        row = [repr(float(t))] + [repr(float(v)) for v in roll.states[i]]
        if i > 0 and len(roll.controls):
            row += [repr(float(v)) for v in roll.controls[i - 1]]
        elif n_u:
            row += [""] * n_u
        out.write(",".join(row) + "\n")
    return out.getvalue()


def events_csv(rollouts) -> str:
    out = io.StringIO()
    out.write("rollout,gate_idx,outcome,t_cross,error\n")
    for ri, roll in enumerate(rollouts):
        for g in roll.gates:
            t_c = repr(float(g.t_cross)) if g.t_cross is not None else ""
            err = repr(float(g.error)) if g.error is not None else ""
            out.write(f"{ri},{g.index},{g.outcome},{t_c},{err}\n")
    return out.getvalue()
