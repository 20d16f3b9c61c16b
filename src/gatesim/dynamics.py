"""Vehicle dynamics: a kinematic fixed-wing model and a 12-state quadrotor.

Both platforms sit behind the same stepping interface (state vector in,
control vector in, fixed-dt RK4 step out) so the simulator can swap them, or
any future platform, without changes. Steppers are pure and deterministic:
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import wrap_angle

GRAVITY = 9.81


def _floats(arr, what: str) -> list:
    """arr as a list of Python floats; ValueError naming what if any is
    NaN or infinite."""
    values = np.asarray(arr, dtype=np.float64).tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite {what}: {np.asarray(arr).tolist()}")
    return values


@dataclass(frozen=True)
class UavParams:
    """Fixed-wing rate-command model limits; airspeed is constant."""

    speed: float = 7.0            # m/s
    theta_max: float = 0.4        # rad, pitch clamp
    yaw_rate_max: float = 1.5     # rad/s
    pitch_rate_max: float = 1.0   # rad/s
    dt: float = 0.02              # s


class UavDynamics:
    """Constant-speed aircraft with saturated yaw-rate / pitch-rate commands.

    State: [x, y, z, yaw, pitch]. Control: [yaw_rate, pitch_rate].
    Kinematics: dx = V cos(yaw) cos(pitch), dy = V sin(yaw) cos(pitch),
    dz = V sin(pitch); the rate commands drive yaw and pitch directly. Pitch
    pins at +-theta_max (outward rate zeroed inside the derivative, then a
    hard clamp after the step); yaw wraps to (-pi, pi].
    """

    platform = "uav"
    state_dim = 5
    control_dim = 2

    def __init__(self, params: UavParams | None = None):
        self.params = params or UavParams()

    def initial_state(self, position, yaw: float, pitch: float = 0.0) -> np.ndarray:
        p = np.asarray(position, dtype=np.float64)
        return np.array([p[0], p[1], p[2], wrap_angle(yaw), pitch])

    def position(self, state: np.ndarray) -> np.ndarray:
        return state[:3]

    def yaw(self, state: np.ndarray) -> float:
        return float(state[3])

    def velocity(self, state: np.ndarray) -> np.ndarray:
        v, psi, th = self.params.speed, state[3], state[4]
        return np.array(
            [v * math.cos(psi) * math.cos(th), v * math.sin(psi) * math.cos(th), v * math.sin(th)]
        )

    def clamp_control(self, control) -> tuple[float, float]:
        p = self.params
        u_psi = min(max(float(control[0]), -p.yaw_rate_max), p.yaw_rate_max)
        u_th = min(max(float(control[1]), -p.pitch_rate_max), p.pitch_rate_max)
        return u_psi, u_th

    def _deriv(self, x, y, z, psi, th, u_psi, u_th):
        p = self.params
        if (th >= p.theta_max and u_th > 0.0) or (th <= -p.theta_max and u_th < 0.0):
            u_th = 0.0
        v = p.speed
        cth = math.cos(th)
        return (
            v * math.cos(psi) * cth,
            v * math.sin(psi) * cth,
            v * math.sin(th),
            u_psi,
            u_th,
        )

    def step(self, state: np.ndarray, control, dt: float | None = None) -> np.ndarray:
        dt = self.params.dt if dt is None else dt
        if not 0.0 < dt <= 0.1:
            raise ValueError(f"uav dt must be in (0, 0.1], got {dt}")
        x, y, z, psi, th = _floats(state, "uav state")
        u_psi, u_th = self.clamp_control(_floats(control, "uav control"))

        k1 = self._deriv(x, y, z, psi, th, u_psi, u_th)
        h = dt / 2.0
        k2 = self._deriv(x + h * k1[0], y + h * k1[1], z + h * k1[2],
                         psi + h * k1[3], th + h * k1[4], u_psi, u_th)
        k3 = self._deriv(x + h * k2[0], y + h * k2[1], z + h * k2[2],
                         psi + h * k2[3], th + h * k2[4], u_psi, u_th)
        k4 = self._deriv(x + dt * k3[0], y + dt * k3[1], z + dt * k3[2],
                         psi + dt * k3[3], th + dt * k3[4], u_psi, u_th)
        w = dt / 6.0
        p = self.params
        th_new = th + w * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4])
        return np.array(
            [
                x + w * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                y + w * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
                z + w * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
                wrap_angle(psi + w * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])),
                min(max(th_new, -p.theta_max), p.theta_max),
            ]
        )


@dataclass(frozen=True)
class QuadParams:
    """Quadrotor inner-loop constants for the velocity/yaw-rate interface."""

    tau_v: float = 0.3        # s, velocity loop time constant
    tau_att: float = 0.08     # s, attitude/yaw-rate loop time constant
    tilt_max: float = 0.5     # rad, commanded roll/pitch clamp
    v_cmd_max: float = 2.0    # m/s, command norm limit
    yaw_rate_max: float = 1.5  # rad/s
    dt: float = 0.01          # s


class QuadDynamics:
    """12-state quadrotor tracking body-frame velocity and yaw-rate commands.

    State: [x, y, z, vx, vy, vz, roll, pitch, yaw, p, q, r] with world
    z-up, body x-forward / y-left, and euler roll-pitch-yaw attitude. The
    built-in inner loop makes world-frame velocity converge to the yaw-rotated
    command as a first-order system with time constant tau_v; roll and pitch
    carry the (clamped) small-angle tilt implied by the commanded
    acceleration, and body rates converge to the euler-rate map. Hover with a
    zero command is an exact equilibrium.
    """

    platform = "quad"
    state_dim = 12
    control_dim = 4

    def __init__(self, params: QuadParams | None = None):
        self.params = params or QuadParams()

    def initial_state(self, position, yaw: float) -> np.ndarray:
        s = np.zeros(12)
        s[:3] = np.asarray(position, dtype=np.float64)
        s[8] = wrap_angle(yaw)
        return s

    def position(self, state: np.ndarray) -> np.ndarray:
        return state[:3]

    def yaw(self, state: np.ndarray) -> float:
        return float(state[8])

    def velocity(self, state: np.ndarray) -> np.ndarray:
        return state[3:6]

    def clamp_control(self, control):
        p = self.params
        vx, vy, vz, r = (float(v) for v in control)
        norm = math.sqrt(vx * vx + vy * vy + vz * vz)
        if norm > p.v_cmd_max:
            k = p.v_cmd_max / norm
            vx, vy, vz = vx * k, vy * k, vz * k
        return vx, vy, vz, min(max(r, -p.yaw_rate_max), p.yaw_rate_max)

    def _deriv(self, s, vx_c, vy_c, vz_c, r_cmd):
        p = self.params
        vx, vy, vz = s[3], s[4], s[5]
        roll, pitch, yaw = s[6], s[7], s[8]
        pb, qb, rb = s[9], s[10], s[11]
        cy, sy = math.cos(yaw), math.sin(yaw)

        # yaw-rotated command and first-order velocity convergence
        ax = (cy * vx_c - sy * vy_c - vx) / p.tau_v
        ay = (sy * vx_c + cy * vy_c - vy) / p.tau_v
        az = (vz_c - vz) / p.tau_v

        # small-angle tilt carrying the horizontal acceleration
        tilt = p.tilt_max
        pitch_des = min(max((ax * cy + ay * sy) / GRAVITY, -tilt), tilt)
        roll_des = min(max((ax * sy - ay * cy) / GRAVITY, -tilt), tilt)
        droll = (roll_des - roll) / p.tau_att
        dpitch = (pitch_des - pitch) / p.tau_att
        dyaw = rb

        # euler-rate map targets for the body-rate states
        sr, cr = math.sin(roll), math.cos(roll)
        sp, cp = math.sin(pitch), math.cos(pitch)
        p_t = droll - dyaw * sp
        q_t = dpitch * cr + dyaw * cp * sr
        r_t = dyaw * cp * cr - dpitch * sr

        return (
            vx, vy, vz,
            ax, ay, az,
            droll, dpitch, dyaw,
            (p_t - pb) / p.tau_att,
            (q_t - qb) / p.tau_att,
            (r_cmd - rb) / p.tau_att,
        )

    def step(self, state: np.ndarray, control, dt: float | None = None) -> np.ndarray:
        dt = self.params.dt if dt is None else dt
        if not 0.0 < dt <= 0.05:
            raise ValueError(f"quad dt must be in (0, 0.05], got {dt}")
        s = tuple(_floats(state, "quad state"))
        vx_c, vy_c, vz_c, r_cmd = self.clamp_control(_floats(control, "quad control"))

        def add(a, k, h):
            return tuple(ai + h * ki for ai, ki in zip(a, k))

        k1 = self._deriv(s, vx_c, vy_c, vz_c, r_cmd)
        k2 = self._deriv(add(s, k1, dt / 2.0), vx_c, vy_c, vz_c, r_cmd)
        k3 = self._deriv(add(s, k2, dt / 2.0), vx_c, vy_c, vz_c, r_cmd)
        k4 = self._deriv(add(s, k3, dt), vx_c, vy_c, vz_c, r_cmd)
        out = np.array(
            [
                si + dt / 6.0 * (a + 2 * b + 2 * c + d)
                for si, a, b, c, d in zip(s, k1, k2, k3, k4)
            ]
        )
        out[8] = wrap_angle(out[8])
        return out


def platform_dynamics(platform: str, params=None):
    """Dynamics factory keyed by platform name."""
    if platform == "uav":
        return UavDynamics(params)
    if platform == "quad":
        return QuadDynamics(params)
    raise ValueError(f"unknown platform: {platform!r}")
