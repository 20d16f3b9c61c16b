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

    def step(self, state: np.ndarray, control, dt: float | None = None) -> np.ndarray:
        """One RK4 step, its four stages inline on floats. The rates read only
        yaw and pitch, so the stage positions are never formed; the pitch
        rate is zeroed while it pushes past the pin."""
        p = self.params
        dt = p.dt if dt is None else dt
        if not 0.0 < dt <= 0.1:
            raise ValueError(f"uav dt must be in (0, 0.1], got {dt}")
        x, y, z, psi, th = _floats(state, "uav state")
        u_psi, u_th = self.clamp_control(_floats(control, "uav control"))
        v, th_max = p.speed, p.theta_max
        h = dt / 2.0

        cth = math.cos(th)
        x1, y1, z1 = v * math.cos(psi) * cth, v * math.sin(psi) * cth, v * math.sin(th)
        t1 = 0.0 if (th >= th_max and u_th > 0.0) or (th <= -th_max and u_th < 0.0) else u_th
        # the yaw rate is constant, so stages 2 and 3 share their yaw
        psi2, th2 = psi + h * u_psi, th + h * t1
        cpsi, spsi = math.cos(psi2), math.sin(psi2)
        cth = math.cos(th2)
        x2, y2, z2 = v * cpsi * cth, v * spsi * cth, v * math.sin(th2)
        t2 = 0.0 if (th2 >= th_max and u_th > 0.0) or (th2 <= -th_max and u_th < 0.0) else u_th
        th3 = th + h * t2
        cth = math.cos(th3)
        x3, y3, z3 = v * cpsi * cth, v * spsi * cth, v * math.sin(th3)
        t3 = 0.0 if (th3 >= th_max and u_th > 0.0) or (th3 <= -th_max and u_th < 0.0) else u_th
        psi4, th4 = psi + dt * u_psi, th + dt * t3
        cth = math.cos(th4)
        x4, y4, z4 = v * math.cos(psi4) * cth, v * math.sin(psi4) * cth, v * math.sin(th4)
        t4 = 0.0 if (th4 >= th_max and u_th > 0.0) or (th4 <= -th_max and u_th < 0.0) else u_th

        w = dt / 6.0
        th_new = th + w * (t1 + 2 * t2 + 2 * t3 + t4)
        return np.array(
            [
                x + w * (x1 + 2 * x2 + 2 * x3 + x4),
                y + w * (y1 + 2 * y2 + 2 * y3 + y4),
                z + w * (z1 + 2 * z2 + 2 * z3 + z4),
                wrap_angle(psi + w * (u_psi + 2 * u_psi + 2 * u_psi + u_psi)),
                min(max(th_new, -th_max), th_max),
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

    def step(self, state: np.ndarray, control, dt: float | None = None) -> np.ndarray:
        """One RK4 step, its four stages inline on floats (suffix i: stage
        i). The rates read no position, so a stage's position rate is its
        velocity.

        Each stage's rates: the yaw-rotated command with first-order
        velocity convergence, the small-angle tilt carrying the horizontal
        acceleration, the yaw rate as the body rate r, and body rates that
        converge to the euler-rate map's targets.
        """
        p = self.params
        dt = p.dt if dt is None else dt
        if not 0.0 < dt <= 0.05:
            raise ValueError(f"quad dt must be in (0, 0.05], got {dt}")
        x1, y1, z1, vx1, vy1, vz1, roll1, pitch1, yaw1, pb1, qb1, rb1 = _floats(
            state, "quad state")
        vx_c, vy_c, vz_c, r_cmd = self.clamp_control(_floats(control, "quad control"))
        tau_v, tau_att, tilt = p.tau_v, p.tau_att, p.tilt_max
        h = dt / 2.0

        cy, sy = math.cos(yaw1), math.sin(yaw1)
        ax1 = (cy * vx_c - sy * vy_c - vx1) / tau_v
        ay1 = (sy * vx_c + cy * vy_c - vy1) / tau_v
        az1 = (vz_c - vz1) / tau_v
        pitch_des = min(max((ax1 * cy + ay1 * sy) / GRAVITY, -tilt), tilt)
        roll_des = min(max((ax1 * sy - ay1 * cy) / GRAVITY, -tilt), tilt)
        dr1 = (roll_des - roll1) / tau_att
        dp1 = (pitch_des - pitch1) / tau_att
        sr, cr = math.sin(roll1), math.cos(roll1)
        sp, cp = math.sin(pitch1), math.cos(pitch1)
        dpb1 = (dr1 - rb1 * sp - pb1) / tau_att
        dqb1 = (dp1 * cr + rb1 * cp * sr - qb1) / tau_att
        drb1 = (r_cmd - rb1) / tau_att

        # stage 2: the state plus dt/2 times stage 1's rates
        vx2, vy2, vz2 = vx1 + h * ax1, vy1 + h * ay1, vz1 + h * az1
        roll2, pitch2, yaw2 = roll1 + h * dr1, pitch1 + h * dp1, yaw1 + h * rb1
        pb2, qb2, rb2 = pb1 + h * dpb1, qb1 + h * dqb1, rb1 + h * drb1
        cy, sy = math.cos(yaw2), math.sin(yaw2)
        ax2 = (cy * vx_c - sy * vy_c - vx2) / tau_v
        ay2 = (sy * vx_c + cy * vy_c - vy2) / tau_v
        az2 = (vz_c - vz2) / tau_v
        pitch_des = min(max((ax2 * cy + ay2 * sy) / GRAVITY, -tilt), tilt)
        roll_des = min(max((ax2 * sy - ay2 * cy) / GRAVITY, -tilt), tilt)
        dr2 = (roll_des - roll2) / tau_att
        dp2 = (pitch_des - pitch2) / tau_att
        sr, cr = math.sin(roll2), math.cos(roll2)
        sp, cp = math.sin(pitch2), math.cos(pitch2)
        dpb2 = (dr2 - rb2 * sp - pb2) / tau_att
        dqb2 = (dp2 * cr + rb2 * cp * sr - qb2) / tau_att
        drb2 = (r_cmd - rb2) / tau_att

        # stage 3: the state plus dt/2 times stage 2's rates
        vx3, vy3, vz3 = vx1 + h * ax2, vy1 + h * ay2, vz1 + h * az2
        roll3, pitch3, yaw3 = roll1 + h * dr2, pitch1 + h * dp2, yaw1 + h * rb2
        pb3, qb3, rb3 = pb1 + h * dpb2, qb1 + h * dqb2, rb1 + h * drb2
        cy, sy = math.cos(yaw3), math.sin(yaw3)
        ax3 = (cy * vx_c - sy * vy_c - vx3) / tau_v
        ay3 = (sy * vx_c + cy * vy_c - vy3) / tau_v
        az3 = (vz_c - vz3) / tau_v
        pitch_des = min(max((ax3 * cy + ay3 * sy) / GRAVITY, -tilt), tilt)
        roll_des = min(max((ax3 * sy - ay3 * cy) / GRAVITY, -tilt), tilt)
        dr3 = (roll_des - roll3) / tau_att
        dp3 = (pitch_des - pitch3) / tau_att
        sr, cr = math.sin(roll3), math.cos(roll3)
        sp, cp = math.sin(pitch3), math.cos(pitch3)
        dpb3 = (dr3 - rb3 * sp - pb3) / tau_att
        dqb3 = (dp3 * cr + rb3 * cp * sr - qb3) / tau_att
        drb3 = (r_cmd - rb3) / tau_att

        # stage 4: the state plus dt times stage 3's rates
        vx4, vy4, vz4 = vx1 + dt * ax3, vy1 + dt * ay3, vz1 + dt * az3
        roll4, pitch4, yaw4 = roll1 + dt * dr3, pitch1 + dt * dp3, yaw1 + dt * rb3
        pb4, qb4, rb4 = pb1 + dt * dpb3, qb1 + dt * dqb3, rb1 + dt * drb3
        cy, sy = math.cos(yaw4), math.sin(yaw4)
        ax4 = (cy * vx_c - sy * vy_c - vx4) / tau_v
        ay4 = (sy * vx_c + cy * vy_c - vy4) / tau_v
        az4 = (vz_c - vz4) / tau_v
        pitch_des = min(max((ax4 * cy + ay4 * sy) / GRAVITY, -tilt), tilt)
        roll_des = min(max((ax4 * sy - ay4 * cy) / GRAVITY, -tilt), tilt)
        dr4 = (roll_des - roll4) / tau_att
        dp4 = (pitch_des - pitch4) / tau_att
        sr, cr = math.sin(roll4), math.cos(roll4)
        sp, cp = math.sin(pitch4), math.cos(pitch4)
        dpb4 = (dr4 - rb4 * sp - pb4) / tau_att
        dqb4 = (dp4 * cr + rb4 * cp * sr - qb4) / tau_att
        drb4 = (r_cmd - rb4) / tau_att

        w = dt / 6.0
        return np.array(
            [
                x1 + w * (vx1 + 2 * vx2 + 2 * vx3 + vx4),
                y1 + w * (vy1 + 2 * vy2 + 2 * vy3 + vy4),
                z1 + w * (vz1 + 2 * vz2 + 2 * vz3 + vz4),
                vx1 + w * (ax1 + 2 * ax2 + 2 * ax3 + ax4),
                vy1 + w * (ay1 + 2 * ay2 + 2 * ay3 + ay4),
                vz1 + w * (az1 + 2 * az2 + 2 * az3 + az4),
                roll1 + w * (dr1 + 2 * dr2 + 2 * dr3 + dr4),
                pitch1 + w * (dp1 + 2 * dp2 + 2 * dp3 + dp4),
                wrap_angle(yaw1 + w * (rb1 + 2 * rb2 + 2 * rb3 + rb4)),
                pb1 + w * (dpb1 + 2 * dpb2 + 2 * dpb3 + dpb4),
                qb1 + w * (dqb1 + 2 * dqb2 + 2 * dqb3 + dqb4),
                rb1 + w * (drb1 + 2 * drb2 + 2 * drb3 + drb4),
            ]
        )


def platform_dynamics(platform: str, params=None):
    """Dynamics factory keyed by platform name."""
    if platform == "uav":
        return UavDynamics(params)
    if platform == "quad":
        return QuadDynamics(params)
    raise ValueError(f"unknown platform: {platform!r}")
