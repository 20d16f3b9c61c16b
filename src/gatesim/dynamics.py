"""Vehicle dynamics: a kinematic fixed-wing model and a 12-state quadrotor.

Both platforms sit behind the same stepping interface so the simulator can
swap them, or any future platform, without changes. A state is a tuple of
state_dim Python floats everywhere: initial_state returns one, and step
takes one with a tuple of control_dim Python floats and a dt and returns
the next, which the step after reads as it is. Steppers are pure and
deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from math import cos, isfinite, sin

from .geometry import wrap_angle

GRAVITY = 9.81


def _non_finite(what: str, values) -> ValueError:
    """The refusal of a state or control tuple holding NaN or inf."""
    return ValueError(f"non-finite {what}: {list(values)}")


class UavParams:
    """Fixed-wing rate-command model constants; airspeed is constant. Read as
    UavParams.<name> or dyn.params.<name>; nothing sets them."""

    speed = 7.0            # m/s
    theta_max = 0.4        # rad, pitch clamp
    yaw_rate_max = 1.5     # rad/s
    pitch_rate_max = 1.0   # rad/s
    dt = 0.02              # s


# the constants the uav step reads, read from UavParams once
_SPEED, _THETA_MAX = UavParams.speed, UavParams.theta_max
_YAW_RATE_MAX, _PITCH_RATE_MAX = UavParams.yaw_rate_max, UavParams.pitch_rate_max


class UavDynamics:
    """Constant-speed aircraft with saturated yaw-rate / pitch-rate commands.

    State: [x, y, z, yaw, pitch]. Control: [yaw_rate, pitch_rate].
    Kinematics: dx = V cos(yaw) cos(pitch), dy = V sin(yaw) cos(pitch),
    dz = V sin(pitch); the rate commands drive yaw and pitch directly. Pitch
    pins at +-theta_max (outward rate zeroed inside the derivative, then a
    hard clamp after the step); yaw wraps to (-pi, pi].
    """

    platform = "uav"
    state_columns = ("x", "y", "z", "yaw", "pitch")
    state_dim = len(state_columns)
    control_dim = 2
    params = UavParams

    def initial_state(self, position, yaw: float) -> tuple:
        """Level flight at position (any 3-sequence of numbers) with the
        wrapped yaw, as a tuple of five Python floats."""
        x, y, z = map(float, position)
        return (x, y, z, wrap_angle(yaw), 0.0)

    def position(self, state: tuple) -> tuple:
        return state[:3]

    def yaw(self, state: tuple) -> float:
        return state[3]

    def step(self, state: tuple, control: tuple, dt: float) -> tuple:
        """One RK4 step, its four stages inline on Python floats, whose
        arithmetic is cheaper than that of numpy scalars and has the same
        bits; state and control are tuples of floats, and the next state is
        returned as a tuple of five floats.

        Each clamp is two comparisons, which give the value min(max(x, -b), b)
        gives, -0.0 included: the yaw and pitch rates to +-yaw_rate_max and
        +-pitch_rate_max, and the new pitch to +-theta_max. The rates read
        only yaw and pitch, so the stage positions are never formed; the
        pitch rate is zeroed while it pushes past the pin. When stage 2 has
        stage 1's pin state, its pitch rate is stage 1's float, so stage 3
        moves pitch as stage 2 did and is stage 2."""
        if not 0.0 < dt <= 0.1:
            raise ValueError(f"uav dt must be in (0, 0.1], got {dt}")
        x, y, z, psi, th = state
        u_psi, u_th = control
        if not (isfinite(x) and isfinite(y) and isfinite(z) and isfinite(psi)
                and isfinite(th)):
            raise _non_finite("uav state", state)
        if not (isfinite(u_psi) and isfinite(u_th)):
            raise _non_finite("uav control", control)
        ym, pm, th_max, v = _YAW_RATE_MAX, _PITCH_RATE_MAX, _THETA_MAX, _SPEED
        u_psi = -ym if u_psi < -ym else (ym if u_psi > ym else u_psi)
        u_th = -pm if u_th < -pm else (pm if u_th > pm else u_th)
        up, down = u_th > 0.0, u_th < 0.0
        h = dt / 2.0

        cth = cos(th)
        x1, y1, z1 = v * cos(psi) * cth, v * sin(psi) * cth, v * sin(th)
        pin1 = (th >= th_max and up) or (th <= -th_max and down)
        t1 = 0.0 if pin1 else u_th
        # the yaw rate is constant, so stages 2 and 3 share their yaw
        psi2, th2 = psi + h * u_psi, th + h * t1
        cpsi, spsi = cos(psi2), sin(psi2)
        cth = cos(th2)
        x2, y2, z2 = v * cpsi * cth, v * spsi * cth, v * sin(th2)
        pin2 = (th2 >= th_max and up) or (th2 <= -th_max and down)
        t2 = 0.0 if pin2 else u_th
        if pin2 == pin1:
            x3, y3, z3, t3 = x2, y2, z2, t2
        else:
            th3 = th + h * t2
            cth = cos(th3)
            x3, y3, z3 = v * cpsi * cth, v * spsi * cth, v * sin(th3)
            t3 = 0.0 if (th3 >= th_max and up) or (th3 <= -th_max and down) else u_th
        psi4, th4 = psi + dt * u_psi, th + dt * t3
        cth = cos(th4)
        x4, y4, z4 = v * cos(psi4) * cth, v * sin(psi4) * cth, v * sin(th4)
        t4 = 0.0 if (th4 >= th_max and up) or (th4 <= -th_max and down) else u_th

        w = dt / 6.0
        th_new = th + w * (t1 + 2 * t2 + 2 * t3 + t4)
        return (
            x + w * (x1 + 2 * x2 + 2 * x3 + x4),
            y + w * (y1 + 2 * y2 + 2 * y3 + y4),
            z + w * (z1 + 2 * z2 + 2 * z3 + z4),
            wrap_angle(psi + w * (u_psi + 2 * u_psi + 2 * u_psi + u_psi)),
            -th_max if th_new < -th_max else (th_max if th_new > th_max else th_new),
        )


class QuadParams:
    """Quadrotor inner-loop constants for the velocity/yaw-rate interface.
    Read as QuadParams.<name> or dyn.params.<name>; nothing sets them."""

    tau_v = 0.3            # s, velocity loop time constant
    tau_att = 0.08         # s, attitude/yaw-rate loop time constant
    tilt_max = 0.5         # rad, commanded roll/pitch clamp
    v_cmd_max = 2.0        # m/s, command norm limit
    yaw_rate_max = 1.5     # rad/s
    dt = 0.01              # s


# the constants the quad step reads, read from QuadParams once
_TAU_V, _TAU_ATT, _TILT_MAX = QuadParams.tau_v, QuadParams.tau_att, QuadParams.tilt_max
_V_CMD_MAX, _QUAD_YAW_RATE_MAX = QuadParams.v_cmd_max, QuadParams.yaw_rate_max


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
    state_columns = ("x", "y", "z", "vx", "vy", "vz", "roll", "pitch", "yaw", "p", "q", "r")
    state_dim = len(state_columns)
    control_dim = 4
    params = QuadParams

    def initial_state(self, position, yaw: float) -> tuple:
        """Hover at position (any 3-sequence of numbers) with the wrapped yaw,
        as a tuple of twelve Python floats."""
        x, y, z = map(float, position)
        return (x, y, z, 0.0, 0.0, 0.0, 0.0, 0.0, wrap_angle(yaw), 0.0, 0.0, 0.0)

    def position(self, state: tuple) -> tuple:
        return state[:3]

    def yaw(self, state: tuple) -> float:
        return state[8]

    @staticmethod
    def _rates(s, k, h, vx_c, vy_c, vz_c, r_cmd) -> tuple:
        """The rates of all 12 entries at one RK4 stage, whose other nine
        entries are s = [vx, vy, vz, roll, pitch, yaw, p, q, r] moved by h
        along the rates k of the stage before (s itself when k is None).

        The position rate is the stage velocity; then come the yaw-rotated
        command with first-order velocity convergence, the small-angle tilt
        carrying the horizontal acceleration, the yaw rate as the body rate
        r, and body rates that converge to the euler-rate map's targets."""
        vx, vy, vz, roll, pitch, yaw, pb, qb, rb = s
        if k is not None:
            _, _, _, kvx, kvy, kvz, kroll, kpitch, kyaw, kp, kq, kr = k
            vx, vy, vz = vx + h * kvx, vy + h * kvy, vz + h * kvz
            roll, pitch, yaw = roll + h * kroll, pitch + h * kpitch, yaw + h * kyaw
            pb, qb, rb = pb + h * kp, qb + h * kq, rb + h * kr
        tau_v, tau_att, tilt = _TAU_V, _TAU_ATT, _TILT_MAX
        cy, sy = cos(yaw), sin(yaw)
        ax = (cy * vx_c - sy * vy_c - vx) / tau_v
        ay = (sy * vx_c + cy * vy_c - vy) / tau_v
        az = (vz_c - vz) / tau_v
        pitch_des = (ax * cy + ay * sy) / GRAVITY
        pitch_des = -tilt if pitch_des < -tilt else (tilt if pitch_des > tilt else pitch_des)
        roll_des = (ax * sy - ay * cy) / GRAVITY
        roll_des = -tilt if roll_des < -tilt else (tilt if roll_des > tilt else roll_des)
        droll = (roll_des - roll) / tau_att
        dpitch = (pitch_des - pitch) / tau_att
        sr, cr = sin(roll), cos(roll)
        sp, cp = sin(pitch), cos(pitch)
        return (vx, vy, vz, ax, ay, az, droll, dpitch, rb,
                (droll - rb * sp - pb) / tau_att,
                (dpitch * cr + rb * cp * sr - qb) / tau_att,
                (r_cmd - rb) / tau_att)

    def step(self, state: tuple, control: tuple, dt: float) -> tuple:
        """One RK4 step on Python floats: state and control are tuples of
        floats, and the next state is returned as a tuple of twelve floats.
        The command's velocity is scaled to norm v_cmd_max when it is longer
        and its yaw rate clamped to +-yaw_rate_max. The rates read no
        position, so each stage moves only the other nine entries."""
        if not 0.0 < dt <= 0.05:
            raise ValueError(f"quad dt must be in (0, 0.05], got {dt}")
        if not all(map(isfinite, state)):
            raise _non_finite("quad state", state)
        if not all(map(isfinite, control)):
            raise _non_finite("quad control", control)
        _, _, _, *s = state
        vx_c, vy_c, vz_c, r_c = control
        norm = math.sqrt(vx_c * vx_c + vy_c * vy_c + vz_c * vz_c)
        if norm > _V_CMD_MAX:
            k = _V_CMD_MAX / norm
            vx_c, vy_c, vz_c = vx_c * k, vy_c * k, vz_c * k
        ym = _QUAD_YAW_RATE_MAX
        r_c = -ym if r_c < -ym else (ym if r_c > ym else r_c)
        rates = self._rates
        h = dt / 2.0
        k1 = rates(s, None, h, vx_c, vy_c, vz_c, r_c)
        k2 = rates(s, k1, h, vx_c, vy_c, vz_c, r_c)
        k3 = rates(s, k2, h, vx_c, vy_c, vz_c, r_c)
        k4 = rates(s, k3, dt, vx_c, vy_c, vz_c, r_c)
        w = dt / 6.0
        out = [a + w * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(state, k1, k2, k3, k4)]
        out[8] = wrap_angle(out[8])
        return tuple(out)


PLATFORMS = {"uav": UavDynamics, "quad": QuadDynamics}


def check_platform(platform: str) -> str:
    """platform itself; ValueError naming the accepted platforms unless it is one."""
    if platform not in PLATFORMS:
        raise ValueError(f"unknown platform {platform!r}; "
                         f"accepted: {', '.join(sorted(PLATFORMS))}")
    return platform


def platform_dynamics(platform: str):
    """Dynamics factory keyed by platform name."""
    return PLATFORMS[check_platform(platform)]()
