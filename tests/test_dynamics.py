"""Vehicle dynamics against closed-form trajectories and response oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatesim.dynamics import (
    GRAVITY,
    QuadDynamics,
    QuadParams,
    UavDynamics,
    UavParams,
    platform_dynamics,
)
from gatesim.geometry import wrap_angle


def _run(dyn, state, control, duration, dt):
    n = int(round(duration / dt))
    for _ in range(n):
        state = dyn.step(state, control, dt)
    return state


def test_uav_straight_line():
    dyn = UavDynamics()
    s = dyn.initial_state((0.0, 0.0, 2.0), yaw=0.0)
    s = dyn.step(s, (0.0, 0.0), dt=0.1)
    np.testing.assert_allclose(s[:3], [0.7, 0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(s[3:], [0.0, 0.0], atol=1e-12)


def test_uav_analytic_circle():
    # constant yaw rate 0.5 at V=7: radius 14 m circle from the origin
    dyn = UavDynamics()
    v, omega = 7.0, 0.5
    s = dyn.initial_state((0.0, 0.0, 2.0), yaw=0.0)
    t, dt = 0.0, 0.02
    worst = 0.0
    for _ in range(int(2.0 / dt)):
        s = dyn.step(s, (omega, 0.0), dt)
        t += dt
        expect = np.array([v / omega * math.sin(omega * t),
                           v / omega * (1.0 - math.cos(omega * t)), 2.0])
        worst = max(worst, float(np.linalg.norm(s[:3] - expect)))
    assert worst < 1e-3


def test_uav_speed_exact(rng):
    dyn = UavDynamics()
    for _ in range(20):
        yaw = rng.uniform(-math.pi, math.pi)
        pitch = rng.uniform(-0.4, 0.4)
        s = (0.0, 0.0, 0.0, yaw, pitch)
        # with no rate command the heading holds, so a step is a straight line
        moved = np.linalg.norm(np.subtract(dyn.step(s, (0.0, 0.0), dyn.params.dt)[:3], s[:3]))
        assert abs(moved / dyn.params.dt - 7.0) < 1e-9 * 7.0


def test_uav_pitch_pins_at_limit():
    dyn = UavDynamics()
    s = dyn.initial_state((0.0, 0.0, 2.0), yaw=0.0)
    s = _run(dyn, s, (0.0, 5.0), duration=2.0, dt=0.02)
    assert s[4] == pytest.approx(0.4, abs=1e-12)
    # stays pinned and climbs at V sin(theta_max)
    before_z = s[2]
    s = dyn.step(s, (0.0, 1.0), 0.02)
    assert s[4] == pytest.approx(0.4, abs=1e-12)
    assert s[2] - before_z == pytest.approx(7.0 * math.sin(0.4) * 0.02, abs=1e-9)
    # recovery from the pin works immediately
    s = dyn.step(s, (0.0, -1.0), 0.02)
    assert s[4] < 0.4


def test_uav_yaw_wraps():
    dyn = UavDynamics()
    s = (0.0, 0.0, 0.0, math.pi - 0.01, 0.0)
    s = dyn.step(s, (1.5, 0.0), 0.02)
    assert -math.pi < s[3] <= math.pi
    assert s[3] < 0.0


def test_uav_control_saturation():
    # rates beyond saturation step as the saturated rates do, and the
    # saturated rates step differently from rates inside them
    dyn = UavDynamics()
    s0 = dyn.initial_state((0, 0, 0), 0.0)
    a = dyn.step(s0, (99.0, -99.0), 0.02)
    b = dyn.step(s0, (1.5, -1.0), 0.02)
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    inside = dyn.step(s0, (1.4, -0.9), 0.02)
    assert a[3] != inside[3] and a[4] != inside[4]


def test_uav_dt_and_finite_guards():
    dyn = UavDynamics()
    s = dyn.initial_state((0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        dyn.step(s, (0, 0), dt=0.0)
    with pytest.raises(ValueError):
        dyn.step(s, (0, 0), dt=0.2)
    with pytest.raises(ValueError):
        dyn.step((0.0, 0.0, math.nan, 0.0, 0.0), (0.0, 0.0), 0.02)
    with pytest.raises(ValueError):
        dyn.step(s, (np.inf, 0), 0.02)


def test_quad_hover_is_equilibrium():
    dyn = QuadDynamics()
    s = dyn.initial_state((1.0, 2.0, 1.5), yaw=0.3)
    out = _run(dyn, s, (0.0, 0.0, 0.0, 0.0), duration=1.0, dt=0.01)
    np.testing.assert_array_equal(out, s)


def test_quad_velocity_step_response():
    # world vx follows a first-order lag with time constant tau_v
    dyn = QuadDynamics()
    tau = dyn.params.tau_v
    s = dyn.initial_state((0.0, 0.0, 1.0), yaw=0.0)
    t, dt = 0.0, 0.01
    for _ in range(round(3 * tau / dt)):
        s = dyn.step(s, (1.0, 0.0, 0.0, 0.0), dt)
        t += dt
        assert abs(s[3] - (1.0 - math.exp(-t / tau))) < 1e-6
    assert s[3] >= 0.95


def test_quad_yaw_rate_tracking():
    # 0.5 rad/s for 2 s: yaw grows by about 1 rad (within 5%), the shortfall
    # being the inner-loop lag
    dyn = QuadDynamics()
    s = dyn.initial_state((0.0, 0.0, 1.0), yaw=0.0)
    s = _run(dyn, s, (0.0, 0.0, 0.0, 0.5), duration=2.0, dt=0.01)
    assert abs(s[8] - 1.0) < 0.05
    # body yaw rate has converged to the command
    assert abs(s[11] - 0.5) < 1e-6


def test_quad_command_is_body_frame():
    dyn = QuadDynamics()
    yaw = math.pi / 2.0
    s = dyn.initial_state((0.0, 0.0, 1.0), yaw=yaw)
    s = _run(dyn, s, (1.0, 0.0, 0.0, 0.0), duration=2.0, dt=0.01)
    # heading +y: forward command builds world vy, not vx
    assert s[4] > 0.95
    assert abs(s[3]) < 1e-9


def test_quad_tilt_stays_bounded(rng):
    dyn = QuadDynamics()
    s = dyn.initial_state((0.0, 0.0, 1.0), yaw=0.0)
    for _ in range(400):
        u = rng.uniform(-1, 1, size=4) * [2.0, 2.0, 2.0, 1.5]
        s = dyn.step(s, tuple(u.tolist()), 0.01)
        assert abs(s[6]) <= 0.6 and abs(s[7]) <= 0.6


def test_quad_velocity_norm_clamp():
    # a command beyond the norm limit steps as the command scaled to the
    # limit does, a yaw rate beyond saturation as the saturated rate; held,
    # the scaled command is the velocity the quad settles at
    dyn = QuadDynamics()
    s0 = dyn.initial_state((0.0, 0.0, 1.0), 0.0)
    k = 2.0 / 5.0
    a = dyn.step(s0, (3.0, 4.0, 0.0, 9.0), 0.01)
    b = dyn.step(s0, (3.0 * k, 4.0 * k, 0.0 * k, 1.5), 0.01)
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    s = _run(dyn, s0, (3.0, 4.0, 0.0, 0.0), duration=6.0, dt=0.01)
    assert math.hypot(s[3], s[4]) == pytest.approx(2.0, abs=1e-6)
    assert abs(s[3] / s[4] - 3.0 / 4.0) < 1e-6


def test_quad_dt_and_finite_guards():
    dyn = QuadDynamics()
    s = dyn.initial_state((0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        dyn.step(s, (0.0,) * 4, dt=0.06)
    with pytest.raises(ValueError):
        dyn.step(s, (0.0,) * 4, dt=-0.01)
    bad = s[:5] + (math.nan,) + s[6:]
    with pytest.raises(ValueError):
        dyn.step(bad, (0.0,) * 4, 0.01)


def test_quad_position_integrates_velocity():
    # order-4 convergence: halving dt cuts the position defect by >= 8x
    dyn = QuadDynamics()

    def endpoint(dt):
        # constant command: the yaw rate keeps rotating the world-frame
        # velocity target, so the path stays curved while the right-hand
        # side remains smooth in time (a prerequisite for the RK4 order)
        s = dyn.initial_state((0.0, 0.0, 1.0), yaw=0.0)
        for _ in range(round(2.0 / dt)):
            s = dyn.step(s, (1.0, 0.5, -0.2, 0.4), dt)
        return np.asarray(s)

    ref = endpoint(0.000625)
    err_c = float(np.linalg.norm(endpoint(0.01)[:6] - ref[:6]))
    err_f = float(np.linalg.norm(endpoint(0.005)[:6] - ref[:6]))
    assert err_c / err_f >= 8.0


def test_steppers_are_deterministic(rng):
    for platform in ("uav", "quad"):
        dyn = platform_dynamics(platform)
        s = dyn.initial_state(rng.normal(size=3), yaw=0.4)
        u = tuple(rng.normal(size=dyn.control_dim).tolist())
        a = dyn.step(s, u, dyn.params.dt)
        b = dyn.step(tuple(list(s)), tuple(list(u)), dyn.params.dt)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_platform_factory():
    assert isinstance(platform_dynamics("uav"), UavDynamics)
    assert isinstance(platform_dynamics("quad"), QuadDynamics)
    with pytest.raises(ValueError):
        platform_dynamics("boat")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["uav", "quad"]), st.sampled_from(["state", "control"]), st.data(),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_steppers_refuse_non_finite_inputs(platform, slot, data, bad):
    dyn = platform_dynamics(platform)
    finite = st.floats(-3.0, 3.0)
    state = data.draw(st.lists(finite, min_size=dyn.state_dim, max_size=dyn.state_dim))
    control = data.draw(st.lists(finite, min_size=dyn.control_dim, max_size=dyn.control_dim))
    target = state if slot == "state" else control
    target[data.draw(st.integers(0, len(target) - 1))] = bad
    with pytest.raises(ValueError) as err:
        dyn.step(tuple(state), tuple(control), dyn.params.dt)
    # the message names the platform and slot and lists the whole tuple
    assert str(err.value) == f"non-finite {platform} {slot}: {target}"


# ---------------------------------------------------------------------------
# the fused steppers against the stage-function RK4 they replaced
# ---------------------------------------------------------------------------


def _uav_reference_step(dyn, state, control, dt):
    """RK4 through a per-stage derivative function, as the stepper was
    written before its stages were inlined."""
    p = dyn.params

    def deriv(x, y, z, psi, th, u_psi, u_th):
        if (th >= p.theta_max and u_th > 0.0) or (th <= -p.theta_max and u_th < 0.0):
            u_th = 0.0
        v = p.speed
        cth = math.cos(th)
        return (v * math.cos(psi) * cth, v * math.sin(psi) * cth, v * math.sin(th), u_psi, u_th)

    x, y, z, psi, th = state
    u_psi, u_th = control
    u_psi = min(max(u_psi, -p.yaw_rate_max), p.yaw_rate_max)
    u_th = min(max(u_th, -p.pitch_rate_max), p.pitch_rate_max)
    k1 = deriv(x, y, z, psi, th, u_psi, u_th)
    h = dt / 2.0
    k2 = deriv(x + h * k1[0], y + h * k1[1], z + h * k1[2],
               psi + h * k1[3], th + h * k1[4], u_psi, u_th)
    k3 = deriv(x + h * k2[0], y + h * k2[1], z + h * k2[2],
               psi + h * k2[3], th + h * k2[4], u_psi, u_th)
    k4 = deriv(x + dt * k3[0], y + dt * k3[1], z + dt * k3[2],
               psi + dt * k3[3], th + dt * k3[4], u_psi, u_th)
    w = dt / 6.0
    th_new = th + w * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4])
    return np.array([
        x + w * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        y + w * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        z + w * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
        wrap_angle(psi + w * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])),
        min(max(th_new, -p.theta_max), p.theta_max),
    ])


def _quad_reference_step(dyn, state, control, dt):
    """The quad's stage-function RK4, as written before its stages were
    inlined."""
    p = dyn.params

    def deriv(s, vx_c, vy_c, vz_c, r_cmd):
        vx, vy, vz = s[3], s[4], s[5]
        roll, pitch, yaw = s[6], s[7], s[8]
        pb, qb, rb = s[9], s[10], s[11]
        cy, sy = math.cos(yaw), math.sin(yaw)
        ax = (cy * vx_c - sy * vy_c - vx) / p.tau_v
        ay = (sy * vx_c + cy * vy_c - vy) / p.tau_v
        az = (vz_c - vz) / p.tau_v
        tilt = p.tilt_max
        pitch_des = min(max((ax * cy + ay * sy) / GRAVITY, -tilt), tilt)
        roll_des = min(max((ax * sy - ay * cy) / GRAVITY, -tilt), tilt)
        droll = (roll_des - roll) / p.tau_att
        dpitch = (pitch_des - pitch) / p.tau_att
        dyaw = rb
        sr, cr = math.sin(roll), math.cos(roll)
        sp, cp = math.sin(pitch), math.cos(pitch)
        p_t = droll - dyaw * sp
        q_t = dpitch * cr + dyaw * cp * sr
        return (vx, vy, vz, ax, ay, az, droll, dpitch, dyaw,
                (p_t - pb) / p.tau_att, (q_t - qb) / p.tau_att, (r_cmd - rb) / p.tau_att)

    def add(a, k, h):
        return tuple(ai + h * ki for ai, ki in zip(a, k))

    s = state
    vx, vy, vz, r = control
    norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    if norm > p.v_cmd_max:
        k = p.v_cmd_max / norm
        vx, vy, vz = vx * k, vy * k, vz * k
    u = (vx, vy, vz, min(max(r, -p.yaw_rate_max), p.yaw_rate_max))
    k1 = deriv(s, *u)
    k2 = deriv(add(s, k1, dt / 2.0), *u)
    k3 = deriv(add(s, k2, dt / 2.0), *u)
    k4 = deriv(add(s, k3, dt), *u)
    out = np.array([si + dt / 6.0 * (a + 2 * b + 2 * c + d)
                    for si, a, b, c, d in zip(s, k1, k2, k3, k4)])
    out[8] = wrap_angle(out[8])
    return out


def _edge_floats(lo, hi, edges):
    """Floats in [lo, hi], with the given edge values drawn often."""
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


_TM, _YM, _PM = UavParams.theta_max, UavParams.yaw_rate_max, UavParams.pitch_rate_max
_TM_IN = math.nextafter(_TM, 0.0)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(*[st.floats(-50.0, 50.0)] * 3,
              _edge_floats(-math.pi, math.pi, [-math.pi, math.pi, 0.0, -0.0]),
              # pitch at the pin, just inside it, and past it (the clamp pulls it back)
              _edge_floats(-0.5, 0.5, [_TM, -_TM, _TM_IN, -_TM_IN, 0.0, -0.0])),
    # rates inside, at and beyond saturation, both signs: outward and inward at a pin
    st.tuples(_edge_floats(-5.0, 5.0, [_YM, -_YM, 0.0, 4.0, -4.0]),
              _edge_floats(-5.0, 5.0, [_PM, -_PM, 0.0, -0.0, 3.0, -3.0])),
    _edge_floats(1e-9, 0.1, [0.1, math.nextafter(0.0, 1.0), 1e-6, UavParams.dt]),
)
# the shared stage's edges: pitch at the pin and one ulp inside it, with an
# outward and an inward rate (inside and outward, stage 2 pins where stage 1
# did not), and signed zero pitches with signed zero rates
@example((1.0, -2.0, 0.5, 0.3, _TM), (0.7, _PM), UavParams.dt)
@example((1.0, -2.0, 0.5, 0.3, _TM), (0.7, -_PM), UavParams.dt)
@example((1.0, -2.0, 0.5, 0.3, -_TM), (0.7, -_PM), UavParams.dt)
@example((1.0, -2.0, 0.5, 0.3, -_TM), (0.7, _PM), UavParams.dt)
@example((1.0, -2.0, 0.5, 0.3, _TM_IN), (0.7, _PM), UavParams.dt)
@example((1.0, -2.0, 0.5, 0.3, _TM_IN), (0.7, -_PM), UavParams.dt)
@example((1.0, -2.0, 0.5, 0.3, -_TM_IN), (0.7, -_PM), UavParams.dt)
@example((1.0, -2.0, 0.5, 0.3, -_TM_IN), (0.7, _PM), UavParams.dt)
@example((0.0, 0.0, -0.0, 0.0, 0.0), (0.0, 0.0), UavParams.dt)
@example((0.0, 0.0, -0.0, 0.0, 0.0), (0.0, -0.0), UavParams.dt)
@example((0.0, 0.0, -0.0, 0.0, -0.0), (0.0, 0.0), UavParams.dt)
@example((0.0, 0.0, -0.0, 0.0, -0.0), (0.0, -0.0), UavParams.dt)
def test_fused_uav_step_matches_stage_function_rk4(state, control, dt):
    dyn = UavDynamics()
    got = dyn.step(state, control, dt)
    assert type(got) is tuple and all(type(v) is float for v in got)
    want = _uav_reference_step(dyn, state, control, dt)
    assert np.asarray(got).tobytes() == want.tobytes()


_TILT, _VM, _QYM = QuadParams.tilt_max, QuadParams.v_cmd_max, QuadParams.yaw_rate_max


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(*[st.floats(-20.0, 20.0)] * 3,
              *[_edge_floats(-4.0, 4.0, [0.0, -0.0, 2.0])] * 3,
              *[_edge_floats(-0.7, 0.7, [0.0, _TILT, -_TILT])] * 2,
              _edge_floats(-math.pi, math.pi, [-math.pi, math.pi, 0.0]),
              *[_edge_floats(-3.0, 3.0, [0.0, -0.0])] * 3),
    # command norms inside and beyond v_cmd_max, yaw rates beyond saturation
    st.tuples(*[_edge_floats(-6.0, 6.0, [0.0, _VM, -_VM, 5.0])] * 3,
              _edge_floats(-4.0, 4.0, [_QYM, -_QYM, 3.0])),
    _edge_floats(1e-9, 0.05, [0.05, math.nextafter(0.0, 1.0), 1e-6, QuadParams.dt]),
)
# roll and pitch at +-tilt_max and one ulp inside it, with the commanded
# tilt saturated outward, saturated inward and level
@example((0.0, 0.0, 1.0, -4.0, 4.0, 0.0, _TILT, _TILT, 0.0, 0.0, 0.0, 0.0),
         (2.0, -2.0, 0.0, 1.5), QuadParams.dt)
@example((0.0, 0.0, 1.0, 4.0, -4.0, 0.0, -_TILT, -_TILT, 0.0, 0.0, 0.0, 0.0),
         (-2.0, 2.0, 0.0, -3.0), QuadParams.dt)
@example((0.0, 0.0, 1.0, 4.0, -4.0, 0.0, _TILT, _TILT, 0.3, 0.5, -0.5, 0.2),
         (-2.0, 2.0, 0.0, 0.0), QuadParams.dt)
@example((0.0, 0.0, 1.0, 0.0, 0.0, 0.0, _TILT, -_TILT, 0.0, 0.0, 0.0, 0.0),
         (0.0, 0.0, 0.0, 0.0), QuadParams.dt)
@example((0.0, 0.0, 1.0, -4.0, 4.0, 0.0, math.nextafter(_TILT, 0.0),
          math.nextafter(-_TILT, 0.0), 0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0), 0.05)
def test_fused_quad_step_matches_stage_function_rk4(state, control, dt):
    dyn = QuadDynamics()
    got = dyn.step(state, control, dt)
    assert type(got) is tuple and all(type(v) is float for v in got)
    want = _quad_reference_step(dyn, state, control, dt)
    assert np.asarray(got).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the start state tuple against the array formula it replaced
# ---------------------------------------------------------------------------


def _array_initial_state(dyn, position, yaw):
    """initial_state as it was written on arrays."""
    if dyn.platform == "uav":
        p = np.asarray(position, dtype=np.float64)
        return np.array([p[0], p[1], p[2], wrap_angle(yaw), 0.0])
    s = np.zeros(12)
    s[:3] = np.asarray(position, dtype=np.float64)
    s[8] = wrap_angle(yaw)
    return s


_PI_BELOW = math.nextafter(math.pi, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["uav", "quad"]),
       st.tuples(*[_edge_floats(-50.0, 50.0, [0.0, -0.0])] * 3),
       # yaws at and one ulp inside +-pi, and a turn or more away from them
       _edge_floats(-10.0, 10.0, [math.pi, -math.pi, _PI_BELOW, -_PI_BELOW,
                                  3.0 * math.pi, -3.0 * math.pi, 0.0, -0.0]),
       # a trial's start pose is an array and a numpy yaw, a track's three floats
       st.sampled_from([tuple, list, np.array]), st.sampled_from([float, np.float64]))
@example("uav", (-0.0, 0.0, -0.0), math.pi, tuple, float)
@example("uav", (0.0, -0.0, 2.0), -math.pi, np.array, np.float64)
@example("quad", (-0.0, -0.0, -0.0), -math.pi, tuple, float)
@example("quad", (1.0, -0.0, 0.0), math.pi, np.array, np.float64)
@example("quad", (1.0, 2.0, 3.0), -0.0, list, float)
def test_initial_state_has_the_bits_of_the_array_formula(platform, position, yaw, form, yaw_type):
    dyn = platform_dynamics(platform)
    got = dyn.initial_state(form(position), yaw_type(yaw))
    assert type(got) is tuple and len(got) == dyn.state_dim
    assert all(type(v) is float for v in got)
    want = _array_initial_state(dyn, position, yaw)
    assert np.asarray(got).tobytes() == want.tobytes()
