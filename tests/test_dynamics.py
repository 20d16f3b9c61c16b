"""Vehicle dynamics against closed-form trajectories and response oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatesim.dynamics import (
    QuadDynamics,
    QuadParams,
    UavDynamics,
    UavParams,
    platform_dynamics,
)


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
        s = np.array([0.0, 0.0, 0.0, yaw, pitch])
        assert abs(np.linalg.norm(dyn.velocity(s)) - 7.0) < 1e-9 * 7.0


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
    s = np.array([0.0, 0.0, 0.0, math.pi - 0.01, 0.0])
    s = dyn.step(s, (1.5, 0.0), 0.02)
    assert -math.pi < s[3] <= math.pi
    assert s[3] < 0.0


def test_uav_control_saturation():
    dyn = UavDynamics()
    assert dyn.clamp_control((99.0, -99.0)) == (1.5, -1.0)
    s0 = dyn.initial_state((0, 0, 0), 0.0)
    a = dyn.step(s0, (99.0, 0.0), 0.02)
    b = dyn.step(s0, (1.5, 0.0), 0.02)
    np.testing.assert_array_equal(a, b)


def test_uav_dt_and_finite_guards():
    dyn = UavDynamics()
    s = dyn.initial_state((0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        dyn.step(s, (0, 0), dt=0.0)
    with pytest.raises(ValueError):
        dyn.step(s, (0, 0), dt=0.2)
    with pytest.raises(ValueError):
        dyn.step(np.array([0, 0, np.nan, 0, 0]), (0, 0), 0.02)
    with pytest.raises(ValueError):
        dyn.step(s, (np.inf, 0), 0.02)


def test_uav_custom_params():
    dyn = UavDynamics(UavParams(speed=3.0, dt=0.05))
    s = dyn.step(dyn.initial_state((0, 0, 0), 0.0), (0, 0))
    assert s[0] == pytest.approx(3.0 * 0.05, abs=1e-12)


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
        s = dyn.step(s, u, 0.01)
        assert abs(s[6]) <= 0.6 and abs(s[7]) <= 0.6


def test_quad_velocity_norm_clamp():
    dyn = QuadDynamics()
    vx, vy, vz, r = dyn.clamp_control((3.0, 4.0, 0.0, 9.0))
    assert math.hypot(vx, vy) == pytest.approx(2.0, abs=1e-12)
    assert abs(vx / vy - 3.0 / 4.0) < 1e-12
    assert r == 1.5


def test_quad_dt_and_finite_guards():
    dyn = QuadDynamics()
    s = dyn.initial_state((0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        dyn.step(s, np.zeros(4), dt=0.06)
    with pytest.raises(ValueError):
        dyn.step(s, np.zeros(4), dt=-0.01)
    bad = s.copy()
    bad[5] = np.nan
    with pytest.raises(ValueError):
        dyn.step(bad, np.zeros(4), 0.01)


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
        return s

    ref = endpoint(0.000625)
    err_c = float(np.linalg.norm(endpoint(0.01)[:6] - ref[:6]))
    err_f = float(np.linalg.norm(endpoint(0.005)[:6] - ref[:6]))
    assert err_c / err_f >= 8.0


def test_steppers_are_deterministic(rng):
    for platform in ("uav", "quad"):
        dyn = platform_dynamics(platform)
        s = dyn.initial_state(rng.normal(size=3), yaw=0.4)
        u = rng.normal(size=dyn.control_dim)
        a = dyn.step(s, u)
        b = dyn.step(s.copy(), u.copy())
        np.testing.assert_array_equal(a, b)


def test_platform_factory():
    assert isinstance(platform_dynamics("uav"), UavDynamics)
    assert isinstance(platform_dynamics("quad"), QuadDynamics)
    assert platform_dynamics("quad", QuadParams(tau_v=0.5)).params.tau_v == 0.5
    with pytest.raises(ValueError):
        platform_dynamics("boat")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["uav", "quad"]), st.sampled_from(["state", "control"]), st.data(),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
def test_steppers_refuse_non_finite_inputs(platform, slot, data, bad, as_list):
    dyn = platform_dynamics(platform)
    finite = st.floats(-3.0, 3.0)
    state = np.array(data.draw(st.lists(finite, min_size=dyn.state_dim,
                                        max_size=dyn.state_dim)))
    control = np.array(data.draw(st.lists(finite, min_size=dyn.control_dim,
                                          max_size=dyn.control_dim)))
    target = state if slot == "state" else control
    target[data.draw(st.integers(0, len(target) - 1))] = bad
    if as_list:
        state, control = state.tolist(), control.tolist()
    with pytest.raises(ValueError) as err:
        dyn.step(state, control)
    # the message names the platform and slot and lists the whole vector
    assert str(err.value) == f"non-finite {platform} {slot}: {np.asarray(target).tolist()}"
