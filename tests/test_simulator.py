"""Crossing detection, episode scoring, closed-loop rollouts, and the text
output formats."""

import csv
import io
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import step_ulps
from gatesim import simulator
from gatesim.dynamics import platform_dynamics
from gatesim.geometry import plane_offset, wrap_angle
from gatesim.policies import ExpertUavPolicy, MaskCentroidPolicy, Policy, ZeroPolicy, expert_policy
from gatesim.render import DEFAULT_CAMERA, camera_pose, gate_mask
from gatesim.simulator import (
    ARENA_EXIT,
    FRAME_COLLISION,
    HISTORY_LEN,
    MISS,
    SUCCESS,
    TIMEOUT,
    GateRecord,
    Rollout,
    SimConfig,
    classify_crossing,
    detect_crossing,
    events_csv,
    jittered_initial_pose,
    metrics,
    rollout,
    signed_gate_distance,
    steps_per_tick,
    trajectory_csv,
)
from gatesim.tracks import (
    ARENAS,
    GATE_GEOMETRY,
    Gate,
    Track,
    reference_track,
    reference_track_names,
)


def _gate(center, yaw=0.0, platform="uav", keyframes=None):
    geo = GATE_GEOMETRY[platform]
    if keyframes is not None:
        return Gate(geo["shape"], geo["inner_half"], geo["ring"], keyframes)
    return Gate.static(geo["shape"], geo["inner_half"], geo["ring"], center, yaw)


def _track(centers, yaws=None, platform="uav"):
    yaws = yaws if yaws is not None else [0.0] * len(centers)
    gates = tuple(_gate(c, y, platform=platform) for c, y in zip(centers, yaws))
    return Track("t", platform, gates, ARENAS[platform])


# ---------------------------------------------------------------------------
# crossing detection and classification
# ---------------------------------------------------------------------------


def test_signed_gate_distance():
    g = _gate((5.0, 0.0, 2.0))
    assert signed_gate_distance(g, 0.0, np.array([3.0, 1.0, 4.0])) == -2.0
    assert signed_gate_distance(g, 0.0, np.array([6.5, -9.0, 0.0])) == 1.5
    yawed = _gate((0.0, 0.0, 2.0), yaw=math.pi / 2)
    assert signed_gate_distance(yawed, 0.0, np.array([7.0, 3.0, 2.0])) == pytest.approx(3.0)


def test_detect_crossing_example():
    # transit offset 0.2 m laterally and 0.1 m vertically from the center
    g = _gate((5.0, 0.0, 2.0))
    hit = detect_crossing(g, 0.0, np.array([4.8, 0.2, 2.1]), 0.02, np.array([5.2, 0.2, 2.1]))
    assert hit is not None
    t_cross, p_prime, error = hit
    assert t_cross == pytest.approx(0.01, abs=1e-15)
    np.testing.assert_allclose(p_prime, [5.0, 0.2, 2.1], atol=1e-15)
    assert error == pytest.approx(math.sqrt(0.05), abs=1e-12)


def test_detect_crossing_interpolates_linearly():
    g = _gate((5.0, 0.0, 2.0))
    hit = detect_crossing(g, 1.0, np.array([4.7, 0.0, 2.0]), 1.02, np.array([5.1, 0.0, 2.0]))
    t_cross, p_prime, error = hit
    assert t_cross == pytest.approx(1.0 + 0.75 * 0.02, abs=1e-15)
    assert error == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "p0,p1",
    [
        ([5.2, 0.0, 2.0], [4.8, 0.0, 2.0]),   # against the normal
        ([4.0, 0.0, 2.0], [4.9, 0.0, 2.0]),   # stays on the near side
        ([5.1, 0.0, 2.0], [5.9, 0.0, 2.0]),   # stays on the far side
    ],
)
def test_detect_crossing_rejections(p0, p1):
    g = _gate((5.0, 0.0, 2.0))
    assert detect_crossing(g, 0.0, np.array(p0), 0.02, np.array(p1)) is None


def test_detect_crossing_point_lies_on_plane(rng):
    g = _gate((1.0, -2.0, 2.0), yaw=0.7)
    center = np.array([1.0, -2.0, 2.0])
    normal = np.array([math.cos(0.7), math.sin(0.7), 0.0])
    for _ in range(50):
        off = rng.normal(scale=2.0, size=3)
        off -= (off @ normal) * normal  # in-plane offset, so the segment straddles
        p0 = center + off - rng.uniform(0.1, 3.0) * normal
        p1 = center + off + rng.uniform(0.1, 3.0) * normal
        hit = detect_crossing(g, 0.0, p0, 0.02, p1)
        assert hit is not None
        t_cross, p_prime, _ = hit
        assert abs(signed_gate_distance(g, t_cross, p_prime)) < 1e-9


def test_detect_crossing_moving_gate_bisection():
    # yaw sweeps during the transit, so the plane distance is nonlinear in
    # time; the bisected crossing still lands on the instantaneous plane
    g = _gate(
        None,
        keyframes=((0.0, np.array([0.0, 0.0, 2.0]), 0.0), (1.0, np.array([0.0, 0.0, 2.0]), 0.8)),
    )
    p0 = np.array([-0.5, 0.3, 2.0])
    p1 = np.array([0.5, 0.3, 2.0])
    hit = detect_crossing(g, 0.2, p0, 0.22, p1)
    assert hit is not None
    t_cross, p_prime, error = hit
    assert 0.2 <= t_cross <= 0.22
    assert abs(signed_gate_distance(g, t_cross, p_prime)) < 1e-9
    # closed form: for a segment at y=0.3 through a plane yawed by phi, the
    # in-plane distance to the center is 0.3 / cos(phi)
    phi = 0.8 * t_cross
    assert error == pytest.approx(0.3 / math.cos(phi), abs=1e-9)


def test_classify_crossing_quad_taxonomy():
    g = _gate((0, 0, 1), platform="quad")
    vhw = GATE_GEOMETRY["quad"]["vehicle_half_width"]
    assert classify_crossing(0.29, g, vhw) == SUCCESS
    assert classify_crossing(0.45, g, vhw) == FRAME_COLLISION
    assert classify_crossing(2.0, g, vhw) == MISS
    # boundaries are inclusive
    assert classify_crossing(0.30, g, vhw) == SUCCESS
    assert classify_crossing(0.58, g, vhw) == FRAME_COLLISION


def test_jittered_initial_pose_bounds(rng):
    track = _track([(0.0, 0.0, 2.0)])
    base_pos, base_yaw = track.initial_pose()
    for _ in range(200):
        pos, yaw = jittered_initial_pose(track, rng)
        assert np.all(np.abs(pos - base_pos) <= 0.3 + 1e-12)
        assert abs(yaw - base_yaw) <= 0.1 + 1e-12
    a = jittered_initial_pose(track, np.random.default_rng(5))
    b = jittered_initial_pose(track, np.random.default_rng(5))
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]


def test_jittered_initial_pose_clipped():
    track = _track([(-18.0, 0.0, 2.0)])  # start pose hugs the -x wall
    for seed in range(50):
        pos, _ = jittered_initial_pose(track, np.random.default_rng(seed))
        assert pos[0] >= ARENAS["uav"].lo[0] + 0.2


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------


def test_rollout_expert_single_gate():
    track = _track([(0.0, 0.0, 2.0)])
    roll = rollout(ExpertUavPolicy(), track)
    assert roll.terminal == SUCCESS
    assert roll.all_success and len(roll.gates) == 1
    rec = roll.gates[0]
    assert rec.crossed and rec.error < 0.1
    assert rec.t_cross == pytest.approx(6.0 / 7.0, abs=0.05)
    assert roll.duration == roll.times[-1]
    # trajectory arrays are consistent
    assert roll.states.shape == (len(roll.times), 5)
    assert roll.controls.shape == (len(roll.times) - 1, 2)


def test_rollout_miss_advances_target():
    # straight flight crosses gate 1's plane 8 m off-center, then nails gate 2
    track = _track([(0.0, -8.0, 2.0), (8.0, 0.0, 2.0)])
    roll = rollout(ZeroPolicy("uav"), track, init_state=np.array([-6.0, 0.0, 2.0, 0.0, 0.0]))
    assert roll.gates[0].outcome == MISS
    assert roll.gates[0].error == pytest.approx(8.0, abs=1e-9)
    assert roll.gates[1].outcome == SUCCESS
    assert roll.terminal == SUCCESS
    assert not roll.all_success


def test_rollout_ring_strike_terminates():
    track = _track([(0.0, -1.0, 2.0), (8.0, 0.0, 2.0)])
    roll = rollout(ZeroPolicy("uav"), track, init_state=np.array([-6.0, 0.0, 2.0, 0.0, 0.0]))
    assert roll.terminal == FRAME_COLLISION
    assert roll.gates[0].outcome == FRAME_COLLISION
    assert roll.gates[0].error == pytest.approx(1.0, abs=1e-9)
    # the never-reached gate reads as a timeout, not a collision
    assert roll.gates[1].outcome == TIMEOUT
    assert not roll.gates[1].crossed


def test_rollout_timeout():
    track = _track([(1.5, 0.0, 1.0)], platform="quad")
    roll = rollout(ZeroPolicy("quad"), track, SimConfig(timeout=1.0))
    assert roll.terminal == TIMEOUT
    assert roll.duration == pytest.approx(1.0, abs=0.02)
    assert roll.gates[0].outcome == TIMEOUT


def test_rollout_tests_the_timeout_after_each_whole_tick():
    # at 0.5 Hz one tick is 2 s: the 1 s timeout is first checked at t = 2 s,
    # the sum of 200 steps of 0.01 s
    roll = rollout(ZeroPolicy("quad"), reference_track("quad-turn"),
                   SimConfig(tick_hz=0.5, timeout=1.0))
    assert roll.terminal == TIMEOUT
    assert roll.duration == 2.0000000000000013
    assert len(roll.times) == 201


def test_rollout_timeout_allows_for_the_rounding_of_the_summed_steps():
    # ten 0.01 s steps sum to 0.09999999999999999, short of the 0.1 s timeout
    # by one rounding: the rollout still ends after its first tick
    roll = rollout(ZeroPolicy("quad"), reference_track("quad-turn"),
                   SimConfig(tick_hz=10.0, timeout=0.1))
    assert roll.terminal == TIMEOUT
    assert len(roll.times) == 11
    assert roll.duration == 0.09999999999999999


def test_rollout_arena_exit():
    track = _track([(8.0, 0.0, 2.0)])
    # facing away from the gate: straight flight leaves through the -x wall
    roll = rollout(ZeroPolicy("uav"), track, init_state=np.array([0.0, 0.0, 2.0, math.pi, 0.0]))
    assert roll.terminal == ARENA_EXIT
    assert roll.gates[0].outcome == ARENA_EXIT
    assert not ARENAS["uav"].contains(roll.states[-1][:3])
    assert roll.duration < 4.0  # exits well before the timeout


def test_rollout_coincident_gates_in_one_step():
    track = _track([(0.0, 0.0, 2.0), (0.0, 0.0, 2.0)])
    roll = rollout(ZeroPolicy("uav"), track, init_state=np.array([-6.0, 0.0, 2.0, 0.0, 0.0]))
    assert roll.terminal == SUCCESS
    assert roll.all_success
    assert roll.gates[0].t_cross == roll.gates[1].t_cross


def _rollout_counting_crossings(policy, track, init_state):
    """The rollout and each detect_crossing call it made, as (gate, hit)."""
    calls = []

    def counting(gate, *args):
        calls.append((gate, detect_crossing(gate, *args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "detect_crossing", counting)
        roll = rollout(policy, track, init_state=init_state)
    return roll, calls


def test_rollout_calls_detect_crossing_only_for_crossings():
    # each step's end distance is carried into the next step, so the full
    # crossing test runs only on a sign change, and always confirms it
    init = np.array([-6.0, 0.0, 2.0, 0.0, 0.0])
    runs = [
        (ZeroPolicy("uav"), _track([(0.0, -8.0, 2.0), (8.0, 0.0, 2.0)]), init),   # a miss
        (ZeroPolicy("uav"), _track([(0.0, -1.0, 2.0), (8.0, 0.0, 2.0)]), init),   # a strike
        (ZeroPolicy("uav"), _track([(0.0, 0.0, 2.0), (0.0, 0.0, 2.0)]), init),    # coincident
    ] + [(expert_policy(t.platform), t, None) for t in map(reference_track, (
        "uav-slalom", "uav-shift", "quad-drift", "quad-turn"))]
    for policy, track, init_state in runs:
        roll, calls = _rollout_counting_crossings(policy, track, init_state)
        hits = [hit for _, hit in calls]
        assert None not in hits
        assert len(hits) == sum(g.crossed for g in roll.gates) > 0
        assert [h[0] for h in hits] == [g.t_cross for g in roll.gates if g.crossed]


@pytest.mark.parametrize("policy, track, init_state, terminal", [
    (expert_policy("uav"), reference_track("uav-slalom"), None, SUCCESS),
    (expert_policy("quad"), reference_track("quad-turn"), None, SUCCESS),
    (expert_policy("quad"), reference_track("quad-drift"), None, SUCCESS),
    (ZeroPolicy("uav"), _track([(8.0, 0.0, 2.0)]), [0.0, 0.0, 2.0, math.pi, 0.0], ARENA_EXIT),
    (ZeroPolicy("uav"), _track([(0.0, -1.0, 2.0), (8.0, 0.0, 2.0)]),
     [-6.0, 0.0, 2.0, 0.0, 0.0], FRAME_COLLISION),
], ids=["uav-static", "quad-static", "quad-moving-gate", "arena-exit", "ring-strike"])
@pytest.mark.parametrize("tick_hz", [50.0, 10.0])
def test_rollout_steps_once_per_simulated_step_and_evaluates_once_per_tick(
        policy, track, init_state, terminal, tick_hz):
    # perfbench derives both counts from the duration (SimStats.add_rollout)
    # and requires its dynamics.step and evaluate spans to equal them
    counts = {"steps": 0, "ticks": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    dyn = platform_dynamics(track.platform)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(dyn), "step", counted("steps", type(dyn).step))
        mp.setattr(type(policy), "evaluate", counted("ticks", type(policy).evaluate))
        roll = rollout(policy, track, SimConfig(tick_hz=tick_hz), init_state=init_state)
    dt = dyn.params.dt
    steps = round(roll.duration / dt)
    assert roll.terminal == terminal
    assert counts["steps"] == steps == len(roll.times) - 1
    assert counts["ticks"] == math.ceil(steps / steps_per_tick(tick_hz, dt))


CROSSING_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@CROSSING_PROPERTY
@given(st.floats(-3.0, 3.0), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))
def test_static_gate_transit_records_exactly_one_crossing(y0, yaw, gate_yaw):
    # straight flight through gate 1's plane, whatever its outcome, then on
    # toward gate 2
    track = _track([(0.0, 0.0, 2.0), (12.0, 0.0, 2.0)], yaws=[gate_yaw, 0.0])
    roll, calls = _rollout_counting_crossings(
        ZeroPolicy("uav"), track, np.array([-6.0, y0, 2.0, yaw, 0.0]))
    first = [hit for gate, hit in calls if gate is track.gates[0]]
    assert len(first) == 1 and first[0] is not None
    assert roll.gates[0].crossed and roll.gates[0].t_cross == first[0][0]
    assert len(calls) == sum(g.crossed for g in roll.gates)


def test_rollout_starting_on_the_plane_does_not_cross_it():
    # a crossing needs a start strictly behind the plane: a flight that starts
    # on gate 1's plane never crosses it, so gate 2 never becomes the target
    track = _track([(-6.0, 0.0, 2.0), (6.0, 0.0, 2.0)])
    roll, calls = _rollout_counting_crossings(ZeroPolicy("uav"), track,
                                              np.array([-6.0, 0.0, 2.0, 0.0, 0.0]))
    assert calls == []
    assert not any(g.crossed for g in roll.gates)
    assert roll.terminal == ARENA_EXIT


def test_rollout_step_ending_on_the_plane_counts_once():
    init = np.array([-6.0, 0.0, 2.0, 0.0, 0.0])
    free = rollout(ZeroPolicy("uav"), _track([(15.0, 0.0, 2.0)]), init_state=init)
    k = 40
    x_on = float(free.states[k][0])
    track = _track([(x_on, 0.0, 2.0), (15.0, 0.0, 2.0)])
    roll, calls = _rollout_counting_crossings(ZeroPolicy("uav"), track, init)
    # the same flight, whose k-th step ends exactly on gate 1's plane
    np.testing.assert_array_equal(roll.states[k], free.states[k])
    assert signed_gate_distance(track.gates[0], 0.0, roll.states[k][:3]) == 0.0
    first = [hit for gate, hit in calls if gate is track.gates[0]]
    assert len(first) == 1 and first[0] is not None
    assert roll.gates[0].outcome == SUCCESS
    assert roll.gates[0].t_cross == pytest.approx(roll.times[k], abs=1e-12)
    assert roll.terminal == SUCCESS


@CROSSING_PROPERTY
@given(st.floats(-2.0, 2.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(-5.0, 5.0), st.floats(0.5, 3.5))
def test_rollout_records_both_coincident_planes_in_one_step(y0, a, b, dy, dz):
    # gate 1 sits on the flight line; gate 2 anywhere in the same plane x = 0
    track = _track([(0.0, y0 + a, 2.0 + b), (0.0, dy, dz)])
    roll, calls = _rollout_counting_crossings(
        ZeroPolicy("uav"), track, np.array([-6.0, y0, 2.0, 0.0, 0.0]))
    assert roll.gates[0].outcome == SUCCESS
    assert roll.gates[1].crossed
    assert roll.gates[0].t_cross == roll.gates[1].t_cross
    assert roll.gates[1].error == pytest.approx(math.hypot(dy - y0, dz - 2.0), abs=1e-9)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "axis,init,gate,gate_yaw",
    [
        (2, (-6.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.5), 0.0),            # floor
        (2, (-6.0, 0.0, 4.0, 0.0), (0.0, 0.0, 3.5), 0.0),            # ceiling
        (1, (-6.0, -10.0, 2.0, 0.0), (0.0, -9.5, 2.0), 0.0),         # -y wall
        (1, (-6.0, 10.0, 2.0, 0.0), (0.0, 9.5, 2.0), 0.0),           # +y wall
        (0, (-20.0, -6.0, 2.0, math.pi / 2), (-19.5, 0.0, 2.0), math.pi / 2),   # -x wall
        (0, (20.0, -6.0, 2.0, math.pi / 2), (19.5, 0.0, 2.0), math.pi / 2),     # +x wall
    ],
)
def test_rollout_on_the_arena_boundary_stays_inside(axis, init, gate, gate_yaw):
    # level flight along a face of the closed box keeps that coordinate on
    # the boundary at every step, and the flight still ends at the gate
    track = _track([gate], yaws=[gate_yaw])
    roll = rollout(ZeroPolicy("uav"), track, init_state=np.array([*init, 0.0]))
    assert len(roll.states) > 10
    assert (roll.states[:, axis] == init[axis]).all()
    assert roll.terminal == SUCCESS


def test_rollout_platform_mismatch():
    with pytest.raises(ValueError):
        rollout(ExpertUavPolicy(), _track([(1.0, 0.0, 1.0)], platform="quad"))


def test_rollout_tick_rate_must_divide_dt():
    track = _track([(0.0, 0.0, 2.0)])
    with pytest.raises(ValueError, match="tick_hz 30.0 gives a tick period"):
        rollout(ExpertUavPolicy(), track, SimConfig(tick_hz=30.0))


@pytest.mark.parametrize("tick_hz,dt,steps", [(50.0, 0.02, 1), (10.0, 0.02, 5), (10.0, 0.01, 10),
                                              (0.5, 0.01, 200), (25.0, 0.01, 4)])
def test_steps_per_tick(tick_hz, dt, steps):
    assert steps_per_tick(tick_hz, dt) == steps


@pytest.mark.parametrize("tick_hz", [30.0, 100.0, 1e9, math.inf, 5e-324, 1e-309])
def test_steps_per_tick_refuses_a_period_that_is_not_whole_steps(tick_hz):
    # a fraction of a step, a period shorter than one step (0 for an
    # infinite rate), or a subnormal rate whose period overflows to inf
    with pytest.raises(ValueError, match=f"tick_hz {tick_hz!r} gives a tick period"):
        steps_per_tick(tick_hz, 0.02)


@pytest.mark.parametrize("tick_hz", [0.0, -1.0, math.nan])
def test_steps_per_tick_refuses_a_rate_that_is_not_positive(tick_hz):
    with pytest.raises(ValueError, match="tick_hz must be > 0, got"):
        steps_per_tick(tick_hz, 0.02)


def test_rollout_without_recording():
    track = _track([(0.0, 0.0, 2.0)])
    roll = rollout(ExpertUavPolicy(), track, SimConfig(record_trajectory=False))
    assert roll.terminal == SUCCESS
    assert roll.states.shape == (1, 5)
    assert roll.controls.shape == (0, 2)
    assert roll.duration > 0.5


def test_rollout_reproducible_full_state():
    track = reference_track("uav-slalom")
    a = rollout(expert_policy("uav"), track, rng=np.random.default_rng(3))
    b = rollout(expert_policy("uav"), track, rng=np.random.default_rng(3))
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.controls, b.controls)
    assert a.terminal == b.terminal


def test_rollout_mask_policy_reproducible():
    track = _track([(1.5, 0.0, 1.0)], platform="quad")
    config = SimConfig(tick_hz=10.0, timeout=0.5)

    def run(seed):
        return rollout(MaskCentroidPolicy(), track, config, rng=np.random.default_rng(seed))

    a, b = run(2), run(2)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.controls, b.controls)


class _HistoryProbe(Policy):
    platform = "quad"
    observes = "mask"

    def __init__(self):
        self.histories = []
        self.calls = 0

    def evaluate(self, obs):
        self.histories.append(obs.history)
        self.calls += 1
        return np.array([0.0, 0.0, 0.0, 0.1 * self.calls])


def test_mask_observation_history():
    track = _track([(1.5, 0.0, 1.0)], platform="quad")
    probe = _HistoryProbe()
    rollout(probe, track, SimConfig(tick_hz=10.0, timeout=0.3))
    hist = probe.histories
    assert len(hist) == 3
    assert hist[0].shape == (HISTORY_LEN, 4)
    np.testing.assert_array_equal(hist[0], np.zeros((4, 4)))
    # most recent control sits in the last row
    np.testing.assert_array_equal(hist[1][-1], [0.0, 0.0, 0.0, 0.1])
    np.testing.assert_array_equal(hist[2][-1], [0.0, 0.0, 0.0, 0.2])
    np.testing.assert_array_equal(hist[2][-2], [0.0, 0.0, 0.0, 0.1])
    # history buffers are copies, not views of simulator state
    assert hist[1] is not hist[2]


class _ReusedControl(Policy):
    """Returns the same array every tick, rewriting it in place."""

    platform = "uav"

    def __init__(self):
        self.control = np.zeros(2)
        self.calls = 0

    def evaluate(self, obs):
        self.calls += 1
        self.control[:] = [0.1 * self.calls, -0.05 * self.calls]
        return self.control


def test_rollout_records_each_tick_control_and_does_not_alias_the_start():
    track = _track([(0.0, 0.0, 2.0)])
    # init_state may be any sequence; an array the caller changes afterwards
    # must not reach the rollout
    start = np.array(platform_dynamics("uav").initial_state((-6.0, 0.0, 2.0), 0.0))
    given_start = start.copy()
    policy = _ReusedControl()
    ticks = []
    roll = rollout(policy, track, SimConfig(tick_hz=10.0, timeout=0.5), init_state=start,
                   observer=lambda *tick: ticks.append(tick))
    start += 1.0
    np.testing.assert_array_equal(roll.states[0], given_start)
    # the start array is made one tuple of Python floats, which the first
    # tick observes
    first = ticks[0][1]
    assert type(first) is tuple and all(type(v) is float for v in first)
    assert np.array(first).tobytes() == given_start.tobytes()
    # each tick's control was copied before the policy rewrote its array
    spt = 5
    assert len(roll.controls) == policy.calls * spt
    for k in range(policy.calls):
        for row in roll.controls[k * spt:(k + 1) * spt]:
            np.testing.assert_array_equal(row, [0.1 * (k + 1), -0.05 * (k + 1)])
    # every recorded state is the step of the one before it
    dyn = platform_dynamics("uav")
    states, controls = roll.states.tolist(), roll.controls.tolist()
    for i in range(len(controls)):
        np.testing.assert_array_equal(
            roll.states[i + 1], dyn.step(tuple(states[i]), tuple(controls[i]), dyn.params.dt))


def _assert_same_rollout(a, b):
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.controls, b.controls)

    def records(roll):
        return [(g.index, g.outcome, g.crossed, g.t_cross, g.error,
                 None if g.point is None else g.point.tolist()) for g in roll.gates]

    assert records(a) == records(b)
    assert (a.terminal, a.duration) == (b.terminal, b.duration)


def test_observer_sees_every_tick_without_changing_the_rollout():
    track = _track([(1.5, 0.0, 1.0)], platform="quad")
    config = SimConfig(tick_hz=10.0, timeout=0.5)
    ticks = []
    probe = _HistoryProbe()
    observed = rollout(probe, track, config, observer=lambda *tick: ticks.append(tick))
    _assert_same_rollout(observed, rollout(_HistoryProbe(), track, config))

    # once per policy tick, with what the policy was given and what it returned
    assert len(ticks) == probe.calls == 5
    spt = round(0.1 / platform_dynamics("quad").params.dt)
    for k, ((t, state, target, history, control), seen) in enumerate(zip(ticks, probe.histories)):
        np.testing.assert_array_equal(history, seen)
        assert t == observed.times[k * spt]
        np.testing.assert_array_equal(state, observed.states[k * spt])
        np.testing.assert_array_equal(control, observed.controls[k * spt])
        assert target == 0


def test_observer_targets_follow_the_gate_records():
    track = reference_track("uav-slalom")
    config = SimConfig(tick_hz=10.0)
    ticks = []
    observed = rollout(expert_policy("uav"), track, config, rng=np.random.default_rng(3),
                       observer=lambda *tick: ticks.append(tick))
    _assert_same_rollout(observed, rollout(expert_policy("uav"), track, config,
                                           rng=np.random.default_rng(3)))
    assert sum(g.outcome == SUCCESS for g in observed.gates) > 1
    crossings = [g.t_cross for g in observed.gates if g.crossed]
    for t, _, target, _, _ in ticks:
        assert target == sum(1 for tc in crossings if tc <= t)


class _StateProbe(Policy):
    """The platform's expert, keeping the state of each observation."""

    def __init__(self, platform):
        self.platform = platform
        self.expert = expert_policy(platform)
        self.states = []

    def evaluate(self, obs):
        self.states.append(obs.state)
        return self.expert.evaluate(obs)


@pytest.mark.parametrize("name", ["uav-slalom", "quad-drift"])
def test_full_state_policy_and_the_observer_see_the_step_tuple(name):
    track = reference_track(name)
    config = SimConfig(tick_hz=10.0)
    probe = _StateProbe(track.platform)
    ticks = []
    roll = rollout(probe, track, config, observer=lambda *tick: ticks.append(tick))
    _assert_same_rollout(roll, rollout(expert_policy(track.platform), track, config))

    spt = steps_per_tick(config.tick_hz, platform_dynamics(track.platform).params.dt)
    assert len(probe.states) == len(ticks) == math.ceil((len(roll.times) - 1) / spt)
    for k, (seen, (_, state, _, _, _)) in enumerate(zip(probe.states, ticks)):
        row = roll.states[k * spt]
        # the tuple the last step returned (the start state's on the first
        # tick), Python floats with the recorded row's bits; the observer is
        # handed that same tuple
        assert type(seen) is tuple
        assert all(type(v) is float for v in seen)
        assert np.array(seen).tobytes() == row.tobytes()
        assert state is seen


class _Float32Expert(Policy):
    """The platform's expert with its control rounded to float32 and returned
    in the given form."""

    def __init__(self, platform, form):
        self.platform = platform
        self.expert = expert_policy(platform)
        self.form = form

    def evaluate(self, obs):
        return self.form(np.array(self.expert.evaluate(obs), dtype=np.float32))


# one control, as a policy may return it; the steppers compute in float32 on
# np.float32 entries, so the rollout must widen each form before a step
_CONTROL_FORMS = {
    "float64 tuple": lambda u: tuple(u.tolist()),
    "float32 array": lambda u: u,
    "list of float32": list,
    "tuple of float32": tuple,
}


@pytest.mark.parametrize("name", ["uav-slalom", "quad-drift"])
def test_rollout_widens_every_control_form_to_the_same_bytes(name):
    track = reference_track(name)
    config = SimConfig(tick_hz=10.0)
    rolls = {}
    for form, make in _CONTROL_FORMS.items():
        ticks = []
        rolls[form] = rollout(_Float32Expert(track.platform, make), track, config,
                              observer=lambda *tick: ticks.append(tick))
        # the observer, the recording and the steps share one tuple of floats
        for _, _, _, history, control in ticks:
            assert type(control) is tuple and all(type(v) is float for v in control)
            assert history.dtype == np.float64
    ref = rolls["float64 tuple"]
    assert len(ref.controls) > 0
    for form, roll in rolls.items():
        assert roll.controls.dtype == roll.states.dtype == np.float64, form
        assert roll.times.tobytes() == ref.times.tobytes(), form
        assert roll.states.tobytes() == ref.states.tobytes(), form
        assert roll.controls.tobytes() == ref.controls.tobytes(), form
        _assert_same_rollout(roll, ref)


# ---------------------------------------------------------------------------
# the mirror oracle: reflecting a track across the xz-plane reflects its
# closed loop
# ---------------------------------------------------------------------------

# the state entries that change sign under the reflection y -> -y: y, and
# every angle, rate and velocity about the x or z axis or along y
_MIRRORED_STATE = {"uav": [1, 3], "quad": [1, 4, 6, 8, 9, 11]}
_MIRRORED_CONTROL = {"uav": [0], "quad": [1, 3]}
_YAW = {"uav": 3, "quad": 8}
# fixed before the first comparison was made, not fitted to it
MIRROR_TOL = 1e-9


def _mirror_track(track):
    """The track reflected across the xz-plane: each keyframe's center y and
    yaw negated, moving gates' schedules included; the arenas are symmetric
    in y."""
    gates = tuple(replace(g, keyframes=tuple((t, np.asarray(c) * (1.0, -1.0, 1.0), -yaw)
                                             for t, c, yaw in g.keyframes))
                  for g in track.gates)
    return replace(track, gates=gates)


def _mirror(values, columns):
    out = np.array(values, dtype=np.float64)
    out[..., columns] *= -1.0
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(reference_track_names()),
       st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
@example("uav-slalom", None)
@example("uav-shift", None)
@example("uav-scatter", None)
@example("quad-turn", None)
@example("quad-scatter", None)
@example("quad-drift", None)
# finds of the search: a missed first gate, ring strikes on both platforms,
# and the largest state difference on each platform (2.3e-14 and 3.1e-15)
@example("uav-slalom", [0.08, 0.0, 0.0, 0.97, -0.939] + [0.0] * 7)
@example("uav-shift", [0.258, 0.0, -1.0, 0.871, 0.051] + [0.0] * 7)
@example("uav-scatter", [-0.2084471896486073, -0.14693816808036853, -0.5769714758964216, 0.0,
                         0.7783923980193332] + [0.0] * 7)
@example("quad-turn", [0.982, 0.0, 0.0, 0.209, -0.853, -0.23, -0.245, 0.0, 0.5, 0.09, 0.0, 0.0])
@example("quad-scatter", [-0.561, 0.0, -0.637, -0.733, -0.561, -0.733, -0.637, 0.0, -0.637,
                          -0.637, 0.301, -0.862])
def test_mirrored_track_mirrors_the_rollout(name, offsets):
    # offsets move every entry of the start state off the track's start pose
    # (None keeps the pose), so the quad also starts with a velocity, a tilt
    # and body rates; the expert flies both tracks
    track = reference_track(name)
    platform = track.platform
    mirror = _mirror_track(track)
    if offsets is None:
        start = mirrored_start = None
    else:
        dyn = platform_dynamics(platform)
        start = np.add(dyn.initial_state(*track.initial_pose()), offsets[:dyn.state_dim])
        mirrored_start = _mirror(start, _MIRRORED_STATE[platform])
    a = rollout(expert_policy(platform), track, init_state=start)
    b = rollout(expert_policy(platform), mirror, init_state=mirrored_start)

    assert b.terminal == a.terminal
    assert [g.outcome for g in b.gates] == [g.outcome for g in a.gates]
    assert [g.crossed for g in b.gates] == [g.crossed for g in a.gates]
    assert len(b.times) == len(a.times)
    np.testing.assert_array_equal(b.times, a.times)
    diff = b.states - _mirror(a.states, _MIRRORED_STATE[platform])
    # wrap_angle maps both -pi and pi to pi, so yaws are compared on the circle
    yaw = _YAW[platform]
    diff[:, yaw] = [wrap_angle(d) for d in diff[:, yaw].tolist()]
    assert np.abs(diff).max() <= MIRROR_TOL
    np.testing.assert_allclose(b.controls, _mirror(a.controls, _MIRRORED_CONTROL[platform]),
                               rtol=0.0, atol=MIRROR_TOL)
    for g, h in zip(a.gates, b.gates):
        if g.crossed:
            assert abs(h.t_cross - g.t_cross) <= MIRROR_TOL
            assert abs(h.error - g.error) <= MIRROR_TOL
            np.testing.assert_allclose(h.point, _mirror(g.point, [1]), rtol=0.0,
                                       atol=MIRROR_TOL)


class _MatrixPose(NamedTuple):
    """A camera pose given by its rotation matrix and translation, the two
    things gate_mask reads of a pose."""

    matrix: np.ndarray
    translation: np.ndarray

    def rotation_matrix(self) -> np.ndarray:
        return self.matrix


# the signs that mirror a world-from-camera rotation: world y (row 1) and
# camera x (column 0) negated
_MIRRORED_ROTATION = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]])


def _ring_edge_ties(track, pose, t, tol=1e-9):
    """The pixels whose ray meets a gate's plane in front of the camera
    within tol of one of its ring's edges, in plain numpy arithmetic: where
    the rounding of the pose can decide a mask bit."""
    camera = DEFAULT_CAMERA
    v, u = np.mgrid[0:camera.height, 0:camera.width].astype(np.float64)
    rays = np.stack([(u - camera.cx) / camera.fx, (v - camera.cy) / camera.fy,
                     np.ones_like(u)], axis=-1) @ pose.rotation_matrix().T
    ties = np.zeros(u.shape, dtype=bool)
    for gate in track.gates:
        center, _, normal, lateral, up = gate.frame_at(t)
        # a ray along the plane meets it at an infinite or NaN depth: no tie
        with np.errstate(divide="ignore", invalid="ignore"):
            depth = ((center - pose.translation) @ normal) / (rays @ normal)
            q = pose.translation + depth[..., None] * rays - center
            a, b = q @ lateral, q @ up
            r = np.hypot(a, b) if gate.shape == "circular" else np.maximum(abs(a), abs(b))
            edge = np.minimum(abs(r - gate.inner_half), abs(r - gate.outer_half))
        ties |= (depth > 0.0) & (edge <= tol)
    return ties


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([n for n in reference_track_names() if n.startswith("quad")]),
       st.integers(0, 2), st.floats(0.3, 4.0), st.floats(-0.5, 0.5), st.floats(-0.4, 0.4),
       st.floats(-0.4, 0.4), st.floats(0.0, 10.0))
@example("quad-drift", 0, 1.5, 0.0, 0.0, 0.0, 0.0)
@example("quad-turn", 1, 0.5, 0.3, -0.2, 0.4, 3.0)
@example("quad-scatter", 2, 2.0, -0.8, 0.5, -0.5, 6.0)
# a find: 0.3 m before quad-drift's moving gate on its axis, the rays of
# columns 2 and 158 (x = -+1.3) meet the plane at the inner edge, 0.39 m
@example("quad-drift", 1, 0.3, 0.0, 0.0, 0.0, 0.0)
def test_mirrored_track_mirrors_the_gate_mask(name, gate, standoff, side, rise, turn, t):
    # a pose before one of the track's gates (its frame at t, so moving gates
    # are met), and its mirror image: y and yaw negated, level as a quad's
    # camera is. The mirrored mask is the mask reflected about the principal
    # column cx: pixel column u's ray has x = u - cx, so column u mirrors
    # column 2 cx - u, and column 0 has no partner in the frame
    track = reference_track(name)
    mirror = _mirror_track(track)
    center, yaw, normal, lateral, up = track.gates[gate % len(track.gates)].frame_at(t)
    pos = center - standoff * normal + side * lateral + rise * up
    camera = DEFAULT_CAMERA
    assert camera.cx == camera.width / 2
    pose = camera_pose(pos, yaw + turn)
    mask = gate_mask(list(track.gates), camera, pose, t=t)
    assume(mask.any())   # a pose that sees no ring mirrors trivially
    # the exact mirror of the pose: world y and camera x negated in its
    # rotation matrix, which is all gate_mask reads of a rotation. Its mask
    # is the reflected mask on every pixel
    exact_pose = _MatrixPose(pose.rotation_matrix() * _MIRRORED_ROTATION,
                             pos * (1.0, -1.0, 1.0))
    exact = gate_mask(list(mirror.gates), camera, exact_pose, t=t)
    np.testing.assert_array_equal(exact[:, 1:], mask[:, :0:-1])
    # camera_pose of the mirrored yaw goes through a quaternion, so its
    # rotation need not be that mirror bit for bit; where it is not, a bit
    # may differ only where a ray meets a ring edge within rounding
    mirrored_pose = camera_pose(pos * (1.0, -1.0, 1.0), -(yaw + turn))
    mirrored = gate_mask(list(mirror.gates), camera, mirrored_pose, t=t)
    differ = mirrored != exact
    if np.array_equal(mirrored_pose.rotation_matrix(), exact_pose.matrix):
        assert not differ.any()
    else:
        ties = _ring_edge_ties(mirror, mirrored_pose, t) | _ring_edge_ties(mirror, exact_pose, t)
        assert not (differ & ~ties).any()


# ---------------------------------------------------------------------------
# the gate side: one fixed-order sum for the rollout and the crossing test
# ---------------------------------------------------------------------------

_SPECIAL = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e308, -1e308, 0.0, -0.0]
_KINDS = ["near", "near", "ulps", "ulps", "random", "special"]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 20.0, 1e6, 1e150]),
       st.sampled_from(_KINDS), st.booleans(),
       st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12]), st.integers(-4, 4),
       st.tuples(*[st.sampled_from(_SPECIAL + [None])] * 3))
# a few ulps off the plane, where the index-order sum is 0.0 (the far side)
# and a fused multiply-add of either product into the other, as some BLAS
# dot kernels use, is negative
@example(4, 1.0, "ulps", False, 0.0, 2, (None,) * 3)
@example(6, 1.0, "ulps", True, 0.0, -1, (None,) * 3)
@example(16, 20.0, "ulps", False, 0.0, 1, (None,) * 3)
@example(4, 1e6, "ulps", False, 0.0, -1, (None,) * 3)
@example(3, 1.0, "special", True, 0.0, 0, (math.nan, -0.0, math.inf))
def test_gate_side_is_the_index_order_sum(seed, scale, kind, moving, k, ulps, special):
    # the rollout's per-step side (plane_offset on the target's plane floats
    # and the state's floats) and signed_gate_distance on position arrays,
    # which detect_crossing and the rollout's coincident-plane loop use, both
    # give the bits of n0*(p0 - c0) + n1*(p1 - c1) + n2*(p2 - c2), summed in
    # index order; coordinates come from a seeded generator, since
    # hypothesis's own floats favour short values, whose products round exactly
    rng = np.random.default_rng(seed)
    center, yaw = rng.uniform(-scale, scale, 3), rng.uniform(-math.pi, math.pi)
    keyframes = None
    if moving:
        keyframes = ((0.0, center, yaw), (2.0, center + rng.uniform(-1.0, 1.0, 3), -yaw))
    gate = _gate(center, yaw=yaw, keyframes=keyframes)
    t = float(rng.uniform(0.0, 2.0))
    c, _, n, lateral, up = gate.frame_at(t)
    if kind == "near":
        s, u = rng.uniform(-scale, scale, 2)
        p = c + s * lateral + u * up + k * n
    elif kind == "ulps":
        # the plane equation solved for the coordinate along the normal's
        # largest component, then stepped a few ulps
        p = rng.uniform(-2 * scale, 2 * scale, 3)
        i = int(np.argmax(np.abs(n)))
        j, m = (i + 1) % 3, (i + 2) % 3
        p[i] = c[i] - (n[j] * (p[j] - c[j]) + n[m] * (p[m] - c[m])) / n[i]
        p[i] = step_ulps(float(p[i]), ulps)
    elif kind == "random":
        p = rng.uniform(-2 * scale, 2 * scale, 3)
    else:
        p = np.array([float(v) if w is None else w
                      for v, w in zip(rng.uniform(-scale, scale, 3), special)])
    with np.errstate(all="ignore"):
        terms = n * (p - c)
        want = float(terms[0] + terms[1] + terms[2])
        by_array = signed_gate_distance(gate, t, p)
    by_floats = plane_offset(gate.frame_plane_at(t)[1], *p.tolist())
    for got in (by_array, by_floats):
        assert type(got) is float
        assert got == want or math.isnan(got) and math.isnan(want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want) or math.isnan(want)


def test_static_plane_side_is_the_float_sum_away_from_the_plane():
    # the rollout's per-step side on a static gate's shared plane floats
    gate = _gate((5.0, 0.0, 2.0))
    plane = gate.frame_plane_at(0.0)[1]
    assert plane_offset(plane, 3.0, 1.0, 4.0) == -2.0
    assert plane_offset(plane, 6.5, -9.0, 0.0) == 1.5
    assert plane_offset(plane, 5.0, 7.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# refused configurations and starts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,name",
    [
        (dict(tick_hz=0.0), "tick_hz"),
        (dict(tick_hz=-50.0), "tick_hz"),
        (dict(tick_hz=math.nan), "tick_hz"),
        (dict(tick_hz=math.inf), "tick_hz"),
        (dict(timeout=0.0), "timeout"),
        (dict(timeout=-1.0), "timeout"),
        (dict(timeout=math.nan), "timeout"),
        (dict(timeout=math.inf), "timeout"),
    ],
)
def test_sim_config_refuses_values_that_break_a_rollout(kwargs, name):
    # constructions only: a config that slipped through could hover forever
    with pytest.raises(ValueError, match=name):
        SimConfig(**kwargs)


def test_sim_config_accepts_its_edge_values():
    SimConfig(tick_hz=1e-3, timeout=1e-9)
    SimConfig(timeout=None)


@pytest.mark.parametrize("platform,shape", [("uav", (3,)), ("uav", (12,)), ("quad", (5,)),
                                            ("quad", (1, 12)), ("uav", ())])
def test_rollout_refuses_an_init_state_of_the_wrong_shape(platform, shape):
    track = _track([(1.0, 0.0, 1.0)], platform=platform)
    n = platform_dynamics(platform).state_dim
    with pytest.raises(ValueError, match=rf"{platform!r} track must have shape \({n},\)"):
        rollout(ZeroPolicy(platform), track, init_state=np.zeros(shape))


# ---------------------------------------------------------------------------
# metrics and text outputs
# ---------------------------------------------------------------------------


def _fake_rollout(outcomes_errors, platform="uav", terminal=SUCCESS):
    gates = [
        GateRecord(i, outcome, crossed=err is not None, t_cross=0.5 * i if err is not None else None,
                   error=err)
        for i, (outcome, err) in enumerate(outcomes_errors)
    ]
    return Rollout(
        platform=platform,
        track_name="fake",
        times=np.array([0.0, 0.02]),
        states=np.zeros((2, 5)),
        controls=np.zeros((1, 2)),
        gates=gates,
        terminal=terminal,
        duration=0.02,
    )


def test_metrics_example():
    r1 = _fake_rollout([(SUCCESS, 0.1), (SUCCESS, 0.2)])
    r2 = _fake_rollout([(SUCCESS, 0.3), (TIMEOUT, None)], terminal=TIMEOUT)
    m = metrics([r1, r2])
    assert m["sr"] == 0.75
    assert m["mge"] == pytest.approx(0.2)
    assert m["gates"] == 4 and m["successes"] == 3


def test_metrics_no_successes():
    m = metrics([_fake_rollout([(MISS, 3.0)], terminal=TIMEOUT)])
    assert m["sr"] == 0.0
    assert m["mge"] is None
    with pytest.raises(ValueError):
        metrics([])


def test_trajectory_csv_round_trip():
    track = _track([(0.0, 0.0, 2.0)])
    roll = rollout(ExpertUavPolicy(), track)
    text = trajectory_csv(roll)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["t", "x", "y", "z", "yaw", "pitch", "u0", "u1"]
    assert len(rows) == 1 + len(roll.times)
    # the state row at t=0 has no control attached
    assert rows[1][6] == "" and rows[1][7] == ""
    # repr round-trips doubles exactly
    for i in (1, 5, len(rows) - 1):
        vals = [float(v) for v in rows[i][:6]]
        assert vals[0] == roll.times[i - 1]
        np.testing.assert_array_equal(vals[1:], roll.states[i - 1])
    assert float(rows[2][6]) == roll.controls[0][0]


def test_events_csv_format():
    r1 = _fake_rollout([(SUCCESS, 0.125), (TIMEOUT, None)], terminal=TIMEOUT)
    text = events_csv([r1])
    lines = text.strip().split("\n")
    assert lines[0] == "rollout,gate_idx,outcome,t_cross,error"
    assert lines[1] == "0,0,success,0.0,0.125"
    assert lines[2] == "0,1,timeout,,"
