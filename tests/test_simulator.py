"""Crossing detection, episode scoring, closed-loop rollouts, and the text
output formats."""

import csv
import io
import json
import math

import numpy as np
import pytest

from gatesim import simulator
from gatesim.dynamics import platform_dynamics
from gatesim.policies import ExpertUavPolicy, MaskCentroidPolicy, Policy, ZeroPolicy, expert_policy
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
    summary_json,
    trajectory_csv,
)
from gatesim.tracks import ARENAS, GATE_GEOMETRY, Gate, Track, reference_track


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


def test_classify_crossing_override_threshold():
    g = _gate((0, 0, 2))
    vhw = GATE_GEOMETRY["uav"]["vehicle_half_width"]
    assert classify_crossing(0.9, g, vhw) == FRAME_COLLISION
    assert classify_crossing(0.9, g, vhw, success_threshold=1.0) == SUCCESS


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
    assert roll.all_success and roll.success_count == 1
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
    assert roll.success_count == 1 and not roll.all_success


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


def test_rollout_success_threshold_override():
    # an offset start leaves a small residual crossing error; an absurdly
    # tight threshold reclassifies that pass as a ring strike
    track = _track([(0.0, 0.0, 2.0)])
    init = np.array([-6.0, 0.8, 2.3, 0.0, 0.0])
    loose = rollout(ExpertUavPolicy(), track, init_state=init)
    assert loose.terminal == SUCCESS
    tight = rollout(ExpertUavPolicy(), track, SimConfig(success_threshold=1e-9), init_state=init)
    assert tight.terminal == FRAME_COLLISION


def test_rollout_calls_detect_crossing_only_for_crossings(monkeypatch):
    # each step's end distance is carried into the next step, so the full
    # crossing test runs only on a sign change, and always confirms it
    hits = []

    def counting(*args):
        hits.append(detect_crossing(*args))
        return hits[-1]

    monkeypatch.setattr(simulator, "detect_crossing", counting)
    init = np.array([-6.0, 0.0, 2.0, 0.0, 0.0])
    runs = [
        (ZeroPolicy("uav"), _track([(0.0, -8.0, 2.0), (8.0, 0.0, 2.0)]), init),   # a miss
        (ZeroPolicy("uav"), _track([(0.0, -1.0, 2.0), (8.0, 0.0, 2.0)]), init),   # a strike
        (ZeroPolicy("uav"), _track([(0.0, 0.0, 2.0), (0.0, 0.0, 2.0)]), init),    # coincident
    ] + [(expert_policy(t.platform), t, None) for t in map(reference_track, (
        "uav-slalom", "uav-shift", "quad-drift", "quad-turn"))]
    for policy, track, init_state in runs:
        hits.clear()
        roll = rollout(policy, track, init_state=init_state)
        assert None not in hits
        assert len(hits) == sum(g.crossed for g in roll.gates) > 0
        assert [h[0] for h in hits] == [g.t_cross for g in roll.gates if g.crossed]


def test_rollout_platform_mismatch():
    with pytest.raises(ValueError):
        rollout(ExpertUavPolicy(), _track([(1.0, 0.0, 1.0)], platform="quad"))


def test_rollout_tick_rate_must_divide_dt():
    track = _track([(0.0, 0.0, 2.0)])
    with pytest.raises(ValueError):
        rollout(ExpertUavPolicy(), track, SimConfig(dt=0.02, tick_hz=30.0))


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
    start = platform_dynamics("uav").initial_state((-6.0, 0.0, 2.0), 0.0)
    given_start = start.copy()
    policy = _ReusedControl()
    roll = rollout(policy, track, SimConfig(tick_hz=10.0, timeout=0.5), init_state=start)
    start += 1.0
    np.testing.assert_array_equal(roll.states[0], given_start)
    # each tick's control was copied before the policy rewrote its array
    spt = 5
    assert len(roll.controls) == policy.calls * spt
    for k in range(policy.calls):
        for row in roll.controls[k * spt:(k + 1) * spt]:
            np.testing.assert_array_equal(row, [0.1 * (k + 1), -0.05 * (k + 1)])
    # every recorded state is the step of the one before it
    dyn = platform_dynamics("uav")
    for i in range(len(roll.controls)):
        np.testing.assert_array_equal(roll.states[i + 1],
                                      dyn.step(roll.states[i], roll.controls[i]))


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
    assert observed.success_count > 1
    crossings = [g.t_cross for g in observed.gates if g.crossed]
    for t, _, target, _, _ in ticks:
        assert target == sum(1 for tc in crossings if tc <= t)


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


def test_summary_json_content():
    r1 = _fake_rollout([(SUCCESS, 0.1)])
    r2 = _fake_rollout([(MISS, 2.0)], terminal=TIMEOUT)
    payload = json.loads(summary_json([r1, r2], extra={"note": "x"}))
    assert payload["sr"] == 0.5
    assert payload["terminals"] == ["success", "timeout"]
    assert payload["note"] == "x"
    # keys are emitted sorted, so the text is deterministic
    assert summary_json([r1, r2]) == summary_json([r1, r2])


def test_summary_json_null_mge():
    payload = json.loads(summary_json([_fake_rollout([(TIMEOUT, None)], terminal=TIMEOUT)]))
    assert payload["mge"] is None
