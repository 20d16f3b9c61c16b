"""Gate schedules, track geometry, perturbation, and the bundled tracks."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatesim.geometry import dot
from gatesim.tracks import (
    ARENAS,
    GATE_GEOMETRY,
    INIT_STANDOFF,
    Arena,
    Gate,
    Track,
    gate_axes,
    gate_splats,
    load_track,
    perturb_track,
    reference_track,
    reference_track_names,
    save_track,
    track_from_dict,
    track_from_layout,
    track_splats,
    track_to_dict,
)


def _uav_gate(center, yaw=0.0, keyframes=None):
    geo = GATE_GEOMETRY["uav"]
    if keyframes is not None:
        return Gate(geo["shape"], geo["inner_half"], geo["ring"], keyframes)
    return Gate.static(geo["shape"], geo["inner_half"], geo["ring"], center, yaw)


def _uav_track(centers, yaws=None):
    yaws = yaws if yaws is not None else [0.0] * len(centers)
    gates = tuple(_uav_gate(c, y) for c, y in zip(centers, yaws))
    return Track("t", "uav", gates, ARENAS["uav"])


def test_gate_axes_orthonormal():
    for yaw in (0.0, 0.7, -2.5, math.pi):
        n, l, u = gate_axes(yaw)
        np.testing.assert_allclose(n, [math.cos(yaw), math.sin(yaw), 0.0])
        np.testing.assert_allclose(np.cross(n, l), u, atol=1e-15)
        for v in (n, l, u):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-15


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(shape="triangle"),
        dict(inner_half=0.0),
        dict(ring=-0.1),
        dict(keyframes=()),
        dict(keyframes=((0.0, np.zeros(3), 0.0), (0.0, np.ones(3), 0.0))),
    ],
)
def test_gate_validation(kwargs):
    base = dict(
        shape="square",
        inner_half=1.0,
        ring=0.2,
        keyframes=((0.0, np.zeros(3), 0.0),),
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        Gate(**base)


def test_static_gate_pose_is_constant():
    g = _uav_gate((2.0, -1.0, 1.5), yaw=0.4)
    assert not g.moving
    for t in (-1.0, 0.0, 3.7, 100.0):
        c, y = g.pose_at(t)
        np.testing.assert_array_equal(c, [2.0, -1.0, 1.5])
        assert y == 0.4
    # returned centers are copies, not views into the schedule
    c, _ = g.pose_at(0.0)
    c[0] = 99.0
    np.testing.assert_array_equal(g.pose_at(0.0)[0], [2.0, -1.0, 1.5])


def test_moving_gate_linear_interpolation():
    # keyframes at t=0 (x=0) and t=4 (x=1): halfway in time is halfway in space
    g = _uav_gate(
        None,
        keyframes=(
            (0.0, np.array([0.0, 0.0, 1.0]), 0.0),
            (4.0, np.array([1.0, 0.0, 1.0]), 0.0),
        ),
    )
    assert g.moving
    c, _ = g.pose_at(2.0)
    np.testing.assert_allclose(c, [0.5, 0.0, 1.0])
    c, _ = g.pose_at(1.0)
    np.testing.assert_allclose(c, [0.25, 0.0, 1.0])


def test_moving_gate_clamps_outside_schedule():
    g = _uav_gate(
        None,
        keyframes=(
            (1.0, np.array([0.0, 0.0, 1.0]), 0.1),
            (3.0, np.array([2.0, 0.0, 1.0]), 0.5),
        ),
    )
    c, y = g.pose_at(-5.0)
    np.testing.assert_array_equal(c, [0.0, 0.0, 1.0])
    assert y == 0.1
    c, y = g.pose_at(10.0)
    np.testing.assert_array_equal(c, [2.0, 0.0, 1.0])
    assert y == 0.5


def test_moving_gate_hits_waypoints_exactly():
    kf = (
        (0.0, np.array([0.0, 0.0, 1.0]), 0.0),
        (2.0, np.array([1.0, 2.0, 1.5]), 0.8),
        (5.0, np.array([-1.0, 0.5, 2.0]), -0.3),
    )
    g = _uav_gate(None, keyframes=kf)
    for t, c, y in kf:
        cc, yy = g.pose_at(t)
        np.testing.assert_array_equal(cc, c)
        # interior waypoints pass through an angle wrap, costing one ulp
        assert abs(yy - y) < 1e-12


def test_moving_gate_yaw_takes_shortest_arc():
    # 3.0 -> -3.0 crosses the pi seam; midpoint must sit on the seam side,
    # not swing through zero
    g = _uav_gate(
        None,
        keyframes=(
            (0.0, np.zeros(3), 3.0),
            (2.0, np.zeros(3), -3.0),
        ),
    )
    _, y = g.pose_at(1.0)
    assert abs(abs(y) - math.pi) < 1e-12


def test_clearance_thresholds():
    uav = _uav_gate((0, 0, 2))
    assert uav.success_threshold(0.20) == pytest.approx(0.8)
    assert uav.outer_half == pytest.approx(1.2)
    assert uav.collision_bound(0.20) == pytest.approx(1.4)
    geo = GATE_GEOMETRY["quad"]
    quad = Gate.static(geo["shape"], geo["inner_half"], geo["ring"], (0, 0, 1), 0.0)
    assert quad.success_threshold(0.09) == pytest.approx(0.30)
    assert quad.collision_bound(0.09) == pytest.approx(0.58)


def test_track_validation():
    with pytest.raises(ValueError):
        Track("t", "uav", (), ARENAS["uav"])
    with pytest.raises(ValueError, match=r"^unknown platform 'boat'; accepted: quad, uav$"):
        Track("t", "boat", (_uav_gate((0, 0, 2)),), ARENAS["uav"])


def test_initial_pose_standoff():
    track = _uav_track([(0.0, 0.0, 2.0)])
    pos, yaw = track.initial_pose()
    np.testing.assert_allclose(pos, [-6.0, 0.0, 2.0])
    assert yaw == 0.0
    # yawed gate: standoff applied along the gate normal
    track = _uav_track([(0.0, 0.0, 2.0)], yaws=[math.pi / 2])
    pos, yaw = track.initial_pose()
    np.testing.assert_allclose(pos, [0.0, -6.0, 2.0], atol=1e-15)
    assert yaw == math.pi / 2


def test_initial_pose_clipped_to_arena():
    # gate close to the -x wall: the standoff point is pulled back inside
    track = _uav_track([(-18.0, 0.0, 2.0)])
    pos, _ = track.initial_pose()
    np.testing.assert_allclose(pos, [-19.5, 0.0, 2.0])


def test_timeout_floor_and_scaling():
    # one nearby gate: 3x the 6/7 s leg is below the 4 s floor
    assert _uav_track([(0.0, 0.0, 2.0)]).timeout() == 4.0
    # two legs of 6 m and 14 m at 7 m/s
    track = _uav_track([(0.0, 0.0, 2.0), (14.0, 0.0, 2.0)])
    assert track.timeout() == pytest.approx(3.0 * 20.0 / 7.0)


def test_perturb_zero_amplitude_is_identity(rng):
    track = reference_track("uav-shift")
    out = perturb_track(track, 0.0, rng)
    for g0, g1 in zip(track.gates, out.gates):
        for (t0, c0, y0), (t1, c1, y1) in zip(g0.keyframes, g1.keyframes):
            assert t0 == t1 and y0 == y1
            np.testing.assert_array_equal(np.asarray(c1), np.asarray(c0))


def test_perturb_support_and_shared_offset(rng):
    track = reference_track("uav-shift")
    worst = 0.0
    for _ in range(2000):
        out = perturb_track(track, 40.0, rng)
        deltas = []
        for g0, g1 in zip(track.gates, out.gates):
            d = [np.asarray(c1) - np.asarray(c0)
                 for (_, c0, _), (_, c1, _) in zip(g0.keyframes, g1.keyframes)]
            # one offset per gate, shared by every keyframe (recovered by
            # subtraction, so equality only holds to rounding)
            for dd in d[1:]:
                np.testing.assert_allclose(dd, d[0], atol=1e-12)
            deltas.append(d[0])
        worst = max(worst, np.abs(np.concatenate(deltas)).max())
    assert worst <= 0.40
    assert worst > 0.39  # 40 cm support is actually reached


def test_perturb_is_seeded():
    track = reference_track("quad-turn")
    a = perturb_track(track, 25.0, np.random.default_rng(7))
    b = perturb_track(track, 25.0, np.random.default_rng(7))
    for ga, gb in zip(a.gates, b.gates):
        np.testing.assert_array_equal(np.asarray(ga.keyframes[0][1]),
                                      np.asarray(gb.keyframes[0][1]))


def test_track_dict_round_trip():
    track = reference_track("uav-shift")  # includes a moving gate
    out = track_from_dict(track_to_dict(track))
    assert out.name == track.name and out.platform == track.platform
    assert out.arena.name == track.arena.name
    assert len(out.gates) == len(track.gates)
    for g0, g1 in zip(track.gates, out.gates):
        assert (g0.shape, g0.inner_half, g0.ring) == (g1.shape, g1.inner_half, g1.ring)
        assert len(g0.keyframes) == len(g1.keyframes)
        for (t0, c0, y0), (t1, c1, y1) in zip(g0.keyframes, g1.keyframes):
            assert t0 == t1 and y0 == y1
            np.testing.assert_array_equal(np.asarray(c0), np.asarray(c1))


def test_track_file_round_trip(tmp_path):
    track = reference_track("quad-drift")
    path = tmp_path / "t.json"
    save_track(path, track)
    text = path.read_text()
    assert text.endswith("\n")
    out = load_track(path)
    assert track_to_dict(out) == track_to_dict(track)
    # saving the loaded track reproduces the bytes
    save_track(tmp_path / "u.json", out)
    assert (tmp_path / "u.json").read_bytes() == path.read_bytes()


def test_reference_track_inventory():
    names = reference_track_names()
    assert names == [
        "quad-drift",
        "quad-scatter",
        "quad-turn",
        "uav-scatter",
        "uav-shift",
        "uav-slalom",
    ]
    platforms = [reference_track(n).platform for n in names]
    assert platforms.count("uav") == platforms.count("quad") == 3
    with pytest.raises(KeyError):
        reference_track("nope")


def test_reference_tracks_are_well_formed():
    for track in map(reference_track, reference_track_names()):
        geo = GATE_GEOMETRY[track.platform]
        arena = ARENAS[track.platform]
        assert track.arena.name == arena.name
        pos, _ = track.initial_pose()
        assert arena.contains(pos)
        for g in track.gates:
            assert g.shape == geo["shape"]
            assert g.inner_half == geo["inner_half"]
            assert g.ring == geo["ring"]
            for t, c, _ in g.keyframes:
                assert arena.contains(c)


def test_reference_moving_gate_speeds():
    # uav-shift gate 2 translates at exactly 2 m/s, quad-drift at 0.25 m/s
    shift = reference_track("uav-shift").gates[1]
    (t0, c0, _), (t1, c1, _) = shift.keyframes
    assert np.linalg.norm(np.asarray(c1) - np.asarray(c0)) / (t1 - t0) == pytest.approx(2.0, abs=1e-12)
    drift = reference_track("quad-drift").gates[1]
    (t0, c0, _), (t1, c1, _) = drift.keyframes
    # stored as 10-digit decimals, so exact only to ~1e-9
    assert np.linalg.norm(np.asarray(c1) - np.asarray(c0)) / (t1 - t0) == pytest.approx(0.25, abs=1e-9)


def test_track_from_layout():
    layout = [0.0, 1.0, 2.0, 0.3, 4.0, -1.0, 1.5, -0.2]
    track = track_from_layout(layout, "quad")
    assert track.name == "layout" and track.platform == "quad"
    assert len(track.gates) == 2 and not any(g.moving for g in track.gates)
    np.testing.assert_array_equal(track.gates[0].pose_at(0)[0], [0.0, 1.0, 2.0])
    assert track.gates[0].pose_at(0)[1] == 0.3
    np.testing.assert_array_equal(track.gates[1].pose_at(0)[0], [4.0, -1.0, 1.5])
    assert track.gates[1].pose_at(0)[1] == -0.2
    with pytest.raises(ValueError):
        track_from_layout([0.0] * 7, "quad")


def test_gate_splats_tile_the_ring():
    g = _uav_gate((3.0, -2.0, 1.5), yaw=0.6)
    scene = gate_splats(g)
    assert len(scene) > 0
    normal, lateral, up = gate_axes(0.6)
    rel = scene.means - g.pose_at(0.0)[0]
    # splats lie in the gate plane
    assert np.abs(rel @ normal).max() < 1e-12
    # square ring: max-norm distance from the axis inside [inner, outer]
    a = rel @ lateral
    b = rel @ up
    d = np.maximum(np.abs(a), np.abs(b))
    assert d.min() >= g.inner_half - 1e-12
    assert d.max() <= g.outer_half + 1e-12
    np.testing.assert_array_equal(scene.opacities, np.full(len(scene), 0.97))
    # isotropic splats with sigma = spacing / 2
    np.testing.assert_allclose(scene.scales, g.ring / 6.0)


def test_gate_splats_circular_band():
    geo = GATE_GEOMETRY["quad"]
    g = Gate.static(geo["shape"], geo["inner_half"], geo["ring"], (1.0, 0.0, 1.2), 0.0)
    scene = gate_splats(g)
    rel = scene.means - np.array([1.0, 0.0, 1.2])
    d = np.hypot(rel @ np.array([0.0, 1.0, 0.0]), rel[:, 2])
    assert d.min() >= g.inner_half - 1e-12
    assert d.max() <= g.outer_half + 1e-12


def test_gate_splats_follow_schedule():
    track = reference_track("uav-shift")
    g = track.gates[1]
    early = gate_splats(g, t=0.0)
    late = gate_splats(g, t=100.0)
    c0, _ = g.pose_at(0.0)
    c1, _ = g.pose_at(100.0)
    np.testing.assert_allclose(late.means.mean(axis=0) - early.means.mean(axis=0), c1 - c0, atol=1e-9)


def test_track_splats_object_tags():
    track = reference_track("uav-scatter")
    scene = track_splats(track)
    names = sorted(scene.objects)
    assert names == [f"gate_{i + 1}" for i in range(len(track.gates))]
    got = np.sort(np.concatenate([scene.objects[n] for n in names]))
    np.testing.assert_array_equal(got, np.arange(len(scene)))
    # per-gate splats match a standalone build of the same gate
    first = scene.objects["gate_1"]
    alone = gate_splats(track.gates[0], color=scene.colors[first[0]])
    np.testing.assert_array_equal(scene.means[first], alone.means)


# ---------------------------------------------------------------------------
# scalar fast paths against the array expressions they replaced
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _array_contains(arena, p):
    p = np.asarray(p, dtype=np.float64)
    return bool(np.all(p >= arena.lo) and np.all(p <= arena.hi))


def _coordinate(lo, hi):
    edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
             math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf),
             0.0, -0.0, math.inf, -math.inf, math.nan]
    return st.one_of(st.sampled_from(edges), st.floats(lo - 1.0, hi + 1.0))


@PROPERTY
@given(st.sampled_from(sorted(ARENAS)), st.data())
def test_arena_contains_matches_the_array_test(name, data):
    arena = ARENAS[name]
    p = [data.draw(_coordinate(float(lo), float(hi))) for lo, hi in zip(arena.lo, arena.hi)]
    want = _array_contains(arena, p)
    assert arena.contains(p) is want
    assert arena.contains(np.array(p)) is want
    if any(math.isnan(v) for v in p):
        assert want is False


_finite = st.floats(-50.0, 50.0)
_yaws = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, math.pi, -math.pi]))


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@PROPERTY
@given(st.sampled_from(sorted(GATE_GEOMETRY)), st.tuples(_finite, _finite, _finite), _yaws,
       st.floats(-1e3, 1e3))
def test_static_gate_frame_is_its_pose_and_axes(platform, center, yaw, t):
    geo = GATE_GEOMETRY[platform]
    g = Gate.static(geo["shape"], geo["inner_half"], geo["ring"], center, yaw)
    frame = g.frame_at(t)
    c, y = g.pose_at(t)
    assert _bits(frame.center) == _bits(c) and _bits(frame.yaw) == _bits(y)
    assert [_bits(a) for a in frame[2:]] == [_bits(a) for a in gate_axes(y)]
    # computed once: every time gets the same frame
    assert g.frame_at(t + 1.0) is frame


@PROPERTY
@given(st.tuples(_finite, _finite, _finite), st.tuples(_finite, _finite, _finite), _yaws,
       _yaws, st.floats(-1.0, 5.0))
def test_moving_gate_frame_is_its_pose_and_axes(c0, c1, y0, y1, t):
    g = _uav_gate(None, keyframes=((0.0, np.array(c0), y0), (4.0, np.array(c1), y1)))
    frame = g.frame_at(t)
    c, y = g.pose_at(t)
    assert _bits(frame.center) == _bits(c) and _bits(frame.yaw) == _bits(y)
    assert [_bits(a) for a in frame[2:]] == [_bits(a) for a in gate_axes(y)]
    assert frame.center.flags.writeable


@PROPERTY
@given(st.tuples(_finite, _finite, _finite), _yaws)
def test_static_gate_frame_is_read_only_and_owns_its_center(center, yaw):
    given_center = np.array(center)
    g = _uav_gate(given_center, yaw)
    frame = g.frame_at(0.0)
    for a in (frame.center, frame.normal, frame.lateral, frame.up):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    # mutating the caller's array moves neither the frame nor the schedule
    given_center += 7.0
    assert _bits(frame.center) == _bits(center)
    assert _bits(g.pose_at(0.0)[0]) == _bits(center)
    # a pickled gate (as sent to worker processes) rebuilds the same frame
    copy = pickle.loads(pickle.dumps(g))
    assert not copy.frame_at(0.0).center.flags.writeable
    assert [_bits(a) for a in copy.frame_at(0.0)] == [_bits(a) for a in frame]


# ---------------------------------------------------------------------------
# the start pose and timeout on floats against their array formulas
# ---------------------------------------------------------------------------


def _array_initial_pose(track):
    """Track.initial_pose as an array formula: np.clip of the standoff point."""
    center, yaw, normal, _, _ = track.gates[0].frame_at(0.0)
    pos = np.clip(center - INIT_STANDOFF[track.platform] * normal,
                  track.arena.lo + 0.5, track.arena.hi - 0.5)
    return pos, yaw


def _array_timeout(track):
    """Track.timeout on arrays, each leg the root of geometry.dot's sum."""
    prev, _ = _array_initial_pose(track)
    t = 0.0
    for g in track.gates:
        c = g.pose_at(0.0)[0]
        d = (c - prev).tolist()
        t += math.sqrt(dot(d, d)) / track.nominal_speed
        prev = c
    return max(4.0, 3.0 * t)


def _one_gate(platform, center, yaw, arena=None):
    geo = GATE_GEOMETRY[platform]
    gate = Gate.static(geo["shape"], geo["inner_half"], geo["ring"], center, yaw)
    return Track("one-gate", platform, (gate,), arena or ARENAS[platform])


def _clamped_start_tracks():
    """(track, axis, side) for one-gate tracks whose unclamped start point
    lies below ("lo") or above ("hi") the clamp range on each axis, or on one
    of its bounds ("on"), on both platforms; the standoff runs along x or y
    with the gate's yaw, and z is the gate's own."""
    cases = []
    for platform, arena in ARENAS.items():
        (xl, xh), (yl, yh), (zl, zh) = arena.bounds
        xm, ym, zm = (xl + xh) / 2, (yl + yh) / 2, (zl + zh) / 2
        cases += [
            (_one_gate(platform, (xl + 1.0, ym, zm), 0.0), 0, "lo"),
            (_one_gate(platform, (xh - 1.0, ym, zm), math.pi), 0, "hi"),
            (_one_gate(platform, (xm, yl + 1.0, zm), math.pi / 2), 1, "lo"),
            (_one_gate(platform, (xm, yh - 1.0, zm), -math.pi / 2), 1, "hi"),
            (_one_gate(platform, (xm, ym, zl + 0.2), 0.0), 2, "lo"),
            (_one_gate(platform, (xm, ym, zh - 0.2), 0.0), 2, "hi"),
            # the standoff point lands exactly on the lower x bound
            (_one_gate(platform, (xl + 0.5 + INIT_STANDOFF[platform], ym, zm), 0.0), 0, "on"),
        ]
    # -0.0 on a bound of 0.0: np.clip gives the bound, +0.0
    zero = Arena("zero", np.array([-20.0, -10.0, -0.5]), np.array([20.0, 10.0, 4.0]))
    cases.append((_one_gate("uav", (0.0, 0.0, -0.0), 0.0, zero), 2, "on"))
    return cases


def _moving_first_gate_track():
    """Two uav gates, the first moving on a schedule that t = 0 falls inside."""
    moving = _uav_gate(None, keyframes=((-1.0, np.array([-4.0, 1.0, 1.5]), 0.3),
                                        (2.0, np.array([-2.0, -1.0, 2.5]), -0.2)))
    return Track("moving", "uav", (moving, _uav_gate((9.0, 2.0, 2.0), 0.1)), ARENAS["uav"])


def _start_pose_tracks():
    named = [(reference_track(n), n) for n in reference_track_names()]
    clamped = [(t, f"{t.platform}-axis{axis}-{side}") for t, axis, side in _clamped_start_tracks()]
    return named + clamped + [(_moving_first_gate_track(), "moving-first-gate")]


@pytest.mark.parametrize("track", [t for t, _ in _start_pose_tracks()],
                         ids=[name for _, name in _start_pose_tracks()])
def test_start_pose_and_timeout_have_the_bits_of_the_array_formulas(track):
    pos, yaw = track.initial_pose()
    want_pos, want_yaw = _array_initial_pose(track)
    assert type(pos) is tuple and len(pos) == 3 and all(type(v) is float for v in pos)
    assert np.array(pos).tobytes() == want_pos.tobytes()
    assert _bits(yaw) == _bits(want_yaw)
    assert _bits(track.timeout()) == _bits(_array_timeout(track))


@pytest.mark.parametrize("track, axis, side", _clamped_start_tracks())
def test_clamped_start_cases_reach_the_clamp(track, axis, side):
    # each case exercises the bound it names
    center, _, normal, _, _ = track.gates[0].frame_at(0.0)
    p = (center - INIT_STANDOFF[track.platform] * normal)[axis]
    lo, hi = track.arena.lo[axis] + 0.5, track.arena.hi[axis] - 0.5
    assert {"lo": p < lo, "hi": p > hi, "on": p == lo}[side]
