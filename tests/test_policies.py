"""Expert controllers, the mask-centroid policy, perception noise, and the
synthetic learner."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import step_ulps
from gatesim import policies
from gatesim.dynamics import platform_dynamics
from gatesim.geometry import dot
from gatesim.policies import (
    AIM_STANDOFF,
    CONTROL_LIMITS,
    ExpertQuadPolicy,
    ExpertUavPolicy,
    FullStateObs,
    MaskCentroidPolicy,
    MaskObs,
    NoiseParams,
    NoisyMaskPolicy,
    Policy,
    SyntheticLearner,
    ZeroPolicy,
    _aim_point,
    expert_policy,
    expert_quad_control,
    expert_uav_control,
    gate_velocity,
    largest_component_centroid,
    layout_of_gates,
    noisy_perception,
)
from gatesim.refinement import GridPartition, TrainingRecord
from gatesim.render import DEFAULT_CAMERA
from gatesim.simulator import SimConfig, rollout
from gatesim.tracks import GATE_GEOMETRY, Gate, track_from_layout


def _gate(center, yaw=0.0, platform="uav", keyframes=None):
    geo = GATE_GEOMETRY[platform]
    if keyframes is not None:
        return Gate(geo["shape"], geo["inner_half"], geo["ring"], keyframes)
    return Gate.static(geo["shape"], geo["inner_half"], geo["ring"], center, yaw)


def _uav_obs(pos, psi=0.0, theta=0.0, gate=None, t=0.0):
    gate = gate if gate is not None else _gate((10.0, 0.0, 2.0))
    state = np.array([pos[0], pos[1], pos[2], psi, theta])
    return FullStateObs(t=t, state=state, gates=(gate,), target_index=0)


def _quad_obs(pos, psi=0.0, gate=None, t=0.0):
    gate = gate if gate is not None else _gate((2.0, 0.0, 1.0), platform="quad")
    state = np.zeros(12)
    state[:3] = pos
    state[8] = psi
    return FullStateObs(t=t, state=state, gates=(gate,), target_index=0)


# ---------------------------------------------------------------------------
# experts
# ---------------------------------------------------------------------------


def test_uav_expert_zero_on_collision_course():
    u = expert_uav_control(_uav_obs((0.0, 0.0, 2.0)))
    np.testing.assert_array_equal(u, [0.0, 0.0])


def test_uav_expert_proportional_yaw():
    # bearing error of 0.2 rad with gain 2 commands 0.4 rad/s
    u = expert_uav_control(_uav_obs((0.0, 0.0, 2.0), psi=-0.2))
    assert u[0] == pytest.approx(0.4, abs=1e-12)
    assert u[1] == 0.0


def test_uav_expert_pitch_channel():
    # carrot 9 m ahead and 9 m up: elevation pi/4, pitch 0, gain 2
    u = expert_uav_control(_uav_obs((0.0, 0.0, 2.0), gate=_gate((10.0, 0.0, 11.0))))
    assert u[1] == pytest.approx(2.0 * math.pi / 4.0, abs=1e-12)


def test_aim_point_switches_sides():
    gate = _gate((10.0, 0.0, 2.0))
    # far on the approach side: carrot sits 1 m before the plane
    aim, _, _, _ = _aim_point(gate, 0.0, np.array([0.0, 0.0, 2.0]), 7.0)
    np.testing.assert_allclose(aim, [9.0, 0.0, 2.0])
    # inside the standoff or past the plane: carrot flips to the far side,
    # so the bearing keeps pointing through the gate
    aim, _, _, _ = _aim_point(gate, 0.0, np.array([9.5, 0.0, 2.0]), 7.0)
    np.testing.assert_allclose(aim, [11.0, 0.0, 2.0])
    aim, _, _, _ = _aim_point(gate, 0.0, np.array([10.3, 0.0, 2.0]), 7.0)
    np.testing.assert_allclose(aim, [11.0, 0.0, 2.0])


def test_aim_point_leads_moving_gate():
    # gate translating +y at 0.25 m/s; two fixed-point passes land within a
    # few cm of the self-consistent intercept
    gate = _gate(
        None,
        platform="quad",
        keyframes=((0.0, np.array([2.0, 0.0, 1.0]), 0.0), (8.0, np.array([2.0, 2.0, 1.0]), 0.0)),
    )
    pos = np.array([0.0, 0.0, 1.0])
    aim, center, _, t_hit = _aim_point(gate, 0.0, pos, 1.0)
    t1 = float(np.linalg.norm(gate.pose_at(0.0)[0] - pos))          # first pass
    t2 = float(np.linalg.norm(gate.pose_at(t1)[0] - pos))           # second pass
    np.testing.assert_allclose(center, gate.pose_at(t2)[0])
    assert t_hit == pytest.approx(t2)
    np.testing.assert_allclose(aim, center - [1.0, 0.0, 0.0])


def test_aim_point_of_a_static_gate_skips_the_lead_passes(rng):
    # a static frame does not depend on time, so the lead passes cannot move
    # the aim, center or yaw; the returned time is the query time itself
    for _ in range(50):
        gate = _gate(rng.uniform(-5.0, 5.0, 3), yaw=rng.uniform(-math.pi, math.pi))
        pos, t = rng.uniform(-8.0, 8.0, 3), rng.uniform(0.0, 10.0)
        aim, center, yaw, t_aim = _aim_point(gate, t, pos, 7.0)
        frame = gate.frame_at(t + 123.0)
        side = -1.0 if dot(frame.normal, pos - frame.center) < -AIM_STANDOFF else 1.0
        np.testing.assert_array_equal(aim, frame.center + side * AIM_STANDOFF * frame.normal)
        assert center is frame.center and yaw == frame.yaw and t_aim == t


# zero, subnormal, ordinary and huge offsets; squares of the huge ones overflow
_OFFSET = st.one_of(st.just(0.0), st.floats(-1e-160, 1e-160), st.floats(-1e3, 1e3),
                    st.floats(-1e200, 1e200))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(_OFFSET, _OFFSET, _OFFSET), st.floats(0.5, 10.0))
@example((0.0, -0.0, 0.0), 7.0)
@example((1e-160, -3e-161, 5e-324), 1.0)     # squares below the subnormals
@example((3.0, -4.0, 12.0), 2.0)
@example((1e200, -1e200, 1.0), 3.0)          # squares overflow to an infinite distance
def test_aim_point_distance_is_the_root_of_the_fixed_order_dot(offset, speed):
    # the gate starts at the origin, so the first pass measures exactly the
    # drawn offset; it moves, so the second pass measures another vector
    gate = _gate(None, keyframes=((0.0, np.zeros(3), 0.0), (8.0, np.array([3.0, 2.0, 1.0]), 0.0)))
    pos = -np.array(offset)
    t_go = 0.0
    for _ in range(2):
        d = (gate.pose_at(t_go)[0] - pos).tolist()
        t_go = math.sqrt(dot(d, d)) / speed
    _, _, _, t_hit = _aim_point(gate, 0.0, pos, speed)
    assert np.float64(t_hit).tobytes() == np.float64(t_go).tobytes()


# ---------------------------------------------------------------------------
# the float aim point against the numpy one it replaced
# ---------------------------------------------------------------------------


def _numpy_aim_point(gate, t, position, speed):
    """The aim point on numpy 3-vectors, as written before its side test and
    carrot moved to floats; the side is the elementwise index-order sum."""
    t_go = 0.0
    if gate.moving:
        for _ in range(2):
            d = gate.frame_at(t + t_go).center - position
            t_go = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) / speed
    center, yaw, normal, _, _ = gate.frame_at(t + t_go)
    terms = normal * (position - center)
    signed = terms[0] + terms[1] + terms[2]
    if signed < -AIM_STANDOFF:
        aim = center - AIM_STANDOFF * normal
    else:
        aim = center + AIM_STANDOFF * normal
    return aim, center, yaw, t + t_go


# signed zeros, short and long values, and large coordinates
_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-20.0, 20.0),
                   st.floats(-1e6, 1e6), st.floats(-1e150, 1e150))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.booleans(), st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, math.pi]),
                                st.floats(-math.pi, math.pi)),
       st.tuples(_COORD, _COORD, _COORD), st.sampled_from(["standoff", "standoff", "free"]),
       st.integers(-3, 3), st.tuples(_COORD, _COORD, _COORD), st.floats(0.0, 10.0),
       st.floats(0.5, 10.0))
# on the standoff, where the index-order side is -1.0 (the far side) and a
# fused multiply-add of either product into the other, as some BLAS dot
# kernels use, gives -1.0000000000000002 (the near side)
@example(False, 0.023103141687882633, (10.138, 16.554, -0.954), "standoff", -1,
         (3.64, 2.02, 0.0), 0.0, 7.0)
@example(False, -2.1605644909863835, (8.465, 13.764, 7.112), "standoff", 0,
         (-1.31, 0.76, 0.0), 2.0, 1.0)
@example(True, 2.4848358427630064, (-1.613, 10.205, -0.595), "standoff", -1,
         (2.09, -1.83, 0.0), 0.5, 7.0)
def test_aim_point_matches_the_numpy_aim_point_bit_for_bit(moving, yaw, center, kind, ulps,
                                                           free, t, speed):
    # a moving gate slides along its lateral axis at a fixed yaw, so a point
    # placed off the start frame keeps its offset along the normal at every
    # time the lead passes may pick
    start = _gate(center, yaw=yaw)
    frame = start.frame_at(0.0)
    gate = start
    if moving:
        end = frame.center + 3.0 * frame.lateral
        gate = _gate(None, keyframes=((0.0, frame.center, yaw), (8.0, end, yaw)))
    if kind == "standoff":
        # exactly at -AIM_STANDOFF along the normal, or a few ulps either side
        # of it, where the order of the side's sum decides the side; the
        # in-plane offset comes from the free draw
        k = step_ulps(-AIM_STANDOFF, ulps)
        s, u = free[0], free[1]
        pos = frame.center + s * frame.lateral + u * frame.up + k * frame.normal
    else:
        pos = np.array(free)
    with np.errstate(all="ignore"):
        want = _numpy_aim_point(gate, t, pos, speed)
        got = _aim_point(gate, t, tuple(pos.tolist()), speed)
    assert np.array(got[0]).tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()
    assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()


def test_aim_point_on_the_standoff_aims_past_the_gate():
    # the side test is strict: a vehicle exactly AIM_STANDOFF before the
    # plane already aims through it, one ulp further back it does not
    gate = _gate((10.0, 0.0, 2.0))
    assert _aim_point(gate, 0.0, (9.0, 0.0, 2.0), 7.0)[0] == (11.0, 0.0, 2.0)
    assert _aim_point(gate, 0.0, (step_ulps(9.0, 1), 0.0, 2.0), 7.0)[0] == (11.0, 0.0, 2.0)
    assert _aim_point(gate, 0.0, (step_ulps(9.0, -1), 0.0, 2.0), 7.0)[0] == (9.0, 0.0, 2.0)


def test_quad_expert_zero_on_collision_course():
    u = expert_quad_control(_quad_obs((0.0, 0.0, 1.0)))
    np.testing.assert_array_equal(u, [1.0, 0.0, 0.0, 0.0])


def test_quad_expert_offsets():
    # carrot offset 0.5 m left and 0.3 m up with unit forward speed
    u = expert_quad_control(_quad_obs((0.0, -0.5, 0.7)))
    assert u[0] == 1.0
    assert u[1] == pytest.approx(1.2 * 0.5, abs=1e-12)
    assert u[2] == pytest.approx(1.2 * 0.3, abs=1e-12)
    assert u[3] == 0.0


def test_quad_expert_yaw_alignment():
    u = expert_quad_control(_quad_obs((0.0, 0.0, 1.0), psi=0.3))
    assert u[3] == pytest.approx(0.8 * -0.3, abs=1e-12)


def test_quad_expert_feedforward_is_gate_velocity():
    moving = _gate(
        None,
        platform="quad",
        keyframes=((0.0, np.array([2.0, 0.0, 1.0]), 0.0), (8.0, np.array([2.0, 2.0, 1.0]), 0.0)),
    )
    obs = _quad_obs((0.0, 0.0, 1.0), gate=moving)
    u_moving = expert_quad_control(obs)
    # freeze the gate at its predicted pose: the tracking terms match and the
    # only difference left is the velocity feedforward
    _, center, yaw, _ = _aim_point(moving, 0.0, obs.state[:3], 1.0)
    frozen = _gate(center, yaw=yaw, platform="quad")
    u_frozen = expert_quad_control(_quad_obs((0.0, 0.0, 1.0), gate=frozen))
    assert type(u_moving) is tuple and type(u_frozen) is tuple
    np.testing.assert_allclose(np.subtract(u_moving, u_frozen), [0.0, 0.25, 0.0, 0.0], atol=1e-12)


def test_gate_velocity():
    moving = _gate(
        None,
        keyframes=((0.0, np.zeros(3), 0.0), (4.0, np.array([0.0, 1.0, 0.0]), 0.0)),
    )
    np.testing.assert_allclose(gate_velocity(moving, 2.0), [0.0, 0.25, 0.0], atol=1e-12)
    # at t=0 the backward sample clamps to the schedule start
    np.testing.assert_allclose(gate_velocity(moving, 0.0), [0.0, 0.25, 0.0], atol=1e-12)
    np.testing.assert_array_equal(gate_velocity(_gate((1.0, 2.0, 3.0)), 1.0), np.zeros(3))


def test_target_index_clamps():
    gates = (_gate((10.0, 0.0, 2.0)), _gate((20.0, 5.0, 2.0), yaw=0.5))
    obs = FullStateObs(0.0, np.array([0.0, 0.0, 2.0, 0.0, 0.0]), gates, target_index=7)
    u_last = expert_uav_control(
        FullStateObs(0.0, np.array([0.0, 0.0, 2.0, 0.0, 0.0]), gates, target_index=1)
    )
    np.testing.assert_array_equal(expert_uav_control(obs), u_last)


def test_expert_factory_and_zero_policy():
    assert isinstance(expert_policy("uav"), ExpertUavPolicy)
    assert isinstance(expert_policy("quad"), ExpertQuadPolicy)
    z = ZeroPolicy("uav")
    np.testing.assert_array_equal(z.evaluate(None), np.zeros(2))
    np.testing.assert_array_equal(ZeroPolicy("quad").evaluate(None), np.zeros(4))
    np.testing.assert_array_equal(CONTROL_LIMITS["uav"], [1.5, 1.0])
    np.testing.assert_array_equal(CONTROL_LIMITS["quad"], [2.0, 2.0, 2.0, 1.5])
    with pytest.raises(NotImplementedError):
        Policy().evaluate(None)


def _expert_gates(platform):
    """A static gate, a moving one and a yawed static one: targets 0-2, and 3
    past the last gate."""
    moving = ((0.0, np.array([3.0, -1.0, 1.5]), 0.2), (6.0, np.array([4.0, 1.5, 2.0]), -0.3))
    return (_gate((2.0, 0.5, 1.0), platform=platform),
            _gate(None, platform=platform, keyframes=moving),
            _gate((6.0, -2.0, 2.5), yaw=2.5, platform=platform))


_STATE_DIM = {"uav": 5, "quad": 12}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["uav", "quad"]),
       st.lists(st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]),
                          st.floats(-10.0, 10.0)), min_size=12, max_size=12),
       st.floats(0.0, 8.0), st.integers(0, 3))
@example("uav", [0.0] * 12, 0.0, 0)
@example("quad", [0.0] * 12, 0.0, 1)
@example("uav", [3.0, -1.0, 1.5, math.pi, -0.0] + [0.0] * 7, 0.0, 1)      # on the moving gate
@example("quad", [1.0, 0.5, 1.0] + [-0.0] * 5 + [-math.pi] + [0.0] * 3, 7.5, 3)
def test_expert_controls_of_a_state_tuple_are_python_floats(platform, values, t, target):
    # a rollout and cli export-dataset hand the expert a state tuple of Python
    # floats: the control is a tuple of control_dim finite Python floats, the
    # same bits on every call
    gates = _expert_gates(platform)
    state = tuple(values[:_STATE_DIM[platform]])
    expert = expert_policy(platform)
    u = expert.evaluate(FullStateObs(t, state, gates, target))
    assert type(u) is tuple and len(u) == platform_dynamics(platform).control_dim
    assert all(type(v) is float and math.isfinite(v) for v in u)
    again = expert.evaluate(FullStateObs(t, state, gates, target))
    assert np.array(again).tobytes() == np.array(u).tobytes()


@pytest.mark.parametrize("factory", [expert_policy, ZeroPolicy], ids=lambda f: f.__name__)
def test_unknown_platform_is_refused(factory):
    with pytest.raises(ValueError, match=r"^unknown platform 'boat'; accepted: quad, uav$"):
        factory("boat")


@pytest.mark.parametrize("platform", ["uav", "quad"])
def test_control_limits_are_the_clamp_bounds(platform):
    # on each channel alone, in either direction, the bytes of ten steps tell
    # the stepper's clamp: a command one ulp inside the limit flies otherwise
    # than one at it, so the limit passes the clamp unchanged, and one beyond
    # it flies as the limit does, so it comes back at the limit
    dyn = platform_dynamics(platform)
    limits = CONTROL_LIMITS[platform].tolist()
    assert len(limits) == dyn.control_dim

    def stepped(channel, value):
        u = [0.0] * dyn.control_dim
        u[channel] = value
        states = [dyn.initial_state((0.0, 0.0, 2.0), 0.3)]
        for _ in range(10):
            states.append(dyn.step(states[-1], tuple(u), dyn.params.dt))
        return np.array(states).tobytes()

    for i, limit in enumerate(limits):
        for sign in (1.0, -1.0):
            at = stepped(i, sign * limit)
            assert stepped(i, sign * math.nextafter(limit, 0.0)) != at
            assert stepped(i, 2.0 * sign * limit) == at


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def _components_by_flood_fill(mask):
    """Reference 4-connected labeling: raster scan with an explicit stack."""
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or seen[y, x]:
                continue
            stack = [(y, x)]
            seen[y, x] = True
            pix = []
            while stack:
                cy, cx = stack.pop()
                pix.append((cy, cx))
                for ny, nx in ((cy + 1, cx), (cy - 1, cx), (cy, cx + 1), (cy, cx - 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
            comps.append(sorted(pix))
    return comps


def _oracle_centroid(mask):
    comps = _components_by_flood_fill(mask)
    if not comps:
        return None
    best = max(comps, key=len)  # max() keeps the first of equal-sized comps
    ys = np.array([p[0] for p in best], dtype=np.float64)
    xs = np.array([p[1] for p in best], dtype=np.float64)
    return (float(xs.mean()), float(ys.mean())), len(best)


def test_centroid_of_block():
    mask = np.zeros((30, 30), dtype=bool)
    mask[9:12, 9:12] = True
    (x, y), area = largest_component_centroid(mask)
    assert (x, y) == (10.0, 10.0)
    assert area == 9


def test_centroid_empty_mask():
    assert largest_component_centroid(np.zeros((8, 8), dtype=bool)) is None


def test_centroid_uses_4_connectivity():
    # two pixels touching only diagonally are separate components
    mask = np.zeros((6, 6), dtype=bool)
    mask[1, 1] = True
    mask[2, 2] = True
    (x, y), area = largest_component_centroid(mask)
    assert area == 1
    assert (x, y) == (1.0, 1.0)  # tie resolved in raster order


def test_centroid_tie_breaks_in_raster_order():
    mask = np.zeros((8, 8), dtype=bool)
    mask[0, 0:2] = True
    mask[2, 3:5] = True
    (x, y), area = largest_component_centroid(mask)
    assert area == 2
    assert (x, y) == (0.5, 0.0)


def test_centroid_matches_flood_fill_oracle(rng):
    for _ in range(25):
        mask = rng.random((24, 32)) < 0.35
        got = largest_component_centroid(mask)
        want = _oracle_centroid(mask)
        if want is None:
            assert got is None
            continue
        assert got[1] == want[1]
        assert got[0] == pytest.approx(want[0], abs=1e-12)


def _full_frame_centroid(mask):
    """Reference: label the whole frame."""
    if not mask.any():
        return None
    labels, _ = ndimage.label(mask)
    areas = np.bincount(labels.ravel())[1:]
    best = int(np.argmax(areas)) + 1
    ys, xs = np.nonzero(labels == best)
    return (float(xs.mean()), float(ys.mean())), int(areas[best - 1])


def _edge_masks():
    """Masks touching each image border, the corners, a single pixel, an
    empty frame, and equal-area components that only the tie-break splits."""
    h, w = 120, 160
    masks = []
    for rows, cols in [
        (slice(0, 7), slice(40, 90)),       # top border
        (slice(110, 120), slice(40, 90)),   # bottom border
        (slice(30, 80), slice(0, 9)),       # left border
        (slice(30, 80), slice(151, 160)),   # right border
        (slice(0, 120), slice(0, 160)),     # the whole frame
        (slice(0, 1), slice(0, 1)),         # corner pixel
        (slice(119, 120), slice(159, 160)), # opposite corner pixel
        (slice(60, 61), slice(80, 81)),     # single interior pixel
        (slice(0, 0), slice(0, 0)),         # empty
    ]:
        mask = np.zeros((h, w), dtype=bool)
        mask[rows, cols] = True
        masks.append(mask)
    ring = np.zeros((h, w), dtype=bool)     # a ring leaving the frame on the left
    yy, xx = np.mgrid[0:h, 0:w]
    r = np.hypot(yy - 60.0, xx - 10.0)
    ring[(r >= 30.0) & (r <= 36.0)] = True
    masks.append(ring)
    tie = np.zeros((h, w), dtype=bool)      # equal areas, later one larger x
    tie[50:54, 120:124] = True
    tie[52:56, 20:24] = True
    masks.append(tie)
    tie_row = np.zeros((h, w), dtype=bool)  # equal areas on the same rows
    tie_row[10:12, 150:160] = True
    tie_row[10:12, 0:10] = True
    masks.append(tie_row)
    return masks


@pytest.mark.parametrize("index", range(12))
def test_centroid_window_matches_full_frame(index):
    mask = _edge_masks()[index]
    assert largest_component_centroid(mask) == _full_frame_centroid(mask)


def test_centroid_window_tie_break():
    mask = _edge_masks()[10]
    (x, y), area = largest_component_centroid(mask)
    assert area == 16 and (x, y) == (121.5, 51.5)  # the first one in raster order
    mask = _edge_masks()[11]
    assert largest_component_centroid(mask) == ((4.5, 10.5), 20)


def _random_patch_masks(rng, n):
    """Random 12 x 12 speckle patches, some cut by the border, plus a stray pixel."""
    for _ in range(n):
        noise = rng.random((120, 160)) < 0.5
        mask = np.zeros((120, 160), dtype=bool)
        y0, x0 = rng.integers(-6, 120), rng.integers(-6, 160)
        rows, cols = slice(max(0, y0), y0 + 12), slice(max(0, x0), x0 + 12)
        mask[rows, cols] = noise[rows, cols]
        mask[rng.integers(0, 120), rng.integers(0, 160)] = True
        yield mask


def test_centroid_window_matches_full_frame_random(rng):
    for mask in _random_patch_masks(rng, 40):
        assert largest_component_centroid(mask) == _full_frame_centroid(mask)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.sampled_from(["speckle", "frame"]))
def test_centroid_has_the_bits_of_np_mean(seed, density, kind):
    # speckle of any density, or a frame whose largest component covers
    # nearly all of it, up to the full 120 x 160 frame
    rng = np.random.default_rng(seed)
    if kind == "speckle":
        mask = rng.random((120, 160)) < density
    else:
        mask = np.ones((120, 160), dtype=bool)
        mask[rng.random((120, 160)) < 0.05 * density] = False
    assert largest_component_centroid(mask) == _full_frame_centroid(mask)


def _spiral(mask):
    """Draw a square spiral wall with a one-pixel corridor: each inner turn
    starts a run that joins the outer wall only rows further down."""
    h, w = mask.shape
    top, left, bottom, right = 0, 0, h - 1, w - 1
    while top <= bottom and left <= right:
        mask[top, left:right + 1] = True
        mask[top:bottom + 1, right] = True
        mask[bottom, left:right + 1] = True
        mask[top + 2:bottom + 1, left] = True
        if top + 2 <= bottom:
            mask[top + 2, left:max(left, right - 1)] = True
        top, left, bottom, right = top + 2, left + 2, bottom - 2, right - 2


def _run_sweep_mask(kind, frame, seed):
    """A mask that stresses one case of the run sweep, on a 1 x w, h x 1,
    small or 240 x 320 frame."""
    rng = np.random.default_rng(seed)
    h, w = {"row": (1, int(rng.integers(1, 40))), "column": (int(rng.integers(1, 40)), 1),
            "small": tuple(rng.integers(1, 16, size=2).tolist()), "large": (240, 320)}[frame]
    mask = np.zeros((h, w), dtype=bool)
    if kind == "wrap":
        # runs ending in the last column above runs starting in column 0
        for y in range(h):
            tail, head = rng.integers(0, w + 1, size=2)
            if rng.random() < 0.7:
                mask[y, w - tail:] = True
            if rng.random() < 0.7:
                mask[y, :min(head, w - tail)] = True
    elif kind == "checker":
        # diagonal contacts everywhere, a few pixels cleared or filled in
        yy, xx = np.indices((h, w))
        mask[:] = (yy + xx) % 2 == rng.integers(2)
        mask[rng.random((h, w)) < 0.1 * rng.random()] = False
        mask[rng.random((h, w)) < 0.05 * rng.random()] = True
    elif kind == "comb":
        # teeth of random heights standing on one base row, and a spiral
        # below: roots that later rows fold into earlier ones
        base = int(rng.integers(0, h))
        x = int(rng.integers(0, 2))
        while x < w:
            mask[int(rng.integers(0, base + 1)):base + 1, x] = True
            x += int(rng.integers(2, 4))
        mask[base, :w if rng.random() < 0.7 else int(rng.integers(1, w + 1))] = True
        _spiral(mask[base + 1:, int(rng.integers(0, w)):])
    else:
        # equal-area blocks of different shapes, apart from each other:
        # only the raster-order tie-break picks one
        area = int(rng.choice([1, 2, 4, 6, 12]))
        sides = [a for a in range(1, area + 1) if area % a == 0]
        cell = area + 1
        for y0 in range(0, h, cell):
            for x0 in range(0, w, cell):
                if rng.random() < 0.6:
                    a = int(rng.choice(sides))
                    dy, dx = rng.integers(0, cell - a), rng.integers(0, cell - area // a)
                    mask[y0 + dy:y0 + dy + a, x0 + dx:x0 + dx + area // a] = True
    return mask


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["wrap", "checker", "comb", "ties"]),
       st.sampled_from(["row", "column", "small", "large"]),
       st.sampled_from([bool, np.uint8, np.float64]), st.integers(0, 2**32 - 1))
# cases found against broken sweeps: runs joined at a corner (8-connected),
# the union keeping the later root, and no clear column between rows
@example("wrap", "small", bool, 0)
@example("checker", "small", bool, 0)
@example("wrap", "column", bool, 1)
@example("wrap", "column", bool, 9)
@example("wrap", "row", bool, 0)
def test_run_sweep_matches_full_frame_labelling(kind, frame, dtype, seed):
    # bool, uint8 0/255 or float 0/1 input
    mask = _run_sweep_mask(kind, frame, seed).astype(dtype)
    if dtype is np.uint8:
        mask *= 255
    assert largest_component_centroid(mask) == _full_frame_centroid(mask)


# ---------------------------------------------------------------------------
# mask-centroid controller
# ---------------------------------------------------------------------------


def _mask_with_pixel(x, y, camera=DEFAULT_CAMERA):
    mask = np.zeros((camera.height, camera.width), dtype=bool)
    mask[y, x] = True
    return mask


def test_mask_controller_centered_target():
    policy = MaskCentroidPolicy()
    obs = MaskObs(_mask_with_pixel(80, 60), np.zeros((4, 4)))
    np.testing.assert_array_equal(policy.evaluate(obs), [1.0, 0.0, 0.0, 0.0])


def test_mask_controller_rightward_target():
    # centroid 10% of the image width right of center commands vy = 0.4 * -0.1
    policy = MaskCentroidPolicy()
    obs = MaskObs(_mask_with_pixel(96, 60), np.zeros((4, 4)))
    u = policy.evaluate(obs)
    assert u[1] == pytest.approx(0.4 * -0.1, abs=1e-12)
    assert u[2] == 0.0
    assert u[3] == pytest.approx(2.5 * -0.1, abs=1e-12)


def test_mask_controller_vertical_channel():
    # centroid above center (smaller v): positive climb command
    policy = MaskCentroidPolicy()
    u = policy.evaluate(MaskObs(_mask_with_pixel(80, 30), np.zeros((4, 4))))
    assert u[2] == pytest.approx(2.0 * 0.25, abs=1e-12)
    assert u[1] == 0.0 and u[3] == 0.0


def test_mask_controller_hold_and_search():
    policy = MaskCentroidPolicy()
    # before seeing anything: full stop
    empty = MaskObs(np.zeros((120, 160), dtype=bool), np.zeros((4, 4)))
    np.testing.assert_array_equal(policy.evaluate(empty), np.zeros(4))
    # after a sighting, losing the mask keeps vy and yaw rate, drops vx/vz
    seen = policy.evaluate(MaskObs(_mask_with_pixel(40, 20), np.zeros((4, 4))))
    held = policy.evaluate(empty)
    np.testing.assert_array_equal(held, [0.0, seen[1], 0.0, seen[3]])
    # reset clears the hold
    policy.reset()
    np.testing.assert_array_equal(policy.evaluate(empty), np.zeros(4))


def test_mask_controller_output_bounds():
    # worst-case centroid offsets stay inside the platform saturations
    policy = MaskCentroidPolicy()
    for x, y in [(0, 0), (159, 119), (0, 119), (159, 0)]:
        u = policy.evaluate(MaskObs(_mask_with_pixel(x, y), np.zeros((4, 4))))
        assert np.all(np.abs(u) <= CONTROL_LIMITS["quad"] + 1e-12)


# ---------------------------------------------------------------------------
# perception noise
# ---------------------------------------------------------------------------


def _shift(mask, dy, dx):
    out = np.zeros_like(mask)
    h, w = mask.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    out[ys, xs] = mask[slice(max(-dy, 0), min(h - dy, h)), slice(max(-dx, 0), min(w - dx, w))]
    return out


def _boundary_band(mask):
    """1 px band around the edge: cross-dilation minus cross-erosion."""
    shifts = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    grown = np.zeros_like(mask)
    shrunk = np.ones_like(mask)
    for dy, dx in shifts:
        grown |= _shift(mask, dy, dx)
        shrunk &= _shift(mask, dy, dx)
    return grown & ~shrunk


def _rect_mask():
    mask = np.zeros((80, 100), dtype=bool)
    mask[20:60, 25:85] = True
    return mask


def test_noise_disabled_is_identity():
    mask = _rect_mask()
    out = noisy_perception(mask, NoiseParams(flip_prob=0.0, blob_rate=0.0), np.random.default_rng(0))
    np.testing.assert_array_equal(out, mask)
    assert out is not mask


def test_noise_full_flip_inverts_the_band():
    mask = _rect_mask()
    out = noisy_perception(mask, NoiseParams(flip_prob=1.0, blob_rate=0.0), np.random.default_rng(0))
    np.testing.assert_array_equal(out, mask ^ _boundary_band(mask))


def test_noise_flip_count_is_binomial():
    mask = _rect_mask()
    band = _boundary_band(mask)
    n = int(band.sum())
    p = 0.15
    flipped = []
    rng = np.random.default_rng(42)
    for _ in range(30):
        out = noisy_perception(mask, NoiseParams(flip_prob=p, blob_rate=0.0), rng)
        changed = out ^ mask
        assert not (changed & ~band).any()  # flips never leave the band
        flipped.append(int(changed.sum()))
    mean = np.mean(flipped)
    sigma = math.sqrt(n * p * (1 - p) / len(flipped))
    assert abs(mean - n * p) < 4 * sigma


def test_noise_blobs_only_add():
    mask = _rect_mask()
    rng = np.random.default_rng(3)
    out = noisy_perception(mask, NoiseParams(flip_prob=0.0, blob_rate=20.0), rng)
    assert (out & mask).sum() == mask.sum()  # original pixels survive
    assert out.sum() > mask.sum()            # and blobs landed


def test_noise_is_seeded():
    mask = _rect_mask()
    params = NoiseParams()
    a = noisy_perception(mask, params, np.random.default_rng(9))
    b = noisy_perception(mask, params, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_noisy_mask_policy_reproducible():
    mask = np.zeros((120, 160), dtype=bool)
    mask[50:70, 70:90] = True
    obs = MaskObs(mask, np.zeros((4, 4)))

    def run(seed):
        policy = NoisyMaskPolicy(MaskCentroidPolicy())
        policy.reset(np.random.default_rng(seed))
        return np.stack([policy.evaluate(obs) for _ in range(5)])

    np.testing.assert_array_equal(run(5), run(5))
    assert not np.array_equal(run(5), run(6))


def test_noisy_mask_policy_starts_from_the_rollout_default_stream():
    # rollout resets a policy with default_rng(0) when given no rng; an
    # unreset policy draws that same stream
    mask = _rect_mask()
    obs = MaskObs(mask, np.zeros((4, 4)))
    fresh = NoisyMaskPolicy(MaskCentroidPolicy())
    reset = NoisyMaskPolicy(MaskCentroidPolicy())
    reset.reset(np.random.default_rng(0))
    for _ in range(3):
        u_fresh, u_reset = fresh.evaluate(obs), reset.evaluate(obs)
        assert type(u_fresh) is tuple and type(u_reset) is tuple
        assert np.array(u_fresh).tobytes() == np.array(u_reset).tobytes()
    assert fresh._rng.bit_generator.state == reset._rng.bit_generator.state


def _reference_blobs(out, params, rng):
    """Stamp the Poisson-many blobs into out, with a fresh disk per blob."""
    n_blobs = int(rng.poisson(params.blob_rate))
    h, w = out.shape
    for _ in range(n_blobs):
        cy = rng.integers(0, h)
        cx = rng.integers(0, w)
        r = params.blob_radius
        ys, xs = np.ogrid[-r : r + 1, -r : r + 1]
        disk = ys * ys + xs * xs <= r * r
        y0, y1 = max(0, cy - r), min(h, cy + r + 1)
        x0, x1 = max(0, cx - r), min(w, cx + r + 1)
        out[y0:y1, x0:x1] |= disk[r - (cy - y0) : r + (y1 - cy), r - (cx - x0) : r + (x1 - cx)]
    return out


def _full_frame_noisy_perception(mask, params, rng):
    """Reference: boundary band over the whole frame."""
    out = mask.copy()
    if params.flip_prob > 0.0:
        band = ndimage.binary_dilation(mask) & ~ndimage.binary_erosion(mask)
        out ^= band & (rng.random(mask.shape) < params.flip_prob)
    return _reference_blobs(out, params, rng)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_boundary_band_matches_scipy_morphology(h, w, density, seed):
    # every mask touches the array border, where both operations see zeros
    mask = np.random.default_rng(seed).random((h, w)) < density
    want = ndimage.binary_dilation(mask) & ~ndimage.binary_erosion(mask)
    np.testing.assert_array_equal(policies._boundary_band(mask), want)


@pytest.mark.parametrize("params", [NoiseParams(), NoiseParams(flip_prob=1.0, blob_rate=0.0),
                                    NoiseParams(flip_prob=0.5, blob_rate=4.0)])
@pytest.mark.parametrize("index", range(12))
def test_noise_window_matches_full_frame(index, params):
    mask = _edge_masks()[index]
    for seed in range(3):
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = noisy_perception(mask, params, got_rng)
        want = _full_frame_noisy_perception(mask, params, want_rng)
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_noise_window_matches_full_frame_random(rng):
    params = NoiseParams()
    for seed, mask in enumerate(_random_patch_masks(rng, 40)):
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(noisy_perception(mask, params, got_rng),
                                      _full_frame_noisy_perception(mask, params, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _reference_noisy_perception(mask, params, rng):
    """Reference: the windowed noisy_perception with a padded boundary band,
    as first written."""
    out = mask.copy()
    if params.flip_prob > 0.0:
        draws = rng.random(mask.shape)
        window = policies._mask_window(mask, pad=2)
        if window is not None:
            padded = np.pad(mask[window], 1)
            up, down = padded[:-2, 1:-1], padded[2:, 1:-1]
            left, right = padded[1:-1, :-2], padded[1:-1, 2:]
            dilated = mask[window] | up | down | left | right
            eroded = mask[window] & up & down & left & right
            out[window] ^= dilated & ~eroded & (draws[window] < params.flip_prob)
    return _reference_blobs(out, params, rng)


@st.composite
def _perception_mask(draw):
    """Empty, full, random, or random with a set pixel on every frame edge."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["empty", "full", "random", "edges"]))
    if kind == "empty":
        return np.zeros((h, w), dtype=bool)
    if kind == "full":
        return np.ones((h, w), dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((h, w)) < draw(st.floats(0.0, 1.0))
    if kind == "edges":
        mask[0, rng.integers(0, w)] = mask[-1, rng.integers(0, w)] = True
        mask[rng.integers(0, h), 0] = mask[rng.integers(0, h), -1] = True
    return mask


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_perception_mask(),
       st.builds(NoiseParams, st.sampled_from([0.0, 0.15, 1.0]), st.floats(0.0, 20.0),
                 st.integers(0, 3)),
       st.integers(0, 2**32 - 1))
@example(_rect_mask(), NoiseParams(), 0)
def test_noisy_perception_matches_reference(mask, params, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = noisy_perception(mask, params, got_rng)
    want = _reference_noisy_perception(mask, params, want_rng)
    np.testing.assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _perception_ticks(rng, n):
    """n frame-sized masks, one per tick: speckle patches and an empty frame."""
    masks = list(_random_patch_masks(rng, n - 1))
    return masks[:n // 2] + [np.zeros((120, 160), dtype=bool)] + masks[n // 2:]


def _assert_same_stream(masks, got_rng, want_rng):
    """noisy_perception and the reference agree on every tick and leave
    their generators in equal states after each."""
    for mask in masks:
        got = noisy_perception(mask, NoiseParams(), got_rng)
        want = _reference_noisy_perception(mask, NoiseParams(), want_rng)
        np.testing.assert_array_equal(got, want)
        # assert_equal also compares the key array of an MT19937 state
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)


def test_noisy_perception_stream_over_successive_ticks(rng):
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    stale = 0
    for mask in _perception_ticks(rng, 8):
        _assert_same_stream([mask], got_rng, want_rng)
        state = got_rng.bit_generator.state
        stale += state["has_uint32"] == 0 and state["uinteger"] != 0
    # the blobs' integer draws left a spent 32-bit value behind
    assert stale


def test_noisy_perception_stream_keeps_a_buffered_32_bit_value(rng):
    got_rng, want_rng = np.random.default_rng(6), np.random.default_rng(6)
    for r in (got_rng, want_rng):
        r.integers(0, 120)
    assert got_rng.bit_generator.state["has_uint32"] == 1
    _assert_same_stream(_perception_ticks(rng, 4), got_rng, want_rng)


def test_noisy_perception_stream_on_another_bit_generator(rng):
    # not a PCG64 stream, so the whole frame is drawn
    got_rng = np.random.Generator(np.random.MT19937(7))
    want_rng = np.random.Generator(np.random.MT19937(7))
    _assert_same_stream(_perception_ticks(rng, 4), got_rng, want_rng)


# ---------------------------------------------------------------------------
# synthetic learner
# ---------------------------------------------------------------------------


def _unit_partition():
    return GridPartition(np.zeros(8), np.ones(8), (2, 1, 1, 1, 1, 1, 1, 1))


def test_learner_sigma_schedule():
    part = _unit_partition()
    learner = SyntheticLearner(part, expert_policy("uav"), n0=20.0)
    np.testing.assert_allclose(learner.sigma(0), 0.4 * CONTROL_LIMITS["uav"])
    layout = np.full(8, 0.25)
    cell = part.cell_of(layout)
    learner.train([TrainingRecord(layout, cell, 0.0) for _ in range(60)])
    # n = 3 n0 halves the noise
    np.testing.assert_allclose(learner.sigma(cell), 0.2 * CONTROL_LIMITS["uav"])
    other = part.cell_of(np.full(8, 0.75))
    np.testing.assert_allclose(learner.sigma(other), 0.4 * CONTROL_LIMITS["uav"])


def test_learner_noise_matches_sigma():
    part = _unit_partition()
    learner = SyntheticLearner(part, expert_policy("uav"), n0=20.0)
    gate = _gate((0.25, 0.25, 0.25), yaw=0.25)
    obs = FullStateObs(0.0, np.array([0.0, 0.0, 0.25, 0.0, 0.0]), (gate,), 0)
    clean = expert_uav_control(obs)
    learner.reset(np.random.default_rng(100))
    assert type(learner.evaluate(obs)) is tuple
    learner.reset(np.random.default_rng(100))
    errs = np.stack([np.subtract(learner.evaluate(obs), clean) for _ in range(4000)])
    np.testing.assert_allclose(errs.std(axis=0), learner.sigma(0), rtol=0.05)
    np.testing.assert_allclose(errs.mean(axis=0), 0.0, atol=0.02)
    # training shrinks the error in that grid only
    layout = layout_of_gates((gate,))
    learner.train([TrainingRecord(layout, 0, 0.0) for _ in range(60)])
    learner.reset(np.random.default_rng(101))
    errs = np.stack([np.subtract(learner.evaluate(obs), clean) for _ in range(4000)])
    np.testing.assert_allclose(errs.std(axis=0), 0.2 * CONTROL_LIMITS["uav"], rtol=0.05)


def test_learner_reset_reproducible():
    part = _unit_partition()
    learner = SyntheticLearner(part, expert_policy("quad"), n0=5.0)
    gate = _gate((0.25, 0.25, 0.25), yaw=0.25, platform="quad")
    obs = FullStateObs(0.0, np.zeros(12), (gate,), 0)
    learner.reset(np.random.default_rng(77))
    a = np.stack([learner.evaluate(obs) for _ in range(3)])
    learner.reset(np.random.default_rng(77))
    b = np.stack([learner.evaluate(obs) for _ in range(3)])
    np.testing.assert_array_equal(a, b)


def test_learner_starts_from_the_rollout_default_stream():
    part = _unit_partition()
    gate = _gate((0.25, 0.25, 0.25), yaw=0.25)
    obs = FullStateObs(0.0, np.array([0.0, 0.0, 0.25, 0.0, 0.0]), (gate,), 0)
    fresh, reset = (SyntheticLearner(part, expert_policy("uav"), n0=5.0)
                    for _ in range(2))
    reset.reset(np.random.default_rng(0))
    for _ in range(3):
        u_fresh, u_reset = fresh.evaluate(obs), reset.evaluate(obs)
        assert type(u_fresh) is tuple and type(u_reset) is tuple
        assert np.array(u_fresh).tobytes() == np.array(u_reset).tobytes()


class _UncachedLearner(SyntheticLearner):
    """The learner without its caches: the layout cell and sigma recomputed
    every tick, and the noise drawn with rng.normal."""

    def evaluate(self, obs):
        u = self.expert.evaluate(obs)
        cell = self.partition.cell_of(layout_of_gates(obs.gates))
        return u + self._rng.normal(0.0, self.sigma(cell))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["uav", "quad"]),
       st.lists(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8), min_size=2, max_size=3),
       st.integers(0, 2**32 - 1))
def test_learner_cell_cache_matches_an_uncached_learner(platform, unit_layouts, seed):
    part = GridPartition.default(platform, per_gate_counts=(2, 2, 1, 1))

    def learner(cls):
        pol = cls(part, expert_policy(platform), n0=2.0)
        pol.counts[:] = np.arange(part.m)   # a different sigma in every cell
        return pol

    cached, reference = learner(SyntheticLearner), learner(_UncachedLearner)
    # each learner flies every track in turn, as in a validation pass, and
    # then each track again after its counts were written directly, which
    # the cached sigma must notice although train() never ran
    tracks = [track_from_layout(part.lo + np.array(unit) * (part.hi - part.lo), platform)
              for unit in unit_layouts]
    for k, track in enumerate(tracks + tracks):
        runs = []
        for pol in (cached, reference):
            if k >= len(tracks):
                pol.counts[:] = (pol.counts * 7 + k) % 13
            roll = rollout(pol, track, SimConfig(tick_hz=10.0), rng=np.random.default_rng(seed))
            runs.append((roll, pol._rng.bit_generator.state))
        (a, state_a), (b, state_b) = runs
        assert a.controls.tobytes() == b.controls.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert state_a == state_b


def test_layout_of_gates():
    g1 = _gate((1.0, 2.0, 3.0), yaw=0.4)
    g2 = _gate((5.0, -1.0, 2.0), yaw=-0.2)
    np.testing.assert_array_equal(
        layout_of_gates((g1, g2)), [1.0, 2.0, 3.0, 0.4, 5.0, -1.0, 2.0, -0.2]
    )
    # a single gate doubles so the layout stays 8-dimensional
    np.testing.assert_array_equal(
        layout_of_gates((g1,)), [1.0, 2.0, 3.0, 0.4, 1.0, 2.0, 3.0, 0.4]
    )
    # extra gates beyond the first two are ignored
    np.testing.assert_array_equal(layout_of_gates((g1, g2, g1)), layout_of_gates((g1, g2)))
