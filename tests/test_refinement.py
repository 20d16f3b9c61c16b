"""Layout grids, loss-to-weight mixing, rejection sampling, and the
refinement loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatesim import refinement
from gatesim.policies import SyntheticLearner, ZeroPolicy, expert_policy
from gatesim.refinement import (
    LAYOUT_BOXES,
    GridPartition,
    IterationStats,
    PgrConfig,
    TrainingRecord,
    _SeedChain,
    build_validation_set,
    feasibility_check,
    grid_losses,
    initial_samples,
    observability_check,
    pgr_pair,
    pgr_run,
    resample,
    task_loss,
    top_decile_allocation,
    weights,
    worst_grid_loss,
)
from gatesim.simulator import MISS, SUCCESS, TIMEOUT, GateRecord, Rollout, SimConfig
from gatesim.tracks import track_from_layout

# a friendly uav box: both gates near the straight centerline, so every
# sampled layout is observable and easily flown by the expert
FRIENDLY_LO = np.array([-8.0, -0.5, 1.8, -0.05, 4.0, -0.5, 1.8, -0.05])
FRIENDLY_HI = np.array([-4.0, 0.5, 2.2, 0.05, 6.0, 0.5, 2.2, 0.05])


def _friendly_partition(splits=(2, 1, 1, 1, 1, 1, 1, 1)):
    return GridPartition(FRIENDLY_LO, FRIENDLY_HI, splits)


def _sim():
    return SimConfig(tick_hz=10.0, record_trajectory=False)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        GridPartition(np.ones(8), np.ones(8), np.ones(8, dtype=int))
    with pytest.raises(ValueError):
        GridPartition(np.zeros(8), np.ones(8), (2, 1, 1, 1, 0, 1, 1, 1))


def test_partition_size_is_exact_for_large_grids():
    # np.prod wraps around int64 on these: 256**8 gave 0
    for n in (256, 1000):
        assert GridPartition(np.zeros(8), np.ones(8), [n] * 8).m == n ** 8


def test_pgr_config_caps_the_cell_count():
    assert PgrConfig(per_gate_counts=(4, 4, 4, 4)).per_gate_counts == (4, 4, 4, 4)   # 65,536
    with pytest.raises(ValueError, match=r"per_gate_counts \[4, 4, 4, 5\] give 102400 grid "
                                         r"cells; at most 65536 are accepted"):
        PgrConfig(per_gate_counts=(4, 4, 4, 5))


def test_partition_size_and_widths():
    part = GridPartition(np.zeros(8), np.full(8, 2.0), (2, 3, 1, 1, 1, 1, 1, 1))
    assert part.m == 6
    np.testing.assert_allclose(part.widths, [1.0, 2.0 / 3.0, 2, 2, 2, 2, 2, 2])


def test_partition_sample_round_trips_through_cell_of(rng):
    part = GridPartition(np.array([-1, 0, 2, -0.4, 3, 0, 2, -0.4]),
                         np.array([1, 2, 4, 0.4, 6, 2, 4, 0.4]),
                         (2, 2, 1, 2, 1, 1, 2, 1))
    for cell in range(part.m):
        for _ in range(10):
            assert part.cell_of(part.sample(cell, rng)) == cell


def test_partition_boundary_bins():
    part = GridPartition(np.zeros(8), np.ones(8), (2, 2, 2, 2, 2, 2, 2, 2))
    assert part.cell_of(np.zeros(8)) == 0
    # the upper bound belongs to the top bin, so the box tiles exactly
    assert part.cell_of(np.ones(8)) == part.m - 1
    # out-of-box layouts clip to the edge bins
    assert part.cell_of(np.full(8, -10.0)) == 0
    assert part.cell_of(np.full(8, 10.0)) == part.m - 1


def _array_cell_of(part, layout):
    """The array formula of cell_of: np.floor, np.clip, np.ravel_multi_index."""
    v = np.asarray(layout, dtype=np.float64).reshape(8)
    bins = np.floor((v - part.lo) / part.widths).astype(np.int64)
    bins = np.clip(bins, 0, part.counts - 1)
    return int(np.ravel_multi_index(bins, part.counts))


def _coordinate(part, i, spec):
    """One layout coordinate from its spec: ("unit", u) at lo + u (hi - lo),
    u in [-0.5, 1.5] reaching outside the box; ("edge", k) on the k-th bin
    edge lo + k * width, k clamped to the bin count; ("hi",) on the upper
    bound itself; ("far", x) at x, far outside."""
    lo, hi, width, count = (float(part.lo[i]), float(part.hi[i]), float(part.widths[i]),
                            int(part.counts[i]))
    kind = spec[0]
    if kind == "unit":
        return lo + spec[1] * (hi - lo)
    if kind == "edge":
        return lo + min(spec[1], count) * width
    return hi if kind == "hi" else spec[1]


_SPEC = st.one_of(st.tuples(st.just("unit"), st.floats(-0.5, 1.5)),
                  st.tuples(st.just("edge"), st.integers(0, 5)),
                  st.just(("hi",)),
                  st.tuples(st.just("far"), st.sampled_from([-1e12, -1e6, 1e6, 1e12])))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(LAYOUT_BOXES)), st.tuples(*[st.integers(1, 5)] * 4),
       st.lists(_SPEC, min_size=8, max_size=8))
@example("uav", (2, 2, 2, 2), [("hi",)] * 8)                       # the upper bound: the top cell
@example("quad", (3, 2, 5, 4), [("edge", 1)] * 8)                  # on the first inner edges
@example("uav", (3, 3, 3, 3), [("edge", 2)] * 4 + [("edge", 0)] * 4)
@example("quad", (1, 4, 2, 3), [("edge", 5)] * 8)                  # the top edge, lo + n * width
@example("uav", (2, 1, 2, 1), [("far", -1e12), ("far", 1e12)] * 4)
def test_cell_of_matches_the_array_formula(platform, counts, specs):
    part = GridPartition.default(platform, counts)
    layout = [_coordinate(part, i, spec) for i, spec in enumerate(specs)]
    cell = part.cell_of(layout)
    assert type(cell) is int
    assert cell == _array_cell_of(part, layout) == part.cell_of(np.array(layout))


def test_partition_cell_bounds_tile_the_box():
    part = GridPartition(np.zeros(8), np.full(8, 3.0), (3, 1, 1, 1, 2, 1, 1, 1))
    lo0, _ = part.cell_bounds(0)
    np.testing.assert_array_equal(lo0, part.lo)
    _, hi_last = part.cell_bounds(part.m - 1)
    np.testing.assert_allclose(hi_last, part.hi)
    # bounds of the cell reported by cell_of do contain the point
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.uniform(part.lo, part.hi)
        lo, hi = part.cell_bounds(part.cell_of(v))
        assert np.all(v >= lo - 1e-12) and np.all(v <= hi + 1e-12)


_BOX = st.one_of(
    st.sampled_from(sorted(LAYOUT_BOXES)).map(lambda name: LAYOUT_BOXES[name]),
    # any box: a lower corner and a positive extent per dimension
    st.tuples(st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8),
              st.lists(st.floats(1e-3, 1e3), min_size=8, max_size=8))
      .map(lambda b: (np.array(b[0]), np.array(b[0]) + np.array(b[1]))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_BOX, st.lists(st.integers(1, 5), min_size=8, max_size=8), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
@example(LAYOUT_BOXES["uav"], [5] * 8, 0.0, 0)                       # the first cell
@example(LAYOUT_BOXES["quad"], [5] * 8, 1.0, 1)                      # the last cell
@example(LAYOUT_BOXES["uav"], [3, 1, 2, 1, 3, 1, 2, 1], 0.5, 2)
def test_partition_sample_round_trips_through_cell_of_for_any_box(box, counts, at, seed):
    part = GridPartition(box[0], box[1], counts)
    cell = min(int(at * part.m), part.m - 1)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        assert part.cell_of(part.sample(cell, rng)) == cell


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_BOX, st.lists(st.integers(1, 5), min_size=8, max_size=8),
       st.lists(st.one_of(st.tuples(st.just("unit"), st.floats(0.0, 1.0)),
                          st.tuples(st.just("edge"), st.integers(0, 5)), st.just(("hi",))),
                min_size=8, max_size=8))
@example(LAYOUT_BOXES["uav"], [2] * 8, [("hi",)] * 8)                # the upper corner
@example(LAYOUT_BOXES["uav"], [3] * 8, [("edge", 1)] * 8)            # on inner edges
@example(LAYOUT_BOXES["quad"], [5] * 8, [("edge", 4)] * 8)
def test_partition_cell_bounds_tile_the_box_for_any_point(box, counts, specs):
    # the first cell starts at the lower corner and the last ends at the
    # upper one; neighbouring cells meet where one ends and the next starts;
    # each point of the box lies in the bounds of the cell cell_of gives it
    part = GridPartition(box[0], box[1], counts)
    tol = 1e-12 * np.maximum(np.abs(part.lo), np.abs(part.hi))
    lo0, _ = part.cell_bounds(0)
    assert lo0.tobytes() == part.lo.tobytes()
    _, hi_last = part.cell_bounds(part.m - 1)
    assert np.all(np.abs(hi_last - part.hi) <= tol)
    layout = np.array([_coordinate(part, i, spec) for i, spec in enumerate(specs)])
    cell = part.cell_of(layout)
    lo, hi = part.cell_bounds(cell)
    assert np.all(lo - tol <= layout) and np.all(layout <= hi + tol)
    bins = np.array(np.unravel_index(cell, part.counts))
    for d in np.flatnonzero(bins + 1 < part.counts):
        up = bins.copy()
        up[d] += 1
        next_lo, _ = part.cell_bounds(int(np.ravel_multi_index(up, part.counts)))
        assert abs(next_lo[d] - hi[d]) <= tol[d]


def test_default_partitions():
    part = GridPartition.default("uav", PgrConfig().per_gate_counts)
    assert part.m == 256
    np.testing.assert_array_equal(part.lo, LAYOUT_BOXES["uav"][0])
    np.testing.assert_array_equal(part.hi, LAYOUT_BOXES["uav"][1])
    assert GridPartition.default("quad", PgrConfig().per_gate_counts).m == 256
    assert GridPartition.default("uav", per_gate_counts=(2, 1, 1, 1)).m == 4


# ---------------------------------------------------------------------------
# observability and feasibility
# ---------------------------------------------------------------------------


def _uav(layout):
    return track_from_layout(layout, "uav")


def test_observable_straight_pair():
    assert observability_check(_uav([-6, 0, 2, 0, 5, 0, 2, 0]))


def test_unobservable_gate_behind():
    assert not observability_check(_uav([-6, 0, 2, 0, -10, 0, 2, 0]))


def test_unobservable_outside_fov():
    # lateral: half-FOV is atan(80/60), i.e. 8 m sideways at 6 m ahead is the
    # inclusive limit
    assert observability_check(_uav([-6, 0, 2, 0, 0, 8.0, 2, 0]))
    assert observability_check(_uav([-6, 0, 2, 0, 0, -8.0, 2, 0]))
    assert not observability_check(_uav([-6, 0, 2, 0, 0, 8.01, 2, 0]))
    # vertical: 28 m above at 6 m ahead is far outside
    assert not observability_check(_uav([-6, 0, 2, 0, 0, 0, 30, 0]))


def test_unobservable_degenerate_start():
    # gate 1 on the arena wall: the clipped start pose coincides with the
    # gate center, so gate 1 cannot be seen from the start
    assert not observability_check(_uav([-19.5, 0, 2, 0, 0, 0, 2, 0]))


def test_observability_rigid_motion_invariant():
    base_true = np.array([-6.0, 0.0, 2.0, 0.0, 5.0, 1.0, 2.4, 0.2])
    base_false = np.array([-6.0, 0.0, 2.0, 0.0, 0.0, 9.0, 2.0, 0.0])
    for phi, shift in [(0.3, (1.0, 2.0, 0.3)), (-0.5, (-2.0, 1.5, -0.2))]:
        c, s = math.cos(phi), math.sin(phi)

        def move(layout):
            out = []
            for i in range(2):
                x, y, z, yaw = layout[4 * i : 4 * i + 4]
                out += [c * x - s * y + shift[0], s * x + c * y + shift[1],
                        z + shift[2], yaw + phi]
            return out

        assert observability_check(_uav(move(base_true)))
        assert not observability_check(_uav(move(base_false)))


def test_feasibility_straight_and_reversed():
    expert = expert_policy("uav")
    ok, roll = feasibility_check(_uav([-6, 0, 2, 0, 5, 0, 2, 0]), expert, _sim(),
                                 np.random.default_rng(0))
    assert ok and roll.all_success
    # gate 2 facing backwards: the approach side is unreachable in time
    ok, roll = feasibility_check(_uav([-6, 0, 2, 0, 5, 0, 2, math.pi]), expert, _sim(),
                                 np.random.default_rng(0))
    assert not ok
    assert roll.terminal == TIMEOUT


# ---------------------------------------------------------------------------
# losses and weights
# ---------------------------------------------------------------------------


def _fake_rollout(outcomes_errors):
    gates = [
        GateRecord(i, outcome, crossed=err is not None, error=err)
        for i, (outcome, err) in enumerate(outcomes_errors)
    ]
    return Rollout("uav", "fake", np.array([0.0]), np.zeros((1, 5)), np.zeros((0, 2)),
                   gates, TIMEOUT, 0.0)


def test_task_loss():
    roll = _fake_rollout([(SUCCESS, 0.2), (MISS, 3.0)])
    assert task_loss(roll, 1.0) == pytest.approx((0.2 + 1.0) / 2.0)
    assert task_loss(roll, lambda_pos=2.0) == pytest.approx((0.4 + 1.0) / 2.0)
    assert task_loss(_fake_rollout([(TIMEOUT, None)]), 1.0) == 1.0
    assert task_loss(_fake_rollout([(SUCCESS, 0.1), (SUCCESS, 0.3)]), 1.0) == pytest.approx(0.2)


def test_weights_proportional_example():
    np.testing.assert_allclose(weights([2.0, 1.0, 1.0], 0.0), [0.5, 0.25, 0.25])


def test_weights_mixing_example():
    np.testing.assert_allclose(weights([1.0, 0.0, 0.0], 0.3), [0.8, 0.1, 0.1])


def test_weights_all_zero_is_uniform():
    np.testing.assert_allclose(weights(np.zeros(5), 0.05), np.full(5, 0.2))


def test_weights_sum_and_floor(rng):
    for _ in range(50):
        m = int(rng.integers(2, 40))
        ell = rng.uniform(0.0, 2.0, size=m)
        beta = float(rng.uniform(0.0, 1.0))
        w = weights(ell, beta)
        assert abs(w.sum() - 1.0) < 1e-12
        assert w.min() >= beta / m - 1e-15


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=60),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
@example([0.0, 0.0, 0.0], 0.3)                                        # all zero: uniform
@example([1.0], 0.0)
@example([5e-324, 0.0, 1e6], 0.05)                                   # a subnormal beside a large one
@example([1.0, 0.0, 0.0], 1.0)
def test_weights_sum_to_one_above_the_floor(losses, beta):
    w = weights(losses, beta)
    m = len(losses)
    assert w.shape == (m,)
    assert abs(w.sum() - 1.0) < 1e-12
    assert w.min() >= beta / m


def test_weights_validation():
    with pytest.raises(ValueError):
        weights([-0.1, 0.5], 0.1)
    with pytest.raises(ValueError):
        weights([0.5, 0.5], 1.5)


def test_pgr_config_validation():
    with pytest.raises(ValueError):
        PgrConfig(iterations=0)
    with pytest.raises(ValueError):
        PgrConfig(beta=1.2)
    with pytest.raises(ValueError):
        PgrConfig(lambda_pos=-0.5)
    sim = PgrConfig(tick_hz=25.0).sim()
    assert sim.tick_hz == 25.0 and not sim.record_trajectory


# ---------------------------------------------------------------------------
# sampling machinery
# ---------------------------------------------------------------------------


def test_seed_chain_reproducible():
    a, b = _SeedChain(5), _SeedChain(5)
    for _ in range(3):
        assert a.rng().uniform() == b.rng().uniform()
    assert _SeedChain(5).rng().uniform() != _SeedChain(6).rng().uniform()
    assert _SeedChain((5, 1)).rng().uniform() != _SeedChain((5, 2)).rng().uniform()


def test_grid_losses_per_cell_means():
    part = _friendly_partition()
    expert = expert_policy("uav")
    layouts = [
        (0, np.array([-7.5, 0.0, 2.0, 0.0, 5.0, 0.0, 2.0, 0.0])),
        (0, np.array([-7.0, 0.2, 2.1, 0.0, 5.5, -0.2, 1.9, 0.0])),
        (1, np.array([-5.0, 0.0, 2.0, 0.0, 5.0, 0.3, 2.0, 0.0])),
    ]
    ell, stats = grid_losses(expert, layouts, part, "uav", 1.0, _sim(), _SeedChain(0))
    # the expert is deterministic, so per-cell means can be recomputed directly
    from gatesim.simulator import rollout

    manual = [task_loss(rollout(expert, track_from_layout(l, "uav"), _sim()), 1.0)
              for _, l in layouts]
    assert ell[0] == pytest.approx((manual[0] + manual[1]) / 2.0, abs=1e-12)
    assert ell[1] == pytest.approx(manual[2], abs=1e-12)
    assert stats["gates"] == 6
    assert stats["sr"] == 1.0


def test_grid_losses_unseen_cell_gets_global_mean():
    part = _friendly_partition()
    expert = expert_policy("uav")
    layouts = [
        (0, np.array([-7.5, 0.0, 2.0, 0.0, 5.0, 0.0, 2.0, 0.0])),
        (0, np.array([-7.0, 0.2, 2.1, 0.0, 5.5, -0.2, 1.9, 0.0])),
    ]
    ell, _ = grid_losses(expert, layouts, part, "uav", 1.0, _sim(), _SeedChain(0))
    assert ell[1] == pytest.approx((ell[0]))
    with pytest.raises(ValueError):
        grid_losses(expert, [], part, "uav", 1.0, _sim(), _SeedChain(0))


def test_grid_losses_all_failures_score_one():
    part = _friendly_partition()
    layouts = [
        (0, np.array([-7.5, 0.0, 2.0, 0.0, 5.0, 0.0, 2.0, 0.0])),
        (1, np.array([-5.0, 0.0, 2.0, 0.0, 5.0, 0.3, 2.0, 0.0])),
    ]
    # a 0.1 s timeout fails every rollout regardless of the policy
    sim = SimConfig(tick_hz=10.0, timeout=0.1, record_trajectory=False)
    ell, stats = grid_losses(ZeroPolicy("uav"), layouts, part, "uav", 1.0, sim, _SeedChain(0))
    np.testing.assert_array_equal(ell, [1.0, 1.0])
    assert stats["sr"] == 0.0 and stats["mge"] is None


def test_resample_one_hot_weights():
    part = _friendly_partition()
    samples, skipped = resample(part, [1.0, 0.0], 6, "uav", expert_policy("uav"),
                                _sim(), _SeedChain(3))
    assert skipped == {}
    assert len(samples) == 6
    assert all(cell == 0 for cell, _, _ in samples)
    for cell, layout, roll in samples:
        assert part.cell_of(layout) == 0
        assert roll.all_success


def test_resample_weight_sum_checked():
    part = _friendly_partition()
    with pytest.raises(ValueError):
        resample(part, [0.5, 0.2], 4, "uav", expert_policy("uav"), _sim(), _SeedChain(0))


def test_resample_matches_categorical_draws():
    part = _friendly_partition((4, 1, 1, 1, 1, 1, 1, 1))
    n = 200
    samples, skipped = resample(part, np.full(4, 0.25), n, "uav", expert_policy("uav"),
                                _sim(), _SeedChain(11))
    assert skipped == {}
    counts = np.bincount([c for c, _, _ in samples], minlength=4)
    assert counts.sum() == n
    # each count within 3 sigma of the multinomial expectation
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n * 0.25) <= 3 * sigma)


def test_resample_all_infeasible_raises(monkeypatch):
    monkeypatch.setattr(refinement, "RETRY_CAP", 3)
    # gate 2 strictly behind gate 1 everywhere in the box: observability
    # rejects every draw
    lo = np.array([-8.0, -0.5, 1.8, -0.05, -30.0, -0.5, 1.8, -0.05])
    hi = np.array([-4.0, 0.5, 2.2, 0.05, -20.0, 0.5, 2.2, 0.05])
    part = GridPartition(lo, hi, (1, 1, 1, 1, 2, 1, 1, 1))
    with pytest.raises(RuntimeError):
        resample(part, [0.5, 0.5], 4, "uav", expert_policy("uav"), _sim(),
                 _SeedChain(0))


def test_resample_partial_skips_are_counted(monkeypatch):
    monkeypatch.setattr(refinement, "RETRY_CAP", 5)
    # bin 0 of the x2 axis is entirely behind gate 1; bin 1 is fine
    lo = np.array([-8.0, -0.5, 1.8, -0.05, -24.0, -0.5, 1.8, -0.05])
    hi = np.array([-4.0, 0.5, 2.2, 0.05, 6.0, 0.5, 2.2, 0.05])
    part = GridPartition(lo, hi, (1, 1, 1, 1, 2, 1, 1, 1))
    samples, skipped = resample(part, [0.5, 0.5], 10, "uav", expert_policy("uav"),
                                _sim(), _SeedChain(1))
    assert skipped.get(0, 0) >= 1
    assert all(cell == 1 for cell, _, _ in samples)
    assert len(samples) + sum(skipped.values()) == 10


def test_initial_samples_covers_cells():
    part = _friendly_partition()
    config = PgrConfig(platform="uav", initial_per_cell=2, tick_hz=10.0, seed=9)
    samples, skipped = initial_samples(part, config, expert_policy("uav"), _SeedChain(9))
    assert skipped == {}
    cells = [c for c, _, _ in samples]
    assert cells == [0, 0, 1, 1]
    again, _ = initial_samples(part, config, expert_policy("uav"), _SeedChain(9))
    for (c0, l0, _), (c1, l1, _) in zip(samples, again):
        assert c0 == c1
        np.testing.assert_array_equal(l0, l1)


def test_build_validation_set():
    part = _friendly_partition()
    config = PgrConfig(platform="uav", val_per_cell=2, tick_hz=10.0, seed=4)
    g_val = build_validation_set(part, config, expert_policy("uav"))
    assert [c for c, _ in g_val] == [0, 0, 1, 1]
    again = build_validation_set(part, config, expert_policy("uav"))
    for (c0, l0), (c1, l1) in zip(g_val, again):
        assert c0 == c1
        np.testing.assert_array_equal(l0, l1)


def test_build_validation_set_empty_raises(monkeypatch):
    monkeypatch.setattr(refinement, "RETRY_CAP", 3)
    lo = np.array([-8.0, -0.5, 1.8, -0.05, -30.0, -0.5, 1.8, -0.05])
    hi = np.array([-4.0, 0.5, 2.2, 0.05, -20.0, 0.5, 2.2, 0.05])
    part = GridPartition(lo, hi, (1, 1, 1, 1, 1, 1, 1, 1))
    config = PgrConfig(platform="uav", tick_hz=10.0)
    with pytest.raises(ValueError):
        build_validation_set(part, config, expert_policy("uav"))


def test_pgr_config_coerces_json_numbers():
    # JSON integers are read as the float fields' numbers, and numpy integers
    # as the counts' ints; floats, bools and strs are never read as counts
    config = PgrConfig(per_gate_counts=[2, 1, 1, np.int64(1)], iterations=np.int64(2), beta=1,
                       lambda_pos=2, initial_per_cell=1, val_per_cell=np.int32(3), tick_hz=10,
                       n0=np.float32(2.0), samples_per_iteration=np.int64(4))
    assert config.per_gate_counts == (2, 1, 1, 1)
    for name, kind in [("iterations", int), ("initial_per_cell", int), ("val_per_cell", int),
                       ("samples_per_iteration", int), ("beta", float), ("lambda_pos", float),
                       ("tick_hz", float), ("n0", float)]:
        assert type(getattr(config, name)) is kind, name
    for name, value in [("iterations", 2.0), ("val_per_cell", True), ("initial_per_cell", "1"),
                        ("samples_per_iteration", 2.5), ("beta", False), ("n0", "2")]:
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            PgrConfig(**{name: value})


@pytest.mark.parametrize("tick_hz", [0, -10.0, float("nan")])
def test_pgr_config_rejects_non_positive_tick_rate(tick_hz):
    with pytest.raises(ValueError, match="tick_hz must be > 0"):
        PgrConfig(tick_hz=tick_hz)


@pytest.mark.parametrize("platform,tick_hz", [("uav", float("inf")), ("uav", 30), ("uav", 100),
                                              ("quad", 30), ("quad", 1000)])
def test_pgr_config_rejects_a_tick_rate_its_rollouts_refuse(platform, tick_hz):
    # the check the first rollout would make, at construction
    with pytest.raises(ValueError, match=f"tick_hz {float(tick_hz)!r} gives a tick period"):
        PgrConfig(platform=platform, tick_hz=tick_hz)


@pytest.mark.parametrize("platform,tick_hz", [("uav", 50), ("uav", 10), ("uav", 0.5),
                                              ("quad", 100), ("quad", 25)])
def test_pgr_config_accepts_a_tick_rate_its_rollouts_run(platform, tick_hz):
    assert PgrConfig(platform=platform, tick_hz=tick_hz).tick_hz == tick_hz


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def _run_once(seed=123, beta=0.05):
    part = _friendly_partition()
    expert = expert_policy("uav")
    learner = SyntheticLearner(part, expert_policy("uav"), n0=2.0)
    config = PgrConfig(platform="uav", iterations=2, beta=beta, initial_per_cell=1,
                       val_per_cell=1, tick_hz=10.0, seed=seed)
    return pgr_run(part, learner, expert, config, build_validation_set(part, config, expert))


def test_pgr_run_structure():
    result = _run_once()
    assert len(result.history) == 2
    assert [h.iteration for h in result.history] == [1, 2]
    for h in result.history:
        assert h.losses.shape == (2,)
        assert abs(h.weights.sum() - 1.0) < 1e-12
        assert 0.0 <= h.val_sr <= 1.0
    # every accepted sample became a training record
    assert len(result.dataset) == sum(int(h.sample_counts.sum()) for h in result.history)
    assert all(isinstance(r, TrainingRecord) for r in result.dataset)
    assert len(result.g_val) == 2
    # the learner saw the data: per-cell counts equal dataset cell counts
    counts = np.bincount([r.cell for r in result.dataset], minlength=2)
    np.testing.assert_array_equal(result.policy.counts, counts)


def test_pgr_run_deterministic():
    a, b = _run_once(seed=77), _run_once(seed=77)
    for ha, hb in zip(a.history, b.history):
        np.testing.assert_array_equal(ha.losses, hb.losses)
        np.testing.assert_array_equal(ha.weights, hb.weights)
        np.testing.assert_array_equal(ha.sample_counts, hb.sample_counts)
    for ra, rb in zip(a.dataset, b.dataset):
        np.testing.assert_array_equal(ra.layout, rb.layout)
        assert ra.loss == rb.loss


def test_pgr_run_beta_one_is_uniform():
    result = _run_once(beta=1.0)
    for h in result.history:
        np.testing.assert_allclose(h.weights, [0.5, 0.5], atol=1e-15)


def test_pgr_run_shared_validation_set():
    part = _friendly_partition()
    expert = expert_policy("uav")
    config = PgrConfig(platform="uav", iterations=1, initial_per_cell=1,
                       val_per_cell=1, tick_hz=10.0, seed=5)
    g_val = build_validation_set(part, config, expert)
    learner = SyntheticLearner(part, expert_policy("uav"), n0=2.0)
    result = pgr_run(part, learner, expert, config, g_val=g_val)
    assert result.g_val is g_val
    guided, uniform = pgr_pair(part, SyntheticLearner(part, expert_policy("uav"), n0=2.0),
                               expert, config, g_val=g_val)
    assert guided.g_val is g_val and uniform.g_val is g_val


def _same_result(got, want):
    """Every history field, the dataset, the validation set and the learner's
    counts, compared as bytes."""
    assert len(got.history) == len(want.history)
    for a, b in zip(got.history, want.history):
        assert (a.iteration, a.skipped, a.val_sr, a.val_mge) == \
            (b.iteration, b.skipped, b.val_sr, b.val_mge)
        for name in ("losses", "weights", "sample_counts"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    assert [(r.cell, r.loss, r.layout.tobytes()) for r in got.dataset] == \
        [(r.cell, r.loss, r.layout.tobytes()) for r in want.dataset]
    assert [(c, v.tobytes()) for c, v in got.g_val] == [(c, v.tobytes()) for c, v in want.g_val]
    assert got.policy.counts.tobytes() == want.policy.counts.tobytes()


def _arrays(result):
    """The arrays a result owns (its g_val is the caller's or shared)."""
    out = [result.policy.counts] + [r.layout for r in result.dataset]
    for h in result.history:
        out += [h.losses, h.weights, h.sample_counts]
    return out


@pytest.mark.parametrize("iterations", [1, 3])
@pytest.mark.parametrize("beta", [0.05, 1.0])
@pytest.mark.parametrize("seed", [3, 19, 123])
def test_pgr_pair_equals_two_independent_runs(seed, beta, iterations):
    part = _friendly_partition((2, 1, 1, 1, 2, 1, 1, 1))
    expert = expert_policy("uav")
    config = PgrConfig(platform="uav", iterations=iterations, beta=beta, initial_per_cell=1,
                       val_per_cell=1, tick_hz=10.0, seed=seed)

    def learner():
        return SyntheticLearner(part, expert_policy("uav"), n0=2.0)

    g_val = build_validation_set(part, config, expert)
    guided, uniform = pgr_pair(part, learner(), expert, config, g_val)
    _same_result(guided, pgr_run(part, learner(), expert, config, g_val))
    _same_result(uniform, pgr_run(part, learner(), expert, replace(config, beta=1.0), g_val))
    # the runs fork after the first scoring: their histories share no array
    for a in _arrays(guided):
        for b in _arrays(uniform):
            assert not np.shares_memory(a, b)
    assert guided.dataset is not uniform.dataset
    assert guided.history[0].skipped is not uniform.history[0].skipped


def test_worst_grid_loss_and_allocation():
    prev = IterationStats(1, np.array([0.1, 0.9, 0.3, 0.2]), np.full(4, 0.25),
                          np.array([1, 1, 1, 1]), {}, 1.0, 0.1)
    cur = IterationStats(2, np.array([0.1, 0.5, 0.3, 0.2]), np.full(4, 0.25),
                         np.array([1, 5, 2, 2]), {}, 1.0, 0.1)
    assert worst_grid_loss(prev) == pytest.approx(0.9)
    # m=4: the top decile is one cell (index 1); 5 of 10 samples landed there
    assert top_decile_allocation(prev, cur) == pytest.approx(0.5)
    # m=20 keeps two cells
    prev20 = IterationStats(1, np.arange(20.0), None, None, {}, 1.0, None)
    cur20 = IterationStats(2, np.arange(20.0), None,
                           np.concatenate([np.full(18, 5), [5, 5]]), {}, 1.0, None)
    assert top_decile_allocation(prev20, cur20) == pytest.approx(10.0 / 100.0)


def test_top_decile_allocation_empty_counts():
    prev = IterationStats(1, np.array([0.5, 0.1]), None, np.zeros(2, dtype=int), {}, 1.0, None)
    cur = IterationStats(2, np.array([0.5, 0.1]), None, np.zeros(2, dtype=int), {}, 1.0, None)
    assert top_decile_allocation(prev, cur) == 0.0
