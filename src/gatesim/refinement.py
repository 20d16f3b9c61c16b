"""Performance-guided refinement over two-gate layout space.

The 8-dim layout space (per-gate x, y, z, yaw) is partitioned into M grid
cells. Each iteration scores every cell by the policy's mean task loss on a
fixed validation set, turns the losses into a beta-mixed sampling
distribution, and draws the next training layouts from the loss-heavy cells.
beta = 1 degenerates to uniform sampling, which doubles as the comparison
baseline.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import platform_dynamics
from .render import DEFAULT_CAMERA, camera_pose, point_in_view
from .simulator import SUCCESS, Rollout, SimConfig, metrics, rollout, steps_per_tick
from .tracks import Track, track_from_layout


@dataclass(frozen=True)
class GridPartition:
    """Axis-aligned binning of the 8-dim layout box.

    cell_of puts every layout in one cell (half-open bins, the top bin also
    taking the upper bound). cell_bounds tiles the box only within rounding:
    its edges lo + b * width and cell_of's (v - lo) / width round apart, so a
    point on an inner edge, the lower corner cell_bounds(c)[0] of many cells
    among them, can map to the neighbouring cell.
    """

    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64).reshape(8))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64).reshape(8))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64).reshape(8))
        if np.any(self.hi <= self.lo):
            raise ValueError("partition bounds must satisfy lo < hi")
        if np.any(self.counts < 1):
            raise ValueError("bin counts must be >= 1")
        # (lo, width, count) per dimension as Python numbers, for cell_of
        object.__setattr__(self, "_bins", tuple(zip(self.lo.tolist(), self.widths.tolist(),
                                                    self.counts.tolist())))

    @property
    def m(self) -> int:
        # on Python ints: np.prod wraps around int64 for large grids
        return math.prod(self.counts.tolist())

    @property
    def widths(self) -> np.ndarray:
        return (self.hi - self.lo) / self.counts

    def cell_of(self, layout) -> int:
        """Cell index of a layout; out-of-box layouts clip to the edge bins.

        Per dimension the bin is floor((v - lo) / width) clamped to
        [0, count - 1], and the bins make a row-major index, on Python
        numbers: the index of np.floor, np.clip and np.ravel_multi_index on
        the arrays for every layout whose floor fits an int64. (Past that,
        the array formula's int64 cast sends a layout to bin 0 and this one
        to the edge bin it lies beyond; a NaN goes to bin 0 in both.)"""
        values = np.asarray(layout, dtype=np.float64).reshape(8).tolist()
        cell = 0
        for v, (lo, width, count) in zip(values, self._bins):
            q = (v - lo) / width
            # int() truncates, which is floor on [0, count)
            cell = cell * count + (int(q) if 0.0 <= q < count else count - 1 if q >= count else 0)
        return cell

    def cell_bounds(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        bins = np.array(np.unravel_index(cell, self.counts))
        lo = self.lo + bins * self.widths
        return lo, lo + self.widths

    def sample(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.cell_bounds(cell)
        return rng.uniform(lo, hi)

    @staticmethod
    def default(platform: str, per_gate_counts) -> "GridPartition":
        box = LAYOUT_BOXES[platform]
        counts = np.concatenate([per_gate_counts, per_gate_counts])
        return GridPartition(box[0], box[1], counts)


# per-platform sampling boxes: gate 1 behind the origin, gate 2 ahead, so
# most uniform draws are observable and dynamically reachable
LAYOUT_BOXES = {
    "uav": (
        np.array([-11.0, -3.0, 1.2, -0.4, 3.0, -3.0, 1.2, -0.4]),
        np.array([-3.0, 3.0, 2.8, 0.4, 12.0, 3.0, 2.8, 0.4]),
    ),
    "quad": (
        np.array([-2.0, -1.2, 0.8, -0.4, 0.5, -1.2, 0.8, -0.4]),
        np.array([-0.5, 1.2, 2.2, 0.4, 2.2, 1.2, 2.2, 0.4]),
    ),
}


def observability_check(track: Track) -> bool:
    """Gate-2 center visible from a camera crossing gate-1 orthogonally, on a
    two-gate track (a layout's, from track_from_layout).

    Additionally requires gate-1 to be visible from the track's start pose;
    the start pose looks straight at gate-1 so this only rejects degenerate
    clipped poses.
    """
    g1, g2 = track.gates
    c1, yaw1, _, _, _ = g1.frame_at(0.0)
    c2 = g2.frame_at(0.0).center
    if not point_in_view(DEFAULT_CAMERA, camera_pose(c1, yaw1), c2):
        return False
    pos, yaw = track.initial_pose()
    return point_in_view(DEFAULT_CAMERA, camera_pose(pos, yaw), c1)


def feasibility_check(track: Track, expert, sim: SimConfig, rng: np.random.Generator):
    """(ok, rollout): whether the expert crosses every gate of the track within
    the timeout."""
    roll = rollout(expert, track, sim, rng=rng)
    return roll.all_success, roll


def task_loss(roll: Rollout, lambda_pos: float) -> float:
    """Mean per-gate loss: 1 for any failed gate, lambda * error on success."""
    per_gate = [
        lambda_pos * g.error if g.outcome == SUCCESS else 1.0 for g in roll.gates
    ]
    return float(np.mean(per_gate))


def weights(losses, beta: float) -> np.ndarray:
    """Normalized losses mixed with the uniform distribution.

    w = (1-beta) * l/sum(l) + beta/M; all-zero losses give the uniform
    vector. The output sums to 1 within 1e-12 and has floor beta/M.
    """
    ell = np.asarray(losses, dtype=np.float64)
    if np.any(ell < 0.0):
        raise ValueError("losses must be non-negative")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    m = len(ell)
    total = ell.sum()
    if total == 0.0:
        return np.full(m, 1.0 / m)
    return (1.0 - beta) * (ell / total) + beta / m


@dataclass
class TrainingRecord:
    """One collected trajectory: the layout it came from plus its score.

    The synthetic learner consumes only the layout (its grid cell); mask/RGB
    observation files for real policies come from the dataset exporter.
    """

    layout: np.ndarray
    cell: int
    loss: float


@dataclass
class IterationStats:
    iteration: int
    losses: np.ndarray
    weights: np.ndarray
    sample_counts: np.ndarray
    skipped: dict
    val_sr: float
    val_mge: float | None


# rejected draws a cell may take before one requested sample is skipped
RETRY_CAP = 50

# the most grid cells a pgr config may ask for: every iteration rolls out at
# least one validation layout per cell, and the per-cell arrays grow with it
MAX_CELLS = 65_536


def _is_int(value) -> bool:
    """A Python or numpy integer; bool, an int to Python, is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class PgrConfig:
    """One refinement run; `gatesim pgr --config` JSON sets any field but seed."""

    platform: str = "uav"
    per_gate_counts: tuple = (2, 2, 2, 2)   # bins per gate axis (x, y, z, yaw)
    iterations: int = 3
    beta: float = 0.05
    lambda_pos: float = 1.0
    initial_per_cell: int = 2
    samples_per_iteration: int | None = None   # None: m * initial_per_cell
    val_per_cell: int = 1
    tick_hz: float = 10.0
    n0: float = 5.0   # SyntheticLearner noise: sigma0 / sqrt(1 + n / n0)
    seed: int = 0

    def __post_init__(self):
        # counts are integers and the rest numbers, as JSON spells them: no
        # float count is rounded, and neither a bool nor a str is read as one
        for name in ("iterations", "initial_per_cell", "val_per_cell", "samples_per_iteration"):
            value = getattr(self, name)
            if value is None and name == "samples_per_iteration":
                continue
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        for name in ("beta", "lambda_pos", "tick_hz", "n0"):
            value = getattr(self, name)
            if not (_is_int(value) or isinstance(value, (float, np.floating))):
                raise ValueError(f"{name} must be a number, got {value!r}")
            setattr(self, name, float(value))
        if self.platform not in LAYOUT_BOXES:
            raise ValueError(f"unknown platform {self.platform!r}; "
                             f"accepted: {', '.join(sorted(LAYOUT_BOXES))}")
        counts = self.per_gate_counts
        if not (isinstance(counts, (tuple, list)) and len(counts) == 4
                and all(_is_int(c) and c >= 1 for c in counts)):
            raise ValueError(f"per_gate_counts must be four ints >= 1, got {counts!r}")
        self.per_gate_counts = tuple(counts)
        cells = math.prod(int(c) for c in counts) ** 2
        if cells > MAX_CELLS:
            raise ValueError(f"per_gate_counts {list(counts)} give {cells} grid cells; "
                             f"at most {MAX_CELLS} are accepted")
        for name in ("iterations", "initial_per_cell", "val_per_cell", "samples_per_iteration"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if not 0.0 <= self.lambda_pos < math.inf:
            raise ValueError(f"lambda_pos must be a finite number >= 0, got {self.lambda_pos}")
        if not 0.0 < self.n0 < math.inf:
            raise ValueError(f"n0 must be a finite number > 0, got {self.n0}")
        # refused here, before the validation set, rather than by its first rollout
        steps_per_tick(self.tick_hz, platform_dynamics(self.platform).params.dt)

    def sim(self) -> SimConfig:
        return SimConfig(tick_hz=self.tick_hz, record_trajectory=False)


@dataclass
class PgrResult:
    history: list
    dataset: list
    g_val: list
    policy: object


class _SeedChain:
    """Hands out independent child generators in a reproducible order."""

    def __init__(self, seed):
        self._seq = np.random.SeedSequence(seed)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self._seq.spawn(1)[0])


def accept_cells(partition, cells, platform, expert, sim, seeds):
    """Rejection-sample one feasible+observable layout per requested cell.

    Returns (samples, skipped): (cell, layout, expert rollout) triples in
    request order, the rollout reusable as training data, and per-cell counts
    of requests skipped after RETRY_CAP rejected draws.
    """
    samples = []
    skipped: dict[int, int] = {}
    for cell in cells:
        rng = seeds.rng()
        for _ in range(RETRY_CAP):
            layout = partition.sample(cell, rng)
            # one track serves both checks
            track = track_from_layout(layout, platform)
            if not observability_check(track):
                continue
            ok, roll = feasibility_check(track, expert, sim, rng=seeds.rng())
            if ok:
                samples.append((cell, layout, roll))
                break
        else:
            skipped[cell] = skipped.get(cell, 0) + 1
    return samples, skipped


def build_validation_set(partition, config: PgrConfig, expert):
    """Fixed per-cell validation layouts, feasibility-filtered like training,
    drawn from the stream (config.seed, 1), apart from the run's own."""
    cells = [c for c in range(partition.m) for _ in range(config.val_per_cell)]
    samples, _ = accept_cells(partition, cells, config.platform, expert, config.sim(),
                              _SeedChain((config.seed, 1)))
    if not samples:
        raise ValueError("validation set is empty: no feasible layouts found")
    return [(cell, layout) for cell, layout, _ in samples]


def grid_losses(policy, g_val, partition, platform: str, lambda_pos: float,
                sim: SimConfig, seeds):
    """Per-cell mean task loss of the policy on the validation layouts.

    Cells with no validation layouts get the global mean loss. Also returns
    the validation SR/MGE summary.
    """
    if not g_val:
        raise ValueError("empty validation set")
    sums = np.zeros(partition.m)
    counts = np.zeros(partition.m, dtype=np.int64)
    rollouts = []
    for cell, layout in g_val:
        track = track_from_layout(layout, platform)
        roll = rollout(policy, track, sim, rng=seeds.rng())
        rollouts.append(roll)
        sums[cell] += task_loss(roll, lambda_pos)
        counts[cell] += 1
    seen = counts > 0
    global_mean = float(sums[seen].sum() / counts[seen].sum())
    ell = np.full(partition.m, global_mean)
    ell[seen] = sums[seen] / counts[seen]
    return ell, metrics(rollouts)


def resample(partition, w, n: int, platform: str, expert, sim: SimConfig, seeds):
    """Draw n layouts: cell by weight, point uniform in the cell.

    Infeasible draws retry within the same cell up to RETRY_CAP times, after which
    that draw is skipped (per-cell skip counts returned). Raises when every
    draw is skipped.
    """
    w = np.asarray(w, dtype=np.float64)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    cells = seeds.rng().choice(partition.m, size=n, p=w).tolist()
    samples, skipped = accept_cells(partition, cells, platform, expert, sim, seeds)
    if not samples:
        raise RuntimeError("sampling failure: every drawn grid cell was infeasible")
    return samples, skipped


def initial_samples(partition, config: PgrConfig, expert, seeds):
    """Uniform start: initial_per_cell accepted layouts from every cell."""
    cells = [c for c in range(partition.m) for _ in range(config.initial_per_cell)]
    samples, skipped = accept_cells(partition, cells, config.platform, expert,
                                    config.sim(), seeds)
    if not samples:
        raise RuntimeError("sampling failure: every grid cell was infeasible")
    return samples, skipped


@dataclass
class _Run:
    """One refinement run between iterations: its policy, generators and
    accumulated data."""

    partition: GridPartition
    policy: object
    expert: object
    config: PgrConfig
    g_val: list
    seeds: _SeedChain
    dataset: list = field(default_factory=list)
    history: list = field(default_factory=list)


def _start(partition, policy, expert, config: PgrConfig, g_val):
    """A run on g_val, and its first iteration trained and scored."""
    seeds = _SeedChain(config.seed)
    run = _Run(partition, policy, expert, config, g_val, seeds)
    return run, _train_and_score(run, *initial_samples(partition, config, expert, seeds))


def _train_and_score(run: _Run, batch, skipped):
    """Train on a batch of accepted samples and score the grid: the
    iteration's (sample counts, skipped, losses, validation stats)."""
    config = run.config
    counts = np.zeros(run.partition.m, dtype=np.int64)
    new_records = []
    for cell, layout, roll in batch:
        counts[cell] += 1
        new_records.append(TrainingRecord(layout, cell, task_loss(roll, config.lambda_pos)))
    run.dataset.extend(new_records)
    run.policy.train(new_records)
    ell, val_stats = grid_losses(run.policy, run.g_val, run.partition, config.platform,
                                 config.lambda_pos, config.sim(), run.seeds)
    return counts, skipped, ell, val_stats


def _iterate(run: _Run, scored) -> PgrResult:
    """The loop from a scored iteration on: mix the weights, record the
    iteration, then resample, train and score the next one."""
    config, partition = run.config, run.partition
    n_iter = (
        config.samples_per_iteration
        if config.samples_per_iteration is not None
        else partition.m * config.initial_per_cell
    )
    while True:
        counts, skipped, ell, val_stats = scored
        w = weights(ell, config.beta)
        run.history.append(
            IterationStats(
                iteration=len(run.history) + 1,
                losses=ell,
                weights=w,
                sample_counts=counts,
                skipped=skipped,
                val_sr=val_stats["sr"],
                val_mge=val_stats["mge"],
            )
        )
        if len(run.history) == config.iterations:
            return PgrResult(history=run.history, dataset=run.dataset, g_val=run.g_val,
                             policy=run.policy)
        scored = _train_and_score(run, *resample(partition, w, n_iter, config.platform,
                                                 run.expert, config.sim(), run.seeds))


def pgr_run(partition: GridPartition, policy, expert, config: PgrConfig,
            g_val) -> PgrResult:
    """The refinement loop, scored on g_val (see build_validation_set).

    Per iteration: collect expert rollouts on the current layout batch, train
    the policy on the accumulated dataset, score grids on the validation set,
    mix weights, and resample the next batch. The returned history carries
    losses, weights, and per-grid sample counts for every iteration.
    """
    return _iterate(*_start(partition, policy, expert, config, g_val))


def pgr_pair(partition: GridPartition, policy, expert, config: PgrConfig,
             g_val) -> tuple[PgrResult, PgrResult]:
    """(guided, uniform): pgr_run with config and with beta = 1, sharing the
    first iteration's sampling, training and scoring.

    The two runs are equal up to the first weights: both start from the
    seed's chain, the expert is deterministic, and every rollout reseeds the
    policy. So the prefix runs once on policy, and the uniform run forks from
    copies of its trained policy, dataset and seed chain. The results equal
    two pgr_run calls on policies like it and share no mutable array; both
    hold the same g_val.
    """
    run, scored = _start(partition, policy, expert, config, g_val)
    counts, skipped, ell, val_stats = scored
    # the copied chain hands out the generators the guided run draws next
    twin = _Run(partition, copy.deepcopy(run.policy), expert, replace(config, beta=1.0),
                run.g_val, copy.deepcopy(run.seeds), copy.deepcopy(run.dataset))
    return (_iterate(run, scored),
            _iterate(twin, (counts.copy(), dict(skipped), ell.copy(), dict(val_stats))))


def worst_grid_loss(stats: IterationStats) -> float:
    return float(np.max(stats.losses))


def top_decile_allocation(prev: IterationStats, cur: IterationStats) -> float:
    """Fraction of an iteration's samples landing in the previous iteration's
    top-decile-loss grids."""
    m = len(prev.losses)
    k = max(1, m // 10)
    top = np.argsort(prev.losses)[::-1][:k]
    total = cur.sample_counts.sum()
    return float(cur.sample_counts[top].sum() / total) if total else 0.0
