"""Performance-guided refinement over two-gate layout space.

The 8-dim layout space (per-gate x, y, z, yaw) is partitioned into M grid
cells. Each iteration scores every cell by the policy's mean task loss on a
fixed validation set, turns the losses into a beta-mixed sampling
distribution, and draws the next training layouts from the loss-heavy cells.
beta = 1 degenerates to uniform sampling, which doubles as the comparison
baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .render import DEFAULT_CAMERA, PinholeCamera, camera_pose, point_in_view
from .simulator import SUCCESS, Rollout, SimConfig, metrics, rollout
from .tracks import ARENAS, Track, track_from_layout


@dataclass(frozen=True)
class GridPartition:
    """Axis-aligned binning of the 8-dim layout box.

    Cells are half-open along every dimension except that the top bin also
    includes the upper bound, so the cells tile the box exactly.
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

    @property
    def m(self) -> int:
        return int(np.prod(self.counts))

    @property
    def widths(self) -> np.ndarray:
        return (self.hi - self.lo) / self.counts

    def cell_of(self, layout) -> int:
        """Cell index of a layout; out-of-box layouts clip to the edge bins."""
        v = np.asarray(layout, dtype=np.float64).reshape(8)
        bins = np.floor((v - self.lo) / self.widths).astype(np.int64)
        bins = np.clip(bins, 0, self.counts - 1)
        return int(np.ravel_multi_index(bins, self.counts))

    def cell_bounds(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        bins = np.array(np.unravel_index(cell, self.counts))
        lo = self.lo + bins * self.widths
        return lo, lo + self.widths

    def sample(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.cell_bounds(cell)
        return rng.uniform(lo, hi)

    @staticmethod
    def default(platform: str, per_gate_counts=(2, 2, 2, 2)) -> "GridPartition":
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


def observability_check(layout, platform: str, camera: PinholeCamera = DEFAULT_CAMERA) -> bool:
    """Gate-2 center visible from a camera crossing gate-1 orthogonally.

    Additionally requires gate-1 to be visible from the track's start pose;
    the start pose looks straight at gate-1 so this only rejects degenerate
    clipped poses.
    """
    track = track_from_layout(layout, platform)
    g1, g2 = track.gates
    c1, yaw1 = g1.pose_at(0.0)
    c2, _ = g2.pose_at(0.0)
    if not point_in_view(camera, camera_pose(c1, yaw1), c2):
        return False
    pos, yaw = track.initial_pose()
    return point_in_view(camera, camera_pose(pos, yaw), c1)


def feasibility_check(layout, platform: str, expert, sim: SimConfig,
                      rng: np.random.Generator | None = None):
    """(ok, rollout): whether the expert crosses both gates within the timeout."""
    track = track_from_layout(layout, platform)
    roll = rollout(expert, track, sim, rng=rng)
    return roll.all_success, roll


def task_loss(roll: Rollout, lambda_pos: float = 1.0) -> float:
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
        self.per_gate_counts = tuple(self.per_gate_counts)
        for name in ("iterations", "initial_per_cell", "val_per_cell"):
            setattr(self, name, int(getattr(self, name)))
        for name in ("beta", "lambda_pos", "tick_hz", "n0"):
            setattr(self, name, float(getattr(self, name)))
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.lambda_pos < 0.0:
            raise ValueError("lambda_pos must be >= 0")
        if not self.tick_hz > 0.0:
            raise ValueError(f"tick_hz must be > 0, got {self.tick_hz}")

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


def accept_cells(partition, cells, platform, expert, sim, seeds, cap=RETRY_CAP):
    """Rejection-sample one feasible+observable layout per requested cell.

    Returns (samples, skipped): (cell, layout, expert rollout) triples in
    request order, the rollout reusable as training data, and per-cell counts
    of requests skipped after cap rejected draws.
    """
    samples = []
    skipped: dict[int, int] = {}
    for cell in cells:
        rng = seeds.rng()
        for _ in range(cap):
            layout = partition.sample(cell, rng)
            if not observability_check(layout, platform):
                continue
            ok, roll = feasibility_check(layout, platform, expert, sim, rng=seeds.rng())
            if ok:
                samples.append((cell, layout, roll))
                break
        else:
            skipped[cell] = skipped.get(cell, 0) + 1
    return samples, skipped


def build_validation_set(partition, config: PgrConfig, expert, seeds=None, cap=RETRY_CAP):
    """Fixed per-cell validation layouts, feasibility-filtered like training."""
    cells = [c for c in range(partition.m) for _ in range(config.val_per_cell)]
    samples, _ = accept_cells(partition, cells, config.platform, expert, config.sim(),
                              seeds or _SeedChain((config.seed, 1)), cap)
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


def resample(partition, w, n: int, platform: str, expert, sim: SimConfig, seeds,
             cap: int = RETRY_CAP):
    """Draw n layouts: cell by weight, point uniform in the cell.

    Infeasible draws retry within the same cell up to cap times, after which
    that draw is skipped (per-cell skip counts returned). Raises when every
    draw is skipped.
    """
    w = np.asarray(w, dtype=np.float64)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    cells = seeds.rng().choice(partition.m, size=n, p=w).tolist()
    samples, skipped = accept_cells(partition, cells, platform, expert, sim, seeds, cap)
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


def pgr_run(partition: GridPartition, policy, expert, config: PgrConfig,
            g_val=None) -> PgrResult:
    """The refinement loop.

    Per iteration: collect expert rollouts on the current layout batch, train
    the policy on the accumulated dataset, score grids on the validation set,
    mix weights, and resample the next batch. The returned history carries
    losses, weights, and per-grid sample counts for every iteration.
    """
    seeds = _SeedChain(config.seed)
    sim = config.sim()
    if g_val is None:
        g_val = build_validation_set(partition, config, expert, seeds)
    n_iter = (
        config.samples_per_iteration
        if config.samples_per_iteration is not None
        else partition.m * config.initial_per_cell
    )

    batch, skipped = initial_samples(partition, config, expert, seeds)
    dataset: list[TrainingRecord] = []
    history: list[IterationStats] = []

    for it in range(1, config.iterations + 1):
        counts = np.zeros(partition.m, dtype=np.int64)
        new_records = []
        for cell, layout, roll in batch:
            counts[cell] += 1
            new_records.append(
                TrainingRecord(layout, cell, task_loss(roll, config.lambda_pos))
            )
        dataset.extend(new_records)
        policy.train(new_records)

        ell, val_stats = grid_losses(
            policy, g_val, partition, config.platform, config.lambda_pos, sim, seeds
        )
        w = weights(ell, config.beta)
        history.append(
            IterationStats(
                iteration=it,
                losses=ell,
                weights=w,
                sample_counts=counts,
                skipped=skipped,
                val_sr=val_stats["sr"],
                val_mge=val_stats["mge"],
            )
        )
        if it < config.iterations:
            batch, skipped = resample(
                partition, w, n_iter, config.platform, expert, sim, seeds
            )
    return PgrResult(history=history, dataset=dataset, g_val=g_val, policy=policy)


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
