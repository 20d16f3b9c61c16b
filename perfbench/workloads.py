"""The benchmark workloads: inputs from a seed, commands, output checks.

Each workload makes its inputs from the seed in ``setup``, lists the gatesim
CLI commands of one pass in ``commands`` and inspects the result directory
of a pass in ``check``, which returns the broken invariants (empty when the
pass is correct) and adds output-derived counts to the pass's SimStats.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np

from gatesim.tracks import reference_track, track_splats
from layers import SimStats


def digest_dir(root: Path) -> tuple[str, int, int]:
    """(sha256 over the result files, file count, byte count) of a directory.

    Files are taken in sorted relative-path order.
    """
    h = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        files += 1
        nbytes += len(data)
        rel = path.relative_to(root).as_posix()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest(), files, nbytes


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return [row for row in csv.reader(f) if row and not row[0].startswith("#")]


# ---------------------------------------------------------------------------
# refine: gatesim pgr on uav, guided run plus uniform baseline
# ---------------------------------------------------------------------------


class Refine:
    name = "refine"
    # acceptance-test settings on a 16-cell grid (2 x 2 x 1 x 1 bins per gate)
    config = {
        "platform": "uav",
        "per_gate_counts": [2, 2, 1, 1],
        "initial_per_cell": 1,
        "val_per_cell": 2,
        "iterations": 3,
        "tick_hz": 10,
    }

    def setup(self, seed: int, work: Path) -> dict:
        path = work / "pgr.json"
        path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        return {"seed": seed, "config": path}

    def commands(self, inputs: dict, out: Path) -> list[list[str]]:
        return [["pgr", "--config", str(inputs["config"]), "--seed", str(inputs["seed"]),
                 "--jobs", "1", "--out", str(out)]]

    def check(self, inputs: dict, out: Path, stdout: str, sim: SimStats) -> list[str]:
        errors = []
        found = re.search(r"validation layouts: (\d+)", stdout)
        if not found or int(found.group(1)) < 1:
            errors.append("refine: empty or unreported validation set")
        iterations = self.config["iterations"]
        history = json.loads((out / "history.json").read_text())
        for run in ("pgr", "uniform"):
            rows = history.get(run, [])
            if len(rows) != iterations:
                errors.append(f"refine: {run} history has {len(rows)} of {iterations} iterations")
            for row in rows:
                if not all(math.isfinite(row[k]) for k in ("val_sr", "worst_grid_loss",
                                                           "mean_loss")):
                    errors.append(f"refine: non-finite {run} history row {row}")
        cells = math.prod(self.config["per_gate_counts"]) ** 2
        rows = _csv_rows(out / "losses.csv")[1:]
        if len(rows) != iterations * cells:
            errors.append(f"refine: losses.csv has {len(rows)} rows, want {iterations * cells}")
        sums: dict[str, float] = {}
        for it, _cell, loss, weight, _n in rows:
            if not (math.isfinite(float(loss)) and float(loss) >= 0.0):
                errors.append(f"refine: iteration {it} has loss {loss}")
            sums[it] = sums.get(it, 0.0) + float(weight)
        for it, total in sums.items():
            if abs(total - 1.0) > 1e-9:
                errors.append(f"refine: iteration {it} weights sum to {total!r}")
        return errors


# ---------------------------------------------------------------------------
# vision: classical-noisy evaluation on the three quad tracks, then the scene
# path: seeded splat scene -> edit-scene -> export-dataset --scene
# ---------------------------------------------------------------------------

# native PLY layout of gatesim.scene: all doubles, in this order
PLY_PROPS = ("x", "y", "z", "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2",
             "rot_3", "opacity", "red", "green", "blue")


def write_ply(path: Path, table: np.ndarray, objects: dict) -> None:
    """Binary little-endian PLY plus the <stem>.objects.json sidecar."""
    head = ["ply", "format binary_little_endian 1.0", f"element vertex {len(table)}"]
    head += [f"property double {p}" for p in PLY_PROPS] + ["end_header"]
    body = np.ascontiguousarray(table, dtype="<f8").tobytes()
    path.write_bytes(("\n".join(head) + "\n").encode("ascii") + body)
    sidecar = {k: [int(i) for i in v] for k, v in sorted(objects.items())}
    path.with_suffix(".objects.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def ply_vertex_count(path: Path) -> int:
    head = path.read_bytes()[:4096]
    found = re.search(rb"element vertex (\d+)", head)
    return int(found.group(1)) if found else -1


class Vision:
    """Every observation layer: gate masks in the loop, then rendered scenes.

    The mask-policy evaluation and the scene export share one workload so
    that a run can measure for longer (see README.md).
    """

    name = "vision"
    tracks = ("quad-drift", "quad-scatter", "quad-turn")
    trials = 3
    scene_track = "uav-slalom"
    background = 10_000
    tick_hz = 5

    def setup(self, seed: int, work: Path) -> dict:
        """The scene: the track's gate splats plus seeded background splats."""
        track = reference_track(self.scene_track)
        gates = track_splats(track)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        n = self.background
        lo, hi = track.arena.lo, track.arena.hi
        quats = rng.normal(size=(n, 4))
        background = np.concatenate(
            [
                rng.uniform(lo, hi, size=(n, 3)),
                np.exp(rng.uniform(math.log(0.03), math.log(0.3), size=(n, 3))),
                quats / np.linalg.norm(quats, axis=1, keepdims=True),
                rng.uniform(0.2, 0.9, size=(n, 1)),
                rng.uniform(0.0, 1.0, size=(n, 3)),
            ],
            axis=1,
        )
        gate_table = np.concatenate(
            [gates.means, gates.scales, gates.rotations, gates.opacities[:, None], gates.colors],
            axis=1,
        )
        objects = dict(gates.objects)
        objects["background"] = np.arange(len(gates), len(gates) + n)
        path = work / "scene.ply"
        write_ply(path, np.concatenate([gate_table, background]), objects)
        script = resources.files("gatesim") / "data" / "scripts" / "example-edit.json"
        return {"seed": seed, "scene": path, "script": Path(str(script)),
                "gaussians": len(gates) + n, "gate_1": len(gates.objects["gate_1"])}

    def commands(self, inputs: dict, out: Path) -> list[list[str]]:
        seed = str(inputs["seed"])
        edited = out / "edited.ply"
        return [
            ["evaluate", "--policy", "classical-noisy", "--tracks", *self.tracks,
             "--trials", str(self.trials), "--seed", seed, "--jobs", "1",
             "--out", str(out / "evaluate")],
            ["edit-scene", "--scene", str(inputs["scene"]), "--script", str(inputs["script"]),
             "--out", str(edited)],
            ["export-dataset", "--track", self.scene_track, "--scene", str(edited),
             "--trials", "1", "--tick-hz", str(self.tick_hz), "--seed", seed,
             "--jobs", "1", "--out", str(out / "dataset")],
        ]

    def check(self, inputs: dict, out: Path, stdout: str, sim: SimStats) -> list[str]:
        return self._check_evaluate(out / "evaluate", sim) + self._check_scene(inputs, out, sim)

    def _check_evaluate(self, out: Path, sim: SimStats) -> list[str]:
        errors = []
        rows = _csv_rows(out / "metrics.csv")[1:]
        if sorted(r[0] for r in rows) != sorted(self.tracks):
            errors.append(f"vision: metrics.csv tracks {[r[0] for r in rows]}")
        want = {f"{t}_{k:02d}.csv" for t in self.tracks for k in range(self.trials)}
        have = {p.name for p in (out / "trajectories").glob("*.csv")}
        if have != want:
            errors.append(f"vision: trajectories {sorted(have)}, want {sorted(want)}")
        for t in self.tracks:
            if not (out / "events" / f"{t}.csv").is_file():
                errors.append(f"vision: no events file for {t}")
        # one row per recorded state: the initial state plus one per step
        steps = sum(len(_csv_rows(out / "trajectories" / n)) - 2 for n in sorted(have & want))
        if steps != sim.counts["dynamics_steps.quad"]:
            errors.append(f"vision: trajectories hold {steps} steps, "
                          f"quad rollouts report {sim.counts['dynamics_steps.quad']}")
        return errors

    def _check_scene(self, inputs: dict, out: Path, sim: SimStats) -> list[str]:
        errors = []
        objects = json.loads((out / "edited.objects.json").read_text())
        if "gate_1_upper" not in objects:
            errors.append("vision: edited scene has no gate_1_upper")
        have, want = ply_vertex_count(out / "edited.ply"), inputs["gaussians"] + inputs["gate_1"]
        if have != want:
            errors.append(f"vision: edited scene has {have} gaussians, want {want}")
        data = out / "dataset"
        frames = json.loads((data / "meta.json").read_text())["frames"]
        counts = {ext: len(list(data.rglob(f"frame*.{ext}"))) for ext in ("pgm", "ppm", "json")}
        if frames < 1 or any(n != frames for n in counts.values()):
            errors.append(f"vision: meta.json reports {frames} frames, files {counts}")
        sim.counts["frames"] += frames
        return errors


WORKLOADS = {w.name: w for w in (Refine(), Vision())}
