"""The pinned command set: six command-line runs whose output bytes are
pinned by sha256.

test_cli checks each digest in the test process. Run as a script,

    python tests/pinned.py

this runs the whole set in a temporary directory and prints {name: digest}
as JSON, which test_cli compares across BLAS kernels in child interpreters.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import random_scene
from gatesim.cli import main
from gatesim.scene import GaussianScene, write_scene
from gatesim.tracks import ARENAS, GATE_GEOMETRY, Gate, Track, save_track, track_splats

PINS = {
    # the expert on all six bundled tracks: uav and quad, static and moving gates
    "evaluate": "e91dd9b778d20aeea7f2d153cabc74db09eb3aaf8b70cf6ab6b2b0956cdf3f18",
    # classical-noisy on quad-drift: gate masks of a moving gate
    "moving-gate-mask": "c85b4c7d526362a57a03d3d1d34d64cca8dde83b7196493e0229aa56a2fe0b6c",
    # classical-noisy on perturbed quad-turn tracks: masks, perception noise,
    # labelling and a Spearman rho that is not 0
    "perturb": "77e3e2d1143b6836eef12cc215520a84155358608a6cc2669d083d580b09d419",
    # learner rollouts on static uav gates, the sampler and the loss tables
    "pgr": "2a827030c4d8ff8f950a49461dd21d7b39bdb8be8f237a9d261ef8f180b04499",
    # masks, controls and expert labels of quad rollouts
    "export-dataset": "dbf4367563fedc413a969d5850eaeb7c61619c2596c8be2935e5a9db7760161e",
    # the compositor's frames of a mini uav track among seeded background splats
    "export-dataset-scene": "0c3b176a4d02d0d43755ce8eee39ec9fe5c3e14f78bc477080a62483ebb8453a",
}


def mini_track(platform="uav"):
    geo = GATE_GEOMETRY[platform]
    center = (0.0, 0.0, 2.0) if platform == "uav" else (1.2, 0.0, 1.2)
    gate = Gate.static(geo["shape"], geo["inner_half"], geo["ring"], center, 0.0)
    return Track(f"mini-{platform}", platform, (gate,), ARENAS[platform])


def pgr_config(root, **extra):
    """Path of a small uav pgr config written into root."""
    cfg = {
        "platform": "uav",
        "per_gate_counts": [2, 1, 1, 1],
        "iterations": 2,
        "initial_per_cell": 1,
        "val_per_cell": 1,
        "tick_hz": 10.0,
        "n0": 2.0,
    }
    cfg.update(extra)
    path = Path(root) / "pgr.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def tree(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*") if p.is_file())


def bytes_of(root):
    return {rel: (Path(root) / rel).read_bytes() for rel in tree(root)}


def digest(root):
    """sha256 over a directory's files, in sorted relative-path order."""
    h = hashlib.sha256()
    for rel, data in bytes_of(root).items():
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _scene_of(track):
    gates = track_splats(track)
    background = random_scene(np.random.default_rng(5), 600, span=4.0)
    background.means += [0.0, 0.0, 2.0]
    return GaussianScene(*(np.concatenate([getattr(gates, f), getattr(background, f)]) for f in
                           ("means", "rotations", "scales", "colors", "opacities")))


def run_pinned(name, root) -> Path:
    """Run the pinned command `name` inside the empty directory root and
    return its output directory. The track files it writes are named
    relative to root, as the command reads them, so root's own path never
    enters an output."""
    root = Path(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        if name == "evaluate":
            argv = ["evaluate", "--trials", "2"]
        elif name == "moving-gate-mask":
            argv = ["evaluate", "--policy", "classical-noisy", "--tracks", "quad-drift",
                    "--trials", "2", "--seed", "3"]
        elif name == "perturb":
            argv = ["perturb", "--track", "quad-turn", "--policy", "classical-noisy",
                    "--levels", "0,60,120", "--tracks-per-level", "2", "--seed", "3"]
        elif name == "pgr":
            argv = ["pgr", "--config", pgr_config(root), "--skip-uniform", "--seed", "5"]
        elif name == "export-dataset":
            save_track("mini-quad.json", mini_track("quad"))
            argv = ["export-dataset", "--track", "mini-quad.json", "--trials", "2",
                    "--tick-hz", "10", "--seed", "2"]
        elif name == "export-dataset-scene":
            track = mini_track("uav")
            save_track("mini-uav.json", track)
            write_scene("splats.ply", _scene_of(track))
            argv = ["export-dataset", "--track", "mini-uav.json", "--scene", "splats.ply",
                    "--trials", "1", "--tick-hz", "10", "--seed", "4"]
        else:
            raise KeyError(name)
        if main(argv + ["--out", "out"]) != 0:
            raise RuntimeError(f"pinned command {name!r} failed")
    finally:
        os.chdir(cwd)
    return root / "out"


def _digests() -> dict:
    """{name: digest} of every pinned command, each run in its own
    temporary directory with its printed tables discarded."""
    out = {}
    for name in PINS:
        with tempfile.TemporaryDirectory() as root, contextlib.redirect_stdout(io.StringIO()):
            out[name] = digest(run_pinned(name, root))
    return out


if __name__ == "__main__":
    json.dump(_digests(), sys.stdout, sort_keys=True)
