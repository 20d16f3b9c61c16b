"""The pinned command set: six command-line runs whose output bytes are
pinned by sha256.

test_cli checks each digest in the test process. Run as a script,

    python tests/pinned.py

this runs the whole set in a temporary directory and prints {name: digest}
as JSON, which test_cli compares across BLAS kernels in child interpreters.
With --masked it prints masked_digest instead, which leaves out config.json
and every config_hash value: run it against two source trees,

    PYTHONPATH=<tree>/src python tests/pinned.py --masked

to check that a change which moves the config hash moves no other byte.
"""

import contextlib
import hashlib
import io
import json
import os
import re
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
    "evaluate": "c733d3ec1547d7aa455911a89b2944d64f06f5c689f74ab0cba1acea55f276dd",
    # classical-noisy on quad-drift: gate masks of a moving gate
    "moving-gate-mask": "8facaa1c450350ff48d69b6008b038cff63f55e64f0eb599e43bae252f082322",
    # classical-noisy on perturbed quad-turn tracks: masks, perception noise,
    # labelling and a Spearman rho that is not 0
    "perturb": "0d1de27243bcd5e671f3c0019377c328f1a83a3f4ad10c5354483d14484fc9d3",
    # learner rollouts on static uav gates, the sampler and the loss tables
    "pgr": "c79a375e46f1430ef3366d775ccb41b81c2090cffb0b6add73b74f9d497a9a35",
    # masks, controls and expert labels of quad rollouts
    "export-dataset": "0d8f1601af4b1d47a5538d80ae98d9892727317aab3216fa3ce246557813c3b7",
    # the compositor's frames of a mini uav track among seeded background splats
    "export-dataset-scene": "ad836b6f1645559e5351de60efd3453a81af72e0eba0c37165cb94226f53d397",
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


def _sha256_of(files: dict) -> str:
    h = hashlib.sha256()
    for rel, data in files.items():
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def digest(root):
    """sha256 over a directory's files, in sorted relative-path order."""
    return _sha256_of(bytes_of(root))


_CONFIG_HASH = re.compile(rb"(config_hash\W+)[0-9a-f]{16}")


def masked_digest(root):
    """digest() without the top-level config.json and with each config_hash
    value blanked, in the CSV comment and the JSON field alike."""
    return _sha256_of({rel: _CONFIG_HASH.sub(rb"\1" + b"-" * 16, data)
                       for rel, data in bytes_of(root).items() if rel != "config.json"})


def _scene_of(track):
    gates = track_splats(track)
    background = random_scene(np.random.default_rng(5), 600, span=4.0)
    background.means += [0.0, 0.0, 2.0]
    return GaussianScene(*map(np.concatenate, zip(gates.arrays(), background.arrays())))


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


def _digests(of) -> dict:
    """{name: of(output directory)} of every pinned command, each run in its
    own temporary directory with its printed tables discarded."""
    out = {}
    for name in PINS:
        with tempfile.TemporaryDirectory() as root, contextlib.redirect_stdout(io.StringIO()):
            out[name] = of(run_pinned(name, root))
    return out


if __name__ == "__main__":
    of = masked_digest if sys.argv[1:] == ["--masked"] else digest
    json.dump(_digests(of), sys.stdout, sort_keys=True)
