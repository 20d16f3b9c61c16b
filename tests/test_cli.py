"""End-to-end command-line runs: determinism of written artifacts, exit
codes, and the file formats."""

import concurrent.futures
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gatesim import cli
from gatesim.cli import _trial_job, config_hash, main, make_policy, resolve_track
from gatesim.policies import MaskCentroidPolicy, NoisyMaskPolicy
from gatesim.render import DEFAULT_CAMERA, camera_pose, gate_mask, pgm_bytes
from gatesim.scene import read_scene, write_scene
from gatesim.simulator import MISS, jittered_initial_pose
from gatesim.tracks import (ARENAS, GATE_GEOMETRY, Gate, Track, reference_track, save_track,
                            track_splats, track_to_dict)

from conftest import random_scene, read_netpbm
from pinned import PINS, bytes_of, digest, mini_track, pgr_config, run_pinned, tree


def _moving_uav_track():
    geo = GATE_GEOMETRY["uav"]
    static = Gate.static(geo["shape"], geo["inner_half"], geo["ring"], (0.0, 0.0, 2.0), 0.0)
    moving = Gate(geo["shape"], geo["inner_half"], geo["ring"],
                  ((0.0, np.array([8.0, -1.0, 2.0]), 0.0), (4.0, np.array([8.0, 1.0, 2.0]), 0.2)))
    return Track("moving-uav", "uav", (static, moving), ARENAS["uav"])


class _CountingPool:
    """Stand-in for ProcessPoolExecutor that maps in this process and
    records the worker count of every pool built."""

    built = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the pools a command builds, on a 2-cpu machine."""
    monkeypatch.setattr(_CountingPool, "built", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return _CountingPool.built


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_writes_deterministic_outputs(tmp_path, capsys):
    args = ["evaluate", "--tracks", "uav-slalom", "--trials", "2", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a, b = bytes_of(tmp_path / "a"), bytes_of(tmp_path / "b")
    assert set(a) == set(b) == {
        "config.json",
        "metrics.csv",
        "summary.json",
        "events/uav-slalom.csv",
        "trajectories/uav-slalom_00.csv",
        "trajectories/uav-slalom_01.csv",
    }
    assert a == b
    # a different seed changes the jittered trajectories
    assert main(args[:-1] + ["8", "--out", str(tmp_path / "c")]) == 0
    c = bytes_of(tmp_path / "c")
    assert c["trajectories/uav-slalom_00.csv"] != a["trajectories/uav-slalom_00.csv"]

    text = a["metrics.csv"].decode()
    lines = text.strip().split("\n")
    assert lines[0] == "track,policy,trials,gates,successes,sr,mge"
    assert lines[-1].startswith("# config_hash ")
    payload = json.loads(a["summary.json"])
    assert payload["policy"] == "expert"
    assert "uav-slalom" in payload["tracks"]
    capsys.readouterr()


def test_evaluate_job_count_does_not_change_results(tmp_path, capsys):
    base = ["evaluate", "--tracks", "quad-turn", "--trials", "2", "--seed", "3"]
    assert main(base + ["--jobs", "1", "--out", str(tmp_path / "j1")]) == 0
    assert main(base + ["--jobs", "2", "--out", str(tmp_path / "j2")]) == 0
    assert bytes_of(tmp_path / "j1") == bytes_of(tmp_path / "j2")
    capsys.readouterr()


def test_evaluate_bytes_are_pinned(tmp_path, capsys):
    # the expert on all six bundled tracks: uav and quad, static and moving
    # gates; any drift in the rollout loop or what evaluate writes moves this
    out = run_pinned("evaluate", tmp_path)
    assert len(tree(out)) == 3 + 6 + 12
    assert digest(out) == PINS["evaluate"]
    capsys.readouterr()


def test_evaluate_moving_gate_mask_bytes_are_pinned(tmp_path, capsys):
    # classical-noisy on quad-drift: gate masks of a moving gate, so the
    # per-tick gate frame, camera pose and ring window all enter the bytes
    out = run_pinned("moving-gate-mask", tmp_path)
    assert len(tree(out)) == 3 + 1 + 2
    assert digest(out) == PINS["moving-gate-mask"]
    capsys.readouterr()


def _kernel_outputs(*args):
    """{kernel: stdout} of `python *args` on this package in three child
    interpreters, with OPENBLAS_CORETYPE unset (the default kernel), Haswell
    and Prescott; the variable is set for the children only."""
    children = {}
    try:
        for kernel in (None, "Haswell", "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if kernel is not None:
                env["OPENBLAS_CORETYPE"] = kernel
            src = str(Path(cli.__file__).resolve().parents[1])
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            children[kernel] = subprocess.Popen([sys.executable, *args], env=env,
                                                stdout=subprocess.PIPE, text=True)
        outs = {k: child.communicate(timeout=600)[0] for k, child in children.items()}
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    assert [child.returncode for child in children.values()] == [0, 0, 0]
    return outs


def test_pinned_bytes_do_not_depend_on_the_blas_kernel():
    # every 3-vector product on the rollout and sampler paths has one fixed
    # order of operations, so OpenBLAS's choice of kernel, whose dot products
    # round differently, moves no pinned byte
    outs = _kernel_outputs(str(Path(__file__).with_name("pinned.py")))
    digests = {k: json.loads(out) for k, out in outs.items()}
    assert digests[None] == digests["Haswell"] == digests["Prescott"] == PINS


def test_evaluate_maps_all_tracks_through_one_pool(tmp_path, monkeypatch, capsys, pools):
    monkeypatch.chdir(tmp_path)
    save_track("mini-uav.json", mini_track("uav"))
    save_track("mini-quad.json", mini_track("quad"))
    assert main(["evaluate", "--tracks", "mini-uav.json", "mini-quad.json", "--trials", "2",
                 "--tick-hz", "10", "--jobs", "2"]) == 0
    assert pools == [2]
    capsys.readouterr()


def test_jobs_are_capped_at_the_cpu_count(tmp_path, monkeypatch, capsys, pools):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.chdir(tmp_path)
    save_track("mini-uav.json", mini_track("uav"))
    assert main(["evaluate", "--tracks", "mini-uav.json", "--trials", "2",
                 "--tick-hz", "10", "--jobs", "2"]) == 0
    assert pools == []
    capsys.readouterr()


def test_evaluate_classical_on_custom_quad_track(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_track("mini-quad.json", mini_track("quad"))
    rc = main(
        ["evaluate", "--tracks", "mini-quad.json", "--policy", "classical-noisy",
         "--trials", "1", "--tick-hz", "10", "--out", "out"]
    )
    assert rc == 0
    lines = Path("out/metrics.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header, one row, hash comment
    assert lines[1].startswith("mini-quad.json,classical-noisy,1,")
    capsys.readouterr()


def test_evaluate_classical_skips_uav_tracks(capsys):
    # classical is quad-only; asking for it on a uav track leaves nothing to run
    assert main(["evaluate", "--tracks", "uav-slalom", "--policy", "classical"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--tracks", "no-such-track"],
    ["evaluate", "--tracks", "dir"],
    ["evaluate", "--tracks", ""],
    ["perturb", "--track", "dir"],
    ["export-dataset", "--track", "dir", "--out", "out"],
], ids=["evaluate-unknown", "evaluate-dir", "evaluate-empty", "perturb-dir", "export-dir"])
def test_unknown_track_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    # a directory is not a track file, and "" names the working directory
    monkeypatch.chdir(tmp_path)
    Path("dir").mkdir()
    assert main(argv) == 2
    assert f"error: no track named {argv[2]!r}; bundled tracks: " in capsys.readouterr().err


def test_evaluate_writes_only_inside_out_for_tracks_given_by_path(tmp_path, monkeypatch, capsys):
    # an absolute path and a nested relative one: each track's files are
    # named by its spec's file name, so all of them land under --out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "abs").mkdir()
    (tmp_path / "sub" / "deep").mkdir(parents=True)
    spec = str(tmp_path / "abs" / "mytrack.json")
    save_track(spec, mini_track("uav"))
    save_track("sub/deep/other.json", mini_track("quad"))
    before = set(tree(tmp_path))
    assert main(["evaluate", "--tracks", spec, "sub/deep/other.json", "--trials", "1",
                 "--tick-hz", "10", "--out", "out"]) == 0
    assert set(tree(tmp_path)) - before == {
        "out/config.json",
        "out/metrics.csv",
        "out/summary.json",
        "out/events/mytrack.json.csv",
        "out/events/other.json.csv",
        "out/trajectories/mytrack.json_00.csv",
        "out/trajectories/other.json_00.csv",
    }
    # the tables still name each track by its spec
    lines = Path("out/metrics.csv").read_text().split("\n")
    assert lines[1].startswith(f"{spec},expert,1,")
    assert lines[2].startswith("sub/deep/other.json,expert,1,")
    assert set(json.loads(Path("out/summary.json").read_text())["tracks"]) == {
        spec, "sub/deep/other.json"}
    capsys.readouterr()


@pytest.mark.parametrize("first,second", [("a/t.json", "b/t.json"), ("quad-turn", "x/quad-turn")])
def test_two_tracks_with_one_file_name_are_a_config_error(tmp_path, monkeypatch, capsys,
                                                           first, second):
    monkeypatch.chdir(tmp_path)
    for spec in (first, second):
        if "/" in spec:
            Path(spec).parent.mkdir()
            save_track(spec, mini_track("quad"))
    assert main(["evaluate", "--tracks", first, second, "--trials", "1", "--out", "out"]) == 2
    assert (f"tracks {first!r} and {second!r} would both write files named "
            f"{Path(second).name!r}") in capsys.readouterr().err
    assert not Path("out").exists()


def test_repeated_track_is_a_config_error(tmp_path, capsys):
    # outputs are keyed by track name, so a second run would overwrite the first
    out = tmp_path / "out"
    assert main(["evaluate", "--tracks", "quad-turn", "uav-slalom", "quad-turn",
                 "--out", str(out)]) == 2
    assert "track 'quad-turn' is named more than once" in capsys.readouterr().err
    assert not out.exists()


def _set_keyframe(d, **values):
    d["gates"][1]["keyframes"][-1].update(values)


def _set_gate(d, **values):
    d["gates"][1].update(values)


@pytest.mark.parametrize("edit,message", [
    (lambda d: _set_gate(d, shape="circular"),
     "gates[1]: uav gates are square with inner_half 1.0 and ring 0.2, "
     "got circular with inner_half 1.0 and ring 0.2"),
    (lambda d: _set_gate(d, inner_half=0.39), "got square with inner_half 0.39 and ring 0.2"),
    (lambda d: _set_gate(d, ring=0.3), "got square with inner_half 1.0 and ring 0.3"),
    (lambda d: _set_keyframe(d, center=[1.0, float("nan"), 2.0]),
     "gates[1]: center must be 3 finite numbers, got [1.0, nan, 2.0]"),
    (lambda d: _set_keyframe(d, center=[1.0, 2.0, float("inf")]),
     "gates[1]: center must be 3 finite numbers, got [1.0, 2.0, inf]"),
    (lambda d: _set_keyframe(d, center=[1.0, 2.0]),
     "gates[1]: center must be 3 finite numbers, got [1.0, 2.0]"),
    (lambda d: _set_keyframe(d, center=[[1.0, 2.0, 3.0]]),
     "gates[1]: center must be 3 finite numbers, got [[1.0, 2.0, 3.0]]"),
    (lambda d: _set_keyframe(d, yaw=float("nan")),
     "gates[1]: keyframe time and yaw must be finite, got t=4.0, yaw=nan"),
    (lambda d: _set_keyframe(d, t=float("inf")),
     "gates[1]: keyframe time and yaw must be finite, got t=inf"),
    (lambda d: d.update(arena="hangar"), "unknown arena 'hangar'; accepted: quad, uav"),
    (lambda d: d.update(platform="boat"), "unknown platform 'boat'; accepted: quad, uav"),
    (lambda d: d.pop("gates"), 'missing "gates"'),
    (lambda d: d["gates"][1]["keyframes"][1].pop("center"),
     'gates[1].keyframes[1]: missing "center"'),
    (lambda d: d["gates"].__setitem__(1, [1.0, 2.0]),
     "gates[1]: expected an object, got [1.0, 2.0]"),
], ids=["shape", "opening", "ring", "nan-center", "inf-center", "short-center", "nested-center",
        "nan-yaw", "inf-time", "arena", "platform", "no-gates", "no-center", "gate-list"])
def test_bad_track_file_is_a_config_error(tmp_path, capsys, edit, message):
    d = track_to_dict(_moving_uav_track())
    edit(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))   # json writes NaN and Infinity literals
    assert main(["evaluate", "--tracks", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------


def test_perturb_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_track("mini-uav.json", mini_track("uav"))
    args = ["perturb", "--track", "mini-uav.json", "--levels", "0,10",
            "--tracks-per-level", "2", "--seed", "5"]
    assert main(args + ["--out", "p1"]) == 0
    assert main(args + ["--out", "p2"]) == 0
    assert bytes_of("p1") == bytes_of("p2")

    lines = Path("p1/perturbation.csv").read_text().strip().split("\n")
    assert lines[0] == "level_cm,policy,gates,successes,sr,mge"
    assert len(lines) == 4
    payload = json.loads(Path("p1/summary.json").read_text())
    assert [c["level_cm"] for c in payload["curve"]] == [0.0, 10.0]
    assert isinstance(payload["spearman_rho"], float)
    capsys.readouterr()


def test_perturb_hash_covers_tick_rate(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_track("mini-uav.json", mini_track("uav"))
    args = ["perturb", "--track", "mini-uav.json", "--levels", "0", "--tracks-per-level", "1"]
    hashes = set()
    for hz in ("10", "50"):
        assert main(args + ["--tick-hz", hz, "--out", hz]) == 0
        hashes.add(json.loads(Path(hz, "summary.json").read_text())["config_hash"])
    assert len(hashes) == 2
    capsys.readouterr()


def test_perturb_job_count_does_not_change_results(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_track("mini-uav.json", mini_track("uav"))
    args = ["perturb", "--track", "mini-uav.json", "--levels", "0,30",
            "--tracks-per-level", "2", "--tick-hz", "10", "--seed", "6"]
    assert main(args + ["--jobs", "1", "--out", "j1"]) == 0
    assert main(args + ["--jobs", "2", "--out", "j2"]) == 0
    assert bytes_of("j1") == bytes_of("j2")
    capsys.readouterr()


def test_perturb_maps_all_levels_through_one_pool(tmp_path, monkeypatch, capsys, pools):
    monkeypatch.chdir(tmp_path)
    save_track("mini-uav.json", mini_track("uav"))
    assert main(["perturb", "--track", "mini-uav.json", "--levels", "0,20,40",
                 "--tracks-per-level", "1", "--tick-hz", "10", "--jobs", "2"]) == 0
    assert pools == [2]
    capsys.readouterr()


@pytest.mark.parametrize("levels", ["nan", "inf", "-10,20", "20,", "abc", ""])
def test_bad_perturbation_levels_are_parse_errors(monkeypatch, capsys, levels):
    monkeypatch.setattr(cli, "run_trials", None)   # refused before any rollout
    with pytest.raises(SystemExit) as exit_info:
        main(["perturb", "--track", "quad-turn", f"--levels={levels}"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert ("argument --levels: expected comma-separated finite numbers >= 0 cm, "
            f"got {levels!r}") in err
    assert "Traceback" not in err


def test_perturb_bytes_are_pinned(tmp_path, capsys):
    # classical-noisy on quad-turn: perturbed tracks, masks, perception noise,
    # labelling and a Spearman rho that is not 0; any drift moves this digest
    out = run_pinned("perturb", tmp_path)
    assert json.loads((out / "summary.json").read_text())["spearman_rho"] < -0.5
    assert digest(out) == PINS["perturb"]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# pgr
# ---------------------------------------------------------------------------


def test_pgr_outputs(tmp_path, capsys):
    cfg = pgr_config(tmp_path)
    args = ["pgr", "--config", cfg, "--seed", "2"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    assert bytes_of(tmp_path / "r1") == bytes_of(tmp_path / "r2")

    conf = json.loads((tmp_path / "r1/config.json").read_text())
    assert conf["per_gate_counts"] == [2, 1, 1, 1]
    assert conf["n0"] == 2.0 and conf["seed"] == 2

    lines = (tmp_path / "r1/losses.csv").read_text().strip().split("\n")
    assert lines[0] == "iteration,grid_idx,loss,weight,samples"
    # 2 iterations x 4 grids, plus header and the hash comment
    assert len(lines) == 2 + 2 * 4
    assert lines[-1].startswith("# config_hash")

    hist = json.loads((tmp_path / "r1/history.json").read_text())
    assert len(hist["pgr"]) == 2
    assert len(hist["uniform"]) == 2
    assert len(hist["top_decile_allocation"]) == 1
    row = hist["top_decile_allocation"][0]
    assert set(row) == {"iteration", "pgr", "uniform"}
    capsys.readouterr()


def test_pgr_skip_uniform(tmp_path, capsys):
    cfg = pgr_config(tmp_path, iterations=1)
    assert main(["pgr", "--config", cfg, "--skip-uniform", "--out", str(tmp_path / "r")]) == 0
    hist = json.loads((tmp_path / "r/history.json").read_text())
    assert "uniform" not in hist and "top_decile_allocation" not in hist
    # the hash of a valid config is pinned: validation must not move it
    assert hist["config_hash"] == "28713d4bd70e3db6"
    assert len(hist["pgr"]) == 1
    capsys.readouterr()


def test_pgr_bytes_are_pinned(tmp_path, capsys):
    # learner rollouts on static uav gates, the sampler and the loss tables
    assert digest(run_pinned("pgr", tmp_path)) == PINS["pgr"]
    capsys.readouterr()


@pytest.mark.parametrize("extra,message", [
    ({"tick_hz": 0}, "tick_hz must be > 0, got 0.0"),
    ({"beta": 1.5}, "beta must be in [0, 1]"),
    ({"beta": None}, "beta must be a number, got None"),
    ({"per_gate_counts": 3}, "per_gate_counts must be four ints >= 1, got 3"),
    ({"platform": "boat"}, "unknown platform 'boat'; accepted: quad, uav"),
    ({"per_gate_counts": [2, 2]}, "per_gate_counts must be four ints >= 1, got [2, 2]"),
    ({"per_gate_counts": [2, 0, 1, 1]}, "per_gate_counts must be four ints >= 1"),
    ({"per_gate_counts": [2, 1.5, 1, 1]}, "per_gate_counts must be four ints >= 1"),
    ({"initial_per_cell": 0}, "initial_per_cell must be >= 1, got 0"),
    ({"val_per_cell": 0}, "val_per_cell must be >= 1, got 0"),
    ({"samples_per_iteration": 0}, "samples_per_iteration must be >= 1, got 0"),
    ({"iterations": -1}, "iterations must be >= 1, got -1"),
    ({"lambda_pos": -0.5}, "lambda_pos must be a finite number >= 0, got -0.5"),
    ({"lambda_pos": float("nan")}, "lambda_pos must be a finite number >= 0, got nan"),
    ({"lambda_pos": float("inf")}, "lambda_pos must be a finite number >= 0, got inf"),
    ({"n0": float("nan")}, "n0 must be a finite number > 0, got nan"),
    ({"n0": float("inf")}, "n0 must be a finite number > 0, got inf"),
    ({"n0": 0}, "n0 must be a finite number > 0, got 0.0"),
    ({"n0": -1.0}, "n0 must be a finite number > 0, got -1.0"),
    # JSON's Infinity parses to inf; 30 Hz is no whole number of either platform's steps
    ({"tick_hz": float("inf")},
     "tick_hz inf gives a tick period that is not a whole number of 0.02 s dynamics steps"),
    ({"tick_hz": 30}, "tick_hz 30.0 gives a tick period that is not a whole number of 0.02 s"),
    ({"platform": "quad", "tick_hz": 30},
     "tick_hz 30.0 gives a tick period that is not a whole number of 0.01 s"),
    # a count is an integer: neither rounded from a float nor read from a bool or str
    ({"iterations": 2.7}, "iterations must be an integer, got 2.7"),
    ({"iterations": 3.0}, "iterations must be an integer, got 3.0"),
    ({"iterations": True}, "iterations must be an integer, got True"),
    ({"initial_per_cell": False}, "initial_per_cell must be an integer, got False"),
    ({"val_per_cell": "3"}, "val_per_cell must be an integer, got '3'"),
    ({"samples_per_iteration": 2.5}, "samples_per_iteration must be an integer, got 2.5"),
    ({"per_gate_counts": [2, 2, 2, True]},
     "per_gate_counts must be four ints >= 1, got [2, 2, 2, True]"),
    # the rates and weights are numbers, and neither a bool nor a str is one
    ({"beta": True}, "beta must be a number, got True"),
    ({"lambda_pos": "1.0"}, "lambda_pos must be a number, got '1.0'"),
    ({"tick_hz": "10"}, "tick_hz must be a number, got '10'"),
    ({"n0": False}, "n0 must be a number, got False"),
])
def test_pgr_config_bad_values_are_config_errors(tmp_path, capsys, extra, message):
    cfg = pgr_config(tmp_path, **extra)
    assert main(["pgr", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert f"{cfg}: {message}" in err
    # refused before the validation set is built
    assert out == ""
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("counts,cells", [([4, 4, 4, 5], 102_400),
                                          ([256, 256, 256, 256], 256 ** 8),
                                          ([1000, 1000, 1000, 1000], 1000 ** 8)])
def test_pgr_refuses_too_many_cells_before_any_run(tmp_path, capsys, counts, cells):
    cfg = pgr_config(tmp_path, per_gate_counts=counts)
    assert main(["pgr", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert f"{cfg}: per_gate_counts {counts} give {cells} grid cells; at most 65536" in err
    assert "validation" not in out
    assert not (tmp_path / "r").exists()


def test_pgr_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pgr", "--config", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "must be a JSON object, got list"),
    ("3", "must be a JSON object, got int"),
    ('"uav"', "must be a JSON object, got str"),
    ('{"iteration": 1}', "unknown pgr config key(s) iteration"),
    ('{"iterations": 1, "seed": 4, "betta": 0.1}', "unknown pgr config key(s) betta, seed"),
])
def test_pgr_config_must_be_an_object_of_known_keys(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["pgr", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_parse_error(capsys, jobs):
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--jobs", jobs])
    assert exit_info.value.code == 2
    assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "perturb", "export-dataset"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_tick_rate_must_be_positive_and_finite(capsys, command, value):
    with pytest.raises(SystemExit) as exit_info:
        extra = ["--track", "uav-slalom"] if command == "export-dataset" else []
        main([command, *extra, f"--tick-hz={value}"])
    assert exit_info.value.code == 2
    assert "argument --tick-hz: must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--trials"],
    ["export-dataset", "--track", "uav-slalom", "--trials"],
    ["perturb", "--tracks-per-level"],
], ids=" ".join)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_trial_counts_below_one_are_parse_errors(capsys, argv, value):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [value])
    assert exit_info.value.code == 2
    assert f"argument {argv[-1]}: must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--config", "c.json"],
    ["perturb", "--trials", "2"],
    ["perturb", "--config", "c.json"],
    ["pgr", "--trials", "2"],
    ["pgr", "--tick-hz", "50"],
    ["pgr", "--jobs", "2"],
    ["export-dataset", "--track", "uav-slalom", "--config", "c.json"],
], ids=" ".join)
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "pgr runs serially" in err if argv[1] == "--jobs" else "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# export-dataset
# ---------------------------------------------------------------------------


def test_export_dataset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    track = mini_track("uav")
    save_track("mini-uav.json", track)
    args = ["export-dataset", "--track", "mini-uav.json", "--trials", "1",
            "--tick-hz", "10", "--seed", "4"]
    assert main(args + ["--out", "d1"]) == 0
    assert main(args + ["--out", "d2"]) == 0
    assert bytes_of("d1") == bytes_of("d2")

    meta = json.loads(Path("d1/meta.json").read_text())
    assert meta["platform"] == "uav" and meta["trials"] == 1
    assert meta["camera"] == {"width": 160, "height": 120, "fx": 60.0, "fy": 60.0,
                              "cx": 80.0, "cy": 60.0}
    frames = sorted(Path("d1/t00").glob("frame*.pgm"))
    assert len(frames) == meta["frames"] > 0

    # frame 0's mask must match a from-scratch render at the seeded start pose
    seq = np.random.SeedSequence((4, 0, 0))
    init_seq, _ = seq.spawn(2)
    pos, yaw = jittered_initial_pose(track, np.random.default_rng(init_seq))
    want = gate_mask(list(track.gates), DEFAULT_CAMERA, camera_pose(pos, yaw, 0.0), t=0.0)
    assert frames[0].read_bytes() == pgm_bytes(want)

    rec0 = json.loads(Path("d1/t00/frame00000.json").read_text())
    assert rec0["t"] == 0.0
    assert rec0["target_gate"] == 0
    assert len(rec0["control"]) == 2 and len(rec0["expert_control"]) == 2
    assert rec0["history"] == [[0.0, 0.0]] * 4
    # the next frame's history ends with this frame's control
    rec1 = json.loads(Path("d1/t00/frame00001.json").read_text())
    assert rec1["history"][-1] == rec0["control"]
    capsys.readouterr()


def test_export_dataset_job_count_does_not_change_results(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_track("mini-quad.json", mini_track("quad"))
    args = ["export-dataset", "--track", "mini-quad.json", "--trials", "2",
            "--tick-hz", "10", "--seed", "2"]
    assert main(args + ["--jobs", "1", "--out", "j1"]) == 0
    assert main(args + ["--jobs", "2", "--out", "j2"]) == 0
    j1 = bytes_of("j1")
    assert {rel.split("/")[0] for rel in j1} == {"config.json", "meta.json", "t00", "t01"}
    assert j1 == bytes_of("j2")
    capsys.readouterr()


def test_export_dataset_bytes_are_pinned(tmp_path, capsys):
    # any drift in what the export writes, or in the rollouts behind it, moves this digest
    assert digest(run_pinned("export-dataset", tmp_path)) == PINS["export-dataset"]
    capsys.readouterr()


def test_export_dataset_clips_the_target_after_a_missed_last_gate(tmp_path, monkeypatch,
                                                                  capsys):
    # straight flight clears gate 1, then crosses gate 2's plane 4-5 m off-center
    geo = GATE_GEOMETRY["uav"]
    gates = tuple(Gate.static(geo["shape"], geo["inner_half"], geo["ring"], c, 0.0)
                  for c in [(0.0, 0.0, 2.0), (6.0, 4.0, 2.0)])
    track = Track("miss-last", "uav", gates, ARENAS["uav"])
    monkeypatch.chdir(tmp_path)
    save_track("miss-last.json", track)
    assert main(["export-dataset", "--track", "miss-last.json", "--policy", "zero",
                 "--tick-hz", "10", "--out", "d"]) == 0
    records = [json.loads(p.read_text()) for p in sorted(Path("d/t00").glob("frame*.json"))]

    # the same trial, run directly: its rollout and the targets the policy saw
    job = {"track": track, "policy": "zero", "key": (0, 0, 0), "tick_hz": 10.0,
           "level": None, "ticks": False}
    roll, ticks = _trial_job(job), _trial_job(dict(job, ticks=True))
    first, last = roll.gates
    assert first.crossed and last.outcome == MISS
    assert len(records) == len(ticks)
    after = [(rec, tick[2]) for rec, tick in zip(records, ticks) if rec["t"] > last.t_cross]
    assert len(after) > 10
    assert all(rec["target_gate"] == 1 and target == 2 for rec, target in after)
    assert [rec["target_gate"] for rec in records] == [
        int(rec["t"] >= first.t_cross) for rec in records]
    capsys.readouterr()


def test_export_dataset_needs_an_output_directory(capsys):
    assert main(["export-dataset", "--track", "uav-slalom"]) == 2
    assert "export-dataset needs --out" in capsys.readouterr().err


def test_export_dataset_with_scene(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    track = mini_track("uav")
    save_track("mini-uav.json", track)
    write_scene("splats.ply", track_splats(track))
    rc = main(["export-dataset", "--track", "mini-uav.json", "--scene", "splats.ply",
               "--trials", "1", "--tick-hz", "10", "--out", "d"])
    assert rc == 0
    ppms = sorted(Path("d/t00").glob("frame*.ppm"))
    pgms = sorted(Path("d/t00").glob("frame*.pgm"))
    assert len(ppms) == len(pgms) > 0
    rgb = read_netpbm(ppms[0].read_bytes())
    assert rgb.shape == (120, 160, 3)
    capsys.readouterr()


def test_export_dataset_scene_bytes_are_pinned(tmp_path, capsys):
    # the gate splats of a mini track among a seeded field of background
    # splats; any drift in the compositor's output bytes moves this digest
    out = run_pinned("export-dataset-scene", tmp_path)
    assert len(list((out / "t00").glob("frame*.ppm"))) == 9
    assert digest(out) == PINS["export-dataset-scene"]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# edit-scene / render
# ---------------------------------------------------------------------------


def test_edit_scene_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    scene = random_scene(rng, 20)
    scene.add_object("sel", np.arange(5))
    write_scene("scene.ply", scene)
    donor = random_scene(rng, 3)
    write_scene("donor.ply", donor)
    script = [
        {"op": "translate", "selection": "sel", "delta": [1.0, 0.0, 0.0]},
        {"op": "duplicate", "selection": "sel", "offset": [0.0, 1.0, 0.0], "object_id": "dup"},
        {"op": "add", "scene": "donor.ply", "object_id": "extra", "translation": [0.0, 0.0, 1.0]},
    ]
    Path("script.json").write_text(json.dumps(script))
    assert main(["edit-scene", "--scene", "scene.ply", "--script", "script.json",
                 "--out", "out.ply"]) == 0
    out = read_scene("out.ply")
    assert len(out) == 20 + 5 + 3
    assert sorted(out.objects) == ["dup", "extra", "sel"]
    np.testing.assert_allclose(out.means[:5], scene.means[:5] + [1.0, 0.0, 0.0])
    np.testing.assert_allclose(out.means[out.objects["dup"]],
                               scene.means[:5] + [1.0, 1.0, 0.0])
    np.testing.assert_allclose(out.means[out.objects["extra"]],
                               donor.means + [0.0, 0.0, 1.0])
    capsys.readouterr()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("record, field", [
    ({"op": "rotate", "axis": [_NAN, 0.0, 1.0], "angle": 0.7}, "axis"),
    ({"op": "rotate", "axis": [0.0, 0.0, 1.0], "angle": _NAN}, "angle"),
    ({"op": "rotate", "axis": [0.0, 0.0, 1.0], "angle": _INF}, "angle"),
    ({"op": "rotate", "axis": [0.0, 0.0, 1.0], "angle": 0.7, "pivot": [0.0, _NAN, 0.0]},
     "pivot"),
    ({"op": "translate", "delta": [_NAN, 0.0, 0.0]}, "delta"),
    ({"op": "scale", "factor": _NAN}, "factor"),
    ({"op": "scale", "factor": _INF}, "factor"),
    ({"op": "lighting", "mode": "multiply", "rgb": [_NAN, 1.0, 1.0]}, "rgb"),
    ({"op": "duplicate", "offset": [0.0, 0.0, _NAN]}, "offset"),
])
def test_edit_scene_refuses_non_finite_numbers(tmp_path, capsys, record, field):
    # each of these once wrote a scene that read_scene refuses
    scene = random_scene(np.random.default_rng(0), 6)
    scene.add_object("sel", np.arange(3))
    write_scene(tmp_path / "scene.ply", scene)
    script = [{"op": "translate", "selection": "sel", "delta": [1.0, 0.0, 0.0]},
              {**record, "selection": "sel"}]
    (tmp_path / "script.json").write_text(json.dumps(script))
    assert main(["edit-scene", "--scene", str(tmp_path / "scene.ply"), "--script",
                 str(tmp_path / "script.json"), "--out", str(tmp_path / "out.ply")]) == 2
    assert f"edit record 1: non-finite {field}" in capsys.readouterr().err
    assert not (tmp_path / "out.ply").exists()


@pytest.mark.parametrize("record", [{"op": "scale", "factor": 1e308},
                                    {"op": "translate", "delta": [1.7e308, 0.0, 0.0]}],
                         ids=["scale", "translate"])
def test_edit_scene_refuses_a_scene_that_overflows(tmp_path, capsys, record):
    # each record is finite, but applied twice it overflows a field to inf;
    # the error is all that is reported, with no numpy warning before it
    write_scene(tmp_path / "scene.ply", track_splats(reference_track("uav-slalom")))
    (tmp_path / "script.json").write_text(json.dumps([{**record, "selection": "gate_1"}] * 2))
    out = tmp_path / "out.ply"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["edit-scene", "--scene", str(tmp_path / "scene.ply"), "--script",
                     str(tmp_path / "script.json"), "--out", str(out)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == "error: non-finite field at gaussian 0\n"
    assert not out.exists()


@pytest.mark.parametrize("record, message", [
    ({"op": "translate", "delta": [1, 0, 0]}, "translate needs 'selection'"),
    ({"op": "translate", "selection": {"box": [[0, 0, 0]]}, "delta": [1, 0, 0]},
     'selection must be an object id or {"box": [min, max]} of two 3-vectors, '
     "got {'box': [[0, 0, 0]]}"),
    ({"op": "translate", "selection": "gate_1", "delta": [1, 0, 0], "pivto": 3},
     "translate does not read 'pivto'; it reads selection, delta"),
    # a well-formed record whose edit fails is named too, by the plain text of
    # a KeyError and by the key of a vector of the wrong length
    ({"op": "translate", "selection": "gate_9", "delta": [1, 0, 0]},
     "unknown object id: 'gate_9'"),
    ({"op": "translate", "selection": "gate_1", "delta": [1, 0]},
     "delta must be 3 numbers, got [1, 0]"),
    # number fields that are not numbers, by their key too
    ({"op": "translate", "selection": "gate_1", "delta": "abc"},
     "delta must be 3 numbers, got abc"),
    ({"op": "rotate", "selection": "gate_1", "axis": [0, 0, 1], "angle": "x"},
     "angle must be one number, got x"),
], ids=["no-selection", "short-box", "unread-key", "unknown-object", "short-delta",
        "text-delta", "text-angle"])
def test_edit_scene_refuses_a_malformed_record(tmp_path, capsys, record, message):
    # these once died with a traceback (exit 1) or were applied (exit 0)
    write_scene(tmp_path / "scene.ply", track_splats(reference_track("uav-slalom")))
    (tmp_path / "script.json").write_text(json.dumps([record]))
    out = tmp_path / "out.ply"
    assert main(["edit-scene", "--scene", str(tmp_path / "scene.ply"), "--script",
                 str(tmp_path / "script.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: edit record 0: {message}\n"
    assert not out.exists()


def test_edit_scene_names_the_record_of_a_missing_donor(tmp_path, capsys):
    # the donor path is read relative to the script's directory
    write_scene(tmp_path / "scene.ply", track_splats(reference_track("uav-slalom")))
    script = [{"op": "delete", "selection": "gate_1"}, {"op": "add", "scene": "nope.ply"}]
    (tmp_path / "script.json").write_text(json.dumps(script))
    out = tmp_path / "out.ply"
    assert main(["edit-scene", "--scene", str(tmp_path / "scene.ply"), "--script",
                 str(tmp_path / "script.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: edit record 1: [Errno 2] No such file or "
                                       f"directory: '{tmp_path / 'nope.ply'}'\n")
    assert not out.exists()


def test_edit_scene_rotation_bytes_do_not_depend_on_the_blas_kernel():
    # a scripted rotation's axis is normalised by the fixed-order dot; this
    # axis's BLAS norm rounds differently under the Haswell and Prescott kernels
    code = """
import hashlib, json, sys, tempfile
from pathlib import Path
from gatesim.cli import main
from gatesim.scene import write_scene
from gatesim.tracks import reference_track, track_splats
with tempfile.TemporaryDirectory() as d:
    d = Path(d)
    write_scene(d / "scene.ply", track_splats(reference_track("uav-slalom")))
    script = [{"op": "rotate", "selection": "gate_1", "axis": [0.3, -1.7, 2.9], "angle": 0.7}]
    (d / "script.json").write_text(json.dumps(script))
    assert main(["edit-scene", "--scene", str(d / "scene.ply"), "--script",
                 str(d / "script.json"), "--out", str(d / "out.ply")]) == 0
    print(hashlib.sha256((d / "out.ply").read_bytes()).hexdigest())
"""
    outs = _kernel_outputs("-c", code)
    assert len(set(outs.values())) == 1, outs


def test_render_track_rgb_and_mask(tmp_path, capsys):
    out = tmp_path / "r.ppm"
    mask_path = tmp_path / "m.pgm"
    rc = main(["render", "--track", "quad-turn", "--out", str(out),
               "--mask", str(mask_path)])
    assert rc == 0
    rgb = read_netpbm(out.read_bytes())
    assert rgb.shape == (120, 160, 3)
    got = read_netpbm(mask_path.read_bytes())
    track = resolve_track("quad-turn")
    pos, yaw = track.initial_pose()
    want = gate_mask(list(track.gates), DEFAULT_CAMERA, camera_pose(pos, yaw, 0.0), t=0.0)
    np.testing.assert_array_equal(got > 0, want)
    capsys.readouterr()


def test_render_scene_mode(tmp_path, capsys):
    scene_path = tmp_path / "s.ply"
    write_scene(scene_path, random_scene(np.random.default_rng(1), 10))
    out = tmp_path / "img.ppm"
    rc = main(["render", "--scene", str(scene_path), "--position", "0,-3,1",
               "--yaw", "1.57", "--camera-scale", "0.5", "--out", str(out)])
    assert rc == 0
    assert read_netpbm(out.read_bytes()).shape == (60, 80, 3)
    capsys.readouterr()


def test_render_argument_validation(tmp_path, capsys):
    scene_path = tmp_path / "s.ply"
    write_scene(scene_path, random_scene(np.random.default_rng(1), 4))
    # exactly one of --scene / --track
    assert main(["render"]) == 2
    assert main(["render", "--scene", str(scene_path), "--track", "quad-turn"]) == 2
    # scene mode needs a camera position
    assert main(["render", "--scene", str(scene_path), "--out", str(tmp_path / "x.ppm")]) == 2
    capsys.readouterr()
    # a flag that the mode does not read is refused, by name, before any output
    out, mask = tmp_path / "a.ppm", tmp_path / "m.pgm"
    scene_mode = ["render", "--scene", str(scene_path), "--position", "0,0,1", "--out", str(out)]
    for argv, message in [
        (scene_mode + ["--mask", str(mask), "--time", "5"], "--mask is read only with --track"),
        (scene_mode + ["--time", "5"], "--time is read only with --track"),
        (scene_mode + ["--time", "0"], "--time is read only with --track"),
        (["render", "--track", "quad-turn", "--yaw", "1.0", "--out", str(out)],
         "--yaw is read only with --position"),
        (["render", "--track", "quad-turn"], "give --out, or --mask with --track"),
        (["render", "--scene", str(scene_path), "--position", "0,0,1"], "give --out"),
    ]:
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists() and not mask.exists()
    # each is read where it belongs
    assert main(["render", "--track", "quad-turn", "--position", "0,0,1", "--yaw", "1.0",
                 "--time", "5", "--mask", str(mask)]) == 0
    assert main(scene_mode + ["--yaw", "1.0"]) == 0
    assert out.exists() and mask.exists()
    capsys.readouterr()


@pytest.mark.parametrize("flag, value, message", [
    ("--camera-scale", "0", "must be a finite number > 0, got 0.0"),
    ("--camera-scale", "-1", "must be a finite number > 0, got -1.0"),
    ("--camera-scale", "inf", "must be a finite number > 0, got inf"),
    ("--camera-scale", "nan", "must be a finite number > 0, got nan"),
    ("--camera-scale", "0.004", "0.004 gives a 1 x 0 frame, smaller than 1 x 1"),
    ("--camera-scale", "25.7", "25.7 gives a 4112 x 3084 frame, wider or taller than 4096 px"),
    ("--camera-scale", "200", "200.0 gives a 32000 x 24000 frame, wider or taller than 4096 px"),
    ("--position", "nan,0,1", "expected three comma-separated finite numbers x,y,z, got 'nan,0,1'"),
    ("--position", "1,2", "expected three comma-separated finite numbers x,y,z, got '1,2'"),
    ("--position", "1,2,3,4", "expected three comma-separated finite numbers x,y,z, got '1,2,3,4'"),
    ("--position", "1,inf,3", "expected three comma-separated finite numbers x,y,z, got '1,inf,3'"),
    ("--position", "a,b,c", "expected three comma-separated finite numbers x,y,z, got 'a,b,c'"),
    ("--yaw", "nan", "expected a finite number, got 'nan'"),
    ("--pitch", "-inf", "expected a finite number, got '-inf'"),
    ("--time", "inf", "expected a finite number, got 'inf'"),
    ("--time", "soon", "expected a finite number, got 'soon'"),
])
def test_bad_render_flags_are_parse_errors(tmp_path, capsys, flag, value, message):
    out = tmp_path / "r.ppm"
    with pytest.raises(SystemExit) as exit_info:
        main(["render", "--track", "quad-turn", f"{flag}={value}", "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_largest_camera_scale_is_accepted():
    # parsed only: a 4096 x 3072 render is not worth its time here
    args = cli.build_parser().parse_args(["render", "--track", "quad-turn", "--camera-scale=25.6"])
    assert args.camera_scale == 25.6
    assert DEFAULT_CAMERA.scaled(args.camera_scale).width == cli.MAX_FRAME_SIDE


def test_smallest_camera_scale_renders_one_pixel(tmp_path, capsys):
    out = tmp_path / "r.ppm"
    assert main(["render", "--track", "quad-turn", "--camera-scale=0.005",
                 "--out", str(out)]) == 0
    assert read_netpbm(out.read_bytes()).shape == (1, 1, 3)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# run config: config.json and the hash of everything that moves an output byte
# ---------------------------------------------------------------------------


def _write_inputs():
    """The input files of the flag table, written into the working directory."""
    save_track("mini-uav.json", mini_track("uav"))
    save_track("mini-quad.json", mini_track("quad"))
    write_scene("splats.ply", track_splats(mini_track("uav")))
    write_scene("other.ply", random_scene(np.random.default_rng(1), 20))
    pgr_config(".", iterations=1)
    Path("pgr-beta.json").write_text(json.dumps({**json.loads(Path("pgr.json").read_text()),
                                                  "beta": 0.5}))


def _move_gate():
    """Move gate 0 of mini-uav.json by 0.5 m."""
    d = json.loads(Path("mini-uav.json").read_text())
    d["gates"][0]["keyframes"][0]["center"][1] += 0.5
    Path("mini-uav.json").write_text(json.dumps(d))


def _move_splat():
    """Move splat 0 of splats.ply, on the gate's ring, by 0.5 m."""
    scene = read_scene("splats.ply")
    scene.means[0] += [0.0, 0.5, 0.0]
    write_scene("splats.ply", scene)


# each command's tiny run, and the variations of it: each accepted flag once
# (a later flag overrides the run's own) and an edit of each input file
_RUNS = {
    "evaluate": ["evaluate", "--tracks", "mini-uav.json", "--trials", "1", "--tick-hz", "5"],
    "perturb": ["perturb", "--track", "mini-uav.json", "--levels", "0,20",
                "--tracks-per-level", "1", "--tick-hz", "5"],
    "pgr": ["pgr", "--config", "pgr.json"],
    "export-dataset": ["export-dataset", "--track", "mini-uav.json", "--scene", "splats.ply",
                       "--trials", "1", "--tick-hz", "5"],
}
_COMMON = [["--seed", "1"], ["--out", "elsewhere"]]
_TRIALS = _COMMON + [["--jobs", "2"], ["--tick-hz", "10"], ["--policy", "zero"]]
_VARIATIONS = {
    "evaluate": _TRIALS + [["--trials", "2"], ["--tracks", "mini-quad.json"], _move_gate],
    "perturb": _TRIALS + [["--track", "mini-quad.json"], ["--levels", "0,40"],
                          ["--tracks-per-level", "2"], _move_gate],
    "pgr": _COMMON + [["--config", "pgr-beta.json"], ["--jobs", "1"], ["--skip-uniform"]],
    "export-dataset": _TRIALS + [["--trials", "2"], ["--track", "mini-quad.json"],
                                 ["--scene", "other.ply"], _move_gate, _move_splat],
}
# the file that carries the hash in each command's own output
_HASHED = {"evaluate": "summary.json", "perturb": "summary.json", "pgr": "history.json",
           "export-dataset": "meta.json"}


def _hash_and_bytes(root, command, variation):
    """(config hash, output bytes) of the command's tiny run with the
    variation, in the fresh directory root holding its inputs."""
    root.mkdir()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        _write_inputs()
        flags = []
        if callable(variation):
            variation()
        else:
            flags = variation
        out = flags[1] if flags[:1] == ["--out"] else "out"
        assert main(_RUNS[command] + ["--out", "out"] + flags) == 0
        return json.loads((Path(out) / _HASHED[command]).read_text())["config_hash"], bytes_of(out)
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """(config hash, output bytes) of each command's tiny run, run once."""
    runs = {}

    def run(command):
        if command not in runs:
            runs[command] = _hash_and_bytes(tmp_path_factory.mktemp(command) / "run", command, [])
        return runs[command]

    return run


def _variation_id(v):
    if callable(v):
        return v.__name__.lstrip("_")
    return "=".join(v).removeprefix("--") if isinstance(v, list) else v


@pytest.mark.parametrize("command,variation", [
    (command, variation) for command, variations in _VARIATIONS.items()
    for variation in variations
], ids=_variation_id)
def test_each_input_changes_the_hash_or_no_output_byte(tmp_path, capsys, tiny_runs, command,
                                                       variation):
    base_hash, base = tiny_runs(command)
    varied_hash, varied = _hash_and_bytes(tmp_path / "varied", command, variation)
    assert varied_hash != base_hash or varied == base
    capsys.readouterr()


@pytest.mark.parametrize("command", _RUNS)
def test_config_json_reproduces_its_hash(capsys, tiny_runs, command):
    chash, files = tiny_runs(command)
    rest = json.loads(files["config.json"])
    assert rest.pop("config_hash") == chash
    assert config_hash(rest) == chash
    assert (rest["cmd"], rest["output_version"]) == (command, cli.OUTPUT_VERSION)
    # the config names no path: only the spec strings as given
    assert "/" not in files["config.json"].decode()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_commands_without_a_mask_policy_never_import_scipy(tmp_path):
    # a fresh interpreter, as every CLI run starts: scipy.stats and
    # scipy.ndimage are imported only inside the code that calls them
    config = tmp_path / "pgr.json"
    config.write_text(json.dumps({"platform": "uav", "per_gate_counts": [2, 1, 1, 1],
                                  "iterations": 1, "initial_per_cell": 1,
                                  "val_per_cell": 1, "tick_hz": 10.0}))
    src = Path(cli.__file__).resolve().parents[1]
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
import gatesim.cli
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded(), loaded()
for argv in (["pgr", "--config", {str(config)!r}, "--skip-uniform"],
             ["evaluate", "--tracks", "uav-slalom", "quad-turn", "--trials", "1"]):
    assert gatesim.cli.main(argv + ["--out", {str(tmp_path / "out")!r}]) == 0
    assert not loaded(), (argv[0], loaded())
"""
    res = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_mask_policies_and_serial_runs_load_neither_scipy_nor_a_process_pool(tmp_path):
    # a fresh interpreter: the mask policies label components without scipy,
    # and concurrent.futures is imported only for --jobs above 1
    src = Path(cli.__file__).resolve().parents[1]
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
import gatesim.cli
pools = sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")
assert not pools, pools
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
for argv in (["evaluate", "--policy", "classical-noisy", "--tracks", "quad-turn",
              "--trials", "1", "--jobs", "1"],
             ["export-dataset", "--policy", "classical", "--track", "quad-turn",
              "--tick-hz", "10"]):
    assert gatesim.cli.main(argv + ["--out", {str(tmp_path / "out")!r}]) == 0
    assert not loaded(), (argv[0], loaded())
"""
    res = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_config_hash_properties():
    a = config_hash({"x": 1, "y": [1, 2]})
    assert a == config_hash({"y": [1, 2], "x": 1})
    assert a != config_hash({"x": 2, "y": [1, 2]})
    assert len(a) == 16 and all(c in "0123456789abcdef" for c in a)


def test_make_policy():
    assert make_policy("classical", "quad").__class__ is MaskCentroidPolicy
    assert isinstance(make_policy("classical-noisy", "quad"), NoisyMaskPolicy)
    with pytest.raises(ValueError):
        make_policy("classical", "uav")
    with pytest.raises(ValueError):
        make_policy("nonsense", "uav")


def test_resolve_track(tmp_path):
    assert resolve_track("uav-shift").name == "uav-shift"
    path = tmp_path / "t.json"
    save_track(path, mini_track("uav"))
    assert resolve_track(str(path)).name == "mini-uav"
    with pytest.raises(ValueError):
        resolve_track("missing")
