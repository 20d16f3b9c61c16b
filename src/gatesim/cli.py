"""Command-line harness: evaluation tables, perturbation sweeps, refinement
runs, dataset export, scripted scene editing, and one-shot rendering.

Every command is deterministic given (--seed, config): reruns produce
byte-identical CSV/JSON outputs. evaluate, perturb, pgr and export-dataset
resolve their run config in run_config, write it as config.json, and carry
its hash in their quantitative outputs. Exit codes: 0 ok, 2 configuration
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .dynamics import platform_dynamics
from .edits import apply_edit_script
from .policies import (
    FullStateObs,
    MaskCentroidPolicy,
    NoisyMaskPolicy,
    SyntheticLearner,
    ZeroPolicy,
    expert_policy,
)
from .refinement import (
    GridPartition,
    PgrConfig,
    build_validation_set,
    pgr_pair,
    pgr_run,
    top_decile_allocation,
    worst_grid_loss,
)
from .render import DEFAULT_CAMERA, camera_pose, gate_mask, pgm_bytes, ppm_bytes, render_scene
from .scene import read_scene, write_scene
from .simulator import (
    SimConfig,
    events_csv,
    jittered_initial_pose,
    metrics,
    rollout,
    trajectory_csv,
    vehicle_camera_pose,
)
from .tracks import (
    load_track,
    perturb_track,
    reference_track,
    reference_track_names,
    track_splats,
    track_to_dict,
)

POLICY_NAMES = ("expert", "classical", "classical-noisy", "zero")
MAX_FRAME_SIDE = 4096        # px; render refuses a wider or taller frame
# enters every config hash; bump it in any change that declares an output change
OUTPUT_VERSION = 1


def config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_config(cmd: str, **inputs) -> tuple[dict, str]:
    """(config, hash) of a command's resolved inputs: everything its output
    bytes depend on besides the code, which OUTPUT_VERSION stands for.

    A "tracks" input is a list of (spec, Track) pairs, each recorded as the
    spec string as given plus the track's canonical dict, so editing a track
    file changes the hash. Files enter by content (a scene by its sha256),
    never by path; --jobs and --out change no output byte and stay out.
    """
    config = {"cmd": cmd, "output_version": OUTPUT_VERSION, **inputs}
    if "tracks" in inputs:
        config["tracks"] = [{"spec": spec, **track_to_dict(track)}
                            for spec, track in inputs["tracks"]]
    return config, config_hash(config)


def _write_config(out: Path, config: dict, chash: str) -> None:
    _write_json(out / "config.json", {"config_hash": chash, **config})


def _build_policy(name: str, platform: str):
    """The named policy, built for platform where it takes one; a mask
    policy's platform is its class's own."""
    if name == "expert":
        return expert_policy(platform)
    if name == "zero":
        return ZeroPolicy(platform)
    if name == "classical":
        return MaskCentroidPolicy()
    if name == "classical-noisy":
        return NoisyMaskPolicy(MaskCentroidPolicy())
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


def make_policy(name: str, platform: str):
    """The named policy for platform; ValueError when it flies another."""
    policy = _build_policy(name, platform)
    if policy.platform != platform:
        raise ValueError(f"mask policies fly the {policy.platform} platform, not {platform!r}")
    return policy


def resolve_track(spec: str):
    """A bundled track name, or a path to a track JSON file; a directory,
    or "" (which names "."), is neither."""
    if spec in reference_track_names():
        return reference_track(spec)
    path = Path(spec)
    if path.is_file():
        return load_track(path)
    raise ValueError(
        f"no track named {spec!r}; bundled tracks: {', '.join(reference_track_names())}"
    )


# ---------------------------------------------------------------------------
# Trial running (parallelizable across trials with stable seeding)
# ---------------------------------------------------------------------------


def _trial_job(payload: dict):
    """key -> (perturb the track) -> jittered start -> rollout.

    The key's SeedSequence spawns one child per random stream: perturbation
    (only when a level is given), initial-pose jitter, then the policy.
    Returns the rollout, or with "ticks" set the (t, state, target, history,
    control) the rollout observed on each policy tick.
    """
    track, level = payload["track"], payload["level"]
    children = np.random.SeedSequence(tuple(payload["key"])).spawn(2 if level is None else 3)
    init_seq, policy_seq = children[-2:]
    if level is not None:
        track = perturb_track(track, level, np.random.default_rng(children[0]))
    policy = make_policy(payload["policy"], track.platform)
    dyn = platform_dynamics(track.platform)
    pos, yaw = jittered_initial_pose(track, np.random.default_rng(init_seq))
    config = SimConfig(tick_hz=payload["tick_hz"])
    ticks = [] if payload["ticks"] else None
    roll = rollout(policy, track, config, rng=np.random.default_rng(policy_seq),
                   init_state=dyn.initial_state(pos, yaw),
                   observer=None if ticks is None else lambda *tick: ticks.append(tick))
    return roll if ticks is None else ticks


def run_trials(runs, policy_name: str, trials: int, seed: int, tick_hz: float, jobs: int,
               ticks: bool = False):
    """Seeded, jittered trials of each (stream, track, level) run, on the
    track shifted by level cm when one is given; one list of results per run.

    All trials go through one pool of at most os.cpu_count() workers, and
    results do not depend on the job count.
    """
    payloads = [
        {"track": track, "policy": policy_name, "key": (seed, stream, k),
         "tick_hz": tick_hz, "level": level, "ticks": ticks}
        for stream, track, level in runs
        for k in range(trials)
    ]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        # imported here: a --jobs 1 run never loads concurrent.futures
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_trial_job, payloads))
    else:
        results = [_trial_job(p) for p in payloads]
    return [results[i:i + trials] for i in range(0, len(results), trials)]


def _write(path: Path, data: str | bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data.encode() if isinstance(data, str) else data)


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _print_table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    names = args.tracks if args.tracks else reference_track_names()
    # a track's events and trajectory files are named by its spec's file
    # name, so a track given by path writes inside --out like a bundled one
    by_file = {}
    for name in names:
        stem = Path(name).name
        if stem in by_file:
            if by_file[stem] == name:
                raise ValueError(f"track {name!r} is named more than once")
            raise ValueError(f"tracks {by_file[stem]!r} and {name!r} would both write "
                             f"files named {stem!r}")
        by_file[stem] = name
    tracks = [(n, resolve_track(n)) for n in names]
    config, chash = run_config("evaluate", tracks=tracks, policy=args.policy,
                               trials=args.trials, seed=args.seed, tick_hz=args.tick_hz)

    # a mask policy flies only its own platform's tracks; the stream is the
    # index among all named tracks
    flown = [(idx, name, track) for idx, (name, track) in enumerate(tracks)
             if _build_policy(args.policy, track.platform).platform == track.platform]
    if not flown:
        raise ValueError(f"policy {args.policy!r} matched no requested track")
    results = run_trials([(idx, track, None) for idx, _, track in flown], args.policy,
                         args.trials, args.seed, args.tick_hz, args.jobs)

    rows = []
    per_track = {}
    for (_, name, track), rolls in zip(flown, results):
        m = metrics(rolls)
        per_track[name] = m
        mge = "n/a" if m["mge"] is None else f"{m['mge']:.3f}"
        rows.append([name, track.platform, args.trials, f"{100*m['sr']:.1f}%", mge])
    _print_table(rows, ["track", "platform", "trials", "SR", "MGE [m]"])

    if args.out:
        out = Path(args.out)
        csv_lines = ["track,policy,trials,gates,successes,sr,mge"]
        for name, m in per_track.items():
            mge = "" if m["mge"] is None else repr(m["mge"])
            csv_lines.append(
                f"{name},{args.policy},{args.trials},{m['gates']},{m['successes']},"
                f"{repr(m['sr'])},{mge}"
            )
        csv_lines.append(f"# config_hash {chash}")
        _write_config(out, config, chash)
        _write(out / "metrics.csv", "\n".join(csv_lines) + "\n")
        _write_json(out / "summary.json",
                    {"config_hash": chash, "policy": args.policy, "tracks": per_track})
        for (_, name, _), rolls in zip(flown, results):
            stem = Path(name).name
            _write(out / "events" / f"{stem}.csv", events_csv(rolls))
            for k, roll in enumerate(rolls):
                _write(out / "trajectories" / f"{stem}_{k:02d}.csv", trajectory_csv(roll))
    return 0


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------


def cmd_perturb(args) -> int:
    track = resolve_track(args.track)
    levels = args.levels
    config, chash = run_config("perturb", tracks=[(args.track, track)], policy=args.policy,
                               levels=levels, tracks_per_level=args.tracks_per_level,
                               seed=args.seed, tick_hz=args.tick_hz)

    results = run_trials([(li, track, level) for li, level in enumerate(levels)], args.policy,
                         args.tracks_per_level, args.seed, args.tick_hz, args.jobs)
    curve = [(level, metrics(rolls)) for level, rolls in zip(levels, results)]

    srs = [m["sr"] for _, m in curve]
    if len(levels) > 1:
        # imported here, not at module level: it is the slowest import of the
        # package and no other command uses it
        from scipy import stats as scipy_stats

        with warnings.catch_warnings():
            # a constant SR curve is a legitimate outcome, handled below
            warnings.simplefilter("ignore", scipy_stats.ConstantInputWarning)
            rho = float(scipy_stats.spearmanr(levels, srs).statistic)
    else:
        rho = 0.0
    if np.isnan(rho):
        rho = 0.0  # constant curve: no ordering either way

    rows = [
        [f"{lvl:.0f} cm", f"{100*m['sr']:.1f}%", "n/a" if m["mge"] is None else f"{m['mge']:.3f}"]
        for lvl, m in curve
    ]
    _print_table(rows, ["perturbation", "SR", "MGE [m]"])
    print(f"spearman rho(level, SR) = {rho:.3f}")

    if args.out:
        out = Path(args.out)
        lines = ["level_cm,policy,gates,successes,sr,mge"]
        for lvl, m in curve:
            mge = "" if m["mge"] is None else repr(m["mge"])
            lines.append(
                f"{repr(lvl)},{args.policy},{m['gates']},{m['successes']},{repr(m['sr'])},{mge}"
            )
        lines.append(f"# config_hash {chash}")
        _write_config(out, config, chash)
        _write(out / "perturbation.csv", "\n".join(lines) + "\n")
        _write_json(out / "summary.json", {
            "config_hash": chash,
            "curve": [{"level_cm": lvl, **m} for lvl, m in curve],
            "spearman_rho": rho,
        })
    return 0


# ---------------------------------------------------------------------------
# pgr
# ---------------------------------------------------------------------------


def _load_json(path):
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _history_row(stats):
    return {
        "iteration": stats.iteration,
        "val_sr": stats.val_sr,
        "val_mge": stats.val_mge,
        "worst_grid_loss": worst_grid_loss(stats),
        "mean_loss": float(np.mean(stats.losses)),
        "skipped_draws": int(sum(stats.skipped.values())),
    }


def _load_pgr_config(path, seed: int) -> PgrConfig:
    """The --config JSON object mapped onto PgrConfig; seed comes from --seed."""
    overrides = _load_json(path)
    if not isinstance(overrides, dict):
        raise ValueError(f"{path}: pgr config must be a JSON object, "
                         f"got {type(overrides).__name__}")
    accepted = [f.name for f in fields(PgrConfig) if f.name != "seed"]
    unknown = sorted(set(overrides) - set(accepted))
    if unknown:
        raise ValueError(f"{path}: unknown pgr config key(s) {', '.join(unknown)}; "
                         f"accepted: {', '.join(accepted)}")
    try:
        return PgrConfig(**overrides, seed=seed)
    except (TypeError, ValueError) as e:   # out of range, or of the wrong JSON type
        raise ValueError(f"{path}: {e}") from None


def cmd_pgr(args) -> int:
    config = _load_pgr_config(args.config, args.seed)
    platform = config.platform
    partition = GridPartition.default(platform, config.per_gate_counts)
    resolved, chash = run_config("pgr", **asdict(config), skip_uniform=args.skip_uniform)

    expert = expert_policy(platform)
    # its noise stream is the rng each rollout resets it with
    learner = SyntheticLearner(partition, expert_policy(platform), n0=config.n0)

    print(f"building validation set ({partition.m} cells) ...")
    g_val = build_validation_set(partition, config, expert)
    print(f"validation layouts: {len(g_val)}")

    print(f"refinement run: T={config.iterations}, beta={config.beta}")
    if args.skip_uniform:
        guided, uniform = pgr_run(partition, learner, expert, config, g_val), None
    else:
        print("uniform baseline run (beta=1)")
        guided, uniform = pgr_pair(partition, learner, expert, config, g_val)

    rows = []
    for stats in guided.history:
        rows.append(
            [
                stats.iteration,
                f"{stats.val_sr*100:.1f}%",
                "n/a" if stats.val_mge is None else f"{stats.val_mge:.3f}",
                f"{worst_grid_loss(stats):.3f}",
            ]
        )
    _print_table(rows, ["iter", "val SR", "val MGE", "worst grid loss"])

    report = {"config_hash": chash, "pgr": [_history_row(s) for s in guided.history]}
    if config.beta == 1.0:
        report["note"] = "beta=1: this run is uniform-equivalent"
    if uniform is not None:
        report["uniform"] = [_history_row(s) for s in uniform.history]
        ratios = []
        for prev, cur in zip(guided.history, guided.history[1:]):
            u_prev = uniform.history[cur.iteration - 2]
            u_cur = uniform.history[cur.iteration - 1]
            g = top_decile_allocation(prev, cur)
            u = top_decile_allocation(u_prev, u_cur)
            ratios.append({"iteration": cur.iteration, "pgr": g, "uniform": u})
        report["top_decile_allocation"] = ratios

    if args.out:
        out = Path(args.out)
        _write_config(out, resolved, chash)
        lines = ["iteration,grid_idx,loss,weight,samples"]
        for stats in guided.history:
            for i in range(partition.m):
                lines.append(
                    f"{stats.iteration},{i},{repr(float(stats.losses[i]))},"
                    f"{repr(float(stats.weights[i]))},{int(stats.sample_counts[i])}"
                )
        lines.append(f"# config_hash {chash}")
        _write(out / "losses.csv", "\n".join(lines) + "\n")
        _write_json(out / "history.json", report)
    return 0


# ---------------------------------------------------------------------------
# export-dataset
# ---------------------------------------------------------------------------


def cmd_export_dataset(args) -> int:
    if args.out is None:
        raise ValueError("export-dataset needs --out")
    track = resolve_track(args.track)
    scene = scene_sha256 = None
    if args.scene:
        scene = read_scene(args.scene)
        scene_sha256 = hashlib.sha256(Path(args.scene).read_bytes()).hexdigest()
    out = Path(args.out)
    config, chash = run_config("export-dataset", tracks=[(args.track, track)],
                               policy=args.policy, trials=args.trials, seed=args.seed,
                               tick_hz=args.tick_hz, scene_sha256=scene_sha256)
    dyn = platform_dynamics(track.platform)
    expert = expert_policy(track.platform)
    camera = DEFAULT_CAMERA
    [trial_ticks] = run_trials([(0, track, None)], args.policy, args.trials, args.seed,
                               args.tick_hz, args.jobs, ticks=True)

    total_frames = 0
    for trial, ticks in enumerate(trial_ticks):
        for tick, (t, state, target, history, control) in enumerate(ticks):
            pose = vehicle_camera_pose(dyn, state)
            mask = gate_mask(list(track.gates), camera, pose, t=t)
            stem = out / f"t{trial:02d}" / f"frame{tick:05d}"
            _write(stem.with_suffix(".pgm"), pgm_bytes(mask))
            if scene is not None:
                img = render_scene(scene, camera, pose)
                _write(stem.with_suffix(".ppm"), ppm_bytes(img.rgb))
            # past the last gate the rollout targets len(gates); the record names the last
            target = min(target, len(track.gates) - 1)
            expert_u = expert.evaluate(FullStateObs(t, state, track.gates, target))
            record = {
                "t": t,
                "control": [float(v) for v in control],
                "expert_control": [float(v) for v in expert_u],
                "history": [[float(v) for v in row] for row in history],
                "target_gate": target,
            }
            _write_json(stem.with_suffix(".json"), record)
            total_frames += 1

    _write_config(out, config, chash)
    _write_json(out / "meta.json", {
        "config_hash": chash,
        "track": args.track,
        "platform": track.platform,
        "policy": args.policy,
        "trials": args.trials,
        "tick_hz": args.tick_hz,
        "frames": total_frames,
        "camera": {"width": camera.width, "height": camera.height, "fx": camera.fx,
                   "fy": camera.fy, "cx": camera.cx, "cy": camera.cy},
    })
    print(f"wrote {total_frames} frames to {out}")
    return 0


# ---------------------------------------------------------------------------
# edit-scene / render
# ---------------------------------------------------------------------------


def cmd_edit_scene(args) -> int:
    scene = read_scene(args.scene)
    script = json.loads(Path(args.script).read_text())
    base = Path(args.script).parent

    def loader(rel):
        return read_scene(base / rel)

    before = len(scene)
    # finite edits can still overflow: validate reports it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        scene = apply_edit_script(scene, script, donor_loader=loader)
    scene.validate()   # write only what read_scene accepts
    write_scene(args.out, scene)
    print(f"{before} -> {len(scene)} gaussians; objects: {sorted(scene.objects)}")
    return 0


def cmd_render(args) -> int:
    if (args.scene is None) == (args.track is None):
        raise ValueError("give exactly one of --scene or --track")
    if args.scene is not None:
        for flag, value in (("--mask", args.mask), ("--time", args.time)):
            if value is not None:
                raise ValueError(f"{flag} is read only with --track, not with --scene")
    if args.position is None and args.yaw is not None:
        raise ValueError("--yaw is read only with --position")
    if args.out is None and args.mask is None:
        raise ValueError("give --out, or --mask with --track: otherwise render writes nothing")
    camera = DEFAULT_CAMERA.scaled(args.camera_scale)
    yaw = args.yaw if args.yaw is not None else 0.0
    if args.track:
        track = resolve_track(args.track)
        t = args.time if args.time is not None else 0.0
        scene = track_splats(track, t=t)
        if args.position is None:
            pos, yaw = track.initial_pose()
        else:
            pos = args.position
        pose = camera_pose(pos, yaw, args.pitch)
        if args.mask:
            mask = gate_mask(list(track.gates), camera, pose, t=t)
            _write(Path(args.mask), pgm_bytes(mask))
            print(f"mask: {args.mask}")
    else:
        scene = read_scene(args.scene)
        if args.position is None:
            raise ValueError("--position is required with --scene")
        pose = camera_pose(args.position, yaw, args.pitch)
    if args.out:
        img = render_scene(scene, camera, pose)
        _write(Path(args.out), ppm_bytes(img.rgb))
        print(f"rgb: {args.out} ({img.skipped} gaussians skipped)")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}") from None
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _position(text: str) -> np.ndarray:
    try:
        xyz = [float(v) for v in text.split(",")]
    except ValueError:
        xyz = []
    if len(xyz) != 3 or not all(math.isfinite(v) for v in xyz):
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated finite numbers x,y,z, got {text!r}")
    return np.array(xyz)


def _camera_scale(text: str) -> float:
    scale = _positive_float(text)
    camera = DEFAULT_CAMERA.scaled(scale)
    if camera.width < 1 or camera.height < 1:
        raise argparse.ArgumentTypeError(
            f"{scale} gives a {camera.width} x {camera.height} frame, smaller than 1 x 1")
    if max(camera.width, camera.height) > MAX_FRAME_SIDE:
        raise argparse.ArgumentTypeError(
            f"{scale} gives a {camera.width} x {camera.height} frame, "
            f"wider or taller than {MAX_FRAME_SIDE} px")
    return scale


def _levels(text: str) -> list[float]:
    try:
        levels = [float(v) for v in text.split(",")]
    except ValueError:
        levels = []
    if not levels or not all(0.0 <= v < float("inf") for v in levels):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers >= 0 cm, got {text!r}")
    return levels


def _serial_jobs(text: str) -> int:
    if _positive_int(text) > 1:
        raise argparse.ArgumentTypeError(f"pgr runs serially, so only 1 is accepted, got {text}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatesim",
        description="gate-crossing flight simulation, scene editing, and "
        "refinement experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default=None, help="output directory")

    def trial_flags(p):
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="parallel workers (never changes results)")
        p.add_argument("--tick-hz", type=_positive_float, default=50.0, help="policy rate")

    p = sub.add_parser("evaluate", help="SR/MGE over reference or custom tracks")
    common(p)
    trial_flags(p)
    p.add_argument("--trials", type=_positive_int, default=10, help="initial conditions per track")
    p.add_argument("--tracks", nargs="*", default=None,
                   help="track names or files (default: all bundled)")
    p.add_argument("--policy", default="expert", choices=POLICY_NAMES)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("perturb", help="SR under random gate offsets")
    common(p)
    trial_flags(p)
    p.add_argument("--track", default="uav-slalom")
    p.add_argument("--policy", default="expert", choices=POLICY_NAMES)
    p.add_argument("--levels", type=_levels, default="0,20,40,60,80",
                   help="gate offsets in cm, comma-separated, each >= 0")
    p.add_argument("--tracks-per-level", type=_positive_int, default=10)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("pgr", help="refinement loop vs uniform baseline")
    common(p)
    p.add_argument("--config", default=None,
                   help="JSON object of PgrConfig fields (all but seed)")
    p.add_argument("--jobs", type=_serial_jobs, default=1, help="pgr runs serially: 1")
    p.add_argument("--skip-uniform", action="store_true")
    p.set_defaults(func=cmd_pgr)

    p = sub.add_parser("export-dataset", help="mask/RGB + control record triples")
    common(p)
    trial_flags(p)
    p.add_argument("--trials", type=_positive_int, default=1, help="rollouts to record")
    p.add_argument("--track", required=True)
    p.add_argument("--policy", default="expert", choices=POLICY_NAMES)
    p.add_argument("--scene", default=None, help="PLY scene for RGB frames")
    p.set_defaults(func=cmd_export_dataset)

    p = sub.add_parser("edit-scene", help="apply a JSON edit script to a PLY scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--script", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_edit_scene)

    p = sub.add_parser("render", help="one-shot RGB (and mask) from a pose")
    p.add_argument("--scene", default=None, help="PLY scene")
    p.add_argument("--track", default=None, help="bundled track name or file")
    p.add_argument("--position", type=_position, default=None, help="camera position x,y,z")
    p.add_argument("--yaw", type=_finite_float, default=None,
                   help="camera yaw with --position (default 0)")
    p.add_argument("--pitch", type=_finite_float, default=0.0)
    p.add_argument("--time", type=_finite_float, default=None,
                   help="gate schedule time (track mode; default 0)")
    p.add_argument("--camera-scale", type=_camera_scale, default=1.0)
    p.add_argument("--out", default=None, help="output PPM")
    p.add_argument("--mask", default=None, help="output PGM mask (track mode)")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except (ValueError, KeyError, FileNotFoundError, NotADirectoryError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
