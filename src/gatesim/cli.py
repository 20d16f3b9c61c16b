"""Command-line harness: evaluation tables, perturbation sweeps, refinement
runs, dataset export, scripted scene editing, and one-shot rendering.

Every command is deterministic given (--seed, config): reruns produce
byte-identical CSV/JSON outputs, and quantitative outputs carry a hash of the
effective configuration. Exit codes: 0 ok, 2 configuration error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import stats as scipy_stats

from .dynamics import platform_dynamics
from .edits import apply_edit_script
from .policies import (
    CONTROL_LIMITS,
    FullStateObs,
    MaskCentroidPolicy,
    NoiseParams,
    NoisyMaskPolicy,
    SyntheticLearner,
    ZeroPolicy,
    expert_policy,
)
from .refinement import (
    GridPartition,
    PgrConfig,
    build_validation_set,
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
)
from .tracks import (
    load_track,
    perturb_track,
    reference_track,
    reference_track_names,
    track_from_dict,
    track_to_dict,
    track_splats,
)

POLICY_NAMES = ("expert", "classical", "classical-noisy", "zero")


def config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def make_policy(name: str, platform: str, seed: int = 0):
    if name == "expert":
        return expert_policy(platform)
    if name == "zero":
        return ZeroPolicy(platform)
    if name in ("classical", "classical-noisy"):
        if platform != "quad":
            raise ValueError(f"mask policies fly the quad platform, not {platform!r}")
        inner = MaskCentroidPolicy()
        if name == "classical":
            return inner
        return NoisyMaskPolicy(inner, NoiseParams(), seed=seed)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


def resolve_track(spec: str):
    """A bundled track name, or a path to a track JSON file."""
    if spec in reference_track_names():
        return reference_track(spec)
    path = Path(spec)
    if path.exists():
        return load_track(path)
    raise ValueError(
        f"no track named {spec!r}; bundled tracks: {', '.join(reference_track_names())}"
    )


def _float(x):
    return None if x is None else float(x)


# ---------------------------------------------------------------------------
# Trial running (parallelizable across trials with stable seeding)
# ---------------------------------------------------------------------------


def _trial_job(payload: dict):
    track = track_from_dict(payload["track"])
    seq = np.random.SeedSequence(tuple(payload["key"]))
    init_seq, policy_seq = seq.spawn(2)
    init_rng = np.random.default_rng(init_seq)
    policy = make_policy(payload["policy"], track.platform)
    dyn = platform_dynamics(track.platform)
    pos, yaw = jittered_initial_pose(track, init_rng)
    init = dyn.initial_state(pos, yaw)
    config = SimConfig(tick_hz=payload["tick_hz"])
    return rollout(policy, track, config, rng=np.random.default_rng(policy_seq),
                   init_state=init)


def run_trials(track, policy_name: str, trials: int, seed: int, stream: int,
               tick_hz: float = 50.0, jobs: int = 1):
    """Seeded, jittered rollouts; results do not depend on the job count."""
    payloads = [
        {
            "track": track_to_dict(track),
            "policy": policy_name,
            "key": (seed, stream, k),
            "tick_hz": tick_hz,
        }
        for k in range(trials)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_trial_job, payloads))
    return [_trial_job(p) for p in payloads]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


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
    tracks = [(n, resolve_track(n)) for n in names]
    chash = config_hash(
        {
            "cmd": "evaluate",
            "tracks": names,
            "policy": args.policy,
            "trials": args.trials,
            "seed": args.seed,
            "tick_hz": args.tick_hz,
        }
    )

    rows = []
    per_track = {}
    all_rollouts = []
    for idx, (name, track) in enumerate(tracks):
        if args.policy in ("classical", "classical-noisy") and track.platform != "quad":
            continue
        rolls = run_trials(track, args.policy, args.trials, args.seed, idx,
                           tick_hz=args.tick_hz, jobs=args.jobs)
        m = metrics(rolls)
        per_track[name] = m
        all_rollouts.append((name, rolls))
        mge = "n/a" if m["mge"] is None else f"{m['mge']:.3f}"
        rows.append([name, track.platform, args.trials, f"{100*m['sr']:.1f}%", mge])

    if not rows:
        raise ValueError(f"policy {args.policy!r} matched no requested track")
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
        _write(out / "metrics.csv", "\n".join(csv_lines) + "\n")
        _write(
            out / "summary.json",
            json.dumps(
                {"config_hash": chash, "policy": args.policy, "tracks": per_track},
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        for name, rolls in all_rollouts:
            _write(out / "events" / f"{name}.csv", events_csv(rolls))
            for k, roll in enumerate(rolls):
                _write(out / "trajectories" / f"{name}_{k:02d}.csv", trajectory_csv(roll))
    return 0


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------


def cmd_perturb(args) -> int:
    track = resolve_track(args.track)
    levels = [float(v) for v in args.levels.split(",")]
    chash = config_hash(
        {
            "cmd": "perturb",
            "track": args.track,
            "policy": args.policy,
            "levels": levels,
            "tracks_per_level": args.tracks_per_level,
            "seed": args.seed,
        }
    )

    curve = []
    for li, level in enumerate(levels):
        rolls = []
        for k in range(args.tracks_per_level):
            seq = np.random.SeedSequence((args.seed, li, k))
            perturb_seq, init_seq, policy_seq = seq.spawn(3)
            shifted = perturb_track(track, level, np.random.default_rng(perturb_seq))
            policy = make_policy(args.policy, track.platform)
            dyn = platform_dynamics(track.platform)
            pos, yaw = jittered_initial_pose(shifted, np.random.default_rng(init_seq))
            rolls.append(
                rollout(
                    policy,
                    shifted,
                    SimConfig(tick_hz=args.tick_hz),
                    rng=np.random.default_rng(policy_seq),
                    init_state=dyn.initial_state(pos, yaw),
                )
            )
        m = metrics(rolls)
        curve.append((level, m))

    srs = [m["sr"] for _, m in curve]
    if len(levels) > 1:
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
        _write(out / "perturbation.csv", "\n".join(lines) + "\n")
        _write(
            out / "summary.json",
            json.dumps(
                {
                    "config_hash": chash,
                    "curve": [{"level_cm": lvl, **m} for lvl, m in curve],
                    "spearman_rho": rho,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
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


PGR_CONFIG_KEYS = (
    "platform", "per_gate_counts", "iterations", "beta", "lambda_pos", "initial_per_cell",
    "samples_per_iteration", "val_per_cell", "tick_hz", "n0",
)


def _load_pgr_overrides(path) -> dict:
    overrides = _load_json(path)
    if not isinstance(overrides, dict):
        raise ValueError(f"{path}: pgr config must be a JSON object, "
                         f"got {type(overrides).__name__}")
    unknown = sorted(set(overrides) - set(PGR_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown pgr config key(s) {', '.join(unknown)}; "
                         f"accepted: {', '.join(PGR_CONFIG_KEYS)}")
    return overrides


def cmd_pgr(args) -> int:
    overrides = _load_pgr_overrides(args.config)
    platform = overrides.get("platform", "uav")
    per_gate = tuple(overrides.get("per_gate_counts", (2, 2, 2, 2)))
    config = PgrConfig(
        platform=platform,
        iterations=int(overrides.get("iterations", 3)),
        beta=float(overrides.get("beta", 0.05)),
        lambda_pos=float(overrides.get("lambda_pos", 1.0)),
        initial_per_cell=int(overrides.get("initial_per_cell", 2)),
        samples_per_iteration=overrides.get("samples_per_iteration"),
        val_per_cell=int(overrides.get("val_per_cell", 1)),
        tick_hz=float(overrides.get("tick_hz", 10.0)),
        seed=args.seed,
    )
    partition = GridPartition.default(platform, per_gate)
    chash = config_hash(
        {
            "cmd": "pgr",
            "platform": platform,
            "per_gate_counts": list(per_gate),
            "iterations": config.iterations,
            "beta": config.beta,
            "lambda_pos": config.lambda_pos,
            "initial_per_cell": config.initial_per_cell,
            "samples_per_iteration": config.samples_per_iteration,
            "val_per_cell": config.val_per_cell,
            "tick_hz": config.tick_hz,
            "seed": args.seed,
            "n0": overrides.get("n0", 5.0),
        }
    )

    expert = expert_policy(platform)
    n0 = float(overrides.get("n0", 5.0))

    def fresh_learner(tag: int):
        return SyntheticLearner(
            partition, expert_policy(platform), CONTROL_LIMITS[platform],
            n0=n0, seed=(args.seed, tag),
        )

    print(f"building validation set ({partition.m} cells) ...")
    g_val = build_validation_set(partition, config, expert)
    print(f"validation layouts: {len(g_val)}")

    print(f"refinement run: T={config.iterations}, beta={config.beta}")
    guided = pgr_run(partition, fresh_learner(0), expert, config, g_val=g_val)
    uniform = None
    if not args.skip_uniform:
        print("uniform baseline run (beta=1)")
        uniform = pgr_run(
            partition, fresh_learner(1), expert, replace(config, beta=1.0), g_val=g_val
        )

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
        _write(out / "config.json", json.dumps(
            {
                "config_hash": chash,
                "platform": platform,
                "per_gate_counts": list(per_gate),
                "iterations": config.iterations,
                "beta": config.beta,
                "lambda_pos": config.lambda_pos,
                "initial_per_cell": config.initial_per_cell,
                "val_per_cell": config.val_per_cell,
                "tick_hz": config.tick_hz,
                "seed": args.seed,
                "n0": n0,
            },
            indent=2, sort_keys=True) + "\n")
        lines = ["iteration,grid_idx,loss,weight,samples"]
        for stats in guided.history:
            for i in range(partition.m):
                lines.append(
                    f"{stats.iteration},{i},{repr(float(stats.losses[i]))},"
                    f"{repr(float(stats.weights[i]))},{int(stats.sample_counts[i])}"
                )
        lines.append(f"# config_hash {chash}")
        _write(out / "losses.csv", "\n".join(lines) + "\n")
        _write(out / "history.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# export-dataset
# ---------------------------------------------------------------------------


def cmd_export_dataset(args) -> int:
    track = resolve_track(args.track)
    scene = read_scene(args.scene) if args.scene else None
    out = Path(args.out)
    chash = config_hash(
        {
            "cmd": "export-dataset",
            "track": args.track,
            "policy": args.policy,
            "trials": args.trials,
            "seed": args.seed,
            "tick_hz": args.tick_hz,
            "scene": bool(args.scene),
        }
    )
    dyn = platform_dynamics(track.platform)
    expert = expert_policy(track.platform)
    config = SimConfig(tick_hz=args.tick_hz)
    dt = config.resolve_dt(dyn)
    spt = max(1, round(1.0 / args.tick_hz / dt))

    total_frames = 0
    for trial in range(args.trials):
        seq = np.random.SeedSequence((args.seed, 0, trial))
        init_seq, policy_seq = seq.spawn(2)
        policy = make_policy(args.policy, track.platform)
        pos, yaw = jittered_initial_pose(track, np.random.default_rng(init_seq))
        roll = rollout(policy, track, config, rng=np.random.default_rng(policy_seq),
                       init_state=dyn.initial_state(pos, yaw))

        n_ticks = len(roll.controls) // spt + (1 if len(roll.controls) % spt else 0)
        crossing_times = [g.t_cross for g in roll.gates if g.t_cross is not None]
        for tick in range(n_ticks):
            si = tick * spt
            t = float(roll.times[si])
            state = roll.states[si]
            control = roll.controls[si]
            pitch = float(state[4]) if track.platform == "uav" else 0.0
            pose = camera_pose(dyn.position(state), dyn.yaw(state), pitch)
            mask = gate_mask(list(track.gates), config.camera, pose, t=t)
            stem = out / f"t{trial:02d}" / f"frame{tick:05d}"
            _write_bytes(stem.with_suffix(".pgm"), pgm_bytes(mask))
            if scene is not None:
                img = render_scene(scene, config.camera, pose)
                _write_bytes(stem.with_suffix(".ppm"), ppm_bytes(img.rgb))
            target = sum(1 for tc in crossing_times if tc <= t)
            expert_u = expert.evaluate(
                FullStateObs(t, state, track.gates, min(target, len(track.gates) - 1))
            )
            history = np.zeros((4, len(control)))
            for h in range(1, 5):
                hi = si - h * spt
                if hi >= 0:
                    history[-h] = roll.controls[hi]
            record = {
                "t": t,
                "control": [float(v) for v in control],
                "expert_control": [float(v) for v in expert_u],
                "history": [[float(v) for v in row] for row in history],
                "target_gate": int(min(target, len(track.gates) - 1)),
            }
            _write(stem.with_suffix(".json"), json.dumps(record, indent=2, sort_keys=True) + "\n")
            total_frames += 1

    _write(
        out / "meta.json",
        json.dumps(
            {
                "config_hash": chash,
                "track": args.track,
                "platform": track.platform,
                "policy": args.policy,
                "trials": args.trials,
                "tick_hz": args.tick_hz,
                "frames": total_frames,
                "camera": {
                    "width": config.camera.width,
                    "height": config.camera.height,
                    "fx": config.camera.fx,
                    "fy": config.camera.fy,
                    "cx": config.camera.cx,
                    "cy": config.camera.cy,
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    print(f"wrote {total_frames} frames to {out}")
    return 0


def _write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


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
    scene = apply_edit_script(scene, script, donor_loader=loader)
    write_scene(args.out, scene)
    print(f"{before} -> {len(scene)} gaussians; objects: {sorted(scene.objects)}")
    return 0


def cmd_render(args) -> int:
    if (args.scene is None) == (args.track is None):
        raise ValueError("give exactly one of --scene or --track")
    camera = DEFAULT_CAMERA.scaled(args.camera_scale)
    if args.track:
        track = resolve_track(args.track)
        scene = track_splats(track, t=args.time)
        if args.position is None:
            pos, yaw = track.initial_pose()
        else:
            pos = np.array([float(v) for v in args.position.split(",")])
            yaw = args.yaw
        pose = camera_pose(pos, yaw, args.pitch)
        if args.mask:
            mask = gate_mask(list(track.gates), camera, pose, t=args.time)
            _write_bytes(Path(args.mask), pgm_bytes(mask))
            print(f"mask: {args.mask}")
    else:
        scene = read_scene(args.scene)
        if args.position is None:
            raise ValueError("--position is required with --scene")
        pos = np.array([float(v) for v in args.position.split(",")])
        pose = camera_pose(pos, args.yaw, args.pitch)
    if args.out:
        img = render_scene(scene, camera, pose)
        _write_bytes(Path(args.out), ppm_bytes(img.rgb))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatesim",
        description="gate-crossing flight simulation, scene editing, and "
        "refinement experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials_default=10):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
        p.add_argument("--trials", type=int, default=trials_default,
                       help="initial conditions per track")
        p.add_argument("--tick-hz", type=float, default=50.0, help="policy rate")
        p.add_argument("--config", default=None, help="JSON config overrides")

    p = sub.add_parser("evaluate", help="SR/MGE over reference or custom tracks")
    common(p)
    p.add_argument("--tracks", nargs="*", default=None,
                   help="track names or files (default: all bundled)")
    p.add_argument("--policy", default="expert", choices=POLICY_NAMES)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("perturb", help="SR under random gate offsets")
    common(p)
    p.add_argument("--track", default="uav-slalom")
    p.add_argument("--policy", default="expert", choices=POLICY_NAMES)
    p.add_argument("--levels", default="0,20,40,60,80", help="cm, comma-separated")
    p.add_argument("--tracks-per-level", type=int, default=10)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("pgr", help="refinement loop vs uniform baseline")
    common(p)
    p.add_argument("--skip-uniform", action="store_true")
    p.set_defaults(func=cmd_pgr)

    p = sub.add_parser("export-dataset", help="mask/RGB + control record triples")
    common(p, trials_default=1)
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
    p.add_argument("--position", default=None, help="camera position x,y,z")
    p.add_argument("--yaw", type=float, default=0.0)
    p.add_argument("--pitch", type=float, default=0.0)
    p.add_argument("--time", type=float, default=0.0, help="gate schedule time")
    p.add_argument("--camera-scale", type=float, default=1.0)
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
