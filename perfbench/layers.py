"""What the benchmark measures inside gatesim, from outside the package.

Three things live here:

* ``SimStats``: the simulated statistics of one workload pass (rollouts,
  dynamics steps, policy ticks, frames, terminal outcomes, gate outcomes and,
  when traced, sampler and renderer counts). They are exact: a change that
  only makes gatesim faster leaves them identical.
* ``trace_targets``: the public gatesim functions and methods wrapped in
  spans during a traced pass, with observers that count outcomes where the
  work happens.
* ``layer_metrics``: the per-layer numbers derived from one traced pass.
"""

from __future__ import annotations

import math
from collections import Counter

import gatesim.cli as cli
import gatesim.dynamics as dynamics
import gatesim.edits as edits
import gatesim.policies as policies
import gatesim.refinement as refinement
import gatesim.render as render
import gatesim.scene as scene
import gatesim.simulator as simulator
import gatesim.tracks as tracks
from spans import Tracer, summarize

TERMINALS = ("success", "frame_collision", "arena_exit", "timeout")

# span names of policy evaluations; a span of one of these whose parent is a
# rollout is one policy tick
POLICY_SPANS = (
    "policies.expert",
    "policies.learner",
    "policies.mask_centroid",
    "policies.noisy_mask",
)


class SimStats:
    """Exact simulated counts of one pass over a workload's commands."""

    def __init__(self):
        self.counts: Counter = Counter()

    def add_rollout(self, policy, track, config, roll) -> None:
        """Count one finished rollout from its arguments and its result.

        Steps come from the simulated duration (the loop advances t by dt once
        per dynamics step); ticks from the zero-order-hold period, since each
        tick starts with one policy evaluation. A traced pass checks both
        against the counted dynamics.step and policy spans.
        """
        config = config or simulator.SimConfig()
        dt = config.resolve_dt(dynamics.platform_dynamics(track.platform))
        steps = round(roll.duration / dt)
        steps_per_tick = max(1, round(1.0 / config.tick_hz / dt))
        ticks = -(-steps // steps_per_tick)
        c = self.counts
        c["rollouts"] += 1
        c["dynamics_steps"] += steps
        c[f"dynamics_steps.{track.platform}"] += steps
        c["ticks"] += ticks
        if getattr(policy, "observes", None) == "mask":
            c["frames"] += ticks
        c[f"terminal.{roll.terminal}"] += 1
        c["gates"] += len(roll.gates)
        c["gate_successes"] += sum(1 for g in roll.gates if g.outcome == "success")

    def block(self) -> dict:
        """The comparable block: every count, plus SR and accept ratios."""
        c = self.counts
        out = {k: int(c[k]) for k in sorted(c)}
        for t in TERMINALS:
            out.setdefault(f"terminal.{t}", 0)
        for k in ("rollouts", "dynamics_steps", "ticks", "frames", "gates", "gate_successes"):
            out.setdefault(k, 0)
        out["sr"] = _ratio(c["gate_successes"], c["gates"])
        if c["observability.calls"]:
            out["observability_accept_ratio"] = _ratio(c["observability.accepted"],
                                                       c["observability.calls"])
        if c["feasibility.calls"]:
            out["feasibility_accept_ratio"] = _ratio(c["feasibility.accepted"],
                                                     c["feasibility.calls"])
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Trace targets and their observers
# ---------------------------------------------------------------------------


def trace_targets(sim: SimStats):
    """(owner, attribute, span name, observer) for every traced call site."""
    c = sim.counts

    def on_rollout(tracer, i, args, kwargs, roll):
        sim.add_rollout(*rollout_args(args, kwargs), roll)

    def on_crossing(tracer, i, args, kwargs, hit):
        c["crossings"] += hit is not None

    def on_observability(tracer, i, args, kwargs, ok):
        c["observability.calls"] += 1
        c["observability.accepted"] += bool(ok)

    def on_feasibility(tracer, i, args, kwargs, result):
        c["feasibility.calls"] += 1
        if result[0]:
            c["feasibility.accepted"] += 1
        else:
            tracer.flagged.add(i)

    def on_validation_set(tracer, i, args, kwargs, g_val):
        partition, config = args[0], args[1]
        c["skipped_draws"] += partition.m * config.val_per_cell - len(g_val)

    def on_samples(tracer, i, args, kwargs, result):
        c["skipped_draws"] += sum(result[1].values())

    def on_render_scene(tracer, i, args, kwargs, img):
        c["skipped_gaussians"] += img.skipped

    def on_read_scene(tracer, i, args, kwargs, scn):
        c["gaussians_read"] += len(scn)

    wanted = [
        (dynamics, "UavDynamics.step", "dynamics.step", None),
        (dynamics, "QuadDynamics.step", "dynamics.step", None),
        (simulator, "rollout", "simulator.rollout", on_rollout),
        (simulator, "detect_crossing", "simulator.detect_crossing", on_crossing),
        (tracks, "Arena.contains", "tracks.arena_contains", None),
        (tracks, "track_from_layout", "tracks.track_from_layout", None),
        (policies, "ExpertUavPolicy.evaluate", "policies.expert", None),
        (policies, "ExpertQuadPolicy.evaluate", "policies.expert", None),
        (policies, "SyntheticLearner.evaluate", "policies.learner", None),
        (policies, "MaskCentroidPolicy.evaluate", "policies.mask_centroid", None),
        (policies, "NoisyMaskPolicy.evaluate", "policies.noisy_mask", None),
        (policies, "largest_component_centroid", "policies.largest_component_centroid", None),
        (policies, "noisy_perception", "policies.noisy_perception", None),
        (render, "gate_mask", "render.gate_mask", None),
        (render, "render_scene", "render.render_scene", on_render_scene),
        (refinement, "observability_check", "refinement.observability_check", on_observability),
        (refinement, "feasibility_check", "refinement.feasibility_check", on_feasibility),
        (refinement, "build_validation_set", "refinement.build_validation_set",
         on_validation_set),
        (refinement, "initial_samples", "refinement.initial_samples", on_samples),
        (refinement, "resample", "refinement.resample", on_samples),
        (refinement, "grid_losses", "refinement.grid_losses", None),
        (refinement, "weights", "refinement.weights", None),
        (refinement, "pgr_run", "refinement.pgr_run", None),
        (scene, "read_scene", "scene.read_scene", on_read_scene),
        (scene, "write_scene", "scene.write_scene", None),
        (edits, "apply_edit_script", "edits.apply_edit_script", None),
        (simulator, "trajectory_csv", "cli.serialize", None),
        (simulator, "events_csv", "cli.serialize", None),
        (render, "pgm_bytes", "cli.serialize", None),
        (render, "ppm_bytes", "cli.serialize", None),
        (cli, "main", "cli.command", None),
    ]
    targets = []
    for module, path, name, observe in wanted:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        targets.append((owner, attr, name, observe))
    return targets


def timing_targets(sim: SimStats):
    """The one trace target of untraced passes: each rollout, which the
    latency percentiles time and which counts the simulated statistics."""
    return [t for t in trace_targets(sim) if t[2] == "simulator.rollout"]


def rollout_args(args, kwargs):
    """(policy, track, config) of a rollout(policy, track, config=None, ...) call."""
    policy = args[0] if args else kwargs["policy"]
    track = args[1] if len(args) > 1 else kwargs["track"]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    return policy, track, config


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

# (metric, unit, better) for every per-layer metric, in report order
LAYER_METRICS = [
    ("dynamics.step.calls", "count", "lower"),
    ("dynamics.step.self_s", "s", "lower"),
    ("dynamics.step.us_per_call", "us", "lower"),
    ("simulator.rollout.calls", "count", "lower"),
    ("simulator.rollout.self_s", "s", "lower"),
    ("simulator.detect_crossing.calls", "count", "lower"),
    ("simulator.detect_crossing.self_s", "s", "lower"),
    ("simulator.crossings", "count", "higher"),
    ("simulator.crossing_hit_ratio", "ratio", "higher"),
    ("tracks.arena_contains.calls", "count", "lower"),
    ("tracks.arena_contains.self_s", "s", "lower"),
    ("tracks.track_from_layout.calls", "count", "lower"),
    ("tracks.track_from_layout.self_s", "s", "lower"),
    ("policies.evaluate.calls", "count", "lower"),
    ("policies.expert.self_s", "s", "lower"),
    ("policies.learner.self_s", "s", "lower"),
    ("policies.mask_centroid.self_s", "s", "lower"),
    ("policies.largest_component_centroid.calls", "count", "lower"),
    ("policies.largest_component_centroid.self_s", "s", "lower"),
    ("policies.noisy_perception.calls", "count", "lower"),
    ("policies.noisy_perception.self_s", "s", "lower"),
    ("render.gate_mask.calls", "count", "lower"),
    ("render.gate_mask.self_s", "s", "lower"),
    ("render.gate_mask.ms_per_call", "ms", "lower"),
    ("render.render_scene.calls", "count", "lower"),
    ("render.render_scene.self_s", "s", "lower"),
    ("render.render_scene.ms_per_call", "ms", "lower"),
    ("render.render_scene.skipped", "count", "lower"),
    ("refinement.observability_check.calls", "count", "lower"),
    ("refinement.observability_check.self_s", "s", "lower"),
    ("refinement.observability.accept_ratio", "ratio", "higher"),
    ("refinement.feasibility_check.calls", "count", "lower"),
    ("refinement.feasibility.accept_ratio", "ratio", "higher"),
    ("refinement.rejected_rollout_s", "s", "lower"),
    ("refinement.grid_losses.self_s", "s", "lower"),
    ("refinement.resample.self_s", "s", "lower"),
    ("refinement.weights.self_s", "s", "lower"),
    ("refinement.skipped_draws", "count", "lower"),
    ("scene.read_scene.self_s", "s", "lower"),
    ("scene.write_scene.self_s", "s", "lower"),
    ("scene.gaussians", "count", "lower"),
    ("edits.apply_edit_script.self_s", "s", "lower"),
    ("cli.serialize.self_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli.output_files", "count", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# metrics that are exact counts of one pass; they must repeat exactly
EXACT = {name for name, unit, _ in LAYER_METRICS if unit in ("count", "bytes")}


def layer_metrics(tracer: Tracer, sim: SimStats, outputs: dict) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio, from one pass.

    outputs: {"files": n, "bytes": n} of the pass's result directory.
    Layers a workload never enters read 0.
    """
    by_name = summarize(tracer)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    def per_call(name, scale):
        return self_s(name) / calls(name) * scale if calls(name) else 0.0

    rollout_id = tracer.name_id("simulator.rollout")
    policy_ids = {tracer.name_id(n) for n in POLICY_SPANS}
    rejected = tracer.flagged   # feasibility checks that rejected their layout
    ticks = 0
    rejected_rollout_s = 0.0
    for i, nid in enumerate(tracer.name_of):
        p = tracer.parent[i]
        if p < 0:
            continue
        if nid in policy_ids and tracer.name_of[p] == rollout_id:
            ticks += 1
        elif nid == rollout_id and p in rejected:
            rejected_rollout_s += tracer.end[i] - tracer.start[i]

    c = sim.counts
    m = {}
    for name, _unit, _better in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls(span)
        elif kind == "self_s":
            m[name] = self_s(span)
    m["dynamics.step.us_per_call"] = per_call("dynamics.step", 1e6)
    m["render.gate_mask.ms_per_call"] = per_call("render.gate_mask", 1e3)
    m["render.render_scene.ms_per_call"] = per_call("render.render_scene", 1e3)
    m["render.render_scene.skipped"] = c["skipped_gaussians"]
    m["simulator.crossings"] = c["crossings"]
    m["simulator.crossing_hit_ratio"] = _ratio(c["crossings"],
                                               calls("simulator.detect_crossing"))
    m["policies.evaluate.calls"] = ticks
    block = sim.block()
    m["refinement.observability.accept_ratio"] = block.get("observability_accept_ratio", 0.0)
    m["refinement.feasibility.accept_ratio"] = block.get("feasibility_accept_ratio", 0.0)
    m["refinement.rejected_rollout_s"] = rejected_rollout_s
    m["refinement.skipped_draws"] = c["skipped_draws"]
    m["scene.gaussians"] = c["gaussians_read"]
    m["cli.output_files"] = outputs["files"]
    m["cli.output_bytes"] = outputs["bytes"]
    return m


def trace_consistency(layers: dict, sim: SimStats) -> list[str]:
    """Counts that the untraced bookkeeping derives must match the spans."""
    c = sim.counts
    pairs = [
        ("dynamics.step.calls", c["dynamics_steps"], "dynamics steps"),
        ("simulator.rollout.calls", c["rollouts"], "rollouts"),
        ("policies.evaluate.calls", c["ticks"], "policy ticks"),
        ("render.gate_mask.calls", c["frames"], "frames"),
    ]
    errors = [
        f"traced {name} = {layers[name]} but rollouts report {want} {what}"
        for name, want, what in pairs
        if layers[name] != want
    ]
    for name, value in layers.items():
        if not math.isfinite(value):
            errors.append(f"{name} is not finite")
    return errors
