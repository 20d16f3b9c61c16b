"""Measured passes over one workload and the metrics derived from them.

A pass runs the workload's gatesim CLI commands in this process, one after
another (a closed loop with a single client), then checks them: exit codes,
the workload's output invariants, and the digest of its result files and its
simulated statistics, which must be identical in every pass of one seed.
Passes repeat until the window has elapsed.

With trace 0 every pass is untraced; the only wrapper is a span around each
rollout call. With trace 1 traced and untraced passes alternate: the fastest
traced pass gives the per-layer metrics. Set-up is repeated between passes.

The machine's speed drifts by a third or more for minutes at a time, because
other tenants share its cores. A probe chunk, a fixed piece of work that
does not touch gatesim, measures that speed: a timer runs one every
PROBE_PERIOD_S during each untraced pass, and a few run before and after
each set-up. Times are taken without the probe chunks inside them and are
scaled to the speed at which a chunk takes REFERENCE_S; the end-to-end
times are medians of the scaled times (see README.md). The raw times are
in the report.

The last line printed is the result object; the full report goes to
.perfbench_work/<workload>-seed<n>-trace<k>/report.json.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy
import scipy

import gatesim.cli as cli
from layers import EXACT, LAYER_METRICS, SimStats, layer_metrics, timing_targets, \
    trace_consistency, trace_targets
from spans import Tracer
from workloads import WORKLOADS, digest_dir

SETUP_REPEATS = 5
MIN_PASSES = 2      # a digest needs a second pass to compare against

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rollouts_per_s": "1/s",
    "sim_steps_per_s": "1/s",
    "rollout_p50_ms": "ms",
    "rollout_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

REFERENCE_S = 0.008     # time of one probe chunk at the reference speed
PROBE_CHUNKS = 15       # chunks of a probe before or after a set-up
PROBE_PERIOD_S = 0.1    # one chunk per period of a pass: 8-10% of its time
_PROBE_STATE = numpy.linspace(1.0, 2.0, 12)     # the size of a quad's state


def probe_chunk() -> float:
    """Wall time (s) of a fixed piece of work like most of gatesim's: an
    interpreter loop, then numpy calls on a state-sized vector, which cost
    their call overhead rather than their arithmetic. It touches no gatesim
    code, so no change to gatesim moves it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(55_000):
        acc += i * i
    v = _PROBE_STATE
    for _ in range(1_300):
        v = v * 0.999 + 0.001 * numpy.sin(v)
    return time.perf_counter() - t0


def speed_probe() -> float:
    """Median time (s) of PROBE_CHUNKS probe chunks run back to back."""
    return statistics.median(probe_chunk() for _ in range(PROBE_CHUNKS))


class SpeedSampler:
    """Probe chunks run from a SIGALRM interval timer while a pass runs.

    The handler runs between two bytecodes of the pass, so every chunk lies
    wholly inside whatever call was running when it started, and within()
    tells how much of an interval was spent probing.
    """

    def __init__(self):
        self.start = array("d")
        self.seconds = array("d")

    def _sample(self, signum, frame) -> None:
        self.start.append(time.perf_counter())
        self.seconds.append(probe_chunk())

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, lo: float, hi: float) -> float:
        """Time (s) of the chunks that started between the clock readings lo and hi."""
        i, j = bisect.bisect_left(self.start, lo), bisect.bisect_right(self.start, hi)
        return sum(self.seconds[i:j])

    def scale(self) -> float:
        """Factor from time at the sampled speed to time at the reference
        speed: the mean over the chunks of REFERENCE_S over the chunk's time,
        which weights each stretch of the pass by its length."""
        seconds = self.seconds or [probe_chunk()]
        return statistics.fmean(REFERENCE_S / t for t in seconds)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_probe(src: Path) -> None:
    """Start a fresh interpreter that imports the CLI, as every user run does.

    No timeout: with one, subprocess polls for the exit in steps of up to
    50 ms, which would round every set-up time up to that step.
    """
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import gatesim.cli"
    subprocess.run([sys.executable, "-I", "-c", code], check=True,
                   stdout=subprocess.DEVNULL)


def set_up(workload, seed: int, work: Path, src: Path, rep: int) -> dict:
    """One timed set-up: an interpreter start with the CLI import, then
    generating the workload's inputs from the seed into inputs<rep>/.

    A set-up runs mostly in a child interpreter, which a timer in this
    process cannot sample, so the speed is probed just before and after it.
    Returns {"inputs": the workload's inputs, "seconds": wall time, "scale"}.
    """
    before = speed_probe()
    t0 = time.perf_counter()
    import_probe(src)
    d = work / f"inputs{rep}"
    d.mkdir(parents=True)
    inputs = workload.setup(seed, d)
    seconds = time.perf_counter() - t0
    after = speed_probe()
    return {"inputs": inputs, "seconds": seconds,
            "scale": REFERENCE_S / statistics.fmean((before, after))}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(workload, inputs: dict, out: Path, sim: SimStats, instrument) -> dict:
    """One timed pass of the workload's commands under instrument, then its checks."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    errors = []
    stdout = io.StringIO()
    t0 = time.perf_counter()
    try:
        with instrument, contextlib.redirect_stdout(stdout):
            for argv in workload.commands(inputs, out):
                code = cli.main(argv)
                if code != 0:
                    errors.append(f"gatesim {argv[0]} exited with {code}")
                    break
    except (Exception, SystemExit):
        errors.append("exception: " + traceback.format_exc(limit=-3))
    wall = time.perf_counter() - t0
    if not errors:
        try:
            errors += workload.check(inputs, out, stdout.getvalue(), sim)
        except (OSError, ValueError, KeyError, IndexError) as e:
            errors.append(f"output check raised {e!r}")
    digest, files, nbytes = digest_dir(out)
    return {"start": t0, "wall_s": wall, "errors": errors, "digest": digest, "files": files,
            "bytes": nbytes, "sim": sim.block()}


def untraced_pass(workload, inputs, out) -> dict:
    """A pass with only the rollout timer and the speed sampler. Its times
    leave out the probe chunks that ran inside them."""
    sim = SimStats()
    tracer = Tracer()
    sampler = SpeedSampler()
    with sampler.running():
        record = run_pass(workload, inputs, out, sim, tracer.installed(timing_targets(sim)))
    t0 = record["start"]
    record["probe_s"] = sampler.within(t0, t0 + record["wall_s"])
    record["work_s"] = record["wall_s"] - record["probe_s"]
    record["rollouts_s"] = [(e - s) - sampler.within(s, e)
                            for s, e in zip(tracer.start, tracer.end)]
    record["scale"] = sampler.scale()
    record["probe_chunks"] = len(sampler.seconds)
    return record


def traced_pass(workload, inputs, out) -> dict:
    """A pass with every trace target. Probe chunks inside it would count in
    the spans' self times, so the speed is probed just before and after it."""
    sim = SimStats()
    tracer = Tracer()
    before = speed_probe()
    record = run_pass(workload, inputs, out, sim, tracer.installed(trace_targets(sim)))
    record["scale"] = REFERENCE_S / statistics.fmean((before, speed_probe()))
    record["layers"] = layer_metrics(tracer, sim, record)
    record["spans"] = len(tracer)
    record["errors"] += trace_consistency(record["layers"], sim)
    return record


def compare_passes(passes: list) -> None:
    """Mark as failed every pass whose results differ from the first pass.

    All passes must agree on the result digest and on the simulated counts
    both kinds of pass take; traced passes must also agree with the first
    traced pass on every count they add.
    """
    first = passes[0]
    traced = [p for p in passes if "layers" in p]
    for p in passes[1:]:
        if p["digest"] != first["digest"]:
            p["errors"].append(f"result digest {p['digest'][:12]} != {first['digest'][:12]}")
        diff = sorted(k for k in first["sim"].keys() & p["sim"].keys()
                      if p["sim"][k] != first["sim"][k])
        if diff:
            p["errors"].append(f"simulated statistics differ: {diff}")
    for p in traced[1:]:
        diff = sorted(k for k in p["sim"] if p["sim"][k] != traced[0]["sim"].get(k))
        diff += sorted(k for k in EXACT if p["layers"][k] != traced[0]["layers"][k])
        if diff:
            p["errors"].append(f"traced counts differ: {diff}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    """Linearly interpolated q-th percentile (statistics.quantiles, inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_wall(passes) -> float:
    """Median wall time of an untraced pass at the reference speed (s)."""
    return statistics.median(p["work_s"] * p["scale"] for p in passes)


def rollout_durations(passes) -> list[float]:
    """Per distinct rollout of a pass, the median over the passes of its
    duration at the reference speed (ms). Every pass makes the same
    rollouts in the same order, so the k-th rollout of each pass is the
    same rollout."""
    return [statistics.median(p["rollouts_s"][k] * p["scale"] * 1e3 for p in passes)
            for k in range(len(passes[0]["rollouts_s"]))]


def setup_time(setups) -> float:
    """Median time of a set-up at the reference speed (s)."""
    return statistics.median(s["seconds"] * s["scale"] for s in setups)


def end_to_end(passes, setups) -> dict:
    wall = pass_wall(passes)
    sim = passes[0]["sim"]
    durations = rollout_durations(passes)
    return {
        "setup_s": setup_time(setups),
        "wall_s": wall,
        "rollouts_per_s": sim["rollouts"] / wall,
        "sim_steps_per_s": sim["dynamics_steps"] / wall,
        "rollout_p50_ms": statistics.median(durations),
        "rollout_p95_ms": percentile(durations, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced) -> dict:
    """Every per-layer metric of the fastest traced pass, and the overhead:
    the median traced pass over the median untraced pass, both scaled."""
    best = min(traced, key=lambda p: p["wall_s"])
    values = dict(best["layers"])
    values["trace.overhead_ratio"] = (statistics.median(p["wall_s"] * p["scale"] for p in traced)
                                      / pass_wall(untraced))
    return {name: values[name] for name, _unit, _better in LAYER_METRICS}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def machine(root: Path, blas_threads: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "git_sha": git_sha(root),
        "src_sha256": tree_sha256(root / "src" / "gatesim"),
    }


def git_sha(root: Path):
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(args, root: Path, blas_threads: str) -> int:
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    setups, untraced, traced = [], [], []

    def timed_set_up() -> dict:
        setups.append(set_up(workload, args.seed, work, root / "src", len(setups)))
        return setups[-1]

    inputs = timed_set_up()["inputs"]
    out = work / "out"
    # the first pass pays one-time costs (lazy imports, first allocations);
    # it is checked like every other pass but not timed
    warm_up = untraced_pass(workload, inputs, out)

    deadline = time.perf_counter() + args.seconds
    while (len(untraced) < MIN_PASSES or (args.trace and len(traced) < MIN_PASSES)
           or time.perf_counter() < deadline):
        if args.trace:
            traced.append(traced_pass(workload, inputs, out))
        untraced.append(untraced_pass(workload, inputs, out))
        # the other set-ups are spread evenly over the run, outside its
        # window, so that they sample the machine's speed at several times
        due = SETUP_REPEATS * (1 - (deadline - time.perf_counter()) / args.seconds)
        if len(setups) < min(due, SETUP_REPEATS):
            deadline += timed_set_up()["seconds"]
    while len(setups) < SETUP_REPEATS:
        timed_set_up()
    passes = [warm_up] + untraced + traced
    compare_passes(passes)
    failed = sum(1 for p in passes if p["errors"])
    # a pass cut short by an error must not count towards a time
    untraced = [p for p in untraced if not p["errors"]] or untraced
    traced = [p for p in traced if not p["errors"]] or traced

    if args.trace:
        values = per_layer(untraced, traced)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        values = end_to_end(untraced, setups)
        units = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    first = passes[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(root, blas_threads),
        "reference_s": REFERENCE_S,
        "setups": [{k: v for k, v in s.items() if k != "inputs"} for s in setups],
        "passes": [{k: v for k, v in p.items() if k not in ("sim", "layers", "rollouts_s")}
                   for p in passes],
        "simulated": first["sim"],
        "simulated_traced": traced[0]["sim"] if traced else None,
        "digest": first["digest"],
        "frames_per_s": first["sim"]["frames"] / pass_wall(untraced),
        "rollout_p99_ms": percentile(rollout_durations(untraced), 99),
        "failed_ratio": failed / len(passes),
        "metrics": metrics,
    }
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    for p in passes:
        for e in p["errors"]:
            print(f"FAILED: {e}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"passes {len(passes)} (failed {failed}), simulated {first['sim']}")
    print(f"report: {(work / 'report.json').relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0
