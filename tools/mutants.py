"""Mutation check: does the fast test suite fail on each listed mutant?

    python3 tools/mutants.py [--list] [--scratch DIR]

A mutant is one exact text replacement in one source file, with the reason
it is worth checking. Every mutant's old text must occur exactly once in its
file; the script refuses to run otherwise, so a mutant whose code moved is
fixed rather than silently skipped. --list prints the numbered mutants after
that check and runs nothing.

Otherwise the working tree (without .git and caches) is copied to a fresh
directory under --scratch (a temporary directory, removed afterwards, by
default), and `python -m pytest -q -x -m "not slow"` runs there (without
tests/test_mutants.py, which a mutated copy fails by design): first on the
unmutated copy, which must pass, then once per mutant on a fresh copy with
that one replacement applied. Each run prints `killed` (the suite failed, or
ran past TIMEOUT seconds) or `survived` (it passed), with its wall time. A
survivor is either a gap in the tests or an equivalent mutant, one that cannot
change any result; the table in CHANGES.md says which. A mutant whose reason
starts with "speed only" is equivalent by design (it undoes a cache), so only
a test of the cache itself can kill it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tests/test_mutants.py checks that each old text is still in the source,
# which a mutated copy no longer holds
PYTEST = ["-m", "pytest", "-q", "-x", "-m", "not slow", "-p", "no:cacheprovider",
          "--ignore=tests/test_mutants.py"]
# a run this long counts as killed; an unmutated fast suite takes about a minute
TIMEOUT = 900.0
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".perfbench_work", "*.egg-info")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str


DYNAMICS = "src/gatesim/dynamics.py"
SIMULATOR = "src/gatesim/simulator.py"
TRACKS = "src/gatesim/tracks.py"
REFINEMENT = "src/gatesim/refinement.py"


def _clamp(x: str, b: str, before: str = "", after: str = "") -> str:
    """A clamp of x to [-b, b] as the steppers write it, with the text around
    it that makes it unique in its file."""
    return f"{before}-{b} if {x} < -{b} else ({b} if {x} > {b} else {x}){after}"


def _clamp_mutants(where: str, x: str, b: str, before: str = "", after: str = "") -> list:
    old = _clamp(x, b, before, after)
    return [
        Mutant(DYNAMICS, old,
               f"{before}{b} if {x} < -{b} else (-{b} if {x} > {b} else {x}){after}",
               f"{where}: swap the clamp's bounds"),
        Mutant(DYNAMICS, old, old.replace(f"{x} < -{b}", f"{x} <= -{b}"),
               f"{where}: < -> <= in the clamp"),
    ]


MUTANTS = [
    # the uav's shared RK4 stage
    Mutant(DYNAMICS, "if pin2 == pin1:", "if t2 == t1:",
           "uav shared stage: key it on t2 == t1, not on the pin state"),
    Mutant(DYNAMICS, "if pin2 == pin1:", "if True:",
           "uav shared stage: share it even when stage 2 changes the pin state"),
    # every clamp of the steppers
    *_clamp_mutants("uav step yaw rate", "u_psi", "ym", before="u_psi = "),
    *_clamp_mutants("uav step pitch rate", "u_th", "pm", before="u_th = "),
    *_clamp_mutants("uav step pitch", "th_new", "th_max"),
    *_clamp_mutants("quad step yaw rate", "r_c", "ym", before="r_c = "),
    *_clamp_mutants("quad rates pitch tilt", "pitch_des", "tilt", before="pitch_des = "),
    *_clamp_mutants("quad rates roll tilt", "roll_des", "tilt", before="roll_des = "),
    # float controls and the float rollout set-up
    Mutant(SIMULATOR, "u = tuple(map(float, policy.evaluate(obs)))", "u = policy.evaluate(obs)",
           "rollout control: what the policy returned, unconverted"),
    Mutant(SIMULATOR, "u = tuple(map(float, policy.evaluate(obs)))",
           "u = policy.evaluate(obs)\n        u = u if type(u) is tuple else tuple(map(float, u))",
           "rollout control: a tuple passed through unconverted, so float32 entries stay"),
    Mutant(TRACKS, "_clip(cx - k * nx, xl + 0.5, xh - 0.5)", "_clip(cx - k * nx, xh - 0.5, xl + 0.5)",
           "start pose: swap the x clamp's bounds"),
    Mutant(TRACKS, "p = lo if p <= lo else p", "p = lo if p < lo else p",
           "start pose clamp: a tie keeps the point, not the bound (-0.0 on a bound of 0.0)"),
    Mutant(REFINEMENT, "0.0 <= q < count else count - 1 if q >= count else 0", "0.0 <= q else 0",
           "cell_of: no clamp to the top bin, so the upper bound is out of the grid"),
    # the one state form: start tuples and the tuple the rollout reads
    Mutant(DYNAMICS, "return (x, y, z, wrap_angle(yaw), 0.0)", "return (x, y, z, yaw, 0.0)",
           "uav initial_state: the yaw left unwrapped"),
    Mutant(DYNAMICS, "(x, y, z, 0.0, 0.0, 0.0, 0.0, 0.0, wrap_angle(yaw), 0.0, 0.0, 0.0)",
           "(x, y, z, 0.0, 0.0, 0.0, 0.0, wrap_angle(yaw), 0.0, 0.0, 0.0, 0.0)",
           "quad initial_state: the yaw in the pitch slot"),
    Mutant(SIMULATOR, "state = tuple(state.tolist())", "state = tuple(state)",
           "rollout init_state: a tuple of numpy scalars, not of Python floats"),
    Mutant(SIMULATOR, "state = tuple(state.tolist())", "state = state.tolist()",
           "rollout init_state: a list, which the first tick's policy could change"),
    Mutant(SIMULATOR, "pitch = state[4] if", "pitch = state[3] if",
           "vehicle_camera_pose: the uav pitch read from the yaw slot"),
    # the gate frame of Python floats
    Mutant(TRACKS, "center = tuple([(1 - s) * a + s * b for a, b in zip(c0, c1)])",
           "center = tuple([s * a + (1 - s) * b for a, b in zip(c0, c1)])",
           "moving gate frame: the interpolation weights swapped"),
    Mutant(TRACKS, "if t <= kf[0][0]:", "if t < kf[0][0]:",
           "moving gate frame: at the first keyframe's time, interpolate (s = 0) instead "
           "of returning the keyframe, which turns -0.0 into 0.0 and wraps the yaw"),
    Mutant(TRACKS, "if self._static_frame is not None:", "if False:",
           "speed only: the static frame cache off, so every call recomputes the same frame"),
]


def check(mutants) -> list:
    """The problems that stop a run: each old text that does not occur
    exactly once in its file, and each mutant that changes nothing."""
    problems = []
    for i, m in enumerate(mutants, 1):
        n = (ROOT / m.file).read_text().count(m.old)
        if n != 1:
            problems.append(f"mutant {i} ({m.why}): its old text occurs {n} times in {m.file}")
        if m.new == m.old:
            problems.append(f"mutant {i} ({m.why}): its new text is its old text")
    return problems


def run_suite(tree: Path) -> tuple[bool, float]:
    """(passed, seconds) of the fast suite in tree; a run past TIMEOUT
    counts as failed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]),
        "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.perf_counter()
    try:
        res = subprocess.run([sys.executable, *PYTEST], cwd=tree, env=env,
                             capture_output=True, timeout=TIMEOUT)
        passed = res.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - t0


def mutated_copy(scratch: Path, name: str, mutant: Mutant | None) -> Path:
    tree = scratch / name
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    if mutant is not None:
        path = tree / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
    return tree


def run(scratch: Path) -> int:
    base = mutated_copy(scratch, "base", None)
    passed, seconds = run_suite(base)
    shutil.rmtree(base)
    print(f"  0 unmutated: {'passed' if passed else 'FAILED'} in {seconds:.0f} s", flush=True)
    if not passed:
        print("error: the fast suite fails without a mutant", file=sys.stderr)
        return 1
    survived = 0
    for i, mutant in enumerate(MUTANTS, 1):
        tree = mutated_copy(scratch, f"mutant{i}", mutant)
        passed, seconds = run_suite(tree)
        shutil.rmtree(tree)
        survived += passed
        print(f"{i:3d} {'survived' if passed else 'killed  '} {seconds:5.0f} s  "
              f"{mutant.why}", flush=True)
    print(f"{len(MUTANTS) - survived} killed, {survived} survived")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--list", action="store_true", help="print the mutants; run nothing")
    p.add_argument("--scratch", type=Path, default=None,
                   help="where the copies are made; default a temporary directory")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    problems = check(MUTANTS)
    if problems:
        print("\n".join(f"error: {p}" for p in problems), file=sys.stderr)
        return 2
    if args.list:
        for i, m in enumerate(MUTANTS, 1):
            print(f"{i:3d} {m.file}: {m.why}")
        return 0
    if args.scratch is not None:
        args.scratch.mkdir(parents=True, exist_ok=True)
        return run(args.scratch)
    with tempfile.TemporaryDirectory(prefix="mutants_") as scratch:
        return run(Path(scratch))


if __name__ == "__main__":
    sys.exit(main())
