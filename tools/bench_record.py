"""Record a benchmark comparison of two commits in BENCH_<short-sha>.json.

    python3 tools/bench_record.py --base HEAD~1 [--pairs 5] [--workloads refine vision]
        [--scratch DIR] [--out FILE]

HEAD is the change, measured against the commit that --base names. Both
are exported with `git archive` into fresh directories under --scratch (a
temporary directory, removed afterwards, by default), so only committed files
are measured and the repository's own git metadata is left alone. In each
directory the benchmark command of BENCHMARK.json (`python3 perfbench/run.py`)
runs one workload for one seed and BENCHMARK.json's run_seconds at a time:

- K pairs per workload with `--trace 0`, seeds 101, 102, ... one per pair,
  alternating which commit runs first, for the end-to-end metrics;
- TRACED_RUNS `--trace 1` runs per commit on the first seed, alternating
  which commit runs first, for the per-layer block: each metric's median
  over one side's traced runs, so that one run's host drift does not read
  as a layer change. A side's traced runs must agree on every simulated
  count. Beside it, each layer's share: its *.self_s over the sum of every
  *.self_s of the same run, the median over the runs. Host drift slows
  every layer of a run alike, so a share moves when its layer changes, not
  with the host.

The file holds every run's end-to-end metrics, each side's median and
quartiles, the pairs the change won (ties count for neither), the result
digests and simulated counts of every run, the median traced per-layer
metrics and self-time shares, and a machine block with both shas. It is
written next to this checkout's BENCHMARK.json unless --out says otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """The committed files of `sha`, extracted into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha], check=True,
                         capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as f:
        f.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, command: list, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run in `tree`: its result object, plus the digest and
    simulated counts from its report."""
    # the command's interpreter is this one, so both sides run on the same python
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                         timeout=max(600.0, 20 * seconds))
    elapsed = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {res.returncode}:\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    report = json.loads((tree / ".perfbench_work" / f"{workload}-seed{seed}-trace{trace}" /
                         "report.json").read_text())
    print(f"  {tree.name} {workload} seed {seed} trace {trace}: {elapsed:.0f} s, "
          f"correct {result['correct']}", file=sys.stderr, flush=True)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "digest": report["digest"],
        "simulated": report["simulated_traced"] if trace else report["simulated"],
    }


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric: each side's quartiles, the change of the median, and the
    pairs the change won."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        won = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
        qb, qc = quartiles(base), quartiles(change)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base": qb,
            "change": qc,
            "median_change": qc["median"] / qb["median"] - 1.0,
            "pairs_won": won,
            "pairs": len(pairs),
        }
    return out


def self_shares(metrics: dict) -> dict:
    """Each *.self_s metric of one traced run over the sum of all of them."""
    names = [name for name in metrics if name.endswith(".self_s")]
    total = sum(metrics[name] for name in names)
    return {name: metrics[name] / total if total else 0.0 for name in names}


def traced_median(runs: list) -> dict:
    """One side's per-layer block: each metric's median over its traced runs,
    which must agree on every simulated count, and the median of each
    layer's self-time share."""
    if any(r["simulated"] != runs[0]["simulated"] for r in runs[1:]):
        raise RuntimeError(f"traced runs of one commit disagree on their simulated counts: "
                           f"{[r['simulated'] for r in runs]}")
    shares = [self_shares(r["metrics"]) for r in runs]
    return {
        "runs": len(runs),
        "metrics": {name: statistics.median(r["metrics"][name] for r in runs)
                    for name in runs[0]["metrics"]},
        "self_shares": {name: statistics.median(s[name] for s in shares) for name in shares[0]},
        "simulated": runs[0]["simulated"],
        "correct": all(r["correct"] for r in runs),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="the parent commit")
    p.add_argument("--pairs", type=int, default=5, help="alternating pairs per workload")
    p.add_argument("--workloads", nargs="+", default=None,
                   help="default: every workload of BENCHMARK.json")
    p.add_argument("--scratch", type=Path, default=None,
                   help="where the commits are exported; default a temporary directory")
    p.add_argument("--out", type=Path, default=None, help="default BENCH_<short-sha>.json")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.scratch is not None:
        return compare(args, args.scratch)
    with tempfile.TemporaryDirectory(prefix="bench_record_") as scratch:
        return compare(args, Path(scratch))


def compare(args, scratch: Path) -> int:
    """Run the pairs with both commits exported under scratch; write the record."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = [101 + k for k in range(args.pairs)]
    seconds = spec["run_seconds"]
    shas = {"base": git("rev-parse", args.base), "change": git("rev-parse", "HEAD")}
    trees = {side: export(sha, scratch / f"{side}-{sha[:12]}") for side, sha in shas.items()}

    record = {
        "command": spec["command"],
        "seconds": seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "base_sha": shas["base"],
            "change_sha": shas["change"],
        },
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for k, seed in enumerate(seeds):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {"pair": k, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], spec["command"], workload, seed, seconds, 0)
            pairs.append(pair)
        traced_runs = {"base": [], "change": []}
        for k in range(TRACED_RUNS):
            for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
                traced_runs[side].append(
                    run_once(trees[side], spec["command"], workload, seeds[0], seconds, 1))
        traced = {side: traced_median(runs) for side, runs in traced_runs.items()}
        runs = [p[side] for p in pairs for side in ("base", "change")]
        record["workloads"][workload] = {
            "summary": summarize(pairs, spec["end_to_end"]),
            "all_correct": all(r["correct"] for r in runs),
            # equal per seed: the same seed must give the same result files and counts
            "digests_equal": all(p["base"]["digest"] == p["change"]["digest"] for p in pairs),
            "simulated_equal": all(p["base"]["simulated"] == p["change"]["simulated"]
                                   for p in pairs),
            "pairs": pairs,
            "trace": {
                "seed": seeds[0],
                "simulated_equal": traced["base"]["simulated"] == traced["change"]["simulated"],
                **traced,
            },
        }
    out = args.out or ROOT / f"BENCH_{shas['change'][:7]}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for workload, w in record["workloads"].items():
        for name, m in w["summary"].items():
            print(f"{workload:8s} {name:18s} base {m['base']['median']:10.4g} "
                  f"change {m['change']['median']:10.4g} ({m['median_change']:+.1%}) "
                  f"won {m['pairs_won']}/{m['pairs']}")
        print(f"{workload:8s} digests equal {w['digests_equal']}, simulated equal "
              f"{w['simulated_equal']}, all correct {w['all_correct']}")
    print(f"wrote {out}")
    return 0


def _version(module: str) -> str:
    return __import__(module).__version__


if __name__ == "__main__":
    sys.exit(main())
