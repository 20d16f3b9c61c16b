"""gatesim benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload refine --seed 0 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports gatesim from that
checkout's src/ directory and refuses to run without it. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process or its children
BLAS_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description="gatesim benchmark (one workload, one seed)")
    p.add_argument("--workload", required=True, choices=("refine", "vision"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured window; passes start until it has elapsed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics of traced passes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gatesim" / "__init__.py").is_file():
        print(f"error: no gatesim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gatesim

    if Path(gatesim.__file__).resolve().parent != (SRC / "gatesim").resolve():
        print(f"error: imported gatesim from {gatesim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.run(args, ROOT, BLAS_THREADS["OMP_NUM_THREADS"])


if __name__ == "__main__":
    sys.exit(main())
