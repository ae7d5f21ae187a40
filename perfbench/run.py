"""shockgraph benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload hundred --seed 1 --seconds 30 --trace 0

Workloads: hundred, dense and masks (see BENCHMARK.json for why each was
chosen), plus tiny, a seconds-long input for the harness self-test.  The
program is imported from ./src; scratch files go to ./.perfbench-work.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit status is 0 only if every
correctness check passed.
"""
from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="shockgraph benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shockgraph", "cli.py")):
        print(f"error: no shockgraph sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import measure
    return measure.run(args.workload, args.seed, args.seconds, args.trace,
                       SRC, WORK)


if __name__ == "__main__":
    sys.exit(main())
