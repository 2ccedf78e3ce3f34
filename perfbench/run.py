"""Benchmark for locfree: one workload per process.

    python3 perfbench/run.py --workload indoor20-locf --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full result, with the machine and per-operation
figures, goes to ``perfbench/results/``.  ``--quick`` runs one round at
minimal size (coarse grid, few query points) for the self-test.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One process, one BLAS thread: the measured arithmetic is on small
# matrices, where a second thread adds noise on a shared machine.
BLAS_THREADS = "1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "locfree", "__init__.py")):
        print(f"perfbench: no locfree sources under {src}", file=sys.stderr)
        return 2
    # Before numpy is imported anywhere.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, src)

    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    result = run_workload(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace), args.quick,
        int(BLAS_THREADS),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
