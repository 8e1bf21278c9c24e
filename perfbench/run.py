"""Run one workload of the stringshape benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload soft-search --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is the full report (environment, input properties, checks,
every metric under its long name); the same report is written to
``perfbench/out/``.  The exit code is 0 when every output was correct, 1 when
a check failed, and 2 when the library cannot be found or the arguments are
invalid.
"""

import argparse
import json
import os
import sys
import time

# One BLAS thread: the benchmark is a single process with jobs=1, and the
# library's batched small-matrix LAPACK calls gain nothing from threads.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "stringshape", "__init__.py")):
        print(f"stringshape sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The library's own imports (numpy among them) count in setup_s; the
    # benchmark's do not.
    start = time.perf_counter()
    import stringshape
    import stringshape.studies  # noqa: F401

    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(stringshape.__file__)) != os.path.join(
            SRC, "stringshape"):
        print(f"imported stringshape from {stringshape.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench
    args = parse_args(argv, bench.WORKLOADS)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result, report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               import_s, ROOT, out_dir=out_dir)
    report["result"] = result
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
