"""Run the dospsim benchmark.

    python3 perfbench/run.py                          # all workloads, untraced
    python3 perfbench/run.py --workload toy_r1 --seed 3 --seconds 20 --trace 1

Prints a report per workload and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  Exits 1 when an operation failed its check and 2 when the
benchmark cannot run (for example, when ``src/dospsim`` is missing).
"""

import argparse
import json
import os
import sys

# One process, one thread: pin BLAS and OpenMP before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import bench  # noqa: E402  (after the thread pinning above)


def main(argv=None) -> int:
    spec = bench.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *bench.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [bench.run_workload(bench.WORKLOADS[n], args.seed,
                                      args.seconds, bool(args.trace), spec)
                   for n in names]
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
