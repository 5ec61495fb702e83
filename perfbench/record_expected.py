"""Record the default seed's result digests into perfbench/expected.json.

    python3 perfbench/record_expected.py

Runs every op that a default-seed run of each workload makes (at
BENCHMARK.json's run_seconds), checks it, and stores a digest of its
result fields. Benchmark runs then fail any op whose result differs.
Re-record only when a change to the results is intended and verified.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    digests = {}
    for workload in bench.WORKLOADS:
        pkg = bench.Package(workload)
        checker = bench.Checker(pkg, bench.DEFAULT_SEED)
        passes = bench.generate(workload, bench.DEFAULT_SEED,
                                bench.passes_for(workload, seconds), 1)
        for ops in passes:
            for op in ops:
                if op.id in digests:
                    continue
                rc, output, err = bench.execute(pkg, op)
                ok, reason = checker.check(op, rc, output)
                if not ok:
                    sys.exit(f"{op.id}: {reason} {err}")
                digests[op.id] = bench.digest(op, output)
                print(f"{workload}: {op.id}", file=sys.stderr)
    with open(bench.EXPECTED_PATH, "w") as fh:
        json.dump({"seed": bench.DEFAULT_SEED, "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
