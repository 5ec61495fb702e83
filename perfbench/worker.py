"""One benchmark run of one workload, in a fresh interpreter.

``worker.py setup WORKLOAD`` imports the package, builds the workload's
set specs and prints ``ready``; run.py times that from process start.

``worker.py measure WORKLOAD SEED SECONDS TRACE OUT`` runs the ops and
writes a JSON result to OUT. Untraced, it runs the passes at the
workload's worker count and probes the host's speed around each op.
Traced, it runs every op of one pass twice at workers=1, so every
layer call happens in this process: once traced and once not,
alternating which goes first. It saves the spans next to OUT.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath
import numpy

import bench
from tracer import Tracer, wrap_points


def _check_source(pkg):
    src = os.path.join(os.path.dirname(bench.HERE), "src")
    if not os.path.abspath(pkg.ps.__file__).startswith(src + os.sep):
        sys.exit(f"primestrings imported from {pkg.ps.__file__}, "
                 f"not from {src}")


def measure(workload, seed, seconds, trace, out):
    pkg = bench.Package(workload)
    _check_source(pkg)
    expected = bench.load_expected()
    checker = bench.Checker(pkg, seed, expected)
    tally = bench.Tally()
    result = {"workers": 1 if trace else bench.WORKERS[workload]}
    if not trace:
        passes = bench.generate(workload, seed,
                                bench.passes_for(workload, seconds),
                                bench.WORKERS[workload])
        records = [bench.run_pass(pkg, ops, checker, tally)
                   for ops in passes]
        result["metrics"], result["info"] = bench.end_to_end(records)
        # per op slot: its id, then (seconds, host factor) per pass
        runs = [[(r.seconds,
                  bench.host_factor(r.before, r.after, r.child_share))
                 for r in rs] for rs in records]
        result["info"]["op_seconds"] = [
            [op.id] + [rs[i] for rs in runs]
            for i, op in enumerate(passes[0])]
    else:
        ops = bench.generate(workload, seed, 1, 1)[0]
        tracer = Tracer()
        points = wrap_points(pkg.ps)
        untraced, traced = [], []
        for i, op in enumerate(ops):
            # alternate which twin runs first, so warm-up favours neither
            for with_trace in ((False, True), (True, False))[i % 2]:
                if not with_trace:
                    untraced += bench.run_pass(pkg, [op], checker, tally)
                    continue
                tracer.install(points)
                try:
                    traced += bench.run_pass(pkg, [op], checker, tally,
                                             tracer)
                finally:
                    tracer.uninstall()
        result["metrics"] = bench.layer_metrics(
            tracer, sum(r.seconds for r in traced),
            sum(r.seconds for r in untraced))
        spans = os.path.join(os.path.dirname(out), "spans.npz")
        tracer.save(spans)
        result["info"] = {"spans": len(tracer.name_id),
                          "spans_file": os.path.basename(spans)}
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures)
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "mpmath": mpmath.__version__}
    with open(out, "w") as fh:
        json.dump(result, fh)


def main(argv):
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        bench.Package(workload)
        print("ready", flush=True)
        return
    seed, seconds, trace, out = argv[2:6]
    measure(workload, int(seed), float(seconds), trace == "1", out)


if __name__ == "__main__":
    main(sys.argv[1:])
