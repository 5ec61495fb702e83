"""Benchmark of primestrings: seeded workloads, timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 32 --trace 0

``--workload`` is scan, high, or ``all`` to run both in turn. Each run
runs the workload in a fresh interpreter with its own temporary
``PRIMES_CACHE_DIR``, and sets the package up in 8 more fresh
interpreters, half before and half after (``setup_s`` is the median).
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of a traced run. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The environment, the op run count and every failure are printed before
it and written with the result under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import bench

ROOT = os.path.dirname(bench.HERE)
OUT_DIR = os.path.join(bench.HERE, "out")
WORKER = os.path.join(bench.HERE, "worker.py")
SETUP_REPEATS = 8             # half before the workload, half after
WORKER_TIMEOUT = 160          # seconds; a run must end within 180


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _env(tmp):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PRIMES_CACHE_DIR"] = os.path.join(tmp, "cache")
    env["TMPDIR"] = tmp
    return env


def _wait(proc, timeout):
    """Wait for proc; on timeout kill its whole process group."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def setup_seconds(workload, env, repeats):
    """Seconds from interpreter start until the first op could run.

    Each is scaled to the reference host speed, like the op times.
    """
    cmd = [sys.executable, WORKER, "setup", workload]
    times = []
    for _ in range(repeats):
        before = bench.host_probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE,
                                start_new_session=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if _wait(proc, 60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup of {workload} failed")
        # all of a set-up runs in the child interpreter
        times.append(elapsed / bench.host_factor(before, bench.host_probe(),
                                                 1.0))
    return times


def run_workload(workload, seed, seconds, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        env = _env(tmp)
        if not trace:
            setup_seconds(workload, env, 1)     # warms the disk cache
            setup = setup_seconds(workload, env, SETUP_REPEATS // 2)
        out = os.path.join(tmp, "result.json")
        proc = subprocess.Popen(
            [sys.executable, WORKER, "measure", workload, str(seed),
             str(seconds), str(int(trace)), out],
            env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
        if _wait(proc, WORKER_TIMEOUT) != 0:
            raise RuntimeError(f"{workload} worker exited {proc.returncode}")
        with open(out) as fh:
            result = json.load(fh)
        if not trace:
            setup += setup_seconds(workload, env, SETUP_REPEATS // 2)
            result["metrics"]["setup_s"] = statistics.median(setup)
            # largest resident set of any finished descendant, pool
            # workers included
            result["metrics"]["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        else:
            spans = result["info"]["spans_file"]
            dest = f"{workload}-seed{seed}-spans.npz"
            shutil.move(os.path.join(tmp, spans),
                        os.path.join(OUT_DIR, dest))
            result["info"]["spans_file"] = os.path.join("perfbench", "out",
                                                        dest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return result


def _metric_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload, seed, trace, result):
    """Print the run record and return the result line."""
    units = _metric_units(trace)
    env = {"workload": workload, "seed": seed, "trace": int(trace),
           "workers": result["workers"], "nproc": os.cpu_count(),
           "cpu": _cpu_model(), "git_commit": _git_commit(),
           **result["versions"]}
    closes = True
    if trace:
        closure = result["metrics"]["trace.closure_frac"]
        closes = abs(closure - 1.0) <= 0.05
        if not closes:
            result["failures"].append(
                {"op": "trace", "reason": f"self times cover {closure:.3f} "
                                          "of the traced total"})
    line = {"correct": result["failed"] == 0 and closes,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name],
                               "unit": unit}
                        for name, unit in units.items()}}
    record = {"env": env, "info": result["info"],
              "failures": result["failures"], "result": line}
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}"
                                 ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("# env " + json.dumps(env))
    print("# info " + json.dumps(result["info"]))
    for failure in result["failures"]:
        print("# FAILED " + json.dumps(failure))
    for name, metric in line["metrics"].items():
        print(f"# {workload:11s} {name:42s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=bench.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "primestrings",
                                       "__init__.py")):
        print(f"error: no primestrings source under {ROOT}/src; run from "
              "the root of a primestrings checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so peak_rss_mb stays per workload
        for workload in bench.WORKLOADS:
            code = subprocess.call(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)])
            if code:
                return code
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    line = report(args.workload, args.seed, args.trace, result)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
