"""Span tracing of primestrings from outside the package.

The tracer replaces public functions at the module attribute their
callers look them up through (``special.sieve_range`` is what
``special_primes`` calls, ``maier.is_prime`` what the Maier row scan
calls, and so on) with wrappers that record one span per call: name,
start, end and parent. Spans live in flat integer arrays and are
written out once, when the run ends. A layer's self time is the time
its spans cover minus the time covered by their direct children.

Tracing only ever runs with every layer call in this process
(workers=1); calls made inside pool workers would not be seen.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


def _size(value):
    return int(getattr(value, "size", len(value)))


def _sieve_range_counts(args, kwargs, result):
    lo = args[0] if args else kwargs["lo"]
    hi = args[1] if len(args) > 1 else kwargs["hi"]
    return {"candidates": hi - lo, "primes": _size(result)}


def _size_count(key):
    return lambda args, kwargs, result: {key: _size(result)}


def _is_prime_counts(args, kwargs, result):
    return {"prime": int(bool(result))}


def _rows_census_counts(args, kwargs, result):
    _start, length = args[1]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return {"cells": rows * length}


# (module, attribute, span name, counter hook). Each entry is the name a
# caller looks the function up through; several entries may share a span
# name when one function is reached through several modules.
def wrap_points(ps):
    """Where to wrap, given the imported ``primestrings`` package."""
    cli, search, special, maier = ps.cli, ps.search, ps.special, ps.maier
    const = ps.fixedpoint.IrrationalConstant
    return [
        (cli, "main", "cli.main", None),
        (cli, "find_first_string", "search.find_first_string", None),
        (cli, "scan_all_strings", "search.scan_all_strings",
         _size_count("runs")),
        (cli, "residue_census", "search.residue_census", None),
        (search, "special_primes", "special.special_primes",
         _size_count("primes")),
        (special, "special_primes", "special.special_primes",
         _size_count("primes")),
        (special, "enumerate_special", "special.enumerate_special",
         _size_count("members")),
        (maier, "member", "special.member", None),
        (special, "sieve_range", "sieve.sieve_range", _sieve_range_counts),
        (maier, "sieve_range", "sieve.sieve_range", _sieve_range_counts),
        (maier, "is_prime", "sieve.is_prime", _is_prime_counts),
        (const, "floor_mul", "fixedpoint.floor_mul", None),
        (const, "floor_div", "fixedpoint.floor_div", None),
        (cli, "run_construction", "maier.run_construction", None),
        (maier, "build_Q", "maier.build_Q", None),
        (maier, "anchored_interval", "maier.anchored_interval", None),
        (maier, "sample_rows_census", "maier.sample_rows_census",
         _rows_census_counts),
        (maier, "bound_report", "maier.bound_report", None),
        (cli, "count_S_q", "maier.count_S_q", None),
        (cli, "count_psi", "maier.count_psi", None),
        (maier, "prime_factors", "arith.prime_factors", None),
        (maier, "euler_phi", "arith.euler_phi", None),
        (maier, "crt_pair", "arith.crt_pair", None),
        (search, "euler_phi", "arith.euler_phi", None),
    ]


class Tracer:
    """In-memory span recorder with per-span-name counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.counters = {}          # span name -> {counter -> total}
        self._stack = []
        self._active = []           # open spans per name id
        self._patched = []
        self.enabled = False
        # floor_mul calls made while enumerate_special is open
        self._enum_id = self._id("special.enumerate_special")
        self._floor_mul_id = self._id("fixedpoint.floor_mul")

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def count(self, name, key, value):
        bucket = self.counters.setdefault(name, {})
        bucket[key] = bucket.get(key, 0) + value

    def install(self, points):
        for owner, attr, name, hook in points:
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name, hook))
            self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, orig, name, hook):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            idx = len(tracer.name_id)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end_ns.append(0)
            tracer._stack.append(idx)
            tracer._active[nid] += 1
            if nid == tracer._floor_mul_id and tracer._active[tracer._enum_id]:
                tracer.count(name, "under_enumerate", 1)
            tracer.start_ns.append(time.perf_counter_ns())
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.end_ns[idx] = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._active[nid] -= 1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    tracer.count(name, key, value)
            return result

        traced.__wrapped__ = orig
        return traced

    def summary(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        names = np.frombuffer(self.name_id, dtype=np.int64)
        start = np.frombuffer(self.start_ns, dtype=np.int64)
        end = np.frombuffer(self.end_ns, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        self_ns = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(self_ns, parent[has_parent], dur[has_parent])
        calls = np.bincount(names, minlength=len(self.names))
        self_sum = np.bincount(names, weights=self_ns,
                               minlength=len(self.names))
        return {name: (int(calls[i]), float(self_sum[i]) * 1e-9)
                for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
                 end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64))
