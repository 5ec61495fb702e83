"""Command line interface.

Subcommands: strings, maier, counts sq, counts psi, census. Each
returns its exit code and its document, JSON (or CSV where offered);
main alone writes the document to stdout, and the run manifest where
--manifest asks for one. Logs go to stderr.
Exit codes: 0 success, 2 usage error, 3 scan completed without a hit,
4 runtime/domain error, 128 + 15 after a SIGTERM, which unwinds the
command (a Maier census kills its forked row blocks on the way out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import signal
import sys
import threading
import time
import warnings
from itertools import chain

import numpy as np

from . import __version__
from .errors import DomainError, PrimestringsError, PrimestringsWarning
from .fixedpoint import IrrationalConstant, named_constant
from .maier import census_json, count_psi, count_S_q, run_construction
from .search import (MAX_WORKERS, NotFound, StringQuery, find_first_string,
                     hit_record, residue_census, scan_all_strings)
from .special import GFamily, SpecialSetSpec

EXIT_OK = 0
EXIT_NOT_FOUND = 3
EXIT_ERROR = 4

_CHUNK_ROWS = 1 << 15  # rows of --all-runs text built at once: cache-sized

log = logging.getLogger("primestrings.cli")


def parse_finite(text):
    """Finite float literal; inf and nan are usage errors."""
    try:
        f = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(f):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return f


def parse_count(text):
    """Integer-valued numeric literal; scientific notation read exactly."""
    try:
        return int(text)
    except ValueError:
        pass
    parse_finite(text)
    from decimal import Decimal     # loaded only for what int() refuses
    d = Decimal(text)
    if d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(d)


def parse_workers(text):
    """Worker count: an integer from 1 to search.MAX_WORKERS."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 worker: {text!r}")
    if v > MAX_WORKERS:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_WORKERS} workers: {text!r}")
    return v


def default_workers():
    """CPUs this process may run on, at most search.MAX_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _significant_digits(text):
    digits = [c for c in text if c.isdigit()]
    while digits and digits[0] == "0":
        digits.pop(0)
    return len(digits)


def parse_set(text):
    """Set descriptor: all | beatty:<name-or-decimal> | floorprod:<family>."""
    if text == "all":
        return SpecialSetSpec.all_primes()
    if text.startswith("beatty:"):
        arg = text.split(":", 1)[1]
        try:
            return SpecialSetSpec.beatty(named_constant(arg))
        except KeyError:
            pass
        if _significant_digits(arg) < 40:
            raise argparse.ArgumentTypeError(
                f"custom constants need >= 40 significant digits: {arg!r}")
        try:
            const = IrrationalConstant.from_decimal(arg, arg)
            return SpecialSetSpec.beatty(const)
        except (ValueError, DomainError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    if text.startswith("floorprod:"):
        family, _, power = text.split(":", 1)[1].partition("^")
        try:
            g = GFamily(family, float(power) if power else 1.0)
            return SpecialSetSpec.floor_product(g)
        except (ValueError, DomainError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown set descriptor {text!r}")


def _emit(args, text, argv, t0, workers):
    """Write text, one str or an iterable of str pieces, to stdout, and
    the run manifest where --manifest asks for one."""
    path = args.manifest
    digest = hashlib.sha256()
    for piece in [text] if isinstance(text, str) else text:
        sys.stdout.write(piece)
        if path:
            digest.update(piece.encode())
    if path:
        params = {k: repr(v) for k, v in sorted(vars(args).items())
                  if k not in ("func", "manifest")}
        manifest = {
            "command_line": " ".join(argv),
            "config_hash": hashlib.sha256(
                json.dumps(params, sort_keys=True).encode()).hexdigest(),
            "tool_version": __version__,
            "wall_time_ms": int((time.monotonic() - t0) * 1000),
            "workers": workers,
            "result_digest": digest.hexdigest(),
        }
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _dump(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


def _rows_text(pieces):
    """Yield the text of rows, at most _CHUNK_ROWS rows per str. A piece
    is bytes, the same in every row, or an int64 column of values >= 0,
    one per row, written in decimal; the columns are of one length."""
    n = next(len(piece) for piece in pieces if not isinstance(piece, bytes))
    for lo in range(0, n, _CHUNK_ROWS):
        m = min(n - lo, _CHUNK_ROWS)
        blocks = []
        for piece in pieces:
            if isinstance(piece, bytes):
                blocks.append(np.broadcast_to(
                    np.frombuffer(piece, np.uint8)[:, None], (len(piece), m)))
                continue
            # one place per line, right-aligned, NUL above the leading digit
            v = piece[lo:lo + m]
            block = np.empty((len(str(v.max())), m), np.uint8)
            for place in block[::-1]:
                q = v // 10
                np.subtract(v, 10 * q, out=place, casting="unsafe")
                np.add(place, 48, out=place, where=v > 0)
                v = q
            block[-1] |= 48                     # the units digit of 0 is "0"
            blocks.append(block)
        yield np.concatenate(blocks).T.tobytes().translate(
            None, b"\0").decode("ascii")


def cmd_strings(args):
    query = StringQuery(spec=args.set, k=args.k, q=args.q, a=args.a,
                        limit=args.limit)
    scan = scan_all_strings if args.all_runs else find_first_string
    start = time.monotonic()
    result = scan(query, workers=args.threads)
    log.info("scan: %d ms", (time.monotonic() - start) * 1000)
    if args.all_runs:
        runs = np.compress(result["length"] >= args.k, result)
        if args.format == "csv":
            return EXIT_OK, chain(["start,length\n"], _rows_text(
                [runs["start"], b",", runs["length"], b"\n"]))
        # the bytes json.dumps gives the runs as {"start", ...} dicts
        head, _, tail = _dump({
            "set": args.set.descriptor(), "q": args.q, "a": args.a,
            "limit": args.limit, "runs": [],
        }).partition("[]")                      # the only list is the runs
        rows = _rows_text([b', {"length": ', runs["length"],
                           b', "start": ', runs["start"], b"}"])
        # no ", " before the first row
        return EXIT_OK, chain([head, "[", next(rows, ", ")[2:]], rows,
                              ["]", tail])
    code = EXIT_NOT_FOUND if isinstance(result, NotFound) else EXIT_OK
    record = hit_record(query, result)
    if args.format == "json":
        return code, _dump(record)
    cols = ["set", "k", "q", "a", "limit", "found", "start_index", "primes"]
    row = {"found": True, "start_index": "", **record}
    row["primes"] = ";".join(map(str, row.get("primes", [])))
    return code, ",".join(cols) + "\n" + \
        ",".join(str(row[c]) for c in cols) + "\n"


def cmd_census(args):
    census = residue_census(args.set, args.limit, args.q,
                            workers=args.threads)
    if args.format == "csv":
        return EXIT_OK, "residue,count\n" + "".join(
            f"{r},{c}\n" for r, c in census.counts.items())
    return EXIT_OK, _dump({
        "set": census.set_descriptor, "X": census.X, "q": census.q,
        "counts": {str(r): c for r, c in census.counts.items()},
        "phi": census.phi, "coprime_mean": census.coprime_mean,
        "max_ratio": census.max_ratio, "min_ratio": census.min_ratio,
    })


def cmd_maier(args):
    return EXIT_OK, _dump(census_json(*run_construction(
        q=args.q, a=args.a, y=args.y, p0=args.p0, yz=args.yz,
        rows=args.rows, spec=args.set, X=args.x, workers=args.threads)))


def cmd_counts_sq(args):
    return EXIT_OK, _dump({"q": args.q, "z": args.z,
                           "count": count_S_q(args.q, args.z)})


def cmd_counts_psi(args):
    return EXIT_OK, _dump({"x": args.x, "t": args.t,
                           "count": count_psi(args.x, args.t)})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="primestrings",
        description="strings of congruent primes in special sequences")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="progress logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    one_process = "ignored: this command runs in one process"
    cpus = f"(default: the CPUs it may use, at most {MAX_WORKERS})"

    def workers_for(jobs, pool, when):
        return (f"workers N for the {jobs}, this process among them: it "
                f"runs the first and every N-th after it, and a pool of up "
                f"to N - 1 {pool}, started {when}, runs the rest {cpus}")

    def common(p, threads):
        p.add_argument("--threads", type=parse_workers,
                       default=default_workers(), help=threads)
        p.add_argument("--manifest", help="write a run manifest JSON here "
                       "(workers: the --threads bound for strings, census "
                       "and maier, 1 for counts)")

    p = sub.add_parser("strings", help="find the first k-string")
    p.add_argument("--set", type=parse_set, default=SpecialSetSpec.all_primes())
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--limit", type=parse_count, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--all-runs", action="store_true",
                   help="emit every maximal run instead of the first hit")
    common(p, workers_for("scan segments", "threads", "before the first "
                          "of them") + "; without --all-runs, this process "
           "first walks segment 1 alone, in growing pieces, then the rest")
    p.set_defaults(func=cmd_strings)

    p = sub.add_parser("census", help="residue census of set-primes")
    p.add_argument("--set", type=parse_set, default=SpecialSetSpec.all_primes())
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--limit", type=parse_count, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p, workers_for("scan segments", "threads",
                          "before the first segment") + "; a --set all "
           "census that Lucy's programme counts runs in this process alone")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("maier", help="run a Maier-matrix construction")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--y", type=parse_count, default=None)
    p.add_argument("--p0", type=int, default=None)
    p.add_argument("--yz", type=parse_count, default=None)
    p.add_argument("--rows", type=parse_count, default=1000)
    p.add_argument("--x", type=parse_count, default=10 ** 8,
                   help="scale X used for default parameters and bounds")
    p.add_argument("--set", type=parse_set, default=SpecialSetSpec.all_primes())
    common(p, f"workers N for the rows, split into up to N blocks, this "
              f"process among them: it runs the first block, and a child "
              f"forked before it runs each other block (all of them here "
              f"where os.fork is missing) {cpus}")
    p.set_defaults(func=cmd_maier)

    p = sub.add_parser("counts", help="counting functions")
    csub = p.add_subparsers(dest="which", required=True)
    ps = csub.add_parser("sq", help="products of primes = 1 mod q")
    ps.add_argument("--q", type=int, required=True)
    ps.add_argument("--z", type=parse_count, required=True)
    common(ps, one_process)
    ps.set_defaults(func=cmd_counts_sq)
    pp = csub.add_parser("psi", help="t-smooth numbers up to x")
    pp.add_argument("--x", type=parse_count, required=True)
    pp.add_argument("--t", type=parse_finite, required=True)
    common(pp, one_process)
    pp.set_defaults(func=cmd_counts_psi)

    return parser


def _one_line_warning(show):
    """A warnings.showwarning that prints a package warning as one
    stderr line, "warning: <message>", and passes others to show."""
    def one_line(message, category, *rest, **kwargs):
        if issubclass(category, PrimestringsWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *rest, **kwargs)
    return one_line


def _exit_on_sigterm(signum, frame):
    """Leave by SystemExit, which unwinds the command: the Maier census
    kills and reaps its forked row blocks on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s")
    t0 = time.monotonic()
    # signal handlers are set only in the main thread
    own = threading.current_thread() is threading.main_thread()
    if own:
        previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _one_line_warning(warnings.showwarning)
            code, text = args.func(args)
            _emit(args, text, argv, t0,
                  1 if args.command == "counts" else args.threads)
            return code
    except (PrimestringsError, PrimestringsWarning, ValueError,
            OverflowError, OSError) as exc:
        # a package warning is raised here only under -W error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if own:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
