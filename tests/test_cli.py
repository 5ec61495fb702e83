"""Command line front end: subcommands, formats, exit codes, manifests."""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from conftest import needs_fork
from primestrings import __version__, maier, search
from primestrings.cli import (_CHUNK_ROWS, _one_line_warning, _rows_text,
                              build_parser, main, parse_count, parse_set)
from primestrings.errors import EmptyProductWarning
from primestrings.search import MAX_CENSUS_Q, MAX_WORKERS
from primestrings.sieve import MAX_SCAN_SPAN, PROGRESS_EVERY

GAMMA_40 = "0.5772156649015328606065120900824024310421"


def assert_same_text(got, want):
    """got == want; on a mismatch, show where the texts part, not the
    diff pytest would build of a whole multi-megabyte text."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts part at offset {i} of {len(got)} and "
                    f"{len(want)}: got {got[i - 40:i + 40]!r}, want "
                    f"{want[i - 40:i + 40]!r}")


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_python(args):
    """Run `python args` in a child that imports src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_module(argv):
    """Run `python -m primestrings argv` in a child that imports src/."""
    return run_python(["-m", "primestrings", *argv])


# ------------------------------------------------------------- strings


def test_strings_json(capsys):
    argv = ["strings", "--set", "beatty:pi", "--k", "2", "--q", "3", "--a",
            "1", "--limit", "100", "--threads", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert run_cli(argv, capsys) == (code, out, "")    # no timer on stdout
    doc = json.loads(out)
    assert doc == {"set": "beatty:pi", "k": 2, "q": 3, "a": 1, "limit": 100,
                   "start_index": 1, "primes": [31, 37],
                   "first_occurrence": True}


def test_strings_csv(capsys):
    argv = ["strings", "--set", "beatty:pi", "--k", "2", "--q", "3", "--a",
            "1", "--limit", "100", "--threads", "1", "--format", "csv"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert run_cli(argv, capsys) == (code, out, "")    # no timer on stdout
    assert out == ("set,k,q,a,limit,found,start_index,primes\n"
                   "beatty:pi,2,3,1,100,True,1,31;37\n")


def test_strings_not_found_exits_3(capsys):
    code, out, _ = run_cli(["strings", "--k", "6", "--q", "7", "--a", "5",
                            "--limit", "1000", "--threads", "1"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["found"] is False
    assert set(doc) == {"set", "k", "q", "a", "limit", "found"}


def test_strings_all_runs(capsys):
    code, out, _ = run_cli(["strings", "--k", "1", "--q", "4", "--a", "1",
                            "--limit", "31", "--all-runs", "--threads", "1"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["runs"] == [{"start": 5, "length": 1},
                           {"start": 13, "length": 2},
                           {"start": 29, "length": 1}]
    assert doc["set"] == "all" and doc["q"] == 4


ALL_RUNS_CASES = [
    ("all", 3, 1, 2, 1),                        # no set-prime, no run
    ("all", 2, 1, 4, 1),                        # one run, at 3
    ("all", 3, 1, 5_000_000, 2),
    ("beatty:pi", 4, 1, 5_000_000, 1),
    ("beatty:pi", 2, 1, 5_000_000, 2),          # long runs across segments
    ("floorprod:loglog", 3, 2, 5_000_000, 2),
]


@pytest.mark.parametrize("desc, qq, a, limit, threads", ALL_RUNS_CASES)
def test_all_runs_bytes_match_json_dumps_of_run_dicts(desc, qq, a, limit,
                                                      threads, capsys):
    code, out, _ = run_cli(["strings", "--set", desc, "--k", "1", "--q",
                            str(qq), "--a", str(a), "--limit", str(limit),
                            "--all-runs", "--threads", str(threads)], capsys)
    assert code == 0
    query = search.StringQuery(spec=parse_set(desc), k=1, q=qq, a=a,
                               limit=limit)
    runs = search.scan_all_strings(query).tolist()
    doc = {"set": desc, "q": qq, "a": a, "limit": limit,
           "runs": [{"start": s, "length": n} for s, n in runs]}
    assert_same_text(out, json.dumps(doc, sort_keys=True) + "\n")


@pytest.mark.parametrize("desc, qq, a, limit, threads", ALL_RUNS_CASES)
def test_all_runs_csv_bytes_match_one_row_per_run(desc, qq, a, limit,
                                                  threads, capsys):
    code, out, _ = run_cli(["strings", "--set", desc, "--k", "1", "--q",
                            str(qq), "--a", str(a), "--limit", str(limit),
                            "--all-runs", "--format", "csv", "--threads",
                            str(threads)], capsys)
    assert code == 0
    query = search.StringQuery(spec=parse_set(desc), k=1, q=qq, a=a,
                               limit=limit)
    runs = search.scan_all_strings(query).tolist()
    assert_same_text(out, "start,length\n" + "".join(f"{s},{n}\n"
                                                   for s, n in runs))


# values that end or start a run of digits, and the largest scan value
EDGE_VALUES = sorted({0, 9, 10, 2 ** 48 - 1} | {10 ** j - 1 for j in range(
    1, 15)} | {10 ** j for j in range(1, 15)})
row_values = st.one_of(st.sampled_from(EDGE_VALUES),
                       st.integers(0, 2 ** 48 - 1))


@settings(database=None, deadline=None, max_examples=30)
@given(n=st.sampled_from([0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS,
                          _CHUNK_ROWS + 1]),
       fill=st.tuples(row_values, row_values),
       cells=st.lists(st.tuples(st.one_of(
           st.sampled_from([_CHUNK_ROWS - 1, _CHUNK_ROWS]),
           st.integers(0, 2 * _CHUNK_ROWS)), row_values, row_values),
           max_size=8))
# the second chunk needs more digits than the first
@example(n=_CHUNK_ROWS + 1, fill=(9, 0), cells=[(_CHUNK_ROWS, 10, 10 ** 14)])
def test_rows_text_matches_percent_d(n, fill, cells):
    # two strided int64 columns, each one value but for a few cells, so
    # that a chunk's widths can differ from its neighbour's
    cols = np.empty((n, 2), np.int64)
    cols[:] = fill
    for i, x, y in cells:
        if n:
            cols[i % n] = x, y
    pieces = list(_rows_text([b"<", cols[:, 0], b",", cols[:, 1], b">\n"]))
    assert len(pieces) == -(-n // _CHUNK_ROWS)
    assert all(piece.count("\n") <= _CHUNK_ROWS for piece in pieces)
    assert_same_text("".join(pieces), "".join("<%d,%d>\n" % (x, y)
                                              for x, y in cols.tolist()))


class WriteSpy(io.StringIO):
    """A stdout that keeps each str written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt, row_mark", [("json", '{"length": '),
                                           ("csv", "\n")])
def test_all_runs_text_is_written_one_chunk_at_a_time(fmt, row_mark,
                                                      monkeypatch):
    spy = WriteSpy()
    monkeypatch.setattr(sys, "stdout", spy)
    assert main(["strings", "--k", "1", "--q", "3", "--a", "1", "--limit",
                 "5e6", "--all-runs", "--format", fmt, "--threads",
                 "2"]) == 0
    rows = [write.count(row_mark) for write in spy.writes]
    assert sum(rows) > 2 * _CHUNK_ROWS + 1
    assert max(rows) <= _CHUNK_ROWS


@pytest.mark.parametrize("desc, fmt, k, limit", [
    ("all", "csv", 5, 31),                      # no run reaches k: header
    ("beatty:pi", "json", 2, 100_000),
    ("beatty:pi", "csv", 1, 100_000),
    ("floorprod:loglog", "csv", 3, 1_000_000),
])
def test_all_runs_keeps_runs_of_length_k_in_the_format_asked(desc, fmt, k,
                                                             limit, capsys):
    code, out, _ = run_cli(["strings", "--set", desc, "--k", str(k), "--q",
                            "4", "--a", "1", "--limit", str(limit),
                            "--all-runs", "--format", fmt, "--threads", "1"],
                           capsys)
    assert code == 0
    query = search.StringQuery(spec=parse_set(desc), k=1, q=4, a=1,
                               limit=limit)
    runs = search.scan_all_strings(query).tolist()
    want = [[s, n] for s, n in runs if n >= k]
    assert (len(want) < len(runs)) == (k > 1)
    if fmt == "csv":
        header, *rows = out.splitlines()
        assert header == "start,length"
        got = [[int(x) for x in row.split(",")] for row in rows]
    else:
        got = [[r["start"], r["length"]] for r in json.loads(out)["runs"]]
    assert got == want


# -------------------------------------------------------------- errors


@pytest.mark.parametrize("argv", [
    ["strings", "--q", "3", "--a", "1", "--limit", "100"],      # no --k
    ["strings", "--set", "nonsense", "--k", "1", "--q", "3",
     "--a", "1", "--limit", "100"],
    ["strings", "--set", "beatty:0.57721", "--k", "1", "--q", "3",
     "--a", "1", "--limit", "100"],                             # too short
    ["strings", "--set", "beatty:" + GAMMA_40, "--k", "1", "--q", "3",
     "--a", "1", "--limit", "100"],                             # slope <= 1
    ["strings", "--set", "floorprod:cosh", "--k", "1", "--q", "3",
     "--a", "1", "--limit", "100"],
    ["strings", "--set", "floorprod:loglog^-1", "--k", "1", "--q", "3",
     "--a", "1", "--limit", "100"],                             # B <= 0
    ["strings", "--set", "floorprod:log^0", "--k", "1", "--q", "3",
     "--a", "1", "--limit", "100"],
    ["strings", "--set", "floorprod:loglog^inf", "--k", "1", "--q", "3",
     "--a", "1", "--limit", "100"],                             # B = inf
    ["census", "--q", "3", "--limit", "inf"],
    ["counts", "sq", "--q", "3", "--z", "1.5"],                 # not integral
    ["counts", "sq", "--q", "3", "--z", "ten"],
    ["counts", "sq", "--q", "3", "--z", "1e400"],               # overflows
    ["counts", "psi", "--x", "100", "--t", "inf"],
    ["counts", "psi", "--x", "100", "--t", "nan"],
    ["census", "--q", "3", "--limit", "100", "--threads", "0"],
    ["census", "--q", "3", "--limit", "100", "--threads", "-1"],
    ["census", "--q", "3", "--limit", "100", "--threads", "abc"],
    ["nonsense"],
    ["cache", "path"],                                     # no such command
])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_parse_count_reads_scientific_notation_exactly():
    # a float would round 1e30 to 1000000000000000019884624838656
    assert parse_count("1e30") == 10 ** 30
    assert parse_count("1.5e3") == 1500
    with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
        parse_count("1.5")


def test_threads_above_the_bound_exit_2_naming_it(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned for a refused --threads")

    for name in ("ThreadPoolExecutor", "_segment_runs", "_segment_census",
                 "_prime_census"):
        monkeypatch.setattr(search, name, no_scan)
    for argv in (["census", "--q", "3", "--limit", "1e8"],
                 ["strings", "--k", "2", "--q", "3", "--a", "1",
                  "--limit", "1e8"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", str(MAX_WORKERS + 1)])
        assert exc.value.code == 2
        assert f"at most {MAX_WORKERS} workers" in capsys.readouterr().err


def test_beatty_slopes_are_compared_with_1_on_their_brackets(capsys):
    argv = ["--k", "2", "--q", "3", "--a", "2", "--limit", "100",
            "--threads", "1"]
    huge = "9" * 400 + "." + "1" * 45               # beyond any float
    code, out, err = run_cli(["strings", "--set", f"beatty:{huge}", *argv],
                             capsys)
    assert code == 3 and err == ""
    assert json.loads(out)["found"] is False
    just_above = "1." + "0" * 19 + "1" + "0" * 40   # 1 + 10^-20, float 1.0
    code, out, _ = run_cli(["strings", "--set", f"beatty:{just_above}",
                            *argv], capsys)
    assert code == 0 and json.loads(out)["primes"] == [23, 29]
    for slope, says in (("1." + "0" * 60, "cannot be told from 1 at 192 bits"),
                        ("0." + "9" * 60, "must exceed 1")):
        with pytest.raises(SystemExit) as exc:
            main(["strings", "--set", f"beatty:{slope}", *argv])
        assert exc.value.code == 2
        assert says in capsys.readouterr().err


@pytest.mark.parametrize("cpus, want", [
    ({0}, 1),
    ({1, 3, 5}, 3),                             # not the host's count
    (set(range(MAX_WORKERS + 8)), MAX_WORKERS),
    (None, 5),                                  # no affinity: cpu_count
])
def test_threads_default_to_the_cpus_this_process_may_use(cpus, want,
                                                          monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
    for argv in (["census", "--q", "3", "--limit", "100"],
                 ["strings", "--k", "2", "--q", "3", "--a", "1",
                  "--limit", "100"]):
        assert build_parser().parse_args(argv).threads == want


def test_domain_errors_exit_4(capsys):
    code, _, err = run_cli(["strings", "--k", "0", "--q", "3", "--a", "1",
                            "--limit", "100", "--threads", "1"], capsys)
    assert code == 4 and "error:" in err


# -------------------------------------------------------------- counts


def test_counts_sq(capsys):
    code, out, _ = run_cli(["counts", "sq", "--q", "4", "--z", "30"], capsys)
    assert code == 0
    assert json.loads(out) == {"count": 6, "q": 4, "z": 30}


def test_counts_sq_scientific_notation(capsys):
    code, out, _ = run_cli(["counts", "sq", "--q", "3", "--z", "1e3"], capsys)
    assert code == 0
    assert json.loads(out)["z"] == 1000


def test_counts_psi(capsys):
    code, out, _ = run_cli(["counts", "psi", "--x", "30", "--t", "5"], capsys)
    assert code == 0
    assert json.loads(out) == {"count": 12, "t": 5.0, "x": 30}


def test_counts_psi_huge_x(capsys):
    code, out, _ = run_cli(["counts", "psi", "--x", "1e300", "--t", "3"],
                           capsys)
    assert code == 0
    assert json.loads(out)["count"] == 997        # 2^0 .. 2^996


def test_counts_sq_names_z_beyond_span(capsys):
    code, out, err = run_cli(["counts", "sq", "--q", "3", "--z", "3e9"],
                             capsys)
    assert code == 4 and out == ""
    assert "error: z 3000000000 must be below MAX_SCAN_SPAN = 2147483648" \
        in err


# -------------------------------------------------------------- census


def test_census_json(capsys):
    code, out, _ = run_cli(["census", "--set", "beatty:pi", "--q", "7",
                            "--limit", "100", "--threads", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"0": 0, "1": 1, "2": 1, "3": 3, "4": 1,
                             "5": 1, "6": 1}
    assert doc["set"] == "beatty:pi" and doc["X"] == 100 and doc["q"] == 7
    assert doc["phi"] == 6
    assert doc["coprime_mean"] == pytest.approx(8 / 6)
    assert doc["max_ratio"] == pytest.approx(3 / (8 / 6))


def test_census_csv(capsys):
    code, out, _ = run_cli(["census", "--set", "beatty:pi", "--q", "7",
                            "--limit", "100", "--threads", "1",
                            "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["residue,count", "0,0", "1,1", "2,1",
                                "3,3", "4,1", "5,1", "6,1"]


@pytest.mark.parametrize("family,B", [("log", 0.001), ("loglog", 0.2)])
def test_census_floorprod_small_power(family, B, capsys):
    code, out, _ = run_cli(["census", "--set", f"floorprod:{family}^{B}",
                            "--q", "3", "--limit", "100", "--threads", "1"],
                           capsys)
    assert code == 0
    want = {str(r): 0 for r in range(3)}
    for m in _oracles.floorprod_values(family, B, 2, 101):
        if _oracles.trial_is_prime(m):
            want[str(m % 3)] += 1
    assert json.loads(out)["counts"] == want


@pytest.mark.parametrize("argv,error", [
    (["census", "--q", "3", "--limit", "-5"], "X must be >= 0"),
    (["census", "--q", "3", "--limit", "3e14"], "MAX_SCAN_HI"),
    (["strings", "--k", "3", "--q", "7", "--a", "5", "--limit", "3e14"],
     "MAX_SCAN_HI"),
])
def test_scan_limit_outside_the_scan_range_exits_4(argv, error, capsys,
                                                   monkeypatch):
    def no_segments(*args):
        raise AssertionError("segments built for a rejected limit")

    monkeypatch.setattr(search, "_segment_bounds", no_segments)
    code, out, err = run_cli(argv + ["--threads", "1"], capsys)
    assert code == 4 and out == ""
    assert error in err


def test_census_modulus_above_cap_exits_4(capsys):
    code, out, err = run_cli(["census", "--q", str(MAX_CENSUS_Q + 1),
                              "--limit", "1e8", "--threads", "1"], capsys)
    assert code == 4 and out == ""
    assert f"census modulus cap {MAX_CENSUS_Q}" in err


# --------------------------------------------------------------- maier


def test_maier_subcommand(capsys):
    code, out, _ = run_cli(["maier", "--q", "5", "--a", "4", "--yz", "30",
                            "--rows", "1", "--threads", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 5 and doc["a"] == 4
    assert doc["Q"] == "70"              # decimal string, exact at any size
    assert doc["case"] == "A_minus"
    assert (doc["y"], doc["p0"], doc["z"]) == (10, 3, 3)
    assert doc["interval_start"] == "41" and doc["interval_length"] == 30
    assert (doc["S"], doc["T"]) == (2, 8)
    assert doc["rows"] == 1 and len(doc["per_row"]) == 1
    assert doc["primality"] == "deterministic"
    assert set(doc["bounds"]) >= {"loglog_X", "phi_q", "case", "bound_A_pm",
                                  "bound_other", "bound", "case1_proxy"}


def test_maier_non_a_pm_needs_y_16(capsys):
    # 3 mod 7 is neither 1 nor -1; the default --x 1e8 picks y = 10
    code, _, err = run_cli(["maier", "--q", "7", "--a", "3",
                            "--threads", "1"], capsys)
    assert code == 4 and "--y 16" in err
    code, out, _ = run_cli(["maier", "--q", "7", "--a", "3", "--y", "16",
                            "--rows", "20", "--threads", "1"], capsys)
    assert code == 0
    assert json.loads(out)["case"] == "other"


def test_maier_non_a_pm_refusal_names_yz(capsys):
    # outside A±, Q's size is set by the primes = a (mod q) up to yz/t,
    # so at the least y = 16 only a smaller --yz helps; no row count
    # brings an entry >= Q under 2^256
    code, out, err = run_cli(["maier", "--q", "7", "--a", "3", "--y", "16",
                              "--yz", "2000", "--rows", "1",
                              "--threads", "1"], capsys)
    assert code == 4 and out == ""
    assert err.endswith("2^256); lower --yz, y\n")


def test_maier_refuses_a_q_past_2_256_before_it_is_multiplied_out(
        capsys, monkeypatch):
    # each p in P_a is at least 2^(bit_length - 1), so those exponents
    # sum to less than log2 Q; at y = 1e7 they pass 256 and Q would
    # have about 10^7 bits
    products, real = [], maier.QProduct

    def spy(**fields):
        products.append(fields["Q"])
        return real(**fields)

    monkeypatch.setattr(maier, "QProduct", spy)
    code, out, err = run_cli(["maier", "--q", "5", "--a", "4", "--y", "1e7",
                              "--yz", "1000", "--rows", "1",
                              "--threads", "1"], capsys)
    assert code == 4 and out == ""
    assert re.fullmatch(r"error: y = 10000000 makes Q at least 2\^\d+, "
                        r"which puts every entry of the matrix beyond the "
                        r"supported primality range \(2\^256\); lower y\n",
                        err)
    assert products == []
    # the spy is live: a Q below 2^256 is multiplied out
    code, _, _ = run_cli(["maier", "--q", "5", "--a", "4", "--y", "20",
                          "--yz", "200", "--rows", "2", "--threads", "1"],
                         capsys)
    assert code == 0 and len(products) == 1


@pytest.mark.parametrize("y, value", [("3e9", 3 * 10 ** 9),
                                      ("1e30", 10 ** 30)])
def test_maier_refuses_a_y_past_the_sieve_naming_it(y, value, capsys,
                                                    monkeypatch):
    # P_a lists the primes up to y, so y must lie below MAX_SCAN_SPAN;
    # the refusal comes before any sieve and prints y's exact digits
    windows = []
    monkeypatch.setattr(maier, "sieve_range",
                        lambda lo, hi: windows.append((lo, hi)))
    code, out, err = run_cli(["maier", "--q", "5", "--a", "4", "--y", y,
                              "--yz", "100", "--rows", "2",
                              "--threads", "1"], capsys)
    assert code == 4 and out == "" and windows == []
    assert err == (f"error: y = {value} must be below MAX_SCAN_SPAN = "
                   f"{MAX_SCAN_SPAN}\n")


def test_maier_q_zero_exits_4(capsys):
    code, out, err = run_cli(["maier", "--q", "0", "--a", "1",
                              "--threads", "1"], capsys)
    assert code == 4 and out == ""
    assert "q must be >= 1" in err


def test_maier_density_model_follows_the_set(capsys):
    # floor products are sparser than the primes: F(X) > 1 raises z
    zs = {}
    for desc in ("all", "floorprod:loglog"):
        code, out, _ = run_cli(["maier", "--q", "5", "--a", "4", "--y", "16",
                                "--rows", "3", "--set", desc,
                                "--threads", "1"], capsys)
        assert code == 0
        zs[desc] = json.loads(out)["z"]
    assert zs == {"all": 8, "floorprod:loglog": 24}


def test_maier_floorprod_above_membership_cap_exits_4(capsys):
    # Q is about 2e16, so the matrix entries pass 2^48
    code, _, err = run_cli(["maier", "--q", "5", "--a", "4", "--y", "60",
                            "--yz", "200", "--rows", "3",
                            "--set", "floorprod:loglog"], capsys)
    assert code == 4
    assert "floor-product membership" in err and str(2 ** 48) in err


def test_maier_floorprod_refused_before_any_row(capsys, monkeypatch):
    # Q = 25297721988, so 11200 rows put the last entries above 2^48: the
    # census stops before its first row, not at the first entry there
    tested = []
    real_is_prime = maier.is_prime
    monkeypatch.setattr(maier, "is_prime",
                        lambda n: tested.append(n) or real_is_prime(n))
    code, out, err = run_cli(["maier", "--q", "4", "--a", "3", "--y", "47",
                              "--yz", "1470", "--rows", "11200",
                              "--set", "floorprod:loglog",
                              "--threads", "1"], capsys)
    assert code == 4 and out == ""
    assert f"below 2^48 = {2 ** 48}; lower y or rows" in err
    # only the parameter choice (p0 above log y) reached is_prime
    assert tested and max(tested) < 100


@pytest.mark.parametrize("desc", ["floorprod:loglog^262144",
                                  "floorprod:log^1500",
                                  "floorprod:loglog^5000"])
def test_floorprod_at_a_huge_power_gives_empty_results(desc, capsys):
    # every f(n) lies below 2 or beyond 2^48, so no member is below the
    # scan cap: each command succeeds with nothing found, and neither an
    # OverflowError nor a numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(["census", "--set", desc, "--q", "3",
                                "--limit", "1e6", "--threads", "1"], capsys)
        assert code == 0
        assert json.loads(out)["counts"] == {"0": 0, "1": 0, "2": 0}
        strings = ["strings", "--set", desc, "--k", "1", "--q", "3", "--a",
                   "1", "--limit", "1e5", "--threads", "1"]
        code, out, _ = run_cli(strings, capsys)
        assert code == 3 and json.loads(out)["found"] is False
        code, out, _ = run_cli(strings + ["--all-runs"], capsys)
        assert code == 0 and json.loads(out)["runs"] == []
        code, out, _ = run_cli(["maier", "--q", "5", "--a", "4", "--y", "10",
                                "--yz", "100", "--rows", "3", "--set", desc,
                                "--threads", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["good"], doc["bad"]) == (0, 0)


@pytest.mark.parametrize("desc, least", [("loglog^1e-300", "2.7e-38"),
                                         ("log^1e-45", "1.1e-39")])
def test_floorprod_power_too_small_to_decide_is_a_usage_error(desc, least,
                                                              capsys):
    strings = ["strings", "--k", "2", "--q", "3", "--a", "1", "--limit",
               "1000", "--threads", "1", "--set"]
    with pytest.raises(SystemExit) as exc:
        main(strings + [f"floorprod:{desc}"])
    assert exc.value.code == 2
    family, _, power = desc.partition("^")
    assert (f"floor products over {family} need a power B >= {least}, got "
            f"{power}: below it n * g(n) cannot be told from the integer n "
            f"at 50 digits") in capsys.readouterr().err
    code, out, _ = run_cli(strings + [f"floorprod:{family}^{least}"], capsys)
    assert code == 0 and json.loads(out)["primes"] == [31, 37]


def test_default_yz_beyond_the_cap_names_its_origin(capsys):
    code, out, err = run_cli(["maier", "--q", "5", "--a", "4", "--rows", "3",
                              "--set", "floorprod:log^1500", "--threads",
                              "1"], capsys)
    assert code == 4 and out == ""
    assert err == (
        "error: the default yz = y z = 10 * 48073660663459716530176 exceeds "
        "100000000: z = ceil(max(F(X)^3, D^3)), where F(X) = 3.6361e+07 is "
        "how much sparser floorprod:log^1500 is than the primes at "
        "X = 100000000; give --yz, or a smaller --x\n")


@pytest.mark.parametrize("q, a", [(1, 0), (2, 1)])
def test_package_warning_is_one_stderr_line(q, a, capsys):
    # build_Q still warns (test_build_q_empty_product_warns); the CLI
    # prints the warning as one line and exits as before
    code, out, err = run_cli(["maier", "--q", str(q), "--a", str(a),
                              "--rows", "2", "--threads", "1"], capsys)
    assert code == 0 and json.loads(out)["Q"] == str(q)
    assert err == f"warning: P_a is empty for a={a}, q={q}, y=10; Q = q\n"


def test_package_warning_raised_as_an_error_exits_4_in_one_line(capsys):
    # under python -W error the warning is an exception: one error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["maier", "--q", "1", "--a", "0", "--rows",
                                  "2", "--threads", "1"], capsys)
    assert code == 4 and out == ""
    assert err == "error: P_a is empty for a=0, q=1, y=10; Q = q\n"


def test_other_warnings_reach_the_original_showwarning(capsys):
    shown = []
    one_line = _one_line_warning(lambda *args: shown.append(args))
    one_line("not ours", RuntimeWarning, "f.py", 3)
    assert shown == [("not ours", RuntimeWarning, "f.py", 3)]
    one_line("ours", EmptyProductWarning, "f.py", 3)
    assert shown == [("not ours", RuntimeWarning, "f.py", 3)]
    assert capsys.readouterr().err == "warning: ours\n"


@pytest.mark.parametrize("desc, loads", [("beatty:pi", False),
                                         ("floorprod:loglog", True)])
def test_mpmath_is_loaded_only_for_floor_products(desc, loads):
    # a fresh interpreter: only a floor-product floor imports mpmath
    code = ("import sys; import primestrings.cli as cli; "
            "before = 'mpmath' in sys.modules; "
            f"cli.main(['census', '--set', '{desc}', '--q', '3', "
            "'--limit', '1e5', '--threads', '1']); "
            "print(before, 'mpmath' in sys.modules)")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"False {loads}"


def test_cli_import_and_a_pooled_census_load_no_multiprocessing():
    # the Maier row census forks its children itself, and scans use
    # threads: concurrent.futures.process and multiprocessing stay out
    code = ("import sys; import primestrings.cli as cli; "
            "mods = ('multiprocessing', 'concurrent.futures.process'); "
            "before = [m in sys.modules for m in mods]; "
            "cli.main(['maier', '--q', '5', '--a', '4', '--y', '20', "
            "'--yz', '200', '--rows', '4', '--threads', '2']); "
            "print(before, [m in sys.modules for m in mods])")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False] [False, False]"


def test_maier_without_os_fork_runs_every_block_in_this_process(
        capsys, monkeypatch):
    # where os.fork is missing the census runs its blocks in the caller,
    # and the output does not depend on the worker count
    argv = ["maier", "--q", "5", "--a", "4", "--y", "20", "--yz", "200",
            "--rows", "4", "--threads"]
    want = run_cli(argv + ["1"], capsys)
    assert want[0] == 0 and want[2] == ""
    monkeypatch.delattr(os, "fork", raising=False)
    assert run_cli(argv + ["2"], capsys) == want


@needs_fork
def test_a_forked_worker_that_dies_exits_4(capsys, monkeypatch):
    # a child that ends without a result names its exit status
    real = maier._row_block

    def dying(matrix, r0, r1):
        if r0 > 1:
            os._exit(3)
        return real(matrix, r0, r1)

    monkeypatch.setattr(maier, "_row_block", dying)
    code, out, err = run_cli(["maier", "--q", "5", "--a", "4", "--y", "20",
                              "--yz", "200", "--rows", "4", "--threads",
                              "2"], capsys)
    assert code == 4 and out == ""
    assert err == ("error: a forked worker ended with exit status 3 and "
                   "no result\n")


# ------------------------------------------------------------ manifest


def test_manifest_reproducible(tmp_path, capsys):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    argv = ["census", "--set", "beatty:pi", "--q", "7", "--limit", "100",
            "--threads", "1"]
    code, out1, _ = run_cli(argv + ["--manifest", str(m1)], capsys)
    assert code == 0
    code, out2, _ = run_cli(argv + ["--manifest", str(m2)], capsys)
    assert code == 0
    assert out1 == out2

    doc1 = json.loads(m1.read_text())
    doc2 = json.loads(m2.read_text())
    assert set(doc1) == {"command_line", "config_hash", "tool_version",
                         "wall_time_ms", "workers", "result_digest"}
    assert doc1["tool_version"] == __version__
    assert doc1["workers"] == 1
    assert doc1["command_line"] == " ".join(argv + ["--manifest", str(m1)])
    assert doc1["result_digest"] == hashlib.sha256(out1.encode()).hexdigest()
    assert doc1["result_digest"] == doc2["result_digest"]
    # manifest destination is not part of the configuration identity
    assert doc1["config_hash"] == doc2["config_hash"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_manifest_digest_of_all_runs_is_the_digest_of_stdout(fmt, tmp_path,
                                                             capsys):
    # the text goes out in more than two chunks; the digest covers them all
    m = tmp_path / "m.json"
    code, out, _ = run_cli(["strings", "--k", "1", "--q", "3", "--a", "1",
                            "--limit", "5e6", "--all-runs", "--format", fmt,
                            "--threads", "2", "--manifest", str(m)], capsys)
    assert code == 0 and out.count("\n" if fmt == "csv" else "{") > \
        2 * _CHUNK_ROWS
    doc = json.loads(m.read_text())
    assert doc["result_digest"] == hashlib.sha256(out.encode()).hexdigest()


def test_manifest_on_counts(tmp_path, capsys):
    m = tmp_path / "m.json"
    code, out, _ = run_cli(["counts", "sq", "--q", "4", "--z", "30",
                            "--threads", "2", "--manifest", str(m)], capsys)
    assert code == 0
    doc = json.loads(m.read_text())
    assert doc["result_digest"] == hashlib.sha256(out.encode()).hexdigest()
    # counts runs in one process whatever --threads says
    assert doc["workers"] == 1


def test_manifest_on_maier_records_the_threads_bound(tmp_path, capsys):
    m = tmp_path / "m.json"
    argv = ["maier", "--q", "5", "--a", "4", "--yz", "30", "--rows", "5"]
    code, serial, _ = run_cli(argv + ["--threads", "1"], capsys)
    assert code == 0
    code, out, _ = run_cli(argv + ["--threads", "2", "--manifest", str(m)],
                           capsys)
    assert code == 0 and out == serial
    assert json.loads(m.read_text())["workers"] == 2


def test_manifest_on_an_all_census_records_the_threads_bound(
        tmp_path, capsys, monkeypatch):
    # Lucy's programme counts it in this thread, and starts no pool
    monkeypatch.setattr(search, "ThreadPoolExecutor", None)
    m = tmp_path / "m.json"
    argv = ["census", "--q", "7", "--limit", "1e7"]
    code, serial, _ = run_cli(argv + ["--threads", "1"], capsys)
    assert code == 0
    code, out, _ = run_cli(argv + ["--threads", "2", "--manifest", str(m)],
                           capsys)
    assert code == 0 and out == serial
    assert json.loads(out)["counts"]["0"] == 1
    assert json.loads(m.read_text())["workers"] == 2


def test_manifest_into_a_missing_directory_exits_4_after_the_result(
        tmp_path, capsys):
    argv = ["census", "--set", "beatty:pi", "--q", "7", "--limit", "100",
            "--threads", "1"]
    code, want, _ = run_cli(argv, capsys)
    assert code == 0
    code, out, err = run_cli(
        argv + ["--manifest", str(tmp_path / "missing" / "m.json")], capsys)
    assert code == 4 and out == want
    assert err.startswith("error: ") and err.count("\n") == 1


# ------------------------------------------------------------- version


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.strip() == __version__


def test_module_entry_point():
    proc = run_module(["--version"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


def test_strings_verbose_logs_the_scan_time():
    # the scan's time goes to stderr under --verbose, never to stdout
    for extra in ([], ["--all-runs"]):
        proc = run_module(["--verbose", "strings", "--k", "2", "--q", "4",
                           "--a", "1", "--limit", "1000", "--threads", "1",
                           *extra])
        assert proc.returncode == 0 and "elapsed" not in proc.stdout
        line = proc.stderr.splitlines()[-1]
        assert re.fullmatch(r"primestrings\.cli: scan: \d+ ms", line), line


def test_census_verbose_logs_progress():
    # a child process: under pytest the root logger already has handlers,
    # so main's logging.basicConfig would not route INFO to stderr
    limit = PROGRESS_EVERY + 10 ** 6
    proc = run_module(["--verbose", "census", "--set", "beatty:pi", "--q",
                       "3", "--limit", str(limit), "--threads", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"] == {"0": 1, "1": 115_395,
                                                 "2": 115_342}
    assert (f"primestrings.search: scanned {limit} candidates, "
            f"230738 set-primes") in proc.stderr.splitlines()
    # the primes are counted by Lucy's programme, in one line and no scan
    proc = run_module(["--verbose", "census", "--q", "3", "--limit",
                       str(limit), "--threads", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"] == {"0": 1, "1": 363_181,
                                                 "2": 363_335}
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(rf"primestrings\.search: counted primes <= {limit} "
                        r"mod 3 by Lucy's programme and P2 in \d+\.\d{3} s",
                        line), line
