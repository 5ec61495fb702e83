"""Command line front end: subcommands, formats, exit codes, manifests."""

import hashlib
import json
import subprocess
import sys

import pytest

import _oracles
from primestrings import __version__, search
from primestrings.cli import main
from primestrings.sieve import MAX_CENSUS_Q

GAMMA_40 = "0.5772156649015328606065120900824024310421"


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------- strings


def test_strings_json(capsys):
    code, out, _ = run_cli(["strings", "--set", "beatty:pi", "--k", "2",
                            "--q", "3", "--a", "1", "--limit", "100",
                            "--threads", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc.pop("elapsed_ms") >= 0
    assert doc == {"set": "beatty:pi", "k": 2, "q": 3, "a": 1, "limit": 100,
                   "start_index": 1, "primes": [31, 37],
                   "first_occurrence": True}


def test_strings_csv(capsys):
    code, out, _ = run_cli(["strings", "--set", "beatty:pi", "--k", "2",
                            "--q", "3", "--a", "1", "--limit", "100",
                            "--threads", "1", "--format", "csv"], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == "set,k,q,a,limit,found,start_index,primes,elapsed_ms"
    fields = row.split(",")
    assert fields[:8] == ["beatty:pi", "2", "3", "1", "100", "True", "1",
                          "31;37"]
    assert int(fields[8]) >= 0


def test_strings_not_found_exits_3(capsys):
    code, out, _ = run_cli(["strings", "--k", "6", "--q", "7", "--a", "5",
                            "--limit", "1000", "--threads", "1"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["found"] is False
    assert set(doc) == {"set", "k", "q", "a", "limit", "found", "elapsed_ms"}


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
    ["nonsense"],
    ["cache", "path"],                                     # no such command
])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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


def test_manifest_on_counts(tmp_path, capsys):
    m = tmp_path / "m.json"
    code, out, _ = run_cli(["counts", "sq", "--q", "4", "--z", "30",
                            "--threads", "2", "--manifest", str(m)], capsys)
    assert code == 0
    doc = json.loads(m.read_text())
    assert doc["result_digest"] == hashlib.sha256(out.encode()).hexdigest()
    # counts runs in one process whatever --threads says
    assert doc["workers"] == 1


# ------------------------------------------------------------- version


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.strip() == __version__


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "primestrings",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__
