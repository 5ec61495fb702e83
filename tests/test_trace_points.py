"""Every function the benchmark tracer wraps still exists, and is reached.

perfbench/tracer.py replaces package functions by name; a renamed or
deleted one would only surface when a traced benchmark run fails, and
one its callers bypass would only show as a layer that records no
spans. The tracer is read and executed here without importing it as a
module, so nothing is written under perfbench/.
"""

import pathlib
import types

import primestrings
import primestrings.cli  # noqa: F401  (wrap_points reads primestrings.cli)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrap_points():
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    return tracer.wrap_points(primestrings)


def test_every_wrap_point_is_callable():
    points = _wrap_points()
    assert points
    for owner, attr, span, _hook in points:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)


def _counting(calls, attr, real):
    def spy(*args, **kwargs):
        calls[attr] += 1
        return real(*args, **kwargs)
    return spy


def test_every_maier_wrap_point_is_reached(monkeypatch, capsys):
    # one small construction over a Beatty set calls every Maier layer
    # the tracer wraps, so none of them reads zero in a traced run
    calls = {}
    for owner, attr, _span, _hook in _wrap_points():
        if owner is primestrings.maier:
            calls[attr] = 0
            monkeypatch.setattr(owner, attr,
                                _counting(calls, attr, getattr(owner, attr)))
    assert "build_Q" in calls
    code = primestrings.cli.main(
        ["maier", "--q", "5", "--a", "4", "--y", "20", "--yz", "200",
         "--rows", "2", "--set", "beatty:pi", "--threads", "1"])
    assert code == 0 and capsys.readouterr().out
    assert [attr for attr, n in calls.items() if not n] == []


def test_counts_reach_their_wrap_points(monkeypatch, capsys):
    # counts sq and counts psi call count_S_q and count_psi through
    # cli, where the tracer wraps them
    calls = {}
    for owner, attr, _span, _hook in _wrap_points():
        if owner is primestrings.cli and attr.startswith("count_"):
            calls[attr] = 0
            monkeypatch.setattr(owner, attr,
                                _counting(calls, attr, getattr(owner, attr)))
    assert sorted(calls) == ["count_S_q", "count_psi"]
    for argv, attr in ((["counts", "sq", "--q", "3", "--z", "1000"],
                        "count_S_q"),
                       (["counts", "psi", "--x", "1000", "--t", "20"],
                        "count_psi")):
        assert primestrings.cli.main(argv) == 0 and capsys.readouterr().out
        assert calls.pop(attr) == 1
