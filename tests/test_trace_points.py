"""Every function the benchmark tracer wraps still exists.

perfbench/tracer.py replaces package functions by name; a renamed or
deleted one would only surface when a traced benchmark run fails. The
tracer is read and executed here without importing it as a module, so
nothing is written under perfbench/.
"""

import pathlib
import types

import primestrings
import primestrings.cli  # noqa: F401  (wrap_points reads primestrings.cli)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrap_point_is_callable():
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    points = tracer.wrap_points(primestrings)
    assert points
    for owner, attr, span, _hook in points:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)
