"""Every call the benchmark makes into the package still parses and binds.

perfbench/bench.py drives the package through CLI argv lists and through
special.special_primes(spec, lo, hi, workers=1). A dropped option or
keyword would only surface as failed ops in a benchmark run. The
workload generator is read and executed here without importing it as a
module, so nothing is written under perfbench/.
"""

import inspect
import pathlib
import sys
import types

import pytest

from primestrings import cli, special

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"


def _bench(monkeypatch):
    bench = types.ModuleType("bench")
    bench.__file__ = str(BENCH)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, bench.__name__, bench)
    exec(compile(BENCH.read_text(), str(BENCH), "exec"), bench.__dict__)
    return bench


@pytest.mark.parametrize("workload", ["scan", "high"])
def test_every_benchmark_op_parses_and_binds(workload, monkeypatch):
    bench = _bench(monkeypatch)
    [ops] = bench.generate(workload, bench.DEFAULT_SEED, 1,
                           bench.WORKERS[workload])
    assert ops
    parser = cli.build_parser()
    signature = inspect.signature(special.special_primes)
    for op in ops:
        if op.argv is not None:
            try:
                parser.parse_args(op.argv)
            except SystemExit:
                pytest.fail(f"the CLI rejects benchmark argv {op.argv}")
        else:
            desc, lo, hi = op.window
            signature.bind(cli.parse_set(desc), lo, hi, workers=1)
