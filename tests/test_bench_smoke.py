"""One op of every benchmark kind, on the inputs of three bench seeds, run
through its oracle in this process.

A program change that breaks a call or an oracle in ``bench/workloads.py``
fails here, in the ordinary test run, and not only in the benchmark.  The
test reads ``bench/`` and writes nothing there.
"""

import sys
import types
from pathlib import Path

import pytest

from definetti import operators, reductions, repetition, separability, suites

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_saved = sys.dont_write_bytecode, list(sys.path)
sys.dont_write_bytecode = True
sys.path.insert(0, str(_BENCH))
try:
    import workloads
finally:
    sys.dont_write_bytecode, sys.path[:] = _saved

LIB = types.SimpleNamespace(
    operators=operators, reductions=reductions, repetition=repetition, separability=separability, suites=suites
)


def _kinds():
    """The first op of each kind name, with the workload it comes from."""
    seen = {}
    for wl in workloads.WORKLOADS.values():
        for kind in wl.cycle:
            seen.setdefault(kind.kind, (wl.name, kind))
    return sorted(seen.items())


@pytest.mark.parametrize("workload, kind", [v for _, v in _kinds()], ids=[k for k, _ in _kinds()])
def test_bench_kind_passes_its_oracle(workload, kind):
    for seed in (0, 1, 2):
        inp = kind.prepare(workloads.stream(seed, "bench", workload, 0), LIB)
        kind.check(inp, kind.call(LIB, inp))
