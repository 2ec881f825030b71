"""Outside-in tracer for the benchmark's traced run.

The tracer changes no file of the program.  It replaces, for the life of the
process, every public (not underscore-prefixed) function defined in a
``definetti`` layer module by a
wrapper that records a span, under every name that binds it in any
``definetti`` module (``reductions.sym_projector`` and
``separability.b_side_twirl`` are module-local bindings of ``operators``
functions).  It also wraps the numpy kernels the program calls
(``np.linalg.eigh``, ``np.linalg.eigvalsh``, ``np.einsum``) and the
``__post_init__`` validators of ``HermitianOperator`` and ``DensityMatrix``.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory, in flat arrays, and :meth:`Tracer.save` writes them
when the run ends.  Numpy calls count only while a program span is open, so
the benchmark's own numpy work (input generation, oracles) is not counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("operators", "measures", "reductions", "separability", "repetition", "suites")
ROOT = "bench.op"

# metric group -> span names whose calls and self time it sums
GROUPS = {
    "operators.construct": ("operators.construct",),
    "operators.sym_projector": ("operators.sym_projector",),
    "operators.twirl": ("operators.permutation_twirl", "operators.b_side_twirl"),
    "operators.partial_trace": ("operators.partial_trace", "operators.partial_trace_vector"),
    "operators.channel": (
        "operators.apply_channel",
        "operators.apply_channel_to_operator",
        "operators.channel_on_factors",
    ),
    "operators.stream": ("operators.stream",),
    "operators.eig": ("operators.eig_hermitian", "operators.min_eigenvalue"),
    "numpy.eigh": ("numpy.eigh",),
    "numpy.eigvalsh": ("numpy.eigvalsh",),
    "numpy.einsum": ("numpy.einsum",),
    "measures.fidelity": ("measures.fidelity",),
    "measures.entropy": (
        "measures.entropy",
        "measures.relative_entropy",
        "measures.mutual_information",
        "measures.conditional_mutual_information",
    ),
    "reductions.constrained_moment": ("reductions.constrained_moment",),
    "separability.hsep_seesaw": ("separability.hsep_seesaw",),
    "separability.hqext": ("separability.hqext",),
    "repetition.conditioning": ("repetition.recursive_conditioning_demo",),
    "repetition.measurement_on_pairs": ("repetition.measurement_on_pairs",),
}


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[int, int] = defaultdict(int)
        self.self_s: dict[int, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, time covered by children]
        self.op = -1
        self._root = self._name_id(ROOT)
        self._t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(time.perf_counter() - self._t0)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])

    def exit(self) -> None:
        end = time.perf_counter() - self._t0
        idx, covered = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.self_s[nid] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def begin_op(self, i: int) -> None:
        """Open the root span of benchmark operation ``i``; close it with :meth:`exit`."""
        self.op = i
        self.enter(self._root)

    def in_program(self) -> bool:
        return bool(self._stack) and self.span_name[self._stack[-1][0]] != self._root

    # -- installation --------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None, error_counter=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if error_counter:
                    tracer.counters[error_counter] += 1
                raise
            finally:
                tracer.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _numpy_wrapper(self, name, fn):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.in_program():
                return fn(*args, **kwargs)
            tracer.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def install(self) -> None:
        """Wrap the program's public functions, validators and numpy kernels
        for the rest of the process."""
        from definetti import operators, separability

        hooks = self._hooks()
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"definetti.{layer}"]
            for attr, fn in list(vars(module).items()):
                if not attr.startswith("_") and isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self._span_wrapper(name, fn, **hooks.get(name, {}))
        # counter-only hook on the shared seesaw oracle: no span, so the
        # callers' self time keeps its time
        oracle = separability._seesaw_product_max

        @functools.wraps(oracle)
        def seesaw_oracle(*args, **kwargs):
            result = oracle(*args, **kwargs)
            self.counters["separability.seesaw.iterations"] += result.iterations
            return result

        wrapped[oracle] = seesaw_oracle
        modules = [m for n, m in sorted(sys.modules.items()) if n == "definetti" or n.startswith("definetti.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(module, attr, wrapped[value])

        for cls in (operators.HermitianOperator, operators.DensityMatrix):
            after = self._construct_hook if cls is operators.HermitianOperator else None
            cls.__post_init__ = self._span_wrapper("operators.construct", cls.__post_init__, after)
        for owner, attr in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np, "einsum")):
            setattr(owner, attr, self._numpy_wrapper(f"numpy.{attr}", getattr(owner, attr)))

    # -- counters --------------------------------------------------------------

    def _construct_hook(self, args, kwargs, result) -> None:
        side = args[0].matrix.shape[0]
        self.counters["operators.construct.bytes"] += 16 * side * side
        self.counters["operators.construct.max_side"] = max(self.counters["operators.construct.max_side"], side)

    def _hooks(self) -> dict:
        c = self.counters

        def check(args, kwargs, result):
            if not result.passed:
                c["reductions.check.failed"] += 1

        def mc(args, kwargs, result):
            from definetti import reductions

            c["reductions.mc.samples"] += _bound_args(reductions.monte_carlo_constrained_moment, args, kwargs)["samples"]

        def converged(args, kwargs, result):
            c["separability.converged.attempts"] += 1
            c["separability.converged.useful"] += bool(result.converged)

        def fw(args, kwargs, result):
            c["separability.fw.iterations"] += result.iterations

        def fw_converged(args, kwargs, result):
            fw(args, kwargs, result)
            converged(args, kwargs, result)

        def gilbert(args, kwargs, result):
            # hs_distance_to_sep reports converged=True unconditionally;
            # stopping before the iteration cap is what shows convergence
            from definetti import separability

            iters = _bound_args(separability.hs_distance_to_sep, args, kwargs)["iters"]
            fw(args, kwargs, result)
            c["separability.converged.attempts"] += 1
            c["separability.converged.useful"] += result.iterations < iters

        def recheck(args, kwargs, result):
            if not result[2]:
                c["separability.recheck.failed"] += 1

        hooks = {
            f"reductions.{name}": {"after": check, "error_counter": "reductions.check.failed"}
            for name in (
                "check_pinching",
                "check_pure_reduction",
                "check_mixed_reduction",
                "check_integrand_domination",
                "check_fixed_point_reduction",
                "check_classical_reduction",
                "check_truncated_ambient_reduction",
            )
        }
        hooks["reductions.monte_carlo_constrained_moment"] = {"after": mc}
        hooks["separability.hsep_seesaw"] = {"after": converged}
        hooks["separability.max_fidelity_to_sep"] = {"after": fw_converged}
        hooks["separability.hs_distance_to_sep"] = {"after": gilbert}
        hooks["separability.measured_fidelity_to_sep_upper"] = {"after": fw}
        hooks["separability.recheck_certificate"] = {"after": recheck, "error_counter": "separability.recheck.failed"}
        return hooks

    # -- results -----------------------------------------------------------------

    def _sum(self, names, table) -> float:
        return sum(table[self._ids[n]] for n in names if n in self._ids)

    def metrics(self) -> dict:
        """Per-layer metrics: ``name -> (value, unit)``."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(s for nid, s in self.self_s.items() if self.names[nid].startswith(layer + ".")),
                "s",
            )
        for group, names in GROUPS.items():
            out[f"{group}.calls"] = (self._sum(names, self.calls), "count")
            out[f"{group}.self_s"] = (self._sum(names, self.self_s), "s")
        c = self.counters
        out["operators.construct.max_side"] = (int(c["operators.construct.max_side"]), "side")
        out["operators.construct.bytes"] = (int(c["operators.construct.bytes"]), "bytes")
        checks = [n for n in self.names if n.startswith("reductions.check_")]
        out["reductions.check.calls"] = (self._sum(checks, self.calls), "count")
        out["reductions.check.failed"] = (int(c["reductions.check.failed"]), "count")
        out["reductions.mc.samples"] = (int(c["reductions.mc.samples"]), "count")
        out["reductions.mc.self_s"] = (self._sum(["reductions.monte_carlo_constrained_moment"], self.self_s), "s")
        out["separability.seesaw.iterations"] = (int(c["separability.seesaw.iterations"]), "count")
        out["separability.fw.iterations"] = (int(c["separability.fw.iterations"]), "count")
        attempts = c["separability.converged.attempts"]
        out["separability.converged_frac"] = (c["separability.converged.useful"] / attempts if attempts else 0.0, "ratio")
        out["separability.recheck.calls"] = (self._sum(["separability.recheck_certificate"], self.calls), "count")
        out["separability.recheck.failed"] = (int(c["separability.recheck.failed"]), "count")
        root = np.frombuffer(self.span_name, dtype=np.int32) == self._root
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        out["trace.ops_s"] = (float(dur[root].sum()), "s")
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
        )
