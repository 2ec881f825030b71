"""Named verification suites producing uniform report records.

Each record is a plain dict with the fixed schema ``{suite, anchor, params,
value, gap, bound, tolerance, pass, seed}`` (unused entries null), so suites
serialize deterministically and the command line front end stays thin.
``pass`` is null for records that report a value without deciding anything.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from . import reductions, repetition, separability
from .operators import (
    HermitianOperator,
    hermitian,
    induced_mixed_state,
    random_contraction,
    stream,
    symmetric_state_vector,
)

__all__ = [
    "record",
    "pinching_suite",
    "definetti_suite",
    "classical_suite",
    "truncated_suite",
    "hsep_records",
    "qext_records",
    "repetition_bounds_records",
    "bound_sweep_rows",
    "conditioning_suite",
    "framework_suite",
    "all_passed",
]


def record(
    suite: str,
    anchor: str,
    params: dict,
    seed,
    value=None,
    gap=None,
    bound=None,
    tolerance=None,
    passed=None,
) -> dict:
    return {
        "suite": suite,
        "anchor": anchor,
        "params": params,
        "seed": seed,
        "value": value,
        "gap": gap,
        "bound": bound,
        "tolerance": tolerance,
        "pass": passed,
    }


def all_passed(records) -> bool:
    return all(r["pass"] is not False for r in records)


def pinching_suite(
    seeds: int = 100, seed: int = 0, d_max: int = 4, r_max: int = 4, tol: float = 1e-9
):
    """Random-instance check of the cross-term pinching inequality."""

    def one(s: int) -> dict:
        rng = stream(seed, "pinching", s)
        d = int(rng.integers(2, d_max + 1))
        r = int(rng.integers(1, r_max + 1))
        ops = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(r)
        ]
        rho = induced_mixed_state((d,), seed, "pinching-state", s)
        res = reductions.check_pinching(ops, rho, tol=tol)
        return record(
            "verify-pinching",
            "pinching-cross-term-bound",
            {"d": d, "r": r},
            seed + s,
            gap=res.gap_min_eig,
            tolerance=tol,
            passed=res.passed,
        )

    return [one(s) for s in range(seeds)]


def definetti_suite(
    n: int = 2,
    d: int = 2,
    seeds: int = 100,
    seed: int = 0,
    mixed: bool = False,
    tol: float = 1e-9,
):
    """Seeded PSD checks of the pure or mixed constrained reduction."""

    def one(s: int) -> dict:
        inst = seed + s
        if mixed:
            res = reductions.check_mixed_reduction(n, d, seed=inst, tol=tol)
            anchor = "mixed-state-constrained-reduction"
            params = dict(res.params)
            params["fidelity_domination_min_margin"] = res.extras[
                "fidelity_domination_min_margin"
            ]
        else:
            theta = symmetric_state_vector(n, d, inst, "suite")
            res = reductions.check_pure_reduction(theta, n, d, tol=tol)
            anchor = "pure-state-constrained-reduction"
            params = dict(res.params)
        return record(
            "verify-definetti",
            anchor,
            params,
            inst,
            gap=res.gap_min_eig,
            bound=res.prefactor,
            tolerance=tol,
            passed=res.passed,
        )

    return [one(s) for s in range(seeds)]


def classical_suite(d: int = 2, n: int = 3, seed: int = 0, tol: float = 1e-12):
    """Pointwise reduction for the three canonical symmetric distributions."""
    size = d**n
    uniform = np.full(size, 1.0 / size)
    point = np.zeros(size)
    point[0] = 1.0
    mixed_string = np.zeros(size)
    base = [0] * (n - 1) + [1 % d if d > 1 else 0]
    perms = set(itertools.permutations(base))
    for p in perms:
        idx = 0
        for letter in p:
            idx = idx * d + letter
        mixed_string[idx] = 1.0 / len(perms)
    out = []
    for name, dist in (
        ("uniform", uniform),
        ("point-mass", point),
        ("symmetrized-string", mixed_string),
    ):
        res = reductions.check_classical_reduction(dist, d, n, tol=tol)
        out.append(
            record(
                "verify-classical",
                "classical-pointwise-reduction",
                {"d": d, "n": n, "distribution": name, "prefactor": res.prefactor},
                seed,
                gap=res.min_slack,
                bound=res.printed_prefactor,
                tolerance=tol,
                passed=res.passed,
            )
        )
    return out


def truncated_suite(
    configs=((2, 3, 1, 1), (2, 3, 2, 1)), seeds: int = 5, seed: int = 0, tol: float = 1e-9
):
    """Seeded PSD checks of the truncated-ambient reduction."""
    out = []
    for (d, big_d, n, k) in configs:

        def one(s: int, d=d, big_d=big_d, n=n, k=k) -> dict:
            res = reductions.check_truncated_ambient_reduction(n, k, d, big_d, seed=seed + s, tol=tol)
            return record(
                "verify-truncated",
                "truncated-ambient-reduction",
                res.params,
                seed + s,
                gap=res.gap_min_eig,
                bound=res.prefactor,
                tolerance=tol,
                passed=res.passed,
            )

        out.extend(one(s) for s in range(seeds))
    return out


def hsep_records(
    op: HermitianOperator,
    cut: separability.BipartiteCut,
    restarts: int = 32,
    seed: int = 0,
    q_max: int = 0,
):
    """Seesaw value (plus optional certified interval) for one operator."""
    res = separability.hsep_seesaw(op, cut, restarts=restarts, seed=seed)
    records = [
        record(
            "hsep",
            "separability-support-seesaw",
            {
                "cut_a": list(cut.a_factors),
                "cut_b": list(cut.b_factors),
                "restarts": restarts,
                "iterations": res.iterations,
                "converged": res.converged,
            },
            seed,
            value=res.value,
        )
    ]
    if q_max:
        interval = separability._interval_from_seesaw(op, cut, q_max, res)
        records.append(
            record(
                "hsep",
                "certified-interval",
                {"q_used": interval.q_used, "per_q": {str(k): v for k, v in interval.per_q_upper.items()}},
                seed,
                value=interval.lower,
                bound=interval.upper,
                tolerance=1e-9,
                passed=bool(interval.lower <= interval.upper + 1e-9),
            )
        )
    return records, res


def qext_records(op: HermitianOperator, cut: separability.BipartiteCut, q: int, seed: int = 0):
    res = separability.hqext(op, cut, q)
    return [
        record(
            "qext",
            "extendible-support-eigenvalue",
            {"q": q, "cut_a": list(cut.a_factors), "cut_b": list(cut.b_factors)},
            seed,
            value=res.value,
        )
    ]


def _exact_decimal(fr: Fraction) -> str | None:
    """Terminating decimal expansion of a rational, if one exists."""
    den = fr.denominator
    two = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    five = 0
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return None
    shift = max(two, five)
    scaled = fr * Fraction(10) ** shift
    sign = "-" if scaled.numerator < 0 else ""
    digits = str(abs(scaled.numerator))
    if shift == 0:
        return sign + digits
    digits = digits.rjust(shift + 1, "0")
    return sign + (digits[:-shift] + "." + digits[-shift:]).rstrip("0").rstrip(".")


def repetition_bounds_records(
    delta: float | str = 0.5,
    r: float | str = 1.0,
    n: int = 10,
    alpha: float | str | None = None,
    h_qext_val: float | None = None,
    q: int | None = None,
    d: int | None = None,
    seed: int = 0,
):
    """Closed-form bound values; the algebraic power bound also in exact form."""
    delta_f = Fraction(str(delta))
    r_f = Fraction(str(r))
    exact = (1 - delta_f**2 / (5 * r_f**2)) ** n
    records = [
        record(
            "repetition-bounds",
            "tensor-power-decay-bound",
            {
                "delta": float(delta_f),
                "r": float(r_f),
                "n": n,
                "value_exact": _exact_decimal(exact) or str(exact),
            },
            seed,
            value=repetition.bound_hsep_power(float(delta_f), float(r_f), n),
        )
    ]
    alpha_f = Fraction(str(alpha)) if alpha is not None else delta_f
    records.append(
        record(
            "repetition-bounds",
            "threshold-concentration-bound",
            {"alpha": float(alpha_f), "r": float(r_f), "n": n},
            seed,
            value=repetition.bound_threshold(float(alpha_f), float(r_f), n),
        )
    )
    if h_qext_val is not None and q:
        records.append(
            record(
                "repetition-bounds",
                "qext-decay-bound",
                {"h_qext": h_qext_val, "q": q, "n": n},
                seed,
                value=repetition.bound_qext_power(h_qext_val, q, n),
            )
        )
    if d:
        records.append(
            record(
                "repetition-bounds",
                "dimension-decay-bound",
                {"delta": float(delta_f), "d": d, "n": n},
                seed,
                value=repetition.bound_sep_dim(float(delta_f), d, n),
            )
        )
        records.append(
            record(
                "repetition-bounds",
                "dimension-threshold-bound",
                {"alpha": float(alpha_f), "delta": float(delta_f), "d": d, "n": n},
                seed,
                value=repetition.bound_threshold_dim(float(alpha_f), float(delta_f), d, n),
            )
        )
    return records


def bound_sweep_rows(
    delta: float,
    r: float,
    n_max: int,
    alpha: float | None = None,
    h_qext_val: float | None = None,
    q: int | None = None,
    d: int | None = None,
    experiment: dict | None = None,
):
    """Plot-ready rows (n, bound_name, value, experiment_value) over 0..n_max.

    ``experiment`` optionally maps ``(bound_name, n)`` to a measured value to
    place alongside the curve.
    """
    experiment = experiment or {}
    curves = {
        "tensor-power-decay-bound": lambda n: repetition.bound_hsep_power(delta, r, n),
        "threshold-concentration-bound": lambda n: repetition.bound_threshold(
            alpha if alpha is not None else delta, r, n
        ),
    }
    if h_qext_val is not None and q:
        curves["qext-decay-bound"] = lambda n: repetition.bound_qext_power(h_qext_val, q, n)
    if d:
        curves["dimension-decay-bound"] = lambda n: repetition.bound_sep_dim(delta, d, n)
    rows = []
    for n in range(n_max + 1):
        for name in sorted(curves):
            value = curves[name](n)
            exp_val = experiment.get((name, n), "")
            rows.append((n, name, repr(value), exp_val if exp_val == "" else repr(exp_val)))
    return rows


def conditioning_suite(
    n: int = 2,
    q: int = 2,
    instances: int = 10,
    selection: str = "greedy_min_mi",
    seed: int = 0,
    tol: float = 1e-8,
):
    """Random-instance measurement-conditioning trajectories with checks."""
    records = []
    trajectories = []
    for i in range(instances):
        rng = stream(seed, "conditioning-suite", i)
        m = hermitian(random_contraction(4, rng), (2, 2))
        alpha = induced_mixed_state((2,) * n, seed, "cond-alpha", i)
        beta = induced_mixed_state((2,) * n, seed, "cond-beta", i)
        traj = repetition.recursive_conditioning_demo(
            m, alpha, beta, q=q, selection=selection, seed=seed + i, tol=tol
        )
        trajectories.append(traj)
        ok = traj.passed_final and traj.ratio_defect <= 1e-10
        if selection == "greedy_min_mi":
            ok = ok and traj.per_step_ok
        records.append(
            record(
                "conditioning-demo",
                "measurement-conditioning-chain",
                {
                    "n": n,
                    "q": q,
                    "selection": selection,
                    "hqext": traj.hqext_value,
                    "ratio_defect": traj.ratio_defect,
                },
                seed + i,
                value=traj.final_p,
                bound=traj.final_bound,
                tolerance=tol,
                passed=bool(ok),
            )
        )
    return records, trajectories


def framework_suite(seed: int = 0, n_exhaustive: int = 8):
    """Scalar-framework checks: bisection root, tail equality, Hoeffding grid."""
    records = []
    fam = repetition.projective_power_family(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    )
    table = repetition.PiecewiseTable.from_function(lambda e: e * e / 4.0, points=2**17 + 1)
    rep = repetition.framework_decay_from_fidelity(fam, None, r=1.0, delta=0.5, f=table, n=10)
    root = 2.0 * (math.sqrt(1.5) - 1.0)
    records.append(
        record(
            "framework",
            "fidelity-decay-root",
            {"delta": 0.5, "r": 1.0, "closed_form": root},
            seed,
            value=rep.eps_decay,
            gap=abs(rep.eps_decay - root),
            tolerance=1e-10,
            passed=bool(abs(rep.eps_decay - root) <= 1e-10),
        )
    )
    witness = hermitian(np.full((2, 2), 0.5), (2,))
    h1 = max(Fraction(float(np.real(np.trace(witness.matrix @ a)))) for a in fam.atoms)
    equal = True
    for m in range(1, n_exhaustive + 1):
        tails = repetition.hull_threshold_tails(fam, witness, m)
        for t in range(m + 1):
            equal &= tails[t] == repetition.binomial_tail(m, h1, t)
    records.append(
        record(
            "framework",
            "threshold-tail-equality",
            {"n_max": n_exhaustive},
            seed,
            passed=bool(equal),
        )
    )
    grid_ok = True
    for m in range(1, 13):
        for p10 in range(1, 10):
            p = p10 / 10.0
            for t in range(m + 1):
                if t > m * p:
                    grid_ok &= float(repetition.binomial_tail(m, p, t)) <= repetition.hoeffding_tail(
                        m, p, t
                    ) + 1e-15
    records.append(
        record(
            "framework",
            "binomial-vs-hoeffding",
            {"n_max": 12},
            seed,
            passed=bool(grid_ok),
        )
    )
    return records
