"""Named verification suites producing uniform report records.

Each record is a plain dict with the fixed schema ``{suite, anchor, params,
value, gap, bound, tolerance, pass, seed}`` (unused entries null), so suites
serialize deterministically and the command line front end stays thin.
``pass`` is null for records that report a value without deciding anything.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import reductions, repetition, separability
from .operators import (
    HermitianOperator,
    _occupation_table,
    _require_at_least,
    _require_count,
    check_side,
    ginibre,
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

TRUNCATED_CONFIGS = ((2, 3, 1, 1), (2, 3, 2, 1))  # verify-truncated's (d, D, n, k) when none is given


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


def _check_record(suite: str, anchor: str, params: dict, seed, res, bound=None) -> dict:
    """The record of a reduction check ``res``: its gap, tolerance and verdict."""
    return record(suite, anchor, params, seed, gap=res.gap_min_eig, bound=bound, tolerance=res.tolerance,
                  passed=res.passed)


def pinching_suite(seeds: int = 100, seed: int = 0, d_max: int = 4, r_max: int = 4):
    """Random-instance check of the cross-term pinching inequality.

    Instance ``s`` draws ``d``, ``r``, then ``r + 1`` Ginibre matrices from the
    one stream ``stream(seed, "pinching")``: the ``r`` operators and ``G`` for the
    Hilbert-Schmidt random state ``G G^dag / ||G||_F^2``.  Each ``(d, r)`` class is one stack."""
    _require_at_least(1, seeds=seeds, r_max=r_max)
    _require_at_least(2, d_max=d_max)
    rng = stream(seed, "pinching")
    classes = {}
    for s in range(seeds):
        d = int(rng.integers(2, d_max + 1))
        r = int(rng.integers(1, r_max + 1))
        classes.setdefault((d, r), []).append((s, ginibre(rng, (r + 1, d, d))))
    out = [None] * seeds
    for (d, r), insts in classes.items():
        index, mats = zip(*insts)
        mats = np.stack(mats)
        g = mats[:, r]
        rhos = g @ g.conj().swapaxes(1, 2) / (abs(g) ** 2).sum(axis=(1, 2))[:, None, None]
        for s, res in zip(index, reductions.check_pinching_stack(mats[:, :r], rhos, (d,))):
            out[s] = _check_record("verify-pinching", "pinching-cross-term-bound", {"d": d, "r": r}, seed + s, res)
    return out


def definetti_suite(n: int = 2, d: int = 2, seeds: int = 100, seed: int = 0, mixed: bool = False):
    """Seeded PSD checks of the pure or mixed constrained reduction."""
    _require_at_least(1, seeds=seeds)
    out = []
    for inst in range(seed, seed + seeds):
        if mixed:
            res = reductions.check_mixed_reduction(n, d, seed=inst)
            anchor = "mixed-state-constrained-reduction"
            params = {**res.params, "fidelity_domination_min_margin": res.extras["fidelity_domination_min_margin"]}
        else:
            theta = symmetric_state_vector(n, d, inst, "suite")
            res = reductions.check_pure_reduction(theta, n, d)
            anchor = "pure-state-constrained-reduction"
            params = dict(res.params)
        out.append(_check_record("verify-definetti", anchor, params, inst, res, bound=res.prefactor))
    return out


def classical_suite(d: int = 2, n: int = 3, seed: int = 0):
    """Pointwise reduction for the three canonical symmetric distributions."""
    _require_at_least(1, n=n, d=d)
    check_side((d * d) ** n, "classical purification")
    size = d**n
    uniform = np.full(size, 1.0 / size)
    point = np.zeros(size)
    point[0] = 1.0
    # uniform on the arrangements of 0^(n-1) 1, occupation class 1 (of 0^n, class 0, when d = 1)
    label, _, sizes = _occupation_table(n, d)
    c = min(1, d - 1)
    mixed_string = (label == c) / sizes[c]
    out = []
    for name, dist in (
        ("uniform", uniform),
        ("point-mass", point),
        ("symmetrized-string", mixed_string),
    ):
        res = reductions.check_classical_reduction(dist, d, n)
        out.append(
            record(
                "verify-classical",
                "classical-pointwise-reduction",
                {"d": d, "n": n, "distribution": name, "prefactor": res.prefactor},
                seed,
                gap=res.min_slack,
                bound=res.printed_prefactor,
                tolerance=res.tolerance,
                passed=res.passed,
            )
        )
    return out


def truncated_suite(configs=TRUNCATED_CONFIGS, seeds: int = 5, seed: int = 0):
    """Seeded PSD checks of the truncated-ambient reduction."""
    _require_at_least(1, seeds=seeds)
    out = []
    for (d, big_d, n, k) in configs:
        for inst in range(seed, seed + seeds):
            res = reductions.check_truncated_ambient_reduction(n, k, d, big_d, seed=inst)
            out.append(_check_record("verify-truncated", "truncated-ambient-reduction", res.params, inst, res,
                                     bound=res.prefactor))
    return out


def hsep_records(
    op: HermitianOperator,
    cut: separability.BipartiteCut,
    restarts: int = 32,
    seed: int = 0,
    q_max: int = 0,
):
    """Seesaw value (plus, unless ``q_max`` is 0, the certified interval) for one operator."""
    _require_count(0, q_max=q_max)
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
        tol = 1e-9
        records.append(
            record(
                "hsep",
                "certified-interval",
                {"q_used": interval.q_used, "per_q": {str(k): v for k, v in interval.per_q_upper.items()}},
                seed,
                value=interval.lower,
                bound=interval.upper,
                tolerance=tol,
                passed=bool(interval.lower <= interval.upper + tol),
            )
        )
    return records, res


def qext_records(op: HermitianOperator, cut: separability.BipartiteCut, q: int, seed: int = 0):
    res = separability.hqext(op, cut, q)
    return [
        record(
            "qext",
            "extendible-support-eigenvalue",
            {
                "q": q,
                "cut_a": list(cut.a_factors),
                "cut_b": list(cut.b_factors),
                "irrep": list(res.irrep),
                "block_side": res.block_side,
            },
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


def _bound_curves(delta, r, alpha=None, h_qext_val=None, q=None, d=None) -> list:
    """Every closed-form bound the inputs select, as ``(anchor, params,
    value(n))`` in report order; ``delta``, ``r`` and ``alpha`` are read as
    exact decimals."""
    if (h_qext_val is None) != (q is None):
        raise ValueError("the qext-decay bound needs both h_qext_val and q")
    _require_at_least(1, **{name: v for name, v in (("q", q), ("d", d)) if v is not None})
    delta = float(Fraction(str(delta)))
    r = float(Fraction(str(r)))
    alpha = float(Fraction(str(alpha))) if alpha is not None else delta
    curves = [
        ("tensor-power-decay-bound", {"delta": delta, "r": r},
         lambda n: repetition.bound_hsep_power(delta, r, n)),
        ("threshold-concentration-bound", {"alpha": alpha, "r": r},
         lambda n: repetition.bound_threshold(alpha, r, n)),
    ]
    if q is not None:
        curves.append(("qext-decay-bound", {"h_qext": h_qext_val, "q": q},
                       lambda n: repetition.bound_qext_power(h_qext_val, q, n)))
    if d is not None:
        curves.append(("dimension-decay-bound", {"delta": delta, "d": d},
                       lambda n: repetition.bound_sep_dim(delta, d, n)))
        curves.append(("dimension-threshold-bound", {"alpha": alpha, "delta": delta, "d": d},
                       lambda n: repetition.bound_threshold_dim(alpha, delta, d, n)))
    return curves


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
    records = [
        record("repetition-bounds", anchor, {**params, "n": n}, seed, value=value(n))
        for anchor, params, value in _bound_curves(delta, r, alpha, h_qext_val, q, d)
    ]
    delta_f = Fraction(str(delta))
    r_f = Fraction(str(r))
    exact = (1 - delta_f**2 / (5 * r_f**2)) ** n
    # the first curve is always the tensor-power bound
    records[0]["params"]["value_exact"] = _exact_decimal(exact) or str(exact)
    return records


def bound_sweep_rows(
    delta: float | str,
    r: float | str,
    n_max: int,
    alpha: float | str | None = None,
    h_qext_val: float | None = None,
    q: int | None = None,
    d: int | None = None,
):
    """Plot-ready rows ``(n, bound_name, value, experiment_value)`` over
    ``0..n_max`` for the bounds :func:`repetition_bounds_records` reports;
    ``experiment_value`` is left empty."""
    curves = sorted(_bound_curves(delta, r, alpha, h_qext_val, q, d), key=lambda c: c[0])
    return [(n, anchor, repr(value(n)), "") for n in range(n_max + 1) for anchor, _, value in curves]


def conditioning_suite(
    n: int = 2,
    q: int = 2,
    instances: int = 10,
    selection: str = "greedy_min_mi",
    seed: int = 0,
):
    """Random-instance measurement-conditioning trajectories with checks."""
    _require_at_least(1, instances=instances)
    records = []
    trajectories = []
    for i in range(instances):
        rng = stream(seed, "conditioning-suite", i)
        m = hermitian(random_contraction(4, rng), (2, 2))
        alpha = induced_mixed_state((2,) * n, seed, "cond-alpha", i)
        beta = induced_mixed_state((2,) * n, seed, "cond-beta", i)
        traj = repetition.recursive_conditioning_demo(
            m, alpha, beta, q=q, selection=selection, seed=seed + i
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
                tolerance=repetition.CONDITIONING_TOL,
                passed=bool(ok),
            )
        )
    return records, trajectories


def framework_suite(seed: int = 0, n_exhaustive: int = 8):
    """Scalar-framework checks: bisection root, tail equality, Hoeffding grid."""
    _require_at_least(1, n_exhaustive=n_exhaustive)
    records = []
    fam = repetition.projective_power_family(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    )
    rep = repetition.framework_decay_from_fidelity(fam, None, r=1.0, delta=0.5, f=lambda e: e * e / 4.0, n=10)
    root = 2.0 * (math.sqrt(1.5) - 1.0)
    root_tol = 1e-10
    records.append(
        record(
            "framework",
            "fidelity-decay-root",
            {"delta": 0.5, "r": 1.0, "closed_form": root},
            seed,
            value=rep.eps_decay,
            gap=abs(rep.eps_decay - root),
            tolerance=root_tol,
            passed=bool(abs(rep.eps_decay - root) <= root_tol),
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
