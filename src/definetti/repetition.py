"""Parallel-repetition machinery and printed decay bounds.

Covers the threshold test operators in both their exact-POVM and printed
forms, every closed-form decay/concentration bound, the post-measurement
relative-entropy lemma, the computable conditional-mutual-information chain,
the scalar recursion lemma with its corollary, a step-by-step measurement
conditioning demo, and the generic convex-constraint framework with its
binary hypothesis test construction.  Entropies and bound formulas are in
bits; printed ``ln 2`` constants are evaluated literally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measures import (
    conditional_mutual_information,
    fidelity,
    mutual_information,
    relative_entropy,
)
from .operators import (
    DensityMatrix,
    Dims,
    HermitianOperator,
    check_side,
    partial_trace,
    permute_factors,
    stream,
)
from .separability import BipartiteCut, _require_contraction, hqext

__all__ = [
    "ThresholdOperator",
    "threshold_operator",
    "bound_hsep_power",
    "bound_threshold",
    "bound_qext_power",
    "bound_sep_dim",
    "bound_threshold_dim",
    "PostMeasurementResult",
    "post_measurement_update",
    "CmiChainReport",
    "cmi_chain_check",
    "RecursionVerdict",
    "scalar_recursion_bound",
    "scalar_recursion_corollary",
    "sample_admissible_sequence",
    "TrajectoryStep",
    "ConditioningTrajectory",
    "recursive_conditioning_demo",
    "ConstraintFamily",
    "projective_power_family",
    "separable_family",
    "PiecewiseTable",
    "FrameworkDecayReport",
    "framework_decay_from_fidelity",
    "FrameworkFidelityReport",
    "framework_fidelity_from_decay",
    "hull_threshold_value",
    "hull_threshold_tails",
    "hoeffding_tail",
    "binomial_tail",
]

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# threshold operators


@dataclass(frozen=True, eq=False)
class ThresholdOperator:
    """Test operator for passing at least ``t`` of ``n`` parallel binary tests.

    ``exact_povm`` sums complete pass/fail patterns and is a POVM element;
    ``printed_sum`` pads the passing subsets with identities and dominates
    the exact form in PSD order (it over-counts outcomes, so it is kept only
    as a comparison variant).
    """

    base: HermitianOperator
    n: int
    t: int
    variant: str
    op: HermitianOperator


def threshold_operator(
    m: HermitianOperator, n: int, t: int, variant: str = "exact_povm"
) -> ThresholdOperator:
    if not 0 <= t <= n:
        raise ValueError(f"threshold {t} outside 0..{n}")
    if variant not in ("exact_povm", "printed_sum"):
        raise ValueError(f"unknown variant {variant!r}")
    side = m.side**n
    check_side(side, "threshold operator")
    eye = np.eye(m.side, dtype=complex)
    fail = eye - m.matrix if variant == "exact_povm" else eye
    total = np.zeros((side, side), dtype=complex)
    for k in range(t, n + 1):
        for passing in itertools.combinations(range(n), k):
            factors = [m.matrix if i in passing else fail for i in range(n)]
            block = factors[0]
            for f in factors[1:]:
                block = np.kron(block, f)
            total += block
    dims = Dims(m.dims.factors * n)
    return ThresholdOperator(base=m, n=n, t=t, variant=variant, op=HermitianOperator(total, dims))


# ---------------------------------------------------------------------------
# printed bound formulas


def _check_unit(name: str, value: float, lo: float = 0.0, hi: float = 1.0, strict_lo=True, strict_hi=True):
    ok_lo = value > lo if strict_lo else value >= lo
    ok_hi = value < hi if strict_hi else value <= hi
    if not (ok_lo and ok_hi):
        raise ValueError(f"{name}={value!r} outside the valid range")


def bound_hsep_power(delta: float, r: float, n: int) -> float:
    """Decay bound ``(1 - delta^2 / (5 r^2))^n`` for the n-fold tensor test."""
    _check_unit("delta", delta)
    if r <= 0:
        raise ValueError("r must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (1.0 - delta**2 / (5.0 * r * r)) ** n


def bound_threshold(alpha: float, r: float, n: int) -> float:
    """Concentration bound ``exp(-n alpha^2 / (5 r^2))`` for threshold tests."""
    _check_unit("alpha", alpha, hi=1.0, strict_hi=False)
    if r <= 0:
        raise ValueError("r must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.exp(-n * alpha**2 / (5.0 * r * r))


def bound_qext_power(h_qext_val: float, q: int, n: int) -> float:
    """Decay bound ``(1 - (1 - h)^2 / (8 ln2 q^2))^n`` from q-extendibility."""
    if not 0.0 <= h_qext_val <= 1.0 + 1e-12:
        raise ValueError("h_qext value outside [0, 1]")
    if q < 1 or n < 0:
        raise ValueError("need q >= 1 and n >= 0")
    return (1.0 - (1.0 - h_qext_val) ** 2 / (8.0 * LN2 * q * q)) ** n


def bound_sep_dim(delta: float, d: int, n: int) -> float:
    """Dimension-only decay bound ``(1 - delta^4 / (512 ln2 d^4))^n``."""
    _check_unit("delta", delta)
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    return (1.0 - delta**4 / (512.0 * LN2 * d**4)) ** n


def bound_threshold_dim(alpha: float, delta: float, d: int, n: int) -> float:
    """Threshold bound ``(1 - alpha^5 / (2048 ln2 d^4 (2 delta - alpha)))^n``."""
    _check_unit("delta", delta)
    if not 0.0 < alpha <= delta:
        raise ValueError("need 0 < alpha <= delta")
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    return (1.0 - alpha**5 / (2048.0 * LN2 * d**4 * (2.0 * delta - alpha))) ** n


# ---------------------------------------------------------------------------
# post-measurement disturbance


def _conditioned(meas: np.ndarray, state: np.ndarray, dims: Dims, keep, p: float) -> HermitianOperator:
    """State left on ``keep`` after outcome ``M`` (probability ``p``) when ``M``
    acts only on the other factors: ``Tr_rest((M rho + rho M) / 2) / p``."""
    weighted = HermitianOperator((meas @ state + state @ meas) / 2.0, dims)
    return HermitianOperator(partial_trace(weighted, keep).matrix / p, dims.subset(keep))


@dataclass(frozen=True, eq=False)
class PostMeasurementResult:
    p: float
    tau_v: DensityMatrix
    relent: float
    budget: float
    kraus_defect: float
    passed: bool


def post_measurement_update(
    rho_uv: DensityMatrix, t_on_u: HermitianOperator, tol: float = 1e-9
) -> PostMeasurementResult:
    """Condition on the first outcome of ``(T, 1-T)`` measured on the U part.

    U is the leading factor group matching ``t_on_u``; the remaining factors
    form V.  Checks ``D(tau_V || rho_V) <= -log2 p`` and that the Kraus-form
    update with ``sqrt(T)`` reproduces the same post-measurement state (they
    agree identically under the partial trace over U).
    """
    nu = len(t_on_u.dims)
    if rho_uv.dims.factors[:nu] != t_on_u.dims.factors or nu >= len(rho_uv.dims):
        raise ValueError("T must act on a leading proper factor group of the state")
    w = _require_contraction(t_on_u.matrix)
    keep_v = list(range(nu, len(rho_uv.dims)))
    dim_v = math.prod(rho_uv.dims.factors[nu:])
    t_full = np.kron(t_on_u.matrix, np.eye(dim_v))
    p = float(np.real(np.trace(t_full @ rho_uv.matrix)))
    if p <= 1e-14:
        raise ValueError(f"vanishing outcome probability {p!r}")
    tau_mat = _conditioned(t_full, rho_uv.matrix, rho_uv.dims, keep_v, p).matrix
    # sqrt(T) Kraus form; identical after the partial trace by cyclicity
    wc = np.clip(w, 0.0, None)
    vecs = np.linalg.eigh(t_on_u.matrix)[1]
    sqrt_t = (vecs * np.sqrt(wc)) @ vecs.conj().T
    sqrt_full = np.kron(sqrt_t, np.eye(dim_v))
    kraus_mat = (
        partial_trace(
            HermitianOperator(sqrt_full @ rho_uv.matrix @ sqrt_full, rho_uv.dims), keep_v
        ).matrix
        / p
    )
    kraus_defect = float(np.linalg.norm(kraus_mat - tau_mat))
    tau_v = DensityMatrix(HermitianOperator(kraus_mat, rho_uv.dims.subset(keep_v)))
    rho_v = partial_trace(rho_uv.op, keep_v)
    relent = relative_entropy(tau_v, rho_v)
    budget = -math.log2(p)
    return PostMeasurementResult(
        p=p,
        tau_v=tau_v,
        relent=relent,
        budget=budget,
        kraus_defect=kraus_defect,
        passed=bool(relent <= budget + tol and kraus_defect <= 1e-9),
    )


# ---------------------------------------------------------------------------
# measurement layout helpers


def _interleave_order(n: int) -> list:
    """Order mapping the interleaved (A1 B1 A2 B2 ...) layout to (A^n, B^n)."""
    return [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]


def measurement_on_pairs(m: HermitianOperator, n: int, pairs) -> HermitianOperator:
    """Embed ``M`` on the listed (A_i, B_i) pairs of an ``A^n B^n`` layout.

    ``m`` must be a two-factor operator; identity acts elsewhere.
    """
    if len(m.dims) != 2:
        raise ValueError("base measurement must have exactly two factors (A, B)")
    da, db = m.dims.factors
    pairs = set(int(i) for i in pairs)
    eye_a = np.eye(da, dtype=complex)
    eye_b = np.eye(db, dtype=complex)
    eye_pair = np.kron(eye_a, eye_b)
    block = None
    for i in range(n):
        piece = m.matrix if i in pairs else eye_pair
        block = piece if block is None else np.kron(block, piece)
    interleaved = HermitianOperator(block, Dims((da, db) * n))
    return permute_factors(interleaved, _interleave_order(n))


@dataclass(frozen=True, eq=False)
class CmiChainReport:
    p_k: float
    chain_sum: float
    joint_mi: float
    relent: float
    budget: float
    links: tuple
    passed: bool
    params: dict


def cmi_chain_check(
    m: HermitianOperator,
    alpha: DensityMatrix,
    beta: DensityMatrix,
    k: int,
    tol: float = 1e-9,
) -> CmiChainReport:
    """Computable chain behind the squashed-entanglement budget bound.

    Measures ``M`` on the first ``k`` pairs of the product ``alpha (x) beta``
    and verifies, for the conditional state:
    the conditional pair-information sum is below the joint mutual
    information, which is below the relative entropy to the product of the
    untouched marginals, which is below ``log2(1/p_k)``.
    """
    da, db = m.dims.factors if len(m.dims) == 2 else (m.dims.size, None)
    if len(m.dims) != 2:
        raise ValueError("measurement must have two factors (A, B)")
    n = len(alpha.dims)
    if len(beta.dims) != n or not 1 <= k <= n - 1:
        raise ValueError("need states on n copies each and 1 <= k <= n-1")
    if any(f != da for f in alpha.dims) or any(f != db for f in beta.dims):
        raise ValueError("state factors do not match the measurement")
    _require_contraction(m.matrix)

    state = np.kron(alpha.matrix, beta.matrix)
    dims = Dims(alpha.dims.factors + beta.dims.factors)
    meas = measurement_on_pairs(m, n, range(k))
    p_k = float(np.real(np.trace(meas.matrix @ state)))
    if p_k <= 1e-14:
        raise ValueError(f"vanishing pass probability {p_k!r}")
    keep = list(range(k, n)) + list(range(n + k, 2 * n))
    tau = DensityMatrix(_conditioned(meas.matrix, state, dims, keep, p_k))
    r = n - k
    a_pos = list(range(r))
    b_pos = list(range(r, 2 * r))
    links = []
    chain_sum = 0.0
    for t in range(r):
        val = conditional_mutual_information(tau, [a_pos[t]], [b_pos[t]], a_pos[:t])
        links.append(val)
        chain_sum += val
    joint_mi = mutual_information(tau, a_pos, b_pos)
    alpha_rest = partial_trace(alpha.op, list(range(k, n)))
    beta_rest = partial_trace(beta.op, list(range(k, n)))
    relent = relative_entropy(tau, np.kron(alpha_rest.matrix, beta_rest.matrix))
    budget = math.log2(1.0 / p_k)
    passed = (
        chain_sum <= joint_mi + tol
        and joint_mi <= relent + tol
        and relent <= budget + tol
    )
    return CmiChainReport(
        p_k=p_k,
        chain_sum=chain_sum,
        joint_mi=joint_mi,
        relent=relent,
        budget=budget,
        links=tuple(links),
        passed=bool(passed),
        params={"n": n, "k": k, "da": da, "db": db},
    )


# ---------------------------------------------------------------------------
# scalar recursion lemma


@dataclass(frozen=True, eq=False)
class RecursionVerdict:
    applicable: bool
    holds: bool
    k0: float
    margins: tuple
    hypothesis_residuals: tuple
    params: dict


def _validate_recursion_hypothesis(p_seq, nu, c, tol):
    p = [float(x) for x in p_seq]
    n = len(p)
    if n < 1:
        return None, ()
    if not all(0.0 < x < 1.0 for x in p):
        return None, ()
    if any(p[i + 1] > p[i] + 1e-15 for i in range(n - 1)):
        return None, ()
    residuals = []
    for i in range(n - 1):
        allowed = p[i] * (math.sqrt(c / (n - (i + 1)) * math.log2(1.0 / p[i])) + nu)
        residuals.append(allowed - p[i + 1])
        if p[i + 1] > allowed + tol:
            return None, tuple(residuals)
    return p, tuple(residuals)


def scalar_recursion_bound(
    p_seq, nu: float, c: float, gamma: float, tol: float = 1e-12
) -> RecursionVerdict:
    """Verify the geometric-cap conclusion of the scalar recursion lemma.

    The recursion hypothesis is validated, never assumed; a sequence failing
    it yields a not-applicable verdict, which is distinct from a bound
    failure.  For admissible sequences the conclusion
    ``p_k <= (nu+gamma)^{min(k, k0)}`` is checked for every index.
    """
    if not (0.0 < nu < 1.0 and c > 0.0 and 0.0 < gamma < 1.0 - nu):
        raise ValueError("need 0 < nu < 1, c > 0, 0 < gamma < 1 - nu")
    p, residuals = _validate_recursion_hypothesis(p_seq, nu, c, tol)
    n = len(list(p_seq))
    base = nu + gamma
    k0 = gamma**2 * (n + 1) / (c * math.log2(1.0 / base) + gamma**2)
    if p is None or p[0] > base + tol:
        return RecursionVerdict(False, False, k0, (), residuals, {"nu": nu, "c": c, "gamma": gamma, "n": n})
    margins = tuple(base ** min(k, k0) - p[k - 1] for k in range(1, n + 1))
    holds = all(mg >= -tol for mg in margins)
    return RecursionVerdict(True, bool(holds), k0, margins, residuals, {"nu": nu, "c": c, "gamma": gamma, "n": n})


def scalar_recursion_corollary(p_seq, nu: float, c: float, tol: float = 1e-12) -> RecursionVerdict:
    """Verify the corollary form ``p_n <= (1 - (1-nu)^2 / (8c))^n``.

    This is the lemma at ``gamma = (1-nu)/2``; the extra hypothesis is
    ``p_1 <= (1+nu)/2``.
    """
    if not (0.0 < nu < 1.0 and c > 0.0):
        raise ValueError("need 0 < nu < 1 and c > 0")
    gamma = (1.0 - nu) / 2.0
    p, residuals = _validate_recursion_hypothesis(p_seq, nu, c, tol)
    n = len(list(p_seq))
    base = nu + gamma
    k0 = gamma**2 * (n + 1) / (c * math.log2(1.0 / base) + gamma**2)
    params = {"nu": nu, "c": c, "gamma": gamma, "n": n}
    if p is None or p[0] > base + tol:
        return RecursionVerdict(False, False, k0, (), residuals, params)
    bound = (1.0 - (1.0 - nu) ** 2 / (8.0 * c)) ** n
    margin = bound - p[-1]
    return RecursionVerdict(True, bool(margin >= -tol), k0, (margin,), residuals, params)


def sample_admissible_sequence(n: int, nu: float, c: float, gamma: float, rng) -> list:
    """Random sequence satisfying the recursion hypothesis by construction."""
    p = [(nu + gamma) * (0.2 + 0.8 * rng.random())]
    for i in range(n - 1):
        allowed = p[i] * min(1.0, math.sqrt(c / (n - (i + 1)) * math.log2(1.0 / p[i])) + nu)
        p.append(max(allowed * (0.2 + 0.8 * rng.random()), 1e-300))
    return p


# ---------------------------------------------------------------------------
# recursive conditioning demo


@dataclass(frozen=True, eq=False)
class TrajectoryStep:
    k: int
    index: int
    p: float
    ratio: float
    surrogate: float
    averaged_bound: float
    cmi_chain_value: float
    chain_budget: float
    bound_k: float


@dataclass(frozen=True, eq=False)
class ConditioningTrajectory:
    steps: tuple
    final_p: float
    hqext_value: float
    q: int
    selection: str
    seed: int
    per_step_ok: bool
    ratio_defect: float
    final_bound: float
    passed_final: bool

    def csv_rows(self):
        yield ("k", "i_k", "p_k", "surrogate", "cmi_chain", "bound_k")
        for s in self.steps:
            yield (s.k, s.index, repr(s.p), repr(s.surrogate), repr(s.cmi_chain_value), repr(s.bound_k))


def recursive_conditioning_demo(
    m: HermitianOperator,
    alpha: DensityMatrix,
    beta: DensityMatrix,
    q: int = 2,
    selection: str = "greedy_min_mi",
    seed: int = 0,
    tol: float = 1e-8,
) -> ConditioningTrajectory:
    """Run the measurement-conditioning chain on a product input state.

    At each step one untested pair is selected (greedy: smallest trivial
    -extension surrogate, half the pair mutual information; random: uniform),
    the binary test is applied there, and the conditional state is updated.
    The recorded per-step surrogate is compared with the averaged budget
    ``log2(1/p_{k-1}) / (2 (n-k+1))`` and the final pass probability with the
    q-extendibility decay bound.
    """
    if selection not in ("greedy_min_mi", "uniform_random"):
        raise ValueError(f"unknown selection rule {selection!r}")
    if len(m.dims) != 2:
        raise ValueError("measurement must have two factors (A, B)")
    da, db = m.dims.factors
    n = len(alpha.dims)
    if len(beta.dims) != n:
        raise ValueError("alpha and beta must have one factor per test")
    cut = BipartiteCut((0,), (1,))
    h_q = hqext(m, cut, q).value
    rng = stream(seed, "conditioning", selection)

    state = np.kron(alpha.matrix, beta.matrix)
    full_dims = Dims(alpha.dims.factors + beta.dims.factors)
    remaining = list(range(n))
    tau = DensityMatrix(HermitianOperator(state, full_dims))
    p_prev = 1.0
    steps = []
    per_step_ok = True
    ratio_defect = 0.0
    for k in range(1, n + 1):
        r = len(remaining)
        surrogates = []
        for t in range(r):
            surrogates.append(0.5 * mutual_information(tau, [t], [r + t]))
        if selection == "greedy_min_mi":
            t_choice = int(np.argmin(surrogates))
        else:
            t_choice = int(rng.integers(r))
        chosen = remaining[t_choice]
        surrogate = surrogates[t_choice]
        averaged_bound = math.log2(1.0 / p_prev) / (2.0 * r) if p_prev < 1.0 else 0.0
        if selection == "greedy_min_mi" and surrogate > averaged_bound + tol:
            per_step_ok = False

        meas = measurement_on_pairs(m, r, [t_choice])
        ratio = float(np.real(np.trace(meas.matrix @ tau.matrix)))
        if ratio <= 1e-14:
            break
        keep = [t for t in range(r) if t != t_choice] + [r + t for t in range(r) if t != t_choice]
        p_k = p_prev * ratio
        # exact reconstruction of p_k from scratch on the untouched input
        tested = [i for i in range(n) if i not in remaining] + [chosen]
        direct = float(
            np.real(np.trace(measurement_on_pairs(m, n, tested).matrix @ state))
        )
        ratio_defect = max(ratio_defect, abs(direct - p_k))
        if k < n:
            tau = DensityMatrix(_conditioned(meas.matrix, tau.matrix, tau.dims, keep, ratio))
            rr = r - 1
            chain_value = sum(
                conditional_mutual_information(tau, [t], [rr + t], list(range(t)))
                for t in range(rr)
            )
        else:
            chain_value = 0.0
        chain_budget = math.log2(1.0 / p_k)
        steps.append(
            TrajectoryStep(
                k=k,
                index=chosen,
                p=p_k,
                ratio=ratio,
                surrogate=surrogate,
                averaged_bound=averaged_bound,
                cmi_chain_value=chain_value,
                chain_budget=chain_budget,
                bound_k=bound_qext_power(h_q, q, k),
            )
        )
        remaining.remove(chosen)
        p_prev = p_k
    final_p = steps[-1].p if steps else 1.0
    final_bound = bound_qext_power(h_q, q, n)
    return ConditioningTrajectory(
        steps=tuple(steps),
        final_p=final_p,
        hqext_value=h_q,
        q=q,
        selection=selection,
        seed=seed,
        per_step_ok=per_step_ok,
        ratio_defect=ratio_defect,
        final_bound=final_bound,
        passed_final=bool(final_p <= final_bound + tol),
    )


# ---------------------------------------------------------------------------
# generic convex-constraint framework


@dataclass(frozen=True, eq=False)
class ConstraintFamily:
    """Convex constraint sets ``K^(n)``, stable under permutation and partial
    trace, generated by atoms (finite list) or by oracles (separable set)."""

    name: str
    dim: int
    atoms: tuple | None
    support_oracle: object
    fidelity_oracle: object
    decay_f: object
    threshold_decay: object

    def support(self, m: np.ndarray) -> float:
        return self.support_oracle(m)

    def fidelity_to(self, rho: np.ndarray) -> float:
        return self.fidelity_oracle(rho)

    def product_atoms(self, n: int):
        if self.atoms is None:
            raise ValueError(f"family {self.name!r} has no finite atom list")
        for combo in itertools.product(self.atoms, repeat=n):
            block = combo[0]
            for a in combo[1:]:
                block = np.kron(block, a)
            yield block


def _fw_fidelity_hull(rho: np.ndarray, atoms, iters: int = 400, stop_gain: float = 1e-12) -> float:
    """Frank-Wolfe maximization of fidelity over a finite-atom hull."""
    from .separability import _fw_fidelity

    atoms = [np.asarray(a, dtype=complex) for a in atoms]

    def lmo(grad, it):
        scores = [float(np.real(np.trace(grad @ a))) for a in atoms]
        j = int(np.argmax(scores))
        return j, atoms[j]

    return _fw_fidelity(rho, list(enumerate(atoms)), lmo, iters, stop_gain).value


def projective_power_family(atoms, name: str = "projective-power") -> ConstraintFamily:
    """Hull of n-fold tensor products of a fixed set of single-copy states."""
    mats = tuple(np.asarray(a.matrix if hasattr(a, "matrix") else a, dtype=complex) for a in atoms)
    dim = mats[0].shape[0]

    def support(m: np.ndarray) -> float:
        return max(float(np.real(np.trace(m @ a))) for a in mats)

    def fid(rho: np.ndarray) -> float:
        return _fw_fidelity_hull(rho, mats)

    return ConstraintFamily(
        name=name,
        dim=dim,
        atoms=mats,
        support_oracle=support,
        fidelity_oracle=fid,
        decay_f=lambda eps: eps**2 / 4.0,
        threshold_decay=lambda alpha, d=dim: 2.0 * alpha**2,
    )


def separable_family(dims, cut: BipartiteCut, seed: int = 0, name: str = "separable") -> ConstraintFamily:
    """Separable states across ``cut``; oracles are seesaw / Frank-Wolfe."""
    from .separability import hsep_seesaw, max_fidelity_to_sep
    from .operators import as_dims, density, hermitian

    dims = as_dims(dims)
    da = math.prod(dims[i] for i in cut.a_factors)
    db = math.prod(dims[i] for i in cut.b_factors)
    d_loc = max(da, db)

    def support(m: np.ndarray) -> float:
        return hsep_seesaw(hermitian(m, dims), cut, seed=seed).value

    def fid(rho: np.ndarray) -> float:
        return max_fidelity_to_sep(density(rho, dims), cut, seed=seed).value

    return ConstraintFamily(
        name=name,
        dim=dims.size,
        atoms=None,
        support_oracle=support,
        fidelity_oracle=fid,
        decay_f=lambda eps: eps**2 / 4.0,
        threshold_decay=lambda alpha, d=d_loc: alpha**2 / (5.0 * d * d),
    )


@dataclass(frozen=True, eq=False)
class PiecewiseTable:
    """Monotone piecewise-linear function table on a subinterval of (0, 1)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-d tables with at least two knots")
        if (np.diff(xs) <= 0).any():
            raise ValueError("x knots must increase")
        if (np.diff(ys) < -1e-15).any():
            raise ValueError("table must be non-decreasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def from_function(cls, f, points: int = 2**15 + 1, lo: float = 1e-9, hi: float = 1.0 - 1e-9):
        xs = np.linspace(lo, hi, points)
        ys = np.array([float(f(x)) for x in xs])
        return cls(xs, ys)

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ys))


def _bisect_root(g, lo: float, hi: float, tol: float = 1e-12, iters: int = 200):
    glo, ghi = g(lo), g(hi)
    if glo > 0.0 or ghi < 0.0:
        return None
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        gm = g(mid)
        if abs(gm) <= tol and hi - lo <= 1e-12:
            return mid
        if gm <= 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True, eq=False)
class FrameworkDecayReport:
    g: float | None
    g_prime: float | None
    eps_decay: float | None
    eps_threshold: float | None
    bound_power: float | None
    bound_threshold: float | None
    vacuous: bool
    residual_decay: float | None
    residual_threshold: float | None
    params: dict


def framework_decay_from_fidelity(
    family: ConstraintFamily,
    m: HermitianOperator | None,
    r: float,
    delta: float,
    f=None,
    alpha: float | None = None,
    n: int = 1,
) -> FrameworkDecayReport:
    """Translate a fidelity-decay modulus into support-function decay bounds.

    Solves ``f(eps) = delta - r eps`` and ``f(eps) = 2 (alpha - r eps)^2`` by
    bisection (residual 1e-12) and reports the bounds ``(1-g)^n`` and
    ``exp(-n g')``.  With no root inside the table domain the report is
    flagged vacuous.  The test operator ``m`` is contextual: when given, its
    2-norm is recorded next to the caller's ``r``.
    """
    _check_unit("delta", delta)
    if alpha is None:
        alpha = delta
    if not 0.0 < alpha <= delta:
        raise ValueError("need 0 < alpha <= delta")
    if r <= 0:
        raise ValueError("r must be positive")
    table = f if f is not None else PiecewiseTable.from_function(family.decay_f)
    if callable(table) and not isinstance(table, PiecewiseTable):
        table = PiecewiseTable.from_function(table)
    lo, hi = float(table.xs[0]), float(table.xs[-1])

    root1 = _bisect_root(lambda e: table(e) - (delta - r * e), lo, hi)
    # restrict to the decreasing branch of 2 (alpha - r eps)^2 when it is inside
    hi2 = min(hi, alpha / r) if alpha / r > lo else hi
    root2 = _bisect_root(lambda e: table(e) - 2.0 * (alpha - r * e) ** 2, lo, hi2)
    if root2 is None:
        root2 = _bisect_root(lambda e: table(e) - 2.0 * (alpha - r * e) ** 2, lo, hi)
    g = table(root1) if root1 is not None else None
    gp = table(root2) if root2 is not None else None
    vacuous = root1 is None and root2 is None
    return FrameworkDecayReport(
        g=g,
        g_prime=gp,
        eps_decay=root1,
        eps_threshold=root2,
        bound_power=(1.0 - g) ** n if g is not None else None,
        bound_threshold=math.exp(-n * gp) if gp is not None else None,
        vacuous=vacuous,
        residual_decay=abs(table(root1) - (delta - r * root1)) if root1 is not None else None,
        residual_threshold=abs(table(root2) - 2.0 * (alpha - r * root2) ** 2)
        if root2 is not None
        else None,
        params={
            "family": family.name,
            "delta": delta,
            "alpha": alpha,
            "r": r,
            "n": n,
            "operator_two_norm": float(np.linalg.norm(m.matrix)) if m is not None else None,
        },
    )


# ---------------------------------------------------------------------------
# binary-test direction: fidelity decay from support-function decay


def hoeffding_tail(n: int, p: float, t: int) -> float:
    """``exp(-2 n (t/n - p)^2)`` above the mean, 1 otherwise."""
    if not 0 <= t <= n:
        raise ValueError("threshold outside 0..n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p outside [0, 1]")
    if n == 0 or t / n <= p:
        return 1.0
    return math.exp(-2.0 * n * (t / n - p) ** 2)


def binomial_tail(n: int, p, t: int) -> Fraction:
    """Exact ``P[Bin(n, p) >= t]`` as a rational number."""
    if not 0 <= t <= n:
        raise ValueError("threshold outside 0..n")
    pf = p if isinstance(p, Fraction) else Fraction(p)
    if not 0 <= pf <= 1:
        raise ValueError("p outside [0, 1]")
    return sum(
        Fraction(math.comb(n, k)) * pf**k * (1 - pf) ** (n - k) for k in range(t, n + 1)
    )


def _poisson_binomial_dist(ps) -> list:
    """Exact pass-count distribution of independent Bernoullis."""
    dist = [Fraction(1)]
    for p in ps:
        pf = p if isinstance(p, Fraction) else Fraction(p)
        new = [Fraction(0)] * (len(dist) + 1)
        for k, w in enumerate(dist):
            new[k] += w * (1 - pf)
            new[k + 1] += w * pf
        dist = new
    return dist


def hull_threshold_tails(family: ConstraintFamily, m: HermitianOperator, n: int) -> list:
    """Exact threshold support values over the projective power hull.

    Returns ``[h(t) for t in 0..n]``.  Linearity puts each hull maximum on a
    vertex (an assignment of atoms to slots), the pass count of a product is
    Poisson binomial, and the tail only depends on the multiset of per-slot
    probabilities, so enumerating probability multisets is exhaustive.
    """
    if family.atoms is None:
        raise ValueError("needs a finite-atom family")
    ps = sorted({Fraction(float(np.real(np.trace(m.matrix @ a)))) for a in family.atoms})
    best = [Fraction(0)] * (n + 1)
    for combo in itertools.combinations_with_replacement(ps, n):
        dist = _poisson_binomial_dist(combo)
        tail = Fraction(0)
        for t in range(n, -1, -1):
            tail += dist[t]
            if tail > best[t]:
                best[t] = tail
    return best


def hull_threshold_value(family: ConstraintFamily, m: HermitianOperator, n: int, t: int) -> Fraction:
    """Exact threshold support value over the projective power hull at ``t``."""
    return hull_threshold_tails(family, m, n)[t]


@dataclass(frozen=True, eq=False)
class FrameworkFidelityReport:
    witness: HermitianOperator
    eta: float
    eps: float
    alpha: float
    threshold: int
    lhs_fidelity: float
    rho_fail: float
    hull_pass: float
    two_term_bound: float
    passed: bool
    params: dict


def framework_fidelity_from_decay(
    family: ConstraintFamily,
    rho: DensityMatrix,
    n: int,
    alpha: float | None = None,
    subgradient_iters: int = 800,
) -> FrameworkFidelityReport:
    """Binary-test construction bounding the fidelity of ``rho^n`` to ``K^(n)``.

    Finds the closest hull point in trace norm, extracts the witness as the
    projector onto the positive part of the difference, reads off
    ``h_K(witness) = 1 - eta`` and ``Tr(witness rho) = 1 - eta + eps``, and
    verifies ``F(rho^n, K^(n)) <= exp(-n (eps-alpha)^2) + exp(-n f(alpha)/2)``
    with both test error probabilities evaluated as exact binomial tails.
    """
    if family.atoms is None:
        raise ValueError("needs a finite-atom family")
    closest = _closest_hull_trace_norm(rho.matrix, family.atoms, subgradient_iters)
    diff = rho.matrix - closest
    w, v = np.linalg.eigh(diff)
    dist = float(np.abs(w).sum() / 2.0)
    if dist <= 1e-10:
        raise ValueError("state lies inside the hull; no witness exists")
    pos = w > 0
    witness_mat = v[:, pos] @ v[:, pos].conj().T
    witness = HermitianOperator(witness_mat, rho.dims)
    h = family.support(witness_mat)
    eta = 1.0 - h
    eps = float(np.real(np.trace(witness_mat @ rho.matrix))) - h
    if eps <= 0:
        raise ValueError("witness does not separate the state from the hull")
    if alpha is None:
        alpha = eps / 2.0
    if not 0.0 < alpha < eps:
        raise ValueError("need 0 < alpha < eps")
    t = math.ceil((1.0 - eta + alpha) * n)
    t = min(t, n)
    p_pass_rho = 1.0 - eta + eps
    rho_fail = float(1 - binomial_tail(n, p_pass_rho, t))
    hull_pass = float(hull_threshold_value(family, witness, n, t))
    f_val = family.threshold_decay(alpha)
    two_term = math.exp(-n * (eps - alpha) ** 2) + math.exp(-n * f_val / 2.0)
    lhs = _fw_fidelity_hull(
        _kron_power(rho.matrix, n), list(family.product_atoms(n))
    )
    passed = lhs <= two_term + 1e-6
    return FrameworkFidelityReport(
        witness=witness,
        eta=eta,
        eps=eps,
        alpha=alpha,
        threshold=t,
        lhs_fidelity=lhs,
        rho_fail=rho_fail,
        hull_pass=hull_pass,
        two_term_bound=two_term,
        passed=bool(passed),
        params={"family": family.name, "n": n},
    )


def _kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    out = mat
    for _ in range(n - 1):
        out = np.kron(out, mat)
    return out


def _closest_hull_trace_norm(rho: np.ndarray, atoms, iters: int = 800) -> np.ndarray:
    """Approximate trace-norm projection onto a finite-atom hull.

    Warm-started from the exact Frobenius projection (minimum-norm-point
    weights), then polished by projected subgradient steps on the
    trace-norm objective, keeping the best iterate.
    """
    from .separability import _min_norm_weights, _project_simplex

    basis = np.stack([np.asarray(a, dtype=complex).reshape(-1) for a in atoms])
    w = _min_norm_weights(basis - rho.reshape(-1))

    def trace_dist(weights):
        sigma = np.tensordot(weights, basis, axes=(0, 0)).reshape(rho.shape)
        return float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum() / 2.0), sigma

    best_val, best_sigma = trace_dist(w)
    step0 = 0.1
    for it in range(1, iters + 1):
        sigma = np.tensordot(w, basis, axes=(0, 0)).reshape(rho.shape)
        wv, vv = np.linalg.eigh(rho - sigma)
        sign = (vv * np.sign(wv)) @ vv.conj().T
        grad = np.real(basis.conj() @ (-sign).reshape(-1)) / 2.0
        w = _project_simplex(w - (step0 / math.sqrt(it)) * grad)
        val, sig = trace_dist(w)
        if val < best_val:
            best_val, best_sigma = val, sig
    return best_sigma
