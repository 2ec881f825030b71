"""Exact verification of constrained de Finetti reductions.

Every Haar integral appearing in a reduction is evaluated exactly as a Gram
matrix of symmetric-subspace projections, so each inequality turns into a
positive-semidefiniteness check of (bound operator - state) with an explicit
combinatorial prefactor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .measures import fidelity
from .operators import (
    DensityMatrix,
    Dims,
    HermitianOperator,
    KrausChannel,
    _average_permutations,
    _digit_table,
    channel_on_factors,
    check_side,
    haar_state_vector,
    induced_mixed_state,
    min_eigenvalue,
    partial_trace,
    partial_trace_vector,
    qc_dephasing_channel,
    stream,
    symmetric_state_vector,
    tensor_power,
)

__all__ = [
    "ReductionCheck",
    "SampledCheck",
    "ClassicalReductionCheck",
    "check_pinching",
    "constrained_moment",
    "monte_carlo_constrained_moment",
    "check_pure_reduction",
    "check_mixed_reduction",
    "check_integrand_domination",
    "check_fixed_point_reduction",
    "check_classical_reduction",
    "truncated_symmetric_state_vector",
    "check_truncated_ambient_reduction",
    "DEFAULT_GAP_TOL",
]

DEFAULT_GAP_TOL = 1e-9
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ReductionCheck:
    """Outcome of one operator inequality ``rhs - lhs >= -tolerance``."""

    lhs: HermitianOperator
    rhs: HermitianOperator
    gap_min_eig: float
    prefactor: int
    passed: bool
    params: dict
    tolerance: float = DEFAULT_GAP_TOL
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class SampledCheck:
    """Outcome of a per-sample inequality check."""

    margins: np.ndarray
    min_margin: float
    passed: bool
    params: dict
    tolerance: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ClassicalReductionCheck:
    """Pointwise comparison of a symmetric distribution with its bound."""

    weights: np.ndarray
    rhs_diag: np.ndarray
    min_slack: float
    prefactor: int
    printed_prefactor: int
    passed: bool
    params: dict
    tolerance: float


def check_pinching(ops, rho: DensityMatrix, tol: float = DEFAULT_GAP_TOL) -> ReductionCheck:
    """Verify ``sum_ij M_i rho M_j^dag <= r sum_i M_i rho M_i^dag``.

    The operators need not be Hermitian; the gap is the minimum eigenvalue
    of the (Hermitian) difference.
    """
    mats = [np.asarray(m, dtype=complex) for m in ops]
    if not mats:
        raise ValueError("need at least one operator")
    side = rho.dims.size
    for m in mats:
        if m.shape != (side, side):
            raise ValueError(f"operator shape {m.shape} does not match state side {side}")
    r = len(mats)
    diag = sum(m @ rho.matrix @ m.conj().T for m in mats)
    total = sum(mats)
    cross = total @ rho.matrix @ total.conj().T
    gap = min_eigenvalue(r * diag - cross)
    return ReductionCheck(
        lhs=HermitianOperator(cross, rho.dims),
        rhs=HermitianOperator(r * diag, rho.dims),
        gap_min_eig=gap,
        prefactor=r,
        passed=gap >= -tol,
        params={"r": r, "side": side},
        tolerance=tol,
    )


def _require_symmetric_vector(theta: np.ndarray, n: int, d: int) -> None:
    arr = theta.reshape((d,) * n)
    for i in range(n - 1):
        if np.linalg.norm(np.swapaxes(arr, i, i + 1) - arr) > SYMMETRY_TOL:
            raise ValueError("vector is not permutation symmetric")


def _sym_columns(vecs: np.ndarray, m: int, d: int) -> np.ndarray:
    """Columns ``Y[r, :, b] = P_sym^{2m} (vecs[r] (x) e_b)`` of shape
    ``(rows, d^{2m}, d^m)``, without building the projector."""
    dm = d**m
    arr = np.multiply.outer(vecs, np.eye(dm, dtype=complex))
    arr = _average_permutations(arr.reshape((len(vecs),) + (d,) * (2 * m) + (dm,)), 2 * m, (1,))
    return arr.reshape(len(vecs), dm * dm, dm)


def constrained_moment(theta, n: int, d: int) -> HermitianOperator:
    """Exact Haar integral of ``|<theta|psi^n>|^2 |psi><psi|^n``.

    The integral is ``<theta|_1 P_sym^{2n} |theta>_1 / binom(2n+d-1, 2n)``.
    Since ``P = P^dag P``, its ``(a, b)`` entry is the inner product of the
    projected columns ``Y_b = P_sym^{2n} (theta (x) e_b)``, so the moment is
    the Gram matrix ``Y^dag Y`` divided by the binomial; the ``d^{2n}``-side
    projector itself is never built.  The input must be a unit vector in the
    n-copy symmetric subspace.
    """
    theta = np.asarray(theta, dtype=complex).reshape(-1)
    if theta.size != d**n:
        raise ValueError(f"vector length {theta.size} is not {d}^{n}")
    _require_symmetric_vector(theta, n, d)
    check_side(d ** (2 * n), "degree-2n moment operator")
    y = _sym_columns(theta[None, :], n, d)[0]
    out = y.conj().T @ y
    out /= math.comb(2 * n + d - 1, 2 * n)
    return HermitianOperator((out + out.conj().T) / 2.0, Dims((d,) * n))


def monte_carlo_constrained_moment(
    theta, n: int, d: int, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of :func:`constrained_moment` with standard errors.

    Each chunk of up to 2048 Haar states is drawn at once from the stream
    named by the chunk's first sample index.  Returns ``(mean, stderr)``
    where ``stderr`` combines the entrywise standard errors of the real and
    imaginary parts in quadrature.
    """
    theta = np.asarray(theta, dtype=complex).reshape(-1)
    dn = d**n
    mean = np.zeros((dn, dn), dtype=complex)
    sq_re = np.zeros((dn, dn))
    sq_im = np.zeros((dn, dn))
    chunk = 2048
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        rng = stream(seed, "haar_pure", "mc", done)
        psi = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        block = psi
        for _ in range(n - 1):
            block = (block[:, :, None] * psi[:, None, :]).reshape(m, -1)
        w = np.abs(block @ theta.conj()) ** 2
        prod = (block * w[:, None])[:, :, None] * block.conj()[:, None, :]
        mean += prod.sum(axis=0)
        sq_re += (prod.real**2).sum(axis=0)
        sq_im += (prod.imag**2).sum(axis=0)
        done += m
    mean /= samples
    var_re = sq_re / samples - mean.real**2
    var_im = sq_im / samples - mean.imag**2
    stderr = np.sqrt(np.clip(var_re, 0, None) + np.clip(var_im, 0, None)) / math.sqrt(samples)
    return mean, stderr


def check_pure_reduction(theta, n: int, d: int, tol: float = DEFAULT_GAP_TOL, params=None) -> ReductionCheck:
    """PSD check of the pure-state constrained reduction on ``C^d``."""
    theta = np.asarray(theta, dtype=complex).reshape(-1)
    moment = constrained_moment(theta, n, d)
    prefactor = math.comb(n + d - 1, n) ** 3
    rhs = HermitianOperator(prefactor * moment.matrix, moment.dims)
    lhs = HermitianOperator(np.outer(theta, theta.conj()), moment.dims)
    gap = min_eigenvalue(rhs.matrix - lhs.matrix)
    all_params = {"n": n, "d": d}
    all_params.update(params or {})
    return ReductionCheck(
        lhs=lhs,
        rhs=rhs,
        gap_min_eig=gap,
        prefactor=prefactor,
        passed=gap >= -tol,
        params=all_params,
        tolerance=tol,
    )


def check_mixed_reduction(
    n: int,
    d: int,
    seed: int,
    samples: int = 100,
    tol: float = DEFAULT_GAP_TOL,
) -> ReductionCheck:
    """PSD check of the mixed-state constrained reduction.

    Draws a random symmetric purification on ``(H (x) H')^{(x) n}`` with
    ``|H| = |H'| = d``, reduces it to a symmetric state ``rho`` on
    ``H^{(x) n}``, and checks that ``binom(n+d^2-1, n)^3`` times the
    H'-reduced exact moment contraction dominates ``rho``.  The per-sample
    overlap-versus-fidelity domination step is verified on Haar samples.
    """
    d2 = d * d
    theta = symmetric_state_vector(n, d2, seed, "mixed-reduction")
    dims_full = Dims((d, d) * n)
    keep_h = [2 * i for i in range(n)]
    rho = partial_trace_vector(theta, dims_full, keep_h)
    moment = constrained_moment(theta, n, d2).retagged(dims_full)
    reduced = partial_trace(moment, keep_h)
    prefactor = math.comb(n + d2 - 1, n) ** 3
    rhs = HermitianOperator(prefactor * reduced.matrix, reduced.dims)
    gap = min_eigenvalue(rhs.matrix - rho.matrix)

    margins = np.empty(samples)
    for j in range(samples):
        psi = haar_state_vector(d2, seed, "mixed-fid", j)
        v = psi
        for _ in range(n - 1):
            v = np.kron(v, psi)
        overlap = abs(np.vdot(theta, v))
        sigma = partial_trace_vector(psi, Dims((d, d)), [0])
        margins[j] = fidelity(rho, tensor_power(sigma, n)) - overlap
    fid_ok = bool(margins.min() >= -tol)

    return ReductionCheck(
        lhs=rho,
        rhs=rhs,
        gap_min_eig=gap,
        prefactor=prefactor,
        passed=bool(gap >= -tol) and fid_ok,
        params={"n": n, "d": d, "seed": seed, "samples": samples},
        tolerance=tol,
        extras={"fidelity_domination_min_margin": float(margins.min())},
    )


def _copies_of(rho: DensityMatrix, ch: KrausChannel) -> int:
    if len(ch.in_dims) != 1:
        raise ValueError("channel must act on a single factor")
    d = ch.in_dims.size
    if any(f != d for f in rho.dims):
        raise ValueError(f"state factors {rho.dims.factors} are not copies of dim {d}")
    return len(rho.dims)


def check_integrand_domination(
    rho: DensityMatrix,
    ch: KrausChannel,
    tau0: DensityMatrix,
    samples: int = 100,
    delta: float = 0.1,
    seed: int = 0,
    tol: float = DEFAULT_GAP_TOL,
    precondition_tol: float = 1e-8,
) -> SampledCheck:
    """Pointwise step of the product-image reduction.

    Requires ``ch^{(x) n}(rho) = tau0^{(x) n}``; then for induced-measure
    samples ``sigma`` it checks ``F(rho, sigma^n)^2 <= F(tau0, ch(sigma))^{2n}``
    and reports how much sample mass falls inside the fidelity-``delta``
    neighbourhood of ``tau0`` under the channel.
    """
    n = _copies_of(rho, ch)
    mapped = channel_on_factors(ch, rho.op, range(n))
    target = tensor_power(tau0.op, n)
    defect = float(np.linalg.norm(mapped.matrix - target.matrix))
    if defect > precondition_tol:
        raise ValueError(f"channel power of the state is not the target power: {defect:.3e}")
    d = ch.in_dims.size
    margins = np.empty(samples)
    near = 0
    for j in range(samples):
        sigma = induced_mixed_state((d,), seed, "domination", j)
        lhs = fidelity(rho, tensor_power(sigma.op, n)) ** 2
        f_single = fidelity(tau0, channel_on_factors(ch, sigma.op, [0]))
        margins[j] = f_single ** (2 * n) - lhs
        if f_single >= 1.0 - delta:
            near += 1
    return SampledCheck(
        margins=margins,
        min_margin=float(margins.min()),
        passed=bool(margins.min() >= -tol),
        params={"n": n, "d": d, "seed": seed, "samples": samples, "delta": delta},
        tolerance=tol,
        extras={"mass_in_kdelta": near / samples, "mass_out_kdelta": 1.0 - near / samples},
    )


def check_fixed_point_reduction(
    rho: DensityMatrix,
    ch: KrausChannel,
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_GAP_TOL,
    precondition_tol: float = 1e-8,
) -> SampledCheck:
    """Monotonicity step of the fixed-point reduction.

    Requires ``ch^{(x) n}(rho) = rho``; per sample it checks
    ``F(rho, ch(sigma)^n) >= F(rho, sigma^n)``.
    """
    n = _copies_of(rho, ch)
    mapped = channel_on_factors(ch, rho.op, range(n))
    defect = float(np.linalg.norm(mapped.matrix - rho.matrix))
    if defect > precondition_tol:
        raise ValueError(f"state is not a fixed point of the channel power: {defect:.3e}")
    d = ch.in_dims.size
    margins = np.empty(samples)
    for j in range(samples):
        sigma = induced_mixed_state((d,), seed, "fixed-point", j)
        mapped_sigma = channel_on_factors(ch, sigma.op, [0])
        margins[j] = fidelity(rho, tensor_power(mapped_sigma, n)) - fidelity(
            rho, tensor_power(sigma.op, n)
        )
    return SampledCheck(
        margins=margins,
        min_margin=float(margins.min()),
        passed=bool(margins.min() >= -tol),
        params={"n": n, "d": d, "seed": seed, "samples": samples},
        tolerance=tol,
    )


def _classical_vector(weights: np.ndarray, d: int, n: int) -> np.ndarray:
    """Symmetric purification vector of a diagonal symmetric distribution."""
    d2 = d * d
    vec = np.zeros(d2**n, dtype=complex)
    strides = d2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    target = (_digit_table(n, d) * (d + 1)) @ strides
    vec[target] = np.sqrt(weights)
    return vec


def check_classical_reduction(
    weights, d: int, n: int, tol: float = 1e-12
) -> ClassicalReductionCheck:
    """Exact pointwise reduction for a permutation-symmetric distribution.

    The distribution is embedded as a diagonal state, its canonical symmetric
    purification feeds the exact mixed-state bound operator, the operator is
    dephased copywise, and the inequality ``P(x) <= prefactor * diag(x)`` is
    checked for every string ``x``.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != d**n:
        raise ValueError(f"weights length {w.size} is not {d}^{n}")
    if (w < -1e-14).any() or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be a probability distribution")
    w = np.clip(w, 0.0, None)
    arr = w.reshape((d,) * n)
    for i in range(n - 1):
        if np.linalg.norm(np.swapaxes(arr, i, i + 1) - arr) > 1e-12:
            raise ValueError("distribution is not permutation symmetric")

    d2 = d * d
    theta = _classical_vector(w, d, n)
    dims_full = Dims((d, d) * n)
    keep_h = [2 * i for i in range(n)]
    moment = constrained_moment(theta, n, d2).retagged(dims_full)
    reduced = partial_trace(moment, keep_h)
    prefactor = math.comb(n + d2 - 1, n) ** 3
    dephased = channel_on_factors(qc_dephasing_channel(d), reduced, range(n))
    rhs_diag = prefactor * dephased.matrix.diagonal().real
    slack = rhs_diag - w
    return ClassicalReductionCheck(
        weights=w,
        rhs_diag=rhs_diag,
        min_slack=float(slack.min()),
        prefactor=prefactor,
        printed_prefactor=(n + 1) ** (3 * d2),
        passed=bool(slack.min() >= -tol),
        params={"n": n, "d": d},
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# truncated ambient space


def _truncated_multisets(m: int, d: int, big_d: int, min_low: int):
    for combo in itertools.combinations_with_replacement(range(big_d), m):
        if sum(1 for j in combo if j < d) >= min_low:
            yield combo


def truncated_symmetric_state_vector(
    n: int, k: int, d: int, big_d: int, seed: int, *labels
) -> np.ndarray:
    """Random unit vector symmetric on ``n+k`` copies of ``C^D`` with at
    most ``k`` letters outside the distinguished ``C^d`` subspace."""
    m = n + k
    side = big_d**m
    check_side(side, "truncated symmetric vector")
    rng = stream(seed, "truncated", *labels)
    digits_strides = big_d ** np.arange(m - 1, -1, -1, dtype=np.int64)
    vec = np.zeros(side, dtype=complex)
    for combo in _truncated_multisets(m, d, big_d, n):
        coeff = rng.standard_normal() + 1j * rng.standard_normal()
        members = set(itertools.permutations(combo))
        basis = np.zeros(side, dtype=complex)
        for arrangement in members:
            basis[int(np.dot(arrangement, digits_strides))] = 1.0
        vec += coeff * basis / math.sqrt(len(members))
    return vec / np.linalg.norm(vec)


def check_truncated_ambient_reduction(
    n: int,
    k: int,
    d: int,
    big_d: int,
    seed: int,
    tol: float = DEFAULT_GAP_TOL,
    theta: np.ndarray | None = None,
) -> ReductionCheck:
    """PSD check of the truncated-ambient reduction on a finite ambient space.

    The right-hand operator is the subset sum over ``I`` with ``|I| >= n`` of
    exact sphere-moment contractions over the distinguished subspace, with the
    complement factors confined to its orthogonal complement; the printed
    prefactor is ``sum_q binom(n+k, q) * binom(n+d-1, n)^3``.
    """
    if not (0 < d < big_d):
        raise ValueError("need d < D for a proper truncation")
    m = n + k
    side = big_d**m
    check_side(side, "truncated ambient check")
    if theta is None:
        theta = truncated_symmetric_state_vector(n, k, d, big_d, seed)
    theta = np.asarray(theta, dtype=complex).reshape(-1)

    arr = theta.reshape((big_d,) * m)
    index = np.arange(side).reshape((big_d,) * m)
    rhs = np.zeros((side, side), dtype=complex)
    d_perp = big_d - d
    for msize in range(n, m + 1):
        check_side(d ** (2 * msize), "degree-2m moment operator")
        norm = math.comb(2 * msize + d - 1, 2 * msize)
        dm = d**msize
        for subset in itertools.combinations(range(m), msize):
            comp = [i for i in range(m) if i not in subset]
            order = comp + list(subset)
            slicer = tuple(slice(d, big_d) for _ in comp) + tuple(slice(0, d) for _ in subset)
            block = arr.transpose(order)[slicer].reshape(max(d_perp ** len(comp), 1), dm)
            y = _sym_columns(block, msize, d)
            term = np.einsum("vxa,uxb->uavb", y.conj(), y) / norm
            # basis indices of the block's entries, comp digits the slow axis
            rows = index.transpose(order)[slicer].reshape(-1)
            flat = term.reshape(rows.size, rows.size)
            rhs[np.ix_(rows, rows)] += flat

    prefactor = sum(math.comb(m, q) for q in range(k + 1)) * math.comb(n + d - 1, n) ** 3
    rhs = prefactor * (rhs + rhs.conj().T) / 2.0
    lhs = np.outer(theta, theta.conj())
    gap = min_eigenvalue(rhs - lhs)
    dims = Dims((big_d,) * m)
    return ReductionCheck(
        lhs=HermitianOperator(lhs, dims),
        rhs=HermitianOperator(rhs, dims),
        gap_min_eig=gap,
        prefactor=prefactor,
        passed=bool(gap >= -tol),
        params={"n": n, "k": k, "d": d, "D": big_d, "seed": seed},
        tolerance=tol,
    )
