"""Exact verification of constrained de Finetti reductions.

Every Haar integral appearing in a reduction is evaluated exactly as a Gram
matrix of symmetric-subspace projections, taken in the occupation basis, so
each inequality turns into a positive-semidefiniteness check of (bound
operator - state) with an explicit combinatorial prefactor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .measures import _root_fidelities, _sqrtm_psd
from .operators import (
    DensityMatrix,
    Dims,
    HermitianOperator,
    KrausChannel,
    _digit_table,
    _haar_stack,
    _kraus_sum,
    _occupation_table,
    _require_at_least,
    _require_count,
    _symmetric_draw,
    as_dims,
    channel_on_factors,
    check_side,
    ginibre,
    min_eigenvalue,
    partial_trace,
    partial_trace_vector,
    stream,
    symmetric_state_vector,
    tensor_power,
)

__all__ = [
    "ReductionCheck",
    "SampledCheck",
    "ClassicalReductionCheck",
    "check_pinching",
    "check_pinching_stack",
    "constrained_moment",
    "monte_carlo_constrained_moment",
    "check_pure_reduction",
    "check_mixed_reduction",
    "check_integrand_domination",
    "check_fixed_point_reduction",
    "check_classical_reduction",
    "truncated_symmetric_state_vector",
    "check_truncated_ambient_reduction",
    "GAP_TOL",
]

# every PSD and per-sample check passes at margin >= -GAP_TOL, in
# _operator_check or _sampled_check; the classical pointwise check decides at 1e-12
GAP_TOL = 1e-9
# the channel preconditions of the integrand and fixed-point checks hold
# when the Frobenius defect is at most this
PRECONDITION_TOL = 1e-8
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
    tolerance: float
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


def check_pinching(ops, rho: DensityMatrix) -> ReductionCheck:
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
    return check_pinching_stack(np.stack(mats)[None], rho.matrix[None], rho.dims)[0]


def check_pinching_stack(ops: np.ndarray, rhos: np.ndarray, dims) -> list[ReductionCheck]:
    """:func:`check_pinching` for every instance of a stack, with one
    ``eigvalsh`` for all the gaps: instance ``k`` has the ``r`` operators
    ``ops[k]``, of shape ``(r, side, side)``, and the state ``rhos[k]``."""
    r, dims = ops.shape[1], as_dims(dims)
    adj = ops.conj().swapaxes(-1, -2)
    rhs = r * (ops @ rhos[:, None] @ adj).sum(axis=1)
    cross = ops.sum(axis=1) @ rhos @ adj.sum(axis=1)
    gaps = np.linalg.eigvalsh(rhs - cross)[:, 0]
    params = {"r": r, "side": dims.size}
    return [
        _operator_check(HermitianOperator(c, dims), HermitianOperator(b, dims), r, dict(params), gap=float(g))
        for c, b, g in zip(cross, rhs, gaps)
    ]


def _operator_check(lhs, rhs, prefactor: int, params: dict, on=None, gap=None, **extras) -> ReductionCheck:
    """Every operator inequality's verdict: ``rhs - lhs``, or ``on^T (rhs - lhs) on``
    for a real isometry ``on`` onto the subspace where the check is taken, has
    minimum eigenvalue ``gap`` (given by callers that stack the eigensolve) at least ``-GAP_TOL``."""
    if gap is None:
        diff = rhs.matrix - lhs.matrix
        gap = min_eigenvalue(diff if on is None else on.T @ diff @ on)
    return ReductionCheck(lhs, rhs, gap, prefactor, gap >= -GAP_TOL, params, GAP_TOL, extras)


def _sampled_check(margins: np.ndarray, params: dict, **extras) -> SampledCheck:
    """Every per-sample verdict: the least margin is at least ``-GAP_TOL``."""
    low = float(margins.min())
    return SampledCheck(margins, low, low >= -GAP_TOL, params, GAP_TOL, extras)


def _require_symmetric_vector(theta: np.ndarray, n: int, d: int, tol: float = SYMMETRY_TOL) -> None:
    if not np.isfinite(theta).all():
        raise ValueError("vector has a non-finite entry")
    arr = theta.reshape((d,) * n)
    for i in range(n - 1):
        if np.linalg.norm(np.swapaxes(arr, i, i + 1) - arr) > tol:
            raise ValueError(f"input is not permutation symmetric to {tol:g}")


def _sym_isometry(n: int, d: int, kept=slice(None)) -> np.ndarray:
    """``d^n x binom(n+d-1, n)`` isometry ``V`` onto ``Sym^n(C^d)``, or its
    ``kept`` columns: column ``c`` is ``1/sqrt(size)`` on each string of
    occupation class ``c``.  ``V`` is real, so ``V^dag a V = V.T @ a @ V``."""
    label, _, sizes = _occupation_table(n, d)
    ids = np.arange(len(sizes))[kept]
    return np.divide(label[:, None] == ids, np.sqrt(sizes[ids]), dtype=complex)


@functools.lru_cache(maxsize=8)
def _occupation_pairs(m: int, d: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``(pair, coef, r2)`` for the ``Sym^m`` classes ``c, b``: ``pair[c, b]``
    is the ``Sym^{2m}`` class of ``c + b`` (one of ``r2``, each such a sum)
    and ``coef[c, b] = 1 / sqrt(C(c + b))``, ``C`` the class size."""
    _, counts, _ = _occupation_table(m, d)
    r = len(counts)
    sums, pair = np.unique((counts[:, None] + counts.astype(int)).reshape(r * r, d), axis=0, return_inverse=True)
    fact = np.array([math.factorial(j) for j in range(2 * m + 1)], dtype=float)
    coef = np.sqrt(np.prod(fact[sums], axis=1) / fact[2 * m])
    return pair.reshape(r, r), coef[pair].reshape(r, r), len(sums)


def _sym_gram(rows: np.ndarray, m: int, d: int) -> np.ndarray:
    """``G[u, a, v, b] = <rows[v] (x) e_a| P_sym^{2m} |rows[u] (x) e_b>``.

    In the occupation basis ``|S_c> = C(c)^{-1/2} sum_{x in c} |x>``,
    ``P_sym^m e_b = |S_b> / sqrt(C(b))`` and ``P_sym^{2m} (|S_c> (x) |S_b>)
    = sqrt(C(c) C(b) / C(c+b)) |S_{c+b}>``, so ``P_sym^{2m} (row (x) e_b)
    = sum_c s_c / sqrt(C(c+b)) |S_{c+b}>`` with ``s_c`` the row's sum over
    class ``c``.  ``G`` is the Gram matrix of these coordinate vectors,
    expanded from classes to basis indices.  Rows need not be symmetric.
    With ``r``, ``r2`` the class counts of ``Sym^m``, ``Sym^{2m}``, the side cap holds the
    root entry counts of the pair table (``r^2 d``) and of ``z`` (``len(rows) r r2``)."""
    nrows, r = len(rows), math.comb(m + d - 1, m)
    check_side(math.isqrt(max(r * r * d, nrows * r * math.comb(2 * m + d - 1, 2 * m))), "occupation Gram")
    label, _, _ = _occupation_table(m, d)
    pair, coef, r2 = _occupation_pairs(m, d)
    sums = np.zeros((nrows, r), dtype=complex)
    np.add.at(sums, (slice(None), label), rows)
    # for a fixed class b, c -> c+b is injective: the scatter has no collisions
    z = np.zeros((nrows, r, r2), dtype=complex)
    z[:, np.arange(r), pair] = sums[:, :, None] * coef
    g = np.tensordot(z.conj(), z, axes=(2, 2)).transpose(2, 1, 0, 3)
    return g[:, label][:, :, :, label]


def constrained_moment(theta, n: int, d: int) -> HermitianOperator:
    """Exact Haar integral of ``|<theta|psi^n>|^2 |psi><psi|^n``.

    The integral is ``<theta|_1 P_sym^{2n} |theta>_1 / binom(2n+d-1, 2n)``.
    Since ``P = P^dag P``, it is the Gram matrix of the projected columns
    ``P_sym^{2n} (theta (x) e_b)``, taken in the occupation basis of
    ``Sym^{2n}`` (:func:`_sym_gram`) and divided by the binomial.  The input
    must be a unit vector in the n-copy symmetric subspace.  The side cap
    holds the dense output, of side ``d^n``, and the occupation-basis
    intermediates of :func:`_sym_gram`, which outgrow it for large ``d``.
    """
    theta = np.asarray(theta, dtype=complex).reshape(-1)
    if theta.size != d**n:
        raise ValueError(f"vector length {theta.size} is not {d}^{n}")
    _require_symmetric_vector(theta, n, d)
    check_side(d**n, "moment operator")
    out = _sym_gram(theta[None, :], n, d)[0, :, 0]
    out /= math.comb(2 * n + d - 1, 2 * n)
    return HermitianOperator((out + out.conj().T) / 2.0, Dims((d,) * n))


def _vector_powers(psi: np.ndarray, n: int) -> np.ndarray:
    """Row ``j`` is ``psi[j]^{(x) n}``, by broadcast outer products in ``np.kron`` order."""
    power = psi
    for _ in range(n - 1):
        power = (power[:, :, None] * psi[:, None, :]).reshape(len(psi), -1)
    return power


def monte_carlo_constrained_moment(
    theta, n: int, d: int, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of :func:`constrained_moment` with standard errors.

    Each chunk of up to 2048 Haar states is drawn at once from the stream
    named by the chunk's first sample index.  Returns ``(mean, stderr)``
    where ``stderr`` combines the entrywise standard errors of the real and
    imaginary parts in quadrature.
    """
    _require_count(1, samples=samples)
    theta = np.asarray(theta, dtype=complex).reshape(-1)
    if not np.isfinite(theta).all():
        raise ValueError("vector has a non-finite entry")
    dn = d**n
    mean = np.zeros((dn, dn), dtype=complex)
    sq_re = np.zeros((dn, dn))
    sq_im = np.zeros((dn, dn))
    chunk = 2048
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        psi = ginibre(stream(seed, "haar_pure", "mc", done), (m, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        block = _vector_powers(psi, n)
        w = np.abs(block @ theta.conj()) ** 2
        # sample s adds x x^dag with x = sqrt(w_s) b_s = R + iI: real part
        # R_i R_j + I_i I_j, imaginary part I_i R_j - R_i I_j, so the sums of
        # their squares are Gram products of R^2, I^2 and RI, with no m x d^n x d^n array
        x = block * np.sqrt(w)[:, None]
        mean += x.T @ x.conj()
        r2, i2, ri = x.real**2, x.imag**2, x.real * x.imag
        cross = 2.0 * (ri.T @ ri)
        sq_re += r2.T @ r2 + i2.T @ i2 + cross
        sq_im += i2.T @ r2 + r2.T @ i2 - cross
        done += m
    mean /= samples
    var_re = sq_re / samples - mean.real**2
    var_im = sq_im / samples - mean.imag**2
    stderr = np.sqrt(np.clip(var_re, 0, None) + np.clip(var_im, 0, None)) / math.sqrt(samples)
    return mean, stderr


def check_pure_reduction(theta, n: int, d: int) -> ReductionCheck:
    """PSD check of the pure-state constrained reduction on ``C^d``; both
    sides vanish off ``Sym^n``, so the gap is the margin on ``Sym^n``."""
    theta = np.asarray(theta, dtype=complex).reshape(-1)
    moment = constrained_moment(theta, n, d)
    prefactor = math.comb(n + d - 1, n) ** 3
    rhs = HermitianOperator(prefactor * moment.matrix, moment.dims)
    lhs = HermitianOperator(np.outer(theta, theta.conj()), moment.dims)
    return _operator_check(lhs, rhs, prefactor, {"n": n, "d": d}, on=_sym_isometry(n, d))


def _h_reduced_bound(theta: np.ndarray, n: int, d: int) -> tuple[HermitianOperator, int]:
    """H'-reduced exact moment of a purification ``theta`` on ``(H (x) H')^{(x) n}``,
    ``|H| = |H'| = d``, and its prefactor ``binom(n+d^2-1, n)^3``."""
    moment = constrained_moment(theta, n, d * d).retagged(Dims((d, d) * n))
    return partial_trace(moment, range(0, 2 * n, 2)), math.comb(n + d * d - 1, n) ** 3


def _product_fidelities(root: np.ndarray, sigmas: np.ndarray, n: int) -> np.ndarray:
    """``F(rho, sigma_j^{(x) n})`` for a ``(samples, d, d)`` stack, given ``root = sqrt(rho)``:
    powers by broadcast outer products in ``np.kron`` order, one stacked ``eigvalsh`` per block."""
    samples, d, _ = sigmas.shape
    check_side(d**n, "tensor product")
    step = max(1, 2**18 // d ** (2 * n))  # at most 2^18 entries (4 MB) per stacked power
    if samples > step:
        return np.concatenate([_product_fidelities(root, sigmas[lo : lo + step], n) for lo in range(0, samples, step)])
    power = sigmas
    for k in range(2, n + 1):
        power = (power[:, :, None, :, None] * sigmas[:, None, :, None, :]).reshape(samples, d**k, d**k)
    inner = root @ power @ root
    return _root_fidelities((inner + inner.conj().transpose(0, 2, 1)) / 2.0)


def check_mixed_reduction(n: int, d: int, seed: int, samples: int = 100) -> ReductionCheck:
    """PSD check of the mixed-state constrained reduction.

    Draws a random symmetric purification on ``(H (x) H')^{(x) n}`` with
    ``|H| = |H'| = d``, reduces it to a symmetric state ``rho`` on
    ``H^{(x) n}``, and checks that ``binom(n+d^2-1, n)^3`` times the
    H'-reduced exact moment contraction dominates ``rho``.  The per-sample
    overlap-versus-fidelity domination step is verified on Haar samples.
    ``rho`` is permutation invariant but not Bose symmetric, so the PSD gap
    is taken on the full space ``H^{(x) n}``.
    """
    _require_count(1, samples=samples)
    d2 = d * d
    theta = symmetric_state_vector(n, d2, seed, "mixed-reduction")
    rho = partial_trace_vector(theta, Dims((d, d) * n), range(0, 2 * n, 2))
    reduced, prefactor = _h_reduced_bound(theta, n, d)
    rhs = HermitianOperator(prefactor * reduced.matrix, reduced.dims)
    params = {"n": n, "d": d, "seed": seed, "samples": samples}

    psi, sigmas = _haar_stack(d, samples, seed, "mixed-fid")
    margins = _product_fidelities(_sqrtm_psd(rho.matrix), sigmas, n) - np.abs(_vector_powers(psi, n) @ theta.conj())
    fid = _sampled_check(margins, params)
    check = _operator_check(rho, rhs, prefactor, params, fidelity_domination_min_margin=fid.min_margin)
    return replace(check, passed=check.passed and fid.passed)


def _copies_of(rho: DensityMatrix, ch: KrausChannel) -> int:
    if len(ch.in_dims) != 1:
        raise ValueError("channel must act on a single factor")
    d = ch.in_dims.size
    if any(f != d for f in rho.dims):
        raise ValueError(f"state factors {rho.dims.factors} are not copies of dim {d}")
    return len(rho.dims)


def _require_image(ch: KrausChannel, rho: DensityMatrix, target: HermitianOperator, what: str) -> None:
    """Raise unless ``ch`` on every factor maps ``rho`` to ``target`` within ``PRECONDITION_TOL``."""
    mapped = channel_on_factors(ch, rho.op, range(len(rho.dims)))
    defect = float(np.linalg.norm(mapped.matrix - target.matrix))
    if defect > PRECONDITION_TOL:
        raise ValueError(f"{what}: {defect:.3e}")


def check_integrand_domination(
    rho: DensityMatrix,
    ch: KrausChannel,
    tau0: DensityMatrix,
    samples: int = 100,
    delta: float = 0.1,
    seed: int = 0,
) -> SampledCheck:
    """Pointwise step of the product-image reduction.

    Requires ``ch^{(x) n}(rho) = tau0^{(x) n}``; then for induced-measure
    samples ``sigma`` it checks ``F(rho, sigma^n)^2 <= F(tau0, ch(sigma))^{2n}``
    and reports how much sample mass falls inside the fidelity-``delta``
    neighbourhood of ``tau0`` under the channel.
    """
    _require_count(1, samples=samples)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    n = _copies_of(rho, ch)
    if tau0.dims.size != ch.out_dims.size:
        raise ValueError(f"target side {tau0.dims.size} is not the channel output side {ch.out_dims.size}")
    _require_image(ch, rho, tensor_power(tau0.op, n), "channel power of the state is not the target power")
    d = ch.in_dims.size
    _, sigmas = _haar_stack(d, samples, seed, "domination", induced=True)
    f_single = _product_fidelities(_sqrtm_psd(tau0.matrix), _kraus_sum(ch, sigmas), 1)
    margins = f_single ** (2 * n) - _product_fidelities(_sqrtm_psd(rho.matrix), sigmas, n) ** 2
    near = int((f_single >= 1.0 - delta).sum())
    params = {"n": n, "d": d, "seed": seed, "samples": samples, "delta": delta}
    return _sampled_check(margins, params, mass_in_kdelta=near / samples, mass_out_kdelta=1.0 - near / samples)


def check_fixed_point_reduction(
    rho: DensityMatrix,
    ch: KrausChannel,
    samples: int = 100,
    seed: int = 0,
) -> SampledCheck:
    """Monotonicity step of the fixed-point reduction.

    Requires ``ch^{(x) n}(rho) = rho``; per sample it checks
    ``F(rho, ch(sigma)^n) >= F(rho, sigma^n)``.
    """
    _require_count(1, samples=samples)
    n = _copies_of(rho, ch)
    _require_image(ch, rho, rho, "state is not a fixed point of the channel power")
    d = ch.in_dims.size
    _, sigmas = _haar_stack(d, samples, seed, "fixed-point", induced=True)
    root = _sqrtm_psd(rho.matrix)
    margins = _product_fidelities(root, _kraus_sum(ch, sigmas), n) - _product_fidelities(root, sigmas, n)
    return _sampled_check(margins, {"n": n, "d": d, "seed": seed, "samples": samples})


def _classical_vector(weights: np.ndarray, d: int, n: int) -> np.ndarray:
    """Symmetric purification vector of a diagonal symmetric distribution."""
    d2 = d * d
    vec = np.zeros(d2**n, dtype=complex)
    strides = d2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    target = (_digit_table(n, d) * (d + 1)) @ strides
    vec[target] = np.sqrt(weights)
    return vec


def check_classical_reduction(weights, d: int, n: int) -> ClassicalReductionCheck:
    """Exact pointwise reduction for a permutation-symmetric distribution.

    The distribution is embedded as a diagonal state, its canonical symmetric
    purification feeds the exact mixed-state bound operator, and the
    inequality ``P(x) <= prefactor * diag(x)`` is checked for every string
    ``x`` on the operator's diagonal (which copywise dephasing leaves as is).
    """
    _require_at_least(1, n=n, d=d)
    check_side((d * d) ** n, "classical purification")
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != d**n:
        raise ValueError(f"weights length {w.size} is not {d}^{n}")
    if not ((w >= -1e-14).all() and abs(w.sum() - 1.0) <= 1e-12):
        raise ValueError("weights must be a probability distribution")
    w = np.clip(w, 0.0, None)
    _require_symmetric_vector(w, n, d, tol=1e-12)

    reduced, prefactor = _h_reduced_bound(_classical_vector(w, d, n), n, d)
    rhs_diag = prefactor * reduced.matrix.diagonal().real
    slack = rhs_diag - w
    tol = 1e-12
    return ClassicalReductionCheck(
        weights=w,
        rhs_diag=rhs_diag,
        min_slack=float(slack.min()),
        prefactor=prefactor,
        printed_prefactor=(n + 1) ** (3 * d * d),
        passed=bool(slack.min() >= -tol),
        params={"n": n, "d": d},
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# truncated ambient space


def _kept_classes(m: int, n: int, d: int, big_d: int) -> np.ndarray:
    """Mask of the occupation classes of ``Sym^m(C^D)`` with at least ``n``
    letters in the distinguished ``C^d``."""
    _, counts, _ = _occupation_table(m, big_d)
    return counts[:, :d].sum(axis=1) >= n


def truncated_symmetric_state_vector(
    n: int, k: int, d: int, big_d: int, seed: int, *labels
) -> np.ndarray:
    """Random unit vector symmetric on ``n+k`` copies of ``C^D`` with at
    most ``k`` letters outside the distinguished ``C^d`` subspace."""
    check_side(big_d ** (n + k), "truncated symmetric vector")
    return _symmetric_draw(stream(seed, "truncated", *labels), n + k, big_d, _kept_classes(n + k, n, d, big_d))


def check_truncated_ambient_reduction(
    n: int,
    k: int,
    d: int,
    big_d: int,
    seed: int,
    theta: np.ndarray | None = None,
) -> ReductionCheck:
    """PSD check of the truncated-ambient reduction on a finite ambient space.

    The right-hand operator is the subset sum over ``I`` with ``|I| >= n`` of
    exact sphere-moment contractions over the distinguished subspace, with the
    complement factors confined to its orthogonal complement; the printed
    prefactor is ``sum_q binom(n+k, q) * binom(n+d-1, n)^3``.

    A given ``theta`` must be symmetric with at most ``k`` letters outside
    ``C^d``.  Both sides then commute with permutations and vanish off those
    classes of ``Sym^m``, so ``lhs`` and ``rhs`` are operators on them, in the
    coordinates of the kept columns of the ``Sym^m`` isometry.  There every
    subset of size ``s`` gives the same term: one :func:`_sym_gram` per size.
    """
    _require_at_least(1, n=n, d=d)
    _require_at_least(0, k=k)
    if d >= big_d:
        raise ValueError("need d < D for a proper truncation")
    m = n + k
    check_side(big_d**m, "truncated ambient check")
    kept = _kept_classes(m, n, d, big_d)
    if theta is None:
        theta = truncated_symmetric_state_vector(n, k, d, big_d, seed)
    else:
        theta = np.asarray(theta, dtype=complex).reshape(-1)
        _require_symmetric_vector(theta, m, big_d)
        if np.linalg.norm(theta[~kept[_occupation_table(m, big_d)[0]]]) > SYMMETRY_TOL:
            raise ValueError(f"vector has weight on strings with more than {k} letters outside C^{d}")

    iso = _sym_isometry(m, big_d, kept)
    arr, index = theta.reshape((big_d,) * m), np.arange(big_d**m).reshape((big_d,) * m)
    rhs = np.zeros((iso.shape[1],) * 2, dtype=complex)
    for s in range(n, m + 1):
        # complement letters on the first m - s slots, C^d letters on the last s
        slicer = (slice(d, None),) * (m - s) + (slice(0, d),) * s
        on = iso[index[slicer].reshape(-1)]
        term = _sym_gram(arr[slicer].reshape(-1, d**s), s, d).reshape(len(on), len(on))
        rhs += on.T @ (term * (math.comb(m, s) / math.comb(2 * s + d - 1, 2 * s))) @ on
    prefactor = sum(math.comb(m, q) for q in range(k + 1)) * math.comb(n + d - 1, n) ** 3
    amp = iso.T @ theta
    dims = Dims((len(amp),))
    rhs = HermitianOperator(prefactor * (rhs + rhs.conj().T) / 2.0, dims)
    params = {"n": n, "k": k, "d": d, "D": big_d, "seed": seed}
    return _operator_check(HermitianOperator(np.outer(amp, amp.conj()), dims), rhs, prefactor, params)
