"""Support functions and distances relative to separable and extendible sets.

The separable set enters only through its pure-product extreme points, so a
seesaw over local top eigenvectors serves as the linear maximization oracle
for everything here: lower bounds on the separability support function,
Frank-Wolfe maximization of fidelity to the separable set, a Gilbert-style
upper bound on the 2-norm distance, and a fixed-POVM upper bound on the
measured fidelity.  The q-extendible support function needs no optimizer at
all; it is an exact top eigenvalue of a one-sided twirl.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .measures import Povm, classical_fidelity, fidelity, outcome_distribution
from .operators import (
    DensityMatrix,
    Dims,
    HermitianOperator,
    b_side_twirl,
    check_side,
    max_side,
    permute_factors,
    stream,
)

__all__ = [
    "BipartiteCut",
    "SeesawResult",
    "QExtResult",
    "CertifiedInterval",
    "MixtureResult",
    "MeasuredUpperResult",
    "hsep_seesaw",
    "hqext",
    "hsep_certified_interval",
    "max_fidelity_to_sep",
    "hs_distance_to_sep",
    "measured_fidelity_to_sep_upper",
    "product_povm",
    "pauli_tomography_povm",
    "certificate_to_json",
    "recheck_certificate",
]

CONTRACTION_TOL = 1e-10
SEESAW_STOP = 1e-12


@dataclass(frozen=True)
class BipartiteCut:
    """Disjoint split of the tensor factors into an A group and a B group."""

    a_factors: tuple[int, ...]
    b_factors: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(i) for i in self.a_factors)
        b = tuple(int(i) for i in self.b_factors)
        if set(a) & set(b):
            raise ValueError("cut groups overlap")
        if not a or not b:
            raise ValueError("both sides of the cut must be nonempty")
        object.__setattr__(self, "a_factors", a)
        object.__setattr__(self, "b_factors", b)

    def validate(self, dims: Dims) -> None:
        if sorted(self.a_factors + self.b_factors) != list(range(len(dims))):
            raise ValueError(
                f"cut {self.a_factors}|{self.b_factors} does not cover {len(dims)} factors"
            )

    @classmethod
    def halves(cls, nfactors: int) -> "BipartiteCut":
        if nfactors < 2 or nfactors % 2:
            raise ValueError("halves cut needs an even factor count")
        h = nfactors // 2
        return cls(tuple(range(h)), tuple(range(h, nfactors)))

    def power(self, n: int, factors_per_copy: int) -> "BipartiteCut":
        """The regrouped cut ``A^n : B^n`` for ``n`` concatenated copies."""
        a = tuple(c * factors_per_copy + i for c in range(n) for i in self.a_factors)
        b = tuple(c * factors_per_copy + i for c in range(n) for i in self.b_factors)
        return BipartiteCut(a, b)


def _regroup(op: HermitianOperator, cut: BipartiteCut):
    """Matrix of ``op`` with factors reordered to (A group, B group)."""
    cut.validate(op.dims)
    reordered = permute_factors(op, list(cut.a_factors) + list(cut.b_factors))
    da = math.prod(op.dims[i] for i in cut.a_factors)
    db = math.prod(op.dims[i] for i in cut.b_factors)
    return reordered.matrix, da, db


@dataclass(frozen=True, eq=False)
class SeesawResult:
    value: float
    a_vec: np.ndarray
    b_vec: np.ndarray
    iterations: int
    restarts: int
    seed: int
    converged: bool


@dataclass(frozen=True, eq=False)
class QExtResult:
    value: float
    q: int
    witness_vec: np.ndarray


@dataclass(frozen=True, eq=False)
class CertifiedInterval:
    lower: float
    upper: float
    q_used: int
    delta_certified: float
    delta_extension_distance: float
    per_q_upper: dict


@dataclass(frozen=True, eq=False)
class MixtureResult:
    """Value plus an explicit separable mixture certifying it."""

    value: float
    atoms: tuple
    weights: np.ndarray
    iterations: int
    converged: bool
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class MeasuredUpperResult:
    upper: float
    lower: float
    duality_gap: float
    iterations: int


def _top_eigpair(mat: np.ndarray) -> tuple[float, np.ndarray]:
    w, v = np.linalg.eigh(mat)
    vec = v[:, -1]
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return float(w[-1]), vec * phase.conjugate()


def _top_eigpairs(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_top_eigpair`` over a stack ``(R, n, n)``: one batched ``eigh``, and
    each top eigenvector rotated so its largest-magnitude entry is real and
    positive."""
    w, v = np.linalg.eigh(mats)
    vecs = v[:, :, -1]
    k = np.argmax(np.abs(vecs), axis=1)
    pivot = vecs[np.arange(len(vecs)), k]
    return w[:, -1], vecs * (pivot / np.abs(pivot)).conj()[:, None]


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _outer_rows(x: np.ndarray) -> np.ndarray:
    """Row ``r`` is ``conj(x[r]) (x) x[r]`` flattened: the ``(R, n*n)`` stack
    that contracts a vectorized ``n x n`` block."""
    return (x.conj()[:, :, None] * x[:, None, :]).reshape(len(x), -1)


def _seesaw_product_max(
    matrix: np.ndarray,
    da: int,
    db: int,
    restarts: int,
    max_iters: int,
    seed: int,
    initial_points=(),
) -> SeesawResult:
    """Best product-state overlap ``<ab|M|ab>`` found by alternating eigensteps.

    Works for any Hermitian ``M``; the value sequence is non-decreasing per
    iteration.  All starts (``initial_points`` first, then ``restarts``
    seeded ones) run in lock-step: each half-step is one matrix product for
    the local contractions of every active start and one stacked ``eigh``.
    A start stops on its own once its value gains less than ``SEESAW_STOP``;
    ``iterations`` sums the per-start counts.  Ties between starts resolve to
    the lowest index.
    """
    starts = [(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)) for a, b in initial_points]
    for r in range(restarts):
        rng = stream(seed, "seesaw-restart", r)
        starts.append((_random_unit(rng, da), _random_unit(rng, db)))
    A = np.stack([a / np.linalg.norm(a) for a, _ in starts])
    B = np.stack([b / np.linalg.norm(b) for _, b in starts])
    m4 = matrix.reshape(da, db, da, db)
    # KA[(a, c), (i, j)] = KB[(i, j), (a, c)] = M[(a, i), (c, j)], so that
    # <b|M|b> = KA @ vec(conj(b) (x) b) and <a|M|a> = KB @ vec(conj(a) (x) a)
    ka_t = m4.transpose(0, 2, 1, 3).reshape(da * da, db * db).T
    kb_t = m4.transpose(1, 3, 0, 2).reshape(db * db, da * da).T
    n = len(starts)
    values = np.full(n, -np.inf)
    iters = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(max_iters):
        iters[active] += 1
        _, A[active] = _top_eigpairs((_outer_rows(B[active]) @ ka_t).reshape(-1, da, da))
        new, B[active] = _top_eigpairs((_outer_rows(A[active]) @ kb_t).reshape(-1, db, db))
        done = new - values[active] < SEESAW_STOP
        values[active] = np.where(done, np.maximum(values[active], new), new)
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    best = 0
    for r in range(1, n):
        if values[r] > values[best] + 1e-15:
            best = r
    a, b = A[best], B[best]
    value = float(np.real(np.vdot(np.kron(a, b), matrix @ np.kron(a, b))))
    return SeesawResult(
        value=value,
        a_vec=a,
        b_vec=b,
        iterations=int(iters.sum()),
        restarts=n,
        seed=seed,
        converged=bool(converged[best]),
    )


def _require_contraction(matrix: np.ndarray) -> np.ndarray:
    """Raise unless ``0 <= matrix <= 1`` within ``CONTRACTION_TOL``; return
    the ascending spectrum."""
    w = np.linalg.eigvalsh(matrix)
    if w[0] < -CONTRACTION_TOL or w[-1] > 1.0 + CONTRACTION_TOL:
        raise ValueError(f"operator must satisfy 0 <= M <= 1: spectrum [{w[0]:.3e}, {w[-1]:.3e}]")
    return w


def hsep_seesaw(
    m: HermitianOperator,
    cut: BipartiteCut,
    restarts: int = 32,
    max_iters: int = 200,
    seed: int = 0,
    initial_points=(),
) -> SeesawResult:
    """Seesaw lower bound on the separability support function of ``m``.

    Alternates exact local updates: with ``b`` fixed the optimal ``a`` is the
    top eigenvector of the contraction ``<b|M|b>``, and symmetrically.  All
    restarts run in lock-step and ties between them go to the lowest index
    (``initial_points`` come first).  The reported value is re-evaluated
    from the returned vectors.  Requires ``0 <= M <= 1``.
    """
    matrix, da, db = _regroup(m, cut)
    _require_contraction(matrix)
    return _seesaw_product_max(matrix, da, db, restarts, max_iters, seed, initial_points)


def hqext(m: HermitianOperator, cut: BipartiteCut, q: int) -> QExtResult:
    """Exact support function of the q-extendible set at ``m``.

    Equals the top eigenvalue of the B-side twirl of ``M (x) 1^{q-1}``: the
    linear objective over B-permutation-invariant states is maximized on the
    top eigenspace of the twirled operator, and the twirl of that eigenstate
    reduces to a q-extendible state on A(x)B.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    matrix, da, db = _regroup(m, cut)
    _require_contraction(matrix)
    return _hqext_regrouped(matrix, da, db, q)


def _hqext_regrouped(matrix: np.ndarray, da: int, db: int, q: int) -> QExtResult:
    """``hqext`` on a matrix already regrouped to (A, B) and checked."""
    check_side(da * db**q, "q-extension space")
    value, vec = _top_eigpair(_b_twirled_extension(matrix, da, db, q))
    return QExtResult(value=float(value), q=q, witness_vec=vec)


def _b_twirled_extension(matrix: np.ndarray, da: int, db: int, q: int) -> np.ndarray:
    """B-side twirl of ``M (x) 1^{q-1}`` on ``A (x) B^q``, as a matrix."""
    ext = np.kron(matrix, np.eye(db ** (q - 1)))
    return b_side_twirl(HermitianOperator(ext, Dims((da,) + (db,) * q)), q).matrix


def hsep_certified_interval(
    m: HermitianOperator,
    cut: BipartiteCut,
    q_max: int = 3,
    restarts: int = 32,
    max_iters: int = 200,
    seed: int = 0,
) -> CertifiedInterval:
    """Two-sided bracket of the separability support function.

    The lower end is the best seesaw value, the upper end the smallest
    q-extendible value over ``q <= q_max``.  ``delta_certified = 1 - upper``
    is the certified test slack; ``delta_extension_distance`` applies the extendibility
    distance bound ``2 d^2 / q`` to the lower end as looser metadata.
    """
    seesaw = hsep_seesaw(m, cut, restarts=restarts, max_iters=max_iters, seed=seed)
    return _interval_from_seesaw(m, cut, q_max, seesaw)


def _interval_from_seesaw(
    m: HermitianOperator, cut: BipartiteCut, q_max: int, seesaw: SeesawResult
) -> CertifiedInterval:
    """``hsep_certified_interval`` around a seesaw result already computed for
    ``(m, cut)``; that call has checked ``0 <= M <= 1``, so it is not
    repeated here."""
    matrix, da, db = _regroup(m, cut)
    per_q = {q: _hqext_regrouped(matrix, da, db, q).value for q in range(1, q_max + 1)}
    q_used = min(per_q, key=lambda q: (per_q[q], q))
    upper = per_q[q_used]
    lower = seesaw.value
    d = max(da, db)
    return CertifiedInterval(
        lower=lower,
        upper=upper,
        q_used=q_used,
        delta_certified=1.0 - upper,
        delta_extension_distance=1.0 - lower - 2.0 * d * d / q_used,
        per_q_upper=per_q,
    )


# ---------------------------------------------------------------------------
# Frank-Wolfe / Gilbert machinery over the separable hull


def _atom_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    v = np.kron(a, b)
    return np.outer(v, v.conj())


def _identity_atoms(da: int, db: int):
    """The product basis: its uniform mixture is ``I / (da db)``."""
    return [(ea, eb) for ea in np.eye(da, dtype=complex) for eb in np.eye(db, dtype=complex)]


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _fidelity_gradient(rho_sqrt: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Derivative of ``sigma -> F(rho, sigma)``; PSD Hermitian.

    The boundary is regularized by ``1e-12 * I`` before differentiating and
    the inverse square root is taken on the support only.
    """
    dim = sigma.shape[0]
    x = rho_sqrt @ (sigma + 1e-12 * np.eye(dim)) @ rho_sqrt
    w, v = np.linalg.eigh((x + x.conj().T) / 2.0)
    inv = np.where(w > 1e-14, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
    mid = (v * inv) @ v.conj().T
    g = 0.5 * rho_sqrt @ mid @ rho_sqrt
    return (g + g.conj().T) / 2.0


def _golden_max(f, lo: float = 0.0, hi: float = 1.0, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximization of a unimodal scalar function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    candidates = [(f(lo), lo), (fc, c), (fd, d), (f(hi), hi)]
    best = max(candidates, key=lambda p: p[0])
    return best[1], best[0]


def _fw_fidelity(matrix: np.ndarray, atoms, lmo, iters: int, stop_gain: float) -> MixtureResult:
    """Frank-Wolfe maximization of ``sigma -> F(matrix, sigma)`` over a hull.

    Starts at the uniform mixture of ``atoms``, ``(label, atom_matrix)``
    pairs; in round ``it`` the oracle ``lmo(grad, it)`` returns the pair
    maximizing ``<grad, atom>``, mixed in by golden-section line search.
    Converged once the linearized or the line-search gain is at most
    ``stop_gain``.  The result's ``atoms`` are labels.
    """
    rho_sqrt = _sqrt_psd(matrix)
    labels = [label for label, _ in atoms]
    weights = [1.0 / len(atoms)] * len(atoms)
    sigma = sum(atom for _, atom in atoms) / len(atoms)
    value = fidelity(matrix, sigma)
    it = 0
    converged = False
    for it in range(1, iters + 1):
        grad = _fidelity_gradient(rho_sqrt, sigma)
        label, atom = lmo(grad, it)
        if float(np.real(np.trace(grad @ (atom - sigma)))) <= stop_gain:
            converged = True
            break
        t_best, f_best = _golden_max(lambda t: fidelity(matrix, (1.0 - t) * sigma + t * atom))
        if f_best <= value + stop_gain:
            converged = True
            break
        sigma = (1.0 - t_best) * sigma + t_best * atom
        weights = [w * (1.0 - t_best) for w in weights]
        weights.append(t_best)
        labels.append(label)
        value = f_best
    keep = [i for i, w in enumerate(weights) if w > 1e-15]
    weights = np.array([weights[i] for i in keep])
    return MixtureResult(
        value=float(value),
        atoms=tuple(labels[i] for i in keep),
        weights=weights / weights.sum(),
        iterations=it,
        converged=converged,
    )


def max_fidelity_to_sep(
    rho: DensityMatrix,
    cut: BipartiteCut,
    iters: int = 200,
    seed: int = 0,
    restarts: int = 8,
    stop_gain: float = 1e-12,
) -> MixtureResult:
    """Frank-Wolfe lower bound on the fidelity between ``rho`` and the
    separable set across ``cut``.

    The concave objective ``sigma -> F(rho, sigma)`` is maximized over the
    separable hull from ``I/dim``: each step maximizes the gradient over
    pure products by seesaw (seed ``seed + it`` in round ``it``) and mixes
    the new atom in by exact golden-section line search.  The returned
    mixture is separable by construction and re-evaluates to the reported
    value.
    """
    matrix, da, db = _regroup(rho.op, cut)

    def lmo(grad, it):
        step = _seesaw_product_max(grad, da, db, restarts, 200, seed + it)
        return (step.a_vec, step.b_vec), _atom_matrix(step.a_vec, step.b_vec)

    start = [((a, b), _atom_matrix(a, b)) for a, b in _identity_atoms(da, db)]
    res = _fw_fidelity(matrix, start, lmo, iters, stop_gain)
    return replace(res, extras={"da": da, "db": db})


def _project_simplex(w: np.ndarray) -> np.ndarray:
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, w.size + 1)
    cond = u - css / idx > 0
    rho_idx = idx[cond][-1]
    theta = css[cond][-1] / rho_idx
    return np.clip(w - theta, 0.0, None)


def _min_norm_weights(points: np.ndarray) -> np.ndarray:
    """Simplex weights ``w`` minimizing ``||w @ points||`` over the rows.

    Wolfe's minimum-norm-point method (Math. Programming 11, 1976): the
    corral grows by the point least correlated with ``x = w @ points``;
    its affine minimum-norm point is a least-squares solve on differences
    (no Gram matrix, so repeated or affinely dependent points are fine),
    stepping back and dropping points while an affine weight is not
    positive.  Stops at ``min_j <p_j, x> >= ||x||^2 - 1e-14 max_j ||p_j||^2``
    or when rounding stalls the descent.
    """
    pts = np.concatenate([points.real, points.imag], axis=1) if np.iscomplexobj(points) else points
    sq = (pts * pts).sum(axis=1)
    tol = 1e-14 * max(float(sq.max()), 1e-300)
    corral = [int(np.argmin(sq))]
    lam = np.ones(1)
    for _ in range(8 * len(pts) + 8):
        x = lam @ pts[corral]
        corr = pts @ x
        norm2 = x @ x
        j = int(np.argmin(corr))
        if corr[j] >= norm2 - tol or j in corral:
            break
        prev = corral, lam
        corral, lam = corral + [j], np.append(lam, 0.0)
        while True:
            base = pts[corral[0]]
            rest = np.linalg.lstsq((pts[corral[1:]] - base).T, -base, rcond=None)[0]
            mu = np.concatenate([[1.0 - rest.sum()], rest])
            if (mu > 0).all():
                lam = mu
                break
            neg = np.flatnonzero(mu <= 0)
            ratios = lam[neg] / np.maximum(lam[neg] - mu[neg], 1e-300)
            lam = lam + ratios.min() * (mu - lam)
            lam[neg[np.argmin(ratios)]] = 0.0
            stay = lam > 0
            corral = [c for c, keep in zip(corral, stay) if keep]
            lam = lam[stay] / lam[stay].sum()
        x = lam @ pts[corral]
        if x @ x >= norm2:
            corral, lam = prev
            break
    weights = np.zeros(len(pts))
    weights[corral] = lam
    return weights


def hs_distance_to_sep(
    sigma: DensityMatrix,
    cut: BipartiteCut,
    iters: int = 200,
    seed: int = 0,
    restarts: int = 8,
    stop_gap: float = 1e-13,
) -> MixtureResult:
    """Gilbert-style upper bound on the 2-norm distance from the separable set.

    Maintains a separable iterate as an explicit mixture, starting at
    ``I/dim``; each round adds the product state maximizing the correlation
    with the residual (seesaw oracle) and re-solves the mixture weights on
    the accumulated atoms exactly (``_min_norm_weights``), so the distance
    estimate is monotone non-increasing.  ``converged`` says whether the
    oracle's gain fell to ``stop_gap`` before ``iters`` rounds ran out.
    """
    matrix, da, db = _regroup(sigma.op, cut)
    dim = da * db
    atoms = _identity_atoms(da, db)
    target = matrix.reshape(-1)
    basis = np.stack([_atom_matrix(a, b).reshape(-1) for a, b in atoms])
    weights = np.full(len(atoms), 1.0 / len(atoms))
    it = 0
    converged = False
    for it in range(1, iters + 1):
        current = weights @ basis
        resid = target - current
        step = _seesaw_product_max(resid.reshape(dim, dim), da, db, restarts, 200, seed + it)
        atom = _atom_matrix(step.a_vec, step.b_vec).reshape(-1)
        if float(np.real(np.vdot(resid, atom)) - np.real(np.vdot(resid, current))) <= stop_gap:
            converged = True
            break
        atoms.append((step.a_vec, step.b_vec))
        basis = np.vstack([basis, atom])
        weights = _min_norm_weights(basis - target)
    keep = weights > 1e-15
    return MixtureResult(
        value=float(np.linalg.norm(target - weights @ basis)),
        atoms=tuple(a for a, k in zip(atoms, keep) if k),
        weights=weights[keep] / weights[keep].sum(),
        iterations=it,
        converged=converged,
        extras={"da": da, "db": db},
    )


def product_povm(povm_a: Povm, povm_b: Povm) -> Povm:
    """Tensor product of two local POVMs (a separable POVM by construction)."""
    elements = []
    labels = []
    for la, ea in zip(povm_a.labels, povm_a.elements):
        for lb, eb in zip(povm_b.labels, povm_b.elements):
            elements.append(np.kron(ea, eb))
            labels.append((la, lb))
    return Povm(tuple(elements), tuple(labels))


def pauli_tomography_povm() -> Povm:
    """Qubit POVM mixing the three Pauli eigenbases with weight 1/3 each."""
    z0 = np.array([1.0, 0.0], dtype=complex)
    z1 = np.array([0.0, 1.0], dtype=complex)
    x0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    x1 = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)
    y0 = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2)
    y1 = np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2)
    kets = [z0, z1, x0, x1, y0, y1]
    labels = ("z+", "z-", "x+", "x-", "y+", "y-")
    return Povm(tuple(np.outer(k, k.conj()) / 3.0 for k in kets), labels)


def _product_lmo_upper(matrix: np.ndarray, da: int, db: int, q: int = 4) -> float:
    """Certified upper bound on ``max <ab|M|ab>`` over product states.

    Product states are q-extendible for every q, so the top eigenvalue of
    the B-side twirl of ``M (x) 1^{q-1}`` dominates the product maximum.
    """
    q = max(1, q)
    while da * db**q > max_side() and q > 1:
        q -= 1
    return float(np.linalg.eigvalsh(_b_twirled_extension(matrix, da, db, q))[-1])


def measured_fidelity_to_sep_upper(
    rho: DensityMatrix,
    cut: BipartiteCut,
    povm_a: Povm,
    povm_b: Povm,
    iters: int = 400,
    seed: int = 0,
    restarts: int = 6,
    lmo_q: int = 4,
) -> MeasuredUpperResult:
    """Upper bound on the measured fidelity between ``rho`` and the
    separable set, using one fixed product POVM.

    The infimum over separable POVMs is dominated by any fixed member, so
    ``sup_sigma F(M(rho), M(sigma))`` over separable ``sigma`` upper-bounds
    the measured fidelity to the set.  That supremum is itself certified
    from above through the Frank-Wolfe linearization gap, with the linear
    oracle bounded by a q-extension relaxation.
    """
    matrix, da, db = _regroup(rho.op, cut)
    povm = product_povm(povm_a, povm_b)
    if povm.side != da * db:
        raise ValueError("POVM does not match the cut dimensions")
    p = outcome_distribution(povm, matrix)
    dim = da * db
    elems = np.stack([e for e in povm.elements])
    elems_t_flat = np.stack([e.T.reshape(-1) for e in povm.elements])
    mask = p > 0.0
    sqrt_p = np.sqrt(p[mask])
    sigma = np.eye(dim, dtype=complex) / dim
    best_upper = 1.0
    lower = 0.0
    gap = 1.0
    it = 0
    stale = 0
    for it in range(1, iters + 1):
        q_out = np.clip(np.real(elems_t_flat @ sigma.reshape(-1)), 0.0, None)
        lower = classical_fidelity(p, q_out)
        coeff = sqrt_p / (2.0 * np.sqrt(np.clip(q_out[mask], 1e-18, None)))
        grad = np.tensordot(coeff, elems[mask], axes=(0, 0))
        grad = (grad + grad.conj().T) / 2.0
        lmo_up = _product_lmo_upper(grad, da, db, lmo_q)
        gap = lmo_up - float(np.real(np.trace(grad @ sigma)))
        improved = lower + gap < best_upper - 1e-10
        best_upper = min(best_upper, lower + gap)
        stale = 0 if improved else stale + 1
        if stale >= 40:
            break
        step = _seesaw_product_max(grad, da, db, restarts, 80, seed + it)
        atom = _atom_matrix(step.a_vec, step.b_vec)
        q_atom = np.clip(np.real(elems_t_flat @ atom.reshape(-1)), 0.0, None)

        def f_line(t, q_atom=q_atom, q_out=q_out):
            return classical_fidelity(p, (1.0 - t) * q_out + t * q_atom)

        t_best, f_best = _golden_max(f_line)
        if f_best <= lower + 1e-13:
            break
        sigma = (1.0 - t_best) * sigma + t_best * atom
    return MeasuredUpperResult(
        upper=float(min(best_upper, 1.0)),
        lower=float(lower),
        duality_gap=float(gap),
        iterations=it,
    )


# ---------------------------------------------------------------------------
# certificates


def certificate_to_json(kind: str, op: HermitianOperator, cut: BipartiteCut, result) -> dict:
    """Serializable record allowing independent re-evaluation of a claim."""
    from .serialize import operator_to_json

    if isinstance(result, SeesawResult):
        atoms = [(result.a_vec, result.b_vec)]
        weights = [1.0]
        value = result.value
    elif isinstance(result, MixtureResult):
        atoms = list(result.atoms)
        weights = [float(w) for w in result.weights]
        value = result.value
    else:
        raise TypeError(f"no certificate form for {type(result).__name__}")
    return {
        "kind": kind,
        "value": float(value),
        "operator": operator_to_json(op),
        "cut": {"a": list(cut.a_factors), "b": list(cut.b_factors)},
        "atoms": [
            {
                "a_re": a.real.tolist(),
                "a_im": a.imag.tolist(),
                "b_re": b.real.tolist(),
                "b_im": b.imag.tolist(),
            }
            for a, b in atoms
        ],
        "weights": weights,
    }


def recheck_certificate(obj: dict, tol: float = 1e-8) -> tuple[float, float, bool]:
    """Re-evaluate a certificate's claimed value from its atoms alone.

    Returns ``(claimed, recomputed, ok)``; no optimization is rerun.  Raises
    ``ValueError`` for a malformed certificate: weights off the probability
    simplex, or atoms that are not unit vectors of the cut's local sides
    (a scaled atom would certify values no product state attains).
    """
    from .serialize import operator_from_json

    kind = obj["kind"]
    op = operator_from_json(obj["operator"])
    cut = BipartiteCut(tuple(obj["cut"]["a"]), tuple(obj["cut"]["b"]))
    matrix, da, db = _regroup(op, cut)
    atoms = []
    for rec in obj["atoms"]:
        a = np.asarray(rec["a_re"], dtype=float) + 1j * np.asarray(rec["a_im"], dtype=float)
        b = np.asarray(rec["b_re"], dtype=float) + 1j * np.asarray(rec["b_im"], dtype=float)
        if a.shape != (da,) or b.shape != (db,):
            raise ValueError(f"malformed certificate atom: sizes {a.size}, {b.size} for cut sides {da}, {db}")
        if abs(np.vdot(a, a).real - 1.0) > 1e-9 or abs(np.vdot(b, b).real - 1.0) > 1e-9:
            raise ValueError("malformed certificate atom: not a unit vector")
        atoms.append((a, b))
    weights = np.asarray(obj["weights"], dtype=float)
    if weights.size != len(atoms) or (weights < -1e-12).any() or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("malformed certificate weights")
    mix = sum(w * _atom_matrix(a, b) for w, (a, b) in zip(weights, atoms))
    if kind == "hsep_seesaw":
        a, b = atoms[0]
        v = np.kron(a, b)
        recomputed = float(np.real(np.vdot(v, matrix @ v)))
    elif kind == "fidelity_mixture":
        recomputed = fidelity(matrix, mix)
    elif kind == "hs_distance":
        recomputed = float(np.linalg.norm(matrix - mix))
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    claimed = float(obj["value"])
    return claimed, recomputed, bool(abs(claimed - recomputed) <= tol)
