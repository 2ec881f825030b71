"""Support functions and distances relative to separable and extendible sets.

The separable set enters only through its pure-product extreme points, so a
seesaw over local top eigenvectors (one generator per call; Bloch coordinates
on a 2x2 cut) serves as the linear maximization oracle for everything here:
lower bounds on the separability support function, Frank-Wolfe maximization
of fidelity to the separable set, a Gilbert-style upper bound on the 2-norm
distance (whose oracle on a 2x2 cut searches the whole Bloch sphere
instead), and a fixed-POVM upper bound on the measured fidelity.  The
q-extendible support function needs no optimizer at all; it is an exact top
eigenvalue of a one-sided twirl, taken one S_q irrep at a time from U(db)
generators (``_irrep_blocks``): no array has ``db**q`` rows, and the side cap
holds the level side ``da * sum_lambda dim_lambda``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .measures import (
    Povm,
    _root_fidelities,
    _sqrtm_psd,
    classical_fidelity,
    fidelity,
    outcome_distribution,
)
from .operators import (
    PSD_MIN_EIG_TOL,
    DensityMatrix,
    Dims,
    HermitianOperator,
    _psd_spectrum,
    _require_count,
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

# a seesaw start stops once its value gains less than SEESAW_STOP, and after
# SEESAW_MAX_ITERS iterations in any case (the measured bound's oracle runs 80)
SEESAW_STOP = 1e-12
SEESAW_MAX_ITERS = 200
# Frank-Wolfe fidelity maximization stops once a round gains at most this
FW_STOP = 1e-12
# recheck_certificate accepts a recomputed value within this of the claim
RECHECK_TOL = 1e-8
# bytes of cached levels that _irrep_blocks keeps (a level at q = 88 holds 11 MB)
IRREP_CACHE_BYTES = 32 * 2**20


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
    """``irrep`` is the Young diagram of the S_q block with the top eigenvalue,
    ``block_vec`` its top eigenvector, of length ``block_side`` (``da`` times
    the piece's dimension); ``dims`` is ``(da, db)``."""

    value: float
    q: int
    block_vec: np.ndarray
    irrep: tuple[int, ...]
    block_side: int
    dims: tuple[int, int]

    def witness(self) -> np.ndarray:
        """``block_vec`` lifted to ``A (x) B^q`` through the chain of ``v`` s: a top
        eigenvector of the twirled operator, its side ``da * db**q`` held to the cap."""
        da, db = self.dims
        check_side(da * db**self.q, "q-extension witness")
        w, shape = self.block_vec.reshape(da, -1, 1), self.irrep
        for level in range(self.q, 0, -1):
            shape, v = next((parent, v) for s, parent, v, _ in _irrep_blocks(db, level) if s == shape)
            w = np.einsum("jcl,alt->ajct", v, w).reshape(da, len(v), -1)  # v's factor joins the lifted tail
        return w.reshape(-1)


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


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """``vec`` rotated so that its largest-magnitude entry is real and positive."""
    k = int(np.argmax(np.abs(vec)))
    return vec * (vec[k] / abs(vec[k])).conjugate()


# 1, X, Y, Z; vec(M) @ _PAULI_PAIRS lists Tr[M (sigma_mu (x) sigma_nu)] by (mu, nu)
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_PAIRS = np.einsum("mab,ncd->bdacmn", _PAULIS, _PAULIS).reshape(16, 16)


def _eig_half_step(y: np.ndarray, k: np.ndarray):
    """Top eigenpairs of the contractions ``vec(conj(y[r]) (x) y[r]) @ k``, one per row."""
    n = math.isqrt(k.shape[1])
    w, v = np.linalg.eigh(((y.conj()[:, :, None] * y[:, None, :]).reshape(len(y), -1) @ k).reshape(-1, n, n))
    return v[:, :, -1], w[:, -1]


def _bloch_half_step(y: np.ndarray, k: np.ndarray, x: np.ndarray):
    """The same on a qubit pair in Bloch rows ``(1, s)``: the contraction is
    ``r . sigma`` for ``r = y @ k``, so its top eigenpair is ``r0 + |r|`` at
    ``s = r / |r|``.  A row with ``r = 0`` (a multiple of 1) keeps ``x``."""
    r = y @ k
    norm = np.sqrt(np.add.reduce(r[:, 1:] * r[:, 1:], 1))
    if np.minimum.reduce(norm) > 0.0:  # no flat row
        s = r / norm[:, None]
    else:
        flat = norm == 0.0
        s = np.where(flat[:, None], x, r / np.where(flat, 1.0, norm)[:, None])
    s[:, 0] = 1.0
    return s, r[:, 0] + norm


def _bloch_ket(s: np.ndarray) -> np.ndarray:
    """Unit ket of Bloch row ``s``: the longer column of ``s.sigma = [[s0 + s3, s1 - i s2], [s1 + i s2, s0 - s3]]``."""
    s0, s1, s2, s3 = s
    col = np.array([s0 + s3, complex(s1, s2)] if s0 + s3 >= s0 - s3 else [complex(s1, -s2), s0 - s3])
    return col / np.linalg.norm(col)


# grids on [-1, 1]^3: _ZOOM holds 0, so a zoom step loses no ground; _SPHERE is
# pushed onto the sphere, and its points' neighbours are those on the cube
_ZOOM = np.mgrid[-1:1:5j, -1:1:5j, -1:1:5j].reshape(3, -1).T
_SPHERE = np.mgrid[-1:1:12j, -1:1:12j, -1:1:12j].reshape(3, -1).T
_SPHERE /= np.linalg.norm(_SPHERE, axis=1, keepdims=True)


def _bloch_product_max(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-fixed kets of the largest ``<ab|M|ab>`` on a qubit pair, over B's
    whole Bloch sphere: ``max_a <ab|M|ab> = r0 + |r|`` for ``r = T (1, s_b)``.
    The 16 highest points of ``_SPHERE`` that are no lower than their
    neighbours each start a zoom: ``_ZOOM`` around the point, pushed onto the
    sphere, its width halving down to 1e-8."""
    t = (matrix.reshape(-1) @ _PAULI_PAIRS).real.reshape(4, 4) / 4.0

    def value(c):
        r = c @ t[:, 1:].T + t[:, 0]
        return r[:, 0] + np.sqrt(np.einsum("ij,ij->i", r[:, 1:], r[:, 1:]))

    v = value(_SPHERE)
    w = np.pad(v.reshape(12, 12, 12), 1, constant_values=-np.inf)
    top = functools.reduce(np.maximum, (w[i : i + 12, j : j + 12, k : k + 12] for i, j, k in np.ndindex(3, 3, 3)))
    peaks = np.flatnonzero(v >= top.reshape(-1))
    p, h = _SPHERE[peaks[np.argsort(v[peaks])[-16:]]], 0.25
    while h > 1e-8:
        c = (p[:, None] + h * _ZOOM).reshape(-1, 3)
        c /= np.sqrt(np.einsum("ij,ij->i", c, c))[:, None]
        v = value(c).reshape(len(p), -1)
        p, h = c.reshape(len(p), -1, 3)[np.arange(len(p)), v.argmax(axis=1)], h / 2.0
    row = np.append(1.0, p[np.argmax(value(p))])[None]
    return _fix_phase(_bloch_ket(_bloch_half_step(row, t.T, row)[0][0])), _fix_phase(_bloch_ket(row[0]))


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
    drawn at once from ``stream(seed, "seesaw-starts")``) run in lock-step:
    each half-step is one matrix product for the local contractions of every
    active start and one stacked ``eigh``, blind to phases (``conj(x) (x)
    x``), so only the returned pair goes through ``_fix_phase``.  A 2x2 cut
    runs in Bloch rows, with no eigensolver: ``<ab|M|ab> = (1, s_a) T (1,
    s_b)`` for ``T[mu, nu] = Tr[M (sigma_mu (x) sigma_nu)] / 4``.  A start
    stops once its value gains less than ``SEESAW_STOP``; ``iterations`` sums
    the per-start counts.  Ties between starts resolve to the lowest index.
    """
    _require_count(0 if len(initial_points) else 1, restarts=restarts)
    # the draw has real and imaginary planes, each with A's entries then B's
    g = stream(seed, "seesaw-starts").standard_normal((restarts, 2, da + db))
    z, k = g[:, 0] + 1j * g[:, 1], len(initial_points)
    A, B = z[:, :da], z[:, da:]
    if k:
        A = np.concatenate([np.asarray([a for a, _ in initial_points], dtype=complex).reshape(k, da), A])
        B = np.concatenate([np.asarray([b for _, b in initial_points], dtype=complex).reshape(k, db), B])
    A, B = (x / np.sqrt(np.add.reduce((x.conj() * x).real, 1, keepdims=True)) for x in (A, B))
    if bloch := (da, db) == (2, 2):
        t = (matrix.reshape(-1) @ _PAULI_PAIRS).real.reshape(4, 4) / 4.0
        ka_t, kb_t = t.T, t
        A, B = (np.einsum("ri,mij,rj->rm", X.conj(), _PAULIS, X).real for X in (A, B))
    else:
        m4 = matrix.reshape(da, db, da, db)
        # KA[(a, c), (i, j)] = KB[(i, j), (a, c)] = M[(a, i), (c, j)], so that
        # <b|M|b> = KA @ vec(conj(b) (x) b) and <a|M|a> = KB @ vec(conj(a) (x) a)
        ka_t = m4.transpose(0, 2, 1, 3).reshape(da * da, db * db).T
        kb_t = m4.transpose(1, 3, 0, 2).reshape(db * db, da * da).T
    n = len(A)
    values, iters, converged = np.empty(n), np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    # the active starts' rows, in index order, and their last values
    active, a, b, last = np.arange(n), A, B, np.full(n, -np.inf)
    for it in range(1, max_iters + 1):
        a = _bloch_half_step(b, ka_t, a)[0] if bloch else _eig_half_step(b, ka_t)[0]
        b, new = _bloch_half_step(a, kb_t, b) if bloch else _eig_half_step(a, kb_t)
        if np.minimum.reduce(gain := new - last) < SEESAW_STOP:
            done = gain < SEESAW_STOP
            stop = active[done]
            A[stop], B[stop], iters[stop] = a[done], b[done], it
            values[stop] = np.maximum(last[done], new[done])
            converged[stop] = True
            active, a, b, new = active[~done], a[~done], b[~done], new[~done]
            if not active.size:
                break
        last = new
    else:
        A[active], B[active], values[active], iters[active] = a, b, last, max_iters
    best = 0
    for r in range(1, n):
        if values[r] > values[best] + 1e-15:
            best = r
    a, b = (_fix_phase(_bloch_ket(x) if bloch else x) for x in (A[best], B[best]))
    v = np.multiply.outer(a, b).ravel()
    return SeesawResult(
        value=float(np.real(np.vdot(v, matrix @ v))),
        a_vec=a,
        b_vec=b,
        iterations=int(iters.sum()),
        restarts=n,
        seed=seed,
        converged=bool(converged[best]),
    )


def _require_contraction(matrix: np.ndarray) -> None:
    """Raise unless ``0 <= matrix <= 1`` within ``PSD_MIN_EIG_TOL``."""
    w = np.linalg.eigvalsh(matrix)
    if w[0] < -PSD_MIN_EIG_TOL or w[-1] > 1.0 + PSD_MIN_EIG_TOL:
        raise ValueError(f"operator must satisfy 0 <= M <= 1: spectrum [{w[0]:.3e}, {w[-1]:.3e}]")


def hsep_seesaw(
    m: HermitianOperator,
    cut: BipartiteCut,
    restarts: int = 32,
    seed: int = 0,
    initial_points=(),
) -> SeesawResult:
    """Seesaw lower bound on the separability support function of ``m``.

    Alternates exact local updates: with ``b`` fixed the optimal ``a`` is the
    top eigenvector of the contraction ``<b|M|b>``, and symmetrically (in
    closed form, in Bloch coordinates, on a 2x2 cut).  The random starts come
    from one generator per call; all starts run in lock-step and ties between
    them go to the lowest index (``initial_points`` come first).  The
    reported value is re-evaluated from the returned vectors.  Requires
    ``0 <= M <= 1``.
    """
    matrix, da, db = _regroup(m, cut)
    _require_contraction(matrix)
    return _seesaw_product_max(matrix, da, db, restarts, SEESAW_MAX_ITERS, seed, initial_points)


def hqext(m: HermitianOperator, cut: BipartiteCut, q: int) -> QExtResult:
    """Exact support function of the q-extendible set at ``m``.

    Equals the top eigenvalue of the B-side twirl of ``M (x) 1^{q-1}``, that
    is of ``H = (1/q) sum_i M_{A B_i}``: the linear objective over
    B-permutation-invariant states is maximized on the top eigenspace of
    ``H``, and the twirl of that eigenstate reduces to a q-extendible state
    on A(x)B.  ``H`` commutes with the permutations of the q B factors, so
    it is diagonalized one Young diagram at a time on ``A (x)`` one
    Gelfand-Tsetlin piece (``_irrep_blocks``); the side cap holds the level
    side ``da * sum_lambda dim_lambda`` (``_hqext_regrouped``), and
    ``QExtResult.witness()`` lifts the top block vector to ``A (x) B^q``.
    """
    _require_count(1, q=q)
    matrix, da, db = _regroup(m, cut)
    _require_contraction(matrix)
    return _hqext_regrouped(matrix, da, db, q)


def _hqext_regrouped(matrix: np.ndarray, da: int, db: int, q: int) -> QExtResult:
    """``hqext`` on a Hermitian matrix already regrouped to (A, B).

    The block of shape ``lambda`` is ``(1_A (x) Q)^dag H (1_A (x) Q)`` for
    its piece ``Q = (P (x) 1_B) V`` (``_irrep_blocks``).  On
    ``A (x) P (x) B_q``, ``q H`` is ``S (x) 1_B + 1_P (x) M_{A B_q}``, where
    ``S``, the sum of ``M_{A B_i}`` over ``i < q`` compressed onto
    ``1_A (x) P``, is one product of ``M`` with the parent's U(db)
    generators ``gram``; ``V`` then compresses that to side ``da * k``.  The
    level side ``da * _level_side(db, q)`` bounds every block side and every
    ``X_q`` side below it, so it alone is held to the side cap, before any
    level is built.  The largest top eigenvalue wins; ties go to the first
    block in ``_irrep_blocks`` order.
    """
    check_side(da * _level_side(db, q), "q-extension level")
    # m_ab[(a, a'), (b, b')] = M[(a, b), (a', b')]
    m_ab = matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    blocks = []
    for shape, _, v, gram in _irrep_blocks(db, q):
        kp, _, k = v.shape
        # t[a, a', j, c, l] = ((S (x) 1_B + 1_P (x) M_{A B_q}) (1_A (x) V))[(a, j, c), (a', l)]
        t = ((m_ab @ gram).reshape(da * da * kp, kp) @ v.reshape(kp, db * k)).reshape(da, da, kp, db, k)
        mv = m_ab.reshape(da * da * db, db) @ v.transpose(1, 0, 2).reshape(db, kp * k)
        t += mv.reshape(da, da, db, kp, k).transpose(0, 1, 3, 2, 4)
        block = v.reshape(kp * db, k).conj().T @ t.reshape(da, da, kp * db, k)  # [a, a', l', l]
        w, vecs = np.linalg.eigh(block.transpose(0, 2, 1, 3).reshape(da * k, da * k) / q)
        blocks.append((float(w[-1]), vecs[:, -1], shape))
    value, x, shape = max(blocks, key=lambda b: b[0])
    x = _fix_phase(x)  # the winner's only
    return QExtResult(value=value, q=q, block_vec=x, irrep=shape, block_side=len(x), dims=(da, db))


def _level_side(db: int, q: int) -> int:
    """``sum_lambda dim_lambda`` over the diagrams of ``q`` boxes with at most
    ``db`` rows (Littlewood's identity at ``x_i = t``: the ``t^q`` coefficient
    of ``(1 - t)^-db (1 - t^2)^-m``, ``m = db (db - 1) / 2``)."""
    m = db * (db - 1) // 2
    return sum(math.comb(i + m - 1, i) * math.comb(q - 2 * i + db - 1, db - 1) for i in range(q // 2 + 1)) if m else 1


def _bytes_lru(fn):
    """``fn`` memoized while the arrays of its values hold at most
    ``IRREP_CACHE_BYTES``, least recently used out first, with the
    ``cache_clear`` and ``cache_info().currsize`` of ``lru_cache``."""
    cache = {}

    @functools.wraps(fn)
    def cached(*key):
        if key in cache:
            cache[key] = cache.pop(key)  # now the most recently used
            return cache[key][0]
        value = fn(*key)
        cache[key] = value, sum({id(a): a.nbytes for e in value for a in e if isinstance(a, np.ndarray)}.values())
        while sum(n for _, n in cache.values()) > IRREP_CACHE_BYTES:
            del cache[next(iter(cache))]
        return value

    cached.cache_clear = cache.clear
    cached.cache_info = lambda: SimpleNamespace(currsize=len(cache), bytes=sum(n for _, n in cache.values()))
    return cached


@_bytes_lru
def _irrep_blocks(db: int, q: int) -> tuple:
    """One Gelfand-Tsetlin piece of ``(C^db)^{(x)q}`` per Young diagram.

    Returns read-only ``(shape, parent, v, gram)`` for every diagram of
    ``q`` boxes with at most ``db`` rows, in descending ``shape`` order: the
    piece is ``Q = (P (x) 1) v`` for the piece ``P`` of ``parent`` (``q = 0``
    is the empty diagram, on ``C^1``) and a ``kp x db x k`` isometry ``v``.
    ``Q`` is the joint eigenspace of the Jucys-Murphy elements ``X_j =
    sum_{i<j} swap(i, j)`` for one standard tableau of ``shape`` (each acts
    as the content of the box holding ``j``; Okounkov-Vershik,
    arXiv:math/0503040), one copy of the U(db) irrep of ``shape``.

    No basis with ``db^q`` rows is kept: ``gram[(b, b'), (j, j')] = <P_j|
    sum_i (|b><b'|)_i |P_j'>`` holds ``P``'s U(db) generators.  ``X_q`` is
    ``gram`` re-indexed on ``P (x) C^db``; its eigenvalues, the contents of
    the boxes addable to ``parent``, are integers, so rounding them is
    exact, and each eigenspace is a ``v`` (the first parent in order to
    reach a shape supplies it).  ``Q``'s own generators, ``v^dag (gram (x)
    1 + 1 (x) |b><b'|) v`` (the add-one-box step of the Schur transform,
    Bacon-Chuang-Harrow, arXiv:quant-ph/0407082), are formed only when
    level ``q + 1`` is built, from this level alone.  So a sweep ``q =
    1..Q`` builds each level once, and the cache holds the chain that
    ``QExtResult.witness`` reads (``q <= 11`` under the default cap), the
    sweeps of ``db = 2`` to ``q = 6`` and ``db = 3`` to ``q = 5`` at once.
    """
    if q == 0:
        return (((), None, None, None),)
    pieces = {}
    for shape, _, pv, pgram in _irrep_blocks(db, q - 1):
        if pv is None:
            kp, gram = 1, np.zeros((db * db, 1), dtype=complex)
        else:
            kpp, _, kp = pv.shape
            # u[b, b', j, c, l] = ((pgram_bb' (x) 1 + 1 (x) |b><b'|) pv)[(j, c), l]
            u = (pgram.reshape(db * db, kpp, kpp) @ pv.reshape(kpp, db * kp)).reshape(db, db, kpp, db, kp)
            u[np.arange(db), :, :, np.arange(db)] += pv.transpose(1, 0, 2)
            gram = (pv.reshape(kpp * db, kp).conj().T @ u.reshape(db * db, kpp * db, kp)).reshape(db * db, kp * kp)
        gram.setflags(write=False)
        # X_q: <P_j (x) e_c| X_q |P_j' (x) e_c'> = gram[(c', c), (j, j')]
        w, vecs = np.linalg.eigh(gram.reshape(db, db, kp, kp).transpose(2, 1, 3, 0).reshape(kp * db, kp * db))
        # the box addable in row r has content len(row r) - r
        grown = {n - r: shape[:r] + (n + 1,) + shape[r + 1 :] for r, n in enumerate(shape + (0,))}
        for content, col, width in zip(*np.unique(np.rint(w).astype(int), return_index=True, return_counts=True)):
            if (new := grown[content]) not in pieces:
                # vecs' rows are ordered (j, c); the copy lets vecs go
                v = np.ascontiguousarray(vecs[:, col : col + width]).reshape(kp, db, width)
                v.setflags(write=False)
                pieces[new] = (shape, v, gram)
    return tuple((shape, *pieces[shape]) for shape in sorted(pieces, reverse=True))


def hsep_certified_interval(
    m: HermitianOperator,
    cut: BipartiteCut,
    q_max: int = 3,
    restarts: int = 32,
    seed: int = 0,
) -> CertifiedInterval:
    """Two-sided bracket of the separability support function.

    The lower end is the best seesaw value, the upper end the smallest
    q-extendible value over ``q <= q_max``.  ``delta_certified = 1 - upper``
    is the certified test slack; ``delta_extension_distance`` applies the extendibility
    distance bound ``2 d^2 / q`` to the lower end as looser metadata.
    """
    _require_count(1, q_max=q_max)
    seesaw = hsep_seesaw(m, cut, restarts=restarts, seed=seed)
    return _interval_from_seesaw(m, cut, q_max, seesaw)


def _interval_from_seesaw(
    m: HermitianOperator, cut: BipartiteCut, q_max: int, seesaw: SeesawResult
) -> CertifiedInterval:
    """``hsep_certified_interval`` around a seesaw result already computed for
    ``(m, cut)``; that call has checked ``0 <= M <= 1``, and the caller
    ``q_max``, so neither is repeated here."""
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
    v = np.multiply.outer(a, b).ravel()
    return np.outer(v, v.conj())


def _identity_atoms(da: int, db: int):
    """The product basis: its uniform mixture is ``I / (da db)``."""
    return [(ea, eb) for ea in np.eye(da, dtype=complex) for eb in np.eye(db, dtype=complex)]


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


def _line_max(x0: np.ndarray, x1: np.ndarray) -> tuple[float, float]:
    """``(t, F(t))`` maximizing the concave ``F(t) = Tr sqrt(x0 + t (x1 -
    x0))`` on ``[0, 1]``: PSD Hermitian ``x0``, ``x1``, or nonnegative
    vectors as the diagonal case (``F`` of ``p * q`` is the classical
    fidelity).  The ends are compared by value: ``F'`` is infinite where the
    rank drops, which no clipped spectrum shows.  Inside the bracket, each
    Newton step takes ``F' = sum_i D_ii / (2 r_i)`` and ``F'' = -sum_ij
    |D_ij|^2 / (2 r_i r_j (r_i + r_j))`` from one spectrum ``V diag(r^2)
    V^dag``, ``D = V^dag (x1 - x0) V``, over eigenvalues above a relative
    rounding floor.  A step out of the bracket, or not under half the move
    before last, bisects; one out through an end of the segment probes
    ``1e-5`` of the bracket from there.  Stops at a ``1e-10`` bracket or a
    predicted gain ``F'^2 / -F''`` of ``1e-15 F``."""
    quantum, d = x0.ndim == 2, x1 - x0
    ends = _root_fidelities(np.stack([x0, x1])) if quantum else np.sqrt(np.stack([x0, x1])).sum(axis=1)
    t_best, f_best = (0.0, ends[0]) if ends[0] >= ends[1] else (1.0, ends[1])
    lo, hi, t, moved, before = 0.0, 1.0, 0.5, 1.0, 1.0
    for _ in range(64):
        w, v = _psd_spectrum(x0 + t * d, vectors=True) if quantum else (x0 + t * d, None)
        r = np.sqrt(w)
        if (value := r.sum()) > f_best:
            t_best, f_best = t, value
        r[w <= len(w) * np.finfo(float).eps * w.max()] = np.inf  # out of both sums
        if quantum:
            dt = v.conj().T @ d @ v
            slope = (dt.diagonal().real / r).sum() / 2.0
            curv = -(np.abs(dt) ** 2 / (np.multiply.outer(r, r) * np.add.outer(r, r))).sum() / 2.0
        else:
            slope, curv = (d / r).sum() / 2.0, -(d * d / r**3).sum() / 4.0
        lo, hi = (t, hi) if slope > 0.0 else (lo, t)
        if slope == 0.0 or hi - lo <= 1e-10 or slope * (step := slope / -curv) <= 1e-15 * value:
            break
        new, out = t + step, not lo < t + step < hi
        if out and (end := hi if new >= hi else lo) in (0.0, 1.0):
            new = end + 1e-5 * (lo + hi - 2.0 * end)
        elif out or 2.0 * abs(step) > before:
            new = (lo + hi) / 2.0
        before, moved, t = moved, abs(new - t), new
    return float(t_best), float(f_best)


def _fw_fidelity(matrix: np.ndarray, atoms, lmo, iters: int) -> MixtureResult:
    """Frank-Wolfe maximization of ``sigma -> F(matrix, sigma)`` over a hull.

    Starts at the uniform mixture of ``atoms``, ``(label, atom_matrix)``
    pairs; in round ``it`` the oracle ``lmo(grad, it)`` returns the pair
    maximizing ``<grad, atom>``, mixed in by an exact line search on the
    segment between ``sqrt(rho) sigma sqrt(rho)`` and ``sqrt(rho) atom
    sqrt(rho)`` (``_line_max``, one ``eigh`` a Newton step).
    Converged once the linearized or the line-search gain is at most
    ``FW_STOP``.  The result's ``atoms`` are labels.
    """
    rho_sqrt = _sqrtm_psd(matrix)
    labels = [label for label, _ in atoms]
    weights = [1.0 / len(atoms)] * len(atoms)
    sigma = sum(atom for _, atom in atoms) / len(atoms)
    x0 = rho_sqrt @ sigma @ rho_sqrt
    value = float(_root_fidelities(((x0 + x0.conj().T) / 2.0)[None])[0])
    converged = False
    for it in range(1, iters + 1):
        grad = _fidelity_gradient(rho_sqrt, sigma)
        label, atom = lmo(grad, it)
        if float(np.real(np.trace(grad @ (atom - sigma)))) <= FW_STOP:
            converged = True
            break
        x0, x1 = (rho_sqrt @ x @ rho_sqrt for x in (sigma, atom))
        t_best, f_best = _line_max((x0 + x0.conj().T) / 2.0, (x1 + x1.conj().T) / 2.0)
        if f_best <= value + FW_STOP:
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
) -> MixtureResult:
    """Frank-Wolfe lower bound on the fidelity between ``rho`` and the
    separable set across ``cut``.

    The concave objective ``sigma -> F(rho, sigma)`` is maximized over the
    separable hull from ``I/dim``: each step maximizes the gradient over
    pure products by seesaw (seed ``seed + it`` in round ``it``) and mixes
    the new atom in by an exact line search (``_line_max``).  The returned
    mixture is separable by construction and re-evaluates to the reported
    value.
    """
    _require_count(1, iters=iters, restarts=restarts)
    matrix, da, db = _regroup(rho.op, cut)

    def lmo(grad, it):
        step = _seesaw_product_max(grad, da, db, restarts, SEESAW_MAX_ITERS, seed + it)
        return (step.a_vec, step.b_vec), _atom_matrix(step.a_vec, step.b_vec)

    start = [((a, b), _atom_matrix(a, b)) for a, b in _identity_atoms(da, db)]
    res = _fw_fidelity(matrix, start, lmo, iters)
    return replace(res, extras={"da": da, "db": db})


def _project_simplex(w: np.ndarray) -> np.ndarray:
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, w.size + 1)
    cond = u - css / idx > 0
    rho_idx = idx[cond][-1]
    theta = css[cond][-1] / rho_idx
    return np.clip(w - theta, 0.0, None)


def _min_norm_weights(points: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Simplex weights ``w`` minimizing ``||w @ points||`` over the rows.

    Wolfe's minimum-norm-point method (Math. Programming 11, 1976): the
    corral starts at the shortest point, or at the support of the simplex
    weights ``start``, and grows by the point least correlated with
    ``x = w @ points``.  Each cycle first moves to the corral's affine
    minimum-norm point, a least-squares solve on differences (no Gram
    matrix, so repeated or affinely dependent points are fine), stepping
    back and dropping points while an affine weight is not positive.  Stops
    at ``min_j <p_j, x> >= ||x||^2 - 1e-14 max_j ||p_j||^2`` or when
    rounding stalls the descent.
    """
    pts = np.concatenate([points.real, points.imag], axis=1) if np.iscomplexobj(points) else points
    sq = (pts * pts).sum(axis=1)
    tol = 1e-14 * max(float(sq.max()), 1e-300)
    corral = [int(np.argmin(sq))] if start is None else np.flatnonzero(start > 0).tolist()
    lam = np.ones(1) if start is None else start[corral] / start[corral].sum()
    prev, norm2 = (corral, lam), np.inf
    for _ in range(8 * len(pts) + 8):
        while len(corral) > 1:
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
        norm2 = x @ x
        corr = pts @ x
        j = int(np.argmin(corr))
        if corr[j] >= norm2 - tol or j in corral:
            break
        prev = corral, lam
        corral, lam = corral + [j], np.append(lam, 0.0)
    weights = np.zeros(len(pts))
    weights[corral] = lam
    return weights


def hs_distance_to_sep(
    sigma: DensityMatrix,
    cut: BipartiteCut,
    iters: int = 200,
    seed: int = 0,
    restarts: int = 8,
) -> MixtureResult:
    """Gilbert-style upper bound on the 2-norm distance from the separable set.

    Maintains a separable iterate as an explicit mixture, starting at
    ``I/dim``; each round adds the product state maximizing the correlation
    with the residual and re-solves the mixture weights on the accumulated
    atoms exactly (``_min_norm_weights``, started from the previous round's
    weights), so the distance estimate is monotone non-increasing.  The
    oracle is the seesaw (seed ``seed + it`` in round ``it``), except on a
    2x2 cut: there ``_bloch_product_max`` draws no start and, unlike the
    seesaw, does not stop short on the nearly flat, many-peaked residuals
    near the optimum.  ``converged`` says whether, before ``iters`` rounds
    ran out, the oracle's gain fell to 1e-13 or its last atom lowered the
    distance by nothing (the rounding floor).
    """
    _require_count(1, iters=iters, restarts=restarts)  # a qubit pair's oracle runs no seesaw to check it
    matrix, da, db = _regroup(sigma.op, cut)
    dim = da * db
    atoms = _identity_atoms(da, db)
    target = matrix.reshape(-1)
    basis = np.stack([_atom_matrix(a, b).reshape(-1) for a, b in atoms])
    weights = np.full(len(atoms), 1.0 / len(atoms))
    dist, converged = np.inf, False
    for it in range(1, iters + 1):
        current = weights @ basis
        resid = target - current
        last, dist = dist, float(np.linalg.norm(resid))
        if dist >= last:  # the last atom lowered the distance by nothing: the rounding floor
            converged = True
            break
        if (da, db) == (2, 2):
            a, b = _bloch_product_max(resid)
        else:
            step = _seesaw_product_max(resid.reshape(dim, dim), da, db, restarts, SEESAW_MAX_ITERS, seed + it)
            a, b = step.a_vec, step.b_vec
        atom = _atom_matrix(a, b).reshape(-1)
        if float(np.real(np.vdot(resid, atom)) - np.real(np.vdot(resid, current))) <= 1e-13:
            converged = True
            break
        atoms.append((a, b))
        basis = np.vstack([basis, atom])
        weights = _min_norm_weights(basis - target, np.append(weights, 0.0))
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
    """Tensor product of two local POVMs (a separable POVM by construction):
    elements ``kron(a_x, b_y)`` labelled ``(label_x, label_y)``, ``x`` major,
    formed in one broadcast."""
    a, b = np.stack(povm_a.elements), np.stack(povm_b.elements)
    (na, da, _), (nb, db, _) = a.shape, b.shape
    # joint[x, y, i, k, j, l] = a[x, i, j] b[y, k, l] = kron(a_x, b_y)[(i, k), (j, l)]
    joint = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    labels = tuple((la, lb) for la in povm_a.labels for lb in povm_b.labels)
    return Povm(tuple(joint.reshape(na * nb, da * db, da * db)), labels)


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


def _product_lmo_upper(matrix: np.ndarray, da: int, db: int) -> float:
    """Certified upper bound on ``max <ab|M|ab>`` over product states.

    Product states are q-extendible, so ``_hqext_regrouped`` dominates the
    product maximum.  ``q`` is 4, or less while ``da * db**q`` exceeds the side
    cap: ``hqext``'s old cap, kept so that the measured bound does not move.
    """
    q = max([1] + [q for q in range(2, 5) if da * db**q <= max_side()])
    return _hqext_regrouped(matrix, da, db, q).value


def measured_fidelity_to_sep_upper(
    rho: DensityMatrix,
    cut: BipartiteCut,
    povm_a: Povm,
    povm_b: Povm,
    iters: int = 400,
    seed: int = 0,
    restarts: int = 6,
) -> MeasuredUpperResult:
    """Upper bound on the measured fidelity between ``rho`` and the
    separable set, using one fixed product POVM.

    The infimum over separable POVMs is dominated by any fixed member, so
    ``sup_sigma F(M(rho), M(sigma))`` over separable ``sigma`` upper-bounds
    the measured fidelity to the set.  That supremum is itself certified
    from above through the Frank-Wolfe linearization gap, with the linear
    oracle bounded by a q-extension relaxation.
    """
    _require_count(1, iters=iters, restarts=restarts)
    matrix, da, db = _regroup(rho.op, cut)
    povm = product_povm(povm_a, povm_b)
    if povm.side != da * db:
        raise ValueError("POVM does not match the cut dimensions")
    p = outcome_distribution(povm, matrix)
    dim = da * db
    elems = np.stack(povm.elements)
    elems_t_flat = elems.transpose(0, 2, 1).reshape(len(elems), -1)
    mask = p > 0.0
    sqrt_p, grad_basis = np.sqrt(p[mask]), elems[mask].reshape(-1, dim * dim)
    sigma = np.eye(dim, dtype=complex) / dim
    best_upper, stale = 1.0, 0
    for it in range(1, iters + 1):
        q_out = np.maximum((elems_t_flat @ sigma.reshape(-1)).real, 0.0)
        lower = classical_fidelity(p, q_out)
        coeff = sqrt_p / (2.0 * np.sqrt(np.maximum(q_out[mask], 1e-18)))
        grad = (coeff @ grad_basis).reshape(dim, dim)
        grad = (grad + grad.conj().T) / 2.0
        lmo_up = _product_lmo_upper(grad, da, db)
        gap = lmo_up - float(np.vdot(grad, sigma).real)
        improved = lower + gap < best_upper - 1e-10
        best_upper = min(best_upper, lower + gap)
        stale = 0 if improved else stale + 1
        if stale >= 40:
            break
        step = _seesaw_product_max(grad, da, db, restarts, 80, seed + it)
        atom = _atom_matrix(step.a_vec, step.b_vec)
        q_atom = np.maximum((elems_t_flat @ atom.reshape(-1)).real, 0.0)
        t_best, f_best = _line_max(p * q_out, p * q_atom)
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


def recheck_certificate(obj: dict) -> tuple[float, float, bool]:
    """Re-evaluate a certificate's claimed value from its atoms alone.

    Returns ``(claimed, recomputed, ok)``, ``ok`` when the two agree within
    ``RECHECK_TOL``; no optimization is rerun.  Raises
    ``ValueError`` for a malformed certificate: weights off the probability
    simplex, or atoms that are not unit vectors of the cut's local sides
    (a scaled atom would certify values no product state attains).
    """
    from .serialize import _complex_array, operator_from_json

    kind = obj["kind"]
    op = operator_from_json(obj["operator"])
    cut = BipartiteCut(tuple(obj["cut"]["a"]), tuple(obj["cut"]["b"]))
    matrix, da, db = _regroup(op, cut)
    atoms = []
    for rec in obj["atoms"]:
        a, b = _complex_array(rec["a_re"], rec["a_im"]), _complex_array(rec["b_re"], rec["b_im"])
        if a.shape != (da,) or b.shape != (db,):
            raise ValueError(f"malformed certificate atom: sizes {a.size}, {b.size} for cut sides {da}, {db}")
        # each test is written so that a NaN or infinite entry fails it
        if not (abs(np.vdot(a, a).real - 1.0) <= 1e-9 and abs(np.vdot(b, b).real - 1.0) <= 1e-9):
            raise ValueError("malformed certificate atom: not a unit vector")
        atoms.append((a, b))
    weights = np.asarray(obj["weights"], dtype=float)
    if weights.size != len(atoms) or not ((weights >= -1e-12).all() and abs(weights.sum() - 1.0) <= 1e-9):
        raise ValueError("malformed certificate weights")
    mix = sum(w * _atom_matrix(a, b) for w, (a, b) in zip(weights, atoms))
    if kind == "hsep_seesaw":
        v = np.multiply.outer(*atoms[0]).ravel()
        recomputed = float(np.real(np.vdot(v, matrix @ v)))
    elif kind == "fidelity_mixture":
        recomputed = fidelity(matrix, mix)
    elif kind == "hs_distance":
        recomputed = float(np.linalg.norm(matrix - mix))
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    claimed = float(obj["value"])
    return claimed, recomputed, bool(abs(claimed - recomputed) <= RECHECK_TOL)
