"""Dense complex operator algebra with tensor-factor bookkeeping.

Everything in this package works on explicit dense matrices tagged with a
list of local dimensions.  The helpers here cover tensor products, partial
traces, permutation actions on tensor factors, symmetric-subspace
projectors, twirls, Kraus channels, spectral routines and seeded random
state generation.  All functions are pure; values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dims",
    "HermitianOperator",
    "DensityMatrix",
    "KrausChannel",
    "PermutationSpec",
    "ResourceCapError",
    "set_max_side",
    "max_side",
    "check_side",
    "stream",
    "hermitian",
    "identity_operator",
    "density",
    "pure_state_density",
    "as_dims",
    "tensor",
    "tensor_power",
    "partial_trace",
    "partial_trace_vector",
    "permute_factors",
    "permutation_unitary",
    "sym_projector",
    "haar_moment_operator",
    "permutation_twirl",
    "b_side_twirl",
    "apply_channel",
    "apply_channel_to_operator",
    "channel_on_factors",
    "identity_channel",
    "qc_dephasing_channel",
    "completely_depolarizing_channel",
    "pauli_twirl_channel",
    "random_state",
    "haar_state_vector",
    "induced_mixed_state",
    "symmetric_state_vector",
    "random_hermitian",
    "random_contraction",
    "sym_rank",
    "eig_hermitian",
    "min_eigenvalue",
]

# Tolerances for construction-time invariants.  Absolute floors plus a
# relative Frobenius term cover double-precision eigensolver accuracy.
HERMITICITY_ATOL = 1e-10
HERMITICITY_RTOL = 1e-9
PSD_MIN_EIG_TOL = 1e-10
TRACE_TOL = 1e-10
KRAUS_COMPLETENESS_TOL = 1e-10

DEFAULT_MAX_SIDE = 4096
_max_side = DEFAULT_MAX_SIDE


class ResourceCapError(RuntimeError):
    """An allocation would exceed the configured side-length cap."""


def set_max_side(side: int) -> None:
    """Set the global cap on matrix side lengths (default 4096)."""
    global _max_side
    if side < 1:
        raise ValueError("cap must be positive")
    _max_side = int(side)


def max_side() -> int:
    return _max_side


def check_side(side: int, what: str = "operator") -> None:
    """Raise :class:`ResourceCapError` if ``side`` exceeds the global cap."""
    if side > _max_side:
        raise ResourceCapError(
            f"{what} side {side} exceeds the configured cap {_max_side}"
        )


def stream(seed: int, *labels) -> np.random.Generator:
    """Counter-based generator on an independent stream named by ``labels``.

    Streams with different labels are statistically independent and
    reproducible across runs and platforms for a fixed ``seed``.
    """
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
        words.append(int.from_bytes(digest[:8], "little"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


@dataclass(frozen=True)
class Dims:
    """Ordered local dimensions of the tensor factors of an operator."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        if len(factors) == 0:
            raise ValueError("at least one tensor factor is required")
        if any(f < 1 for f in factors):
            raise ValueError(f"local dimensions must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def size(self) -> int:
        return math.prod(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __getitem__(self, item):
        return self.factors[item]

    def subset(self, keep) -> "Dims":
        return Dims(tuple(self.factors[i] for i in keep))


def as_dims(dims) -> Dims:
    if isinstance(dims, Dims):
        return dims
    if isinstance(dims, (int, np.integer)):
        return Dims((int(dims),))
    return Dims(tuple(dims))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Square complex matrix tagged with the dimensions of its factors.

    Unchecked internal constructor for kernel output: it checks the shape
    only and keeps a read-only view of ``matrix``, with no copy.  Outside
    data goes through :func:`hermitian`."""

    matrix: np.ndarray
    dims: Dims

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        dims = as_dims(self.dims)
        if mat.shape[0] != dims.size:
            raise ValueError(
                f"matrix side {mat.shape[0]} does not match dims {dims.factors}"
            )
        mat = mat.view()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def retagged(self, dims) -> "HermitianOperator":
        """Same matrix with a different (size-compatible) factor split."""
        return HermitianOperator(self.matrix, as_dims(dims))


def hermitian(matrix, dims) -> HermitianOperator:
    """Checked entry point for outside data: copies ``matrix`` and requires
    ``||A - A^dag||_F <= HERMITICITY_ATOL + HERMITICITY_RTOL ||A||_F``."""
    op = HermitianOperator(np.array(matrix, dtype=np.complex128, order="C"), dims)
    mat = op.matrix
    defect = np.linalg.norm(mat - mat.conj().T)
    tol = HERMITICITY_ATOL + HERMITICITY_RTOL * np.linalg.norm(mat)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > tol {tol:.3e}")
    return op


def identity_operator(dims) -> HermitianOperator:
    dims = as_dims(dims)
    return HermitianOperator(np.eye(dims.size, dtype=complex), dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """PSD operator with unit trace (or sub-normalized where flagged).

    Unchecked internal constructor: it checks the trace only.  Outside data
    goes through :func:`density`."""

    op: HermitianOperator
    normalized: bool = True

    def __post_init__(self):
        tr = self.op.trace()
        if self.normalized:
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"trace {tr!r} is not 1 for a normalized state")
        else:
            if not (0.0 < tr <= 1.0 + TRACE_TOL):
                raise ValueError(f"sub-normalized state must have trace in (0, 1], got {tr!r}")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dims(self) -> Dims:
        return self.op.dims


def density(matrix, dims, normalized: bool = True) -> DensityMatrix:
    """Checked entry point for outside data: :func:`hermitian`, then a
    minimum eigenvalue of at least ``-PSD_MIN_EIG_TOL`` and the trace."""
    op = hermitian(matrix, dims)
    min_eig = float(np.linalg.eigvalsh(op.matrix)[0])
    if min_eig < -PSD_MIN_EIG_TOL:
        raise ValueError(f"not PSD: minimum eigenvalue {min_eig:.3e}")
    return DensityMatrix(op, normalized=normalized)


def pure_state_density(vector: np.ndarray, dims, normalized: bool = True) -> DensityMatrix:
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    return density(np.outer(vec, vec.conj()), dims, normalized=normalized)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus_ops: tuple
    in_dims: Dims
    out_dims: Dims

    def __post_init__(self):
        in_dims = as_dims(self.in_dims)
        out_dims = as_dims(self.out_dims)
        ops = tuple(np.array(k, dtype=np.complex128) for k in self.kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (out_dims.size, in_dims.size):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not map "
                    f"{in_dims.size} -> {out_dims.size}"
                )
        total = sum(k.conj().T @ k for k in ops)
        defect = np.linalg.norm(total - np.eye(in_dims.size))
        if defect > KRAUS_COMPLETENESS_TOL:
            raise ValueError(f"Kraus operators are not trace preserving: {defect:.3e}")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)


@dataclass(frozen=True)
class PermutationSpec:
    """Bijection on factor positions, 0-based.

    The associated unitary maps the basis string ``j`` to the string whose
    k-th letter is ``j[mapping[k]]``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(i) for i in self.mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError(f"not a bijection on 0..{len(mapping) - 1}: {mapping}")
        object.__setattr__(self, "mapping", mapping)

    def __len__(self) -> int:
        return len(self.mapping)

    def compose(self, other: "PermutationSpec") -> "PermutationSpec":
        """Permutation whose unitary is ``U(self) @ U(other)``."""
        if len(other) != len(self):
            raise ValueError("length mismatch")
        return PermutationSpec(tuple(other.mapping[i] for i in self.mapping))

    def inverse(self) -> "PermutationSpec":
        inv = [0] * len(self.mapping)
        for k, v in enumerate(self.mapping):
            inv[v] = k
        return PermutationSpec(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "PermutationSpec":
        return cls(tuple(range(n)))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "PermutationSpec":
        return cls(tuple(int(i) for i in rng.permutation(n)))


# ---------------------------------------------------------------------------
# tensor algebra


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; factor lists are concatenated."""
    side = a.side * b.side
    check_side(side, "tensor product")
    return HermitianOperator(np.kron(a.matrix, b.matrix), Dims(a.dims.factors + b.dims.factors))


def tensor_power(a: HermitianOperator, n: int) -> HermitianOperator:
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    out = a
    for _ in range(n - 1):
        out = tensor(out, a)
    return out


def _as_tensor(matrix: np.ndarray, dims: Dims) -> np.ndarray:
    return matrix.reshape(dims.factors + dims.factors)


def partial_trace(a: HermitianOperator, keep) -> HermitianOperator:
    """Trace out every factor not listed in ``keep`` (original order kept)."""
    m = len(a.dims)
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= m for i in keep):
        raise IndexError(f"keep indices {keep} out of range for {m} factors")
    traced = [i for i in range(m) if i not in keep]
    if not traced:
        return a
    if not keep:
        raise ValueError("cannot trace out every factor; keep at least one")
    arr = _as_tensor(a.matrix, a.dims)
    axes = (
        keep
        + [m + i for i in keep]
        + traced
        + [m + i for i in traced]
    )
    arr = arr.transpose(axes)
    k = math.prod(a.dims[i] for i in keep)
    t = math.prod(a.dims[i] for i in traced)
    arr = arr.reshape(k, k, t, t)
    out = np.trace(arr, axis1=2, axis2=3)
    return HermitianOperator(out, a.dims.subset(keep))


def partial_trace_vector(vector: np.ndarray, dims, keep) -> HermitianOperator:
    """Reduced operator of the rank-one projector of ``vector``."""
    dims = as_dims(dims)
    m = len(dims)
    keep = sorted(set(int(i) for i in keep))
    traced = [i for i in range(m) if i not in keep]
    vec = np.asarray(vector, dtype=complex).reshape(dims.factors)
    axes = keep + traced
    vec = vec.transpose(axes)
    k = math.prod(dims[i] for i in keep)
    t = math.prod(dims[i] for i in traced)
    vec = vec.reshape(k, t)
    out = vec @ vec.conj().T
    return HermitianOperator(out, dims.subset(keep))


def permute_factors(a: HermitianOperator, order) -> HermitianOperator:
    """Reorder tensor factors so that new factor ``k`` is old factor ``order[k]``."""
    m = len(a.dims)
    order = [int(i) for i in order]
    if sorted(order) != list(range(m)):
        raise ValueError(f"order {order} is not a permutation of 0..{m - 1}")
    arr = _as_tensor(a.matrix, a.dims)
    axes = order + [m + i for i in order]
    side = a.side
    out = arr.transpose(axes).reshape(side, side)
    return HermitianOperator(out, a.dims.subset(order))


# ---------------------------------------------------------------------------
# permutation actions and the symmetric subspace


def _digit_table(n: int, d: int) -> np.ndarray:
    """All length-n base-d strings, one row per basis index, big-endian."""
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int64)
    for pos in range(n):
        digits[:, pos] = (idx // d ** (n - 1 - pos)) % d
    return digits


def permutation_unitary(perm: PermutationSpec, local_dim: int) -> np.ndarray:
    """Unitary permuting tensor factors of ``(C^local_dim)^{x n}``.

    Maps the basis string ``j`` to the string with k-th letter
    ``j[perm.mapping[k]]``.
    """
    n = len(perm)
    side = local_dim**n
    check_side(side, "permutation unitary")
    digits = _digit_table(n, local_dim)
    strides = local_dim ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = digits[:, list(perm.mapping)] @ strides
    u = np.zeros((side, side), dtype=complex)
    u[rows, np.arange(side)] = 1.0
    return u


def _orbit_classes(n: int, d: int) -> dict:
    """Group basis indices of ``(C^d)^{x n}`` by their sorted letter multiset."""
    digits = _digit_table(n, d)
    classes: dict = {}
    for idx, row in enumerate(digits):
        classes.setdefault(tuple(sorted(row)), []).append(idx)
    return classes


def _average_permutations(arr: np.ndarray, q: int, offsets) -> np.ndarray:
    """Exact average of complex ``arr`` over all permutations of ``q``
    consecutive axes, each applied at once to every run of ``q`` axes that
    starts at an index in ``offsets``.

    ``S_m`` is the disjoint union of the cosets ``(k m-1) S_{m-1}``,
    ``k = 0..m-1``, so the sum over ``S_m`` is the sum of ``m`` transposed
    copies of the sum over ``S_{m-1}``: ``q(q-1)/2`` transposes in all, then
    one division by ``q!``.
    """
    for m in range(2, q + 1):
        acc = arr.copy()
        for k in range(m - 1):
            swapped = arr
            for o in offsets:
                swapped = swapped.swapaxes(o + k, o + m - 1)
            acc += swapped
        arr = acc
    if q > 1:  # divide the float64 view: numpy's complex division is not correctly rounded
        arr.view(np.float64)[...] /= math.factorial(q)
    return arr


def sym_projector(n: int, d: int, method: str = "occupation") -> HermitianOperator:
    """Orthogonal projector onto the n-copy symmetric subspace of ``C^d``.

    Two independent constructions are provided: ``occupation`` sums the
    normalized projectors of symmetrized occupation-number basis vectors;
    ``average`` averages all factor-permutation unitaries exactly, applied
    to the identity.  The projector has rank ``binom(n + d - 1, n)``.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    side = d**n
    check_side(side, "symmetric projector")
    if method == "occupation":
        return _occupation_projector(n, d)
    if method != "average":
        raise ValueError(f"unknown method {method!r}")
    p = _average_permutations(np.eye(side, dtype=complex).reshape((d,) * n + (side,)), n, (0,))
    return HermitianOperator(p.reshape(side, side), Dims((d,) * n))


@functools.lru_cache(maxsize=4)
def _occupation_projector(n: int, d: int) -> HermitianOperator:
    side = d**n
    p = np.zeros((side, side), dtype=complex)
    for members in _orbit_classes(n, d).values():
        idx = np.asarray(members)
        p[np.ix_(idx, idx)] = 1.0 / len(idx)
    return HermitianOperator(p, Dims((d,) * n))


def sym_rank(n: int, d: int) -> int:
    return math.comb(n + d - 1, n)


def haar_moment_operator(m: int, d: int) -> HermitianOperator:
    """Exact m-th moment of Haar-random pure states on ``C^d``.

    Equals the symmetric projector divided by ``binom(m + d - 1, m)``; it is
    PSD with unit trace.
    """
    p = sym_projector(m, d)
    return HermitianOperator(p.matrix / sym_rank(m, d), p.dims)


def permutation_twirl(x: HermitianOperator, n: int) -> HermitianOperator:
    """Average ``U_pi x U_pi^dag`` over all permutations of ``n`` equal groups.

    The factor list must split into ``n`` contiguous groups with identical
    dimension patterns.  The output commutes with every group permutation
    and is a fixed point of the twirl itself.
    """
    m = len(x.dims)
    if n < 1 or m % n != 0:
        raise ValueError(f"{m} factors do not split into {n} equal groups")
    g = m // n
    groups = [x.dims.factors[i * g : (i + 1) * g] for i in range(n)]
    if any(grp != groups[0] for grp in groups):
        raise ValueError(f"groups have different dimension patterns: {groups}")
    group_dim = math.prod(groups[0])
    out = _average_permutations(x.matrix.reshape((group_dim,) * (2 * n)), n, (0, n))
    return HermitianOperator(out.reshape(x.side, x.side), x.dims)


def b_side_twirl(m: HermitianOperator, q: int) -> HermitianOperator:
    """Average over permutations of the trailing ``q`` equal factors only."""
    nf = len(m.dims)
    if q < 1 or q > nf:
        raise ValueError(f"cannot twirl {q} trailing factors of {nf}")
    b_dims = m.dims.factors[-q:]
    if any(b != b_dims[0] for b in b_dims):
        raise ValueError(f"trailing factors are not all equal: {b_dims}")
    if q == 1:
        return m
    shape = (math.prod(m.dims.factors[:-q]),) + b_dims
    arr = _average_permutations(m.matrix.reshape(shape + shape), q, (1, q + 2))
    return HermitianOperator(arr.reshape(m.side, m.side), m.dims)


# ---------------------------------------------------------------------------
# channels


def apply_channel_to_operator(ch: KrausChannel, op: HermitianOperator) -> HermitianOperator:
    if op.dims.size != ch.in_dims.size:
        raise ValueError(
            f"operator side {op.dims.size} does not match channel input {ch.in_dims.size}"
        )
    out = sum(k @ op.matrix @ k.conj().T for k in ch.kraus_ops)
    return HermitianOperator(out, ch.out_dims)


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel; the trace (hence normalization flag) is preserved."""
    return DensityMatrix(apply_channel_to_operator(ch, rho.op), normalized=rho.normalized)


def channel_on_factors(ch: KrausChannel, op: HermitianOperator, positions) -> HermitianOperator:
    """Apply a single-factor channel independently on each listed factor."""
    if len(ch.in_dims) != 1 or ch.in_dims.size != ch.out_dims.size:
        raise ValueError("channel_on_factors needs a square single-factor channel")
    d = ch.in_dims.size
    side = op.side
    mat = op.matrix
    for pos in sorted(int(p) for p in positions):
        if op.dims[pos] != d:
            raise ValueError(f"factor {pos} has dim {op.dims[pos]}, channel wants {d}")
        left = math.prod(op.dims.factors[:pos])
        right = side // (left * d)
        acc = np.zeros_like(mat)
        for k in ch.kraus_ops:
            # K on the factor's row axis, then conj(K) on its column axis
            rows = (k @ mat.reshape(left, d, right * side)).reshape(side * left, d, right)
            acc += (k.conj() @ rows).reshape(side, side)
        mat = acc
    return HermitianOperator(mat, op.dims)


def identity_channel(dims) -> KrausChannel:
    dims = as_dims(dims)
    return KrausChannel((np.eye(dims.size),), dims, dims)


def qc_dephasing_channel(d: int) -> KrausChannel:
    """Quantum-classical channel killing all off-diagonal matrix elements."""
    ops = tuple(np.outer(_basis(d, x), _basis(d, x)) for x in range(d))
    return KrausChannel(ops, Dims((d,)), Dims((d,)))


def completely_depolarizing_channel(d: int) -> KrausChannel:
    ops = tuple(
        np.outer(_basis(d, i), _basis(d, j)) / math.sqrt(d)
        for i in range(d)
        for j in range(d)
    )
    return KrausChannel(ops, Dims((d,)), Dims((d,)))


def pauli_twirl_channel() -> KrausChannel:
    """Qubit twirl over the Pauli group; its range is the commutant ``{I/2}``."""
    paulis = (
        np.eye(2),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    return KrausChannel(tuple(p / 2.0 for p in paulis), Dims((2,)), Dims((2,)))


def _basis(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# random states


def haar_state_vector(dim: int, seed: int, *labels) -> np.ndarray:
    """Haar-random unit vector (a column of a Haar-random unitary)."""
    rng = stream(seed, "haar_pure", *labels)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def induced_mixed_state(dims, seed: int, *labels) -> DensityMatrix:
    """Mixed state from partial-tracing a Haar pure state on a doubled space.

    The environment has the same dimension as the system, which gives the
    Hilbert-Schmidt-uniform measure over mixed states.
    """
    dims = as_dims(dims)
    d = dims.size
    vec = haar_state_vector(d * d, seed, "induced", *labels)
    red = partial_trace_vector(vec, Dims((d, d)), keep=[0])
    return DensityMatrix(red.retagged(dims))


def symmetric_state_vector(n: int, d: int, seed: int, *labels) -> np.ndarray:
    """Haar vector projected onto the symmetric subspace and renormalized.

    Retries with an incremented sub-seed if the projection vanishes and
    fails after 16 attempts.
    """
    proj = sym_projector(n, d).matrix
    for attempt in range(16):
        v = haar_state_vector(d**n, seed, "symmetric", attempt, *labels)
        w = proj @ v
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            return w / norm
    raise RuntimeError("projection onto the symmetric subspace vanished 16 times")


def random_state(kind: str, dims, seed: int, *labels):
    """Seeded random state of the requested kind.

    ``haar_pure`` returns a unit vector on the total space, ``induced_mixed``
    a :class:`DensityMatrix`, and ``symmetric_pure`` (dims = (n copies of d))
    a unit vector in the symmetric subspace.
    """
    dims = as_dims(dims)
    if kind == "haar_pure":
        return haar_state_vector(dims.size, seed, *labels)
    if kind == "induced_mixed":
        return induced_mixed_state(dims, seed, *labels)
    if kind == "symmetric_pure":
        d = dims[0]
        if any(f != d for f in dims):
            raise ValueError("symmetric_pure needs n equal factors")
        return symmetric_state_vector(len(dims), d, seed, *labels)
    raise ValueError(f"unknown random state kind {kind!r}")


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_contraction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random operator with spectrum rescaled into [0, 1]."""
    h = random_hermitian(dim, rng)
    w, v = np.linalg.eigh(h)
    w = (w - w.min()) / (w.max() - w.min())
    return (v * w) @ v.conj().T


# ---------------------------------------------------------------------------
# spectral routines


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix.

    The reconstruction ``V diag(w) V^dag`` is checked against the input to a
    relative Frobenius tolerance of 1e-9.
    """
    mat = a.matrix if isinstance(a, HermitianOperator) else np.asarray(a, dtype=complex)
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    err = np.linalg.norm((v * w) @ v.conj().T - mat)
    if err > 1e-9 * max(np.linalg.norm(mat), 1e-30):
        raise RuntimeError(f"eigendecomposition reconstruction error {err:.3e}")
    return w, v


def min_eigenvalue(a) -> float:
    mat = a.matrix if isinstance(a, HermitianOperator) else np.asarray(a, dtype=complex)
    return float(np.linalg.eigvalsh(mat)[0])
