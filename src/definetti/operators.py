"""Dense complex operator algebra with tensor-factor bookkeeping.

Everything in this package works on explicit dense matrices tagged with a
list of local dimensions.  The helpers here cover tensor products, partial
traces, reordering of tensor factors, the symmetric-subspace projector and
its occupation-class table, Kraus channels, spectral routines and seeded
random state generation.  All functions are pure; values are immutable after
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
    "sym_projector",
    "apply_channel",
    "channel_on_factors",
    "identity_channel",
    "qc_dephasing_channel",
    "completely_depolarizing_channel",
    "pauli_twirl_channel",
    "ginibre",
    "haar_state_vector",
    "induced_mixed_state",
    "symmetric_state_vector",
    "random_hermitian",
    "random_contraction",
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


def _require_at_least(low: int, **sizes) -> None:
    """Raise ``ValueError`` naming the first of ``sizes`` below ``low``."""
    for name, value in sizes.items():
        if value < low:
            raise ValueError(f"need {name} >= {low}, got {value}")


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
    """PSD operator with unit trace.

    Unchecked internal constructor: it checks the trace only.  Outside data
    goes through :func:`density`."""

    op: HermitianOperator

    def __post_init__(self):
        tr = self.op.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dims(self) -> Dims:
        return self.op.dims


def density(matrix, dims) -> DensityMatrix:
    """Checked entry point for outside data: :func:`hermitian`, then a
    minimum eigenvalue of at least ``-PSD_MIN_EIG_TOL`` and the trace."""
    op = hermitian(matrix, dims)
    _psd_spectrum(op.matrix)
    return DensityMatrix(op)


def pure_state_density(vector: np.ndarray, dims) -> DensityMatrix:
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    return density(np.outer(vec, vec.conj()), dims)


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
# the symmetric subspace


def _digit_table(n: int, d: int) -> np.ndarray:
    """All length-n base-d strings, one row per basis index, big-endian."""
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int64)
    for pos in range(n):
        digits[:, pos] = (idx // d ** (n - 1 - pos)) % d
    return digits


@functools.lru_cache(maxsize=8)
def _occupation_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(label, counts, sizes)`` of the occupation classes of
    ``(C^d)^{x n}``: the class of each basis index, and each class's letter
    counts (smallest unsigned type holding ``n``) and size (multinomial), in
    the order ``itertools.combinations_with_replacement`` lists them."""
    strings, label = np.unique(np.sort(_digit_table(n, d), axis=1), axis=0, return_inverse=True)
    label = label.reshape(-1)
    counts = (strings[:, :, None] == np.arange(d)).sum(axis=1, dtype=np.min_scalar_type(n))
    sizes = np.bincount(label)
    for arr in (label, counts, sizes):
        arr.setflags(write=False)
    return label, counts, sizes


def sym_projector(n: int, d: int) -> HermitianOperator:
    """Orthogonal projector ``P_sym`` onto the n-copy symmetric subspace of
    ``C^d``, of rank ``binom(n + d - 1, n)``.

    On each occupation class it is the block with every entry ``1/size``,
    the projector onto the class's normalized symmetrized basis vector; every
    entry is exact.
    """
    _require_at_least(1, n=n, d=d)
    check_side(d**n, "symmetric projector")
    label, _, sizes = _occupation_table(n, d)
    return HermitianOperator(np.divide(label[:, None] == label, sizes[label], dtype=complex), Dims((d,) * n))


# ---------------------------------------------------------------------------
# channels


def _kraus_sum(ch: KrausChannel, mats: np.ndarray) -> np.ndarray:
    """``sum_k K mats K^dag`` on one matrix or on a stack of them."""
    return sum(k @ mats @ k.conj().T for k in ch.kraus_ops)


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel; it preserves the trace."""
    if rho.dims.size != ch.in_dims.size:
        raise ValueError(f"state side {rho.dims.size} does not match channel input {ch.in_dims.size}")
    return DensityMatrix(HermitianOperator(_kraus_sum(ch, rho.matrix), ch.out_dims))


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


def ginibre(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex standard Gaussian array: the real parts drawn first, then the imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_state_vector(dim: int, seed: int, *labels) -> np.ndarray:
    """Haar-random unit vector (a column of a Haar-random unitary)."""
    v = ginibre(stream(seed, "haar_pure", *labels), dim)
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


def _haar_stack(d: int, samples: int, seed: int, *labels, induced: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Row ``j`` is ``haar_state_vector(d * d, seed, *labels, j)`` (with ``induced``, the purification of
    ``induced_mixed_state((d,), seed, *labels, j)``) and its reduction to the first factor."""
    labels = ("induced", *labels) if induced else labels
    v = np.stack([haar_state_vector(d * d, seed, *labels, j) for j in range(samples)]).reshape(samples, d, d)
    return v.reshape(samples, -1), v @ v.conj().transpose(0, 2, 1)


def symmetric_state_vector(n: int, d: int, seed: int, *labels) -> np.ndarray:
    """Haar vector projected onto the symmetric subspace (each entry replaced
    by its occupation class's mean) and renormalized.

    Retries with an incremented sub-seed if the projection vanishes and
    fails after 16 attempts.
    """
    _require_at_least(1, n=n, d=d)
    check_side(d**n, "symmetric state vector")
    label, _, sizes = _occupation_table(n, d)
    for attempt in range(16):
        v = haar_state_vector(d**n, seed, "symmetric", attempt, *labels)
        w = ((np.bincount(label, v.real) + 1j * np.bincount(label, v.imag)) / sizes)[label]
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            return w / norm
    raise RuntimeError("projection onto the symmetric subspace vanished 16 times")


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = ginibre(rng, (dim, dim))
    return (g + g.conj().T) / 2.0


def random_contraction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random operator with spectrum rescaled into [0, 1]."""
    h = random_hermitian(dim, rng)
    w, v = np.linalg.eigh(h)
    w = (w - w.min()) / (w.max() - w.min())
    return (v * w) @ v.conj().T


# ---------------------------------------------------------------------------
# spectral routines


def _psd_spectrum(mat: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues of a Hermitian matrix or a stack of them, clipped
    at 0, and with ``vectors`` the eigenvectors too.  An eigenvalue below
    ``-PSD_MIN_EIG_TOL`` raises: the one place the PSD rule is written."""
    w, v = np.linalg.eigh(mat) if vectors else (np.linalg.eigvalsh(mat), None)
    least = float(w[..., 0].min())
    if least < -PSD_MIN_EIG_TOL:
        raise ValueError(f"not PSD: minimum eigenvalue {least:.3e}")
    w = np.clip(w, 0.0, None)
    return (w, v) if vectors else w


def min_eigenvalue(a) -> float:
    mat = a.matrix if isinstance(a, HermitianOperator) else np.asarray(a, dtype=complex)
    return float(np.linalg.eigvalsh(mat)[0])
