"""Independent references that the tests compare the package against.

The package builds ``P_sym`` and ``Sym^n`` from the occupation-class table
and evaluates fidelities in stacked ``eigvalsh`` calls.  The constructions
here take the other road: dense permutation unitaries, exact averages over
the symmetric group, one ``eigh`` per fidelity, relative entropies summed
one eigenvector at a time and Monte-Carlo moments from per-sample outer
products.  The package never imports this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from definetti.measures import _sqrtm_psd
from definetti.operators import (
    Dims,
    HermitianOperator,
    _occupation_table,
    channel_on_factors,
    ginibre,
    haar_state_vector,
    induced_mixed_state,
    partial_trace_vector,
    stream,
    sym_projector,
    symmetric_state_vector,
    tensor_power,
)

# ---------------------------------------------------------------------------
# permutations of tensor factors


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


def permutation_unitary(perm: PermutationSpec, local_dim: int) -> np.ndarray:
    """Unitary permuting tensor factors of ``(C^local_dim)^{x n}``.

    Maps the basis string ``j`` to the string with k-th letter
    ``j[perm.mapping[k]]``.
    """
    n = len(perm)
    side = local_dim**n
    digits = np.indices((local_dim,) * n).reshape(n, side).T  # big-endian strings
    strides = local_dim ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = digits[:, list(perm.mapping)] @ strides
    u = np.zeros((side, side), dtype=complex)
    u[rows, np.arange(side)] = 1.0
    return u


def average_permutations(arr: np.ndarray, q: int, offsets) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# the symmetric subspace and group averages


def sym_rank(n: int, d: int) -> int:
    return math.comb(n + d - 1, n)


def sym_projector_average(n: int, d: int) -> HermitianOperator:
    """``P_sym`` on ``(C^d)^{x n}`` as the exact average of all factor
    permutations, applied to the identity."""
    side = d**n
    p = average_permutations(np.eye(side, dtype=complex).reshape((d,) * n + (side,)), n, (0,))
    return HermitianOperator(p.reshape(side, side), Dims((d,) * n))


def haar_moment_operator(m: int, d: int) -> HermitianOperator:
    """Exact m-th moment of Haar-random pure states on ``C^d``: the
    symmetric projector divided by ``binom(m + d - 1, m)``."""
    p = sym_projector(m, d)
    return HermitianOperator(p.matrix / sym_rank(m, d), p.dims)


def permutation_twirl(x: HermitianOperator, n: int) -> HermitianOperator:
    """Average ``U_pi x U_pi^dag`` over all permutations of ``n`` equal groups.

    The factor list must split into ``n`` contiguous groups with identical
    dimension patterns.
    """
    m = len(x.dims)
    if n < 1 or m % n != 0:
        raise ValueError(f"{m} factors do not split into {n} equal groups")
    g = m // n
    groups = [x.dims.factors[i * g : (i + 1) * g] for i in range(n)]
    if any(grp != groups[0] for grp in groups):
        raise ValueError(f"groups have different dimension patterns: {groups}")
    group_dim = math.prod(groups[0])
    out = average_permutations(x.matrix.reshape((group_dim,) * (2 * n)), n, (0, n))
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
    arr = average_permutations(m.matrix.reshape(shape + shape), q, (1, q + 2))
    return HermitianOperator(arr.reshape(m.side, m.side), m.dims)


# ---------------------------------------------------------------------------
# symmetric draws and symmetrized strings, class by class


def symmetrized_strings(m: int, d: int):
    """``(combo, indicator)`` for each multiset ``combo`` of ``m`` letters of
    ``range(d)`` in ``combinations_with_replacement`` order: the 0/1 vector on
    ``(C^d)^{x m}`` of the combo's distinct arrangements."""
    strides = d ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for combo in itertools.combinations_with_replacement(range(d), m):
        indicator = np.zeros(d**m)
        for arrangement in set(itertools.permutations(combo)):
            indicator[int(np.dot(arrangement, strides))] = 1.0
        yield combo, indicator


def permutation_class_vector(rng: np.random.Generator, m: int, d: int, keep=lambda combo: True) -> np.ndarray:
    """Unit vector built from explicit arrangements: for each combo that
    ``keep`` accepts, a complex Gaussian amplitude (real part, then imaginary)
    times the normalized sum of the combo's arrangements."""
    vec = np.zeros(d**m, dtype=complex)
    for combo, indicator in symmetrized_strings(m, d):
        if keep(combo):
            coeff = rng.standard_normal() + 1j * rng.standard_normal()
            vec += coeff * indicator / math.sqrt(indicator.sum())
    return vec / np.linalg.norm(vec)


def table_truncated_vector(n: int, k: int, d: int, big_d: int, seed: int, *labels) -> np.ndarray:
    """The truncated symmetric vector drawn directly from the occupation
    table: one ``(kept classes, 2)`` normal draw, divided by the root class
    sizes and expanded through the class labels."""
    label, counts, sizes = _occupation_table(n + k, big_d)
    kept = counts[:, :d].sum(axis=1) >= n
    z = stream(seed, "truncated", *labels).standard_normal((int(kept.sum()), 2))
    amp = np.zeros(len(sizes), dtype=complex)
    amp[kept] = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(sizes[kept])
    vec = amp[label]
    return vec / np.linalg.norm(vec)


def permutation_symmetrized_string(d: int, n: int) -> np.ndarray:
    """The classical suite's symmetrized-string distribution, uniform on the
    set of permutations of ``0^(n-1) 1`` (of ``0^n`` when ``d = 1``)."""
    dist = np.zeros(d**n)
    perms = set(itertools.permutations([0] * (n - 1) + [1 % d if d > 1 else 0]))
    for p in perms:
        idx = 0
        for letter in p:
            idx = idx * d + letter
        dist[idx] = 1.0 / len(perms)
    return dist


# ---------------------------------------------------------------------------
# the seesaw's eigensteps one at a time, and the Bloch step and ket as first
# written

PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def top_eigpair(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue of a Hermitian matrix and its eigenvector, rotated so
    that its largest-magnitude entry is real and positive."""
    w, v = np.linalg.eigh(mat)
    vec = v[:, -1]
    k = int(np.argmax(np.abs(vec)))
    return float(w[-1]), vec * (vec[k] / abs(vec[k])).conjugate()


def bloch_half_step(y: np.ndarray, k: np.ndarray, x: np.ndarray):
    """Top eigenpairs of ``r . sigma`` for ``r = y @ k``, one per Bloch row:
    ``s = r / |r|`` and ``r0 + |r|``; a row with ``r = 0`` keeps ``x``."""
    r = y @ k
    norm = np.linalg.norm(r[:, 1:], axis=1)
    flat = norm == 0.0
    s = np.where(flat[:, None], x, r / np.where(flat, 1.0, norm)[:, None])
    s[:, 0] = 1.0
    return s, r[:, 0] + norm


def bloch_ket(s: np.ndarray) -> np.ndarray:
    """The longer column of the projector ``s . sigma / 2``, normalized."""
    p = np.tensordot(s, PAULIS, 1)
    col = p[:, np.argmax(p.diagonal().real)]
    return col / np.linalg.norm(col)


# ---------------------------------------------------------------------------
# fidelities one at a time


def fidelity_from_root(root: np.ndarray, sigma: np.ndarray) -> float:
    """``F(rho, sigma)`` given ``root = sqrt(rho)``, by one ``eigh``."""
    inner = root @ sigma @ root
    w = np.linalg.eigh((inner + inner.conj().T) / 2.0)[0]
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def loop_mixed_margins(n: int, d: int, seed: int, samples: int) -> np.ndarray:
    """Per-sample margins ``F(rho, sigma^{x n}) - |<theta|psi^{x n}>|`` of
    the mixed reduction, drawn from the same streams as the package."""
    theta = symmetric_state_vector(n, d * d, seed, "mixed-reduction")
    rho = partial_trace_vector(theta, Dims((d, d) * n), range(0, 2 * n, 2))
    rho_root = _sqrtm_psd(rho.matrix)
    margins = np.empty(samples)
    for j in range(samples):
        psi = haar_state_vector(d * d, seed, "mixed-fid", j)
        v = psi
        for _ in range(n - 1):
            v = np.kron(v, psi)
        overlap = abs(np.vdot(theta, v))
        sigma = partial_trace_vector(psi, Dims((d, d)), [0])
        margins[j] = fidelity_from_root(rho_root, tensor_power(sigma, n).matrix) - overlap
    return margins


def loop_integrand_margins(rho, ch, tau0, samples: int, delta: float, seed: int) -> tuple[np.ndarray, float]:
    """Per-sample integrand-domination margins and the mass within
    ``delta`` of ``F = 1``."""
    n, d = len(rho.dims), ch.in_dims.size
    rho_root = _sqrtm_psd(rho.matrix)
    tau0_root = _sqrtm_psd(tau0.matrix)
    margins = np.empty(samples)
    near = 0
    for j in range(samples):
        sigma = induced_mixed_state((d,), seed, "domination", j)
        lhs = fidelity_from_root(rho_root, tensor_power(sigma.op, n).matrix) ** 2
        f_single = fidelity_from_root(tau0_root, channel_on_factors(ch, sigma.op, [0]).matrix)
        margins[j] = f_single ** (2 * n) - lhs
        if f_single >= 1.0 - delta:
            near += 1
    return margins, near / samples


def loop_fixed_point_margins(rho, ch, samples: int, seed: int) -> np.ndarray:
    """Per-sample fixed-point margins ``F(rho, (N sigma)^{x n}) - F(rho, sigma^{x n})``."""
    n, d = len(rho.dims), ch.in_dims.size
    rho_root = _sqrtm_psd(rho.matrix)
    margins = np.empty(samples)
    for j in range(samples):
        sigma = induced_mixed_state((d,), seed, "fixed-point", j)
        mapped_sigma = channel_on_factors(ch, sigma.op, [0])
        after = fidelity_from_root(rho_root, tensor_power(mapped_sigma, n).matrix)
        margins[j] = after - fidelity_from_root(rho_root, tensor_power(sigma.op, n).matrix)
    return margins


# ---------------------------------------------------------------------------
# trace distance, relative entropy and the Monte-Carlo moment by the long road


def _clipped_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(mat)
    return np.clip(w, 0.0, None), v


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference of two states, by one ``eigvalsh``."""
    return float(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)).sum() / 2.0)


def outer_product_monte_carlo(theta, n: int, d: int, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(mean, stderr)`` of the Monte-Carlo constrained moment, from the same
    chunked draws as the package but summed over the ``(m, d^n, d^n)`` stack
    of per-sample outer products, with tensor powers by ``np.kron``."""
    theta = np.asarray(theta, dtype=complex).reshape(-1)
    mean = np.zeros((d**n, d**n), dtype=complex)
    sq_re, sq_im = np.zeros(mean.shape), np.zeros(mean.shape)
    for done in range(0, samples, 2048):
        psi = ginibre(stream(seed, "haar_pure", "mc", done), (min(2048, samples - done), d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        block = np.stack([functools.reduce(np.kron, [p] * n) for p in psi])
        w = np.abs(block @ theta.conj()) ** 2
        prod = (block * w[:, None])[:, :, None] * block.conj()[:, None, :]
        mean += prod.sum(axis=0)
        sq_re += (prod.real**2).sum(axis=0)
        sq_im += (prod.imag**2).sum(axis=0)
    mean /= samples
    var = np.clip(sq_re / samples - mean.real**2, 0, None) + np.clip(sq_im / samples - mean.imag**2, 0, None)
    return mean, np.sqrt(var) / math.sqrt(samples)


def outer_product_relative_entropy(rho: np.ndarray, sigma: np.ndarray, floor: float = 1e-12) -> float:
    """``D(rho || sigma)`` in bits with ``log sigma`` summed from outer
    products; ``inf`` when ``rho`` has weight off the support of ``sigma``."""
    ws, vs = _clipped_eigh(sigma)
    kernel = vs[:, ws <= floor]
    if kernel.shape[1] and np.linalg.norm(kernel.conj().T @ rho @ kernel) > floor:
        return math.inf
    wr = _clipped_eigh(rho)[0]
    term1 = float((wr[wr > 0] * np.log2(wr[wr > 0])).sum())
    log_s = sum(math.log2(w) * np.outer(vs[:, i], vs[:, i].conj()) for i, w in enumerate(ws) if w > floor)
    return term1 - float(np.trace(rho @ log_s).real)
