"""Distance and entropy functionals on states and distributions.

Fidelity follows the sub-normalized extension ``F(M, N) = ||sqrt(M) sqrt(N)||_1``
so that every functional also applies to positive operators with trace below
one.  All entropic quantities are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import DensityMatrix, HermitianOperator, partial_trace

__all__ = [
    "Povm",
    "fidelity",
    "trace_distance",
    "entropy",
    "relative_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "purify",
    "classical_fidelity",
    "classical_trace_distance",
    "outcome_distribution",
    "measured_trace_distance",
    "measured_fidelity",
]

EIG_CLIP_TOL = 1e-10
SUPPORT_FLOOR = 1e-12


def _matrix(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.matrix
    if isinstance(x, HermitianOperator):
        return x.matrix
    return np.asarray(x, dtype=complex)


def _clipped_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with tiny negative eigenvalues clipped to zero.

    Values below ``-EIG_CLIP_TOL`` are genuine PSD violations and raise.
    """
    w, v = np.linalg.eigh(mat)
    if w[0] < -EIG_CLIP_TOL:
        raise ValueError(f"operator is not PSD: minimum eigenvalue {w[0]:.3e}")
    return np.clip(w, 0.0, None), v


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    w, v = _clipped_eigh(mat)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """``||sqrt(rho) sqrt(sigma)||_1``, symmetric in its arguments."""
    r = _matrix(rho)
    s = _matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {s.shape}")
    return _fidelity_from_root(_sqrtm_psd(r), s)


def _fidelity_from_root(root: np.ndarray, sigma: np.ndarray) -> float:
    """``fidelity(rho, sigma)`` given ``root = _sqrtm_psd(rho)``, for callers
    that hold ``rho`` fixed over many ``sigma``."""
    inner = root @ sigma @ root
    w, _ = _clipped_eigh((inner + inner.conj().T) / 2.0)
    return float(np.sqrt(w).sum())


def _root_fidelities(inner: np.ndarray) -> np.ndarray:
    """``_fidelity_from_root`` over a stack of Hermitian ``sqrt(rho) sigma
    sqrt(rho)``: one stacked ``eigvalsh``, with the same PSD raise."""
    w = np.linalg.eigvalsh(inner)
    if w[:, 0].min() < -EIG_CLIP_TOL:
        raise ValueError(f"operator is not PSD: minimum eigenvalue {w[:, 0].min():.3e}")
    return np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference."""
    diff = _matrix(rho) - _matrix(sigma)
    w = np.linalg.eigvalsh(diff)
    return float(np.abs(w).sum() / 2.0)


def _entropy_of_eigs(w: np.ndarray) -> float:
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


def entropy(rho) -> float:
    """von Neumann entropy in bits, with ``0 log 0 = 0``."""
    w, _ = _clipped_eigh(_matrix(rho))
    return _entropy_of_eigs(w)


def relative_entropy(rho, sigma) -> float:
    """``D(rho || sigma)`` in bits; ``inf`` when supports are incompatible.

    A support violation (weight of ``rho`` outside the support of ``sigma``
    beyond the eigenvalue floor) yields the distinguished value ``math.inf``
    rather than an exception.
    """
    r = _matrix(rho)
    s = _matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {s.shape}")
    ws, vs = _clipped_eigh(s)
    kernel = vs[:, ws <= SUPPORT_FLOOR]
    if kernel.shape[1]:
        overlap = float(np.linalg.norm(kernel.conj().T @ r @ kernel))
        if overlap > SUPPORT_FLOOR:
            return math.inf
    wr, vr = _clipped_eigh(r)
    term1 = float((wr[wr > 0] * np.log2(wr[wr > 0])).sum())
    log_s = sum(
        math.log2(w) * np.outer(vs[:, i], vs[:, i].conj())
        for i, w in enumerate(ws)
        if w > SUPPORT_FLOOR
    )
    term2 = float(np.trace(r @ log_s).real)
    return term1 - term2


def _reduced(rho, keep) -> HermitianOperator:
    op = rho.op if isinstance(rho, DensityMatrix) else rho
    return partial_trace(op, keep)


def mutual_information(rho, a, b) -> float:
    """``I(A:B) = S(A) + S(B) - S(AB)`` for the factor groups ``a`` and ``b``."""
    a = sorted(a)
    b = sorted(b)
    if set(a) & set(b):
        raise ValueError("factor groups overlap")
    s_a = entropy(_reduced(rho, a))
    s_b = entropy(_reduced(rho, b))
    s_ab = entropy(_reduced(rho, a + b))
    return s_a + s_b - s_ab


def conditional_mutual_information(rho, a, b, c) -> float:
    """``I(A:B|C) = S(AC) + S(BC) - S(C) - S(ABC)``."""
    a, b, c = sorted(a), sorted(b), sorted(c)
    if (set(a) & set(b)) or (set(a) & set(c)) or (set(b) & set(c)):
        raise ValueError("factor groups overlap")
    if not c:
        return mutual_information(rho, a, b)
    s_ac = entropy(_reduced(rho, a + c))
    s_bc = entropy(_reduced(rho, b + c))
    s_c = entropy(_reduced(rho, c))
    s_abc = entropy(_reduced(rho, a + b + c))
    return s_ac + s_bc - s_c - s_abc


def purify(rho: DensityMatrix) -> np.ndarray:
    """Unit vector on system x environment reducing to ``rho`` on the system.

    The environment dimension always equals the full system dimension, so the
    output lives on a doubled space with dims ``rho.dims + rho.dims``.
    """
    w, v = _clipped_eigh(rho.matrix)
    d = rho.dims.size
    vec = np.zeros(d * d, dtype=complex)
    for rank, i in enumerate(range(d - 1, -1, -1)):
        if w[i] > 0:
            vec += math.sqrt(w[i]) * np.kron(v[:, i], _env_basis(d, rank))
    return vec / np.linalg.norm(vec)


def _env_basis(d: int, i: int) -> np.ndarray:
    e = np.zeros(d, dtype=complex)
    e[i] = 1.0
    return e


# ---------------------------------------------------------------------------
# POVMs and measured distances


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite POVM: PSD elements summing to the identity."""

    elements: tuple
    labels: tuple = ()

    def __post_init__(self):
        elems = [_matrix(e) for e in self.elements]
        if not elems:
            raise ValueError("a POVM needs at least one element")
        side = elems[0].shape[0]
        if any(e.shape != (side, side) for e in elems):
            raise ValueError("POVM elements must share one square shape")
        stack = np.array(elems, dtype=complex)
        if (np.linalg.eigvalsh((stack + stack.conj().transpose(0, 2, 1)) / 2.0)[:, 0] < -EIG_CLIP_TOL).any():
            raise ValueError("POVM element is not PSD")
        if np.linalg.norm(stack.sum(axis=0) - np.eye(side)) > 1e-10:
            raise ValueError("POVM elements do not sum to the identity")
        labels = self.labels or tuple(range(len(elems)))
        if len(labels) != len(elems):
            raise ValueError("one label per element required")
        stack.setflags(write=False)
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def side(self) -> int:
        return self.elements[0].shape[0]


def classical_fidelity(p, q):
    """Bhattacharyya overlap ``sum_i sqrt(p_i q_i)``, over the last axis: a
    stack of ``q`` rows gives an array of overlaps, one ``q`` a float."""
    overlap = np.sqrt(np.asarray(p, dtype=float) * np.asarray(q, dtype=float)).sum(axis=-1)
    return float(overlap) if overlap.ndim == 0 else overlap


def classical_trace_distance(p, q) -> float:
    return float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum() / 2.0)


def outcome_distribution(povm: Povm, rho) -> np.ndarray:
    mat = _matrix(rho)
    probs = np.array([float(np.trace(e @ mat).real) for e in povm.elements])
    return np.clip(probs, 0.0, None)


def measured_trace_distance(rho, sigma, family) -> float:
    """Largest classical trace distance of outcome statistics over the family."""
    family = list(family)
    if not family:
        raise ValueError("empty POVM family")
    return max(
        classical_trace_distance(outcome_distribution(m, rho), outcome_distribution(m, sigma))
        for m in family
    )


def measured_fidelity(rho, sigma, family) -> float:
    """Smallest classical fidelity of outcome statistics over the family."""
    family = list(family)
    if not family:
        raise ValueError("empty POVM family")
    return min(
        classical_fidelity(outcome_distribution(m, rho), outcome_distribution(m, sigma))
        for m in family
    )
