"""Fidelity and entropy functionals on states and distributions, and finite POVMs.

Fidelity follows the sub-normalized extension ``F(M, N) = ||sqrt(M) sqrt(N)||_1``
so that every functional also applies to positive operators with trace below
one.  All entropic quantities are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import DensityMatrix, HermitianOperator, _psd_spectrum, _require_hermitian, partial_trace

__all__ = [
    "Povm",
    "fidelity",
    "entropy",
    "relative_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "classical_fidelity",
    "outcome_distribution",
]

SUPPORT_FLOOR = 1e-12


def _matrix(x) -> np.ndarray:
    if isinstance(x, (DensityMatrix, HermitianOperator)):
        return x.matrix
    return np.asarray(x, dtype=complex)


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    w, v = _psd_spectrum(mat, vectors=True)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """``||sqrt(rho) sqrt(sigma)||_1``, symmetric in its arguments."""
    r = _matrix(rho)
    s = _matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {s.shape}")
    root = _sqrtm_psd(r)
    inner = root @ s @ root
    return float(_root_fidelities(((inner + inner.conj().T) / 2.0)[None])[0])


def _root_fidelities(inner: np.ndarray) -> np.ndarray:
    """Fidelities of a stack of Hermitian ``sqrt(rho) sigma sqrt(rho)``, by one
    stacked spectrum under the PSD rule of ``_psd_spectrum``."""
    return np.sqrt(_psd_spectrum(inner)).sum(axis=-1)


def entropy(rho) -> float:
    """von Neumann entropy in bits, with ``0 log 0 = 0``."""
    w = _psd_spectrum(_matrix(rho))
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


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
    ws, vs = _psd_spectrum(s, vectors=True)
    on = ws > SUPPORT_FLOOR
    kernel = vs[:, ~on]
    if np.linalg.norm(kernel.conj().T @ r @ kernel) > SUPPORT_FLOOR:
        return math.inf
    # Tr[rho log sigma] from the diagonal of rho in sigma's eigenbasis
    diag = (vs.conj() * (r @ vs)).sum(axis=0).real
    return -entropy(r) - float(np.log2(ws[on]) @ diag[on])


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


# ---------------------------------------------------------------------------
# POVMs and outcome statistics


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite POVM: Hermitian PSD elements summing to the identity."""

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
        _require_hermitian(stack)
        _psd_spectrum(stack)
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


def outcome_distribution(povm: Povm, rho) -> np.ndarray:
    """``Tr[E_k rho]`` for every element ``E_k``, clipped at 0, in one contraction."""
    probs = np.einsum("kij,ji->k", np.stack(povm.elements), _matrix(rho))
    return np.clip(probs.real, 0.0, None)
