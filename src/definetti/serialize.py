"""JSON container for dimension-tagged operators.

An operator is the object ``{"dims": [...], "re": [[...]], "im": [[...]]}``.
It is the one format the command line reads and writes, for ``--op`` files
and inside certificates; loading goes through :func:`operators.hermitian`.
"""

from __future__ import annotations

import json

import numpy as np

from .operators import Dims, HermitianOperator, hermitian

__all__ = [
    "operator_to_json",
    "operator_from_json",
    "dump_operator",
    "load_operator",
]


def operator_to_json(op: HermitianOperator) -> dict:
    return {
        "dims": list(op.dims.factors),
        "re": op.matrix.real.tolist(),
        "im": op.matrix.imag.tolist(),
    }


def _complex_array(re, im) -> np.ndarray:
    """``re + i im`` from two JSON blocks of one shape, set part by part:
    ``re + 1j * im`` would broadcast a short block, and warn on an infinite
    imaginary part before the caller rejects it."""
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    if re.shape != im.shape:
        raise ValueError("re and im blocks have different shapes")
    out = re.astype(complex)
    out.imag = im
    return out


def operator_from_json(obj: dict) -> HermitianOperator:
    dims = Dims(tuple(obj["dims"]))
    return hermitian(_complex_array(obj["re"], obj["im"]), dims)


def dump_operator(op: HermitianOperator, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(operator_to_json(op), fh)


def load_operator(path) -> HermitianOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return operator_from_json(json.load(fh))
