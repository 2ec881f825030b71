"""Serialization of dimension-tagged operators.

Two container formats: a JSON object ``{"dims": [...], "re": [[...]],
"im": [[...]]}`` for readability, and a compact binary layout (little-endian
column-major float64 real block followed by the imaginary block) for large
matrices.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .operators import Dims, HermitianOperator, hermitian

__all__ = [
    "operator_to_json",
    "operator_from_json",
    "dump_operator",
    "load_operator",
    "operator_to_bytes",
    "operator_from_bytes",
]

_MAGIC = b"DFOP"


def operator_to_json(op: HermitianOperator) -> dict:
    return {
        "dims": list(op.dims.factors),
        "re": op.matrix.real.tolist(),
        "im": op.matrix.imag.tolist(),
    }


def operator_from_json(obj: dict) -> HermitianOperator:
    dims = Dims(tuple(obj["dims"]))
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != im.shape:
        raise ValueError("re and im blocks have different shapes")
    return hermitian(re + 1j * im, dims)


def dump_operator(op: HermitianOperator, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(operator_to_json(op), fh)


def load_operator(path) -> HermitianOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return operator_from_json(json.load(fh))


def operator_to_bytes(op: HermitianOperator) -> bytes:
    """Binary container: magic, factor count, factors, then data blocks."""
    header = _MAGIC + struct.pack("<I", len(op.dims))
    header += struct.pack(f"<{len(op.dims)}I", *op.dims.factors)
    re = np.asarray(op.matrix.real, dtype="<f8", order="F").tobytes(order="F")
    im = np.asarray(op.matrix.imag, dtype="<f8", order="F").tobytes(order="F")
    return header + re + im


def operator_from_bytes(blob: bytes) -> HermitianOperator:
    if blob[:4] != _MAGIC:
        raise ValueError("unrecognized operator container")
    (nfac,) = struct.unpack_from("<I", blob, 4)
    factors = struct.unpack_from(f"<{nfac}I", blob, 8)
    offset = 8 + 4 * nfac
    dims = Dims(tuple(factors))
    side = dims.size
    count = side * side
    re = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    im = np.frombuffer(blob, dtype="<f8", count=count, offset=offset + 8 * count)
    mat = (re + 1j * im).reshape((side, side), order="F")
    return hermitian(mat, dims)
