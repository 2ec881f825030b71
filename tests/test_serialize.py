import json
import struct

import pytest
from numpy.testing import assert_allclose

from definetti.operators import hermitian, random_hermitian, stream
from definetti.serialize import (
    dump_operator,
    load_operator,
    operator_from_bytes,
    operator_from_json,
    operator_to_bytes,
    operator_to_json,
)


def _random_op(seed=0):
    rng = stream(seed, "ser")
    return hermitian(random_hermitian(6, rng), (2, 3))


def test_json_roundtrip():
    op = _random_op()
    back = operator_from_json(operator_to_json(op))
    assert_allclose(back.matrix, op.matrix)
    assert back.dims.factors == (2, 3)


def test_json_is_plain_data():
    op = _random_op(1)
    text = json.dumps(operator_to_json(op))
    back = operator_from_json(json.loads(text))
    assert_allclose(back.matrix, op.matrix)


def test_file_roundtrip(tmp_path):
    op = _random_op(2)
    path = tmp_path / "op.json"
    dump_operator(op, path)
    assert_allclose(load_operator(path).matrix, op.matrix)


def test_bytes_roundtrip():
    op = _random_op(3)
    blob = operator_to_bytes(op)
    back = operator_from_bytes(blob)
    assert_allclose(back.matrix, op.matrix)
    assert back.dims.factors == op.dims.factors


def test_bytes_rejects_garbage():
    with pytest.raises(ValueError):
        operator_from_bytes(b"nope" + b"\x00" * 64)


def test_json_shape_mismatch_rejected():
    op = _random_op(4)
    obj = operator_to_json(op)
    obj["im"] = [[0.0]]
    with pytest.raises(ValueError):
        operator_from_json(obj)


def test_loaders_reject_non_hermitian():
    op = _random_op(5)
    obj = operator_to_json(op)
    obj["re"][0][1] += 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        operator_from_json(obj)
    # the last float64 is the imaginary part of the last diagonal entry
    blob = bytearray(operator_to_bytes(op))
    blob[-8:] = struct.pack("<d", 1.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        operator_from_bytes(bytes(blob))
