import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from definetti.operators import hermitian, random_hermitian, stream
from definetti.serialize import (
    dump_operator,
    load_operator,
    operator_from_json,
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


@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_roundtrips_exact_at_random_dims(dims, seed):
    side = math.prod(dims)
    op = hermitian(random_hermitian(side, stream(seed, "ser-prop")), dims)
    back = operator_from_json(json.loads(json.dumps(operator_to_json(op))))
    assert back.dims == op.dims
    assert np.array_equal(back.matrix, op.matrix)
