import numpy as np
import pytest

from tinymm.errors import InvalidShapeError, RankMismatchError, ShapeMismatchError
from tinymm.tensor import (
    QuantParams,
    QuantTensor,
    Tensor,
    concat_last_axis,
    tensor_create,
)


def test_create_row_major_indexing():
    t = tensor_create([2, 2], [1, 2, 3, 4])
    assert t.data[1, 1] == 4
    assert t.data[0, 1] == 2


def test_create_zero_tensor():
    t = tensor_create([3], [0, 0, 0])
    assert np.array_equal(t.data, np.zeros(3, dtype=np.float32))


def test_create_length_mismatch():
    with pytest.raises(ShapeMismatchError):
        tensor_create([2, 2], [1, 2, 3])


@pytest.mark.parametrize("shape", [[0, 2], [2, 0], [-1], [], [1, 1, 1, 1, 1]])
def test_create_invalid_shapes(shape):
    with pytest.raises(InvalidShapeError):
        tensor_create(shape, np.zeros(int(abs(np.prod(shape)))))


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(42)
    for shape in [(5,), (3, 4), (2, 3, 4), (2, 3, 2, 2)]:
        t = Tensor(rng.normal(size=shape).astype(np.float32))
        back = tensor_create(shape, t.flat())
        assert np.array_equal(back.data, t.data)


def test_immutable():
    t = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        t.data[0, 0] = 1.0


def test_concat_lengths():
    a = Tensor(np.zeros(32))
    b = Tensor(np.zeros(32))
    assert concat_last_axis(a, b).shape == (64,)
    assert concat_last_axis(Tensor(np.zeros(64)), Tensor(np.zeros(64))).shape == (128,)


def test_concat_preserves_order_and_values():
    rng = np.random.default_rng(7)
    for _ in range(20):
        na, nb = rng.integers(1, 30, size=2)
        a = Tensor(rng.normal(size=na).astype(np.float32))
        b = Tensor(rng.normal(size=nb).astype(np.float32))
        out = concat_last_axis(a, b)
        assert np.array_equal(out.data[:na], a.data)
        assert np.array_equal(out.data[na:], b.data)


def test_concat_empty_operand_is_identity():
    empty = tensor_create([0], [])
    b = tensor_create([5], [1, 2, 3, 4, 5])
    out = concat_last_axis(empty, b)
    assert np.array_equal(out.data, b.data)


def test_concat_rank_mismatch():
    with pytest.raises(RankMismatchError):
        concat_last_axis(Tensor(np.zeros((2, 2))), Tensor(np.zeros(4)))


def test_quant_params_validation():
    QuantParams(scale=0.5, zero_point=-8, bits=4)
    with pytest.raises(InvalidShapeError):
        QuantParams(scale=0.5, zero_point=0, bits=5)
    for scale in (0.0, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(InvalidShapeError):
            QuantParams(scale=scale, zero_point=0, bits=8)
    with pytest.raises(InvalidShapeError):
        QuantParams(scale=1.0, zero_point=200, bits=8)
    with pytest.raises(InvalidShapeError):
        QuantParams(scale=1.0, zero_point=-9, bits=4)


def test_quant_params_range():
    p8 = QuantParams(scale=1.0, zero_point=0, bits=8)
    assert (p8.qmin, p8.qmax) == (-128, 127)
    p4 = QuantParams(scale=1.0, zero_point=0, bits=4)
    assert (p4.qmin, p4.qmax) == (-8, 7)


def test_quant_tensor_payload_range_enforced():
    p = QuantParams(scale=1.0, zero_point=0, bits=4)
    QuantTensor(np.array([-8, 7]), p)
    with pytest.raises(ShapeMismatchError):
        QuantTensor(np.array([8]), p)
    with pytest.raises(ShapeMismatchError):
        QuantTensor(np.array([-9]), p)
