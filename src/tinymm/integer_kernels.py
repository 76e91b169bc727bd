"""Integer inference kernels: offset, shared contraction, requantize.

Inputs and weights share one bit width per layer. Each kernel subtracts
the input zero point (weights are symmetric, zero point 0), runs the same
private contraction core in `kernels` as its float twin on those offset
integers held in float32 or float64, widens the accumulator to float64,
adds the 32-bit integer bias (at scale s_in * s_w) and requantizes every
accumulator: multiplied by (s_in * s_w / s_out) in double precision,
rounded half-to-even, shifted by the output zero point and clamped.
Requantization (`_requantize_into`, shared with `requantize_tensor`) runs
each of those steps in place on the float64 accumulator, so the only array
it allocates is the int32 result.

The contraction is exact integer arithmetic. Every partial sum, in whatever
order BLAS or einsum adds the products, is an integer bounded by the sum of
the absolute products, and that sum is at most `_worst_case_sum(terms,
bits)`. `check_accumulator` rejects any layer where that bound plus the
largest bias could reach 2^31, so float64 (exact below 2^53) always holds
every partial sum. `_contraction_dtype` picks float32 instead when the bound
is below 2^24, which float32 holds exactly: up to 514 terms at 8 bits and
139,810 at 4 bits. Either way the result equals an int32 accumulation bit
for bit, and the dtype depends only on the layer's geometry and bit width.

Payloads are range-checked at the boundary: `QuantTensor(...)` scans what
arrives from blobs, input quantization and callers. Kernel outputs are
clamped by requantization or are maxima of in-range payloads, so they are
wrapped with `QuantTensor._in_range`, which does not scan them again.
"""
from __future__ import annotations

import numpy as np

from .errors import AccumulatorOverflowError, PrecisionMismatchError
from .kernels import (
    ConvSpec,
    PoolSpec,
    _check_conv,
    _check_dense,
    _check_pointwise,
    _check_pool,
    _conv_core,
    _dense_core,
    _depthwise_core,
    _maxpool_core,
    _pointwise_core,
)
from .tensor import QuantParams, QuantTensor, Tensor

ACC_LIMIT = (1 << 31) - 1
BIAS_LIMIT = 1 << 30  # headroom so acc + bias stays inside int32
FLOAT32_EXACT = 1 << 24  # float32 holds every integer of magnitude up to this


def _worst_case_sum(terms: int, bits: int) -> int:
    """Largest possible sum of |products| over `terms` products of an offset
    input (|q - zp| <= 2^bits - 1) and a weight (|w| <= 2^(bits-1))."""
    return terms * ((1 << bits) - 1) * (1 << (bits - 1))


def check_accumulator(terms: int, bits: int) -> None:
    """Reject layer geometry whose worst-case accumulation leaves int32."""
    if _worst_case_sum(terms, bits) + BIAS_LIMIT > ACC_LIMIT:
        raise AccumulatorOverflowError(
            f"{terms} products of {bits}-bit operands cannot be guaranteed "
            "to fit a 32-bit accumulator"
        )


def _contraction_dtype(terms: int, bits: int) -> type:
    """check_accumulator, then the narrowest float dtype that contracts exactly:
    float32 while every partial sum stays below 2^24, float64 otherwise."""
    check_accumulator(terms, bits)
    return np.float32 if _worst_case_sum(terms, bits) < FLOAT32_EXACT else np.float64


def quantize_bias(bias: Tensor, input_scale: float, weight_scale: float) -> np.ndarray:
    """Bias as int32 at scale input_scale * weight_scale."""
    q = np.round(bias.data.astype(np.float64) / (input_scale * weight_scale))
    return np.clip(q, -BIAS_LIMIT, BIAS_LIMIT).astype(np.int64)


def _requantize_into(acc: np.ndarray, multiplier: float, out: QuantParams) -> np.ndarray:
    """Requantize a float64 array the caller owns, overwriting it.

    acc * multiplier, rounded half-to-even, plus the output zero point,
    clamped to [qmin, qmax]: every step writes into acc, and the only new
    array is the int32 result.
    """
    np.multiply(acc, multiplier, out=acc)
    np.rint(acc, out=acc)
    np.add(acc, out.zero_point, out=acc)
    np.clip(acc, out.qmin, out.qmax, out=acc)
    return acc.astype(np.int32)


def requantize_tensor(q: QuantTensor, new_params: QuantParams) -> QuantTensor:
    """Re-express a quantized tensor under different scale/zero-point/bits."""
    vals = _requantize_into(_offset(q, np.float64), q.params.scale / new_params.scale, new_params)
    return QuantTensor._in_range(vals, new_params)


def _check_bits(inp: QuantTensor, weights: QuantTensor) -> None:
    if inp.params.bits != weights.params.bits:
        raise PrecisionMismatchError(
            f"input is {inp.params.bits}-bit but weights are {weights.params.bits}-bit"
        )


def _offset(inp: QuantTensor, dtype: type) -> np.ndarray:
    """Payload minus zero point as a new float array: real 0 becomes exactly 0."""
    return np.subtract(inp.qdata, inp.params.zero_point, dtype=dtype)


def _finish(acc, bias, inp: QuantTensor, weights: QuantTensor, out_params: QuantParams):
    """Widen the accumulator to float64, add the integer bias (None for none)
    and requantize to out_params."""
    acc = acc.astype(np.float64, copy=False)
    if bias is not None:
        acc += np.asarray(bias, dtype=np.float64)
    multiplier = (inp.params.scale * weights.params.scale) / out_params.scale
    return QuantTensor._in_range(_requantize_into(acc, multiplier, out_params), out_params)


def conv2d_int(
    inp: QuantTensor,
    weights: QuantTensor,
    bias: np.ndarray,
    out_params: QuantParams,
    spec: ConvSpec,
) -> QuantTensor:
    """Integer traditional convolution with fused bias and requantization."""
    _check_bits(inp, weights)
    _check_conv(inp, weights.shape, np.shape(bias), spec, "conv2d_int")
    dt = _contraction_dtype(spec.kernel_size ** 2 * spec.in_channels, inp.params.bits)
    acc = _conv_core(_offset(inp, dt), weights.qdata.astype(dt), spec)
    return _finish(acc, bias, inp, weights, out_params)


def depthwise_conv2d_int(
    inp: QuantTensor,
    dw_weights: QuantTensor,
    mid_params: QuantParams,
    spec: ConvSpec,
) -> QuantTensor:
    """Integer per-channel stage; output requantized to mid_params."""
    _check_bits(inp, dw_weights)
    _check_conv(inp, dw_weights.shape, None, spec, "depthwise_conv2d_int")
    dt = _contraction_dtype(spec.kernel_size ** 2, inp.params.bits)
    acc = _depthwise_core(_offset(inp, dt), dw_weights.qdata.astype(dt), spec)
    return _finish(acc, None, inp, dw_weights, mid_params)


def pointwise_conv2d_int(
    inp: QuantTensor,
    pw_weights: QuantTensor,
    bias: np.ndarray,
    out_params: QuantParams,
) -> QuantTensor:
    """Integer 1x1 channel mixing with fused bias and requantization."""
    _check_bits(inp, pw_weights)
    _check_pointwise(inp, pw_weights.shape, np.shape(bias), "pointwise_conv2d_int")
    dt = _contraction_dtype(pw_weights.shape[2], inp.params.bits)
    acc = _pointwise_core(_offset(inp, dt), pw_weights.qdata.astype(dt))
    return _finish(acc, bias, inp, pw_weights, out_params)


def depthwise_separable_conv2d_int(
    inp: QuantTensor,
    dw_weights: QuantTensor,
    pw_weights: QuantTensor,
    bias: np.ndarray,
    mid_params: QuantParams,
    out_params: QuantParams,
    spec: ConvSpec,
) -> QuantTensor:
    """Two-stage integer separable convolution.

    The depthwise result is requantized to mid_params before the pointwise
    stage, which keeps both accumulations inside 32 bits. The bias is at
    scale mid.scale * pw.scale and is added after the pointwise products.
    """
    mid = depthwise_conv2d_int(inp, dw_weights, mid_params, spec)
    return pointwise_conv2d_int(mid, pw_weights, bias, out_params)


def dense_int(
    inp: QuantTensor,
    weights: QuantTensor,
    bias: np.ndarray,
    out_params: QuantParams,
) -> QuantTensor:
    """Integer fully connected layer."""
    _check_bits(inp, weights)
    _check_dense(inp, weights.shape, np.shape(bias), "dense_int")
    dt = _contraction_dtype(inp.shape[0], inp.params.bits)
    acc = _dense_core(_offset(inp, dt), weights.qdata.astype(dt))
    return _finish(acc, bias, inp, weights, out_params)


def relu_int(inp: QuantTensor) -> QuantTensor:
    """Clamp the payload at the zero point (the encoding of real 0)."""
    return QuantTensor._in_range(np.maximum(inp.qdata, inp.params.zero_point), inp.params)


def maxpool2d_int(inp: QuantTensor, spec: PoolSpec) -> QuantTensor:
    """Window max directly on the integer payload."""
    _check_pool(inp, spec, "maxpool2d_int")
    return QuantTensor._in_range(_maxpool_core(inp.qdata, spec.pool_size), inp.params)


def flatten_int(inp: QuantTensor) -> QuantTensor:
    return inp.reshape((int(np.prod(inp.shape)),))
