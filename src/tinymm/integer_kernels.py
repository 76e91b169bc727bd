"""Integer inference kernels: offset, shared contraction, fused epilogue.

Inputs and weights share one bit width per layer. Each kernel subtracts
the input zero point (weights are symmetric, zero point 0), runs the same
private contraction core in `kernels` as its float twin on those offset
integers held in float32 or float64, and ends in one epilogue: an optional
max-pool of the exact accumulator, then the 32-bit integer bias (at scale
s_in * s_w) and requantization: multiplied by (s_in * s_w / s_out) in double
precision, rounded half-to-even, shifted by the output zero point and
clamped, with the lower bound raised to the zero point for a fused ReLU.

Requantization (`_requantize`, shared with `requantize_tensor`) walks the
accumulator in tiles of whole channel rows, at most `REQUANT_TILE` elements
each, through one float64 buffer that the call owns. No full-size float64
copy of an accumulator is made, and concurrent calls (`parallel_branches`)
share no buffer. The only full-size array it allocates is the int32 result.

Fusion is exact. Within one channel, requantization is monotone
non-decreasing: the bias is constant along the channel, and
fl64(x * m) with m > 0, rint, + zero point and the clamp are each monotone.
So a window max commutes with it, and pooling the accumulator before
requantizing equals pooling the requantized payload. Since qmin <= zp <=
qmax, max(clip(v, qmin, qmax), zp) = clip(v, max(qmin, zp), qmax): a
following ReLU is the clamp's lower bound. `relu_int` and `maxpool2d_int`
remain for a ReLU or max-pool that follows no weighted layer.

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
REQUANT_TILE = 32_768  # float64 elements per requantization tile (256 KB)


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
    return np.clip(q, -BIAS_LIMIT, BIAS_LIMIT).astype(np.int32)


def _requantize(acc: np.ndarray, bias, multiplier: float, out: QuantParams, lo: int) -> np.ndarray:
    """clip(rint((acc + bias) * multiplier) + out.zero_point, lo, out.qmax)
    as an int32 array of acc's shape, computed in double precision.

    acc holds exact integers (a float accumulator or an int32 payload); bias
    (None for none) runs along acc's last axis. Tiles hold whole rows of
    that axis, REQUANT_TILE elements at most (one row where a row is
    longer), and each passes through one float64 buffer owned by this call.
    """
    flat = acc.reshape(-1)
    res = np.empty(flat.shape, dtype=np.int32)
    row = 1 if bias is None else len(bias)
    step = max(1, REQUANT_TILE // row) * row
    buf = np.empty(min(step, flat.size), dtype=np.float64)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
    for start in range(0, flat.size, step):
        src = flat[start:start + step]
        t = buf[:src.size]
        if bias is None:
            np.multiply(src, multiplier, out=t, dtype=np.float64)
        else:
            np.add(src.reshape(-1, row), bias, out=t.reshape(-1, row), dtype=np.float64)
            np.multiply(t, multiplier, out=t)
        np.rint(t, out=t)
        np.add(t, out.zero_point, out=t)
        np.clip(t, lo, out.qmax, out=t)
        res[start:start + src.size] = t
    return res.reshape(acc.shape)


def requantize_tensor(q: QuantTensor, new_params: QuantParams) -> QuantTensor:
    """Re-express a quantized tensor under different scale/zero-point/bits.
    The old zero point is removed per tile, as a one-element bias."""
    vals = _requantize(q.qdata, (-q.params.zero_point,), q.params.scale / new_params.scale,
                       new_params, new_params.qmin)
    return QuantTensor._in_range(vals, new_params)


def _check_bits(inp: QuantTensor, weights: QuantTensor) -> None:
    if inp.params.bits != weights.params.bits:
        raise PrecisionMismatchError(
            f"input is {inp.params.bits}-bit but weights are {weights.params.bits}-bit"
        )


def _offset(inp: QuantTensor, dtype: type) -> np.ndarray:
    """Payload minus zero point as a new float array: real 0 becomes exactly 0."""
    return np.subtract(inp.qdata, inp.params.zero_point, dtype=dtype)


def _finish(acc, bias, inp: QuantTensor, weights: QuantTensor, out_params: QuantParams,
            relu: bool, pool: PoolSpec | None, who: str) -> QuantTensor:
    """The epilogue: max-pool the exact accumulator (pool None for none), add
    the integer bias (None for none) and requantize to out_params, clamping
    below at the zero point when relu."""
    if pool is not None:
        _check_pool(acc, pool, who)
        acc = _maxpool_core(acc, pool.pool_size)
    multiplier = (inp.params.scale * weights.params.scale) / out_params.scale
    lo = max(out_params.qmin, out_params.zero_point) if relu else out_params.qmin
    return QuantTensor._in_range(_requantize(acc, bias, multiplier, out_params, lo), out_params)


def conv2d_int(
    inp: QuantTensor,
    weights: QuantTensor,
    bias: np.ndarray,
    out_params: QuantParams,
    spec: ConvSpec,
    *,
    relu: bool = False,
    pool: PoolSpec | None = None,
) -> QuantTensor:
    """Integer traditional convolution with fused bias and requantization,
    and optionally a fused ReLU and max-pool."""
    _check_bits(inp, weights)
    _check_conv(inp, weights.shape, np.shape(bias), spec, "conv2d_int")
    dt = _contraction_dtype(spec.kernel_size ** 2 * spec.in_channels, inp.params.bits)
    acc = _conv_core(_offset(inp, dt), weights.qdata.astype(dt), spec)
    return _finish(acc, bias, inp, weights, out_params, relu, pool, "conv2d_int")


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
    return _finish(acc, None, inp, dw_weights, mid_params, False, None, "depthwise_conv2d_int")


def pointwise_conv2d_int(
    inp: QuantTensor,
    pw_weights: QuantTensor,
    bias: np.ndarray,
    out_params: QuantParams,
    *,
    relu: bool = False,
    pool: PoolSpec | None = None,
) -> QuantTensor:
    """Integer 1x1 channel mixing with fused bias and requantization, and
    optionally a fused ReLU and max-pool."""
    _check_bits(inp, pw_weights)
    _check_pointwise(inp, pw_weights.shape, np.shape(bias), "pointwise_conv2d_int")
    dt = _contraction_dtype(pw_weights.shape[2], inp.params.bits)
    acc = _pointwise_core(_offset(inp, dt), pw_weights.qdata.astype(dt))
    return _finish(acc, bias, inp, pw_weights, out_params, relu, pool, "pointwise_conv2d_int")


def depthwise_separable_conv2d_int(
    inp: QuantTensor,
    dw_weights: QuantTensor,
    pw_weights: QuantTensor,
    bias: np.ndarray,
    mid_params: QuantParams,
    out_params: QuantParams,
    spec: ConvSpec,
    *,
    relu: bool = False,
    pool: PoolSpec | None = None,
) -> QuantTensor:
    """Two-stage integer separable convolution.

    The depthwise result is requantized to mid_params before the pointwise
    stage, which keeps both accumulations inside 32 bits. The bias is at
    scale mid.scale * pw.scale and is added after the pointwise products;
    relu and pool are the pointwise stage's epilogue.
    """
    mid = depthwise_conv2d_int(inp, dw_weights, mid_params, spec)
    return pointwise_conv2d_int(mid, pw_weights, bias, out_params, relu=relu, pool=pool)


def dense_int(
    inp: QuantTensor,
    weights: QuantTensor,
    bias: np.ndarray,
    out_params: QuantParams,
    *,
    relu: bool = False,
) -> QuantTensor:
    """Integer fully connected layer, optionally with a fused ReLU."""
    _check_bits(inp, weights)
    _check_dense(inp, weights.shape, np.shape(bias), "dense_int")
    dt = _contraction_dtype(inp.shape[0], inp.params.bits)
    acc = _dense_core(_offset(inp, dt), weights.qdata.astype(dt))
    return _finish(acc, bias, inp, weights, out_params, relu, None, "dense_int")


def relu_int(inp: QuantTensor) -> QuantTensor:
    """Clamp the payload at the zero point (the encoding of real 0)."""
    return QuantTensor._in_range(np.maximum(inp.qdata, inp.params.zero_point), inp.params)


def maxpool2d_int(inp: QuantTensor, spec: PoolSpec) -> QuantTensor:
    """Window max directly on the integer payload."""
    _check_pool(inp, spec, "maxpool2d_int")
    return QuantTensor._in_range(_maxpool_core(inp.qdata, spec.pool_size), inp.params)


def flatten_int(inp: QuantTensor) -> QuantTensor:
    return inp.reshape((int(np.prod(inp.shape)),))
