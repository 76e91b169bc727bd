"""Floating-point kernels for every layer type, and the core they share.

All spatial kernels take channels-last inputs (H, W, C). The private core
is one geometry check per kernel kind (`_check_*`), the window view
(`_windows`: one read-only strided (H', W', Dk, Dk, C) view, over a
zero-filled copy of the input for SAME padding), contractions in the
operands' dtype (`_*_core`: im2col + GEMM for convolution, GEMM for
pointwise and dense, einsum for depthwise) and the max-pool body. Float
kernels here contract their float32 operands in float32; integer kernels in
`integer_kernels` wrap the same core. Kernels are pure functions
of immutable tensors, so independent layer invocations may run concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    InputTooSmallError,
    InvalidShapeError,
    KernelTooLargeError,
    RankMismatchError,
    ShapeMismatchError,
)
from .tensor import Tensor

VALID = "valid"
SAME = "same"


@dataclass(frozen=True)
class ConvSpec:
    """Convolution layer geometry.

    kind "traditional" is a full M->N convolution; "depthwise_separable"
    is a per-channel spatial stage followed by a 1x1 channel-mixing stage.
    """

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: str = VALID
    kind: str = "traditional"

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise InvalidShapeError("channel counts must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise InvalidShapeError("kernel_size must be odd and >= 1")
        if self.stride < 1:
            raise InvalidShapeError("stride must be >= 1")
        if self.padding not in (VALID, SAME):
            raise InvalidShapeError(f"unknown padding {self.padding!r}")
        if self.kind not in ("traditional", "depthwise_separable"):
            raise InvalidShapeError(f"unknown conv kind {self.kind!r}")


@dataclass(frozen=True)
class DenseSpec:
    in_features: int
    out_features: int

    def __post_init__(self):
        if self.in_features < 1 or self.out_features < 1:
            raise InvalidShapeError("dense feature counts must be >= 1")


@dataclass(frozen=True)
class PoolSpec:
    """Square max-pooling window; stride equals the window size."""

    pool_size: int

    def __post_init__(self):
        if self.pool_size < 1:
            raise InvalidShapeError("pool_size must be >= 1")


def conv_output_dim(d_f: int, d_k: int, stride: int, padding: str) -> int:
    """Output spatial extent of a convolution along one axis.

    valid: (d_f - d_k) // stride + 1; same keeps d_f for stride 1.
    """
    if padding == SAME:
        if stride != 1:
            raise InvalidShapeError("same padding is only supported for stride 1")
        return d_f
    if d_f < d_k:
        raise KernelTooLargeError(f"kernel {d_k} exceeds input extent {d_f}")
    return (d_f - d_k) // stride + 1


def _windows(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Read-only (H', W', Dk, Dk, C) view of every kernel placement.

    SAME copies x once into a zero-filled buffer; VALID views x itself.
    """
    d_k, st = spec.kernel_size, spec.stride
    if spec.padding == SAME:
        h, w, c = x.shape
        lo = (d_k - 1) // 2
        buf = np.zeros((h + d_k - 1, w + d_k - 1, c), dtype=x.dtype)
        buf[lo : lo + h, lo : lo + w] = x
        x = buf
    h_out = (x.shape[0] - d_k) // st + 1
    w_out = (x.shape[1] - d_k) // st + 1
    s0, s1, s2 = x.strides
    return as_strided(
        x, (h_out, w_out, d_k, d_k, x.shape[2]), (s0 * st, s1 * st, s0, s1, s2), writeable=False
    )


# -- geometry checks, one per kernel kind --------------------------------------
# `inp` is a Tensor or a QuantTensor; only its shape is read.

def _check_rank3(inp, who: str) -> None:
    if len(inp.shape) != 3:
        raise RankMismatchError(f"{who} expects a rank-3 (H, W, C) input, got {inp.shape}")


def _check_bias(bias_shape: tuple, n: int) -> None:
    if tuple(bias_shape) != (n,):
        raise ShapeMismatchError(f"bias {tuple(bias_shape)} != ({n},)")


def _check_conv(inp, w_shape: tuple, bias_shape: tuple | None, spec: ConvSpec, who: str) -> None:
    """Traditional conv geometry; bias_shape None means a depthwise stage,
    whose weights are (Dk, Dk, M) and which has no bias."""
    _check_rank3(inp, who)
    d_k, m, n = spec.kernel_size, spec.in_channels, spec.out_channels
    want = (d_k, d_k, m) if bias_shape is None else (d_k, d_k, m, n)
    if w_shape != want:
        raise ShapeMismatchError(f"weights {w_shape} != expected {want}")
    if bias_shape is not None:
        _check_bias(bias_shape, n)
    if inp.shape[2] != m:
        raise ShapeMismatchError(f"input has {inp.shape[2]} channels, spec says {m}")
    if spec.padding == SAME:
        if spec.stride != 1:
            raise InvalidShapeError("same padding is only supported for stride 1")
    elif inp.shape[0] < d_k or inp.shape[1] < d_k:
        raise KernelTooLargeError(f"kernel {d_k} exceeds input extent {inp.shape[:2]}")


def _check_pointwise(inp, w_shape: tuple, bias_shape: tuple, who: str) -> None:
    _check_rank3(inp, who)
    if len(w_shape) != 4 or w_shape[:2] != (1, 1):
        raise ShapeMismatchError(f"pointwise weights must be (1, 1, M, N), got {w_shape}")
    if inp.shape[2] != w_shape[2]:
        raise ShapeMismatchError(f"input has {inp.shape[2]} channels, weights expect {w_shape[2]}")
    _check_bias(bias_shape, w_shape[3])


def _check_dense(inp, w_shape: tuple, bias_shape: tuple, who: str) -> None:
    if len(inp.shape) != 1:
        raise RankMismatchError(f"{who} expects a rank-1 input, got {inp.shape}")
    if len(w_shape) != 2 or w_shape[0] != inp.shape[0]:
        raise ShapeMismatchError(f"weights {w_shape} incompatible with input {inp.shape}")
    _check_bias(bias_shape, w_shape[1])


def _check_pool(inp, spec: PoolSpec, who: str) -> None:
    _check_rank3(inp, who)
    p = spec.pool_size
    if inp.shape[0] < p or inp.shape[1] < p:
        raise InputTooSmallError(f"input {inp.shape[:2]} smaller than pool {p}")


# -- contraction core -------------------------------------------------------------
# Shared by the float kernels here (float32 operands) and the integer kernels,
# which pass zero-point-offset integers in float32 or float64; callers have
# already checked the geometry.

def _conv_core(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """(H, W, M) x (Dk, Dk, M, N) -> (H', W', N) as im2col then one GEMM."""
    win = _windows(x, spec)
    h, wd = win.shape[:2]
    cols = win.reshape(h * wd, -1)  # copies: the im2col matrix
    return (cols @ w.reshape(cols.shape[1], -1)).reshape(h, wd, -1)


def _depthwise_core(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """(H, W, M) x (Dk, Dk, M) -> (H', W', M), one filter per channel."""
    return np.einsum("xyijm,ijm->xym", _windows(x, spec), w)


def _pointwise_core(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(H, W, M) x (1, 1, M, N) -> (H, W, N) as one GEMM."""
    h, wd, m = x.shape
    return (x.reshape(h * wd, m) @ w.reshape(m, -1)).reshape(h, wd, -1)


def _dense_core(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return x @ w


def _maxpool_core(x: np.ndarray, p: int) -> np.ndarray:
    """Per-channel max over p x p windows of any dtype; remainder dropped."""
    h, w, c = x.shape
    hp, wp = h // p, w // p
    return x[: hp * p, : wp * p, :].reshape(hp, p, wp, p, c).max(axis=(1, 3))


# -- float kernels ---------------------------------------------------------------

def conv2d_fp(inp: Tensor, weights: Tensor, bias: Tensor, spec: ConvSpec) -> Tensor:
    """Standard cross-correlation: (H, W, M) x (Dk, Dk, M, N) -> (H', W', N)."""
    _check_conv(inp, weights.shape, bias.shape, spec, "conv2d_fp")
    out = _conv_core(inp.data, weights.data, spec)
    out += bias.data
    return Tensor(out)


def depthwise_conv2d_fp(inp: Tensor, dw_weights: Tensor, spec: ConvSpec) -> Tensor:
    """Per-channel spatial stage of a separable convolution; no bias."""
    _check_conv(inp, dw_weights.shape, None, spec, "depthwise_conv2d_fp")
    return Tensor(_depthwise_core(inp.data, dw_weights.data, spec))


def pointwise_conv2d_fp(inp: Tensor, pw_weights: Tensor, bias: Tensor) -> Tensor:
    """1x1 channel-mixing stage: (H, W, M) x (1, 1, M, N) -> (H, W, N)."""
    _check_pointwise(inp, pw_weights.shape, bias.shape, "pointwise_conv2d_fp")
    out = _pointwise_core(inp.data, pw_weights.data)
    out += bias.data
    return Tensor(out)


def depthwise_separable_conv2d_fp(
    inp: Tensor, dw_weights: Tensor, pw_weights: Tensor, bias: Tensor, spec: ConvSpec
) -> Tensor:
    """Depthwise stage then pointwise stage; bias added after pointwise."""
    mid = depthwise_conv2d_fp(inp, dw_weights, spec)
    return pointwise_conv2d_fp(mid, pw_weights, bias)


def maxpool2d(inp: Tensor, spec: PoolSpec) -> Tensor:
    """Per-channel max over p x p windows; trailing remainder dropped."""
    _check_pool(inp, spec, "maxpool2d")
    return Tensor(_maxpool_core(inp.data, spec.pool_size))


def dense_fp(inp: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer: out[j] = sum_k in[k] * w[k, j] + b[j]."""
    _check_dense(inp, weights.shape, bias.shape, "dense_fp")
    out = _dense_core(inp.data, weights.data)
    out += bias.data
    return Tensor(out)


def relu(inp: Tensor) -> Tensor:
    return Tensor(np.maximum(inp.data, 0.0))


def softmax(inp: Tensor) -> Tensor:
    """Stable softmax over a rank-1 logit vector."""
    if inp.rank != 1:
        raise RankMismatchError(f"softmax expects a rank-1 input, got {inp.shape}")
    z = inp.data.astype(np.float64)
    z = z - z.max()
    e = np.exp(z)
    return Tensor((e / e.sum()).astype(np.float32))


def flatten(inp: Tensor) -> Tensor:
    return Tensor(inp.data.reshape(-1))
