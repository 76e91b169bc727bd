"""Dense float tensors and quantized tensors.

Row-major (C order) layout everywhere; images and feature maps are
channels-last (H, W, C). Tensors are immutable after creation: every
operation returns a new tensor, so values are safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidShapeError,
    RankMismatchError,
    ShapeMismatchError,
)

MAX_RANK = 4


def _check_shape(shape: tuple[int, ...]) -> None:
    if not 1 <= len(shape) <= MAX_RANK:
        raise InvalidShapeError(f"rank must be 1..{MAX_RANK}, got {len(shape)}")
    for dim in shape:
        if dim < 0 or (dim == 0 and len(shape) > 1):
            # zero-length is tolerated for rank-1 feature vectors only, so
            # that concatenation has an identity element
            raise InvalidShapeError(f"invalid dimension {dim} in shape {shape}")


class Tensor:
    """Immutable dense float32 array, rank 1 to 4."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        _check_shape(arr.shape)
        arr.flags.writeable = False
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def rank(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return int(self._data.size)

    def flat(self) -> np.ndarray:
        """Row-major flattened copy of the values."""
        return self._data.reshape(-1).copy()

    def reshape(self, shape: tuple[int, ...]) -> "Tensor":
        _check_shape(tuple(shape))
        if int(np.prod(shape)) != self.size:
            raise ShapeMismatchError(f"cannot reshape {self.shape} to {shape}")
        return Tensor(self._data.reshape(shape))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def tensor_create(shape, data) -> Tensor:
    """Build a tensor from a dimension list and row-major flat values."""
    shape = tuple(int(d) for d in shape)
    _check_shape(shape)
    flat = np.asarray(data, dtype=np.float32).reshape(-1)
    expected = 1
    for d in shape:
        expected *= d
    if flat.size != expected:
        raise ShapeMismatchError(
            f"shape {shape} needs {expected} values, got {flat.size}"
        )
    return Tensor(flat.reshape(shape))


def concat_last_axis(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two rank-1 feature vectors, a's elements first."""
    if a.rank != 1 or b.rank != 1:
        raise RankMismatchError(
            f"concat_last_axis expects rank-1 inputs, got {a.shape} and {b.shape}"
        )
    return Tensor(np.concatenate([a.data, b.data]))


@dataclass(frozen=True)
class QuantParams:
    """Scale, zero point and bit width of a signed integer encoding."""

    scale: float
    zero_point: int
    bits: int
    signed: bool = True  # unsigned payloads are not supported

    def __post_init__(self):
        if not self.signed:
            raise InvalidShapeError("only signed encodings are supported")
        if self.bits not in (4, 8):
            raise InvalidShapeError(f"bits must be 4 or 8, got {self.bits}")
        if not 0 < self.scale < math.inf:  # also false for NaN
            raise InvalidShapeError(f"scale must be finite and positive, got {self.scale}")
        if not self.qmin <= self.zero_point <= self.qmax:
            raise InvalidShapeError(
                f"zero_point {self.zero_point} outside [{self.qmin}, {self.qmax}]"
            )

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1


class QuantTensor:
    """Integer payload plus the parameters that map it back to reals."""

    __slots__ = ("_qdata", "params")

    def __init__(self, qdata: np.ndarray, params: QuantParams):
        arr = np.ascontiguousarray(qdata, dtype=np.int32)
        _check_shape(arr.shape)
        if arr.size and (arr.min() < params.qmin or arr.max() > params.qmax):
            raise ShapeMismatchError(
                f"payload outside the {params.bits}-bit range "
                f"[{params.qmin}, {params.qmax}]"
            )
        arr.flags.writeable = False
        self._qdata = arr
        self.params = params

    @classmethod
    def _in_range(cls, qdata: np.ndarray, params: QuantParams) -> "QuantTensor":
        """Wrap a payload that lies in params' range by construction (clamped,
        or a maximum or reshape of in-range values) without re-scanning it.
        Everything from outside goes through the validating constructor."""
        self = object.__new__(cls)
        arr = np.ascontiguousarray(qdata, dtype=np.int32)
        arr.flags.writeable = False
        self._qdata = arr
        self.params = params
        return self

    @property
    def qdata(self) -> np.ndarray:
        return self._qdata

    @property
    def shape(self) -> tuple[int, ...]:
        return self._qdata.shape

    @property
    def rank(self) -> int:
        return self._qdata.ndim

    def reshape(self, shape: tuple[int, ...]) -> "QuantTensor":
        arr = self._qdata.reshape(shape)
        _check_shape(arr.shape)
        return QuantTensor._in_range(arr, self.params)

    def __repr__(self) -> str:
        return f"QuantTensor(shape={self.shape}, bits={self.params.bits})"
