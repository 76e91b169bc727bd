"""Analytic accounting of parameters, MACs, bit sizes and BOPS.

A traditional convolution with M input channels, N output channels, a
Dk x Dk kernel and a Dph x Dpw output map costs

    params = M * Dk^2 * N           macs = M * Dk^2 * Dph * Dpw * N

while the depthwise-separable factorization of the same layer costs

    params = M * Dk^2 + M * N       macs = M * Dph * Dpw * Dk^2 + M * Dph * Dpw * N

so the separable/traditional MAC ratio is exactly 1/N + 1/Dk^2.

Under a per-layer bit assignment x_i the weight payload is sum_i params_i *
x_i bits and the compute metric is bit operations, sum_i macs_i * x_i^2
(weights and activations share the layer's precision). Biases and scales are
assignment-independent overhead, tracked separately at 32 bits each.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import InvalidShapeError, MissingAssignmentError

FLOAT_BITS = 32


@dataclass(frozen=True)
class LayerCost:
    """Weight and multiply-accumulate counts for one layer.

    params counts weights only; bias_params is the 32-bit overhead count
    (biases, plus one stored scale per weighted tensor).
    """

    name: str
    params: int
    macs: int
    bias_params: int = 0


@dataclass
class CostReport:
    """Per-layer costs for every weighted layer of a model."""

    layers: list[LayerCost] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def overhead_bits(self) -> int:
        """Assignment-independent payload: biases and scales at 32 bits."""
        return FLOAT_BITS * sum(l.bias_params for l in self.layers)

    def layer(self, name: str) -> LayerCost:
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(name)


def _check_positive(**kwargs: int) -> None:
    for k, v in kwargs.items():
        if v < 1:
            raise InvalidShapeError(f"{k} must be >= 1, got {v}")


def traditional_conv_cost(
    m: int, d_k: int, n: int, d_p_h: int, d_p_w: int, name: str = ""
) -> LayerCost:
    _check_positive(m=m, d_k=d_k, n=n, d_p_h=d_p_h, d_p_w=d_p_w)
    params = m * d_k * d_k * n
    macs = m * d_k * d_k * d_p_h * d_p_w * n
    return LayerCost(name=name, params=params, macs=macs, bias_params=n + 1)


def ds_conv_cost(
    m: int, d_k: int, n: int, d_p_h: int, d_p_w: int, name: str = ""
) -> LayerCost:
    _check_positive(m=m, d_k=d_k, n=n, d_p_h=d_p_h, d_p_w=d_p_w)
    params = m * d_k * d_k + m * n
    macs = m * d_p_h * d_p_w * d_k * d_k + m * d_p_h * d_p_w * n
    # bias per output channel plus a stored scale for each weight tensor
    return LayerCost(name=name, params=params, macs=macs, bias_params=n + 2)


def dense_cost(k: int, l: int, name: str = "") -> LayerCost:
    _check_positive(k=k, l=l)
    return LayerCost(name=name, params=k * l, macs=k * l, bias_params=l + 1)


def model_size_bits(report: CostReport, assignment: Mapping[str, int]) -> int:
    """Total weight payload in bits under a per-layer bit assignment."""
    total = 0
    for layer in report.layers:
        if layer.name not in assignment:
            raise MissingAssignmentError(f"no bits assigned for layer {layer.name!r}")
        total += layer.params * int(assignment[layer.name])
    return total


def bops(report: CostReport, assignment: Mapping[str, int]) -> int:
    """Total bit operations: each MAC costs weight_bits * activation_bits."""
    total = 0
    for layer in report.layers:
        if layer.name not in assignment:
            raise MissingAssignmentError(f"no bits assigned for layer {layer.name!r}")
        x = int(assignment[layer.name])
        total += layer.macs * x * x
    return total


def format_table(report: CostReport, assignment: Mapping[str, int] | None = None) -> str:
    """Human-readable cost table, one row per weighted layer."""
    rows = [("layer", "params", "macs", "bits", "size_bits", "bops")]
    for layer in report.layers:
        if assignment is not None and layer.name in assignment:
            x = int(assignment[layer.name])
            bits, size_b, bop = str(x), str(layer.params * x), str(layer.macs * x * x)
        else:
            bits, size_b, bop = "-", str(layer.params * FLOAT_BITS), "-"
        rows.append((layer.name, str(layer.params), str(layer.macs), bits, size_b, bop))
    totals = (
        "TOTAL",
        str(report.total_params),
        str(report.total_macs),
        "",
        str(
            model_size_bits(report, assignment)
            if assignment is not None
            else report.total_params * FLOAT_BITS
        ),
        str(bops(report, assignment)) if assignment is not None else "-",
    )
    rows.append(totals)
    widths = [max(len(r[i]) for r in rows) for i in range(6)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.append(f"overhead_bits (biases/scales @32): {report.overhead_bits}")
    return "\n".join(lines)


def report_to_dict(report: CostReport) -> dict:
    """Machine-readable form of a cost report."""
    return {
        "layers": [
            {"name": l.name, "params": l.params, "macs": l.macs, "bias_params": l.bias_params}
            for l in report.layers
        ],
        "total_params": report.total_params,
        "total_macs": report.total_macs,
        "overhead_bits": report.overhead_bits,
    }
