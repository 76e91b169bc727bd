"""Two-branch model graphs: config format, loader, executor, calibration.

A model is a JSON config (schema "tinymm-model-v1") plus a binary weight
blob. The config lists layers in topological order; each non-input layer
names its inputs. Exactly two input layers feed two linear branches that
meet at a single concat node, followed by a dense head ending in softmax.

Batch-norm layers are folded into the preceding convolution at load time
(w' = w * g / sqrt(var + eps), b' = (b - mean) * g / sqrt(var + eps) + beta,
eps = 1e-3) and removed from the graph.

Inference runs either in float32 or fully quantized, through one walk of
the topology (`_forward`: inputs, branch chains, concat, head) to which
each mode supplies how an input enters, one per-layer step and how the
branches join. In quantized mode every hidden tensor stays integer;
activations are requantized where two precisions meet (between layers of
different widths and at the concat), and values are dequantized only at
the softmax input. Calibration is an observer on the float walk that
records each edge's min/max. A quantized plan is bound layer by layer by
one binder, whether it is prepared from calibration or read from a blob.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import integer_kernels as ik
from . import kernels as K
from .audio import MfccConfig, frame_count
from .blob import DTYPE_F32, DTYPE_I4, DTYPE_I8, Record, read_blob
from .costs import CostReport, dense_cost, ds_conv_cost, traditional_conv_cost
from .errors import (
    DanglingWeightsError,
    EmptyCalibrationSetError,
    MissingAssignmentError,
    MissingCalibrationError,
    ParseError,
    PrecisionMismatchError,
    ShapeMismatchError,
)
from .quantize import (
    CalibrationStats,
    SensitivityTable,
    affine_params,
    build_sensitivity_table,
    dequantize,
    quantize_array,
    quantize_tensor,
)
from .tensor import QuantParams, QuantTensor, Tensor, concat_last_axis

SCHEMA = "tinymm-model-v1"
BN_EPS = 1e-3

WEIGHTED_KINDS = ("conv2d", "ds_conv2d", "dense")
ALL_KINDS = WEIGHTED_KINDS + (
    "input",
    "maxpool",
    "relu",
    "softmax",
    "flatten",
    "dropout",
    "batchnorm",
    "concat",
)


@dataclass
class LayerSpec:
    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    conv: K.ConvSpec | None = None
    dense: K.DenseSpec | None = None
    pool: K.PoolSpec | None = None
    input_shape: tuple[int, ...] | None = None
    source: dict | None = None
    rate: float = 0.0
    bit_policy: object = "allocator"  # "allocator" or a fixed width (4 / 8)


@dataclass
class ModelGraph:
    name: str
    layers: list[LayerSpec]
    weights: dict[str, dict[str, Tensor]]
    shapes: dict[str, tuple[int, ...]]
    input_names: tuple[str, str]
    concat_name: str
    output_name: str
    branch_chains: tuple[list[str], list[str]]
    head_chain: list[str]
    sensitivity_overrides: dict[str, float] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def layer(self, name: str) -> LayerSpec:
        return self._by_name[name]

    def __post_init__(self):
        self._by_name = {l.name: l for l in self.layers}

    @property
    def weighted_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.kind in WEIGHTED_KINDS]

    @property
    def num_classes(self) -> int:
        return self.shapes[self.output_name][0]


# -- config parsing -----------------------------------------------------------

def _parse_layer(doc: dict) -> LayerSpec:
    if not isinstance(doc, dict):
        raise ParseError(f"layer must be an object, got {type(doc).__name__}")
    try:
        name = str(doc["name"])
        kind = str(doc["kind"])
    except KeyError as exc:
        raise ParseError(f"layer missing field {exc}") from exc
    if kind not in ALL_KINDS:
        raise ParseError(f"layer {name!r}: unknown kind {kind!r}")
    raw_inputs = doc.get("inputs", ())
    if not isinstance(raw_inputs, (list, tuple)):
        raise ParseError(f"layer {name!r}: inputs must be a list of layer names")
    inputs = tuple(str(s) for s in raw_inputs)
    spec = LayerSpec(name=name, kind=kind, inputs=inputs)
    if kind == "input":
        if inputs:
            raise ParseError(f"input layer {name!r} cannot have inputs")
        try:
            spec.input_shape = tuple(int(d) for d in doc["shape"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"input layer {name!r} needs a shape") from exc
        spec.source = doc.get("source")
        if spec.source is not None and not isinstance(spec.source, dict):
            raise ParseError(f"input layer {name!r}: source must be an object")
        return spec
    if not inputs:
        raise ParseError(f"layer {name!r} has no inputs")
    if kind == "concat":
        if len(inputs) != 2:
            raise ParseError(f"concat layer {name!r} needs exactly two inputs")
        return spec
    if len(inputs) != 1:
        raise ParseError(f"layer {name!r} must have exactly one input")
    if kind in WEIGHTED_KINDS:
        policy = doc.get("bits", "allocator")
        if policy not in ("allocator", 4, 8):
            raise ParseError(f"layer {name!r}: bits must be 4, 8 or \"allocator\"")
        spec.bit_policy = policy if policy == "allocator" else int(policy)  # 8.0 pins 8
    if kind == "maxpool":
        try:
            spec.pool = K.PoolSpec(int(doc["pool_size"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"maxpool layer {name!r} needs pool_size") from exc
    if kind == "dropout":
        try:
            spec.rate = float(doc.get("rate", 0.0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"dropout layer {name!r}: bad rate: {exc}") from exc
        if not 0.0 <= spec.rate < 1.0:
            raise ParseError(f"dropout layer {name!r}: bad rate {spec.rate}")
    return spec


def _check_input_source(layer: LayerSpec) -> None:
    """Declared input shape must agree with what its front-end produces."""
    src = layer.source
    if not src:
        return
    shape = layer.input_shape
    if src.get("type") == "mfcc":
        try:
            cfg = MfccConfig.from_dict(src)
            if "chunk_seconds" in src:
                samples = int(round(float(src["chunk_seconds"]) * cfg.sample_rate))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"input {layer.name!r}: bad mfcc source: {exc}") from exc
        if "chunk_seconds" in src:
            frames = frame_count(samples, cfg)
            want = (frames, cfg.num_coefficients, 1)
            if shape != want:
                raise ParseError(
                    f"input {layer.name!r}: declared shape {shape} but the mfcc "
                    f"source yields {want}"
                )
    elif src.get("type") == "image":
        if len(shape) != 3:
            raise ParseError(f"input {layer.name!r}: image inputs must be rank 3")
        try:
            want = (int(src.get("height", shape[0])), int(src.get("width", shape[1])), 3)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"input {layer.name!r}: bad image source: {exc}") from exc
        if shape != want:
            raise ParseError(
                f"input {layer.name!r}: declared shape {shape} but the image "
                f"source yields {want}"
            )


def _infer_shapes(layers: list[LayerSpec], raw: list[dict]) -> dict[str, tuple[int, ...]]:
    """Resolve every layer's output shape, completing conv/dense specs."""
    shapes: dict[str, tuple[int, ...]] = {}
    raw_by_name = {l.name: d for l, d in zip(layers, raw)}
    for layer in layers:
        if layer.kind == "input":
            _check_input_source(layer)
            shapes[layer.name] = layer.input_shape
            continue
        in_shapes = [shapes[s] for s in layer.inputs]
        s = in_shapes[0]
        if layer.kind in ("conv2d", "ds_conv2d"):
            if len(s) != 3:
                raise ShapeMismatchError(f"{layer.name!r}: conv input must be rank 3, got {s}")
            doc = raw_by_name[layer.name]
            try:
                layer.conv = K.ConvSpec(
                    in_channels=s[2],
                    out_channels=int(doc["out_channels"]),
                    kernel_size=int(doc["kernel_size"]),
                    stride=int(doc.get("stride", 1)),
                    padding=str(doc.get("padding", K.VALID)),
                    kind="traditional" if layer.kind == "conv2d" else "depthwise_separable",
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"conv layer {layer.name!r}: {exc}") from exc
            h = K.conv_output_dim(s[0], layer.conv.kernel_size, layer.conv.stride, layer.conv.padding)
            w = K.conv_output_dim(s[1], layer.conv.kernel_size, layer.conv.stride, layer.conv.padding)
            shapes[layer.name] = (h, w, layer.conv.out_channels)
        elif layer.kind == "maxpool":
            if len(s) != 3:
                raise ShapeMismatchError(f"{layer.name!r}: pool input must be rank 3, got {s}")
            p = layer.pool.pool_size
            if s[0] < p or s[1] < p:
                raise ShapeMismatchError(f"{layer.name!r}: input {s} smaller than pool {p}")
            shapes[layer.name] = (s[0] // p, s[1] // p, s[2])
        elif layer.kind == "dense":
            if len(s) != 1:
                raise ShapeMismatchError(f"{layer.name!r}: dense input must be rank 1, got {s}")
            doc = raw_by_name[layer.name]
            try:
                layer.dense = K.DenseSpec(s[0], int(doc["out_features"]))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"dense layer {layer.name!r}: {exc}") from exc
            shapes[layer.name] = (layer.dense.out_features,)
        elif layer.kind == "flatten":
            n = 1
            for d in s:
                n *= d
            shapes[layer.name] = (n,)
        elif layer.kind == "concat":
            a, b = in_shapes
            if len(a) != 1 or len(b) != 1:
                raise ShapeMismatchError(f"{layer.name!r}: concat inputs must be rank 1")
            shapes[layer.name] = (a[0] + b[0],)
        elif layer.kind == "softmax":
            if len(s) != 1:
                raise ShapeMismatchError(f"{layer.name!r}: softmax input must be rank 1")
            shapes[layer.name] = s
        else:  # relu, dropout, batchnorm keep their input shape
            shapes[layer.name] = s
    return shapes


def _expected_records(layer: LayerSpec, shapes: dict) -> dict[str, tuple[int, ...]]:
    if layer.kind == "conv2d":
        c = layer.conv
        return {
            f"{layer.name}.w": (c.kernel_size, c.kernel_size, c.in_channels, c.out_channels),
            f"{layer.name}.b": (c.out_channels,),
        }
    if layer.kind == "ds_conv2d":
        c = layer.conv
        return {
            f"{layer.name}.dw": (c.kernel_size, c.kernel_size, c.in_channels),
            f"{layer.name}.pw": (1, 1, c.in_channels, c.out_channels),
            f"{layer.name}.b": (c.out_channels,),
        }
    if layer.kind == "dense":
        d = layer.dense
        return {f"{layer.name}.w": (d.in_features, d.out_features), f"{layer.name}.b": (d.out_features,)}
    if layer.kind == "batchnorm":
        c = shapes[layer.name][-1]
        return {
            f"{layer.name}.gamma": (c,),
            f"{layer.name}.beta": (c,),
            f"{layer.name}.mean": (c,),
            f"{layer.name}.var": (c,),
        }
    return {}


def _fold_batchnorm(
    layers: list[LayerSpec],
    weights: dict[str, dict[str, Tensor]],
    shapes: dict[str, tuple[int, ...]],
    bn_params: dict[str, dict[str, np.ndarray]],
) -> list[LayerSpec]:
    """Fold every batchnorm into its preceding conv2d and drop the node."""
    remaining = []
    rename: dict[str, str] = {}
    for layer in layers:
        if layer.kind != "batchnorm":
            continue
        prev_name = rename.get(layer.inputs[0], layer.inputs[0])
        prev = next((l for l in layers if l.name == prev_name), None)
        if prev is None or prev.kind != "conv2d":
            raise ParseError(
                f"batchnorm {layer.name!r} must directly follow a conv2d layer"
            )
        p = bn_params[layer.name]
        scale = p["gamma"] / np.sqrt(p["var"] + BN_EPS)
        w = weights[prev_name]["w"].data * scale  # broadcast over output channels
        b = (weights[prev_name]["b"].data - p["mean"]) * scale + p["beta"]
        weights[prev_name] = {"w": Tensor(w.astype(np.float32)), "b": Tensor(b.astype(np.float32))}
        rename[layer.name] = prev_name
    for layer in layers:
        if layer.kind == "batchnorm":
            shapes.pop(layer.name, None)
            continue
        layer.inputs = tuple(rename.get(s, s) for s in layer.inputs)
        remaining.append(layer)
    return remaining


def _check_dag(layers: list[LayerSpec]) -> tuple[tuple[list[str], list[str]], list[str]]:
    """Check the two-branch shape; return each input's chain up to the
    concat and the head chain from the concat to the softmax."""
    inputs = [l.name for l in layers if l.kind == "input"]
    concats = [l.name for l in layers if l.kind == "concat"]
    softmaxes = [l.name for l in layers if l.kind == "softmax"]
    if len(inputs) != 2:
        raise ParseError(f"model needs exactly two input layers, found {len(inputs)}")
    if len(concats) != 1:
        raise ParseError(f"model needs exactly one concat layer, found {len(concats)}")
    if len(softmaxes) != 1 or layers[-1].name != softmaxes[0]:
        raise ParseError("model must end in exactly one softmax layer")
    consumers: dict[str, list[str]] = {l.name: [] for l in layers}
    for layer in layers:
        for src in layer.inputs:  # known: assemble_model checked the order
            consumers[src].append(layer.name)
    for layer in layers:
        n = len(consumers[layer.name])
        if layer.kind == "softmax":
            if n:
                raise ParseError("softmax must be the terminal layer")
        elif n != 1:
            raise ParseError(
                f"layer {layer.name!r} must feed exactly one consumer, feeds {n}"
            )
    chains = []
    for start in inputs:
        chain = [start]
        while (nxt := consumers[chain[-1]][0]) != concats[0]:
            if nxt == softmaxes[0]:
                raise ParseError(f"input {start!r} never reaches the concat layer")
            chain.append(nxt)
        chains.append(chain)
    head = [concats[0]]
    while consumers[head[-1]]:
        head.append(consumers[head[-1]][0])
    return (chains[0], chains[1]), head


def assemble_model(config: dict, records: dict[str, Record]) -> ModelGraph:
    """Validate a parsed config against a record set and build the graph."""
    if not isinstance(config, dict):
        raise ParseError(f"config must be an object, got {type(config).__name__}")
    if config.get("schema") != SCHEMA:
        raise ParseError(f"unsupported schema {config.get('schema')!r}")
    raw_layers = config.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ParseError("config has no layers")
    layers = [_parse_layer(d) for d in raw_layers]
    names = [l.name for l in layers]
    if len(set(names)) != len(names):
        raise ParseError("layer names must be unique")
    known: set[str] = set()
    for layer in layers:
        for src in layer.inputs:
            if src not in known:
                raise ParseError(
                    f"layer {layer.name!r} consumes {src!r} before it is defined"
                )
        known.add(layer.name)

    shapes = _infer_shapes(layers, raw_layers)

    # bind weights
    claimed: set[str] = set()
    weights: dict[str, dict[str, Tensor]] = {}
    bn_params: dict[str, dict[str, np.ndarray]] = {}
    for layer in layers:
        expected = _expected_records(layer, shapes)
        bound: dict[str, Tensor] = {}
        for rec_name, shape in expected.items():
            rec = records.get(rec_name)
            if rec is None:
                raise ShapeMismatchError(f"weight blob is missing record {rec_name!r}")
            if rec.dtype != DTYPE_F32:
                raise ParseError(f"record {rec_name!r} must be f32 in a float model")
            if rec.shape != shape:
                raise ShapeMismatchError(
                    f"record {rec_name!r} has shape {rec.shape}, expected {shape}"
                )
            bound[rec_name.rsplit(".", 1)[1]] = Tensor(rec.values.reshape(shape))
            claimed.add(rec_name)
        if layer.kind in WEIGHTED_KINDS:
            weights[layer.name] = bound
        elif layer.kind == "batchnorm":
            bn_params[layer.name] = {
                k: v.data.astype(np.float64) for k, v in bound.items()
            }
    extra = set(records) - claimed
    if extra:
        raise DanglingWeightsError(f"blob contains unclaimed records: {sorted(extra)}")

    layers = _fold_batchnorm(layers, weights, shapes, bn_params)
    chains, head = _check_dag(layers)

    raw_overrides = config.get("sensitivity_overrides") or {}
    if not isinstance(raw_overrides, dict):
        raise ParseError("sensitivity_overrides must be an object of layer name -> number")
    try:
        overrides = {str(k): float(v) for k, v in raw_overrides.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad sensitivity override: {exc}") from exc
    for k, v in overrides.items():
        if not (math.isfinite(v) and v >= 0):  # a weight on omega; NaN passes every comparison
            raise ParseError(f"sensitivity override for {k!r} must be finite and >= 0, got {v}")
    return ModelGraph(
        name=str(config.get("name", "model")),
        layers=layers,
        weights=weights,
        shapes=shapes,
        input_names=(chains[0][0], chains[1][0]),
        concat_name=head[0],
        output_name=head[-1],
        branch_chains=chains,
        head_chain=head,
        sensitivity_overrides=overrides,
        config=config,
    )


def load_model(config_path, weights_path) -> ModelGraph:
    """Load and validate a model from a config file and a weight blob."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{config_path}: {exc}") from exc
    records = read_blob(weights_path)
    return assemble_model(config, records)


def cost_report(graph: ModelGraph) -> CostReport:
    """Per-layer parameter and MAC accounting for every weighted layer."""
    report = CostReport()
    for layer in graph.weighted_layers:
        out = graph.shapes[layer.name]
        if layer.kind == "conv2d":
            c = layer.conv
            report.layers.append(
                traditional_conv_cost(c.in_channels, c.kernel_size, c.out_channels, out[0], out[1], layer.name)
            )
        elif layer.kind == "ds_conv2d":
            c = layer.conv
            report.layers.append(
                ds_conv_cost(c.in_channels, c.kernel_size, c.out_channels, out[0], out[1], layer.name)
            )
        else:
            d = layer.dense
            report.layers.append(dense_cost(d.in_features, d.out_features, layer.name))
    return report


# -- one graph walk --------------------------------------------------------------

def _map_branches(run, chains, parallel: bool) -> list:
    """run(chain) per input branch, in order; two threads give identical results."""
    if not parallel:
        return [run(chain) for chain in chains]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(run, chains))


def _forward(graph: ModelGraph, pair: dict[str, Tensor], ctx, enter, step, join,
             parallel: bool = False, observe=None):
    """inputs -> branch chains -> concat -> head; returns the softmax output.

    enter(name, tensor) gives a branch's first value, step(ctx, layer,
    value, observe) runs one layer and join(a, b) is the concat. ctx (the
    graph or the plan) is passed to step rather than bound into it, which
    saves a partial-object call per layer. observe(edge, value), when
    given, sees every edge (step reports a ds layer's inner `<name>.dw`),
    and the branches then run sequentially.
    """
    def walk(chain, value):
        if observe is not None:
            observe(chain[0], value)
        for name in chain[1:]:
            value = step(ctx, graph.layer(name), value, observe)
            if observe is not None:
                observe(name, value)
        return value

    a, b = _map_branches(lambda c: walk(c, enter(c[0], pair[c[0]])),
                         graph.branch_chains, parallel and observe is None)
    return walk(graph.head_chain, join(a, b))


def _float_step(graph: ModelGraph, layer: LayerSpec, v: Tensor, see) -> Tensor:
    if layer.kind == "conv2d":
        w = graph.weights[layer.name]
        return K.conv2d_fp(v, w["w"], w["b"], layer.conv)
    if layer.kind == "ds_conv2d":
        w = graph.weights[layer.name]
        mid = K.depthwise_conv2d_fp(v, w["dw"], layer.conv)
        if see is not None:
            see(f"{layer.name}.dw", mid)
        return K.pointwise_conv2d_fp(mid, w["pw"], w["b"])
    if layer.kind == "dense":
        w = graph.weights[layer.name]
        return K.dense_fp(v, w["w"], w["b"])
    if layer.kind == "maxpool":
        return K.maxpool2d(v, layer.pool)
    if layer.kind == "relu":
        return K.relu(v)
    if layer.kind == "flatten":
        return K.flatten(v)
    if layer.kind == "dropout":
        return v  # inference-time identity
    if layer.kind == "softmax":
        return K.softmax(v)
    raise ParseError(f"cannot execute layer kind {layer.kind!r}")


def _run_float(graph: ModelGraph, pair: dict[str, Tensor], parallel: bool = False,
               observe=None) -> Tensor:
    return _forward(graph, pair, graph, lambda name, t: t, _float_step,
                    concat_last_axis, parallel, observe)


def calibrate(
    graph: ModelGraph, calibration_inputs: list[dict[str, Tensor]]
) -> dict[str, CalibrationStats]:
    """Record activation min/max at every edge over a float-mode sweep."""
    if not calibration_inputs:
        raise EmptyCalibrationSetError("calibration needs at least one input pair")
    stats: dict[str, CalibrationStats] = {}

    def observe(edge: str, value: Tensor) -> None:
        stats.setdefault(edge, CalibrationStats()).update(value.data)

    for pair in calibration_inputs:
        _run_float(graph, _as_input_dict(graph, pair), observe=observe)
    return stats


# -- quantized execution --------------------------------------------------------

@dataclass
class QuantizedPlan:
    """Everything integer inference needs: weights, biases and edge params."""

    assignment: dict[str, int]
    qweights: dict[str, dict[str, QuantTensor]]
    qbiases: dict[str, np.ndarray]
    in_params: dict[str, QuantParams]    # params each weighted layer consumes
    out_params: dict[str, QuantParams]   # params each weighted layer produces
    mid_params: dict[str, QuantParams]   # depthwise-stage params of ds layers
    input_params: dict[str, QuantParams]
    concat_params: QuantParams


def _layer_bits(layer: LayerSpec, assignment: dict[str, int]) -> int:
    if layer.name not in assignment:
        raise MissingAssignmentError(f"no bits assigned for layer {layer.name!r}")
    bits = int(assignment[layer.name])
    if isinstance(layer.bit_policy, int) and bits != layer.bit_policy:
        raise MissingAssignmentError(
            f"layer {layer.name!r} is fixed at {layer.bit_policy} bits, assignment says {bits}"
        )
    return bits


def _stats_for(stats: dict[str, CalibrationStats], edge: str) -> CalibrationStats:
    if edge not in stats or not stats[edge].ready:
        raise MissingCalibrationError(f"no calibration stats for edge {edge!r}")
    return stats[edge]


def _first_weighted_bits(graph, chain, assignment, default=8) -> int:
    for name in chain:
        layer = graph.layer(name)
        if layer.kind in WEIGHTED_KINDS:
            return _layer_bits(layer, assignment)
    return default


def _bind_layer(plan: QuantizedPlan, layer: LayerSpec, qws: dict[str, QuantTensor],
                bias: Tensor) -> None:
    """Record a weighted layer's bits and weights in a plan that already holds
    its edge params, after checking its pin, its accumulator bound and that its
    weights and edge params share one width. The bias is quantized at the
    scale of the products it joins: (mid or in) x last weight."""
    name = layer.name
    last = list(qws.values())[-1]
    bits = _layer_bits(layer, {name: last.params.bits})
    if layer.kind == "ds_conv2d":
        terms = (layer.conv.kernel_size ** 2, layer.conv.in_channels)
        in_scale = plan.mid_params[name].scale
    else:
        terms = (layer.conv.kernel_size ** 2 * layer.conv.in_channels
                 if layer.kind == "conv2d" else layer.dense.in_features,)
        in_scale = plan.in_params[name].scale
    for n in terms:
        ik.check_accumulator(n, bits)
    edges = (plan.in_params, plan.mid_params, plan.out_params)
    widths = {q.params.bits for q in qws.values()} | {e[name].bits for e in edges if name in e}
    if widths != {bits}:
        raise PrecisionMismatchError(
            f"layer {name!r} mixes widths {sorted(widths)} across its weights and edge params"
        )
    plan.assignment[name] = bits
    plan.qweights[name] = qws
    plan.qbiases[name] = ik.quantize_bias(bias, in_scale, last.params.scale)


def prepare_quantized_plan(
    graph: ModelGraph,
    assignment: dict[str, int],
    stats: dict[str, CalibrationStats],
) -> QuantizedPlan:
    """Quantize weights and fix every edge's parameters ahead of execution."""
    plan = QuantizedPlan(
        assignment={}, qweights={}, qbiases={}, in_params={}, out_params={},
        mid_params={}, input_params={},
        concat_params=QuantParams(1.0, 0, 8),
    )

    def walk(chain: list[str], cur: QuantParams, cur_edge: str) -> None:
        for name in chain:
            layer = graph.layer(name)
            if layer.kind in WEIGHTED_KINDS:
                bits = _layer_bits(layer, assignment)
                if cur.bits != bits:
                    cur = affine_params(_stats_for(stats, cur_edge), bits)
                plan.in_params[name] = cur
                plan.out_params[name] = affine_params(_stats_for(stats, name), bits)
                if layer.kind == "ds_conv2d":
                    plan.mid_params[name] = affine_params(_stats_for(stats, f"{name}.dw"), bits)
                w = graph.weights[name]
                qws = {k: quantize_tensor(t, bits) for k, t in w.items() if k != "b"}
                _bind_layer(plan, layer, qws, w["b"])
                cur = plan.out_params[name]
            cur_edge = name

    head_bits = _first_weighted_bits(graph, graph.head_chain, assignment)
    for chain in graph.branch_chains:
        start_bits = _first_weighted_bits(graph, chain + graph.head_chain, assignment)
        cur = affine_params(_stats_for(stats, chain[0]), start_bits)
        plan.input_params[chain[0]] = cur
        walk(chain[1:], cur, chain[0])
    plan.concat_params = affine_params(_stats_for(stats, graph.concat_name), head_bits)
    walk(graph.head_chain[1:], plan.concat_params, graph.concat_name)
    return plan


def _int_step(plan: QuantizedPlan, layer: LayerSpec, q: QuantTensor, see):
    if layer.kind in WEIGHTED_KINDS:
        name = layer.name
        want = plan.in_params[name]
        if q.params != want:
            q = ik.requantize_tensor(q, want)
        w, bias, out = plan.qweights[name], plan.qbiases[name], plan.out_params[name]
        if layer.kind == "conv2d":
            return ik.conv2d_int(q, w["w"], bias, out, layer.conv)
        if layer.kind == "ds_conv2d":
            mid = ik.depthwise_conv2d_int(q, w["dw"], plan.mid_params[name], layer.conv)
            if see is not None:
                see(f"{name}.dw", mid)
            return ik.pointwise_conv2d_int(mid, w["pw"], bias, out)
        return ik.dense_int(q, w["w"], bias, out)
    if layer.kind == "maxpool":
        return ik.maxpool2d_int(q, layer.pool)
    if layer.kind == "relu":
        return ik.relu_int(q)
    if layer.kind == "flatten":
        return ik.flatten_int(q)
    if layer.kind == "dropout":
        return q
    if layer.kind == "softmax":
        return K.softmax(dequantize(q))
    raise ParseError(f"cannot execute layer kind {layer.kind!r} in integer mode")


def _run_quantized(
    graph: ModelGraph,
    plan: QuantizedPlan,
    pair: dict[str, Tensor],
    parallel: bool = False,
) -> Tensor:
    def enter(name: str, t: Tensor) -> QuantTensor:
        params = plan.input_params[name]
        return QuantTensor(quantize_array(t.data, params), params)

    def join(qa: QuantTensor, qb: QuantTensor) -> QuantTensor:
        qa = ik.requantize_tensor(qa, plan.concat_params)
        qb = ik.requantize_tensor(qb, plan.concat_params)
        return QuantTensor(np.concatenate([qa.qdata, qb.qdata]), plan.concat_params)

    return _forward(graph, pair, plan, enter, _int_step, join, parallel)


# -- public inference ----------------------------------------------------------

def _as_input_dict(graph: ModelGraph, inputs) -> dict[str, Tensor]:
    if isinstance(inputs, dict):
        pair = inputs
    else:
        seq = list(inputs)
        if len(seq) != 2:
            raise ShapeMismatchError("expected one tensor per input branch")
        pair = {graph.input_names[0]: seq[0], graph.input_names[1]: seq[1]}
    for name in graph.input_names:
        if name not in pair:
            raise ShapeMismatchError(f"missing input {name!r}")
        if pair[name].shape != graph.shapes[name]:
            raise ShapeMismatchError(
                f"input {name!r} has shape {pair[name].shape}, expected {graph.shapes[name]}"
            )
    return pair


def infer(
    graph: ModelGraph,
    inputs,
    mode: str = "float32",
    assignment: dict[str, int] | None = None,
    calibration: dict[str, CalibrationStats] | None = None,
    plan: QuantizedPlan | None = None,
    parallel_branches: bool = False,
) -> Tensor:
    """Run the model end to end; returns the class probability vector."""
    pair = _as_input_dict(graph, inputs)
    if mode == "float32":
        return _run_float(graph, pair, parallel=parallel_branches)
    if mode == "quantized":
        if plan is None:
            if assignment is None:
                raise MissingAssignmentError("quantized mode needs a bit assignment")
            if calibration is None:
                raise MissingCalibrationError("quantized mode needs calibration stats")
            plan = prepare_quantized_plan(graph, assignment, calibration)
        return _run_quantized(graph, plan, pair, parallel=parallel_branches)
    raise ParseError(f"unknown inference mode {mode!r}")


# -- sensitivity ------------------------------------------------------------------

def sensitivity_table(graph: ModelGraph) -> SensitivityTable:
    """The allocator's ω for every weighted layer at 4 and 8 bits, or only at
    its pinned width when the config pins it, so that `build_problem` gives a
    pinned layer that width as its single option.

    Each weight tensor is scored as the plan quantizes it, at its own
    symmetric scale, so a ds layer's ω is the score of `dw` plus that of
    `pw`. A layer's `sensitivity_overrides` entry multiplies its sum.
    """
    keys = {l.name: [k for k in graph.weights[l.name] if k != "b"] for l in graph.weighted_layers}
    scores = build_sensitivity_table(
        {f"{name}.{k}": graph.weights[name][k] for name, ks in keys.items() for k in ks}, (4, 8))
    table = SensitivityTable()
    for name, ks in keys.items():
        scale = graph.sensitivity_overrides.get(name, 1.0)
        pin = graph.layer(name).bit_policy
        for bits in (pin,) if isinstance(pin, int) else (4, 8):
            table.set(name, bits, scale * sum(scores.get(f"{name}.{k}", bits) for k in ks))
    return table


# -- quantized blob serialization ------------------------------------------------

def _params_record(name: str, p: QuantParams) -> Record:
    return Record(name, DTYPE_F32, (3,), np.array([p.scale, p.zero_point, p.bits], dtype=np.float32))


def _params_from_record(rec: Record) -> QuantParams:
    scale, zp, bits = (float(v) for v in rec.values)
    return QuantParams(scale=scale, zero_point=int(zp), bits=int(bits))


def plan_to_records(graph: ModelGraph, plan: QuantizedPlan) -> list[Record]:
    """Serialize a quantized plan as blob records (weights packed to width)."""
    records: list[Record] = []
    for name, bits in plan.assignment.items():
        tag = DTYPE_I4 if bits == 4 else DTYPE_I8
        for key, q in plan.qweights[name].items():
            records.append(Record(f"{name}.{key}q", tag, q.shape, q.qdata))
            records.append(
                Record(f"{name}.{key}_scale", DTYPE_F32, (1,), np.array([q.params.scale], dtype=np.float32))
            )
        records.append(Record(f"{name}.b", DTYPE_F32, graph.weights[name]["b"].shape, graph.weights[name]["b"].data))
        records.append(_params_record(f"{name}.in_params", plan.in_params[name]))
        records.append(_params_record(f"{name}.out_params", plan.out_params[name]))
        if name in plan.mid_params:
            records.append(_params_record(f"{name}.mid_params", plan.mid_params[name]))
    for name, p in plan.input_params.items():
        records.append(_params_record(f"{name}.params", p))
    records.append(_params_record(f"{graph.concat_name}.params", plan.concat_params))
    return records


def plan_from_records(graph: ModelGraph, records: dict[str, Record]) -> QuantizedPlan:
    """Rebuild an executable plan from a quantized blob.

    Each layer's weights and edge params must share one width, which must
    honour its config pin and fit the 32-bit accumulator bound, as in
    `prepare_quantized_plan`; a record no layer claims is rejected, as in
    `assemble_model`.
    """
    claimed: set[str] = set()

    def take(name: str) -> Record:
        claimed.add(name)
        return records[name]

    try:
        plan = _plan_from_records(graph, take)
    except KeyError as exc:
        raise ParseError(f"quantized blob is missing record {exc}") from exc
    extra = set(records) - claimed
    if extra:
        raise DanglingWeightsError(f"quantized blob contains unclaimed records: {sorted(extra)}")
    return plan


def _plan_from_records(graph: ModelGraph, take) -> QuantizedPlan:
    plan = QuantizedPlan(
        assignment={}, qweights={}, qbiases={}, in_params={}, out_params={},
        mid_params={}, input_params={},
        concat_params=_params_from_record(take(f"{graph.concat_name}.params")),
    )
    for name in graph.input_names:
        plan.input_params[name] = _params_from_record(take(f"{name}.params"))
    for layer in graph.weighted_layers:
        name = layer.name
        qws: dict[str, QuantTensor] = {}
        for key in ("dw", "pw") if layer.kind == "ds_conv2d" else ("w",):
            rec = take(f"{name}.{key}q")
            bits = 4 if rec.dtype == DTYPE_I4 else 8
            scale = float(take(f"{name}.{key}_scale").values[0])
            qws[key] = QuantTensor(rec.values.reshape(rec.shape), QuantParams(scale, 0, bits))
        plan.in_params[name] = _params_from_record(take(f"{name}.in_params"))
        plan.out_params[name] = _params_from_record(take(f"{name}.out_params"))
        if layer.kind == "ds_conv2d":
            plan.mid_params[name] = _params_from_record(take(f"{name}.mid_params"))
        bias = take(f"{name}.b")
        _bind_layer(plan, layer, qws, Tensor(bias.values.reshape(bias.shape)))
    return plan
