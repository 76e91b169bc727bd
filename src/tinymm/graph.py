"""Two-branch model graphs: config format, loader, executor, calibration.

A model is a JSON config (schema "tinymm-model-v1") plus a binary weight
blob. The config lists layers in topological order; each non-input layer
names its inputs. Exactly two input layers feed two linear branches that
meet at a single concat node, followed by a dense head ending in softmax.

Both kinds of weight blob are read by one binder (`_take_records`) against
a layout that names every record with its shape and dtypes: `_expected_records`
gives a float blob's layout and `_plan_layout` derives a quantized blob's from
it. A missing record, a wrong dtype, a wrong shape and a record the layout does
not name are each rejected when the blob is read. Batch-norm layers are folded
into the preceding convolution while the records are bound (w' = w * g /
sqrt(var + eps), b' = (b - mean) * g / sqrt(var + eps) + beta, eps = 1e-3) and
removed from the graph.

Inference runs either in float32 or fully quantized, through one walk of
the topology (`_forward`: inputs, branch chains, concat, head) to which
each mode supplies how an input enters, one per-stage step and how the
branches join. Both walks run the same stages (`_stages`): a weighted layer
with the ReLU / max-pool / dropout layers right after it, or one other layer
alone; a stage's output edge is named by its last layer. The integer step
runs a weighted stage as one kernel with a fused epilogue, the float step
one layer at a time. In quantized mode every hidden tensor stays integer;
activations are requantized where two precisions meet (between layers of
different widths and at the concat), and values are dequantized only at
the softmax input. Calibration is an observer on the float walk that
records each edge's min/max. A quantized plan holds one record per
weighted layer (`LayerPlan`), bound by one binder whether it is prepared
from calibration or read from a blob; `check_assignment` alone decides
which per-layer widths a plan may have.
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
EPILOGUE_KINDS = ("relu", "maxpool", "dropout")  # join the stage of the weighted layer before them


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

    def layer(self, name: str) -> LayerSpec:
        return self._by_name[name]

    def __post_init__(self):
        self._by_name = {l.name: l for l in self.layers}
        self._stages = {chain[0]: _stages([self.layer(name) for name in chain[1:]])
                        for chain in (*self.branch_chains, self.head_chain)}

    @property
    def weighted_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.kind in WEIGHTED_KINDS]

    @property
    def num_classes(self) -> int:
        return self.shapes[self.output_name][0]


@dataclass(frozen=True)
class Stage:
    """The unit both walks run: a weighted layer with the ReLU / max-pool /
    dropout run after it (`relu`, one composed `pool`), or one other layer.
    Its output edge is named by its last layer."""

    layers: tuple[LayerSpec, ...]
    relu: bool = False
    pool: K.PoolSpec | None = None


def _stages(chain: list[LayerSpec]) -> tuple[Stage, ...]:
    """A chain's stages: each weighted layer takes the maximal run of
    EPILOGUE_KINDS layers directly after it; every other layer stands alone.

    Consecutive pools compose into one pool of their sizes' product: both
    drop the same remainder and take the max over the same windows.
    """
    stages: list[Stage] = []
    for layer in chain:
        last = stages[-1] if stages else None
        if last is None or last.layers[0].kind not in WEIGHTED_KINDS or layer.kind not in EPILOGUE_KINDS:
            stages.append(Stage((layer,)))
            continue
        pool = last.pool
        if layer.kind == "maxpool":
            pool = layer.pool if pool is None else K.PoolSpec(pool.pool_size * layer.pool.pool_size)
        stages[-1] = Stage(last.layers + (layer,), last.relu or layer.kind == "relu", pool)
    return tuple(stages)


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
        for src in layer.inputs:
            if src not in shapes:
                raise ParseError(f"layer {layer.name!r} consumes {src!r} before it is defined")
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


def _take_records(records: dict[str, Record], layout: dict, what: str) -> dict[str, Record]:
    """The records a layout names, in layout order, each checked for presence,
    dtype and shape; a record the layout does not name is rejected.

    layout maps record name -> (shape, allowed dtypes).
    """
    for name, (shape, dtypes) in layout.items():
        rec = records.get(name)
        if rec is None:
            raise ShapeMismatchError(f"{what} is missing record {name!r}")
        if rec.dtype not in dtypes:
            raise ParseError(f"record {name!r} is {rec.dtype}, expected {' or '.join(dtypes)}")
        if rec.shape != shape:
            raise ShapeMismatchError(f"record {name!r} has shape {rec.shape}, expected {shape}")
    extra = records.keys() - layout.keys()
    if extra:
        raise DanglingWeightsError(f"{what} contains unclaimed records: {sorted(extra)}")
    return {name: records[name] for name in layout}


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
    shapes = _infer_shapes(layers, raw_layers)

    layout = {rec: (shape, (DTYPE_F32,))
              for layer in layers for rec, shape in _expected_records(layer, shapes).items()}
    bound: dict[str, dict[str, Tensor]] = {}
    for rec in _take_records(records, layout, "weight blob").values():
        layer_name, key = rec.name.rsplit(".", 1)
        bound.setdefault(layer_name, {})[key] = Tensor(rec.values.reshape(rec.shape))
    kinds = {l.name: l.kind for l in layers}
    folded: dict[str, str] = {}  # batchnorm -> the conv2d it was folded into
    weights: dict[str, dict[str, Tensor]] = {}
    kept: list[LayerSpec] = []
    for layer in layers:
        layer.inputs = tuple(folded.get(s, s) for s in layer.inputs)
        if layer.kind in WEIGHTED_KINDS:
            weights[layer.name] = bound[layer.name]
        elif layer.kind == "batchnorm":
            conv = layer.inputs[0]
            if kinds[conv] != "conv2d":
                raise ParseError(f"batchnorm {layer.name!r} must directly follow a conv2d layer")
            p = {k: v.data.astype(np.float64) for k, v in bound[layer.name].items()}
            scale = p["gamma"] / np.sqrt(p["var"] + BN_EPS)
            w = weights[conv]["w"].data * scale  # broadcast over output channels
            b = (weights[conv]["b"].data - p["mean"]) * scale + p["beta"]
            weights[conv] = {"w": Tensor(w.astype(np.float32)), "b": Tensor(b.astype(np.float32))}
            folded[layer.name] = conv
            del shapes[layer.name]
            continue
        kept.append(layer)
    chains, head = _check_dag(kept)

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
        layers=kept,
        weights=weights,
        shapes=shapes,
        input_names=(chains[0][0], chains[1][0]),
        concat_name=head[0],
        output_name=head[-1],
        branch_chains=chains,
        head_chain=head,
        sensitivity_overrides=overrides,
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

    enter(name, tensor) gives a branch's first value, step(ctx, stage,
    value, observe) runs one stage and join(a, b) is the concat. ctx (the
    graph, or the plan) is passed to step rather than bound into it, which
    saves a partial-object call per stage. observe(edge, value), when given,
    sees each chain's first edge and each stage's output edge (step reports
    the edges inside a stage), and the branches then run sequentially.
    """
    def walk(chain, value):
        if observe is not None:
            observe(chain[0], value)
        for stage in graph._stages[chain[0]]:
            value = step(ctx, stage, value, observe)
            if observe is not None:
                observe(stage.layers[-1].name, value)
        return value

    a, b = _map_branches(lambda c: walk(c, enter(c[0], pair[c[0]])),
                         graph.branch_chains, parallel and observe is None)
    return walk(graph.head_chain, join(a, b))


def _float_step(graph: ModelGraph, stage: Stage, v: Tensor, see) -> Tensor:
    """A stage's layers one at a time; see also gets each edge inside it."""
    *inner, last = stage.layers
    for layer in inner:
        v = _float_layer(graph, layer, v, see)
        if see is not None:
            see(layer.name, v)
    return _float_layer(graph, last, v, see)


def _float_layer(graph: ModelGraph, layer: LayerSpec, v: Tensor, see) -> Tensor:
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

@dataclass(frozen=True)
class LayerPlan:
    """One weighted layer's integer weights, int32 bias and the params of the
    edges it consumes, produces and (ds layers) passes between its stages."""

    weights: dict[str, QuantTensor]
    bias: np.ndarray
    in_params: QuantParams
    out_params: QuantParams
    mid_params: QuantParams | None = None

    @property
    def bits(self) -> int:
        return self.out_params.bits  # _bind_layer checked that every width agrees


@dataclass
class QuantizedPlan:
    """Everything integer inference needs: input, concat and per-layer params."""

    concat_params: QuantParams
    input_params: dict[str, QuantParams] = field(default_factory=dict)
    layers: dict[str, LayerPlan] = field(default_factory=dict)

    @property
    def assignment(self) -> dict[str, int]:
        return {name: lp.bits for name, lp in self.layers.items()}


def _accumulator_terms(layer: LayerSpec) -> tuple[int, ...]:
    """Products summed per output, per contraction of a weighted layer."""
    if layer.kind == "dense":
        return (layer.dense.in_features,)
    k2, cin = layer.conv.kernel_size ** 2, layer.conv.in_channels
    return (k2, cin) if layer.kind == "ds_conv2d" else (k2 * cin,)


def check_assignment(graph: ModelGraph, bits: dict) -> dict[str, int]:
    """bits as int widths, once it names each weighted layer and nothing else
    (ParseError, MissingAssignmentError), each at 4 or 8 bits (ParseError) that
    its pin allows (MissingAssignmentError) and its accumulator holds
    (AccumulatorOverflowError)."""
    layers = graph.weighted_layers
    unknown = bits.keys() - {layer.name for layer in layers}
    if unknown:
        raise ParseError(f"assignment names no weighted layer of the model: {sorted(unknown)}")
    out = {}
    for layer in layers:
        name = layer.name
        if name not in bits:
            raise MissingAssignmentError(f"no bits assigned for layer {name!r}")
        width = bits[name]
        if width not in (4, 8):
            raise ParseError(f"layer {name!r}: width {width} is not 4 or 8")
        width = int(width)
        if isinstance(layer.bit_policy, int) and width != layer.bit_policy:
            raise MissingAssignmentError(
                f"layer {name!r} is fixed at {layer.bit_policy} bits, assignment says {width}"
            )
        for n in _accumulator_terms(layer):
            ik.check_accumulator(n, width)
        out[name] = width
    return out


def _stats_for(stats: dict[str, CalibrationStats], edge: str) -> CalibrationStats:
    if edge not in stats or not stats[edge].ready:
        raise MissingCalibrationError(f"no calibration stats for edge {edge!r}")
    return stats[edge]


def _bind_layer(layer: LayerSpec, qws: dict[str, QuantTensor], bias: Tensor,
                in_params: QuantParams, out_params: QuantParams,
                mid_params: QuantParams | None) -> LayerPlan:
    """A weighted layer's record, after checking that its weights and edge
    params share one width. The bias is quantized at the scale of the
    products it joins: (mid or in) x last weight."""
    edges = (in_params, mid_params, out_params)
    widths = {q.params.bits for q in qws.values()} | {p.bits for p in edges if p is not None}
    if len(widths) != 1:
        raise PrecisionMismatchError(
            f"layer {layer.name!r} mixes widths {sorted(widths)} across its weights and edge params"
        )
    if not np.isfinite(bias.data).all():  # NaN has no integer bias
        raise ParseError(f"layer {layer.name!r} has a bias that is not finite")
    in_scale = (in_params if mid_params is None else mid_params).scale
    qbias = ik.quantize_bias(bias, in_scale, list(qws.values())[-1].params.scale)
    return LayerPlan(qws, qbias, in_params, out_params, mid_params)


def prepare_quantized_plan(
    graph: ModelGraph,
    assignment: dict[str, int],
    stats: dict[str, CalibrationStats],
) -> QuantizedPlan:
    """Quantize weights and fix every edge's parameters ahead of execution."""
    bits = check_assignment(graph, assignment)

    def first_bits(chain: list[str]) -> int:  # a chain's first weighted layer's, else 8
        return next((bits[name] for name in chain if name in bits), 8)

    plan = QuantizedPlan(affine_params(_stats_for(stats, graph.concat_name), first_bits(graph.head_chain)))

    def walk(chain: list[str], cur: QuantParams, cur_edge: str) -> None:
        for name in chain:
            if name in bits:
                layer, width = graph.layer(name), bits[name]
                if cur.bits != width:
                    cur = affine_params(_stats_for(stats, cur_edge), width)
                out = affine_params(_stats_for(stats, name), width)
                mid = (affine_params(_stats_for(stats, f"{name}.dw"), width)
                       if layer.kind == "ds_conv2d" else None)
                w = graph.weights[name]
                qws = {k: quantize_tensor(t, width) for k, t in w.items() if k != "b"}
                plan.layers[name] = _bind_layer(layer, qws, w["b"], cur, out, mid)
                cur = out
            cur_edge = name

    for chain in graph.branch_chains:
        cur = affine_params(_stats_for(stats, chain[0]), first_bits(chain + graph.head_chain))
        plan.input_params[chain[0]] = cur
        walk(chain[1:], cur, chain[0])
    walk(graph.head_chain[1:], plan.concat_params, graph.concat_name)
    return plan


def _int_step(plan: QuantizedPlan, stage: Stage, q: QuantTensor, see):
    """One stage of the integer walk: a weighted layer's kernel runs the
    stage's ReLU and pool as its fused epilogue."""
    layer = stage.layers[0]
    if layer.kind in WEIGHTED_KINDS:
        lp = plan.layers[layer.name]
        if q.params != lp.in_params:
            q = ik.requantize_tensor(q, lp.in_params)
        w = lp.weights
        if layer.kind == "conv2d":
            return ik.conv2d_int(q, w["w"], lp.bias, lp.out_params, layer.conv, relu=stage.relu, pool=stage.pool)
        if layer.kind == "ds_conv2d":
            mid = ik.depthwise_conv2d_int(q, w["dw"], lp.mid_params, layer.conv)
            if see is not None:
                see(f"{layer.name}.dw", mid)
            return ik.pointwise_conv2d_int(mid, w["pw"], lp.bias, lp.out_params, relu=stage.relu, pool=stage.pool)
        return ik.dense_int(q, w["w"], lp.bias, lp.out_params, relu=stage.relu)
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
    observe=None,
) -> Tensor:
    def enter(name: str, t: Tensor) -> QuantTensor:
        params = plan.input_params[name]
        return QuantTensor(quantize_array(t.data, params), params)

    def join(qa: QuantTensor, qb: QuantTensor) -> QuantTensor:
        qa = ik.requantize_tensor(qa, plan.concat_params)
        qb = ik.requantize_tensor(qb, plan.concat_params)
        return QuantTensor(np.concatenate([qa.qdata, qb.qdata]), plan.concat_params)

    return _forward(graph, pair, plan, enter, _int_step, join, parallel, observe)


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


def _check_plan_fits(graph: ModelGraph, plan: QuantizedPlan) -> None:
    """A plan must hold a record for each weighted layer and nothing else, and
    params for each input."""
    names = {layer.name for layer in graph.weighted_layers}
    missing, extra = names - plan.layers.keys(), plan.layers.keys() - names
    inputs = set(graph.input_names) - plan.input_params.keys()
    if missing or extra or inputs:
        raise MissingAssignmentError(
            f"plan does not fit model {graph.name!r}: layers missing {sorted(missing)}, "
            f"unknown layers {sorted(extra)}, inputs missing {sorted(inputs)}"
        )


def infer(
    graph: ModelGraph,
    inputs,
    mode: str = "float32",
    plan: QuantizedPlan | None = None,
    parallel_branches: bool = False,
) -> Tensor:
    """Run the model end to end (quantized: a prepared or read plan); returns
    the class probability vector."""
    pair = _as_input_dict(graph, inputs)
    if mode == "float32":
        return _run_float(graph, pair, parallel=parallel_branches)
    if mode == "quantized":
        if plan is None:
            raise MissingAssignmentError("quantized mode needs a plan")
        _check_plan_fits(graph, plan)
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
    if not (zp.is_integer() and bits.is_integer()):  # also false for NaN and inf
        raise ParseError(f"record {rec.name!r}: zero point {zp} and bits {bits} must be integers")
    return QuantParams(scale=scale, zero_point=int(zp), bits=int(bits))


def _plan_layout(graph: ModelGraph) -> dict[str, tuple[tuple[int, ...], tuple[str, ...]]]:
    """Record name -> (shape, allowed dtypes) for every record of a quantized
    blob: per weighted layer, each float weight `<k>` becomes `<k>q` (same
    shape, i4 or i8) and `<k>_scale`; the bias stays f32; the edge params
    (scale, zero point, bits) are `in_params`, `out_params` and, for a ds
    layer, `mid_params`; each input and the concat have `.params`."""
    params = ((3,), (DTYPE_F32,))
    layout = {}
    for layer in graph.weighted_layers:
        for rec, shape in _expected_records(layer, graph.shapes).items():
            if rec.endswith(".b"):
                layout[rec] = (shape, (DTYPE_F32,))
            else:
                layout[f"{rec}q"] = (shape, (DTYPE_I4, DTYPE_I8))
                layout[f"{rec}_scale"] = ((1,), (DTYPE_F32,))
        for edge in ("in", "mid", "out") if layer.kind == "ds_conv2d" else ("in", "out"):
            layout[f"{layer.name}.{edge}_params"] = params
    for name in (*graph.input_names, graph.concat_name):
        layout[f"{name}.params"] = params
    return layout


def plan_to_records(graph: ModelGraph, plan: QuantizedPlan) -> list[Record]:
    """Serialize a quantized plan as blob records (weights packed to width)."""
    records: list[Record] = []
    for name, lp in plan.layers.items():
        tag = DTYPE_I4 if lp.bits == 4 else DTYPE_I8
        for key, q in lp.weights.items():
            records.append(Record(f"{name}.{key}q", tag, q.shape, q.qdata))
            records.append(
                Record(f"{name}.{key}_scale", DTYPE_F32, (1,), np.array([q.params.scale], dtype=np.float32))
            )
        records.append(Record(f"{name}.b", DTYPE_F32, graph.weights[name]["b"].shape, graph.weights[name]["b"].data))
        records.append(_params_record(f"{name}.in_params", lp.in_params))
        records.append(_params_record(f"{name}.out_params", lp.out_params))
        if lp.mid_params is not None:
            records.append(_params_record(f"{name}.mid_params", lp.mid_params))
    for name, p in plan.input_params.items():
        records.append(_params_record(f"{name}.params", p))
    records.append(_params_record(f"{graph.concat_name}.params", plan.concat_params))
    return records


def plan_from_records(graph: ModelGraph, records: dict[str, Record]) -> QuantizedPlan:
    """Rebuild an executable plan from a quantized blob whose records match
    `_plan_layout` exactly, as a float blob must match its layout in
    `assemble_model`. A layer's last weight record gives its width, which must
    pass `check_assignment` and agree with its other weights and edge params.
    """
    recs = _take_records(records, _plan_layout(graph), "quantized blob")

    def params(name: str) -> QuantParams:
        return _params_from_record(recs[name])

    def weight(name: str) -> QuantTensor:
        rec, scale = recs[f"{name}q"], float(recs[f"{name}_scale"].values[0])
        return QuantTensor(rec.values.reshape(rec.shape), QuantParams(scale, 0, 4 if rec.dtype == DTYPE_I4 else 8))

    qweights = {name: {k: weight(f"{name}.{k}") for k in w if k != "b"} for name, w in graph.weights.items()}
    check_assignment(graph, {name: list(qws.values())[-1].params.bits for name, qws in qweights.items()})
    plan = QuantizedPlan(params(f"{graph.concat_name}.params"),
                         {name: params(f"{name}.params") for name in graph.input_names})
    for layer in graph.weighted_layers:
        name = layer.name
        mid = params(f"{name}.mid_params") if layer.kind == "ds_conv2d" else None
        bias = recs[f"{name}.b"]
        plan.layers[name] = _bind_layer(layer, qweights[name], Tensor(bias.values.reshape(bias.shape)),
                                        params(f"{name}.in_params"), params(f"{name}.out_params"), mid)
    return plan
