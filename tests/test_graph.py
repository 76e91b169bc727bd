import json

import numpy as np
import pytest

from tinymm.allocate import build_problem, solve_exact
from tinymm.blob import DTYPE_F32, DTYPE_I4, DTYPE_I8, Record, read_blob, write_blob
from tinymm.errors import (
    AccumulatorOverflowError,
    DanglingWeightsError,
    EmptyCalibrationSetError,
    InfeasibleError,
    InvalidShapeError,
    MissingAssignmentError,
    MissingCalibrationError,
    ParseError,
    PrecisionMismatchError,
    ShapeMismatchError,
    TinymmError,
)
from tinymm.graph import (
    assemble_model,
    calibrate,
    cost_report,
    infer,
    load_model,
    plan_from_records,
    plan_to_records,
    prepare_quantized_plan,
    sensitivity_table,
)
from tinymm import kernels as K
from tinymm.kernels import conv2d_fp, relu
from tinymm.quantize import layer_sensitivity
from tinymm.reference_models import (
    build_reference,
    reference_config,
    reference_weight_records,
)
from tinymm.tensor import Tensor

from model_fixtures import mutated_config, tiny_config, tiny_model, tiny_records, wide_config, wide_records


def _rand_inputs(graph, rng, scale=1.0):
    return {
        n: Tensor((rng.normal(size=graph.shapes[n]) * scale).astype(np.float32))
        for n in graph.input_names
    }


# -- loading -------------------------------------------------------------------

def test_load_model_from_files(tmp_path):
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(tiny_config()))
    blob_path = tmp_path / "tiny.tmmw"
    write_blob(blob_path, tiny_records())
    graph = load_model(config_path, blob_path)
    assert graph.input_names == ("a_in", "b_in")
    assert graph.shapes["probs"] == (3,)
    assert all(l.kind != "batchnorm" for l in graph.layers)


def test_reference_heads():
    covid = build_reference("covid")
    assert covid.shapes[covid.output_name] == (2,)
    battle = build_reference("battlefield")
    assert battle.shapes[battle.output_name] == (4,)
    assert covid.shapes[covid.concat_name] == (64,)
    assert battle.shapes[battle.concat_name] == (128,)


def test_reference_parameter_counts_stable():
    # golden totals computed once via the cost model
    assert cost_report(build_reference("covid")).total_params == 118_496
    assert cost_report(build_reference("battlefield")).total_params == 422_368


def test_identity_batchnorm_folding_keeps_weights():
    records = {r.name: r for r in tiny_records(with_bn=True)}
    for field, value in (("gamma", 1.0), ("beta", 0.0), ("mean", 0.0), ("var", 1.0)):
        name = f"a_bn.{field}"
        records[name] = Record(name, DTYPE_F32, (2,), np.full(2, value, dtype=np.float32))
    graph = assemble_model(tiny_config(), records)
    raw = records["a_conv.w"].values.reshape(3, 3, 1, 2)
    folded = graph.weights["a_conv"]["w"].data
    # identity normalization leaves weights unchanged up to the eps term
    assert np.allclose(folded, raw / np.sqrt(1.0 + 1e-3), atol=1e-7)


def test_batchnorm_folding_matches_explicit_computation():
    records = {r.name: r for r in tiny_records(seed=3, with_bn=True)}
    graph = assemble_model(tiny_config(), records)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(6, 6, 1)).astype(np.float32))
    folded_out = conv2d_fp(x, graph.weights["a_conv"]["w"], graph.weights["a_conv"]["b"],
                           graph.layer("a_conv").conv)
    w = Tensor(records["a_conv.w"].values.reshape(3, 3, 1, 2))
    b = Tensor(records["a_conv.b"].values)
    raw_out = conv2d_fp(x, w, b, graph.layer("a_conv").conv).data
    g = records["a_bn.gamma"].values
    beta = records["a_bn.beta"].values
    mu = records["a_bn.mean"].values
    var = records["a_bn.var"].values
    want = (raw_out - mu) * g / np.sqrt(var + 1e-3) + beta
    assert np.allclose(folded_out.data, want, atol=1e-5)


def test_missing_and_dangling_records():
    records = {r.name: r for r in tiny_records()}
    missing = dict(records)
    del missing["a_fc.w"]
    with pytest.raises(ShapeMismatchError):
        assemble_model(tiny_config(), missing)
    extra = dict(records)
    extra["ghost.w"] = Record("ghost.w", DTYPE_F32, (1,), np.zeros(1, dtype=np.float32))
    with pytest.raises(DanglingWeightsError):
        assemble_model(tiny_config(), extra)


def test_wrong_record_shape():
    records = {r.name: r for r in tiny_records()}
    records["a_conv.b"] = Record("a_conv.b", DTYPE_F32, (3,), np.zeros(3, dtype=np.float32))
    with pytest.raises(ShapeMismatchError):
        assemble_model(tiny_config(), records)


@pytest.mark.parametrize("mutate", [
    lambda c: c.update(schema="nope"),
    lambda c: c["layers"].append({"name": "a_in", "kind": "input", "shape": [1]}),
    lambda c: c["layers"].insert(0, {"name": "z", "kind": "relu", "inputs": ["missing"]}),
    lambda c: c["layers"].__setitem__(1, {"name": "a_conv", "kind": "conv2d",
                                          "inputs": ["a_in"], "kernel_size": 3}),
    lambda c: c["layers"].pop(),  # drop the softmax terminal
    lambda c: c["layers"][1].update(bits=7.5),  # a_conv pinned to a non-integral width
    lambda c: c["layers"].__setitem__(3, ["a_relu"]),  # a layer that is not an object
    lambda c: c["layers"][1].update(inputs=5),
    lambda c: c["layers"][0].update(source="mfcc"),
    lambda c: c.update(sensitivity_overrides=["a_conv"]),
    lambda c: c.update(sensitivity_overrides={"a_conv": "high"}),
    # overrides weight omega: a negative one fails scoring inside `allocate`, NaN
    # passes every comparison the solver makes, inf makes every budget infeasible
    lambda c: c.update(sensitivity_overrides={"a_conv": -1.0}),
    lambda c: c.update(sensitivity_overrides={"a_conv": float("nan")}),
    lambda c: c.update(sensitivity_overrides={"a_conv": float("inf")}),
    lambda c: c["layers"].insert(0, c["layers"].pop(1)),  # a_conv consumes a_in before it
])
def test_config_validation_errors(mutate):
    config = tiny_config()
    mutate(config)
    with pytest.raises(ParseError):
        assemble_model(config, {r.name: r for r in tiny_records()})


@pytest.mark.parametrize("model", ["covid", "battlefield"])
def test_config_mutations_fail_typed(model):
    records = {r.name: r for r in reference_weight_records(model)}
    rng = np.random.default_rng(0)
    failures = 0
    for _ in range(400):
        config = mutated_config(reference_config(model), rng)
        try:
            cost_report(assemble_model(config, records))
        except TinymmError:
            failures += 1  # any other exception type fails the test
    assert failures > 200


def test_non_object_config_is_parse_error():
    with pytest.raises(ParseError):
        assemble_model([tiny_config()], {r.name: r for r in tiny_records()})


def test_integral_float_bit_pin_is_an_integer_pin():
    # JSON writers may emit 8.0 for 8; the pin must still be honoured
    config = tiny_config()
    config["layers"][1]["bits"] = 8.0
    graph = assemble_model(config, {r.name: r for r in tiny_records()})
    policy = graph.layer("a_conv").bit_policy
    assert policy == 8 and type(policy) is int


def test_reference_config_is_valid_json_document():
    doc = json.dumps(reference_config("covid"))
    assert json.loads(doc)["schema"] == "tinymm-model-v1"


def test_input_shape_must_match_source_config():
    config = reference_config("covid")
    cough = next(l for l in config["layers"] if l["name"] == "cough_in")
    cough["shape"] = [200, 20, 1]  # mfcc source yields 203 frames
    records = {r.name: r for r in reference_weight_records("covid")}
    with pytest.raises(ParseError):
        assemble_model(config, records)


def test_sensitivity_overrides_flow_from_config():
    config = tiny_config()
    config["sensitivity_overrides"] = {"a_conv": 5.0}
    graph = assemble_model(config, {r.name: r for r in tiny_records()})
    assert graph.sensitivity_overrides == {"a_conv": 5.0}
    from tinymm.quantize import build_sensitivity_table, layer_sensitivity

    w = graph.weights["a_conv"]["w"]
    table = build_sensitivity_table({"a_conv": w}, (4, 8), graph.sensitivity_overrides)
    assert table.get("a_conv", 4) == pytest.approx(5.0 * layer_sensitivity(w, 4))


# -- calibration -----------------------------------------------------------------

def test_calibrate_zero_inputs():
    graph = tiny_model()
    zero = {n: Tensor(np.zeros(graph.shapes[n], dtype=np.float32)) for n in graph.input_names}
    stats = calibrate(graph, [zero])
    for name in graph.input_names:
        assert stats[name].min_val == 0.0
        assert stats[name].max_val == 0.0


def test_calibrate_envelope_and_replay():
    graph = tiny_model()
    rng = np.random.default_rng(2)
    pairs = [_rand_inputs(graph, rng) for _ in range(4)]
    sub = calibrate(graph, pairs[:2])
    full = calibrate(graph, pairs)
    for edge, stats in sub.items():
        assert full[edge].min_val <= stats.min_val
        assert full[edge].max_val >= stats.max_val
    replay = calibrate(graph, pairs)
    for edge in full:
        assert replay[edge].min_val == full[edge].min_val
        assert replay[edge].max_val == full[edge].max_val


def test_calibrate_empty_set():
    with pytest.raises(EmptyCalibrationSetError):
        calibrate(tiny_model(), [])


def test_calibrate_records_depthwise_stage():
    # one edge per input, per layer (the concat included) and per ds layer's
    # depthwise stage; the softmax edge is exactly the inference output
    rng = np.random.default_rng(3)
    for graph in (tiny_model(), build_reference("covid"), build_reference("battlefield")):
        pair = _rand_inputs(graph, rng)
        stats = calibrate(graph, [pair])
        want = {l.name for l in graph.layers}
        want |= {f"{l.name}.dw" for l in graph.layers if l.kind == "ds_conv2d"}
        assert set(stats) == want
        probs = infer(graph, pair).data
        assert stats[graph.output_name].min_val == float(probs.min())
        assert stats[graph.output_name].max_val == float(probs.max())


# -- inference ---------------------------------------------------------------------

def test_infer_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    for name in ("covid", "battlefield"):
        graph = build_reference(name)
        probs = infer(graph, _rand_inputs(graph, rng))
        assert probs.shape == (graph.num_classes,)
        assert abs(float(probs.data.sum()) - 1.0) <= 1e-6


def test_zero_weights_zero_inputs_uniform():
    graph = tiny_model(zero_weights=True, with_bn=False)
    zero = {n: Tensor(np.zeros(graph.shapes[n], dtype=np.float32)) for n in graph.input_names}
    probs = infer(graph, zero)
    assert np.allclose(probs.data, 1.0 / 3.0)


def test_infer_rejects_bad_shapes():
    graph = tiny_model()
    bad = {"a_in": Tensor(np.zeros((2, 2, 1), dtype=np.float32)),
           "b_in": Tensor(np.zeros((5, 5, 2), dtype=np.float32))}
    with pytest.raises(ShapeMismatchError):
        infer(graph, bad)


def test_sequential_and_parallel_identical_float():
    graph = build_reference("covid")
    rng = np.random.default_rng(5)
    inputs = _rand_inputs(graph, rng)
    a = infer(graph, inputs)
    b = infer(graph, inputs, parallel_branches=True)
    assert np.array_equal(a.data, b.data)


def _float64_forward(graph, inputs):
    """The float walk in float64, on float64 copies of the weights, through
    the kernels' own contraction cores."""
    def step(layer, x):
        w = {k: t.data.astype(np.float64) for k, t in graph.weights.get(layer.name, {}).items()}
        if layer.kind == "conv2d":
            return K._conv_core(x, w["w"], layer.conv) + w["b"]
        if layer.kind == "ds_conv2d":
            return K._pointwise_core(K._depthwise_core(x, w["dw"], layer.conv), w["pw"]) + w["b"]
        if layer.kind == "dense":
            return K._dense_core(x, w["w"]) + w["b"]
        if layer.kind == "maxpool":
            return K._maxpool_core(x, layer.pool.pool_size)
        if layer.kind == "relu":
            return np.maximum(x, 0.0)
        if layer.kind == "flatten":
            return x.reshape(-1)
        if layer.kind == "dropout":
            return x
        assert layer.kind == "softmax"
        e = np.exp(x - x.max())
        return e / e.sum()

    def walk(chain, x):
        for name in chain[1:]:
            x = step(graph.layer(name), x)
        return x

    a, b = (walk(c, inputs[c[0]].data.astype(np.float64)) for c in graph.branch_chains)
    return walk(graph.head_chain, np.concatenate([a, b]))


@pytest.mark.parametrize("model", ["covid", "battlefield"])
def test_float32_inference_tracks_a_float64_forward(model):
    # float kernels contract in float32; perfbench holds float outputs to 2e-5
    # of a float64 reference, and so does this test
    graph = build_reference(model)
    rng = np.random.default_rng(11)
    for _ in range(8):
        inputs = _rand_inputs(graph, rng)
        got = infer(graph, inputs)
        want = _float64_forward(graph, inputs)
        assert float(np.abs(got.data - want).max()) <= 2e-5
        assert int(np.argmax(got.data)) == int(np.argmax(want))
        assert np.array_equal(got.data, infer(graph, inputs, parallel_branches=True).data)


def test_quantized_requires_calibration_and_assignment():
    graph = tiny_model()
    rng = np.random.default_rng(6)
    inputs = _rand_inputs(graph, rng)
    with pytest.raises(MissingAssignmentError):
        infer(graph, inputs, mode="quantized")


def test_quantized_missing_edge_stats():
    graph = tiny_model()
    rng = np.random.default_rng(7)
    stats = calibrate(graph, [_rand_inputs(graph, rng)])
    del stats["b_sep.dw"]
    assn = {l.name: 8 for l in graph.weighted_layers}
    with pytest.raises(MissingCalibrationError):
        prepare_quantized_plan(graph, assn, stats)


def test_assignment_must_cover_all_layers():
    graph = tiny_model()
    rng = np.random.default_rng(8)
    stats = calibrate(graph, [_rand_inputs(graph, rng)])
    with pytest.raises(MissingAssignmentError):
        prepare_quantized_plan(graph, {"a_conv": 8}, stats)


def test_assignment_must_name_only_weighted_layers():
    # a misspelt layer name used to be ignored
    graph = tiny_model()
    rng = np.random.default_rng(8)
    stats = calibrate(graph, [_rand_inputs(graph, rng)])
    assn = {l.name: 8 for l in graph.weighted_layers}
    assn["a_fc9"] = 8
    with pytest.raises(ParseError):
        prepare_quantized_plan(graph, assn, stats)


@pytest.mark.parametrize("bits_pattern", ["all8", "all4", "mixed"])
def test_quantized_inference_runs_and_normalizes(bits_pattern):
    graph = tiny_model()
    rng = np.random.default_rng(9)
    pairs = [_rand_inputs(graph, rng) for _ in range(3)]
    stats = calibrate(graph, pairs)
    names = [l.name for l in graph.weighted_layers]
    if bits_pattern == "all8":
        assn = {n: 8 for n in names}
    elif bits_pattern == "all4":
        assn = {n: 4 for n in names}
    else:
        assn = {n: (4 if i % 2 else 8) for i, n in enumerate(names)}
    plan = prepare_quantized_plan(graph, assn, stats)
    probs = infer(graph, pairs[0], mode="quantized", plan=plan)
    assert abs(float(probs.data.sum()) - 1.0) <= 1e-6


def test_sequential_and_parallel_identical_quantized():
    graph = tiny_model()
    rng = np.random.default_rng(10)
    pairs = [_rand_inputs(graph, rng) for _ in range(2)]
    stats = calibrate(graph, pairs)
    assn = {l.name: 8 for l in graph.weighted_layers}
    plan = prepare_quantized_plan(graph, assn, stats)
    a = infer(graph, pairs[0], mode="quantized", plan=plan)
    b = infer(graph, pairs[0], mode="quantized", plan=plan, parallel_branches=True)
    assert np.array_equal(a.data, b.data)


def test_float_vs_int8_argmax_agreement():
    # empirical check with a fixed seed; the engine was validated against
    # the real-arithmetic kernel simulations in test_integer_kernels
    graph = build_reference("covid")
    rng = np.random.default_rng(1)
    pairs = [_rand_inputs(graph, rng) for _ in range(20)]
    stats = calibrate(graph, pairs)
    assn = {l.name: 8 for l in graph.weighted_layers}
    plan = prepare_quantized_plan(graph, assn, stats)
    agree = sum(
        int(np.argmax(infer(graph, p).data) == np.argmax(infer(graph, p, mode="quantized", plan=plan).data))
        for p in pairs
    )
    assert agree >= 18


def test_quantized_plan_blob_round_trip(tmp_path):
    graph = tiny_model()
    rng = np.random.default_rng(11)
    pairs = [_rand_inputs(graph, rng) for _ in range(3)]
    stats = calibrate(graph, pairs)
    names = [l.name for l in graph.weighted_layers]
    assn = {n: (4 if i % 2 else 8) for i, n in enumerate(names)}
    plan = prepare_quantized_plan(graph, assn, stats)
    path = tmp_path / "q.tmmw"
    write_blob(path, plan_to_records(graph, plan))
    rebuilt = plan_from_records(graph, read_blob(path))
    assert rebuilt.assignment == plan.assignment
    a = infer(graph, pairs[0], mode="quantized", plan=plan)
    b = infer(graph, pairs[0], mode="quantized", plan=rebuilt)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("mixed", [False, True], ids=["all8", "mix"])
def test_quantized_blob_bytes_survive_a_round_trip(tmp_path, mixed):
    # a blob read back and written again is the same blob, record for record
    graph = tiny_model()
    rng = np.random.default_rng(15)
    stats = calibrate(graph, [_rand_inputs(graph, rng) for _ in range(2)])
    assn = {l.name: (4 if mixed and i % 2 else 8) for i, l in enumerate(graph.weighted_layers)}
    first, second = tmp_path / "first.tmmw", tmp_path / "second.tmmw"
    write_blob(first, plan_to_records(graph, prepare_quantized_plan(graph, assn, stats)))
    write_blob(second, plan_to_records(graph, plan_from_records(graph, read_blob(first))))
    assert first.read_bytes() == second.read_bytes()


def _quantized_records(graph, bits):
    rng = np.random.default_rng(12)
    stats = calibrate(graph, [_rand_inputs(graph, rng)])
    plan = prepare_quantized_plan(graph, {l.name: bits for l in graph.weighted_layers}, stats)
    return {r.name: r for r in plan_to_records(graph, plan)}


def test_plan_from_records_checks_pins():
    records = _quantized_records(tiny_model(), 4)
    config = tiny_config()
    next(l for l in config["layers"] if l["name"] == "b_sep")["bits"] = 8
    pinned = assemble_model(config, {r.name: r for r in tiny_records()})
    with pytest.raises(MissingAssignmentError):
        plan_from_records(pinned, records)


def test_plan_from_records_checks_accumulator_bound():
    # 32,897 products of 8-bit operands can overflow a 32-bit accumulator
    graph = assemble_model(wide_config(), wide_records())
    records = _quantized_records(graph, 4)
    wq = records["a_fc.wq"]
    records["a_fc.wq"] = Record(wq.name, DTYPE_I8, wq.shape, wq.values)  # claims 8 bits
    with pytest.raises(AccumulatorOverflowError):
        plan_from_records(graph, records)


@pytest.mark.parametrize("record", ["b_sep.pwq", "a_fc.in_params", "b_sep.mid_params", "h_fc.out_params"])
def test_plan_from_records_rejects_a_layer_of_mixed_widths(record):
    # one 8-bit record in a 4-bit layer used to load and fail only at infer
    records = _quantized_records(tiny_model(), 4)
    rec = records[record]
    if record.endswith("q"):
        records[record] = Record(record, DTYPE_I8, rec.shape, rec.values)
    else:
        scale, zp, _ = rec.values
        records[record] = Record(record, DTYPE_F32, (3,), np.array([scale, zp, 8], dtype=np.float32))
    with pytest.raises(PrecisionMismatchError):
        plan_from_records(tiny_model(), records)


def test_plan_from_records_rejects_unclaimed_records():
    records = _quantized_records(tiny_model(), 8)
    records["ghost.w"] = Record("ghost.w", DTYPE_F32, (1,), np.zeros(1, dtype=np.float32))
    with pytest.raises(DanglingWeightsError):
        plan_from_records(tiny_model(), records)


def test_plan_from_records_rejects_an_infinite_scale():
    records = _quantized_records(tiny_model(), 8)
    records["a_conv.w_scale"] = Record("a_conv.w_scale", DTYPE_F32, (1,),
                                       np.array([np.inf], dtype=np.float32))
    with pytest.raises(InvalidShapeError):
        plan_from_records(tiny_model(), records)


def _params(rec, zero_point=None, n=3):
    scale, zp, bits = rec.values
    values = np.array([scale, zp if zero_point is None else zero_point, bits], dtype=np.float32)
    return Record(rec.name, DTYPE_F32, (n,), values[:n])


# each of these used to load (and run, or fail only at infer), or to raise a
# bare ValueError
@pytest.mark.parametrize("name,mutate,error", [
    ("a_fc.wq", lambda r: Record(r.name, DTYPE_F32, r.shape, r.values.astype(np.float32)), ParseError),
    ("a_fc.in_params", lambda r: _params(r, zero_point=-22.5), ParseError),
    ("a_fc.w_scale", lambda r: Record(r.name, DTYPE_F32, (3,), np.repeat(r.values, 3)), ShapeMismatchError),
    ("a_fc.w_scale", lambda r: Record(r.name, DTYPE_I8, (1,), np.ones(1, dtype=np.int32)), ParseError),
    ("a_fc.wq", lambda r: Record(r.name, r.dtype, r.shape[::-1], r.values.reshape(r.shape).T.reshape(-1)),
     ShapeMismatchError),
    ("a_fc.b", lambda r: Record(r.name, DTYPE_F32, (2,), r.values[:2]), ShapeMismatchError),
    ("a_fc.in_params", lambda r: _params(r, n=2), ShapeMismatchError),
    ("a_fc.in_params", lambda r: _params(r, zero_point=np.nan), ParseError),
    ("b_sep.b", lambda r: Record(r.name, DTYPE_F32, r.shape, np.full(r.shape, np.nan, dtype=np.float32)),
     ParseError),
], ids=["f32-weights", "fractional-zero-point", "scale-shape", "i8-scale", "transposed-weights",
        "bias-shape", "short-params", "nan-zero-point", "nan-bias"])
def test_plan_from_records_rejects_malformed_records(name, mutate, error):
    records = _quantized_records(tiny_model(), 8)
    records[name] = mutate(records[name])
    with pytest.raises(error):
        plan_from_records(tiny_model(), records)


def test_plan_from_records_missing_record_is_a_shape_mismatch():
    # the same type assemble_model gives a float blob missing a record
    records = _quantized_records(tiny_model(), 8)
    del records["b_sep.mid_params"]
    with pytest.raises(ShapeMismatchError):
        plan_from_records(tiny_model(), records)


_DTYPES = (DTYPE_F32, DTYPE_I8, DTYPE_I4)
_LIMITS = {DTYPE_I8: 127, DTYPE_I4: 7}


def _as_dtype(values, dtype):
    """values as a blob of that dtype could hold them."""
    if dtype == DTYPE_F32:
        return np.asarray(values, dtype=np.float32)
    lim = _LIMITS[dtype]
    return np.clip(np.round(np.nan_to_num(np.asarray(values, dtype=np.float64))), -lim - 1, lim).astype(np.int32)


def _mutate_record(rec, rng):
    """One seeded edit of a record that a blob could carry: a dtype swap, a
    reshape, one value more or fewer, or a NaN, infinite or fractional value."""
    flat = np.asarray(rec.values).reshape(-1)
    op = int(rng.integers(4))
    if op == 0:
        dtype = [d for d in _DTYPES if d != rec.dtype][int(rng.integers(2))]
        return Record(rec.name, dtype, rec.shape, _as_dtype(flat, dtype))
    if op == 1:
        shape = [(flat.size,), (1, flat.size), (flat.size, 1), rec.shape[::-1]][int(rng.integers(4))]
        return Record(rec.name, rec.dtype, shape, flat)
    if op == 2:
        values = flat[:-1] if rng.random() < 0.5 else np.concatenate([flat, flat[:1]])
        return Record(rec.name, rec.dtype, (values.size,), values)
    values = flat.astype(np.float64)
    i = int(rng.integers(values.size))
    values[i] = [np.nan, np.inf, -np.inf, values[i] + 0.5, values[i] * 1.5][int(rng.integers(5))]
    return Record(rec.name, rec.dtype, rec.shape, _as_dtype(values, rec.dtype))


def test_plan_records_mutations_fail_typed():
    graph = tiny_model()
    rng = np.random.default_rng(14)
    pair = _rand_inputs(graph, rng)
    stats = calibrate(graph, [pair, _rand_inputs(graph, rng)])
    assn = {l.name: (4 if i % 2 else 8) for i, l in enumerate(graph.weighted_layers)}
    base = {r.name: r for r in plan_to_records(graph, prepare_quantized_plan(graph, assn, stats))}
    names = sorted(base)
    loaded = 0
    for _ in range(400):
        records = dict(base)
        name = names[int(rng.integers(len(names)))]
        op = rng.random()
        if op < 0.1:
            del records[name]
        elif op < 0.2:
            other = names[int(rng.integers(len(names)))]
            records[f"{other}x" if rng.random() < 0.5 else other] = records.pop(name)
        else:
            records[name] = _mutate_record(records[name], rng)
        try:
            plan = plan_from_records(graph, records)
        except TinymmError:
            continue
        probs = infer(graph, pair, mode="quantized", plan=plan).data
        assert np.isfinite(probs).all() and probs.sum() == pytest.approx(1.0, abs=1e-5)
        loaded += 1
    assert 0 < loaded < 200  # value edits of biases and scales load; layout edits do not


def test_library_allocation_honours_pins():
    # build_problem(cost_report, sensitivity_table) is the demos' path; a pin
    # must hold there as it does in `tinymm allocate`
    config = tiny_config()
    layers = {l["name"]: l for l in config["layers"]}
    layers["b_sep"]["bits"] = 4
    layers["h_fc"]["bits"] = 8
    graph = assemble_model(config, {r.name: r for r in tiny_records()})
    table = sensitivity_table(graph)
    assert set(table.omega["b_sep"]) == {4} and set(table.omega["h_fc"]) == {8}
    assert set(table.omega["a_conv"]) == {4, 8}
    report = cost_report(graph)
    params = {c.name: c.params for c in report.layers}
    unbounded = solve_exact(build_problem(report, table))
    assert unbounded.bits["b_sep"] == 4
    assert all(b == 8 for n, b in unbounded.bits.items() if n != "b_sep")
    tightest = sum(p * 4 for p in params.values()) + params["h_fc"] * 4
    squeezed = solve_exact(build_problem(report, table, tightest))
    assert squeezed.bits["h_fc"] == 8
    assert all(b == 4 for n, b in squeezed.bits.items() if n != "h_fc")
    with pytest.raises(InfeasibleError):
        solve_exact(build_problem(report, table, tightest - 1))


def test_sensitivity_table_scores_what_the_plan_quantizes():
    config = tiny_config()
    config["sensitivity_overrides"] = {"b_sep": 3.0}
    graph = assemble_model(config, {r.name: r for r in tiny_records()})
    table = sensitivity_table(graph)
    w = graph.weights
    for bits in (4, 8):
        sep = layer_sensitivity(w["b_sep"]["dw"], bits) + layer_sensitivity(w["b_sep"]["pw"], bits)
        assert table.get("b_sep", bits) == pytest.approx(3.0 * sep, rel=1e-12)
        assert table.get("a_conv", bits) == layer_sensitivity(w["a_conv"]["w"], bits)


def test_reference_weights_deterministic_per_seed():
    a = reference_weight_records("covid", seed=5)
    b = reference_weight_records("covid", seed=5)
    c = reference_weight_records("covid", seed=6)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    assert any(not np.array_equal(x.values, y.values) for x, y in zip(a, c))
