"""Whole-model checks against independently composed layer oracles.

The executor is re-implemented here by hand for the tiny fixture model,
stage by stage, from the oracle kernels: if the engine ever wires a
requantization to the wrong edge, reorders stages, or mixes up parameters
at the concat, these tests break even though every kernel is individually
correct.
"""
import numpy as np

from tinymm.graph import calibrate, infer, prepare_quantized_plan
from tinymm.tensor import Tensor

import oracles
from model_fixtures import tiny_model


def _quant_scalar_array(values, params):
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    out = np.empty(flat.size, dtype=np.int32)
    for i, v in enumerate(flat):
        q = oracles._round_half_even(v / params.scale) + params.zero_point
        out[i] = min(max(q, params.qmin), params.qmax)
    return out.reshape(np.asarray(values).shape)


def _requant_scalar_array(q, old, new):
    flat = np.asarray(q, dtype=np.int64).reshape(-1)
    out = np.empty(flat.size, dtype=np.int32)
    ratio = old.scale / new.scale
    for i, v in enumerate(flat):
        r = oracles._round_half_even((int(v) - old.zero_point) * ratio) + new.zero_point
        out[i] = min(max(r, new.qmin), new.qmax)
    return out.reshape(np.asarray(q).shape)


def _maxpool_int(q, p):
    h, w, c = q.shape
    out = np.empty((h // p, w // p, c), dtype=np.int32)
    for oy in range(h // p):
        for ox in range(w // p):
            for ch in range(c):
                out[oy, ox, ch] = q[oy * p : oy * p + p, ox * p : ox * p + p, ch].max()
    return out


def _stable_softmax(logits_f32):
    z = logits_f32.astype(np.float64)
    z = z - z.max()
    e = np.exp(z)
    return (e / e.sum()).astype(np.float32)


def _inputs(graph, rng):
    return {n: Tensor(rng.normal(size=graph.shapes[n]).astype(np.float32))
            for n in graph.input_names}


def test_float_pipeline_matches_composed_loop_oracles():
    graph = tiny_model(with_bn=False)
    rng = np.random.default_rng(0)
    x = _inputs(graph, rng)
    got = infer(graph, x)

    w = graph.weights
    # a branch: conv (valid) -> relu -> pool 2 -> flatten -> dense
    a, _ = oracles.conv2d_loops(x["a_in"].data, w["a_conv"]["w"].data, w["a_conv"]["b"].data)
    a = np.maximum(a, 0.0)
    a = oracles.maxpool_loops(a, 2)
    a, _ = oracles.matvec_loops(a.reshape(-1), w["a_fc"]["w"].data, w["a_fc"]["b"].data)
    # b branch: separable conv (same) -> relu -> flatten -> dense
    b, _ = oracles.ds_conv_loops(x["b_in"].data, w["b_sep"]["dw"].data,
                                 w["b_sep"]["pw"].data, w["b_sep"]["b"].data, padding="same")
    b = np.maximum(b, 0.0)
    b, _ = oracles.matvec_loops(b.reshape(-1), w["b_fc"]["w"].data, w["b_fc"]["b"].data)
    # head: concat -> dense -> dropout (identity) -> softmax
    joined = np.concatenate([a, b])
    logits, _ = oracles.matvec_loops(joined, w["h_fc"]["w"].data, w["h_fc"]["b"].data)
    want = _stable_softmax(logits)

    assert np.allclose(got.data, want, atol=1e-6)
    assert int(np.argmax(got.data)) == int(np.argmax(want))


def test_quantized_pipeline_matches_composed_int_sims():
    graph = tiny_model(with_bn=False)
    rng = np.random.default_rng(1)
    pairs = [_inputs(graph, rng) for _ in range(3)]
    stats = calibrate(graph, pairs)
    # mixed precision with width changes inside both branches and at the concat
    assignment = {"a_conv": 8, "a_fc": 4, "b_sep": 4, "b_fc": 8, "h_fc": 8}
    plan = prepare_quantized_plan(graph, assignment, stats)
    x = pairs[0]
    got = infer(graph, x, mode="quantized", plan=plan)

    # a branch
    p_in = plan.input_params["a_in"]
    qa = _quant_scalar_array(x["a_in"].data, p_in)
    if p_in != plan.layers["a_conv"].in_params:
        qa = _requant_scalar_array(qa, p_in, plan.layers["a_conv"].in_params)
        p_in = plan.layers["a_conv"].in_params
    qw = plan.layers["a_conv"].weights["w"]
    qa = oracles.conv2d_int_sim(qa, p_in, qw.qdata, qw.params.scale,
                                plan.layers["a_conv"].bias, plan.layers["a_conv"].out_params)
    cur = plan.layers["a_conv"].out_params
    qa = np.maximum(qa, cur.zero_point)          # relu on the payload
    qa = _maxpool_int(qa, 2)
    qa = qa.reshape(-1)                          # flatten, row major
    if cur != plan.layers["a_fc"].in_params:
        qa = _requant_scalar_array(qa, cur, plan.layers["a_fc"].in_params)
        cur = plan.layers["a_fc"].in_params
    qw = plan.layers["a_fc"].weights["w"]
    qa = oracles.dense_int_sim(qa, cur, qw.qdata, qw.params.scale,
                               plan.layers["a_fc"].bias, plan.layers["a_fc"].out_params)
    pa = plan.layers["a_fc"].out_params

    # b branch
    p_in = plan.input_params["b_in"]
    qb = _quant_scalar_array(x["b_in"].data, p_in)
    if p_in != plan.layers["b_sep"].in_params:
        qb = _requant_scalar_array(qb, p_in, plan.layers["b_sep"].in_params)
        p_in = plan.layers["b_sep"].in_params
    dw = plan.layers["b_sep"].weights["dw"]
    pw = plan.layers["b_sep"].weights["pw"]
    mid = oracles.depthwise_int_sim(qb, p_in, dw.qdata, dw.params.scale,
                                    plan.layers["b_sep"].mid_params, padding="same")
    qb = oracles.pointwise_int_sim(mid, plan.layers["b_sep"].mid_params, pw.qdata,
                                   pw.params.scale, plan.layers["b_sep"].bias,
                                   plan.layers["b_sep"].out_params)
    cur = plan.layers["b_sep"].out_params
    qb = np.maximum(qb, cur.zero_point)
    qb = qb.reshape(-1)
    if cur != plan.layers["b_fc"].in_params:
        qb = _requant_scalar_array(qb, cur, plan.layers["b_fc"].in_params)
        cur = plan.layers["b_fc"].in_params
    qw = plan.layers["b_fc"].weights["w"]
    qb = oracles.dense_int_sim(qb, cur, qw.qdata, qw.params.scale,
                               plan.layers["b_fc"].bias, plan.layers["b_fc"].out_params)
    pb = plan.layers["b_fc"].out_params

    # head: both sides meet at the concat parameters
    qa = _requant_scalar_array(qa, pa, plan.concat_params)
    qb = _requant_scalar_array(qb, pb, plan.concat_params)
    joined = np.concatenate([qa, qb])
    qw = plan.layers["h_fc"].weights["w"]
    logits_q = oracles.dense_int_sim(joined, plan.concat_params, qw.qdata,
                                     qw.params.scale, plan.layers["h_fc"].bias,
                                     plan.layers["h_fc"].out_params)
    out_p = plan.layers["h_fc"].out_params
    logits = ((logits_q.astype(np.float64) - out_p.zero_point) * out_p.scale).astype(np.float32)
    want = _stable_softmax(logits)

    assert np.array_equal(got.data, want)


def test_quantized_pipeline_oracle_all_uniform_widths():
    graph = tiny_model(with_bn=False)
    rng = np.random.default_rng(2)
    pairs = [_inputs(graph, rng) for _ in range(2)]
    stats = calibrate(graph, pairs)
    for bits in (4, 8):
        assignment = {l.name: bits for l in graph.weighted_layers}
        plan = prepare_quantized_plan(graph, assignment, stats)
        a = infer(graph, pairs[0], mode="quantized", plan=plan)
        b = infer(graph, pairs[0], mode="quantized", plan=plan)
        assert np.array_equal(a.data, b.data)
        assert abs(float(a.data.sum()) - 1.0) <= 1e-6
