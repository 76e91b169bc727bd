import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tinymm import integer_kernels as ik
from tinymm.errors import (
    AccumulatorOverflowError,
    KernelTooLargeError,
    PrecisionMismatchError,
    RankMismatchError,
    ShapeMismatchError,
)
from tinymm.integer_kernels import (
    ACC_LIMIT,
    BIAS_LIMIT,
    REQUANT_TILE,
    check_accumulator,
    conv2d_int,
    dense_int,
    depthwise_conv2d_int,
    depthwise_separable_conv2d_int,
    maxpool2d_int,
    pointwise_conv2d_int,
    quantize_bias,
    relu_int,
    requantize_tensor,
    _contraction_dtype,
    _requantize,
)
from tinymm.kernels import ConvSpec, PoolSpec, _maxpool_core, conv2d_fp
from tinymm.quantize import CalibrationStats, affine_params, quantize_tensor
from tinymm.tensor import QuantParams, QuantTensor, Tensor

import oracles


def _spec(m, n, k=3, stride=1, padding="valid"):
    return ConvSpec(in_channels=m, out_channels=n, kernel_size=k,
                    stride=stride, padding=padding)


def _affine_from(values, bits):
    s = CalibrationStats()
    s.update(np.asarray(values, dtype=np.float64))
    return affine_params(s, bits)


def _rand_quant(rng, shape, bits):
    """Quantized activation with params fitted to the generated values."""
    vals = rng.normal(scale=rng.uniform(0.5, 3.0), size=shape).astype(np.float32)
    params = _affine_from(vals, bits)
    from tinymm.quantize import quantize_array

    return QuantTensor(quantize_array(vals, params), params)


def test_zero_weights_zero_bias_gives_zero_point():
    rng = np.random.default_rng(0)
    q_in = _rand_quant(rng, (5, 5, 2), 8)
    wp = QuantParams(scale=0.1, zero_point=0, bits=8)
    q_w = QuantTensor(np.zeros((3, 3, 2, 4), dtype=np.int32), wp)
    out_params = QuantParams(scale=0.05, zero_point=3, bits=8)
    out = conv2d_int(q_in, q_w, np.zeros(4, dtype=np.int64), out_params, _spec(2, 4))
    assert np.all(out.qdata == 3)


def test_4bit_single_mac_hand_computed():
    # one 1x1 input, one 1x1 weight: acc = (-4 + 8) * 7 = 28,
    # multiplier = 0.5 * 0.1 / 0.25 = 0.2, round(5.6) = 6, 6 - 8 = -2
    in_params = QuantParams(scale=0.5, zero_point=-8, bits=4)
    q_in = QuantTensor(np.array([-4], dtype=np.int32).reshape(1, 1, 1), in_params)
    w_params = QuantParams(scale=0.1, zero_point=0, bits=4)
    q_w = QuantTensor(np.array([7], dtype=np.int32).reshape(1, 1, 1, 1), w_params)
    out_params = QuantParams(scale=0.25, zero_point=-8, bits=4)
    out = conv2d_int(q_in, q_w, np.zeros(1, dtype=np.int64), out_params, _spec(1, 1, k=1))
    assert out.qdata.reshape(()) == -2


def test_precision_mismatch_rejected():
    rng = np.random.default_rng(1)
    q_in = _rand_quant(rng, (4, 4, 1), 8)
    q_w = quantize_tensor(Tensor(rng.normal(size=(3, 3, 1, 2)).astype(np.float32)), 4)
    out_params = QuantParams(scale=0.1, zero_point=0, bits=8)
    with pytest.raises(PrecisionMismatchError):
        conv2d_int(q_in, q_w, np.zeros(2, dtype=np.int64), out_params, _spec(1, 2))


def test_int_kernels_share_float_geometry_errors():
    p = QuantParams(scale=0.1, zero_point=0, bits=8)

    def q(shape):
        return QuantTensor(np.zeros(shape, dtype=np.int32), p)

    b = np.zeros(1, dtype=np.int64)
    with pytest.raises(RankMismatchError):  # was an IndexError
        conv2d_int(q((9,)), q((3, 3, 1, 1)), b, p, _spec(1, 1))
    with pytest.raises(RankMismatchError):
        depthwise_conv2d_int(q((9,)), q((3, 3, 1)), p, _spec(1, 1))
    with pytest.raises(RankMismatchError):
        pointwise_conv2d_int(q((9,)), q((1, 1, 1, 1)), b, p)
    with pytest.raises(RankMismatchError):
        maxpool2d_int(q((9,)), PoolSpec(2))
    with pytest.raises(KernelTooLargeError):  # as conv2d_fp raises
        conv2d_int(q((2, 5, 1)), q((3, 3, 1, 1)), b, p, _spec(1, 1))


def test_accumulator_guard():
    check_accumulator(4096, 8)
    with pytest.raises(AccumulatorOverflowError):
        check_accumulator(40_000, 8)


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("padding", ["valid", "same"])
def test_conv2d_int_matches_real_arithmetic_sim(bits, padding):
    rng = np.random.default_rng(2)
    for _ in range(6):
        m, n = (int(v) for v in rng.integers(1, 4, size=2))
        d_k = int(rng.choice([1, 3]))
        h, w = (int(v) for v in rng.integers(d_k, 7, size=2))
        q_in = _rand_quant(rng, (h, w, m), bits)
        wt = Tensor(rng.normal(size=(d_k, d_k, m, n)).astype(np.float32))
        q_w = quantize_tensor(wt, bits)
        bias = quantize_bias(
            Tensor(rng.normal(scale=0.1, size=n).astype(np.float32)),
            q_in.params.scale, q_w.params.scale,
        )
        out_params = _affine_from(rng.normal(scale=2, size=16), bits)
        spec = _spec(m, n, k=d_k, padding=padding)
        got = conv2d_int(q_in, q_w, bias, out_params, spec)
        want = oracles.conv2d_int_sim(
            q_in.qdata, q_in.params, q_w.qdata, q_w.params.scale, bias, out_params,
            padding=padding,
        )
        assert np.array_equal(got.qdata, want)


@pytest.mark.parametrize("bits", [4, 8])
def test_ds_conv_int_matches_two_stage_sim(bits):
    rng = np.random.default_rng(3)
    for _ in range(5):
        m, n = (int(v) for v in rng.integers(1, 4, size=2))
        h, w = (int(v) for v in rng.integers(3, 7, size=2))
        q_in = _rand_quant(rng, (h, w, m), bits)
        dw = quantize_tensor(Tensor(rng.normal(size=(3, 3, m)).astype(np.float32)), bits)
        pw = quantize_tensor(Tensor(rng.normal(size=(1, 1, m, n)).astype(np.float32)), bits)
        mid_params = _affine_from(rng.normal(scale=3, size=16), bits)
        out_params = _affine_from(rng.normal(scale=2, size=16), bits)
        bias = quantize_bias(
            Tensor(rng.normal(scale=0.1, size=n).astype(np.float32)),
            mid_params.scale, pw.params.scale,
        )
        spec = _spec(m, n)
        got = depthwise_separable_conv2d_int(q_in, dw, pw, bias, mid_params, out_params, spec)
        mid = oracles.depthwise_int_sim(q_in.qdata, q_in.params, dw.qdata, dw.params.scale, mid_params)
        want = oracles.pointwise_int_sim(mid, mid_params, pw.qdata, pw.params.scale, bias, out_params)
        assert np.array_equal(got.qdata, want)


@pytest.mark.parametrize("bits", [4, 8])
def test_dense_int_matches_sim(bits):
    rng = np.random.default_rng(4)
    for _ in range(8):
        k, l = (int(v) for v in rng.integers(1, 20, size=2))
        q_in = _rand_quant(rng, (k,), bits)
        q_w = quantize_tensor(Tensor(rng.normal(size=(k, l)).astype(np.float32)), bits)
        bias = quantize_bias(
            Tensor(rng.normal(scale=0.1, size=l).astype(np.float32)),
            q_in.params.scale, q_w.params.scale,
        )
        assert bias.dtype == np.int32
        out_params = _affine_from(rng.normal(scale=2, size=16), bits)
        got = dense_int(q_in, q_w, bias, out_params)
        want = oracles.dense_int_sim(q_in.qdata, q_in.params, q_w.qdata, q_w.params.scale, bias, out_params)
        assert np.array_equal(got.qdata, want)


def test_relu_int_clamps_at_zero_point():
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = _rand_quant(rng, (4, 3, 2), 8)
        out = relu_int(q)
        assert np.all(out.qdata >= q.params.zero_point)
        # values above the zero point are untouched
        mask = q.qdata >= q.params.zero_point
        assert np.array_equal(out.qdata[mask], q.qdata[mask])


def test_maxpool_int_commutes_with_dequantize():
    rng = np.random.default_rng(6)
    q = _rand_quant(rng, (6, 6, 3), 8)
    pooled = maxpool2d_int(q, PoolSpec(2))
    from tinymm.quantize import dequantize
    from tinymm.kernels import maxpool2d

    a = dequantize(pooled).data
    b = maxpool2d(dequantize(q), PoolSpec(2)).data
    assert np.allclose(a, b, atol=1e-6)


def test_requantize_round_trip_consistency():
    rng = np.random.default_rng(7)
    q = _rand_quant(rng, (20,), 8)
    from tinymm.quantize import dequantize

    vals = dequantize(q).data
    to4 = requantize_tensor(q, _affine_from(vals, 4))  # target covers the data
    assert to4.params.bits == 4
    err = np.abs(dequantize(to4).data - vals)
    assert err.max() <= to4.params.scale / 2 + 1e-9


def _requantize_formula(acc, multiplier, p):
    """Requantization as one expression of fresh temporaries."""
    return np.clip(np.round(acc * multiplier) + p.zero_point, p.qmin, p.qmax).astype(np.int32)


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("zero_point", [-3, 0, 2])
def test_requantize_in_place_matches_formula(bits, zero_point):
    p = QuantParams(scale=0.1, zero_point=zero_point, bits=bits)
    rng = np.random.default_rng(bits * 10 + zero_point)
    acc = np.concatenate([
        rng.integers(-50_000, 50_000, size=500).astype(np.float64),
        np.arange(-41, 42, dtype=np.float64),  # with multiplier 0.5: every x.5 tie
        [-(2.0 ** 31 - 1), 2.0 ** 31 - 1, 0.0],  # far outside either range: saturates
    ])
    # two full tiles and a partial third, in float32 as a contraction leaves it
    multi = rng.integers(-1_000, 1_000, size=2 * REQUANT_TILE + 777).astype(np.float32)
    for buf in (acc, multi):
        before = buf.copy()
        for multiplier in (0.5, 0.25, 1.5, 3.7e-3, 1.0 / 3.0):
            want = _requantize_formula(buf.astype(np.float64), multiplier, p)
            got = _requantize(buf, None, multiplier, p, p.qmin)
            assert got.dtype == np.int32
            assert np.array_equal(got, want)
            assert np.array_equal(buf, before)  # the accumulator is read, not overwritten
        assert want.min() == p.qmin and want.max() == p.qmax


def test_requantize_ties_round_half_to_even():
    p = QuantParams(scale=1.0, zero_point=1, bits=8)
    acc = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])  # x 0.5: -2.5 ... 2.5
    assert _requantize(acc, None, 0.5, p, p.qmin).tolist() == [-1, -1, 1, 1, 3, 3]


@pytest.mark.parametrize("bits", [4, 8])
def test_requantize_tensor_ties_and_saturation(bits):
    src = QuantParams(scale=1.0, zero_point=-1, bits=bits)
    dst = QuantParams(scale=2.0, zero_point=1, bits=bits)
    payload = np.arange(src.qmin, src.qmax + 1, dtype=np.int32)
    out = requantize_tensor(QuantTensor(payload, src), dst).qdata
    # (q + 1) / 2 lands on x.5 for every even q: half-to-even, then + 1
    assert np.array_equal(out, _requantize_formula(payload + 1.0, 0.5, dst))
    assert out[payload == 0].item() == 1 and out[payload == 2].item() == 3  # 0.5 -> 0, 1.5 -> 2
    narrow = QuantParams(scale=0.05, zero_point=3, bits=bits)
    clipped = requantize_tensor(QuantTensor(payload, src), narrow).qdata
    assert clipped.min() == narrow.qmin and clipped.max() == narrow.qmax
    assert np.array_equal(clipped, _requantize_formula(payload + 1.0, 20.0, narrow))


def _unfused(out, relu, pool):
    """The epilogue as separate layers: relu_int, then maxpool2d_int."""
    if relu:
        out = relu_int(out)
    return out if pool is None else maxpool2d_int(out, pool)


def _fused_kernels(rng, bits, shape, n, padding):
    """Each fusing kernel on random operands, as run(out_params, **epilogue),
    with the float output whose range fits its output params."""
    m = shape[2]
    q_in = _rand_quant(rng, shape, bits)
    w = quantize_tensor(Tensor(rng.normal(size=(3, 3, m, n)).astype(np.float32)), bits)
    dw = quantize_tensor(Tensor(rng.normal(size=(3, 3, m)).astype(np.float32)), bits)
    pw = quantize_tensor(Tensor(rng.normal(size=(1, 1, m, n)).astype(np.float32)), bits)
    flat = int(np.prod(shape))
    dense_w = quantize_tensor(Tensor(rng.normal(size=(flat, n)).astype(np.float32)), bits)
    bias = rng.integers(-2000, 2000, size=n).astype(np.int64)
    mid_p = _affine_from(rng.normal(scale=4, size=16), bits)
    spec = _spec(m, n, padding=padding)
    from tinymm.quantize import dequantize

    fp = conv2d_fp(dequantize(q_in), Tensor(w.qdata * w.params.scale),
                   Tensor(bias * q_in.params.scale * w.params.scale), spec).data
    return fp, {
        "conv": lambda p, **kw: conv2d_int(q_in, w, bias, p, spec, **kw),
        "pointwise": lambda p, **kw: pointwise_conv2d_int(q_in, pw, bias, p, **kw),
        "ds": lambda p, **kw: depthwise_separable_conv2d_int(q_in, dw, pw, bias, mid_p, p, spec, **kw),
        "dense": lambda p, **kw: dense_int(q_in.reshape((flat,)), dense_w, bias, p, **kw),
    }


@pytest.mark.parametrize("tile", [REQUANT_TILE, 40], ids=["tile", "tile40"])
@pytest.mark.parametrize("bits", [4, 8])
def test_fused_epilogue_matches_unfused_composition(bits, tile, monkeypatch):
    """k(..., relu=True, pool=P) equals maxpool2d_int(relu_int(k(...)), P) bit
    for bit: zero points at qmin, in the middle and at qmax, fitted and
    saturating output scales, pools that leave odd remainders. 40-element
    tiles split every output into many tiles, and a 50-wide dense row into
    tiles of one row that is longer than a tile."""
    monkeypatch.setattr(ik, "REQUANT_TILE", tile)
    rng = np.random.default_rng(40 + bits)
    qmin, qmax = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    seen_spread = False
    for shape, n, padding in [((11, 9, 3), 4, "valid"), ((11, 9, 2), 50, "same")]:
        fp, kernels = _fused_kernels(rng, bits, shape, n, padding)
        fitted = _affine_from(fp, bits).scale
        for zp in (qmin, 0, qmax):
            for scale in (fitted, fitted * 1e-3):
                p = QuantParams(scale=scale, zero_point=zp, bits=bits)
                for name, run in kernels.items():
                    plain = run(p)
                    seen_spread |= len(np.unique(plain.qdata)) > 4
                    pools = [None] if name == "dense" else [None, PoolSpec(2), PoolSpec(3)]
                    for relu in (False, True):
                        for pool in pools:
                            kw = {"relu": relu} if name == "dense" else {"relu": relu, "pool": pool}
                            got = run(p, **kw)
                            want = _unfused(plain, relu, pool)
                            assert got.params == p and got.qdata.dtype == np.int32
                            assert np.array_equal(got.qdata, want.qdata), (name, zp, scale, relu, pool)
    assert seen_spread

    # an output of two full tiles and a partial third, pooled and not, held
    # to an int64 accumulation and the requantization formula
    shape, n = (197, 203, 5), 7
    q_in = _rand_quant(rng, shape, bits)
    pw = quantize_tensor(Tensor(rng.normal(size=(1, 1, 5, n)).astype(np.float32)), bits)
    bias = rng.integers(-2000, 2000, size=n).astype(np.int64)
    acc = np.einsum("hwm,mn->hwn", q_in.qdata.astype(np.int64) - q_in.params.zero_point,
                    pw.qdata.reshape(5, n).astype(np.int64)) + bias
    assert acc.size > 8 * REQUANT_TILE and acc.size // 4 > 2 * REQUANT_TILE
    p = _affine_from(rng.normal(scale=3, size=16), bits)
    multiplier = q_in.params.scale * pw.params.scale / p.scale
    formula = _requantize_formula(acc.astype(np.float64), multiplier, p)
    for relu in (False, True):
        for pool in (None, PoolSpec(2), PoolSpec(3)):
            want = np.maximum(formula, p.zero_point) if relu else formula
            want = want if pool is None else _maxpool_core(want, pool.pool_size)
            got = pointwise_conv2d_int(q_in, pw, bias, p, relu=relu, pool=pool)
            assert np.array_equal(got.qdata, want), (relu, pool)
            assert np.array_equal(got.qdata, _unfused(pointwise_conv2d_int(q_in, pw, bias, p), relu, pool).qdata)

    # requantize_tensor on a rank-1 payload longer than a tile, and on an empty one
    src = QuantParams(scale=0.3, zero_point=qmin + 1, bits=bits)
    payload = rng.integers(qmin, qmax + 1, size=REQUANT_TILE + 5).astype(np.int32)
    dst = QuantParams(scale=0.7, zero_point=qmax - 1, bits=bits)
    got = requantize_tensor(QuantTensor(payload, src), dst)
    assert np.array_equal(got.qdata, _requantize_formula(payload - float(src.zero_point), 0.3 / 0.7, dst))
    empty = requantize_tensor(QuantTensor(np.zeros(0, dtype=np.int32), src), dst)
    assert empty.shape == (0,) and empty.qdata.dtype == np.int32 and empty.params == dst


def test_int_kernels_leave_operands_untouched():
    rng = np.random.default_rng(12)
    q_in = _rand_quant(rng, (6, 6, 3), 8)
    w = quantize_tensor(Tensor(rng.normal(size=(3, 3, 3, 4)).astype(np.float32)), 8)
    dw = quantize_tensor(Tensor(rng.normal(size=(3, 3, 3)).astype(np.float32)), 8)
    pw = quantize_tensor(Tensor(rng.normal(size=(1, 1, 3, 4)).astype(np.float32)), 8)
    dense_w = quantize_tensor(Tensor(rng.normal(size=(108, 4)).astype(np.float32)), 8)
    bias = rng.integers(-1000, 1000, size=4).astype(np.int64)
    bias.flags.writeable = False
    out_p = QuantParams(scale=0.2, zero_point=-5, bits=8)
    operands = [q_in, w, dw, pw, dense_w]
    before = [t.qdata.copy() for t in operands]
    assert not any(t.qdata.flags.writeable for t in operands)  # a write would raise
    conv2d_int(q_in, w, bias, out_p, _spec(3, 4))
    depthwise_separable_conv2d_int(q_in, dw, pw, bias, out_p, out_p, _spec(3, 4, padding="same"))
    pointwise_conv2d_int(q_in, pw, bias, out_p)
    dense_int(q_in.reshape((108,)), dense_w, bias, out_p)
    requantize_tensor(q_in, out_p)
    relu_int(q_in)
    maxpool2d_int(q_in, PoolSpec(2))
    for t, b in zip(operands, before):
        assert np.array_equal(t.qdata, b)


@pytest.mark.parametrize("bits", [4, 8])
def test_kernel_outputs_pass_the_validating_constructor(bits):
    """Kernel outputs skip the payload range scan; it would accept them all,
    including outputs saturated at both ends of the range."""
    p = QuantParams(scale=1.0, zero_point=0, bits=bits)
    seen_min = seen_max = False
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        q_in = _rand_quant(rng, (7, 6, 3), bits)
        w = quantize_tensor(Tensor(rng.normal(size=(3, 3, 3, 4)).astype(np.float32)), bits)
        dw = quantize_tensor(Tensor(rng.normal(size=(3, 3, 3)).astype(np.float32)), bits)
        pw = quantize_tensor(Tensor(rng.normal(size=(1, 1, 3, 4)).astype(np.float32)), bits)
        dense_w = quantize_tensor(Tensor(rng.normal(size=(126, 4)).astype(np.float32)), bits)
        bias = rng.integers(-1000, 1000, size=4).astype(np.int64)
        # seeds 0-2 fit the output range; 3-5 shrink its scale to saturate
        out_p = QuantParams(scale=float(rng.uniform(0.05, 0.5)) * (1e-3 if seed >= 3 else 1.0),
                            zero_point=int(rng.integers(p.qmin, p.qmax + 1)), bits=bits)
        outs = [
            conv2d_int(q_in, w, bias, out_p, _spec(3, 4, padding="same")),
            depthwise_conv2d_int(q_in, dw, out_p, _spec(3, 3)),
            pointwise_conv2d_int(q_in, pw, bias, out_p),
            depthwise_separable_conv2d_int(q_in, dw, pw, bias, out_p, out_p, _spec(3, 4)),
            dense_int(q_in.reshape((126,)), dense_w, bias, out_p),
            requantize_tensor(q_in, out_p),
            relu_int(q_in),
            maxpool2d_int(q_in, PoolSpec(2)),
        ]
        for out in outs:
            assert out.qdata.dtype == np.int32 and out.qdata.flags.c_contiguous
            assert not out.qdata.flags.writeable
            again = QuantTensor(out.qdata, out.params)
            assert np.array_equal(again.qdata, out.qdata)
            seen_min |= out.qdata.min() == out.params.qmin
            seen_max |= out.qdata.max() == out.params.qmax
            bad = out.qdata.copy()
            bad.reshape(-1)[0] = out.params.qmax + 1
            with pytest.raises(ShapeMismatchError):
                QuantTensor(bad, out.params)
            bad.reshape(-1)[0] = out.params.qmin - 1
            with pytest.raises(ShapeMismatchError):
                QuantTensor(bad, out.params)
    assert seen_min and seen_max


def test_integer_kernels_deterministic_across_threads():
    rng = np.random.default_rng(8)
    q_in = _rand_quant(rng, (6, 6, 3), 8)
    q_w = quantize_tensor(Tensor(rng.normal(size=(3, 3, 3, 4)).astype(np.float32)), 8)
    bias = np.zeros(4, dtype=np.int64)
    out_params = _affine_from(rng.normal(size=8), 8)
    spec = _spec(3, 4)

    def run(_):
        return conv2d_int(q_in, q_w, bias, out_params, spec).qdata

    serial = run(0)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, range(8)))
    for r in results:
        assert np.array_equal(r, serial)


def test_requantize_tiles_are_private_to_each_call():
    """Concurrent requantizations of different multi-tile accumulators, with
    more threads than cores and a short switch interval: a tile buffer
    shared between calls would mix their results."""
    rng = np.random.default_rng(13)
    p = QuantParams(scale=0.1, zero_point=-3, bits=8)
    accs = [rng.integers(-5_000, 5_000, size=3 * REQUANT_TILE).astype(np.float32) for _ in range(8)]
    wants = [_requantize_formula(a.astype(np.float64), 0.01, p) for a in accs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(10):
                futures = [pool.submit(_requantize, a, None, 0.01, p, p.qmin) for a in accs]
                for f, want in zip(futures, wants):
                    assert np.array_equal(f.result(timeout=60), want)
    finally:
        sys.setswitchinterval(interval)


def test_pointwise_int_matches_sim():
    rng = np.random.default_rng(9)
    q_in = _rand_quant(rng, (4, 4, 3), 8)
    pw = quantize_tensor(Tensor(rng.normal(size=(1, 1, 3, 5)).astype(np.float32)), 8)
    bias = quantize_bias(
        Tensor(rng.normal(scale=0.1, size=5).astype(np.float32)),
        q_in.params.scale, pw.params.scale,
    )
    out_params = _affine_from(rng.normal(size=8), 8)
    got = pointwise_conv2d_int(q_in, pw, bias, out_params)
    want = oracles.pointwise_int_sim(q_in.qdata, q_in.params, pw.qdata, pw.params.scale, bias, out_params)
    assert np.array_equal(got.qdata, want)


def test_depthwise_int_matches_sim():
    rng = np.random.default_rng(10)
    q_in = _rand_quant(rng, (5, 5, 2), 4)
    dw = quantize_tensor(Tensor(rng.normal(size=(3, 3, 2)).astype(np.float32)), 4)
    mid_params = _affine_from(rng.normal(size=8), 4)
    got = depthwise_conv2d_int(q_in, dw, mid_params, _spec(2, 2))
    want = oracles.depthwise_int_sim(q_in.qdata, q_in.params, dw.qdata, dw.params.scale, mid_params)
    assert np.array_equal(got.qdata, want)


def _max_terms(bits):
    """Largest term count check_accumulator admits at this width."""
    per_term = ((1 << bits) - 1) * (1 << (bits - 1))
    terms = (ACC_LIMIT - BIAS_LIMIT) // per_term
    check_accumulator(terms, bits)
    with pytest.raises(AccumulatorOverflowError):
        check_accumulator(terms + 1, bits)
    return terms


# most terms whose worst-case sum of |products| stays below 2^24
F32_TERMS = {8: 514, 4: 139_810}


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("bits", [4, 8])
def test_int_kernels_exact_at_accumulator_boundary(bits, odd):
    """Worst-case products (input qmin, zero point qmax, weight qmin) against
    an int64 accumulation, at three term counts: the most a float32
    contraction holds exactly, one more (which must contract in float64) and
    the most check_accumulator admits.

    With odd=True one weight is qmin + 1, which makes the accumulator odd:
    above 2^24 that is not representable in float32, so only an exact
    contraction gets it right.
    """
    qmin, qmax = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    f32_terms = F32_TERMS[bits]
    assert _contraction_dtype(f32_terms, bits) is np.float32
    assert _contraction_dtype(f32_terms + 1, bits) is np.float64
    in_p = QuantParams(scale=1.0, zero_point=qmax, bits=bits)
    w_p = QuantParams(scale=1.0, zero_point=0, bits=bits)

    def operands(in_shape, w_shape):
        w = np.full(w_shape, qmin, dtype=np.int32)
        w.reshape(-1)[0] += odd
        x = QuantTensor(np.full(in_shape, qmin, dtype=np.int32), in_p)
        ref = int(np.sum((np.int64(qmin) - qmax) * w.astype(np.int64)))
        return x, QuantTensor(w, w_p), ref

    def want(acc, out_p):
        return oracles.requant_scalar(
            acc, 1.0, 1.0, out_p.scale, out_p.zero_point, out_p.qmin, out_p.qmax)

    # |acc + bias| at its largest, scaled into the output range
    big = QuantParams(scale=float(1 << (33 - bits)), zero_point=0, bits=bits)
    unit = QuantParams(scale=1.0, zero_point=-1, bits=bits)
    terms = _max_terms(bits)
    for n in (f32_terms, f32_terms + 1, terms):
        x, w, acc = operands((1, 1, n), (1, 1, n, 1))
        runs = [
            lambda b, p: conv2d_int(x, w, b, p, _spec(n, 1, k=1)),
            lambda b, p: pointwise_conv2d_int(x, w, b, p),
            lambda b, p: dense_int(x.reshape((n,)), w.reshape((n, 1)), b, p),
        ]
        # bias at its bound, then a bias cancelling all but a residue of 5,
        # so that every low bit of the accumulator reaches the output
        for bias, out_p in [(BIAS_LIMIT, big), (5 - acc, unit)]:
            for run in runs:
                got = run(np.array([bias], dtype=np.int64), out_p)
                assert got.qdata.reshape(()) == want(acc + bias, out_p)
    # depthwise has no bias: d_k * d_k worst-case terms per channel
    d_k = int(np.sqrt(terms)) | 1  # largest odd depthwise kernel that fits
    while d_k * d_k > terms:
        d_k -= 2
    x, dw, dw_acc = operands((d_k, d_k, 1), (d_k, d_k, 1))
    got = depthwise_conv2d_int(x, dw, big, _spec(1, 1, k=d_k))
    assert got.qdata.reshape(()) == want(dw_acc, big)
