import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tinymm.errors import InputTooSmallError, KernelTooLargeError
from tinymm.kernels import (
    ConvSpec,
    _conv_core,
    _dense_core,
    _depthwise_core,
    _pointwise_core,
    _windows,
    PoolSpec,
    conv2d_fp,
    conv_output_dim,
    dense_fp,
    depthwise_conv2d_fp,
    depthwise_separable_conv2d_fp,
    maxpool2d,
    pointwise_conv2d_fp,
    relu,
    softmax,
)
from tinymm.reference_models import build_reference
from tinymm.tensor import Tensor, tensor_create

from oracles import (
    conv2d_loops,
    ds_conv_loops,
    dyadic,
    matvec_loops,
    maxpool_loops,
)


def _spec(m, n, k=3, stride=1, padding="valid", kind="traditional"):
    return ConvSpec(in_channels=m, out_channels=n, kernel_size=k,
                    stride=stride, padding=padding, kind=kind)


# -- output dimension ---------------------------------------------------------

def test_conv_output_dim_known_values():
    assert conv_output_dim(203, 3, 1, "valid") == 201
    assert conv_output_dim(333, 3, 1, "same") == 333
    assert conv_output_dim(5, 3, 1, "valid") == 3


def test_conv_output_dim_matches_window_enumeration():
    # count positions where a length-k window fits while stepping by s
    for d_f in range(1, 20):
        for d_k in (1, 3, 5):
            if d_f < d_k:
                continue
            for s in (1, 2, 3):
                placements = len([p for p in range(0, d_f - d_k + 1, s)])
                assert conv_output_dim(d_f, d_k, s, "valid") == placements


def test_conv_output_dim_kernel_too_large():
    with pytest.raises(KernelTooLargeError):
        conv_output_dim(2, 3, 1, "valid")


# -- window view -----------------------------------------------------------------

def _windows_reference(x, spec):
    """The window view as np.pad + sliding_window_view + moveaxis."""
    d_k = spec.kernel_size
    if spec.padding == "same":
        lo, hi = (d_k - 1) // 2, d_k // 2
        x = np.pad(x, ((lo, hi), (lo, hi), (0, 0)))
    win = sliding_window_view(x, (d_k, d_k), axis=(0, 1))  # (H', W', C, Dk, Dk)
    return np.moveaxis(win[:: spec.stride, :: spec.stride], 2, -1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", ["valid", "same"])
def test_windows_match_padded_sliding_view(padding, dtype):
    rng = np.random.default_rng(11)
    for stride in (1, 2, 3):
        for d_k in (1, 3, 5):
            for c in (1, 3, 64):
                h, w = rng.integers(d_k, d_k + 6, size=2)
                x = rng.normal(size=(h, w, c)).astype(dtype)
                # stride > 1 with SAME is rejected by the kernels' checks;
                # the view itself is still defined and compared here
                spec = ConvSpec(c, 1, d_k, stride=stride, padding=padding)
                got, want = _windows(x, spec), _windows_reference(x, spec)
                assert got.shape == want.shape
                assert got.dtype == dtype
                assert np.array_equal(got, want)
                assert not got.flags.writeable
                assert np.shares_memory(got, x) == (padding == "valid")
                with pytest.raises(ValueError):
                    got[(0,) * 5] = 1.0


# -- traditional convolution ---------------------------------------------------

def test_conv2d_degenerate_1x1():
    x = tensor_create([1, 1, 1], [3.0])
    w = tensor_create([1, 1, 1, 1], [2.0])
    b = tensor_create([1], [0.5])
    out = conv2d_fp(x, w, b, _spec(1, 1, k=1))
    assert out.data[0, 0, 0] == pytest.approx(3.0 * 2.0 + 0.5)


def test_conv2d_zero_weights_gives_bias():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 5, 2)).astype(np.float32))
    w = Tensor(np.zeros((3, 3, 2, 4)))
    b = tensor_create([4], [1, -2, 3, 0.25])
    out = conv2d_fp(x, w, b, _spec(2, 4))
    assert np.array_equal(out.data, np.broadcast_to(b.data, (3, 3, 4)))


def test_conv2d_matches_loop_oracle_exactly():
    # dyadic-grid values make products and sums exact in float arithmetic,
    # so the vectorized kernel and the nested loops must agree bit for bit
    rng = np.random.default_rng(1)
    x = Tensor(dyadic(rng, (5, 5, 2)))
    w = Tensor(dyadic(rng, (3, 3, 2, 4)))
    b = Tensor(dyadic(rng, (4,)))
    out = conv2d_fp(x, w, b, _spec(2, 4))
    ref, _ = conv2d_loops(x.data, w.data, b.data)
    assert np.array_equal(out.data, ref)


@pytest.mark.parametrize("padding,stride", [("valid", 1), ("valid", 2), ("same", 1)])
def test_conv2d_random_shapes_vs_oracle(padding, stride):
    rng = np.random.default_rng(2)
    for _ in range(12):
        m, n = rng.integers(1, 5, size=2)
        d_k = int(rng.choice([1, 3]))
        h, w_ = rng.integers(d_k, 9, size=2)
        x = Tensor(dyadic(rng, (h, w_, m)))
        w = Tensor(dyadic(rng, (d_k, d_k, m, n)))
        b = Tensor(dyadic(rng, (n,)))
        spec = _spec(m, n, k=d_k, stride=stride, padding=padding)
        out = conv2d_fp(x, w, b, spec)
        ref, _ = conv2d_loops(x.data, w.data, b.data, stride=stride, padding=padding)
        assert out.shape == ref.shape
        assert np.array_equal(out.data, ref)
        # continuous values: tight closeness
        xc = Tensor(rng.normal(size=(h, w_, m)).astype(np.float32))
        wc = Tensor(rng.normal(size=(d_k, d_k, m, n)).astype(np.float32))
        bc = Tensor(rng.normal(size=n).astype(np.float32))
        ref2, _ = conv2d_loops(xc.data, wc.data, bc.data, stride=stride, padding=padding)
        assert np.allclose(conv2d_fp(xc, wc, bc, spec).data, ref2, atol=1e-5)


# -- depthwise separable convolution --------------------------------------------

def test_ds_conv_single_channel_factorizes():
    # with M=1 the separable conv is the traditional conv with kernel dw (x) pw
    rng = np.random.default_rng(3)
    x = Tensor(dyadic(rng, (6, 6, 1)))
    dw = Tensor(dyadic(rng, (3, 3, 1)))
    pw = Tensor(dyadic(rng, (1, 1, 1, 3)))
    b = Tensor(dyadic(rng, (3,)))
    spec = _spec(1, 3, kind="depthwise_separable")
    out = depthwise_separable_conv2d_fp(x, dw, pw, b, spec)
    full_kernel = dw.data[:, :, :, None] * pw.data[0, 0, 0, :]
    ref = conv2d_fp(x, Tensor(full_kernel), b, _spec(1, 3))
    assert np.allclose(out.data, ref.data, atol=1e-6)


def test_ds_conv_identity_pointwise_is_depthwise():
    rng = np.random.default_rng(4)
    m = 3
    x = Tensor(dyadic(rng, (6, 6, m)))
    dw = Tensor(dyadic(rng, (3, 3, m)))
    pw = Tensor(np.eye(m, dtype=np.float32).reshape(1, 1, m, m))
    b = Tensor(np.zeros(m))
    spec = _spec(m, m, kind="depthwise_separable")
    out = depthwise_separable_conv2d_fp(x, dw, pw, b, spec)
    stage = depthwise_conv2d_fp(x, dw, spec)
    assert np.array_equal(out.data, stage.data)


def test_ds_conv_matches_two_stage_oracle():
    rng = np.random.default_rng(5)
    x = Tensor(dyadic(rng, (6, 6, 3)))
    dw = Tensor(dyadic(rng, (3, 3, 3)))
    pw = Tensor(dyadic(rng, (1, 1, 3, 4)))
    b = Tensor(dyadic(rng, (4,)))
    spec = _spec(3, 4, kind="depthwise_separable")
    out = depthwise_separable_conv2d_fp(x, dw, pw, b, spec)
    ref, _ = ds_conv_loops(x.data, dw.data, pw.data, b.data)
    assert np.array_equal(out.data, ref)


def test_ds_conv_random_shapes_vs_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m, n = rng.integers(1, 5, size=2)
        d_k = int(rng.choice([1, 3]))
        h, w_ = rng.integers(d_k, 9, size=2)
        padding = str(rng.choice(["valid", "same"]))
        x = Tensor(dyadic(rng, (h, w_, m)))
        dw = Tensor(dyadic(rng, (d_k, d_k, m)))
        pw = Tensor(dyadic(rng, (1, 1, m, n)))
        b = Tensor(dyadic(rng, (n,)))
        spec = _spec(m, n, k=d_k, padding=padding, kind="depthwise_separable")
        out = depthwise_separable_conv2d_fp(x, dw, pw, b, spec)
        ref, _ = ds_conv_loops(x.data, dw.data, pw.data, b.data, padding=padding)
        assert np.array_equal(out.data, ref)


# -- pooling --------------------------------------------------------------------

def test_maxpool_table_shapes():
    assert maxpool2d(Tensor(np.zeros((199, 16, 32))), PoolSpec(3)).shape == (66, 5, 32)
    assert maxpool2d(Tensor(np.zeros((329, 9, 32))), PoolSpec(2)).shape == (164, 4, 32)


def test_maxpool_constant_stays_constant():
    t = Tensor(np.full((7, 5, 2), 1.25, dtype=np.float32))
    out = maxpool2d(t, PoolSpec(2))
    assert out.shape == (3, 2, 2)
    assert np.all(out.data == 1.25)


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h, w = rng.integers(2, 12, size=2)
        c = int(rng.integers(1, 4))
        p = int(rng.integers(1, min(h, w) + 1))
        x = Tensor(rng.normal(size=(h, w, c)).astype(np.float32))
        assert np.array_equal(maxpool2d(x, PoolSpec(p)).data, maxpool_loops(x.data, p))


def test_maxpool_input_too_small():
    with pytest.raises(InputTooSmallError):
        maxpool2d(Tensor(np.zeros((2, 2, 1))), PoolSpec(3))


# -- dense ------------------------------------------------------------------------

def test_dense_identity():
    x = tensor_create([3], [1.0, -2.0, 3.0])
    w = Tensor(np.eye(3, dtype=np.float32))
    out = dense_fp(x, w, Tensor(np.zeros(3)))
    assert np.array_equal(out.data, x.data)


def test_dense_zero_input_gives_bias():
    b = tensor_create([4], [1, 2, 3, 4])
    out = dense_fp(Tensor(np.zeros(5)), Tensor(np.zeros((5, 4))), b)
    assert np.array_equal(out.data, b.data)


def test_dense_matches_loop_oracle():
    rng = np.random.default_rng(8)
    x = Tensor(dyadic(rng, (7,)))
    w = Tensor(dyadic(rng, (7, 3)))
    b = Tensor(dyadic(rng, (3,)))
    ref, _ = matvec_loops(x.data, w.data, b.data)
    assert np.array_equal(dense_fp(x, w, b).data, ref)


# -- activations -------------------------------------------------------------------

def test_relu_cases():
    assert np.array_equal(relu(tensor_create([3], [-1, 0, 2])).data, [0, 0, 2])
    assert np.all(relu(Tensor(-np.ones((2, 2), dtype=np.float32))).data == 0)
    t = tensor_create([3], [0.5, 0, 3])
    assert np.array_equal(relu(t).data, t.data)


def test_softmax_symmetry():
    assert np.allclose(softmax(tensor_create([2], [0, 0])).data, [0.5, 0.5])


def test_softmax_large_logits_no_overflow():
    out = softmax(tensor_create([3], [1000, 1000, 1000]))
    assert np.allclose(out.data, [1 / 3] * 3)
    assert np.isfinite(out.data).all()


def test_softmax_sums_to_one():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 20))
        out = softmax(Tensor(rng.normal(scale=10, size=n).astype(np.float32)))
        assert abs(float(out.data.sum()) - 1.0) <= 1e-6
        assert np.all(out.data > 0)


def test_softmax_shift_invariance_exact():
    rng = np.random.default_rng(10)
    z = dyadic(rng, (9,))
    a = softmax(Tensor(z))
    b = softmax(Tensor(z + np.float32(4.0)))  # exact shift on the dyadic grid
    assert np.array_equal(a.data, b.data)


# -- float32 accumulation error ------------------------------------------------------

@pytest.mark.parametrize("model", ["covid", "battlefield"])
def test_float32_kernels_within_the_summation_bound_at_model_shapes(model):
    """Each weighted float kernel, at every layer shape of a reference model,
    stays within terms * 2^-23 * sum|x*w| of the float64 contraction of the
    same operands, terms being the accumulation length (a bias adds one)."""
    graph = build_reference(model)
    rng = np.random.default_rng(12)

    def check(got, x, w, b, core, terms):
        x64, w64 = x.data.astype(np.float64), w.data.astype(np.float64)
        want, mag = core(x64, w64), core(np.abs(x64), np.abs(w64))
        if b is not None:
            want, mag, terms = want + b.data, mag + np.abs(b.data), terms + 1
        assert np.all(np.abs(got.data - want) <= terms * 2.0**-23 * mag)

    for layer in graph.weighted_layers:
        x = Tensor(rng.normal(size=graph.shapes[layer.inputs[0]]))
        w, spec = graph.weights[layer.name], layer.conv
        if layer.kind == "conv2d":
            check(conv2d_fp(x, w["w"], w["b"], spec), x, w["w"], w["b"],
                  lambda a, k: _conv_core(a, k, spec), spec.kernel_size**2 * spec.in_channels)
        elif layer.kind == "ds_conv2d":
            mid = depthwise_conv2d_fp(x, w["dw"], spec)
            check(mid, x, w["dw"], None,
                  lambda a, k: _depthwise_core(a, k, spec), spec.kernel_size**2)
            check(pointwise_conv2d_fp(mid, w["pw"], w["b"]), mid, w["pw"], w["b"],
                  _pointwise_core, spec.in_channels)
        else:
            check(dense_fp(x, w["w"], w["b"]), x, w["w"], w["b"],
                  _dense_core, layer.dense.in_features)


# -- shape formula property ----------------------------------------------------------

def test_kernel_output_shapes_match_formulas():
    rng = np.random.default_rng(11)
    for _ in range(30):
        d_k = int(rng.choice([1, 3, 5]))
        s = int(rng.integers(1, 4))
        h = int(rng.integers(d_k, 65))
        w = int(rng.integers(d_k, 65))
        m = int(rng.integers(1, 4))
        x = Tensor(np.zeros((h, w, m)))
        spec = _spec(m, 2, k=d_k, stride=s)
        out = conv2d_fp(x, Tensor(np.zeros((d_k, d_k, m, 2))), Tensor(np.zeros(2)), spec)
        assert out.shape == (
            conv_output_dim(h, d_k, s, "valid"),
            conv_output_dim(w, d_k, s, "valid"),
            2,
        )
        p = int(rng.integers(1, min(h, w) + 1))
        assert maxpool2d(x, PoolSpec(p)).shape == (h // p, w // p, m)
