"""Conv2D and im2col/col2im: shapes, adjointness, gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn import Conv2D, Workspace, dtypes
from repro.nn.conv import col2im, conv_output_size, im2col

from tests.nn.gradcheck import check_layer_gradients


def test_conv_output_size():
    assert conv_output_size(28, 5, 1, 0) == 24
    assert conv_output_size(32, 3, 1, 1) == 32
    assert conv_output_size(16, 5, 2, 2) == 8
    with pytest.raises(ShapeError):
        conv_output_size(2, 5, 1, 0)


def test_im2col_matches_naive_convolution():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    cols = im2col(x, 3, 3, 1, 0)
    out = (w.reshape(4, -1) @ cols).reshape(2, 4, 4, 4)
    # Naive direct convolution.
    naive = np.zeros_like(out)
    for n in range(2):
        for f in range(4):
            for i in range(4):
                for j in range(4):
                    naive[n, f, i, j] = (
                        x[n, :, i:i + 3, j:j + 3] * w[f]).sum()
    np.testing.assert_allclose(out, naive, atol=1e-12)


@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 1),
       st.integers(5, 8))
@settings(max_examples=20, deadline=None)
def test_im2col_col2im_adjoint(kernel, stride, pad, size):
    """<im2col(x), c> == <x, col2im(c)> — col2im is im2col's adjoint,
    which is exactly what the conv backward pass relies on."""
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 2, size, size))
    cols = im2col(x, kernel, kernel, stride, pad)
    c = rng.normal(size=cols.shape)
    lhs = float((cols * c).sum())
    rhs = float((x * col2im(c, x.shape, kernel, kernel, stride, pad)).sum())
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 2)])
def test_conv_gradients(stride, padding):
    rng = np.random.default_rng(3)
    layer = Conv2D(2, 3, 3, stride=stride, padding=padding,
                   activation="relu", rng=rng)
    x = rng.normal(size=(2, 2, 8, 8)) + 0.1
    check_layer_gradients(layer, x, rng, atol=1e-6)


def test_conv_rejects_wrong_channels():
    layer = Conv2D(3, 4, 3, rng=0)
    with pytest.raises(ShapeError):
        layer.apply(np.zeros((1, 2, 8, 8)))


def test_conv_output_shape_helper():
    layer = Conv2D(3, 8, 5, stride=2, padding=2, rng=0)
    assert layer.output_shape((3, 16, 32)) == (8, 8, 16)


def test_neuron_semantics_channel_mean():
    rng = np.random.default_rng(4)
    layer = Conv2D(1, 2, 3, padding=1, activation="linear", rng=rng)
    x = rng.normal(size=(2, 1, 4, 4))
    out = layer.apply(x)
    neurons = layer.neuron_outputs(out)
    assert neurons.shape == (2, 2)
    np.testing.assert_allclose(neurons, out.mean(axis=(2, 3)))
    # The seed must recover the spatial-mean functional exactly.
    seed = layer.neuron_seed((2, 4, 4), 1)
    np.testing.assert_allclose((seed[None] * out).sum(axis=(1, 2, 3)),
                               neurons[:, 1])


def test_asymmetric_kernel():
    rng = np.random.default_rng(5)
    layer = Conv2D(1, 2, (3, 5), rng=rng)
    out = layer.apply(rng.normal(size=(1, 1, 8, 10)))
    assert out.shape == (1, 2, 6, 6)


# -- byte identity of the batch-last input gradient ---------------------------
def _reference_col2im(cols, input_shape, kernel_h, kernel_w, stride, pad):
    """The historical N-first col2im: one clipped scatter-add per kernel
    offset, in i,j order, into an (N, C, H, W) gradient."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    cols = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    grad = np.zeros((n, c, h, w), dtype=cols.dtype)
    for i in range(kernel_h):
        for j in range(kernel_w):
            row_off, col_off = i - pad, j - pad
            t0 = -(row_off // stride) if row_off < 0 else 0
            u0 = -(col_off // stride) if col_off < 0 else 0
            t1 = min(out_h, (h - 1 - row_off) // stride + 1)
            u1 = min(out_w, (w - 1 - col_off) // stride + 1)
            if t0 >= t1 or u0 >= u1:
                continue
            grad[:, :, row_off + stride * t0:
                 row_off + stride * (t1 - 1) + 1:stride,
                 col_off + stride * u0:
                 col_off + stride * (u1 - 1) + 1:stride] += \
                cols[:, :, i, j, t0:t1, u0:u1]
    return grad


def _reference_input_gradient(layer, ctx, grad_out):
    """The historical Conv2D input gradient: an N-first ``Wᵀ @ grad_z``
    GEMM per sample, folded by :func:`_reference_col2im`."""
    input_shape, _, z, a, _ = ctx
    grad_z = layer.activation.backward(grad_out, z, a)
    n = grad_z.shape[0]
    grad_cols = layer.weight.value.T @ grad_z.reshape(
        n, layer.out_channels, -1)
    kh, kw = layer.kernel_size
    return _reference_col2im(grad_cols, input_shape, kh, kw, layer.stride,
                             layer.padding)


def _assert_matches_reference(layer, x, rng, ws):
    _, ctx = layer.forward(x)
    grad_out = rng.normal(
        size=(x.shape[0],) + layer.output_shape(x.shape[1:])).astype(x.dtype)
    expected = _reference_input_gradient(layer, ctx, grad_out)
    assert expected.dtype == x.dtype
    plain = layer.backward(ctx, grad_out, accumulate=False)
    _, ws_ctx = layer.forward(x, workspace=ws)
    pooled = layer.backward(ws_ctx, grad_out, accumulate=False)
    for got in (plain, pooled):
        assert got.dtype == x.dtype and got.shape == x.shape
        assert got.tobytes() == expected.tobytes(), x.shape


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_input_gradient_byte_identical_to_n_first_reference(
        dtype, kernel, stride, padding):
    """The batch-last kernel reorders memory, never arithmetic: both the
    plain and the workspace backward match the historical N-first loop
    byte for byte, at either dtype."""
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    ws = Workspace()
    for batch in (1, 2, 7, 240):
        for c_in in (1, 6):
            with dtypes.default_dtype(dtype):
                layer = Conv2D(c_in, 5, kernel, stride=stride,
                               padding=padding, rng=rng)
            x = rng.normal(size=(batch, c_in, 9, 9)).astype(dtype)
            _assert_matches_reference(layer, x, rng, ws)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_input_gradient_byte_identical_for_one_position_output(dtype):
    """A 1x1 output makes the historical per-sample product a GEMV."""
    rng = np.random.default_rng(9)
    ws = Workspace()
    for batch in (1, 2, 7, 240):
        with dtypes.default_dtype(dtype):
            layer = Conv2D(6, 5, 3, rng=rng)
        x = rng.normal(size=(batch, 6, 3, 3)).astype(dtype)
        _assert_matches_reference(layer, x, rng, ws)
