"""2-D convolution via im2col.

Array layout is ``(batch, channels, height, width)`` throughout.  The
im2col/col2im pair turns convolution into a single matrix multiply, which
is the only way a pure-numpy CNN is fast enough to train the model zoo.

Kernel notes:

* ``im2col`` gathers windows through an ``as_strided`` view of the
  (padded) input and one bulk ``copyto`` — a pure data movement, so the
  result is bit-identical to the historical per-offset Python loop.
* ``col2im`` folds columns back in a **batch-last** layout: the columns
  are ``(C*kh*kw, out_h*out_w*N)`` and the gradient is accumulated into
  ``(C, H, W, N)``, so each kernel offset's clipped add runs over
  ``(u1-u0)*N`` contiguous elements instead of ``N*C*out_h`` runs a few
  elements long.  One copy turns the result back into ``(N, C, H, W)``.
* The batch-last kernel is byte-identical to the historical N-first one
  at every dtype.  Each gradient element still sums its contributions
  in the same ``i,j`` offset order starting from zero, and each
  ``grad_cols`` element is still one length-F dot product of a weight
  column with a ``grad_z`` column — only where the values sit in memory
  changed.  Reordering the ``i,j`` loop would change float rounding and
  break the pinned float64 goldens.
* ``Conv2D.backward`` issues the ``Wᵀ @ grad_z`` GEMM in column chunks of
  at most ``GEMM_CHUNK`` (2**18) multiply-adds, each at least two
  columns wide.  Two shapes that look simpler are traps:

  - one GEMM over all ``out_h*out_w*N`` columns is large enough for
    OpenBLAS to go multi-threaded (its single-thread cut-off is
    2**18 multiply-adds), which oversubscribes the CPUs when a campaign
    runs one engine per worker process;
  - one GEMM per output position sends 1-sample batches down BLAS's
    GEMV path, whose rounding depends on where an element sits in the
    vector, and breaks the float64 goldens.  A one-column chunk would do
    the same, so the last chunk never has a single column.

  Shapes whose historical per-sample product was already a GEMV (one
  input row, ``C*kh*kw == 1``, or a 1x1 output) keep that per-sample
  product and only transpose its result.
* Both ``im2col`` and ``col2im`` accept caller-provided output buffers
  so the ascent loop can reuse a :class:`~repro.nn.workspace.Workspace`
  across iterations.  The three backward scratch buffers (transposed
  ``grad_z``, ``grad_cols`` and the batch-last gradient) are keyed per
  workspace, not per layer: backward visits the conv layers one at a
  time, so one set sized by the largest layer serves them all.
* ``Conv2D.forward`` fuses bias + activation into the GEMM epilogue
  (in-place on the output buffer) whenever the activation's backward
  does not need the pre-activation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.nn.activations import get_activation
from repro.nn.initializers import get_initializer
from repro.nn.layer import Layer
from repro.nn.parameter import Parameter
from repro.utils.rng import as_rng

__all__ = ["Conv2D", "im2col", "col2im", "col2im_batch_last",
           "conv_output_size"]

#: Most multiply-adds one input-gradient GEMM chunk may issue: OpenBLAS
#: runs a GEMM this small on a single thread (see the module notes).
GEMM_CHUNK = 2 ** 18


def conv_output_size(size, kernel, stride, pad):
    """Output spatial size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"kernel {kernel} with stride {stride}, pad {pad} does not fit "
            f"input size {size}")
    return out


def im2col(x, kernel_h, kernel_w, stride, pad, out=None, pad_buffer=None):
    """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, out_h*out_w).

    ``out`` (column buffer) and ``pad_buffer`` (padded-input scratch,
    shape ``(N, C, H+2p, W+2p)``) are optional preallocated arrays.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    if pad:
        if pad_buffer is None:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        else:
            # The interior is overwritten below, so only the border
            # frame needs zeroing when the buffer is recycled.
            pad_buffer[:, :, :pad, :].fill(0.0)
            pad_buffer[:, :, -pad:, :].fill(0.0)
            pad_buffer[:, :, pad:-pad, :pad].fill(0.0)
            pad_buffer[:, :, pad:-pad, -pad:].fill(0.0)
            pad_buffer[:, :, pad:-pad, pad:-pad] = x
            x = pad_buffer
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x, shape=(n, c, kernel_h, kernel_w, out_h, out_w),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw))
    if out is None:
        out = np.empty((n, c * kernel_h * kernel_w, out_h * out_w),
                       dtype=x.dtype)
    np.copyto(out.reshape(n, c, kernel_h, kernel_w, out_h, out_w), windows)
    return out


def col2im(cols, input_shape, kernel_h, kernel_w, stride, pad, out=None):
    """Fold columns (N, C*kh*kw, out_h*out_w) back to input space.

    The adjoint of :func:`im2col`, summing overlapping windows.  ``out``
    is an optional ``(N, C, H, W)`` buffer.  The columns are moved to
    the batch-last layout and folded by :func:`col2im_batch_last`.
    """
    grad = col2im_batch_last(cols.transpose(1, 2, 0), input_shape,
                             kernel_h, kernel_w, stride, pad)
    if out is None:
        out = np.empty(input_shape, dtype=grad.dtype)
    np.copyto(out, grad.transpose(3, 0, 1, 2))
    return out


def col2im_batch_last(cols, input_shape, kernel_h, kernel_w, stride, pad,
                      out=None):
    """Fold batch-last columns (C*kh*kw, out_h*out_w*N) into (C, H, W, N).

    ``out`` is an optional ``(C, H, W, N)`` buffer; it is zeroed here.
    Each kernel offset's add is clipped to the valid (unpadded) region,
    so no padded scratch is materialized.  The i,j accumulation order is
    load-bearing for bit-identical gradients — do not reorder.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    cols = cols.reshape(c, kernel_h, kernel_w, out_h, out_w, n)
    if out is None:
        grad = np.zeros((c, h, w, n), dtype=cols.dtype)
    else:
        grad = out
        grad.fill(0.0)
    for i in range(kernel_h):
        t0, t1, row_slice = _valid_span(i - pad, stride, h, out_h)
        for j in range(kernel_w):
            u0, u1, col_slice = _valid_span(j - pad, stride, w, out_w)
            if t0 < t1 and u0 < u1:
                grad[:, row_slice, col_slice] += cols[:, i, j, t0:t1, u0:u1]
    return grad


def _valid_span(offset, stride, size, out_size):
    """Output range ``[t0, t1)`` whose taps at ``offset`` land inside
    ``[0, size)``, and the input slice those taps hit."""
    t0 = -(offset // stride) if offset < 0 else 0
    t1 = min(out_size, (size - 1 - offset) // stride + 1)
    return t0, t1, slice(offset + stride * t0,
                         offset + stride * (t1 - 1) + 1, stride)


def _chunked_matmul(a, b, out):
    """``out = a @ b`` in column chunks of at most :data:`GEMM_CHUNK`
    multiply-adds, none of them a single column (see the module notes)."""
    width = b.shape[1]
    step = max(2, GEMM_CHUNK // a.size)
    start = 0
    while start < width:
        stop = start + step
        if width - stop < 2:
            stop = width
        np.matmul(a, b[:, start:stop], out=out[:, start:stop])
        start = stop


class Conv2D(Layer):
    """Convolution with built-in activation.

    For neuron coverage, each output *channel* is one neuron whose value is
    the spatial mean of its feature map — the convention of the original
    DeepXplore implementation.
    """

    exposes_neurons = True

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding=0, activation="relu", initializer="he_normal",
                 rng=None, name=None):
        super().__init__(name=name)
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = tuple(int(k) for k in kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.activation = get_activation(activation)
        kh, kw = self.kernel_size
        fan_in = self.in_channels * kh * kw
        fan_out = self.out_channels * kh * kw
        rng = as_rng(rng)
        init = get_initializer(initializer)
        weight = init((self.out_channels, fan_in), fan_in=fan_in,
                      fan_out=fan_out, rng=rng)
        self.weight = Parameter(weight, f"{self.name}.weight")
        self.bias = Parameter(np.zeros(self.out_channels), f"{self.name}.bias")

    def forward(self, x, training=False, workspace=None):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.in_channels}, H, W), "
                f"got {x.shape}")
        kh, kw = self.kernel_size
        n = x.shape[0]
        out_h = conv_output_size(x.shape[2], kh, self.stride, self.padding)
        out_w = conv_output_size(x.shape[3], kw, self.stride, self.padding)
        cols = pad_buffer = None
        if workspace is not None:
            if self.padding:
                pad_buffer = workspace.get(
                    (id(self), "pad"),
                    (n, self.in_channels, x.shape[2] + 2 * self.padding,
                     x.shape[3] + 2 * self.padding), x.dtype)
            cols = workspace.get(
                (id(self), "cols"),
                (n, self.in_channels * kh * kw, out_h * out_w), x.dtype)
        cols = im2col(x, kh, kw, self.stride, self.padding, out=cols,
                      pad_buffer=pad_buffer)
        if workspace is None:
            z_flat = self.weight.value @ cols  # (N, F, out_h*out_w)
        else:
            z_flat = workspace.get((id(self), "z"),
                                   (n, self.out_channels, out_h * out_w),
                                   x.dtype)
            np.matmul(self.weight.value, cols, out=z_flat)
        z_flat += self.bias.value[None, :, None]
        z = z_flat.reshape(n, self.out_channels, out_h, out_w)
        if self.activation.needs_preactivation:
            a = self.activation.forward(z)
            return a, (x.shape, cols, z, a, workspace)
        a = self.activation.forward_into(z, z)
        return a, (x.shape, cols, None, a, workspace)

    def backward(self, ctx, grad_out, accumulate=True):
        input_shape, cols, z, a, workspace = ctx
        if workspace is None:
            grad_z = self.activation.backward(grad_out, z, a)
        else:
            grad_z = self.activation.backward_into(
                grad_out, z, a,
                out=workspace.get((id(self), "gz"), grad_out.shape,
                                  grad_out.dtype),
                mask=workspace.get((id(self), "gzmask"), grad_out.shape,
                                   np.bool_))
        n = grad_z.shape[0]
        if accumulate:
            gz_flat = grad_z.reshape(n, self.out_channels, -1)
            self.weight.grad += np.tensordot(gz_flat, cols,
                                             axes=([0, 2], [0, 2]))
            self.bias.grad += gz_flat.sum(axis=(0, 2))
        return self._input_gradient(grad_z, input_shape, workspace)

    def _input_gradient(self, grad_z, input_shape, workspace):
        """``dL/dx`` through the batch-last col2im (see module notes)."""
        n, c, h, w = input_shape
        kh, kw = self.kernel_size
        dtype = np.result_type(self.weight.value, grad_z)
        f, out_h, out_w = grad_z.shape[1:]

        def scratch(tag, shape):
            if workspace is None:
                return np.empty(shape, dtype=dtype)
            return workspace.get(("conv.backward", tag), shape, dtype)

        weight_t = self.weight.value.T
        ckk, positions = weight_t.shape[0], out_h * out_w
        grad_cols = scratch("gcols", (ckk, positions, n))
        if ckk == 1 or positions == 1:
            # The per-sample product is a vector: BLAS takes its GEMV
            # path, whose rounding depends on where an element sits in
            # the vector, so keep the historical per-sample layout.
            product = np.matmul(weight_t, grad_z.reshape(n, f, positions),
                                out=scratch("gcols_n", (n, ckk, positions)))
            np.copyto(grad_cols, product.transpose(1, 2, 0))
        else:
            gz_t = scratch("gz_t", (f, out_h, out_w, n))
            np.copyto(gz_t, grad_z.transpose(1, 2, 3, 0))
            _chunked_matmul(weight_t, gz_t.reshape(f, -1),
                            grad_cols.reshape(ckk, -1))
        grad_t = col2im_batch_last(grad_cols, input_shape, kh, kw,
                                   self.stride, self.padding,
                                   out=scratch("grad_t", (c, h, w, n)))
        if workspace is None:
            grad_x = np.empty(input_shape, dtype=dtype)
        else:
            grad_x = workspace.get((id(self), "gx"), input_shape, dtype)
        np.copyto(grad_x, grad_t.transpose(3, 0, 1, 2))
        return grad_x

    def parameters(self):
        return [self.weight, self.bias]

    def output_shape(self, input_shape):
        c, h, w = input_shape
        kh, kw = self.kernel_size
        return (self.out_channels,
                conv_output_size(h, kh, self.stride, self.padding),
                conv_output_size(w, kw, self.stride, self.padding))

    def neuron_count(self, input_shape):
        return self.out_channels

    def neuron_outputs(self, output):
        return output.mean(axis=(2, 3))

    def neuron_seed(self, output_shape, neuron_index, dtype=np.float64):
        channels, h, w = output_shape
        seed = np.zeros(output_shape, dtype=dtype)
        seed[neuron_index] = 1.0 / (h * w)
        return seed
