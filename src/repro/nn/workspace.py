"""Preallocated scratch buffers reused across forward/backward passes.

The ascent loop calls ``network.run`` hundreds of times per seed batch
with identical shapes (the batch only ever *shrinks* as seeds resolve).
Without a workspace every iteration reallocates the same im2col column
matrix, conv output, pooling scatter buffer, and gradient arrays —
allocation and page-faulting costs that rival the GEMMs at smoke scale.

A :class:`Workspace` is a caller-owned dict of flat 1-D arrays keyed by
``(id(layer), tag)`` — or by a key shared across layers for scratch
that never outlives one layer call, such as the conv backward's
``("conv.backward", tag)`` buffers.  Layers request views via
:meth:`get` / :meth:`zeros`; a request that fits inside an existing
buffer is served as a reshaped view of its prefix (so a shrinking batch
never reallocates), otherwise the buffer is grown.  Layers never store the
workspace — it is threaded through ``forward(x, workspace=...)`` and
carried to ``backward`` inside the immutable ctx tuple, which keeps the
"no residual state on layers" guarantee intact.

The trade-off is aliasing: arrays handed out by a workspace are only
valid until the **next** forward/backward that reuses the same buffers.
:class:`~repro.nn.tape.ForwardPass` defensively copies the final input
gradient it returns, and the ascent engine consumes each tape's
gradients before running the next forward, so the loop never observes a
stale view.  Code that holds tapes across forwards (tests, notebooks)
should simply not pass a workspace — everything allocates fresh by
default.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Size-elastic scratch-buffer pool for one network's passes."""

    __slots__ = ("_buffers", "allocations")

    def __init__(self):
        self._buffers = {}
        #: Number of backing allocations performed (for reuse tests).
        self.allocations = 0

    def get(self, key, shape, dtype):
        """An uninitialised array of ``shape``/``dtype`` for ``key``.

        Reuses (a prefix of) the existing backing buffer when it is
        large enough and of the same dtype; contents are undefined.
        """
        size = 1
        for dim in shape:
            size *= dim
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = np.empty(max(size, 1), dtype=dtype)
            self._buffers[key] = buf
            self.allocations += 1
        return buf[:size].reshape(shape)

    def zeros(self, key, shape, dtype):
        """Like :meth:`get` but zero-filled."""
        out = self.get(key, shape, dtype)
        out.fill(0.0)
        return out

    def nbytes(self):
        """Total bytes currently held by the pool."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self):
        """Drop every buffer (keeps the allocation counter)."""
        self._buffers.clear()
