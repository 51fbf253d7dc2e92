"""Dense real tensors with reverse-mode automatic differentiation.

The graph of recorded operations doubles as the gradient tape. Every
differentiable op records, through ``_record``, a graph node for its
output: the closure that maps the output gradient to input gradients (a
vector-Jacobian product, VJP) and links to its inputs' places in the
graph. A link is the input's own node when the input was itself
recorded, the input Tensor when it is a tracked leaf (leaves receive
``grad``), and None for an untracked input.

Every VJP returns a gradient for each of its inputs, and the sweep keeps
only those of tracked inputs; the gradient of an untracked one is
dropped.

The graph holds nodes, not values. A node never refers to its output
Tensor, and a VJP closure captures only the arrays it reads, never an
input Tensor. So the graph retains exactly what backward will read, and
an interior output that no later VJP reads (a conv output that only
feeds a batchnorm, say) is freed as soon as the caller drops it.
Calling ``backward`` on a scalar runs the VJPs under it once, in reverse
recording order, and consumes the graph. An op is recorded after its
inputs, so that order is topological. Only leaves keep a gradient, and
each node lets go of its links and closure as soon as its VJP has run,
so the saved arrays are freed during the sweep. A consumed graph cannot
be swept again.

Layout convention: the spatial ops (``conv2d``, ``transposed_conv2``,
``maxpool2``, ``batchnorm``, ``batchnorm_act``) take and return batched,
channel-major ``(N, C, H, W)`` feature maps, and refuse any other rank; a
single map is a batch of one. The elementwise ops and the channel
concatenations work on any rank. Data is float64 by default; float32 is
kept when the caller supplies it, through constants, scalars and
gradients alike.

``conv2d`` follows a narrow-side rule: its forward pass, input gradient
and weight gradient each shift whichever of the input or output has fewer
channels, never the wider one. The kh*kw shifted copies are built for one
band of ceil(H / (kh*kw)) rows at a time, so no product holds more than
about one extra copy of the narrow side beside its zero-padded map. With
C_out < C_in the forward pass is kn2row (GEMMs into per-tap planes, then
a shift-add; Vasudevan et al. 2017, arXiv:1704.04428), which works band
by band as well (Anderson et al. 2017, arXiv:1709.03395).

The padded maps are flat: each channel is its H*W values in row-major
order with kh // 2 zero rows above and below and kw // 2 zero values at
each end, (H + kh - 1)*W + kw - 1 in all. Tap (i, j) of the band that
starts at row r0 is then one contiguous slice at offset (r0 + i)*W + j.
A tap off the centre column reads |j - kw // 2| columns of each row from
the neighbouring row; those columns are zeroed in the tap stack or in the
plane before it is added, and a shift of W or more zeroes the whole tap.

``concat_prefix`` records every channel concatenation: when the parts
already sit side by side at the start of one buffer, their concatenation
is a view of that buffer. ``concat_channels`` is ``concat_prefix`` over a
fresh ``np.concatenate`` of the parts.

There is one activation op, ``leaky_relu``, and ``relu`` is its slope-0
case. Its VJP reads the sign of the input it kept, so no call builds a mask.

``batchnorm_act`` is training-mode ``batchnorm`` followed by
``leaky_relu``, recorded as one node. It writes the activation straight
into ``out`` and keeps only the normalized map and the per-channel
inverse deviations; its VJP rebuilds the activation's slope from them. It
shares training-mode batchnorm's statistics and gradient code with
``batchnorm``, and its results are bit-identical to the two ops'. Given
``keep``, it writes the normalized map there, into an array the caller
owns. A dense block lets that array and the activation share memory
until backward: ``recompute`` records an identity op whose VJP puts
each normalized map back, and ``affine_act`` rebuilds the activation
from it bit for bit, before any VJP of the block reads either.
"""

from __future__ import annotations

import contextlib
from itertools import accumulate, count

import numpy as np

__all__ = [
    "Tensor",
    "RunningStats",
    "no_grad",
    "conv2d",
    "transposed_conv2",
    "maxpool2",
    "batchnorm",
    "batchnorm_act",
    "affine_act",
    "recompute",
    "relu",
    "leaky_relu",
    "sigmoid",
    "log1p",
    "concat_channels",
    "concat_prefix",
    "numeric_gradient",
    "assert_gradients_match",
]

_grad_enabled = True
_recorded = count()  # numbers graph nodes; backward reads only their order


@contextlib.contextmanager
def no_grad():
    """Suspend graph recording (inference mode) for the ``with`` block."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_float_array(data):
    arr = np.asarray(data)
    if arr.dtype == np.float32 or arr.dtype == np.float64:
        return arr
    return arr.astype(np.float64)


class Tensor:
    """N-dimensional real array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = _as_float_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None  # set on recorded op outputs only; leaves have none

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.item())

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        op = "leaf" if self._node is None else self._node.op
        return f"Tensor(shape={self.data.shape}, op={op!r}{flag})"

    # -- arithmetic ----------------------------------------------------------

    def _const(self, other):
        """A non-Tensor operand as an array of this tensor's dtype."""
        const = np.asarray(other, dtype=self.data.dtype)
        if const.shape != () and const.shape != self.shape:
            raise ValueError(f"constant shape {const.shape} does not match {self.shape}")
        return const

    def __add__(self, other):
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch in add: {self.shape} vs {other.shape}")
            return _record(self.data + other.data, (self, other), lambda g: (g, g), "add")
        return _record(self.data + self._const(other), (self,), lambda g: (g,), "add_const")

    __radd__ = __add__

    def __neg__(self):
        return _record(-self.data, (self,), lambda g: (-g,), "neg")

    def __sub__(self, other):
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch in sub: {self.shape} vs {other.shape}")
            return _record(self.data - other.data, (self, other), lambda g: (g, -g), "sub")
        return self.__add__(-self._const(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch in mul: {self.shape} vs {other.shape}")
            a, b = self.data, other.data
            return _record(a * b, (self, other), lambda g: (g * b, g * a), "mul")
        const = self._const(other)
        return _record(self.data * const, (self,), lambda g: (g * const,), "mul_const")

    __rmul__ = __mul__

    # -- reductions ----------------------------------------------------------

    def sum(self):
        shape, dt = self.data.shape, self.data.dtype
        return _record(np.asarray(self.data.sum()), (self,),
                       lambda g: (np.full(shape, float(g), dtype=dt),), "sum")

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    # -- autodiff ------------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep seeding d(self)/d(self) = 1; consumes the graph.

        Collects the nodes under ``self``, then runs their VJPs in reverse
        recording order. Only valid on scalar outputs. Only leaves receive
        ``grad``, and theirs accumulate across backward calls on separately
        built graphs; reset with ``grad = None`` (see ParamStore.zero_grad).
        Each node drops its links and gradient function right after its VJP
        runs, so the arrays the graph saved are freed during the sweep even
        while the caller still holds the output. Sweeping a consumed graph
        again, or a new graph built on one of its interior tensors, raises
        ValueError before any leaf gradient changes.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        root = _link(self)
        if root is None:
            raise ValueError("output is not connected to any tracked tensor")
        nodes, leaves, seen, stack = [], [], {id(root)}, [root]
        while stack:
            vertex = stack.pop()
            if isinstance(vertex, Tensor):
                leaves.append(vertex)
                continue
            if vertex.backward is None:
                raise ValueError(
                    f"a {vertex.op!r} tensor in this graph was consumed by an earlier backward"
                )
            nodes.append(vertex)
            for parent in vertex.parents:
                if parent is not None and id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        # an op is recorded after its inputs, so later records run first
        nodes.sort(key=lambda node: node.seq, reverse=True)
        grads = {id(root): np.ones_like(self.data)}
        for node in nodes:
            g = grads.pop(id(node))
            for parent, pg in zip(node.parents, node.backward(g)):
                if parent is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
            node.parents = ()
            node.backward = None
        for leaf in leaves:
            g = grads.pop(id(leaf))
            leaf.grad = g if leaf.grad is None else leaf.grad + g


class _Node:
    """The graph vertex of a recorded op's output; it never holds the output.

    ``parents`` has one link per op input, aligned with what ``backward``
    returns (see ``_link``). ``seq`` numbers nodes in recording order. A
    consumed node has ``backward`` None.
    """

    __slots__ = ("parents", "backward", "op", "seq")

    def __init__(self, parents, backward, op):
        self.parents = parents
        self.backward = backward
        self.op = op
        self.seq = next(_recorded)


def _link(t):
    """Where a graph reaches ``t``: its node, itself if a tracked leaf, else None."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _from_op(data, parents, backward_fn, op):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = True
    out.grad = None
    out._node = _Node(tuple(_link(p) for p in parents), backward_fn, op)
    return out


def _maps(arr):
    """``arr``, checked to be a batch of feature maps, (N, C, H, W)."""
    if arr.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) feature maps, got shape {arr.shape}")
    return arr


def _record(data, parents, backward_fn, op):
    if _grad_enabled and any(p.requires_grad for p in parents):
        return _from_op(data, parents, backward_fn, op)
    return Tensor(data)


# -- spatial ops ---------------------------------------------------------


def _bands(h, taps):
    """Row ranges [r0, r1) that cover h rows, ceil(h / taps) rows each.

    A band's tap stack then holds about one unshifted copy of its map.
    """
    step = -(-h // taps)
    return [(r0, min(r0 + step, h)) for r0 in range(0, h, step)]


def _rows(arr, r0, r1):
    """Rows r0:r1 of an (N, C, H, W) array as an (N, C, rows*W) view."""
    n, c, _, wd = arr.shape
    return arr[:, :, r0:r1].reshape(n, c, (r1 - r0) * wd)


def _flat_padded(xb, kh, kw):
    """(N, C, H, W) as row-major flat channels, padded for a kh x kw kernel.

    Each channel is H*W values with kh // 2 zero rows above and below and
    kw // 2 zero slack values at each end: (N, C, (H + kh - 1)*W + kw - 1).
    """
    n, c, h, wd = xb.shape
    start = (kh // 2) * wd + kw // 2
    xp = np.zeros((n, c, (h + kh - 1) * wd + kw - 1), dtype=xb.dtype)
    xp[:, :, start : start + h * wd] = _rows(xb, 0, h)
    return xp


def _wrapped(j, kw, wd):
    """The columns of an output row whose tap at kernel column j wraps a row.

    The flat slice of tap column j reads each row shifted by j - kw // 2;
    that many columns at one edge read the neighbouring row instead of
    padding. A shift of W or more wraps every column.
    """
    s = j - kw // 2
    return slice(0, -s) if s < 0 else slice(max(wd - s, 0), wd)


def _shifted_columns(xp, wd, kh, kw, r0, r1):
    """Stack every kernel-tap shift of output rows r0:r1, read from a flat padded map.

    xp is the ``_flat_padded`` map of a W-wide input. Returns (N, C*kh*kw,
    (r1 - r0)*W): row (c, i, j) holds the input shifted so that tap (i, j)
    of a same-padded correlation reads it at output rows r0:r1. That is the
    contiguous slice of xp at offset (r0 + i)*W + j, with its wrapped
    columns zeroed.
    """
    n, c = xp.shape[:2]
    rows = r1 - r0
    cols = np.empty((n, c, kh, kw, rows, wd), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            start = (r0 + i) * wd + j
            cols[:, :, i, j] = xp[:, :, start : start + rows * wd].reshape(n, c, rows, wd)
            cols[:, :, i, j, :, _wrapped(j, kw, wd)] = 0.0
    return cols.reshape(n, c * kh * kw, rows * wd)


def _shift_add(acc, planes, wd, kh, kw, r0):
    """Adjoint of ``_shifted_columns``: add per-tap planes of rows r0.. into acc.

    acc: a flat padded accumulator laid out as ``_flat_padded`` for a W-wide
    map. planes: (N, C*kh*kw, rows*W) with rows ordered (c, i, j), computed
    from map rows r0:r0 + rows. Plane (c, i, j) has its wrapped columns
    zeroed (in place) and is added into channel c at offset (r0 + i)*W + j,
    the opposite shift to tap (i, j) of ``_shifted_columns``; what lands in
    the padding is dropped with it. Bands added bottom-up, each in (i, j)
    order, give every element its taps in (i, j) order, as one whole-map
    pass does.
    """
    n, c, _ = acc.shape
    rows = planes.shape[2] // wd
    p = planes.reshape(n, c, kh, kw, rows, wd)
    for i in range(kh):
        for j in range(kw):
            start = (r0 + i) * wd + j
            p[:, :, i, j, :, _wrapped(j, kw, wd)] = 0.0
            acc[:, :, start : start + rows * wd] += p[:, :, i, j].reshape(n, c, rows * wd)


def _tap_stacks(xb, kh, kw):
    """Yield (r0, r1, stack): ``_shifted_columns`` of xb, one band at a time."""
    wd = xb.shape[3]
    xp = _flat_padded(xb, kh, kw)
    for r0, r1 in _bands(xb.shape[2], kh * kw):
        yield r0, r1, _shifted_columns(xp, wd, kh, kw, r0, r1)


def _gemm_shift_add(a, xb, kh, kw):
    """``_shift_add`` of the per-tap planes ``a @ xb``, one band of rows at a time.

    a: (C*kh*kw, C_x) with rows ordered (c, i, j). Bands run bottom-up, so
    the sum is bit-identical to one whole-map pass. Returns (N, C, H, W), a
    view of the flat padded accumulator.
    """
    n, _, h, wd = xb.shape
    taps = kh * kw
    c = a.shape[0] // taps
    acc = np.zeros((n, c, (h + kh - 1) * wd + kw - 1), dtype=np.result_type(a, xb))
    for r0, r1 in reversed(_bands(h, taps)):
        _shift_add(acc, a @ _rows(xb, r0, r1), wd, kh, kw, r0)
    start = (kh // 2) * wd + kw // 2
    return acc[:, :, start : start + h * wd].reshape(n, c, h, wd)


def conv2d(x, weight, bias):
    """2-D cross-correlation with stride 1 and symmetric zero same-padding.

    weight: (C_out, C_in, kh, kw) with odd kh, kw. bias: (C_out,).
    Output spatial size equals input spatial size.

    Each of the three products (the output, dx and dw) is GEMMs plus tap
    stacks or shift-adds over whichever side has fewer channels, so the
    wide side is never copied kh*kw times:

    - C_out < C_in: forward is kn2row, GEMMs of the kernel against the
      unshifted input into kh*kw*C_out per-tap planes, then a shift-add.
      Backward shifts the output gradient and uses those copies for both
      dx and dw.
    - C_in <= C_out: forward is im2col over the input. Backward shifts the
      input for dw and computes dx kn2row-style, GEMM then shift-add.

    Every stack is built for one band of ceil(H / (kh*kw)) output rows at
    a time, so no product holds more than about one extra copy of the
    narrow side, plus its zero-padded map. Stacked bands GEMM straight
    into their rows of the output or dx; shift-add bands run bottom-up.
    The padded maps and accumulators are flat (see the module docstring):
    every tap is one contiguous slice, with the columns that wrap into a
    neighbouring row zeroed. The output and dx are bit-identical to
    whole-map stacks on 2-D padded maps; dw is summed over bands, which
    reorders its float sum. A kn2row output or dx is a view of its flat
    accumulator, so its channel stride is the padded length, not H*W.
    """
    xb = _maps(x.data)
    w = weight.data
    b = bias.data
    if w.ndim != 4:
        raise ValueError(f"conv kernel must be 4-D, got shape {w.shape}")
    c_out, c_in, kh, kw = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel dims must be odd for same padding, got {kh}x{kw}")
    if xb.shape[1] != c_in:
        raise ValueError(f"input has {xb.shape[1]} channels, kernel expects {c_in}")
    if b.shape != (c_out,):
        raise ValueError(f"bias shape {b.shape} does not match {c_out} output channels")

    n, _, h, wd = xb.shape
    taps = kh * kw
    narrow_out = c_out < c_in

    if narrow_out:
        # output = sum over taps of shift(W_tap @ x); _shift_add shifts the
        # opposite way, so it is fed the planes of the flipped kernel
        wrows = w[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(c_out * taps, c_in)
        out = _gemm_shift_add(wrows, xb, kh, kw)
    else:
        out = np.empty((n, c_out, h, wd), dtype=np.result_type(w, xb))
        wmat = w.reshape(c_out, c_in * taps)
        for r0, r1, cols in _tap_stacks(xb, kh, kw):
            np.matmul(wmat, cols, out=_rows(out, r0, r1))
            del cols  # freed before the next band's stack is built
    out += b[:, None, None]

    def fn(g):
        dw = None
        db = g.sum(axis=(0, 2, 3))
        if narrow_out:
            # the adjoint of tap (i, j) is the shift of the flipped tap, so one
            # band of output-gradient shifts serves dx and dw alike
            wflip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(c_in, c_out * taps)
            dx = np.empty((n, c_in, h, wd), dtype=np.result_type(w, g))
            for r0, r1, gcols in _tap_stacks(g, kh, kw):
                part = (gcols @ _rows(xb, r0, r1).transpose(0, 2, 1)).sum(axis=0)
                dw = part if dw is None else dw + part
                np.matmul(wflip, gcols, out=_rows(dx, r0, r1))
                del gcols
            dw = dw.reshape(c_out, kh, kw, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        else:
            for r0, r1, xcols in _tap_stacks(xb, kh, kw):
                part = (_rows(g, r0, r1) @ xcols.transpose(0, 2, 1)).sum(axis=0)
                dw = part if dw is None else dw + part
                del xcols
            dw = dw.reshape(w.shape)
            wrows = w.transpose(1, 2, 3, 0).reshape(c_in * taps, c_out)
            dx = _gemm_shift_add(wrows, g, kh, kw)
        return (dx, dw, db)

    return _record(out, (x, weight, bias), fn, "conv2d")


def transposed_conv2(x, weight, bias):
    """2x2 stride-2 transposed convolution: exact spatial doubling.

    weight: (C_in, C_out, 2, 2). Adjoint of a stride-2 2x2 convolution, so
    output taps never overlap: the op is one 1x1 GEMM of the
    (C_in, 4*C_out) weight matrix into four planes per output channel,
    then a depth-to-space reshape (Shi et al. 2016, arXiv:1609.05158).
    """
    xb = _maps(x.data)
    w = weight.data
    b = bias.data
    if w.ndim != 4 or w.shape[2:] != (2, 2):
        raise ValueError(f"upsampling kernel must be (C_in, C_out, 2, 2), got {w.shape}")
    c_in, c_out = w.shape[0], w.shape[1]
    if xb.shape[1] != c_in:
        raise ValueError(f"input has {xb.shape[1]} channels, kernel expects {c_in}")
    if b.shape != (c_out,):
        raise ValueError(f"bias shape {b.shape} does not match {c_out} output channels")

    n, _, h, wd = xb.shape
    wm = w.reshape(c_in, 4 * c_out)
    xm = xb.reshape(n, c_in, h * wd)
    out = (wm.T @ xm).reshape(n, c_out, 2, 2, h, wd).transpose(0, 1, 4, 2, 5, 3)
    out = out.reshape(n, c_out, 2 * h, 2 * wd)
    out += b[:, None, None]

    def fn(g):
        gm = g.reshape(n, c_out, h, 2, wd, 2).transpose(0, 1, 3, 5, 2, 4)
        gm = gm.reshape(n, 4 * c_out, h * wd)
        dx = (wm @ gm).reshape(xb.shape)
        dw = (xm @ gm.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    return _record(out, (x, weight, bias), fn, "transposed_conv2")


def maxpool2(x):
    """2x2 max pooling with stride 2; gradient routes to the argmax.

    Ties resolve to the first maximum in row-major window order.
    """
    xb = _maps(x.data)
    n, c, h, w = xb.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even for 2x2 pooling, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    win = xb.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    idx = idx.astype(np.uint8)  # window positions 0-3, kept for backward

    def fn(g):
        z = np.zeros((n, c, h2, w2, 4), dtype=g.dtype)
        np.put_along_axis(z, idx[..., None], g[..., None], axis=-1)
        dx = z.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        return (dx,)

    return _record(out, (x,), fn, "maxpool2")


class RunningStats:
    """Per-channel running mean and variance for batch normalization.

    Updated in place by ``batchnorm`` in training mode with an exponential
    moving average of factor ``momentum``; read (as constants) in inference
    mode. ``eps`` is added to every variance before its square root.
    """

    __slots__ = ("mean", "var")

    momentum = 0.9
    eps = 1e-5

    def __init__(self, channels, dtype=np.float64):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)


def _bn_inputs(x, gamma, beta, state):
    """The (N, C, H, W) input of a batchnorm, checked against its C-channel parameters."""
    xb = _maps(x.data)
    c = xb.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(
            f"gamma/beta must have shape ({c},), got {gamma.data.shape} and {beta.data.shape}"
        )
    if state.mean.shape != (c,):
        raise ValueError(f"running stats track {state.mean.shape[0]} channels, input has {c}")
    return xb


def _normalized(xb, mu, var, eps, out=None):
    """(xhat, ivar): xb standardized per channel by mu and var, xhat in ``out`` if given."""
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = np.subtract(xb, mu[None, :, None, None], out=out)
    xhat *= ivar[None, :, None, None]
    return xhat, ivar


def _batch_normalized(xb, state, out=None):
    """``_normalized`` by the batch statistics over (N, H, W).

    Folds those statistics into ``state``'s running mean and variance in
    place. The variance is the biased (1/m) estimate.
    """
    mu = xb.mean(axis=(0, 2, 3))
    var = xb.var(axis=(0, 2, 3))
    m = state.momentum
    state.mean *= m
    state.mean += (1.0 - m) * mu
    state.var *= m
    state.var += (1.0 - m) * var
    return _normalized(xb, mu, var, state.eps, out)


def _bn_grads(g, xhat, ivar, gdata, training, out=None):
    """(dx, dgamma, dbeta) of ``gamma * xhat + beta`` for output gradient g.

    In training, dx also flows through the batch mean and variance. dgamma
    and dbeta are summed first, so ``out`` may be g itself: dx is built
    there if given, else in one new map, and every later step runs in
    place; one more map holds the products with xhat.
    """
    tmp = g * xhat
    dgamma = tmp.sum(axis=(0, 2, 3))
    dbeta = g.sum(axis=(0, 2, 3))
    dx = np.multiply(g, gdata[None, :, None, None], out=out)  # dxhat
    if training:
        # dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * ivar
        mean_dxhat = dx.mean(axis=(0, 2, 3), keepdims=True)
        np.multiply(dx, xhat, out=tmp)
        mean_dxhat_xhat = tmp.mean(axis=(0, 2, 3), keepdims=True)
        dx -= mean_dxhat
        dx -= np.multiply(xhat, mean_dxhat_xhat, out=tmp)
    dx *= ivar[None, :, None, None]
    return (dx, dgamma, dbeta)


def batchnorm(x, gamma, beta, state, training):
    """Per-channel batch normalization.

    Training mode normalizes with the batch statistics over (N, H, W) and
    updates ``state`` in place; inference mode normalizes with the stored
    running statistics. Variance is the biased (1/m) estimate throughout.

    The network does not call it: training runs ``batchnorm_act``
    and inference folds batchnorm into the conv. It stays for the
    acceptance criteria and as the reference ``batchnorm_act`` is tested
    against.
    """
    xb = _bn_inputs(x, gamma, beta, state)
    if training:
        xhat, ivar = _batch_normalized(xb, state)
    else:
        xhat, ivar = _normalized(xb, state.mean, state.var, state.eps)
    gdata = gamma.data
    out = gdata[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def fn(g):
        return _bn_grads(g, xhat, ivar, gdata, training)

    return _record(out, (x, gamma, beta), fn, "batchnorm")


def _affine(xhat, gdata, bdata, out=None):
    """``gamma * xhat + beta`` per channel, in ``out`` if given."""
    h = np.multiply(gdata[None, :, None, None], xhat, out=out)
    h += bdata[None, :, None, None]
    return h


def affine_act(xhat, gamma, beta, alpha, out=None):
    """The activation ``batchnorm_act`` computes from its normalized map, bit for bit.

    ``leaky_relu(gamma * xhat + beta, alpha)`` on arrays, per channel,
    written into ``out`` if given; nothing is recorded. A caller that let
    an activation go after the forward pass rebuilds it from ``xhat`` here.
    """
    h = _affine(xhat, gamma, beta, out)
    # relu's own constant 0.0, not alpha * h: 0 * h would turn +Inf into NaN
    # and a negative h into -0.0
    return np.maximum(h, alpha * h if alpha else 0.0, out=h)


def batchnorm_act(x, gamma, beta, state, alpha, out=None, keep=None):
    """``leaky_relu(batchnorm(x, gamma, beta, state, True), alpha, out)`` as one op.

    alpha 0 is ``relu``. The values, running statistics and gradients are
    bit-identical to the two ops', but the map ``gamma * xhat + beta`` is
    written straight into ``out`` (a channel slice of a dense block's
    feature buffer, say) and activated there, and the recorded node keeps
    only ``xhat`` and ``ivar``: its VJP rebuilds the activation's slope, 1
    or ``alpha`` at each value, from them with the forward's own
    arithmetic, instead of the activation keeping a mask of its own (fused
    batchnorm and activation; Rota Bulò et al. 2018, arXiv:1712.02616).

    ``xhat`` is written into ``keep`` when it is given, and the VJP reads
    it there. The caller may reuse that array in between, provided it puts
    ``xhat`` back before the VJP runs (see ``recompute``).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"batchnorm_act needs 0 <= alpha < 1, got {alpha}")
    xb = _bn_inputs(x, gamma, beta, state)
    xhat, ivar = _batch_normalized(xb, state, keep)
    gdata, bdata = gamma.data, beta.data
    h = affine_act(xhat, gdata, bdata, alpha, out)

    def fn(g):
        # the activation's gradient, written over the rebuilt map: the slope
        # max(gh > 0, alpha) is 1.0 where the map is positive and alpha
        # elsewhere (NaN too) only for 0 <= alpha < 1, which the check above
        # enforces. 1.0 * g is g, so these are the bits of
        # where(gh > 0, g, g * alpha).
        gh = _affine(xhat, gdata, bdata)
        np.greater(gh, 0.0, out=gh)
        np.maximum(gh, alpha, out=gh)
        gh *= g
        return _bn_grads(gh, xhat, ivar, gdata, True, out=gh)

    return _record(h, (x, gamma, beta), fn, "batchnorm_act")


def recompute(x, fn):
    """``x``, recorded as an identity op whose VJP first calls ``fn()``.

    A sweep runs that VJP before the VJP of any op recorded before ``x``.
    So a caller may overwrite arrays that those ops read after recording
    them, if ``fn`` rebuilds the arrays in place (gradient checkpointing;
    Chen et al. 2016, arXiv:1604.06174). A dense block uses it to keep one
    copy of each layer's output (see ``hpsep.network.DenseBlock``).
    """

    def vjp(g):
        fn()
        return (g,)

    return _record(x.data, (x,), vjp, "recompute")


# -- elementwise nonlinearities -------------------------------------------


def leaky_relu(x, alpha, out=None):
    """``max(x, alpha * x)``, which is leaky ReLU for 0 <= alpha < 1 only.

    ``out`` is an array of the input's shape and dtype, for instance a
    channel slice of a dense block's feature buffer, and the result
    Tensor's data is then that array. ``np.maximum`` passes a NaN through,
    where ``np.where(x > 0, x, 0)`` would give 0. At alpha 0 the second
    operand is the constant 0.0, as in ``affine_act``: 0 * x would turn
    -inf into NaN and a negative x into -0.0. The VJP reads the sign of the
    kept input, which the output shares, so ``out`` may be the input.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"leaky_relu needs 0 <= alpha < 1, got {alpha}")
    xd = x.data

    def fn(g):
        return (np.where(xd > 0, g, g * alpha),)

    return _record(np.maximum(xd, alpha * xd if alpha else 0.0, out=out), (x,), fn, "leaky_relu")


def relu(x, out=None):
    """``max(x, 0)``: ``leaky_relu`` at slope 0, kept for criterion 1 and the tests."""
    return leaky_relu(x, 0.0, out)


def sigmoid(x):
    # split by sign to avoid overflow in exp
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)

    def fn(g):
        return (g * out * (1.0 - out),)

    return _record(out, (x,), fn, "sigmoid")


def log1p(x):
    if np.min(x.data, initial=0.0) <= -1.0:
        raise ValueError("log1p requires inputs > -1")
    xd = x.data
    out = np.log1p(xd)

    def fn(g):
        return (g / (1.0 + xd),)

    return _record(out, (x,), fn, "log1p")


def concat_channels(tensors):
    """Concatenate feature maps along the channel axis (axis -3)."""
    return concat_prefix(tensors, np.concatenate([t.data for t in tensors], axis=-3))


def concat_prefix(tensors, buffer):
    """``concat_channels(tensors)`` as a zero-copy view of ``buffer``.

    The caller guarantees that the leading channels of ``buffer`` already
    hold the tensors' values, side by side in order, as a dense block's
    feature buffer does. The result is the view of those channels; it is
    recorded under the ``concat_channels`` tag with a VJP that splits the
    gradient back to the tensors. Every channel concatenation is recorded here.
    """
    if not tensors:
        raise ValueError("concat_prefix needs at least one input")
    sizes = [t.data.shape[-3] for t in tensors]
    width = sum(sizes)
    for t in tensors:
        if t.data.shape[:-3] + t.data.shape[-2:] != buffer.shape[:-3] + buffer.shape[-2:]:
            raise ValueError(f"part of shape {t.data.shape} does not fit buffer {buffer.shape}")
    if width > buffer.shape[-3]:
        raise ValueError(f"parts span {width} channels, buffer has {buffer.shape[-3]}")

    def fn(g):
        return tuple(g[..., e - s : e, :, :] for s, e in zip(sizes, accumulate(sizes)))

    out = buffer[..., :width, :, :]
    return _record(out, tuple(tensors), fn, "concat_channels")


# -- finite-difference verification ----------------------------------------


def numeric_gradient(loss_fn, tensor, eps=1e-5):
    """Central-difference gradient of ``loss_fn()`` w.r.t. ``tensor``.

    ``loss_fn`` must rebuild the forward pass from the current tensor
    values and return a scalar Tensor or float. It runs 2 * size times,
    so keep the inputs small.
    """
    base = tensor.data
    grad = np.zeros_like(base)
    # indexed in place: reshape would step a copy of a non-contiguous array
    for i in np.ndindex(base.shape):
        orig = base[i]
        base[i] = orig + eps
        hi = _scalar(loss_fn())
        base[i] = orig - eps
        lo = _scalar(loss_fn())
        base[i] = orig
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def _scalar(value):
    if isinstance(value, Tensor):
        return value.item()
    return float(value)


def assert_gradients_match(loss_fn, tensors, eps=1e-5, rtol=1e-4, atol=1e-7, names=None):
    """Check backward against central differences for each tensor.

    Passes when |analytic - numeric| <= atol + rtol * max(|analytic|,
    |numeric|) elementwise. Raises AssertionError naming the worst
    offender otherwise. Returns the largest scaled discrepancy seen.
    """
    if names is None:
        names = [f"tensor{i}" for i in range(len(tensors))]
    elif len(names) != len(tensors):
        raise ValueError(f"{len(names)} names for {len(tensors)} tensors")
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    for name, t in zip(names, tensors):
        if t.grad is None:
            raise AssertionError(f"{name}: no gradient reached this tensor")
        analytic = t.grad
        numeric = numeric_gradient(loss_fn, t, eps=eps)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        err = np.abs(analytic - numeric) - atol - rtol * scale
        if np.any(err > 0):
            i = np.unravel_index(np.argmax(err), err.shape)
            raise AssertionError(
                f"{name}: gradient mismatch at {i}: "
                f"analytic={analytic[i]:.10g} numeric={numeric[i]:.10g}"
            )
        denom = np.maximum(scale, atol)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst
