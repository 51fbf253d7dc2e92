"""Dense real tensors with reverse-mode automatic differentiation.

The graph of recorded operations doubles as the gradient tape. Every
differentiable op records, through ``_record``, a graph node for its
output: the closure that maps the output gradient to input gradients (a
vector-Jacobian product, VJP) and links to its inputs' places in the
graph. A link is the input's own node when the input was itself
recorded, the input Tensor when it is a tracked leaf (leaves receive
``grad``), and None for an untracked input.

The graph holds nodes, not values. A node never refers to its output
Tensor, and a VJP closure captures only the arrays and ``requires_grad``
flags it reads, never an input Tensor. So the graph retains exactly what
backward will read, and an interior output that no later VJP reads (a
conv output that only feeds a batchnorm, say) is freed as soon as the
caller drops it. Calling ``backward`` on a scalar runs the VJPs under
it once, in reverse recording order, and consumes the graph. An op is
recorded after its inputs, so that order is topological. Only leaves
keep a gradient, and each node lets go of its links and closure as soon
as its VJP has run, so the saved arrays are freed during the sweep. A
consumed graph cannot be swept again.

Layout convention: feature maps are channel-major ``(C, H, W)``, with an
optional leading batch axis ``(N, C, H, W)``. Spatial ops accept either
rank and return the rank they were given. Data is float64 by default;
float32 is kept when the caller supplies it, through constants, scalars
and gradients alike.

``conv2d`` follows a narrow-side rule: its forward pass, input gradient
and weight gradient each shift whichever of the input or output has fewer
channels, never the wider one. The kh*kw shifted copies are built for one
band of ceil(H / (kh*kw)) rows at a time, so no product holds more than
about one extra copy of the narrow side beside its zero-padded map. With
C_out < C_in the forward pass is kn2row (GEMMs into per-tap planes, then
a shift-add; Vasudevan et al. 2017, arXiv:1704.04428), which works band
by band as well (Anderson et al. 2017, arXiv:1709.03395).

``concat_prefix`` records every channel concatenation: when the parts
already sit side by side at the start of one buffer, their concatenation
is a view of that buffer. ``concat_channels`` is ``concat_prefix`` over a
fresh ``np.concatenate`` of the parts.
"""

from __future__ import annotations

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


class no_grad:
    """Context manager that suspends graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


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
        return float(self.data)

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
                if pg is None or parent is None:
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


def _batched(arr):
    """Promote (C, H, W) to (1, C, H, W); report whether promotion happened."""
    if arr.ndim == 3:
        return arr[None], True
    if arr.ndim == 4:
        return arr, False
    raise ValueError(f"expected a 3-D or 4-D feature map, got shape {arr.shape}")


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


def _shifted_columns(xp, kh, kw, r0, r1):
    """Stack every kernel-tap shift of output rows r0:r1, read from a padded map.

    xp is the (N, C, H + kh - 1, W + kw - 1) zero-padded map. Returns
    (N, C*kh*kw, (r1 - r0)*W): row (c, i, j) holds the input shifted so that
    tap (i, j) of a same-padded correlation reads it at output rows r0:r1.
    """
    n, c = xp.shape[:2]
    wd = xp.shape[3] - (kw - 1)
    cols = np.empty((n, c, kh, kw, r1 - r0, wd), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, r0 + i : r1 + i, j : j + wd]
    return cols.reshape(n, c * kh * kw, (r1 - r0) * wd)


def _shift_add(acc, planes, kh, kw, r0):
    """Adjoint of ``_shifted_columns``: add per-tap planes of rows r0.. into acc.

    acc: the (N, C, H + kh - 1, W + kw - 1) padded accumulator. planes:
    (N, C*kh*kw, rows*W) with rows ordered (c, i, j), computed from map rows
    r0:r0 + rows. Plane (c, i, j) is shifted the opposite way to tap (i, j)
    of ``_shifted_columns`` and added into channel c; what lands in the
    padding is dropped with it. Bands added bottom-up, each in (i, j) order,
    give every element its taps in (i, j) order, as one whole-map pass does.
    """
    n, c, _, wp = acc.shape
    wd = wp - (kw - 1)
    rows = planes.shape[2] // wd
    p = planes.reshape(n, c, kh, kw, rows, wd)
    for i in range(kh):
        for j in range(kw):
            acc[:, :, r0 + i : r0 + i + rows, j : j + wd] += p[:, :, i, j]


def _tap_stacks(xb, kh, kw):
    """Yield (r0, r1, stack): ``_shifted_columns`` of xb, one band at a time."""
    h = xb.shape[2]
    ph, pw = kh // 2, kw // 2
    xp = np.pad(xb, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    for r0, r1 in _bands(h, kh * kw):
        yield r0, r1, _shifted_columns(xp, kh, kw, r0, r1)


def _gemm_shift_add(a, xb, kh, kw):
    """``_shift_add`` of the per-tap planes ``a @ xb``, one band of rows at a time.

    a: (C*kh*kw, C_x) with rows ordered (c, i, j). Bands run bottom-up, so
    the sum is bit-identical to one whole-map pass. Returns (N, C, H, W).
    """
    n, _, h, wd = xb.shape
    taps = kh * kw
    ph, pw = kh // 2, kw // 2
    acc = np.zeros((n, a.shape[0] // taps, h + 2 * ph, wd + 2 * pw),
                   dtype=np.result_type(a, xb))
    for r0, r1 in reversed(_bands(h, taps)):
        _shift_add(acc, a @ _rows(xb, r0, r1), kh, kw, r0)
    return acc[:, :, ph : ph + h, pw : pw + wd]


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
    The output and dx are bit-identical to whole-map stacks; dw is summed
    over bands, which reorders its float sum.
    """
    xb, was3d = _batched(x.data)
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
    need_dx, need_dw, need_db = x.requires_grad, weight.requires_grad, bias.requires_grad

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
        gb = g if g.ndim == 4 else g[None]
        dx = dw = db = None
        if need_db:
            db = gb.sum(axis=(0, 2, 3))
        if narrow_out:
            # the adjoint of tap (i, j) is the shift of the flipped tap, so one
            # band of output-gradient shifts serves dx and dw alike
            if need_dx:
                wflip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(c_in, c_out * taps)
                dx = np.empty((n, c_in, h, wd), dtype=np.result_type(w, gb))
            if need_dx or need_dw:
                for r0, r1, gcols in _tap_stacks(gb, kh, kw):
                    if need_dw:
                        part = (gcols @ _rows(xb, r0, r1).transpose(0, 2, 1)).sum(axis=0)
                        dw = part if dw is None else dw + part
                    if need_dx:
                        np.matmul(wflip, gcols, out=_rows(dx, r0, r1))
                    del gcols
            if need_dw:
                dw = dw.reshape(c_out, kh, kw, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        else:
            if need_dw:
                for r0, r1, xcols in _tap_stacks(xb, kh, kw):
                    part = (_rows(gb, r0, r1) @ xcols.transpose(0, 2, 1)).sum(axis=0)
                    dw = part if dw is None else dw + part
                    del xcols
                dw = dw.reshape(w.shape)
            if need_dx:
                wrows = w.transpose(1, 2, 3, 0).reshape(c_in * taps, c_out)
                dx = _gemm_shift_add(wrows, gb, kh, kw)
        if dx is not None and was3d:
            dx = dx[0]
        return (dx, dw, db)

    result = out[0] if was3d else out
    return _record(result, (x, weight, bias), fn, "conv2d")


def transposed_conv2(x, weight, bias):
    """2x2 stride-2 transposed convolution: exact spatial doubling.

    weight: (C_in, C_out, 2, 2). Adjoint of a stride-2 2x2 convolution, so
    output taps never overlap.
    """
    xb, was3d = _batched(x.data)
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
    need_dx, need_dw, need_db = x.requires_grad, weight.requires_grad, bias.requires_grad
    out = np.empty((n, c_out, 2 * h, 2 * wd), dtype=xb.dtype)
    out[:] = b[None, :, None, None]
    for a in (0, 1):
        for c in (0, 1):
            out[:, :, a::2, c::2] += np.tensordot(
                xb, w[:, :, a, c], axes=([1], [0])
            ).transpose(0, 3, 1, 2)

    def fn(g):
        gb = g if g.ndim == 4 else g[None]
        dx = dw = db = None
        if need_db:
            db = gb.sum(axis=(0, 2, 3))
        if need_dw:
            dw = np.empty_like(w)
        if need_dx:
            dx = np.zeros_like(xb)
        for a in (0, 1):
            for c in (0, 1):
                gs = gb[:, :, a::2, c::2]
                if need_dw:
                    dw[:, :, a, c] = np.tensordot(xb, gs, axes=([0, 2, 3], [0, 2, 3]))
                if need_dx:
                    dx += np.tensordot(gs, w[:, :, a, c], axes=([1], [1])).transpose(0, 3, 1, 2)
        if dx is not None and was3d:
            dx = dx[0]
        return (dx, dw, db)

    result = out[0] if was3d else out
    return _record(result, (x, weight, bias), fn, "transposed_conv2")


def maxpool2(x):
    """2x2 max pooling with stride 2; gradient routes to the argmax.

    Ties resolve to the first maximum in row-major window order.
    """
    xb, was3d = _batched(x.data)
    n, c, h, w = xb.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even for 2x2 pooling, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    win = xb.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    idx = idx.astype(np.uint8)  # window positions 0-3, kept for backward

    def fn(g):
        gb = g if g.ndim == 4 else g[None]
        z = np.zeros((n, c, h2, w2, 4), dtype=gb.dtype)
        np.put_along_axis(z, idx[..., None], gb[..., None], axis=-1)
        dx = z.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        if was3d:
            dx = dx[0]
        return (dx,)

    result = out[0] if was3d else out
    return _record(result, (x,), fn, "maxpool2")


class RunningStats:
    """Per-channel running mean and variance for batch normalization.

    Updated in place by ``batchnorm`` in training mode with an exponential
    moving average; read (as constants) in inference mode.
    """

    __slots__ = ("mean", "var", "momentum", "eps")

    def __init__(self, channels, momentum=0.9, eps=1e-5, dtype=np.float64):
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0, 1), got {momentum}")
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps


def batchnorm(x, gamma, beta, state, training):
    """Per-channel batch normalization.

    Training mode normalizes with the batch statistics over (N, H, W) and
    updates ``state`` in place; inference mode normalizes with the stored
    running statistics. Variance is the biased (1/m) estimate throughout.
    """
    xb, was3d = _batched(x.data)
    c = xb.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(
            f"gamma/beta must have shape ({c},), got {gamma.data.shape} and {beta.data.shape}"
        )
    if state.mean.shape != (c,):
        raise ValueError(f"running stats track {state.mean.shape[0]} channels, input has {c}")

    if training:
        mu = xb.mean(axis=(0, 2, 3))
        var = xb.var(axis=(0, 2, 3))
        m = state.momentum
        state.mean *= m
        state.mean += (1.0 - m) * mu
        state.var *= m
        state.var += (1.0 - m) * var
    else:
        mu = state.mean
        var = state.var

    ivar = 1.0 / np.sqrt(var + state.eps)
    xhat = (xb - mu[None, :, None, None]) * ivar[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    gdata = gamma.data
    need_dx, need_dgamma, need_dbeta = x.requires_grad, gamma.requires_grad, beta.requires_grad

    def fn(g):
        gb = g if g.ndim == 4 else g[None]
        dgamma = (gb * xhat).sum(axis=(0, 2, 3)) if need_dgamma else None
        dbeta = gb.sum(axis=(0, 2, 3)) if need_dbeta else None
        dx = None
        if need_dx:
            dxhat = gb * gdata[None, :, None, None]
            if training:
                # gradient through the batch mean and variance
                mean_dxhat = dxhat.mean(axis=(0, 2, 3), keepdims=True)
                mean_dxhat_xhat = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
                dx = (dxhat - mean_dxhat - xhat * mean_dxhat_xhat) * ivar[None, :, None, None]
            else:
                dx = dxhat * ivar[None, :, None, None]
            if was3d:
                dx = dx[0]
        return (dx, dgamma, dbeta)

    result = out[0] if was3d else out
    return _record(result, (x, gamma, beta), fn, "batchnorm")


# -- elementwise nonlinearities -------------------------------------------


def _into(out, values):
    """``values`` copied into the array ``out``, or ``values`` itself if there is none."""
    if out is None:
        return values
    if out.shape != values.shape or out.dtype != values.dtype:
        raise ValueError(
            f"out is {out.dtype} {out.shape}, result is {values.dtype} {values.shape}"
        )
    out[...] = values
    return out


def relu(x, out=None):
    """``np.where(x > 0, x, 0)``.

    The values are written into ``out`` when it is given (an array of the
    input's shape and dtype, for instance a channel slice of a dense
    block's feature buffer), and the result Tensor's data is that array.
    """
    mask = x.data > 0

    def fn(g):
        return (g * mask,)

    return _record(_into(out, np.where(mask, x.data, 0.0)), (x,), fn, "relu")


def leaky_relu(x, alpha=0.01, out=None):
    """``np.where(x > 0, x, alpha * x)``; ``out`` as for ``relu``."""
    mask = x.data > 0

    def fn(g):
        return (np.where(mask, g, g * alpha),)

    values = np.where(mask, x.data, alpha * x.data)
    return _record(_into(out, values), (x,), fn, "leaky_relu")


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
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = _scalar(loss_fn())
        flat[i] = orig - eps
        lo = _scalar(loss_fn())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
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
