"""Dense real tensors with reverse-mode automatic differentiation.

The graph of recorded operations doubles as the gradient tape: every
differentiable op records, through ``_record``, a link from its output
tensor to its inputs together with a closure that maps the output
gradient to input gradients (a vector-Jacobian product). Calling
``backward`` on a scalar walks that graph once in reverse topological
order and consumes it: only leaves keep a gradient, and each interior
node lets go of its inputs and closure as soon as its VJP has run, so
the graph's activations are freed during the sweep. A consumed graph
cannot be swept again.

Layout convention: feature maps are channel-major ``(C, H, W)``, with an
optional leading batch axis ``(N, C, H, W)``. Spatial ops accept either
rank and return the rank they were given. Data is float64 by default;
float32 is kept when the caller supplies it.

``conv2d`` follows a narrow-side rule: its forward pass, input gradient
and weight gradient each make kh*kw shifted copies of whichever of the
input or output has fewer channels, never of the wider one. With
C_out < C_in the forward pass is kn2row (one GEMM into per-tap planes,
then a shift-add; Vasudevan et al. 2017, arXiv:1704.04428).
"""

from __future__ import annotations

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
    "numeric_gradient",
    "assert_gradients_match",
]

_grad_enabled = True


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


def _as_float_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype == np.float32 or arr.dtype == np.float64:
        return arr
    return arr.astype(np.float64)


class Tensor:
    """N-dimensional real array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_float_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"

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
        return f"Tensor(shape={self.data.shape}, op={self._op!r}{flag})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch in add: {self.shape} vs {other.shape}")
            return _record(self.data + other.data, (self, other), lambda g: (g, g), "add")
        const = np.asarray(other)
        if const.shape != () and const.shape != self.shape:
            raise ValueError(f"constant shape {const.shape} does not match {self.shape}")
        return _record(self.data + const, (self,), lambda g: (g,), "add_const")

    __radd__ = __add__

    def __neg__(self):
        return _record(-self.data, (self,), lambda g: (-g,), "neg")

    def __sub__(self, other):
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch in sub: {self.shape} vs {other.shape}")
            return _record(self.data - other.data, (self, other), lambda g: (g, -g), "sub")
        return self.__add__(-np.asarray(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch in mul: {self.shape} vs {other.shape}")
            return _record(self.data * other.data, (self, other),
                           lambda g: (g * other.data, g * self.data), "mul")
        const = np.asarray(other)
        if const.shape != () and const.shape != self.shape:
            raise ValueError(f"constant shape {const.shape} does not match {self.shape}")
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

        Only valid on scalar outputs. Only leaves receive ``grad``, and
        theirs accumulate across backward calls on separately built graphs;
        reset with ``grad = None`` (see ParamStore.zero_grad). Each interior
        node drops its parents and gradient function right after its VJP
        runs, so the graph's activations and gradients are freed during the
        sweep even while the caller still holds the output. Sweeping a
        consumed graph again, or a new graph built on one of its interior
        tensors, raises ValueError before any leaf gradient changes.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        if not self.requires_grad:
            raise ValueError("output is not connected to any tracked tensor")
        order = _topo_order(self)
        grads = {id(self): np.ones_like(self.data)}
        while order:
            node = order.pop()
            g = grads.pop(id(node))
            if node._op == "leaf":
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
            node._parents = ()
            node._backward = None


def _from_op(data, parents, backward_fn, op):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = True
    out.grad = None
    out._parents = tuple(parents)
    out._backward = backward_fn
    out._op = op
    return out


def _topo_order(root):
    """Depth-first postorder over tracked ancestors; parents precede users."""
    GRAY, BLACK = 1, 2
    order = []
    state = {id(root): GRAY}
    stack = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            if not child.requires_grad:
                continue
            s = state.get(id(child))
            if s == GRAY:
                raise AssertionError("cycle in autodiff graph")
            if s is None:
                state[id(child)] = GRAY
                stack.append((child, iter(child._parents)))
                advanced = True
                break
        if not advanced:
            if node._op != "leaf" and node._backward is None:
                raise ValueError(
                    f"a {node._op!r} tensor in this graph was consumed by an earlier backward"
                )
            stack.pop()
            state[id(node)] = BLACK
            order.append(node)
    return order


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


def _shifted_columns(xb, kh, kw):
    """Stack every kernel-tap shift of a zero-padded (N, C, H, W) map.

    Returns (N, C*kh*kw, H*W): row (c, i, j) holds the input shifted so that
    tap (i, j) of a same-padded correlation reads it at the output position.
    A 1x1 kernel has no shift, so the input itself comes back as a view.
    """
    n, c, h, wd = xb.shape
    if kh == kw == 1:
        return xb.reshape(n, c, h * wd)
    ph, pw = kh // 2, kw // 2
    xp = np.pad(xb, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, h, wd), dtype=xb.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + h, j : j + wd]
    return cols.reshape(n, c * kh * kw, h * wd)


def _shift_add(planes, kh, kw, h, wd):
    """Adjoint of ``_shifted_columns``: sum per-tap planes back onto the map.

    planes: (N, C*kh*kw, H*W) with rows ordered (c, i, j). Plane (c, i, j)
    is shifted the opposite way to tap (i, j) of ``_shifted_columns`` and
    added into channel c; whatever lands in the padding is dropped.
    Returns (N, C, H, W).
    """
    n = planes.shape[0]
    c = planes.shape[1] // (kh * kw)
    if kh == kw == 1:
        return planes.reshape(n, c, h, wd)
    ph, pw = kh // 2, kw // 2
    p = planes.reshape(n, c, kh, kw, h, wd)
    acc = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=planes.dtype)
    for i in range(kh):
        for j in range(kw):
            acc[:, :, i : i + h, j : j + wd] += p[:, :, i, j]
    return acc[:, :, ph : ph + h, pw : pw + wd]


def conv2d(x, weight, bias):
    """2-D cross-correlation with stride 1 and symmetric zero same-padding.

    weight: (C_out, C_in, kh, kw) with odd kh, kw. bias: (C_out,).
    Output spatial size equals input spatial size.

    Each of the three products (the output, dx and dw) is one GEMM plus a
    tap stack or shift-add over whichever side has fewer channels, so the
    wide side is never copied kh*kw times:

    - C_out < C_in: forward is kn2row, one GEMM of the kernel against the
      unshifted input into kh*kw*C_out per-tap planes, then a shift-add.
      Backward shifts the output gradient once and uses those copies for
      both dx and dw.
    - C_in <= C_out: forward is im2col over the input. Backward shifts the
      input for dw and computes dx kn2row-style, GEMM then shift-add.

    A 1x1 kernel makes every product a plain GEMM.
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
    xr = xb.reshape(n, c_in, h * wd)

    if narrow_out:
        # output = sum over taps of shift(W_tap @ x); _shift_add shifts the
        # opposite way, so it is fed the planes of the flipped kernel
        wrows = w[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(c_out * taps, c_in)
        planes = wrows @ xr
        out = _shift_add(planes, kh, kw, h, wd)
        out += b[:, None, None]
    else:
        cols = _shifted_columns(xb, kh, kw)
        out = (w.reshape(c_out, c_in * taps) @ cols).reshape(n, c_out, h, wd)
        out += b[:, None, None]
        del cols  # rebuilt on demand in fn; keeping it would pin kh*kw input copies

    def fn(g):
        gb = g if g.ndim == 4 else g[None]
        dx = dw = db = None
        if bias.requires_grad:
            db = gb.sum(axis=(0, 2, 3))
        if narrow_out:
            # the adjoint of tap (i, j) is the shift of the flipped tap, so one
            # stack of output-gradient shifts serves dx and dw alike
            if x.requires_grad or weight.requires_grad:
                gcols = _shifted_columns(gb, kh, kw)
            if weight.requires_grad:
                dwt = (gcols @ xr.transpose(0, 2, 1)).sum(axis=0)
                dw = dwt.reshape(c_out, kh, kw, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
            if x.requires_grad:
                wflip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(c_in, c_out * taps)
                dx = (wflip @ gcols).reshape(n, c_in, h, wd)
        else:
            gr = gb.reshape(n, c_out, h * wd)
            if weight.requires_grad:
                xcols = _shifted_columns(xb, kh, kw)
                dw = (gr @ xcols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
            if x.requires_grad:
                wrows = w.transpose(1, 2, 3, 0).reshape(c_in * taps, c_out)
                dx = _shift_add(wrows @ gr, kh, kw, h, wd)
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
        if bias.requires_grad:
            db = gb.sum(axis=(0, 2, 3))
        if weight.requires_grad:
            dw = np.empty_like(w)
        if x.requires_grad:
            dx = np.zeros_like(xb)
        for a in (0, 1):
            for c in (0, 1):
                gs = gb[:, :, a::2, c::2]
                if weight.requires_grad:
                    dw[:, :, a, c] = np.tensordot(xb, gs, axes=([0, 2, 3], [0, 2, 3]))
                if x.requires_grad:
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

    def fn(g):
        gb = g if g.ndim == 4 else g[None]
        dgamma = (gb * xhat).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
        dbeta = gb.sum(axis=(0, 2, 3)) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
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


def relu(x):
    mask = x.data > 0
    out = np.where(mask, x.data, 0.0)

    def fn(g):
        return (g * mask,)

    return _record(out, (x,), fn, "relu")


def leaky_relu(x, alpha=0.01):
    mask = x.data > 0
    out = np.where(mask, x.data, alpha * x.data)

    def fn(g):
        return (g * np.where(mask, 1.0, alpha),)

    return _record(out, (x,), fn, "leaky_relu")


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
    out = np.log1p(x.data)

    def fn(g):
        return (g / (1.0 + x.data),)

    return _record(out, (x,), fn, "log1p")


def concat_channels(tensors):
    """Concatenate feature maps along the channel axis (axis -3)."""
    if not tensors:
        raise ValueError("concat_channels needs at least one input")
    first = tensors[0].data
    for t in tensors[1:]:
        if t.data.ndim != first.ndim:
            raise ValueError("concat inputs must share rank")
        if t.data.shape[-2:] != first.shape[-2:]:
            raise ValueError(
                f"spatial mismatch in concat: {t.data.shape[-2:]} vs {first.shape[-2:]}"
            )
        if first.ndim == 4 and t.data.shape[0] != first.shape[0]:
            raise ValueError("batch mismatch in concat")
    out = np.concatenate([t.data for t in tensors], axis=-3)
    sizes = [t.data.shape[-3] for t in tensors]

    def fn(g):
        grads = []
        offset = 0
        for s in sizes:
            grads.append(g[..., offset : offset + s, :, :])
            offset += s
        return tuple(grads)

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
