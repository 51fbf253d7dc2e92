"""Mask estimation network and its building blocks.

The separator runs three parallel multi-scale encoder-decoder branches
over the input magnitude patch, one per kernel shape: 3x3 (square
context), 13x1 (tall, spanning frequency), and 1x13 (wide, spanning
time). Their outputs are concatenated and fused by one densely connected
block with LeakyReLU activations, and two independent 1x1 convolution
heads squash the fused features into percussive and harmonic masks with
a sigmoid.

Every block is densely connected: layer i receives the concatenation of
the block input and all previous layer outputs, so with input width n
and growth rate k its input width is n + (i - 1) * k, and a block of L
layers carries L * (L + 1) / 2 internal connections. The block output is
the last layer's k channels.

A block stores those concatenations in one feature buffer of
n + (L - 1) * k channels (the shared-storage layout of memory-efficient
DenseNets, Pleiss et al. 2017, arXiv:1707.06990). The block input's
parts are copied once into its first n channels, every layer but the
last writes its activation into the next k, and every layer reads a
zero-copy view of the buffer's leading channels. A block thus keeps
O(L) maps alive for backward instead of the O(L^2) of one concatenated
copy per layer.

Branches downsample with 2x2 max pooling ``depth`` times, pass a
bottleneck block, and upsample back with 2x2 stride-2 transposed
convolutions; each decoder block's parts are the upsampled map and the
same-scale encoder output, and the fusion block's the branch outputs.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .dsp import GlobalStats
from .tensor import RunningStats, Tensor

__all__ = [
    "BRANCH_KERNELS",
    "NetworkConfig",
    "ParamStore",
    "CompositeLayer",
    "DenseBlock",
    "MultiScaleBranch",
    "MaskSeparator",
    "param_count",
    "save_checkpoint",
    "load_checkpoint",
]

BRANCH_KERNELS = ((3, 3), (13, 1), (1, 13))


@dataclass
class NetworkConfig:
    """Architecture hyperparameters shared by all three branches."""

    # Sized so the trainable parameter count lands near 555k (acceptance
    # criterion 3 and the param-count CLI command pin it). At these values
    # the model holds exactly 552,062 trainable scalars.
    growth_rate: int = 10
    layers_per_block: int = 5
    depth: int = 4
    final_block_layers: int = 4
    leaky_alpha: float = 0.01
    branch_kernels: tuple = BRANCH_KERNELS

    def __post_init__(self):
        for name in ("growth_rate", "layers_per_block", "depth", "final_block_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.leaky_alpha < 1.0:
            raise ValueError(f"leaky_alpha must be in [0, 1), got {self.leaky_alpha}")
        for kh, kw in self.branch_kernels:
            if kh % 2 == 0 or kw % 2 == 0:
                raise ValueError(f"branch kernels must have odd dims, got {kh}x{kw}")


class ParamStore:
    """Flat, ordered registry of trainable parameters and fixed buffers.

    Parameter names mirror the module hierarchy (for example
    ``branch1.enc0.layer2.conv.weight``), which gives the optimizer,
    checkpoint format, and diagnostics a single stable namespace.

    A store opened on ``records`` (name -> stored array) fills each
    parameter it makes and buffer it adds from the record of that name,
    checking the shape first, so a model built from records is never
    larger than they are. ``records`` keeps what nothing took.
    """

    def __init__(self, records=None):
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.records = None if records is None else dict(records)

    def _take(self, name, shape):
        """The record of ``name`` with ``shape``, or None without records."""
        if self.records is None:
            return None
        stored = self.records.pop(name, None)
        if stored is None:
            raise ValueError(f"checkpoint mismatch: no record {name!r}")
        if stored.shape != shape:
            raise ValueError(f"shape mismatch for {name!r}: stored {stored.shape}, model {shape}")
        return stored

    def add_param(self, name, array):
        if name in self.params or name in self.buffers:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(array, requires_grad=True)
        self.params[name] = t
        return t

    def make_param(self, name, shape, init):
        """A parameter of ``shape``: its record, else ``init(shape)``."""
        stored = self._take(name, shape)
        return self.add_param(name, init(shape) if stored is None else stored)

    def add_buffer(self, name, array):
        if name in self.params or name in self.buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        stored = self._take(name, array.shape)
        if stored is not None:
            array[...] = stored
        self.buffers[name] = array
        return array

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None


def param_count(store):
    """Number of trainable scalars (buffers such as running stats excluded)."""
    return sum(t.data.size for t in store.params.values())


def _he_uniform(rng, shape, fan_in, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class _Conv:
    """Stride-1 same-padding convolution with bias."""

    def __init__(self, store, name, c_in, c_out, kernel, rng, dtype):
        kh, kw = kernel
        self.weight = store.make_param(
            f"{name}.weight", (c_out, c_in, kh, kw),
            lambda s: _he_uniform(rng, s, c_in * kh * kw, dtype),
        )
        self.bias = store.make_param(f"{name}.bias", (c_out,), lambda s: np.zeros(s, dtype))

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias)


class _UpConv:
    """2x2 stride-2 transposed convolution with bias (spatial doubling)."""

    def __init__(self, store, name, c_in, c_out, rng, dtype):
        self.weight = store.make_param(
            f"{name}.weight", (c_in, c_out, 2, 2), lambda s: _he_uniform(rng, s, c_in * 4, dtype)
        )
        self.bias = store.make_param(f"{name}.bias", (c_out,), lambda s: np.zeros(s, dtype))

    def __call__(self, x):
        return T.transposed_conv2(x, self.weight, self.bias)


class _BatchNorm:
    def __init__(self, store, name, channels, dtype):
        self.gamma = store.make_param(f"{name}.gamma", (channels,), lambda s: np.ones(s, dtype))
        self.beta = store.make_param(f"{name}.beta", (channels,), lambda s: np.zeros(s, dtype))
        self.state = RunningStats(channels, dtype=dtype)
        store.add_buffer(f"{name}.running_mean", self.state.mean)
        store.add_buffer(f"{name}.running_var", self.state.var)

    def __call__(self, x, training):
        return T.batchnorm(x, self.gamma, self.beta, self.state, training)


class CompositeLayer:
    """conv -> batchnorm -> activation, the unit every block is made of."""

    def __init__(self, store, name, c_in, c_out, kernel, rng, dtype,
                 activation="relu", alpha=0.01):
        if activation not in ("relu", "leaky_relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.conv = _Conv(store, f"{name}.conv", c_in, c_out, kernel, rng, dtype)
        self.bn = _BatchNorm(store, f"{name}.bn", c_out, dtype)
        self.activation = activation
        self.alpha = alpha
        self.in_channels = c_in
        self.out_channels = c_out

    def forward(self, x, training, out=None):
        """The layer's activation, written into the array ``out`` if given."""
        h = self.bn(self.conv(x), training)
        if self.activation == "relu":
            return T.relu(h, out=out)
        return T.leaky_relu(h, self.alpha, out=out)


class DenseBlock:
    """L composite layers with dense (all-to-all forward) connectivity.

    ``forward(parts, training)`` takes the block input as a list of parts.
    The i-th layer consumes them concatenated with every previous layer
    output; the block output is the last layer's ``growth_rate``
    channels. The concatenations share one feature buffer per forward
    pass (see the module docstring).
    """

    def __init__(self, store, name, in_channels, growth_rate, layers, kernel, rng,
                 dtype, activation="relu", alpha=0.01):
        self.in_channels = in_channels
        self.out_channels = growth_rate
        self.layers = []
        self.connection_count = 0
        accumulated = [in_channels]
        for i in range(1, layers + 1):
            width = sum(accumulated)
            # the dense concatenation must follow the n + (i - 1) * k rule
            assert width == in_channels + (i - 1) * growth_rate, (
                f"{name}: layer {i} sees {width} channels, "
                f"expected {in_channels + (i - 1) * growth_rate}"
            )
            self.layers.append(
                CompositeLayer(
                    store, f"{name}.layer{i - 1}", width, growth_rate, kernel, rng,
                    dtype, activation=activation, alpha=alpha,
                )
            )
            self.connection_count += len(accumulated)
            accumulated.append(growth_rate)

    def forward(self, parts, training):
        c, k = self.in_channels, self.out_channels
        last = len(self.layers) - 1
        x = parts[0].data
        buf = np.empty(x.shape[:-3] + (c + last * k,) + x.shape[-2:], dtype=x.dtype)
        np.concatenate([p.data for p in parts], axis=-3, out=buf[..., :c, :, :])
        feats = list(parts)
        for i, layer in enumerate(self.layers):
            dest = buf[..., c + i * k : c + (i + 1) * k, :, :] if i < last else None
            feats.append(layer.forward(T.concat_prefix(feats, buf), training, out=dest))
        return feats[-1]


class MultiScaleBranch:
    """Encoder-decoder over one kernel shape with skip connections.

    ``depth`` pooling stages halve both spatial dims each time, a
    bottleneck block sits at the coarsest scale, and each decoder stage
    upsamples, concatenates the same-scale encoder output, and refines
    with another dense block. Output width is ``growth_rate`` channels
    at the input resolution.
    """

    def __init__(self, store, name, in_channels, cfg, kernel, rng, dtype):
        k = cfg.growth_rate
        L = cfg.layers_per_block
        self.depth = cfg.depth
        self.enc = []
        c = in_channels
        for s in range(cfg.depth):
            self.enc.append(
                DenseBlock(store, f"{name}.enc{s}", c, k, L, kernel, rng, dtype)
            )
            c = k
        self.mid = DenseBlock(store, f"{name}.mid", c, k, L, kernel, rng, dtype)
        self.up = []
        self.dec = []
        for s in reversed(range(cfg.depth)):
            self.up.append(_UpConv(store, f"{name}.up{s}", k, k, rng, dtype))
            self.dec.append(
                DenseBlock(store, f"{name}.dec{s}", 2 * k, k, L, kernel, rng, dtype)
            )
        self.out_channels = k

    def forward(self, x, training):
        skips = []
        h = x
        for block in self.enc:
            h = block.forward([h], training)
            skips.append(h)
            h = T.maxpool2(h)
        h = self.mid.forward([h], training)
        for up, dec, skip in zip(self.up, self.dec, reversed(skips)):
            h = dec.forward([up(h), skip], training)
        return h


class MaskSeparator:
    """Three-branch dense masking network with two sigmoid heads.

    ``forward`` maps a (1, H, W) magnitude patch, or a batch of them, to
    a (percussive, harmonic) mask pair of the same spatial size with
    values strictly inside (0, 1). H and W must be divisible by
    2 ** depth. Given ``records`` (see ``ParamStore``), the model takes
    its parameters and buffers from them instead of initializing them.
    """

    def __init__(self, cfg=None, seed=0, dtype=np.float64, records=None):
        self.cfg = cfg or NetworkConfig()
        self.store = ParamStore(records)
        rng = np.random.Generator(np.random.PCG64(seed))
        k = self.cfg.growth_rate
        self.branches = [
            MultiScaleBranch(self.store, f"branch{i}", 1, self.cfg, kernel, rng, dtype)
            for i, kernel in enumerate(self.cfg.branch_kernels)
        ]
        fused_in = k * len(self.branches)
        self.fuse = DenseBlock(
            self.store, "fuse", fused_in, k, self.cfg.final_block_layers, (3, 3),
            rng, dtype, activation="leaky_relu", alpha=self.cfg.leaky_alpha,
        )
        self.head_perc = _Conv(self.store, "head_perc", k, 1, (1, 1), rng, dtype)
        self.head_harm = _Conv(self.store, "head_harm", k, 1, (1, 1), rng, dtype)

    def forward(self, x, training=False):
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if data.ndim not in (3, 4):
            raise ValueError(f"expected (1, H, W) or (N, 1, H, W), got shape {data.shape}")
        if data.shape[-3] != 1:
            raise ValueError(f"expected a single input channel, got {data.shape[-3]}")
        h, w = data.shape[-2:]
        scale = 2**self.cfg.depth
        if h % scale or w % scale:
            raise ValueError(
                f"spatial dims must be divisible by {scale} for depth "
                f"{self.cfg.depth}, got {h}x{w}"
            )
        if not isinstance(x, Tensor):
            x = Tensor(data)
        outs = [branch.forward(x, training) for branch in self.branches]
        fused = self.fuse.forward(outs, training)
        mask_p = T.sigmoid(self.head_perc(fused))
        mask_h = T.sigmoid(self.head_harm(fused))
        return mask_p, mask_h


# -- checkpoint serialization ------------------------------------------------
#
# Binary layout (all integers little-endian):
#   magic  b"HPSS"
#   u16    format version (currently 1)
#   u32 x4 growth_rate, layers_per_block, depth, final_block_layers
#   f64    leaky_alpha
#   f64 x2 normalization stats (min, max of log1p magnitude)
#   then one record per parameter and buffer, in registry order:
#     u16  name length, then that many UTF-8 bytes
#     u8   dtype tag (0 = float32, 1 = float64)
#     u8   rank
#     u32  per dimension
#     raw  little-endian payload
# Branch kernel shapes are read back off each branch's first conv weight.

_MAGIC = b"HPSS"
_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_checkpoint(path, cfg, stats, store):
    """Write architecture config, normalization stats, and all arrays.

    The bytes go to a sibling ``<name>.tmp`` that then replaces ``path`` in
    one rename, so a write that fails partway leaves the previous
    checkpoint intact.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        _write_checkpoint(tmp, cfg, stats, store)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_checkpoint(path, cfg, stats, store):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(
            struct.pack(
                "<IIII",
                cfg.growth_rate,
                cfg.layers_per_block,
                cfg.depth,
                cfg.final_block_layers,
            )
        )
        fh.write(struct.pack("<ddd", cfg.leaky_alpha, stats.min_val, stats.max_val))
        entries = [(n, t.data) for n, t in store.params.items()]
        entries += list(store.buffers.items())
        for name, arr in entries:
            tag = _DTYPE_TAGS.get(arr.dtype)
            if tag is None:
                raise ValueError(f"cannot serialize dtype {arr.dtype} of {name!r}")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", tag, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=_TAG_DTYPES[tag]).tobytes())


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path, dtype=np.float64):
    """Rebuild a MaskSeparator and its normalization stats from disk.

    Rejects unknown magics and versions, non-finite stats and records that
    hold NaN or Inf. Records are matched as the model is built (see
    ``ParamStore``), and none may be left over, so a corrupt or hostile
    file fails with ValueError having allocated about its own size, never
    a model larger than the file.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, "magic") != _MAGIC:
            raise ValueError(f"{path} is not a separator checkpoint")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        k, layers, depth, final_layers = struct.unpack("<IIII", _read_exact(fh, 16, "config"))
        alpha, stat_min, stat_max = struct.unpack("<ddd", _read_exact(fh, 24, "stats"))
        if not (math.isfinite(stat_min) and math.isfinite(stat_max)):
            raise ValueError(f"non-finite normalization stats: min={stat_min}, max={stat_max}")
        arrays = {}
        while True:
            head = fh.read(2)
            if not head:
                break
            if len(head) != 2:
                raise ValueError("truncated checkpoint record header")
            (name_len,) = struct.unpack("<H", head)
            name = _read_exact(fh, name_len, "record name").decode("utf-8")
            tag, rank = struct.unpack("<BB", _read_exact(fh, 2, f"{name} header"))
            if tag not in _TAG_DTYPES:
                raise ValueError(f"unknown dtype tag {tag} for {name!r}")
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"{name} dims"))
            dt = _TAG_DTYPES[tag]
            nbytes = math.prod(dims) * dt.itemsize
            # read(n) allocates n bytes however few the file still holds
            if nbytes > size - fh.tell():
                raise ValueError(f"truncated checkpoint while reading {name} payload")
            payload = _read_exact(fh, nbytes, f"{name} payload")
            if name in arrays:
                raise ValueError(f"duplicate record {name!r}")
            stored = np.frombuffer(payload, dtype=dt).reshape(dims)
            if not np.isfinite(stored).all():
                raise ValueError(f"record {name!r} holds non-finite values")
            arrays[name] = stored.astype(dtype)

    kernels = []
    while (w := arrays.get(f"branch{len(kernels)}.enc0.layer0.conv.weight")) is not None:
        if w.ndim != 4:
            raise ValueError(f"branch{len(kernels)} conv weight has rank {w.ndim}, expected 4")
        kernels.append(w.shape[2:])
    if not kernels:
        raise ValueError("checkpoint holds no branch")
    cfg = NetworkConfig(growth_rate=k, layers_per_block=layers, depth=depth,
                        final_block_layers=final_layers, leaky_alpha=alpha,
                        branch_kernels=tuple(kernels))
    # Building the model matches every record, so these checks only name
    # the header field that the records do not bear out.
    stored_k = arrays["branch0.enc0.layer0.conv.weight"].shape[0]
    if stored_k != k:
        raise ValueError(f"header growth_rate {k} does not match the stored "
                         f"weights ({stored_k} channels)")
    for key, name in (("depth", f"branch0.enc{depth - 1}.layer0.conv.weight"),
                      ("layers_per_block", f"branch0.enc0.layer{layers - 1}.conv.weight"),
                      ("final_block_layers", f"fuse.layer{final_layers - 1}.conv.weight")):
        if name not in arrays:
            raise ValueError(f"header {key} {getattr(cfg, key)} has no stored {name!r}")
    model = MaskSeparator(cfg, dtype=dtype, records=arrays)
    if model.store.records:
        raise ValueError(f"checkpoint mismatch: extra={sorted(model.store.records)[:3]}")
    return model, GlobalStats(min_val=stat_min, max_val=stat_max)
