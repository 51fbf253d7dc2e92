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
copy per layer. In training it keeps one copy of each of those layers'
output, not two: the buffer holds their normalized maps until backward
reaches the block, which rebuilds the activations from them
(recomputation, as in the same paper; see ``DenseBlock``).

Branches downsample with 2x2 max pooling ``depth`` times, pass a
bottleneck block, and upsample back with 2x2 stride-2 transposed
convolutions; each decoder block's parts are the upsampled map and the
same-scale encoder output, and the fusion block's the branch outputs.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .dsp import N_BINS, PATCH_FRAMES, GlobalStats
from .tensor import RunningStats, Tensor

__all__ = [
    "BRANCH_KERNELS",
    "LEAKY_ALPHA",
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
LEAKY_ALPHA = 0.01  # negative slope of the fusion block's LeakyReLU


@dataclass
class NetworkConfig:
    """Architecture hyperparameters shared by all three branches.

    The int fields are run-config keys. ``branch_kernels`` has no config
    parser yet, and the fusion block's LeakyReLU slope is the constant
    ``LEAKY_ALPHA``. ``depth`` is at most 7: each branch halves the
    N_BINS x PATCH_FRAMES tile ``depth`` times, so ``2 ** depth`` must
    divide both sides.
    """

    # Sized so the trainable parameter count lands near 555k (acceptance
    # criterion 3 and the param-count CLI command pin it). At these values
    # the model holds exactly 552,062 trainable scalars.
    growth_rate: int = 10
    layers_per_block: int = 5
    depth: int = 4
    final_block_layers: int = 4
    branch_kernels: tuple = BRANCH_KERNELS

    def __post_init__(self):
        for name in ("growth_rate", "layers_per_block", "depth", "final_block_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # capped so that a hostile checkpoint header's depth is no huge power
        if math.gcd(N_BINS, PATCH_FRAMES) % 2 ** min(self.depth, 64):
            raise ValueError(f"depth {self.depth} is too deep for the {N_BINS}x{PATCH_FRAMES} "
                             f"tile: 2 ** depth must divide both sides")
        if not self.branch_kernels:
            raise ValueError("branch_kernels must hold at least one kernel")
        for kh, kw in self.branch_kernels:
            if kh < 1 or kw < 1 or kh % 2 == 0 or kw % 2 == 0:
                raise ValueError(f"branch_kernels must have positive odd dims, got {kh}x{kw}")


class ParamStore:
    """Flat, ordered registry of trainable parameters and fixed buffers.

    Parameter names mirror the module hierarchy (for example
    ``branch1.enc0.layer2.conv.weight``), which gives the optimizer,
    checkpoint format, and diagnostics a single stable namespace.

    A store opened on ``records``, a callable ``records(name, shape)``,
    makes each parameter from it instead of ``init``, in the order the
    model makes them: a checkpoint reader hands out its records as it reads
    them. Buffers are added as they are, for the reader to fill after.
    """

    def __init__(self, records=None):
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.records = records

    def add_param(self, name, array):
        if name in self.params or name in self.buffers:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(array, requires_grad=True)
        self.params[name] = t
        return t

    def make_param(self, name, shape, init):
        """A parameter of ``shape``: ``records(name, shape)``, else ``init(shape)``."""
        return self.add_param(name, init(shape) if self.records is None
                              else self.records(name, shape))

    def add_buffer(self, name, array):
        if name in self.params or name in self.buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        self.buffers[name] = array
        return array

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None


def param_count(store):
    """Number of trainable scalars (buffers such as running stats excluded)."""
    return sum(t.data.size for t in store.params.values())


def _conv_params(store, name, c_in, c_out, kernel, rng, dtype, transposed=False):
    """He-uniform ``<name>.weight`` and zero ``<name>.bias`` of a c_in -> c_out conv.

    The weight is (c_out, c_in, kh, kw), or (c_in, c_out, kh, kw) for a
    transposed conv, and draws from ``rng`` unless ``store`` has its record.
    """
    kh, kw = kernel
    limit = math.sqrt(6.0 / (c_in * kh * kw))
    shape = (c_in, c_out, kh, kw) if transposed else (c_out, c_in, kh, kw)
    weight = store.make_param(f"{name}.weight", shape,
                              lambda s: rng.uniform(-limit, limit, size=s).astype(dtype))
    bias = store.make_param(f"{name}.bias", (c_out,), lambda s: np.zeros(s, dtype))
    return weight, bias


class CompositeLayer:
    """conv -> batchnorm -> activation, the unit every block is made of.

    The layer owns its six arrays: the conv's ``weight`` and ``bias``,
    batchnorm's ``gamma`` and ``beta``, and the running statistics in
    ``state``, registered as ``<name>.conv.*`` and ``<name>.bn.*``. The
    activation is the layer's slope ``alpha``: LeakyReLU at that slope,
    which is ReLU at 0 and the fusion block's LeakyReLU at ``LEAKY_ALPHA``.
    The layer's first forward refuses a slope outside [0, 1).

    In training the layer records two ops: ``conv2d``, and batchnorm with
    the activation as one ``batchnorm_act``, whose node keeps only the
    normalized map (the conv's node keeps only a view of its input). In
    inference (``training`` False) the layer runs folded: batchnorm's
    running statistics are folded into the conv weight and bias (Jacob et
    al. 2018, arXiv:1712.05877), and the layer is one ``conv2d``, which
    gives the normalized map, and one ``leaky_relu`` at ``alpha``. The masks
    match the unfolded conv -> batchnorm within roundoff (about 1e-15
    relative in float64). Both modes write the activation straight into
    ``out`` when it is given.
    """

    def __init__(self, store, name, c_in, c_out, kernel, rng, dtype, alpha=0.0):
        self.weight, self.bias = _conv_params(store, f"{name}.conv", c_in, c_out, kernel,
                                              rng, dtype)
        self.gamma = store.make_param(f"{name}.bn.gamma", (c_out,), lambda s: np.ones(s, dtype))
        self.beta = store.make_param(f"{name}.bn.beta", (c_out,), lambda s: np.zeros(s, dtype))
        self.state = RunningStats(c_out, dtype=dtype)
        store.add_buffer(f"{name}.bn.running_mean", self.state.mean)
        store.add_buffer(f"{name}.bn.running_var", self.state.var)
        self.alpha = alpha

    def forward(self, x, training, out=None, keep=None):
        """The layer's activation, written into the array ``out`` if given.

        In training, the normalized map goes into the array ``keep`` if given
        (see ``T.batchnorm_act``).
        """
        if training:
            return T.batchnorm_act(T.conv2d(x, self.weight, self.bias), self.gamma,
                                   self.beta, self.state, self.alpha, out=out, keep=keep)
        return T.leaky_relu(self._folded(x), self.alpha, out=out)

    def _folded(self, x):
        """conv -> inference batchnorm as one conv."""
        scale = self.gamma.data / np.sqrt(self.state.var + self.state.eps)
        weight = self.weight.data * scale[:, None, None, None]
        bias = (self.bias.data - self.state.mean) * scale + self.beta.data
        return T.conv2d(x, Tensor(weight), Tensor(bias))


class _Scratch:
    """One flat array that the dense blocks of a model take turns to use.

    A training forward runs one block at a time, and so does a backward
    sweep (see ``DenseBlock``), so every block of a model, and every graph
    the model has recorded, shares it. ``maps`` reallocates it only when a
    request does not fit, and so it stays sized for the largest block seen.
    The first block of a forward (``branch0.enc0``) asks for the widest
    maps unless ``final_block_layers > layers_per_block``; such a config
    regrows the scratch once, at the fusion block, and the blocks before it
    keep the array they were given.
    """

    __slots__ = ("flat",)

    def __init__(self):
        self.flat = np.empty(0)

    def maps(self, shape, dtype):
        """A ``shape`` view of the array's leading values, as ``dtype``."""
        size = math.prod(shape)
        if self.flat.size < size or self.flat.dtype != dtype:
            self.flat = np.empty(size, dtype)
        return self.flat[:size].reshape(shape)


class DenseBlock:
    """L composite layers with dense (all-to-all forward) connectivity.

    ``forward(parts, training)`` takes the block input as a list of parts.
    The i-th layer consumes them concatenated with every previous layer
    output; the block output is the last layer's ``growth_rate``
    channels. The concatenations share one feature buffer per forward
    pass (see the module docstring).

    In training, every layer's batchnorm keeps its normalized map ``xhat``
    for backward, and each buffer slot would keep the activation ``y``
    beside it. The block keeps one copy instead. Its first L - 1 layers
    write ``xhat`` into ``scratch`` (a ``_Scratch``, shared with the other
    blocks of the model). Once the last layer has run, no forward op reads
    the slots again, and the block copies the maps into them, over the
    activations. The block output is recorded through ``T.recompute``, so
    before any of the block's VJPs, backward copies the maps back into the
    scratch and rebuilds each ``y`` in its slot with the forward's own
    arithmetic (``T.affine_act``). The convs then read the activations
    from the buffer and the batchnorms ``xhat`` from the scratch, as in
    the forward pass. The last layer's ``xhat`` stays with its node, since
    its activation leaves the buffer as the block output.
    """

    def __init__(self, store, name, in_channels, growth_rate, layers, kernel, rng,
                 dtype, alpha=0.0, scratch=None):
        self.in_channels = in_channels
        self.out_channels = growth_rate
        self.layers = [
            CompositeLayer(store, f"{name}.layer{i}", in_channels + i * growth_rate,
                           growth_rate, kernel, rng, dtype, alpha=alpha)
            for i in range(layers)
        ]
        self.connection_count = layers * (layers + 1) // 2
        self.scratch = _Scratch() if scratch is None else scratch

    def forward(self, parts, training):
        c, k = self.in_channels, self.out_channels
        last = len(self.layers) - 1
        x = parts[0].data
        # the block output outlives the buffer, so it is allocated first and
        # sits below it on the heap; allocated after it, it raised the peak
        # RSS of a default-model tile inference from 141 to 161 MB (glibc)
        lead, spatial = x.shape[:-3], x.shape[-2:]
        res = np.empty(lead + (k,) + spatial, dtype=x.dtype)
        buf = np.empty(lead + (c + last * k,) + spatial, dtype=x.dtype)
        np.concatenate([p.data for p in parts], axis=-3, out=buf[..., :c, :, :])
        slots = buf[..., c:, :, :]
        xhats = self.scratch.maps(slots.shape, x.dtype) if training and last else None
        feats = list(parts)
        for i, layer in enumerate(self.layers[:last]):
            ch = np.s_[..., i * k : (i + 1) * k, :, :]
            feats.append(layer.forward(T.concat_prefix(feats, buf), training, out=slots[ch],
                                       keep=None if xhats is None else xhats[ch]))
        out = self.layers[last].forward(T.concat_prefix(feats, buf), training, out=res)
        if xhats is None:
            return out
        np.copyto(slots, xhats)
        # the parameters as the forward read them, as the batchnorm nodes keep them
        acts = [(layer.gamma.data, layer.beta.data, layer.alpha) for layer in self.layers[:last]]

        def rebuild():
            np.copyto(xhats, slots)
            for i, (gamma, beta, alpha) in enumerate(acts):
                ch = np.s_[..., i * k : (i + 1) * k, :, :]
                T.affine_act(xhats[ch], gamma, beta, alpha, out=slots[ch])

        return T.recompute(out, rebuild)


class MultiScaleBranch:
    """Encoder-decoder over one kernel shape with skip connections.

    ``depth`` pooling stages halve both spatial dims each time, a
    bottleneck block sits at the coarsest scale, and each decoder stage
    upsamples, concatenates the same-scale encoder output, and refines
    with another dense block. Output width is ``growth_rate`` channels
    at the input resolution.
    """

    def __init__(self, store, name, in_channels, cfg, kernel, rng, dtype, scratch=None):
        k = cfg.growth_rate
        L = cfg.layers_per_block
        scratch = _Scratch() if scratch is None else scratch
        self.enc = []
        c = in_channels
        for s in range(cfg.depth):
            self.enc.append(DenseBlock(store, f"{name}.enc{s}", c, k, L, kernel, rng, dtype,
                                       scratch=scratch))
            c = k
        self.mid = DenseBlock(store, f"{name}.mid", c, k, L, kernel, rng, dtype,
                              scratch=scratch)
        self.up = []
        self.dec = []
        for s in reversed(range(cfg.depth)):
            self.up.append(_conv_params(store, f"{name}.up{s}", k, k, (2, 2), rng, dtype,
                                        transposed=True))
            self.dec.append(DenseBlock(store, f"{name}.dec{s}", 2 * k, k, L, kernel, rng,
                                       dtype, scratch=scratch))

    def forward(self, x, training):
        skips = []
        h = x
        for block in self.enc:
            h = block.forward([h], training)
            skips.append(h)
            h = T.maxpool2(h)
        h = self.mid.forward([h], training)
        for up, dec, skip in zip(self.up, self.dec, reversed(skips)):
            h = dec.forward([T.transposed_conv2(h, *up), skip], training)
        return h


class MaskSeparator:
    """Three-branch dense masking network with two sigmoid heads.

    ``forward`` maps a batch of magnitude patches, (N, 1, H, W), to a
    (percussive, harmonic) mask pair of the same shape with values
    strictly inside (0, 1); in inference a lone (1, H, W) patch runs as a
    batch of one and gets (1, H, W) masks. H and W must be divisible by
    2 ** depth. ``dtype`` is float32 or float64. Given ``records`` (see
    ``ParamStore``), the model takes each parameter from it as it makes
    that parameter, instead of initializing it; its buffers keep their
    initial values for the caller to fill.
    """

    def __init__(self, cfg=None, seed=0, dtype=np.float64, records=None):
        self.cfg = cfg or NetworkConfig()
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"the model's dtype must be float32 or float64, got {self.dtype}")
        self.store = ParamStore(records)
        rng = np.random.Generator(np.random.PCG64(seed))
        k = self.cfg.growth_rate
        self.scratch = _Scratch()
        self.branches = [
            MultiScaleBranch(self.store, f"branch{i}", 1, self.cfg, kernel, rng, dtype,
                             scratch=self.scratch)
            for i, kernel in enumerate(self.cfg.branch_kernels)
        ]
        fused_in = k * len(self.branches)
        self.fuse = DenseBlock(self.store, "fuse", fused_in, k, self.cfg.final_block_layers,
                               (3, 3), rng, dtype, alpha=LEAKY_ALPHA,
                               scratch=self.scratch)
        self.head_perc = _conv_params(self.store, "head_perc", k, 1, (1, 1), rng, dtype)
        self.head_harm = _conv_params(self.store, "head_harm", k, 1, (1, 1), rng, dtype)

    def forward(self, x, training=False):
        """The (percussive, harmonic) masks of ``x``, which has the model's dtype.

        ``training`` is the one mode switch. Training records the graph and
        normalizes with batch statistics. Inference records nothing, even
        with gradients on, and runs every layer folded (see
        ``CompositeLayer``). Only inference takes a lone patch, batched
        here, so no layer sees a map without its batch axis.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        data = x.data
        if data.dtype != self.dtype:
            raise ValueError(f"input is {data.dtype}, the model is {self.dtype}")
        lone = not training and data.ndim == 3
        if lone:
            x = Tensor(data[None])
        elif data.ndim != 4:
            raise ValueError(f"expected (N, 1, H, W) patches (or one (1, H, W) patch in "
                             f"inference), got shape {data.shape}")
        if x.shape[1] != 1:
            raise ValueError(f"expected a single input channel, got {x.shape[1]}")
        h, w = data.shape[-2:]
        scale = 2**self.cfg.depth
        if h % scale or w % scale:
            raise ValueError(
                f"spatial dims must be divisible by {scale} for depth "
                f"{self.cfg.depth}, got {h}x{w}"
            )
        with contextlib.nullcontext() if training else T.no_grad():
            outs = [branch.forward(x, training) for branch in self.branches]
            fused = self.fuse.forward(outs, training)
            masks = (T.sigmoid(T.conv2d(fused, *self.head_perc)),
                     T.sigmoid(T.conv2d(fused, *self.head_harm)))
        return tuple(Tensor(m.data[0]) for m in masks) if lone else masks


# -- checkpoint serialization ------------------------------------------------
#
# Binary layout (all integers little-endian):
#   magic  b"HPSS"
#   u16    format version (currently 2)
#   u32 x4 growth_rate, layers_per_block, depth, final_block_layers
#   u16    branch count, then u32 kh, u32 kw per branch kernel
#   f64 x2 normalization stats (min, max of log1p magnitude)
#   then one record per parameter and buffer, in registry order:
#     u16  name length, then that many UTF-8 bytes
#     u8   dtype tag (0 = float32, 1 = float64)
#     u8   rank
#     u32  per dimension
#     raw  little-endian payload
# The header is the whole NetworkConfig; the records are values the model
# built from it must match. Registry order is every parameter in the order
# the model makes them, then every buffer in the order it adds them, and a
# loader reads the records in that order: the last buffer's record ends
# the file. What the weights compute (the activations and their slope, the
# heads) is fixed by the version: a change to it bumps _VERSION, and a
# loader refuses every version but its own.

_MAGIC = b"HPSS"
_VERSION = 2
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_checkpoint(path, cfg, stats, store):
    """Write architecture config, normalization stats, and all arrays.

    Refuses, before writing anything, what ``load_checkpoint`` would refuse:
    non-finite stats and parameters or buffers that hold NaN or Inf. The
    bytes go to a sibling ``<name>.tmp`` that then replaces ``path`` in one
    rename, so a write that fails partway leaves the previous checkpoint
    intact.
    """
    if not (math.isfinite(stats.min_val) and math.isfinite(stats.max_val)):
        raise ValueError(
            f"non-finite normalization stats: min={stats.min_val}, max={stats.max_val}"
        )
    entries = [(n, t.data) for n, t in store.params.items()]
    entries += list(store.buffers.items())
    for name, arr in entries:
        if not np.isfinite(arr).all():
            raise ValueError(f"record {name!r} holds non-finite values")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        _write_checkpoint(tmp, cfg, stats, entries)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_checkpoint(path, cfg, stats, entries):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        kernels = cfg.branch_kernels
        fh.write(struct.pack(f"<IIIIH{2 * len(kernels)}I", cfg.growth_rate,
                             cfg.layers_per_block, cfg.depth, cfg.final_block_layers,
                             len(kernels), *(d for kernel in kernels for d in kernel)))
        fh.write(struct.pack("<dd", stats.min_val, stats.max_val))
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


def _read_record(fh, size, name, shape, dtype):
    """The next record of ``fh`` (of ``size`` bytes), which must be ``name`` of ``shape``.

    Name and shape are checked before the payload is read, and the payload
    only if the file holds it; it is returned cast to ``dtype``.
    """
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2, f"record {name!r}"))
    found = _read_exact(fh, name_len, f"record {name!r}").decode("utf-8", "replace")
    if found != name:
        raise ValueError(f"checkpoint mismatch: record {found!r} where {name!r} belongs")
    tag, rank = struct.unpack("<BB", _read_exact(fh, 2, f"{name} header"))
    if tag not in _TAG_DTYPES:
        raise ValueError(f"unknown dtype tag {tag} for {name!r}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"{name} dims"))
    if dims != shape:
        raise ValueError(f"shape mismatch for {name!r}: stored {dims}, model {shape}")
    dt = _TAG_DTYPES[tag]
    nbytes = math.prod(dims) * dt.itemsize
    # read(n) allocates n bytes however few the file still holds
    if nbytes > size - fh.tell():
        raise ValueError(f"truncated checkpoint while reading {name} payload")
    stored = np.frombuffer(_read_exact(fh, nbytes, f"{name} payload"), dtype=dt).reshape(dims)
    if not np.isfinite(stored).all():
        raise ValueError(f"record {name!r} holds non-finite values")
    with np.errstate(over="ignore"):
        array = stored.astype(dtype)
    if not np.isfinite(array).all():
        raise ValueError(f"record {name!r} overflows {np.dtype(dtype).name}")
    return array


def load_checkpoint(path, dtype=np.float64):
    """Rebuild a MaskSeparator and its normalization stats from disk.

    The header's sizes and branch kernels make the ``NetworkConfig``, which
    checks them, before any record is read. The model built from it in
    ``dtype`` then reads the records in registry order, one at a time: each
    parameter as it makes it (see ``ParamStore``), then each buffer. A
    record that is not the one the model asks for next, or not its shape,
    is refused by name before its payload is read; a file that ends early
    is truncated, and one with a byte after the last record is refused.
    Rejects unknown magics and versions, non-finite stats, and records that
    hold NaN or Inf or whose finite values overflow ``dtype`` (a float64
    1e39 read as float32). So a corrupt or hostile file fails with
    ValueError, never having built a model larger than the file. Beyond the
    model, a load holds one record at a time (its payload and its cast) and
    the header's kernel tuples: a header naming 65535 kernels costs under
    25 times the file's size.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, "magic") != _MAGIC:
            raise ValueError(f"{path} is not a separator checkpoint")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        k, layers, depth, final_layers, n = struct.unpack(
            "<IIIIH", _read_exact(fh, 18, "config"))
        flat = struct.unpack(f"<{2 * n}I", _read_exact(fh, 8 * n, "branch kernels"))
        cfg = NetworkConfig(growth_rate=k, layers_per_block=layers, depth=depth,
                            final_block_layers=final_layers,
                            branch_kernels=tuple(zip(flat[::2], flat[1::2])))
        stat_min, stat_max = struct.unpack("<dd", _read_exact(fh, 16, "stats"))
        if not (math.isfinite(stat_min) and math.isfinite(stat_max)):
            raise ValueError(f"non-finite normalization stats: min={stat_min}, max={stat_max}")
        read = functools.partial(_read_record, fh, size, dtype=dtype)
        model = MaskSeparator(cfg, dtype=dtype, records=read)
        for name, buf in model.store.buffers.items():
            buf[...] = read(name, buf.shape)
        if fh.read(1):
            raise ValueError("checkpoint has data after its last record")
    return model, GlobalStats(min_val=stat_min, max_val=stat_max)
