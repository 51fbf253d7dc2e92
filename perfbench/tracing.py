"""Outside-in tracing of hpsep for the benchmark's traced runs.

Nothing under ``src/`` knows about this module. ``Tracer.installed``
replaces public functions of the hpsep modules with timing wrappers,
everywhere the function is bound (``from .dsp import stft`` binds a second
name in ``hpsep.pipeline``, so both names are patched), and restores the
originals on exit. The network's block classes are wrapped at the class
level to keep a scope stack, and ``hpsep.tensor._from_op`` -- the one
place every recorded op passes through -- is wrapped so that each gradient
function is timed by op kind and by the scope in force when it was
recorded.

A span is ``[name, start, end, parent, op_id, attrs]``. Spans stay in
memory; ``write_jsonl`` writes them out once the run is over, and
``layer_metrics`` folds them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

from hpsep import (audio_io, baseline, cli, data, dsp, metrics, network, pipeline,
                   tensor, training)

TENSOR_OPS = ("conv2d", "transposed_conv2", "maxpool2", "batchnorm", "relu",
              "leaky_relu", "sigmoid", "concat_channels")
KERNELS = ("3x3", "13x1", "1x13", "1x1")
SCOPES = tuple(f"branch{b}.{s}" for b in range(3) for s in ("enc", "mid", "dec")) + (
    "fuse", "heads")
DSP_FUNCS = ("stft", "istft", "apply_masks", "patchify", "depatchify",
             "normalize_values", "compute_global_stats")

# public functions timed as plain spans: span name -> function
_SPANNED = {
    "cli.main": cli.main,
    "pipeline.separate_samples": pipeline.separate_samples,
    "pipeline.estimate_masks": pipeline.estimate_masks,
    **{f"dsp.{n}": getattr(dsp, n) for n in DSP_FUNCS},
    "network.load_checkpoint": network.load_checkpoint,
    "network.save_checkpoint": network.save_checkpoint,
    "training.train": training.train,
    "training.loss": training.masking_loss,
    "training.adam": training.adam_step,
    "training.make_ground_truth": training.make_ground_truth,
    "baseline.median_separate": baseline.median_separate,
    "baseline.median_hpss": baseline.median_hpss,
    "metrics.evaluate_track": metrics.evaluate_track,
    "metrics.decompose": metrics.decompose,
    "metrics.write_report": metrics.write_report,
    "data.synth_track": data.synth_track,
    "data.write_dataset": data.write_dataset,
    "data.load_dataset": data.load_dataset,
}
# (class, method, span name)
_METHODS = (
    (tensor.Tensor, "backward", "tensor.backward"),
    (network.ParamStore, "zero_grad", "training.zero_grad"),
)
_MODULES = (audio_io, baseline, cli, data, dsp, metrics, network, pipeline, tensor,
            training)


def _kernel_label(kh, kw):
    return f"{kh}x{kw}"


def _conv_counts(x_shape, w_shape, itemsize):
    """(gflop, tap-copy bytes) of one same-padded conv2d forward, from shapes."""
    n = x_shape[0] if len(x_shape) == 4 else 1
    h, w = x_shape[-2:]
    c_out, c_in, kh, kw = w_shape
    gflop = 2.0 * n * c_out * c_in * kh * kw * h * w * 1e-9
    return gflop, n * c_in * kh * kw * h * w * itemsize


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self._open = []          # indices of open spans, innermost last
        self._scopes = []        # network scope stack, innermost last
        self._scope_of = {}      # id(module object) -> scope label
        self.op_id = None
        self.tape_nodes = defaultdict(int)   # (op_id, kind) -> recorded nodes
        self.peak_alloc = {}

    # -- spans -------------------------------------------------------------

    def open(self, name, attrs=None):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, attrs])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def operation(self, op_id):
        """Tag every span opened inside with ``op_id``; track its allocation peak."""
        self.op_id = op_id
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            self.peak_alloc[op_id] = tracemalloc.get_traced_memory()[1]
            self.op_id = None

    def _span_wrapper(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(tracer.spans[i], args)
                return out
            finally:
                tracer.close(i)

        return wrapper

    # -- network scopes ----------------------------------------------------

    def _resolve_scope(self, op):
        """Scope label for an op recorded now, or None outside the model.

        Ops that run in a branch between its blocks belong to the stage they
        serve: pooling closes an encoder stage, upsampling and the skip
        concat open a decoder stage. At model level the branch concat feeds
        the fusion block and everything else is the heads.
        """
        if not self._scopes:
            return None
        top = self._scopes[-1]
        if top == "model":
            return "fuse" if op == "concat_channels" else "heads"
        if top.startswith("branch") and "." not in top:
            return f"{top}.enc" if op == "maxpool2" else f"{top}.dec"
        return top

    def _model_forward(self, fn):
        tracer = self

        def forward(model, x, training=False):
            for b, branch in enumerate(model.branches):
                tracer._scope_of[id(branch)] = f"branch{b}"
                for block in branch.enc:
                    tracer._scope_of[id(block)] = f"branch{b}.enc"
                tracer._scope_of[id(branch.mid)] = f"branch{b}.mid"
                for block in branch.dec:
                    tracer._scope_of[id(block)] = f"branch{b}.dec"
            tracer._scope_of[id(model.fuse)] = "fuse"
            i = tracer.open("network.forward", {"training": bool(training)})
            tracer._scopes.append("model")
            try:
                return fn(model, x, training)
            finally:
                tracer._scopes.pop()
                tracer.close(i)

        return forward

    def _scoped_forward(self, name, fn):
        tracer = self

        def forward(module, x, training):
            scope = tracer._scope_of.get(id(module), "unknown")
            i = tracer.open(name, {"scope": scope})
            tracer._scopes.append(scope)
            try:
                return fn(module, x, training)
            finally:
                tracer._scopes.pop()
                tracer.close(i)

        return forward

    # -- tensor ops --------------------------------------------------------

    def _op_wrapper(self, op, fn):
        tracer = self
        name = f"tensor.{op}"

        def wrapper(*args, **kwargs):
            attrs = {"scope": tracer._resolve_scope(op)}
            if op == "conv2d":
                x, weight = args[0].data, args[1].data
                attrs["kernel"] = _kernel_label(*weight.shape[2:])
                attrs["gflop"], attrs["col_bytes"] = _conv_counts(
                    x.shape, weight.shape, x.itemsize)
            i = tracer.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return wrapper

    def _from_op_wrapper(self, fn):
        tracer = self

        def from_op(data, parents, backward_fn, op):
            kind = op if op in TENSOR_OPS else "arith"
            tracer.tape_nodes[tracer.op_id, kind] += 1
            attrs = {"scope": tracer._resolve_scope(op)}
            if op == "conv2d":
                x, weight = parents[0], parents[1]
                attrs["kernel"] = _kernel_label(*weight.data.shape[2:])
                gflop, col = _conv_counts(x.data.shape, weight.data.shape,
                                          x.data.itemsize)
                attrs["gflop"] = gflop * (int(x.requires_grad) + int(weight.requires_grad))
                attrs["col_bytes"] = col if weight.requires_grad else 0
            name = f"tensor.{kind}.bwd"

            def timed(g):
                i = tracer.open(name, attrs)
                try:
                    return backward_fn(g)
                finally:
                    tracer.close(i)

            return fn(data, parents, timed, op)

        return from_op

    # -- install / restore -------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        replace = {}  # id(original) -> wrapper
        for name, fn in _SPANNED.items():
            replace[id(fn)] = self._span_wrapper(name, fn)
        for fn in (audio_io.read_wav, audio_io.write_wav):
            replace[id(fn)] = self._span_wrapper(f"audio_io.{fn.__name__}", fn,
                                                 after=_record_file_size)
        for op in TENSOR_OPS:
            fn = getattr(tensor, op)
            replace[id(fn)] = self._op_wrapper(op, fn)
        replace[id(tensor._from_op)] = self._from_op_wrapper(tensor._from_op)

        patched = []
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    patched.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])
        class_patches = [
            (network.MaskSeparator, "forward",
             self._model_forward(network.MaskSeparator.forward)),
            (network.MultiScaleBranch, "forward",
             self._scoped_forward("network.branch", network.MultiScaleBranch.forward)),
            (network.DenseBlock, "forward",
             self._scoped_forward("network.block", network.DenseBlock.forward)),
        ] + [(cls, meth, self._span_wrapper(name, getattr(cls, meth)))
             for cls, meth, name in _METHODS]
        for cls, meth, wrapper in class_patches:
            patched.append((cls, meth, getattr(cls, meth)))
            setattr(cls, meth, wrapper)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            yield self
        finally:
            if started:
                tracemalloc.stop()
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id,
                                     "attrs": attrs}) + "\n")


def _record_file_size(span, args):
    path = args[0]
    span[5] = {"bytes": os.path.getsize(path)}


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _under(spans, index, name):
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _per_layer_units():
    units = {}
    for op in TENSOR_OPS:
        units.update({f"tensor.{op}.calls": "count", f"tensor.{op}.fwd_s": "s",
                      f"tensor.{op}.bwd_s": "s"})
    units.update({"tensor.arith.calls": "count", "tensor.arith.bwd_s": "s"})
    for k in KERNELS:
        units.update({f"tensor.conv2d.by_kernel.{k}.fwd_s": "s",
                      f"tensor.conv2d.by_kernel.{k}.bwd_s": "s"})
    units.update({
        "tensor.conv2d.gflop": "GFLOP_computed", "tensor.conv2d.col_mb": "MB_computed",
        "tensor.conv2d.fwd_gflops": "GFLOP/s", "tensor.conv2d.bwd_gflops": "GFLOP/s",
        "tensor.backward.s": "s", "tensor.backward.walk_s": "s",
        "tensor.tape_nodes": "count", "tensor.peak_alloc_mb": "MB",
    })
    for scope in SCOPES:
        units.update({f"network.{scope}.fwd_s": "s", f"network.{scope}.bwd_s": "s"})
    units.update({"network.load_checkpoint_s": "s", "network.save_checkpoint_s": "s",
                  "network.save_checkpoint.calls": "count"})
    units.update({f"dsp.{fn}_s": "s" for fn in DSP_FUNCS})
    units.update({"pipeline.estimate_masks_s": "s", "pipeline.estimate_masks.self_s": "s"})
    units.update({f"training.{n}_s": "s" for n in (
        "forward", "loss", "backward", "adam", "make_ground_truth", "val_forward")})
    units.update({"training.steps": "count", "training.train.self_s": "s",
                  "baseline.median_hpss_s": "s", "metrics.evaluate_track_s": "s",
                  "metrics.decompose_s": "s", "audio_io.read_wav_s": "s",
                  "audio_io.write_wav_s": "s", "audio_io.mb": "MB",
                  "data.synth_track_s": "s", "data.write_dataset_s": "s",
                  "data.load_dataset_s": "s", "cli.main.self_s": "s",
                  "network.scope_coverage": "ratio", "trace.e2e_s": "s",
                  "trace.closure": "ratio", "trace.overhead_s": "s"})
    return units


PER_LAYER_UNITS = _per_layer_units()


def layer_metrics(tracer, traced_times, untraced_times):
    """Per-layer metrics, each per operation averaged over the traced ones.

    Operation ids are 0 .. len(traced_times) - 1 and ``traced_times`` are
    their end-to-end times as the benchmark loop measured them.
    ``data.synth_track_s`` and ``data.write_dataset_s`` come from the
    traced set-up (op id "setup") instead, the only place those calls run.
    ``trace.closure`` sums the self times of every span but ``cli.main``:
    on workloads whose operation is one CLI call, that span covers the
    whole operation, so its self time would make up for any layer inside
    it that went untraced.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    n = len(traced_times)
    ops = set(range(n))
    tot = defaultdict(float)
    setup = defaultdict(float)
    for i, (name, start, end, _, op_id, attrs) in enumerate(spans):
        dur = end - start
        if op_id == "setup":
            setup[f"{name}_s"] += dur
        if op_id not in ops:
            continue
        attrs = attrs or {}
        if name != "cli.main":  # CLI glue: it would absorb any untraced layer below
            tot["span_self_s"] += selfs[i]
        if name.startswith("tensor.") and name != "tensor.backward":
            kind = name.split(".")[1]
            phase = "bwd" if name.endswith(".bwd") else "fwd"
            tot[f"tensor.{kind}.{phase}_s"] += dur
            if phase == "fwd":
                tot[f"tensor.{kind}.calls"] += 1
            if kind == "conv2d":
                tot[f"tensor.conv2d.by_kernel.{attrs['kernel']}.{phase}_s"] += dur
                tot[f"gflop_{phase}"] += attrs["gflop"]
                tot["tensor.conv2d.col_mb"] += attrs["col_bytes"] / 1e6
            if attrs.get("scope"):
                tot[f"network.{attrs['scope']}.{phase}_s"] += selfs[i]
        elif name == "network.block":
            tot[f"network.{attrs['scope']}.fwd_s"] += selfs[i]
        elif name == "network.forward":
            tot["network.forward_s"] += dur
            if attrs["training"]:
                tot["training.forward_s"] += dur
            elif _under(spans, i, "training.train"):
                tot["training.val_forward_s"] += dur
        elif name == "tensor.backward":
            tot["tensor.backward.s"] += dur
            tot["training.backward_s"] += dur
            tot["tensor.backward.walk_s"] += selfs[i]
        else:
            tot[f"{name}_s"] += dur
            tot[f"{name}.self_s"] += selfs[i]
            if name.startswith("audio_io."):
                tot["audio_io.mb"] += attrs["bytes"] / 1e6
            elif name == "network.save_checkpoint":
                tot["network.save_checkpoint.calls"] += 1
            elif name == "training.adam":
                tot["training.steps"] += 1
    for (op_id, kind), count in tracer.tape_nodes.items():
        if op_id in ops:
            tot["tensor.tape_nodes"] += count
            if kind == "arith":
                tot["tensor.arith.calls"] += count

    out = {name: tot.get(name, 0.0) / n for name in PER_LAYER_UNITS}
    out["tensor.conv2d.gflop"] = (tot["gflop_fwd"] + tot["gflop_bwd"]) / n
    fwd_s, bwd_s = out["tensor.conv2d.fwd_s"], out["tensor.conv2d.bwd_s"]
    out["tensor.conv2d.fwd_gflops"] = tot["gflop_fwd"] / n / fwd_s if fwd_s else 0.0
    out["tensor.conv2d.bwd_gflops"] = tot["gflop_bwd"] / n / bwd_s if bwd_s else 0.0
    out["data.synth_track_s"] = setup["data.synth_track_s"]
    out["data.write_dataset_s"] = setup["data.write_dataset_s"]
    out["tensor.peak_alloc_mb"] = max(tracer.peak_alloc.get(o, 0) for o in ops) / 1e6
    forward = tot["network.forward_s"]
    scoped = sum(tot[f"network.{s}.fwd_s"] for s in SCOPES)
    out["network.scope_coverage"] = scoped / forward if forward else 1.0
    out["trace.e2e_s"] = statistics.fmean(traced_times)
    out["trace.closure"] = tot["span_self_s"] / sum(traced_times)
    out["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced_times)
    return out
