"""Supervised training for the mask estimator.

The loss compares masked mixture magnitudes against the two ground-truth
magnitudes: with residuals r_p = m_p * x - p and r_h = m_h * x - h it is

    (lambda_p * sum(r_p**2) + lambda_h * sum(r_h**2)) / (r_p.size + r_h.size)

a weighted squared error averaged over all residual elements, so its scale
does not depend on the patch size. Masks multiply raw (unnormalized)
magnitudes; only the network input is normalized.

Ground truth comes from time-domain stems: the percussive target is the
drums stem and the harmonic target is mixture minus drums, all three run
through the identical stft -> magnitude -> patchify framing.

Optimization is ADAM with bias correction. After each epoch the validation
loss drives a plateau schedule: no improvement for 3 epochs halves the
learning rate, no improvement for 15 stops the run. The split is at track
level so no validation content is ever trained on.

The loop is single-threaded; with a fixed seed two runs produce
bit-identical trajectories (64-bit arithmetic).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .dsp import (
    N_BINS,
    MagPatch,
    compute_global_stats,
    normalize_values,
    patchify,
    stft,
)
from .network import MaskSeparator, NetworkConfig, save_checkpoint
from .tensor import Tensor

__all__ = [
    "TrainingError",
    "TrainConfig",
    "TrainState",
    "TrainResult",
    "Example",
    "Decision",
    "masking_loss",
    "init_train_state",
    "adam_step",
    "schedule_epoch",
    "make_ground_truth",
    "split_tracks",
    "train",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Raised when training cannot proceed (bad inputs, divergence)."""


@dataclass
class TrainConfig:
    lambda_p: float = 0.5
    lambda_h: float = 0.5
    lr0: float = 1e-3
    batch_size: int = 8
    plateau_patience: int = 3
    plateau_factor: float = 0.5
    stop_patience: int = 15
    max_epochs: int = 100
    seed: int = 0
    val_fraction: float = 0.2
    improve_tol: float = 1e-7

    def __post_init__(self):
        if self.lambda_p < 0 or self.lambda_h < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError(f"plateau_factor must be in (0, 1), got {self.plateau_factor}")
        if self.plateau_patience < 1 or self.stop_patience < 1:
            raise ValueError("patience values must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.improve_tol < 0:
            raise ValueError("improve_tol must be nonnegative")


@dataclass
class Example:
    """Aligned raw-magnitude patches: mixture, percussive GT, harmonic GT."""

    x: MagPatch
    p: MagPatch
    h: MagPatch

    def __post_init__(self):
        for other in (self.p, self.h):
            if other.values.shape != self.x.values.shape:
                raise ValueError("example patches must share one shape")
            if (other.origin_frame, other.pad_frames) != (
                self.x.origin_frame,
                self.x.pad_frames,
            ):
                raise ValueError("example patches must share framing")
        if self.x.normalized or self.p.normalized or self.h.normalized:
            raise ValueError("examples hold raw patches; normalize at batch time")


@dataclass
class TrainState:
    moments: dict
    lr: float
    rng: np.random.Generator
    step: int = 0
    best_val: float = math.inf
    epochs_since_improve_lr: int = 0
    epochs_since_improve_stop: int = 0


class Decision(enum.Enum):
    CONTINUE = "continue"
    REDUCE_LR = "reduce_lr"
    STOP = "stop"


def masking_loss(mask_p, mask_h, x, p, h, lambda_p=0.5, lambda_h=0.5):
    """Weighted masking error, averaged over all residual elements.

    masks are Tensors; x, p, h are raw magnitude arrays of the same shape.
    Returns a scalar Tensor differentiable w.r.t. the masks.
    """
    x = np.asarray(x)
    p = np.asarray(p)
    h = np.asarray(h)
    shapes = {mask_p.shape, mask_h.shape, x.shape, p.shape, h.shape}
    if len(shapes) != 1:
        raise ValueError(f"shape mismatch across loss inputs: {sorted(shapes)}")
    rp = mask_p * x - p
    rh = mask_h * x - h
    scale = 1.0 / (x.size + x.size)
    return ((rp * rp).sum() * lambda_p + (rh * rh).sum() * lambda_h) * scale


def init_train_state(store, cfg):
    moments = {
        name: (np.zeros_like(t.data), np.zeros_like(t.data))
        for name, t in store.params.items()
    }
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return TrainState(moments=moments, lr=cfg.lr0, rng=rng)


def adam_step(store, state):
    """One ADAM update over every parameter in the store, in place.

    Uses the gradients left by the latest backward pass. Every parameter
    must have one; a non-finite gradient aborts by name so divergence is
    attributable.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name, param in store.params.items():
        g = param.grad
        if g is None:
            raise TrainingError(f"no gradient recorded for {name}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name}")
        m, v = state.moments[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        param.data = param.data - state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def schedule_epoch(val_loss, state, cfg):
    """Advance the plateau schedule with one epoch's validation loss.

    Improvement means a strict decrease below the best seen, beyond
    ``improve_tol``. The stop check runs first, so a history that is stale
    long enough stops even on an epoch where a reduction would also fire.
    """
    if val_loss < state.best_val - cfg.improve_tol:
        state.best_val = val_loss
        state.epochs_since_improve_lr = 0
        state.epochs_since_improve_stop = 0
        return Decision.CONTINUE
    state.epochs_since_improve_lr += 1
    state.epochs_since_improve_stop += 1
    if state.epochs_since_improve_stop >= cfg.stop_patience:
        return Decision.STOP
    if state.epochs_since_improve_lr >= cfg.plateau_patience:
        state.lr *= cfg.plateau_factor
        state.epochs_since_improve_lr = 0
        return Decision.REDUCE_LR
    return Decision.CONTINUE


def make_ground_truth(mix, drums, sample_rate=44100):
    """Build aligned Examples from a mixture and its drums stem.

    The harmonic target waveform is mix - drums, computed in the time
    domain before any transform, so the three spectrograms share framing
    exactly.
    """
    mix = np.asarray(mix, dtype=np.float64)
    drums = np.asarray(drums, dtype=np.float64)
    if mix.shape != drums.shape:
        raise ValueError(f"length mismatch: mix {mix.shape}, drums {drums.shape}")
    harmonic = mix - drums
    mags = [
        stft(samples, sample_rate).magnitude()[:N_BINS]
        for samples in (mix, drums, harmonic)
    ]
    return [
        Example(x=px, p=pp, h=ph)
        for px, pp, ph in zip(patchify(mags[0]), patchify(mags[1]), patchify(mags[2]))
    ]


def split_tracks(n_tracks, val_fraction, rng):
    """Shuffled track-level split; at least one track on each side."""
    if n_tracks < 2:
        raise TrainingError("need at least 2 tracks for a train/validation split")
    n_val = min(n_tracks - 1, max(1, round(val_fraction * n_tracks)))
    order = rng.permutation(n_tracks)
    return sorted(order[n_val:].tolist()), sorted(order[:n_val].tolist())


@dataclass
class TrainResult:
    epochs: int
    best_val_loss: float
    checkpoint_path: str
    metrics_path: str
    stopped_early: bool
    train_track_indices: list = field(default_factory=list)
    val_track_indices: list = field(default_factory=list)


def _batch_arrays(examples, stats):
    xn = np.stack([normalize_values(e.x.values, stats) for e in examples])[:, None]
    xr = np.stack([e.x.values for e in examples])[:, None]
    pr = np.stack([e.p.values for e in examples])[:, None]
    hr = np.stack([e.h.values for e in examples])[:, None]
    return xn, xr, pr, hr


def _epoch_loss(model, examples, stats, cfg, batch_size):
    """Mean per-element loss over a fixed example list, no gradients."""
    total = 0.0
    with T.no_grad():
        for lo in range(0, len(examples), batch_size):
            chunk = examples[lo : lo + batch_size]
            xn, xr, pr, hr = _batch_arrays(chunk, stats)
            mp, mh = model.forward(Tensor(xn), training=False)
            val = masking_loss(mp, mh, xr, pr, hr, cfg.lambda_p, cfg.lambda_h).item()
            total += val * len(chunk)
    return total / len(examples)


def train(tracks, net_cfg=None, cfg=None, checkpoint_path="separator.ckpt",
          metrics_path=None):
    """Fit a separator on (mixture, drums) waveform pairs.

    Saves a checkpoint whenever the validation loss improves (and once
    before the first epoch, so an aborted run still leaves a loadable
    model). Appends one metrics row per epoch. Returns a TrainResult.
    """
    net_cfg = net_cfg or NetworkConfig()
    cfg = cfg or TrainConfig()
    if len(tracks) == 0:
        raise TrainingError("empty dataset")
    split_rng = np.random.Generator(np.random.PCG64(cfg.seed))
    train_idx, val_idx = split_tracks(len(tracks), cfg.val_fraction, split_rng)

    per_track = [make_ground_truth(mix, drums) for mix, drums in tracks]
    train_examples = [e for i in train_idx for e in per_track[i]]
    val_examples = [e for i in val_idx for e in per_track[i]]
    stats = compute_global_stats([e.x for e in train_examples])

    model = MaskSeparator(net_cfg, seed=cfg.seed)
    state = init_train_state(model.store, cfg)
    metrics_path = metrics_path or f"{checkpoint_path}.metrics.csv"
    save_checkpoint(checkpoint_path, model.cfg, stats, model.store)
    with open(metrics_path, "w", newline="") as fh:
        csv.writer(fh).writerow(["epoch", "train_loss", "val_loss", "lr"])

    epochs_run = 0
    stopped = False
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        lr_used = state.lr
        order = state.rng.permutation(len(train_examples))
        total = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            chunk = [train_examples[i] for i in order[lo : lo + cfg.batch_size]]
            xn, xr, pr, hr = _batch_arrays(chunk, stats)
            mp, mh = model.forward(Tensor(xn), training=True)
            loss = masking_loss(mp, mh, xr, pr, hr, cfg.lambda_p, cfg.lambda_h)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(
                    f"training loss became non-finite in epoch {epoch}; "
                    f"last good checkpoint kept at {checkpoint_path}"
                )
            model.store.zero_grad()
            loss.backward()
            adam_step(model.store, state)
            total += value * len(chunk)
        train_loss = total / len(train_examples)
        val_loss = _epoch_loss(model, val_examples, stats, cfg, cfg.batch_size)
        if not math.isfinite(val_loss):
            raise TrainingError(
                f"validation loss became non-finite in epoch {epoch}; "
                f"last good checkpoint kept at {checkpoint_path}"
            )
        with open(metrics_path, "a", newline="") as fh:
            csv.writer(fh).writerow(
                [epoch, f"{train_loss:.10g}", f"{val_loss:.10g}", f"{lr_used:.10g}"]
            )
        decision = schedule_epoch(val_loss, state, cfg)
        if state.epochs_since_improve_stop == 0:
            save_checkpoint(checkpoint_path, model.cfg, stats, model.store)
        if decision is Decision.STOP:
            stopped = True
            break
    return TrainResult(
        epochs=epochs_run,
        best_val_loss=state.best_val,
        checkpoint_path=str(checkpoint_path),
        metrics_path=str(metrics_path),
        stopped_early=stopped,
        train_track_indices=train_idx,
        val_track_indices=val_idx,
    )
