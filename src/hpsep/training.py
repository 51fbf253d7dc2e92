"""Supervised training for the mask estimator.

The loss compares masked mixture magnitudes against the two ground-truth
magnitudes: with residuals r_p = m_p * x - p and r_h = m_h * x - h it is

    (lambda_p * sum(r_p**2) + lambda_h * sum(r_h**2)) / (r_p.size + r_h.size)

a weighted squared error averaged over all residual elements, so its scale
does not depend on the patch size. Masks multiply raw (unnormalized)
magnitudes; only the network input is normalized.

Ground truth comes from time-domain stems: the percussive target is the
drums stem and the harmonic target is mixture minus drums. All three have
one length, so stft -> magnitude -> ``dsp.tiles`` gives them one framing.
``train`` joins each split's tiles into three (tiles, 1, 512, 128) arrays
of x, p and h, and a batch indexes all three with one set of rows.

Optimization is ADAM with bias correction. After each epoch the validation
loss drives a plateau schedule set by TrainConfig's class constants: each 3
epochs without a fall of more than IMPROVE_TOL halve the learning rate, 15
stop the run. The split holds out VAL_FRACTION of the tracks, none trained on.

The loop is single-threaded; with a fixed seed two runs produce
bit-identical trajectories (64-bit arithmetic).
"""

from __future__ import annotations

import csv
import enum
import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dsp import MagPatch, compute_global_stats, normalize_values, stft, tiles
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
    "ground_truth_tiles",
    "split_tracks",
    "train",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
VAL_FRACTION = 0.2  # share of the tracks held out for validation
IMPROVE_TOL = 1e-7  # a validation loss must fall by more than this to improve


class TrainingError(RuntimeError):
    """Raised when training cannot proceed (bad inputs, divergence)."""


@dataclass
class TrainConfig:
    """The fields are run-config keys; the loss weights and schedule are fixed ClassVars."""

    lambda_p: ClassVar[float] = 0.5
    lambda_h: ClassVar[float] = 0.5
    plateau_patience: ClassVar[int] = 3
    plateau_factor: ClassVar[float] = 0.5
    stop_patience: ClassVar[int] = 15
    lr0: float = 1e-3
    batch_size: int = 8
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails the range check
        if not 0.0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be finite and positive, got {self.lr0}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class Example:
    """Mixture, percussive and harmonic tiles; built only for perfbench, criterion 7 and tests."""

    x: MagPatch
    p: MagPatch
    h: MagPatch


@dataclass
class TrainState:
    moments: dict
    lr: float
    rng: np.random.Generator
    step: int = 0
    best_val: float = math.inf
    stale_epochs: int = 0  # epochs since the last improvement


class Decision(enum.Enum):
    CONTINUE = "continue"
    REDUCE_LR = "reduce_lr"
    STOP = "stop"


def masking_loss(mask_p, mask_h, x, p, h, lambda_p=TrainConfig.lambda_p,
                 lambda_h=TrainConfig.lambda_h):
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
    ``IMPROVE_TOL``. The stop check runs first, so a history that is stale
    long enough stops even on an epoch where a reduction would also fire.
    """
    if val_loss < state.best_val - IMPROVE_TOL:
        state.best_val = val_loss
        state.stale_epochs = 0
        return Decision.CONTINUE
    state.stale_epochs += 1
    if state.stale_epochs >= cfg.stop_patience:
        return Decision.STOP
    if state.stale_epochs % cfg.plateau_patience == 0:
        state.lr *= cfg.plateau_factor
        return Decision.REDUCE_LR
    return Decision.CONTINUE


def ground_truth_tiles(mix, drums):
    """(x, p, h): ``dsp.tiles`` of the magnitudes of mix, drums and mix - drums.

    The harmonic target waveform is computed in the time domain, so the
    three signals share one length and their tiles one framing.
    """
    mix = np.asarray(mix, dtype=np.float64)
    drums = np.asarray(drums, dtype=np.float64)
    if mix.shape != drums.shape:
        raise ValueError(f"length mismatch: mix {mix.shape}, drums {drums.shape}")
    return tuple(tiles(stft(s).magnitude()) for s in (mix, drums, mix - drums))


def make_ground_truth(mix, drums):
    """``ground_truth_tiles`` as Examples; only perfbench, criterion 7 and tests call this."""
    return [Example(*(MagPatch(a[0]) for a in t)) for t in zip(*ground_truth_tiles(mix, drums))]


def split_tracks(n_tracks, rng):
    """Shuffled track-level split, VAL_FRACTION held out; at least one track on each side."""
    if n_tracks < 2:
        raise TrainingError("need at least 2 tracks for a train/validation split")
    n_val = min(n_tracks - 1, max(1, round(VAL_FRACTION * n_tracks)))
    order = rng.permutation(n_tracks)
    return sorted(order[n_val:].tolist()), sorted(order[:n_val].tolist())


@dataclass
class TrainResult:
    epochs: int
    best_val_loss: float
    checkpoint_path: str
    metrics_path: str
    stopped_early: bool
    train_track_indices: list
    val_track_indices: list


def _split_tiles(tracks, indices):
    """x, p and h tiles of the indexed tracks, each one (tiles, 1, 512, 128) array."""
    parts = list(zip(*(ground_truth_tiles(*tracks[i]) for i in indices)))
    # a part's per-track arrays are freed once it is joined: one part is held twice at most
    return tuple(np.concatenate(parts.pop(0)) for _ in range(3))


def _epoch_loss(model, split, stats, cfg):
    """Mean per-element loss over a split's (x, p, h) tiles, no gradients."""
    total = 0.0
    for lo in range(0, len(split[0]), cfg.batch_size):
        xr, pr, hr = (a[lo : lo + cfg.batch_size] for a in split)
        mp, mh = model.forward(Tensor(normalize_values(xr, stats)), training=False)
        val = masking_loss(mp, mh, xr, pr, hr).item()
        total += val * len(xr)
    return total / len(split[0])


def train(tracks, net_cfg=None, cfg=None, *, checkpoint_path):
    """Fit a separator on (mixture, drums) waveform pairs.

    Saves a checkpoint whenever the validation loss improves (and once
    before the first epoch, so an aborted run still leaves a loadable
    model). Appends one metrics row per epoch to
    ``<checkpoint_path>.metrics.csv``. Refuses an empty corpus and a
    checkpoint path in a missing directory or naming a directory before any
    STFT, and a silent corpus before writing either file (``NetworkConfig``
    refuses a depth too deep for the tile). Returns a TrainResult.
    """
    net_cfg = net_cfg or NetworkConfig()
    cfg = cfg or TrainConfig()
    if len(tracks) == 0:
        raise TrainingError("empty dataset")
    out_dir = os.path.dirname(os.fspath(checkpoint_path)) or "."
    if not os.path.isdir(out_dir):
        raise TrainingError(f"checkpoint directory {out_dir} does not exist")
    if os.path.isdir(checkpoint_path):
        raise TrainingError(f"checkpoint path {checkpoint_path} is a directory")
    split_rng = np.random.Generator(np.random.PCG64(cfg.seed))
    train_idx, val_idx = split_tracks(len(tracks), split_rng)

    train_split = _split_tiles(tracks, train_idx)
    val_split = _split_tiles(tracks, val_idx)
    stats = compute_global_stats(map(MagPatch, train_split[0][:, 0]))
    if not stats.max_val > stats.min_val:
        raise TrainingError(
            "training mixtures have no magnitude range (log-magnitude min "
            f"{stats.min_val}, max {stats.max_val}): a silent corpus cannot be normalized"
        )

    model = MaskSeparator(net_cfg, seed=cfg.seed)
    state = init_train_state(model.store, cfg)
    metrics_path = f"{checkpoint_path}.metrics.csv"
    save_checkpoint(checkpoint_path, model.cfg, stats, model.store)
    with open(metrics_path, "w", newline="") as fh:
        csv.writer(fh).writerow(["epoch", "train_loss", "val_loss", "lr"])

    epochs_run = 0
    stopped = False
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        lr_used = state.lr
        order = state.rng.permutation(len(train_split[0]))
        total = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            xr, pr, hr = (a[order[lo : lo + cfg.batch_size]] for a in train_split)
            mp, mh = model.forward(Tensor(normalize_values(xr, stats)), training=True)
            loss = masking_loss(mp, mh, xr, pr, hr)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(
                    f"training loss became non-finite in epoch {epoch}; "
                    f"last good checkpoint kept at {checkpoint_path}"
                )
            model.store.zero_grad()
            loss.backward()
            adam_step(model.store, state)
            total += value * len(xr)
        train_loss = total / len(order)
        val_loss = _epoch_loss(model, val_split, stats, cfg)
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
        if state.stale_epochs == 0:
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
