"""Time-frequency front end: analysis, patching, normalization, masking.

Analysis uses a periodic Hann window of 1024 samples hopped by 512 (50%
overlap), which satisfies the constant-overlap-add property: the shifted
windows sum to exactly 1 over the interior. Signals are zero-padded up
to a hop multiple and then reflect-padded by half a window on both ends,
so every retained sample is covered by at least two frames.

Reconstruction is weighted overlap-add. At 50% overlap every retained
sample is two windowed half-frames, divided by one fixed pattern of HOP
values, ``w[HOP:]**2 + w[:HOP]**2``, which is at least 0.5; analysis
followed by synthesis is exact up to rounding.
Window and hop are fixed (``WIN_LENGTH``, ``HOP``, ``hann_window``), so
a Spectrogram carries only its values, sample rate and signal length.

The rfft of a 1024-sample frame yields 513 bins. Spectrogram keeps all
513 so inversion loses nothing; ``magnitude`` gives the network and the
baseline the first 512 (the top bin has negligible energy at 44.1 kHz).
When masks are applied, each 512-bin mask is edge-extended over the top
bin, so complementary masks rebuild the mixture exactly.

Patches are (512, 128) tiles along time. ``patchify`` zero-pads the
frame axis once to a multiple of 128 and hands out views of that padded
matrix; ``depatchify`` joins tiles and trims them to a frame count, which
the caller keeps (``Spectrogram.frames``). A tile record holds only its
values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WIN_LENGTH",
    "HOP",
    "N_BINS",
    "PATCH_FRAMES",
    "Spectrogram",
    "MagPatch",
    "GlobalStats",
    "hann_window",
    "stft",
    "istft",
    "patchify",
    "depatchify",
    "compute_global_stats",
    "normalize_values",
    "apply_masks",
]

WIN_LENGTH = 1024
HOP = 512
N_BINS = 512          # bins seen by the mask estimator
PATCH_FRAMES = 128


def hann_window(length):
    """Periodic Hann window: 0.5 - 0.5 cos(2 pi n / N), n = 0 .. N-1."""
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


@dataclass
class Spectrogram:
    """Complex STFT, shape (WIN_LENGTH // 2 + 1, frames).

    ``orig_length`` records the sample count of the analyzed signal so
    that inversion can trim the analysis padding exactly. Two frames cover
    each of its samples, so it is at most ``(frames - 1) * HOP``.
    """

    values: np.ndarray
    sample_rate: int
    orig_length: int

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != WIN_LENGTH // 2 + 1:
            raise ValueError(
                f"expected ({WIN_LENGTH // 2 + 1}, frames) spectrogram, "
                f"got shape {self.values.shape}"
            )
        covered = (self.frames - 1) * HOP
        if not 1 <= self.orig_length <= covered:
            raise ValueError(f"orig_length {self.orig_length} is not in 1..{covered}, "
                             f"the samples that {self.frames} frames cover")

    @property
    def frames(self):
        return self.values.shape[1]

    def magnitude(self):
        """Magnitude of the network-facing bins, shape (512, frames)."""
        return np.abs(self.values[:N_BINS])


def stft(signal, sample_rate=44100):
    """Short-time Fourier transform of a mono signal.

    The signal is zero-padded to a hop multiple, reflect-padded by half a
    window on both ends, windowed (periodic Hann), and transformed. Frame
    t covers samples [t * hop, t * hop + win) of the padded signal.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a mono 1-D signal, got shape {x.shape}")
    orig = x.shape[0]
    if orig < WIN_LENGTH:
        raise ValueError(f"signal too short for analysis: {orig} < {WIN_LENGTH} samples")
    tail = (-orig) % HOP
    if tail:
        x = np.pad(x, (0, tail))
    x = np.pad(x, (HOP, HOP), mode="reflect")
    window = hann_window(WIN_LENGTH)
    frames = np.lib.stride_tricks.sliding_window_view(x, WIN_LENGTH)[::HOP]
    spectra = np.fft.rfft(frames * window, axis=1)
    return Spectrogram(spectra.T.copy(), sample_rate=sample_rate, orig_length=orig)


def istft(spec):
    """Invert a Spectrogram by weighted overlap-add.

    Retained sample k * HOP + j is frame k's second half plus frame k + 1's
    first half at offset j, both windowed, over the same two halves of the
    squared window. Output length equals ``spec.orig_length``.
    """
    window = hann_window(WIN_LENGTH)
    frames = np.fft.irfft(spec.values.T, n=WIN_LENGTH, axis=1)
    frames *= window
    acc = frames[:-1, HOP:] + frames[1:, :HOP]
    w2 = window * window
    acc /= w2[HOP:] + w2[:HOP]
    return acc.reshape(-1)[: spec.orig_length]


@dataclass
class MagPatch:
    """One (512, 128) magnitude tile."""

    values: np.ndarray


@dataclass
class GlobalStats:
    """Log-magnitude extrema of the training corpus."""

    min_val: float
    max_val: float


def patchify(mag):
    """Split a (512, frames) magnitude matrix into (512, 128) tiles.

    The frame axis is zero-padded once, up to a multiple of 128, and each
    tile's ``values`` is a view of that padded copy. ``depatchify`` with
    the input's frame count restores the input bit-exactly.
    """
    mag = np.asarray(mag)
    if mag.ndim != 2 or mag.shape[0] != N_BINS:
        raise ValueError(f"expected ({N_BINS}, frames), got shape {mag.shape}")
    if mag.shape[1] < 1:
        raise ValueError("cannot patch an empty spectrogram")
    padded = np.pad(mag, ((0, 0), (0, -mag.shape[1] % PATCH_FRAMES)))
    return [MagPatch(v) for v in np.split(padded, padded.shape[1] // PATCH_FRAMES, axis=1)]


def depatchify(tiles, frames):
    """Inverse of ``patchify``: join (512, 128) tile arrays and keep ``frames``.

    ``frames`` must end inside the last tile, as ``patchify`` frames it.
    """
    n = len(tiles)
    if frames < 1 or not (n - 1) * PATCH_FRAMES < frames <= n * PATCH_FRAMES:
        raise ValueError(f"{n} tiles of {PATCH_FRAMES} frames cannot hold {frames}")
    return np.concatenate(tiles, axis=1)[:, :frames]


def compute_global_stats(patches):
    """Min and max of log1p(magnitude) over a corpus of raw patches.

    Computed once over the training split and reused everywhere else, so
    train and test inputs share one input scaling.
    """
    lo = np.inf
    hi = -np.inf
    count = 0
    for p in patches:
        logv = np.log1p(p.values)
        lo = min(lo, float(logv.min()))
        hi = max(hi, float(logv.max()))
        count += 1
    if count == 0:
        raise ValueError("empty corpus")
    return GlobalStats(min_val=lo, max_val=hi)


def normalize_values(values, stats):
    """clamp((log1p(v) - min) / (max - min), 0, 1) with the global extrema."""
    span = stats.max_val - stats.min_val
    if not 0.0 < span < np.inf:
        raise ValueError(
            f"degenerate normalization stats: min={stats.min_val}, max={stats.max_val}"
        )
    return np.clip((np.log1p(values) - stats.min_val) / span, 0.0, 1.0)


def apply_masks(mask_perc, mask_harm, spec):
    """Apply two (512, frames) masks to a mixture Spectrogram.

    Masks multiply the raw complex spectrogram (equivalently: the raw
    magnitude recombined with the mixture phase). Each mask is extended
    over the top bin by repeating its last row, so masks that sum to one
    reconstruct the mixture exactly. Returns (percussive, harmonic)
    waveforms of length ``spec.orig_length``.
    """
    results = []
    for name, mask in (("percussive", mask_perc), ("harmonic", mask_harm)):
        m = np.asarray(mask, dtype=np.float64)
        if m.shape != (N_BINS, spec.frames):
            raise ValueError(
                f"{name} mask shape {m.shape} does not match ({N_BINS}, {spec.frames})"
            )
        if not np.all((m >= 0.0) & (m <= 1.0)):
            raise ValueError(f"{name} mask values must lie in [0, 1]")
        full = np.vstack([m, m[-1:]])
        masked = dataclasses.replace(spec, values=full * spec.values)
        results.append(istft(masked))
    return tuple(results)
