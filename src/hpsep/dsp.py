"""Time-frequency front end: analysis, patching, normalization, masking.

Analysis uses a periodic Hann window of 1024 samples hopped by 512 (50%
overlap), which satisfies the constant-overlap-add property: the shifted
windows sum to exactly 1 over the interior. Signals are zero-padded up
to a hop multiple and then reflect-padded by half a window on both ends,
so every retained sample is covered by at least two frames.

Reconstruction is weighted overlap-add: the synthesis window is applied
a second time and the accumulated signal is divided pointwise by the
summed squared window. That normalizer stays >= 0.5 over the retained
region, and analysis followed by synthesis is exact up to rounding.

The rfft of a 1024-sample frame yields 513 bins. Spectrogram keeps all
513 so inversion loses nothing; the network-facing magnitude patches use
the first 512 (the top bin carries negligible music energy at 44.1 kHz).
When masks are applied, each 512-bin mask is edge-extended over the top
bin, so complementary masks rebuild the mixture exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

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
_NORM_FLOOR = 1e-8    # overlap-add normalizer floor, never active over retained samples


def hann_window(length):
    """Periodic Hann window: 0.5 - 0.5 cos(2 pi n / N), n = 0 .. N-1."""
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


@dataclass
class Spectrogram:
    """Complex STFT, shape (win_length // 2 + 1, frames).

    ``orig_length`` records the sample count of the analyzed signal so
    that inversion can trim the analysis padding exactly.
    """

    values: np.ndarray
    sample_rate: int
    orig_length: int
    win_length: int = WIN_LENGTH
    hop: int = HOP
    window: np.ndarray = field(default_factory=lambda: hann_window(WIN_LENGTH))

    def __post_init__(self):
        if self.win_length != 2 * self.hop:
            raise ValueError(
                f"hop must be half the window: got hop={self.hop}, win={self.win_length}"
            )
        if self.window.shape != (self.win_length,):
            raise ValueError("window length does not match win_length")
        if self.values.ndim != 2 or self.values.shape[0] != self.win_length // 2 + 1:
            raise ValueError(
                f"expected ({self.win_length // 2 + 1}, frames) spectrogram, "
                f"got shape {self.values.shape}"
            )
        if self.orig_length < 1:
            raise ValueError("orig_length must be positive")

    @property
    def frames(self):
        return self.values.shape[1]

    def magnitude(self):
        """Magnitude of all bins, shape (513, frames)."""
        return np.abs(self.values)


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
    return Spectrogram(spectra.T.copy(), sample_rate=sample_rate, orig_length=orig,
                       window=window)


def istft(spec):
    """Invert a Spectrogram by weighted overlap-add.

    Applies the synthesis window, accumulates frames, divides by the
    summed squared window, and trims the analysis padding. Output length
    equals ``spec.orig_length``.
    """
    frames = spec.frames
    window = spec.window
    time_frames = np.fft.irfft(spec.values.T, n=spec.win_length, axis=1) * window
    total = (frames - 1) * spec.hop + spec.win_length
    acc = np.zeros(total)
    norm = np.zeros(total)
    w2 = window * window
    for t in range(frames):
        s = t * spec.hop
        acc[s : s + spec.win_length] += time_frames[t]
        norm[s : s + spec.win_length] += w2
    rec = acc / np.maximum(norm, _NORM_FLOOR)
    return rec[spec.hop : spec.hop + spec.orig_length]


@dataclass
class MagPatch:
    """One (512, 128) magnitude tile plus its position in the full track.

    ``pad_frames`` counts trailing zero columns added to fill the final
    tile; ``normalized`` flags log-compressed min-max values in [0, 1] as
    opposed to raw magnitudes.
    """

    values: np.ndarray
    origin_frame: int
    pad_frames: int = 0
    normalized: bool = False

    def __post_init__(self):
        if self.values.shape != (N_BINS, PATCH_FRAMES):
            raise ValueError(
                f"patch must be ({N_BINS}, {PATCH_FRAMES}), got {self.values.shape}"
            )
        if self.origin_frame < 0 or not 0 <= self.pad_frames < PATCH_FRAMES:
            raise ValueError("invalid patch bookkeeping")
        lo = float(self.values.min())
        hi = float(self.values.max())
        if self.normalized:
            if lo < 0.0 or hi > 1.0:
                raise ValueError("normalized patch values must lie in [0, 1]")
        elif lo < 0.0:
            raise ValueError("raw magnitude patch must be nonnegative")


@dataclass
class GlobalStats:
    """Log-magnitude extrema of the training corpus."""

    min_val: float
    max_val: float


def patchify(mag):
    """Split a (512, frames) magnitude matrix into non-overlapping tiles.

    The final tile is zero-padded on the right and the pad width recorded
    so that ``depatchify`` restores the input bit-exactly.
    """
    mag = np.asarray(mag)
    if mag.ndim != 2 or mag.shape[0] != N_BINS:
        raise ValueError(f"expected ({N_BINS}, frames), got shape {mag.shape}")
    total = mag.shape[1]
    if total < 1:
        raise ValueError("cannot patch an empty spectrogram")
    patches = []
    for start in range(0, total, PATCH_FRAMES):
        chunk = mag[:, start : start + PATCH_FRAMES]
        pad = PATCH_FRAMES - chunk.shape[1]
        if pad:
            chunk = np.pad(chunk, ((0, 0), (0, pad)))
        patches.append(MagPatch(np.ascontiguousarray(chunk), origin_frame=start, pad_frames=pad))
    return patches


def depatchify(patches):
    """Inverse of ``patchify``: reassemble tiles and drop the recorded pad."""
    if not patches:
        raise ValueError("no patches to assemble")
    for i, p in enumerate(patches):
        if p.origin_frame != i * PATCH_FRAMES:
            raise ValueError("patches must be contiguous and ordered")
        if p.pad_frames and i != len(patches) - 1:
            raise ValueError("only the final patch may be padded")
    total = len(patches) * PATCH_FRAMES - patches[-1].pad_frames
    out = np.concatenate([p.values for p in patches], axis=1)
    return out[:, :total]


def compute_global_stats(patches):
    """Min and max of log1p(magnitude) over a corpus of raw patches.

    Computed once over the training split and reused everywhere else, so
    train and test inputs share one input scaling.
    """
    lo = np.inf
    hi = -np.inf
    count = 0
    for p in patches:
        if p.normalized:
            raise ValueError("global stats must be computed from raw patches")
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
    if not span > 0.0:
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
        if float(m.min()) < 0.0 or float(m.max()) > 1.0:
            raise ValueError(f"{name} mask values must lie in [0, 1]")
        full = np.vstack([m, m[-1:]])
        masked = dataclasses.replace(spec, values=full * spec.values)
        results.append(istft(masked))
    return tuple(results)
