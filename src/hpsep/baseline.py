"""Median-filtering separation baseline.

Steady tones put their energy in long horizontal ridges of the magnitude
spectrogram while drum hits show up as short vertical stripes. A median
across time flattens the stripes and keeps the ridges; a median across
frequency does the opposite. The two filtered power spectrograms yield
complementary Wiener-style soft masks with power 2.

Both medians span 17 bins or frames, the lengths of FitzGerald's
median-filtering separation (DAFx 2010). This classical method needs no
training and serves as the reference point the learned separator is
compared against.

Each median runs along rows as one 1-D filter over the whole array:
every row is padded at both ends by half a window of its own mirrored
values (numpy's ``"symmetric"``, which is ndimage's ``"reflect"``), the
padded rows are filtered end to end as one flat signal, and each row's
interior is kept. A window centred inside a row reads only that row and
its own padding, and a median selects a value without arithmetic, so
the envelopes equal those of a 2-D ``median_filter`` of shape (1, 17) or
(17, 1) with ``mode="reflect"`` bit for bit. SciPy runs a 1-D input
through its dedicated 1-D rank filter, several times faster than the
generic N-D footprint loop that a 2-D call takes.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .dsp import apply_masks, stft

__all__ = ["L_HARM", "L_PERC", "median_hpss", "median_separate"]

L_HARM = 17  # median length along time, frames (harmonic enhancement)
L_PERC = 17  # median length along frequency, bins (percussive enhancement)
_EPS = 1e-12  # added to the mask denominator, half of it to each numerator


def _row_medians(a, length):
    """Median of each row of 2-D ``a`` over ``length`` values, mirrored at its ends."""
    half = length // 2
    padded = np.pad(a, ((0, 0), (half, half)), mode="symmetric")
    out = ndimage.median_filter(padded.reshape(-1), size=length)
    return out.reshape(padded.shape)[:, half : half + a.shape[1]]


def median_hpss(mag):
    """Percussive and harmonic masks from median-filtered power spectrograms.

    The squared magnitude is median-filtered along time (harmonic
    enhancement) and along frequency (percussive enhancement). The soft
    masks P^2 / (P^2 + H^2) and H^2 / (P^2 + H^2) of the two envelopes
    share one denominator, so they sum to 1 everywhere; ``_EPS`` keeps it
    positive and splits the energy evenly where both envelopes vanish.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2:
        raise ValueError(f"expected a 2-D magnitude matrix, got shape {mag.shape}")
    # NaN fails both comparisons, so it is refused along with Inf
    if not (0.0 <= mag.min() and mag.max() < np.inf):
        raise ValueError("magnitude input must be finite and nonnegative")

    power_spec = mag * mag
    harm_env = _row_medians(power_spec, L_HARM)
    # the copy keeps the percussive mask C-contiguous, like the harmonic one
    perc_env = np.ascontiguousarray(_row_medians(power_spec.T, L_PERC).T)

    pp = perc_env**2
    hh = harm_env**2
    denom = pp + hh + _EPS
    half = 0.5 * _EPS
    return (pp + half) / denom, (hh + half) / denom


def median_separate(samples):
    """Full baseline pipeline: analyze, mask, resynthesize.

    Returns (percussive, harmonic) waveforms with the input's length.
    Nothing here reads the sample rate; the outputs share the input's.
    """
    spec = stft(samples)
    mask_p, mask_h = median_hpss(spec.magnitude())
    return apply_masks(mask_p, mask_h, spec)
