"""Median-filtering separation baseline.

Steady tones put their energy in long horizontal ridges of the magnitude
spectrogram while drum hits show up as short vertical stripes. A median
across time flattens the stripes and keeps the ridges; a median across
frequency does the opposite. The two filtered power spectrograms yield
either complementary Wiener-style soft masks or binary masks.

This classical method needs no training and serves as the reference
point the learned separator is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .dsp import N_BINS, apply_masks, stft

__all__ = ["MedianConfig", "median_hpss", "median_separate"]


@dataclass
class MedianConfig:
    """Filter lengths, mask flavor, and ratio-mask parameters.

    A length of 1 turns that direction's median into the identity, which
    disables the corresponding enhancement; useful for diagnostics.
    """

    l_harm: int = 17
    l_perc: int = 17
    mask_mode: str = "soft"
    power: float = 2.0
    eps: float = 1e-12

    def __post_init__(self):
        for name, val in (("l_harm", self.l_harm), ("l_perc", self.l_perc)):
            if val < 1 or val % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 1, got {val}")
        if self.mask_mode not in ("soft", "binary"):
            raise ValueError(f"mask_mode must be 'soft' or 'binary', got {self.mask_mode!r}")
        if self.power <= 0.0:
            raise ValueError(f"power must be positive, got {self.power}")
        if self.eps < 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")


def median_hpss(mag, cfg=None):
    """Percussive and harmonic masks from median-filtered power spectrograms.

    The squared magnitude is median-filtered along time (harmonic
    enhancement) and along frequency (percussive enhancement). Soft masks
    share one denominator so they sum to exactly 1 everywhere; where both
    enhanced spectrograms vanish the energy splits evenly. Binary masks
    compare the two, with ties going to harmonic.
    """
    cfg = cfg or MedianConfig()
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2:
        raise ValueError(f"expected a 2-D magnitude matrix, got shape {mag.shape}")
    if float(mag.min()) < 0.0:
        raise ValueError("magnitude input must be nonnegative")

    power_spec = mag * mag
    harm_env = ndimage.median_filter(power_spec, size=(1, cfg.l_harm), mode="reflect")
    perc_env = ndimage.median_filter(power_spec, size=(cfg.l_perc, 1), mode="reflect")

    if cfg.mask_mode == "binary":
        mask_p = (perc_env > harm_env).astype(np.float64)
        return mask_p, 1.0 - mask_p

    pp = perc_env**cfg.power
    hh = harm_env**cfg.power
    denom = pp + hh + cfg.eps
    half = 0.5 * cfg.eps
    neutral = np.full_like(denom, 0.5)
    mask_p = np.divide(pp + half, denom, out=neutral.copy(), where=denom > 0.0)
    mask_h = np.divide(hh + half, denom, out=neutral, where=denom > 0.0)
    return mask_p, mask_h


def median_separate(samples, cfg=None, sample_rate=44100):
    """Full baseline pipeline: analyze, mask, resynthesize.

    Returns (percussive, harmonic) waveforms with the input's length.
    """
    spec = stft(samples, sample_rate)
    mag = np.abs(spec.values[:N_BINS])
    mask_p, mask_h = median_hpss(mag, cfg)
    return apply_masks(mask_p, mask_h, spec)
