"""Whole-signal separation: run the mask network over every patch.

The mixture is transformed once and its magnitude cut into 512x128
tiles. Each batch of tiles is normalized with the checkpoint's training
statistics and run through the network in inference mode. The mask tiles
are joined and trimmed to the spectrogram's frame count, so output
length equals input length, and applied to the mixture spectrogram with
its original phase.
"""

from __future__ import annotations

import numpy as np

from .dsp import (
    N_BINS,
    apply_masks,
    depatchify,
    normalize_values,
    patchify,
    stft,
)
from .tensor import Tensor

__all__ = ["separate_samples", "estimate_masks"]


def estimate_masks(model, stats, spec, batch_size=4):
    """(mask_perc, mask_harm), each (512, frames), for a Spectrogram."""
    tiles = [p.values for p in patchify(spec.magnitude()[:N_BINS])]
    masks_p = []
    masks_h = []
    for lo in range(0, len(tiles), batch_size):
        xn = normalize_values(np.stack(tiles[lo : lo + batch_size]), stats)[:, None]
        mp, mh = model.forward(Tensor(xn), training=False)
        masks_p.extend(mp.data[:, 0])
        masks_h.extend(mh.data[:, 0])
    return depatchify(masks_p, spec.frames), depatchify(masks_h, spec.frames)


def separate_samples(model, stats, samples, sample_rate=44100, batch_size=4):
    """Split a mono waveform into (percussive, harmonic) estimates."""
    spec = stft(samples, sample_rate)
    mask_p, mask_h = estimate_masks(model, stats, spec, batch_size=batch_size)
    return apply_masks(mask_p, mask_h, spec)
