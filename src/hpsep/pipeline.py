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

BATCH_TILES = 4  # tiles per network forward


def estimate_masks(model, stats, spec):
    """(mask_perc, mask_harm), each (512, frames), for a Spectrogram."""
    tiles = [p.values for p in patchify(spec.magnitude()[:N_BINS])]
    masks_p = []
    masks_h = []
    for lo in range(0, len(tiles), BATCH_TILES):
        xn = normalize_values(np.stack(tiles[lo : lo + BATCH_TILES]), stats)[:, None]
        mp, mh = model.forward(Tensor(xn), training=False)
        masks_p.extend(mp.data[:, 0])
        masks_h.extend(mh.data[:, 0])
    return depatchify(masks_p, spec.frames), depatchify(masks_h, spec.frames)


def separate_samples(model, stats, samples):
    """Split a mono waveform into (percussive, harmonic) estimates of its length.

    Nothing here reads the sample rate; the outputs share the input's.
    """
    spec = stft(samples)
    mask_p, mask_h = estimate_masks(model, stats, spec)
    return apply_masks(mask_p, mask_h, spec)
