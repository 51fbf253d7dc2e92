"""Whole-signal separation: run the mask network over every patch.

The mixture is transformed once and its magnitude cut into 512x128
tiles. Each tile is normalized with the checkpoint's training statistics
and run through the network on its own, as one (1, 512, 128) patch in
inference mode. The mask tiles are joined and trimmed to the
spectrogram's frame count, so output length equals input length, and
applied to the mixture spectrogram with its original phase.
"""

from __future__ import annotations

from .dsp import apply_masks, depatchify, normalize_values, patchify, stft

__all__ = ["separate_samples", "estimate_masks"]


def estimate_masks(model, stats, spec):
    """(mask_perc, mask_harm), each (512, frames), for a Spectrogram."""
    masks_p = []
    masks_h = []
    for tile in patchify(spec.magnitude()):
        mp, mh = model.forward(normalize_values(tile.values, stats)[None], training=False)
        masks_p.append(mp.data[0])
        masks_h.append(mh.data[0])
    return depatchify(masks_p, spec.frames), depatchify(masks_h, spec.frames)


def separate_samples(model, stats, samples):
    """Split a mono waveform into (percussive, harmonic) estimates of its length.

    Nothing here reads the sample rate; the outputs share the input's.
    """
    spec = stft(samples)
    mask_p, mask_h = estimate_masks(model, stats, spec)
    return apply_masks(mask_p, mask_h, spec)
