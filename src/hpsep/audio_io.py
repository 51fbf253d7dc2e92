"""WAV reading and writing.

Readable inputs are RIFF/WAVE files holding 16-bit PCM or 32-bit IEEE
float, mono or stereo; stereo is downmixed by averaging the channels.
Float files holding NaN or Inf are rejected.
Everything downstream runs at 44.1 kHz, so other rates are rejected
(there is no resampler here). Output is always 44.1 kHz float-32 mono,
which round-trips bit-exactly.
A file that ends inside its data chunk is rejected as truncated.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.io import wavfile

__all__ = ["AudioError", "SAMPLE_RATE", "read_wav", "wav_samples", "write_wav"]

SAMPLE_RATE = 44100
_PCM16_SCALE = 32768.0


class AudioError(ValueError):
    """Unreadable, unsupported, non-finite, or wrong-rate audio file."""


def read_wav(path):
    """Read a 44.1 kHz WAV file into (float64 mono samples, SAMPLE_RATE).

    16-bit PCM is scaled by 1/32768 so full-scale positive reads as
    32767/32768. Stereo becomes the mean of the two channels.
    """
    try:
        with warnings.catch_warnings():
            # scipy returns the samples it found when the data chunk is cut
            # short; a truncated file is an error here, not a shorter track
            warnings.filterwarnings("error", message="Reached EOF prematurely",
                                    category=wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:  # bare ValueError on bad RIFF data, or the EOF warning
        raise AudioError(f"cannot read {path}: {exc}") from exc

    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype == np.float32:
        if not np.all(np.isfinite(data)):
            raise AudioError(f"{path}: non-finite samples (NaN or Inf)")
        samples = data.astype(np.float64)
    else:
        raise AudioError(
            f"{path}: unsupported sample format {data.dtype}; "
            "expected 16-bit PCM or 32-bit float"
        )

    if samples.ndim == 2:
        if samples.shape[1] not in (1, 2):
            raise AudioError(f"{path}: expected mono or stereo, got {samples.shape[1]} channels")
        samples = samples.mean(axis=1)
    elif samples.ndim != 1:
        raise AudioError(f"{path}: unexpected sample layout {samples.shape}")

    if rate != SAMPLE_RATE:
        raise AudioError(f"{path}: sample rate {rate} Hz, expected {SAMPLE_RATE} Hz")
    return samples, rate


def wav_samples(path, samples):
    """``samples`` as the float-32 mono array ``write_wav`` writes; refusals name ``path``."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise AudioError(f"refusing to write non-mono data of shape {samples.shape} to {path}")
    with np.errstate(over="ignore"):  # a finite float64 beyond float32's range casts to Inf
        samples = samples.astype(np.float32, copy=False)
    if not np.all(np.isfinite(samples)):
        raise AudioError(f"refusing to write non-finite float32 samples to {path}")
    return samples


def write_wav(path, samples):
    """Write mono float-32 samples at SAMPLE_RATE."""
    wavfile.write(path, SAMPLE_RATE, wav_samples(path, samples))
