"""Synthetic two-stem corpus generation and dataset directory plumbing.

Generated tracks realize the two spectrogram archetypes the separator is
built around: the harmonic stem is a sum of sustained partial stacks
(horizontal ridges), the percussive stem a train of exponentially
decaying noise bursts (vertical stripes). The mixture is the sum of the
two stored stems by construction.

A SynthSpec sets the corpus (seed, track count and length) and how
many voices and partials each track holds. The rest of a track's shape
is fixed by the module constants below: the fundamental range, partial
rolloff, envelope, onset rate, burst decay and high-band emphasis.

Randomness comes from PCG64 seeded with SeedSequence([corpus_seed,
track_seed]) and is drawn exclusively through ``Generator.random`` with
inverse-transform shaping, so a (seed, track_seed) pair draws the same
numbers on any platform, and one installation renders the same track from
them every time.

A voice is not rendered one sine per sample per partial. The track is
cut into blocks of B = isqrt(n) samples and the angle-sum identity splits
each partial into a per-block and a per-offset factor, so a voice is one
matrix product and takes about 4 P sqrt(n) sines in place of P n (see
``_harmonic_stem``). Its error is that of one sine per sample: both come
from rounding the float64 argument ``w t + phi``. Against an
extended-precision evaluation of the same draws, either way is at most
about 1e-12 off at 1.4 s, 1.2e-11 at 10 s and 5e-11 at 60 s, far below
the float32 step of a written sample.

On disk a dataset is one directory per track, the layout of a decoded
MUSDB18 corpus::

    <root>/<id>/mixture.wav
    <root>/<id>/drums.wav      percussive stem

Its tracks are the subdirectories of the root that hold mixture.wav, in
sorted order. The harmonic stem is never stored: training and
evaluation alike take it as ``mixture - drums``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import SAMPLE_RATE, read_wav, write_wav
from .dsp import WIN_LENGTH

__all__ = [
    "Track",
    "SynthSpec",
    "synth_track",
    "write_dataset",
    "track_ids",
    "read_track",
    "load_dataset",
]

NYQUIST = SAMPLE_RATE / 2.0
_PEAK_TARGET = 0.9

F0_MIN_HZ = 80.0  # fundamentals are log-uniform in [F0_MIN_HZ, F0_MAX_HZ]
F0_MAX_HZ = 660.0
PARTIAL_ROLLOFF = 1.0  # partial k has amplitude k ** -PARTIAL_ROLLOFF
ATTACK_S = 0.2  # linear fade-in and fade-out of each voice
RELEASE_S = 0.4
ONSET_RATE_HZ = 2.5  # mean rate of the Poisson burst onsets
BURST_DECAY_MS = 45.0  # exponential time constant of each burst
BAND_EMPHASIS = 0.35  # share of first-differenced (brightened) noise in a burst


@dataclass
class Track:
    """One mixture with its two stems, all equal-length mono at 44.1 kHz.

    A Track is made from its stems alone: ``mixture`` is computed as
    ``drums + harmonic_rest``, so it is their sum by construction.
    """

    id: str
    stems: dict
    mixture: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mixture = self.stems["drums"] + self.stems["harmonic_rest"]


@dataclass
class SynthSpec:
    """The corpus to render; every field maps to one config key."""

    seed: int = 0
    n_tracks: int = 10
    duration_s: float = 10.0
    voices: int = 3
    partials: int = 8

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.n_tracks < 1:
            raise ValueError("n_tracks must be >= 1")
        if not 0.0 < self.duration_s < math.inf:  # NaN fails it too
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s}")
        if round(self.duration_s * SAMPLE_RATE) < WIN_LENGTH:
            raise ValueError(f"duration_s {self.duration_s} is shorter than the "
                             f"{WIN_LENGTH}-sample analysis window")
        if self.voices < 1 or self.partials < 1:
            raise ValueError("voices and partials must be >= 1")
        if F0_MAX_HZ * self.partials >= NYQUIST:
            raise ValueError(
                f"highest partial {F0_MAX_HZ * self.partials:.0f} Hz would alias "
                f"(Nyquist {NYQUIST:.0f} Hz)"
            )


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _harmonic_stem(spec, rng, n):
    """Sum of ``spec.voices`` enveloped partial stacks, ``n`` samples long.

    Voice v's tone is ``sum_k g_k sin(w_k t + phi_k)`` with ``w_k = 2 pi k f0``
    and ``g_k = k ** -PARTIAL_ROLLOFF * gain``. It is rendered in blocks of
    B = isqrt(n) samples: at block start ``t_b`` and offset ``tau``,

        sin(w (t_b + tau) + phi) = sin(w tau) cos(w t_b + phi) + cos(w tau) sin(w t_b + phi),

    so the tone is one product of a (blocks, 2P) coefficient matrix and a
    (2P, B) sine/cosine basis, trimmed to ``n``. Voices add into one block
    matrix, so memory does not grow with their number.
    """
    t = np.arange(n) / SAMPLE_RATE
    duration = n / SAMPLE_RATE
    env = t / ATTACK_S
    release = np.subtract(duration, t, out=t)
    release /= RELEASE_S
    np.clip(np.minimum(env, release, out=env), 0.0, 1.0, out=env)
    del t, release  # one array under both names

    block = max(1, math.isqrt(n))
    blocks = -(-n // block)
    tau = np.arange(block) / SAMPLE_RATE
    t_b = np.arange(0, blocks * block, block) / SAMPLE_RATE  # equals t[b * block]
    k = np.arange(1, spec.partials + 1)
    rolloff = k ** -PARTIAL_ROLLOFF
    tones = np.zeros((blocks, block))
    for _ in range(spec.voices):
        # log-uniform fundamental keeps low and high registers equally likely
        f0 = F0_MIN_HZ * (F0_MAX_HZ / F0_MIN_HZ) ** rng.random()
        phase = 2.0 * math.pi * rng.random(spec.partials)
        g = rolloff * _uniform(rng, 0.5, 1.0)
        w = 2.0 * math.pi * k * f0
        psi = np.multiply.outer(t_b, w) + phase
        coef = np.concatenate([g * np.cos(psi), g * np.sin(psi)], axis=1)
        wtau = np.multiply.outer(w, tau)
        tones += coef @ np.concatenate([np.sin(wtau), np.cos(wtau)])
    env *= tones.ravel()[:n]
    env /= spec.voices
    return env


def _percussive_stem(rng, n):
    out = np.zeros(n)
    tau = BURST_DECAY_MS / 1000.0
    burst_len = max(8, int(round(6.0 * tau * SAMPLE_RATE)))
    decay = np.exp(-np.arange(burst_len) / (tau * SAMPLE_RATE))
    pos = 0.0
    while True:
        # exponential gaps via inverse transform of a uniform draw
        pos += -math.log(1.0 - rng.random()) / ONSET_RATE_HZ
        start = int(round(pos * SAMPLE_RATE))
        if start >= n:
            break
        length = min(burst_len, n - start)
        noise = 2.0 * rng.random(length) - 1.0
        bright = np.empty_like(noise)
        bright[0] = noise[0]
        bright[1:] = noise[1:] - noise[:-1]
        noise = (1.0 - BAND_EMPHASIS) * noise + BAND_EMPHASIS * bright
        out[start : start + length] += _uniform(rng, 0.4, 1.0) * noise * decay[:length]
    return out


def synth_track(spec, track_seed):
    """Render one deterministic Track for (spec.seed, track_seed)."""
    if track_seed < 0:
        raise ValueError("track_seed must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, track_seed])))
    n = int(round(spec.duration_s * SAMPLE_RATE))

    harm = _harmonic_stem(spec, rng, n)
    perc = _percussive_stem(rng, n)
    mix = harm + perc
    peak = float(np.max(np.abs(mix, out=mix), initial=0.0))
    del mix  # freed before the track makes its mixture, so the peak is the track's 3 arrays
    if peak > 0.0:
        # small safety factor keeps the post-sum peak under target despite rounding
        c = _PEAK_TARGET * (1.0 - 1e-9) / peak
        harm *= c
        perc *= c
    return Track(id=f"track{track_seed:03d}", stems={"drums": perc, "harmonic_rest": harm})


def write_dataset(tracks, root):
    """Write each track's mixture.wav and drums.wav under ``root/<id>/``.

    A root that already holds a track is refused before anything is
    written: a stale track left there would join the next training run.
    """
    root = Path(root)
    if root.is_dir() and track_ids(root):
        raise ValueError(f"{root} already holds tracks; write the dataset to a new directory")
    root.mkdir(parents=True, exist_ok=True)
    for track in tracks:
        tdir = root / track.id
        tdir.mkdir(exist_ok=True)
        write_wav(tdir / "mixture.wav", track.mixture)
        write_wav(tdir / "drums.wav", track.stems["drums"])


def track_ids(root):
    """Sorted names of the subdirectories of ``root`` that hold mixture.wav."""
    return sorted(d.name for d in Path(root).iterdir() if (d / "mixture.wav").is_file())


def read_track(track_dir):
    """(mixture, drums) samples of one track directory, of equal length."""
    track_dir = Path(track_dir)
    mixture, _ = read_wav(track_dir / "mixture.wav")
    drums, _ = read_wav(track_dir / "drums.wav")
    if len(mixture) != len(drums):
        raise ValueError(f"{track_dir.name}: mixture and drums lengths differ")
    return mixture, drums


def load_dataset(root):
    """(id, mixture, drums) of every track under ``root``, in id order.

    A track shorter than one analysis window is refused by its id as soon
    as it is read, before the tracks after it are.
    """
    root = Path(root)
    ids = track_ids(root)
    if not ids:
        raise FileNotFoundError(f"no track directories with mixture.wav under {root}")
    dataset = []
    for tid in ids:
        mixture, drums = read_track(root / tid)
        if len(mixture) < WIN_LENGTH:
            raise ValueError(f"{tid}: {len(mixture)} samples, shorter than one "
                             f"{WIN_LENGTH}-sample analysis window")
        dataset.append((tid, mixture, drums))
    return dataset
