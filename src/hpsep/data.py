"""Synthetic two-stem corpus generation and dataset directory plumbing.

Generated tracks realize the two spectrogram archetypes the separator is
built around: the harmonic stem is a sum of sustained partial stacks
(horizontal ridges), the percussive stem a train of exponentially
decaying noise bursts (vertical stripes). The mixture is always exactly
the sum of the two stored stems.

Randomness comes from PCG64 seeded with SeedSequence([corpus_seed,
track_seed]) and is drawn exclusively through ``Generator.random`` with
inverse-transform shaping, so a (seed, track_seed) pair yields the same
track on any platform.

On disk a dataset is one directory per track::

    <root>/<id>/mixture.wav
    <root>/<id>/drums.wav      percussive stem
    <root>/<id>/other.wav      harmonic remainder stem
    <root>/manifest.tsv        id <TAB> duration_s <TAB> seed

which is also the layout of a decoded MUSDB18-style corpus, so real
stems can be dropped in via ``load_dataset(root, layout="musdb-wav")``
(directory scan, no manifest needed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import SAMPLE_RATE, read_wav, write_wav

__all__ = [
    "Track",
    "SynthSpec",
    "synth_track",
    "write_dataset",
    "load_dataset",
    "read_manifest",
]

NYQUIST = SAMPLE_RATE / 2.0
_PEAK_TARGET = 0.9


@dataclass
class Track:
    """One mixture with its two stems, all equal-length mono at 44.1 kHz."""

    id: str
    mixture: np.ndarray
    stems: dict
    duration_s: float
    seed: int | None = None

    def __post_init__(self):
        if set(self.stems) != {"drums", "harmonic_rest"}:
            raise ValueError(f"stems must be drums + harmonic_rest, got {sorted(self.stems)}")
        lengths = {len(v) for v in self.stems.values()} | {len(self.mixture)}
        if len(lengths) != 1:
            raise ValueError(f"stem/mixture lengths differ: {sorted(lengths)}")
        total = self.stems["drums"] + self.stems["harmonic_rest"]
        resid = float(np.sqrt(np.mean((self.mixture - total) ** 2)))
        ref = float(np.sqrt(np.mean(self.mixture**2)))
        if resid > 1e-6 * max(ref, 1e-30):
            raise ValueError("mixture is not the sum of the stems")


@dataclass
class SynthSpec:
    """Knobs for the generator; every field maps to one config key."""

    seed: int = 0
    n_tracks: int = 10
    duration_s: float = 10.0
    f0_min_hz: float = 80.0
    f0_max_hz: float = 660.0
    voices: int = 3
    partials: int = 8
    partial_rolloff: float = 1.0
    attack_s: float = 0.2
    release_s: float = 0.4
    onset_rate_hz: float = 2.5
    burst_decay_ms: float = 45.0
    band_emphasis: float = 0.35
    gain_harm: float = 1.0
    gain_perc: float = 1.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.n_tracks < 1:
            raise ValueError("n_tracks must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0 < self.f0_min_hz <= self.f0_max_hz:
            raise ValueError("need 0 < f0_min_hz <= f0_max_hz")
        if self.voices < 1 or self.partials < 1:
            raise ValueError("voices and partials must be >= 1")
        if self.f0_max_hz * self.partials >= NYQUIST:
            raise ValueError(
                f"highest partial {self.f0_max_hz * self.partials:.0f} Hz would alias "
                f"(Nyquist {NYQUIST:.0f} Hz)"
            )
        if self.partial_rolloff < 0:
            raise ValueError("partial_rolloff must be nonnegative")
        if self.attack_s < 0 or self.release_s < 0:
            raise ValueError("envelope times must be nonnegative")
        if self.onset_rate_hz <= 0:
            raise ValueError("onset_rate_hz must be positive")
        if self.burst_decay_ms <= 0:
            raise ValueError("burst_decay_ms must be positive")
        if not 0.0 <= self.band_emphasis <= 1.0:
            raise ValueError("band_emphasis must be in [0, 1]")
        if self.gain_harm < 0 or self.gain_perc < 0:
            raise ValueError("mix gains must be nonnegative")


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _harmonic_stem(spec, rng, n):
    t = np.arange(n) / SAMPLE_RATE
    duration = n / SAMPLE_RATE
    out = np.zeros(n)
    for _ in range(spec.voices):
        # log-uniform fundamental keeps low and high registers equally likely
        f0 = spec.f0_min_hz * (spec.f0_max_hz / spec.f0_min_hz) ** rng.random()
        tone = np.zeros(n)
        for k in range(1, spec.partials + 1):
            phase = 2.0 * math.pi * rng.random()
            tone += math.pow(k, -spec.partial_rolloff) * np.sin(
                2.0 * math.pi * k * f0 * t + phase
            )
        env = np.ones(n)
        if spec.attack_s > 0:
            env = np.minimum(env, t / spec.attack_s)
        if spec.release_s > 0:
            env = np.minimum(env, (duration - t) / spec.release_s)
        out += _uniform(rng, 0.5, 1.0) * tone * np.clip(env, 0.0, 1.0)
    return out / spec.voices


def _percussive_stem(spec, rng, n):
    out = np.zeros(n)
    tau = spec.burst_decay_ms / 1000.0
    burst_len = max(8, int(round(6.0 * tau * SAMPLE_RATE)))
    decay = np.exp(-np.arange(burst_len) / (tau * SAMPLE_RATE))
    pos = 0.0
    while True:
        # exponential gaps via inverse transform of a uniform draw
        pos += -math.log(1.0 - rng.random()) / spec.onset_rate_hz
        start = int(round(pos * SAMPLE_RATE))
        if start >= n:
            break
        length = min(burst_len, n - start)
        noise = 2.0 * rng.random(length) - 1.0
        if spec.band_emphasis > 0.0:
            bright = np.empty_like(noise)
            bright[0] = noise[0]
            bright[1:] = noise[1:] - noise[:-1]
            noise = (1.0 - spec.band_emphasis) * noise + spec.band_emphasis * bright
        out[start : start + length] += _uniform(rng, 0.4, 1.0) * noise * decay[:length]
    return out


def synth_track(spec, track_seed):
    """Render one deterministic Track for (spec.seed, track_seed)."""
    if track_seed < 0:
        raise ValueError("track_seed must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, track_seed])))
    n = int(round(spec.duration_s * SAMPLE_RATE))

    harm = spec.gain_harm * _harmonic_stem(spec, rng, n)
    perc = spec.gain_perc * _percussive_stem(spec, rng, n)
    peak = float(np.max(np.abs(harm + perc), initial=0.0))
    if peak > 0.0:
        # small safety factor keeps the post-sum peak under target despite rounding
        c = _PEAK_TARGET * (1.0 - 1e-9) / peak
        harm = harm * c
        perc = perc * c
    mixture = perc + harm  # stems are stored as-is, so this sum is exact

    return Track(
        id=f"track{track_seed:03d}",
        mixture=mixture,
        stems={"drums": perc, "harmonic_rest": harm},
        duration_s=n / SAMPLE_RATE,
        seed=track_seed,
    )


def write_dataset(tracks, root):
    """Write tracks and a manifest under root; returns the manifest path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = root / "manifest.tsv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        for track in tracks:
            tdir = root / track.id
            tdir.mkdir(exist_ok=True)
            write_wav(tdir / "mixture.wav", track.mixture)
            write_wav(tdir / "drums.wav", track.stems["drums"])
            write_wav(tdir / "other.wav", track.stems["harmonic_rest"])
            writer.writerow([track.id, f"{track.duration_s:.6f}",
                             "" if track.seed is None else track.seed])
    return manifest


def read_manifest(path):
    """Rows of (id, duration_s, seed-or-None); each id may appear once.

    Training splits tracks by row, so a repeated id could put one track
    on both sides of the train/validation split.
    """
    rows = []
    seen = set()
    with open(path, newline="") as fh:
        for row in csv.reader(fh, delimiter="\t"):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"manifest row needs 3 fields, got {row!r}")
            if row[0] in seen:
                raise ValueError(f"manifest {path} repeats track id {row[0]!r}")
            seen.add(row[0])
            rows.append((row[0], float(row[1]), int(row[2]) if row[2] else None))
    return rows


def load_dataset(root, layout="manifest"):
    """Load (id, mixture, drums) triples for training.

    layout="manifest" follows manifest.tsv; layout="musdb-wav" scans for
    subdirectories holding mixture.wav + drums.wav, so any pre-decoded
    WAV-stem corpus with those file names works without a manifest.
    """
    root = Path(root)
    if layout == "manifest":
        manifest = root / "manifest.tsv"
        if not manifest.exists():
            raise FileNotFoundError(
                f"{manifest} not found (use layout='musdb-wav' for manifest-less dirs)"
            )
        ids = [row[0] for row in read_manifest(manifest)]
    elif layout == "musdb-wav":
        ids = sorted(
            d.name for d in root.iterdir() if (d / "mixture.wav").exists()
        )
        if not ids:
            raise FileNotFoundError(f"no track directories with mixture.wav under {root}")
    else:
        raise ValueError(f"unknown dataset layout {layout!r}")

    out = []
    for tid in ids:
        mixture, _ = read_wav(root / tid / "mixture.wav")
        drums, _ = read_wav(root / tid / "drums.wav")
        if len(mixture) != len(drums):
            raise ValueError(f"{tid}: mixture and drums lengths differ")
        out.append((tid, mixture, drums))
    return out
