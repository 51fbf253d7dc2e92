"""Harmonic-percussive audio separation toolkit.

A masking separator built from three multi-scale densely connected
convolutional branches on its own reverse-mode autodiff core, plus the
classical median-filtering baseline, BSS-style quality metrics, a
synthetic data generator, and a command line front end.
"""

__version__ = "0.1.0"

from hpsep.baseline import median_separate
from hpsep.data import SynthSpec, load_dataset, synth_track, write_dataset
from hpsep.dsp import GlobalStats, Spectrogram, istft, stft
from hpsep.metrics import EvalReport, evaluate_track, write_report
from hpsep.network import (
    MaskSeparator,
    NetworkConfig,
    load_checkpoint,
    save_checkpoint,
)
from hpsep.pipeline import separate_samples
from hpsep.training import TrainConfig, train

__all__ = [
    "EvalReport",
    "GlobalStats",
    "MaskSeparator",
    "NetworkConfig",
    "Spectrogram",
    "SynthSpec",
    "TrainConfig",
    "evaluate_track",
    "istft",
    "load_checkpoint",
    "load_dataset",
    "median_separate",
    "save_checkpoint",
    "separate_samples",
    "stft",
    "synth_track",
    "train",
    "write_dataset",
    "write_report",
]
