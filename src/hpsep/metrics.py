"""Separation quality metrics: SDR, SIR, SAR from a projection split.

An estimate is decomposed against the two reference stems:

    s_target = projection of the estimate onto the true source
    e_interf = the rest of its projection onto span{true, other}
    e_artif  = the remainder, orthogonal to both references

The three parts are mutually orthogonal (the target projection absorbs
everything the span projection shares with the true source), so their
energies sum to the estimate energy. Ratios are reported in dB, capped
at +-100 so degenerate cases stay finite:

    SDR = 10 log10(||s_target||^2 / ||e_interf + e_artif||^2)
    SIR = 10 log10(||s_target||^2 / ||e_interf||^2)
    SAR = 10 log10(||s_target + e_interf||^2 / ||e_artif||^2)

This is the zero-delay, scalar-projection variant of the standard
source-separation evaluation: no time-shifted expansion of the
references, which keeps the decomposition exact and cheap.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DB_CAP",
    "SourceScores",
    "EvalReport",
    "decompose",
    "sdr_sir_sar",
    "evaluate_track",
    "write_report",
    "read_report",
]

DB_CAP = 100.0
_COLLINEAR_TOL = 1e-12


@dataclass
class SourceScores:
    sdr_db: float
    sir_db: float
    sar_db: float


@dataclass
class EvalReport:
    """Scores for one track: each source plus their plain average."""

    track: str
    percussive: SourceScores
    harmonic: SourceScores
    average: SourceScores


def decompose(estimate, refs):
    """Split an estimate into target, interference, and artifact parts.

    ``refs`` is (s_true, s_other). All three signals must share length.
    Raises on zero-energy or (near-)collinear references, where the split
    is not defined.
    """
    est = np.asarray(estimate, dtype=np.float64)
    if len(refs) != 2:
        raise ValueError(f"expected exactly two references, got {len(refs)}")
    s_true = np.asarray(refs[0], dtype=np.float64)
    s_other = np.asarray(refs[1], dtype=np.float64)
    if not (est.ndim == s_true.ndim == s_other.ndim == 1):
        raise ValueError("signals must be 1-D")
    if not (est.shape == s_true.shape == s_other.shape):
        raise ValueError(
            f"length mismatch: estimate {est.shape}, refs {s_true.shape}, {s_other.shape}"
        )

    tt = float(s_true @ s_true)
    oo = float(s_other @ s_other)
    if tt == 0.0 or oo == 0.0:
        raise ValueError("zero-energy reference")
    to = float(s_true @ s_other)
    det = tt * oo - to * to
    if det <= _COLLINEAR_TOL * tt * oo:
        raise ValueError("references are collinear; interference split is undefined")

    et = float(est @ s_true)
    eo = float(est @ s_other)
    # 2x2 normal equations for the projection onto span{s_true, s_other}
    c_true = (oo * et - to * eo) / det
    c_other = (tt * eo - to * et) / det

    s_target = (et / tt) * s_true
    proj = c_true * s_true + c_other * s_other
    e_interf = proj - s_target
    e_artif = est - proj
    return s_target, e_interf, e_artif


def _ratio_db(num, den):
    if den == 0.0:
        return DB_CAP if num > 0.0 else -DB_CAP
    if num == 0.0:
        return -DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def sdr_sir_sar(s_target, e_interf, e_artif):
    """Energy ratios of a decomposition, in dB, capped at +-100."""
    pt = float(s_target @ s_target)
    pi = float(e_interf @ e_interf)
    pa = float(e_artif @ e_artif)
    if pt == 0.0:
        warnings.warn("estimate has no component along the target reference", stacklevel=2)
    sdr = _ratio_db(pt, pi + pa)
    sir = _ratio_db(pt, pi)
    sar = _ratio_db(pt + pi, pa)  # s_target and e_interf are orthogonal
    return sdr, sir, sar


def _source_scores(track, source, estimate, refs):
    try:
        return SourceScores(*sdr_sir_sar(*decompose(estimate, refs)))
    except ValueError as exc:
        raise ValueError(f"{track} {source}: {exc}") from None


def evaluate_track(est_perc, est_harm, ref_perc, ref_harm, track="track"):
    """Score both estimated sources; an error names the track and source."""
    ref_p = np.asarray(ref_perc, dtype=np.float64)
    ref_h = np.asarray(ref_harm, dtype=np.float64)
    perc = _source_scores(track, "percussive", est_perc, (ref_p, ref_h))
    harm = _source_scores(track, "harmonic", est_harm, (ref_h, ref_p))
    avg = SourceScores(
        sdr_db=0.5 * (perc.sdr_db + harm.sdr_db),
        sir_db=0.5 * (perc.sir_db + harm.sir_db),
        sar_db=0.5 * (perc.sar_db + harm.sar_db),
    )
    return EvalReport(track=track, percussive=perc, harmonic=harm, average=avg)


def write_report(reports, path):
    """CSV with one row per (track, source) plus an average row per track."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track", "source", "sdr_db", "sir_db", "sar_db"])
        for rep in reports:
            for source, scores in (
                ("percussive", rep.percussive),
                ("harmonic", rep.harmonic),
                ("average", rep.average),
            ):
                writer.writerow(
                    [rep.track, source, f"{scores.sdr_db:.4f}", f"{scores.sir_db:.4f}",
                     f"{scores.sar_db:.4f}"]
                )


def read_report(path):
    """Rows of a report CSV as dicts (used by tests and tooling)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
