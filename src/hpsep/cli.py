"""Command-line interface.

Subcommands: gen-data, train, separate, baseline, eval, param-count.
Exit codes: 0 success, 1 any module error (message on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .audio_io import read_wav, wav_samples, write_wav
from .baseline import median_separate
from .config import load_run_config, load_synth_spec
from .data import load_dataset, read_track, synth_track, track_ids, write_dataset
from .metrics import evaluate_track, write_report
from .network import MaskSeparator, load_checkpoint, param_count
from .pipeline import separate_samples
from .training import train


def _cmd_gen_data(args):
    spec = load_synth_spec(args.spec)
    write_dataset((synth_track(spec, i) for i in range(spec.n_tracks)), args.out)
    print(f"wrote {spec.n_tracks} tracks under {args.out}")
    return 0


def _cmd_train(args):
    _check_writable(args.out)
    net_cfg, train_cfg = load_run_config(args.config)
    dataset = load_dataset(args.data)
    pairs = [(mixture, drums) for _, mixture, drums in dataset]
    result = train(pairs, net_cfg, train_cfg, checkpoint_path=args.out)
    print(f"trained {result.epochs} epochs on {len(result.train_track_indices)} tracks "
          f"(validated on {len(result.val_track_indices)})")
    print(f"best validation loss {result.best_val_loss:.6g}"
          + (" (stopped early)" if result.stopped_early else ""))
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    return 0


def _check_writable(out):
    """Refuse an output path whose directory is missing or that is a directory.

    Commands call this before they read any input, so a path that cannot
    be written costs no work and leaves no partial output behind.
    """
    out = Path(out)
    if not out.parent.is_dir():
        raise ValueError(f"cannot write {out}: directory {out.parent} does not exist")
    if out.is_dir():
        raise ValueError(f"cannot write {out}: it is a directory")


def _split_file(args, split):
    """Write ``split(samples)``'s (percussive, harmonic) stems of ``args.infile``."""
    _check_writable(args.out_perc)
    _check_writable(args.out_harm)
    if Path(args.out_perc).resolve() == Path(args.out_harm).resolve():
        raise ValueError(f"--out-perc and --out-harm are the same file: {args.out_perc}")
    infile = Path(args.infile).resolve()
    for flag, out in (("--out-perc", args.out_perc), ("--out-harm", args.out_harm)):
        if Path(out).resolve() == infile:
            raise ValueError(f"{flag} is the input file: {out}")
    samples, _ = read_wav(args.infile)
    perc, harm = split(samples)
    harm = wav_samples(args.out_harm, harm)  # refused here, no percussive file is left
    write_wav(args.out_perc, perc)
    write_wav(args.out_harm, harm)
    print(f"wrote {args.out_perc} and {args.out_harm}")
    return 0


def _cmd_separate(args):
    # the network runs in float32; masking and the iSTFT stay float64
    return _split_file(args, lambda samples: separate_samples(
        *load_checkpoint(args.ckpt, dtype=np.float32), samples))


def _cmd_baseline(args):
    return _split_file(args, median_separate)


def _cmd_eval(args):
    _check_writable(args.report)
    ref_root = Path(args.ref_dir)
    est_root = Path(args.est_dir)
    ids = track_ids(ref_root)
    if not ids:
        raise FileNotFoundError(f"no track directories with mixture.wav under {ref_root}")
    missing = [est_root / tid / name for tid in ids for name in ("perc.wav", "harm.wav")
               if not (est_root / tid / name).is_file()]
    if missing:
        raise FileNotFoundError(f"missing estimate {missing[0]} ({len(missing)} missing)")
    reports = []
    for tid in ids:
        mixture, drums = read_track(ref_root / tid)
        est_p, _ = read_wav(est_root / tid / "perc.wav")
        est_h, _ = read_wav(est_root / tid / "harm.wav")
        reports.append(evaluate_track(est_p, est_h, drums, mixture - drums, track=tid))
    write_report(reports, args.report)
    mean_sdr = sum(r.average.sdr_db for r in reports) / len(reports)
    print(f"evaluated {len(reports)} tracks; mean average SDR {mean_sdr:.2f} dB")
    print(f"report: {args.report}")
    return 0


def _cmd_param_count(args):
    net_cfg, _ = load_run_config(args.config)
    print(param_count(MaskSeparator(net_cfg).store))
    return 0


@functools.cache
def _build_parser():
    """The parser, built once per process and reused by every ``main`` call.

    Parsing leaves the parser unchanged, and building it costs more than
    parsing, so a process that calls ``main`` many times builds it once.
    """
    parser = argparse.ArgumentParser(
        prog="hpsep",
        description="Harmonic/percussive separation: synthesis, training, "
        "inference, baseline, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render a synthetic two-stem dataset")
    p.add_argument("--spec", required=True, help="synthesis spec (key = value file)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="fit the mask network on a stem dataset")
    p.add_argument("--data", required=True,
                   help="dataset directory of <id>/mixture.wav + <id>/drums.wav")
    p.add_argument("--config", default=None, help="run config (default: shipped)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("separate", help="split one mixture with a trained model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="WAV")
    p.add_argument("--out-perc", required=True, metavar="WAV")
    p.add_argument("--out-harm", required=True, metavar="WAV")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("baseline", help="median-filtering separation, no model")
    p.add_argument("--in", dest="infile", required=True, metavar="WAV")
    p.add_argument("--out-perc", required=True, metavar="WAV")
    p.add_argument("--out-harm", required=True, metavar="WAV")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("eval", help="score estimate WAVs against reference stems")
    p.add_argument("--est-dir", required=True,
                   help="directory of <id>/perc.wav + <id>/harm.wav")
    p.add_argument("--ref-dir", required=True,
                   help="dataset directory of <id>/mixture.wav + <id>/drums.wav")
    p.add_argument("--report", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("param-count", help="print the trainable parameter total")
    p.add_argument("--config", default=None, help="run config (default: shipped)")
    p.set_defaults(func=_cmd_param_count)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"hpsep: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
