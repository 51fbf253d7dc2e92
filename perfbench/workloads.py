"""The benchmark's four workloads.

Each workload is one process running a closed loop with a single client:
the next operation starts when the previous one has returned. Inputs are
generated from the workload seed with ``hpsep.data.synth_track``; the
program under test sees only the WAVs, datasets and checkpoints written
during set-up. Calls go through module attributes (``cli.main``,
``training.adam_step``, ...) so the traced run's wrappers see them.

A workload has four parts, plus ``record`` and ``info`` from ``Workload``:

- ``setup(seed, workdir)`` builds the inputs and returns a state object;
- ``run(state)`` is one timed operation;
- ``observe(state, result)`` checks the invariants of one operation's
  output and returns ``(problems, observation)``;
- ``compare(observation, reference, index)`` checks an observation
  against the reference recorded for the seed, or returns None when the
  reference has no entry for operation ``index``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.io import wavfile

from hpsep import audio_io, cli, data, dsp, network, training
from hpsep.tensor import Tensor

# Tolerances of the float64 reference checks. Splitting conv2d's GEMM into
# two summed halves (reordered sums) moved the separate WAVs not at all
# after float32 rounding, the train-step losses by at most 1.2e-14
# relative and the train-small CSV (10 significant digits) not at all.
# Reading the kernel taps flipped moved them by 1e-2, 0.15 and 5e-3.
WAVE_RTOL = 1e-6       # separate: fingerprints of float32 WAV outputs
LOSS_RTOL = 1e-8       # train-step-default: per-step training loss
VAL_RTOL = 1e-4        # train-small: per-epoch losses after 3 epochs of ADAM
SDR_ATOL_DB = 2e-3     # classical: report values are printed to 1e-4 dB

_N_PROJECTIONS = 16


def _fingerprint(x):
    """Norm and seeded random projections of a waveform.

    Projection vectors are fixed by the signal length and have unit
    expected norm, so |a - b| <= rtol * norm bounds every entry when the
    waveforms differ by a relative amount below rtol.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(len(x)))
    proj = rng.standard_normal((_N_PROJECTIONS, len(x))) / math.sqrt(len(x))
    return {"norm": float(np.linalg.norm(x)), "proj": (proj @ x).tolist()}


def _fingerprint_problems(name, got, ref, rtol):
    scale = rtol * max(ref["norm"], 1e-30)
    errs = [abs(got["norm"] - ref["norm"])]
    errs += [abs(a - b) for a, b in zip(got["proj"], ref["proj"])]
    worst = max(errs)
    if worst > scale:
        return [f"{name} differs from the reference by {worst / ref['norm']:.3g} "
                f"relative (tolerance {rtol:g})"]
    return []


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _read_wav(path):
    """Independent reader for output checks (hpsep writes float32 mono)."""
    _, x = wavfile.read(path)
    return x.astype(np.float64)


@contextlib.contextmanager
def _quiet():
    """Swallow the CLI's progress lines; keep stderr for failure messages."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        yield err


def _cli(argv):
    with _quiet() as err:
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().strip()


def _write_tracks(spec, n, root):
    tracks = [data.synth_track(spec, i) for i in range(n)]
    data.write_dataset(tracks, root)
    return tracks


class Workload:
    warmup_ops = 1     # checked but untimed operations before the timed loop
    reference_ops = 1  # operations per seed that the reference covers

    def record(self, observations):
        """Reference entry for a seed from its first operations' observations."""
        return observations[0]

    def info(self, observations):
        """Workload figures for the detail line."""
        return {}


class Separate(Workload):
    """``hpsep separate`` on one seeded mixture with a default-config model."""

    name = "separate-1.4s"
    duration_s = 1.4  # one 512x128 tile (128 frames hold 1.486 s), right-padded

    def setup(self, seed, workdir):
        spec = data.SynthSpec(seed=seed, n_tracks=1, duration_s=self.duration_s)
        track = _write_tracks(spec, 1, workdir / "data")[0]
        mix = workdir / "data" / track.id / "mixture.wav"
        samples, rate = audio_io.read_wav(mix)
        mag = dsp.stft(samples, rate).magnitude()[:dsp.N_BINS]
        stats = dsp.compute_global_stats(dsp.patchify(mag))
        model = network.MaskSeparator(seed=seed)
        ckpt = workdir / "model.ckpt"
        network.save_checkpoint(ckpt, model.cfg, stats, model.store)
        return SimpleNamespace(mix=mix, ckpt=ckpt, n=len(samples),
                               perc=workdir / "perc.wav", harm=workdir / "harm.wav")

    def run(self, s):
        return _cli(["separate", "--ckpt", s.ckpt, "--in", s.mix,
                     "--out-perc", s.perc, "--out-harm", s.harm])

    def observe(self, s, result):
        code, err = result
        if code != 0:
            return [f"separate exited {code}: {err}"], None
        obs, problems = {}, []
        for key, path in (("perc", s.perc), ("harm", s.harm)):
            x = _read_wav(path)
            path.unlink()
            if len(x) != s.n:
                problems.append(f"{key} has {len(x)} samples, input has {s.n}")
            if not np.all(np.isfinite(x)):
                problems.append(f"{key} has non-finite samples")
            obs[key] = _fingerprint(x)
        return problems, obs

    def compare(self, obs, ref, index):
        return (_fingerprint_problems("perc", obs["perc"], ref["perc"], WAVE_RTOL)
                + _fingerprint_problems("harm", obs["harm"], ref["harm"], WAVE_RTOL))

    def info(self, observations):
        return {"audio_s_per_op": self.duration_s}


class TrainStep(Workload):
    """One default-config training step at batch 1, as ``train()`` runs it."""

    name = "train-step-default"
    duration_s = 1.4
    # Step 1 runs with no previous graph alive and step 2 is the first to
    # grow the heap to two graphs; from step 3 on the steps are alike.
    warmup_ops = 2
    reference_ops = 4  # the two warm-up steps and the two steps a 10 s run measures

    def setup(self, seed, workdir):
        spec = data.SynthSpec(seed=seed, n_tracks=1, duration_s=self.duration_s)
        track = _write_tracks(spec, 1, workdir / "data")[0]
        mix, _ = audio_io.read_wav(workdir / "data" / track.id / "mixture.wav")
        drums, _ = audio_io.read_wav(workdir / "data" / track.id / "drums.wav")
        example = training.make_ground_truth(mix, drums)[0]
        stats = dsp.compute_global_stats([example.x])
        cfg = training.TrainConfig(batch_size=1, seed=seed)
        model = network.MaskSeparator(seed=seed)
        return SimpleNamespace(
            model=model, cfg=cfg, state=training.init_train_state(model.store, cfg),
            xn=dsp.normalize_values(example.x.values, stats)[None, None],
            xr=example.x.values[None, None], pr=example.p.values[None, None],
            hr=example.h.values[None, None],
            # the previous step's graph, kept alive as train() keeps it
            mp=None, mh=None, loss=None)

    def run(self, s):
        # same calls in the same order as the inner loop of training.train
        s.mp, s.mh = s.model.forward(Tensor(s.xn), training=True)
        s.loss = training.masking_loss(s.mp, s.mh, s.xr, s.pr, s.hr,
                                       s.cfg.lambda_p, s.cfg.lambda_h)
        value = s.loss.item()
        s.model.store.zero_grad()
        s.loss.backward()
        training.adam_step(s.model.store, s.state)
        return value

    def observe(self, s, value):
        if not math.isfinite(value):
            return [f"non-finite loss {value}"], None
        return [], {"loss": value}

    def compare(self, obs, ref, index):
        if index >= len(ref["losses"]):
            return None
        want = ref["losses"][index]
        if not _close(obs["loss"], want, LOSS_RTOL):
            return [f"step {index} loss {obs['loss']!r}, reference {want!r}"]
        return []

    def record(self, observations):
        return {"losses": [o["loss"] for o in observations]}

    def info(self, observations):
        return {"last_loss": observations[-1]["loss"] if observations else None}


class TrainSmall(Workload):
    """A whole in-process ``hpsep train`` run on a small config."""

    name = "train-small"
    n_tracks = 5          # the 0.2 validation split leaves 4 training tracks
    duration_s = 1.4      # one patch per track, so each epoch is one batch of 4
    epochs = 3
    config = ("growth_rate = 2\nlayers_per_block = 2\ndepth = 2\n"
              "final_block_layers = 2\nbatch_size = 4\nmax_epochs = 3\nseed = {seed}\n")

    def setup(self, seed, workdir):
        spec = data.SynthSpec(seed=seed, n_tracks=self.n_tracks,
                              duration_s=self.duration_s)
        _write_tracks(spec, self.n_tracks, workdir / "data")
        cfg = workdir / "run.cfg"
        cfg.write_text(self.config.format(seed=seed))  # model init, split and shuffle
        return SimpleNamespace(data=workdir / "data", cfg=cfg, ckpt=workdir / "model.ckpt",
                               csv=workdir / "model.ckpt.metrics.csv")

    def run(self, s):
        return _cli(["train", "--data", s.data, "--config", s.cfg, "--out", s.ckpt])

    def observe(self, s, result):
        code, err = result
        if code != 0:
            return [f"train exited {code}: {err}"], None
        problems = []
        try:
            network.load_checkpoint(s.ckpt)
        except (ValueError, OSError) as exc:
            problems.append(f"checkpoint does not reload: {exc}")
        with open(s.csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        s.ckpt.unlink()
        s.csv.unlink()
        if len(rows) != self.epochs:
            return problems + [f"metrics CSV has {len(rows)} rows, expected {self.epochs}"], None
        train_loss = [float(r["train_loss"]) for r in rows]
        val_loss = [float(r["val_loss"]) for r in rows]
        if not all(math.isfinite(v) for v in train_loss + val_loss):
            problems.append("non-finite loss in metrics CSV")
        obs = {"best_val_loss": min(val_loss), "val_loss": val_loss,
               "train_loss": train_loss}
        return problems, obs

    def compare(self, obs, ref, index):
        problems = []
        for key in ("train_loss", "val_loss"):
            for epoch, (a, b) in enumerate(zip(obs[key], ref[key]), 1):
                if not _close(a, b, VAL_RTOL):
                    problems.append(f"epoch {epoch} {key} {a!r}, reference {b!r}")
        return problems

    def info(self, observations):
        return {"best_val_loss": observations[-1]["best_val_loss"] if observations else None}


class Classical(Workload):
    """``hpsep baseline`` on four seeded 10 s tracks, then one ``hpsep eval``."""

    name = "classical"
    n_tracks = 4
    duration_s = 10.0

    def setup(self, seed, workdir):
        spec = data.SynthSpec(seed=seed, n_tracks=self.n_tracks, duration_s=self.duration_s)
        tracks = _write_tracks(spec, self.n_tracks, workdir / "data")
        est = workdir / "est"
        for t in tracks:
            (est / t.id).mkdir(parents=True, exist_ok=True)
        return SimpleNamespace(data=workdir / "data", est=est, report=workdir / "report.csv",
                               ids=[t.id for t in tracks], n=len(tracks[0].mixture))

    def run(self, s):
        results = [
            _cli(["baseline", "--in", s.data / tid / "mixture.wav",
                  "--out-perc", s.est / tid / "perc.wav",
                  "--out-harm", s.est / tid / "harm.wav"])
            for tid in s.ids
        ]
        results.append(_cli(["eval", "--est-dir", s.est, "--ref-dir", s.data,
                             "--report", s.report]))
        return results

    def observe(self, s, results):
        problems = [f"exit {code}: {err}" for code, err in results if code != 0]
        if problems:
            return problems, None
        for tid in s.ids:
            for name in ("perc.wav", "harm.wav"):
                path = s.est / tid / name
                x = _read_wav(path)
                path.unlink()
                if len(x) != s.n or not np.all(np.isfinite(x)):
                    problems.append(f"{tid}/{name}: bad length or non-finite samples")
        with open(s.report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        s.report.unlink()
        if len(rows) != 3 * self.n_tracks:
            return problems + [f"report has {len(rows)} rows, expected {3 * self.n_tracks}"], None
        sdr = [float(r["sdr_db"]) for r in rows]
        if not all(math.isfinite(v) for v in sdr):
            problems.append("non-finite SDR in report")
        mean_avg = float(np.mean([float(r["sdr_db"]) for r in rows if r["source"] == "average"]))
        return problems, {"sdr": sdr, "mean_average_sdr_db": mean_avg}

    def compare(self, obs, ref, index):
        worst = max(abs(a - b) for a, b in zip(obs["sdr"], ref["sdr"]))
        if worst > SDR_ATOL_DB:
            return [f"report SDR differs from the reference by {worst:.4g} dB"]
        return []

    def info(self, observations):
        return {"audio_s_per_op": self.n_tracks * self.duration_s,
                "sdr_db": observations[-1]["mean_average_sdr_db"] if observations else None}


WORKLOADS = {w.name: w for w in (Separate(), TrainStep(), TrainSmall(), Classical())}


def clear(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    Path(workdir).mkdir(parents=True)
