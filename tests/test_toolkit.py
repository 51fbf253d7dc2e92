"""WAV I/O, synthesis, config parsing, dataset plumbing, and CLI tests."""

import struct

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.ndimage import median_filter

from hpsep import cli
from hpsep.audio_io import AudioError, read_wav, write_wav
from hpsep.config import (
    ConfigError,
    default_config_text,
    load_run_config,
    load_synth_spec,
    parse_config_text,
    RUN_SCHEMA,
    SYNTH_SCHEMA,
)
from hpsep.data import (
    SynthSpec,
    Track,
    load_dataset,
    read_manifest,
    synth_track,
    write_dataset,
)
from hpsep.dsp import HOP, N_BINS, PATCH_FRAMES, normalize_values, stft
from hpsep.network import MaskSeparator, NetworkConfig, save_checkpoint
from hpsep.training import TrainConfig
from hpsep.dsp import GlobalStats
from hpsep.metrics import read_report
from hpsep.pipeline import estimate_masks, separate_samples


class TestWavIO:
    def test_float32_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "z.wav"
        samples = np.zeros(44100)
        write_wav(path, samples)
        back, rate = read_wav(path)
        assert rate == 44100
        np.testing.assert_array_equal(back, samples)

        noisy = np.random.default_rng(0).normal(size=2048).astype(np.float32)
        write_wav(path, noisy.astype(np.float64))
        back, _ = read_wav(path)
        np.testing.assert_array_equal(back, noisy.astype(np.float64))

    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "sq.wav"
        square = np.tile(np.array([32767, -32767], dtype=np.int16), 100)
        wavfile.write(path, 44100, square)
        samples, _ = read_wav(path)
        expected = 32767.0 / 32768.0
        np.testing.assert_allclose(np.unique(samples), [-expected, expected])

    def test_stereo_downmix_is_channel_mean(self, tmp_path):
        path = tmp_path / "st.wav"
        left = np.linspace(-0.5, 0.5, 500, dtype=np.float32)
        right = np.full(500, 0.25, dtype=np.float32)
        wavfile.write(path, 44100, np.stack([left, right], axis=1))
        samples, _ = read_wav(path)
        np.testing.assert_allclose(samples, (left.astype(np.float64) + 0.25) / 2.0)

    def test_identical_channels_downmix_to_either(self, tmp_path):
        path = tmp_path / "dup.wav"
        mono = np.random.default_rng(1).normal(size=300).astype(np.float32) * 0.1
        wavfile.write(path, 44100, np.stack([mono, mono], axis=1))
        samples, _ = read_wav(path)
        np.testing.assert_allclose(samples, mono.astype(np.float64))

    def test_wrong_rate_rejected_unless_allowed(self, tmp_path):
        path = tmp_path / "r.wav"
        wavfile.write(path, 48000, np.zeros(100, dtype=np.float32))
        with pytest.raises(AudioError, match="48000"):
            read_wav(path)
        _, rate = read_wav(path, allow_other_rate=True)
        assert rate == 48000

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not RIFF data at all........")
        with pytest.raises(AudioError, match="cannot read"):
            read_wav(path)

    def test_unsupported_codec_rejected(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(path, 44100, np.zeros(64, dtype=np.int32))
        with pytest.raises(AudioError, match="unsupported sample format"):
            read_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        samples = np.zeros(100, dtype=np.float32)
        samples[37] = bad
        wavfile.write(path, 44100, samples)
        with pytest.raises(AudioError, match="non-finite"):
            read_wav(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = truncated_wav(tmp_path / "cut.wav")
        with pytest.raises(AudioError, match="Reached EOF prematurely") as info:
            read_wav(path)
        assert str(path) in str(info.value)

    def test_write_rejects_non_mono(self, tmp_path):
        with pytest.raises(AudioError, match="non-mono"):
            write_wav(tmp_path / "x.wav", np.zeros((10, 2)))

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(AudioError, match="non-finite"):
            write_wav(tmp_path / "x.wav", np.array([0.0, np.nan]))


def truncated_wav(path):
    """A 1.4 s float32 WAV cut to half its bytes, inside its data chunk."""
    samples = np.random.default_rng(3).normal(size=int(1.4 * 44100)).astype(np.float32)
    wavfile.write(path, 44100, 0.1 * samples)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return path


def quick_spec(**overrides):
    base = dict(n_tracks=2, duration_s=1.6, voices=2, partials=4)
    base.update(overrides)
    return SynthSpec(**base)


class TestSynthesis:
    def test_deterministic_per_seed_pair(self):
        a = synth_track(quick_spec(), 3)
        b = synth_track(quick_spec(), 3)
        np.testing.assert_array_equal(a.mixture, b.mixture)
        np.testing.assert_array_equal(a.stems["drums"], b.stems["drums"])
        c = synth_track(quick_spec(), 4)
        assert not np.array_equal(a.mixture, c.mixture)
        d = synth_track(quick_spec(seed=9), 3)
        assert not np.array_equal(a.mixture, d.mixture)

    def test_mixture_is_exact_stem_sum_and_peak_bounded(self):
        track = synth_track(quick_spec(), 0)
        np.testing.assert_array_equal(
            track.mixture, track.stems["drums"] + track.stems["harmonic_rest"]
        )
        assert np.max(np.abs(track.mixture)) <= 0.9
        assert np.max(np.abs(track.mixture)) > 0.5  # normalization actually ran

    def test_zero_percussive_gain_leaves_pure_harmonic_mixture(self):
        track = synth_track(quick_spec(gain_perc=0.0), 1)
        np.testing.assert_array_equal(track.stems["drums"], 0.0)
        np.testing.assert_array_equal(track.mixture, track.stems["harmonic_rest"])

    def test_aliasing_spec_rejected(self):
        with pytest.raises(ValueError, match="alias"):
            SynthSpec(f0_max_hz=4000.0, partials=8)

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            SynthSpec(onset_rate_hz=0.0)
        with pytest.raises(ValueError):
            SynthSpec(n_tracks=0)
        with pytest.raises(ValueError):
            SynthSpec(band_emphasis=1.5)

    def test_stem_orientation_in_spectrogram(self):
        # harmonic energy should survive a median along time, percussive
        # a median along frequency; each stem must win its own direction
        track = synth_track(quick_spec(duration_s=3.0), 2)
        for name, sign in (("harmonic_rest", 1.0), ("drums", -1.0)):
            power = np.abs(stft(track.stems[name]).values[:512]) ** 2
            along_time = median_filter(power, size=(1, 17), mode="reflect").sum()
            along_freq = median_filter(power, size=(17, 1), mode="reflect").sum()
            assert sign * (along_time - along_freq) > 0.0, name

    def test_track_validation(self):
        good = synth_track(quick_spec(), 0)
        with pytest.raises(ValueError, match="not the sum"):
            Track(id="bad", mixture=good.mixture * 1.5, stems=good.stems,
                  duration_s=good.duration_s)
        with pytest.raises(ValueError, match="stems"):
            Track(id="bad", mixture=good.mixture,
                  stems={"drums": good.stems["drums"]}, duration_s=good.duration_s)


class TestDatasetIO:
    def test_write_then_load_roundtrip(self, tmp_path):
        tracks = [synth_track(quick_spec(), i) for i in range(2)]
        manifest = write_dataset(tracks, tmp_path / "ds")
        rows = read_manifest(manifest)
        assert [r[0] for r in rows] == ["track000", "track001"]
        assert rows[0][2] == 0 and rows[1][2] == 1
        loaded = load_dataset(tmp_path / "ds")
        assert [tid for tid, _, _ in loaded] == ["track000", "track001"]
        for (tid, mixture, drums), track in zip(loaded, tracks):
            assert len(mixture) == len(track.mixture)
            # float32 storage quantizes the float64 stems
            np.testing.assert_allclose(mixture, track.mixture, atol=1e-6)
            np.testing.assert_allclose(drums, track.stems["drums"], atol=1e-6)

    def test_musdb_wav_layout_scan(self, tmp_path):
        tracks = [synth_track(quick_spec(), i) for i in range(2)]
        write_dataset(tracks, tmp_path / "ds")
        (tmp_path / "ds" / "manifest.tsv").unlink()
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_dataset(tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds", layout="musdb-wav")
        assert len(loaded) == 2

    def test_unknown_layout_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="layout"):
            load_dataset(tmp_path, layout="flac")


# The config surface: key -> (owning dataclass, type, a valid non-default
# value). Float keys take an integer-looking value where one is valid, so
# an int parser could not pass for a float one.
RUN_KEYS = {
    "growth_rate": (NetworkConfig, int, "3"),
    "layers_per_block": (NetworkConfig, int, "2"),
    "depth": (NetworkConfig, int, "2"),
    "final_block_layers": (NetworkConfig, int, "2"),
    "leaky_alpha": (NetworkConfig, float, "0"),
    "lambda_p": (TrainConfig, float, "1"),
    "lambda_h": (TrainConfig, float, "2"),
    "lr0": (TrainConfig, float, "1"),
    "batch_size": (TrainConfig, int, "4"),
    "plateau_patience": (TrainConfig, int, "2"),
    "plateau_factor": (TrainConfig, float, "0.25"),
    "stop_patience": (TrainConfig, int, "7"),
    "max_epochs": (TrainConfig, int, "3"),
    "seed": (TrainConfig, int, "9"),
    "val_fraction": (TrainConfig, float, "0.5"),
    "improve_tol": (TrainConfig, float, "0"),
}

SYNTH_KEYS = {
    "seed": (int, "5"),
    "n_tracks": (int, "2"),
    "duration_s": (float, "3"),
    "f0_min_hz": (float, "100"),
    "f0_max_hz": (float, "600"),
    "voices": (int, "2"),
    "partials": (int, "5"),
    "partial_rolloff": (float, "2"),
    "attack_s": (float, "0"),
    "release_s": (float, "1"),
    "onset_rate_hz": (float, "3"),
    "burst_decay_ms": (float, "30"),
    "band_emphasis": (float, "1"),
    "gain_harm": (float, "2"),
    "gain_perc": (float, "0"),
}


class TestConfig:
    def test_parse_basics(self):
        text = "# comment\n\n a = 1 \nb=2.5\n"
        values = parse_config_text(text, {"a", "b"})
        assert values == {"a": "1", "b": "2.5"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'lr'"):
            parse_config_text("lr = 3", RUN_SCHEMA.keys())

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2", RUN_SCHEMA.keys())

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("growth_rate 4", RUN_SCHEMA.keys())

    def test_shipped_default_loads(self):
        net_cfg, train_cfg = load_run_config(None)
        assert net_cfg.growth_rate == 10
        assert net_cfg.depth == 4
        assert train_cfg.lr0 == 1e-3
        assert train_cfg.plateau_patience == 3
        assert train_cfg.stop_patience == 15

    def test_partial_override_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("growth_rate = 2\nmax_epochs = 1\n")
        net_cfg, train_cfg = load_run_config(path)
        assert net_cfg.growth_rate == 2
        assert net_cfg.depth == 4
        assert train_cfg.max_epochs == 1

    def test_bad_value_type_reported(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("growth_rate = fast\n")
        with pytest.raises(ConfigError, match="growth_rate"):
            load_run_config(path)

    def test_invalid_combination_reported_as_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("plateau_factor = 1.5\n")
        with pytest.raises(ConfigError, match="plateau_factor"):
            load_run_config(path)

    def test_synth_spec_loads(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("n_tracks = 3\nduration_s = 2.0\nseed = 4\n")
        spec = load_synth_spec(path)
        assert (spec.n_tracks, spec.duration_s, spec.seed) == (3, 2.0, 4)
        assert spec.partials == SynthSpec().partials

    def test_run_keys_are_pinned(self):
        assert set(RUN_SCHEMA) == set(RUN_KEYS)

    def test_synth_keys_are_pinned(self):
        assert set(SYNTH_SCHEMA) == set(SYNTH_KEYS)

    @pytest.mark.parametrize("key", sorted(RUN_KEYS))
    def test_run_key_reaches_its_dataclass_with_its_type(self, key, tmp_path):
        owner, target_type, text = RUN_KEYS[key]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n")
        loaded = dict(zip((NetworkConfig, TrainConfig), load_run_config(path)))
        value = getattr(loaded[owner], key)
        assert type(value) is target_type and value == target_type(text)
        other = TrainConfig if owner is NetworkConfig else NetworkConfig
        assert loaded[other] == other()

    @pytest.mark.parametrize("key", sorted(SYNTH_KEYS))
    def test_synth_key_is_parsed_with_its_type(self, key, tmp_path):
        target_type, text = SYNTH_KEYS[key]
        path = tmp_path / "synth.cfg"
        path.write_text(f"{key} = {text}\n")
        value = getattr(load_synth_spec(path), key)
        assert type(value) is target_type and value == target_type(text)

    def test_shipped_default_sets_every_run_key(self):
        assert set(parse_config_text(default_config_text(), RUN_SCHEMA.keys())) == set(RUN_KEYS)


def small_checkpoint(tmp_path):
    cfg = NetworkConfig(growth_rate=1, layers_per_block=1, depth=1,
                        final_block_layers=1)
    model = MaskSeparator(cfg, seed=0)
    stats = GlobalStats(min_val=0.0, max_val=3.0)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(path, cfg, stats, model.store)
    return model, stats, path


class TestPipeline:
    def test_output_lengths_match_input(self, tmp_path):
        model, stats, _ = small_checkpoint(tmp_path)
        for n in (44100, 44100 + 311, 66150):
            samples = np.random.default_rng(n).normal(size=n) * 0.1
            perc, harm = separate_samples(model, stats, samples)
            assert len(perc) == n and len(harm) == n

    def test_outputs_are_finite_and_bounded_by_mixture_scale(self, tmp_path):
        model, stats, _ = small_checkpoint(tmp_path)
        samples = np.random.default_rng(5).normal(size=50000) * 0.2
        perc, harm = separate_samples(model, stats, samples)
        assert np.all(np.isfinite(perc)) and np.all(np.isfinite(harm))
        # masks are in (0,1): each estimate carries less energy than the input
        assert np.sum(perc**2) < np.sum(samples**2)
        assert np.sum(harm**2) < np.sum(samples**2)

    def test_estimate_masks_batches_match_one_tile_at_a_time(self, tmp_path):
        model, stats, _ = small_checkpoint(tmp_path)
        # 600 frames: five tiles, the last with 88 frames of padding, run
        # at two tiles per batch so the last batch holds a single tile
        spec = stft(np.random.default_rng(9).normal(size=599 * HOP - 100) * 0.1)
        assert spec.frames == 600
        mask_p, mask_h = estimate_masks(model, stats, spec, batch_size=2)
        mag = np.pad(spec.magnitude()[:N_BINS], ((0, 0), (0, 5 * PATCH_FRAMES - 600)))
        tiles_p, tiles_h = [], []
        for lo in range(0, 5 * PATCH_FRAMES, PATCH_FRAMES):
            x = normalize_values(mag[:, lo : lo + PATCH_FRAMES], stats)[None, None]
            mp, mh = model.forward(x)
            tiles_p.append(mp.data[0, 0])
            tiles_h.append(mh.data[0, 0])
        np.testing.assert_array_equal(mask_p, np.hstack(tiles_p)[:, :600])
        np.testing.assert_array_equal(mask_h, np.hstack(tiles_h)[:, :600])


def write_synth_cfg(path, n_tracks=2, duration_s=1.6):
    path.write_text(
        f"n_tracks = {n_tracks}\nduration_s = {duration_s}\n"
        "voices = 2\npartials = 4\nseed = 1\n"
    )
    return path


def write_run_cfg(path, max_epochs=1):
    path.write_text(
        "growth_rate = 1\nlayers_per_block = 1\ndepth = 1\nfinal_block_layers = 1\n"
        f"batch_size = 4\nmax_epochs = {max_epochs}\nseed = 0\n"
    )
    return path


class TestCli:
    def test_usage_errors_exit_2(self, capsys):
        assert cli.main([]) == 2
        assert cli.main(["separate"]) == 2
        assert cli.main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_module_errors_exit_1(self, tmp_path, capsys):
        rc = cli.main(["param-count", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_separate_rejects_non_finite_input(self, tmp_path, capsys):
        _, _, ckpt = small_checkpoint(tmp_path)
        mix = tmp_path / "mix.wav"
        samples = np.zeros(4410, dtype=np.float32)
        samples[100] = np.nan
        wavfile.write(mix, 44100, samples)
        rc = cli.main(["separate", "--ckpt", str(ckpt), "--in", str(mix),
                       "--out-perc", str(tmp_path / "p.wav"),
                       "--out-harm", str(tmp_path / "h.wav")])
        assert rc == 1
        assert f"{mix}: non-finite samples" in capsys.readouterr().err
        assert not (tmp_path / "p.wav").exists()

    def test_separate_rejects_hostile_checkpoint_header(self, tmp_path, capsys):
        _, _, ckpt = small_checkpoint(tmp_path)
        blob = bytearray(ckpt.read_bytes())
        blob[6:10] = (200_000).to_bytes(4, "little")  # header growth_rate
        ckpt.write_bytes(bytes(blob))
        mix = tmp_path / "mix.wav"
        write_wav(mix, np.zeros(4410))
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        rc = cli.main(["separate", "--ckpt", str(ckpt), "--in", str(mix),
                       "--out-perc", str(out_p), "--out-harm", str(out_h)])
        assert rc == 1
        assert "hpsep: error: header growth_rate 200000" in capsys.readouterr().err
        assert not out_p.exists() and not out_h.exists()

    def separate_with(self, tmp_path, ckpt):
        mix = tmp_path / "mix.wav"
        write_wav(mix, np.random.default_rng(5).normal(size=4410) * 0.1)
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        rc = cli.main(["separate", "--ckpt", str(ckpt), "--in", str(mix),
                       "--out-perc", str(out_p), "--out-harm", str(out_h)])
        assert not out_p.exists() and not out_h.exists()
        return rc

    def test_separate_rejects_non_finite_checkpoint_stats(self, tmp_path, capsys):
        _, _, ckpt = small_checkpoint(tmp_path)
        blob = bytearray(ckpt.read_bytes())
        blob[30:38] = struct.pack("<d", -np.inf)  # header stats min
        ckpt.write_bytes(bytes(blob))
        assert self.separate_with(tmp_path, ckpt) == 1
        assert "hpsep: error: non-finite normalization stats: min=-inf" in capsys.readouterr().err

    def test_separate_names_non_finite_checkpoint_record(self, tmp_path, capsys):
        model, stats, ckpt = small_checkpoint(tmp_path)
        model.store.params["head_perc.bias"].data[0] = np.nan
        save_checkpoint(ckpt, model.cfg, stats, model.store)
        assert self.separate_with(tmp_path, ckpt) == 1
        assert "hpsep: error: record 'head_perc.bias'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["separate", "baseline"])
    def test_silent_input_writes_silence(self, command, tmp_path, capsys):
        mix = tmp_path / "mix.wav"
        write_wav(mix, np.zeros(4410 + 37))
        args = [command, "--in", str(mix)]
        if command == "separate":
            args += ["--ckpt", str(small_checkpoint(tmp_path)[2])]
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        assert cli.main(args + ["--out-perc", str(out_p), "--out-harm", str(out_h)]) == 0
        for out in (out_p, out_h):
            samples, _ = read_wav(out)
            np.testing.assert_array_equal(samples, np.zeros(4410 + 37))
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["separate", "baseline"])
    def test_constant_input_writes_finite_stems(self, command, tmp_path, capsys):
        mix = tmp_path / "mix.wav"
        write_wav(mix, np.full(4410 + 37, 0.25))
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        assert cli.main(self.split_args(command, tmp_path, mix, out_p, out_h)) == 0
        for out in (out_p, out_h):
            samples, _ = read_wav(out)
            assert samples.shape == (4410 + 37,) and np.all(np.isfinite(samples))
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["separate", "baseline"])
    def test_truncated_input_exits_1(self, command, tmp_path, capsys):
        mix = truncated_wav(tmp_path / "mix.wav")
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        assert cli.main(self.split_args(command, tmp_path, mix, out_p, out_h)) == 1
        assert f"cannot read {mix}: Reached EOF prematurely" in capsys.readouterr().err
        assert not out_p.exists() and not out_h.exists()

    @pytest.mark.parametrize("command", ["separate", "baseline"])
    def test_odd_rate_input_exits_1(self, command, tmp_path, capsys):
        mix = tmp_path / "mix.wav"
        write_wav(mix, np.zeros(4410), rate=22050)
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        assert cli.main(self.split_args(command, tmp_path, mix, out_p, out_h)) == 1
        assert "sample rate 22050 Hz" in capsys.readouterr().err
        assert not out_p.exists() and not out_h.exists()

    @staticmethod
    def split_args(command, tmp_path, mix, out_p, out_h):
        """Arguments of ``separate`` (with a tiny checkpoint) or ``baseline``."""
        args = [command, "--in", str(mix), "--out-perc", str(out_p), "--out-harm", str(out_h)]
        if command == "separate":
            args += ["--ckpt", str(small_checkpoint(tmp_path)[2])]
        return args

    def test_eval_rejects_silent_reference(self, tmp_path, capsys):
        track = np.sin(np.linspace(0.0, 200.0, 4410))
        assert cli.main(self.eval_args(tmp_path, np.zeros(4410), track)) == 1
        assert "zero-energy reference" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @staticmethod
    def eval_args(tmp_path, drums, other):
        """Write one reference track with half-mixture estimates; eval arguments."""
        ref_dir, est_dir = tmp_path / "ref" / "t0", tmp_path / "est" / "t0"
        ref_dir.mkdir(parents=True)
        est_dir.mkdir(parents=True)
        write_wav(ref_dir / "drums.wav", drums)
        write_wav(ref_dir / "other.wav", other)
        write_wav(est_dir / "perc.wav", 0.5 * (drums + other))
        write_wav(est_dir / "harm.wav", 0.5 * (drums + other))
        return ["eval", "--est-dir", str(tmp_path / "est"), "--ref-dir",
                str(tmp_path / "ref"), "--report", str(tmp_path / "report.csv")]

    def test_eval_scores_constant_reference(self, tmp_path, capsys):
        track = np.sin(np.linspace(0.0, 200.0, 4410))
        args = self.eval_args(tmp_path, np.full(4410, 0.25), track)
        assert cli.main(args) == 0
        rows = read_report(tmp_path / "report.csv")
        assert [r["source"] for r in rows] == ["percussive", "harmonic", "average"]
        for row in rows:
            assert all(np.isfinite(float(row[k])) for k in ("sdr_db", "sir_db", "sar_db"))
        capsys.readouterr()

    def test_eval_rejects_two_constant_references(self, tmp_path, capsys):
        args = self.eval_args(tmp_path, np.full(4410, 0.25), np.full(4410, -0.5))
        assert cli.main(args) == 1
        assert "collinear" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_param_count_default_config(self, capsys):
        assert cli.main(["param-count"]) == 0
        printed = int(capsys.readouterr().out.strip())
        assert 550_000 <= printed <= 610_000

    def test_gen_data_then_train_then_separate_then_eval(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        spec_path = write_synth_cfg(tmp_path / "synth.cfg")
        assert cli.main(["gen-data", "--spec", str(spec_path),
                         "--out", str(data_dir)]) == 0
        assert (data_dir / "track000" / "mixture.wav").exists()
        assert (data_dir / "track001" / "other.wav").exists()

        run_cfg = write_run_cfg(tmp_path / "run.cfg")
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", "--data", str(data_dir), "--config", str(run_cfg),
                         "--out", str(ckpt)]) == 0
        assert ckpt.exists()
        assert (tmp_path / "model.ckpt.metrics.csv").exists()

        est_dir = tmp_path / "est"
        for tid in ("track000", "track001"):
            (est_dir / tid).mkdir(parents=True)
            assert cli.main([
                "separate", "--ckpt", str(ckpt),
                "--in", str(data_dir / tid / "mixture.wav"),
                "--out-perc", str(est_dir / tid / "perc.wav"),
                "--out-harm", str(est_dir / tid / "harm.wav"),
            ]) == 0

        report = tmp_path / "report.csv"
        assert cli.main(["eval", "--est-dir", str(est_dir),
                         "--ref-dir", str(data_dir),
                         "--report", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "track,source,sdr_db,sir_db,sar_db"
        assert len(lines) == 1 + 2 * 3  # 2 tracks x (percussive, harmonic, average)
        capsys.readouterr()

    def test_train_on_silent_corpus_exits_1_and_writes_nothing(self, tmp_path, capsys):
        spec_path = tmp_path / "synth.cfg"
        spec_path.write_text("n_tracks = 2\nduration_s = 1.6\nvoices = 2\npartials = 4\n"
                             "gain_harm = 0\ngain_perc = 0\n")
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
        ckpt = tmp_path / "model.ckpt"
        rc = cli.main(["train", "--data", str(data_dir),
                       "--config", str(write_run_cfg(tmp_path / "run.cfg")),
                       "--out", str(ckpt)])
        assert rc == 1
        assert "silent corpus cannot be normalized" in capsys.readouterr().err
        assert not ckpt.exists()
        assert not (tmp_path / "model.ckpt.metrics.csv").exists()

    def test_baseline_command_and_self_eval_caps(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        spec_path = write_synth_cfg(tmp_path / "synth.cfg", n_tracks=1)
        assert cli.main(["gen-data", "--spec", str(spec_path),
                         "--out", str(data_dir)]) == 0

        out_p = tmp_path / "p.wav"
        out_h = tmp_path / "h.wav"
        assert cli.main(["baseline",
                         "--in", str(data_dir / "track000" / "mixture.wav"),
                         "--out-perc", str(out_p), "--out-harm", str(out_h),
                         "--l-harm", "9", "--l-perc", "9"]) == 0
        assert out_p.exists() and out_h.exists()

        # estimates equal to the references must hit the +100 dB caps
        est_dir = tmp_path / "est" / "track000"
        est_dir.mkdir(parents=True)
        ref_p, _ = read_wav(data_dir / "track000" / "drums.wav")
        ref_h, _ = read_wav(data_dir / "track000" / "other.wav")
        write_wav(est_dir / "perc.wav", ref_p)
        write_wav(est_dir / "harm.wav", ref_h)
        report = tmp_path / "self.csv"
        assert cli.main(["eval", "--est-dir", str(tmp_path / "est"),
                         "--ref-dir", str(data_dir),
                         "--report", str(report)]) == 0
        rows = [line.split(",") for line in report.read_text().strip().splitlines()[1:]]
        for row in rows:
            assert float(row[2]) == 100.0
        capsys.readouterr()
