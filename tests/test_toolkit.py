"""WAV I/O, synthesis, config parsing, dataset plumbing, and CLI tests."""

import math
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.ndimage import median_filter

import conftest
from hpsep import cli, data
from hpsep.audio_io import AudioError, read_wav, write_wav
from hpsep.config import (
    ConfigError,
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
    synth_track,
    track_ids,
    write_dataset,
)
from hpsep.dsp import HOP, N_BINS, PATCH_FRAMES, WIN_LENGTH, normalize_values, stft
from hpsep.network import (
    BRANCH_KERNELS,
    MaskSeparator,
    NetworkConfig,
    load_checkpoint,
    save_checkpoint,
)
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

    @pytest.mark.parametrize("rate", [22050, 48000])
    def test_wrong_rate_rejected(self, tmp_path, rate):
        path = tmp_path / "r.wav"
        wavfile.write(path, rate, np.zeros(100, dtype=np.float32))
        with pytest.raises(AudioError, match=f"sample rate {rate} Hz, expected 44100 Hz$"):
            read_wav(path)

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
        path = tmp_path / "x.wav"
        for samples in ([0.0, np.nan], [1e39]):  # 1e39 is finite, but not as float32
            with pytest.raises(AudioError,
                               match=f"non-finite float32 samples to {re.escape(str(path))}$"):
                write_wav(path, np.array(samples))
        assert not path.exists()


def truncated_wav(path):
    """A 1.4 s float32 WAV cut to half its bytes, inside its data chunk."""
    samples = np.random.default_rng(3).normal(size=int(1.4 * 44100)).astype(np.float32)
    wavfile.write(path, 44100, 0.1 * samples)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return path


def write_track_dir(track_dir, mixture, drums):
    """One dataset track directory: mixture.wav and drums.wav."""
    track_dir.mkdir(parents=True)
    write_wav(track_dir / "mixture.wav", mixture)
    write_wav(track_dir / "drums.wav", drums)


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

    def test_aliasing_spec_rejected(self):
        # the highest fundamental is 660 Hz: 33 partials stay under Nyquist, 34 do not
        assert SynthSpec(partials=33).partials == 33
        with pytest.raises(ValueError, match="highest partial 22440 Hz would alias"):
            SynthSpec(partials=34)

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            SynthSpec(n_tracks=0)

    def test_stem_orientation_in_spectrogram(self):
        # harmonic energy should survive a median along time, percussive
        # a median along frequency; each stem must win its own direction
        track = synth_track(quick_spec(duration_s=3.0), 2)
        for name, sign in (("harmonic_rest", 1.0), ("drums", -1.0)):
            power = np.abs(stft(track.stems[name]).values[:512]) ** 2
            along_time = median_filter(power, size=(1, 17), mode="reflect").sum()
            along_freq = median_filter(power, size=(17, 1), mode="reflect").sum()
            assert sign * (along_time - along_freq) > 0.0, name

    @staticmethod
    def per_sample_stems(spec, track_seed):
        # one sine per sample per partial, drawing f0, the phases and the
        # gain of each voice in turn, then the percussive stem's draws
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, track_seed])))
        n = int(round(spec.duration_s * 44100))
        t = np.arange(n) / 44100
        env = np.clip(np.minimum(t / data.ATTACK_S, (n / 44100 - t) / data.RELEASE_S), 0.0, 1.0)
        harm = np.zeros(n)
        for _ in range(spec.voices):
            f0 = data.F0_MIN_HZ * (data.F0_MAX_HZ / data.F0_MIN_HZ) ** rng.random()
            tone = np.zeros(n)
            for k in range(1, spec.partials + 1):
                phase = 2.0 * math.pi * rng.random()
                tone += k ** -data.PARTIAL_ROLLOFF * np.sin(2.0 * math.pi * k * f0 * t + phase)
            harm += (0.5 + 0.5 * rng.random()) * tone * env
        harm /= spec.voices
        perc = data._percussive_stem(rng, n)
        c = 0.9 * (1.0 - 1e-9) / np.max(np.abs(harm + perc))
        return harm * c, perc * c

    # 1024 samples is a whole number of 32-sample blocks; 61,740 and 441,000
    # samples end in a partial block
    @pytest.mark.parametrize("duration_s", [1024 / 44100, 1.4, 10.0])
    def test_stems_match_per_sample_sines(self, duration_s):
        for voices, partials in ((1, 1), (3, 8), (2, 33)):
            spec = SynthSpec(seed=5, duration_s=duration_s, voices=voices, partials=partials)
            track = synth_track(spec, 2)
            harm, perc = self.per_sample_stems(spec, 2)
            assert len(track.mixture) == len(harm)
            np.testing.assert_allclose(track.stems["harmonic_rest"], harm, rtol=0, atol=1e-9)
            np.testing.assert_allclose(track.stems["drums"], perc, rtol=0, atol=1e-9)

    def test_peak_memory_is_flat_in_voices(self):
        # each voice renders into one shared block matrix: 32 voices peak
        # where one does, at no more than 3.5 track-length float64 arrays
        # (the returned track itself holds 3)
        synth_track(quick_spec(), 0)  # one-off allocations happen untraced
        peaks = {}
        for voices in (1, 32):
            spec = SynthSpec(duration_s=10.0, voices=voices)
            tracemalloc.start()
            try:
                synth_track(spec, 0)
                peaks[voices] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[32] - peaks[1]) <= 0.01 * peaks[1], peaks
        assert max(peaks.values()) <= 3.5 * 441000 * 8, peaks

    def test_track_mixture_is_the_stem_sum_by_construction(self):
        good = synth_track(quick_spec(), 0)
        stems = {"drums": good.stems["drums"], "harmonic_rest": good.stems["harmonic_rest"] * 1.5}
        track = Track(id="made", stems=stems)
        assert track.mixture.tobytes() == (stems["drums"] + stems["harmonic_rest"]).tobytes()
        with pytest.raises(TypeError, match="mixture"):
            Track(id="bad", mixture=good.mixture, stems=good.stems)


class TestDatasetIO:
    def test_write_then_load_roundtrip(self, tmp_path):
        tracks = [synth_track(quick_spec(), i) for i in range(2)]
        write_dataset(tracks, tmp_path / "ds")
        assert sorted(p.name for p in (tmp_path / "ds" / "track000").iterdir()) == [
            "drums.wav", "mixture.wav"]
        loaded = load_dataset(tmp_path / "ds")
        assert [tid for tid, _, _ in loaded] == ["track000", "track001"]
        for (tid, mixture, drums), track in zip(loaded, tracks):
            assert len(mixture) == len(track.mixture)
            # float32 storage quantizes the float64 stems
            np.testing.assert_allclose(mixture, track.mixture, atol=1e-6)
            np.testing.assert_allclose(drums, track.stems["drums"], atol=1e-6)
            # and the files hold exactly the float32 rounding of each array
            _, wav_mixture = wavfile.read(tmp_path / "ds" / tid / "mixture.wav")
            _, wav_drums = wavfile.read(tmp_path / "ds" / tid / "drums.wav")
            assert wav_mixture.tobytes() == track.mixture.astype(np.float32).tobytes()
            assert wav_drums.tobytes() == track.stems["drums"].astype(np.float32).tobytes()

    def test_tracks_are_sorted_directories_holding_a_mixture(self, tmp_path):
        for tid in ("zeta", "alpha", "mid"):  # created out of order
            write_track_dir(tmp_path / tid, np.zeros(WIN_LENGTH), np.zeros(WIN_LENGTH))
        (tmp_path / "notes.txt").write_text("not a track")
        (tmp_path / "empty").mkdir()
        (tmp_path / "drums-only").mkdir()
        write_wav(tmp_path / "drums-only" / "drums.wav", np.zeros(64))
        assert track_ids(tmp_path) == ["alpha", "mid", "zeta"]
        assert [tid for tid, _, _ in load_dataset(tmp_path)] == ["alpha", "mid", "zeta"]

    def test_empty_root_has_no_tracks(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no track directories"):
            load_dataset(tmp_path)

    def test_unequal_lengths_rejected(self, tmp_path):
        write_track_dir(tmp_path / "t0", np.zeros(64), np.zeros(63))
        with pytest.raises(ValueError, match="t0: mixture and drums lengths differ"):
            load_dataset(tmp_path)

    def test_track_shorter_than_a_window_rejected_by_id(self, tmp_path):
        write_track_dir(tmp_path / "track000", np.zeros(WIN_LENGTH), np.zeros(WIN_LENGTH))
        write_track_dir(tmp_path / "track001", np.zeros(500), np.zeros(500))
        with pytest.raises(ValueError, match="^track001: 500 samples, shorter than one 1024"):
            load_dataset(tmp_path)

    def test_short_track_refused_before_the_rest_are_read(self, tmp_path, monkeypatch):
        write_track_dir(tmp_path / "track000", np.zeros(500), np.zeros(500))
        write_track_dir(tmp_path / "track001", np.zeros(WIN_LENGTH), np.zeros(WIN_LENGTH))
        read = []
        monkeypatch.setattr(data, "read_track",
                            lambda d, f=data.read_track: read.append(d.name) or f(d))
        with pytest.raises(ValueError, match="^track000: 500 samples, shorter than one 1024"):
            load_dataset(tmp_path)
        assert read == ["track000"]


# The config surface: key -> (owning dataclass, type, a valid non-default
# value). Float keys take an integer-looking value where one is valid, so
# an int parser could not pass for a float one.
RUN_KEYS = {
    "growth_rate": (NetworkConfig, int, "3"),
    "layers_per_block": (NetworkConfig, int, "2"),
    "depth": (NetworkConfig, int, "2"),
    "final_block_layers": (NetworkConfig, int, "2"),
    "lr0": (TrainConfig, float, "1"),
    "batch_size": (TrainConfig, int, "4"),
    "max_epochs": (TrainConfig, int, "3"),
    "seed": (TrainConfig, int, "9"),
}

SYNTH_KEYS = {
    "seed": (int, "5"),
    "n_tracks": (int, "2"),
    "duration_s": (float, "3"),
    "voices": (int, "2"),
    "partials": (int, "5"),
}

# Keys that once set a value that is now a module or class constant, each
# with the config it belonged to.
REMOVED_KEYS = {
    **{key: "run" for key in (
        "leaky_alpha", "val_fraction", "improve_tol", "lambda_p", "lambda_h",
        "plateau_patience", "plateau_factor", "stop_patience")},
    **{key: "synth" for key in (
        "f0_min_hz", "f0_max_hz", "partial_rolloff", "attack_s", "release_s",
        "onset_rate_hz", "burst_decay_ms", "band_emphasis", "gain_harm", "gain_perc")},
}


FLOAT_FIELDS = [(cls, f.name) for cls in (NetworkConfig, TrainConfig, SynthSpec)
                for f in fields(cls) if type(f.default) is float]


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
        assert load_run_config(None) == (NetworkConfig(), TrainConfig())
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
        path.write_text("batch_size = 0\n")
        with pytest.raises(ConfigError, match="^batch_size and max_epochs must be >= 1$"):
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

    @pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
    def test_removed_key_is_unknown(self, key, tmp_path):
        path = tmp_path / "key.cfg"
        path.write_text(f"{key} = 0.5\n")
        load = load_run_config if REMOVED_KEYS[key] == "run" else load_synth_spec
        with pytest.raises(ConfigError, match=f"line 1: unknown key {key!r}"):
            load(path)

    @pytest.mark.parametrize("owner, key", FLOAT_FIELDS,
                             ids=[f"{o.__name__}-{k}" for o, k in FLOAT_FIELDS])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dataclass_refuses_non_finite_float_field(self, owner, key, value):
        # library callers get the refusal a config file gets, naming the field
        with pytest.raises(ValueError, match=f"^{key} must be .*got {value}$"):
            owner(**{key: value})

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = -1\n")
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            load_run_config(path)


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

    def test_estimate_masks_lone_patches_match_batch_of_one_forwards(self, tmp_path):
        model, stats, _ = small_checkpoint(tmp_path)
        # 600 frames: five tiles, the last with 88 frames of padding, each
        # run as a lone (1, 512, 128) patch against a (1, 1, 512, 128) batch
        spec = stft(np.random.default_rng(9).normal(size=599 * HOP - 100) * 0.1)
        assert spec.frames == 600
        mask_p, mask_h = estimate_masks(model, stats, spec)
        mag = np.pad(spec.magnitude()[:N_BINS], ((0, 0), (0, 5 * PATCH_FRAMES - 600)))
        tiles_p, tiles_h = [], []
        for lo in range(0, 5 * PATCH_FRAMES, PATCH_FRAMES):
            x = normalize_values(mag[:, lo : lo + PATCH_FRAMES], stats)[None, None]
            mp, mh = model.forward(x)
            tiles_p.append(mp.data[0, 0])
            tiles_h.append(mh.data[0, 0])
        np.testing.assert_array_equal(mask_p, np.hstack(tiles_p)[:, :600])
        np.testing.assert_array_equal(mask_h, np.hstack(tiles_h)[:, :600])

    def test_estimate_masks_runs_a_float32_model_in_float32(self, tmp_path):
        _, stats, ckpt = small_checkpoint(tmp_path)
        model, _ = load_checkpoint(ckpt, dtype=np.float32)
        spec = stft(np.random.default_rng(10).normal(size=299 * HOP - 100) * 0.1)
        assert spec.frames == 300
        for mask in estimate_masks(model, stats, spec):
            assert mask.dtype == np.float32 and mask.shape == (N_BINS, 300)

    def test_estimate_masks_peak_memory_is_flat_in_tiles(self):
        # one tile per forward: eight tiles may add to one tile's peak no
        # more than twice their masks (the tile list and the joined copy)
        net = NetworkConfig(growth_rate=4, layers_per_block=2, depth=2,
                            final_block_layers=2)
        model = MaskSeparator(net, seed=0)
        stats = GlobalStats(min_val=0.0, max_val=3.0)
        rng = np.random.default_rng(4)
        specs = {n: stft(rng.normal(size=(n * PATCH_FRAMES - 1) * HOP - 100) * 0.1)
                 for n in (1, 8)}
        assert [s.frames for s in specs.values()] == [PATCH_FRAMES, 8 * PATCH_FRAMES]
        estimate_masks(model, stats, specs[1])  # one-off allocations happen untraced
        peaks = {}
        for n, spec in specs.items():
            tracemalloc.start()
            try:
                estimate_masks(model, stats, spec)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        mask_bytes = 2 * 8 * N_BINS * PATCH_FRAMES * 8  # both masks of 8 float64 tiles
        assert peaks[8] <= peaks[1] + 2 * mask_bytes, peaks


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
        # one parser serves every call, and the refused calls leave it fit for the next
        assert cli._build_parser() is cli._build_parser()
        capsys.readouterr()
        assert cli.main(["param-count"]) == 0
        assert capsys.readouterr().out.strip() == "552062"

    def test_module_errors_exit_1(self, tmp_path, capsys):
        rc = cli.main(["param-count", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_memory_error_exits_1_with_one_line(self, monkeypatch, capsys):
        # numpy's message when an allocation fails; the test allocates nothing
        message = ("Unable to allocate 512. GiB for an array with shape (68719476736,) "
                   "and data type float64")

        def no_memory(path):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "load_run_config", no_memory)
        assert cli.main(["param-count"]) == 1
        assert capsys.readouterr().err == f"hpsep: error: {message}\n"

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
        at = conftest.checkpoint_header(len(BRANCH_KERNELS))["growth_rate"]
        blob[at : at + 4] = (200_000).to_bytes(4, "little")
        ckpt.write_bytes(bytes(blob))
        mix = tmp_path / "mix.wav"
        write_wav(mix, np.zeros(4410))
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        rc = cli.main(["separate", "--ckpt", str(ckpt), "--in", str(mix),
                       "--out-perc", str(out_p), "--out-harm", str(out_h)])
        assert rc == 1
        assert ("hpsep: error: shape mismatch for 'branch0.enc0.layer0.conv.weight'"
                in capsys.readouterr().err)
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
        at = conftest.checkpoint_header(len(BRANCH_KERNELS))["stat_min"]
        blob[at : at + 8] = struct.pack("<d", -np.inf)
        ckpt.write_bytes(bytes(blob))
        assert self.separate_with(tmp_path, ckpt) == 1
        assert "hpsep: error: non-finite normalization stats: min=-inf" in capsys.readouterr().err

    def test_separate_names_non_finite_checkpoint_record(self, tmp_path, capsys):
        _, _, ckpt = small_checkpoint(tmp_path)
        # save_checkpoint refuses a NaN parameter, so the bytes are set on disk
        blob = ckpt.read_bytes()
        at = blob.index(b"head_perc.bias") + len("head_perc.bias") + 6  # tag, rank, dim
        ckpt.write_bytes(blob[:at] + struct.pack("<d", np.nan) + blob[at + 8 :])
        assert self.separate_with(tmp_path, ckpt) == 1
        assert "hpsep: error: record 'head_perc.bias'" in capsys.readouterr().err

    def test_separate_refuses_a_record_that_overflows_float32(self, tmp_path, capsys):
        model, stats, ckpt = small_checkpoint(tmp_path)
        model.store.params["head_perc.bias"].data[0] = 1e39  # finite, past float32's max
        save_checkpoint(ckpt, model.cfg, stats, model.store)
        assert self.separate_with(tmp_path, ckpt) == 1
        assert ("hpsep: error: record 'head_perc.bias' overflows float32"
                in capsys.readouterr().err)

    def test_separate_runs_the_network_in_float32(self, tmp_path, monkeypatch, capsys):
        loaded = []

        def spy(path, dtype=np.float64):
            loaded.append(np.dtype(dtype))
            return load_checkpoint(path, dtype=dtype)

        monkeypatch.setattr(cli, "load_checkpoint", spy)
        model, stats, ckpt = small_checkpoint(tmp_path)
        samples = np.random.default_rng(12).normal(size=4 * 44100) * 0.1  # three tiles
        assert stft(samples).frames > 2 * PATCH_FRAMES
        mix = tmp_path / "mix.wav"
        write_wav(mix, samples)
        samples, _ = read_wav(mix)
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        assert cli.main(["separate", "--ckpt", str(ckpt), "--in", str(mix),
                         "--out-perc", str(out_p), "--out-harm", str(out_h)]) == 0
        capsys.readouterr()
        assert loaded == [np.float32]
        for out, want in zip((out_p, out_h), separate_samples(model, stats, samples)):
            got, _ = read_wav(out)
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

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
        wavfile.write(mix, 22050, np.zeros(4410, dtype=np.float32))
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        assert cli.main(self.split_args(command, tmp_path, mix, out_p, out_h)) == 1
        assert "sample rate 22050 Hz" in capsys.readouterr().err
        assert not out_p.exists() and not out_h.exists()

    def test_baseline_refuses_stems_beyond_float32_and_writes_neither(
            self, tmp_path, monkeypatch, capsys):
        # a full-scale float32 square wave: separation overshoots the input's
        # peak, so the stems leave float32's range
        t = np.arange(44100) / 44100
        square = np.where(np.sin(2 * np.pi * 220 * t) >= 0, 1.0, -1.0)
        mix = tmp_path / "mix.wav"
        wavfile.write(mix, 44100, (np.finfo(np.float32).max * square).astype(np.float32))
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        args = self.split_args("baseline", tmp_path, mix, out_p, out_h)
        assert cli.main(args) == 1
        assert re.search(f"^hpsep: error: refusing to write non-finite float32 samples to "
                         f"({re.escape(str(out_p))}|{re.escape(str(out_h))})$",
                         capsys.readouterr().err, re.M)
        assert not out_p.exists() and not out_h.exists()
        # a stem that could be written is not, when the other one is refused
        for gain_p, gain_h, refused in ((0.0, 10.0, out_h), (10.0, 0.0, out_p)):
            monkeypatch.setattr(cli, "median_separate", lambda x: (gain_p * x, gain_h * x))
            assert cli.main(args) == 1
            assert f"non-finite float32 samples to {refused}" in capsys.readouterr().err
            assert not out_p.exists() and not out_h.exists()

    @pytest.mark.parametrize("command", ["separate", "baseline", "eval"])
    def test_resample_off_ok_is_not_an_option(self, command, tmp_path, capsys):
        mix = tmp_path / "mix.wav"
        write_wav(mix, np.zeros(4410))
        args = (["eval", "--est-dir", str(tmp_path), "--ref-dir", str(tmp_path),
                 "--report", str(tmp_path / "r.csv")] if command == "eval"
                else self.split_args(command, tmp_path, mix, tmp_path / "p.wav",
                                     tmp_path / "h.wav"))
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(args + ["--resample-off-ok"]) == 2
        assert "unrecognized arguments: --resample-off-ok" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["separate", "baseline"])
    @pytest.mark.parametrize("out_p, out_h, message", [
        ("p.wav", "nodir/h.wav", "cannot write {d}/nodir/h.wav: directory {d}/nodir does not exist"),
        ("outdir", "h.wav", "cannot write {d}/outdir: it is a directory"),
        ("same.wav", "same.wav", "--out-perc and --out-harm are the same file: {d}/same.wav"),
        # the input, named through another spelling of its path
        ("outdir/../mix.wav", "h.wav", "--out-perc is the input file: {d}/outdir/../mix.wav"),
        ("p.wav", "outdir/../mix.wav", "--out-harm is the input file: {d}/outdir/../mix.wav"),
    ], ids=["missing-directory", "is-directory", "same-file", "input-as-perc", "input-as-harm"])
    def test_unwritable_outputs_refused_before_any_work(
            self, command, out_p, out_h, message, tmp_path, monkeypatch, capsys):
        def no_split(*args):
            raise AssertionError("the input was split before the refusal")

        monkeypatch.setattr(cli, "separate_samples", no_split)
        monkeypatch.setattr(cli, "median_separate", no_split)
        mix = tmp_path / "mix.wav"
        write_wav(mix, np.random.default_rng(6).normal(size=4410) * 0.1)
        (tmp_path / "outdir").mkdir()
        args = self.split_args(command, tmp_path, mix, tmp_path / out_p, tmp_path / out_h)
        before = sorted(tmp_path.rglob("*"))
        mix_bytes = mix.read_bytes()
        assert cli.main(args) == 1
        assert f"hpsep: error: {message.format(d=tmp_path)}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert mix.read_bytes() == mix_bytes

    def test_baseline_median_lengths_are_not_options(self, tmp_path, capsys):
        mix = tmp_path / "mix.wav"
        write_wav(mix, np.zeros(4410))
        out_p, out_h = tmp_path / "p.wav", tmp_path / "h.wav"
        assert cli.main(["baseline", "--in", str(mix), "--out-perc", str(out_p),
                         "--out-harm", str(out_h), "--l-harm", "9"]) == 2
        assert "unrecognized arguments: --l-harm 9" in capsys.readouterr().err
        assert not out_p.exists() and not out_h.exists()

    @pytest.mark.parametrize("out, made, message", [
        ("nodir/m.ckpt", [], "cannot write {d}/nodir/m.ckpt: directory {d}/nodir does not exist"),
        ("outdir", ["outdir"], "cannot write {d}/outdir: it is a directory"),
    ], ids=["missing-directory", "is-directory"])
    def test_train_refuses_unwritable_out_before_reading_any_wav(
            self, out, made, message, tmp_path, monkeypatch, capsys):
        def no_reading(root):
            raise AssertionError("the dataset was read before the refusal")

        monkeypatch.setattr(cli, "load_dataset", no_reading)
        for name in made:
            (tmp_path / name).mkdir()
        rc = cli.main(["train", "--data", str(tmp_path / "data"),
                       "--config", str(write_run_cfg(tmp_path / "run.cfg")),
                       "--out", str(tmp_path / out)])
        assert rc == 1
        assert f"hpsep: error: {message.format(d=tmp_path)}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(made + ["run.cfg"])

    @pytest.mark.parametrize("line, message", [
        ("lr0 = nan", "lr0 must be finite and positive, got nan"),
        ("lr0 = inf", "lr0 must be finite and positive, got inf"),
        ("lambda_p = nan", "unknown key 'lambda_p'"),
        ("lambda_h = 1e400", "unknown key 'lambda_h'"),
        ("plateau_patience = 2", "unknown key 'plateau_patience'"),
        ("plateau_factor = 0.25", "unknown key 'plateau_factor'"),
        ("stop_patience = 7", "unknown key 'stop_patience'"),
        ("improve_tol = nan", "unknown key 'improve_tol'"),
    ], ids=["lr0-nan", "lr0-inf", "lambda_p-nan", "lambda_h-overflow", "plateau_patience",
            "plateau_factor", "stop_patience", "improve_tol-nan"])
    def test_train_refuses_bad_config_before_reading_any_wav(
            self, line, message, tmp_path, monkeypatch, capsys):
        def no_reading(root):
            raise AssertionError("the dataset was read before the refusal")

        monkeypatch.setattr(cli, "load_dataset", no_reading)
        run_cfg = write_run_cfg(tmp_path / "run.cfg")
        run_cfg.write_text(run_cfg.read_text() + line + "\n")
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(run_cfg),
                       "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize(("value", "message"), [
        ("inf", "duration_s must be finite and positive, got inf"),
        ("nan", "duration_s must be finite and positive, got nan"),
        # 441 samples: every command that reads the tracks would refuse them
        ("0.01", "duration_s 0.01 is shorter than the 1024-sample analysis window"),
    ], ids=["inf", "nan", "0.01"])
    def test_gen_data_refuses_non_finite_duration(self, value, message, tmp_path, capsys):
        spec_path = tmp_path / "synth.cfg"
        spec_path.write_text(f"n_tracks = 1\nduration_s = {value}\n")
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--spec", str(spec_path), "--out", str(data_dir)]) == 1
        assert f"hpsep: error: {message}" in capsys.readouterr().err
        assert not data_dir.exists()

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
        write_track_dir(tmp_path / "ref" / "t0", drums + other, drums)
        est_dir = tmp_path / "est" / "t0"
        est_dir.mkdir(parents=True)
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

    @pytest.mark.parametrize("report, message", [
        ("nodir/r.csv", "cannot write {d}/nodir/r.csv: directory {d}/nodir does not exist"),
        ("outdir", "cannot write {d}/outdir: it is a directory"),
    ], ids=["missing-directory", "is-directory"])
    def test_eval_refuses_unwritable_report_before_scoring(
            self, report, message, tmp_path, monkeypatch, capsys):
        def no_scoring(*args, **kwargs):
            raise AssertionError("a track was scored before the refusal")

        monkeypatch.setattr(cli, "evaluate_track", no_scoring)
        track = np.sin(np.linspace(0.0, 200.0, 4410))
        args = self.eval_args(tmp_path, 0.5 * track, track)
        (tmp_path / "outdir").mkdir()
        args[-1] = str(tmp_path / report)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(args) == 1
        assert f"hpsep: error: {message.format(d=tmp_path)}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_eval_refuses_missing_estimates_before_scoring(self, tmp_path, monkeypatch, capsys):
        def no_scoring(*args, **kwargs):
            raise AssertionError("a track was scored before the refusal")

        monkeypatch.setattr(cli, "evaluate_track", no_scoring)
        track = np.sin(np.linspace(0.0, 200.0, 4410))
        est = tmp_path / "est"
        for tid in ("t0", "t1", "t2"):
            write_track_dir(tmp_path / "ref" / tid, 1.5 * track, 0.5 * track)
            (est / tid).mkdir(parents=True)
            write_wav(est / tid / "perc.wav", 0.5 * track)
            write_wav(est / tid / "harm.wav", track)
        (est / "t1" / "harm.wav").unlink()
        (est / "t2" / "perc.wav").unlink()
        report = tmp_path / "report.csv"
        assert cli.main(["eval", "--est-dir", str(est), "--ref-dir", str(tmp_path / "ref"),
                         "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert f"hpsep: error: missing estimate {est}/t1/harm.wav (2 missing)" in err
        assert not report.exists()

    def test_eval_harmonic_reference_is_mixture_minus_drums(self, tmp_path, capsys):
        # a four-stem track as MUSDB18 decodes it: the harmonic reference is
        # everything but the drums, not other.wav alone
        rng = np.random.default_rng(8)
        drums, other, vocals = (rng.normal(size=4410) * 0.1 for _ in range(3))
        mixture = drums + other + vocals
        write_track_dir(tmp_path / "ref" / "t0", mixture, drums)
        write_wav(tmp_path / "ref" / "t0" / "other.wav", other)
        write_wav(tmp_path / "ref" / "t0" / "vocals.wav", vocals)
        est_dir = tmp_path / "est" / "t0"
        est_dir.mkdir(parents=True)
        write_wav(est_dir / "perc.wav", drums)
        write_wav(est_dir / "harm.wav", mixture - drums)
        report = tmp_path / "report.csv"
        assert cli.main(["eval", "--est-dir", str(tmp_path / "est"), "--ref-dir",
                         str(tmp_path / "ref"), "--report", str(report)]) == 0
        assert [float(r["sdr_db"]) for r in read_report(report)] == [100.0] * 3
        capsys.readouterr()

    def test_eval_rejects_unequal_reference_lengths(self, tmp_path, capsys):
        track = np.sin(np.linspace(0.0, 200.0, 4410))
        args = self.eval_args(tmp_path, 0.5 * track, track)
        write_wav(tmp_path / "ref" / "t0" / "drums.wav", 0.5 * track[:-1])
        assert cli.main(args) == 1
        assert "hpsep: error: t0: mixture and drums lengths differ" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_gen_data_refuses_a_root_holding_tracks(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--spec", str(write_synth_cfg(tmp_path / "a.cfg", 3)),
                         "--out", str(data_dir)]) == 0
        before = {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()}
        assert cli.main(["gen-data", "--spec", str(write_synth_cfg(tmp_path / "b.cfg", 2)),
                         "--out", str(data_dir)]) == 1
        assert f"hpsep: error: {data_dir} already holds tracks" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()} == before

    def test_train_refuses_a_track_without_drums(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--spec", str(write_synth_cfg(tmp_path / "synth.cfg")),
                         "--out", str(data_dir)]) == 0
        (data_dir / "track001" / "drums.wav").unlink()
        ckpt = tmp_path / "model.ckpt"
        rc = cli.main(["train", "--data", str(data_dir),
                       "--config", str(write_run_cfg(tmp_path / "run.cfg")),
                       "--out", str(ckpt)])
        assert rc == 1
        assert str(data_dir / "track001" / "drums.wav") in capsys.readouterr().err
        assert not ckpt.exists()

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
        assert (data_dir / "track001" / "drums.wav").exists()

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
        data_dir = tmp_path / "data"
        silence = np.zeros(int(1.6 * 44100))
        for tid in ("track000", "track001"):
            write_track_dir(data_dir / tid, silence, silence)
        ckpt = tmp_path / "model.ckpt"
        rc = cli.main(["train", "--data", str(data_dir),
                       "--config", str(write_run_cfg(tmp_path / "run.cfg")),
                       "--out", str(ckpt)])
        assert rc == 1
        assert "silent corpus cannot be normalized" in capsys.readouterr().err
        assert not ckpt.exists()
        assert not (tmp_path / "model.ckpt.metrics.csv").exists()

    def test_train_too_deep_for_a_tile_exits_1_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        def no_reading(root):
            raise AssertionError("the dataset was read before the refusal")

        monkeypatch.setattr(cli, "load_dataset", no_reading)
        run_cfg = write_run_cfg(tmp_path / "run.cfg")
        run_cfg.write_text(run_cfg.read_text().replace("depth = 1", "depth = 8"))
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--config", str(run_cfg),
                       "--out", str(tmp_path / "model.ckpt")])
        assert rc == 1
        assert "depth 8 is too deep for the 512x128 tile" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_param_count_refuses_a_depth_too_deep_for_a_tile(self, tmp_path, capsys):
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text("depth = 8\n")
        assert cli.main(["param-count", "--config", str(run_cfg)]) == 1
        captured = capsys.readouterr()
        assert "depth 8 is too deep for the 512x128 tile" in captured.err
        assert captured.out == ""

    def test_baseline_command_and_self_eval_caps(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        spec_path = write_synth_cfg(tmp_path / "synth.cfg", n_tracks=1)
        assert cli.main(["gen-data", "--spec", str(spec_path),
                         "--out", str(data_dir)]) == 0

        out_p = tmp_path / "p.wav"
        out_h = tmp_path / "h.wav"
        assert cli.main(["baseline",
                         "--in", str(data_dir / "track000" / "mixture.wav"),
                         "--out-perc", str(out_p), "--out-harm", str(out_h)]) == 0
        assert out_p.exists() and out_h.exists()

        # estimates equal to the references must hit the +100 dB caps
        est_dir = tmp_path / "est" / "track000"
        est_dir.mkdir(parents=True)
        mixture, _ = read_wav(data_dir / "track000" / "mixture.wav")
        ref_p, _ = read_wav(data_dir / "track000" / "drums.wav")
        ref_h = mixture - ref_p
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
