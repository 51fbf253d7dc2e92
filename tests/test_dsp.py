import tracemalloc

import numpy as np
import pytest

from hpsep import dsp
from hpsep.dsp import (
    GlobalStats,
    HOP,
    MagPatch,
    N_BINS,
    PATCH_FRAMES,
    Spectrogram,
    WIN_LENGTH,
    apply_masks,
    compute_global_stats,
    depatchify,
    hann_window,
    istft,
    normalize_values,
    patchify,
    stft,
    tiles,
)

SR = 44100


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def rel_rms(a, b):
    return np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(b**2))


class TestWindowAndFraming:
    def test_cola_sum_is_one_over_interior(self):
        # periodic Hann at 50% overlap: shifted copies tile to exactly 1
        w = hann_window(WIN_LENGTH)
        length = 8 * HOP + WIN_LENGTH
        acc = np.zeros(length)
        for t in range(0, length - WIN_LENGTH + 1, HOP):
            acc[t : t + WIN_LENGTH] += w
        interior = acc[WIN_LENGTH:-WIN_LENGTH]
        np.testing.assert_allclose(interior, 1.0, atol=1e-12)

    def test_wola_normalizer_bounded_below(self, rng):
        # over retained samples the summed squared window is the HOP-value
        # pattern w2[HOP:] + w2[:HOP], repeated, and never below 0.5
        x = rng.standard_normal(SR + 333)
        spec = stft(x, SR)
        w2 = hann_window(WIN_LENGTH) ** 2
        total = (spec.frames - 1) * HOP + WIN_LENGTH
        norm = np.zeros(total)
        for t in range(spec.frames):
            norm[t * HOP : t * HOP + WIN_LENGTH] += w2
        retained = norm[HOP : HOP + spec.orig_length]
        pattern = w2[HOP:] + w2[:HOP]
        np.testing.assert_array_equal(retained, np.tile(pattern, spec.frames)[: spec.orig_length])
        assert pattern.min() >= 0.5

    def test_frame_count_covers_signal(self):
        n = 66150  # 1.5 s
        spec = stft(np.ones(n), SR)
        assert spec.frames >= 128
        assert spec.values.shape == (WIN_LENGTH // 2 + 1, spec.frames)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            stft(np.zeros(WIN_LENGTH - 1), SR)

    def test_stereo_rejected(self):
        with pytest.raises(ValueError):
            stft(np.zeros((2, SR)), SR)


class TestStftValues:
    def test_zero_signal_zero_spectrogram(self):
        spec = stft(np.zeros(2 * SR), SR)
        assert np.all(spec.values == 0.0)

    def test_sine_peaks_at_expected_bin(self):
        t = np.arange(SR) / SR
        x = np.sin(2 * np.pi * 440.0 * t)
        spec = stft(x, SR)
        mag = spec.magnitude()[:N_BINS]
        mid = mag[:, spec.frames // 2]
        assert int(np.argmax(mid)) == round(440.0 * WIN_LENGTH / SR)  # = 10

    def test_linearity(self, rng):
        a = rng.standard_normal(3 * HOP + 17)
        b = rng.standard_normal(3 * HOP + 17)
        lhs = stft(2.0 * a + 0.25 * b, SR).values
        rhs = 2.0 * stft(a, SR).values + 0.25 * stft(b, SR).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestRoundTrip:
    @pytest.mark.parametrize("length", [2 * SR, 2 * SR + 1, 5 * HOP, 5 * HOP + 311])
    def test_white_noise_roundtrip(self, rng, length):
        x = rng.standard_normal(length)
        y = istft(stft(x, SR))
        assert y.shape == x.shape
        assert rel_rms(y, x) < 1e-6

    def test_sine_roundtrip(self):
        t = np.arange(int(1.7 * SR)) / SR
        x = 0.8 * np.sin(2 * np.pi * 523.25 * t)
        y = istft(stft(x, SR))
        assert rel_rms(y, x) < 1e-6

    def test_zero_roundtrip(self):
        y = istft(stft(np.zeros(3 * HOP), SR))
        np.testing.assert_array_equal(y, np.zeros(3 * HOP))

    @staticmethod
    def overlap_add(spec):
        """Weighted overlap-add one frame at a time, over full-length buffers."""
        window = hann_window(WIN_LENGTH)
        frames = np.fft.irfft(spec.values.T, n=WIN_LENGTH, axis=1) * window
        acc = np.zeros((spec.frames - 1) * HOP + WIN_LENGTH)
        norm = np.zeros_like(acc)
        for t in range(spec.frames):
            acc[t * HOP : t * HOP + WIN_LENGTH] += frames[t]
            norm[t * HOP : t * HOP + WIN_LENGTH] += window * window
        retained = slice(HOP, HOP + spec.orig_length)
        return acc[retained] / norm[retained]

    @pytest.mark.parametrize("length", [WIN_LENGTH, 5 * HOP + 311, 2 * SR + 1])
    def test_istft_equals_frame_by_frame_overlap_add(self, rng, length):
        spec = stft(rng.standard_normal(length), SR)
        spec.values *= rng.random(spec.values.shape)  # not a consistent STFT
        np.testing.assert_array_equal(istft(spec), self.overlap_add(spec))

    def test_istft_peak_memory(self, rng):
        # the frame stack plus the half-frame sums, 2.0 stacks; a per-frame
        # loop into full-length sum and normalizer buffers, after a windowed
        # copy of the stack, peaks at 3.0
        spec = stft(rng.standard_normal(30 * SR), SR)
        stack = spec.frames * WIN_LENGTH * 8
        tracemalloc.start()
        try:
            istft(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * stack


class TestPatchify:
    def test_exact_multiple(self, rng):
        mag = np.abs(rng.standard_normal((N_BINS, 2 * PATCH_FRAMES)))
        patches = patchify(mag)
        assert len(patches) == 2
        np.testing.assert_array_equal(patches[0].values, mag[:, :PATCH_FRAMES])
        np.testing.assert_array_equal(patches[1].values, mag[:, PATCH_FRAMES:])

    def test_partial_final_patch_padded(self, rng):
        mag = np.abs(rng.standard_normal((N_BINS, PATCH_FRAMES + 2)))
        patches = patchify(mag)
        assert len(patches) == 2
        assert all(p.values.shape == (N_BINS, PATCH_FRAMES) for p in patches)
        np.testing.assert_array_equal(patches[-1].values[:, :2], mag[:, PATCH_FRAMES:])
        assert np.all(patches[-1].values[:, 2:] == 0.0)

    def test_tiles_are_views_of_one_padded_copy(self, rng):
        mag = np.abs(rng.standard_normal((N_BINS, 2 * PATCH_FRAMES + 5)))
        patches = patchify(mag)
        base = patches[0].values.base
        assert base is not None and base.shape == (N_BINS, 3 * PATCH_FRAMES)
        assert all(p.values.base is base for p in patches)
        assert not np.shares_memory(base, mag)

    @pytest.mark.parametrize("frames", [1, 127, 128, 129, 300, 600])
    def test_roundtrip_bit_exact(self, rng, frames):
        mag = np.abs(rng.standard_normal((N_BINS, frames)))
        n = -(-frames // PATCH_FRAMES)
        patches = [p.values for p in patchify(mag)]
        assert len(patches) == n
        np.testing.assert_array_equal(depatchify(patches, frames), mag)
        # the array layout: n tiles in the network's batch layout, all views
        # of one zero-padded copy, holding what the records hold
        t = tiles(mag)
        assert t.shape == (n, 1, N_BINS, PATCH_FRAMES)
        assert t.base.shape == (N_BINS, n * PATCH_FRAMES) and not np.shares_memory(t, mag)
        assert all(np.shares_memory(t[i], t.base) for i in range(n))
        assert np.all(t.base[:, frames:] == 0.0)
        for i, p in enumerate(patches):
            np.testing.assert_array_equal(p, t[i, 0])
        np.testing.assert_array_equal(depatchify(list(t[:, 0]), frames), mag)

    def test_wrong_bins_rejected(self, rng):
        for layout in (patchify, tiles):
            with pytest.raises(ValueError):
                layout(np.abs(rng.standard_normal((100, 50))))

    def test_empty_rejected(self):
        for layout in (patchify, tiles):
            with pytest.raises(ValueError, match="empty"):
                layout(np.zeros((N_BINS, 0)))

    def test_depatchify_frame_count_enforced(self):
        # two tiles hold 129..256 frames; fewer leaves a tile of pure padding
        tiles = [p.values for p in patchify(np.ones((N_BINS, 2 * PATCH_FRAMES)))]
        for frames in (0, PATCH_FRAMES, 2 * PATCH_FRAMES + 1):
            with pytest.raises(ValueError, match="cannot hold"):
                depatchify(tiles, frames)
        with pytest.raises(ValueError, match="cannot hold"):
            depatchify([], 1)


class TestNormalization:
    def test_boundary_values(self):
        stats = GlobalStats(min_val=0.0, max_val=1.0)
        lo = np.full((N_BINS, PATCH_FRAMES), 0.0)            # log1p -> 0 = min
        hi = np.full((N_BINS, PATCH_FRAMES), np.e - 1.0)     # log1p -> 1 = max
        assert np.all(normalize_values(lo, stats) == 0.0)
        np.testing.assert_allclose(normalize_values(hi, stats), 1.0, rtol=1e-12)

    def test_out_of_range_clamps(self):
        stats = GlobalStats(min_val=0.0, max_val=1.0)
        above = np.full((4,), np.e * np.e)  # log1p > max
        assert np.all(normalize_values(above, stats) == 1.0)

    def test_monotone(self, rng):
        stats = GlobalStats(min_val=0.0, max_val=3.0)
        v = np.sort(rng.random(100) * 10.0)
        out = normalize_values(v, stats)
        assert np.all(np.diff(out) >= 0.0)

    def test_degenerate_stats_rejected(self):
        with pytest.raises(ValueError):
            normalize_values(np.ones(4), GlobalStats(0.5, 0.5))

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 1.0), (0.0, np.inf), (0.0, np.nan)])
    def test_non_finite_stats_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="degenerate normalization stats"):
            normalize_values(np.ones(4), GlobalStats(lo, hi))

    def test_stats_from_corpus(self, rng):
        zeros = MagPatch(np.zeros((N_BINS, PATCH_FRAMES)))
        stats = compute_global_stats([zeros])
        assert stats.min_val == 0.0 and stats.max_val == 0.0
        with pytest.raises(ValueError):
            normalize_values(zeros.values, stats)

        a = MagPatch(np.zeros((N_BINS, PATCH_FRAMES)))
        bvals = np.zeros((N_BINS, PATCH_FRAMES))
        bvals[0, 0] = np.e - 1.0
        b = MagPatch(bvals)
        stats = compute_global_stats([a, b])
        assert stats.min_val == 0.0
        np.testing.assert_allclose(stats.max_val, 1.0, rtol=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            compute_global_stats([])


class TestApplyMasks:
    def make_mix(self, rng, length=2 * SR):
        # wideband content on purpose: noise bursts reach the top bins
        t = np.arange(length) / SR
        tone = 0.5 * np.sin(2 * np.pi * 220.0 * t)
        noise = 0.3 * rng.standard_normal(length)
        return tone + noise

    def test_all_or_nothing_masks(self, rng):
        x = self.make_mix(rng)
        spec = stft(x, SR)
        ones = np.ones((N_BINS, spec.frames))
        zeros = np.zeros((N_BINS, spec.frames))
        perc, harm = apply_masks(ones, zeros, spec)
        assert rel_rms(perc, x) < 1e-6
        assert np.sqrt(np.mean(harm**2)) < 1e-9

    def test_complementary_masks_rebuild_mixture(self, rng):
        x = self.make_mix(rng)
        spec = stft(x, SR)
        m = rng.random((N_BINS, spec.frames))
        perc, harm = apply_masks(m, 1.0 - m, spec)
        assert rel_rms(perc + harm, x) < 1e-6

    def test_half_masks_split_equally(self, rng):
        x = self.make_mix(rng)
        spec = stft(x, SR)
        half = np.full((N_BINS, spec.frames), 0.5)
        perc, harm = apply_masks(half, half, spec)
        np.testing.assert_allclose(perc, harm, atol=1e-12)
        assert rel_rms(perc + harm, x) < 1e-6

    def test_mask_bounds_enforced(self, rng):
        spec = stft(self.make_mix(rng, WIN_LENGTH * 4), SR)
        good = np.full((N_BINS, spec.frames), 0.5)
        bad = good.copy()
        bad[0, 0] = 1.5
        with pytest.raises(ValueError):
            apply_masks(bad, good, spec)
        with pytest.raises(ValueError):
            apply_masks(good, -bad, spec)

    def test_nan_mask_rejected(self, rng):
        spec = stft(self.make_mix(rng, WIN_LENGTH * 4), SR)
        good = np.full((N_BINS, spec.frames), 0.5)
        with pytest.raises(ValueError, match=r"percussive mask values must lie in \[0, 1\]"):
            apply_masks(np.full_like(good, np.nan), good, spec)
        with pytest.raises(ValueError, match=r"harmonic mask values must lie in \[0, 1\]"):
            apply_masks(good, np.where(good > 0, np.nan, good), spec)

    def test_mask_shape_enforced(self, rng):
        spec = stft(self.make_mix(rng, WIN_LENGTH * 4), SR)
        wrong = np.ones((N_BINS, spec.frames + 1))
        with pytest.raises(ValueError):
            apply_masks(wrong, wrong, spec)


class TestSpectrogramValidation:
    def test_bad_bin_count_rejected(self):
        with pytest.raises(ValueError):
            Spectrogram(np.zeros((512, 4), dtype=complex), sample_rate=SR, orig_length=100)

    def test_bad_orig_length_rejected(self):
        with pytest.raises(ValueError, match="orig_length"):
            Spectrogram(np.zeros((513, 4), dtype=complex), sample_rate=SR, orig_length=0)

    def test_orig_length_beyond_frames_rejected(self):
        values = np.zeros((513, 4), dtype=complex)
        assert istft(Spectrogram(values, sample_rate=SR, orig_length=3 * HOP)).shape == (3 * HOP,)
        with pytest.raises(ValueError, match=r"orig_length 1537 is not in 1\.\.1536"):
            Spectrogram(values, sample_rate=SR, orig_length=3 * HOP + 1)
