import numpy as np
import pytest
from scipy import ndimage

from hpsep.baseline import L_HARM, L_PERC, median_hpss, median_separate


@pytest.fixture
def rng():
    return np.random.default_rng(5150)


class TestMedianHpss:
    def ridge_and_stripe(self):
        # one horizontal ridge (steady tone) and one vertical stripe (hit)
        mag = np.full((64, 80), 0.01)
        mag[20, :] = 1.0   # horizontal ridge at bin 20
        mag[:, 50] += 1.0  # vertical stripe at frame 50
        return mag

    def test_horizontal_ridge_goes_harmonic(self):
        mag = self.ridge_and_stripe()
        mask_p, mask_h = median_hpss(mag)
        ridge = mask_h[20, [10, 30, 70]]
        assert np.all(ridge > 0.9)

    def test_vertical_stripe_goes_percussive(self):
        mag = self.ridge_and_stripe()
        mask_p, mask_h = median_hpss(mag)
        stripe = mask_p[[5, 40, 60], 50]
        assert np.all(stripe > 0.9)

    def test_soft_masks_sum_to_one(self, rng):
        mag = np.abs(rng.standard_normal((64, 90)))
        mask_p, mask_h = median_hpss(mag)
        np.testing.assert_allclose(mask_p + mask_h, 1.0, atol=1e-12)
        assert mask_p.min() >= 0.0 and mask_p.max() <= 1.0

    def test_silent_region_splits_evenly(self):
        mag = np.zeros((32, 40))
        mag[4, 8] = 1.0
        mask_p, mask_h = median_hpss(mag)
        assert mask_p[20, 20] == 0.5 and mask_h[20, 20] == 0.5

    def test_scale_invariance(self, rng):
        mag = np.abs(rng.standard_normal((48, 60))) + 0.1  # strictly positive
        base_p, base_h = median_hpss(mag)
        scaled_p, scaled_h = median_hpss(7.3 * mag)
        np.testing.assert_allclose(scaled_p, base_p, atol=1e-10)
        np.testing.assert_allclose(scaled_h, base_h, atol=1e-10)

    def test_negative_input_rejected(self):
        # NaN and Inf are refused too, before any filtering
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            mag = np.ones((4, 4))
            mag[1, 2] = bad
            with pytest.raises(ValueError, match="finite and nonnegative"):
                median_hpss(mag)

    @pytest.mark.parametrize(
        "shape",
        [(512, 1), (512, 3), (512, 8), (512, 9), (512, 17), (64, 80), (512, 863)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    def test_masks_match_2d_median_filter(self, rng, shape):
        # quantized values give ties; zero rows and columns give empty envelopes
        mag = np.round(4.0 * np.abs(rng.standard_normal(shape))) / 4.0
        mag[::7] = 0.0
        mag[:, ::5] = 0.0
        power = mag * mag
        harm = ndimage.median_filter(power, size=(1, L_HARM), mode="reflect")
        perc = ndimage.median_filter(power, size=(L_PERC, 1), mode="reflect")
        pp = perc**2
        hh = harm**2
        denom = pp + hh + 1e-12
        mask_p, mask_h = median_hpss(mag)
        np.testing.assert_array_equal(mask_p, (pp + 0.5e-12) / denom)
        np.testing.assert_array_equal(mask_h, (hh + 0.5e-12) / denom)
        assert mask_p.flags.c_contiguous and mask_h.flags.c_contiguous


class TestMedianSeparate:
    def test_outputs_cover_mixture(self, rng):
        sr = 44100
        t = np.arange(sr) / sr
        tone = 0.4 * np.sin(2 * np.pi * 330.0 * t)
        clicks = np.zeros(sr)
        for onset in range(2000, sr - 3000, 5000):
            n = 800
            clicks[onset : onset + n] += 0.5 * rng.standard_normal(n) * np.exp(
                -np.arange(n) / 150.0
            )
        mix = tone + clicks
        perc, harm = median_separate(mix)
        assert perc.shape == mix.shape and harm.shape == mix.shape
        # complementary soft masks rebuild the mixture
        err = np.sqrt(np.mean((perc + harm - mix) ** 2)) / np.sqrt(np.mean(mix**2))
        assert err < 1e-6
        # the tone should land mostly in the harmonic output
        assert np.sum(harm * tone) > np.sum(perc * tone)
