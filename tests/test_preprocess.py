import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermact.core import ThermalSequence
from thermact.preprocess import (
    estimate_background,
    resample_equal_interval,
    resample_indices,
    subtract_background,
)
from thermact.synth import SceneParams, blob_field, builtin_scripts, frame_times, render_frames


def seq_of(values):
    pixels = np.repeat(np.asarray(values, dtype=float)[:, None], 64, axis=1)
    return ThermalSequence(pixels=pixels)


class TestEstimateBackground:
    def test_constant_frames(self):
        bg = estimate_background(seq_of([21.0] * 5))
        assert bg.shape == (64,) and not bg.flags.writeable
        assert np.all(bg == 21.0)

    def test_alternating_frames(self):
        bg = estimate_background(seq_of([20.0, 22.0] * 3))
        assert np.allclose(bg, 21.0)

    def test_single_frame_returns_its_pixels(self):
        rng = np.random.default_rng(0)
        pixels = rng.uniform(15.0, 25.0, 64)
        seq = ThermalSequence(pixels=pixels[None, :])
        bg = estimate_background(seq)
        assert np.array_equal(bg, pixels)

    def test_noisy_mean_matches_summation_oracle(self, rng):
        mu = rng.uniform(18.0, 24.0, 64)
        sigma = 0.3
        n = 100
        samples = rng.normal(mu, sigma, (n, 64)).clip(0.0, 80.0)
        seq = ThermalSequence(pixels=samples)
        bg = estimate_background(seq)
        # independent oracle: plain accumulation loop
        totals = np.zeros(64)
        for row in samples:
            totals += row
        assert np.allclose(bg, totals / n, atol=1e-12)
        assert np.all(np.abs(bg - mu) < 3.0 * sigma / np.sqrt(n) + 4 * sigma / np.sqrt(n))


class TestSubtractBackground:
    def test_self_subtraction_zeros(self):
        seq = seq_of([21.0] * 4)
        bg = estimate_background(seq)
        out = subtract_background(seq, bg)
        assert out.shape == (4, 64)
        assert np.all(out == 0.0)

    def test_constant_offset(self):
        seq = seq_of([25.0] * 3)
        out = subtract_background(seq, np.full(64, 21.0))
        assert np.all(out == 4.0)

    def test_round_trip_add_back(self):
        scene = SceneParams()
        seq = render_frames(scene, builtin_scripts(np.random.default_rng(5))["fall"], seed=5)[0]
        bg = scene.ambient_mean + scene.ambient_pixel_offsets
        restored = subtract_background(seq, bg) + bg
        assert np.allclose(restored, seq.pixels, atol=1e-12)

    def test_energy_concentrates_on_blob(self):
        # Oracle: the generator's noise-free blob field marks body pixels.
        scene = SceneParams(noise_std=0.05, quantize_step=0.0)
        script = builtin_scripts(np.random.default_rng(2))["sit_still"]
        seq = render_frames(scene, script, seed=2)[0]
        u = np.clip(frame_times(scene, script) / script.duration_s, 0, 1)
        blob = blob_field(script, u)
        on_mask = blob.max(axis=0) > 1.0
        off_mask = blob.max(axis=0) < 0.05
        assert on_mask.any() and off_mask.any()
        bg = scene.ambient_mean + scene.ambient_pixel_offsets
        residual = subtract_background(seq, bg)
        on_energy = np.mean(residual[:, on_mask] ** 2)
        off_energy = np.mean(residual[:, off_mask] ** 2)
        assert on_energy > 100 * off_energy


class TestResample:
    def test_identity_when_lengths_match(self):
        seq = seq_of(np.linspace(18, 24, 20))
        out = resample_equal_interval(seq.pixels, 20)
        assert np.array_equal(out, seq.pixels)

    def test_endpoints_kept(self):
        seq = seq_of([18.0, 20.0, 22.0])
        out = resample_equal_interval(seq.pixels, 2)
        assert np.all(out[0] == 18.0)
        assert np.all(out[1] == 22.0)

    def test_formula_enumeration_oracle(self):
        # brute-force the rounding formula for every output slot
        for length, target in [(100, 20), (30, 20), (10, 20), (7, 3), (5, 5), (9, 4)]:
            expected = []
            for j in range(target):
                exact = j * (length - 1) / (target - 1)
                expected.append(int(np.floor(exact + 0.5)))
            assert list(resample_indices(length, target)) == expected

    def test_hundred_to_twenty_starts_as_documented(self):
        idx = resample_indices(100, 20)
        assert idx[0] == 0 and idx[-1] == 99
        assert list(idx[:3]) == [0, 5, 10]

    def test_half_up_tie(self):
        # length 26 -> target 6: slot 1 lands exactly on 5.0? craft a real tie:
        # length 11, target 5: j=2 -> 2*10/4 = 5.0 (no tie); j with .5 ties:
        # length 6, target 11: j=1 -> 1*5/10 = 0.5 -> rounds up to 1.
        assert resample_indices(6, 11)[1] == 1

    def test_upsampling_duplicates(self):
        seq = seq_of([18.0, 20.0])
        out = resample_equal_interval(seq.pixels, 4)
        assert len(out) == 4
        values = list(out[:, 0])
        assert values == [18.0, 18.0, 20.0, 20.0]

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(min_value=1, max_value=200),
        target=st.integers(min_value=1, max_value=200),
    )
    def test_order_and_idempotence(self, length, target):
        idx = resample_indices(length, target)
        assert len(idx) == target
        assert np.all(idx >= 0) and np.all(idx < length)
        assert np.all(np.diff(idx) >= 0)
        if target <= length and target > 1:
            assert np.all(np.diff(idx) >= 1)
        # resampling a target-length result to the same target is the identity
        assert np.array_equal(resample_indices(target, target), np.arange(target))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            resample_indices(10, 0)
        with pytest.raises(ValueError, match="length must be >= 1"):
            resample_indices(0, 3)
