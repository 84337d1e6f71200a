import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermact.core import ThermalSequence, load_backgrounds, load_manifest, load_sequences
from thermact.features import (
    FeatureConfig,
    dct_matrix,
    extract_features,
    feature_matrix,
)
from thermact.preprocess import estimate_background, resample_equal_interval, subtract_background
from thermact.synth import generate_corpus


from oracles import features_one_sequence, naive_dct, naive_dct2


def temporal_block(series, k):
    """`feature_matrix`'s temporal block for one pixel; every pixel carries `series`."""
    series = np.asarray(series, dtype=float)
    seq = np.repeat(series[:, None], 64, axis=1)
    cfg = FeatureConfig(temporal_k=k, spatial_block=1)
    return feature_matrix([seq], cfg)[0, :k]


def spatial_block(grid, b):
    """`feature_matrix`'s spatial block of a one-frame sequence holding `grid`."""
    seq = np.asarray(grid, dtype=float).reshape(1, 64)
    cfg = FeatureConfig(temporal_k=1, spatial_block=b)
    return feature_matrix([seq], cfg)[0, 64:]


class TestDctBasis:
    def test_n1(self):
        assert np.array_equal(dct_matrix(1), [[1.0]])

    def test_n2_closed_form(self):
        r = 1.0 / np.sqrt(2.0)
        expected = np.array([[r, r], [r, -r]])
        assert np.allclose(dct_matrix(2), expected, atol=1e-15)

    def test_n8_orthonormal(self):
        m = dct_matrix(8)
        assert np.abs(m @ m.T - np.eye(8)).max() < 1e-12

    def test_n8_matches_definition_sum(self, rng):
        m = dct_matrix(8)
        x = rng.normal(0, 1, 8)
        assert np.abs(m @ x - naive_dct(x)).max() < 1e-12

    def test_row0_is_constant(self):
        for n in (1, 3, 20):
            assert np.allclose(dct_matrix(n)[0], 1.0 / np.sqrt(n))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            dct_matrix(0)


class TestTemporalFeature:
    def test_constant_series_is_dc_only(self):
        f = temporal_block(np.full(20, 3.0), k=5)
        assert np.isclose(f[0], 3.0 * np.sqrt(20))
        assert np.allclose(f[1:], 0.0, atol=1e-12)

    def test_zero_series(self):
        assert np.all(temporal_block(np.zeros(20), k=5) == 0.0)

    def test_basis_row_recovers_unit_coefficient(self):
        # series equal to basis row 3 -> coefficient index 3 is 1, others 0
        F = 20
        series = dct_matrix(F)[3]
        f = temporal_block(series, k=5)
        expected = np.abs(naive_dct(series))[:5]
        assert np.allclose(f, expected, atol=1e-9)
        assert np.isclose(f[3], 1.0, atol=1e-12)
        assert np.allclose(np.delete(f, 3), 0.0, atol=1e-12)

    def test_matches_naive_oracle(self, rng):
        series = rng.normal(0, 2, 31)
        assert np.allclose(temporal_block(series, 31), np.abs(naive_dct(series)), atol=1e-9)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            temporal_block(np.zeros(4), k=5)


class TestSpatialFeature:
    def test_constant_frame_dc(self):
        # DC of the orthonormal 2-D transform of constant c on an 8x8 grid is 8c
        f = spatial_block(np.full((8, 8), 2.5), b=3)
        assert np.isclose(f[0], 8 * 2.5, atol=1e-12)
        assert np.allclose(f[1:], 0.0, atol=1e-12)

    def test_zero_frame(self):
        assert np.all(spatial_block(np.zeros((8, 8)), b=3) == 0.0)

    def test_matches_naive_oracle(self, rng):
        grid = rng.normal(0, 1, (8, 8))
        expected = np.abs(naive_dct2(grid))[:3, :3].reshape(-1)
        assert np.allclose(spatial_block(grid, 3), expected, atol=1e-9)

    def test_accepts_thermal_frame(self, rng):
        # A frame's 64 pixels are read as a row-major 8x8 grid.
        frame = ThermalSequence(pixels=rng.uniform(0, 30, (1, 64))).pixels[0]
        block = spatial_block(frame, 2)
        assert np.allclose(block, np.abs(naive_dct2(frame.reshape(8, 8)))[:2, :2].reshape(-1))
        assert not np.allclose(block, np.abs(naive_dct2(frame.reshape(8, 8).T))[:2, :2].reshape(-1))

    def test_block_bounds(self):
        with pytest.raises(ValueError):
            spatial_block(np.zeros((8, 8)), 9)


class TestExtractFeatures:
    def test_zero_sequence_default_length(self):
        seq = np.zeros((20, 64))
        vec = extract_features(seq, FeatureConfig())
        assert vec.shape == (320 + 9 * 20,) == (500,)
        assert np.all(vec == 0.0)
        assert not vec.flags.writeable

    def test_constant_in_time_hits_dc_slots_only(self, rng):
        row = rng.normal(0, 1, 64)
        seq = np.tile(row, (20, 1))
        vec = extract_features(seq, FeatureConfig())
        temporal = vec[:320].reshape(64, 5)
        assert np.allclose(temporal[:, 0], np.abs(row) * np.sqrt(20), atol=1e-9)
        assert np.allclose(temporal[:, 1:], 0.0, atol=1e-9)

    def test_composed_oracle(self, rng):
        matrix = rng.normal(0, 1.5, (20, 64))
        vec = extract_features(matrix, FeatureConfig(temporal_k=5, spatial_block=3))
        expected_temporal = []
        for pixel in range(64):
            expected_temporal.extend(np.abs(naive_dct(matrix[:, pixel]))[:5])
        expected_spatial = []
        for f in range(20):
            expected_spatial.extend(np.abs(naive_dct2(matrix[f].reshape(8, 8)))[:3, :3].reshape(-1))
        assert np.allclose(vec[:320], expected_temporal, atol=1e-9)
        assert np.allclose(vec[320:], expected_spatial, atol=1e-9)

    def test_wrong_length_rejected(self):
        seq = np.zeros((4, 64))
        with pytest.raises(ValueError, match="temporal_k"):
            extract_features(seq, FeatureConfig(temporal_k=5))

    def test_feature_matrix_stacks(self, rng):
        seqs = [rng.normal(0, 1, (20, 64)) for _ in range(3)]
        X = feature_matrix(seqs)
        assert X.shape == (3, 500)
        assert np.array_equal(X[1], extract_features(seqs[1]))

    def test_feature_matrix_rejects_any_bad_sequence(self, rng):
        seqs = [rng.normal(0, 1, (20, 64)) for _ in range(2)]
        with pytest.raises(ValueError, match="frames"):
            feature_matrix(seqs + [np.zeros((10, 64))])
        with pytest.raises(ValueError, match="frames need 64 pixels"):
            feature_matrix([np.zeros((20, 63))])


@pytest.fixture(scope="module")
def default_corpus_sequences(tmp_path_factory):
    """The default corpus (8 subjects x 3 sessions, seed 42), subtracted and resampled."""
    out = tmp_path_factory.mktemp("default_corpus")
    manifest = load_manifest(generate_corpus(out, subjects=8, reps=3, seed=42).manifest_path)
    background = estimate_background(load_backgrounds(manifest)[""])
    return [
        resample_equal_interval(subtract_background(seq, background), 20)
        for seq in load_sequences(manifest)
    ]


class TestBatchedPathMatchesOracle:
    """`feature_matrix` computes every row as the per-sequence oracle does, bit for bit."""

    def test_default_corpus(self, default_corpus_sequences):
        cfg = FeatureConfig()
        X = feature_matrix(default_corpus_sequences, cfg)
        assert X.shape == (168, 500)
        expected = np.stack([features_one_sequence(s, cfg) for s in default_corpus_sequences])
        assert np.array_equal(X, expected)

    def test_extract_features_is_its_row(self, default_corpus_sequences):
        cfg = FeatureConfig()
        X = feature_matrix(default_corpus_sequences, cfg)
        for i in (0, 1, 83, 167):
            assert np.array_equal(extract_features(default_corpus_sequences[i], cfg), X[i])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=6),
        length=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=30),
        b=st.integers(min_value=1, max_value=8),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_random_subtracted_sequences(self, seed, n, length, k, b, scale):
        cfg = FeatureConfig(temporal_k=min(k, length), spatial_block=b)
        rng = np.random.default_rng(seed)
        seqs = [rng.normal(0, scale, (length, 64)) for _ in range(n)]
        X = feature_matrix(seqs, cfg)
        assert X.shape == (n, 64 * cfg.temporal_k + b * b * length)
        for row, seq in zip(X, seqs):
            assert np.array_equal(row, features_one_sequence(seq, cfg))
            assert np.array_equal(row, extract_features(seq, cfg))


class TestInvariants:
    def test_parseval_temporal(self, rng):
        for F in (2, 7, 20, 33):
            series = rng.normal(0, 3, F)
            coeffs = dct_matrix(F) @ series
            assert abs(np.sum(coeffs**2) - np.sum(series**2)) < 1e-9

    def test_parseval_spatial(self, rng):
        grid = rng.normal(0, 3, (8, 8))
        m = dct_matrix(8)
        coeffs = m @ grid @ m.T
        assert abs(np.sum(coeffs**2) - np.sum(grid**2)) < 1e-9

    def test_constant_offset_changes_only_dc_entries(self, rng):
        matrix = rng.normal(0, 1, (20, 64))
        cfg = FeatureConfig()
        base = extract_features(matrix, cfg)
        shifted = extract_features(matrix + 4.2, cfg)
        temporal_non_dc = np.ones((64, 5), dtype=bool)
        temporal_non_dc[:, 0] = False
        drift_t = np.abs(
            base[:320].reshape(64, 5)[temporal_non_dc]
            - shifted[:320].reshape(64, 5)[temporal_non_dc]
        )
        spatial_non_dc = np.ones((20, 3, 3), dtype=bool)
        spatial_non_dc[:, 0, 0] = False
        drift_s = np.abs(
            base[320:].reshape(20, 3, 3)[spatial_non_dc]
            - shifted[320:].reshape(20, 3, 3)[spatial_non_dc]
        )
        assert drift_t.max() < 1e-9
        assert drift_s.max() < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_absolute_homogeneity(self, alpha):
        rng = np.random.default_rng(99)
        matrix = rng.normal(0, 1, (20, 64))
        cfg = FeatureConfig()
        base = extract_features(matrix, cfg)
        scaled = extract_features(alpha * matrix, cfg)
        assert np.abs(scaled - abs(alpha) * base).max() < 1e-9

    def test_matrix_equals_naive_sampled_sizes(self, rng):
        for n in (1, 2, 3, 5, 8, 13, 21, 40, 64):
            x = rng.normal(0, 1, n)
            assert np.abs(dct_matrix(n) @ x - naive_dct(x)).max() < 1e-9
