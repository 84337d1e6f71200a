import copy
import filecmp
import hashlib
import itertools
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import builtin_scripts_scalar, render_one, serialize_per_value
from thermact.core import ADL7_LABELS, from_json, load_manifest
from thermact.synth import (
    MAX_DURATION_S,
    MAX_FRAME_RATE_HZ,
    MIN_QUANTIZE_STEP,
    SENSOR_SPAN_C,
    ActivityScript,
    SceneParams,
    ScriptKey,
    SubjectProfile,
    _render_session,
    blob_field,
    builtin_scripts,
    default_pixel_offsets,
    empty_scene_script,
    frame_times,
    generate_corpus,
    render_frames,
)
from toy_data import toy_clusters


def static_script(x=3.5, y=3.5, sigma=1.0, amp=6.0, duration=2.0):
    keys = (ScriptKey(0.0, x, y, sigma, amp), ScriptKey(1.0, x, y, sigma, amp))
    return ActivityScript(duration_s=duration, keys=keys)


class TestSceneParams:
    def test_default_offsets_are_fixed(self):
        assert np.array_equal(SceneParams().ambient_pixel_offsets, SceneParams().ambient_pixel_offsets)
        assert np.abs(default_pixel_offsets()).max() <= 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneParams(noise_std=0.0)
        with pytest.raises(ValueError):
            SceneParams(ambient_mean=100.0)

    @pytest.mark.parametrize("count", [63, 65])
    def test_offset_count(self, count):
        with pytest.raises(ValueError, match=f"must hold 64 values, got {count}"):
            SceneParams(ambient_pixel_offsets=np.zeros(count))

    def test_offsets_must_be_finite(self):
        # A NaN offset would survive the clip and fail the rendered sequence.
        offsets = np.zeros(64)
        offsets[5] = np.nan
        with pytest.raises(ValueError, match="^ambient_pixel_offsets must be finite$"):
            SceneParams(ambient_pixel_offsets=offsets)

    def test_frame_rate_range(self):
        # The slowest and fastest rates build; the next doubles outside are refused.
        for rate in (5e-324, MAX_FRAME_RATE_HZ):
            assert SceneParams(frame_rate_hz=rate).frame_rate_hz == rate
        for rate in (0.0, float(np.nextafter(MAX_FRAME_RATE_HZ, np.inf)), 1e300, np.inf, np.nan):
            message = rf"^frame_rate_hz must be in \(0, 1000\] Hz, got {re.escape(repr(rate))}$"
            with pytest.raises(ValueError, match=message):
                SceneParams(frame_rate_hz=rate)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("noise_std", 1e200),  # every rendered value clamped
            ("noise_std", float(np.nextafter(80.0, np.inf))),
            ("quantize_step", 1e-320),  # values / step overflows: every pixel 80.0
            ("quantize_step", 1e-310),
            ("quantize_step", float(np.nextafter(MIN_QUANTIZE_STEP, 0.0))),
            ("quantize_step", float(np.nextafter(80.0, np.inf))),
            ("quantize_step", 1e300),  # every pixel rounds to 0.0, none counted as clamped
            ("ambient_pixel_offsets", np.full(64, 1.7e308)),  # overflows the sum
            ("ambient_pixel_offsets", np.full(64, float(np.nextafter(-80.0, -np.inf)))),
        ],
    )
    def test_bounded_by_the_sensor_span(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must "):
            SceneParams(**{key: value})

    def test_values_at_the_bounds_build(self):
        assert SENSOR_SPAN_C == 80.0
        for step in (0.0, 1e-6, 0.25, 80.0):
            assert SceneParams(quantize_step=step).quantize_step == step
        assert SceneParams(noise_std=80.0).noise_std == 80.0
        offsets = np.where(np.arange(64) % 2 == 0, 80.0, -80.0)
        assert np.array_equal(SceneParams(ambient_pixel_offsets=offsets).ambient_pixel_offsets, offsets)

    def test_dict_round_trip(self):
        scene = SceneParams(ambient_mean=22.0, noise_std=0.1)
        again = from_json(SceneParams, scene.to_dict(), "scene")
        assert again.ambient_mean == 22.0
        assert np.array_equal(again.ambient_pixel_offsets, scene.ambient_pixel_offsets)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            from_json(SceneParams, {"nope": 1}, "scene")

    def test_pickled_and_deep_copied_scenes_are_read_only(self):
        # Neither path calls __init__ unless the type says how to rebuild.
        scene = SceneParams(ambient_mean=22.0, noise_std=0.1)
        for kept in (pickle.loads(pickle.dumps(scene)), copy.deepcopy(scene)):
            assert kept.to_dict() == scene.to_dict()
            with pytest.raises(ValueError, match="read-only"):
                kept.ambient_pixel_offsets[0] = 1.0


class TestActivityScript:
    def test_degenerate_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            ActivityScript(duration_s=1.0, keys=(ScriptKey(0.0, 3.5, 3.5, 0.0, 5.0),))

    @pytest.mark.parametrize(
        "duration, us, message",
        [
            (0.0, [0.0, 1.0], "duration_s must be positive"),
            (-1.0, [0.0, 1.0], "duration_s must be positive"),
            (1.0, [], "at least one key"),
            (1.0, [0.6, 0.4], "non-decreasing"),
            (1.0, [-0.1, 1.0], "within \\[0, 1\\]"),
            (1.0, [0.0, 1.1], "within \\[0, 1\\]"),
            (np.nan, [0.0, 1.0], "at most 600 s, got nan"),
            (np.inf, [0.0, 1.0], "at most 600 s, got inf"),
            (1e306, [0.0, 1.0], "at most 600 s, got 1e\\+306"),
            (float(np.nextafter(MAX_DURATION_S, np.inf)), [0.0, 1.0], "at most 600 s"),
        ],
    )
    def test_duration_and_key_rules(self, duration, us, message):
        keys = tuple(ScriptKey(u, 3.5, 3.5, 1.0, 5.0) for u in us)
        with pytest.raises(ValueError, match=message):
            ActivityScript(duration_s=duration, keys=keys)

    @pytest.mark.parametrize("duration", [5e-324, MAX_DURATION_S])
    def test_duration_bounds_accepted(self, duration):
        ActivityScript(duration_s=duration, keys=(ScriptKey(0.0, 3.5, 3.5, 1.0, 5.0),))

    def test_offgrid_path_rejected_unless_allowed(self):
        keys = (ScriptKey(0.0, 20.0, 3.5, 1.0, 5.0),)
        with pytest.raises(ValueError, match="grid"):
            ActivityScript(duration_s=1.0, keys=keys)
        ActivityScript(duration_s=1.0, keys=keys, allow_offgrid=True)

    def test_mirror(self):
        script = static_script(x=1.0)
        assert script.mirrored_x().keys[0].x == 6.0


class TestRenderSequence:
    def test_zero_amplitude_statistically_empty(self):
        scene = SceneParams()
        script = empty_scene_script(duration_s=10.0)
        seq = render_frames(scene, script, seed=0)[0]
        expected = scene.ambient_mean + scene.ambient_pixel_offsets
        observed = seq.pixels.mean(axis=0)
        n = len(seq)
        bound = 3.0 * scene.noise_std / np.sqrt(n) + scene.quantize_step
        assert np.all(np.abs(observed - expected) < bound + 0.05)

    def test_blob_matches_analytic_gaussian(self):
        scene = SceneParams(noise_std=1e-12, quantize_step=0.0)
        script = static_script(x=3.0, y=4.0, sigma=1.2, amp=5.0)
        seq = render_frames(scene, script, seed=1)[0]
        cols, rows = np.meshgrid(np.arange(8), np.arange(8))
        analytic = 5.0 * np.exp(
            -(((cols - 3.0) ** 2) + ((rows - 4.0) ** 2)) / (2 * 1.2**2)
        )
        frame = seq.pixels[0].reshape(8, 8) - scene.ambient_mean - scene.ambient_pixel_offsets.reshape(8, 8)
        assert np.abs(frame - analytic).max() < 1e-9

    def test_walking_centroid_monotone(self):
        scene = SceneParams(noise_std=0.01, quantize_step=0.0)
        script = builtin_scripts(np.random.default_rng(0))["walk_left_right"]
        seq = render_frames(scene, script, seed=3)[0]
        xs = []
        cols = np.array([i % 8 for i in range(64)], dtype=float)  # column per pixel
        for frame in seq.pixels:
            weights = np.clip(frame - scene.ambient_mean, 0.0, None) + 1e-9
            xs.append(float((weights * cols).sum() / weights.sum()))
        assert all(b >= a - 1e-6 for a, b in zip(xs, xs[1:]))
        assert xs[-1] > xs[0] + 3.0

    def test_frame_count_and_timestamps(self):
        scene = SceneParams()
        seq = render_frames(scene, static_script(duration=2.0), seed=0)[0]
        assert len(seq) == 20
        assert seq.timestamps_ms[1] == 100

    def test_deterministic_given_seed(self):
        scene = SceneParams()
        a = render_frames(scene, static_script(), seed=5)[0]
        b = render_frames(scene, static_script(), seed=5)[0]
        assert a == b

    def test_clamping_counted(self):
        scene = SceneParams(ambient_mean=79.0)
        seq, clamped = render_frames(scene, static_script(amp=6.0), seed=0)
        assert clamped > 0
        assert seq.pixels.max() <= 80.0

    def test_no_clamping_at_defaults(self):
        _, clamped = render_frames(SceneParams(), static_script(), seed=0)
        assert clamped == 0


class TestBuiltinScripts:
    def test_seven_labels(self):
        scripts = builtin_scripts(np.random.default_rng(0))
        assert tuple(scripts) == ADL7_LABELS

    def test_fall_spreads_and_cools(self):
        for seed in range(5):
            script = builtin_scripts(np.random.default_rng(seed))["fall"]
            first, last = script.keys[0], script.keys[-1]
            assert last.sigma > first.sigma
            assert last.amplitude < first.amplitude
            assert np.hypot(last.x - first.x, last.y - first.y) > 1.5

    def test_walks_are_exact_mirrors(self):
        for seed in range(5):
            scripts = builtin_scripts(np.random.default_rng(seed))
            lr, rl = scripts["walk_left_right"], scripts["walk_right_left"]
            assert lr.duration_s == rl.duration_s
            for a, b in zip(lr.keys, rl.keys):
                assert b.x == 7.0 - a.x
                assert (b.u, b.y, b.sigma, b.amplitude) == (a.u, a.y, a.sigma, a.amplitude)

    def test_stills_overlap_in_spread(self):
        # the two still poses are deliberately confusable: jittered ranges meet
        sit, stand = [], []
        for seed in range(200):
            scripts = builtin_scripts(np.random.default_rng(seed), SubjectProfile.draw(np.random.default_rng(seed + 10_000)))
            sit.append(scripts["sit_still"].keys[0].sigma)
            stand.append(scripts["stand_still"].keys[0].sigma)
        assert min(sit) < max(stand)
        assert np.mean(sit) > np.mean(stand)


def tree_digest(root):
    """sha256 over the relative names and bytes of every file under `root`."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class TestCorpus:
    def test_default_layout(self, small_corpus):
        assert len(small_corpus.entries) == 3 * 1 * 7
        labels = [e.label for e in small_corpus.entries]
        assert set(labels) == set(ADL7_LABELS)
        assert len(small_corpus.backgrounds) == 1

    def test_study_scale_counts(self, tmp_path):
        summary = generate_corpus(tmp_path / "c", subjects=2, reps=2, seed=0)
        manifest = load_manifest(summary.manifest_path)
        assert summary.sequence_count == 2 * 2 * 7 == 28
        assert len({e.session_id for e in manifest.entries}) == 4
        assert summary.clamped_values == 0

    def test_bit_identical_given_seed(self, tmp_path):
        generate_corpus(tmp_path / "a", subjects=2, reps=1, seed=3)
        generate_corpus(tmp_path / "b", subjects=2, reps=1, seed=3)
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", files_a, shallow=False
        )
        assert not mismatch and not errors

    def test_golden_corpus_digest(self, tmp_path):
        # Measured on the per-frame implementation the array-backed sequence replaced.
        generate_corpus(tmp_path / "g", subjects=2, reps=1, seed=5)
        digest = tree_digest(tmp_path / "g")
        assert digest == "a631e71421e718dba548350d0957bdf5aef075c49a7599059f4fedb7622caad0"

    def test_golden_default_corpus_digest(self, tmp_path):
        # The 8 x 3, seed-42 corpus every reported figure uses, measured on
        # the per-value frame writer.
        generate_corpus(tmp_path / "g", subjects=8, reps=3, seed=42)
        digest = tree_digest(tmp_path / "g")
        assert digest == "09710f43cc0c994e06a41fddc39f453903f57808c7899956fd852070d6e30d2d"

    def test_subjects_differ(self, tmp_path):
        generate_corpus(tmp_path / "c", subjects=2, reps=1, seed=3)
        a = (tmp_path / "c" / "s01r1_fall.csv").read_bytes()
        b = (tmp_path / "c" / "s02r1_fall.csv").read_bytes()
        assert a != b

    def test_off_blob_residual_consistent_with_noise(self, tmp_path):
        scene = SceneParams(quantize_step=0.0)
        summary = generate_corpus(tmp_path / "c", subjects=1, reps=1, seed=5, scene=scene)
        manifest = load_manifest(summary.manifest_path)
        scene_json = json.loads((tmp_path / "c" / "generation.json").read_text())
        assert scene_json["seed"] == 5

        from thermact.core import load_sequences

        i = [e.label for e in manifest.entries].index("sit_still")
        seq = load_sequences(manifest)[i]
        # ground truth ambient; off-blob = pixels the blob never warms
        residual = seq.pixels - scene.ambient_mean - scene.ambient_pixel_offsets
        per_pixel_peak = np.abs(residual).max(axis=0)
        off = np.argsort(per_pixel_peak)[:20]  # clearly body-free pixels
        sample = residual[:, off].reshape(-1)
        n = sample.size
        var = float(np.mean(sample**2))
        expected = scene.noise_std**2
        # chi-square style bound, loose 3-sigma band
        band = 3.0 * np.sqrt(2.0 / n) * expected
        assert abs(var - expected) < band + 0.25 * expected

    def test_rejects_bad_counts(self, tmp_path):
        with pytest.raises(ValueError):
            generate_corpus(tmp_path / "c", subjects=0, reps=1, seed=42)

    @pytest.mark.parametrize("rate", [1e-300, 0.4])
    def test_one_frame_activity_refused_before_the_manifest(self, tmp_path, rate):
        # load_manifest refuses an activity of fewer than 2 frames, so
        # generate refuses the scene before it writes anything.
        out = tmp_path / "c"
        message = rf"^frame_rate_hz {rate!r} gives s01r1_fall.csv 1 frame\(s\), needs at least 2$"
        with pytest.raises(ValueError, match=message):
            generate_corpus(out, subjects=1, reps=1, seed=42, scene=SceneParams(frame_rate_hz=rate))
        assert not out.exists()


def sequence_bits(seq):
    return seq.pixels.tobytes(), seq.timestamps_ms.tobytes()


SEEDS = st.integers(0, 2**63 - 1)
PROFILES = st.none() | st.integers(0, 2**32).map(
    lambda seed: SubjectProfile.draw(np.random.default_rng(seed))
)
# Ambient means next to either end of the sensor range clamp; 0.4 Hz and
# 1e-300 Hz render one-frame recordings.
SCENES = st.builds(
    SceneParams,
    ambient_mean=st.sampled_from([21.0, 0.5, 79.6]) | st.floats(10.0, 30.0),
    noise_std=st.floats(0.01, 2.0),
    frame_rate_hz=st.sampled_from([10.0, 0.4, 1e-300]) | st.floats(0.5, 30.0),
    quantize_step=st.sampled_from([0.0, 0.25]) | st.floats(0.01, 1.0),
)


class TestAgainstOracles:
    """The table-driven scripts and the session pass, bit for bit against the
    scalar-draw scripts and the one-recording renderer they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(SEEDS, PROFILES)
    def test_builtin_scripts_match_scalar_draws(self, seed, profile):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        scripts = builtin_scripts(rng, profile)
        expected = builtin_scripts_scalar(ref_rng, profile)
        assert list(scripts) == list(expected)
        for label in expected:  # repr keeps every float's bits
            assert repr(scripts[label]) == repr(expected[label]), label
        # and the draw leaves the generator where 41 scalar draws leave it
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, PROFILES, SCENES, st.lists(st.sampled_from(ADL7_LABELS), min_size=1, max_size=9))
    def test_session_pass_matches_one_recording_renders(self, seed, profile, scene, labels):
        streams = np.random.SeedSequence(seed).spawn(len(labels))
        rngs = [np.random.default_rng(s) for s in streams]
        scripts = [builtin_scripts(rng, profile)[label] for label, rng in zip(labels, rngs)]
        seqs, clamped = _render_session(scene, scripts, rngs)
        expected = []
        for label, s in zip(labels, streams):
            ref_rng = np.random.default_rng(s)
            script = builtin_scripts_scalar(ref_rng, profile)[label]
            expected.append(render_one(scene, script, ref_rng))
        assert [sequence_bits(seq) for seq in seqs] == [sequence_bits(e) for e, _ in expected]
        assert clamped == sum(c for _, c in expected)

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, SCENES)
    def test_render_frames_is_the_one_recording_case(self, seed, scene):
        script = builtin_scripts(np.random.default_rng(seed))["walk_right_left"]
        seq, clamped = render_frames(scene, script, seed)
        expected, expected_clamped = render_one(scene, script, seed)
        assert sequence_bits(seq) == sequence_bits(expected)
        assert clamped == expected_clamped

    @settings(max_examples=8, deadline=None)
    @given(SEEDS, SCENES.filter(lambda scene: scene.frame_rate_hz >= 4.0))
    def test_corpus_matches_the_oracles(self, tmp_path_factory, seed, scene):
        # Two sessions of one subject, each file against the oracle renderer
        # and the per-value writer, on the corpus's own seed streams.
        out = tmp_path_factory.mktemp("corpus")
        summary = generate_corpus(out, subjects=1, reps=2, seed=seed, scene=scene)
        background_ss, subject_ss = np.random.SeedSequence(seed).spawn(2)
        background, clamped = render_one(scene, empty_scene_script(), background_ss)
        files = {"background.csv": serialize_per_value(background)}
        streams = subject_ss.spawn(1 + 2 * len(ADL7_LABELS))
        profile = SubjectProfile.draw(np.random.default_rng(streams[0]))
        for stream, (rep, label) in zip(streams[1:], itertools.product((1, 2), ADL7_LABELS)):
            rng = np.random.default_rng(stream)
            seq, c = render_one(scene, builtin_scripts_scalar(rng, profile)[label], rng)
            files[f"s01r{rep}_{label}.csv"] = serialize_per_value(seq)
            clamped += c
        for name, text in files.items():
            assert (out / name).read_text(encoding="utf-8") == text, name
        assert summary.clamped_values == clamped


class TestToyClusters:
    def test_shapes_and_margin(self):
        X, labels = toy_clusters(n_classes=4, per_class=10, dim=8, separation=8.0, seed=0)
        assert X.shape == (40, 8)
        assert len(set(labels)) == 4
        # projected margin between any two classes stays comfortably positive
        for a in range(4):
            for b in range(a + 1, 4):
                direction = np.zeros(8)
                direction[a], direction[b] = 1.0, -1.0
                direction /= np.sqrt(2)
                pa = X[np.array(labels) == f"class_{a}"] @ direction
                pb = X[np.array(labels) == f"class_{b}"] @ direction
                assert pa.min() > pb.max() + 4.0

    def test_dim_check(self):
        with pytest.raises(ValueError):
            toy_clusters(n_classes=5, dim=3)
