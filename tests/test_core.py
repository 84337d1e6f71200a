import copy
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermact.core import (
    ADL7_LABELS,
    BackgroundEntry,
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    SequenceFormatError,
    ThermalSequence,
    load_backgrounds,
    load_manifest,
    load_sequences,
    parse_sequence,
    read_sequence,
    serialize_sequence,
    write_manifest,
    write_sequence,
)
from thermact.preprocess import subtract_background
from thermact.synth import SceneParams, builtin_scripts, render_frames
from oracles import serialize_per_value


def constant_sequence(*values, **kwargs):
    """One frame per value, every pixel of a frame at that value."""
    pixels = np.repeat(np.array(values, dtype=float)[:, None], 64, axis=1)
    return ThermalSequence(pixels=pixels, **kwargs)


class TestThermalFrame:
    """The per-frame rules, on one-frame sequences."""

    def test_requires_64_pixels(self):
        with pytest.raises(ValueError, match="64"):
            ThermalSequence(pixels=np.zeros((1, 63)))
        with pytest.raises(ValueError, match="needs 64 pixels per frame, got shape \\(1, 65\\)"):
            ThermalSequence(pixels=np.full((1, 65), 20.0))

    def test_rejects_non_finite(self):
        px = np.zeros((1, 64))
        px[0, 5] = np.nan
        with pytest.raises(ValueError, match="frame 0: non-finite"):
            ThermalSequence(pixels=px)
        # An infinity is non-finite, not merely out of range.
        for value in (np.inf, -np.inf):
            px = np.full((1, 64), 20.0)
            px[0, 7] = value
            with pytest.raises(ValueError, match="frame 0: non-finite pixel value"):
                ThermalSequence(pixels=px)

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError, match="frame 0: timestamp"):
            constant_sequence(20.0, timestamps_ms=[-1])

    def test_pixels_are_immutable(self):
        seq = constant_sequence(20.0)
        with pytest.raises(ValueError):
            seq.pixels[0, 0] = 99.0
        with pytest.raises(ValueError):
            seq.timestamps_ms[0] = 5

    def test_grid_view(self):
        seq = ThermalSequence(pixels=np.arange(64, dtype=float).reshape(1, 64))
        grid = seq.pixels[0].reshape(8, 8)
        assert grid[1, 0] == 8.0


class TestThermalSequence:
    def test_raw_range_enforced(self):
        with pytest.raises(ValueError, match="frame 1: raw temperature"):
            constant_sequence(20.0, 100.0)
        # The edges of [0, 80] are in range; the next double beyond is not.
        assert np.array_equal(constant_sequence(0.0, 80.0).pixels[:, 0], [0.0, 80.0])
        for value in (np.nextafter(0.0, -1.0), np.nextafter(80.0, 81.0), -0.25, 80.25):
            with pytest.raises(ValueError, match="frame 0: raw temperature outside"):
                constant_sequence(value)

    def test_subtracted_may_be_negative(self):
        # The range rule is the sensor's: frames with a background subtracted
        # are a plain array, and may go below zero.
        sub = subtract_background(constant_sequence(20.0), np.full(64, 23.0))
        assert sub.shape == (1, 64) and np.all(sub == -3.0)

    def test_one_timestamp_per_frame(self):
        with pytest.raises(ValueError, match="needs one timestamp per frame, got shape \\(3,\\)"):
            constant_sequence(20.0, 21.0, timestamps_ms=[0, 1, 2])

    def test_needs_a_frame(self):
        with pytest.raises(ValueError):
            ThermalSequence(pixels=np.zeros((0, 64)))

    def test_pixel_matrix_shape(self):
        seq = constant_sequence(20.0, 21.0)
        assert seq.pixels.shape == (2, 64)
        assert seq.pixels[1, 0] == 21.0
        assert seq.timestamps_ms.dtype == np.int64
        assert list(seq.timestamps_ms) == [0, 0]

    def test_decreasing_timestamp_rejected(self):
        with pytest.raises(ValueError, match="frame 2: timestamp 3"):
            constant_sequence(20.0, 20.0, 20.0, timestamps_ms=[0, 5, 3])
        with pytest.raises(ValueError, match="frame 2: timestamp 4 is earlier than the previous frame's 5"):
            constant_sequence(20.0, 20.0, 20.0, timestamps_ms=[0, 5, 4])

    def test_input_arrays_are_copied(self):
        pixels = np.full((2, 64), 20.0)
        seq = ThermalSequence(pixels=pixels)
        pixels[0, 0] = 30.0
        assert seq.pixels[0, 0] == 20.0

    def test_pickled_and_deep_copied_sequences_are_read_only(self):
        # Neither path calls __init__ unless the type says how to rebuild.
        seq = constant_sequence(20.0, 21.0, timestamps_ms=[0, 100])
        for kept in (pickle.loads(pickle.dumps(seq)), copy.deepcopy(seq)):
            assert kept == seq and kept.timestamps_ms.dtype == np.int64
            for arr in (kept.pixels, kept.timestamps_ms):
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = 1


class TestParseSequence:
    def test_constant_rows(self):
        text = "\n".join(",".join(["20.0"] * 64) for _ in range(10))
        seq = parse_sequence(text)
        assert len(seq) == 10
        assert np.all(seq.pixels == 20.0)
        assert np.all(seq.timestamps_ms == 0)

    def test_timestamp_column(self):
        text = "100," + ",".join(["20.0"] * 64)
        seq = parse_sequence(text)
        assert seq.timestamps_ms[0] == 100

    def test_wrong_arity_names_line(self):
        good = ",".join(["20.0"] * 64)
        bad = ",".join(["20.0"] * 63)
        with pytest.raises(SequenceFormatError, match="line 2"):
            parse_sequence(good + "\n" + bad)

    def test_non_numeric_names_line(self):
        bad = ",".join(["20.0"] * 63 + ["oops"])
        with pytest.raises(SequenceFormatError, match="line 1"):
            parse_sequence(bad)

    def test_out_of_range_raw(self):
        bad = ",".join(["81.0"] * 64)
        with pytest.raises(SequenceFormatError, match="line 1"):
            parse_sequence(bad)

    def test_empty_file(self):
        with pytest.raises(SequenceFormatError, match="empty"):
            parse_sequence("# just a comment\n")

    def test_comments_and_blank_lines_ignored(self):
        row = ",".join(["20.0"] * 64)
        seq = parse_sequence(f"# header\n\n{row}\n\n# trailing\n{row}\n")
        assert len(seq) == 2

    def test_accepts_bytes(self):
        row = ",".join(["20.0"] * 64)
        assert len(parse_sequence(row.encode())) == 1

    def test_non_utf8_names_line(self):
        row = ",".join(["20.0"] * 64)
        with pytest.raises(SequenceFormatError, match="line 2: not UTF-8"):
            parse_sequence(row.encode() + b"\n\xff\xfe" + row.encode())

    def test_decreasing_timestamp_names_line(self):
        rows = [f"{ts}," + ",".join(["20.0"] * 64) for ts in (0, 5, 3)]
        with pytest.raises(SequenceFormatError, match="line 3: timestamp 3"):
            parse_sequence("\n".join(rows))

    def test_equal_timestamps_allowed(self):
        rows = [f"{ts}," + ",".join(["20.0"] * 64) for ts in (0, 5, 5)]
        assert list(parse_sequence("\n".join(rows)).timestamps_ms) == [0, 5, 5]

    @pytest.mark.parametrize("stamp", ["-1", "1.5", "nan", "inf"])
    def test_bad_timestamp_names_line(self, stamp):
        rows = ["0," + ",".join(["20.0"] * 64), f"{stamp}," + ",".join(["20.0"] * 64)]
        with pytest.raises(SequenceFormatError, match="line 2: timestamp must be"):
            parse_sequence("\n".join(rows))

    def test_timestamps_stop_below_two_to_the_63(self):
        # 2**63 itself would wrap to a negative int64; the largest float64
        # below it, 2**63 - 1024, fits and is stored exactly.
        row = "," + ",".join(["20.0"] * 64)
        with pytest.raises(SequenceFormatError, match="line 2: timestamp must be a non-negative integer"):
            parse_sequence("0" + row + "\n9223372036854775808" + row)
        seq = parse_sequence("0" + row + "\n9223372036854774784" + row)
        assert seq.timestamps_ms.tolist() == [0, 9223372036854774784]

    def test_first_bad_line_wins(self):
        # A value error on line 1 is reported ahead of the arity error on line 2.
        rows = [",".join(["81.0"] * 64), ",".join(["20.0"] * 3)]
        with pytest.raises(SequenceFormatError, match="line 1: raw temperature"):
            parse_sequence("\n".join(rows))

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_lf_cr_and_crlf_end_a_line(self, sep):
        # Other separators str.splitlines breaks at are in-row whitespace, so
        # they shift no line number.
        good = ",".join(["20.0"] * 64)
        rows = [good, good + sep, good, good, ",".join(["20.0"] * 63 + ["oops"])]
        with pytest.raises(SequenceFormatError, match="line 5: non-numeric"):
            parse_sequence("\n".join(rows))
        assert len(parse_sequence("\n".join(rows[:4]))) == 4

    @pytest.mark.parametrize("field", ["2_5", "\u0663\u0663", "\uff12\uff15"])
    def test_fields_are_ascii_numbers(self, field):
        # float() reads each of these as 25.0 or 33.0. The first bad line still wins.
        good, hot = ",".join(["20.0"] * 64), ",".join(["81.0"] * 64)
        odd = ",".join(["20.0"] * 63 + [field])
        with pytest.raises(SequenceFormatError, match="^line 2: non-numeric field"):
            parse_sequence("\n".join([good, odd, hot]))
        with pytest.raises(SequenceFormatError, match="^line 1: raw temperature"):
            parse_sequence("\n".join([hot, odd]))

    def test_non_ascii_whitespace_around_a_field_is_allowed(self):
        row = ",".join(["20.0"] * 10 + ["\x85\u00a025\u2028"] + ["20.0"] * 53)
        assert parse_sequence(row).pixels[0, 10] == 25.0

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_numbers_under_each_line_ending(self, newline):
        good = ",".join(["20.0"] * 64)
        text = newline.join([good, "", good, ",".join(["20.0"] * 3)])
        with pytest.raises(SequenceFormatError, match="line 4: expected"):
            parse_sequence(text)
        with pytest.raises(SequenceFormatError, match="line 3: not UTF-8"):
            parse_sequence(newline.join([good, good, ""]).encode() + b"\xff")

    def test_read_sequence_names_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(SequenceFormatError, match="bad.csv: line 1: not UTF-8"):
            read_sequence(path)


# The 0.25 degC grid the generator quantizes to, both zeros, the smallest
# subnormal, a value repr writes in exponent form, and the range's top.
PIXEL_POOL = [0.25 * k for k in range(1, 320)] + [-0.0, 0.0, 5e-324, 1e-05, 80.0]


class TestRoundTrip:
    def test_generator_round_trip_bit_exact(self):
        scene = SceneParams()
        script = builtin_scripts(np.random.default_rng(3))["walk_left_right"]
        seq = render_frames(scene, script, seed=3)[0]
        parsed = parse_sequence(serialize_sequence(seq))
        assert len(parsed) == len(seq)
        assert np.array_equal(parsed.timestamps_ms, seq.timestamps_ms)
        assert np.array_equal(parsed.pixels, seq.pixels)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 6)
        seq = ThermalSequence(
            pixels=rng.uniform(0.0, 80.0, (n, 64)), timestamps_ms=100 * np.arange(n)
        )
        assert parse_sequence(serialize_sequence(seq)) == seq

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(PIXEL_POOL), min_size=64, max_size=64), min_size=1, max_size=60
        ),
        st.integers(0, 10**6),
    )
    def test_writer_matches_per_value_oracle(self, frames, step):
        seq = ThermalSequence(pixels=frames, timestamps_ms=step * np.arange(len(frames)))
        text = serialize_sequence(seq)
        assert text == serialize_per_value(seq)
        parsed = parse_sequence(text)
        assert parsed == seq
        assert np.array_equal(parsed.pixels.view(np.int64), seq.pixels.view(np.int64))

    def test_negative_and_positive_zero_in_one_frame(self):
        pixels = np.full((1, 64), 20.0)
        pixels[0, 3], pixels[0, 40] = -0.0, 0.0
        seq = ThermalSequence(pixels=pixels)
        text = serialize_sequence(seq)
        assert text == serialize_per_value(seq)
        row = text.splitlines()[1].split(",")  # the timestamp, then the pixels
        assert (row[1 + 3], row[1 + 40]) == ("-0.0", "0.0")
        parsed = parse_sequence(text).pixels[0]
        assert np.signbit(parsed[3]) and not np.signbit(parsed[40])


def _write_corpus(tmp_path, n_subjects=8, n_sessions=3, labels=ADL7_LABELS):
    entries = []
    for s in range(n_subjects):
        for r in range(n_sessions):
            for label in labels:
                name = f"s{s}_r{r}_{label}.csv"
                seq = constant_sequence(20.0, 21.0)
                write_sequence(seq, tmp_path / name)
                entries.append(
                    {"path": name, "label": label, "subject": f"s{s}", "session": f"s{s}r{r}"}
                )
    bg = constant_sequence(19.0)
    write_sequence(bg, tmp_path / "bg.csv")
    entries.append({"path": "bg.csv", "role": "background"})
    manifest = {"label_set": list(labels), "sensor_id": "test", "entries": entries}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestManifest:
    def test_study_scale_layout(self, tmp_path):
        # 8 subjects x 3 sessions x 7 activities -> 168 labeled entries.
        manifest = load_manifest(_write_corpus(tmp_path))
        assert len(manifest.entries) == 168
        assert manifest.label_set == ADL7_LABELS
        assert len(manifest.backgrounds) == 1

    def test_order_preserved(self, tmp_path):
        path = _write_corpus(tmp_path, n_subjects=2, n_sessions=1)
        manifest = load_manifest(path)
        on_disk = json.loads(path.read_text())["entries"]
        labeled = [e for e in on_disk if e.get("role") != "background"]
        assert [e.path for e in manifest.entries] == [e["path"] for e in labeled]

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"label_set": ["fall"], "entries": []}))
        with pytest.raises(ManifestError, match="empty dataset"):
            load_manifest(path)

    def test_missing_file_named(self, tmp_path):
        path = _write_corpus(tmp_path, n_subjects=1, n_sessions=1)
        (tmp_path / "s0_r0_fall.csv").unlink()
        with pytest.raises(ManifestError, match="s0_r0_fall.csv"):
            load_manifest(path)

    def test_unknown_label(self, tmp_path):
        row = ",".join(["20.0"] * 64)
        (tmp_path / "a.csv").write_text(row + "\n" + row)
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "label_set": ["fall"],
                    "entries": [{"path": "a.csv", "label": "jump", "subject": "s", "session": "r"}],
                }
            )
        )
        with pytest.raises(ManifestError, match="unknown label"):
            load_manifest(path)

    def test_duplicate_path(self, tmp_path):
        row = ",".join(["20.0"] * 64)
        (tmp_path / "a.csv").write_text(row + "\n" + row)
        entry = {"path": "a.csv", "label": "fall", "subject": "s", "session": "r"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"label_set": ["fall"], "entries": [entry, dict(entry)]}))
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(path)
        assert excinfo.value.violations == ["entry 'a.csv': duplicate path"]

    def test_all_violations_reported(self, tmp_path):
        row = ",".join(["20.0"] * 64)
        (tmp_path / "a.csv").write_text(row + "\n" + row)
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "label_set": ["fall"],
                    "entries": [
                        {"path": "a.csv", "label": "jump", "subject": "s", "session": "r"},
                        {"path": "missing.csv", "label": "fall", "subject": "s", "session": "r"},
                    ],
                }
            )
        )
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(path)
        assert len(excinfo.value.violations) == 2

    def test_violations_in_order_shape_structure_files(self, tmp_path):
        # Structural messages name an entry by its path: an index would count
        # only the entries that survived the shape checks.
        row = ",".join(["20.0"] * 64)
        for name in ("bg.csv", "a.csv", "b.csv"):
            (tmp_path / name).write_text(row + "\n" + row)
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "label_set": ["fall"],
                    "entries": [
                        {"path": "bg.csv", "role": "background"},
                        {"path": "a.csv", "label": "fall", "subject": 5, "session": "r"},
                        {"path": "b.csv", "label": "jump", "subject": "s", "session": "r"},
                        {"path": "missing.csv", "label": "fall", "subject": "s", "session": "r"},
                    ],
                }
            )
        )
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(path)
        assert excinfo.value.violations == [
            'entry 1 (a.csv): "subject" must be a string',
            "entry 'b.csv': unknown label 'jump'",
            f"missing file: {tmp_path / 'missing.csv'}",
        ]

    def test_activity_entries_need_two_frames(self, tmp_path):
        row = ",".join(["20.0"] * 64)
        (tmp_path / "short.csv").write_text(row)
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "label_set": ["fall"],
                    "entries": [{"path": "short.csv", "label": "fall", "subject": "s", "session": "r"}],
                }
            )
        )
        with pytest.raises(ManifestError, match="at least 2 frames"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "session, problem", [("r", "session 'r'"), ("", "the global fallback")]
    )
    def test_one_background_clip_per_session(self, session, problem):
        entry = ManifestEntry(path="a.csv", label="fall", subject_id="s", session_id="r")
        clips = (BackgroundEntry("b1.csv", session), BackgroundEntry("b2.csv", session))
        with pytest.raises(ManifestError) as excinfo:
            DatasetManifest(entries=(entry,), label_set=("fall",), backgrounds=clips)
        assert excinfo.value.violations == [f"more than one background clip for {problem}"]

    def test_label_set_must_be_distinct(self):
        entry = ManifestEntry(path="a.csv", label="fall", subject_id="s", session_id="r")
        with pytest.raises(ManifestError) as excinfo:
            DatasetManifest(entries=(entry,), label_set=("fall", "walk", "fall"))
        assert excinfo.value.violations == ["label_set contains duplicates"]

    def test_background_path_may_not_be_an_entry_path(self):
        entry = ManifestEntry(path="a.csv", label="fall", subject_id="s", session_id="r")
        with pytest.raises(ManifestError) as excinfo:
            DatasetManifest(
                entries=(entry,), label_set=("fall",), backgrounds=(BackgroundEntry("a.csv"),)
            )
        assert excinfo.value.violations == ["background 'a.csv': duplicate path"]

    def test_ids_must_be_strings(self, tmp_path):
        path = _write_corpus(tmp_path, n_subjects=1, n_sessions=1)
        data = json.loads(path.read_text())
        data["sensor_id"] = 5
        data["entries"][0]["subject"] = {"a": 1}
        data["entries"][1]["session"] = None
        data["entries"][-1]["session"] = 3  # the background clip
        path.write_text(json.dumps(data))
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(path)
        assert excinfo.value.violations == [
            '"sensor_id" must be a string',
            'entry 0 (s0_r0_fall.csv): "subject" must be a string',
            'entry 1 (s0_r0_sit_still.csv): "session" must be a string',
            'entry 7 (bg.csv): "session" must be a string',
        ]
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "doctor", [lambda e: e.pop("label"), lambda e: e.update(label=7)], ids=["missing", "number"]
    )
    def test_entry_label_must_be_a_string(self, tmp_path, doctor):
        path = _write_corpus(tmp_path, n_subjects=1, n_sessions=1)
        data = json.loads(path.read_text())
        doctor(data["entries"][2])
        path.write_text(json.dumps(data))
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(path)
        assert excinfo.value.violations == [
            'entry 2 (s0_r0_stand_still.csv): missing or non-string "label"'
        ]

    def test_non_utf8_file_is_one_of_the_violations(self, tmp_path):
        path = _write_corpus(tmp_path, n_subjects=1, n_sessions=1)
        (tmp_path / "s0_r0_fall.csv").write_bytes(b"\xff\xfe20.0")
        (tmp_path / "s0_r0_sit_still.csv").unlink()
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(path)
        violations = excinfo.value.violations
        assert len(violations) == 2
        assert any("s0_r0_fall.csv: line 1: not UTF-8" in v for v in violations)
        assert any("missing file" in v and "s0_r0_sit_still.csv" in v for v in violations)

    def test_parses_each_file_once(self, tmp_path, monkeypatch):
        import thermact.core as core
        from thermact.evaluate import prepare_features

        path = _write_corpus(tmp_path, n_subjects=2, n_sessions=1)
        calls = []
        real = core.read_sequence

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(core, "read_sequence", counting)
        manifest = load_manifest(path)
        prepare_features(manifest)
        assert len(calls) == len(manifest.entries) + len(manifest.backgrounds) == 15
        assert len(set(calls)) == 15

    def test_recordings_are_the_parsed_files(self, tmp_path):
        manifest = load_manifest(_write_corpus(tmp_path, n_subjects=1, n_sessions=1))
        (seq, *_), backgrounds = load_sequences(manifest), load_backgrounds(manifest)
        assert seq == read_sequence(manifest.resolve(manifest.entries[0].path))
        assert backgrounds[""] == read_sequence(tmp_path / "bg.csv")
        assert "_parsed=" not in repr(manifest)
        assert manifest == DatasetManifest(
            entries=manifest.entries,
            label_set=manifest.label_set,
            sensor_id=manifest.sensor_id,
            backgrounds=manifest.backgrounds,
            root=manifest.root,
        )

    def test_a_recording_is_handed_out_once(self, tmp_path, monkeypatch):
        import thermact.core as core

        manifest = load_manifest(_write_corpus(tmp_path, n_subjects=1, n_sessions=1))
        first = load_sequences(manifest)
        calls = []
        real = core.read_sequence
        monkeypatch.setattr(core, "read_sequence", lambda p: calls.append(p) or real(p))
        again = load_sequences(manifest)
        assert again == first and again[3] is not first[3]
        assert calls == [manifest.resolve(e.path) for e in manifest.entries]

    def test_a_file_changed_after_loading_is_read_again(self, tmp_path, monkeypatch):
        import thermact.core as core

        manifest = load_manifest(_write_corpus(tmp_path, n_subjects=1, n_sessions=1))
        entry = manifest.entries[2]
        warmer_bg = constant_sequence(19.5, 19.5)
        write_sequence(warmer_bg, tmp_path / "bg.csv")
        write_sequence(constant_sequence(20.0, 22.0, 23.0), manifest.resolve(entry.path))
        calls = []
        real = core.read_sequence
        monkeypatch.setattr(core, "read_sequence", lambda p: calls.append(p) or real(p))

        assert load_backgrounds(manifest)[""] == warmer_bg
        sequences = load_sequences(manifest)
        assert sequences[2] == constant_sequence(20.0, 22.0, 23.0)
        assert sequences[1] == constant_sequence(20.0, 21.0)
        assert calls == [tmp_path / "bg.csv", manifest.resolve(entry.path)]

    def test_a_file_rewritten_after_loading_is_checked_again(self, tmp_path):
        # A rewritten file is read under the checks load_manifest applied: an
        # activity needs two frames, and a background must still parse.
        manifest = load_manifest(_write_corpus(tmp_path, n_subjects=1, n_sessions=1))
        short = manifest.resolve(manifest.entries[0].path)
        write_sequence(constant_sequence(20.0), short)
        with pytest.raises(ManifestError, match=re.escape(f"{short}: needs at least 2 frames, has 1")):
            load_sequences(manifest)
        (tmp_path / "bg.csv").write_text("20.0\n")
        with pytest.raises(ManifestError, match=re.escape(f"{tmp_path / 'bg.csv'}: line 1: expected 64")):
            load_backgrounds(manifest)
        write_sequence(constant_sequence(19.0), tmp_path / "bg.csv")  # one frame is enough
        assert load_backgrounds(manifest)[""] == constant_sequence(19.0)

    def test_a_file_deleted_after_loading_is_an_error(self, tmp_path):
        manifest = load_manifest(_write_corpus(tmp_path, n_subjects=1, n_sessions=1))
        (tmp_path / "bg.csv").unlink()
        with pytest.raises(FileNotFoundError):
            load_backgrounds(manifest)

    def test_in_memory_manifest_has_no_recordings(self):
        manifest = DatasetManifest(
            entries=(ManifestEntry(path="a.csv", label="fall", subject_id="s", session_id="r"),),
            label_set=("fall",),
            backgrounds=(BackgroundEntry(path="bg.csv"),),
        )
        with pytest.raises(ManifestError, match="a.csv"):
            load_sequences(manifest)
        with pytest.raises(ManifestError, match="bg.csv"):
            load_backgrounds(manifest)

    def test_load_sequences_in_manifest_order(self, tmp_path):
        path = _write_corpus(tmp_path, n_subjects=1, n_sessions=1)
        for i, label in enumerate(ADL7_LABELS):  # a distinct recording per entry
            write_sequence(constant_sequence(20.0, 21.0 + i), tmp_path / f"s0_r0_{label}.csv")
        manifest = load_manifest(path)
        sequences = load_sequences(manifest)
        assert len(sequences) == 7
        assert sequences == [read_sequence(manifest.resolve(e.path)) for e in manifest.entries]
        assert len({s.pixels[1, 0] for s in sequences}) == 7

    def test_write_keeps_a_per_session_background(self, tmp_path):
        manifest = load_manifest(_write_corpus(tmp_path, n_subjects=1, n_sessions=1))
        per_session = DatasetManifest(
            entries=manifest.entries,
            label_set=manifest.label_set,
            backgrounds=(BackgroundEntry(path="bg.csv", session_id="s0r0"),),
        )
        write_manifest(per_session, tmp_path / "again.json")
        assert load_manifest(tmp_path / "again.json").backgrounds == per_session.backgrounds

    def test_write_then_load(self, tmp_path, small_corpus):
        out = tmp_path / "copy.json"
        relocated = DatasetManifest(
            entries=tuple(
                ManifestEntry(
                    path=str(small_corpus.resolve(e.path)),
                    label=e.label,
                    subject_id=e.subject_id,
                    session_id=e.session_id,
                )
                for e in small_corpus.entries
            ),
            label_set=small_corpus.label_set,
            sensor_id=small_corpus.sensor_id,
            backgrounds=tuple(
                BackgroundEntry(path=str(small_corpus.resolve(b.path)), session_id=b.session_id)
                for b in small_corpus.backgrounds
            ),
        )
        write_manifest(relocated, out)
        again = load_manifest(out)
        assert [e.label for e in again.entries] == [e.label for e in small_corpus.entries]
