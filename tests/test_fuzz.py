"""Bounded fuzzing of every file the package reads, and of the command line.

Whatever a config, scene, model, frame CSV or manifest file holds, reading
it gives a valid object or the package's own error for that kind of file,
and the error's message names the file. Whatever argv the CLI gets, it
exits 0, 1 or 2, and a failure is one `error:` line, never a traceback.
"""

import contextlib
import io
import json
import math
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from thermact.classifier import STD_FLOOR, ModelFormatError, load_model, predict, save_model, train
from thermact.cli import main
from thermact.config import PipelineConfig, config_keys
from thermact.core import (
    ConfigError,
    DatasetManifest,
    ManifestError,
    SequenceFormatError,
    ThermactError,
    ThermalSequence,
    from_json,
    from_json_file,
    load_manifest,
    read_sequence,
    write_sequence,
)
from thermact.synth import MAX_FRAME_RATE_HZ, MIN_QUANTIZE_STEP, SENSOR_SPAN_C, SceneParams
from toy_data import toy_clusters

FUZZ = settings(max_examples=60, deadline=None)

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([0, 1, 2, 5, 20, 0.5, 1e-4, "loso", "kfold", "x", ""])
)


def json_values(keys=st.text(max_size=8)):
    """Arbitrary JSON, its object keys drawn mostly from `keys`."""
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(keys | st.text(max_size=8), children, max_size=5),
        max_leaves=24,
    )


def write_json(path, value):
    path.write_text(json.dumps(value), encoding="utf-8")  # NaN and Infinity as JSON extensions
    return path


def assert_names(exc, path):
    assert str(path) in str(exc), str(exc)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def some_of(fields):
    """Objects holding some of `fields` (name -> value strategy)."""
    return st.fixed_dictionaries({}, optional=fields)


CONFIG_KEYS = st.sampled_from(sorted({part for key, _ in config_keys() for part in key.split(".")}))
# Values of each field type that often pass, mixed with arbitrary ones.
LIKELY = {
    int: st.integers(1, 8),
    float: st.floats(1e-6, 10.0),
    str: st.sampled_from(["loso", "kfold"]),
}
SECTIONS = {}
for key, typ in config_keys():
    section, name = key.split(".")
    SECTIONS.setdefault(section, {})[name] = LIKELY[typ] | scalars
CONFIGS = json_values(CONFIG_KEYS) | some_of({k: some_of(v) | scalars for k, v in SECTIONS.items()})


@FUZZ
@given(value=CONFIGS)
def test_config_file(fuzz_dir, value):
    path = write_json(fuzz_dir / "config.json", value)
    try:
        config = from_json_file(PipelineConfig, path)
    except ConfigError as exc:
        assert_names(exc, path)
    else:
        assert isinstance(config, PipelineConfig)
        assert from_json(PipelineConfig, config.to_dict(), "config") == config


SCENE_FIELDS = {
    "ambient_mean": scalars,
    "ambient_pixel_offsets": st.lists(scalars, min_size=63, max_size=65)
    | st.lists(st.floats(-1, 1), min_size=64, max_size=64),
    "noise_std": LIKELY[float] | scalars,
    "frame_rate_hz": LIKELY[float] | scalars,
    "quantize_step": LIKELY[float] | scalars,
}


@FUZZ
@given(value=json_values(st.sampled_from(list(SCENE_FIELDS))) | some_of(SCENE_FIELDS))
@example(value={"frame_rate_hz": MAX_FRAME_RATE_HZ})
@example(value={"frame_rate_hz": 1000.0000000000001})
def test_scene_file(fuzz_dir, value):
    # Construction only: an accepted rate is in (0, MAX_FRAME_RATE_HZ], so a
    # valid scene renders each built-in recording in at most 6,048 frames,
    # and its noise, offsets and step are bounded by the sensor's span.
    path = write_json(fuzz_dir / "scene.json", value)
    try:
        scene = from_json_file(SceneParams, path)
    except ConfigError as exc:
        assert_names(exc, path)
    else:
        assert isinstance(scene, SceneParams)
        assert all(map(math.isfinite, [scene.noise_std, scene.frame_rate_hz, scene.quantize_step]))
        assert 0 < scene.frame_rate_hz <= MAX_FRAME_RATE_HZ
        assert 0 < scene.noise_std <= SENSOR_SPAN_C
        assert np.abs(scene.ambient_pixel_offsets).max() <= SENSOR_SPAN_C
        step = scene.quantize_step
        assert step == 0 or MIN_QUANTIZE_STEP <= step <= SENSOR_SPAN_C


@pytest.fixture(scope="module")
def model_file(fuzz_dir):
    X, labels = toy_clusters(n_classes=3, per_class=5, dim=4, seed=0)
    path = fuzz_dir / "model.json"
    save_model(train(X, labels), path, PipelineConfig())
    return json.loads(path.read_text())


@FUZZ
@given(value=CONFIGS)
def test_model_config_block(fuzz_dir, model_file, value):
    path = write_json(fuzz_dir / "model.json", dict(model_file, config=value))
    try:
        _, config = load_model(path)
    except ModelFormatError as exc:
        assert_names(exc, path)
    else:
        assert isinstance(config, PipelineConfig)


# Finite model values that often overflow a score, and scaler stds of which
# some fall below STD_FLOOR; the model file check refuses the latter.
MODEL_VALUES = (
    st.sampled_from([0.0, 1.0, -1.0, 5e-324, 1e154, 1e308, -1e308])
    | st.floats(allow_nan=False, allow_infinity=False)
)
MODEL_STDS = st.sampled_from([STD_FLOOR, 1.0, 1e308, 1e-310, 0.0]) | st.floats(STD_FLOOR, 1e308)


@FUZZ
@given(
    arrays=st.fixed_dictionaries({
        "weights": st.lists(st.lists(MODEL_VALUES, min_size=4, max_size=4), min_size=3, max_size=3),
        "biases": st.lists(MODEL_VALUES, min_size=3, max_size=3),
        "scaler_mean": st.lists(MODEL_VALUES, min_size=4, max_size=4),
        "scaler_std": st.lists(MODEL_STDS, min_size=4, max_size=4),
    }),
    row=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
)
def test_model_scores(fuzz_dir, model_file, arrays, row):
    # A model file that loads gives finite scores for a finite feature row,
    # or an error: never a label picked from NaN or infinite scores.
    path = write_json(fuzz_dir / "model.json", dict(model_file, **arrays))
    try:
        model, _ = load_model(path)
    except ModelFormatError as exc:
        assert_names(exc, path)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            label, scores = predict(model, np.array(row))
        except (ThermactError, ValueError):
            event("refused")
            return
    event("scored")
    assert np.isfinite(scores).all() and label in model.classes


GOOD_FIELDS = ["20.0", "21.5", "0", "80", " 3 ", "7", "1e1"]
# "2_5", Arabic-Indic 33 and fullwidth 25 are numbers to float() but not in a frame CSV.
BAD_FIELDS = ["-1", "81", "nan", "inf", "1e400", "x", "", "2.5e2", "\x00", "\u00e9"]
BAD_FIELDS += ["2_5", "\u0663\u0663", "\uff12\uff15"]


@st.composite
def frame_csv(draw):
    """Bytes near the frame format: rows of 64 or 65 fields, at times one of them bad.

    Returns the bytes and whether a kept data row of 64 or 65 fields holds a bad
    pixel value, which no encoding below makes good. Column 0 of a 65-field row
    is its stamp, where `81` and `2.5e2` are legal, so a bad value there does
    not count.
    """
    rows, bad_pixel = [], False
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.sampled_from([63, 64, 65, 66]))
        fields = [draw(st.sampled_from(GOOD_FIELDS)) for _ in range(width)]
        column = None
        if draw(st.booleans()):
            column = draw(st.integers(0, len(fields) - 1))
            fields[column] = draw(st.sampled_from(BAD_FIELDS))
        data = ",".join(fields)
        rows.append(draw(st.sampled_from([data, "", "# comment"])))
        if rows[-1] == data and width in (64, 65) and column is not None:
            bad_pixel |= column >= width - 64
    encoding = draw(st.sampled_from(["utf-8", "utf-16", "latin-1"]))
    return "\n".join(rows).encode(encoding, "replace"), bad_pixel


@FUZZ
@given(case=st.tuples(st.binary(max_size=300), st.just(False)) | frame_csv())
def test_frame_csv(fuzz_dir, case):
    content, bad_pixel = case
    path = fuzz_dir / "frames.csv"
    path.write_bytes(content)
    try:
        seq = read_sequence(path)
    except SequenceFormatError as exc:
        assert_names(exc, path)
    else:
        assert not bad_pixel
        assert isinstance(seq, ThermalSequence) and len(seq) >= 1


@pytest.fixture(scope="module")
def manifest_dir(fuzz_dir):
    folder = fuzz_dir / "dataset"
    folder.mkdir()
    for name, frames in (("two.csv", 2), ("one.csv", 1)):
        write_sequence(ThermalSequence(pixels=np.full((frames, 64), 20.0)), folder / name)
    (folder / "bad.csv").write_text("not,a,frame\n")
    return folder


MANIFEST_KEYS = st.sampled_from(
    ["label_set", "entries", "sensor_id", "path", "label", "subject", "session", "role"]
)
NAMES = st.sampled_from(["two.csv", "one.csv", "bad.csv", "missing.csv", "", ".", "fall", "s1"])
IDS = {"subject": NAMES | scalars, "session": NAMES | scalars}
ENTRY = some_of(
    {"path": NAMES | scalars, "label": NAMES | scalars, "role": st.just("background"), **IDS}
)
NEAR_VALID_ENTRY = st.fixed_dictionaries(
    {"path": st.sampled_from(["two.csv", "one.csv", "bad.csv"]), "label": st.just("fall")},
    optional={"role": st.just("background"), **IDS},
)


@FUZZ
@given(
    value=json_values(MANIFEST_KEYS)
    | some_of(
        {
            "label_set": st.lists(NAMES, max_size=3) | scalars,
            "entries": st.lists(ENTRY, max_size=4) | scalars,
            "sensor_id": NAMES | scalars,
        }
    )
    | st.fixed_dictionaries(
        {
            "label_set": st.just(["fall"]),
            "entries": st.lists(NEAR_VALID_ENTRY, max_size=3, unique_by=lambda e: e["path"]),
        },
        optional={"sensor_id": NAMES | scalars},
    )
)
def test_manifest(manifest_dir, value):
    path = write_json(manifest_dir / "manifest.json", value)
    violations = []
    try:
        manifest = load_manifest(path)
    except ManifestError as exc:
        assert_names(exc, path)
        violations = exc.violations
    else:
        assert isinstance(manifest, DatasetManifest)
        ids = [manifest.sensor_id] + [e.subject_id for e in manifest.entries]
        assert all(isinstance(i, str) for i in ids)
    # The CLI reads the same manifest: an error line, or several for several problems.
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["featurize", "--data", str(path), "--out", str(manifest_dir / "out.csv")])
    err = err.getvalue()
    assert code in (0, 1) and "Traceback" not in err, (code, err)
    if code == 1 and len(violations) <= 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def read_json_file(kind, path):
    """Read `path` as a `kind` file, giving what `==` can compare."""
    if kind == "config":
        return from_json_file(PipelineConfig, path)
    if kind == "scene":
        return from_json_file(SceneParams, path).to_dict()
    if kind == "manifest":
        manifest = load_manifest(path)
        return manifest.entries, manifest.backgrounds, manifest.sensor_id
    model, config = load_model(path)
    return model.classes, model.weights.tolist(), config


# Each JSON file kind: a valid value (None: the model_file fixture) and its error.
JSON_FILES = {
    "config": ({"svm": {"max_epochs": 7}, "eval": {"protocol": "kfold"}}, ConfigError),
    "scene": ({"ambient_mean": 22.5, "noise_std": 0.5}, ConfigError),
    "manifest": (
        {"label_set": ["fall"], "sensor_id": "capteur-\u00e9t\u00e9", "entries": [
            {"path": "two.csv", "label": "fall", "subject": "s\u00e9", "session": "r1"},
            {"path": "one.csv", "role": "background"},
        ]},
        ManifestError,
    ),
    "model": (None, ModelFormatError),
}


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
@pytest.mark.parametrize("kind", list(JSON_FILES))
def test_json_file_encodings(manifest_dir, model_file, kind, encoding):
    # Every JSON file is decoded from its bytes, so each encoding JSON allows
    # reads as its UTF-8 copy does; bytes in no such encoding stay refused.
    value, error = JSON_FILES[kind]
    text = json.dumps(model_file if value is None else value, ensure_ascii=False)
    plain, encoded = manifest_dir / f"{kind}-utf-8.json", manifest_dir / f"{kind}-{encoding}.json"
    plain.write_text(text, encoding="utf-8")
    encoded.write_text(text, encoding=encoding)
    assert read_json_file(kind, encoded) == read_json_file(kind, plain)
    encoded.write_bytes(b"\xff{}")
    with pytest.raises(error) as refused:
        read_json_file(kind, encoded)
    assert_names(refused.value, encoded)


# Small tokens only: an int flag never asks for much memory or time (a huge
# preprocess.target_len would allocate that many frames per recording).
FLAG_TOKENS = {
    int: ["0", "1", "2", "3", "5", "20", "64", "-1", "x", "1.5"],
    float: ["1", "0.5", "1e-4", "10", "0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "x"],
    str: ["loso", "kfold", "x", ""],
}
GENERATE_TOKENS = ["0", "1", "2", "-1", "x", "1.5", "99999999999999999999"]
CONFIG_FLAGS = st.sampled_from(config_keys()).flatmap(
    lambda kt: st.tuples(st.just(f"--{kt[0]}"), st.sampled_from(FLAG_TOKENS[kt[1]]))
)
EXTRAS = st.sampled_from([["--bogus"], ["--scores"], ["--config", "missing.json"], ["--eval.k"]])


@pytest.fixture(scope="module")
def cli_dir(fuzz_dir):
    """A 2-subject x 1-session corpus and a model trained on it; runs write under out/."""
    folder = fuzz_dir / "cli"
    assert main(["generate", "--out", str(folder), "--subjects", "2", "--reps", "1", "--seed", "5"]) == 0
    assert main(["train", "--data", str(folder / "manifest.json"), "--model", str(folder / "model.json")]) == 0
    return folder


@st.composite
def argvs(draw, folder):
    command = draw(st.sampled_from(["generate", "featurize", "train", "evaluate", "predict"]))
    data = ["--data", str(folder / "manifest.json")]
    if command == "generate":
        argv = ["generate", "--out", str(folder / "out" / "corpus")]
        for flag in draw(st.lists(st.sampled_from(["--subjects", "--reps", "--seed"]), unique=True)):
            argv += [flag, draw(st.sampled_from(GENERATE_TOKENS))]
    elif command == "predict":
        argv = ["predict", "--model", str(folder / "model.json"), "--background",
                str(folder / "background.csv"), str(folder / "s01r1_fall.csv")]
    elif command == "train":
        argv = ["train", *data, "--model", str(folder / "out" / "model.json")]
    else:
        argv = [command, *data]
    for flag in draw(st.lists(CONFIG_FLAGS, max_size=4)):
        argv += flag
    if draw(st.integers(0, 4)) == 0:
        argv += draw(EXTRAS)
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_argv(cli_dir, data):
    argv = data.draw(argvs(cli_dir))
    err = io.StringIO()
    (cli_dir / "out").mkdir()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        shutil.rmtree(cli_dir / "out")
    err = err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
