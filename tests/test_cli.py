import csv
import filecmp
import json
import shutil

import numpy as np
import pytest

from thermact.cli import main
from thermact.core import load_manifest


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus") / "data"
    assert main(["generate", "--out", str(out), "--subjects", "3", "--reps", "1", "--seed", "7"]) == 0
    return out


@pytest.fixture(scope="module")
def tiny_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_tiny_corpus") / "data"
    assert main(["generate", "--out", str(out), "--subjects", "2", "--reps", "1", "--seed", "5"]) == 0
    return out


class TestGenerate:
    def test_two_by_one_gives_fourteen(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["generate", "--out", str(out), "--subjects", "2", "--reps", "1", "--seed", "1"]) == 0
        manifest = load_manifest(out / "manifest.json")
        assert len(manifest.entries) == 14
        assert "14 sequences" in capsys.readouterr().out

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["generate", "--subjects", "2"]) == 2

    def test_repeat_invocation_identical(self, tmp_path):
        args = ["--subjects", "2", "--reps", "1", "--seed", "1"]
        main(["generate", "--out", str(tmp_path / "a")] + args)
        main(["generate", "--out", str(tmp_path / "b")] + args)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
        assert not mismatch and not errors

    def test_scene_file(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({"ambient_mean": 23.0, "noise_std": 0.2}))
        out = tmp_path / "c"
        assert main(["generate", "--out", str(out), "--subjects", "2", "--reps", "1", "--scene", str(scene_path)]) == 0
        gen = json.loads((out / "generation.json").read_text())
        assert gen["scene"]["ambient_mean"] == 23.0


class TestEvaluate:
    def test_loso_report(self, corpus_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--data",
                str(corpus_dir / "manifest.json"),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overall accuracy" in out
        assert "fall sensitivity" in out
        report = json.loads(report_path.read_text())
        assert len(report["predictions"]) == 21
        assert report["protocol"] == "loso"
        assert report["config"]["eval"]["protocol"] == "loso"
        assert "config_hash" in report and "tool_version" in report
        # human output carries 2-decimal percentages
        assert "%" in out

    def test_kfold_override(self, corpus_dir, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--data",
                str(corpus_dir / "manifest.json"),
                "--eval.protocol",
                "kfold",
                "--eval.k",
                "3",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["protocol"] == "kfold"
        assert len(set(report["fold_assignments"])) == 3

    def test_corrupt_manifest_names_path(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{ nope")
        assert main(["evaluate", "--data", str(bad)]) == 1
        assert "broken.json" in capsys.readouterr().err

    def test_config_file_round_trip(self, corpus_dir, tmp_path):
        # run once, re-run with the embedded config: identical predictions
        report_a = tmp_path / "a.json"
        main(["evaluate", "--data", str(corpus_dir / "manifest.json"), "--report", str(report_a)])
        embedded = json.loads(report_a.read_text())["config"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(embedded))
        report_b = tmp_path / "b.json"
        main(
            [
                "evaluate",
                "--data",
                str(corpus_dir / "manifest.json"),
                "--config",
                str(cfg_path),
                "--report",
                str(report_b),
            ]
        )
        a = json.loads(report_a.read_text())
        b = json.loads(report_b.read_text())
        assert a["predictions"] == b["predictions"]
        assert a["config_hash"] == b["config_hash"]

    @pytest.mark.parametrize("c", ["1e-320", "1e308", "1e200", "1e300", "1e306"])
    def test_regularization_without_a_finite_step_scale(self, tiny_corpus_dir, capsys, c):
        # At 1e-320 every sequence used to be labelled "fall" with exit 0;
        # at 1e308 the step size divided by zero; from 1e200 to 1e306 the
        # margin products overflowed, warned and exited 0 at 50% accuracy.
        args = ["evaluate", "--data", str(tiny_corpus_dir / "manifest.json"), "--svm.regularization_c", c]
        assert main(args) == 1
        assert "fall" not in one_error_line(capsys, "fold 0: regularization_c")

    def test_out_of_memory_is_an_error_line(self, corpus_dir, capsys, monkeypatch):
        import thermact.preprocess as preprocess

        def no_memory(length, target_len):
            raise MemoryError(f"cannot resample {length} frames to {target_len}")

        monkeypatch.setattr(preprocess, "resample_indices", no_memory)
        assert main(["evaluate", "--data", str(corpus_dir / "manifest.json")]) == 1
        one_error_line(capsys, "cannot resample")

    def test_unknown_config_key_rejected(self, corpus_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"features": {"sequence_len": 10}}))
        assert (
            main(["evaluate", "--data", str(corpus_dir / "manifest.json"), "--config", str(cfg_path)])
            == 1
        )
        assert "sequence_len" in capsys.readouterr().err


def recount(report):
    """Every summary key of a report JSON, counted again from its predictions."""
    labels, preds = report["labels"], report["predictions"]
    counts = [[0] * len(labels) for _ in labels]
    for p in preds:
        counts[labels.index(p["true"])][labels.index(p["predicted"])] += 1
    falls = [(p["true"] == "fall", p["predicted"] == "fall") for p in preds]
    tp = falls.count((True, True))
    fn = falls.count((True, False))
    fp = falls.count((False, True))
    tn = falls.count((False, False))
    n_folds = 1 + max(p["fold"] for p in preds)
    fold_rows = [[p for p in preds if p["fold"] == f] for f in range(n_folds)]
    return {
        "confusion": counts,
        "overall_accuracy": sum(p["true"] == p["predicted"] for p in preds) / len(preds),
        "per_class_accuracy": {
            label: counts[i][i] / sum(counts[i]) if sum(counts[i]) else None
            for i, label in enumerate(labels)
        },
        "fall_sensitivity": tp / (tp + fn) if tp + fn else None,
        "fall_specificity": tn / (tn + fp) if tn + fp else None,
        "fold_accuracies": [
            sum(p["true"] == p["predicted"] for p in rows) / len(rows) for rows in fold_rows
        ],
        "fold_assignments": [p["fold"] for p in preds],
    }


class TestReportOracle:
    """The report's summaries are functions of its prediction log."""

    @pytest.mark.parametrize(
        "flags", [[], ["--eval.protocol", "kfold", "--eval.k", "3"]], ids=["loso", "kfold"]
    )
    def test_summaries_recount_from_predictions(self, corpus_dir, tmp_path, flags):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            argv = ["evaluate", "--data", str(corpus_dir / "manifest.json"), "--report", str(path)]
            assert main(argv + flags) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        report = json.loads(paths[0].read_text())
        manifest = load_manifest(corpus_dir / "manifest.json")
        assert [p["index"] for p in report["predictions"]] == list(range(len(manifest.entries)))
        assert [p["true"] for p in report["predictions"]] == [e.label for e in manifest.entries]
        for key, value in recount(report).items():
            assert report[key] == value, key
        assert len(set(report["fold_assignments"])) == 3


class TestTrainPredict:
    def test_train_then_predict_training_sequence(self, corpus_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", "--data", str(corpus_dir / "manifest.json"), "--model", str(model_path)]) == 0
        capsys.readouterr()
        seq_path = corpus_dir / "s01r1_fall.csv"
        code = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--background",
                str(corpus_dir / "background.csv"),
                str(seq_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("fall")

    def test_predict_long_raw_file_resampled(self, corpus_dir, tmp_path, capsys):
        # a 60-frame still is resampled to the model's 20 internally
        from thermact.core import write_sequence
        from thermact.synth import SceneParams, builtin_scripts, render_sequence

        model_path = tmp_path / "model.json"
        main(["train", "--data", str(corpus_dir / "manifest.json"), "--model", str(model_path)])
        scripts = builtin_scripts(np.random.default_rng(0))
        long_script = scripts["sit_still"]
        seq = render_sequence(SceneParams(), long_script, seed=0)
        assert len(seq) > 20
        seq_path = tmp_path / "long.csv"
        write_sequence(seq, seq_path)
        capsys.readouterr()
        code = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--background",
                str(corpus_dir / "background.csv"),
                "--scores",
                str(seq_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sit_still" in out or "stand_still" in out

        # equals the offline pipeline result
        from thermact.classifier import load_model, predict
        from thermact.core import read_sequence
        from thermact.evaluate import build_background_models
        from thermact.features import extract_features
        from thermact.preprocess import resample_equal_interval, subtract_background

        manifest = load_manifest(corpus_dir / "manifest.json")
        bg = build_background_models(manifest)[""]
        model, _ = load_model(model_path)
        offline = subtract_background(read_sequence(seq_path), bg)
        offline = resample_equal_interval(offline, 20)
        label, _ = predict(model, extract_features(offline))
        assert f"\t{label}" in out

    def test_wrong_dimension_model(self, corpus_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(
            [
                "train",
                "--data",
                str(corpus_dir / "manifest.json"),
                "--model",
                str(model_path),
                "--features.temporal_k",
                "3",
                "--preprocess.target_len",
                "10",
            ]
        )
        # doctor the embedded config so predict preprocesses at defaults
        data = json.loads(model_path.read_text())
        data["config"]["preprocess"]["target_len"] = 20
        data["config"]["features"]["temporal_k"] = 5
        model_path.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--background",
                str(corpus_dir / "background.csv"),
                str(corpus_dir / "s01r1_fall.csv"),
            ]
        )
        assert code == 1
        one_error_line(
            capsys,
            f"{corpus_dir / 's01r1_fall.csv'}: feature dimension 500 does not match model dimension 282",
        )

    def _predict(self, corpus_dir, model_path):
        return main(
            [
                "predict",
                "--model",
                str(model_path),
                "--background",
                str(corpus_dir / "background.csv"),
                str(corpus_dir / "s01r1_fall.csv"),
            ]
        )

    def test_non_finite_features_are_an_error_not_a_fall(self, corpus_dir, tmp_path, capsys, monkeypatch):
        import thermact.cli as cli

        model_path = tmp_path / "model.json"
        main(["train", "--data", str(corpus_dir / "manifest.json"), "--model", str(model_path)])
        capsys.readouterr()
        real = cli.extract_features

        def nan_features(seq, cfg):
            vector = real(seq, cfg).copy()
            vector[7] = np.nan
            return vector

        monkeypatch.setattr(cli, "extract_features", nan_features)
        assert self._predict(corpus_dir, model_path) == 1
        captured = capsys.readouterr()
        assert "fall" not in captured.out
        assert "s01r1_fall.csv" in captured.err and "non-finite" in captured.err
        assert "Traceback" not in captured.err

    def test_non_utf8_sequence_is_an_error(self, corpus_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(corpus_dir / "manifest.json"), "--model", str(model_path)])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe" + (corpus_dir / "s01r1_fall.csv").read_bytes())
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path), "--background",
             str(corpus_dir / "background.csv"), str(bad)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}: line 1: not UTF-8" in err
        assert "Traceback" not in err

    def test_non_utf8_manifest_file_is_an_error(self, corpus_dir, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        (data / "s02r1_walk_left_right.csv").write_bytes(b"0,\xff\xfe")
        code = main(["evaluate", "--data", str(data / "manifest.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "s02r1_walk_left_right.csv: line 1: not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config", [[], "svm", {"svm": 5}])
    def test_malformed_model_config_is_an_error(self, corpus_dir, tmp_path, capsys, config):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(corpus_dir / "manifest.json"), "--model", str(model_path)])
        data = json.loads(model_path.read_text())
        data["config"] = config
        model_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert self._predict(corpus_dir, model_path) == 1
        err = capsys.readouterr().err
        assert str(model_path) in err
        assert "Traceback" not in err


class TestFeaturize:
    def test_featurize_csv(self, corpus_dir, tmp_path):
        out = tmp_path / "features.csv"
        assert main(["featurize", "--data", str(corpus_dir / "manifest.json"), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 21
        first = lines[1].split(",")
        assert first[0] in {e.label for e in load_manifest(corpus_dir / "manifest.json").entries}
        assert len(first) == 2 + 500

    def test_ids_with_commas_and_quotes(self, corpus_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        odd = {"s01": "smith, j", "s02": 'o"neil\nb'}
        for entry in manifest["entries"]:
            if "subject" in entry:
                entry["subject"] = odd.get(entry["subject"], entry["subject"])
        (data / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "features.csv"
        assert main(["featurize", "--data", str(data / "manifest.json"), "--out", str(out)]) == 0
        with out.open(newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 21
        assert {len(row) for row in rows} == {2 + 500}
        subjects = [e.subject_id for e in load_manifest(data / "manifest.json").entries]
        assert [row[1] for row in rows[1:]] == subjects
        assert {"smith, j", 'o"neil\nb'} <= set(subjects)


class TestUsability:
    @pytest.mark.parametrize("sub", ["generate", "featurize", "train", "evaluate", "predict"])
    def test_help_exits_zero(self, sub, capsys):
        assert main([sub, "--help"]) == 0
        assert sub in capsys.readouterr().out

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_no_command_usage_error(self):
        assert main([]) == 2


# Nested deeper than the JSON decoder's recursion limit.
DEEP_JSON = "[" * 100_000


def one_error_line(capsys, *names):
    """stderr holds one `error:` line naming each of `names`, and no traceback.

    Returns what went to stdout.
    """
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for name in names:
        assert name in err, (name, err)
    return captured.out


class TestMalformedSettings:
    """Each defect exits 1 with one line naming the file (or flag) and the key."""

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"svm": {"max_epochs": "x"}}', "svm.max_epochs"),
            ('{"svm": {"regularization_c": null}}', "svm.regularization_c"),
            ('{"svm": {"tolerance": NaN}}', "svm.tolerance"),
            ('{"preprocess": {"target_len": true}}', "preprocess.target_len"),
            pytest.param(DEEP_JSON, "not valid JSON", id="nested-too-deep"),
        ],
    )
    def test_config_file(self, corpus_dir, tmp_path, capsys, text, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        args = ["evaluate", "--data", str(corpus_dir / "manifest.json"), "--config", str(cfg_path)]
        assert main(args) == 1
        one_error_line(capsys, f"{cfg_path}: {key}")

    def test_override_flag(self, corpus_dir, capsys):
        cases = [
            (["--svm.tolerance", "nan"], "svm.tolerance must be a finite number"),
            (["--svm.seed", "-1"], "svm.seed must be >= 0"),
            (["--eval.protocol", "kfold", "--eval.seed", "-1"], "eval.seed must be >= 0"),
        ]
        for flags, message in cases:
            args = ["evaluate", "--data", str(corpus_dir / "manifest.json"), *flags]
            assert main(args) == 1, flags
            one_error_line(capsys, flags[-2], message)

    def test_model_config(self, corpus_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(corpus_dir / "manifest.json"), "--model", str(model_path)])
        data = json.loads(model_path.read_text())
        data["config"]["features"]["temporal_k"] = "x"
        model_path.write_text(json.dumps(data))
        capsys.readouterr()
        args = ["predict", "--model", str(model_path), "--background",
                str(corpus_dir / "background.csv"), str(corpus_dir / "s01r1_fall.csv")]
        assert main(args) == 1
        one_error_line(capsys, f"{model_path}: config: features.temporal_k")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"noise_std": null}', "noise_std"),
            ('{"noise_std": Infinity}', "noise_std"),
            ('{"quantize_step": NaN}', "quantize_step"),
            pytest.param(DEEP_JSON, "not valid JSON", id="nested-too-deep"),
        ],
    )
    def test_scene_file(self, tmp_path, capsys, text, key):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(text)
        out = tmp_path / "out"
        args = ["generate", "--out", str(out), "--subjects", "1", "--reps", "1"]
        args += ["--scene", str(scene_path)]
        assert main(args) == 1
        one_error_line(capsys, f"{scene_path}: {key}")
        assert not (out / "manifest.json").exists()

    def test_scene_file_not_json(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text("{ nope")
        assert main(["generate", "--out", str(tmp_path / "out"), "--scene", str(scene_path)]) == 1
        one_error_line(capsys, f"{scene_path}: not valid JSON")

    def test_negative_seed_makes_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--out", str(out), "--seed", "-1"]) == 1
        one_error_line(capsys, "seed must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [pytest.param(DEEP_JSON.encode(), id="nested-too-deep"), pytest.param(b"\xff{}", id="not-utf8")],
    )
    def test_model_file_not_json(self, corpus_dir, tmp_path, capsys, content):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(content)
        args = ["predict", "--model", str(model_path), "--background",
                str(corpus_dir / "background.csv"), str(corpus_dir / "s01r1_fall.csv")]
        assert main(args) == 1
        one_error_line(capsys, f"{model_path} is not a valid model file")

    def test_manifest_nested_too_deep(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(DEEP_JSON)
        assert main(["evaluate", "--data", str(manifest_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"manifest {manifest_path} is not valid JSON" in err

    def test_unknown_model_config_section(self, corpus_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(corpus_dir / "manifest.json"), "--model", str(model_path)])
        data = json.loads(model_path.read_text())
        data["config"]["extra"] = {}
        model_path.write_text(json.dumps(data))
        capsys.readouterr()
        args = ["predict", "--model", str(model_path), "--background",
                str(corpus_dir / "background.csv"), str(corpus_dir / "s01r1_fall.csv")]
        assert main(args) == 1
        one_error_line(capsys, f"{model_path}: config: unknown config key(s) ['extra']")
