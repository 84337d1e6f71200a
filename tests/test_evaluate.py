import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermact.classifier import SvmConfig
from thermact.config import EvalSettings, PipelineConfig
from thermact.core import ADL7_LABELS, DatasetManifest, ManifestEntry, ThermactError
from thermact.evaluate import (
    ConfusionMatrix,
    confusion_from_records,
    fall_metrics,
    loso_split,
    run_pipeline_cv,
    stratified_kfold_split,
)


def manifest_of(labels, subjects, label_set=None):
    entries = tuple(
        ManifestEntry(path=f"f{i}.csv", label=l, subject_id=s, session_id=s)
        for i, (l, s) in enumerate(zip(labels, subjects))
    )
    return DatasetManifest(
        entries=entries,
        label_set=tuple(label_set or sorted(set(labels))),
    )


def random_manifest(rng, max_classes=5, max_subjects=6, max_size=60):
    n_classes = int(rng.integers(2, max_classes + 1))
    n_subjects = int(rng.integers(2, max_subjects + 1))
    n = int(rng.integers(n_classes * 2, max_size))
    labels = [f"c{rng.integers(n_classes)}" for _ in range(n)]
    subjects = [f"s{rng.integers(n_subjects)}" for _ in range(n)]
    label_set = sorted({f"c{i}" for i in range(n_classes)} | set(labels))
    return manifest_of(labels, subjects, label_set)


def assert_disjoint_exhaustive(manifest, folds):
    n = len(manifest.entries)
    seen = []
    for train, test in folds:
        assert np.intersect1d(train, test).size == 0
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(n))
        seen.extend(test.tolist())
    assert sorted(seen) == list(range(n))


class TestLoso:
    def test_eight_subjects_eight_folds(self):
        labels = ["fall"] * 16
        subjects = [f"s{i}" for i in range(8) for _ in range(2)]
        manifest = manifest_of(labels, subjects)
        folds = loso_split(manifest)
        assert len(folds) == 8
        for (train, test), subject in zip(folds, sorted(set(subjects))):
            assert {manifest.entries[i].subject_id for i in test} == {subject}
            assert subject not in {manifest.entries[i].subject_id for i in train}

    def test_two_subjects_one_each(self):
        manifest = manifest_of(["a", "b"], ["s1", "s2"], label_set=["a", "b"])
        folds = loso_split(manifest)
        assert [(list(tr), list(te)) for tr, te in folds] == [([1], [0]), ([0], [1])]

    def test_single_subject_rejected(self):
        manifest = manifest_of(["a", "a"], ["s1", "s1"], label_set=["a"])
        with pytest.raises(ValueError, match="2 subjects"):
            loso_split(manifest)

    def test_set_cover_oracle(self, rng):
        for _ in range(50):
            manifest = random_manifest(rng)
            assert_disjoint_exhaustive(manifest, loso_split(manifest))


class TestStratifiedKfold:
    def test_thirty_per_class_ten_folds(self):
        labels = [f"c{i}" for i in range(8) for _ in range(30)]
        subjects = ["s0"] * len(labels)
        manifest = manifest_of(labels, subjects)
        folds = stratified_kfold_split(manifest, k=10, seed=42)
        for train, test in folds:
            per_class = {}
            for i in test:
                per_class[manifest.entries[i].label] = per_class.get(manifest.entries[i].label, 0) + 1
            assert all(v == 3 for v in per_class.values())

    def test_leave_one_out_mode(self):
        manifest = manifest_of(["a"] * 5 + ["b"] * 5, ["s"] * 10, label_set=["a", "b"])
        folds = stratified_kfold_split(manifest, k=5, seed=42)
        assert len(folds) == 5
        assert all(len(test) == 2 for _, test in folds)

    def test_counts_differ_by_at_most_one(self, rng):
        for _ in range(40):
            manifest = random_manifest(rng, max_size=80)
            counts = {}
            for e in manifest.entries:
                counts[e.label] = counts.get(e.label, 0) + 1
            k = int(rng.integers(2, 5))
            if min(counts.values()) < k:
                continue
            folds = stratified_kfold_split(manifest, k=k, seed=int(rng.integers(1000)))
            assert_disjoint_exhaustive(manifest, folds)
            # brute-force recount per class per fold
            for cls in manifest.label_set:
                fold_counts = [
                    sum(1 for i in test if manifest.entries[i].label == cls)
                    for _, test in folds
                ]
                assert max(fold_counts) - min(fold_counts) <= 1

    def test_deterministic_given_seed(self):
        labels = ["a", "b"] * 20
        manifest = manifest_of(labels, ["s"] * 40, label_set=["a", "b"])
        f1 = stratified_kfold_split(manifest, k=4, seed=9)
        f2 = stratified_kfold_split(manifest, k=4, seed=9)
        for (tr1, te1), (tr2, te2) in zip(f1, f2):
            assert np.array_equal(te1, te2)

    def test_fold_sizes_of_the_default_corpus_shape(self):
        # 8 subjects x 3 sessions x 7 activities at k=10: each class deals its
        # 24 members from its own rotated fold, so the extra four members of
        # the seven classes spread over the folds instead of piling on 0-3.
        labels = [l for _ in range(8 * 3) for l in ADL7_LABELS]
        subjects = [f"s{i // 21}" for i in range(len(labels))]
        manifest = manifest_of(labels, subjects, label_set=ADL7_LABELS)
        folds = stratified_kfold_split(manifest, k=10, seed=42)
        assert [len(test) for _, test in folds] == [15, 16, 17, 18, 18, 18, 18, 17, 16, 15]

    def test_seed_shuffles_each_class(self):
        # Dealt in manifest order, a class's members would land in the same
        # folds for every seed.
        manifest = manifest_of(["a", "b"] * 20, ["s"] * 40, label_set=["a", "b"])
        tests = {
            seed: [te.tolist() for _, te in stratified_kfold_split(manifest, k=4, seed=seed)]
            for seed in range(5)
        }
        assert len({str(t) for t in tests.values()}) == 5

    def test_class_without_members_allowed(self):
        manifest = manifest_of(["a", "b"] * 6, ["s"] * 12, label_set=["a", "b", "unused"])
        folds = stratified_kfold_split(manifest, k=3, seed=42)
        assert_disjoint_exhaustive(manifest, folds)

    def test_deficient_class_named(self):
        manifest = manifest_of(["a"] * 10 + ["b"] * 2, ["s"] * 12, label_set=["a", "b"])
        with pytest.raises(ValueError, match="'b'"):
            stratified_kfold_split(manifest, k=5, seed=42)
        # One member short of k is too few; k members are enough.
        manifest = manifest_of(["a"] * 10 + ["b"] * 4, ["s"] * 14, label_set=["a", "b"])
        with pytest.raises(ValueError, match="class 'b' has only 4 example"):
            stratified_kfold_split(manifest, k=5, seed=42)
        assert len(stratified_kfold_split(manifest, k=4, seed=42)) == 4

    def test_k_too_small(self):
        manifest = manifest_of(["a", "b"], ["s", "s"], label_set=["a", "b"])
        with pytest.raises(ValueError, match="k"):
            stratified_kfold_split(manifest, k=1, seed=42)


class TestConfusionMatrix:
    def test_counts_and_accuracy(self):
        cm = confusion_from_records(
            ["a", "a", "b", "b"], ["a", "b", "b", "b"], ["a", "b"]
        )
        assert cm.counts.tolist() == [[1, 1], [0, 2]]
        assert cm.overall_accuracy() == 0.75
        assert cm.per_class_accuracy() == (0.5, 1.0)
        assert cm.total == 4

    def test_stubbed_always_first_class(self):
        true = ["a"] * 3 + ["b"] * 4 + ["c"] * 5
        pred = ["a"] * 12
        cm = confusion_from_records(true, pred, ["a", "b", "c"])
        assert cm.per_class_accuracy() == (1.0, 0.0, 0.0)

    def test_absent_class_accuracy_is_none(self):
        cm = confusion_from_records(["a"], ["a"], ["a", "b"])
        assert cm.per_class_accuracy() == (1.0, None)

    @pytest.mark.parametrize(
        "counts, message",
        [
            (np.zeros((2, 3), dtype=int), "square"),
            (np.zeros((3, 3), dtype=int), "square"),
            (np.array([[1, -1], [0, 2]]), "non-negative"),
        ],
    )
    def test_invalid_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            ConfusionMatrix(labels=("a", "b"), counts=counts)

    @pytest.mark.parametrize("view", [False, True])
    def test_counts_are_a_read_only_copy(self, view):
        # The caller's array, and a view's base, stay writable and unshared.
        owner = np.eye(3, dtype=np.int64)
        given = owner[:2, :2] if view else owner[:2, :2].copy()
        cm = ConfusionMatrix(labels=("a", "b"), counts=given)
        for arr in (given, owner):
            assert arr.flags.writeable and not np.shares_memory(cm.counts, arr)
        given[0, 0] = -5
        assert cm.counts.tolist() == [[1, 0], [0, 1]] and cm.total == 2
        with pytest.raises(ValueError, match="read-only"):
            cm.counts[0, 0] = 7

    def test_pickled_and_deep_copied_matrices_are_read_only(self):
        # Neither path calls __init__ unless the type says how to rebuild.
        cm = ConfusionMatrix(labels=("a", "b"), counts=np.array([[2, 1], [0, 3]]))
        for kept in (pickle.loads(pickle.dumps(cm)), copy.deepcopy(cm)):
            assert kept.labels == cm.labels and kept.counts.tolist() == cm.counts.tolist()
            assert kept.counts.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                kept.counts[0, 0] = 7

    def test_text_rendering(self):
        cm = confusion_from_records(["a", "b"], ["a", "b"], ["a", "b"])
        text = cm.to_text()
        assert "a" in text and "b" in text and "1" in text


class TestFallMetrics:
    def test_single_false_alarm_example(self):
        # 42 falls all detected; 1 of 126 non-falls flagged as fall
        labels = ("fall", "stand_to_sit", "other")
        counts = np.array(
            [
                [42, 0, 0],
                [1, 62, 0],
                [0, 0, 63],
            ]
        )
        cm = ConfusionMatrix(labels=labels, counts=counts)
        sensitivity, specificity = fall_metrics(cm)
        assert sensitivity == 1.0
        assert specificity == 125 / 126
        assert round(specificity, 4) == 0.9921

    def test_zero_matrix_reports_absent(self):
        cm = ConfusionMatrix(labels=("fall", "x"), counts=np.zeros((2, 2), dtype=int))
        assert fall_metrics(cm) == (None, None)

    def test_absent_label_rejected(self):
        cm = ConfusionMatrix(labels=("a", "b"), counts=np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError, match="fall"):
            fall_metrics(cm)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_recount_oracle(self, seed):
        rng = np.random.default_rng(seed)
        labels = ["fall", "b", "c"]
        n = int(rng.integers(1, 60))
        true = [labels[rng.integers(3)] for _ in range(n)]
        pred = [labels[rng.integers(3)] for _ in range(n)]
        cm = confusion_from_records(true, pred, labels)
        sensitivity, specificity = fall_metrics(cm)
        tp = sum(1 for t, p in zip(true, pred) if t == "fall" and p == "fall")
        fn = sum(1 for t, p in zip(true, pred) if t == "fall" and p != "fall")
        fp = sum(1 for t, p in zip(true, pred) if t != "fall" and p == "fall")
        tn = sum(1 for t, p in zip(true, pred) if t != "fall" and p != "fall")
        assert sensitivity == (tp / (tp + fn) if tp + fn else None)
        assert specificity == (tn / (tn + fp) if tn + fp else None)


class TestRunPipelineCv:
    def test_loso_on_small_corpus(self, small_corpus):
        report = run_pipeline_cv(small_corpus)
        assert report.confusion.total == len(small_corpus.entries)
        assert len(report.predictions) == len(small_corpus.entries)
        assert len(report.fold_accuracies) == 3
        assert set(report.fold_assignments) == {0, 1, 2}

    def test_metrics_recomputable_from_prediction_log(self, small_corpus):
        report = run_pipeline_cv(small_corpus)
        true = [p.true_label for p in report.predictions]
        pred = [p.predicted_label for p in report.predictions]
        cm = confusion_from_records(true, pred, small_corpus.label_set)
        assert np.array_equal(cm.counts, report.confusion.counts)
        assert cm.overall_accuracy() == report.overall_accuracy
        assert fall_metrics(cm) == (report.fall_sensitivity, report.fall_specificity)
        assert cm.per_class_accuracy() == report.per_class_accuracy

    def test_standardization_is_fold_local(self, small_corpus):
        report = run_pipeline_cv(small_corpus)
        means = [m.scaler_mean for m in report.fold_models]
        assert not np.allclose(means[0], means[1])
        assert not np.allclose(means[1], means[2])

    def test_kfold_totals(self, small_corpus):
        config = PipelineConfig(eval=EvalSettings("kfold", 3, 1))
        report = run_pipeline_cv(small_corpus, config)
        assert report.confusion.total == len(small_corpus.entries)

    @pytest.mark.parametrize("protocol, k, seed", [("loso", 10, 42), ("kfold", 2, 1)])
    def test_folds_follow_the_config(self, small_corpus, protocol, k, seed):
        config = PipelineConfig(eval=EvalSettings(protocol, k, seed))
        if protocol == "loso":
            folds = loso_split(small_corpus)
        else:
            folds = stratified_kfold_split(small_corpus, k=k, seed=seed)
        expected = [None] * len(small_corpus.entries)
        for fold_id, (_, test) in enumerate(folds):
            for i in test.tolist():
                expected[i] = fold_id
        report = run_pipeline_cv(small_corpus, config)
        assert [p.fold for p in report.predictions] == expected
        assert len(report.fold_models) == len(folds)
        payload = report.to_json_dict()
        assert payload["protocol"] == protocol
        assert (payload["config"]["eval"]["k"], payload["config"]["eval"]["seed"]) == (k, seed)
        assert len(payload["fold_accuracies"]) == len(folds)

    def test_fold_errors_annotated(self, small_corpus):
        # a step scale 1/(C*m) that overflows fails the first fold's training
        config = PipelineConfig(svm=SvmConfig(regularization_c=1e-320))
        with pytest.raises(ThermactError, match="^fold 0: regularization_c"):
            run_pipeline_cv(small_corpus, config)

    def test_perfect_dataset_reaches_full_accuracy(self, tmp_path):
        # only mutually distant activity classes: every fold must be clean
        from thermact.core import BackgroundEntry, load_manifest, write_manifest, write_sequence
        from thermact.synth import (
            SceneParams,
            SubjectProfile,
            builtin_scripts,
            empty_scene_script,
            render_frames,
        )

        scene = SceneParams()
        labels = ("fall", "sit_still", "walk_left_right")
        entries = []
        root_ss = np.random.SeedSequence(99)
        subj_ss = root_ss.spawn(5)
        write_sequence(
            render_frames(scene, empty_scene_script(), np.random.default_rng(subj_ss[0]))[0],
            tmp_path / "bg.csv",
        )
        for si in range(1, 5):
            kids = subj_ss[si].spawn(1 + len(labels))
            profile = SubjectProfile.draw(np.random.default_rng(kids[0]))
            for li, label in enumerate(labels):
                rng = np.random.default_rng(kids[1 + li])
                seq = render_frames(scene, builtin_scripts(rng, profile)[label], rng)[0]
                name = f"s{si}_{label}.csv"
                write_sequence(seq, tmp_path / name)
                entries.append(
                    ManifestEntry(path=name, label=label, subject_id=f"s{si}", session_id=f"s{si}")
                )
        manifest = DatasetManifest(
            entries=tuple(entries),
            label_set=labels,
            backgrounds=(BackgroundEntry(path="bg.csv"),),
        )
        write_manifest(manifest, tmp_path / "manifest.json")
        manifest = load_manifest(tmp_path / "manifest.json")
        report = run_pipeline_cv(manifest)
        assert report.overall_accuracy == 1.0
        assert np.array_equal(
            report.confusion.counts, np.diag([4, 4, 4])
        )

    @pytest.mark.parametrize("chunk", [1, 5, 20])
    def test_features_do_not_depend_on_chunking(self, small_corpus, monkeypatch, chunk):
        import thermact.evaluate as evaluate

        whole, labels = evaluate.prepare_features(small_corpus)
        monkeypatch.setattr(evaluate, "FEATURE_CHUNK", chunk)
        chunked, chunked_labels = evaluate.prepare_features(small_corpus)
        assert len(small_corpus.entries) == 21
        assert chunked_labels == labels
        assert np.array_equal(chunked, whole)

    def test_report_json_round_trip(self, small_corpus):
        report = run_pipeline_cv(small_corpus)
        payload = report.to_json_dict()
        assert list(payload) == [
            "labels", "confusion", "overall_accuracy", "per_class_accuracy",
            "fall_sensitivity", "fall_specificity", "fold_accuracies",
            "fold_assignments", "predictions", "config", "protocol",
            "tool_version", "config_hash",
        ]
        assert payload["overall_accuracy"] == report.overall_accuracy
        assert len(payload["predictions"]) == len(small_corpus.entries)
        assert payload["confusion"] == [list(r) for r in report.confusion.counts]
        assert payload["config"] == PipelineConfig().to_dict()
        assert payload["config_hash"] == PipelineConfig().config_hash()

    def test_report_holds_what_was_run(self, small_corpus):
        config = PipelineConfig(svm=SvmConfig(max_epochs=3))
        report = run_pipeline_cv(small_corpus, config)
        assert [f.name for f in dataclasses.fields(report)] == [
            "labels", "predictions", "fold_models", "config",
        ]
        assert report.config is config
        assert all(m.train_config == config.svm for m in report.fold_models)
        assert report.to_json_dict()["config"]["svm"]["max_epochs"] == 3
