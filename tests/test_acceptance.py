"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with `pytest tests/test_acceptance.py -v -s` to see them) and
enforcing its runtime budget. The two dataset-conditional criteria skip
unless the corresponding environment variable points at a manifest.
"""

import os
import time

import numpy as np
import pytest

from oracles import naive_dct, naive_dct2

from thermact.classifier import SvmConfig, load_model, predict_batch, save_model, train
from thermact.config import EvalSettings, PipelineConfig
from thermact.core import ADL7_LABELS, DatasetManifest, ManifestEntry, load_manifest
from thermact.evaluate import (
    ConfusionMatrix,
    confusion_from_records,
    fall_metrics,
    loso_split,
    run_pipeline_cv,
    stratified_kfold_split,
)
from thermact.features import FeatureConfig, dct_matrix, extract_features
from thermact.core import ThermalSequence
from thermact.synth import generate_corpus
from toy_data import toy_clusters

INFRA_ENV = "THERMACT_INFRA_ADL2018_MANIFEST"
COVENTRY_ENV = "THERMACT_COVENTRY_MANIFEST"


def announce(name):
    print(f"\n[ACCEPTANCE] {name}: PASS")


@pytest.fixture(scope="module")
def default_corpus_report(tmp_path_factory):
    """Default corpus (8 subjects x 3 reps, seed 42) through full LOSO."""
    out = tmp_path_factory.mktemp("acceptance_corpus")
    t0 = time.monotonic()
    summary = generate_corpus(out, subjects=8, reps=3, seed=42)
    manifest = load_manifest(summary.manifest_path)
    report = run_pipeline_cv(manifest)
    elapsed = time.monotonic() - t0
    return summary, manifest, report, elapsed


def test_criterion_1_dct_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    for n in range(1, 65):
        basis = dct_matrix(n)
        assert np.abs(basis @ basis.T - np.eye(n)).max() < 1e-9
        for _ in range(2):
            x = rng.normal(0.0, 2.0, n)
            assert np.abs(basis @ x - naive_dct(x)).max() < 1e-9
            checked += 1
        x = rng.normal(0.0, 2.0, n)
        coeffs = basis @ x
        assert abs(np.sum(coeffs**2) - np.sum(x**2)) < 1e-9
    assert checked >= 100
    # 2-D transform against the O(n^4) definition sum
    grid = rng.normal(0.0, 1.0, (8, 8))
    m8 = dct_matrix(8)
    assert np.abs(m8 @ grid @ m8.T - naive_dct2(grid)).max() < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    announce(f"1 DCT correctness ({checked} inputs, {elapsed:.2f}s)")


def test_criterion_2_feature_contract():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    cfg = FeatureConfig()
    matrix = rng.normal(0.0, 1.0, (20, 64))

    def as_seq(m):
        return ThermalSequence(pixels=m, stage="subtracted")

    vec = extract_features(as_seq(matrix), cfg)
    assert len(vec) == 500
    assert vec[:320].size == 320 and vec[320:].size == 180

    shifted = extract_features(as_seq(matrix + 3.7), cfg)
    non_dc_t = np.ones((64, 5), dtype=bool)
    non_dc_t[:, 0] = False
    non_dc_s = np.ones((20, 3, 3), dtype=bool)
    non_dc_s[:, 0, 0] = False
    drift = max(
        np.abs((vec[:320] - shifted[:320]).reshape(64, 5)[non_dc_t]).max(),
        np.abs((vec[320:] - shifted[320:]).reshape(20, 3, 3)[non_dc_s]).max(),
    )
    assert drift < 1e-9

    for alpha in (-2.5, 0.3, 4.0):
        scaled = extract_features(as_seq(alpha * matrix), cfg)
        assert np.abs(scaled - abs(alpha) * vec).max() < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    announce(f"2 feature contract (len 500, {elapsed:.2f}s)")


def test_criterion_3_svm_oracle(tmp_path):
    t0 = time.monotonic()
    X, labels = toy_clusters(n_classes=7, per_class=24, dim=100, separation=8.0, seed=5)
    cfg = SvmConfig(max_epochs=200)
    model = train(X, labels, cfg)
    pred, _ = predict_batch(model, X)
    assert pred == labels  # 100% training accuracy

    retrained = train(X, labels, cfg)
    assert np.array_equal(model.weights, retrained.weights)
    assert np.array_equal(model.biases, retrained.biases)

    path = tmp_path / "model.json"
    save_model(model, path)
    loaded, _ = load_model(path)
    queries = np.random.default_rng(0).normal(0.0, 3.0, (50, X.shape[1]))
    labels_a, scores_a = predict_batch(model, queries)
    labels_b, scores_b = predict_batch(loaded, queries)
    assert labels_a == labels_b
    assert np.array_equal(scores_a, scores_b)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    announce(f"3 SVM oracle ({elapsed:.2f}s)")


def test_criterion_4_splitter_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    manifests_checked = 0
    while manifests_checked < 500:
        n_classes = int(rng.integers(2, 6))
        n_subjects = int(rng.integers(2, 7))
        n = int(rng.integers(n_classes * 3, 60))
        labels = [f"c{rng.integers(n_classes)}" for _ in range(n)]
        subjects = [f"s{rng.integers(n_subjects)}" for _ in range(n)]
        label_set = tuple(sorted({f"c{i}" for i in range(n_classes)} | set(labels)))
        manifest = DatasetManifest(
            entries=tuple(
                ManifestEntry(path=f"f{i}.csv", label=l, subject_id=s, session_id=s)
                for i, (l, s) in enumerate(zip(labels, subjects))
            ),
            label_set=label_set,
        )
        manifests_checked += 1

        all_folds = []
        if len(set(subjects)) >= 2:
            all_folds.append(loso_split(manifest))
        counts = {c: labels.count(c) for c in set(labels)}
        k = int(rng.integers(2, 5))
        if counts and min(counts.values()) >= k and set(labels) == set(label_set):
            folds = stratified_kfold_split(manifest, k=k, seed=int(rng.integers(10_000)))
            all_folds.append(folds)
            for cls in label_set:
                fold_counts = [
                    sum(1 for i in test if manifest.entries[i].label == cls)
                    for _, test in folds
                ]
                assert max(fold_counts) - min(fold_counts) <= 1
        for folds in all_folds:
            seen = []
            for train_idx, test_idx in folds:
                assert np.intersect1d(train_idx, test_idx).size == 0
                assert len(train_idx) + len(test_idx) == n
                seen.extend(test_idx.tolist())
            assert sorted(seen) == list(range(n))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    announce(f"4 splitter correctness (500 manifests, {elapsed:.2f}s)")


def test_criterion_5_end_to_end_synthetic_loso(default_corpus_report):
    summary, manifest, report, elapsed = default_corpus_report
    assert summary.sequence_count == 168
    assert summary.clamped_values == 0
    assert report.overall_accuracy >= 0.85
    assert report.fall_sensitivity == 1.0
    assert report.fall_specificity >= 0.98
    assert elapsed < 60.0
    announce(
        "5 end-to-end synthetic LOSO "
        f"(accuracy {report.overall_accuracy:.4f}, sensitivity "
        f"{report.fall_sensitivity:.2f}, specificity {report.fall_specificity:.4f}, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_6_metric_recount(default_corpus_report):
    _, manifest, report, _ = default_corpus_report
    true = [p.true_label for p in report.predictions]
    pred = [p.predicted_label for p in report.predictions]
    recounted = confusion_from_records(true, pred, manifest.label_set)
    assert np.array_equal(recounted.counts, report.confusion.counts)
    assert recounted.overall_accuracy() == report.overall_accuracy
    assert fall_metrics(recounted) == (report.fall_sensitivity, report.fall_specificity)

    # crafted single false alarm: 126 non-falls, one flagged -> 125/126
    crafted = ConfusionMatrix(
        labels=("fall", "stand_to_sit", "walk_left_right"),
        counts=np.array([[42, 0, 0], [1, 62, 0], [0, 0, 63]]),
    )
    sensitivity, specificity = fall_metrics(crafted)
    assert sensitivity == 1.0
    assert specificity == 125 / 126
    assert abs(specificity - 0.9921) < 5e-5
    announce("6 metric recount (crafted specificity 125/126)")


@pytest.mark.skipif(INFRA_ENV not in os.environ, reason=f"{INFRA_ENV} not set")
def test_criterion_7a_infra_adl2018():
    manifest = load_manifest(os.environ[INFRA_ENV])
    assert set(ADL7_LABELS) <= set(manifest.label_set)
    report = run_pipeline_cv(manifest)
    # reference: 87.50% overall, tolerance +/- 5 percentage points
    assert abs(report.overall_accuracy - 0.8750) <= 0.05
    assert report.fall_sensitivity >= 0.95
    announce(
        f"7a Infra-ADL2018 (accuracy {report.overall_accuracy:.4f}, "
        f"sensitivity {report.fall_sensitivity:.4f})"
    )


# Reference per-activity accuracies for the Coventry-Activity dataset
# (three-sensor-pooled, 10-fold), tolerance +/- 7 percentage points.
COVENTRY_REFERENCE = {
    "sit_still": 0.96,
    "stand_still": 0.93,
    "stand_up_and_sit_down": 0.96,
    "stand_up": 1.00,
    "move_left_right": 1.00,
    "move_forward_backward": 0.96,
    "diagonal_walk_1": 1.00,
    "diagonal_walk_2": 1.00,
}


@pytest.mark.skipif(COVENTRY_ENV not in os.environ, reason=f"{COVENTRY_ENV} not set")
def test_criterion_7b_coventry():
    manifest = load_manifest(os.environ[COVENTRY_ENV])
    report = run_pipeline_cv(manifest, PipelineConfig(eval=EvalSettings("kfold", 10, 42)))
    per_class = dict(zip(report.confusion.labels, report.per_class_accuracy))
    checked = 0
    for label, reference in COVENTRY_REFERENCE.items():
        if label in per_class and per_class[label] is not None:
            assert abs(per_class[label] - reference) <= 0.07, label
            checked += 1
    assert checked > 0
    announce(f"7b Coventry ({checked} class accuracies within tolerance)")
