"""Cross-validation harnesses and recognition metrics.

Two splitters are provided: leave-one-subject-out (one fold per subject) and
class-stratified k-fold. `run_pipeline_cv` drives the full pipeline per fold
(standardization statistics are learned inside each fold's training set by
the classifier, so nothing leaks into the test split) and pools all fold
predictions into a single confusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import classifier as svm
from .core import DatasetManifest, ThermactError, load_backgrounds, load_sequences
from .features import FeatureConfig, feature_matrix
from .preprocess import (
    DEFAULT_TARGET_LEN,
    estimate_background,
    resample_equal_interval,
    subtract_background,
)

FALL_LABEL = "fall"

# Sequences per feature_matrix call in prepare_features: the resampled pixels
# of a chunk, not of the whole dataset, are held at once.
FEATURE_CHUNK = 32

Fold = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Counts[i, j] = sequences with true label i predicted as label j."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (len(self.labels), len(self.labels)):
            raise ValueError("counts must be square over the label list")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def overall_accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    def per_class_accuracy(self) -> tuple[float | None, ...]:
        """Diagonal over row sums; None for classes with no true examples."""
        rows = self.counts.sum(axis=1)
        return tuple(
            float(self.counts[i, i]) / rows[i] if rows[i] else None
            for i in range(len(self.labels))
        )

    def to_text(self) -> str:
        width = max(max(len(l) for l in self.labels), len(str(self.counts.max())) if self.total else 1)
        header = " " * (width + 2) + " ".join(f"{l:>{width}}" for l in self.labels)
        lines = [header]
        for i, label in enumerate(self.labels):
            row = " ".join(f"{int(c):>{width}}" for c in self.counts[i])
            lines.append(f"{label:>{width}}  {row}")
        return "\n".join(lines)


def confusion_from_records(
    true_labels: Sequence[str], predicted_labels: Sequence[str], labels: Sequence[str]
) -> ConfusionMatrix:
    index = {l: i for i, l in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(true_labels, predicted_labels, strict=True):
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(labels=tuple(labels), counts=counts)


def fall_metrics(
    confusion: ConfusionMatrix, fall_label: str = FALL_LABEL
) -> tuple[float | None, float | None]:
    """(sensitivity, specificity) of the fall-vs-everything binarization.

    Sensitivity = TP/(TP+FN), specificity = TN/(TN+FP); either is None when
    its denominator is zero.
    """
    if fall_label not in confusion.labels:
        raise ValueError(f"label {fall_label!r} not in confusion matrix")
    i = confusion.labels.index(fall_label)
    counts = confusion.counts
    tp = int(counts[i, i])
    fn = int(counts[i].sum()) - tp
    fp = int(counts[:, i].sum()) - tp
    tn = confusion.total - tp - fn - fp
    sensitivity = tp / (tp + fn) if tp + fn else None
    specificity = tn / (tn + fp) if tn + fp else None
    return sensitivity, specificity


# ---------------------------------------------------------------------------
# Splitters. Folds are (train_indices, test_indices) into manifest.entries.
# ---------------------------------------------------------------------------


def loso_split(manifest: DatasetManifest) -> list[Fold]:
    """One fold per subject: that subject's sequences form the test set."""
    subjects = sorted({e.subject_id for e in manifest.entries})
    if len(subjects) < 2:
        raise ValueError("leave-one-subject-out needs at least 2 subjects")
    all_idx = np.arange(len(manifest.entries))
    by_subject = np.array([e.subject_id for e in manifest.entries])
    folds = []
    for subject in subjects:
        test = all_idx[by_subject == subject]
        train = all_idx[by_subject != subject]
        folds.append((train, test))
    return folds


def stratified_kfold_split(
    manifest: DatasetManifest, k: int, seed: int = 42
) -> list[Fold]:
    """k folds with per-class counts balanced to within one.

    Each class's indices are shuffled (deterministically from `seed`) and
    dealt round-robin; classes start at rotated fold offsets so overall fold
    sizes stay even too.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    labels = np.array([e.label for e in manifest.entries])
    fold_of = np.empty(len(labels), dtype=np.intp)
    for ci, cls in enumerate(manifest.label_set):
        members = np.flatnonzero(labels == cls)
        if members.size and members.size < k:
            raise ValueError(
                f"class {cls!r} has only {members.size} example(s), needs >= {k} for {k}-fold"
            )
        shuffled = rng.permutation(members)
        for pos, idx in enumerate(shuffled):
            fold_of[idx] = (pos + ci) % k
    all_idx = np.arange(len(labels))
    return [(all_idx[fold_of != f], all_idx[fold_of == f]) for f in range(k)]


# ---------------------------------------------------------------------------
# Full pipeline cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequencePrediction:
    index: int
    path: str
    true_label: str
    predicted_label: str
    fold: int
    scores: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class EvalReport:
    confusion: ConfusionMatrix
    overall_accuracy: float
    per_class_accuracy: tuple[float | None, ...]
    fall_sensitivity: float | None
    fall_specificity: float | None
    fold_assignments: tuple[int, ...]
    predictions: tuple[SequencePrediction, ...]
    fold_accuracies: tuple[float, ...]
    fold_models: tuple[svm.SvmModel, ...] = field(repr=False, default=())
    config: dict | None = None

    def to_json_dict(self) -> dict:
        """JSON-ready report at full precision (models are not serialized)."""
        per_class = {
            label: acc for label, acc in zip(self.confusion.labels, self.per_class_accuracy)
        }
        return {
            "labels": list(self.confusion.labels),
            "confusion": [[int(c) for c in row] for row in self.confusion.counts],
            "overall_accuracy": self.overall_accuracy,
            "per_class_accuracy": per_class,
            "fall_sensitivity": self.fall_sensitivity,
            "fall_specificity": self.fall_specificity,
            "fold_accuracies": list(self.fold_accuracies),
            "fold_assignments": list(self.fold_assignments),
            "predictions": [
                {
                    "index": p.index,
                    "path": p.path,
                    "true": p.true_label,
                    "predicted": p.predicted_label,
                    "fold": p.fold,
                    "scores": list(p.scores),
                }
                for p in self.predictions
            ],
            "config": self.config,
        }


def build_background_models(manifest: DatasetManifest):
    """BackgroundModel per declared session plus the "" global fallback."""
    return {
        session: estimate_background(seq)
        for session, seq in load_backgrounds(manifest).items()
    }


def prepare_features(
    manifest: DatasetManifest,
    target_len: int = DEFAULT_TARGET_LEN,
    feature_config: FeatureConfig | None = None,
) -> tuple[np.ndarray, list[str]]:
    """Run every entry through subtraction/resampling/extraction.

    Returns the (N, D) feature matrix and the true labels, in manifest
    order. Features are deterministic per sequence, so computing them once
    up front is leak-free; only standardization is fold-dependent. Each row
    is the same whichever chunk it is computed in.
    """
    backgrounds = build_background_models(manifest)
    if not backgrounds:
        raise ThermactError("manifest declares no background clip")
    sequences = load_sequences(manifest)
    blocks = []
    for lo in range(0, len(sequences), FEATURE_CHUNK):
        processed = []
        chunk = slice(lo, lo + FEATURE_CHUNK)
        for entry, seq in zip(manifest.entries[chunk], sequences[chunk]):
            bg = backgrounds.get(entry.session_id, backgrounds.get(""))
            if bg is None:
                raise ThermactError(
                    f"no background clip for session {entry.session_id!r} and no global fallback"
                )
            seq = subtract_background(seq, bg)
            processed.append(resample_equal_interval(seq, target_len))
        blocks.append(feature_matrix(processed, feature_config))
    return np.concatenate(blocks), [e.label for e in manifest.entries]


def run_pipeline_cv(
    manifest: DatasetManifest,
    folds: list[Fold],
    target_len: int = DEFAULT_TARGET_LEN,
    feature_config: FeatureConfig | None = None,
    svm_config: svm.SvmConfig | None = None,
    config_echo: dict | None = None,
) -> EvalReport:
    """Train and test over the given folds; pool one confusion matrix.

    Every manifest entry must land in exactly one test fold. Errors inside a
    fold are annotated with the fold id.
    """
    svm_config = svm_config or svm.SvmConfig()
    X, labels = prepare_features(manifest, target_len, feature_config)
    label_arr = np.array(labels)

    n = len(manifest.entries)
    fold_assignments = np.full(n, -1, dtype=int)
    predicted = np.empty(n, dtype=object)
    scores_out: list[tuple[float, ...] | None] = [None] * n
    fold_accuracies = []
    fold_models = []
    for fold_id, (train_idx, test_idx) in enumerate(folds):
        if np.intersect1d(train_idx, test_idx).size:
            raise ValueError(f"fold {fold_id}: train and test overlap")
        if (fold_assignments[test_idx] != -1).any():
            raise ValueError(f"fold {fold_id}: test indices already assigned to a fold")
        fold_assignments[test_idx] = fold_id
        try:
            model = svm.train(
                X[train_idx],
                label_arr[train_idx],
                svm_config,
                classes=manifest.label_set,
            )
            fold_labels, fold_scores = svm.predict_batch(model, X[test_idx])
        except (ValueError, ThermactError) as exc:
            raise ThermactError(f"fold {fold_id}: {exc}") from exc
        fold_models.append(model)
        for local, idx in enumerate(test_idx):
            predicted[idx] = fold_labels[local]
            scores_out[idx] = tuple(float(s) for s in fold_scores[local])
        fold_accuracies.append(
            float(np.mean(np.array(fold_labels) == label_arr[test_idx]))
        )
    if (fold_assignments == -1).any():
        missing = int((fold_assignments == -1).sum())
        raise ValueError(f"{missing} entr(ies) never appear in a test fold")

    confusion = confusion_from_records(labels, list(predicted), manifest.label_set)
    if FALL_LABEL in manifest.label_set:
        sensitivity, specificity = fall_metrics(confusion)
    else:
        sensitivity, specificity = None, None
    predictions = tuple(
        SequencePrediction(
            index=i,
            path=manifest.entries[i].path,
            true_label=labels[i],
            predicted_label=str(predicted[i]),
            fold=int(fold_assignments[i]),
            scores=scores_out[i],
        )
        for i in range(n)
    )
    return EvalReport(
        confusion=confusion,
        overall_accuracy=confusion.overall_accuracy(),
        per_class_accuracy=confusion.per_class_accuracy(),
        fall_sensitivity=sensitivity,
        fall_specificity=specificity,
        fold_assignments=tuple(int(f) for f in fold_assignments),
        predictions=predictions,
        fold_accuracies=tuple(fold_accuracies),
        fold_models=tuple(fold_models),
        config=config_echo,
    )
