"""Cross-validation harnesses and recognition metrics.

Two splitters are provided: leave-one-subject-out (one fold per subject) and
class-stratified k-fold. `run_pipeline_cv` takes its folds from the config's
`eval` section and drives the full pipeline per fold (standardization
statistics are learned inside each fold's training set by the classifier, so
nothing leaks into the test split). Its report holds the
per-sequence predictions, the fold models and the config that was run;
the pooled confusion matrix and every accuracy derive from the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import __version__
from . import classifier as svm
from .config import DEFAULT_TARGET_LEN, FeatureConfig, PipelineConfig
from .core import DatasetManifest, ThermactError, ThermalSequence, _Checked
from .core import load_backgrounds, load_sequences
from .features import feature_matrix
from .preprocess import estimate_background, resample_equal_interval, subtract_background

FALL_LABEL = "fall"

# Sequences per feature_matrix call in sequence_features: the resampled pixels
# of a chunk, not of all the sequences, are held at once.
FEATURE_CHUNK = 32

Fold = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class ConfusionMatrix(_Checked):
    """Counts[i, j] = sequences with true label i predicted as label j."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = self._frozen_copy("counts", self.counts, np.int64)
        if counts.shape != (len(self.labels), len(self.labels)):
            raise ValueError("counts must be square over the label list")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")

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


def fall_metrics(confusion: ConfusionMatrix) -> tuple[float | None, float | None]:
    """(sensitivity, specificity) of the fall-vs-everything binarization.

    Sensitivity = TP/(TP+FN), specificity = TN/(TN+FP); either is None when
    its denominator is zero.
    """
    if FALL_LABEL not in confusion.labels:
        raise ValueError(f"label {FALL_LABEL!r} not in confusion matrix")
    i = confusion.labels.index(FALL_LABEL)
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
    subjects, rank = np.unique([e.subject_id for e in manifest.entries], return_inverse=True)
    if len(subjects) < 2:
        raise ValueError("leave-one-subject-out needs at least 2 subjects")
    return _partition(rank, len(subjects))


def stratified_kfold_split(manifest: DatasetManifest, k: int, seed: int) -> list[Fold]:
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
    return _partition(fold_of, k)


def _partition(fold_of: np.ndarray, k: int) -> list[Fold]:
    """Fold f tests the entries with `fold_of == f` and trains on all others."""
    all_idx = np.arange(len(fold_of))
    return [(all_idx[fold_of != f], all_idx[fold_of == f]) for f in range(k)]


# ---------------------------------------------------------------------------
# Full pipeline cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequencePrediction:
    path: str
    true_label: str
    predicted_label: str
    fold: int
    scores: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class EvalReport:
    """What a cross-validation ran and predicted; every summary derives from it.

    `predictions` holds one entry per manifest entry, in manifest order, and
    `fold_models` one model per fold.
    """

    labels: tuple[str, ...]
    predictions: tuple[SequencePrediction, ...]
    fold_models: tuple[svm.SvmModel, ...] = field(repr=False)
    config: PipelineConfig

    @cached_property
    def confusion(self) -> ConfusionMatrix:
        return confusion_from_records(
            [p.true_label for p in self.predictions],
            [p.predicted_label for p in self.predictions],
            self.labels,
        )

    @property
    def overall_accuracy(self) -> float:
        return self.confusion.overall_accuracy()

    @property
    def per_class_accuracy(self) -> tuple[float | None, ...]:
        return self.confusion.per_class_accuracy()

    @cached_property
    def _fall_pair(self) -> tuple[float | None, float | None]:
        return fall_metrics(self.confusion) if FALL_LABEL in self.labels else (None, None)

    @property
    def fall_sensitivity(self) -> float | None:
        return self._fall_pair[0]

    @property
    def fall_specificity(self) -> float | None:
        return self._fall_pair[1]

    @property
    def fold_assignments(self) -> tuple[int, ...]:
        return tuple(p.fold for p in self.predictions)

    @property
    def fold_accuracies(self) -> tuple[float, ...]:
        folds = [[] for _ in self.fold_models]
        for p in self.predictions:
            folds[p.fold].append(p.predicted_label == p.true_label)
        return tuple(sum(hits) / len(hits) for hits in folds)

    def to_json_dict(self) -> dict:
        """The report file's JSON at full precision (models are not serialized)."""
        return {
            "labels": list(self.labels),
            "confusion": self.confusion.counts.tolist(),
            "overall_accuracy": self.overall_accuracy,
            "per_class_accuracy": dict(zip(self.labels, self.per_class_accuracy)),
            "fall_sensitivity": self.fall_sensitivity,
            "fall_specificity": self.fall_specificity,
            "fold_accuracies": list(self.fold_accuracies),
            "fold_assignments": list(self.fold_assignments),
            "predictions": [
                {
                    "index": i,
                    "path": p.path,
                    "true": p.true_label,
                    "predicted": p.predicted_label,
                    "fold": p.fold,
                    "scores": list(p.scores),
                }
                for i, p in enumerate(self.predictions)
            ],
            "config": self.config.to_dict(),
            "protocol": self.config.eval.protocol,
            "tool_version": __version__,
            "config_hash": self.config.config_hash(),
        }


def sequence_features(
    sequences: list[ThermalSequence],
    backgrounds: list[np.ndarray],
    target_len: int = DEFAULT_TARGET_LEN,
    feature_config: FeatureConfig | None = None,
) -> np.ndarray:
    """The (N, D) feature matrix of raw sequences: row i is sequence i's.

    Each sequence has background mean i subtracted and is resampled to
    `target_len` frames; then FEATURE_CHUNK sequences at a time go through
    one `feature_matrix` call. A row is the same in any chunk.
    """
    blocks = []
    for lo in range(0, len(sequences), FEATURE_CHUNK):
        chunk = slice(lo, lo + FEATURE_CHUNK)
        processed = [
            resample_equal_interval(subtract_background(seq, bg), target_len)
            for seq, bg in zip(sequences[chunk], backgrounds[chunk], strict=True)
        ]
        blocks.append(feature_matrix(processed, feature_config))
    return np.concatenate(blocks)


def prepare_features(
    manifest: DatasetManifest,
    target_len: int = DEFAULT_TARGET_LEN,
    feature_config: FeatureConfig | None = None,
) -> tuple[np.ndarray, list[str]]:
    """`sequence_features` of every entry, with its session's background clip
    or else the global ("") one: the (N, D) feature matrix and the true
    labels, in manifest order. Features are deterministic per sequence, so
    computing them once up front is leak-free; only standardization is
    fold-dependent.
    """
    models = {s: estimate_background(seq) for s, seq in load_backgrounds(manifest).items()}
    backgrounds = [models.get(e.session_id, models.get("")) for e in manifest.entries]
    missing = [e.session_id for e, bg in zip(manifest.entries, backgrounds) if bg is None]
    if missing:
        raise ThermactError(f"no background clip for session {missing[0]!r} and no global fallback")
    X = sequence_features(load_sequences(manifest), backgrounds, target_len, feature_config)
    return X, [e.label for e in manifest.entries]


def run_pipeline_cv(
    manifest: DatasetManifest, config: PipelineConfig | None = None
) -> EvalReport:
    """Cross-validate with `config` (default: the defaults) over the folds it names.

    `config.eval` picks the folds: `loso_split` for "loso", and
    `stratified_kfold_split` with its `k` and `seed` for "kfold". Either
    splitter makes a partition, so every manifest entry is predicted once.
    Errors inside a fold are annotated with the fold id.
    """
    config = config or PipelineConfig()
    ev = config.eval
    folds = (
        loso_split(manifest)
        if ev.protocol == "loso"
        else stratified_kfold_split(manifest, k=ev.k, seed=ev.seed)
    )
    X, labels = prepare_features(manifest, config.preprocess.target_len, config.features)
    label_arr = np.array(labels)

    predictions: list[SequencePrediction | None] = [None] * len(labels)
    fold_models = []
    for fold_id, (train_idx, test_idx) in enumerate(folds):
        try:
            model = svm.train(
                X[train_idx], label_arr[train_idx], config.svm, classes=manifest.label_set
            )
            fold_labels, fold_scores = svm.predict_batch(model, X[test_idx])
        except (ValueError, ThermactError) as exc:
            raise ThermactError(f"fold {fold_id}: {exc}") from exc
        fold_models.append(model)
        for i, label, scores in zip(test_idx.tolist(), fold_labels, fold_scores.tolist()):
            predictions[i] = SequencePrediction(
                manifest.entries[i].path, labels[i], label, fold_id, tuple(scores)
            )
    return EvalReport(
        labels=manifest.label_set,
        predictions=tuple(predictions),
        fold_models=tuple(fold_models),
        config=config,
    )
