"""Correctness checks the benchmark applies to the program's outputs.

Each check raises CheckFailed with a message naming what disagreed. The
recomputations are written out in plain Python, independently of
thermact's own metric code, so a defect there cannot hide itself.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

FALL = "fall"

# Criterion-5 gates of the default synthetic corpus under leave-one-subject-out.
GATE_ACCURACY = 0.85
GATE_FALL_SENSITIVITY = 1.0
GATE_FALL_SPECIFICITY = 0.98


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(reported, expected, what: str) -> None:
    if expected is None or reported is None:
        _require(reported is expected, f"{what}: report has {reported!r}, recomputed {expected!r}")
        return
    _require(
        math.isclose(reported, expected, rel_tol=1e-12, abs_tol=1e-15),
        f"{what}: report has {reported!r}, recomputed {expected!r}",
    )


def argmax_label(scores, labels) -> str:
    """Highest score wins; ties go to the lowest class index."""
    best = 0
    for c in range(1, len(scores)):
        if scores[c] > scores[best]:
            best = c
    return labels[best]


def quality(true_labels, predicted_labels) -> tuple[float, float | None, float | None]:
    """(accuracy, fall sensitivity, fall specificity) of paired label lists."""
    pairs = list(zip(true_labels, predicted_labels, strict=True))
    correct = sum(t == p for t, p in pairs)
    tp = sum(t == FALL and p == FALL for t, p in pairs)
    fn = sum(t == FALL and p != FALL for t, p in pairs)
    fp = sum(t != FALL and p == FALL for t, p in pairs)
    tn = len(pairs) - tp - fn - fp
    return (
        correct / len(pairs),
        tp / (tp + fn) if tp + fn else None,
        tn / (tn + fp) if tn + fp else None,
    )


def check_report(report: dict, truth: list[str], label_set: list[str]) -> None:
    """Every headline number of an evaluate report recomputes from its predictions.

    `truth` is the label of each manifest entry as the corpus generator wrote
    it, so true labels are checked against an outside source too.
    """
    preds = report["predictions"]
    n = len(truth)
    _require(len(preds) == n, f"report has {len(preds)} predictions, corpus has {n} recordings")
    _require(report["labels"] == list(label_set), f"report labels {report['labels']} != {label_set}")
    index = {label: i for i, label in enumerate(label_set)}
    counts = [[0] * len(label_set) for _ in label_set]
    fold_hits: dict[int, list[int]] = {}
    for i, (pred, true_label) in enumerate(zip(preds, truth)):
        _require(pred["index"] == i, f"prediction {i} carries index {pred['index']}")
        _require(pred["true"] == true_label, f"prediction {i}: true label {pred['true']!r}, corpus says {true_label!r}")
        _require(len(pred["scores"]) == len(label_set), f"prediction {i}: {len(pred['scores'])} scores")
        _require(
            all(math.isfinite(s) for s in pred["scores"]), f"prediction {i}: non-finite score"
        )
        expected = argmax_label(pred["scores"], label_set)
        _require(pred["predicted"] == expected, f"prediction {i}: label {pred['predicted']!r}, scores pick {expected!r}")
        counts[index[true_label]][index[expected]] += 1
        fold_hits.setdefault(pred["fold"], []).append(int(true_label == expected))

    _require(report["confusion"] == counts, "confusion matrix does not match the predictions")
    accuracy, sensitivity, specificity = quality(truth, [p["predicted"] for p in preds])
    _close(report["overall_accuracy"], accuracy, "overall_accuracy")
    _close(report["fall_sensitivity"], sensitivity, "fall_sensitivity")
    _close(report["fall_specificity"], specificity, "fall_specificity")
    for i, label in enumerate(label_set):
        row = sum(counts[i])
        _close(report["per_class_accuracy"][label], counts[i][i] / row if row else None, f"per_class_accuracy[{label}]")
    _require(
        report["fold_assignments"] == [p["fold"] for p in preds],
        "fold_assignments do not match the predictions",
    )
    _require(sorted(fold_hits) == list(range(len(fold_hits))), f"fold ids {sorted(fold_hits)}")
    _require(
        len(report["fold_accuracies"]) == len(fold_hits),
        f"{len(report['fold_accuracies'])} fold accuracies for {len(fold_hits)} folds",
    )
    for fold, hits in fold_hits.items():
        _close(report["fold_accuracies"][fold], sum(hits) / len(hits), f"fold_accuracies[{fold}]")


def check_loso_folds(report: dict, subjects: list[str]) -> None:
    """Fold f holds exactly the f-th subject in sorted order."""
    order = sorted(set(subjects))
    expected = [order.index(s) for s in subjects]
    _require(report["fold_assignments"] == expected, "LOSO folds do not hold one subject each")


def check_gates(accuracy: float, sensitivity, specificity) -> None:
    _require(accuracy >= GATE_ACCURACY, f"accuracy {accuracy:.4f} below the {GATE_ACCURACY} gate")
    _require(
        sensitivity is not None and sensitivity >= GATE_FALL_SENSITIVITY,
        f"fall sensitivity {sensitivity} below the {GATE_FALL_SENSITIVITY} gate",
    )
    _require(
        specificity is not None and specificity >= GATE_FALL_SPECIFICITY,
        f"fall specificity {specificity} below the {GATE_FALL_SPECIFICITY} gate",
    )


def same_predictions(a: list[dict], b: list[dict], what: str) -> None:
    """Two prediction logs agree on every label, fold and score bit."""
    _require(len(a) == len(b), f"{what}: {len(a)} vs {len(b)} predictions")
    for x, y in zip(a, b):
        for key in ("index", "true", "predicted", "fold"):
            _require(x[key] == y[key], f"{what}: prediction {x['index']} differs in {key!r}")
        _require(
            np.array_equal(np.asarray(x["scores"], dtype=np.float64), np.asarray(y["scores"], dtype=np.float64)),
            f"{what}: prediction {x['index']} scores differ",
        )


def check_classified(index: int, label: str, scores, batch_labels, batch_scores) -> None:
    """One-at-a-time output equals predict_batch on the batch feature matrix."""
    _require(label == batch_labels[index], f"recording {index}: {label!r} one at a time, {batch_labels[index]!r} in batch")
    _require(np.array_equal(scores, batch_scores[index]), f"recording {index}: scores differ from the batch")


def model_digest(models) -> str:
    """sha256 over each model's classes, weights, biases and scaler, in order."""
    h = hashlib.sha256()
    for model in models:
        h.update("\0".join(model.classes).encode("utf-8"))
        for arr in (model.weights, model.biases, model.scaler_mean, model.scaler_std):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def predictions_digest(predictions) -> str:
    """sha256 over (label, scores) pairs in order, scores as float64 bytes."""
    h = hashlib.sha256()
    for label, scores in predictions:
        h.update(str(label).encode("utf-8") + b"\0")
        h.update(np.ascontiguousarray(scores, dtype="<f8").tobytes())
    return h.hexdigest()


def primal_objective(model, X: np.ndarray, labels) -> float:
    """Mean over classes of lam/2 ||(w, b)||^2 + mean hinge on the training rows.

    The bias counts in the norm because the solver trains it as a constant
    feature; lam = 1 / (C * m) as in the solver.
    """
    Z = (np.asarray(X, dtype=np.float64) - model.scaler_mean) / model.scaler_std
    labels = np.asarray(labels)
    m = Z.shape[0]
    lam = 1.0 / (model.train_config.regularization_c * m)
    objectives = []
    for c, cls in enumerate(model.classes):
        y = np.where(labels == cls, 1.0, -1.0)
        margins = y * (Z @ model.weights[c] + model.biases[c])
        norm = model.weights[c] @ model.weights[c] + model.biases[c] ** 2
        objectives.append(0.5 * lam * norm + np.maximum(0.0, 1.0 - margins).mean())
    return float(np.mean(objectives))
