"""One-vs-rest linear SVM with built-in feature standardization.

Each class gets a binary L2-regularized hinge-loss classifier trained on
z-scored features; the z-scoring statistics come from the training set only
and are baked into the model, so prediction takes raw feature vectors.

Training minimizes the averaged primal objective

    lam/2 * ||w||^2 + (1/m) * sum_i max(0, 1 - y_i (w.z_i + b)),
    lam = 1 / (regularization_c * m)

by sequential sub-gradient steps over the samples (Pegasos), reshuffled each
epoch from the seed, with step size 1 / (lam * t) at the t-th update. The
bias rides along as a constant unit feature, so it shares the step schedule's
self-averaging (an update-indexed step and the augmented bias are what make
this schedule converge; a step held fixed across each epoch leaves the bias
doing an undamped random walk). No external solver.

All C binary problems of a training set draw the same permutations and the
same step schedule, so they are trained in lockstep: each step shrinks the
(C, D+1) weight matrix of the still-active classes and adds the sample to the
rows whose margin it violates, and each epoch evaluates every active class's
objective in one batch. Each class stops on its own, at the first epoch whose
objective moved by at most `tolerance` relative to the previous epoch's (or
at `max_epochs`); its weights then freeze while the others go on. Most steps
violate no class's margin, so the margin matrix is taken only after an
update; a step whose sample's lowest margin, estimated from that matrix and
the shrinks since, clears 1 by more than a rounding bound fixed for the run
only shrinks the weights. An epoch's objectives read the same kept margin
matrix, scaled by the shrinks since it was taken. The weights equal those
of training the classes one at a time, bit for bit. Each product whose bits
reach a weight, an objective or a score is an einsum, summed in one order on
any BLAS kernel, so a seed gives the same model on every machine; BLAS
products only pick a path.

Non-finite features are refused in training and in prediction, and so are
non-finite scores (a loaded model's weights may overflow on finite
features): argmax of NaN scores picks class 0 (`fall` in the ADL7 order).
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig, SvmConfig
from .core import ConfigError, ThermactError, _Checked, _number, from_json

MODEL_FORMAT_VERSION = 1
ARRAY_KEYS = ("weights", "biases", "scaler_mean", "scaler_std")  # a model file's number arrays

# Dimensions with (population) std below this are treated as constant and
# pass through centered rather than dividing by ~0.
STD_FLOOR = 1e-8


class ModelFormatError(ThermactError):
    """A model file is corrupt or has an unsupported version."""


@dataclass(frozen=True, eq=False)
class SvmModel(_Checked):
    """Per-class weights and biases plus the training-time scaler.

    Construction stores `classes` as a tuple and copies the arrays to read-only
    float64. It refuses (ValueError) classes that are not distinct strings,
    disagreeing shapes, a non-finite value or a `scaler_std` below STD_FLOOR."""

    classes: tuple[str, ...]
    weights: np.ndarray  # (C, D)
    biases: np.ndarray  # (C,)
    scaler_mean: np.ndarray  # (D,)
    scaler_std: np.ndarray  # (D,)
    train_config: SvmConfig
    # Per class, from training only (not saved; a loaded model has ()):
    # epochs run, whether the objective settled before max_epochs, and the
    # primal objective at the last epoch.
    epochs: tuple[int, ...] = ()
    converged: tuple[bool, ...] = ()
    objectives: tuple[float, ...] = ()

    def __post_init__(self):
        classes = tuple(self.classes)
        object.__setattr__(self, "classes", classes)
        if not all(isinstance(c, str) for c in classes) or len(set(classes)) != len(classes):
            raise ValueError(f"classes must be distinct strings, got {reprlib.repr(classes)}")
        arrays = [self._frozen_copy(key, getattr(self, key), np.float64) for key in ARRAY_KEYS]
        n, dim = len(classes), arrays[2].size
        if [arr.shape for arr in arrays] != [(n, dim), (n,), (dim,), (dim,)]:
            raise ValueError("inconsistent model dimensions")
        for key, arr in zip(ARRAY_KEYS, arrays):
            if not np.isfinite(arr).all():
                raise ValueError(f"{key} holds a non-finite value")
        if (self.scaler_std < STD_FLOOR).any():  # train writes 1.0 in place of a smaller std
            raise ValueError(f"scaler_std must be at least {STD_FLOOR}")

    @property
    def dimension(self) -> int:
        return self.weights.shape[1]

    def decision_scores(self, features) -> np.ndarray:
        """Raw (N, D) features in, (N, C) scores out, one score per class.

        One einsum sums each row alone, so its scores are the same bits in any
        batch. A non-finite feature or score is a RowError naming its row.
        """
        X = _as_matrix(features)
        if X.shape[1] != self.dimension:
            raise ValueError(
                f"feature dimension {X.shape[1]} does not match model dimension {self.dimension}"
            )
        _require_finite(X, "feature")
        with np.errstate(all="ignore"):  # a non-finite score is refused below
            Z = (X - self.scaler_mean) / self.scaler_std
            scores = np.einsum("nd,cd->nc", Z, self.weights) + self.biases
        _require_finite(scores, "score")
        return scores


class RowError(ValueError):
    """Rows `bad` of a feature or score matrix are non-finite; `row` is the first."""

    def __init__(self, what: str, bad: np.ndarray):
        more = f" ({bad.size} such rows)" if bad.size > 1 else ""
        super().__init__(f"{what} row {bad[0]} has non-finite values{more}")
        self.row = int(bad[0])


def _as_matrix(features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be an (N, D) matrix, got shape {X.shape}")
    return X


def _require_finite(X: np.ndarray, what: str) -> None:
    if not np.isfinite(X).all():
        raise RowError(what, np.flatnonzero(~np.isfinite(X).all(axis=1)))


def _objective(w: np.ndarray, Zb: np.ndarray, y: np.ndarray, lam: float) -> float:
    """One class's primal objective, rounded as one-class training rounds it."""
    hinge = np.maximum(0.0, 1.0 - y * np.einsum("md,d->m", Zb, w))
    return float(0.5 * lam * np.einsum("d,d", w, w) + hinge.mean())


def _train_ovr(
    Zb: np.ndarray, Y: np.ndarray, cfg: SvmConfig
) -> tuple[np.ndarray, list[int], list[bool], list[float]]:
    """Pegasos on all C one-vs-rest problems of a training set at once.

    Zb is (m, D+1) with the constant bias column last; Y is (C, m) of +-1.
    Returns the weights (C, D+1), and per problem the epochs it ran, whether
    it converged before `max_epochs` and its objective at its last epoch.

    An exact step's einsum gives each class the margin a one-class einsum
    gives. An epoch's batched objective nearer its stop threshold than its
    rounding bound is recomputed one class at a time, so every step and stop
    matches training the classes one at a time, bit for bit.

    A step first checks an estimate: its sample's lowest margin over the
    active classes in M = `Ya * (Wa @ Zb.T)`, taken after each update, times
    the product `scale` of the shrinks since; an epoch's objectives read
    `scale * M` too. The estimate is no larger than any active class's
    scaled margin (rounding is monotone, the factors non-negative), which is
    within (2n + 2s + 1)*u*|w||z| of the one-class margin in any summation
    order (n = D+1 terms, s <= max_epochs*m shrinks since M, unit roundoff
    u); `slack` = 16*(n + max_epochs*m)*u covers the factor. Each Pegasos
    step makes w a convex combination of w and y*z/lam, so |w| <= zmax/lam
    for the whole call (zmax = max|z|), doubled for rounding: a step whose
    estimate is at least `lim` = 1 + slack*(1 + 2*zmax/lam*zmax), one
    threshold per call, only shrinks the weights. An epoch's `err` bounds
    |w| when M was taken by the tighter 2*|w|/scale. The bounds only choose
    a path, so M may be a BLAS product.
    """
    C, m = Y.shape
    lam = 1.0 / (cfg.regularization_c * m)
    if not 0.0 < lam < math.inf:
        raise ValueError(
            f"regularization_c {cfg.regularization_c!r} gives lam = 1/(C*m) = {lam!r} at m = {m}"
        )
    tol = cfg.tolerance
    rng = np.random.default_rng(cfg.seed)
    slack = 8.0 * (Zb.shape[1] + cfg.max_epochs * m) * np.finfo(np.float64).eps
    ZbT = Zb.T
    zmax = math.sqrt(np.einsum("ij,ij->i", Zb, Zb).max())
    lim = 1.0 + slack * (1.0 + 2.0 * zmax / lam * zmax)
    W = np.zeros((C, Zb.shape[1]))
    epochs = [cfg.max_epochs] * C
    converged = [False] * C
    active = list(range(C))
    Wa, Ya, YaT = W.copy(), Y, Y.T.tolist()
    # The kept margin matrix, its column minima and the shrinks since it was taken.
    M, low, scale = np.zeros((C, m)), [0.0] * m, 1.0
    t = 0
    prev_obj = prev_err = W_prev = None
    for epoch in range(1, cfg.max_epochs + 1):
        for i in rng.permutation(m).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            shrink = 1.0 - eta * lam
            Wa *= shrink
            scale *= shrink
            if scale * low[i] >= lim:
                continue
            z, y = Zb[i], YaT[i]
            viol = [k for k, mk in enumerate(np.einsum("cd,d->c", Wa, z).tolist()) if y[k] * mk < 1.0]
            if viol:
                for k in viol:
                    Wa[k] += (eta * y[k]) * z
                M = Ya * (Wa @ ZbT)
                low, scale = M.min(axis=0).tolist(), 1.0
        hinge = np.maximum(0.0, 1.0 - scale * M)
        sq = np.einsum("cd,cd->c", Wa, Wa).tolist()
        hinge_sum = np.add.reduce(hinge, axis=1).tolist()
        obj = [0.5 * lam * s + h / m for s, h in zip(sq, hinge_sum)]  # h / m: the bits of mean()
        # 2 * |w| / scale bounds the rows' norm when M was taken.
        err = slack * (1.0 + 2.0 * max(obj) + 2.0 * math.sqrt(max(sq)) / scale * zmax)
        if prev_obj is not None:
            stop, near = [], (1.0 + tol) * (prev_err + err)
            for k, (before, after) in enumerate(zip(prev_obj, obj)):
                gap = abs(before - after) - tol * max(1.0, abs(before))
                if abs(gap) <= near:
                    before = _objective(W_prev[k], Zb, Ya[k], lam)
                    after = _objective(Wa[k], Zb, Ya[k], lam)
                    gap = abs(before - after) - tol * max(1.0, abs(before))
                if gap <= 0.0:
                    stop.append(k)
            if stop:
                for k in stop:
                    c = active[k]
                    W[c] = Wa[k]
                    epochs[c] = epoch
                    converged[c] = True
                keep = [k for k in range(len(active)) if k not in stop]
                active = [active[k] for k in keep]
                Wa, Ya, M = Wa[keep], Ya[keep], M[keep]
                if not active:
                    break
                YaT, low = Ya.T.tolist(), M.min(axis=0).tolist()
                obj = [obj[k] for k in keep]
        prev_obj, prev_err, W_prev = obj, err, Wa.copy()
    W[active] = Wa
    objectives = [_objective(W[c], Zb, Y[c], lam) for c in range(C)]
    return W, epochs, converged, objectives


def train(
    features,
    labels,
    cfg: SvmConfig | None = None,
    classes: tuple[str, ...] | None = None,
) -> SvmModel:
    """Fit a one-vs-rest linear SVM on an (N, D) feature matrix.

    `classes` fixes the class order (default: sorted distinct labels); every
    listed class must appear in `labels` at least once. The model is built,
    with zero weights, before the fit, so its own rules (distinct string
    classes, agreeing shapes, the scaler floor) refuse bad input before any
    training.
    """
    cfg = cfg or SvmConfig()
    X = _as_matrix(features)
    _require_finite(X, "feature")
    labels = [str(l) for l in labels]
    if len(labels) != X.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows but {len(labels)} labels")
    present = set(labels)
    if len(present) < 2:
        raise ValueError("training needs at least 2 distinct labels")

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite column is refused below
        mean, std = X.mean(axis=0), X.std(axis=0)
    unusable = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if unusable.size:
        j = unusable[0]
        raise ValueError(f"feature column {j} cannot be standardized: its mean or std overflows")
    std = np.where(std < STD_FLOOR, 1.0, std)
    ordered = tuple(classes) if classes is not None else tuple(sorted(present))
    n = len(ordered)
    model = SvmModel(ordered, np.zeros((n, X.shape[1])), np.zeros(n), mean, std, cfg)
    missing = [c for c in ordered if c not in present]
    if missing:
        raise ValueError(f"no training examples for class(es): {missing}")
    unknown = present - set(ordered)
    if unknown:
        raise ValueError(f"labels outside the class list: {sorted(unknown)}")
    Z = (X - mean) / std
    Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])

    y_index = np.array([ordered.index(l) for l in labels])
    Y = np.where(y_index == np.arange(n)[:, None], 1.0, -1.0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            W, epochs, converged, objectives = _train_ovr(Zb, Y, cfg)
            if not np.isfinite(objectives).all():  # einsum does not raise on overflow
                raise FloatingPointError("non-finite objective")
    except FloatingPointError as exc:
        c = cfg.regularization_c
        raise ValueError(f"regularization_c {c!r} gives non-finite values in training") from exc
    return replace(
        model, weights=W[:, :-1], biases=W[:, -1], epochs=tuple(epochs),
        converged=tuple(converged), objectives=tuple(objectives),
    )


def predict(model: SvmModel, feature) -> tuple[str, np.ndarray]:
    """Predicted label and per-class scores for one vector, scored as a one-row matrix.

    Ties go to the lowest class index in the model's class order.
    """
    # A copy, so a kept result does not keep its (1, C) base alive.
    scores = model.decision_scores(np.reshape(feature, (1, -1)))[0].copy()
    return model.classes[int(np.argmax(scores))], scores


def predict_batch(model: SvmModel, features) -> tuple[list[str], np.ndarray]:
    """Labels and (N, C) score matrix for an (N, D) feature matrix (N may be 0),
    bit-identical to one-at-a-time prediction."""
    scores = model.decision_scores(features)
    labels = [model.classes[i] for i in np.argmax(scores, axis=1)]
    return labels, scores


def save_model(model: SvmModel, path: str | Path, config: PipelineConfig) -> None:
    """Write a model as versioned JSON at full float precision.

    `config` is the pipeline that trained the model, embedded so prediction
    reproduces its preprocessing; its `svm` must be the model's own.
    """
    if config.svm != model.train_config:
        raise ValueError("config.svm is not the config the model was trained with")
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "classes": list(model.classes),
        **{key: getattr(model, key).tolist() for key in ARRAY_KEYS},
        "config": config.to_dict(),
    }
    try:
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ThermactError(f"cannot write model to {path}: {exc}") from exc


def load_model(path: str | Path) -> tuple[SvmModel, PipelineConfig]:
    """Read a model file back: the model, and its `config` block read as a config file is."""
    path = Path(path)
    try:
        data = json.loads(path.read_bytes())
    except OSError as exc:
        raise ThermactError(f"cannot read model from {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ModelFormatError(f"{path} is not a valid model file: {exc}") from exc
    if not isinstance(data, dict) or "version" not in data:
        raise ModelFormatError(f"{path} is not a valid model file (no version field)")
    version = data["version"]
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model version {version!r} (expected {MODEL_FORMAT_VERSION})"
        )
    try:
        config = from_json(PipelineConfig, data["config"], f"{path}: config")
        classes = data["classes"]
        arrays = [np.array(data[key], dtype=object) for key in ARRAY_KEYS]
    except ConfigError as exc:
        raise ModelFormatError(str(exc)) from None
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from exc
    if not isinstance(classes, list):  # a string or an object would be iterated
        raise ModelFormatError(f"{path}: classes must be a list")
    bad = [(key, v) for key, arr in zip(ARRAY_KEYS, arrays) for v in arr.ravel() if not _number(v)]
    if bad:
        key, got = bad[0][0], reprlib.repr(bad[0][1])
        raise ModelFormatError(f"{path}: {key} holds a non-finite or non-numeric value {got}")
    try:
        return SvmModel(classes, *arrays, train_config=config.svm), config
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
