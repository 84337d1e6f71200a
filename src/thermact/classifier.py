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
doing an undamped random walk). No external solver, bit-reproducible given
the seed.

All C binary problems of a training set draw the same permutations and the
same step schedule, so they are trained in lockstep: each step shrinks the
(C, D+1) weight matrix of the still-active classes and adds the sample to the
rows whose margin it violates, and each epoch evaluates every active class's
objective in one batch. Each class stops on its own, at the first epoch whose
objective moved by at most `tolerance` relative to the previous epoch's (or
at `max_epochs`); its weights then freeze while the others go on. Most steps
violate no class's margin; a step whose sample's lowest margin, estimated
from the last margin matrix and the shrinks since, clears 1 by more than its
rounding bound only shrinks the weights and skips the margin product. The
weights equal those of training the classes one at a time, bit for bit.

Non-finite features are refused in training and in prediction: their scores
would be NaN, and argmax of NaN scores picks class 0 (`fall` in the ADL7
order).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import ThermactError, from_json

MODEL_FORMAT_VERSION = 1

# Dimensions with (population) std below this are treated as constant and
# pass through centered rather than dividing by ~0.
STD_FLOOR = 1e-8


class ModelFormatError(ThermactError):
    """A model file is corrupt or has an unsupported version."""


@dataclass(frozen=True)
class SvmConfig:
    regularization_c: float = 1.0
    max_epochs: int = 200
    tolerance: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        if not self.regularization_c > 0:
            raise ValueError("regularization_c must be positive")
        if not self.max_epochs >= 1:
            raise ValueError("max_epochs must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class SvmModel:
    """Per-class weights and biases plus the training-time scaler."""

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

    @property
    def dimension(self) -> int:
        return self.weights.shape[1]

    def standardize(self, features: np.ndarray) -> np.ndarray:
        return (features - self.scaler_mean) / self.scaler_std

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        """Raw features in, one score per class out (batched if 2-D).

        Non-finite features are a ValueError (naming the row if 2-D).
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.dimension:
            raise ValueError(
                f"feature dimension {features.shape[-1]} does not match "
                f"model dimension {self.dimension}"
            )
        _require_finite(features)
        return self.standardize(features) @ self.weights.T + self.biases


def _as_matrix(features) -> np.ndarray:
    if isinstance(features, np.ndarray) and features.ndim == 2:
        return np.asarray(features, dtype=np.float64)
    rows = [np.asarray(f, dtype=np.float64) for f in features]
    if not rows:
        raise ValueError("no training examples")
    lengths = {r.size for r in rows}
    if len(lengths) != 1:
        raise ValueError(f"feature dimension mismatch: {sorted(lengths)}")
    return np.stack(rows)


def _require_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        bad = np.flatnonzero(~np.isfinite(X.reshape(-1, X.shape[-1])).all(axis=1))
        raise ValueError(
            f"feature row {bad[0]} has non-finite values"
            + (f" ({bad.size} such rows)" if bad.size > 1 else "")
        )


def _objective(w: np.ndarray, Zb: np.ndarray, y: np.ndarray, lam: float) -> float:
    """One class's primal objective, rounded as one-class training rounds it."""
    hinge = np.maximum(0.0, 1.0 - y * (Zb @ w))
    return float(0.5 * lam * (w @ w) + hinge.mean())


def _train_ovr(
    Zb: np.ndarray, Y: np.ndarray, cfg: SvmConfig
) -> tuple[np.ndarray, list[int], list[bool], list[float]]:
    """Pegasos on all C one-vs-rest problems of a training set at once.

    Zb is (m, D+1) with the constant bias column last; Y is (C, m) of +-1.
    Every problem draws the same permutations and step schedule, so a step
    is one (C, D+1) update of the still-active rows. A problem leaves the
    active set, its weights frozen, at the end of the epoch where its own
    objective stops moving. Returns the weights (C, D+1), and per problem
    the epochs it ran, whether it converged before `max_epochs` and its
    objective at its last epoch.

    The margins and objectives come from matrix products, which may round
    differently from a one-class dot product: by at most 2*n*u times the sum
    of the terms' magnitudes (n = D+1 terms, unit roundoff u). `slack` bounds
    that with room to spare, so a batched value that lies farther than its
    bound from its threshold decides as the one-class value would; one that
    lies closer is recomputed one class at a time. So every step and every
    stop matches training the classes one at a time, bit for bit.

    Most steps violate no margin, so a step first checks an estimate: the
    lowest margin of its sample over the active classes, read from the last
    margin matrix `Ya * (Wa @ Zb.T)` (taken at each epoch's end and after
    each update), times the product of the shrink factors applied since.
    Rounding is monotone and the factors are non-negative, so the estimate
    is no larger than any active class's scaled margin, and that differs
    from the class's one-class margin by at most (2n + 2s + 1)*u*|w||z|:
    n each from the matrix product and the one-class dot product, s each
    from the s <= m shrinks of the weights and of their running product,
    and one from scaling the estimate. That is below
    `tie` = slack * (1 + wmax * |z|). A step whose estimate is at
    least 1 + tie therefore violates no margin and only shrinks the weights;
    every other step is taken exactly as above.
    """
    C, m = Y.shape
    lam = 1.0 / (cfg.regularization_c * m)
    if not 0.0 < lam < math.inf:
        raise ValueError(
            f"regularization_c {cfg.regularization_c!r} gives lam = 1/(C*m) = {lam!r} at m = {m}"
        )
    tol = cfg.tolerance
    rng = np.random.default_rng(cfg.seed)
    slack = 8.0 * max(Zb.shape[1], m) * np.finfo(np.float64).eps
    ZbT = Zb.T
    znorm = np.sqrt(np.einsum("ij,ij->i", Zb, Zb)).tolist()
    zmax = max(znorm)
    W = np.zeros((C, Zb.shape[1]))
    epochs = [cfg.max_epochs] * C
    converged = [False] * C
    objectives = [0.0] * C
    active = list(range(C))
    Wa, Ya = W.copy(), Y
    wmax = 0.0  # bounds the norm of every active row of Wa
    low, scale = [0.0] * m, 1.0  # each sample's lowest margin, and the shrinks since
    t = 0
    prev_obj = prev_err = W_prev = None
    for epoch in range(1, cfg.max_epochs + 1):
        YaT = Ya.T
        for i in rng.permutation(m).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            shrink = 1.0 - eta * lam
            Wa *= shrink
            scale *= shrink
            zn = znorm[i]
            tie = slack * (1.0 + wmax * zn)
            if scale * low[i] >= 1.0 + tie:
                continue
            z, y = Zb[i], YaT[i]
            margins = y * (Wa @ z)
            viol = (margins < 1.0 + tie).nonzero()[0]
            if viol.size and margins[viol].max() >= 1.0 - tie:
                viol = np.array([k for k in viol if y[k] * (z @ Wa[k]) < 1.0], dtype=np.intp)
            if viol.size:
                Wa[viol] += (eta * y[viol])[:, None] * z
                wmax += eta * zn
                low, scale = (Ya * (Wa @ ZbT)).min(axis=0).tolist(), 1.0
        M = Ya * (Wa @ ZbT)
        hinge = np.maximum(0.0, 1.0 - M)
        sq = np.einsum("cd,cd->c", Wa, Wa).tolist()
        mean_hinge = (np.add.reduce(hinge, axis=1) / m).tolist()  # the bits of mean(axis=1)
        obj = [0.5 * lam * s + h for s, h in zip(sq, mean_hinge)]
        wmax = math.sqrt(max(sq))
        err = slack * (1.0 + 2.0 * max(obj) + wmax * zmax)
        if prev_obj is not None:
            stop = []
            for k, (before, after) in enumerate(zip(prev_obj, obj)):
                gap = abs(before - after) - tol * max(1.0, abs(before))
                if abs(gap) <= (1.0 + tol) * (prev_err + err):
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
                    objectives[c] = _objective(Wa[k], Zb, Ya[k], lam)
                keep = [k for k in range(len(active)) if k not in stop]
                active = [active[k] for k in keep]
                Wa, Ya, M = Wa[keep], Ya[keep], M[keep]
                obj = [obj[k] for k in keep]
                if not active:
                    break
        low, scale = M.min(axis=0).tolist(), 1.0
        prev_obj, prev_err, W_prev = obj, err, Wa.copy()
    for k, c in enumerate(active):
        objectives[c] = _objective(Wa[k], Zb, Ya[k], lam)
    W[active] = Wa
    return W, epochs, converged, objectives


def train(
    features,
    labels,
    cfg: SvmConfig | None = None,
    classes: tuple[str, ...] | None = None,
) -> SvmModel:
    """Fit a one-vs-rest linear SVM.

    `features` may be 1-D arrays or a (N, D) matrix.
    `classes` fixes the class order (default: sorted distinct labels); every
    listed class must appear in `labels` at least once.
    """
    cfg = cfg or SvmConfig()
    X = _as_matrix(features)
    _require_finite(X)
    labels = [str(l) for l in labels]
    if len(labels) != X.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows but {len(labels)} labels")
    present = set(labels)
    if len(present) < 2:
        raise ValueError("training needs at least 2 distinct labels")
    ordered = tuple(classes) if classes is not None else tuple(sorted(present))
    if len(set(ordered)) != len(ordered):
        raise ValueError(f"duplicate class names in {list(ordered)}")
    missing = [c for c in ordered if c not in present]
    if missing:
        raise ValueError(f"no training examples for class(es): {missing}")
    unknown = present - set(ordered)
    if unknown:
        raise ValueError(f"labels outside the class list: {sorted(unknown)}")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < STD_FLOOR, 1.0, std)
    Z = (X - mean) / std
    Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])

    y_index = np.array([ordered.index(l) for l in labels])
    Y = np.where(y_index == np.arange(len(ordered))[:, None], 1.0, -1.0)
    non_finite = f"regularization_c {cfg.regularization_c!r} gives non-finite weights"
    try:
        with np.errstate(over="raise", invalid="raise"):
            W, epochs, converged, objectives = _train_ovr(Zb, Y, cfg)
    except FloatingPointError as exc:
        raise ValueError(non_finite) from exc
    if not np.isfinite(W).all():
        raise ValueError(non_finite)
    weights, biases = np.ascontiguousarray(W[:, :-1]), W[:, -1].copy()

    weights.flags.writeable = False
    biases.flags.writeable = False
    mean.flags.writeable = False
    std.flags.writeable = False
    return SvmModel(
        classes=ordered,
        weights=weights,
        biases=biases,
        scaler_mean=mean,
        scaler_std=std,
        train_config=cfg,
        epochs=tuple(epochs),
        converged=tuple(converged),
        objectives=tuple(objectives),
    )


def predict(model: SvmModel, feature) -> tuple[str, np.ndarray]:
    """Predicted label and the per-class decision scores for one vector.

    Ties go to the lowest class index in the model's class order.
    """
    scores = model.decision_scores(np.asarray(feature, dtype=np.float64).reshape(-1))
    return model.classes[int(np.argmax(scores))], scores


def predict_batch(model: SvmModel, features) -> tuple[list[str], np.ndarray]:
    """Labels and (N, C) score matrix for many vectors (N may be 0).

    Rows go through the same path as `predict`, so batch output is
    bit-identical to one-at-a-time prediction.
    """
    X = _as_matrix(features)
    _require_finite(X)
    # One row at a time: a batched product rounds differently in the last bits.
    scores = np.empty((len(X), len(model.classes)))
    for i, row in enumerate(X):
        scores[i] = model.decision_scores(row)
    labels = [model.classes[i] for i in np.argmax(scores, axis=1)]
    return labels, scores


def save_model(model: SvmModel, path: str | Path, config: dict | None = None) -> None:
    """Write a model as versioned JSON at full float precision.

    `config` replaces the embedded configuration block; it must contain an
    "svm" section if given (the CLI stores the whole pipeline configuration
    here so prediction can reproduce preprocessing).
    """
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "classes": list(model.classes),
        "weights": [list(row) for row in model.weights],
        "biases": list(model.biases),
        "scaler_mean": list(model.scaler_mean),
        "scaler_std": list(model.scaler_std),
        "config": config if config is not None else {"svm": asdict(model.train_config)},
    }
    try:
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ThermactError(f"cannot write model to {path}: {exc}") from exc


def load_model(path: str | Path) -> tuple[SvmModel, dict]:
    """Read a model file back; returns the model and its embedded config."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ThermactError(f"cannot read model from {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ModelFormatError(f"{path} is not a valid model file: {exc}") from exc
    if not isinstance(data, dict) or "version" not in data:
        raise ModelFormatError(f"{path} is not a valid model file (no version field)")
    if data["version"] != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model version {data['version']!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    config = data.get("config", {})
    if not isinstance(config, dict):
        raise ModelFormatError(f"{path}: 'config' must be a JSON object")
    try:
        svm_cfg = from_json(SvmConfig, config.get("svm", {}), "config.svm")
        weights = np.array(data["weights"], dtype=np.float64)
        biases = np.array(data["biases"], dtype=np.float64)
        mean = np.array(data["scaler_mean"], dtype=np.float64)
        std = np.array(data["scaler_std"], dtype=np.float64)
        classes = tuple(data["classes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from exc
    dim = mean.size
    if (
        weights.shape != (len(classes), dim)
        or biases.shape != (len(classes),)
        or mean.shape != (dim,)
        or std.shape != (dim,)
    ):
        raise ModelFormatError(f"{path}: inconsistent model dimensions")
    if not all(np.isfinite(arr).all() for arr in (weights, biases, mean, std)):
        raise ModelFormatError(f"{path}: non-finite weights, biases or scaler values")
    if (std <= 0).any():
        raise ModelFormatError(f"{path}: scaler_std must be positive")
    if not all(isinstance(c, str) for c in classes) or len(set(classes)) != len(classes):
        raise ModelFormatError(f"{path}: class names must be distinct strings")
    for arr in (weights, biases, mean, std):
        arr.flags.writeable = False
    model = SvmModel(
        classes=classes,
        weights=weights,
        biases=biases,
        scaler_mean=mean,
        scaler_std=std,
        train_config=svm_cfg,
    )
    return model, config
