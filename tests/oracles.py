"""Independent brute-force reference implementations used by the tests."""

import numpy as np

from thermact.features import dct_matrix


def naive_dct(series):
    """Direct evaluation of the orthonormal DCT-II definition sum."""
    n = len(series)
    out = np.empty(n)
    for u in range(n):
        scale = np.sqrt(1.0 / n) if u == 0 else np.sqrt(2.0 / n)
        acc = 0.0
        for t in range(n):
            acc += series[t] * np.cos(np.pi * (2 * t + 1) * u / (2 * n))
        out[u] = scale * acc
    return out


def naive_dct2(grid):
    """O(n^4) definition sum of the 2-D orthonormal DCT-II."""
    n = grid.shape[0]
    out = np.empty((n, n))
    for u in range(n):
        cu = np.sqrt(1.0 / n) if u == 0 else np.sqrt(2.0 / n)
        for v in range(n):
            cv = np.sqrt(1.0 / n) if v == 0 else np.sqrt(2.0 / n)
            acc = 0.0
            for r in range(n):
                for c in range(n):
                    acc += (
                        grid[r, c]
                        * np.cos(np.pi * (2 * r + 1) * u / (2 * n))
                        * np.cos(np.pi * (2 * c + 1) * v / (2 * n))
                    )
            out[u, v] = cu * cv * acc
    return out


def features_one_sequence(matrix, cfg):
    """One sequence's feature vector, computed from its own (F, 64) pixels.

    The per-sequence path the batched `feature_matrix` replaced: a 2-D
    matrix product for the temporal block and a one-sequence einsum for the
    spatial block, concatenated.
    """
    temporal = np.abs(dct_matrix(len(matrix))[: cfg.temporal_k] @ matrix).T.reshape(-1)
    grid_basis = dct_matrix(8)
    coeffs = np.einsum("ur,frc,vc->fuv", grid_basis, matrix.reshape(-1, 8, 8), grid_basis)
    b = cfg.spatial_block
    spatial = np.abs(coeffs[:, :b, :b]).reshape(-1)
    return np.concatenate([temporal, spatial])


def pegasos_binary(Zb, y, cfg, objectives=None, updates=None):
    """One binary Pegasos problem, one sample at a time.

    Zb carries the constant bias column last. Returns the weights, the bias,
    the epochs run and whether the objective settled before `cfg.max_epochs`.
    Each epoch's objective is appended to `objectives` if given, and the
    number t of each step that updates the weights to `updates`.
    """
    m = Zb.shape[0]
    lam = 1.0 / (cfg.regularization_c * m)
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(Zb.shape[1])
    t = 0
    prev_obj = None
    for epoch in range(1, cfg.max_epochs + 1):
        for i in rng.permutation(m):
            t += 1
            eta = 1.0 / (lam * t)
            w *= 1.0 - eta * lam
            if y[i] * (Zb[i] @ w) < 1.0:
                w += (eta * y[i]) * Zb[i]
                if updates is not None:
                    updates.append(t)
        hinge = np.maximum(0.0, 1.0 - y * (Zb @ w))
        obj = 0.5 * lam * (w @ w) + hinge.mean()
        if objectives is not None:
            objectives.append(obj)
        if prev_obj is not None and abs(prev_obj - obj) <= cfg.tolerance * max(1.0, abs(prev_obj)):
            return w[:-1], float(w[-1]), epoch, True
        prev_obj = obj
    return w[:-1], float(w[-1]), cfg.max_epochs, False


def train_per_class(X, labels, cfg, classes, updates=None):
    """One-vs-rest training one class at a time, with the library's scaler.

    Returns (weights (C, D), biases (C,), epochs, converged, objectives) for
    `classes` in the order given; each objective is the last epoch's. The
    step numbers of every class's updates go to the set `updates` if given.
    """
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    Zb = np.hstack([(X - mean) / std, np.ones((X.shape[0], 1))])
    labels = [str(l) for l in labels]
    weights = np.empty((len(classes), X.shape[1]))
    biases = np.empty(len(classes))
    epochs, converged, objectives = [], [], []
    for c, cls in enumerate(classes):
        y = np.array([1.0 if l == cls else -1.0 for l in labels])
        trace, steps = [], []
        weights[c], biases[c], e, ok = pegasos_binary(Zb, y, cfg, trace, steps)
        epochs.append(e)
        converged.append(ok)
        objectives.append(trace[-1])
        if updates is not None:
            updates.update(steps)
    return weights, biases, tuple(epochs), tuple(converged), tuple(objectives)


def serialize_per_value(seq):
    """Frame CSV text with one `repr` call per pixel.

    The writer `core.serialize_sequence` replaced: the header line, then per
    frame the timestamp and every pixel's `repr`, one row per line.
    """
    lines = ["# timestamp_ms," + ",".join(f"p{r}{c}" for r in range(8) for c in range(8))]
    for stamp, row in zip(seq.timestamps_ms.tolist(), seq.pixels.tolist()):
        lines.append(str(stamp) + "," + ",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"
