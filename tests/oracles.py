"""Independent brute-force reference implementations used by the tests."""

import numpy as np

from thermact.core import TEMP_MAX_C, TEMP_MIN_C, ThermalSequence
from thermact.features import dct_matrix
from thermact.synth import DEFAULT_DURATIONS_S, ActivityScript, ScriptKey, SubjectProfile


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

    The per-sequence path the batched `feature_matrix` replaced: one-sequence
    einsums for the temporal and the spatial block, concatenated.
    """
    temporal = np.abs(np.einsum("uf,fp->up", dct_matrix(len(matrix))[: cfg.temporal_k], matrix))
    temporal = temporal.T.reshape(-1)
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
            if y[i] * np.einsum("d,d", Zb[i], w) < 1.0:
                w += (eta * y[i]) * Zb[i]
                if updates is not None:
                    updates.append(t)
        hinge = np.maximum(0.0, 1.0 - y * np.einsum("md,d->m", Zb, w))
        obj = 0.5 * lam * np.einsum("d,d", w, w) + hinge.mean()
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


def svm_optimum(Zb, y, lam, gap=1e-9, max_sweeps=100_000):
    """The exact optimum of one binary problem, by dual coordinate descent.

    The primal is Pegasos's: lam/2 |w|^2 + mean_i max(0, 1 - y_i w.z_i) over
    the rows z_i of Zb, whose last column is the (regularized) bias. Its dual
    (Hsieh et al., "A dual coordinate descent method for large-scale linear
    SVM", ICML 2008), scaled by lam, is lam * (sum_i a_i - |w(a)|^2 / 2) with
    w(a) = sum_i a_i y_i z_i and the box 0 <= a_i <= 1/(lam*m). Each sweep
    minimizes the dual exactly along each coordinate in turn, clipped to the
    box, and ends by taking both values at w(a). Returns (w, primal, dual)
    once primal - dual <= gap * primal; every dual value is a lower bound on
    the primal at any w (weak duality).
    """
    Zb, y = np.asarray(Zb, dtype=np.float64), np.asarray(y, dtype=np.float64)
    m = len(y)
    upper = 1.0 / (lam * m)
    Q = np.outer(y, y) * (Zb @ Zb.T)
    a = np.zeros(m)
    for _ in range(max_sweeps):
        grad = Q @ a - 1.0  # taken afresh each sweep, so rounding does not build up
        for i in range(m):
            new = min(max(a[i] - grad[i] / Q[i, i], 0.0), upper)
            if new != a[i]:
                grad += (new - a[i]) * Q[:, i]
                a[i] = new
        w = (a * y) @ Zb
        primal = 0.5 * lam * (w @ w) + np.maximum(0.0, 1.0 - y * (Zb @ w)).mean()
        dual = lam * (a.sum() - 0.5 * (w @ w))
        if primal - dual <= gap * primal:
            return w, float(primal), float(dual)
    raise AssertionError(f"no relative duality gap of {gap} in {max_sweeps} sweeps")


def serialize_per_value(seq):
    """Frame CSV text with one `repr` call per pixel.

    The writer `core.serialize_sequence` replaced: the header line, then per
    frame the timestamp and every pixel's `repr`, one row per line.
    """
    lines = ["# timestamp_ms," + ",".join(f"p{r}{c}" for r in range(8) for c in range(8))]
    for stamp, row in zip(seq.timestamps_ms.tolist(), seq.pixels.tolist()):
        lines.append(str(stamp) + "," + ",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


def builtin_scripts_scalar(rng, profile=None):
    """One script per built-in label, each jitter value from its own `uniform` call.

    The code `synth.builtin_scripts` replaced: 41 scalar draws in the
    order the script code reads them (the fall's duration, then the fall's
    own values, each later script's duration before its values), and the
    right-to-left walk the mirror of the left-to-right one.
    """
    profile = profile or SubjectProfile()
    stand_sigma, stand_amp, sit_sigma, sit_amp = 0.78, 6.3, 1.05, 5.7

    def draw(lo, hi):
        return float(rng.uniform(lo, hi))

    def dur(label):
        return DEFAULT_DURATIONS_S[label] * profile.speed_factor * draw(0.92, 1.08)

    def still(label, duration):
        sit = label == "sit_still"
        sigma = (sit_sigma if sit else stand_sigma) + profile.sigma_shift + draw(-0.09, 0.09)
        amp = (sit_amp if sit else stand_amp) + profile.amplitude_shift + draw(-0.22, 0.22)
        cx = profile.center_x + draw(-0.35, 0.35)
        cy = profile.center_y + draw(-0.35, 0.35)
        keys = (ScriptKey(0.0, cx, cy, sigma, amp), ScriptKey(1.0, cx, cy, sigma, amp))
        return ActivityScript(duration_s=duration, keys=keys)

    def transition(label, duration):
        sit_s = sit_sigma + profile.sigma_shift + draw(-0.06, 0.06)
        stand_s = stand_sigma + profile.sigma_shift + draw(-0.06, 0.06)
        sit_a = sit_amp + profile.amplitude_shift + draw(-0.18, 0.18)
        stand_a = stand_amp + profile.amplitude_shift + draw(-0.18, 0.18)
        cx = profile.center_x + draw(-0.35, 0.35)
        cy = profile.center_y + draw(-0.35, 0.35)
        dx, dy = draw(-0.3, 0.3), draw(-0.3, 0.3)
        sit, stand = (sit_s, sit_a), (stand_s, stand_a)
        start, end = (sit, stand) if label == "sit_to_stand" else (stand, sit)
        keys = (
            ScriptKey(0.0, cx, cy, *start),
            ScriptKey(
                0.45, cx + 0.6 * dx, cy + 0.6 * dy,
                0.82 * (start[0] + end[0]) / 2.0, max(start[1], end[1]) + 0.45,
            ),
            ScriptKey(1.0, cx + dx, cy + dy, *end),
        )
        return ActivityScript(duration_s=duration, keys=keys)

    def fall(duration):
        cx = min(max(profile.center_x + draw(-0.45, 0.45), 2.6), 4.4)
        cy = min(max(profile.center_y + draw(-0.45, 0.45), 2.6), 4.4)
        angle = draw(0.0, 2.0 * np.pi)
        dist = draw(1.9, 2.5)
        ex, ey = cx + dist * np.cos(angle), cy + dist * np.sin(angle)
        amp0 = 6.3 + profile.amplitude_shift + draw(-0.15, 0.15)
        sigma0 = 0.8 + profile.sigma_shift + draw(-0.05, 0.05)
        keys = (
            ScriptKey(0.0, cx, cy, sigma0, amp0),
            ScriptKey(0.4, cx + 0.55 * (ex - cx), cy + 0.55 * (ey - cy), 1.15, amp0 - 0.7),
            ScriptKey(1.0, ex, ey, 1.7 + profile.sigma_shift, 3.9 + profile.amplitude_shift),
        )
        return ActivityScript(duration_s=duration, keys=keys, allow_offgrid=True)

    def walk(duration):
        lane = profile.walk_lane + draw(-0.25, 0.25)
        x0 = 0.45 + draw(0.0, 0.2)
        x1 = 6.55 - draw(0.0, 0.2)
        sigma = 0.85 + profile.sigma_shift + draw(-0.07, 0.07)
        amp0 = 5.85 + profile.amplitude_shift + draw(-0.15, 0.15)
        span = x1 - x0
        keys = (
            ScriptKey(0.0, x0, lane, sigma, amp0),
            ScriptKey(0.3, x0 + 0.22 * span, lane, sigma, amp0 + 0.18),
            ScriptKey(0.6, x0 + 0.55 * span, lane, sigma, amp0 + 0.38),
            ScriptKey(1.0, x1, lane, sigma, amp0 + 0.6),
        )
        return ActivityScript(duration_s=duration, keys=keys)

    scripts = {"fall": fall(min(DEFAULT_DURATIONS_S["fall"], dur("fall")))}
    for label in ("sit_still", "stand_still"):
        scripts[label] = still(label, dur(label))
    for label in ("sit_to_stand", "stand_to_sit"):
        scripts[label] = transition(label, dur(label))
    scripts["walk_left_right"] = walk(dur("walk_left_right"))
    scripts["walk_right_left"] = scripts["walk_left_right"].mirrored_x()
    return scripts


def render_one(scene, script, seed):
    """One script rendered on its own: the sequence and its clamp count.

    The renderer `synth.render_frames` became the one-recording case of: per
    frame time, each channel interpolated from the script's keys, a Gaussian
    blob over the 8x8 pixel centres, ambient mean + per-pixel offset + blob +
    the generator's noise, then quantize, count the out-of-range values and
    clamp them.
    """
    rng = np.random.default_rng(seed)
    n = max(1, round(script.duration_s * scene.frame_rate_hz))
    times = np.arange(n) / scene.frame_rate_hz
    u = np.clip(times / script.duration_s, 0.0, 1.0)
    us = np.array([k.u for k in script.keys])
    x, y, sigma, amp = (
        np.interp(u, us, np.array([getattr(k, attr) for k in script.keys]))
        for attr in ("x", "y", "sigma", "amplitude")
    )
    grid = np.arange(8, dtype=np.float64)
    spread = 2.0 * sigma[:, None] ** 2
    dx2 = (grid[None, :] - x[:, None]) ** 2 / spread
    dy2 = (grid[None, :] - y[:, None]) ** 2 / spread
    blob = (amp[:, None, None] * np.exp(-(dy2[:, :, None] + dx2[:, None, :]))).reshape(n, 64)
    values = (
        scene.ambient_mean
        + scene.ambient_pixel_offsets[None, :]
        + blob
        + rng.normal(0.0, scene.noise_std, (n, 64))
    )
    if scene.quantize_step > 0:
        values = np.round(values / scene.quantize_step) * scene.quantize_step
    clamped = int(np.count_nonzero((values < TEMP_MIN_C) | (values > TEMP_MAX_C)))
    values = np.clip(values, TEMP_MIN_C, TEMP_MAX_C)
    return ThermalSequence(pixels=values, timestamps_ms=np.round(1000.0 * times)), clamped
