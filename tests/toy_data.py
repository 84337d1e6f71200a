"""Small synthetic feature sets for exercising the classifier without the pipeline."""

import numpy as np


def toy_clusters(
    n_classes: int = 7,
    per_class: int = 24,
    dim: int = 20,
    separation: float = 8.0,
    noise: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, list[str]]:
    """Gaussian clusters on orthogonal axes, margin-separated by design.

    Centers sit at `separation` along distinct coordinate axes, so the gap
    between projected clusters is separation * sqrt(2) against unit-variance
    noise; the defaults leave well over a 4-sigma margin.
    """
    if dim < n_classes:
        raise ValueError("dim must be >= n_classes for orthogonal centers")
    rng = np.random.default_rng(seed)
    X = np.empty((n_classes * per_class, dim))
    labels = []
    for c in range(n_classes):
        center = np.zeros(dim)
        center[c] = separation
        X[c * per_class : (c + 1) * per_class] = center + rng.normal(
            0.0, noise, (per_class, dim)
        )
        labels.extend([f"class_{c}"] * per_class)
    return X, labels
