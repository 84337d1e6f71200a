"""Cosine-transform features for equal-length background-subtracted recordings.

Each recording is its (F, 64) array of background-subtracted frames. Two
blocks are concatenated into one vector per recording:

* temporal: for each of the 64 pixels, the magnitudes of the first
  `temporal_k` coefficients of the orthonormal DCT-II of that pixel's time
  series (coefficient 0 is the DC term), pixels in row-major order;
* spatial: for each frame, the magnitudes of the top-left
  `spatial_block` x `spatial_block` corner of the frame's 2-D DCT-II,
  frames in time order, each block flattened row-major.

The orthonormal convention (transform matrix times its transpose is the
identity) is used throughout, so energy is preserved and tolerances are
unit-free. `feature_matrix` computes the rows of many recordings at once;
`extract_features` is its one-row case, so both give the same bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import FeatureConfig
from .core import GRID_SIZE, PIXEL_COUNT

@lru_cache(maxsize=128)
def dct_matrix(n: int) -> np.ndarray:
    """The read-only orthonormal DCT-II matrix of size n (cached per n).

    Entry (u, t) is c(u) * cos(pi * (2t + 1) * u / (2n)), with
    c(0) = sqrt(1/n) and c(u>0) = sqrt(2/n).
    """
    if n < 1:
        raise ValueError("basis size must be >= 1")
    t = np.arange(n)
    u = np.arange(n).reshape(-1, 1)
    matrix = np.cos(np.pi * u * (2 * t + 1) / (2 * n))
    matrix[0, :] *= np.sqrt(1.0 / n)
    matrix[1:, :] *= np.sqrt(2.0 / n)
    matrix.flags.writeable = False
    return matrix


def feature_matrix(
    sequences: list[np.ndarray], cfg: FeatureConfig | None = None
) -> np.ndarray:
    """One feature row per (F, 64) frame array: the temporal block, then the spatial block.

    All arrays must have the same number of frames F, at least
    `cfg.temporal_k`; a row holds 64 * temporal_k + spatial_block**2 * F
    values. The N arrays are stacked as one (N, F, 64) array and both blocks
    come from one product each.
    """
    cfg = cfg or FeatureConfig()
    lengths = sorted({len(pixels) for pixels in sequences})
    if len(lengths) != 1:
        raise ValueError(f"sequences of one batch need equal frame counts, got frames {lengths}")
    if lengths[0] < cfg.temporal_k:
        raise ValueError(f"temporal_k ({cfg.temporal_k}) exceeds {lengths[0]} frames")
    stack = np.stack(sequences)  # (N, F, 64)
    if stack.shape[2:] != (PIXEL_COUNT,):
        raise ValueError(f"frames need {PIXEL_COUNT} pixels, got shape {stack.shape[1:]}")
    n = len(stack)

    # (N, k, 64) coefficients -> per-pixel rows -> pixel-major flat layout. An
    # einsum, not a BLAS matmul, so the sums run in one order on every CPU.
    temporal = np.abs(np.einsum("uf,nfp->nup", dct_matrix(lengths[0])[: cfg.temporal_k], stack))
    temporal = temporal.transpose(0, 2, 1).reshape(n, -1)

    # Only the kept b x b corner is computed. Each sequence gets the bits a
    # one-sequence einsum gives; basis @ grids @ basis.T rounds differently.
    corner_basis = dct_matrix(GRID_SIZE)[: cfg.spatial_block]
    grids = stack.reshape(n, -1, GRID_SIZE, GRID_SIZE)
    spatial = np.abs(np.einsum("ur,nfrc,vc->nfuv", corner_basis, grids, corner_basis))

    return np.hstack([temporal, spatial.reshape(n, -1)])


def extract_features(pixels: np.ndarray, cfg: FeatureConfig | None = None) -> np.ndarray:
    """The read-only feature vector of one (F, 64) frame array: its `feature_matrix` row."""
    row = feature_matrix([pixels], cfg)[0]
    row.flags.writeable = False
    return row
