"""Background estimation, subtraction, and equal-interval resampling.

Empty-scene clips give a per-pixel mean background; subtracting it from a
recording makes body heat dominate the signal. Resampling picks frames at
equal intervals so every recording reaches a common length without
interpolation blur. Each step is one operation on a recording's (frames, 64)
pixel array and returns a new array.
"""

from __future__ import annotations

import numpy as np

from .core import ThermalSequence


def estimate_background(empty_scene: ThermalSequence) -> np.ndarray:
    """The read-only (64,) per-pixel mean over all frames of an empty-scene clip."""
    mean = empty_scene.pixels.mean(axis=0)
    mean.flags.writeable = False
    return mean


def subtract_background(seq: ThermalSequence, bg: np.ndarray) -> np.ndarray:
    """The (F, 64) frames of `seq` with the background mean `bg` subtracted."""
    return seq.pixels - bg


def resample_indices(length: int, target_len: int) -> np.ndarray:
    """Source frame indices for equal-interval selection.

    Index j maps to round(j * (length - 1) / (target_len - 1)) with ties
    rounded half-up, so the first and last frames are always kept when
    target_len >= 2. A target of 1 keeps frame 0.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    if target_len == 1:
        return np.zeros(1, dtype=np.intp)
    j = np.arange(target_len, dtype=np.float64)
    exact = j * (length - 1) / (target_len - 1)
    return np.floor(exact + 0.5).astype(np.intp)


def resample_equal_interval(pixels: np.ndarray, target_len: int) -> np.ndarray:
    """The rows of `pixels` picked at equal intervals: exactly `target_len` of them.

    Frames are picked, never interpolated; shorter inputs are upsampled by
    duplicating frames through the same index formula.
    """
    return pixels[resample_indices(len(pixels), target_len)]
