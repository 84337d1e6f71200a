"""Background estimation, subtraction, and equal-interval resampling.

Empty-scene clips give a per-pixel mean background; subtracting it from a
recording makes body heat dominate the signal. Resampling picks frames at
equal intervals so every recording reaches a common length without
interpolation blur. Each step is one operation on a sequence's (frames, 64)
pixel array and returns a new sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RAW,
    SUBTRACTED,
    TEMP_MAX_C,
    TEMP_MIN_C,
    PIXEL_COUNT,
    ThermalSequence,
    _derived,
    _frozen_array,
)

DEFAULT_TARGET_LEN = 20


@dataclass(frozen=True, eq=False)
class BackgroundModel:
    """Per-pixel mean temperature of an empty scene."""

    mean_pixels: np.ndarray

    def __post_init__(self):
        mp = np.asarray(self.mean_pixels, dtype=np.float64).reshape(-1)
        if mp.shape != (PIXEL_COUNT,):
            raise ValueError(f"background needs {PIXEL_COUNT} pixel means, got {mp.size}")
        if not np.all(np.isfinite(mp)):
            raise ValueError("background contains non-finite values")
        if mp.min() < TEMP_MIN_C or mp.max() > TEMP_MAX_C:
            raise ValueError(f"background mean outside [{TEMP_MIN_C}, {TEMP_MAX_C}] C")
        object.__setattr__(self, "mean_pixels", _frozen_array(mp, (PIXEL_COUNT,)))


def estimate_background(empty_scene: ThermalSequence) -> BackgroundModel:
    """Average each pixel over all frames of a raw empty-scene clip."""
    if empty_scene.stage != RAW:
        raise ValueError("background must be estimated from a raw sequence")
    return BackgroundModel(mean_pixels=empty_scene.pixels.mean(axis=0))


def subtract_background(seq: ThermalSequence, bg: BackgroundModel) -> ThermalSequence:
    """Subtract the background mean from every pixel of every frame.

    Timestamps are preserved; the result is marked subtracted.
    Subtracting twice is an error. Raw pixels and the background mean both
    lie within the sensor range, so the difference is finite and the result
    valid without a second check.
    """
    if seq.stage != RAW:
        raise ValueError("sequence is already background-subtracted")
    return _derived(seq, pixels=seq.pixels - bg.mean_pixels, stage=SUBTRACTED)


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


def resample_equal_interval(seq: ThermalSequence, target_len: int) -> ThermalSequence:
    """Select frames at equal intervals to reach exactly `target_len` frames.

    Frames are picked, never interpolated; shorter inputs are upsampled by
    duplicating frames through the same index formula. The indices never
    decrease, so the picked frames of a valid sequence are valid and in
    timestamp order without a second check.
    """
    indices = resample_indices(len(seq), target_len)
    return _derived(seq, pixels=seq.pixels[indices], timestamps_ms=seq.timestamps_ms[indices])
