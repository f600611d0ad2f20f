"""Feature standardisation shared by the kernel and tree learners."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class Standardizer:
    """Per-column zero-mean unit-variance transform.

    Constant columns keep scale 1 so transform() maps them to exactly 0
    instead of dividing by 0.
    """

    mean: tuple[float, ...]
    scale: tuple[float, ...]

    def __post_init__(self):
        if len(self.mean) != len(self.scale):
            raise ValidationError(
                f"standardizer has {len(self.mean)} means but {len(self.scale)} scales"
            )
        if not all(math.isfinite(m) for m in self.mean):
            raise ValidationError("standardizer mean must be finite")
        if not all(math.isfinite(s) and s > 0 for s in self.scale):
            raise ValidationError("standardizer scale must be finite and > 0")

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValidationError("standardizer needs a non-empty 2-d array")
        if not np.all(np.isfinite(x)):
            raise ValidationError("standardizer input must be finite")
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean=tuple(mean), scale=tuple(scale))

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x - np.asarray(self.mean)) / np.asarray(self.scale)
