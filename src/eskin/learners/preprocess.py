"""Feature standardisation shared by the kernel and tree learners."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import FloatArray, fields_equal
from ..errors import ValidationError


@dataclass(frozen=True)
class Standardizer:
    """Per-column zero-mean unit-variance transform.

    Constant columns keep scale 1 so transform() maps them to exactly 0
    instead of dividing by 0.
    """

    mean: FloatArray
    scale: FloatArray

    __eq__ = fields_equal

    def __post_init__(self):
        if self.mean.ndim != 1 or self.mean.shape != self.scale.shape:
            raise ValidationError(
                f"standardizer mean {self.mean.shape} and scale {self.scale.shape} "
                "must be 1-d and of one length"
            )
        if not np.all(np.isfinite(self.mean)):
            raise ValidationError("standardizer mean must be finite")
        if not np.all(np.isfinite(self.scale) & (self.scale > 0)):
            raise ValidationError("standardizer scale must be finite and > 0")

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or not np.all(np.isfinite(x)):
            raise ValidationError("standardizer needs a non-empty finite 2-d array")
        scale = x.std(axis=0)
        return cls(mean=x.mean(axis=0), scale=np.where(scale > 0, scale, 1.0))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.scale
