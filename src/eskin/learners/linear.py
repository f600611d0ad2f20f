"""Ordinary least squares on centered data via the normal equations.

Centering keeps the Gram matrix to d x d (no intercept column) and gives the
intercept in closed form. The Cholesky factorisation is the singularity
check: a rank-deficient design raises instead of being silently regularised
or pseudo-inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import Finite, FloatArray, check_ranges, fields_equal
from ..errors import SingularDesignError, ValidationError


@dataclass(frozen=True)
class LinearModel:
    weights: FloatArray
    intercept: Finite

    __eq__ = fields_equal

    def __post_init__(self):
        check_ranges(self)
        if self.weights.ndim != 1:
            raise ValidationError(f"linear weights {self.weights.shape} must be 1-d")
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("linear weights must be finite")


def _check_xy(x: np.ndarray, y: np.ndarray, y_ndim=(1,)) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValidationError("x must be 2-d")
    if y.ndim not in y_ndim:
        raise ValidationError("y must be " + " or ".join(f"{d}-d" for d in y_ndim))
    if x.shape[0] != y.shape[0]:
        raise ValidationError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    if x.shape[0] == 0:
        raise ValidationError("empty training set")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("x and y must be finite")
    return x, y


def ols_fit(x: np.ndarray, y: np.ndarray) -> LinearModel:
    x, y = _check_xy(x, y)
    n, d = x.shape
    if n <= d:
        raise SingularDesignError(
            f"need more than {d} samples to fit {d} coefficients, got {n}"
        )
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    gram = xc.T @ xc
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SingularDesignError("design matrix is singular (collinear columns)")
    # Rounding can leave an exactly rank-deficient Gram with a tiny positive
    # pivot, so the factorisation alone is not a sufficient check.
    pivots = np.diag(chol) ** 2
    if np.any(pivots <= n * np.finfo(float).eps * np.max(np.diag(gram))):
        raise SingularDesignError("design matrix is singular (collinear columns)")
    rhs = xc.T @ (y - y_mean)
    w = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    intercept = y_mean - float(x_mean @ w)
    return LinearModel(weights=w, intercept=intercept)


def ols_predict(model: LinearModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    d = model.weights.shape[0]
    if x.ndim != 2 or x.shape[1] != d:
        raise ValidationError(f"expected shape (n, {d}), got {x.shape}")
    return x @ model.weights + model.intercept
