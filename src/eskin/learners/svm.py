"""Soft-margin RBF SVM trained by sequential minimal optimisation.

Binary labels in {-1, +1}. Class imbalance is handled through per-class box
constraints C_i = C * weight(y_i); weights default to inverse class
frequency. The solver is the classic two-at-a-time SMO sweep with a cached
prediction vector (updated incrementally per pair change) and on-demand
kernel rows, so one fit never recomputes a kernel row it already touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateLabelsError, ValidationError
from .gp import sq_distances
from .linear import _check_xy

# hard stop on total sweeps so a non-converging run terminates
_MAX_SWEEPS = 1000
# minimum alpha step worth applying
_MIN_STEP = 1e-7


@dataclass(frozen=True)
class SvmConfig:
    c: float = 10.0
    gamma: float = 0.5
    class_weights: tuple[float, float] | None = None   # (negative, positive)
    tol: float = 1e-3
    max_passes: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.c <= 0:
            raise ValidationError("c must be > 0")
        if self.gamma <= 0:
            raise ValidationError("gamma must be > 0")
        if self.tol <= 0:
            raise ValidationError("tol must be > 0")
        if self.max_passes < 1:
            raise ValidationError("max_passes must be >= 1")
        if self.class_weights is not None:
            if len(self.class_weights) != 2 or any(w <= 0 for w in self.class_weights):
                raise ValidationError("class_weights must be two positive reals")


@dataclass(frozen=True)
class SvmModel:
    support_inputs: np.ndarray
    dual_coefs: np.ndarray        # alpha_i * y_i per support vector
    bias: float
    kernel_gamma: float
    class_weights: tuple[float, float]

    def __post_init__(self):
        shape, coefs = self.support_inputs.shape, self.dual_coefs.shape
        if len(shape) != 2 or coefs != shape[:1]:
            raise ValueError(
                f"SVM support_inputs {shape} and dual_coefs {coefs} disagree: "
                "need (n, d) and (n,)"
            )


class _RowCache:
    """Kernel rows k(x_i, X) computed lazily, kept for the whole fit."""

    def __init__(self, x: np.ndarray, gamma: float):
        self.x = x
        self.gamma = gamma
        self.rows: dict[int, np.ndarray] = {}

    def row(self, i: int) -> np.ndarray:
        r = self.rows.get(i)
        if r is None:
            d = self.x - self.x[i]
            r = np.exp(-self.gamma * np.sum(d * d, axis=1))
            self.rows[i] = r
        return r


def svm_fit(x: np.ndarray, y: np.ndarray, config: SvmConfig | None = None) -> SvmModel:
    config = config or SvmConfig()
    x, y = _check_xy(x, y)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("labels must be -1 or +1")
    n_pos = int(np.sum(y > 0))
    n_neg = int(np.sum(y < 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("training data must contain both classes")

    n = x.shape[0]
    if config.class_weights is not None:
        w_neg, w_pos = config.class_weights
    else:
        # inverse class frequency, mean weight 1
        w_neg = n / (2.0 * n_neg)
        w_pos = n / (2.0 * n_pos)
    box = np.where(y > 0, config.c * w_pos, config.c * w_neg)

    alpha = np.zeros(n)
    b = 0.0
    # f = K @ (alpha * y), maintained incrementally
    f = np.zeros(n)
    cache = _RowCache(x, config.gamma)
    rng = np.random.default_rng(config.seed)

    passes = 0
    sweeps = 0
    while passes < config.max_passes and sweeps < _MAX_SWEEPS:
        sweeps += 1
        changed = 0
        for i in range(n):
            e_i = f[i] + b - y[i]
            if not (
                (y[i] * e_i < -config.tol and alpha[i] < box[i])
                or (y[i] * e_i > config.tol and alpha[i] > 0)
            ):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            e_j = f[j] + b - y[j]
            a_i, a_j = alpha[i], alpha[j]
            if y[i] != y[j]:
                low = max(0.0, a_j - a_i)
                high = min(box[j], box[i] + a_j - a_i)
            else:
                low = max(0.0, a_i + a_j - box[i])
                high = min(box[j], a_i + a_j)
            if high - low < _MIN_STEP:
                continue
            row_i = cache.row(i)
            row_j = cache.row(j)
            eta = 2.0 * row_i[j] - row_i[i] - row_j[j]
            if eta >= 0:
                continue
            a_j_new = np.clip(a_j - y[j] * (e_i - e_j) / eta, low, high)
            if abs(a_j_new - a_j) < _MIN_STEP:
                continue
            a_i_new = a_i + y[i] * y[j] * (a_j - a_j_new)

            d_i = y[i] * (a_i_new - a_i)
            d_j = y[j] * (a_j_new - a_j)
            b1 = b - e_i - d_i * row_i[i] - d_j * row_i[j]
            b2 = b - e_j - d_i * row_i[j] - d_j * row_j[j]
            if 0 < a_i_new < box[i]:
                b = b1
            elif 0 < a_j_new < box[j]:
                b = b2
            else:
                b = 0.5 * (b1 + b2)

            alpha[i], alpha[j] = a_i_new, a_j_new
            f += d_i * row_i + d_j * row_j
            changed += 1
        passes = passes + 1 if changed == 0 else 0

    support = alpha > 0
    return SvmModel(
        support_inputs=x[support].copy(),
        dual_coefs=(alpha * y)[support],
        bias=float(b),
        kernel_gamma=config.gamma,
        class_weights=(float(w_neg), float(w_pos)),
    )


def svm_decision_function(model: SvmModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.support_inputs.shape[1]:
        raise ValidationError(
            f"expected {model.support_inputs.shape[1]} features, got {x.shape[1]}"
        )
    sq = sq_distances(x, model.support_inputs)
    return np.exp(-model.kernel_gamma * sq) @ model.dual_coefs + model.bias


def svm_predict(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Labels in {-1, +1}; a decision value of exactly 0 goes positive."""
    dec = svm_decision_function(model, x)
    return np.where(dec >= 0, 1.0, -1.0)
