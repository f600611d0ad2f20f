"""Soft-margin RBF SVM trained by sequential minimal optimisation.

Binary labels in {-1, +1}. Class imbalance is handled through per-class box
constraints C_i = C * weight(y_i); weights default to inverse class
frequency. The solver is SMO with LIBSVM's second-order working-set
selection (Fan, Chen & Lin, JMLR 6, 2005). It draws no random numbers and
runs until the KKT gap m(alpha) - M(alpha) is at most ``tol``; reaching the
iteration cap raises ConvergenceError. Kernel rows sit in a bounded LRU cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConvergenceError, DegenerateLabelsError, ValidationError
from .gp import sq_distances
from .linear import _check_xy

_CACHE_BYTES = 32 << 20        # kernel-row cache budget; a row costs 8 n bytes
_ITERATIONS_PER_ROW = 100      # the iteration cap is this times n
_TAU = 1e-12                   # curvature floor for coincident inputs


@dataclass(frozen=True)
class SvmConfig:
    c: float = 10.0
    gamma: float = 0.5
    class_weights: tuple[float, float] | None = None   # (negative, positive)
    tol: float = 1e-3

    def __post_init__(self):
        for name in ("c", "gamma", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and > 0")
        if self.class_weights is not None:
            if len(self.class_weights) != 2 or not all(
                math.isfinite(w) and w > 0 for w in self.class_weights
            ):
                raise ValidationError("class_weights must be two finite reals > 0")


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


def svm_fit(x: np.ndarray, y: np.ndarray, config: SvmConfig | None = None) -> SvmModel:
    config = config or SvmConfig()
    x, y = _check_xy(x, y)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("labels must be -1 or +1")
    pos = y > 0
    n_pos = int(np.sum(pos))
    n_neg = int(np.sum(~pos))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("training data must contain both classes")

    n = x.shape[0]
    if config.class_weights is not None:
        w_neg, w_pos = config.class_weights
    else:
        # inverse class frequency, mean weight 1
        w_neg = n / (2.0 * n_neg)
        w_pos = n / (2.0 * n_pos)
    box = np.where(pos, config.c * w_pos, config.c * w_neg)

    @lru_cache(maxsize=_CACHE_BYTES // (8 * n))
    def kernel_row(i: int) -> np.ndarray:
        d = x - x[i]
        return np.exp(-config.gamma * np.sum(d * d, axis=1))

    alpha = np.zeros(n)
    yg = y.copy()              # y - K @ (alpha * y), maintained incrementally
    max_iter = _ITERATIONS_PER_ROW * n
    for iteration in range(max_iter + 1):
        up = np.where(pos, alpha < box, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < box)
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        m, big_m = yg[i], np.min(yg[low])
        if m - big_m <= config.tol:
            break
        if iteration == max_iter:
            raise ConvergenceError(
                f"SVM solver stopped at its cap of {max_iter} iterations with "
                f"KKT gap {m - big_m:.3g} > tol {config.tol:g}"
            )

        k_i = kernel_row(i)
        gain = m - yg
        curvature = np.maximum(2.0 - 2.0 * k_i, _TAU)
        j = int(np.argmax(np.where(low & (gain > 0), gain * gain / curvature, -np.inf)))
        k_j = kernel_row(j)

        # alpha_i += y_i s, alpha_j -= y_j s keeps sum(alpha * y) fixed
        room_i = box[i] - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else box[j] - alpha[j]
        s = min(gain[j] / curvature[j], room_i, room_j)
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = (box[i] if pos[i] else 0.0) if s == room_i else old_i + y[i] * s
        alpha[j] = (0.0 if pos[j] else box[j]) if s == room_j else old_j - y[j] * s
        yg -= (alpha[i] - old_i) * y[i] * k_i + (alpha[j] - old_j) * y[j] * k_j

    free = (alpha > 0) & (alpha < box)
    b = np.mean(yg[free]) if free.any() else 0.5 * (m + big_m)

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
