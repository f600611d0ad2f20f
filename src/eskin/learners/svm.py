"""Soft-margin RBF SVM trained by sequential minimal optimisation.

Binary labels in {-1, +1}. Class imbalance is handled through per-class box
constraints C_i = C * weight(y_i); weights default to inverse class
frequency. The solver is SMO with LIBSVM's second-order working-set
selection (Fan, Chen & Lin, JMLR 6, 2005). It draws no random numbers and
runs until the KKT gap m(alpha) - M(alpha) is at most ``tol``; reaching the
iteration cap raises ConvergenceError. Kernel rows sit in a bounded LRU cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..codec import (
    Finite, FloatArray, NonNegativeInt, Positive, check_ranges, fields_equal,
)
from ..errors import ConvergenceError, DegenerateLabelsError, ValidationError
from .gp import distance_kernel
from .linear import _check_xy

_CACHE_BYTES = 32 << 20        # kernel-row cache budget; a row costs 8 n bytes
_ITERATIONS_PER_ROW = 100      # the iteration cap is this times n
_TAU = 1e-12                   # curvature floor for coincident inputs


@dataclass(frozen=True)
class SvmConfig:
    c: Positive = 10.0
    gamma: Positive = 0.5
    class_weights: tuple[Positive, Positive] | None = None   # (negative, positive)
    tol: Positive = 1e-3

    __post_init__ = check_ranges


@dataclass(frozen=True)
class SvmModel:
    support_inputs: FloatArray
    dual_coefs: FloatArray        # alpha_i * y_i per support vector
    bias: Finite
    kernel_gamma: Positive
    class_weights: tuple[Positive, Positive]
    iterations: NonNegativeInt    # SMO steps svm_fit took to converge
    kkt_gap: Finite               # m(alpha) - M(alpha) when it stopped, <= tol

    __eq__ = fields_equal

    def __post_init__(self):
        check_ranges(self)
        shape, coefs = self.support_inputs.shape, self.dual_coefs.shape
        if len(shape) != 2 or coefs != shape[:1]:
            raise ValidationError(
                f"SVM support_inputs {shape} and dual_coefs {coefs} disagree: "
                "need (n, d) and (n,)"
            )
        for name in ("support_inputs", "dual_coefs"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"SVM {name} must be finite")

    @cached_property
    def support_sq(self) -> np.ndarray:
        """Squared norms of the support rows, which every decision needs."""
        s = self.support_inputs
        return np.sum(s * s, axis=1)


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
        gap = m - big_m
        if gap <= config.tol:
            break
        if iteration == max_iter:
            raise ConvergenceError(
                f"SVM solver stopped at its cap of {max_iter} iterations with "
                f"KKT gap {gap:.3g} > tol {config.tol:g}"
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
        iterations=iteration,
        kkt_gap=float(gap),
    )


def svm_decision_function(model: SvmModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.support_inputs.shape[1]:
        raise ValidationError(
            f"expected {model.support_inputs.shape[1]} features, got {x.shape[1]}"
        )

    def finish(k: np.ndarray) -> None:   # in place; bit for bit exp(-gamma * sq)
        np.multiply(k, -model.kernel_gamma, out=k)
        np.exp(k, out=k)

    k = distance_kernel(x, model.support_inputs, model.support_sq, finish)
    return k @ model.dual_coefs + model.bias


def svm_predict(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Labels in {-1, +1}; a decision value of exactly 0 goes positive."""
    dec = svm_decision_function(model, x)
    return np.where(dec >= 0, 1.0, -1.0)
