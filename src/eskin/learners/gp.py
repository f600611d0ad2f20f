"""Exact Gaussian-process regression with an RBF kernel.

Training follows the standard Cholesky route (Rasmussen & Williams 2006,
Alg. 2.1): K = k(X, X) + noise_var * I, L = chol(K), alpha = K^-1 (y -
mean_offset), with the mean offset taken from the training targets. Feature
standardisation is internal and on by default; standardize=False fits on raw
inputs so closed-form oracles line up exactly. Training cost is cubic, so fits
above ``cap`` rows run on a seeded uniform subsample.

The posterior mean k(x, X) @ alpha needs no factor, so
``gp_predict(..., std=False)`` serves from the training inputs and alpha
alone. L is needed only for the posterior std and the marginal likelihood,
and is not serialised: a fitted model keeps the one gp_fit computed, a loaded
model recomputes it (bit for bit the same) on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_triangular

from ..errors import FactorizationError, ValidationError
from .linear import _check_xy
from .preprocess import Standardizer


@dataclass(frozen=True)
class GpHyper:
    """Kernel and noise hyperparameters; mean_offset is set by gp_fit."""

    length_scale: float = 2.0
    signal_var: float = 1.0
    noise_var: float = 1e-4
    mean_offset: float = 0.0

    def __post_init__(self):
        if self.length_scale <= 0:
            raise ValidationError("length_scale must be > 0")
        if self.signal_var <= 0:
            raise ValidationError("signal_var must be > 0")
        if self.noise_var < 0:
            raise ValidationError("noise_var must be >= 0")

    def to_dict(self) -> dict:
        return {
            "length_scale": self.length_scale,
            "signal_var": self.signal_var,
            "noise_var": self.noise_var,
            "mean_offset": self.mean_offset,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GpHyper":
        return cls(**d)


def rbf_kernel(
    a: np.ndarray, b: np.ndarray, length_scale: float, signal_var: float = 1.0
) -> float | np.ndarray:
    """signal_var * exp(-||a - b||^2 / (2 length_scale^2)).

    Two single vectors give a scalar; 2-d inputs give the (na, nb) Gram
    matrix.
    """
    if length_scale <= 0:
        raise ValidationError("length_scale must be > 0")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scalar = a.ndim == 1 and b.ndim == 1
    a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
    if a2.shape[1] != b2.shape[1]:
        raise ValidationError(f"dimension mismatch: {a2.shape[1]} vs {b2.shape[1]}")
    sq = (
        np.sum(a2 * a2, axis=1)[:, None]
        + np.sum(b2 * b2, axis=1)[None, :]
        - 2.0 * (a2 @ b2.T)
    )
    np.maximum(sq, 0.0, out=sq)
    gram = signal_var * np.exp(-sq / (2.0 * length_scale**2))
    return float(gram[0, 0]) if scalar else gram


def _factor(train_inputs: np.ndarray, hyper: GpHyper) -> np.ndarray:
    """Lower Cholesky factor of k(X, X) + noise_var * I."""
    k = rbf_kernel(train_inputs, train_inputs, hyper.length_scale, hyper.signal_var)
    k[np.diag_indices_from(k)] += hyper.noise_var
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        raise FactorizationError(
            "kernel matrix is not positive definite "
            "(duplicate inputs with zero noise?); add jitter via noise_var"
        )


@dataclass(frozen=True)
class GpModel:
    train_inputs: np.ndarray     # standardized when scaler is set
    alpha: np.ndarray
    hyper: GpHyper
    scaler: Standardizer | None
    # derived from train_inputs and hyper, so neither compared nor serialised
    _chol: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the training kernel, computed on first use
        when the model was loaded rather than fitted."""
        if self._chol is None:
            object.__setattr__(self, "_chol", _factor(self.train_inputs, self.hyper))
        return self._chol

    def to_dict(self) -> dict:
        return {
            "train_inputs": self.train_inputs.tolist(),
            "alpha": self.alpha.tolist(),
            "hyper": self.hyper.to_dict(),
            "scaler": self.scaler.to_dict() if self.scaler else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GpModel":
        return cls(
            train_inputs=np.asarray(d["train_inputs"], dtype=float),
            alpha=np.asarray(d["alpha"], dtype=float),
            hyper=GpHyper.from_dict(d["hyper"]),
            scaler=Standardizer.from_dict(d["scaler"]) if d["scaler"] else None,
        )


def _subsample(n: int, cap: int, seed: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    # sorted so the kept rows stay in dataset order
    return np.sort(rng.permutation(n)[:cap])


def gp_fit(
    x: np.ndarray,
    y: np.ndarray,
    hyper: GpHyper | None = None,
    cap: int = 2000,
    seed: int = 0,
    standardize: bool = True,
) -> GpModel:
    x, y = _check_xy(x, y)
    hyper = hyper or GpHyper()
    idx = _subsample(x.shape[0], cap, seed)
    x, y = x[idx], y[idx]
    if standardize:
        scaler = Standardizer.fit(x)
        xt = scaler.transform(x)
    else:
        scaler = None
        xt = x
    hyper = replace(hyper, mean_offset=float(y.mean()))
    chol = _factor(xt, hyper)
    yc = y - hyper.mean_offset
    # kept a general solve: solve_triangular moves alpha in the last bits,
    # which would change the bytes of report.json for a given seed
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, yc))
    return GpModel(train_inputs=xt, alpha=alpha, hyper=hyper, scaler=scaler, _chol=chol)


def gp_predict(
    model: GpModel, x: np.ndarray, *, std: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Posterior (mean, std) at the query rows.

    With ``std=False`` the std is None and the Cholesky factor is never
    touched, so a loaded model serves its mean without factorising.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.train_inputs.shape[1]:
        raise ValidationError(
            f"expected {model.train_inputs.shape[1]} features, got {x.shape[1]}"
        )
    xt = model.scaler.transform(x) if model.scaler else x
    ks = rbf_kernel(
        xt, model.train_inputs, model.hyper.length_scale, model.hyper.signal_var
    )
    mean = ks @ model.alpha + model.hyper.mean_offset
    if not std:
        return mean, None
    v = solve_triangular(model.chol, ks.T, lower=True)
    var = model.hyper.signal_var - np.sum(v * v, axis=0)
    np.maximum(var, 0.0, out=var)
    return mean, np.sqrt(var)


def log_marginal_likelihood(model: GpModel, y: np.ndarray | None = None) -> float:
    """log p(y_train | X_train, hyper).

    With y omitted the centered targets are reconstructed from alpha
    (y - mu = K alpha); passing y must reproduce the training targets of the
    (possibly subsampled) fit.
    """
    if y is None:
        yc = model.chol @ (model.chol.T @ model.alpha)
    else:
        y = np.asarray(y, dtype=float)
        if y.shape != model.alpha.shape:
            raise ValidationError(
                f"expected {model.alpha.shape[0]} targets, got {y.shape}"
            )
        yc = y - model.hyper.mean_offset
    n = yc.shape[0]
    return float(
        -0.5 * yc @ model.alpha
        - np.sum(np.log(np.diag(model.chol)))
        - 0.5 * n * math.log(2.0 * math.pi)
    )


def gp_grid_search(
    x: np.ndarray,
    y: np.ndarray,
    length_scales: tuple[float, ...] = (1.0, 2.0, 4.0),
    noise_vars: tuple[float, ...] = (1e-4, 1e-2),
    base: GpHyper | None = None,
    cap: int = 2000,
    seed: int = 0,
) -> tuple[GpHyper, float]:
    """Pick (length_scale, noise_var) by log marginal likelihood.

    Ties break towards the earlier grid entry, so the result is
    deterministic. The same subsample is reused for every candidate.
    """
    base = base or GpHyper()
    x, y = _check_xy(x, y)
    idx = _subsample(x.shape[0], cap, seed)
    xs, ys = x[idx], y[idx]
    best: tuple[GpHyper, float] | None = None
    for ell in length_scales:
        for nv in noise_vars:
            hyper = replace(base, length_scale=ell, noise_var=nv)
            model = gp_fit(xs, ys, hyper, cap=cap, seed=seed)
            lml = log_marginal_likelihood(model)
            if best is None or lml > best[1]:
                best = (model.hyper, lml)
    assert best is not None
    return best
