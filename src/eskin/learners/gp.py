"""Exact Gaussian-process regression with an RBF kernel.

Training follows the standard Cholesky route (Rasmussen & Williams 2006,
Alg. 2.1): K = k(X, X) + noise_var * I, L = chol(K), alpha = K^-1 (y -
mean_offset), where the model's mean offset is the mean training target.
The model standardises its inputs with its own scaler, fitted on the
training rows. Training cost is cubic, so fits above ``cap`` rows run on a
seeded uniform subsample.

The kernel matrix is built a panel of rows at a time, the Cholesky factor
overwrites it, and the forward and back substitutions for alpha and the std
need no matrix of their own, so one n x n buffer is live at a fit's peak.
All three sum each element in one order at any BLAS thread count, so a fit,
and with it a model bundle, has the same bytes at every
``OPENBLAS_NUM_THREADS`` (shown for one OpenBLAS build); serving's
matrix-vector products do not yet.

The fit's kernel blocks and ``gp_predict`` share one kernel, ``rbf_kernel``,
which works in one buffer: the array that its single ``a @ b.T`` call
returns is doubled, subtracted from the outer norm sum, clamped, scaled and
exponentiated in place, a cache-sized block of rows at a time. Each step is
the float operation of the textbook formula in the same order, so the bits
are too.

An (n, k) target fits k outputs that share the training rows, the scaler and
the factor (Rasmussen & Williams 2006, eq. 2.30). Each output keeps a 1-d
fit's arithmetic, bit for bit: the mean of its own contiguous target row, its
own two solves and its own GEMV at predict; ``y.mean(axis=0)`` and a joint
``ks @ alpha.T`` GEMM would each move the last bits.

The posterior mean k(x, X) @ alpha needs no factor, so
``gp_predict(..., std=False)`` serves from the training inputs and alpha
alone. L is needed only for the posterior std and the marginal likelihood.
It is ``GpModel.chol``, a cached property and not a field, so it is never
serialised: gp_fit seeds the cache with the factor it computed, and a loaded
model factorises (bit for bit the same) on first use.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Annotated

import numpy as np

from ..codec import (
    FloatArray, NonNegative, Positive, Range, check_ranges, fields_equal,
)
from ..errors import FactorizationError, ValidationError
from .linear import _check_xy
from .preprocess import Standardizer


@dataclass(frozen=True)
class GpHyper:
    """Kernel and noise hyperparameters."""

    # rbf_kernel divides by 2 length_scale**2, which overflows above about
    # 9.5e153 and underflows below about 1e-154
    length_scale: Annotated[float, Range(ge=1e-150, le=1e150)] = 2.0
    signal_var: Positive = 1.0
    noise_var: NonNegative = 1e-4

    __post_init__ = check_ranges


# Bytes of a kernel row block: the block and its outer-norm temp stay in
# L2 while every elementwise step runs over them, where whole-matrix passes
# stream from memory. A 656 x 2 000 GP kernel took 6.1 ms against 9.8 ms
# unblocked (2-vCPU Xeon, 2 MB L2 a core). Blocks never split a BLAS call.
_BLOCK_BYTES = 256 << 10

# Rows of a panel of the GP fit's kernel, factor and triangular solves. The
# order of their sums depends on it, so the factor's and alpha's bits do
# too: a new value is a deliberate change of force bits. gp_fit at 2 000 rows
# took 0.14-0.18 s at 128, as at 64, and 0.17-0.25 s at 256 (2-vCPU Xeon).
_PANEL = 128


def distance_kernel(
    a: np.ndarray,
    b: np.ndarray,
    b_sq: np.ndarray,
    finish: Callable[[np.ndarray], None],
) -> np.ndarray:
    """(na, nb) kernel of the squared Euclidean distances between the rows
    of two 2-d arrays; shared by the GP and SVM kernels. ``b_sq`` is
    ``np.sum(b * b, axis=1)``, which a model keeps for its rows.

    The distances, clamped at 0 against rounding, overwrite the buffer
    ``a @ b.T`` returned, one block of rows at a time, and ``finish`` turns
    each block into kernel values in place while it is in cache. The steps
    keep the operations and order of ``a_sq + b_sq - 2 (a @ b.T)``, each
    elementwise, so the bits are that formula's.
    """
    out = a @ b.T
    a_sq = np.sum(a * a, axis=1)
    rows = max(1, _BLOCK_BYTES // (8 * out.shape[1]))
    for lo in range(0, out.shape[0], rows):
        sq = out[lo : lo + rows]
        sq *= 2.0
        np.subtract(a_sq[lo : lo + rows, None] + b_sq, sq, out=sq)
        np.maximum(sq, 0.0, out=sq)
        finish(sq)
    return out


def rbf_kernel(
    a: np.ndarray,
    b: np.ndarray,
    length_scale: float,
    signal_var: float = 1.0,
    b_sq: np.ndarray | None = None,
) -> np.ndarray:
    """signal_var * exp(-||a - b||^2 / (2 length_scale^2)) for every row a
    of ``a`` and row b of ``b``: the (na, nb) Gram matrix of two 2-d arrays.

    ``b_sq``, the squared norms of b's rows, is computed when not given.
    Each block of squared distances is scaled and exponentiated in place:
    x / -(2 l^2) is bit for bit (-x) / (2 l^2), and a signal_var of 1.0 is
    not multiplied at all.
    """
    if length_scale <= 0:
        raise ValidationError("length_scale must be > 0")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"need two 2-d arrays of one width, got {a.shape} and {b.shape}"
        )
    if b_sq is None:
        b_sq = np.sum(b * b, axis=1)
    scale = -(2.0 * length_scale**2)

    def finish(k: np.ndarray) -> None:
        np.divide(k, scale, out=k)
        np.exp(k, out=k)
        if signal_var != 1.0:
            k *= signal_var

    return distance_kernel(a, b, b_sq, finish)


def _panels(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each panel of ``_PANEL`` rows, the short one first,
    so that every later panel is full and the columns right of any panel
    are a whole number of panels wide (see ``_factor``)."""
    first = n % _PANEL or _PANEL
    return [(0, first)] + [(j, j + _PANEL) for j in range(first, n, _PANEL)]


def _factor(train_inputs: np.ndarray, hyper: GpHyper) -> np.ndarray:
    """Lower Cholesky factor L of k(X, X) + noise_var * I, a view of the one
    n x n buffer that holds the kernel and then U = L^T.

    The kernel's upper triangle is filled one panel of rows at a time: the
    diagonal block, then the columns to its right. U replaces it panel by
    panel (Golub & Van Loan, Matrix Computations, sec. 4.2): one GEMM per
    earlier panel subtracts that panel's part from the panel's rows; then
    each row subtracts the part of the panel rows above it by a fixed-order
    ``einsum``, takes its square-root pivot, is scaled, and has its left
    part zeroed. The temporaries are a panel high.

    The bits do not depend on the BLAS thread count (shown for OpenBLAS
    0.3.31 at 1 and 2 threads and 20 input columns). OpenBLAS cuts a GEMM's
    inner dimension into thread-dependent blocks above its GEMM_Q (384
    here), and splits some outputs unevenly between threads, whose parts
    round differently (a whole 900 x 900 kernel did). Every GEMM here spans
    at most a panel of inner dimension, and each output is at most a panel
    high and a whole number of panels wide, or a diagonal block: shapes
    that rounded alike at 1 and 2 threads in every size tried.
    """
    x, n = train_inputs, len(train_inputs)
    k = np.zeros((n, n))
    panels = _panels(n)
    for j, e in panels:
        k[j:e, j:e] = rbf_kernel(x[j:e], x[j:e], hyper.length_scale, hyper.signal_var)
        if e < n:
            k[j:e, e:] = rbf_kernel(x[j:e], x[e:], hyper.length_scale, hyper.signal_var)
    k[np.diag_indices(n)] += hyper.noise_var
    with np.errstate(all="ignore"):
        for t, (j, e) in enumerate(panels):
            for p, q in panels[:t]:
                k[j:e, j:] -= k[p:q, j:e].T @ k[p:q, j:]
            for i in range(j, e):
                row = k[i, i:]
                row -= np.einsum("p,pq->q", k[j:i, i], k[j:i, i:])
                if not row[0] > 0:   # NaN too, as LAPACK's potrf
                    raise FactorizationError(
                        "kernel matrix is not positive definite "
                        "(duplicate inputs with zero noise?); add jitter via noise_var"
                    )
                row[0] = math.sqrt(row[0])
                row[1:] /= row[0]
                k[i, j:i] = 0.0
    return k.T


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z with L z = b for a lower triangular L and an (n,) or (n, m) b, by
    forward substitution: per panel of rows one product with the rows
    above, then row steps of a fixed-order ``einsum``. A vector's product
    is an ``einsum`` too: a GEMV's sums split with the BLAS thread count."""
    u = chol.T
    z = np.array(b, dtype=float)
    for j, e in _panels(len(z)):
        above = u[:j, j:e]
        z[j:e] -= above.T @ z[:j] if z.ndim == 2 else np.einsum("pq,p->q", above, z[:j])
        for i in range(j, e):
            z[i] -= np.einsum("p,p...->...", u[j:i, i], z[j:i])
            z[i] /= u[i, i]
    return z


def _solve_upper(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a with L^T a = z: forward substitution on the system with its rows
    and columns reversed, which makes L^T lower triangular."""
    return _solve_lower(chol.T[::-1, ::-1], z[::-1])[::-1]


@dataclass(frozen=True)
class GpModel:
    train_inputs: FloatArray     # standardized by scaler
    alpha: FloatArray            # (n,) for a 1-d target, (k, n) for k outputs
    mean_offset: FloatArray      # () or (k,): mean target, added back by predict
    hyper: GpHyper
    scaler: Standardizer
    rows_offered: int            # rows given to gp_fit before the cap subsample

    __eq__ = fields_equal

    def __post_init__(self):
        shape, alpha = self.train_inputs.shape, self.alpha.shape
        outputs = np.shape(self.mean_offset)
        if len(shape) != 2 or len(outputs) > 1 or 0 in outputs or (
            alpha != outputs + shape[:1]
        ):
            raise ValidationError(
                f"GP train_inputs {shape}, alpha {alpha} and mean_offset {outputs} "
                "disagree: need (n, d), then (n,) and () or (k, n) and (k,), k >= 1"
            )
        if self.scaler.mean.shape[0] != shape[1]:
            raise ValidationError(
                f"GP scaler reads {self.scaler.mean.shape[0]} features but "
                f"train_inputs have {shape[1]}"
            )
        if self.rows_offered < shape[0]:
            raise ValidationError(
                f"GP rows_offered {self.rows_offered} is below the "
                f"{shape[0]} training rows it kept"
            )
        for name in ("train_inputs", "alpha", "mean_offset"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"GP {name} must be finite")

    @cached_property
    def train_sq(self) -> np.ndarray:
        """Squared norms of the training rows, which every predict needs."""
        t = self.train_inputs
        return np.sum(t * t, axis=1)

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the training kernel, computed on first use
        when the model was loaded rather than fitted."""
        return _factor(self.train_inputs, self.hyper)


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
) -> GpModel:
    x, y = _check_xy(x, y, y_ndim=(1, 2))
    hyper = hyper or GpHyper()
    rows_offered = x.shape[0]
    idx = _subsample(rows_offered, cap, seed)
    x, y = x[idx], y[idx]
    scaler = Standardizer.fit(x)
    xt = scaler.transform(x)
    chol = _factor(xt, hyper)
    targets = np.ascontiguousarray(np.atleast_2d(y.T))   # one row per output
    offsets = np.array([t.mean() for t in targets])
    alpha = np.array([
        _solve_upper(chol, _solve_lower(chol, t - offset))
        for t, offset in zip(targets, offsets)
    ])
    model = GpModel(
        train_inputs=xt,
        alpha=alpha.reshape(y.T.shape),
        mean_offset=offsets.reshape(y.shape[1:]),
        hyper=hyper,
        scaler=scaler,
        rows_offered=rows_offered,
    )
    vars(model)["chol"] = chol   # seed the cache: no second factorisation
    return model


def gp_predict(
    model: GpModel, x: np.ndarray, *, std: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Posterior (mean, std) at the query rows: an (m,) mean, or (m, k) for
    k outputs, and the (m,) std every output shares.

    With ``std=False`` the std is None and the Cholesky factor is never
    touched, so a loaded model serves its mean without factorising.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.train_inputs.shape[1]:
        raise ValidationError(
            f"expected {model.train_inputs.shape[1]} features, got {x.shape[1]}"
        )
    ks = rbf_kernel(
        model.scaler.transform(x),
        model.train_inputs,
        model.hyper.length_scale,
        model.hyper.signal_var,
        b_sq=model.train_sq,
    )
    a, offset = model.alpha, model.mean_offset   # one GEMV per output
    mean = (ks @ a if a.ndim == 1 else np.array([ks @ r for r in a]).T) + offset
    if not std:
        return mean, None
    v = _solve_lower(model.chol, ks.T)
    var = model.hyper.signal_var - np.sum(v * v, axis=0)
    np.maximum(var, 0.0, out=var)
    return mean, np.sqrt(var)


def log_marginal_likelihood(model: GpModel) -> float:
    """log p(y_train | X_train, hyper), summed over the outputs.

    The centered training targets of the (possibly subsampled) fit are
    rebuilt from alpha: y - mu = K alpha = L (L^T alpha).
    """
    chol = model.chol
    half_logdet = np.sum(np.log(np.diag(chol)))
    return sum(
        float(-0.5 * (chol @ (chol.T @ a)) @ a - half_logdet
              - 0.5 * len(a) * math.log(2.0 * math.pi))
        for a in np.atleast_2d(model.alpha)
    )


def gp_grid_search(
    x: np.ndarray,
    y: np.ndarray,
    length_scales: tuple[float, ...] = (1.0, 2.0, 4.0),
    noise_vars: tuple[float, ...] = (1e-4, 1e-2),
    base: GpHyper | None = None,
    cap: int = 2000,
    seed: int = 0,
) -> tuple[GpModel, float]:
    """The fit of the (length_scale, noise_var) cell with the highest log
    marginal likelihood, summed over the outputs of an (n, k) target, and
    that likelihood. The model's ``hyper`` is the pick.

    Ties break towards the earlier grid entry, so the result is
    deterministic. Every cell is ``gp_fit(x, y, hyper, cap, seed)``, so all
    fit the same subsample, and the winner is the model that fit returns.
    """
    base = base or GpHyper()
    best: tuple[GpModel, float] | None = None
    for ell in length_scales:
        for nv in noise_vars:
            hyper = replace(base, length_scale=ell, noise_var=nv)
            model = gp_fit(x, y, hyper, cap=cap, seed=seed)
            lml = log_marginal_likelihood(model)
            if best is None or lml > best[1]:
                best = (model, lml)
    assert best is not None
    return best
