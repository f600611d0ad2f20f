"""Gaussian process regression: kernel identities, posterior checks against a
dense-inverse reference, and the likelihood-driven grid search."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eskin import EskinError, FactorizationError, ValidationError
from eskin.codec import from_dict, to_dict
from eskin.learners import gp as gp_module
from eskin.learners import (
    GpHyper,
    GpModel,
    Standardizer,
    gp_fit,
    gp_grid_search,
    gp_predict,
    log_marginal_likelihood,
    rbf_kernel,
)

from .entry_point import eskin_env
from .oracles import (
    KERNEL_SHAPES,
    gp_dense_oracle,
    kernel_inputs,
    rbf_kernel_oracle,
    sq_distances_oracle,
)
from .payloads import edit_array


class TestRbfKernel:
    def test_identical_points_unit_signal(self):
        a = np.array([[1.0, 2.0, 3.0]])
        k = rbf_kernel(a, a, length_scale=0.7)
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_distance_sqrt2_ell(self):
        ell = 1.5
        a = np.array([[0.0, 0.0]])
        b = np.array([[ell * math.sqrt(2.0), 0.0]])
        k = rbf_kernel(a, b, length_scale=ell)[0, 0]
        assert k == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert k == pytest.approx(0.3678794, abs=1e-7)

    def test_signal_variance_scales_peak(self):
        a = np.array([[4.0]])
        assert rbf_kernel(a, a, 1.0, signal_var=2.0)[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_gram_symmetry_and_bounds(self, rng):
        x = rng.normal(size=(8, 3))
        k = rbf_kernel(x, x, length_scale=1.3, signal_var=1.7)
        assert np.allclose(k, k.T, atol=1e-12)
        assert np.all(k > 0.0)
        assert np.all(k <= 1.7 + 1e-12)

    def test_invalid_length_scale(self):
        with pytest.raises(ValidationError):
            rbf_kernel(np.array([[0.0]]), np.array([[1.0]]), length_scale=0.0)

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.zeros(2), np.zeros((3, 2))),
            (np.zeros((3, 2)), np.zeros(2)),
            (np.zeros((1, 2)), np.zeros((1, 3))),
        ],
    )
    def test_needs_two_2d_arrays_of_one_width(self, a, b):
        with pytest.raises(ValidationError, match="need two 2-d arrays of one width"):
            rbf_kernel(a, b, length_scale=1.0)


class TestInPlaceKernel:
    """The one-buffer kernel is bit for bit the out-of-place formula, and
    its Gram matrix needs one (n, n) array plus cache-sized row blocks."""

    @pytest.mark.parametrize("na, nb", KERNEL_SHAPES)
    @pytest.mark.parametrize("signal_var", [1.0, 1.7])
    def test_bit_identical(self, rng, na, nb, signal_var):
        a, b = kernel_inputs(rng, na, nb)
        assert np.array_equal(
            rbf_kernel(a, b, 1.3, signal_var), rbf_kernel_oracle(a, b, 1.3, signal_var)
        )
        b_sq = np.sum(b * b, axis=1)
        assert np.array_equal(
            gp_module.distance_kernel(a, b, b_sq, lambda sq: None),
            sq_distances_oracle(a, b),
        )

    def test_duplicate_rows_clamp_to_exact_zero(self, rng):
        a, b = kernel_inputs(rng, 65, 601)
        unclamped = (
            np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
            - 2.0 * (a @ b.T)
        )
        below = unclamped < 0
        assert below.any()   # the clamp has rounding to undo
        sq = gp_module.distance_kernel(a, b, np.sum(b * b, axis=1), lambda sq: None)
        assert not np.signbit(sq).any() and np.all(sq[below] == 0.0)
        assert np.all(rbf_kernel(a, b, 1.0, 1.7)[below] == 1.7)

    def test_gram_peaks_at_one_buffer(self, rng):
        n = 2000
        x = rng.normal(size=(n, 20))
        tracemalloc.start()
        try:
            rbf_kernel(x, x, 1.0, 1.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n * n * 8 + (1 << 20)   # the out-of-place formula took three


# (n, d, length_scale, signal_var, noise_var) of the factor tests: one row,
# rows below a panel, a one-row panel before full ones, a size whose whole
# x @ x.T rounds differently at 1 and 2 OpenBLAS threads, and the 2 000-row
# cap
FACTOR_KERNELS = [
    (1, 1, 2.0, 1.0, 1e-4),
    (3, 1, 2.0, 1.0, 1e-4),
    (64, 4, 0.6, 2.5, 1e-2),
    (gp_module._PANEL + 1, 3, 1.0, 1.0, 1e-2),
    (400, 20, 1.0, 1.0, 1e-4),
    (900, 20, 1.0, 1.0, 1e-3),
    (2000, 20, 1.0, 1.3, 1e-3),
]


def _factor_case(n, d, *hyper):
    """Inputs, target and hyperparameters of one FACTOR_KERNELS row."""
    rng = np.random.default_rng(n)
    return rng.normal(size=(n, d)), rng.normal(size=n), GpHyper(*hyper)


# Prints the sha256 of each FACTOR_KERNELS fit's factor and alpha, drawn as
# _factor_case draws them.
_FACTOR_DIGESTS = f"""
import hashlib
import numpy as np
from eskin.learners import GpHyper, gp_fit
for n, d, *hyper in {FACTOR_KERNELS!r}:
    rng = np.random.default_rng(n)
    model = gp_fit(rng.normal(size=(n, d)), rng.normal(size=n), GpHyper(*hyper))
    print(hashlib.sha256(model.chol.tobytes() + model.alpha.tobytes()).hexdigest())
"""

# Prints how far the peak RSS grows across one gp_fit at n = 2 000, in
# n^2 * 8 bytes. It reads VmHWM, the peak of this process image: across
# fork and exec, Linux carries the parent's peak into ru_maxrss, so a child
# of a large test process would read growth 0.
_FIT_RSS = """
import numpy as np
from eskin.learners import gp_fit

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(row.split()[1]) for row in status if row.startswith("VmHWM:"))

rng = np.random.default_rng(0)
n = 2000
gp_fit(rng.normal(size=(300, 20)), rng.normal(size=300))   # first-use set-up
x, y = rng.normal(size=(n, 20)), rng.normal(size=n)
before = peak_kb()
gp_fit(x, y)
print((peak_kb() - before) * 1024 / (n * n * 8))
"""


def _run(code, threads="1"):
    # the BLAS thread count is read once, at import: a fresh interpreter
    env = eskin_env() | {"OPENBLAS_NUM_THREADS": threads}
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


class TestInPlaceFactor:
    """The panel factor and its substitutions: the bits of a fixed order,
    LAPACK's values, and one n x n buffer."""

    def test_bits_do_not_depend_on_the_thread_count(self):
        ones = _run(_FACTOR_DIGESTS, "1")
        assert len(ones) == len(FACTOR_KERNELS)
        assert _run(_FACTOR_DIGESTS, "2") == ones

    @pytest.mark.parametrize("row", FACTOR_KERNELS, ids=lambda row: f"n{row[0]}")
    def test_matches_lapack_and_a_dense_solve(self, row):
        x, y, hyper = _factor_case(*row)
        model = gp_fit(x, y, hyper)
        k = rbf_kernel(
            model.train_inputs, model.train_inputs, hyper.length_scale, hyper.signal_var
        )
        k[np.diag_indices_from(k)] += hyper.noise_var
        want_chol = np.linalg.cholesky(k)
        want_alpha = np.linalg.solve(k, y - y.mean())
        chol = model.chol
        assert np.max(np.abs(chol - want_chol)) <= 1e-12 * np.max(np.abs(want_chol))
        assert np.max(np.abs(model.alpha - want_alpha)) <= 1e-12 * np.max(
            np.abs(want_alpha)
        )
        assert not np.triu(chol, 1).any()   # exact zeros above the diagonal

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux")
    def test_fit_rss_grows_by_one_kernel_buffer(self):
        # LAPACK's work copy is malloc'd where tracemalloc does not see it;
        # the RSS does (the LAPACK factor and LU solves grew it by 2.2)
        assert float(_run(_FIT_RSS)[0]) < 1.3

    def test_not_positive_definite_raises_without_a_warning(self, rng):
        x = np.repeat(rng.normal(size=(20, 3)), 2, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationError, match=(
                r"^kernel matrix is not positive definite \(duplicate inputs with "
                r"zero noise\?\); add jitter via noise_var$"
            )):
                gp_fit(x, rng.normal(size=40), GpHyper(noise_var=0.0))

    def test_fit_peaks_at_the_kernel_buffer(self, rng):
        n = 1000
        x, y = rng.normal(size=(n, 20)), rng.normal(size=n)
        tracemalloc.start()
        try:
            gp_fit(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a fresh factor beside the kernel took 2.04
        assert peak < 1.25 * n * n * 8


class TestGpHyper:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length_scale": 0.0},
            {"length_scale": -1.0},
            {"signal_var": 0.0},
            {"noise_var": -1e-9},
            {"length_scale": math.nan},
            {"length_scale": math.inf},
            {"signal_var": math.nan},
            {"noise_var": math.nan},
            {"noise_var": math.inf},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            GpHyper(**kwargs)

    def test_dict_round_trip(self):
        h = GpHyper(length_scale=1.5, signal_var=2.0, noise_var=1e-3)
        assert from_dict(GpHyper, to_dict(h)) == h


class TestFitExamples:
    def test_single_point_zero_noise_interpolates(self):
        model = gp_fit(
            np.array([[2.0]]), np.array([7.0]), GpHyper(noise_var=0.0)
        )
        mean, std = gp_predict(model, np.array([[2.0]]))
        assert mean[0] == pytest.approx(7.0, abs=1e-9)
        assert std[0] == pytest.approx(0.0, abs=1e-7)

    def test_two_point_posterior_raw_space(self):
        # inputs of column mean 0 and std 1: the scaler is the identity
        x = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        hyper = GpHyper(length_scale=1.0, signal_var=1.0, noise_var=0.1)
        model = gp_fit(x, y, hyper)
        assert np.array_equal(model.train_inputs, x)
        q = np.array([[0.25], [2.0]])
        mean, std = gp_predict(model, q)
        # the 2x2 system solved explicitly
        k = np.exp(-0.5 * (x - x.T) ** 2) + 0.1 * np.eye(2)
        yc = y - 0.5
        ks = np.exp(-0.5 * (q - x.T) ** 2)
        want_mean = ks @ np.linalg.solve(k, yc) + 0.5
        want_var = 1.0 - np.sum(ks * np.linalg.solve(k, ks.T).T, axis=1)
        assert np.allclose(mean, want_mean, atol=1e-9)
        assert np.allclose(std, np.sqrt(want_var), atol=1e-9)

    def test_duplicate_inputs_zero_noise_fail(self):
        with pytest.raises(FactorizationError):
            gp_fit(
                np.array([[1.0], [1.0]]),
                np.array([0.0, 1.0]),
                GpHyper(noise_var=0.0),
            )

    def test_zero_noise_interpolates_training_targets(self):
        x = np.array([[0.0], [1.0], [2.5]])
        y = np.array([1.0, -1.0, 0.5])
        model = gp_fit(x, y, GpHyper(noise_var=0.0))
        mean, std = gp_predict(model, x)
        assert np.allclose(mean, y, atol=1e-7)
        assert np.all(std < 1e-6)

    def test_far_query_reverts_to_prior(self):
        x = np.array([[2.0], [-1.0], [0.0], [-1.0], [0.0], [0.0]])   # mean 0, std 1
        y = np.array([3.0, 4.0, 5.0, 4.0, 5.0, 3.0])
        hyper = GpHyper(length_scale=1.0, signal_var=1.0, noise_var=1e-4)
        model = gp_fit(x, y, hyper)
        assert np.array_equal(model.train_inputs, x)
        mean, std = gp_predict(model, np.array([[1e3]]))
        assert mean[0] == pytest.approx(4.0, abs=1e-9)   # prior mean = target mean
        assert std[0] == pytest.approx(1.0, abs=1e-9)

    def test_three_point_dense_reference(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        y = np.array([0.5, -0.25, 1.5])
        hyper = GpHyper(length_scale=1.2, signal_var=1.4, noise_var=1e-3)
        model = gp_fit(x, y, hyper)
        q = np.array([[0.5, 0.5], [3.0, -1.0]])
        mean, std = gp_predict(model, q)
        want_mean, want_std = gp_dense_oracle(x, y, q, 1.2, 1.4, 1e-3)
        assert np.allclose(mean, want_mean, atol=1e-9)
        assert np.allclose(std, want_std, atol=1e-9)


class TestFitMechanics:
    def test_cholesky_reconstructs_kernel(self, rng):
        x = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        hyper = GpHyper(length_scale=1.0, noise_var=1e-2)
        model = gp_fit(x, y, hyper)
        k = rbf_kernel(
            model.train_inputs, model.train_inputs, 1.0, hyper.signal_var
        )
        k[np.diag_indices_from(k)] += 1e-2
        assert np.allclose(model.chol @ model.chol.T, k, atol=1e-8)

    def test_cap_subsamples_in_dataset_order(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = np.arange(10.0)
        model = gp_fit(x, y, cap=4, seed=0)
        rows = model.train_inputs[:, 0]
        assert rows.shape == (4,)
        # the scaler is fitted on the kept rows and maps each row on its own
        # bits, keeping the order
        assert np.all(np.diff(rows) > 0)
        assert set(rows).issubset(set(model.scaler.transform(x)[:, 0]))

    @pytest.mark.parametrize("cap", [8, 30, 50])
    def test_records_rows_offered(self, cap):
        x = np.arange(30.0).reshape(-1, 1)
        model = gp_fit(x, np.sin(x[:, 0]), cap=cap)
        assert model.rows_offered == len(x)
        assert model.train_inputs.shape[0] == min(cap, len(x))

    def test_from_dict_rejects_rows_offered_below_rows_kept(self, rng):
        d = to_dict(gp_fit(rng.normal(size=(5, 2)), rng.normal(size=5)))
        d["rows_offered"] = 4
        with pytest.raises(ValidationError, match="rows_offered 4 is below the 5"):
            from_dict(GpModel, d)

    def test_cap_is_deterministic(self):
        x = np.arange(30.0).reshape(-1, 1)
        y = np.sin(x[:, 0])
        a = gp_fit(x, y, cap=8, seed=3)
        b = gp_fit(x, y, cap=8, seed=3)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.train_inputs, b.train_inputs)

    def test_mean_offset_is_target_mean(self):
        y = np.array([2.0, 4.0, 9.0])
        model = gp_fit(np.array([[0.0], [1.0], [2.0]]), y)
        assert model.mean_offset == pytest.approx(5.0, abs=1e-12)

    def test_predict_feature_mismatch(self):
        model = gp_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            gp_predict(model, np.array([[0.0, 1.0]]))

    def test_model_dict_round_trip(self, rng):
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        model = gp_fit(x, y, GpHyper(length_scale=1.5))
        d = to_dict(model)
        assert "chol" not in d
        back = from_dict(GpModel, d)
        q = rng.normal(size=(4, 2))
        m0, s0 = gp_predict(model, q)
        m1, s1 = gp_predict(back, q)
        # the loaded model refactorises exactly as gp_fit did
        assert np.array_equal(m0, m1)
        assert np.array_equal(s0, s1)
        assert np.array_equal(back.chol, model.chol)
        assert log_marginal_likelihood(back) == log_marginal_likelihood(model)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: edit_array(d, "alpha", lambda a: a[:-1]),
            lambda d: edit_array(d, "alpha", lambda a: np.append(a, 0.0)),
            lambda d: edit_array(d, "alpha", lambda a: a[None, :]),
            lambda d: edit_array(d, "train_inputs", lambda a: a[0]),
            lambda d: edit_array(d, "mean_offset", lambda a: a[None]),
        ],
    )
    def test_from_dict_rejects_disagreeing_shapes(self, rng, edit):
        d = to_dict(gp_fit(rng.normal(size=(5, 2)), rng.normal(size=5)))
        edit(d)
        with pytest.raises(ValidationError, match="disagree"):
            from_dict(GpModel, d)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: edit_array(d, "alpha", lambda a: a.__setitem__(0, math.nan)),
             "GP alpha must be finite"),
            (lambda d: edit_array(d, "alpha", lambda a: a.__setitem__(2, -math.inf)),
             "GP alpha must be finite"),
            (lambda d: edit_array(d, "train_inputs", lambda a: a.__setitem__((1, 0), math.inf)),
             "GP train_inputs must be finite"),
        ],
    )
    def test_from_dict_rejects_non_finite_values(self, rng, edit, match):
        d = to_dict(gp_fit(rng.normal(size=(5, 2)), rng.normal(size=5)))
        edit(d)
        with pytest.raises(ValidationError, match=match):
            from_dict(GpModel, d)

    @pytest.mark.parametrize("offset", [math.nan, -math.inf])
    def test_non_finite_mean_offset_is_refused(self, rng, offset):
        model = gp_fit(rng.normal(size=(5, 2)), rng.normal(size=5))
        with pytest.raises(ValidationError, match="GP mean_offset must be finite"):
            dataclasses.replace(model, mean_offset=offset)

    def test_disagreeing_shapes_raise_a_toolkit_error(self, rng):
        # an EskinError, so a caller's `except EskinError` sees it
        model = gp_fit(rng.normal(size=(5, 2)), rng.normal(size=5))
        with pytest.raises(EskinError, match="disagree"):
            dataclasses.replace(model, alpha=model.alpha[:-1])
        with pytest.raises(EskinError, match="rows_offered 4 is below"):
            dataclasses.replace(model, rows_offered=4)

    def test_scaler_must_read_the_inputs_width(self, rng):
        # refused on construction, not as a broadcast error in gp_predict
        model = gp_fit(rng.normal(size=(5, 3)), rng.normal(size=5))
        narrow = Standardizer(mean=np.zeros(2), scale=np.ones(2))
        with pytest.raises(
            ValidationError, match="GP scaler reads 2 features but train_inputs have 3"
        ):
            dataclasses.replace(model, scaler=narrow)

    def test_cached_norms_give_the_recomputed_mean(self, rng):
        model = gp_fit(rng.normal(size=(40, 3)), rng.normal(size=40), GpHyper(1.3))
        assert np.array_equal(
            model.train_sq, np.sum(model.train_inputs * model.train_inputs, axis=1)
        )
        q = rng.normal(size=(7, 3))
        for rows in (q, q[:1]):
            ks = rbf_kernel(   # squared norms recomputed from the rows
                model.scaler.transform(rows),
                model.train_inputs,
                model.hyper.length_scale,
                model.hyper.signal_var,
            )
            mean, _ = gp_predict(model, rows, std=False)
            assert np.array_equal(mean, ks @ model.alpha + model.mean_offset)

    def test_cached_norms_stay_out_of_equality_dict_and_repr(self, rng):
        model = gp_fit(rng.normal(size=(6, 2)), rng.normal(size=6))
        other = dataclasses.replace(model)
        assert "train_sq" not in vars(other)   # a copy computes its own
        vars(other)["train_sq"] = model.train_sq + 1.0
        assert model == other
        assert "train_sq" not in to_dict(model)
        assert "train_sq" not in repr(model)

    def test_fit_keeps_the_factor_it_computed(self, rng, monkeypatch):
        factors, factor = [], gp_module._factor

        def recording_factor(*args):
            factors.append(factor(*args))
            return factors[-1]

        monkeypatch.setattr(gp_module, "_factor", recording_factor)
        model = gp_fit(rng.normal(size=(8, 2)), rng.normal(size=8))
        assert len(factors) == 1
        assert model.chol is factors[0]
        log_marginal_likelihood(model)
        assert len(factors) == 1   # the likelihood reuses it
        assert "chol" not in vars(dataclasses.replace(model))

    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is not a dependency: no path may import it, the std included
        code = (
            "import sys, numpy as np\n"
            "import eskin.cli\n"
            "from eskin.learners import gp_fit, gp_predict\n"
            "assert 'scipy' not in sys.modules, 'scipy loaded by import'\n"
            "x = np.array([[0.0], [1.0], [2.0]])\n"
            "m = gp_fit(x, np.array([0.0, 1.0, 0.5]))\n"
            "gp_predict(m, x, std=False)\n"
            "assert 'scipy' not in sys.modules, 'scipy loaded by mean predict'\n"
            "mean, std = gp_predict(m, np.array([[0.5]]))\n"
            "assert std.shape == (1,) and np.isfinite(std).all()\n"
            "assert 'scipy' not in sys.modules, 'scipy loaded by std predict'\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], env=eskin_env(), capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr

    def test_mean_only_predict(self, rng):
        x = rng.normal(size=(9, 3))
        y = rng.normal(size=9)
        model = gp_fit(x, y, GpHyper(length_scale=1.2))
        q = rng.normal(size=(5, 3))
        mean, std = gp_predict(model, q, std=False)
        full_mean, _ = gp_predict(model, q)
        assert std is None
        assert np.array_equal(mean, full_mean)


class TestOutputs:
    """An (n, k) target fits k outputs over one set of rows, scaler and
    factor; each output is bit for bit the 1-d fit on its column."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_output_is_its_one_column_fit(self, rng, k):
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=(30, k)) * [1.0, 5.0, -2.0][:k] + [0.5, 3.0, 7.0][:k]
        model = gp_fit(x, y, GpHyper(length_scale=1.3), cap=20, seed=4)
        assert model.alpha.shape == (k, 20) and model.mean_offset.shape == (k,)
        q = rng.normal(size=(7, 3))
        mean, std = gp_predict(model, q)
        assert mean.shape == (7, k)
        lmls = []
        for j in range(k):
            ref = gp_fit(x, y[:, j], GpHyper(length_scale=1.3), cap=20, seed=4)
            ref_mean, ref_std = gp_predict(ref, q)
            assert np.array_equal(model.train_inputs, ref.train_inputs)
            assert np.array_equal(model.chol, ref.chol)
            assert np.array_equal(model.alpha[j], ref.alpha)
            assert model.mean_offset[j] == ref.mean_offset
            assert np.array_equal(mean[:, j], ref_mean)
            assert np.array_equal(std, ref_std)
            lmls.append(log_marginal_likelihood(ref))
        assert log_marginal_likelihood(model) == sum(lmls)

    def test_one_output_keeps_1d_shapes(self, rng):
        model = gp_fit(rng.normal(size=(6, 2)), rng.normal(size=6))
        assert model.alpha.shape == (6,) and model.mean_offset.shape == ()
        mean, std = gp_predict(model, rng.normal(size=(4, 2)))
        assert mean.shape == std.shape == (4,)

    def test_targets_need_one_or_two_dims_and_an_output(self, rng):
        x = rng.normal(size=(5, 2))
        with pytest.raises(ValidationError, match="y must be 1-d or 2-d"):
            gp_fit(x, np.zeros((5, 2, 1)))
        with pytest.raises(ValidationError, match="disagree"):
            gp_fit(x, np.zeros((5, 0)))

    def test_grid_search_sums_the_outputs(self, rng):
        # a smooth output and a noisy, faster one: each alone would pick
        # another cell than their sum does
        x = np.linspace(0.0, 6.0, 40).reshape(-1, 1)
        y = np.column_stack((np.sin(0.2 * x[:, 0]), 0.3 * np.sin(x[:, 0])))
        y[:, 1] += rng.normal(0.0, 0.1, 40)
        grid = [(ell, nv) for ell in (1.0, 2.0, 4.0) for nv in (1e-4, 1e-2)]

        def best(target):
            lml = {
                cell: log_marginal_likelihood(
                    gp_fit(x, target, GpHyper(length_scale=cell[0], noise_var=cell[1]))
                )
                for cell in grid
            }
            return max(grid, key=lml.get), lml

        model, lml = gp_grid_search(x, y)
        hyper = model.hyper
        cell, cells = best(y)
        assert (hyper.length_scale, hyper.noise_var) == cell
        assert lml == cells[cell]
        assert cell not in (best(y[:, 0])[0], best(y[:, 1])[0])


class TestMarginalLikelihood:
    def test_matches_direct_formula(self, rng):
        # columns of mean 0 and std 1, on which the scaler is the identity
        x = np.array([[-1.0, 2.0], [1.0, -1.0], [-1.0, -1.0], [1.0, 0.0],
                      [-1.0, 0.0], [1.0, 0.0]])
        y = rng.normal(size=6)
        hyper = GpHyper(length_scale=1.0, noise_var=1e-2)
        model = gp_fit(x, y, hyper)
        assert np.array_equal(model.train_inputs, x)
        k = rbf_kernel(x, x, 1.0, 1.0)
        k[np.diag_indices_from(k)] += 1e-2
        yc = y - y.mean()
        sign, logdet = np.linalg.slogdet(k)
        want = (
            -0.5 * yc @ np.linalg.solve(k, yc)
            - 0.5 * logdet
            - 0.5 * 6 * math.log(2.0 * math.pi)
        )
        assert sign > 0
        assert log_marginal_likelihood(model) == pytest.approx(want, abs=1e-8)


class TestGridSearch:
    def test_picks_best_cell(self, rng):
        x = np.linspace(0.0, 6.0, 40).reshape(-1, 1)
        y = np.sin(x[:, 0]) + rng.normal(0.0, 0.05, 40)
        model, lml = gp_grid_search(x, y)
        hyper = model.hyper
        assert hyper.length_scale in (1.0, 2.0, 4.0)
        assert hyper.noise_var in (1e-4, 1e-2)
        best = -np.inf
        from dataclasses import replace

        for ell in (1.0, 2.0, 4.0):
            for nv in (1e-4, 1e-2):
                m = gp_fit(x, y, replace(GpHyper(), length_scale=ell, noise_var=nv))
                best = max(best, log_marginal_likelihood(m))
        assert lml == pytest.approx(best, abs=1e-9)

    def test_returns_the_fit_of_the_pick(self, rng):
        # every cell fits the capped subsample of all the rows it is given,
        # so the winner is the model a fit with the picked cell makes
        x = rng.normal(size=(30, 2))
        y = np.column_stack((rng.normal(size=30), rng.normal(size=30)))
        model, lml = gp_grid_search(x, y, cap=20, seed=3)
        refit = gp_fit(x, y, model.hyper, cap=20, seed=3)
        assert model.rows_offered == refit.rows_offered == 30
        for name in ("train_inputs", "alpha", "mean_offset"):
            assert np.array_equal(getattr(model, name), getattr(refit, name))
        assert lml == log_marginal_likelihood(refit)


@given(
    n=st.integers(1, 5),
    d=st.integers(1, 3),
    seed=st.integers(0, 5_000),
)
def test_posterior_matches_dense_inverse(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, d))
    y = rng.normal(0.0, 1.0, n)
    hyper = GpHyper(length_scale=1.5, signal_var=1.2, noise_var=1e-3)
    model = gp_fit(x, y, hyper)
    q = rng.normal(0.0, 1.0, (3, d))
    mean, std = gp_predict(model, q)
    want_mean, want_std = gp_dense_oracle(x, y, q, 1.5, 1.2, 1e-3)
    assert np.allclose(mean, want_mean, atol=1e-9)
    assert np.allclose(std, want_std, atol=1e-9)
