"""Gaussian process regression: kernel identities, posterior checks against a
dense-inverse reference, and the likelihood-driven grid search."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eskin import FactorizationError, ValidationError
from eskin.learners import (
    GpHyper,
    GpModel,
    gp_fit,
    gp_grid_search,
    gp_predict,
    log_marginal_likelihood,
    rbf_kernel,
)

from .oracles import gp_dense_oracle


class TestRbfKernel:
    def test_identical_points_unit_signal(self):
        a = np.array([1.0, 2.0, 3.0])
        assert rbf_kernel(a, a, length_scale=0.7) == pytest.approx(1.0, abs=1e-12)

    def test_distance_sqrt2_ell(self):
        ell = 1.5
        a = np.array([0.0, 0.0])
        b = np.array([ell * math.sqrt(2.0), 0.0])
        k = rbf_kernel(a, b, length_scale=ell)
        assert k == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert k == pytest.approx(0.3678794, abs=1e-7)

    def test_signal_variance_scales_peak(self):
        a = np.array([4.0])
        assert rbf_kernel(a, a, 1.0, signal_var=2.0) == pytest.approx(2.0, abs=1e-12)

    def test_gram_symmetry_and_bounds(self, rng):
        x = rng.normal(size=(8, 3))
        k = rbf_kernel(x, x, length_scale=1.3, signal_var=1.7)
        assert np.allclose(k, k.T, atol=1e-12)
        assert np.all(k > 0.0)
        assert np.all(k <= 1.7 + 1e-12)

    def test_invalid_length_scale(self):
        with pytest.raises(ValidationError):
            rbf_kernel(np.array([0.0]), np.array([1.0]), length_scale=0.0)


class TestGpHyper:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length_scale": 0.0},
            {"length_scale": -1.0},
            {"signal_var": 0.0},
            {"noise_var": -1e-9},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            GpHyper(**kwargs)

    def test_dict_round_trip(self):
        h = GpHyper(length_scale=1.5, signal_var=2.0, noise_var=1e-3)
        assert GpHyper.from_dict(h.to_dict()) == h


class TestFitExamples:
    def test_single_point_zero_noise_interpolates(self):
        model = gp_fit(
            np.array([[2.0]]), np.array([7.0]), GpHyper(noise_var=0.0)
        )
        mean, std = gp_predict(model, np.array([[2.0]]))
        assert mean[0] == pytest.approx(7.0, abs=1e-9)
        assert std[0] == pytest.approx(0.0, abs=1e-7)

    def test_two_point_posterior_raw_space(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        hyper = GpHyper(length_scale=1.0, signal_var=1.0, noise_var=0.1)
        model = gp_fit(x, y, hyper, standardize=False)
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
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([3.0, 4.0, 5.0])
        hyper = GpHyper(length_scale=1.0, signal_var=1.0, noise_var=1e-4)
        model = gp_fit(x, y, hyper, standardize=False)
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
        model = gp_fit(x, y, cap=4, seed=0, standardize=False)
        rows = model.train_inputs[:, 0]
        assert rows.shape == (4,)
        assert np.all(np.diff(rows) > 0)
        assert set(rows).issubset(set(x[:, 0]))

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
        assert model.hyper.mean_offset == pytest.approx(5.0, abs=1e-12)

    def test_predict_feature_mismatch(self):
        model = gp_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            gp_predict(model, np.array([[0.0, 1.0]]))

    def test_model_dict_round_trip(self, rng):
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        model = gp_fit(x, y, GpHyper(length_scale=1.5))
        d = model.to_dict()
        assert "chol" not in d
        back = GpModel.from_dict(d)
        q = rng.normal(size=(4, 2))
        m0, s0 = gp_predict(model, q)
        m1, s1 = gp_predict(back, q)
        # the loaded model refactorises exactly as gp_fit did
        assert np.array_equal(m0, m1)
        assert np.array_equal(s0, s1)
        assert np.array_equal(back.chol, model.chol)
        assert log_marginal_likelihood(back) == log_marginal_likelihood(model)

    def test_mean_only_predict(self, rng):
        x = rng.normal(size=(9, 3))
        y = rng.normal(size=9)
        model = gp_fit(x, y, GpHyper(length_scale=1.2))
        q = rng.normal(size=(5, 3))
        mean, std = gp_predict(model, q, std=False)
        full_mean, _ = gp_predict(model, q)
        assert std is None
        assert np.array_equal(mean, full_mean)


class TestMarginalLikelihood:
    def test_matches_direct_formula(self, rng):
        x = rng.normal(size=(7, 2))
        y = rng.normal(size=7)
        hyper = GpHyper(length_scale=1.0, noise_var=1e-2)
        model = gp_fit(x, y, hyper, standardize=False)
        k = rbf_kernel(x, x, 1.0, 1.0)
        k[np.diag_indices_from(k)] += 1e-2
        yc = y - y.mean()
        sign, logdet = np.linalg.slogdet(k)
        want = (
            -0.5 * yc @ np.linalg.solve(k, yc)
            - 0.5 * logdet
            - 0.5 * 7 * math.log(2.0 * math.pi)
        )
        assert sign > 0
        assert log_marginal_likelihood(model) == pytest.approx(want, abs=1e-8)
        assert log_marginal_likelihood(model, y) == pytest.approx(want, abs=1e-8)

    def test_target_shape_mismatch(self):
        model = gp_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            log_marginal_likelihood(model, np.array([0.0, 1.0, 2.0]))


class TestGridSearch:
    def test_picks_best_cell(self, rng):
        x = np.linspace(0.0, 6.0, 40).reshape(-1, 1)
        y = np.sin(x[:, 0]) + rng.normal(0.0, 0.05, 40)
        hyper, lml = gp_grid_search(x, y)
        assert hyper.length_scale in (1.0, 2.0, 4.0)
        assert hyper.noise_var in (1e-4, 1e-2)
        best = -np.inf
        from dataclasses import replace

        for ell in (1.0, 2.0, 4.0):
            for nv in (1e-4, 1e-2):
                m = gp_fit(x, y, replace(GpHyper(), length_scale=ell, noise_var=nv))
                best = max(best, log_marginal_likelihood(m))
        assert lml == pytest.approx(best, abs=1e-9)

    def test_carries_mean_offset(self):
        x = np.linspace(0.0, 1.0, 10).reshape(-1, 1)
        y = x[:, 0] + 10.0
        hyper, _ = gp_grid_search(x, y)
        assert hyper.mean_offset == pytest.approx(y.mean(), abs=1e-12)


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
