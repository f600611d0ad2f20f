"""Least-squares regression against the normal-equation oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eskin import SingularDesignError, ValidationError
from eskin.codec import from_dict, to_dict
from eskin.learners import LinearModel, Standardizer, ols_fit, ols_predict

from .oracles import ols_normal_oracle


class TestPinnedExamples:
    def test_two_point_identity_line(self):
        m = ols_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        assert m.weights[0] == pytest.approx(1.0, abs=1e-10)
        assert m.intercept == pytest.approx(0.0, abs=1e-10)

    def test_three_point_line(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 2.0, 3.0])
        m = ols_fit(x, y)
        # Sxy/Sxx = 3/2, intercept = mean residual = 1/6
        assert m.weights[0] == pytest.approx(1.5, abs=1e-10)
        assert m.intercept == pytest.approx(1.0 / 6.0, abs=1e-10)
        pred = ols_predict(m, np.array([[1.0]]))
        assert pred[0] == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_predict_with_given_model(self):
        m = LinearModel(weights=np.array([1.0]), intercept=0.0)
        assert ols_predict(m, np.array([[2.0]]))[0] == pytest.approx(2.0)

    def test_predict_empty_input(self):
        m = LinearModel(weights=np.array([1.0, 2.0]), intercept=0.5)
        out = ols_predict(m, np.empty((0, 2)))
        assert out.shape == (0,)

    def test_constant_column_is_singular(self):
        x = np.array([[1.0, 3.0], [2.0, 3.0], [4.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(SingularDesignError):
            ols_fit(x, y)


class TestValidation:
    def test_underdetermined_rejected(self):
        with pytest.raises(SingularDesignError):
            ols_fit(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ols_fit(np.empty((0, 1)), np.empty(0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ols_fit(np.array([[1.0], [2.0]]), np.array([1.0]))

    def test_duplicated_column_rejected(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [5.0, 5.0]])
        with pytest.raises(SingularDesignError):
            ols_fit(x, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_predict_shape_checks(self):
        m = LinearModel(weights=np.array([1.0, 2.0]), intercept=0.0)
        with pytest.raises(ValidationError):
            ols_predict(m, np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            ols_predict(m, np.array([[1.0, 2.0, 3.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            ols_fit(np.array([[1.0], [np.nan], [2.0]]), np.array([1.0, 2.0, 3.0]))


@given(
    n=st.integers(6, 40),
    d=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_matches_normal_equation_oracle(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, d))
    w = rng.normal(0.0, 2.0, d)
    y = x @ w + rng.normal(0.0, 0.1, n) + 0.7
    m = ols_fit(x, y)
    ow, ob = ols_normal_oracle(x, y)
    assert np.allclose(m.weights, ow, atol=1e-8)
    assert m.intercept == pytest.approx(ob, abs=1e-8)


def test_fit_recovers_exact_plane():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 3))
    y = x @ np.array([2.0, -1.0, 0.5]) + 4.0
    m = ols_fit(x, y)
    assert np.allclose(m.weights, [2.0, -1.0, 0.5], atol=1e-9)
    assert m.intercept == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(ols_predict(m, x), y, atol=1e-8)


@pytest.mark.parametrize(
    "weights, intercept",
    [((1.0, np.nan), 0.0), ((np.inf,), 0.0), ((1.0,), -np.inf), ((1.0,), np.nan)],
)
def test_model_rejects_non_finite_coefficients(weights, intercept):
    with pytest.raises(ValidationError, match="(linear weights|intercept) must be finite"):
        LinearModel(weights=np.array(weights), intercept=intercept)


@pytest.mark.parametrize("weights", [np.float64(1.0), np.ones((1, 2))])
def test_model_rejects_weights_that_are_not_1d(weights):
    with pytest.raises(ValidationError, match="must be 1-d"):
        LinearModel(weights=np.asarray(weights), intercept=0.0)


@pytest.mark.parametrize(
    "mean, scale, match",
    [
        ((0.0, np.nan), (1.0, 1.0), "mean must be finite"),
        ((np.inf, 0.0), (1.0, 1.0), "mean must be finite"),
        ((0.0, 0.0), (0.0, 0.0), "scale must be finite and > 0"),
        ((0.0, 0.0), (1.0, -2.0), "scale must be finite and > 0"),
        ((0.0, 0.0), (np.inf, 1.0), "scale must be finite and > 0"),
        ((0.0, 0.0), (1.0, np.nan), "scale must be finite and > 0"),
        ((), (1.0, 1.0), r"mean \(0,\) and scale \(2,\) must be 1-d and of one length"),
        ((0.0, 0.0), (1.0,), r"mean \(2,\) and scale \(1,\)"),
        (((0.0, 0.0),), ((1.0, 1.0),), r"mean \(1, 2\) and scale \(1, 2\)"),
    ],
)
def test_standardizer_rejects_invalid_statistics(mean, scale, match):
    with pytest.raises(ValidationError, match=match):
        Standardizer(mean=np.array(mean), scale=np.array(scale))


def test_model_dict_round_trip():
    m = ols_fit(np.array([[0.0], [1.0], [3.0]]), np.array([1.0, 2.0, 5.0]))
    back = from_dict(LinearModel, to_dict(m))
    assert back == m
