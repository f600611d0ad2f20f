"""Kernel SVM: pinned separable fixtures, dual feasibility, KKT convergence,
and solver determinism."""

import numpy as np
import pytest

from eskin import ConvergenceError, DegenerateLabelsError, ValidationError
from eskin.codec import from_dict, to_dict
from eskin.learners import svm as svm_module
from eskin.learners import (
    Standardizer,
    SvmConfig,
    SvmModel,
    svm_decision_function,
    svm_fit,
    svm_predict,
)

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([-1.0, -1.0, 1.0, 1.0])


def two_clusters():
    x = np.array([[-2.0], [-1.9], [1.9], [2.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    return x, y


def blob_problem(seed=0, n_neg=20, n_pos=30):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [
            rng.normal(-2.0, 0.4, (n_neg, 2)),
            rng.normal(2.0, 0.4, (n_pos, 2)),
        ]
    )
    y = np.concatenate([-np.ones(n_neg), np.ones(n_pos)])
    return x, y


def detection_problem(ds):
    """The detector's training problem, as train_single builds it."""
    x = Standardizer.fit(ds.x).transform(ds.x)
    return x, np.where(ds.label("node_x") != 0, 1.0, -1.0)


def kkt_gap(model, x, y, config):
    """m(alpha) - M(alpha), recomputed from the returned model alone."""
    match = (x[:, None, :] == model.support_inputs[None, :, :]).all(axis=2)
    assert np.all(match.sum(axis=0) == 1)
    alpha = match @ np.abs(model.dual_coefs)
    yg = y - (svm_decision_function(model, x) - model.bias)
    w_neg, w_pos = model.class_weights
    box = np.where(y > 0, config.c * w_pos, config.c * w_neg)
    up = np.where(y > 0, alpha < box, alpha > 0)
    low = np.where(y > 0, alpha > 0, alpha < box)
    return yg[up].max() - yg[low].min()


class TestPinnedFixtures:
    def test_two_clusters_perfect(self):
        x, y = two_clusters()
        model = svm_fit(x, y)
        assert np.array_equal(svm_predict(model, x), y)

    def test_xor_gamma1_c10(self):
        model = svm_fit(XOR_X, XOR_Y, SvmConfig(c=10.0, gamma=1.0))
        assert np.array_equal(svm_predict(model, XOR_X), XOR_Y)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            svm_fit(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))

    def test_non_pm1_labels_rejected(self):
        with pytest.raises(ValidationError):
            svm_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            svm_fit(np.empty((0, 2)), np.empty(0))


class TestDualFeasibility:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_constraints_hold_on_blobs(self, seed):
        x, y = blob_problem(seed)
        config = SvmConfig(c=5.0, gamma=0.8)
        model = svm_fit(x, y, config)
        # equality constraint: coefs are alpha_i y_i, non-support alphas are 0
        assert abs(model.dual_coefs.sum()) < 1e-6
        w_neg, w_pos = model.class_weights
        pos = model.dual_coefs[model.dual_coefs > 0]
        neg = model.dual_coefs[model.dual_coefs < 0]
        assert np.all(pos <= config.c * w_pos + 1e-9)
        assert np.all(-neg <= config.c * w_neg + 1e-9)
        assert model.dual_coefs.shape[0] > 0
        assert np.all(model.dual_coefs != 0.0)
        assert kkt_gap(model, x, y, config) <= config.tol

    def test_constraints_hold_on_xor(self):
        model = svm_fit(XOR_X, XOR_Y, SvmConfig(c=10.0, gamma=1.0))
        assert abs(model.dual_coefs.sum()) < 1e-6

    def test_default_weights_inverse_frequency(self):
        x = np.array([[-1.0], [-0.9], [1.0], [1.1], [1.2], [0.9]])
        y = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        model = svm_fit(x, y)
        assert model.class_weights[0] == pytest.approx(6 / 4)
        assert model.class_weights[1] == pytest.approx(6 / 8)

    def test_explicit_weights_respected(self):
        x, y = blob_problem(3)
        model = svm_fit(x, y, SvmConfig(class_weights=(2.0, 0.5)))
        assert model.class_weights == (2.0, 0.5)


class TestConvergence:
    def test_kkt_gap_within_tol_on_detection_set(self, small_single_ds):
        x, y = detection_problem(small_single_ds)
        config = SvmConfig()
        assert kkt_gap(svm_fit(x, y, config), x, y, config) <= config.tol

    def test_two_row_cache_gives_identical_model(self, small_single_ds, monkeypatch):
        x, y = detection_problem(small_single_ds)
        full = svm_fit(x, y)
        monkeypatch.setattr(svm_module, "_CACHE_BYTES", 2 * 8 * x.shape[0])
        small = svm_fit(x, y)
        assert np.array_equal(full.dual_coefs, small.dual_coefs)
        assert np.array_equal(full.support_inputs, small.support_inputs)
        assert full.bias == small.bias

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(svm_module, "_ITERATIONS_PER_ROW", 1)
        with pytest.raises(ConvergenceError, match="cap of 4 iterations"):
            svm_fit(XOR_X, XOR_Y, SvmConfig(c=10.0, gamma=1.0))


class TestPrediction:
    def test_zero_decision_goes_positive(self):
        model = SvmModel(
            support_inputs=np.array([[0.0]]),
            dual_coefs=np.array([0.0]),
            bias=0.0,
            kernel_gamma=1.0,
            class_weights=(1.0, 1.0),
        )
        assert svm_predict(model, np.array([[5.0]]))[0] == 1.0

    def test_decision_sign_matches_labels(self):
        x, y = blob_problem(7)
        model = svm_fit(x, y)
        dec = svm_decision_function(model, x)
        assert np.all(np.sign(dec) == y)

    def test_feature_mismatch(self):
        x, y = two_clusters()
        model = svm_fit(x, y)
        with pytest.raises(ValidationError):
            svm_predict(model, np.array([[0.0, 1.0]]))

    def test_separable_blobs_perfect(self):
        x, y = blob_problem(11)
        model = svm_fit(x, y)
        assert np.array_equal(svm_predict(model, x), y)


class TestDeterminismAndSerialisation:
    def test_refit_is_bit_identical(self):
        x, y = blob_problem(2)
        a = svm_fit(x, y)
        b = svm_fit(x, y)
        assert np.array_equal(a.dual_coefs, b.dual_coefs)
        assert np.array_equal(a.support_inputs, b.support_inputs)
        assert a.bias == b.bias

    def test_dict_round_trip(self):
        x, y = blob_problem(9)
        model = svm_fit(x, y)
        back = from_dict(SvmModel, to_dict(model))
        q = np.array([[-2.0, -2.0], [2.0, 2.0], [0.0, 0.0]])
        assert np.allclose(
            svm_decision_function(model, q), svm_decision_function(back, q), atol=1e-12
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["dual_coefs"].pop(),
            lambda d: d["support_inputs"].append(d["support_inputs"][0]),
            lambda d: d.update(support_inputs=d["support_inputs"][0]),
        ],
    )
    def test_from_dict_rejects_disagreeing_shapes(self, edit):
        x, y = blob_problem(9)
        d = to_dict(svm_fit(x, y))
        edit(d)
        with pytest.raises(ValueError, match="disagree"):
            from_dict(SvmModel, d)

    def test_config_dict_round_trip(self):
        cfg = SvmConfig(c=3.0, gamma=0.2, class_weights=(1.5, 0.5))
        assert from_dict(SvmConfig, to_dict(cfg)) == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 0.0},
            {"gamma": -1.0},
            {"tol": 0.0},
            {"class_weights": (1.0,)},
            {"class_weights": (1.0, -1.0)},
            {"c": float("nan")},
            {"gamma": float("nan")},
            {"tol": float("nan")},
            {"class_weights": (1.0, float("nan"))},
            {"c": float("inf")},
            {"gamma": float("inf")},
            {"tol": float("inf")},
            {"class_weights": (float("inf"), 1.0)},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValidationError):
            SvmConfig(**kwargs)
