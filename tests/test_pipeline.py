"""Decoder stacks: training guards, estimate invariants, and bundle
round trips."""

import json

import numpy as np
import pytest

from eskin import (
    ContactEstimate,
    CoverageError,
    Dataset,
    NODE_ZERO,
    NodeCoord,
    PipelineConfig,
    SchemaError,
    SkinModel,
    TwoContactEstimate,
    TwoForceProtocol,
    ValidationError,
    generate_two_force_dataset,
    infer_single,
    infer_two,
    load_pipeline,
    save_pipeline,
    train_single,
    train_two,
)
from eskin.learners import gp as gp_module
from eskin.pipeline import (
    BUNDLE_SCHEMA_VERSION,
    pipeline_mode,
    predict_single_batch,
    predict_two_batch,
)


def _saved_force_models(path) -> list[dict]:
    pipeline = json.loads(path.read_text())["pipeline"]
    return [v for k, v in pipeline.items() if k.startswith("force")]


class TestEstimateInvariants:
    def test_undetected_must_be_blank(self):
        ContactEstimate(
            stretch=1.0, contact_detected=False, node=NODE_ZERO, force=0.0
        )
        with pytest.raises(ValidationError):
            ContactEstimate(
                stretch=1.0, contact_detected=False, node=NODE_ZERO, force=1.0
            )
        with pytest.raises(ValidationError):
            ContactEstimate(
                stretch=1.0, contact_detected=False, node=NodeCoord(3, 3), force=0.0
            )

    def test_negative_force_rejected(self):
        with pytest.raises(ValidationError):
            ContactEstimate(
                stretch=1.0, contact_detected=True, node=NodeCoord(1, 1), force=-0.1
            )

    def test_two_contact_ordering_enforced(self):
        a = (NodeCoord(1, 1), 1.0)
        b = (NodeCoord(6, 1), 2.0)
        TwoContactEstimate(contacts=(a, b))
        with pytest.raises(ValidationError):
            TwoContactEstimate(contacts=(b, a))

    def test_two_contact_limits(self):
        c = (NodeCoord(1, 1), 1.0)
        with pytest.raises(ValidationError):
            TwoContactEstimate(contacts=(c, c, c))
        with pytest.raises(ValidationError):
            TwoContactEstimate(contacts=((NodeCoord(1, 1), -1.0),))

    def test_coincident_prediction_allowed(self):
        c = (NodeCoord(6, 6), 1.5)
        est = TwoContactEstimate(contacts=(c, c))
        assert len(est.contacts) == 2


class TestTrainGuards:
    def test_single_schema_mismatch(self, two_ds):
        with pytest.raises(SchemaError):
            train_single(two_ds)

    def test_two_schema_mismatch(self, small_single_ds):
        with pytest.raises(SchemaError):
            train_two(small_single_ds)

    def test_single_empty(self):
        with pytest.raises(ValidationError):
            train_single(Dataset(()))

    def test_single_without_positives(self, small_single_ds):
        blanks = Dataset(
            tuple(s for s in small_single_ds if not s.node.is_contact)
        )
        with pytest.raises(CoverageError, match="no contact-positive samples"):
            train_single(blanks)

    def test_two_missing_axis_class(self, small_two_ds):
        # default config expects axis 10; the fixture grid stops at 6
        with pytest.raises(CoverageError, match="lacks protocol axis classes"):
            train_two(small_two_ds)

    def test_two_off_axis_coordinate(self):
        proto = TwoForceProtocol(
            node_axes=(1, 5, 6), forces=(0.0, 1.2936), reps=1
        )
        ds = generate_two_force_dataset(SkinModel(), proto)
        config = PipelineConfig(node_axes=(1, 6))
        with pytest.raises(ValidationError, match="outside node_axes"):
            train_two(ds, config)

    def test_two_empty(self, two_ds):
        empty = Dataset(samples=(), meta=two_ds.meta)
        with pytest.raises(CoverageError, match="every axis class is absent"):
            train_two(empty)


class TestSinglePredictions:
    def test_batch_output_contract(self, trained_single, small_single_ds):
        x = small_single_ds.features()[:50]
        out = predict_single_batch(trained_single, x)
        assert set(out) == {"stretch", "detected", "x_term", "y_term", "force"}
        for v in out.values():
            assert v.shape == (50,)
        assert out["detected"].dtype == bool
        assert np.all(out["force"] >= 0.0)
        assert np.all((out["x_term"] >= 1) & (out["x_term"] <= 10))
        assert np.all((out["y_term"] >= 1) & (out["y_term"] <= 10))

    def test_training_fit_quality(self, trained_single, small_single_ds):
        x = small_single_ds.features()
        out = predict_single_batch(trained_single, x)
        stretch_true = np.array([s.stretch for s in small_single_ds])
        assert np.corrcoef(stretch_true, out["stretch"])[0, 1] > 0.99
        detected_true = np.array([s.node.is_contact for s in small_single_ds])
        assert np.mean(out["detected"] == detected_true) > 0.97

    def test_infer_rest_frame_is_blank(self, trained_single, small_single_ds):
        rest = next(s for s in small_single_ds if not s.node.is_contact)
        est = infer_single(trained_single, rest.frame)
        assert not est.contact_detected
        assert est.node == NODE_ZERO
        assert est.force == 0.0

    def test_infer_firm_press_detected(self, trained_single, small_single_ds):
        pressed = next(
            s
            for s in small_single_ds
            if s.node == NodeCoord(5, 5) and s.force > 5.0 and s.stretch == 1.0
        )
        est = infer_single(trained_single, pressed.frame)
        assert est.contact_detected
        assert est.force > 0.5
        assert est.node.is_contact

    def test_infer_matches_batch(self, trained_single, small_single_ds):
        s = small_single_ds.samples[17]
        est = infer_single(trained_single, s.frame)
        out = predict_single_batch(trained_single, s.frame.as_vector()[None, :])
        assert est.contact_detected == bool(out["detected"][0])
        assert est.stretch == pytest.approx(float(out["stretch"][0]))
        if est.contact_detected:
            assert est.node.x == int(out["x_term"][0])
            assert est.node.y == int(out["y_term"][0])


class TestTwoPredictions:
    def test_batch_output_contract(self, trained_two, small_two_ds):
        x = small_two_ds.features()[:40]
        out = predict_two_batch(trained_two, x)
        assert set(out) == {"x1", "y1", "x2", "y2", "force1", "force2"}
        for key in ("x1", "y1", "x2", "y2"):
            assert set(np.unique(out[key])).issubset({1, 6})
        assert np.all(out["force1"] >= 0.0)
        assert np.all(out["force2"] >= 0.0)

    def test_infer_orders_by_node_id(self, trained_two, small_two_ds):
        for s in small_two_ds.samples[:20]:
            est = infer_two(trained_two, s.frame)
            assert len(est.contacts) == 2
            ids = [n.node_id for n, _ in est.contacts]
            assert ids == sorted(ids)
            for node, force in est.contacts:
                assert node.x in (1, 6) and node.y in (1, 6)
                assert force >= 0.0


class TestBundles:
    def test_single_round_trip(self, trained_single, small_single_ds, tmp_path):
        path = tmp_path / "bundle_single.json"
        save_pipeline(trained_single, path)
        back = load_pipeline(path)
        assert pipeline_mode(back) == "single"
        x = small_single_ds.features()[:30]
        a = predict_single_batch(trained_single, x)
        b = predict_single_batch(back, x)
        for key in a:
            assert np.array_equal(a[key], b[key])
        assert ["chol" in m for m in _saved_force_models(path)] == [False]
        resaved = tmp_path / "resaved.json"
        save_pipeline(back, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_two_round_trip(self, trained_two, small_two_ds, tmp_path):
        path = tmp_path / "bundle_two.json"
        save_pipeline(trained_two, path)
        back = load_pipeline(path)
        assert pipeline_mode(back) == "two"
        x = small_two_ds.features()[:30]
        a = predict_two_batch(trained_two, x)
        b = predict_two_batch(back, x)
        for key in a:
            assert np.array_equal(a[key], b[key])
        assert ["chol" in m for m in _saved_force_models(path)] == [False, False]
        resaved = tmp_path / "resaved.json"
        save_pipeline(back, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_serving_never_factorises(
        self, trained_single, small_single_ds, tmp_path, monkeypatch
    ):
        path = tmp_path / "bundle_single.json"
        save_pipeline(trained_single, path)
        back = load_pipeline(path)

        def refuse(*args, **kwargs):
            raise AssertionError("serving factorised the GP kernel")

        monkeypatch.setattr(gp_module.np.linalg, "cholesky", refuse)
        x = small_single_ds.features()[:30]
        a = predict_single_batch(trained_single, x)
        b = predict_single_batch(back, x)
        for key in a:
            assert np.array_equal(a[key], b[key])
        # the patch is live: asking the loaded model for its factor hits it
        with pytest.raises(AssertionError, match="factorised"):
            back.force_model.chol

    def test_save_is_byte_stable(self, trained_single, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_pipeline(trained_single, p1)
        save_pipeline(trained_single, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_training_is_deterministic(self, trained_single, small_single_ds, tmp_path):
        fresh = train_single(small_single_ds)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_pipeline(trained_single, p1)
        save_pipeline(fresh, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text("{oops")
        with pytest.raises(SchemaError):
            load_pipeline(path)

    def test_load_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text('{"bundle_schema": 99, "mode": "single", "pipeline": {}}\n')
        with pytest.raises(SchemaError, match="bundle schema"):
            load_pipeline(path)

    def test_load_rejects_schema_1_bundle(self, trained_single, tmp_path):
        # schema 1 stored each force model's Cholesky factor as "chol"
        path = tmp_path / "bundle.json"
        save_pipeline(trained_single, path)
        d = json.loads(path.read_text())
        d["bundle_schema"] = 1
        d["pipeline"]["force_model"]["chol"] = [[1.0]]
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match=r"schema 1 .*re-run `eskin train`"):
            load_pipeline(path)

    @pytest.mark.parametrize(
        "body",
        [
            {"mode": "single", "pipeline": {}},
            {"mode": "single"},
            {"mode": "two", "pipeline": []},
            {"mode": "two", "pipeline": {"x1_clf": 3}},
        ],
    )
    def test_load_rejects_missing_keys(self, body, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"bundle_schema": BUNDLE_SCHEMA_VERSION, **body}))
        with pytest.raises(SchemaError, match="malformed"):
            load_pipeline(path)

    def test_load_rejects_unknown_mode(self, trained_single, tmp_path):
        path = tmp_path / "bundle.json"
        save_pipeline(trained_single, path)
        d = json.loads(path.read_text())
        d["mode"] = "triple"
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="mode"):
            load_pipeline(path)


class TestPipelineConfig:
    def test_dict_round_trip(self):
        cfg = PipelineConfig(node_axes=(1, 6), gp_cap=500, gp_search=True, seed=3)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gp_cap": 0},
            {"node_axes": (0, 5)},
            {"node_axes": (1, 11)},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            PipelineConfig(**kwargs)
