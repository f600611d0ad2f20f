"""Decoder stacks: training guards, estimate invariants, and bundle
round trips."""

import json
import multiprocessing
import re
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from eskin import (
    ContactEstimate,
    CoverageError,
    CapacitanceFrame,
    Dataset,
    NODE_ZERO,
    NodeCoord,
    PipelineConfig,
    SchemaError,
    SkinModel,
    TwoContactEstimate,
    TwoForceProtocol,
    ValidationError,
    cross_validate,
    generate_two_force_dataset,
    infer,
    load_pipeline,
    predict_batch,
    save_pipeline,
    train,
)
from eskin.codec import from_dict, to_dict
from eskin.learners import (
    ForestConfig,
    ForestModel,
    Standardizer,
    forest_fit,
    gp_fit,
    gp_predict,
)
from eskin.learners import forest as forest_module
from eskin.learners import gp as gp_module
from eskin.pipeline import BUNDLE_SCHEMA_VERSION

from .oracles import reference_predict
from .payloads import array_of, payload_of

FOREST_ARRAYS = ("is_split", "feature", "threshold", "leaf_entries", "entry_class",
                 "entry_count", "classes")
README = Path(__file__).resolve().parents[1] / "README.md"


# the key of each forest, by prediction key, up to schema 9
OLD_FOREST_KEYS = {"x_term": "col_clf", "y_term": "row_clf", "x1": "x1_clf",
                   "y1": "y1_clf", "x2": "x2_clf", "y2": "y2_clf"}


def _schema_9(p) -> dict:
    """The schema-9 layout of a pipeline's bundle: the mode beside the
    pipeline, one key per forest, and no stretch model or detector for two
    contacts."""
    models = to_dict(p)
    mode = models.pop("mode")
    for key, forest in models.pop("forests").items():
        models[OLD_FOREST_KEYS[key]] = forest
    models = {name: model for name, model in models.items() if model is not None}
    return {"bundle_schema": 9, "mode": mode, "pipeline": models}


def _without_diagnostics(bundle: dict) -> dict:
    """A bundle dict stripped of the fit diagnostics schema 4 added."""
    for name, model in bundle["pipeline"].items():
        if name == "detector":
            del model["iterations"], model["kkt_gap"]
        elif name == "force_model":
            del model["rows_offered"]
    return bundle


def _schema_4(p) -> dict:
    """The schema-4 layout of a pipeline's bundle: arrays as nested lists of
    numbers, forests as nested-dict trees."""
    bundle = _schema_9(p)
    bundle["bundle_schema"] = 4
    for key, old in OLD_FOREST_KEYS.items():
        if old in bundle["pipeline"]:
            model = bundle["pipeline"][old]
            for name in FOREST_ARRAYS:
                del model[name]
            model["trees"] = list(p.forests[key].trees)
    for name in ("detector", "force_model"):
        for key, value in bundle["pipeline"].get(name, {}).items():
            if isinstance(value, dict) and "data" in value:
                bundle["pipeline"][name][key] = array_of(value).tolist()
    return bundle


def _schema_7(p) -> dict:
    """The schema-7 layout of a pipeline's bundle: standardizer statistics
    and OLS weights as lists of numbers."""
    bundle = _schema_9(p)
    bundle["bundle_schema"] = 7
    models = bundle["pipeline"]
    for vectors in (models["preprocessing"], models["force_model"]["scaler"],
                    models.get("stretch_model", {})):
        for key, value in vectors.items():
            if isinstance(value, dict):
                vectors[key] = array_of(value).tolist()
    return bundle


def _schema_8(p) -> dict:
    """The schema-8 layout of a pipeline's bundle: forests without their
    class labels, and the config's node_axes."""
    bundle = _schema_9(p)
    bundle["bundle_schema"] = 8
    for old in OLD_FOREST_KEYS.values():
        bundle["pipeline"].get(old, {}).pop("classes", None)
    bundle["pipeline"]["config"]["node_axes"] = [1, 6, 10]
    return bundle


def _schema_10(p) -> dict:
    """The schema-10 layout of a pipeline's bundle: each forest's leaf
    counts as one dense (n_leaves, n_classes) matrix."""
    bundle = {"bundle_schema": 10, "pipeline": to_dict(p)}
    for key, forest in bundle["pipeline"]["forests"].items():
        for name in ("leaf_entries", "entry_class", "entry_count"):
            del forest[name]
        forest["leaf_counts"] = payload_of(p.forests[key].leaf_counts, "int32")
    return bundle


def frame_of(ds, row):
    return CapacitanceFrame.from_vector(ds.x[row])


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
    def test_single_mode_comes_from_the_data(self, trained_single):
        p = trained_single
        assert p.mode == "single" and list(p.forests) == ["x_term", "y_term"]
        assert p.stretch_model is not None and p.detector is not None
        assert p.force_model.alpha.ndim == 1   # one force: a 1-d fit

    def test_two_mode_comes_from_the_data(self, trained_two):
        p = trained_two
        assert p.mode == "two" and list(p.forests) == ["x1", "y1", "x2", "y2"]
        assert p.stretch_model is None and p.detector is None
        assert p.force_model.mean_offset.shape == (2,)

    def test_single_empty(self):
        with pytest.raises(ValidationError):
            train(Dataset(x=np.empty((0, 20)), labels=np.empty((0, 4))))

    def test_single_without_positives(self, small_single_ds):
        blanks = small_single_ds.take(small_single_ds.node_ids() == 0)
        with pytest.raises(CoverageError, match="no contact-positive samples"):
            train(blanks)

    def test_two_terminals_come_from_the_data(self):
        # a (1, 5, 6) grid under the default config: the forests learn and
        # predict those terminals, and a report is labelled with them
        proto = TwoForceProtocol(node_axes=(1, 5, 6), forces=(0.0, 1.2936), reps=2)
        ds = generate_two_force_dataset(SkinModel(), proto)
        p = train(ds)
        out = predict_batch(p, ds.x)
        for name in ("x1", "y1", "x2", "y2"):
            assert p.forests[name].classes.tolist() == [1, 5, 6]
            assert set(out[name].tolist()) <= {1, 5, 6}
        report = cross_validate(ds, k=2)
        assert {cm.labels for cm in report.confusions.values()} == {(1, 5, 6)}

    @pytest.mark.parametrize("contact", [1, 2])
    def test_two_blank_contact_refused(self, small_two_ds, contact):
        labels = small_two_ds.labels.copy()
        labels[3, 3 * contact - 2 : 3 * contact] = 0   # x, y of contact 1 or 2
        ds = Dataset(x=small_two_ds.x, labels=labels)
        with pytest.raises(
            ValidationError, match=r"row 3 has a contact at node \(0, 0\)"
        ):
            train(ds)

    def test_two_empty(self, two_ds):
        empty = two_ds.take(np.arange(0))
        with pytest.raises(CoverageError, match="every terminal class is absent"):
            train(empty)


class TestSinglePredictions:
    def test_batch_output_contract(self, trained_single, small_single_ds):
        x = small_single_ds.features()[:50]
        out = predict_batch(trained_single, x)
        assert set(out) == {"stretch", "detected", "x_term", "y_term", "force"}
        for v in out.values():
            assert v.shape == (50,)
        assert out["detected"].dtype == bool
        assert np.all(out["force"] >= 0.0)
        assert np.all((out["x_term"] >= 1) & (out["x_term"] <= 10))
        assert np.all((out["y_term"] >= 1) & (out["y_term"] <= 10))

    def test_training_fit_quality(self, trained_single, small_single_ds):
        x = small_single_ds.features()
        out = predict_batch(trained_single, x)
        stretch_true = small_single_ds.label("lambda")
        assert np.corrcoef(stretch_true, out["stretch"])[0, 1] > 0.99
        detected_true = small_single_ds.node_ids() > 0
        assert np.mean(out["detected"] == detected_true) > 0.97

    def test_infer_rest_frame_is_blank(self, trained_single, small_single_ds):
        rest = np.flatnonzero(small_single_ds.node_ids() == 0)[0]
        est = infer(trained_single, frame_of(small_single_ds, rest))
        assert not est.contact_detected
        assert est.node == NODE_ZERO
        assert est.force == 0.0

    def test_infer_firm_press_detected(self, trained_single, small_single_ds):
        ds = small_single_ds
        pressed = np.flatnonzero(
            (ds.node_ids() == NodeCoord(5, 5).node_id)
            & (ds.label("force_n") > 5.0)
            & (ds.label("lambda") == 1.0)
        )[0]
        est = infer(trained_single, frame_of(ds, pressed))
        assert est.contact_detected
        assert est.force > 0.5
        assert est.node.is_contact

    def test_infer_matches_batch(self, trained_single, small_single_ds):
        est = infer(trained_single, frame_of(small_single_ds, 17))
        out = predict_batch(trained_single, small_single_ds.x[17:18])
        assert est.contact_detected == bool(out["detected"][0])
        assert est.stretch == pytest.approx(float(out["stretch"][0]))
        if est.contact_detected:
            assert est.node.x == int(out["x_term"][0])
            assert est.node.y == int(out["y_term"][0])


class TestForestTable:
    """The pipeline serves its forests from one table, batch and one row at
    a time; both give each forest's node-by-node reference labels."""

    def test_single(self, trained_single, small_single_ds):
        p = trained_single
        x = small_single_ds.features()[::25]
        z = p.preprocessing.transform(x)
        want_x = reference_predict(p.forests["x_term"], z)
        want_y = reference_predict(p.forests["y_term"], z)
        out = predict_batch(p, x)
        assert np.array_equal(out["x_term"], want_x)
        assert np.array_equal(out["y_term"], want_y)
        for i in range(x.shape[0]):
            one = predict_batch(p, x[i : i + 1])
            assert (one["x_term"][0], one["y_term"][0]) == (want_x[i], want_y[i])
            est = infer(p, CapacitanceFrame.from_vector(x[i]))
            if est.contact_detected:
                assert (est.node.x, est.node.y) == (want_x[i], want_y[i])

    def test_two(self, trained_two, small_two_ds):
        p = trained_two
        x = small_two_ds.features()[::4]
        z = p.preprocessing.transform(x)
        want = {name: reference_predict(clf, z) for name, clf in p.forests.items()}
        out = predict_batch(p, x)
        for i in range(x.shape[0]):
            one = predict_batch(p, x[i : i + 1])
            for name in want:
                assert out[name][i] == one[name][0] == want[name][i]


class TestTrainFits:
    """What one training call fits: all its forests from one tree pool, and
    with gp_search one GP factorisation per grid cell."""

    FOREST = ForestConfig(n_trees=4)

    @pytest.fixture
    def pools(self, monkeypatch):
        built = []

        class CountedPool(forest_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(forest_module, "_pool_workers", lambda n_trees: 2)
        monkeypatch.setattr(forest_module, "ProcessPoolExecutor", CountedPool)
        return built

    def test_single_fits_its_forests_in_one_pool(self, pools, small_single_ds):
        p = train(small_single_ds, PipelineConfig(forest=self.FOREST))
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        pos = small_single_ds.label("node_x") != 0
        z = p.preprocessing.transform(small_single_ds.x[pos])
        for name, label in (("x_term", "node_x"), ("y_term", "node_y")):
            y = small_single_ds.label(label)[pos]
            assert p.forests[name] == forest_fit(z, y, self.FOREST)

    def test_two_fits_its_forests_in_one_pool(self, pools, small_two_ds):
        p = train(small_two_ds, PipelineConfig(forest=self.FOREST))
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        z = p.preprocessing.transform(small_two_ds.x)
        for name in ("x1", "y1", "x2", "y2"):
            y = small_two_ds.label(name)
            assert p.forests[name] == forest_fit(z, y, self.FOREST)

    def test_gp_search_factors_once_a_cell(self, small_two_ds, monkeypatch):
        factors, factor = [], gp_module._factor

        def counted_factor(*args):
            factors.append(factor(*args))
            return factors[-1]

        monkeypatch.setattr(gp_module, "_factor", counted_factor)
        config = PipelineConfig(forest=self.FOREST, gp_search=True, gp_cap=40)
        p = train(small_two_ds, config)
        assert len(factors) == 6   # the 3 x 2 grid, and no refit of its pick
        assert any(p.force_model.chol is f for f in factors)   # the pick's own
        assert p.force_model.rows_offered == len(small_two_ds)


class TestTwoPredictions:
    def test_shared_force_gp_equals_one_fit_per_force(self, two_ds):
        # the reference is one single-output GP per contact force, fitted
        # and served on its own: the shared model's per-output arithmetic
        # must reproduce it bit for bit
        config = PipelineConfig(forest=ForestConfig(n_trees=2))
        p = train(two_ds, config)
        out = predict_batch(p, two_ds.x)
        gp = p.force_model
        assert gp.alpha.shape == (2, len(two_ds)) and gp.mean_offset.shape == (2,)
        for j, name in enumerate(("f1_n", "f2_n")):
            ref = gp_fit(
                two_ds.x, two_ds.label(name), config.gp, cap=config.gp_cap,
                seed=config.seed,
            )
            mean, _ = gp_predict(ref, two_ds.x, std=False)
            assert np.array_equal(gp.alpha[j], ref.alpha)
            assert np.array_equal(gp.mean_offset[j], ref.mean_offset)
            assert np.array_equal(out[f"force{j + 1}"], np.maximum(mean, 0.0))

    def test_batch_output_contract(self, trained_two, small_two_ds):
        x = small_two_ds.features()[:40]
        out = predict_batch(trained_two, x)
        assert set(out) == {"x1", "y1", "x2", "y2", "force1", "force2"}
        for key in ("x1", "y1", "x2", "y2"):
            assert set(np.unique(out[key])).issubset({1, 6})
        assert np.all(out["force1"] >= 0.0)
        assert np.all(out["force2"] >= 0.0)

    def test_infer_orders_by_node_id(self, trained_two, small_two_ds):
        for i in range(20):
            est = infer(trained_two, frame_of(small_two_ds, i))
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
        assert back.mode == "single" and back == trained_single
        x = small_single_ds.features()[:30]
        a = predict_batch(trained_single, x)
        b = predict_batch(back, x)
        for key in a:
            assert np.array_equal(a[key], b[key])
        assert "chol" not in json.loads(path.read_text())["pipeline"]["force_model"]
        resaved = tmp_path / "resaved.json"
        save_pipeline(back, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_two_round_trip(self, trained_two, small_two_ds, tmp_path):
        path = tmp_path / "bundle_two.json"
        save_pipeline(trained_two, path)
        back = load_pipeline(path)
        # a load restores the forests in key order; the table keeps x1, y1, x2, y2
        assert back.mode == "two" and back == trained_two
        assert list(back.forests) == ["x1", "x2", "y1", "y2"]
        x = small_two_ds.features()[:30]
        a = predict_batch(trained_two, x)
        b = predict_batch(back, x)
        for key in a:
            assert np.array_equal(a[key], b[key])
        assert "chol" not in json.loads(path.read_text())["pipeline"]["force_model"]
        resaved = tmp_path / "resaved.json"
        save_pipeline(back, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_model_vectors_load_as_read_only_arrays(self, trained, request, tmp_path):
        p = request.getfixturevalue(trained)
        path = tmp_path / "bundle.json"
        save_pipeline(p, path)
        back = load_pipeline(path)
        paths = ["preprocessing.mean", "preprocessing.scale",
                 "force_model.scaler.mean", "force_model.scaler.scale"]
        if trained == "trained_single":
            paths.append("stretch_model.weights")
        for path in paths:
            fitted, loaded = attrgetter(path)(p), attrgetter(path)(back)
            assert loaded.dtype == np.float64 and loaded.shape == (20,), path
            assert loaded.tobytes() == fitted.tobytes(), path
            assert not loaded.flags.writeable, path

    def test_serving_never_factorises(
        self, trained_single, small_single_ds, tmp_path, monkeypatch
    ):
        path = tmp_path / "bundle_single.json"
        save_pipeline(trained_single, path)
        back = load_pipeline(path)

        def refuse(*args, **kwargs):
            raise AssertionError("serving factorised the GP kernel")

        monkeypatch.setattr(gp_module, "_factor", refuse)
        x = small_single_ds.features()[:30]
        a = predict_batch(trained_single, x)
        b = predict_batch(back, x)
        for key in a:
            assert np.array_equal(a[key], b[key])
        # the patch is live: asking the loaded model for its factor hits it
        with pytest.raises(AssertionError, match="factorised"):
            back.force_model.chol

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_load_and_predict_never_build_trees(
        self, trained, request, small_single_ds, tmp_path, monkeypatch
    ):
        p = request.getfixturevalue(trained)
        path = tmp_path / "bundle.json"
        save_pipeline(p, path)

        def refuse(self):
            raise AssertionError("built the nested trees")

        monkeypatch.setattr(ForestModel, "trees", property(refuse))
        back = load_pipeline(path)
        x = small_single_ds.features()[:5]
        for rows in (x, x[:1]):
            out, want = predict_batch(back, rows), predict_batch(p, rows)
            assert all(np.array_equal(out[k], want[k]) for k in want)
        save_pipeline(back, tmp_path / "resaved.json")
        with pytest.raises(AssertionError, match="nested trees"):
            next(iter(back.forests.values())).trees

    def test_save_is_byte_stable(self, trained_single, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_pipeline(trained_single, p1)
        save_pipeline(trained_single, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_training_is_deterministic(self, trained_single, small_single_ds, tmp_path):
        fresh = train(small_single_ds)
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
        path.write_text('{"bundle_schema": 99, "pipeline": {}}\n')
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

    def test_load_rejects_schema_2_bundle(self, trained_single, tmp_path):
        # schema 2 stored the SVM's seed and max_passes
        path = tmp_path / "bundle.json"
        save_pipeline(trained_single, path)
        d = json.loads(path.read_text())
        d["bundle_schema"] = 2
        d["pipeline"]["config"]["svm"].update(seed=0, max_passes=10)
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match=r"schema 2 .*re-run `eskin train`"):
            load_pipeline(path)

    def test_load_rejects_schema_3_bundle(self, trained_single, tmp_path):
        # schema 3 was indented and held no SVM or GP fit diagnostics
        old = _without_diagnostics(_schema_9(trained_single))
        old["bundle_schema"] = 3
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(old, sort_keys=True, indent=1) + "\n")
        with pytest.raises(SchemaError, match=r"schema 3 .*re-run `eskin train`"):
            load_pipeline(path)

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_load_rejects_schema_4_bundle(self, trained, request, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(_schema_4(request.getfixturevalue(trained))))
        with pytest.raises(SchemaError, match=r"schema 4 .*re-run `eskin train`"):
            load_pipeline(path)

    def test_load_rejects_schema_6_bundle(self, trained_two, tmp_path):
        # schema 6 held one single-output force GP per contact
        old = _schema_9(trained_two)
        old["bundle_schema"] = 6
        gp = old["pipeline"].pop("force_model")
        old["pipeline"].update(force1_model=gp, force2_model=gp)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(old))
        with pytest.raises(SchemaError, match=r"schema 6 .*re-run `eskin train`"):
            load_pipeline(path)

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_load_rejects_schema_7_bundle(self, trained, request, tmp_path):
        # schema 7 held the standardizer statistics and OLS weights as lists
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(_schema_7(request.getfixturevalue(trained))))
        with pytest.raises(SchemaError, match=r"schema 7 .*re-run `eskin train`"):
            load_pipeline(path)

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_load_rejects_schema_8_bundle(self, trained, request, tmp_path):
        # schema 8 held no forest class labels, and node_axes in the config
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(_schema_8(request.getfixturevalue(trained))))
        with pytest.raises(SchemaError, match=r"schema 8 .*re-run `eskin train`"):
            load_pipeline(path)

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_load_rejects_schema_9_bundle(self, trained, request, tmp_path):
        # schema 9 held the mode beside the pipeline and one key per forest
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(_schema_9(request.getfixturevalue(trained))))
        with pytest.raises(SchemaError, match=r"schema 9 .*re-run `eskin train`"):
            load_pipeline(path)

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_load_rejects_schema_10_bundle(self, trained, request, tmp_path):
        # schema 10 held each forest's leaf counts as a dense matrix
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(_schema_10(request.getfixturevalue(trained))))
        with pytest.raises(SchemaError, match=r"schema 10 .*re-run `eskin train`"):
            load_pipeline(path)

    @pytest.mark.parametrize(
        "body",
        [
            {"pipeline": {}},
            {},
            {"pipeline": []},
            {"pipeline": {"mode": "two", "forests": 3}},
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
        d["pipeline"]["mode"] = "triple"
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="mode 'triple' is not single or two"):
            load_pipeline(path)


class TestFeatureWidths:
    """Every model of a pipeline reads the same frame channels; a record
    whose widths disagree is refused when it is built, not on first serve."""

    def test_single_standardizer_one_short(self, trained_single):
        sc = trained_single.preprocessing
        with pytest.raises(
            ValidationError,
            match=r"stretch_model 20, .*, preprocessing 19, "
            r"forests\.x_term 20, forests\.y_term 20$",
        ):
            replace(
                trained_single,
                preprocessing=Standardizer(mean=sc.mean[:-1], scale=sc.scale[:-1]),
            )

    def test_two_gp_inputs_one_short(self, trained_two):
        # a GP that reads one channel fewer than the pipeline, inputs and scaler
        gp = trained_two.force_model
        narrow = replace(
            gp,
            train_inputs=gp.train_inputs[:, :-1].copy(),
            scaler=Standardizer(mean=gp.scaler.mean[:-1], scale=gp.scaler.scale[:-1]),
        )
        with pytest.raises(ValidationError, match=r"force_model 19, preprocessing 20"):
            replace(trained_two, force_model=narrow)

    def test_two_gp_scaler_one_short(self, trained_two):
        # the GP itself refuses a scaler narrower than its inputs
        gp = trained_two.force_model
        narrow = Standardizer(mean=gp.scaler.mean[1:], scale=gp.scaler.scale[1:])
        with pytest.raises(
            ValidationError, match="GP scaler reads 19 features but train_inputs have 20"
        ):
            replace(gp, scaler=narrow)


@pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
class TestBundleEncoding:
    def test_one_line_of_json(self, trained, request, tmp_path):
        p = request.getfixturevalue(trained)
        path = tmp_path / "bundle.json"
        save_pipeline(p, path)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        bundle = json.loads(text)
        assert bundle.keys() == {"bundle_schema", "pipeline"}
        assert bundle["bundle_schema"] == 11 and bundle["pipeline"]["mode"] == p.mode

    def test_schema_4_keys_with_arrays_as_bytes(self, trained, request, tmp_path):
        # each model keeps its schema-4 keys, with arrays as the bytes of the
        # fitted model's arrays; the forests are keyed by prediction key
        p = request.getfixturevalue(trained)
        path = tmp_path / "bundle.json"
        save_pipeline(p, path)
        new = json.loads(path.read_text())["pipeline"]
        old = _schema_4(p)["pipeline"]
        models = {name: (model, getattr(p, name)) for name, model in new.items()
                  if isinstance(model, dict) and name != "forests"}
        forests = {OLD_FOREST_KEYS[key]: (model, p.forests[key])
                   for key, model in new["forests"].items()}
        assert models.keys() | forests.keys() == old.keys()
        for name, (model, fitted) in forests.items():
            assert model.keys() - old[name].keys() == set(FOREST_ARRAYS)
            for key in FOREST_ARRAYS:
                assert np.array_equal(array_of(model[key]), getattr(fitted, key))
        for name, (model, fitted) in models.items():
            assert model.keys() == old[name].keys()
            for key, value in model.items():
                if isinstance(value, dict) and "data" in value:
                    assert array_of(value).tobytes() == getattr(fitted, key).tobytes()


class TestReadmeSchema:
    """README's "Model bundles" section names the schema this eskin writes."""

    def test_bundle_example_has_the_current_schema(self):
        found = re.findall(r'"bundle_schema": (\d+)', README.read_text())
        assert found and {int(n) for n in found} == {BUNDLE_SCHEMA_VERSION}

    def test_refused_schemas_end_below_the_current_one(self):
        found = re.findall(r"older\s+schema \((\d+) or below\)", README.read_text())
        assert [int(n) for n in found] == [BUNDLE_SCHEMA_VERSION - 1]


class TestPipelineConfig:
    def test_dict_round_trip(self):
        cfg = PipelineConfig(gp_cap=500, gp_search=True, seed=3)
        assert from_dict(PipelineConfig, to_dict(cfg)) == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gp_cap": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            PipelineConfig(**kwargs)
