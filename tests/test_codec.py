"""The record codec: every persisted record round-trips to an equal record,
derived fields are never written, and decoding is strict, naming the
dotted path of the field at fault."""

import dataclasses
import json

import numpy as np
import pytest

from eskin import (
    DatasetMeta,
    PipelineConfig,
    RunConfig,
    SingleForceProtocol,
    TrainedPipeline,
    TwoForceProtocol,
    cross_validate,
    cross_validate_two,
)
from eskin.codec import from_dict, to_dict
from eskin.learners import ForestConfig, GpHyper, forest_predict, gp_predict
from eskin.pipeline import predict_single_batch, predict_two_batch

TINY_FOREST = ForestConfig(n_trees=3)


def json_round_trip(record):
    """Decode what a file would hold: the record dumped and parsed again."""
    return from_dict(type(record), json.loads(json.dumps(to_dict(record))))


def assert_same_record(a, b, path="record"):
    """Field-wise equality that also compares array fields exactly."""
    assert type(a) is type(b), path
    for f in dataclasses.fields(a):
        if not f.compare:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        where = f"{path}.{f.name}"
        if dataclasses.is_dataclass(x):
            assert_same_record(x, y, where)
        elif isinstance(x, np.ndarray):
            assert y.dtype == float and np.array_equal(x, y), where
        else:
            assert x == y, where


@pytest.fixture(scope="module")
def reports(small_single_ds, small_two_ds):
    single = cross_validate(
        small_single_ds, k=2, config=PipelineConfig(forest=TINY_FOREST)
    )
    two = cross_validate_two(
        small_two_ds, k=2, config=PipelineConfig(forest=TINY_FOREST, node_axes=(1, 6))
    )
    return {"single": single, "two": two}


class TestRoundTrip:
    def test_single_pipeline(self, trained_single):
        assert_same_record(json_round_trip(trained_single), trained_single)

    def test_two_pipeline(self, trained_two):
        assert_same_record(json_round_trip(trained_two), trained_two)

    @pytest.mark.parametrize(
        "record",
        [
            RunConfig(),
            RunConfig(
                pipeline=PipelineConfig(gp_search=True, node_axes=(1, 6)),
                k_single=3,
                out_dir="elsewhere",
            ),
            DatasetMeta(seed=3, schema="two", generator_config_digest="00ff"),
            SingleForceProtocol(stretches=(1.0, 1.5), reps_per_cell=2, seed=4),
            TwoForceProtocol(node_axes=(2, 9), forces=(0.0, 1.0, 2), reps=1),
        ],
        ids=["run_config", "run_config_edited", "dataset_meta", "single", "two"],
    )
    def test_plain_records(self, record):
        back = json_round_trip(record)
        assert back == record
        assert to_dict(back) == to_dict(record)

    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_metrics_report(self, reports, mode):
        report = reports[mode]
        back = json_round_trip(report)
        assert back == report
        assert back.to_json() == report.to_json()

    def test_int_in_float_field_is_kept(self):
        d = {"length_scale": 1, "signal_var": 1.0, "noise_var": 0, "mean_offset": 0.5}
        hyper = from_dict(GpHyper, d)
        assert type(hyper.noise_var) is int
        assert json.dumps(to_dict(hyper)) == json.dumps(d)


class TestDerivedFieldsNotWritten:
    def test_gp_factor(self, trained_single):
        model = trained_single.force_model
        model.chol  # make sure the factor exists
        assert model._chol is not None
        assert set(to_dict(model)) == {
            "train_inputs", "alpha", "hyper", "scaler", "rows_offered"
        }

    def test_forest_table(self, trained_single):
        model = trained_single.row_clf
        forest_predict(model, np.zeros((1, model.n_features)))
        assert model._table is not None
        assert set(to_dict(model)) == {"trees", "n_classes", "n_features", "config"}

    def test_pipeline_text(self, trained_single):
        gp_predict(trained_single.force_model, np.ones((1, 20)))
        predict_single_batch(trained_single, np.ones((1, 20)))
        text = json.dumps(to_dict(trained_single))
        for name in ("_chol", "_table", "_forests", "_train_sq", "_support_sq"):
            assert name not in text

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_pipeline_table(self, trained, request):
        p = request.getfixturevalue(trained)
        predict = predict_single_batch if trained == "trained_single" else predict_two_batch
        predict(p, np.ones((2, 20)))
        assert p._forests is not None
        before = to_dict(p)
        fresh = dataclasses.replace(p)   # shares every model, not the table
        assert fresh._forests is None
        assert p == fresh
        assert to_dict(p) == before
        assert "_forests" not in repr(p)


class TestStrictDecode:
    @pytest.fixture()
    def pipeline_dict(self, trained_single):
        return json.loads(json.dumps(to_dict(trained_single)))

    def test_missing_key(self, pipeline_dict):
        del pipeline_dict["detector"]["bias"]
        with pytest.raises(KeyError, match=r"detector\.bias"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_unknown_key(self, pipeline_dict):
        pipeline_dict["config"]["svm"]["extra"] = 1
        with pytest.raises(TypeError, match=r"config\.svm\.extra"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_bool_in_int_field(self, pipeline_dict):
        pipeline_dict["config"]["gp_cap"] = True
        with pytest.raises(TypeError, match=r"config\.gp_cap: expected an int"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_string_in_float_field(self, pipeline_dict):
        pipeline_dict["force_model"]["hyper"]["noise_var"] = "0.0001"
        with pytest.raises(TypeError, match=r"force_model\.hyper\.noise_var"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_float_in_int_field(self, pipeline_dict):
        pipeline_dict["config"]["forest"]["n_trees"] = 100.0
        with pytest.raises(TypeError, match=r"config\.forest\.n_trees"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_string_in_bool_field(self, pipeline_dict):
        pipeline_dict["config"]["gp_search"] = "false"
        with pytest.raises(TypeError, match=r"config\.gp_search: expected a bool"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_tuple_item_path(self, pipeline_dict):
        pipeline_dict["preprocessing"]["scale"][3] = None
        with pytest.raises(TypeError, match=r"preprocessing\.scale\[3\]"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_ragged_array(self, pipeline_dict):
        pipeline_dict["detector"]["support_inputs"][1] = [1.0]
        with pytest.raises(ValueError, match=r"detector\.support_inputs: ragged"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_non_numeric_array(self, pipeline_dict):
        pipeline_dict["force_model"]["alpha"][0] = "1"
        with pytest.raises(TypeError, match=r"force_model\.alpha"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_tree_that_is_not_an_object(self, pipeline_dict):
        pipeline_dict["row_clf"]["trees"][0] = [1]
        with pytest.raises(TypeError, match=r"row_clf\.trees\[0\]"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_fixed_tuple_length(self):
        d = to_dict(PipelineConfig())
        d["svm"]["class_weights"] = [1.0, 2.0, 3.0]
        with pytest.raises(TypeError, match=r"svm\.class_weights: expected 2 items"):
            from_dict(PipelineConfig, d)

    def test_record_that_is_not_an_object(self):
        with pytest.raises(TypeError, match="DatasetMeta: expected an object"):
            from_dict(DatasetMeta, [1])
