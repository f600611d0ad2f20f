"""The record codec: every persisted record round-trips to an equal record,
arrays keep their exact bits, derived fields are never written, decoding is
strict, naming the dotted path of the field at fault, and JSON text never
carries NaN or Infinity."""

import base64
import dataclasses
import json
import math
from typing import Annotated

import numpy as np
import pytest

from eskin import (
    DatasetMeta,
    NonFiniteError,
    ProtocolError,
    PipelineConfig,
    RunConfig,
    SingleForceProtocol,
    TrainedPipeline,
    TwoForceProtocol,
    cross_validate,
    load_pipeline,
    predict_batch,
    save_pipeline,
    train,
)
from eskin.codec import (
    NonNegativeInt,
    Positive,
    Range,
    check_ranges,
    dumps,
    from_dict,
    loads,
    to_dict,
)
from eskin.errors import ConfigError, ValidationError
from eskin.learners import (
    ForestConfig,
    GpHyper,
    GpModel,
    Standardizer,
    SvmModel,
    forest_fit,
    gp_fit,
    gp_predict,
    ols_fit,
    svm_fit,
)

from .payloads import array_of, payload_of

TINY_FOREST = ForestConfig(n_trees=3)


def json_round_trip(record):
    """Decode what a file would hold: the record dumped and parsed again."""
    return from_dict(type(record), json.loads(json.dumps(to_dict(record))))


def assert_same_record(a, b, path="record"):
    """Field-wise equality that also compares array fields exactly."""
    assert type(a) is type(b), path
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        where = f"{path}.{f.name}"
        if dataclasses.is_dataclass(x):
            assert_same_record(x, y, where)
        elif isinstance(x, np.ndarray):
            assert y.dtype == x.dtype and np.array_equal(x, y), where
        else:
            assert x == y, where


@pytest.fixture(scope="module")
def reports(small_single_ds, small_two_ds):
    single = cross_validate(
        small_single_ds, k=2, config=PipelineConfig(forest=TINY_FOREST)
    )
    two = cross_validate(
        small_two_ds, k=2, config=PipelineConfig(forest=TINY_FOREST)
    )
    return {"single": single, "two": two}


class TestArrayBytes:
    EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             np.finfo(float).max, -np.finfo(float).max, 0.1, 1 / 3]

    def test_float_bits_round_trip(self):
        alpha = np.array(self.EDGES)
        model = GpModel(
            train_inputs=np.arange(2.0 * alpha.size).reshape(-1, 2), alpha=alpha,
            mean_offset=0.0, hyper=GpHyper(),
            scaler=Standardizer(mean=np.zeros(2), scale=np.ones(2)), rows_offered=alpha.size,
        )
        back = json_round_trip(model)
        assert back.train_inputs.tobytes() == model.train_inputs.tobytes()
        assert back.alpha.tobytes() == alpha.tobytes()
        assert math.copysign(1.0, back.alpha[0]) == -1.0   # -0.0 kept its sign

    def test_payload_layout(self):
        model = SvmModel(
            support_inputs=np.array([[1.0, -0.0], [5e-324, 2.0]]),
            dual_coefs=np.array([0.5, -0.5]), bias=0.0, kernel_gamma=1.0,
            class_weights=(1.0, 1.0), iterations=3, kkt_gap=0.0,
        )
        d = to_dict(model)
        assert d["support_inputs"] == {
            "data": "AAAAAAAA8D8AAAAAAAAAgAEAAAAAAAAAAAAAAAAAAEA=",
            "dtype": "float64",
            "shape": [2, 2],
        }
        assert d["dual_coefs"] == payload_of([0.5, -0.5], "float64")

    def test_int_and_bool_arrays_round_trip(self, trained_two):
        for model in (trained_two.forests["x1"], trained_two.forests["y2"]):
            back = json_round_trip(model)
            assert back == model
            for name in ("is_split", "feature", "threshold", "leaf_entries",
                         "entry_class", "entry_count"):
                a, b = getattr(model, name), getattr(back, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_decoded_arrays_are_read_only(self, trained_single):
        back = json_round_trip(trained_single)
        with pytest.raises(ValueError, match="read-only"):
            back.force_model.alpha[0] = 1.0


def fit_each_record(seed):
    """One record of each model type, fitted on data drawn from ``seed``, with
    the name of one of its array fields."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.1, size=30)
    return [
        (Standardizer.fit(x), "scale"),
        (ols_fit(x, y), "weights"),
        (gp_fit(x, y), "alpha"),
        (svm_fit(x, np.where(y > 0, 1.0, -1.0)), "dual_coefs"),
        (forest_fit(x, (y > 0).astype(int), TINY_FOREST), "threshold"),
    ]


class TestRecordEquality:
    """Records that hold arrays compare field by field, arrays by value."""

    def test_two_fits_of_the_same_data_are_equal(self):
        for (a, _), (b, _) in zip(fit_each_record(0), fit_each_record(0)):
            assert a == b and not a != b, type(a).__name__

    @pytest.mark.parametrize("kind", range(5))
    def test_one_element_changed_is_unequal(self, kind):
        model, name = fit_each_record(0)[kind]
        changed = getattr(model, name).copy()
        changed.flat[-1] += 1.0
        other = dataclasses.replace(model, **{name: changed})
        assert model != other and not model == other

    def test_nested_record_compares_by_value(self):
        gp, _ = fit_each_record(0)[2]
        mean = gp.scaler.mean.copy()
        assert gp == dataclasses.replace(gp, scaler=Standardizer(mean, gp.scaler.scale))
        mean[0] += 1.0
        assert gp != dataclasses.replace(gp, scaler=Standardizer(mean, gp.scaler.scale))

    def test_other_types_are_unequal(self):
        scaler = Standardizer.fit(np.ones((2, 2)))
        assert scaler != (scaler.mean, scaler.scale)

    def test_retrained_pipeline_is_equal(self, small_two_ds, trained_two):
        again = train(small_two_ds)
        assert again == trained_two
        y2 = again.forests["y2"]
        counts = y2.entry_count.copy()
        counts[0] += 1
        forests = dict(again.forests, y2=dataclasses.replace(y2, entry_count=counts))
        changed = dataclasses.replace(again, forests=forests)
        assert changed != trained_two


class TestNoNonFiniteJson:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dumps_refuses(self, value):
        with pytest.raises(NonFiniteError, match="NaN or infinite"):
            dumps({"x": [1.0, value]})

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_loads_refuses(self, text):
        with pytest.raises(ValueError, match=f"{text} is not a JSON number"):
            loads(f'{{"x": [1.0, {text}]}}')

    def test_finite_values_pass(self):
        d = {"x": [1e308, -0.0, 5e-324]}
        assert loads(dumps(d)) == d
        assert dumps(d) == json.dumps(d)


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
                pipeline=PipelineConfig(gp_search=True, gp_cap=50),
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
        d = {"length_scale": 1, "signal_var": 1.0, "noise_var": 0}
        hyper = from_dict(GpHyper, d)
        assert type(hyper.noise_var) is int
        assert json.dumps(to_dict(hyper)) == json.dumps(d)


def all_keys(d) -> set:
    """Every key at any depth of a nested to_dict result."""
    if isinstance(d, dict):
        return set(d).union(*map(all_keys, d.values()))
    if isinstance(d, list):
        return set().union(*map(all_keys, d))
    return set()


class TestDerivedFieldsNotWritten:
    """Derived state is a cached property: it never reaches to_dict, repr
    or ==, and a replace() copy computes its own."""

    def test_gp_factor(self, trained_single):
        model = trained_single.force_model
        model.chol  # make sure the factor exists
        assert "chol" in vars(model)
        assert set(to_dict(model)) == {
            "train_inputs", "alpha", "mean_offset", "hyper", "scaler", "rows_offered"
        }

    def test_forest_table(self, trained_single):
        predict_batch(trained_single, np.zeros((1, 20)))
        assert "table" in vars(trained_single)
        assert set(to_dict(trained_single.forests["y_term"])) == {
            "is_split", "feature", "threshold", "leaf_entries", "entry_class",
            "entry_count", "classes", "n_features",
        }

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_serving_a_loaded_bundle_builds_no_dense_leaf_counts(
        self, trained, request, tmp_path
    ):
        path = tmp_path / "bundle.json"
        save_pipeline(request.getfixturevalue(trained), path)
        p = load_pipeline(path)
        predict_batch(p, np.ones((3, 20)))
        predict_batch(p, np.ones((1, 20)))
        assert "table" in vars(p)
        assert not any("leaf_counts" in vars(m) for m in p.forests.values())

    def test_pipeline_text(self, trained_single):
        gp_predict(trained_single.force_model, np.ones((1, 20)))
        predict_batch(trained_single, np.ones((1, 20)))
        keys = all_keys(to_dict(trained_single))
        assert keys.isdisjoint({"chol", "train_sq", "support_sq", "table"})

    @pytest.mark.parametrize("trained", ["trained_single", "trained_two"])
    def test_pipeline_table(self, trained, request):
        p = request.getfixturevalue(trained)
        predict_batch(p, np.ones((2, 20)))
        assert "table" in vars(p)
        before = to_dict(p)
        fresh = dataclasses.replace(p)   # shares every model, not the table
        assert "table" not in vars(fresh)
        assert p == fresh
        assert to_dict(p) == before
        assert "table=" not in repr(p)


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
        pipeline_dict["detector"]["class_weights"][1] = None
        with pytest.raises(TypeError, match=r"detector\.class_weights\[1\]"):
            from_dict(TrainedPipeline, pipeline_dict)

    @pytest.mark.parametrize(
        "edit, error, match",
        [
            (lambda a: a.update(data=a["data"][:-4]), ValueError,
             r"force_model\.alpha\.data: \d+ bytes, expected \d+ for shape"),
            (lambda a: a.update(shape=[a["shape"][0] + 1]), ValueError,
             r"force_model\.alpha\.data: .* bytes, expected"),
            (lambda a: a.update(shape=[-1]), ValueError,
             r"force_model\.alpha\.shape: negative size"),
            (lambda a: a.update(data="not base64!"), ValueError,
             r"force_model\.alpha\.data: invalid base64"),
            (lambda a: a.update(data=a["data"][:-1]), ValueError,
             r"force_model\.alpha\.data: invalid base64"),
            (lambda a: a.update(dtype="float32"), TypeError,
             r"force_model\.alpha\.dtype: 'float32' is not one of bool, int32, float64"),
            (lambda a: a.update(dtype="int32"), TypeError,
             r"force_model\.alpha\.dtype: expected float64, got int32"),
            (lambda a: a.update(dtype=8), TypeError,
             r"force_model\.alpha\.dtype: expected a string"),
            (lambda a: a.update(shape=[True]), TypeError,
             r"force_model\.alpha\.shape\[0\]: expected an int"),
            (lambda a: a.update(extra=1), TypeError, r"unknown key 'force_model\.alpha\.extra'"),
            (lambda a: a.pop("data"), KeyError, r"force_model\.alpha\.data"),
        ],
    )
    def test_malformed_array_payload(self, pipeline_dict, edit, error, match):
        edit(pipeline_dict["force_model"]["alpha"])
        with pytest.raises(error, match=match):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_array_as_a_list_of_numbers(self, pipeline_dict):
        # the schema-4 layout
        alpha = pipeline_dict["force_model"]["alpha"]
        pipeline_dict["force_model"]["alpha"] = array_of(alpha).tolist()
        with pytest.raises(TypeError, match=r"force_model\.alpha: expected an object"):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_bool_byte_other_than_0_or_1(self, pipeline_dict):
        mask = pipeline_dict["forests"]["y_term"]["is_split"]
        raw = array_of(mask).view(np.uint8) * 2
        mask["data"] = base64.b64encode(raw.tobytes()).decode("ascii")
        with pytest.raises(
            ValueError, match=r"forests\.y_term\.is_split\.data: a bool byte"
        ):
            from_dict(TrainedPipeline, pipeline_dict)

    def test_fixed_tuple_length(self):
        d = to_dict(PipelineConfig())
        d["svm"]["class_weights"] = [1.0, 2.0, 3.0]
        with pytest.raises(TypeError, match=r"svm\.class_weights: expected 2 items"):
            from_dict(PipelineConfig, d)

    def test_record_that_is_not_an_object(self):
        with pytest.raises(TypeError, match="DatasetMeta: expected an object"):
            from_dict(DatasetMeta, [1])


@dataclasses.dataclass(frozen=True)
class Ranged:
    """A record with a ranged field of each kind the codec walks."""

    scale: Positive = 1.0
    count: NonNegativeInt = 0
    unit: Annotated[float, Range(ge=0, lt=1)] = 0.5
    pair: tuple[Positive, Positive] | None = None
    levels: tuple[Annotated[int, Range(ge=1, le=10)], ...] = ()

    def __post_init__(self):
        check_ranges(self, ConfigError)


@dataclasses.dataclass(frozen=True)
class Holder:
    inner: Ranged
    seed: NonNegativeInt = 0

    __post_init__ = check_ranges


class TestRanges:
    """A Range is declared on a field's annotation and checked by
    check_ranges: a float field must also be finite, an int is compared as
    an int, and a nested record's refusal names the record's path."""

    def test_ranged_field_is_read_and_written_as_its_scalar(self):
        record = Holder(Ranged(scale=2, pair=(1.0, 3), levels=(1, 10)), seed=7)
        d = to_dict(record)
        assert d == {
            "inner": {"scale": 2, "count": 0, "unit": 0.5, "pair": [1.0, 3],
                      "levels": [1, 10]},
            "seed": 7,
        }
        assert from_dict(Holder, json.loads(json.dumps(d))) == record

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"scale": 0.0}, "scale must be finite and > 0, got 0.0"),
            ({"scale": math.nan}, "scale must be finite and > 0, got nan"),
            ({"scale": math.inf}, "scale must be finite and > 0, got inf"),
            ({"count": -1}, "count must be >= 0, got -1"),
            ({"unit": 1.0}, "unit must be >= 0 and < 1, got 1.0"),
            ({"pair": (1.0, 0.0)}, "pair[1] must be finite and > 0, got 0.0"),
            ({"levels": (1, 11)}, "levels[1] must be >= 1 and <= 10, got 11"),
            # a fixed tuple built directly: zip alone would drop the third item
            ({"pair": (1.0, 2.0, 3.0)}, "pair must hold 2 items, got 3"),
        ],
    )
    def test_out_of_range_raises_the_records_error(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            Ranged(**kwargs)
        assert type(info.value) is ConfigError
        assert str(info.value) == message

    def test_huge_int(self):
        # JSON ints have no size limit: no float holds this one
        huge = 10**400
        with pytest.raises(ConfigError, match="scale must be finite and > 0, got 1000"):
            Ranged(scale=huge)
        assert Ranged(count=huge).count == huge

    def test_nested_refusal_names_its_path_and_keeps_its_class(self):
        d = to_dict(Holder(Ranged()))
        d["inner"]["levels"] = [0]
        with pytest.raises(ConfigError) as info:
            from_dict(Holder, d)
        assert type(info.value) is ConfigError
        assert str(info.value) == "inner: levels[0] must be >= 1 and <= 10, got 0"

    def test_top_level_refusal_has_no_prefix(self):
        d = to_dict(Holder(Ranged()))
        d["seed"] = -1
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            from_dict(Holder, d)

    def test_protocol_error_through_a_run_config(self):
        d = to_dict(RunConfig())
        d["two_protocol"]["node_axes"] = [1, 11]
        with pytest.raises(ProtocolError, match=r"^two_protocol: node_axes\[1\] must"):
            from_dict(RunConfig, d)
