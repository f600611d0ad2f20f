"""Run configuration loading, overrides, and seed threading."""

import dataclasses
import json
import types
import typing

import pytest

from eskin import (
    ConfigError,
    EskinError,
    PipelineConfig,
    ProtocolError,
    RunConfig,
    SingleForceProtocol,
    SkinModel,
    TwoForceProtocol,
    apply_seed,
    load_config,
)
from eskin.codec import Range, from_dict, to_dict
from eskin.config import ENV_CONFIG

from .ranges import names_leaf, set_leaf, sweep_cases


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


class TestDefaults:
    def test_no_sources_gives_defaults(self):
        cfg = load_config()
        assert cfg == RunConfig()
        assert cfg.model == SkinModel()
        assert cfg.single_protocol == SingleForceProtocol()
        assert cfg.two_protocol == TwoForceProtocol()
        assert cfg.pipeline == PipelineConfig()
        assert (cfg.k_single, cfg.k_two, cfg.seed) == (10, 5, 0)
        assert cfg.out_dir == "eskin_out"

    def test_desk_scale_counts(self):
        cfg = RunConfig()
        assert cfg.single_protocol.sample_count == 6060
        assert cfg.two_protocol.sample_count == 648

    def test_fold_floor(self):
        with pytest.raises(ConfigError):
            RunConfig(k_single=1)
        with pytest.raises(ConfigError):
            RunConfig(k_two=0)

    def test_dict_round_trip(self):
        cfg = RunConfig(k_single=4, seed=9, out_dir="elsewhere")
        assert from_dict(RunConfig, to_dict(cfg)) == cfg


class TestOverrides:
    def test_partial_override(self, tmp_path):
        path = write_json(
            tmp_path / "cfg.json",
            {
                "k_single": 3,
                "model": {"noise_sigma": 0.01},
                "single_protocol": {"reps_per_cell": 1},
            },
        )
        cfg = load_config(path)
        assert cfg.k_single == 3
        assert cfg.model.noise_sigma == 0.01
        assert cfg.model.baseline == SkinModel().baseline
        assert cfg.single_protocol.reps_per_cell == 1
        assert cfg.two_protocol == TwoForceProtocol()

    def test_env_var_source(self, tmp_path, monkeypatch):
        path = write_json(tmp_path / "cfg.json", {"seed": 42})
        monkeypatch.setenv(ENV_CONFIG, str(path))
        assert load_config().seed == 42

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        env_path = write_json(tmp_path / "env.json", {"seed": 1})
        arg_path = write_json(tmp_path / "arg.json", {"seed": 2})
        monkeypatch.setenv(ENV_CONFIG, str(env_path))
        assert load_config(arg_path).seed == 2

    def test_unknown_top_level_key(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"modle": {}})
        with pytest.raises(ConfigError, match="'modle'"):
            load_config(path)

    def test_unknown_nested_key_dotted(self, tmp_path):
        for dotted in ("model.nose_sigma", "pipeline.svm.seed", "pipeline.svm.max_passes"):
            override = 1
            for key in reversed(dotted.split(".")):
                override = {key: override}
            path = write_json(tmp_path / "cfg.json", override)
            with pytest.raises(ConfigError, match=f"unknown config key '{dotted}'"):
                load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_domain_violation_becomes_config_error(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"model": {"baseline": -1.0}})
        with pytest.raises(ConfigError, match="invalid config"):
            load_config(path)

    @pytest.mark.parametrize(
        "override, error, message",
        [
            ({"single_protocol": {"reps_per_cell": 0}}, ProtocolError,
             "single_protocol: reps_per_cell must be >= 1, got 0"),
            ({"two_protocol": {"seed": -5}}, ProtocolError,
             "two_protocol: seed must be >= 0, got -5"),
            ({"k_two": 1}, ConfigError, "k_two must be >= 2, got 1"),
            ({"pipeline": {"gp_cap": 0}}, ConfigError,
             "pipeline: gp_cap must be >= 1, got 0"),
            ({"pipeline": {"forest": {"n_trees": 0}}}, ConfigError,
             "pipeline.forest: n_trees must be >= 1, got 0"),
        ],
    )
    def test_every_value_error_names_the_file(self, tmp_path, override, error, message):
        path = write_json(tmp_path / "cfg.json", override)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert type(info.value) is error
        assert str(info.value) == f"invalid config file {path}: {message}"
        assert info.value.exit_code == 1


class TestApplySeed:
    def test_threads_every_component(self):
        cfg = apply_seed(RunConfig(), 7)
        assert cfg.seed == 7
        assert cfg.single_protocol.seed == 7
        assert cfg.two_protocol.seed == 7
        assert cfg.pipeline.seed == 7
        assert cfg.pipeline.forest.seed == 7

    def test_leaves_other_fields(self):
        base = RunConfig(k_single=3, out_dir="x")
        cfg = apply_seed(base, 5)
        assert cfg.k_single == 3
        assert cfg.out_dir == "x"


# Every int and float leaf of a run config, with its range. A list item is
# set inside the list its key names here, which is valid apart from it.
CONFIG_LEAVES = [
    ("model.baseline", float, "> 0"),
    ("model.stretch_gain_x", float),
    ("model.stretch_gain_y", float),
    ("model.force_scale", float, "> 0"),
    ("model.force_sat", float, "> 0"),
    ("model.neighbor_decay", float, "> 0", "< 1"),
    ("model.neighbor_reach", int, ">= 0"),
    ("model.noise_sigma", float, ">= 0"),
    ("model.edge_taper", float, ">= 0", "< 1"),
    ("single_protocol.stretches[1]", float, ">= 1"),
    ("single_protocol.forces[1]", float, ">= 0"),
    ("single_protocol.reps_per_cell", int, ">= 1"),
    ("single_protocol.seed", int, ">= 0"),
    ("two_protocol.node_axes[1]", int, ">= 1", "<= 10"),
    ("two_protocol.forces[1]", float, ">= 0"),
    ("two_protocol.reps", int, ">= 1"),
    ("two_protocol.seed", int, ">= 0"),
    ("pipeline.svm.c", float, "> 0"),
    ("pipeline.svm.gamma", float, "> 0"),
    ("pipeline.svm.class_weights[0]", float, "> 0"),
    ("pipeline.svm.class_weights[1]", float, "> 0"),
    ("pipeline.svm.tol", float, "> 0"),
    ("pipeline.forest.n_trees", int, ">= 1"),
    ("pipeline.forest.max_depth", int, ">= 1"),
    ("pipeline.forest.min_leaf", int, ">= 1"),
    ("pipeline.forest.features_per_split", int, ">= 1"),
    ("pipeline.forest.seed", int, ">= 0"),
    ("pipeline.gp.length_scale", float, ">= 1e-150", "<= 1e150"),
    ("pipeline.gp.signal_var", float, "> 0"),
    ("pipeline.gp.noise_var", float, ">= 0"),
    ("pipeline.gp_cap", int, ">= 1"),
    ("pipeline.seed", int, ">= 0"),
    ("k_single", int, ">= 2"),
    ("k_two", int, ">= 2"),
    ("seed", int, ">= 0"),
]
LISTS = {
    "single_protocol.stretches": [1.0, 1.0],
    "single_protocol.forces": [0.0, 0.0],
    "two_protocol.node_axes": [5, 5],
    "two_protocol.forces": [1.0, 1.0],
    "pipeline.svm.class_weights": [1.0, 1.0],
}


class TestBoundarySweep:
    """Each ranged leaf set to each bound, just outside a closed bound, to
    1e308 and to a 400-digit int: a config holding a value outside the range
    is refused with exit 1 and one line that names the leaf, and one inside
    it loads. Before the ranges were declared on the fields, the 400-digit
    int in a float leaf ended in an OverflowError traceback; every other
    case had the exit code it has now."""

    @pytest.mark.parametrize("path, value, accepted", sweep_cases(CONFIG_LEAVES))
    def test_leaf(self, tmp_path, path, value, accepted):
        override = {}
        base = path.partition("[")[0]
        if base in LISTS:
            set_leaf(override, base, list(LISTS[base]))
        set_leaf(override, path, value)
        cfg = write_json(tmp_path / "cfg.json", override)
        if accepted:
            load_config(cfg)
            return
        with pytest.raises(EskinError) as info:
            load_config(cfg)
        assert info.value.exit_code == 1
        assert names_leaf(str(info.value), f"invalid config file {cfg}: ", path)

    def test_every_ranged_leaf_is_swept(self):
        swept = {path.partition("[")[0] for path, *_ in CONFIG_LEAVES}
        assert swept == {path for path, tp in scalar_leaves(RunConfig) if ranged(tp)}


def scalar_leaves(cls: type, prefix: str = ""):
    """(dotted path, annotation) of every scalar leaf of a record's
    annotation tree, through nested records, ``X | None`` and tuple items,
    which share their tuple's path."""
    hints = typing.get_type_hints(cls, include_extras=True)
    stack = [(f"{prefix}{f.name}", hints[f.name]) for f in dataclasses.fields(cls)]
    while stack:
        path, tp = stack.pop()
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if dataclasses.is_dataclass(tp):
            yield from scalar_leaves(tp, f"{path}.")
        elif origin in (typing.Union, types.UnionType, tuple):
            stack += [(path, a) for a in args if a not in (type(None), Ellipsis)]
        else:
            yield path, tp


def ranged(tp) -> bool:
    args = typing.get_args(tp)
    return typing.get_origin(tp) is typing.Annotated and isinstance(args[1], Range)


def test_no_unchecked_hyperparameter():
    """Every int and float a run config holds, the pipeline's and each
    learner's included, declares its Range, so no knob ships without one;
    a bool or str leaf needs none."""
    unchecked = [path for path, tp in scalar_leaves(RunConfig) if tp in (int, float)]
    assert unchecked == []
