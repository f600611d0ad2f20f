"""Run configuration loading, overrides, and seed threading."""

import json

import pytest

from eskin import (
    ConfigError,
    PipelineConfig,
    ProtocolError,
    RunConfig,
    SingleForceProtocol,
    SkinModel,
    TwoForceProtocol,
    apply_seed,
    load_config,
)
from eskin.codec import from_dict, to_dict
from eskin.config import ENV_CONFIG


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
             "reps_per_cell must be >= 1"),
            ({"two_protocol": {"seed": -5}}, ProtocolError,
             "two-force seed must be >= 0, got -5"),
            ({"k_two": 1}, ConfigError, "fold counts must be >= 2"),
            ({"pipeline": {"gp_cap": 0}}, ConfigError, "gp_cap must be >= 1"),
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
