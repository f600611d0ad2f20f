"""Run configuration: embedded defaults, JSON overrides, one seed override.

A fully-defaulted RunConfig reproduces the desk-scale evaluation run
(6 060-sample single-force sweep, 10-fold CV; 648-sample two-force sweep,
5-fold CV). A config file only needs the keys it wants to change; unknown
keys are rejected rather than ignored.

Each seeded component reads its own ``seed`` key: the two protocols seed
their simulator noise, ``pipeline.forest`` its bootstrap draws and feature
subsets, ``pipeline`` the force GP's subsample, and the top-level ``seed``
only the fold shuffling of cross-validation. ``apply_seed`` (``--seed N``)
sets them all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Annotated

from .codec import NonNegativeInt, Range, check_ranges, from_dict, loads, to_dict
from .errors import ConfigError, EskinError
from .pipeline import PipelineConfig
from .sim import SingleForceProtocol, SkinModel, TwoForceProtocol

ENV_CONFIG = "ESKIN_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    model: SkinModel = field(default_factory=SkinModel)
    single_protocol: SingleForceProtocol = field(default_factory=SingleForceProtocol)
    two_protocol: TwoForceProtocol = field(default_factory=TwoForceProtocol)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    k_single: Annotated[int, Range(ge=2)] = 10
    k_two: Annotated[int, Range(ge=2)] = 5
    seed: NonNegativeInt = 0
    out_dir: str = "eskin_out"

    def __post_init__(self):
        check_ranges(self, ConfigError)
        # every stretch has no-contact rows, which sit at the rest level
        for name in ("stretch_gain_x", "stretch_gain_y"):
            gain = getattr(self.model, name)
            for stretch in self.single_protocol.stretches:
                if not (rest := self.model.baseline + gain * (stretch - 1.0)) > 0:
                    raise ConfigError(
                        f"model.{name} {gain:g} puts the noiseless rest level at "
                        f"stretch {stretch:g} at {rest:g}, not above 0"
                    )


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _deep_merge(base[key], val, path + key + ".")
        else:
            out[key] = val
    return out


def load_config(path: str | Path | None = None) -> RunConfig:
    """Defaults, overridden by the JSON file at ``path`` (or $ESKIN_CONFIG)."""
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        overrides = loads(text)
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    merged = _deep_merge(to_dict(RunConfig()), overrides)
    try:
        return from_dict(RunConfig, merged)
    except (EskinError, TypeError, ValueError) as exc:
        # exit 1 either way: a ConfigError (a ProtocolError) keeps its class
        cls = type(exc) if isinstance(exc, ConfigError) else ConfigError
        raise cls(f"invalid config file {path}: {exc}")


def apply_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Thread one seed through every seeded component."""
    return replace(
        cfg,
        seed=seed,
        single_protocol=replace(cfg.single_protocol, seed=seed),
        two_protocol=replace(cfg.two_protocol, seed=seed),
        pipeline=replace(
            cfg.pipeline,
            seed=seed,
            forest=replace(cfg.pipeline.forest, seed=seed),
        ),
    )
