"""Experiment configuration: a YAML file with model, policies, params,
sweep axes, and run settings.  CLI flags may override file values."""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

MODELS = ("bins", "opaque", "parcel")

# parameters accepted under "params:"/"sweep:" for each model
MODEL_PARAMS = {
    "bins": {"T", "N", "q"},
    "opaque": {"N", "S", "q", "regime", "cycles_per_instance"},
    # N is the corpus's zone count
    "parcel": {"c_r", "c_o", "h_max", "T", "speed", "flex_km",
               "oblivious_radius_km", "M1", "M2", "a_d",
               "corpus", "tables"},
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class ExperimentConfig:
    model: str
    policies: list
    params: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    preset: str = "numerics"
    replications: int | None = None
    seed: int | None = None
    out_dir: str = "results"

    def __post_init__(self):
        validate_config(self)


DEFAULT_REPLICATIONS = {"bins": 1000, "opaque": 10, "parcel": 50}


def default_replications(model: str) -> int:
    return DEFAULT_REPLICATIONS[model]


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.model not in MODELS:
        raise ConfigError(f"model: unknown model {cfg.model!r}, "
                          f"expected one of {MODELS}")
    if not cfg.policies:
        raise ConfigError("policies: need at least one policy")
    if cfg.replications is not None and cfg.replications < 1:
        raise ConfigError(
            f"replications: must be >= 1, got {cfg.replications}")
    if cfg.preset not in ("theory", "numerics"):
        raise ConfigError(f"preset: expected theory or numerics, "
                          f"got {cfg.preset!r}")
    allowed = MODEL_PARAMS[cfg.model]
    for name in cfg.params:
        if name not in allowed:
            raise ConfigError(
                f"params.{name}: not a parameter of model {cfg.model!r}")
    for name, values in cfg.sweep.items():
        if name not in allowed:
            raise ConfigError(
                f"sweep.{name}: not a parameter of model {cfg.model!r}")
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ConfigError(f"sweep.{name}: needs a nonempty value list")


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a YAML config; keyword overrides (from CLI flags) win over
    file values when not None."""
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root: expected a mapping, "
                          f"got {type(data).__name__}")
    known = {"model", "policies", "params", "sweep", "preset",
             "replications", "seed", "out_dir"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown top-level field")
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    try:
        return ExperimentConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
