"""Experiment configuration: a YAML file with model, policies, params,
sweep axes, and run settings.  CLI flags may override the run settings."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import yaml

MODELS = ("bins", "opaque", "parcel")

# parameters accepted under "params:"/"sweep:" for each model, with the
# type each value is brought to, so that one cell has one spelling
MODEL_PARAMS = {
    "bins": {"T": int, "N": int, "q": float},
    "opaque": {"N": int, "S": int, "q": float, "regime": str,
               "cycles_per_instance": int},
    # N is the corpus's zone count
    "parcel": {"c_r": float, "c_o": float, "h_max": float, "T": int,
               "speed": float, "flex_km": float,
               "oblivious_radius_km": float, "M1": int, "M2": int,
               "a_d": float, "corpus": str, "tables": str},
}

# parameters that shape a model's arrivals: a replication's streams are
# addressed by these alone, so every policy and every cost or policy
# constant of a sweep runs on the same arrivals
ARRIVAL_PARAMS = {"bins": ("T", "N", "q"), "opaque": ("N", "S", "q"),
                  "parcel": ("T",)}


def arrival_path(model: str, params) -> tuple:
    """The stream path ``(model, "k=v", ...)`` of a model's arrivals, from
    the resolved ``params`` object (defaults included) by the attributes
    :data:`ARRIVAL_PARAMS` names, each in its parameter's type; a
    replication appends its index."""
    types = MODEL_PARAMS[model]
    return (model,) + tuple(f"{name}={types[name](getattr(params, name))}"
                            for name in ARRIVAL_PARAMS[model])


# parameters a model cannot run without, set under "params:" or "sweep:"
REQUIRED_PARAMS = {"bins": ("T",), "opaque": ("S",), "parcel": ("corpus",)}

# fields a policy entry may set; the opaque dynamic policy is always
# latched, and parcel policies take their constants from params
POLICY_FIELDS = {
    "bins": {"kind", "a_s", "a_d", "latched"},
    "opaque": {"kind", "a_s", "a_d"},
    "parcel": {"kind"},
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
    if not isinstance(cfg.policies, (list, tuple)):
        raise ConfigError("policies: expected a list")
    kinds = set()
    for i, policy in enumerate(cfg.policies):
        entry = {"kind": policy} if isinstance(policy, str) else policy
        if not isinstance(entry, dict) or not isinstance(entry.get("kind"),
                                                         str):
            raise ConfigError(f"policies[{i}]: needs a kind")
        for name in entry:
            if name not in POLICY_FIELDS[cfg.model]:
                raise ConfigError(f"policies[{i}].{name}: not a policy "
                                  f"field of model {cfg.model!r}")
        if entry["kind"] in kinds:
            raise ConfigError(f"policies[{i}]: a second {entry['kind']!r} "
                              "policy; each kind may appear once")
        kinds.add(entry["kind"])
    for where in ("params", "sweep"):
        if not isinstance(getattr(cfg, where), dict):
            raise ConfigError(f"{where}: expected a mapping")
    types = MODEL_PARAMS[cfg.model]
    for name in {**cfg.params, **cfg.sweep}:
        if name not in types:
            where = "params" if name in cfg.params else "sweep"
            raise ConfigError(
                f"{where}.{name}: not a parameter of model {cfg.model!r}")
    for name in REQUIRED_PARAMS[cfg.model]:
        if name not in cfg.params and name not in cfg.sweep:
            raise ConfigError(f"params.{name}: required by model "
                              f"{cfg.model!r} (under params or sweep)")
    for name, values in cfg.sweep.items():
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ConfigError(f"sweep.{name}: needs a nonempty value list")
    if cfg.model == "parcel" and "tables" not in {**cfg.params, **cfg.sweep}:
        # imported here: the parcel modules load scipy
        from ..parcel.simulate import TABLE_POLICIES
        needs = sorted(kinds & TABLE_POLICIES)
        if needs:
            raise ConfigError(f"policies {needs} need flex tables; build "
                              "them with `endgame parcel estimate-tables`")
    cfg.params = {name: _coerce(f"params.{name}", types[name], value)
                  for name, value in cfg.params.items()}
    cfg.sweep = {name: [_coerce(f"sweep.{name}", types[name], v)
                        for v in values]
                 for name, values in cfg.sweep.items()}


def _coerce(where: str, kind: type, value):
    """``value`` as a ``kind``; an int parameter takes only integral
    numbers, so that 200 and 200.0 name the same cell."""
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if kind is int:
        if not float(value).is_integer():
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    return float(value)


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
