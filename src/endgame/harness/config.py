"""Experiment configuration: a YAML file with model, policies, params,
sweep axes, and run settings.  CLI flags may override the run settings."""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field, fields

from ..balls_bins import POLICY_CONSTANTS, POLICY_KINDS

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

# fields a policy entry may set if its kind reads them (POLICY_CONSTANTS);
# opaque dynamic is always latched, parcel policies read only params
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
    preset: str | None = None  # bins and opaque: None runs numerics
    replications: int | None = None  # None: the model's DEFAULT_REPLICATIONS
    seed: int | None = None
    out_dir: str = "results"

    def __post_init__(self):
        validate_config(self)


DEFAULT_REPLICATIONS = {"bins": 1000, "opaque": 10, "parcel": 50}

# the values of the parameters a bins or opaque cell may leave out (a
# parcel cell's are ParcelParams'); raw rows show only those it gave
MODEL_DEFAULTS = {
    "bins": {"N": 2, "q": 1.0},
    "opaque": {"N": 5, "q": 0.1, "regime": "delta_zero",
               "cycles_per_instance": 10},
}


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.model not in MODELS:
        raise ConfigError(f"model: unknown model {cfg.model!r}, "
                          f"expected one of {MODELS}")
    if not cfg.policies:
        raise ConfigError("policies: need at least one policy")
    for name, low, expected in (("seed", 0, "a non-negative integer"),
                                ("replications", 1, "an integer >= 1")):
        value = getattr(cfg, name)
        if value is not None and not (
                isinstance(value, numbers.Integral)
                and not isinstance(value, bool) and value >= low):
            raise ConfigError(f"{name}: expected {expected}, got {value!r}")
    if cfg.replications is None:
        cfg.replications = DEFAULT_REPLICATIONS[cfg.model]
    if not isinstance(cfg.out_dir, str) or not cfg.out_dir:
        raise ConfigError(f"out_dir: expected a directory name, "
                          f"got {cfg.out_dir!r}")
    if cfg.preset is not None and cfg.model == "parcel":
        raise ConfigError(f"preset: not read by model {cfg.model!r}")
    if cfg.preset not in (None, "theory", "numerics"):
        raise ConfigError(f"preset: expected theory or numerics, "
                          f"got {cfg.preset!r}")
    if not isinstance(cfg.policies, (list, tuple)):
        raise ConfigError("policies: expected a list")
    # the opaque model runs the bins model's policy kinds; imported here:
    # a bins or opaque config need not load the parcel modules
    model_kinds = POLICY_KINDS
    if cfg.model == "parcel":
        from ..parcel.simulate import PARCEL_POLICIES as model_kinds
    kinds = set()
    for i, policy in enumerate(cfg.policies):
        entry = {"kind": policy} if isinstance(policy, str) else policy
        if not isinstance(entry, dict) or not isinstance(entry.get("kind"),
                                                         str):
            raise ConfigError(f"policies[{i}]: needs a kind")
        if entry["kind"] not in model_kinds:
            raise ConfigError(f"policies[{i}].kind: unknown {cfg.model} "
                              f"policy {entry['kind']!r}, expected one of "
                              f"{', '.join(model_kinds)}")
        reads = {"kind", *POLICY_CONSTANTS.get(entry["kind"], ())}
        for name, value in entry.items():
            where = f"policies[{i}].{name}"
            if name not in POLICY_FIELDS[cfg.model] & reads:
                raise ConfigError(f"{where}: not read by a {cfg.model} "
                                  f"{entry['kind']} policy")
            if name in ("a_s", "a_d") and _coerce(where, float, value) < 0:
                raise ConfigError(f"{where}: must be >= 0, got {value!r}")
            if name == "latched" and not isinstance(value, bool):
                raise ConfigError(f"{where}: expected true or false, "
                                  f"got {value!r}")
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
        # imported here, as the model kinds above
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
    for name, values in cfg.sweep.items():
        if len(set(values)) < len(values):
            twice = next(v for i, v in enumerate(values) if v in values[:i])
            raise ConfigError(f"sweep.{name}: a second {twice!r}; each "
                              "value may appear once")
    if cfg.model == "opaque":
        # a cell of no cycles has no rows to write
        given = [("params", cfg.params.get("cycles_per_instance", 1))] + [
            ("sweep", value)
            for value in cfg.sweep.get("cycles_per_instance", [])]
        for where, value in given:
            if value < 1:
                raise ConfigError(f"{where}.cycles_per_instance: expected "
                                  f"an integer >= 1, got {value!r}")
    if cfg.model == "parcel":
        # every cell's day parameters are checked before any cell runs
        from ..parcel.simulate import ParcelParams
        for where in ("params", "sweep"):
            for name, values in getattr(cfg, where).items():
                if types[name] is str:
                    continue
                for value in values if where == "sweep" else [values]:
                    try:
                        ParcelParams(**{name: value})
                    except ValueError as exc:
                        raise ConfigError(f"{where}.{name}: {exc}") from None


def _coerce(where: str, kind: type, value):
    """``value`` as a ``kind``; a number must be finite, and an int
    parameter takes only integral numbers, so that 200 and 200.0 name
    the same cell."""
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    return number


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a YAML config; keyword overrides (from CLI flags) win over
    file values when not None."""
    import yaml  # imported here: only YAML configs need it (about 1 MB)

    class _Loader(yaml.SafeLoader):
        """PyYAML's safe loader, which follows YAML 1.1, plus YAML 1.2's
        floats with an exponent and no dot or no exponent sign (1e-1,
        1E5, 2.5e3), which YAML 1.1 reads as strings."""

    _Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."))
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_Loader) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config root: expected a mapping, "
                          f"got {type(data).__name__}")
    known = {f.name for f in fields(ExperimentConfig)}
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
