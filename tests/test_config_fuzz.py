"""Fuzzing of the config loader: a valid tiny bins, opaque or parcel
config with one to three of its keys set to a token, dropped, or its
text cut short either runs (exit 0) or exits 2 with a message, never
with a traceback.  A parcel config may also exit 1, the code of a
missing input file, when it names a corpus or tables file that is not
there.  Each sweep runs in a directory of its own, so that a relative
``out_dir`` stays inside it."""

import contextlib
import copy
import io
import pathlib
import tempfile

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endgame.harness import cli
from endgame.harness.config import MODEL_PARAMS, POLICY_FIELDS
from endgame.parcel import corpus as cp
from endgame.parcel import tables as tb
from endgame.parcel.simulate import ParcelParams

BINS = {
    "model": "bins",
    "policies": ["no_flex", {"kind": "static", "a_s": 1.0},
                 {"kind": "dynamic", "a_d": 0.7, "latched": True},
                 {"kind": "flex_sqrt_t", "a_s": 0.5}],
    "params": {"N": 3, "q": 0.5},
    "sweep": {"T": [20, 30]},
    "preset": "numerics",
    "replications": 2,
    "seed": 1,
    "out_dir": "out",
}

OPAQUE = {
    "model": "opaque",
    "policies": ["no_flex", {"kind": "static", "a_s": 1.0},
                 {"kind": "dynamic", "a_d": 0.5}],
    "params": {"N": 3, "q": 0.4, "regime": "delta_const",
               "cycles_per_instance": 2},
    "sweep": {"S": [4, 6]},
    "preset": "theory",
    "replications": 2,
    "seed": 2,
    "out_dir": "out",
}

# YAML values; no token makes a sweep large or names a path outside the
# sweep's directory
TOKENS = ["0", "1", "-1", "2", "5", "7", "1.5", "2.5", "-0.5", ".nan",
          ".inf", "-.inf", "1.0e400", "1e400", "true", "false", "null",
          "x", "''", "[]", "[1]", "[0.5, 2]", "{}", "{a: 1}", "no_flex",
          "dynamic", "theory", "delta_sqrt", "bins", "opaque", "parcel"]


def key_paths(config) -> list:
    """Every key of ``config``, and every key it could hold: top-level,
    parameter, sweep-value and policy-field paths."""
    model = config["model"]
    paths = [(key,) for key in config]
    paths += [(where, name) for where in ("params", "sweep")
              for name in MODEL_PARAMS[model]]
    paths += [("sweep", name, i) for name, values in config["sweep"].items()
              for i in range(len(values))]
    paths += [("policies", i) for i in range(len(config["policies"]))]
    paths += [("policies", i, name)
              for i, policy in enumerate(config["policies"])
              if isinstance(policy, dict)
              for name in sorted(POLICY_FIELDS[model])]
    return paths


def apply(config, path, token):
    """``config`` with ``path`` set to ``token``'s value, or dropped when
    ``token`` is None; a path whose parent is gone or is not a container
    leaves it as it was."""
    config = copy.deepcopy(config)
    parent = config
    try:
        for key in path[:-1]:
            parent = parent[key]
        if token is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = yaml.safe_load(token)
    except (KeyError, IndexError, TypeError):
        pass
    return config


@st.composite
def edited(draw, config):
    """The YAML text of ``config`` after one to three key edits, and
    sometimes cut short."""
    paths = key_paths(config)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        token = draw(st.none() | st.sampled_from(TOKENS))
        config = apply(config, path, token)
    text = yaml.safe_dump(config, sort_keys=False)
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def sweep(work, model, text) -> tuple[int, str]:
    """``<model> sweep --config`` on ``text`` in a fresh directory under
    ``work``: the exit code and stderr."""
    run_dir = pathlib.Path(tempfile.mkdtemp(dir=work))
    config = run_dir / "exp.yaml"
    config.write_text(text)
    err = io.StringIO()
    with contextlib.chdir(run_dir), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([model, "sweep", "--config", str(config)])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("config-fuzz")


@pytest.fixture(scope="module")
def parcel_config(work):
    """A tiny parcel config on a corpus and tables built here."""
    spec = cp.GeometrySpec(n_zones=3, pool_size=120, city_radius_km=6.0,
                           epsilon=15.0)
    corpus = cp.build_corpus(spec, seed=0)
    cp.save_corpus(corpus, work / "corpus.txt")
    tb.save_tables(tb.estimate_flex_tables(corpus, ParcelParams(N=3, T=60),
                                           reps=2),
                   work / "tables.txt")
    return {
        "model": "parcel",
        "policies": ["no_flex", {"kind": "routing_dynamic"},
                     {"kind": "cost_min"}],
        # T under params too, so that dropping one T keeps days short
        "params": {"corpus": str(work / "corpus.txt"),
                   "tables": str(work / "tables.txt"), "T": 40, "M1": 20,
                   "a_d": 0.6},
        "sweep": {"T": [30, 40]},
        # no preset: parcel policies read none
        "replications": 2,
        "seed": 3,
        "out_dir": "out",
    }


def named_files(text) -> list:
    """The corpus and tables values of a parcel config's text."""
    data = yaml.safe_load(text)
    values = []
    for where in ("params", "sweep"):
        for name in ("corpus", "tables"):
            value = data.get(where, {}).get(name, [])
            values += value if isinstance(value, list) else [value]
    return [str(value) for value in values]


# values a config's run settings and policy fields took without a check
MALFORMED = [
    (("seed",), "[1]"), (("seed",), "1.5"), (("seed",), "-1"),
    (("replications",), "2.5"), (("replications",), "true"),
    (("out_dir",), "5"), (("out_dir",), "''"),
    (("policies", 1, "a_s"), "x"), (("policies", 1, "a_s"), ".nan"),
    (("policies", 2, "a_d"), "-0.5"), (("policies", 2, "latched"), "x"),
]


@settings(derandomize=True, max_examples=300, deadline=None,
          database=None)
@given(text=edited(BINS))
@example(text=yaml.safe_dump(BINS))
@example(text="model: bins\npolicies: [no_flex\n")
def test_edited_bins_config_runs_or_exits_2(work, text):
    code, err = sweep(work, "bins", text)
    assert code in (0, 2), err
    assert code == 0 or err


@settings(derandomize=True, max_examples=200, deadline=None,
          database=None)
@given(text=edited(OPAQUE))
@example(text=yaml.safe_dump(OPAQUE))
def test_edited_opaque_config_runs_or_exits_2(work, text):
    code, err = sweep(work, "opaque", text)
    assert code in (0, 2), err
    assert code == 0 or err


def test_edited_parcel_config_runs_or_exits_1_or_2(work, parcel_config):
    @settings(derandomize=True, max_examples=150, deadline=None,
              database=None)
    @given(text=edited(parcel_config))
    @example(text=yaml.safe_dump(parcel_config))
    def check(text):
        code, err = sweep(work, "parcel", text)
        assert code in (0, 1, 2), err
        assert code == 0 or err
        if code == 1:  # only a missing input file, named in the message
            assert "No such file" in err, err
            assert any(repr(path) in err for path in named_files(text)), err

    check()


@pytest.mark.parametrize("path,token", MALFORMED,
                         ids=[f"{'.'.join(map(str, p))}={t}"
                              for p, t in MALFORMED])
def test_malformed_value_exits_2_naming_its_field(work, path, token):
    code, err = sweep(work, "bins",
                      yaml.safe_dump(apply(BINS, path, token)))
    field = path[0] if len(path) == 1 else f"policies[{path[1]}].{path[2]}"
    assert code == 2 and field in err, err


@pytest.mark.parametrize("model,name,values", [
    ("bins", "T", [50, 50.0]), ("bins", "q", [0.5, 0.25, 0.50]),
    ("opaque", "S", [4, 4]), ("opaque", "regime", ["delta_zero"] * 2)])
def test_repeated_sweep_value_exits_2_naming_its_axis(work, model, name,
                                                      values):
    """A value given twice on one sweep axis, after coercion, would run
    each of its cells twice."""
    config = copy.deepcopy(BINS if model == "bins" else OPAQUE)
    config["params"].pop(name, None)
    config["sweep"][name] = values
    code, err = sweep(work, model, yaml.safe_dump(config))
    assert code == 2 and f"sweep.{name}: a second" in err, err
