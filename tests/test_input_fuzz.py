"""Fuzzing of the parcel input files: a corpus or a flex-table file, edited
at random, either loads or raises ValueError naming the file, and
``parcel run`` then exits 2 with a message rather than a traceback."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endgame.harness import cli
from endgame.parcel import corpus as cp
from endgame.parcel import simulate as sim
from endgame.parcel import tables as tb

TOKENS = ["", "0", "1", "-1", "2", "7", "2.5", "nan", "inf", "-inf", "1e400",
          "x", "#", "{}", "[]", "null", '{"n_zones": 0}', '{"bogus": 1}',
          "matrix", "vector", "inc", "ser", "arrival_prob", "n_obs",
          "format", "zones", "center", "depot", "spec", "seed"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths and texts of a small corpus and its flex tables."""
    work = tmp_path_factory.mktemp("fuzz")
    corpus = cp.build_corpus(cp.GeometrySpec(n_zones=2, pool_size=12,
                                             epsilon=6.0), seed=0)
    corpus_path, tables_path = work / "corpus.txt", work / "tables.txt"
    cp.save_corpus(corpus, corpus_path)
    tb.save_tables(tb.estimate_flex_tables(
        corpus, sim.ParcelParams(N=2, T=20), reps=1, root_seed=0),
        tables_path)
    return {"work": work, "corpus": str(corpus_path),
            "tables": str(tables_path),
            "corpus_text": corpus_path.read_text(),
            "tables_text": tables_path.read_text()}


@st.composite
def edited(draw, text):
    """``text`` with one to three random line edits."""
    lines = text.splitlines()
    token = st.one_of(st.sampled_from(TOKENS), st.text(max_size=6))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        op = draw(st.sampled_from(["drop", "repeat", "token", "insert",
                                   "cut"]))
        if not lines:
            lines = [draw(token)]
        elif op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "token":
            parts = lines[i].split(" ")
            j = draw(st.integers(0, len(parts) - 1))
            parts[j] = draw(token)
            lines[i] = " ".join(parts)
        elif op == "insert":
            lines.insert(i, " ".join(draw(st.lists(token, max_size=4))))
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines) + "\n"


def parcel_run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()):
        code = cli.main(["parcel", "run", *argv])
    return code, err.getvalue()


def check_refused(path, load, argv) -> bool:
    """True when ``path`` loads; else its ValueError names the file and
    ``parcel run`` on it exits 2, naming it too."""
    try:
        load(path)
    except ValueError as exc:
        assert str(path) in str(exc), str(exc)
        code, err = parcel_run(*argv)
        assert code == 2 and str(path) in err, err
        return False
    return True


@settings(derandomize=True, max_examples=300, deadline=None,
          database=None)
@given(data=st.data())
def test_edited_corpus_loads_or_exits_2(inputs, data):
    path = str(inputs["work"] / "edited-corpus.txt")
    with open(path, "w") as fh:
        fh.write(data.draw(edited(inputs["corpus_text"])))
    if check_refused(path, cp.load_corpus,
                     ["--corpus", path, "--policy", "no_flex"]):
        corpus = cp.load_corpus(path)
        # a corpus that loads runs a day
        sim.run_day(sim.ParcelPolicy(kind="no_flex"), corpus,
                    sim.ParcelParams(N=corpus.n_zones, T=20))


@settings(derandomize=True, max_examples=300, deadline=None,
          database=None)
@given(data=st.data())
def test_edited_tables_load_or_exit_2(inputs, data):
    path = str(inputs["work"] / "edited-tables.txt")
    with open(path, "w") as fh:
        fh.write(data.draw(edited(inputs["tables_text"])))
    argv = ["--corpus", inputs["corpus"], "--tables", path, "--policy",
            "cost_min"]
    if check_refused(path, tb.load_tables, argv):
        # tables that load run a day, or are refused with the ValueError
        # that `parcel run` reports with exit 2
        corpus = cp.load_corpus(inputs["corpus"])
        try:
            sim.run_day(sim.ParcelPolicy(kind="cost_min"), corpus,
                        sim.ParcelParams(N=corpus.n_zones, T=20),
                        tb.load_tables(path))
        except ValueError as exc:
            assert "flex tables are for" in str(exc)


@pytest.mark.parametrize("which", ["corpus", "tables"])
def test_unreadable_bytes_name_the_file(inputs, which):
    path = str(inputs["work"] / f"binary-{which}.txt")
    with open(path, "wb") as fh:
        fh.write(b"# format \xff\xfe\n")
    load = cp.load_corpus if which == "corpus" else tb.load_tables
    argv = (["--corpus", path, "--policy", "no_flex"] if which == "corpus"
            else ["--corpus", inputs["corpus"], "--tables", path,
                  "--policy", "cost_min"])
    assert not check_refused(path, load, argv)
