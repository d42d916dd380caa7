import numpy as np
import pytest

import oracle
from endgame.parcel import corpus as cp
from endgame.parcel import tables as tb
from endgame.parcel.simulate import ParcelParams


@pytest.fixture(scope="module")
def small_setup():
    spec = cp.GeometrySpec(n_zones=4, pool_size=600, city_radius_km=8.0,
                           cluster_sd_km=1.5, unload_mean_hours=0.05,
                           unload_sigma=0.8, epsilon=30.0)
    corpus = cp.build_corpus(spec, seed=0)
    params = ParcelParams(N=4, T=120)
    tables = tb.estimate_flex_tables(corpus, params, reps=6, root_seed=0)
    return corpus, params, tables


def test_shapes_and_probabilities(small_setup):
    corpus, params, tables = small_setup
    N = params.N
    assert tables.inc.shape == (N, N)
    assert tables.ser.shape == (N, N)
    assert tables.n_obs.shape == (N, N)
    assert tables.arrival_prob.shape == (N,)
    assert tables.arrival_prob.sum() == pytest.approx(1.0)
    assert np.all(tables.arrival_prob > 0)


def test_observed_entries_plausible(small_setup):
    corpus, params, tables = small_setup
    obs = tables.n_obs > 0
    assert obs.any()
    assert np.all(np.isfinite(tables.inc[obs]))
    assert np.all(tables.inc[obs] >= -1e-9)
    assert np.all(np.isnan(tables.inc[~obs]))
    assert np.all(np.isnan(tables.ser[~obs]))
    # service entries average package unloading times
    ser_obs = tables.ser[obs]
    assert np.all(ser_obs > 0)
    pool_mean = corpus.unload.mean()
    assert 0.2 * pool_mean < np.nanmean(ser_obs) < 5 * pool_mean


def test_diagonal_observed_everywhere(small_setup):
    # every zone receives its own defaults, so the diagonal is dense
    corpus, params, tables = small_setup
    assert np.all(np.diag(tables.n_obs) > 0)
    assert np.all(np.isfinite(np.diag(tables.inc)))


def test_estimation_deterministic(small_setup, monkeypatch):
    corpus, params, tables = small_setup
    # replays reach run_day through the module attribute, which the
    # benchmark traces
    paths = []
    day = tb.run_day

    def counting(*args, **kwargs):
        paths.append(kwargs["stream_path"])
        return day(*args, **kwargs)

    monkeypatch.setattr(tb, "run_day", counting)
    again = tb.estimate_flex_tables(corpus, params, reps=6, root_seed=0)
    assert paths == [("tables", k) for k in range(6)]
    assert np.array_equal(tables.n_obs, again.n_obs)
    assert np.array_equal(tables.inc, again.inc, equal_nan=True)
    assert np.array_equal(tables.ser, again.ser, equal_nan=True)


@pytest.fixture(scope="module")
def golden_corpus():
    """The corpus of the golden parcel sweeps (`parcel gen-corpus --zones 3
    --pool-size 150 --epsilon 15 --seed 0`)."""
    spec = cp.GeometrySpec(n_zones=3, pool_size=150, epsilon=15.0)
    return cp.build_corpus(spec, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("world", ["small", "golden", "sparse"])
def test_estimation_equals_oracle(small_setup, golden_corpus, world, seed):
    if world == "small":
        corpus, params, _ = small_setup
    elif world == "golden":
        corpus, params = golden_corpus, ParcelParams(N=3, T=600)
    else:  # a truck with no stops, and every zone in every flex set
        corpus, params = small_setup[0], ParcelParams(N=4, T=3, flex_km=20.0)
    got = tb.estimate_flex_tables(corpus, params, reps=3, root_seed=seed)
    want = oracle.estimate_flex_tables(corpus, params, reps=3,
                                       root_seed=seed)
    assert np.array_equal(got.n_obs, want.n_obs)
    assert np.array_equal(got.inc, want.inc, equal_nan=True)
    assert np.array_equal(got.ser, want.ser, equal_nan=True)
    assert np.array_equal(got.arrival_prob, want.arrival_prob)


def test_estimation_refuses_reps_below_one(small_setup):
    corpus, params, _ = small_setup
    for reps in (0, -1):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            tb.estimate_flex_tables(corpus, params, reps=reps)


def test_save_load_round_trip(small_setup, tmp_path):
    _, _, tables = small_setup
    path = tmp_path / "tables.txt"
    tb.save_tables(tables, path)
    back = tb.load_tables(path)
    assert np.array_equal(tables.inc, back.inc, equal_nan=True)
    assert np.array_equal(tables.ser, back.ser, equal_nan=True)
    assert np.array_equal(tables.arrival_prob, back.arrival_prob)
    assert np.array_equal(tables.n_obs, back.n_obs)


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# format not-tables-9\n# zones 2\n")
    with pytest.raises(ValueError):
        tb.load_tables(path)


def test_flex_tables_shape_validation():
    with pytest.raises(ValueError):
        tb.FlexTables(inc=np.zeros((3, 2)), ser=np.zeros((3, 3)),
                      arrival_prob=np.full(3, 1 / 3), n_obs=None)
    with pytest.raises(ValueError, match="arrival_prob length"):
        tb.FlexTables(inc=np.zeros((3, 3)), ser=np.zeros((3, 3)),
                      arrival_prob=np.full(2, 1 / 2), n_obs=None)
