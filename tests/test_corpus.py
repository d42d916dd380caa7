import hashlib
import tracemalloc

import numpy as np
import pytest

import oracle
from endgame.parcel import corpus as cp
from endgame.parcel import simulate as sim
from endgame.parcel import tables as tb


def small_spec(**kw):
    base = dict(n_zones=4, pool_size=400, city_radius_km=10.0,
                cluster_sd_km=1.0, unload_mean_hours=0.05, unload_sigma=0.8,
                epsilon=50.0)
    base.update(kw)
    return cp.GeometrySpec(**base)


def test_build_calibration():
    spec = small_spec(pool_size=4000)
    c = cp.build_corpus(spec, seed=0)
    assert len(c) == 4000
    assert c.points.shape == (4000, 2)
    assert np.all(c.unload > 0)
    assert abs(c.unload.mean() - spec.unload_mean_hours) \
        < 0.1 * spec.unload_mean_hours
    assert c.n_zones == spec.n_zones
    counts = np.bincount(c.default_zone, minlength=4)
    assert np.all(np.abs(counts - 1000) <= spec.epsilon)
    p = c.arrival_prob()
    assert p.sum() == pytest.approx(1.0)
    assert np.array_equal(c.depot, np.zeros(2))


@pytest.mark.parametrize("name", ["city_radius_km", "cluster_sd_km",
                                  "unload_mean_hours", "unload_sigma",
                                  "epsilon"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                   float("nan")])
def test_spec_refuses_non_finite_floats_naming_the_field(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite, got "
                       f"{value}"):
        small_spec(**{name: value})


def test_zero_spread_degenerate_clusters():
    spec = small_spec(cluster_sd_km=1e-9, epsilon=0.0)
    c = cp.build_corpus(spec, seed=2)
    # packages collapse onto at most n_zones distinct locations
    distinct = np.unique(np.round(c.points, 6), axis=0)
    assert len(distinct) <= spec.n_zones
    assert np.all(np.bincount(c.default_zone, minlength=4) == 100)


@pytest.mark.parametrize("city, seed", [
    *(("small", seed) for seed in (0, 1, 2, 5, 6, 9)),
    *(("bench_tiny", seed) for seed in range(4)),
])
def test_default_zones_are_the_lp_assignment(city, seed):
    # bench_tiny is the benchmark's tiny parcel city
    spec = (small_spec() if city == "small" else
            cp.GeometrySpec(pool_size=1200, n_zones=6, epsilon=20.0))
    c = cp.build_corpus(spec, seed=seed)
    lp, _ = oracle.lp_balanced_assign(c.points, c.centers, spec.epsilon)
    assert np.array_equal(c.default_zone, lp)


def test_points_inside_plausible_region():
    spec = small_spec()
    c = cp.build_corpus(spec, seed=1)
    r = np.hypot(c.points[:, 0], c.points[:, 1])
    # centers in a 10 km disc, 1 km spread: essentially everything < 16 km
    assert r.max() < spec.city_radius_km + 6 * spec.cluster_sd_km


def test_determinism_and_seed_sensitivity():
    spec = small_spec()
    a = cp.build_corpus(spec, seed=5)
    b = cp.build_corpus(spec, seed=5)
    c = cp.build_corpus(spec, seed=6)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.unload, b.unload)
    assert np.array_equal(a.default_zone, b.default_zone)
    assert not np.array_equal(a.points, c.points)


def test_save_load_round_trip(tmp_path):
    spec = small_spec(pool_size=150)
    a = cp.build_corpus(spec, seed=9)
    path = tmp_path / "corpus.txt"
    cp.save_corpus(a, path)
    b = cp.load_corpus(path)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.unload, b.unload)
    assert np.array_equal(a.default_zone, b.default_zone)
    assert np.array_equal(a.centers, b.centers)
    assert b.seed == 9
    assert b.spec == spec


@pytest.fixture(scope="module")
def default_city(tmp_path_factory):
    """The default seed-0 corpus, the benchmark's parcel city, and the
    path it is saved to."""
    corpus = cp.build_corpus(cp.GeometrySpec(), 0)
    path = tmp_path_factory.mktemp("city") / "corpus.txt"
    cp.save_corpus(corpus, path)
    return corpus, path


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_corpus_and_tables_files_are_pinned(default_city, tmp_path):
    # the files the parcel benchmark's set-up writes at seed 11
    corpus, path = default_city
    assert _sha256(path) == ("62605f5c5c432481ac6bce0c7b50650e"
                             "a2427faf2cf486254bf82d7f95fd6b21")
    tables = tmp_path / "tables.txt"
    tb.save_tables(tb.estimate_flex_tables(corpus, sim.ParcelParams(N=24),
                                           reps=2, root_seed=11), tables)
    assert _sha256(tables) == ("e57c5233115ed01d165e6439085e62e5"
                               "ec5b09589712677ecd25a2d74c6f5cd5")


def test_load_holds_no_per_package_objects(default_city):
    # 20,000 packages: 0.8 MB of arrays; a tuple per package takes 4.7 MB
    corpus, path = default_city
    tracemalloc.start()
    try:
        loaded = cp.load_corpus(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.points, corpus.points)
    assert peak < 2.5e6


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# format other-thing-3\n")
    with pytest.raises(ValueError):
        cp.load_corpus(path)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(pool_size=0)
    with pytest.raises(ValueError):
        small_spec(unload_mean_hours=-1.0)
