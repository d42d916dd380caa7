import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from endgame.streams import (resolve_root_seed, stream, stream_key,
                             stream_seed, tile_stream, tile_streams)


def test_same_path_same_stream():
    a = stream(7, "alpha", 3).random(5)
    b = stream(7, "alpha", 3).random(5)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    a = stream(7, "alpha").random(5)
    b = stream(7, "beta").random(5)
    c = stream(8, "alpha").random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_components_accept_ints_and_strings():
    s1 = stream_seed(0, "x", 1)
    s2 = stream_seed(0, "x", 2)
    assert s1.entropy != s2.entropy


def test_root_seed_resolution(monkeypatch):
    assert resolve_root_seed(11) == 11
    monkeypatch.setenv("ENDGAME_SEED", "42")
    assert resolve_root_seed() == 42
    monkeypatch.delenv("ENDGAME_SEED")
    assert resolve_root_seed() == 0


@pytest.mark.parametrize("explicit,env,named", [
    (-1, None, "seed: "), (None, "-3", "ENDGAME_SEED: "),
    (None, "abc", "ENDGAME_SEED: "), (None, "1.5", "ENDGAME_SEED: ")],
    ids=["explicit", "env-negative", "env-text", "env-float"])
def test_bad_root_seed_names_its_source(monkeypatch, explicit, env, named):
    if env is None:
        monkeypatch.delenv("ENDGAME_SEED", raising=False)
    else:
        monkeypatch.setenv("ENDGAME_SEED", env)
    with pytest.raises(ValueError, match=named) as exc:
        resolve_root_seed(explicit)
    assert repr(env if explicit is None else explicit) in str(exc.value)
    # an explicit seed wins over a bad ENDGAME_SEED
    assert resolve_root_seed(4) == 4


# ---------------------------------------------------------------------------
# tiles addressed by the Philox counter

TILES = [0, 1, 2**31, 2**32, 2**63, 2**64 - 1]
components = st.integers(0, 2**70) | st.text(max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(root=st.integers(0, 2**70),
       path=st.lists(components, max_size=6).map(tuple),
       category=components,
       tiles=st.lists(st.tuples(st.integers(0, 2**64 - 1),
                                st.integers(0, 2**64 - 1)), max_size=3))
def test_tile_streams_equal_fresh_counter_philox(root, path, category,
                                                 tiles):
    """Tile (g, w) of a category is a fresh Philox generator at counter
    (0, w, g, 0) under the key of ``(root, *path, category)``, built from
    numpy alone; tile (0, 0) is :func:`stream`.  Roots and labels above
    2**64 take several entropy words."""
    key = stream_key(root, *path, category)
    for g, w in [(g, w) for g in TILES[:3] for w in TILES[-3:]] + tiles:
        got = tile_stream(key, g, w).random(6)
        expected = oracle.tile_generator(root, *path, category, g=g, w=w)
        assert np.array_equal(got, expected.random(6))
    assert np.array_equal(tile_stream(key, 0, 0).random(6),
                          stream(root, *path, category).random(6))


def test_a_moved_generator_draws_each_tile_as_a_fresh_one():
    """``tile_streams`` moves one generator from tile to tile, after
    reads that leave part of a Philox block or of a 64-bit output
    buffered, and each tile draws what a fresh generator draws."""
    key = stream_key(3, "moved", "flex")
    at = tile_streams(key)
    reads = [lambda r: r.random(5),
             lambda r: r.integers(0, 7, size=9, dtype=np.int8),
             lambda r: r.integers(0, 20, size=3, dtype=np.uint8),
             lambda r: r.integers(0, 2**20, size=3, dtype=np.uint32)]
    tiles = [(0, 0), (5, 2), (0, 0), (2**63, 1), (5, 2), (1, 2**64 - 1)]
    for i, (g, w) in enumerate(tiles):
        read = reads[i % len(reads)]
        assert np.array_equal(read(at(g, w)), read(tile_stream(key, g, w)))


def test_negative_root_seed_raises_like_seed_sequence():
    with pytest.raises(ValueError) as expected:
        stream_seed(-1, "x")
    with pytest.raises(ValueError) as got:
        stream_key(-1, "x")
    assert str(got.value) == str(expected.value)
