"""Seeded random-stream derivation.

All randomness in the package flows through counter-based Philox generators
derived from a single root seed.  A stream is addressed by a path of labels
(strings or ints); the same path always yields the same stream, and distinct
paths yield statistically independent streams.  Two runs share draws exactly
when their paths agree, so a caller couples what it addresses alike: a
replication's arrival categories are fixed by (root seed, model path, rep).
Sweeps build the model path from the model and the values of the
parameters that shape its arrivals (``harness.config.arrival_path``), so
every policy and every cost constant of a sweep runs on common random
numbers, and cells that differ in an arrival parameter are independent.

A stream is a ``Philox`` keyed by :func:`stream_key`, the first two
uint64 words ``SeedSequence.generate_state`` gives for the path's
integers, at counter 0: :func:`stream` is :func:`tile_stream` at tile
(0, 0).  The rows of a bins or opaque run (replications or cycles) share
one key per draw category, that of the path ``(root_seed, *arrival
path, category)``, and are drawn in tiles of rows x periods (stream
layout v4, ``balls_bins.draw_raw_arrays``): tile (g, w) starts at
counter ``(0, w, g, 0)``, so each tile has 2**64 counter blocks before
it could reach the next window's, and distinct counters under one key
give independent streams (Salmon, Moraes, Dror and Shaw, "Parallel
random numbers: as easy as 1, 2, 3", SC 2011).  :func:`tile_stream`
gives a tile's stream as a fresh generator, and :func:`tile_streams`
moves one generator from tile to tile.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

ROOT_SEED_ENV = "ENDGAME_SEED"
DEFAULT_ROOT_SEED = 0

_MASK64 = 0xFFFFFFFFFFFFFFFF


def resolve_root_seed(explicit: int | None = None) -> int:
    """Explicit seed, else the ENDGAME_SEED env var, else 0.  A seed that
    is not a non-negative integer is a ValueError that names its
    source."""
    source, value = "seed", explicit
    if explicit is None:
        source = ROOT_SEED_ENV
        value = os.environ.get(ROOT_SEED_ENV, DEFAULT_ROOT_SEED)
    if not str(value).isdecimal():
        raise ValueError(f"{source}: expected a non-negative integer, "
                         f"got {value!r}")
    return int(value)


def _component_to_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream_seed(root_seed: int, *path) -> SeedSequence:
    """Deterministic SeedSequence for a labeled sub-stream."""
    entropy = (int(root_seed),) + tuple(_component_to_int(p) for p in path)
    return SeedSequence(entropy)


def stream(root_seed: int, *path) -> Generator:
    """Philox generator for a labeled sub-stream, tile (0, 0) of its key."""
    return tile_stream(stream_key(root_seed, *path), 0, 0)


def stream_key(root_seed: int, *path) -> np.ndarray:
    """The Philox key of the stream ``path``: two uint64 words."""
    return stream_seed(root_seed, *path).generate_state(2, np.uint64)


def tile_stream(key, g: int, w: int) -> Generator:
    """A fresh Philox generator with key ``key`` at counter (0, w, g, 0),
    the start of tile (g, w) under ``key``."""
    # a uint64 array: a tuple casts g or w >= 2**63 wrongly
    counter = np.array([0, w, g, 0], np.uint64)
    return Generator(Philox(key=key, counter=counter))


def tile_streams(key):
    """``tile_stream(key, g, w)`` as a function of (g, w) that moves one
    generator to the start of tile (g, w) on each call, for a fifth of
    the cost of a fresh one; a tile's stream is read before the next
    call."""
    generator = tile_stream(key, 0, 0)
    bits = generator.bit_generator
    start = bits.state  # with nothing buffered

    def at(g: int, w: int) -> Generator:
        start["state"]["counter"] = np.array([0, w, g, 0], np.uint64)
        bits.state = start
        return generator
    return at
