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

:func:`stream` is the reference: a ``SeedSequence`` of the path's integers
feeding a ``Philox``.  A Philox stream is fixed by its 128-bit key, the
first two uint64 words ``SeedSequence.generate_state`` gives, so
:func:`stream_keys` derives the keys of a whole block of paths that differ
only in one integer (the row: a replication or a cycle) in one numpy pass,
and :class:`RowStreams` draws them from one generator re-keyed per stream.
The draws are bit-identical to :func:`stream`'s.  The policy kernel
(``bins_engine.run_blocks``) is the one caller of the batched keys: it
derives each block's keys itself, so a bins or opaque row is always
drawn from the streams ``(root_seed, *arrival path, row, category)``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

ROOT_SEED_ENV = "ENDGAME_SEED"
DEFAULT_ROOT_SEED = 0

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy's SeedSequence: pool words, its hash and mix constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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
    """Philox generator for a labeled sub-stream."""
    return Generator(Philox(stream_seed(root_seed, *path)))


# ---------------------------------------------------------------------------
# Batched keys


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int (0 is one word)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


# A word is a Python int, or a uint32 array with one entry per path, which
# wraps mod 2**32 by itself; constant words stay Python ints.
def _wrap(x):
    return x & _MASK32 if isinstance(x, int) else x


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: each call xors with the running hash
    constant, advances it by ``mult`` and multiplies by the new one."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = _wrap(value * const)
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    x = _wrap(_wrap(_MIX_L * x) - _wrap(_MIX_R * y))
    return x ^ (x >> 16)


def _key(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(4)`` for entropy words
    ``entropy``: the Philox key as four uint32 words, low word first."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(word) for word in pool]


def stream_keys(root_seed: int, path, category, rows) -> np.ndarray:
    """Philox keys of the streams ``(root_seed, *path, row, category)`` for
    every row of ``rows`` (ints in [0, 2**64)), as a (len(rows), 2) uint64
    array whose row i is ``stream_seed(root_seed, *path, rows[i],
    category).generate_state(2, np.uint64)``."""
    head = _words(int(root_seed))
    for part in path:
        head += _words(_component_to_int(part))
    tail = _words(_component_to_int(category))
    rows = np.asarray(rows, dtype=np.uint64)
    lo, hi = rows.astype(np.uint32), (rows >> 32).astype(np.uint32)
    out = np.empty((rows.size, 2), dtype=np.uint64)
    narrow = hi == 0  # a row below 2**32 is one entropy word, else two
    for sel, words in ((narrow, [lo]), (~narrow, [lo, hi])):
        if sel.any():
            out[sel] = _as_keys(_key(head + [w[sel] for w in words] + tail))
    return out


def _as_keys(state: list) -> np.ndarray:
    w = [np.asarray(x, dtype=np.uint64) for x in state]
    return np.stack((w[0] | (w[1] << 32), w[2] | (w[3] << 32)), axis=-1)


_ZEROS = (0, 0, 0, 0)


def keyed_generator() -> Generator:
    """A Philox generator for :class:`RowStreams` to re-key."""
    return Generator(Philox(0))


class RowStreams:
    """One row's streams by category on a shared Philox generator:
    ``streams[category]`` sets the generator to the start of the stream
    whose key ``keys[category]`` holds and returns it, so its draws equal
    those of a fresh :func:`stream` on that path."""

    def __init__(self, generator: Generator, keys: dict):
        self.generator, self.keys = generator, keys

    def __getitem__(self, category) -> Generator:
        # Philox keeps its output buffer and the spare half of a 64-bit
        # word across calls; a fresh stream has neither
        self.generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": self.keys[category]},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}
        return self.generator
