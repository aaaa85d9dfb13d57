"""Counter-based splittable random streams.

All randomness in the library flows through explicit stream handles built
from (base seed, path index, purpose tag). The generator of a handle is
Philox with key (base seed mod 2**64, 64-bit blake2s hash of the tag) and
counter (0, 0, 0, path index). Philox counts up from the low counter word, so
a path would have to draw 2**192 blocks to reach the counter of the next
path: handles with distinct (base seed mod 2**64, path index < 2**64, tag)
give disjoint streams, and path-level work can be farmed out to workers in
any order and still reproduce bit-identically.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = ["stream"]

_M64 = 2**64 - 1


@lru_cache(maxsize=256)
def _tag_hash(tag: str) -> int:
    return int.from_bytes(hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest(), "little")


def _int_arg(name: str, value) -> int:
    """`value` as an int; ValueError naming `name` unless it is a Python or numpy int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def _key(base_seed, purpose) -> np.ndarray:
    """The Philox key of the base seed (mod 2**64) and of the purpose tag, arguments checked."""
    seed = _int_arg("base_seed", base_seed) & _M64
    if not isinstance(purpose, str):
        raise ValueError(f"purpose must be a str, got {purpose!r}")
    return np.array([seed, _tag_hash(purpose)], dtype=np.uint64)


def _path_index(name: str, value) -> int:
    index = _int_arg(name, value)
    if not 0 <= index <= _M64:
        raise ValueError(f"{name} must be an int in [0, 2**64), got {value!r}")
    return index


def stream(base_seed: int, path_index: int = 0, purpose: str = "") -> np.random.Generator:
    """Return the generator for handle (base_seed, path_index, purpose).

    The generator is Philox with key (base_seed mod 2**64, 64-bit blake2s
    hash of purpose) and counter (0, 0, 0, path_index). Handles give
    disjoint streams while they differ in base_seed mod 2**64, in path_index
    or in the hash of purpose. Before it is built, a ValueError names the
    argument unless base_seed is an int, path_index an int in [0, 2**64)
    (Python or numpy ints, not bools) and purpose a str.

    This is the single-handle form. A sampler that runs a block of paths
    takes their generators from `_stream_block`, which gives the same draws.
    """
    key = _key(base_seed, purpose)
    counter = np.array([0, 0, 0, _path_index("path_index", path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _stream_block(base_seed: int, lo: int, hi: int, purpose: str = "") -> Iterator[np.random.Generator]:
    """Iterate the generators of stream(base_seed, i, purpose) for i = lo..hi-1, draw for draw.

    The arguments are checked as by `stream`, and 0 <= lo <= hi <= 2**64,
    when this is called, before any draw. One generator serves every path:
    for path i it gets the counter (0, 0, 0, i) and an empty buffer, at
    ~1-2 us per path against ~10 us per `stream` call. The generator of path
    i is the one yielded for path i + 1, so draw from it before asking for
    the next.
    """
    key = _key(base_seed, purpose)
    lo, hi = _path_index("lo", lo), _int_arg("hi", hi)
    if not lo <= hi <= _M64 + 1:
        raise ValueError(f"hi must be an int in [lo = {lo}, 2**64], got {hi!r}")
    return _paths(key, lo, hi)


def _paths(key: np.ndarray, lo: int, hi: int) -> Iterator[np.random.Generator]:
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    # a fresh Philox's state: counter 0, an empty buffer, no cached 32-bit half
    state = bitgen.state
    counter = state["state"]["counter"]
    for i in range(lo, hi):
        counter[3] = i
        bitgen.state = state
        yield rng
