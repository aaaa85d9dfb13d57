"""Counter-based splittable random streams.

All randomness in the library flows through explicit stream handles built
from (base seed, path index, purpose tag). Streams with distinct handles are
statistically independent Philox counter-based generators, so path-level work
can be farmed out to workers in any order and still reproduce bit-identically.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

__all__ = ["stream"]


def _tag_to_int(tag: str) -> int:
    return int.from_bytes(hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest(), "little")


def _words(n: int) -> list[int]:
    """The 32-bit words of n >= 0, least significant first; [0] for 0.

    These are the words into which SeedSequence splits each int of an entropy
    list, so the word array seeds the same pool without numpy's coercion.
    """
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


@lru_cache(maxsize=256)
def _tag_words(tag: str) -> tuple[int, ...]:
    return tuple(_words(_tag_to_int(tag)))


def stream(base_seed: int, path_index: int = 0, purpose: str = "") -> np.random.Generator:
    """Return the generator for handle (base_seed, path_index, purpose).

    The same generator as Philox seeded by
    SeedSequence(entropy=[base_seed mod 2**64, path_index, tag of purpose]).
    Handles give distinct streams only while base_seed mod 2**64 and
    path_index are below 2**32: each int enters the entropy as its 32-bit
    words, a variable number of them, so (5, 7 + 9 * 2**32) and
    (5 + 7 * 2**32, 9) give the same words and the same draws.
    """
    words = _words(int(base_seed) & (2**64 - 1)) + _words(int(path_index))
    words += _tag_words(purpose)
    ss = np.random.SeedSequence(entropy=np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.Philox(ss))
