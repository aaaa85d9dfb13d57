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


@lru_cache(maxsize=256)
def _tag_to_int(tag: str) -> int:
    return int.from_bytes(hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest(), "little")


def stream(base_seed: int, path_index: int = 0, purpose: str = "") -> np.random.Generator:
    """Return the generator for handle (base_seed, path_index, purpose)."""
    ss = np.random.SeedSequence(entropy=[int(base_seed) & (2**64 - 1), int(path_index), _tag_to_int(purpose)])
    return np.random.Generator(np.random.Philox(ss))

