"""Stream handles: the generator of (base seed, path index, purpose) is Philox
seeded by SeedSequence over the entropy list [base seed mod 2**64, path index,
tag of purpose], draw for draw."""

import numpy as np
import pytest

from levyheat.streams import _tag_to_int, stream

_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, -1)
_INDICES = (0, 2**32 - 1, 2**32, 2**70)
_TAGS = ("", "atoms", "levy:gamma:0.001 " * 40)


def _listed(base_seed, path_index, tag):
    ss = np.random.SeedSequence(entropy=[base_seed & (2**64 - 1), path_index, _tag_to_int(tag)])
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("tag", _TAGS, ids=["empty", "short", "long"])
@pytest.mark.parametrize("path_index", _INDICES)
@pytest.mark.parametrize("base_seed", _SEEDS)
def test_stream_is_the_listed_entropy_generator(base_seed, path_index, tag):
    got, want = stream(base_seed, path_index, tag), _listed(base_seed, path_index, tag)
    assert got.random(5).tobytes() == want.random(5).tobytes()
    assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()
    assert got.poisson(7.5) == want.poisson(7.5)
    assert np.array_equal(got.bit_generator.random_raw(4), want.bit_generator.random_raw(4))


def test_stream_takes_numpy_integers():
    got, want = stream(np.int64(7), np.uint32(3), "atoms"), _listed(7, 3, "atoms")
    assert got.random(4).tobytes() == want.random(4).tobytes()


@pytest.mark.parametrize("path_index", [-1, -(2**40)])
def test_negative_path_index_raises(path_index):
    with pytest.raises(ValueError):
        stream(3, path_index, "atoms")
