"""Stream handles: the generator of (base seed, path index, purpose) is Philox
seeded by SeedSequence over the entropy list [base seed mod 2**64, path index,
tag of purpose], draw for draw, in the single-handle form `stream` and in the
block form `_stream_block`."""

import numpy as np
import pytest

from levyheat.streams import _KEY_CHUNK, _stream_block, _tag_to_int, stream

_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, -1)
_INDICES = (0, 2**32 - 1, 2**32, 2**70)
_TAGS = ("", "atoms", "levy:gamma:0.001 " * 40)


def _listed(base_seed, path_index, tag):
    ss = np.random.SeedSequence(entropy=[base_seed & (2**64 - 1), path_index, _tag_to_int(tag)])
    return np.random.Generator(np.random.Philox(ss))


def _from_block(base_seed, path_index, tag):
    """Path `path_index`'s generator from a block that starts one path earlier, where there is one."""
    lo = max(0, path_index - 1)
    for i, rng in enumerate(_stream_block(base_seed, lo, path_index + 2, tag), lo):
        if i == path_index:
            return rng


def _assert_same_draws(got, want):
    assert got.random(5).tobytes() == want.random(5).tobytes()
    assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()
    assert got.poisson(7.5) == want.poisson(7.5)
    assert np.array_equal(got.bit_generator.random_raw(4), want.bit_generator.random_raw(4))


def _handle_grid(test):
    test = pytest.mark.parametrize("base_seed", _SEEDS)(test)
    test = pytest.mark.parametrize("path_index", _INDICES)(test)
    return pytest.mark.parametrize("tag", _TAGS, ids=["empty", "short", "long"])(test)


@_handle_grid
def test_stream_is_the_listed_entropy_generator(base_seed, path_index, tag):
    _assert_same_draws(stream(base_seed, path_index, tag), _listed(base_seed, path_index, tag))


@_handle_grid
def test_stream_block_is_the_listed_entropy_generator(base_seed, path_index, tag):
    _assert_same_draws(_from_block(base_seed, path_index, tag), _listed(base_seed, path_index, tag))


@pytest.mark.parametrize("lo, hi", [(2**32 - 2, 2**32 + 2), (3, 3 + 2 * _KEY_CHUNK + 1)],
                         ids=["word_count_change", "longer_than_a_key_chunk"])
def test_stream_block_is_stream_path_by_path(lo, hi):
    paths = 0
    for i, rng in enumerate(_stream_block(2**40 + 7, lo, hi, "atoms"), lo):
        want = stream(2**40 + 7, i, "atoms")
        assert rng.bit_generator.random_raw(2).tolist() == want.bit_generator.random_raw(2).tolist(), i
        paths += 1
    assert paths == hi - lo


def test_stream_block_rekeys_after_an_odd_32_bit_draw():
    def words(rng, n):
        return rng.integers(0, 2**32, size=n, dtype=np.uint32).tobytes()

    block = _stream_block(11, 0, 3, "atoms")
    # an odd count of 32-bit draws leaves half of a 64-bit word cached in the
    # generator, which the next path must not see
    assert words(next(block), 3) == words(stream(11, 0, "atoms"), 3)
    assert words(next(block), 5) == words(stream(11, 1, "atoms"), 5)
    _assert_same_draws(next(block), stream(11, 2, "atoms"))


def test_empty_stream_block_yields_nothing():
    assert list(_stream_block(1, 5, 5, "atoms")) == []


def test_stream_takes_numpy_integers():
    got, want = stream(np.int64(7), np.uint32(3), "atoms"), _listed(7, 3, "atoms")
    assert got.random(4).tobytes() == want.random(4).tobytes()
    block = _stream_block(np.int64(7), np.uint32(3), np.int32(4), "atoms")
    assert next(block).random(4).tobytes() == _listed(7, 3, "atoms").random(4).tobytes()


@pytest.mark.parametrize("base_seed, path_index, purpose, argument", [
    pytest.param(3, -1, "atoms", "path_index", id="-1"),
    pytest.param(3, -(2**40), "atoms", "path_index", id="-1099511627776"),
    pytest.param(1, 2.5, "atoms", "path_index", id="float_index"),
    pytest.param(1, np.float64(2.0), "atoms", "path_index", id="numpy_float_index"),
    pytest.param(1, True, "atoms", "path_index", id="bool_index"),
    pytest.param(1.9, 2, "atoms", "base_seed", id="float_seed"),
    pytest.param(True, 2, "atoms", "base_seed", id="bool_seed"),
    pytest.param("1", 2, "atoms", "base_seed", id="str_seed"),
    pytest.param(1, 2, None, "purpose", id="none_purpose"),
    pytest.param(1, 2, b"atoms", "purpose", id="bytes_purpose"),
])
def test_negative_path_index_raises(base_seed, path_index, purpose, argument):
    """So does an argument of the wrong kind: in both forms a ValueError names it, before any draw."""
    with pytest.raises(ValueError, match=argument):
        stream(base_seed, path_index, purpose)
    # the block form's first path index is `lo`
    with pytest.raises(ValueError, match="lo" if argument == "path_index" else argument):
        _stream_block(base_seed, path_index, 5, purpose)


@pytest.mark.parametrize("lo, hi", [(4, 3), (0, 2.0), (0, None)])
def test_stream_block_needs_an_int_hi_from_lo(lo, hi):
    with pytest.raises(ValueError, match="hi"):
        _stream_block(1, lo, hi, "atoms")
