import numpy as np
import pytest

from chaoscope.rng import CHUNK, _key_type, chunk_ranges, stream


def test_stream_is_keyed_by_seed_and_index():
    a = stream(5, 3).random(8)
    b = stream(5, 3).random(8)
    c = stream(5, 4).random(8)
    d = stream(6, 3).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_chunk_ranges_cover_total_exactly():
    ranges = chunk_ranges(2 * CHUNK + 7)
    assert ranges[0] == (0, CHUNK)
    assert ranges[-1] == (2 * CHUNK, 2 * CHUNK + 7)
    assert sum(hi - lo for lo, hi in ranges) == 2 * CHUNK + 7
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))  # in order, no gaps



# First draws of three streams, pinned as literals.  If a numpy release asked
# the seed sequence for a different state, stream() raises instead of quietly
# re-seeding every payload; if it changed Philox itself, these fail.
GOLDEN = {
    (0, 0): [0.011546754286331562, 0.24154919656271812, 0.11142585551493822],
    (-1, 5): [0.05541565898515444, 0.5121345734389258, 0.31968605748203727],
    (2**64 - 1, 2**64 - 1): [0.4268615279451663, 0.5715123063997486, 0.9912623766802293],
}


def test_stream_golden_first_draws_equal_keyed_philox():
    mask = (1 << 64) - 1
    for (seed, index), want in GOLDEN.items():
        got = stream(seed, index).random(3)
        assert got.tolist() == want
        key = np.array([seed & mask, index & mask], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        assert got.tobytes() == ref.random(3).tobytes()
        # the same key and counter, not just the same first draws
        state = stream(seed, index).bit_generator.state["state"]
        assert np.array_equal(state["key"], key) and not state["counter"].any()


def test_stream_key_refuses_any_other_seed_request():
    key = _key_type()(3, 4)
    assert key.generate_state(2, np.uint64).tolist() == [3, 4]
    for n_words, dtype in ((4, np.uint32), (1, np.uint64), (2, np.uint32), (4, np.uint64)):
        with pytest.raises(RuntimeError, match="not 2 of uint64"):
            key.generate_state(n_words, dtype)
