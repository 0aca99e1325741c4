import numpy as np

from chaoscope.rng import CHUNK, chunk_ranges, stream


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

