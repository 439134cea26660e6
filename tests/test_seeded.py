import numpy as np
import pytest

from heckelab.seeded import Generator

SEEDS = [*range(200), 2**32 + 5, 2**70 + 3, 123_456_789]


def as_ints(values):
    return [int(v) for v in np.ravel(values)]


def test_stream_matches_numpy():
    # every shape the package draws, scalars between arrays of odd length,
    # so that the buffered high half of a 64-bit output is drawn from too
    for seed in SEEDS:
        ours, ref = Generator(seed), np.random.default_rng(seed)
        for n in (2, 3, 4, 5):
            got = ours.integers(-2, 3, n * n)
            assert got == as_ints(ref.integers(-2, 3, size=(n, n))), (seed, n)
            assert ours.integers(1, 4) == int(ref.integers(1, 4)), (seed, n)
            for X in (7, 10, 20, 40):
                got = ours.integers(-X // 2, X // 2 + 1, n)
                assert got == as_ints(ref.integers(-X // 2, X // 2 + 1, size=n)), (seed, n, X)
                assert ours.integers(1, 4) == int(ref.integers(1, 4)), (seed, n, X)


@pytest.mark.parametrize("seed", [0, 7, 2**70 + 3])
def test_spans_that_reject_and_spans_that_draw_nothing(seed):
    # 2^31 + 1 rejects about half its draws; a span of 1 draws nothing
    ours, ref = Generator(seed), np.random.default_rng(seed)
    for low, high in ((0, 2**31 + 1), (5, 6), (-3, 2**32 - 4), (0, 3), (10, 11), (0, 1000)):
        assert ours.integers(low, high, 9) == as_ints(ref.integers(low, high, size=9))


def test_negative_seed_is_numpys_error():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        Generator(-1)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.default_rng(-1)


@pytest.mark.parametrize("low,high", [(0, 2**32), (-(2**40), 2**40), (3, 3), (4, 1)])
def test_ranges_outside_the_32_bit_method_raise(low, high):
    with pytest.raises(ValueError):
        Generator(0).integers(low, high)
