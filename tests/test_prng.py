"""splitmix64 streams are pinned: every codec replays them bit-identically."""

import pytest

from fountainkit.prng import SplitMix64

#: (seed, n, count) -> (sample_distinct draw, the next_u64 after it).
PINNED_DRAWS = {
    (0, 1, 1): ([0], 7960286522194355700),
    (1, 10, 10): ([5, 9, 0, 1, 8, 3, 7, 4, 2, 6], 3081251696030599739),
    (7, 1037, 9): ([952, 364, 454, 11, 568, 573, 545, 559, 280], 7621113624420504425),
    (2**64 - 1, 3, 2): ([2, 0], 4048727598324417001),
    (12345, 2**40, 5): (
        [380806173088, 987692792045, 809616437789, 542713529034, 947443824875],
        6217189988962137646,
    ),
    (99, 256, 30): (
        [227, 164, 251, 215, 244, 115, 67, 195, 62, 20, 83, 254, 137, 82, 18,
         189, 186, 86, 40, 99, 19, 94, 172, 208, 224, 21, 154, 178, 213, 28],
        14104536160193848072,
    ),
    # n just above 2**63 rejects almost half of the raw draws.
    (5, 2**63 + 1, 6): (
        [7134611160154358618, 4292726422858613063, 1832488697174800709,
         3467252261107883461, 7020995479949754436, 7866638711627835880],
        11131513475650148195,
    ),
    (42, 24, 0): ([], 13679457532755275413),
}


@pytest.mark.parametrize("key", sorted(PINNED_DRAWS), ids=str)
def test_sample_distinct_stream_pinned(key):
    seed, n, count = key
    rng = SplitMix64(seed)
    assert (rng.sample_distinct(n, count), rng.next_u64()) == PINNED_DRAWS[key]


def test_sample_distinct_rejects_oversized_count():
    with pytest.raises(ValueError):
        SplitMix64(1).sample_distinct(3, 4)


@pytest.mark.parametrize(
    "seed, n, count",
    [(99, 256, 30), (3, 256, 1024), (5, 2**63 + 1, 6), (7, 1037, 9), (42, 24, 0)],
    ids=str,
)
def test_below_many_equals_repeated_next_below(seed, n, count):
    bulk, single = SplitMix64(seed), SplitMix64(seed)
    expected = [single.next_below(n) for _ in range(count)]
    assert bulk.below_many(n, count) == expected
    assert bulk.next_u64() == single.next_u64()


def test_below_many_first_draws_pinned():
    rng = SplitMix64(2026)
    assert rng.below_many(256, 12) == [35, 93, 142, 242, 73, 3, 174, 45, 244, 66, 109, 224]
    assert rng.next_u64() == 5878713208090819352


@pytest.mark.parametrize("n", [0, -1])
def test_below_many_rejects_empty_range(n):
    with pytest.raises(ValueError):
        SplitMix64(1).below_many(n, 3)
