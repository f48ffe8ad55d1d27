import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamcount.rng import (
    _resumed,
    _swap_draws,
    make_generator,
    permutation_prefix,
    seed_sequence,
)


def _live_state(bitgen) -> dict:
    """A bit generator's state without the held-back half while none is held."""
    state = bitgen.state
    if not state["has_uint32"]:
        state["uinteger"] = None
    return state


@st.composite
def size_and_prefix(draw):
    """A universe size up to 2^20 or just above 2 * 2^16, and a prefix length
    in [1, size], half the time at least size/2 (where the whole permutation
    comes back)."""
    size = draw(st.one_of(st.integers(2, 1 << 20), st.integers(2 * (1 << 16) + 1, 2 * (1 << 16) + 64)))
    k = draw(st.one_of(st.integers(1, size), st.integers((size + 1) // 2, size)))
    return size, k


class TestPermutationPrefix:
    @given(size_and_prefix(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    @example((131_073, 65_536), 0)
    @example((131_074, 1), 5)
    @example((1 << 20, 1 << 16), 7)
    @example((1 << 20, (1 << 19) - 1), 8)
    @example((1 << 20, 1 << 19), 9)
    def test_equals_numpy_permutation(self, case, seed):
        size, k = case
        got = permutation_prefix(seed, size, k)
        whole = make_generator(seed).permutation(size)
        want = whole if 2 * k >= size else whole[:k]
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_large_universes(self):
        # the n = 2000 loopful universe and its neighbours, with short and
        # long prefixes
        for size, k, seed in ((4_000_000, 1 << 16, 7), (3_998_000, 10, 3), (1 << 22, 300_000, 11)):
            assert np.array_equal(permutation_prefix(seed, size, k),
                                  make_generator(seed).permutation(size)[:k])

    def test_edges(self):
        assert permutation_prefix(1, 10, 0).size == 0
        assert np.array_equal(permutation_prefix(1, 10, 10), make_generator(1).permutation(10))
        with pytest.raises(ValueError):
            permutation_prefix(1, 10, -1)
        with pytest.raises(ValueError):
            permutation_prefix(1, (1 << 30) + 1, 5)


class TestSwapDraws:
    """The decoded swap targets against an independent oracle: numpy's legacy
    ``RandomState.randint`` draws each bounded value by the same masked
    rejection on the same uint32 stream, one C loop per value."""

    CASES = [(1000, 10, 0), (1000, 10, 1), (5000, 17, 3), (89_700, 100, 5),
             (196_611, 65_536, 2), (1 << 20, 1 << 16, 4)]

    @pytest.mark.parametrize("size, k, seed", CASES)
    def test_draws_and_state_match_randint(self, size, k, seed):
        runs = []
        consumed = _swap_draws(make_generator(seed).bit_generator, size, k,
                               lambda top, chosen: runs.append((top, chosen.copy())))
        tops = [top for top, _ in runs]
        ends = [top - chosen.size for top, chosen in runs]
        assert tops[0] == size - 1 and tops[1:] == ends[:-1] and ends[-1] == k - 1
        oracle_bitgen = np.random.PCG64(seed_sequence(seed))
        want = np.random.RandomState(oracle_bitgen).randint(0, np.arange(size, k, -1))
        assert np.array_equal(np.concatenate([c for _, c in runs]), want)
        resumed = _resumed(seed, consumed)
        assert _live_state(resumed.bit_generator) == _live_state(oracle_bitgen)
        oracle = np.random.Generator(oracle_bitgen)
        assert np.array_equal(resumed.integers(0, 1000, size=9), oracle.integers(0, 1000, size=9))

    def test_cases_cover_both_parities(self):
        # an odd count of uint32 draws leaves numpy holding back the high
        # half of an output, which the resumed generator must hold too
        parities = {_swap_draws(make_generator(seed).bit_generator, size, k, lambda top, chosen: None) % 2
                    for size, k, seed in self.CASES}
        assert parities == {0, 1}
