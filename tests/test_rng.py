import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hamcount
from hamcount.rng import (
    _accepted,
    _swap_draws,
    derive_seed,
    make_generator,
    permutation_prefix,
)


def _live_state(bitgen) -> dict:
    """A bit generator's state without the held-back half while none is held."""
    state = bitgen.state
    if not state["has_uint32"]:
        state["uinteger"] = None
    return state


# seeds as Python ints past 128 bits, and as numpy integers
SEEDS = st.one_of(st.integers(0, 2**130 - 1), st.integers(0, 2**63 - 1).map(np.int64),
                  st.integers(0, 2**64 - 1).map(np.uint64))
PATHS = st.lists(st.one_of(st.integers(0, 2**70 - 1), st.integers(0, 2**32 - 1).map(np.uint32)),
                 max_size=4).map(tuple)


class TestSeeding:
    """Derived seeds and generators against numpy's own SeedSequence."""

    @given(SEEDS, PATHS)
    @settings(max_examples=80, deadline=None)
    @example(0, ())
    @example(2**130 - 1, (2**70 - 1,) * 4)
    def test_derive_seed_equals_numpy(self, master, path):
        want = np.random.SeedSequence(master, spawn_key=path).generate_state(1, np.uint64)[0]
        got = derive_seed(master, *path)
        assert type(got) is int and got == int(want)

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_generator_equals_numpy(self, master):
        got = make_generator(master)
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(master)))
        assert got.bit_generator.state == want.bit_generator.state
        for child, oracle in zip(got.spawn(2), want.spawn(2)):
            assert child.bit_generator.state == oracle.bit_generator.state
            assert child.bit_generator.seed_seq.spawn_key == oracle.bit_generator.seed_seq.spawn_key
        assert got.random(5).tolist() == want.random(5).tolist()

    def test_negative_seeds_raise(self):
        with pytest.raises(ValueError):
            derive_seed(-1)
        with pytest.raises(ValueError):
            derive_seed(3, 1, -2)
        with pytest.raises(ValueError):
            make_generator(-5)

    def test_pickled_generator_continues(self):
        rng = make_generator(11)
        rng.random(3)
        copy = pickle.loads(pickle.dumps(rng))
        assert copy.random(4).tolist() == rng.random(4).tolist()
        assert [c.random() for c in copy.spawn(2)] == [c.random() for c in rng.spawn(2)]

    def test_pickled_generator_loads_without_hamcount(self):
        # a pickled generator names numpy's classes only, so a process that
        # cannot import the package still loads it and continues the stream
        rng = make_generator(11)
        rng.random(3)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        code = ("import pickle, sys; sys.modules['hamcount'] = None; "
                "print(pickle.loads(sys.stdin.buffer.read()).random(4).tolist())")
        out = subprocess.run([sys.executable, "-c", code], env=env, input=pickle.dumps(rng),
                             capture_output=True)
        assert out.returncode == 0, out.stderr.decode()
        assert out.stdout.decode().strip() == str(rng.random(4).tolist())

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy loads numpy.random lazily, about 10 ms of start-up; the
        # package loads neither the process pool (multiprocessing, logging,
        # sockets) nor ``analysis``, which only two experiments call
        env = dict(os.environ, PYTHONPATH=str(Path(hamcount.__file__).parents[1]))
        for module, unloaded in (("hamcount.cli", ["numpy.random"]),
                                 ("hamcount", ["numpy.random", "concurrent.futures",
                                               "hamcount.analysis"])):
            code = f"import sys, {module}; print([m in sys.modules for m in {unloaded!r}])"
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            assert out.stdout.strip() == str([False] * len(unloaded)), module


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
        bitgen = make_generator(seed).bit_generator
        _swap_draws(bitgen, size, k, lambda top, chosen: runs.append((top, chosen.copy())))
        tops = [top for top, _ in runs]
        ends = [top - chosen.size for top, chosen in runs]
        assert tops[0] == size - 1 and tops[1:] == ends[:-1] and ends[-1] == k - 1
        oracle_bitgen = np.random.PCG64(np.random.SeedSequence(seed))
        want = np.random.RandomState(oracle_bitgen).randint(0, np.arange(size, k, -1))
        assert np.array_equal(np.concatenate([c for _, c in runs]), want)
        assert _live_state(bitgen) == _live_state(oracle_bitgen)
        got, oracle = np.random.Generator(bitgen), np.random.Generator(oracle_bitgen)
        assert np.array_equal(got.integers(0, 1000, size=9), oracle.integers(0, 1000, size=9))

    def test_cases_cover_both_parities(self):
        # an odd count of uint32 draws leaves numpy holding back the high
        # half of an output, which the decoder must hold back too
        held = set()
        for size, k, seed in self.CASES:
            bitgen = make_generator(seed).bit_generator
            _swap_draws(bitgen, size, k, lambda top, chosen: None)
            held.add(bitgen.state["has_uint32"])
        assert held == {0, 1}


def rejection_loop(values, top: int) -> list[bool]:
    """Which values a plain rejection loop accepts, testing each against a
    bound that starts at ``top`` and falls by one at each acceptance."""
    accepted = []
    for w in values:
        accepted.append(w <= top)
        top -= w <= top
    return accepted


@st.composite
def masked_chunks(draw):
    """(values, top): a chunk of values below the mask 2^bitlen(top) - 1,
    half the time drawn near ``top``, where acceptance is undecided."""
    top = draw(st.integers(1, 1 << 20))
    mask = (1 << top.bit_length()) - 1
    width = draw(st.integers(1, 300))
    low = max(0, top - width) if draw(st.booleans()) else 0
    return draw(st.lists(st.integers(low, mask), min_size=width, max_size=width)), top


class TestAccepted:
    """``_accepted`` against a plain rejection loop."""

    @given(masked_chunks())
    @settings(max_examples=200, deadline=None)
    @example(([0] * 40, 1000))  # no undecided value
    @example(([1001, 1000, 999, 1000, 998, 5], 1000))  # undecided from offset 1 on
    @example(([7, 6, 6, 6, 5], 7))  # offset 0 accepted at the bound, then undecided
    @example(([0, 1000, 1000, 1000, 1000, 999, 0], 1000))  # a run of adjacent ones
    @example(([0] * 10, 5))  # more acceptances than the band has steps
    def test_matches_rejection_loop(self, case):
        values, top = case
        chunk = np.array(values, dtype=np.int32)
        got = _accepted(chunk, top, np.arange(chunk.size, dtype=np.int32))
        assert got.tolist() == rejection_loop(values, top)
