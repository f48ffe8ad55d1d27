"""Seed plumbing, and an exact lazy prefix of numpy's shuffle.

All randomness in the package flows through numpy's PCG64 generator seeded
from a ``SeedSequence``.  PCG64 has a published, stable bit stream, so runs
are reproducible across platforms and numpy versions.  Parallel trials get
independent streams by spawning with ``spawn_key=(trial_index, ...)`` from
the master seed -- never by arithmetic on the seed itself.

Generators come from numpy's own ``SeedSequence``, so they pickle without
this package.  Two things here copy numpy by hand: ``derive_seed`` hashes
its one state word in Python ints (``_state_words``), and
``permutation_prefix`` decodes the stream into a shuffle; the rest of the
package only asks for generators.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

# Most 64-bit outputs drawn from PCG64 per block of the decode buffer.
_STREAM_WORDS = 1 << 17
# Most masked values the decoder settles at once.
_DECODE_CHUNK = 1 << 16


def make_generator(master: int) -> np.random.Generator:
    """Generator for the stream of the seed ``master``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master)))


def derive_seed(master: int, *path: int) -> int:
    """A plain integer seed derived from (master, path), for sub-components:
    the first uint64 word of ``SeedSequence(master, spawn_key=path)``."""
    low, high = _state_words(np.random.SeedSequence(master, spawn_key=path).pool, 2)
    return low | high << 32


def _state_words(pool: np.ndarray, n: int) -> list[int]:
    """The first n uint32 words of ``SeedSequence.generate_state`` over
    ``pool``, in Python ints: O'Neill's seed_seq output hash.  A uint64 word
    is two, low half first.  ``derive_seed`` takes 6.8-7.0 us a call this
    way against 9.3-10.3 us through ``generate_state(1, np.uint64)`` (2-core
    host, Python 3.11, numpy 2.4)."""
    words = pool.tolist()
    size = len(words)
    out = []
    hash_const = 0x8B51F9DD
    for i in range(n):
        value = words[i % size] ^ hash_const
        hash_const = hash_const * 0x58F38DED & 0xFFFFFFFF
        value = value * hash_const & 0xFFFFFFFF
        out.append(value ^ value >> 16)
    return out


def permutation_prefix(master: int, size: int, k: int) -> np.ndarray:
    """Exactly ``make_generator(master).permutation(size)[:k]``, without
    shuffling all ``size`` entries; the whole permutation once 2k >= size.

    ``Generator.permutation(N)`` shuffles ``arange(N)`` by Fisher-Yates
    (Durstenfeld 1964): for i = N-1, ..., 1 it swaps a[i] with a[j_i], where
    j_i comes from masked rejection on PCG64's uint32 stream (the low half,
    then the high half, of each 64-bit output).  Steps i < k touch positions
    below k only, so the prefix takes three steps:

    1. decode j_i for i = N-1, ..., k (``_swap_draws``) and keep, per
       position p, least[p] = the least step i >= k with j_i = p;
    2. follow, for each q < k, the chain q -> least[q] -> least[least[q]]
       -> ... to its end, which is the entry at q after the steps i >= k.
       The last of those steps to swap with p is i = least[p], and it moves
       into p what position i held: i itself, unless an earlier step
       swapped with i, the last of which is least[i] (> i, as j_i = p);
    3. let numpy's own ``shuffle`` finish that k-array, on the generator
       that step 1 left right after the decoded draws.

    Time is O(N) in vectorised passes.  Peak memory is the 4N-byte int32
    table of least steps, one 8 ``_STREAM_WORDS``-byte (1 MB) block of the
    stream, the decoder's chunk arrays and the 8k-byte result; all but the
    result are freed on return.  At N = 4*10^6, k = 2^16 tracemalloc reads
    an 18.9 MB peak.  Sizes above 2^30 raise ``ValueError`` on the lazy
    path.
    """
    size, k = int(size), int(k)
    if k < 0:
        raise ValueError(f"prefix length must be non-negative, got {k}")
    if 2 * k >= size:
        return make_generator(master).permutation(size)
    if size > 1 << 30:
        raise ValueError(f"permutation_prefix supports sizes up to 2^30, got {size}")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    # least[p] = least step i >= k with j_i = p, or size if there is none.
    least = np.full(size, size, dtype=np.int32)
    descending = -np.arange(_DECODE_CHUNK, dtype=np.int32)
    gen = make_generator(master)
    _swap_draws(gen.bit_generator, size, k,
                lambda top, chosen: np.minimum.at(least, chosen, descending[:chosen.size] + top))
    head = np.arange(k, dtype=np.int64)
    live = np.arange(k)  # chains whose end may still move
    while live.size:
        step = least[head[live]]
        moved = step < size
        live = live[moved]
        head[live] = step[moved]
    del least
    gen.shuffle(head)
    return head


def _swap_draws(bitgen, size: int, k: int, sink: Callable[[int, np.ndarray], object]) -> None:
    """Decode the swap targets j_i of ``permutation(size)`` for i = size-1,
    ..., k from ``bitgen`` (size <= 2^30), and leave ``bitgen`` where that
    shuffle leaves it after step k.

    Each decoded run goes to ``sink(top, chosen)``, with chosen[t] =
    j_{top - t} as int32, in decreasing order of i.  The draws are settled
    per band of steps that share one mask 2^bitlen(i) - 1, one chunk of the
    band's masked values at a time (``_accepted``).  numpy's uint32 draws
    read the low half, then the high half, of each output, and so do the
    outputs read as little-endian uint64 and viewed as int32 pairs, on
    either byte order (a copy only on a big-endian host).  With R steps
    left, each reading at least one value, a block of ceil(R/2) outputs is
    read to its end but for at most the last high half, which numpy then
    holds back.
    """
    offsets = np.arange(_DECODE_CHUNK, dtype=np.int32)
    stream = np.empty(0, dtype=np.int32)
    pos = 0  # index into stream of the next unread value
    top = size - 1
    while top >= k:
        low = max(k, 1 << (top.bit_length() - 1))
        mask = (1 << top.bit_length()) - 1
        # Short chunks where the band's range is short, so that the
        # undecided values (about chunk^2 / (2 * range) of them) stay few.
        width = max(64, min(_DECODE_CHUNK, (mask + 1) >> 5))
        while top >= low:
            if pos == stream.size:
                raw = bitgen.random_raw(min(_STREAM_WORDS, (top - k + 2) // 2))
                last_word = int(raw[-1])
                stream, pos = raw.astype("<u8", copy=False).view("<i4"), 0
            # Masked in place: the masks only narrow, so a value left over
            # from this band reads the same under the next one.
            values = stream[pos:pos + width]
            values &= mask
            accept = _accepted(values, top, offsets[:values.size])
            chosen = np.compress(accept, values)
            if chosen.size > top - low:
                # The band ends inside the chunk: the values after its last
                # step are read against the next mask.
                chosen = chosen[:top - low + 1]
                pos += int(np.flatnonzero(accept)[top - low]) + 1
            else:
                pos += values.size
            sink(top, chosen)
            top -= chosen.size
    if pos < stream.size:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, last_word >> 32
        bitgen.state = state


def _accepted(values: np.ndarray, top: int, offsets: np.ndarray) -> np.ndarray:
    """Which values a rejection loop accepts, when it tests them in order
    against a bound that starts at ``top`` and falls by one at each
    acceptance; ``offsets`` is ``arange(values.size)`` as int32.

    A value w at offset t is surely accepted if w <= top - t (at most t
    acceptances precede it) and surely rejected if w > top.  Each undecided
    value is accepted iff w + a <= top - b, with a the sure acceptances
    before it and b the undecided ones accepted before it: the same problem
    on the subsequence of undecided values shifted by a, where a is a
    running total of the sure acceptances per segment between undecided
    offsets.  The first value of every level is decided, so the loop ends.
    """
    # over = w + t - top - 1 is negative where w is surely accepted and lies
    # in [0, t) where it is undecided, so one unsigned compare finds those.
    over = values - np.int32(top + 1)
    over += offsets
    accept = over < 0
    open_ = np.flatnonzero(over.view(np.uint32) < offsets.view(np.uint32))
    if not open_.size:
        return accept
    # Sure acceptances per segment between undecided offsets, then a running
    # total.  reduceat gives accept[0], not 0, for an empty first segment
    # (open_[0] == 0); harmless, as accept is False at an undecided offset.
    segments = np.add.reduceat(accept[:open_[-1]], np.concatenate(([0], open_[:-1])),
                               dtype=np.int32)
    shifted = values[open_] + np.cumsum(segments)
    while open_.size:
        sure = shifted + offsets[:open_.size] <= top
        accept[open_[sure]] = True
        undecided = (shifted <= top) & ~sure
        shifted = (shifted + np.cumsum(sure) - sure)[undecided]
        open_ = open_[undecided]
    return accept
