import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcount.matching import hopcroft_karp

from conftest import reference_hopcroft_karp


def csr_matching(n_left, n_right, adj):
    """``hopcroft_karp`` on the rows ``adj``, handed in as CSR arrays."""
    indptr = np.concatenate([[0], np.cumsum([len(row) for row in adj])]).astype(np.int64)
    heads = np.array([v for row in adj for v in row], dtype=np.int64)
    return hopcroft_karp(n_left, n_right, indptr, heads)


def brute_max_matching(n_left, n_right, adj):
    best = 0
    rights = list(range(n_right))
    for perm in itertools.permutations(rights):
        best = max(best, sum(1 for u in range(min(n_left, n_right))
                             if perm[u] in adj[u]))
        if best == min(n_left, n_right):
            break
    return best


class TestHopcroftKarp:
    def test_perfect_matching(self):
        size, ml, mr = csr_matching(3, 3, [[0, 1], [0], [2]])
        assert size == 3
        assert sorted(ml) == [0, 1, 2]
        assert all(mr[ml[u]] == u for u in range(3))

    def test_deficient(self):
        size, _, _ = csr_matching(2, 2, [[0], [0]])
        assert size == 1

    def test_empty(self):
        size, ml, _ = csr_matching(3, 3, [[], [], []])
        assert size == 0 and ml == [-1, -1, -1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(80):
            n = 7
            adj = [sorted(set(rng.integers(0, n, size=rng.integers(0, 4)).tolist()))
                   for _ in range(n)]
            size, ml, mr = csr_matching(n, n, adj)
            assert size == brute_max_matching(n, n, adj)
            # returned matching is consistent and uses real edges
            for u, v in enumerate(ml):
                if v != -1:
                    assert v in adj[u] and mr[v] == u

    def test_deep_augmenting_paths_iterative(self):
        # long alternating chain: would overflow a recursive DFS at scale
        n = 5000
        adj = [[u, u + 1] if u + 1 < n else [u] for u in range(n)]
        size, _, _ = csr_matching(n, n, adj)
        assert size == n

    @given(st.integers(0, 30), st.integers(0, 30), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_list_of_rows_oracle(self, n_left, n_right, data):
        # the same matching, not only the same size: the rows' order decides it
        degree = st.integers(0, min(n_right, 6))
        adj = [data.draw(st.lists(st.integers(0, n_right - 1), unique=True,
                                  min_size=k, max_size=k)) if n_right else []
               for k in (data.draw(degree) for _ in range(n_left))]
        got = csr_matching(n_left, n_right, adj)
        assert got == reference_hopcroft_karp(n_left, n_right, adj)
        assert all(type(v) is int for v in got[1] + got[2]) and type(got[0]) is int

    def test_matches_list_of_rows_oracle_near_the_threshold(self):
        # sparse rows near the 1-factor threshold need many phases and deep
        # alternating searches
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = 400
            adj = [rng.permutation(np.flatnonzero(rng.random(n) < 6.0 / n)).tolist()
                   for _ in range(n)]
            got = csr_matching(n, n, adj)
            assert got == reference_hopcroft_karp(n, n, adj)
