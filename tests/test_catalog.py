"""The lattice catalogue: identical to the generate-and-filter oracle it
replaced wherever that runs, and exact past it (OEIS A006982)."""

from collections import Counter

from catalog_oracle import distributive_lattices_oracle
from cohext.catalog import distributive_lattices

# distributive lattices with exactly n elements, n = 1..12 (OEIS A006982)
A006982 = (1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151)


def test_catalog_matches_the_oracle_up_to_eight():
    # bounds below one give no lattice on both sides
    for k in range(-1, 9):
        got, expected = distributive_lattices(k), distributive_lattices_oracle(k)
        assert len(got) == len(expected)
        for L, M in zip(got, expected):
            assert L.poset.elements == M.poset.elements
            assert L.poset.pairs == M.poset.pairs
            assert L.meet_table == M.meet_table and L.join_table == M.join_table
            assert (L.bottom, L.top) == (M.bottom, M.top)
            assert L.base_poset.elements == M.base_poset.elements
            assert L.base_poset.pairs == M.base_poset.pairs


def test_catalog_counts_match_a006982_up_to_twelve():
    lats = distributive_lattices(12)
    sizes = Counter(len(L.elements) for L in lats)
    assert tuple(sizes[n] for n in range(1, 13)) == A006982
    assert [len(L.elements) for L in lats] == sorted(sizes.elements())
