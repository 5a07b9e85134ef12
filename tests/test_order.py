"""Posets: union closure, downset enumeration and the poset catalog key,
each against the brute-force path it replaced."""

from itertools import combinations, permutations
from operator import or_

import pytest

from cohext.catalog import _canonical_key, all_posets, distributive_lattices
from cohext.order import FinPoset, OrderError, antichain, chain, union_closure


def all_small_posets():
    return [p for n in range(7) for p in all_posets(n)]


def downsets_oracle(p: FinPoset) -> list[frozenset[str]]:
    """Every subset of p that is down-closed, sorted as `downsets` sorts."""
    out = []
    n = len(p.elements)
    for mask in range(1 << n):
        s = frozenset(e for i, e in enumerate(p.elements) if mask >> i & 1)
        if all(x in s for a in s for x in p.elements if p.leq(x, a)):
            out.append(s)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def canonical_key_oracle(p: FinPoset) -> tuple:
    """The least relation matrix over all n! orderings that sort the
    elements by (down-set size, up-set size)."""
    n = len(p.elements)
    best = None
    sigs = {a: (len(p.down_set(a)), len(p.up_set(a))) for a in p.elements}
    for perm in permutations(sorted(p.elements, key=lambda a: sigs[a])):
        if [sigs[a] for a in perm] != sorted(sigs.values()):
            continue
        mat = tuple(p.leq(perm[i], perm[j]) for i in range(n) for j in range(n))
        if best is None or mat < best:
            best = mat
    return (n, best)


def test_union_closure_is_every_union_of_generators():
    gens_lists = [[], [0], [3, 5, 6], [1, 2, 4, 8], [3, 3, 12, 5, 0]]
    for gens in gens_lists:
        expected = {0}
        for r in range(1, len(gens) + 1):
            for sub in combinations(gens, r):
                u = 0
                for g in sub:
                    u |= g
                expected.add(u)
        got = list(union_closure(gens))
        assert got[0] == 0
        assert len(got) == len(set(got))
        assert set(got) == expected


def test_union_closure_takes_a_join_and_an_empty_union():
    join = lambda a, b: tuple(map(or_, a, b))
    gens = [(frozenset("a"), frozenset()), (frozenset(), frozenset("b"))]
    got = set(union_closure(gens, join, (frozenset(), frozenset())))
    halves = (frozenset(), frozenset("a")), (frozenset(), frozenset("b"))
    assert got == {(x, y) for x in halves[0] for y in halves[1]}


def test_union_closure_order_is_found_order():
    # each generator is joined to the unions found so far, in found order,
    # so the first 2^k values close the first k independent generators
    assert list(union_closure([1, 2, 4, 8])) == list(range(16))
    assert list(union_closure([4, 1, 6])) == [0, 4, 1, 5, 6, 7]


def test_downsets_match_subset_oracle_on_all_posets_up_to_six():
    posets = all_small_posets()
    assert len(posets) == 1 + 1 + 2 + 5 + 16 + 63 + 318
    for p in posets:
        assert p.downsets() == downsets_oracle(p)


def test_downsets_of_chains_and_antichains():
    assert downsets_oracle(chain("abc")) == chain("abc").downsets()
    assert len(antichain("abcdefgh").downsets()) == 256
    assert len(chain([f"c{i}" for i in range(16)]).downsets()) == 17


def test_downset_cap_still_refuses_seventeen_elements():
    with pytest.raises(OrderError, match="downset enumeration capped at 16 elements"):
        chain([f"c{i}" for i in range(17)]).downsets()


def test_canonical_key_matches_brute_force_on_all_posets_up_to_six():
    posets = all_small_posets()
    # the lattices' own orders too, as distributive_lattices sorts by them
    posets += [L.poset for L in distributive_lattices(6)]
    for p in posets:
        assert _canonical_key(p) == canonical_key_oracle(p)
    # a relabelled copy gets the same key: the key is an iso invariant
    for p in all_posets(5):
        names = dict(zip(p.elements, reversed(p.elements)))
        q = FinPoset(p.elements, frozenset((names[a], names[b]) for a, b in p.pairs))
        assert _canonical_key(q) == _canonical_key(p)
