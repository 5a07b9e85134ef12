"""Posets: union closure, the assignment search, downset enumeration,
order isomorphisms and the poset catalog key, each against the brute-force
path it replaced."""

import gc
import random
import weakref
from dataclasses import FrozenInstanceError, dataclass
from itertools import combinations, permutations, product
from operator import or_

import pytest

from catalog_oracle import all_posets
from cohext.canext import canonical_extension
from cohext.catalog import _canonical_key, distributive_lattices
from cohext.order import (
    FinPoset,
    assignments,
    cached,
    cached_method,
    canonical_form,
    trusted_instance,
    union_closure,
)
from helpers import antichain, chain, chain_lattice


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


def iso_to_oracle(p: FinPoset, q: FinPoset) -> dict[str, str] | None:
    """The first permutation of q's sorted elements, as images of p's
    sorted elements, that preserves order pairs and signatures."""
    if len(p.elements) != len(q.elements):
        return None
    if sorted(p._signature(a) for a in p.elements) != sorted(
        q._signature(b) for b in q.elements
    ):
        return None
    src = sorted(p.elements)
    for perm in permutations(sorted(q.elements)):
        m = dict(zip(src, perm))
        if all(
            p.leq(a, b) == q.leq(m[a], m[b]) for a, b in combinations(src, 2)
        ) and all(p._signature(a) == q._signature(m[a]) for a in src):
            return m
    return None


def test_assignments_come_in_lexicographic_order():
    always = lambda k, acc: True
    got = list(assignments("abc", lambda k: [2, 0, 1], always))
    assert got == [dict(zip("abc", v)) for v in product([2, 0, 1], repeat=3)]
    assert all(list(m) == list("abc") for m in got)
    # values may depend on the key; an empty key list has one assignment
    got = list(assignments("ab", lambda k: "xy" if k == "a" else "z", always))
    assert got == [{"a": "x", "b": "z"}, {"a": "y", "b": "z"}]
    assert list(assignments([], lambda k: [], always)) == [{}]
    assert list(assignments("ab", lambda k: [] if k == "b" else [1], always)) == []


def test_assignments_cut_a_branch_at_its_rejected_key():
    calls = []

    def consistent(key, acc):
        calls.append(dict(acc))
        return not (key == "a" and acc["a"] == 1)

    got = list(assignments("abc", lambda k: [0, 1], consistent))
    assert got == [dict(zip("abc", (0,) + v)) for v in product([0, 1], repeat=2)]
    # a=1 is tried once and never extended: 2 + 2 + 4 checks, not 2 + 4 + 8
    assert len(calls) == 8
    assert {"a": 1} in calls and not any(c.get("a") == 1 and len(c) > 1 for c in calls)
    # the check sees the earlier keys and the newest one, nothing later
    assert all(list(c) == list("abc")[: len(c)] for c in calls)


def test_assignments_stop_early_and_yield_copies():
    asked = []

    def values(key):
        asked.append(key)
        return iter(range(3))

    checked = []
    gen = assignments("abcd", values, lambda k, acc: checked.append(k) or True)
    first = next(gen)
    assert first == dict.fromkeys("abcd", 0)
    assert asked == list("abcd") and checked == list("abcd")
    first["a"] = 99
    assert next(gen) == {"a": 0, "b": 0, "c": 0, "d": 1}
    assert asked == list("abcd") and len(checked) == 5


def test_iso_to_matches_permutation_scan_on_all_posets_up_to_six():
    posets = all_small_posets()
    by_size = {}
    for p in posets:
        by_size.setdefault(len(p.elements), []).append(p)
    rng = random.Random(0)
    found = 0
    for p in posets:
        # a relabelled copy, listed in another order, is always isomorphic
        names = [f"v{i}" for i in range(len(p.elements))]
        rng.shuffle(names)
        rename = dict(zip(p.elements, names))
        elements = list(names)
        rng.shuffle(elements)
        copy = FinPoset(
            tuple(elements), frozenset((rename[a], rename[b]) for a, b in p.pairs)
        )
        for q in by_size[len(p.elements)] + [copy]:
            got = p.iso_to(q)
            expected = iso_to_oracle(p, q)
            assert got == expected
            if got is not None:
                assert list(got.items()) == list(expected.items())
                found += 1
    # the catalog lists one poset per class, so only a poset and its copy
    # (and the poset itself) are isomorphic
    assert found == 2 * len(posets)


def test_canonical_form_is_the_brute_force_minimum_on_one_class():
    for p in [p for n in range(6) for p in all_posets(n)]:
        matrix = lambda o: tuple(p.leq(a, b) for a in o for b in o)
        got = canonical_form(p.elements, lambda a: 0, matrix)
        assert got == min(matrix(o) for o in permutations(p.elements))


def test_canonical_form_of_no_elements_encodes_the_empty_order():
    assert canonical_form((), lambda a: 0, lambda o: ("empty", o)) == ("empty", [])


def test_canonical_form_is_invariant_under_relabelling():
    # directed graphs, which need not be posets, classed by their degrees
    def form(nodes, edges):
        def degrees(a):
            return (sum(x == a for x, _ in edges), sum(y == a for _, y in edges))

        adjacency = lambda o: tuple((a, b) in edges for a in o for b in o)
        return canonical_form(nodes, degrees, adjacency)

    rng = random.Random(0)
    for n in range(7):
        nodes = [f"v{i}" for i in range(n)]
        for _ in range(20):
            edges = {(a, b) for a in nodes for b in nodes if rng.random() < 0.3}
            name = dict(zip(nodes, rng.sample(nodes, n)))
            moved = {(name[a], name[b]) for a, b in edges}
            assert form(nodes, moved) == form(nodes, edges)


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


def test_downsets_have_no_size_cap():
    # union_closure walks only the actual downsets, so size alone is no
    # reason to refuse: a 17-chain has 18 downsets
    assert len(chain([f"c{i}" for i in range(17)]).downsets()) == 18
    ce = canonical_extension(chain_lattice(18))
    assert len(ce.ext.elements) == 18 and ce.is_iso()


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


@dataclass(frozen=True, eq=False)
class Counted:
    n: int
    calls: list

    @cached
    def square(self):
        self.calls.append("square")
        return self.n * self.n

    @cached_method
    def plus(self, k):
        self.calls.append(("plus", k))
        return self.n + k


def test_cached_computes_once_per_instance_on_a_frozen_dataclass():
    a, b = Counted(3, []), Counted(4, [])
    assert (a.square, a.square, b.square) == (9, 9, 16)
    assert (a.calls, b.calls) == (["square"], ["square"])
    assert Counted.square.func(a) == 9 and a.calls == ["square", "square"]
    # still frozen, and a value known at construction is never computed
    with pytest.raises(FrozenInstanceError):
        a.n = 5
    c = trusted_instance(Counted, n=2, calls=[], square=-1)
    assert c.square == -1 and c.calls == []


def test_cached_method_keeps_each_argument_tuple_per_instance():
    a, b = Counted(3, []), Counted(10, [])
    assert [a.plus(1), a.plus(2), a.plus(1), b.plus(1)] == [4, 5, 4, 11]
    assert a.calls == [("plus", 1), ("plus", 2)] and b.calls == [("plus", 1)]


def test_cached_data_leaves_no_reference_cycle():
    # a dropped instance is freed by reference counting, not left to the
    # cyclic collector
    gc.disable()
    try:
        a = Counted(3, [])
        assert (a.square, a.plus(1)) == (9, 4)
        ref = weakref.ref(a)
        del a
        assert ref() is None
    finally:
        gc.enable()


def test_linear_extension_is_a_cached_tuple_listing_lower_elements_first():
    for p in all_small_posets():
        order = p.linear_extension
        assert order is p.linear_extension and isinstance(order, tuple)
        assert sorted(order) == sorted(p.elements)
        pos = {a: i for i, a in enumerate(order)}
        assert all(pos[a] <= pos[b] for a, b in p.pairs)
        assert order == FinPoset.linear_extension.func(p)
        assert p.dual.dual is p
