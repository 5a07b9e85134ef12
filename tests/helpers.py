"""Small structures and fixture access that only the suites use: chain
and antichain posets, the chain, one-element, four-element Boolean and M3
lattices, the N5 pentagon, the lattice tables found by scanning every
element (the oracle of `FinLattice.from_poset`), the definitional filter,
prime-filter and ideal tests (the oracles of the up-set enumerations), the
path of a shipped fixture, and a hyperdoctrine whose existential table
breaks the adjunction law."""

from __future__ import annotations

from functools import reduce
from itertools import product
from pathlib import Path

from cohext.cohcat import LatticeCategory
from cohext.fixtures import FIXTURE_DIR
from cohext.hyperdoctrine import CoherentHyperdoctrine, sub_hyperdoctrine
from cohext.lattice import FinLattice, LatticeError, MonotoneMap
from cohext.order import FinPoset


def chain(names) -> FinPoset:
    names = tuple(names)
    pairs = {
        (names[i], names[j]) for i in range(len(names)) for j in range(i, len(names))
    }
    return FinPoset(names, frozenset(pairs))


def antichain(names) -> FinPoset:
    names = tuple(names)
    return FinPoset(names, frozenset((a, a) for a in names))


def trivial_lattice() -> FinLattice:
    return FinLattice.from_poset(FinPoset(("*",), frozenset({("*", "*")})))


def boolean4() -> FinLattice:
    """The four-element Boolean lattice (the diamond) 0 < a,b < 1."""
    return FinLattice.from_poset(
        FinPoset.from_pairs("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    )


def chain_lattice(n: int, prefix: str = "c") -> FinLattice:
    """The n-element chain c0 < c1 < ... ."""
    return FinLattice.from_poset(chain([f"{prefix}{i}" for i in range(n)]))


def m3() -> FinLattice:
    """The non-distributive lattice with three incomparable atoms."""
    return FinLattice.from_poset(
        FinPoset.from_pairs(
            "0abc1",
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        )
    )


def n5() -> FinLattice:
    """The non-distributive pentagon 0 < a < c < 1, 0 < b < 1: c is
    join-irreducible but not join-prime (c <= a \\/ b, yet c is below
    neither)."""
    return FinLattice.from_poset(
        FinPoset.from_pairs(
            "0acb1", [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
        )
    )


def lattice_by_scan(poset: FinPoset) -> FinLattice:
    """`FinLattice.from_poset` as it was before it read bitmasks: each meet
    and join found by scanning every element for the lower and upper
    bounds of the pair and then for their greatest and least members."""
    if not poset.elements:
        raise LatticeError("a lattice needs at least one element")
    meet, join = {}, {}
    for a, b in product(poset.elements, repeat=2):
        lows = [x for x in poset.elements if poset.leq(x, a) and poset.leq(x, b)]
        glb = [x for x in lows if all(poset.leq(y, x) for y in lows)]
        ups = [x for x in poset.elements if poset.leq(a, x) and poset.leq(b, x)]
        lub = [x for x in ups if all(poset.leq(x, y) for y in ups)]
        if len(glb) != 1:
            raise LatticeError(f"pair ({a},{b}) has no meet")
        if len(lub) != 1:
            raise LatticeError(f"pair ({a},{b}) has no join")
        meet[(a, b)], join[(a, b)] = glb[0], lub[0]
    bottom = reduce(lambda x, y: meet[x, y], poset.elements)
    top = reduce(lambda x, y: join[x, y], poset.elements)
    return FinLattice(poset, meet, join, bottom, top)


def is_filter(L: FinLattice, s) -> bool:
    s = set(s)
    if not s:
        return False
    return all(L.join(a, x) in s for a in s for x in L.elements) and all(
        L.meet(a, b) in s for a in s for b in s
    )


def is_prime_filter(L: FinLattice, s) -> bool:
    s = set(s)
    if not is_filter(L, s) or len(s) == len(L.elements):
        return False
    return all(
        a in s or b in s
        for a in L.elements
        for b in L.elements
        if L.join(a, b) in s
    )


def is_ideal(L: FinLattice, s) -> bool:
    return is_filter(L.dual, s)


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


def broken_exists_hyperdoctrine() -> CoherentHyperdoctrine:
    """The subobject hyperdoctrine of the 3-chain with one existential
    table entry bumped, so the adjunction law fails with a witness."""
    C = LatticeCategory(chain_lattice(3))
    P = sub_hyperdoctrine(C)
    exists = dict(P.exists)
    f = "le(c0,c2)"
    old = exists[f]
    table = dict(old.mapping)
    table["c0"] = "c2"  # image of the bottom subobject jumps to the top
    exists[f] = MonotoneMap(old.source, old.target, table)
    return CoherentHyperdoctrine(P.base, P.fibers, P.subst, exists, P.limits)
