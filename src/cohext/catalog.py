"""Deterministic enumeration of small structures for the exhaustive suites.

Distributive lattices are enumerated through their posets of
join-irreducibles: distinct posets (up to iso) give non-isomorphic downset
lattices, so no lattice-level deduplication is needed.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import FinLattice, downset_lattice
from .order import FinPoset, canonical_form


class EnumerationBound(ValueError):
    """Requested bound is above the supported range."""


def _canonical_key(p: FinPoset) -> tuple:
    """Isomorphism-invariant-first canonical form: the size, then the
    lexicographically least relation matrix over the orderings that sort
    the elements by their (down-set size, up-set size) signature."""
    matrix = lambda o: tuple(p.leq(a, b) for a in o for b in o)
    return (len(p.elements), canonical_form(p.elements, p._signature, matrix))


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[FinPoset, ...]:
    """All posets with exactly n elements, up to isomorphism.

    Built by adding a new maximal element above each down-closed subset of
    each smaller poset, deduplicating by canonical form.
    """
    if n > 6:
        raise EnumerationBound("poset enumeration supported up to 6 elements")
    if n == 0:
        return (FinPoset((), frozenset()),)
    out, seen = [], set()
    for p in all_posets(n - 1):
        new = f"p{n - 1}"
        for down in p.downsets():
            pairs = set(p.pairs)
            pairs.add((new, new))
            pairs.update((d, new) for d in down)
            q = FinPoset(p.elements + (new,), frozenset(pairs))
            key = _canonical_key(q)
            if key not in seen:
                seen.add(key)
                out.append(q)
    return tuple(out)


def distributive_lattices(max_size: int) -> list[FinLattice]:
    """All bounded distributive lattices with at most max_size elements,
    one per isomorphism class, as downset lattices of their irreducibles.

    A poset of k elements has at least k+1 downsets, with equality exactly
    for the chain, and a non-chain has at least k+2 (two incomparable
    principal downsets cannot share a maximal chain of downsets).  So
    beyond the enumerated poset range only chains can stay within bound 8,
    and bounds past 8 would need larger poset enumeration.
    """
    if max_size > 8:
        raise EnumerationBound(
            f"lattice bound {max_size} needs posets beyond 6 elements "
            f"(estimate: thousands of classes); supported bound is 8"
        )
    out = []
    for k in range(0, 7):
        if k + 1 > max_size:
            break
        for p in all_posets(k):
            L = downset_lattice(p)
            if len(L.elements) <= max_size:
                out.append(L)
    for k in range(7, max_size):
        from .order import chain

        out.append(downset_lattice(chain([f"p{i}" for i in range(k)])))
    out.sort(key=lambda L: (len(L.elements), _canonical_key(L.poset)))
    return out


def concrete_universes(max_size: int) -> list[tuple[frozenset[str], ...]]:
    """Seed object lists for concrete set-category fragments: the fixed,
    documented family of subset-closed fragments over at most max_size
    points."""
    if max_size > 3:
        raise EnumerationBound("concrete fragments supported up to 3 points")
    points = ["x", "y", "z"][:max_size]
    seeds = [tuple()]
    for k in range(1, max_size + 1):
        seeds.append((frozenset(points[:k]),))
    return seeds
