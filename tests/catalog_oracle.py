"""The generate-and-filter lattice catalogue that `catalog.distributive_lattices`
replaced, kept as a test oracle: every poset up to 6 elements, each turned
into its downset lattice and kept when small enough, plus the chains that
are the only larger posets within 8 downsets."""

from functools import lru_cache

from cohext.catalog import _canonical_key
from cohext.lattice import FinLattice, downset_lattice
from cohext.order import FinPoset
from helpers import chain


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[FinPoset, ...]:
    """All posets with exactly n elements, up to isomorphism.

    Built by adding a new maximal element above each down-closed subset of
    each smaller poset, deduplicating by canonical form.
    """
    if n > 6:
        raise ValueError("poset enumeration supported up to 6 elements")
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


def distributive_lattices_oracle(max_size: int) -> list[FinLattice]:
    """The old `distributive_lattices`, for bounds up to 8.

    A poset of k elements has at least k+1 downsets, with equality exactly
    for the chain, and a non-chain has at least k+2 (two incomparable
    principal downsets cannot share a maximal chain of downsets).  So
    beyond the enumerated poset range only chains can stay within bound 8.
    """
    if max_size > 8:
        raise ValueError(f"oracle supports lattice bounds up to 8, not {max_size}")
    out = []
    for k in range(0, 7):
        if k + 1 > max_size:
            break
        for p in all_posets(k):
            L = downset_lattice(p)
            if len(L.elements) <= max_size:
                out.append(L)
    for k in range(7, max_size):
        out.append(downset_lattice(chain([f"p{i}" for i in range(k)])))
    out.sort(key=lambda L: (len(L.elements), _canonical_key(L.poset)))
    return out
