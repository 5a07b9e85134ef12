"""Deterministic enumeration of small structures for the exhaustive suites.

Distributive lattices are enumerated through their posets of
join-irreducibles.  By Birkhoff's representation theorem (Davey & Priestley,
*Introduction to Lattices and Order*, ch. 5) every finite distributive
lattice is isomorphic to the downset lattice D(P) of its poset P of
join-irreducibles, and D(P) is isomorphic to D(Q) only when P is isomorphic
to Q.  So the distributive lattices with at most n elements are exactly the
D(P) with |D(P)| <= n, one per isomorphism class of P, and no lattice-level
deduplication is needed.  The counts per size are OEIS A006982.

The posets are grown level by level: up to isomorphism, each poset with
k + 1 elements is a poset p with k elements plus a new maximal element
`p{k}` above exactly the elements of one downset `down` of p (remove any
maximal element to see this).  Candidates are deduplicated by
`_canonical_key`, the first of each class kept.  The new poset q has the
downsets of p plus each downset of p containing `down` with the new
element added, so its downset count is known before q is built.  A
candidate with more than n downsets is pruned, and with it everything
grown from it: removing a maximal element never adds downsets, so every
poset with at most n downsets is grown from a poset with at most n
downsets.  The enumeration is finite for every n, as a poset of k elements
has at least k + 1 downsets.
"""

from __future__ import annotations

from .lattice import DownsetLattice, FinLattice, set_lattice
from .order import FinPoset, canonical_form


def _canonical_key(p: FinPoset) -> tuple:
    """Isomorphism-invariant-first canonical form: the size, then the
    lexicographically least relation matrix over the orderings that sort
    the elements by their (down-set size, up-set size) signature."""
    matrix = lambda o: tuple(p.leq(a, b) for a in o for b in o)
    return (len(p.elements), canonical_form(p.elements, p._signature, matrix))


def _grow(level, max_size: int) -> list:
    """The posets one element larger than those of `level`, up to
    isomorphism, that have at most max_size downsets, each with its sorted
    downsets.  `level` lists (poset, its sorted downsets) pairs."""
    out, seen = [], set()
    for p, downs in level:
        new = f"p{len(p.elements)}"
        for down in downs:
            if len(downs) + sum(down <= d for d in downs) > max_size:
                continue
            # reflexive, antisymmetric and transitive by construction: the
            # new element is maximal and `down` is down-closed
            q = FinPoset(
                p.elements + (new,),
                p.pairs | {(new, new)} | {(d, new) for d in down},
            )
            key = _canonical_key(q)
            if key not in seen:
                seen.add(key)
                out.append((q, q.downsets()))
    return out


def distributive_lattices(max_size: int) -> list[FinLattice]:
    """All bounded distributive lattices with at most max_size elements,
    one per isomorphism class, as downset lattices of their irreducibles,
    sorted by size and then by the canonical key of their order."""
    out = []
    level = [(FinPoset((), frozenset()), [frozenset()])] if max_size >= 1 else []
    while level:
        out += [set_lattice(d, cls=DownsetLattice, base_poset=p) for p, d in level]
        level = _grow(level, max_size)
    out.sort(key=lambda L: (len(L.elements), _canonical_key(L.poset)))
    return out


def concrete_universes(max_size: int) -> list[tuple[frozenset[str], ...]]:
    """Seed object lists for concrete set-category fragments: the fixed,
    documented family of subset-closed fragments over at most max_size
    points."""
    if max_size > 3:
        raise ValueError("concrete fragments supported up to 3 points")
    points = ["x", "y", "z"][:max_size]
    seeds = [tuple()]
    for k in range(1, max_size + 1):
        seeds.append((frozenset(points[:k]),))
    return seeds
