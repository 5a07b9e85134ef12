"""Finite bounded lattices: tables, filters, ideals, prime filters, duality.

A lattice is stored as a poset plus meet/join tables: meet(a,b) is the
greatest lower bound and join(a,b) the least upper bound, which forces all
the lattice identities.  `FinLattice.from_poset` derives the tables from
an order; every other construction knows them by theorem.  It keeps each
principal down-set and up-set as an int bitmask and reads meet(a,b) as
the element whose down-set is down(a) & down(b), since the down-set of
a /\\ b is the intersection of those of a and b (Davey & Priestley,
ch. 2), and joins dually; no element has that down-set exactly when the
pair has no meet.  Distributivity is a separate predicate so that
non-distributive counterexamples remain representable.

Every lattice of sets (downsets, filters, ideals, subsets of a finite set,
families of subsets) is built by `set_lattice`, the one place that names
set elements and keeps the name <-> set maps (`decode` / `encode`).

Map searches go through the irreducibles (Birkhoff duality; Davey &
Priestley, *Introduction to Lattices and Order*, ch. 5) instead of
filtering every monotone map.  Every element of a finite lattice is the
join of the join-irreducibles below it, so a join-preserving map is fixed
by its monotone restriction to them: `join_preserving_maps` extends each
monotone map on the join-irreducibles by joins.  On a distributive source
every extension preserves finite joins and is built with that verdict; on
others, such as M3, the candidates are checked.
Between distributive lattices, `lattice_homs` enumerates the monotone maps
J(K) -> J(L) of the dual posets, each giving exactly one hom; otherwise it
keeps the join-preserving maps that preserve finite meets.

The meet side is the join side read on the order dual: `FinLattice.dual`
is a view with the flipped order and the swapped tables (and
`L.dual.dual is L`), and `MonotoneMap.dual` is the same mapping between
the duals.  So ideals are the filters of `L.dual`, a map preserves finite
meets when its dual preserves finite joins, its right adjoint is the dual
of its dual's left adjoint, and `meet_preserving_maps` is
`join_preserving_maps` between the duals.

Lattices and maps trust their data, as posets do (see `order`): each one
the program builds is one by theorem, such as the results of the map
searches here (`monotone_maps` checks each pair b <= a as a is assigned),
the pullback and image maps of the categories and the sigma/pi lifts.
`lattice_failures` and `map_failures` (the hom law included for a
`LatticeHom`) state the axioms; `jsonio` runs the map check on what it
reads, and the tests run both on every construction.

The prime filters are the up-sets of the join-prime elements (Davey &
Priestley, ch. 5), which are the join-irreducibles only on a distributive
lattice: in N5 a join-irreducible is not join-prime.

Lattices and maps are immutable, so what they determine is computed once
per instance by `order.cached`: the duals, the distributivity witness, the
join-irreducibles, the prime filters, the structural hash and a map's
join-preservation verdict.  The map enumerations are kept per lattice
pair by `order.cached_method`: on the source lattice, keyed by the target,
so every later search between the same pair returns a fresh list over the
same map objects, and `meet_preserving_maps` reads them on the duals.
Keys compare lattices by equality, as `canext.canonical_extension` does,
so a target rebuilt equal to one already searched gets the maps into the
one first searched.
`monotone_maps` is not kept: no caller searches the same pair twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import product
from operator import and_, ge, le, or_

from .order import (
    FinPoset,
    assignments,
    cached,
    cached_method,
    poset_failures,
    set_name,
    trusted_instance,
)


class LatticeError(ValueError):
    """Lattice table data is inconsistent with the order."""


class NotDistributiveError(LatticeError):
    """An operation requiring distributivity was given a non-distributive lattice."""


@dataclass(frozen=True, eq=False)
class FinLattice:
    poset: FinPoset
    meet_table: dict[tuple[str, str], str]
    join_table: dict[tuple[str, str], str]
    bottom: str
    top: str

    @classmethod
    def from_poset(cls, poset: FinPoset) -> FinLattice:
        """Derive meet/join from the order; raise with a witness pair if absent.

        Each element's principal down-set and up-set are int bitmasks, and
        meet(a, b) is the one element whose down-set is down(a) & down(b):
        x is the greatest lower bound of a and b exactly when
        down(x) = down(a) & down(b), and in a poset no two elements have the
        same down-set.  Joins are read dually from the up-sets.  The witness
        is the first pair in product order with no meet or no join, the
        meet checked first."""
        elems = poset.elements
        if not elems:
            raise LatticeError("a lattice needs at least one element")
        bit = {x: 1 << i for i, x in enumerate(elems)}
        down, up = dict.fromkeys(elems, 0), dict.fromkeys(elems, 0)
        for x, y in poset.pairs:
            down[y] |= bit[x]
            up[x] |= bit[y]
        by_down = {mask: x for x, mask in down.items()}
        by_up = {mask: x for x, mask in up.items()}
        meet, join = {}, {}
        for a, b in product(elems, repeat=2):
            glb = by_down.get(down[a] & down[b])
            if glb is None:
                raise LatticeError(f"pair ({a},{b}) has no meet")
            lub = by_up.get(up[a] & up[b])
            if lub is None:
                raise LatticeError(f"pair ({a},{b}) has no join")
            meet[a, b], join[a, b] = glb, lub
        # a finite lattice is bounded by the meet and the join of all
        bottom = reduce(lambda x, y: meet[x, y], elems)
        top = reduce(lambda x, y: join[x, y], elems)
        return cls(poset, meet, join, bottom, top)

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def leq(self, a, b) -> bool:
        return self.poset.leq(a, b)

    def meet(self, a, b) -> str:
        return self.meet_table[(a, b)]

    def join(self, a, b) -> str:
        return self.join_table[(a, b)]

    def meet_all(self, xs) -> str:
        out, meet = self.top, self.meet_table
        for x in xs:
            out = meet[out, x]
        return out

    def join_all(self, xs) -> str:
        out, join = self.bottom, self.join_table
        for x in xs:
            out = join[out, x]
        return out

    def implies(self, a, b) -> str:
        """Heyting implication: the largest x with x /\\ a <= b.

        Exists in every finite distributive lattice.
        """
        cands = [x for x in self.elements if self.leq(self.meet(x, a), b)]
        out = self.join_all(cands)
        if not self.leq(self.meet(out, a), b):
            raise NotDistributiveError(f"no implication for ({a},{b})")
        return out

    def down_lattice(self, a: str) -> FinLattice:
        """The interval [bottom, a] as a lattice with the induced order.  It
        is a sublattice, so its tables are restrictions of this lattice's."""
        down = self.poset.down_set(a)
        elems = tuple(x for x in self.elements if x in down)
        pairs = [(x, y) for x in elems for y in elems]
        return FinLattice(
            FinPoset(elems, frozenset(p for p in pairs if p in self.poset.pairs)),
            {p: self.meet_table[p] for p in pairs},
            {p: self.join_table[p] for p in pairs},
            self.bottom,
            a,
        )

    # Derived data, computed once per lattice by the one `order.cached`.

    @cached
    def dual(self) -> FinLattice:
        """The order dual: the same elements, the flipped order and the
        swapped tables; `L.dual.dual is L`."""
        return trusted_instance(
            FinLattice, poset=self.poset.dual, meet_table=self.join_table,
            join_table=self.meet_table, bottom=self.top, top=self.bottom, dual=self,
        )

    @cached
    def distributivity_witness(self) -> tuple[str, str, str] | None:
        """The first triple (x, y, z) in product order with
        x /\\ (y \\/ z) != (x /\\ y) \\/ (x /\\ z), or None if distributive."""
        meet, join = self.meet_table, self.join_table
        for x, y, z in product(self.elements, repeat=3):
            if meet[x, join[y, z]] != join[meet[x, y], meet[x, z]]:
                return (x, y, z)
        return None

    @cached
    def irreducibles(self) -> tuple[str, ...]:
        """The join-irreducible elements, in element order."""
        return tuple(a for a in self.elements if is_join_irreducible(self, a))

    @cached
    def prime_filter_sets(self) -> tuple[frozenset[str], ...]:
        """The prime filters, in the order of `filters`: the up-sets of the
        join-prime elements.  j is join-prime when the elements not above
        it, a down-set, are closed under joins, so when their join is not
        above j; for j = bottom that is the empty join, bottom itself."""
        return tuple(
            up for up in filters(self)
            if self.join_all(x for x in self.elements if x not in up) not in up
        )

    @cached_method
    def _maps_to(self, K: FinLattice, search) -> tuple:
        """The maps from here to K that `search` enumerates, kept per
        (K, search); the map searches below read them through this."""
        return tuple(search(self, K))

    def iso_to(self, other: FinLattice) -> dict[str, str] | None:
        return self.poset.iso_to(other.poset)

    def __eq__(self, other):
        return (
            isinstance(other, FinLattice)
            and self.poset == other.poset
            and self.bottom == other.bottom
            and self.top == other.top
        )

    @cached
    def _hash(self) -> int:
        return hash((self.poset, self.bottom, self.top))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FinLattice({len(self.elements)} elements)"


@dataclass(frozen=True, eq=False, repr=False)
class NamedSetLattice(FinLattice):
    """Lattice whose elements name sets (or families of sets): `decode`
    maps a name to its set and `encode` maps the set back."""

    decode: dict = field(default_factory=dict)
    encode: dict = field(default_factory=dict)

    def encode_of(self, s) -> str:
        try:
            return self.encode[s]
        except KeyError:
            raise LatticeError(f"{set_name(s)} is not an element here") from None


@dataclass(frozen=True, eq=False, repr=False)
class DownsetLattice(NamedSetLattice):
    """Downset lattice of a poset; remembers the poset."""

    base_poset: FinPoset = None


def set_lattice(
    items, name=set_name, meet=and_, join=or_, leq=le, cls=NamedSetLattice, **extra
) -> NamedSetLattice:
    """The lattice on `items` (kept in the given order) ordered by `leq`.

    `meet` and `join` must map pairs of items to items that are their glb
    and lub under `leq`.  Elements are named by `name`; `extra` sets
    further fields of `cls`."""
    items = list(items)
    encode = {s: name(s) for s in items}
    poset = FinPoset(
        tuple(encode[s] for s in items),
        frozenset((encode[s], encode[t]) for s in items for t in items if leq(s, t)),
    )
    meet_table = {
        (encode[s], encode[t]): encode[meet(s, t)] for s in items for t in items
    }
    join_table = {
        (encode[s], encode[t]): encode[join(s, t)] for s in items for t in items
    }
    return cls(
        poset, meet_table, join_table,
        encode[reduce(meet, items)], encode[reduce(join, items)],
        decode={n: s for s, n in encode.items()}, encode=encode, **extra,
    )


def downset_lattice(p: FinPoset) -> DownsetLattice:
    """All down-closed subsets of p, ordered by inclusion."""
    return set_lattice(p.downsets(), cls=DownsetLattice, base_poset=p)


def check_distributive(L: FinLattice) -> bool:
    return L.distributivity_witness is None


def require_distributive(L: FinLattice) -> None:
    w = L.distributivity_witness
    if w is not None:
        raise NotDistributiveError(f"distributivity fails on triple ({','.join(w)})")


def is_join_irreducible(L: FinLattice, a: str) -> bool:
    """a is not bottom and not the join of the elements strictly below it
    (if a = x \\/ y with x, y < a, those are among them)."""
    below = (x for x in L.elements if L.poset.lt(x, a))
    return a != L.bottom and L.join_all(below) != a


def join_irreducibles(L: FinLattice) -> FinPoset:
    """The induced subposet of join-irreducible elements."""
    return L.poset.restricted(L.irreducibles)


# -- filters and ideals -----------------------------------------------------
#
# In a finite lattice every filter is principal (the meet of a finite
# meet-closed up-closed set is its least member), so filters are enumerated
# as up-sets.


def filters(L: FinLattice) -> list[frozenset[str]]:
    """All filters, including the improper one (= the whole lattice)."""
    return sorted(
        (L.poset.up_set(a) for a in L.elements), key=lambda s: (len(s), sorted(s))
    )


def ideals(L: FinLattice) -> list[frozenset[str]]:
    return filters(L.dual)


def prime_filters(L: FinLattice) -> list[frozenset[str]]:
    """All proper filters F with a \\/ b in F implying a in F or b in F,
    derived once per lattice (`FinLattice.prime_filter_sets`)."""
    return list(L.prime_filter_sets)


def prime_filter_poset(L: FinLattice) -> FinPoset:
    """Prime filters under reverse inclusion."""
    pf = L.prime_filter_sets
    names = {s: set_name(s) for s in pf}
    return FinPoset(
        tuple(names[s] for s in pf),
        frozenset((names[s], names[t]) for s in pf for t in pf if s >= t),
    )


def filter_lattice(L: FinLattice) -> NamedSetLattice:
    """All filters of L ordered by reverse inclusion.  Every filter is
    principal, so the meet of up(a) and up(b) is up(a /\\ b) and their
    join is the intersection up(a \\/ b)."""
    least = {L.poset.up_set(a): a for a in L.elements}
    return set_lattice(
        filters(L), leq=ge, join=and_,
        meet=lambda s, t: L.poset.up_set(L.meet(least[s], least[t])),
    )


def ideal_lattice(L: FinLattice) -> NamedSetLattice:
    """All ideals of L ordered by inclusion; the dual of `filter_lattice`."""
    greatest = {L.poset.down_set(a): a for a in L.elements}
    return set_lattice(
        ideals(L),
        join=lambda s, t: L.poset.down_set(L.join(greatest[s], greatest[t])),
    )


# -- maps -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MonotoneMap:
    source: FinLattice
    target: FinLattice
    mapping: dict[str, str]

    @cached
    def dual(self) -> MonotoneMap:
        """The same mapping between the order duals (a hom stays a hom);
        `f.dual.dual is f`."""
        return trusted_instance(
            type(self), source=self.source.dual, target=self.target.dual,
            mapping=self.mapping, dual=self,
        )

    def __call__(self, a: str) -> str:
        return self.mapping[a]

    def then(self, g: MonotoneMap) -> MonotoneMap:
        if g.source is not self.target and g.source != self.target:
            raise LatticeError("maps not composable")
        return type(g)(self.source, g.target, {a: g(self(a)) for a in self.source.elements})

    @classmethod
    def identity(cls, L: FinLattice):
        return cls(L, L, {a: a for a in L.elements})

    @cached
    def _preserves_finite_joins(self) -> bool:
        L, K, m = self.source, self.target, self.mapping
        if m[L.bottom] != K.bottom:
            return False
        lj, kj = L.join_table, K.join_table
        return all(
            m[lj[a, b]] == kj[m[a], m[b]] for a, b in product(L.elements, repeat=2)
        )

    def preserves_finite_joins(self) -> bool:
        """Binary joins and bottom; decided once per map."""
        return self._preserves_finite_joins

    def preserves_finite_meets(self) -> bool:
        return self.dual._preserves_finite_joins

    def is_lattice_hom(self) -> bool:
        return self.preserves_finite_joins() and self.preserves_finite_meets()

    def is_order_embedding(self) -> bool:
        return all(
            self.source.leq(a, b) == self.target.leq(self(a), self(b))
            for a, b in product(self.source.elements, repeat=2)
        )

    def is_iso(self) -> bool:
        return self.is_order_embedding() and len(
            set(self.mapping.values())
        ) == len(self.target.elements)

    def left_adjoint(self) -> MonotoneMap | None:
        """The map g with g(b) <= a iff b <= self(a), if it exists."""
        g = {}
        for b in self.target.elements:
            over = [a for a in self.source.elements if self.target.leq(b, self(a))]
            cand = self.source.meet_all(over)
            if not self.target.leq(b, self(cand)):
                return None
            g[b] = cand
        return MonotoneMap(self.target, self.source, g)

    def right_adjoint(self) -> MonotoneMap | None:
        """The map g with self(a) <= b iff a <= g(b), if it exists."""
        g = self.dual.left_adjoint()
        return None if g is None else g.dual

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.mapping.items()))))

    def __repr__(self):
        return f"MonotoneMap({self.mapping})"


class LatticeHom(MonotoneMap):
    """Bounded-lattice homomorphism; for finite lattices this is the same
    thing as a complete homomorphism."""


# -- the axioms, as generators of witnesses -----------------------------------


def lattice_failures(L: FinLattice):
    """Each way L fails to be a bounded lattice, as a message naming its
    witness: the poset failures of its order, the bounds in element order,
    then each table entry that is missing or not the glb or lub, in
    product order."""
    yield from poset_failures(L.poset)
    leq, elems = L.poset.leq, L.elements
    for a in elems:
        if not leq(L.bottom, a):
            yield f"bottom not below {a}"
        if not leq(a, L.top):
            yield f"top not above {a}"

    def is_lub(j, a, b, le):
        uppers = [x for x in elems if le(a, x) and le(b, x)]
        return j in uppers and all(le(j, x) for x in uppers)

    for a, b in product(elems, repeat=2):
        m, j = L.meet_table.get((a, b)), L.join_table.get((a, b))
        if m is None or j is None:
            yield f"missing table entry for ({a},{b})"
            continue
        if not is_lub(m, a, b, L.poset.dual.leq):  # a glb is a lub of the dual
            yield f"meet({a},{b})={m} is not the glb"
        if not is_lub(j, a, b, leq):
            yield f"join({a},{b})={j} is not the lub"


def map_failures(f: MonotoneMap):
    """Each way f fails to be a map of its class, as a message naming its
    witness: each element it leaves undefined or sends outside the target;
    else each pair it fails to keep in order, in product order, and for a
    `LatticeHom` the hom law."""
    m = f.mapping
    stray = [a for a in f.source.elements if m.get(a) not in f.target.elements]
    for a in stray:
        yield f"map undefined on {a}" if a not in m else f"map sends {a} outside the target"
    if stray:
        return
    src, tgt = f.source.poset.pairs, f.target.poset.pairs
    for a, b in product(f.source.elements, repeat=2):
        if (a, b) in src and (m[a], m[b]) not in tgt:
            yield f"not order-preserving on ({a},{b})"
    if isinstance(f, LatticeHom) and not f.is_lattice_hom():
        yield "not a lattice homomorphism"


# -- the laws between a pair of maps, as generators of failing pairs ----------


def adjunction_failures(
    lower: MonotoneMap, upper: MonotoneMap, L: FinLattice, M: FinLattice
):
    """Each pair (a, b), a in L and b in M in product order, at which
    lower(a) <= b and a <= upper(b) disagree; lower : L -> M is left
    adjoint to upper : M -> L exactly when there is none.  That g : L -> M
    is right adjoint to f : M -> L is `adjunction_failures(g, f, L.dual,
    M.dual)`, still in L x M order."""
    lo, up = lower.mapping, upper.mapping
    lp, mp = L.poset.pairs, M.poset.pairs
    return (
        (a, b)
        for a in L.elements
        for b in M.elements
        if ((lo[a], b) in mp) != ((a, up[b]) in lp)
    )


def frobenius_failures(
    ex: MonotoneMap, sub: MonotoneMap, L: FinLattice, M: FinLattice
):
    """Each pair (a, b), a in L and b in M in product order, at which
    ex(a /\\ sub(b)) != ex(a) /\\ b, for ex : L -> M and sub : M -> L."""
    e, s = ex.mapping, sub.mapping
    lm, mm = L.meet_table, M.meet_table
    return (
        (a, b)
        for a in L.elements
        for b in M.elements
        if e[lm[a, s[b]]] != mm[e[a], b]
    )


# -- products and enumeration ------------------------------------------------


def pair_name(a: str, b: str) -> str:
    return f"({a}|{b})"


def product_lattice(L: FinLattice, K: FinLattice) -> FinLattice:
    """Componentwise product; elements are named pairs."""
    elems = tuple(pair_name(a, b) for a in L.elements for b in K.elements)
    split = {pair_name(a, b): (a, b) for a in L.elements for b in K.elements}
    pairs = frozenset(
        (x, y)
        for x in elems
        for y in elems
        if L.leq(split[x][0], split[y][0]) and K.leq(split[x][1], split[y][1])
    )
    poset = FinPoset(elems, pairs)
    meet = {
        (x, y): pair_name(
            L.meet(split[x][0], split[y][0]), K.meet(split[x][1], split[y][1])
        )
        for x in elems
        for y in elems
    }
    join = {
        (x, y): pair_name(
            L.join(split[x][0], split[y][0]), K.join(split[x][1], split[y][1])
        )
        for x in elems
        for y in elems
    }
    return FinLattice(
        poset, meet, join,
        pair_name(L.bottom, K.bottom), pair_name(L.top, K.top),
    )


def product_projections(L: FinLattice, K: FinLattice):
    P = product_lattice(L, K)
    pairs = [(a, b) for a in L.elements for b in K.elements]
    p1 = MonotoneMap(P, L, {pair_name(a, b): a for a, b in pairs})
    p2 = MonotoneMap(P, K, {pair_name(a, b): b for a, b in pairs})
    return P, p1, p2


def _monotone_tables(P: FinPoset, keys, values, target: frozenset):
    """Each order-preserving map from `keys` (elements of P) to `values`
    under the order pairs `target`.  Keys are assigned along a linear
    extension of P, so each is checked only against the earlier keys
    below it."""
    keys = set(keys)
    order = [a for a in P.linear_extension if a in keys]
    below = {a: [b for b in order[:i] if P.leq(b, a)] for i, a in enumerate(order)}

    def consistent(a, acc):
        k = acc[a]
        return all((acc[b], k) in target for b in below[a])

    return assignments(order, lambda a: values, consistent)


def _by_items(maps: list) -> list:
    maps.sort(key=lambda m: tuple(sorted(m.mapping.items())))
    return maps


def monotone_maps(L: FinLattice, K: FinLattice) -> list[MonotoneMap]:
    """All order-preserving maps L -> K, sorted by their items."""
    return _by_items([
        MonotoneMap(L, K, m)
        for m in _monotone_tables(L.poset, L.elements, K.elements, K.poset.pairs)
    ])


def join_preserving_maps(L: FinLattice, K: FinLattice) -> list[MonotoneMap]:
    """The maps L -> K preserving finite joins, sorted by their items;
    enumerated once per pair (see `_join_preserving_maps`)."""
    return list(L._maps_to(K, _join_preserving_maps))


def meet_preserving_maps(L: FinLattice, K: FinLattice) -> list[MonotoneMap]:
    """The join-preserving maps between the order duals, read back."""
    return [f.dual for f in join_preserving_maps(L.dual, K.dual)]


def lattice_homs(L: FinLattice, K: FinLattice) -> list[LatticeHom]:
    """All bounded homs L -> K, sorted by their items; enumerated once per
    pair (see `_lattice_homs`)."""
    return list(L._maps_to(K, _lattice_homs))


def _join_preserving_maps(L: FinLattice, K: FinLattice) -> list[MonotoneMap]:
    """Each monotone map on the join-irreducibles of L, extended by joins,
    kept if it preserves them.  On a distributive L every one does, since
    its join-irreducibles are join-prime (j <= a \\/ b puts j below a or
    b), so each is built with that verdict instead of checked."""
    irr = L.irreducibles
    gens = {a: [j for j in irr if L.leq(j, a)] for a in L.elements}
    known = {"_preserves_finite_joins": True} if check_distributive(L) else {}
    maps = (
        trusted_instance(
            MonotoneMap, source=L, target=K,
            mapping={a: K.join_all(g[x] for x in gens[a]) for a in L.elements},
            **known,
        )
        for g in _monotone_tables(L.poset, irr, K.elements, K.poset.pairs)
    )
    return _by_items([f for f in maps if f.preserves_finite_joins()])


def _lattice_homs(L: FinLattice, K: FinLattice) -> list[LatticeHom]:
    """Between distributive lattices, each monotone phi : J(K) -> J(L) gives
    the hom a |-> \\/ {k in J(K) : phi(k) <= a}, and every hom arises once
    so; otherwise the join-preserving maps that preserve finite meets."""
    hom = partial(
        trusted_instance, LatticeHom, source=L, target=K, _preserves_finite_joins=True
    )
    if not (check_distributive(L) and check_distributive(K)):
        return [
            hom(mapping=f.mapping)
            for f in join_preserving_maps(L, K)
            if f.preserves_finite_meets()
        ]
    jl, jk = L.irreducibles, K.irreducibles
    return _by_items([
        hom(mapping={
            a: K.join_all(k for k in jk if L.leq(phi[k], a)) for a in L.elements
        })
        for phi in _monotone_tables(K.poset, jk, jl, L.poset.pairs)
    ])


# -- Birkhoff duality ---------------------------------------------------------


def birkhoff(L: FinLattice) -> tuple[LatticeHom, LatticeHom]:
    """The isomorphism pair between L and the downset lattice of its
    join-irreducibles.  Refuses non-distributive input."""
    require_distributive(L)
    J = join_irreducibles(L)
    D = downset_lattice(J)
    to = LatticeHom(
        L, D,
        {
            a: D.encode[frozenset(j for j in J.elements if L.leq(j, a))]
            for a in L.elements
        },
    )
    fro = LatticeHom(D, L, {d: L.join_all(D.decode[d]) for d in D.elements})
    return to, fro
