"""Finite bounded lattices: tables, filters, ideals, prime filters, duality.

A lattice is stored as a poset plus meet/join tables.  The tables are
validated against the order at construction: meet(a,b) must be the greatest
lower bound and join(a,b) the least upper bound, which forces all the
lattice identities.  Distributivity is a separate predicate so that
non-distributive counterexamples remain representable.

Every lattice of sets (downsets, filters, ideals, subsets of a finite set,
families of subsets) is built by `set_lattice`, the one place that names
set elements and keeps the name <-> set maps (`decode` / `encode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import and_, ge, le, or_

from .order import FinPoset, set_name


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

    def __post_init__(self):
        elems = self.poset.elements
        for a in elems:
            if not self.poset.leq(self.bottom, a):
                raise LatticeError(f"bottom not below {a}")
            if not self.poset.leq(a, self.top):
                raise LatticeError(f"top not above {a}")
        for a, b in product(elems, repeat=2):
            m = self.meet_table.get((a, b))
            j = self.join_table.get((a, b))
            if m is None or j is None:
                raise LatticeError(f"missing table entry for ({a},{b})")
            if not self._is_glb(m, a, b):
                raise LatticeError(f"meet({a},{b})={m} is not the glb")
            if not self._is_lub(j, a, b):
                raise LatticeError(f"join({a},{b})={j} is not the lub")

    def _is_glb(self, m, a, b) -> bool:
        p = self.poset
        if not (p.leq(m, a) and p.leq(m, b)):
            return False
        return all(
            p.leq(x, m) for x in p.elements if p.leq(x, a) and p.leq(x, b)
        )

    def _is_lub(self, j, a, b) -> bool:
        p = self.poset
        if not (p.leq(a, j) and p.leq(b, j)):
            return False
        return all(
            p.leq(j, x) for x in p.elements if p.leq(a, x) and p.leq(b, x)
        )

    @classmethod
    def trusted(cls, poset, meet, join, bottom, top, **extra):
        """Skip table validation; for tables that are glb/lub tables by
        construction (set intersections/unions and the like)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "poset", poset)
        object.__setattr__(obj, "meet_table", meet)
        object.__setattr__(obj, "join_table", join)
        object.__setattr__(obj, "bottom", bottom)
        object.__setattr__(obj, "top", top)
        for k, v in extra.items():
            object.__setattr__(obj, k, v)
        return obj

    @classmethod
    def from_poset(cls, poset: FinPoset) -> FinLattice:
        """Derive meet/join from the order; raise with a witness pair if absent."""
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
        bots = [a for a in poset.elements if all(poset.leq(a, x) for x in poset.elements)]
        tops = [a for a in poset.elements if all(poset.leq(x, a) for x in poset.elements)]
        if not bots or not tops:
            raise LatticeError("missing bottom or top")
        return cls(poset, meet, join, bots[0], tops[0])

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
        out = self.top
        for x in xs:
            out = self.meet(out, x)
        return out

    def join_all(self, xs) -> str:
        out = self.bottom
        for x in xs:
            out = self.join(out, x)
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
        """The interval [bottom, a] as a lattice with the induced order."""
        return FinLattice.from_poset(self.poset.restricted(self.poset.down_set(a)))

    def dual(self) -> FinLattice:
        return FinLattice(
            self.poset.dual(), dict(self.join_table), dict(self.meet_table),
            self.top, self.bottom,
        )

    def iso_to(self, other: FinLattice) -> dict[str, str] | None:
        return self.poset.iso_to(other.poset)

    def __eq__(self, other):
        return (
            isinstance(other, FinLattice)
            and self.poset == other.poset
            and self.bottom == other.bottom
            and self.top == other.top
        )

    def __hash__(self):
        return hash((self.poset, self.bottom, self.top))

    def __repr__(self):
        return f"FinLattice({len(self.elements)} elements)"


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class DownsetLattice(NamedSetLattice):
    """Downset lattice of a poset; remembers the poset."""

    base_poset: FinPoset = None


def set_lattice(
    items, name=set_name, meet=and_, join=or_, leq=le, cls=NamedSetLattice, **extra
) -> NamedSetLattice:
    """The lattice on `items` (kept in the given order) ordered by `leq`.

    `meet` and `join` must map pairs of items to items that are their glb
    and lub under `leq`; the tables are trusted, not validated.  Elements
    are named by `name`; `extra` sets further fields of `cls`."""
    items = list(items)
    encode = {s: name(s) for s in items}
    poset = FinPoset.trusted(
        tuple(encode[s] for s in items),
        frozenset((encode[s], encode[t]) for s in items for t in items if leq(s, t)),
    )
    meet_table = {
        (encode[s], encode[t]): encode[meet(s, t)] for s in items for t in items
    }
    join_table = {
        (encode[s], encode[t]): encode[join(s, t)] for s in items for t in items
    }
    return cls.trusted(
        poset, meet_table, join_table,
        encode[reduce(meet, items)], encode[reduce(join, items)],
        decode={n: s for s, n in encode.items()}, encode=encode, **extra,
    )


def downset_lattice(p: FinPoset) -> DownsetLattice:
    """All down-closed subsets of p, ordered by inclusion."""
    return set_lattice(p.downsets(), cls=DownsetLattice, base_poset=p)


def distributivity_witness(L: FinLattice) -> tuple[str, str, str] | None:
    for x, y, z in product(L.elements, repeat=3):
        lhs = L.meet(x, L.join(y, z))
        rhs = L.join(L.meet(x, y), L.meet(x, z))
        if lhs != rhs:
            return (x, y, z)
    return None


def check_distributive(L: FinLattice) -> bool:
    return distributivity_witness(L) is None


def require_distributive(L: FinLattice) -> None:
    w = distributivity_witness(L)
    if w is not None:
        raise NotDistributiveError(f"distributivity fails on triple {w}")


def is_join_irreducible(L: FinLattice, a: str) -> bool:
    if a == L.bottom:
        return False
    for x, y in product(L.elements, repeat=2):
        if L.join(x, y) == a and x != a and y != a:
            return False
    return True


def join_irreducibles(L: FinLattice) -> FinPoset:
    """The induced subposet of join-irreducible elements."""
    return L.poset.restricted(
        [a for a in L.elements if is_join_irreducible(L, a)]
    )


# -- filters and ideals -----------------------------------------------------
#
# In a finite lattice every filter is principal (the meet of a finite
# meet-closed up-closed set is its least member), so filters are enumerated
# as up-sets.  The definitional predicates below stay available as oracles.


def is_filter(L: FinLattice, s) -> bool:
    s = set(s)
    if not s:
        return False
    return all(L.join(a, x) in s for a in s for x in L.elements) and all(
        L.meet(a, b) in s for a in s for b in s
    )


def is_ideal(L: FinLattice, s) -> bool:
    s = set(s)
    if not s:
        return False
    return all(L.meet(a, x) in s for a in s for x in L.elements) and all(
        L.join(a, b) in s for a in s for b in s
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


def filters(L: FinLattice) -> list[frozenset[str]]:
    """All filters, including the improper one (= the whole lattice)."""
    return sorted(
        (L.poset.up_set(a) for a in L.elements), key=lambda s: (len(s), sorted(s))
    )


def ideals(L: FinLattice) -> list[frozenset[str]]:
    return sorted(
        (L.poset.down_set(a) for a in L.elements), key=lambda s: (len(s), sorted(s))
    )


def prime_filters(L: FinLattice) -> list[frozenset[str]]:
    """All proper filters F with a \\/ b in F implying a in F or b in F."""
    return [s for s in filters(L) if is_prime_filter(L, s)]


def prime_filter_poset(L: FinLattice) -> FinPoset:
    """Prime filters ordered by reverse inclusion."""
    pf = prime_filters(L)
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

    def __post_init__(self):
        for a in self.source.elements:
            if a not in self.mapping:
                raise LatticeError(f"map undefined on {a}")
            if self.mapping[a] not in self.target.elements:
                raise LatticeError(f"map sends {a} outside the target")
        # Product order, not the pair set's, so the witness is the first
        # offending pair whatever the hash seed.
        m, src, tgt = self.mapping, self.source.poset.pairs, self.target.poset.pairs
        for a, b in product(self.source.elements, repeat=2):
            if (a, b) in src and (m[a], m[b]) not in tgt:
                raise LatticeError(f"not order-preserving on ({a},{b})")

    def __call__(self, a: str) -> str:
        return self.mapping[a]

    def then(self, g: MonotoneMap) -> MonotoneMap:
        if g.source is not self.target and g.source != self.target:
            raise LatticeError("maps not composable")
        return type(g)(self.source, g.target, {a: g(self(a)) for a in self.source.elements})

    @classmethod
    def identity(cls, L: FinLattice):
        return cls(L, L, {a: a for a in L.elements})

    def preserves_finite_joins(self) -> bool:
        """Binary joins and bottom."""
        L, K, m = self.source, self.target, self.mapping
        if m[L.bottom] != K.bottom:
            return False
        lj, kj = L.join_table, K.join_table
        return all(
            m[lj[a, b]] == kj[m[a], m[b]] for a, b in product(L.elements, repeat=2)
        )

    def preserves_finite_meets(self) -> bool:
        L, K, m = self.source, self.target, self.mapping
        if m[L.top] != K.top:
            return False
        lm, km = L.meet_table, K.meet_table
        return all(
            m[lm[a, b]] == km[m[a], m[b]] for a, b in product(L.elements, repeat=2)
        )

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
        g = {}
        for b in self.target.elements:
            under = [a for a in self.source.elements if self.target.leq(self(a), b)]
            cand = self.source.join_all(under)
            if not self.target.leq(self(cand), b):
                return None
            g[b] = cand
        return MonotoneMap(self.target, self.source, g)

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

    def __post_init__(self):
        super().__post_init__()
        if not self.is_lattice_hom():
            raise LatticeError("not a lattice homomorphism")


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
    poset = FinPoset.trusted(elems, pairs)
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
    return FinLattice.trusted(
        poset, meet, join,
        pair_name(L.bottom, K.bottom), pair_name(L.top, K.top),
    )


def product_projections(L: FinLattice, K: FinLattice):
    P = product_lattice(L, K)
    split = {e: e[1:-1].split("|", 1) for e in P.elements}
    p1 = MonotoneMap(P, L, {e: split[e][0] for e in P.elements})
    p2 = MonotoneMap(P, K, {e: split[e][1] for e in P.elements})
    return P, p1, p2


def pairing(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """<f, g> : Z -> product of the targets."""
    P = product_lattice(f.target, g.target)
    return MonotoneMap(
        f.source, P, {z: pair_name(f(z), g(z)) for z in f.source.elements}
    )


def monotone_maps(L: FinLattice, K: FinLattice):
    """All order-preserving maps L -> K, by backtracking along a linear
    extension."""
    order = L.poset.linear_extension()
    out = []

    def extend(i, acc):
        if i == len(order):
            out.append(MonotoneMap(L, K, dict(acc)))
            return
        a = order[i]
        for k in K.elements:
            ok = all(
                (not L.leq(b, a) or K.leq(acc[b], k))
                and (not L.leq(a, b) or K.leq(k, acc[b]))
                for b in acc
            )
            if ok:
                acc[a] = k
                extend(i + 1, acc)
                del acc[a]

    extend(0, {})
    out.sort(key=lambda m: tuple(sorted(m.mapping.items())))
    return out


def lattice_homs(L: FinLattice, K: FinLattice) -> list[LatticeHom]:
    return [
        LatticeHom(L, K, m.mapping)
        for m in monotone_maps(L, K)
        if m.is_lattice_hom()
    ]


def join_preserving_maps(L: FinLattice, K: FinLattice) -> list[MonotoneMap]:
    return [m for m in monotone_maps(L, K) if m.preserves_finite_joins()]


def meet_preserving_maps(L: FinLattice, K: FinLattice) -> list[MonotoneMap]:
    return [m for m in monotone_maps(L, K) if m.preserves_finite_meets()]


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


# -- convenience constructors -------------------------------------------------


def chain_lattice(n: int, prefix: str = "c") -> FinLattice:
    """The n-element chain c0 < c1 < ... ."""
    from .order import chain

    return FinLattice.from_poset(chain([f"{prefix}{i}" for i in range(n)]))


def boolean4() -> FinLattice:
    """The four-element Boolean lattice (the diamond) 0 < a,b < 1."""
    return FinLattice.from_poset(
        FinPoset.from_pairs("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    )


def m3() -> FinLattice:
    """The non-distributive lattice with three incomparable atoms."""
    return FinLattice.from_poset(
        FinPoset.from_pairs(
            "0abc1",
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        )
    )


def trivial_lattice() -> FinLattice:
    return FinLattice.from_poset(FinPoset(("*",), frozenset({("*", "*")})))
