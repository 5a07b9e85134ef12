"""Finite posets with explicit order relations.

Elements are opaque strings; the order is an explicit set of pairs.  All
structure downstream (lattices, categories, sites) is built on these.

Every poset, lattice and map the program builds is one by theorem, so
`FinPoset`, `FinLattice`, `MonotoneMap` and `CanonicalExtension` each have
one constructor, which trusts its data; `trusted_instance` also seeds the
values a construction already knows, such as a dual.  The axioms are
generators of witnesses (`poset_failures` here, `lattice.lattice_failures`
and `lattice.map_failures`), run where `jsonio` reads a file.

Down-closed families (downsets here, sieves in `sites`, subfunctors in
`logic.models`) are the union closures of their principal members, and
`union_closure` enumerates them without a search over all subsets.  Every
finite map search (monotone maps, isomorphisms, homomorphisms, function
tables) is one depth-first `assignments` that prunes as it assigns.  The
canonical form of a poset is one `canonical_form`, which permutes elements
only within classes of equal invariant signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import permutations, product
from operator import or_


class BudgetError(ValueError):
    """A bounded exhaustive search would exceed its budget.  Every search
    that a budget cuts short raises this, so a cut never reads as a pass."""


def set_name(s) -> str:
    """Canonical printable name for a finite set of strings."""
    return "{" + ",".join(sorted(s)) + "}"


def trusted_instance(cls, **fields):
    """An instance of the frozen dataclass `cls` with `fields` set as
    given, skipping `__init__`; a field may be a `cached` attribute whose
    value the caller already knows."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class cached:
    """A derived attribute of an immutable object, computed from it on the
    first read and kept on it under the attribute's own name, where every
    later read finds it as a plain attribute and this descriptor is not
    consulted again.  It is kept by `object.__setattr__`, which frozen
    dataclasses allow, and never through the instance `__dict__`: on
    CPython 3.11, materializing `__dict__` slows every later attribute load
    on the object.  A constructor that knows the value may set it the same
    way (`trusted_instance`); `func` recomputes it.  A structure's hash is
    one more such value: `FinPoset`, `lattice.FinLattice`,
    `lattice.MonotoneMap` and `canext.CanonicalExtension` keep theirs as
    `_hash`, which `__hash__` returns, while equality stays structural."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


def cached_method(method):
    """The per-argument form of `cached`: the results are kept by argument
    tuple in a dict kept on the instance the same way, so they live and die
    with it, where a process-wide `functools.lru_cache` would keep every
    instance alive.  A function defined outside the class keeps its results
    the same way on its first argument (`canext.extend_hom` on the hom it
    extends).  A call that raises keeps nothing.  Most results do not
    refer back to the instance, which is then freed at once when dropped.
    Two kinds do.  An enumeration of maps kept on their source lattice
    (`lattice.FinLattice._maps_to`): each map names the lattice.  A lift
    kept on the map it lifts (`canext._kept_sigma_extension`): the
    `ExtendedMap` names f.  Such a cycle holds nothing from outside, so the
    cyclic collector frees the instance and its results together; a
    lattice that has read its `dual` is in such a cycle anyway."""
    name = f"_{method.__name__}_results"

    @wraps(method)
    def call(self, *args):
        try:
            table = getattr(self, name)
        except AttributeError:
            table = {}
            object.__setattr__(self, name, table)
        try:
            return table[args]
        except KeyError:
            value = table[args] = method(self, *args)
            return value

    return call


def union_closure(gens, join=or_, empty=0):
    """Yield each union of members of `gens` once, the empty union first,
    in a deterministic order; a consumer may stop at any point.  `join` is
    the binary union, bitwise or on int bitmasks by default."""
    found, seen = [empty], {empty}
    yield empty
    for g in gens:
        for x in found[:]:
            u = join(x, g)
            if u not in seen:
                seen.add(u)
                found.append(u)
                yield u


def bounded(items, budget: int, message: str) -> list:
    """The items as a list; `BudgetError(message)` on the (budget + 1)-th."""
    out = []
    for x in items:
        if len(out) == budget:
            raise BudgetError(message)
        out.append(x)
    return out


def assignments(keys, values, consistent):
    """Yield, in lexicographic order, each dict giving every key in turn a
    value from `values(key)` such that `consistent(key, acc)` held when the
    key was added to `acc`; a rejected value cuts its whole branch.  `acc`
    is one dict for the whole search and holds exactly the keys assigned so
    far."""
    keys = tuple(keys)
    acc = {}

    def extend(i):
        if i == len(keys):
            yield dict(acc)
            return
        key = keys[i]
        for v in values(key):
            acc[key] = v
            if consistent(key, acc):
                yield from extend(i + 1)
        acc.pop(key, None)

    return extend(0)


def canonical_form(elements, signature, encode):
    """The least `encode(order)` over the orders that list `elements` by
    class of equal `signature`, classes in sorted signature order, each
    class in any order.  For an isomorphism-invariant `signature` and an
    `encode` that reads the structure through positions in `order`, equal
    values mean isomorphic structures."""
    classes = {}
    for a in elements:
        classes.setdefault(signature(a), []).append(a)
    return min(
        encode([a for part in parts for a in part])
        for parts in product(*(permutations(classes[s]) for s in sorted(classes)))
    )


@dataclass(frozen=True, eq=False)
class FinPoset:
    """A finite poset: elements plus the full <= relation as pairs (a, b)."""

    elements: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]

    @classmethod
    def from_pairs(cls, elements, pairs) -> FinPoset:
        """Build from a relation given as covering or partial pairs: its
        reflexive-transitive closure, a poset when that is antisymmetric
        and names only `elements`."""
        elems = tuple(elements)
        rel = {(a, a) for a in elems}
        rel.update((a, b) for a, b in pairs)
        changed = True
        while changed:
            changed = False
            for a, b in list(rel):
                for b2, c in list(rel):
                    if b == b2 and (a, c) not in rel:
                        rel.add((a, c))
                        changed = True
        return cls(elems, frozenset(rel))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.pairs

    def lt(self, a: str, b: str) -> bool:
        return a != b and (a, b) in self.pairs

    def down_set(self, a: str) -> frozenset[str]:
        return frozenset(x for x in self.elements if self.leq(x, a))

    def up_set(self, a: str) -> frozenset[str]:
        return frozenset(x for x in self.elements if self.leq(a, x))

    def downsets(self) -> list[frozenset[str]]:
        """All down-closed subsets (unions of principal downsets), sorted."""
        elems = self.elements
        principal = [
            sum(1 << i for i, x in enumerate(elems) if self.leq(x, a)) for a in elems
        ]
        out = [
            frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
            for mask in union_closure(principal)
        ]
        out.sort(key=lambda s: (len(s), sorted(s)))
        return out

    def restricted(self, subset) -> FinPoset:
        keep = set(subset)
        return FinPoset(
            tuple(e for e in self.elements if e in keep),
            frozenset(p for p in self.pairs if p[0] in keep and p[1] in keep),
        )

    @cached
    def linear_extension(self) -> tuple[str, ...]:
        """The elements, each after every element below it."""
        rest = list(self.elements)
        out = []
        while rest:
            for a in rest:
                if all(not self.lt(x, a) for x in rest):
                    out.append(a)
                    rest.remove(a)
                    break
        return tuple(out)

    @cached
    def dual(self) -> FinPoset:
        """The reversed order, a poset whenever this one is; `P.dual.dual
        is P`."""
        return trusted_instance(
            FinPoset, elements=self.elements,
            pairs=frozenset((b, a) for a, b in self.pairs), dual=self,
        )

    def _signature(self, a: str) -> tuple[int, int]:
        return (len(self.down_set(a)), len(self.up_set(a)))

    def iso_to(self, other: FinPoset) -> dict[str, str] | None:
        """The lexicographically first order isomorphism onto `other`, from
        sorted elements to sorted elements, or None."""
        sig = {a: self._signature(a) for a in self.elements}
        osig = {b: other._signature(b) for b in other.elements}
        if sorted(sig.values()) != sorted(osig.values()):
            return None
        targets = sorted(other.elements)

        def agree(a, m):
            b = m[a]
            return sig[a] == osig[b] and all(
                y != b
                and self.leq(x, a) == other.leq(y, b)
                and self.leq(a, x) == other.leq(b, y)
                for x, y in m.items()
                if x != a
            )

        return next(assignments(sorted(self.elements), lambda a: targets, agree), None)

    def __eq__(self, other):
        return (
            isinstance(other, FinPoset)
            and set(self.elements) == set(other.elements)
            and self.pairs == other.pairs
        )

    @cached
    def _hash(self) -> int:
        return hash((frozenset(self.elements), self.pairs))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FinPoset({len(self.elements)} elements)"


def poset_failures(P: FinPoset):
    """Each way P fails the poset axioms, as a message naming its witness:
    a repeated element, each pair naming an unknown element in sorted
    order, then reflexivity, antisymmetry and transitivity in element order."""
    elems, pairs = P.elements, P.pairs
    known = set(elems)
    if len(known) != len(elems):
        yield "duplicate elements"
    for a, b in sorted(pairs):
        if a not in known or b not in known:
            yield f"relation pair ({a},{b}) uses unknown element"
    for a in elems:
        if (a, a) not in pairs:
            yield f"not reflexive at {a}"
    for a, b in product(elems, repeat=2):
        if a != b and (a, b) in pairs and (b, a) in pairs:
            yield f"not antisymmetric on ({a},{b})"
    for a, b, c in product(elems, repeat=3):
        if (a, b) in pairs and (b, c) in pairs and (a, c) not in pairs:
            yield f"not transitive on ({a},{b},{c})"
