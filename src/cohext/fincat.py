"""Finite categories, functors, and equivalence checking.

Categories are explicit tables: objects, morphisms with source/target, a
composition table, and identities.  compose(g, f) means g after f.  Every
category here is built by a construction that makes it a category by
theorem, so construction does not re-prove the laws: they are stated once,
in `category_law_failures`, and checked where a category is claimed (the
CLI report lines that build one and the tests of every construction).
Functors are validated at construction, since each one the program builds
is itself a claim.

Morphisms are found by their endpoints and composites here, not by the
callers:
- every category keeps a hom index `(A, B) -> sorted names` and an
  into-index `B -> sorted names`, built once at construction, which
  `hom` and `morphisms_into` read;
- `composable_pairs(morphisms)` walks the pairs (f, g) with tgt f == src g
  in the order of the nested loop over the morphism table, so constructors
  can build a composition table before the category exists and the law
  checks report the same first failure as that loop;
- `FinCategory.factorizations(Z, Q, legs)` lists the h : Z -> Q with
  p o h == u for every (p, u) in legs: the mediating morphisms of a
  universal property and the lifts through a mono.

A category is *thin* when every hom-set has at most one member, as in a
preorder (Mac Lane, *Categories for the Working Mathematician*, I.2).  Once
its table is well typed, both sides of each identity and associativity law
lie in one hom-set and are equal, so `category_law_failures` checks the
laws of a thin category by its table alone.  A lattice category is thin,
and so is every category the program builds over one (predicate, type,
filter, semidirect and irreducible-site categories).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import ClassVar

from .order import assignments


class CategoryError(ValueError):
    """Category data violates the category laws."""


@dataclass(frozen=True)
class Morphism:
    name: str
    src: str
    tgt: str


def _out_of(morphisms: dict[str, Morphism]) -> dict[str, list[Morphism]]:
    """The morphisms out of each object, in table order."""
    out: dict[str, list[Morphism]] = {}
    for m in morphisms.values():
        out.setdefault(m.src, []).append(m)
    return out


def composable_pairs(morphisms: dict[str, Morphism]):
    """Each (f, g) of Morphisms with tgt f == src g: f in table order, then
    g in table order, as the nested loop over the table visits them."""
    out_of = _out_of(morphisms)
    for f in morphisms.values():
        for g in out_of.get(f.tgt, ()):
            yield f, g


@dataclass(frozen=True, eq=False)
class FinCategory:
    objects: tuple[str, ...]
    morphisms: dict[str, Morphism]
    comp: dict[tuple[str, str], str]  # comp[(g, f)] = g o f
    identities: dict[str, str]

    def __post_init__(self):
        """Set the hom index (A, B) -> sorted names and the into-index
        B -> sorted names that `hom` and `morphisms_into` read."""
        hom, into = {}, {}
        for m in self.morphisms.values():
            hom.setdefault((m.src, m.tgt), []).append(m.name)
            into.setdefault(m.tgt, []).append(m.name)
        for name, index in (("_hom", hom), ("_into", into)):
            object.__setattr__(
                self, name, {k: tuple(sorted(v)) for k, v in index.items()}
            )

    def src(self, f: str) -> str:
        return self.morphisms[f].src

    def tgt(self, f: str) -> str:
        return self.morphisms[f].tgt

    def compose(self, g: str, f: str) -> str:
        return self.comp[(g, f)]

    def identity(self, A: str) -> str:
        return self.identities[A]

    def hom(self, A: str, B: str) -> list[str]:
        return list(self._hom.get((A, B), ()))

    def morphisms_into(self, A: str) -> list[str]:
        return list(self._into.get(A, ()))

    def factorizations(self, Z: str, Q: str, legs) -> list[str]:
        """The h : Z -> Q with p o h == u for each (p, u) in legs, sorted."""
        return [
            h for h in self._hom.get((Z, Q), ())
            if all(self.comp[(p, h)] == u for p, u in legs)
        ]

    def is_iso(self, f: str) -> str | None:
        """The name of an inverse of f, if one exists."""
        m = self.morphisms[f]
        for g in self.hom(m.tgt, m.src):
            if (
                self.compose(g, f) == self.identity(m.src)
                and self.compose(f, g) == self.identity(m.tgt)
            ):
                return g
        return None

    def iso_objects(self, A: str, B: str) -> tuple[str, str] | None:
        for f in self.hom(A, B):
            g = self.is_iso(f)
            if g is not None:
                return f, g
        return None

    def __eq__(self, other):
        return (
            isinstance(other, FinCategory)
            and set(self.objects) == set(other.objects)
            and self.morphisms == other.morphisms
            and self.comp == other.comp
        )

    def __hash__(self):
        return hash((frozenset(self.objects), frozenset(self.morphisms)))

    def __repr__(self):
        return f"FinCategory({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


def category_law_failures(cat: FinCategory):
    """The witnesses against the category laws, in check order: the
    tables (endpoints, identities, composites), then the identity laws and
    associativity.  The laws are not checked after a failing table, nor in
    a thin category: with the table well typed, f o id, id o f and f lie in
    the one-member Hom(src f, tgt f), and (h o g) o f and h o (g o f) in
    Hom(src f, tgt h), so every law holds and the full loop would find no
    witness."""
    tables = list(_table_failures(cat))
    yield from tables
    if tables or all(len(names) <= 1 for names in cat._hom.values()):
        return
    comp, ids = cat.comp, cat.identities
    for f in cat.morphisms.values():
        if comp[(f.name, ids[f.src])] != f.name:
            yield f"right identity fails for {f.name}"
        if comp[(ids[f.tgt], f.name)] != f.name:
            yield f"left identity fails for {f.name}"
    out_of = _out_of(cat.morphisms)
    for f, g in composable_pairs(cat.morphisms):
        gf = comp[(g.name, f.name)]
        for h in out_of.get(g.tgt, ()):
            if comp[(h.name, gf)] != comp[(comp[(h.name, g.name)], f.name)]:
                yield f"associativity fails on ({h.name},{g.name},{f.name})"


def _table_failures(cat: FinCategory):
    objs = set(cat.objects)
    for m in cat.morphisms.values():
        if m.src not in objs or m.tgt not in objs:
            yield f"morphism {m.name} has unknown endpoints"
    for A in cat.objects:
        i = cat.identities.get(A)
        if i is None or i not in cat.morphisms:
            yield f"missing identity for {A}"
        elif (cat.morphisms[i].src, cat.morphisms[i].tgt) != (A, A):
            yield f"identity of {A} not an endomorphism"
    for f, g in composable_pairs(cat.morphisms):
        h = cat.comp.get((g.name, f.name))
        if h is None:
            yield f"missing composite {g.name} o {f.name}"
        elif (h not in cat.morphisms
              or (cat.morphisms[h].src, cat.morphisms[h].tgt) != (f.src, g.tgt)):
            yield f"composite {g.name} o {f.name} mistyped"


@dataclass(frozen=True, eq=False)
class FinFunctor:
    source: FinCategory
    target: FinCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def __post_init__(self):
        for A in self.source.objects:
            if self.obj_map.get(A) not in self.target.objects:
                raise CategoryError(f"functor undefined or mistyped on object {A}")
        for f, m in self.source.morphisms.items():
            g = self.mor_map.get(f)
            if g is None or g not in self.target.morphisms:
                raise CategoryError(f"functor undefined on morphism {f}")
            gm = self.target.morphisms[g]
            if gm.src != self.obj_map[m.src] or gm.tgt != self.obj_map[m.tgt]:
                raise CategoryError(f"functor mistyped on morphism {f}")
        for A in self.source.objects:
            if self.mor_map[self.source.identity(A)] != self.target.identity(
                self.obj_map[A]
            ):
                raise CategoryError(f"functor breaks identity of {A}")
        for f, g in composable_pairs(self.source.morphisms):
            if self.mor_map[self.source.compose(g.name, f.name)] != self.target.compose(
                self.mor_map[g.name], self.mor_map[f.name]
            ):
                raise CategoryError(f"functor breaks composition ({g.name},{f.name})")

    def on_obj(self, A: str) -> str:
        return self.obj_map[A]

    def on_mor(self, f: str) -> str:
        return self.mor_map[f]

    def then(self, other: FinFunctor) -> FinFunctor:
        return FinFunctor(
            self.source,
            other.target,
            {A: other.on_obj(self.on_obj(A)) for A in self.source.objects},
            {f: other.on_mor(self.on_mor(f)) for f in self.source.morphisms},
        )

    @classmethod
    def identity(cls, C: FinCategory) -> FinFunctor:
        return cls(
            C, C, {A: A for A in C.objects}, {f: f for f in C.morphisms}
        )


@dataclass(frozen=True)
class EquivalenceReport:
    full: bool
    faithful: bool
    essentially_surjective: bool
    # condition name -> the first witness against it, for each failing
    # condition, in the order the failures were found
    witnesses: dict = field(default_factory=dict)
    # essential-surjectivity witnesses: target object -> (source object, iso)
    object_witnesses: dict = field(default_factory=dict)

    CONDITIONS: ClassVar[tuple[str, ...]] = (
        "full", "faithful", "essentially-surjective"
    )

    @property
    def witness(self) -> str | None:
        """The first witness found, against any condition."""
        return next(iter(self.witnesses.values()), None)

    @property
    def is_equivalence(self) -> bool:
        return self.full and self.faithful and self.essentially_surjective


def check_equivalence(F: FinFunctor) -> EquivalenceReport:
    """Full, faithful, essentially surjective, with witnesses."""
    C, D = F.source, F.target
    witnesses = {}
    for A, B in product(C.objects, repeat=2):
        imgs = {}
        for f in C.hom(A, B):
            g = F.on_mor(f)
            if g in imgs:
                witnesses.setdefault(
                    "faithful", f"morphisms {imgs[g]} and {f} collapse to {g}"
                )
            imgs[g] = f
        for g in D.hom(F.on_obj(A), F.on_obj(B)):
            if g not in imgs:
                witnesses.setdefault("full", f"{g} not in the image of Hom({A},{B})")
    obj_wit = {}
    for X in D.objects:
        found = None
        for A in C.objects:
            pair = D.iso_objects(F.on_obj(A), X)
            if pair is not None:
                found = (A, pair[0])
                break
        if found is None:
            witnesses.setdefault(
                "essentially-surjective", f"object {X} not reached up to iso"
            )
        else:
            obj_wit[X] = found
    holds = (c not in witnesses for c in EquivalenceReport.CONDITIONS)
    return EquivalenceReport(*holds, witnesses, obj_wit)


@dataclass(frozen=True)
class NaturalTransformation:
    source: FinFunctor
    target: FinFunctor
    components: dict[str, str]  # object of the common source -> target morphism

    def check(self) -> bool:
        F, G = self.source, self.target
        D = F.target
        for A in F.source.objects:
            c = self.components.get(A)
            if c is None:
                return False
            m = D.morphisms[c]
            if m.src != F.on_obj(A) or m.tgt != G.on_obj(A):
                return False
        for f, m in F.source.morphisms.items():
            lhs = D.compose(self.components[m.tgt], F.on_mor(f))
            rhs = D.compose(G.on_mor(f), self.components[m.src])
            if lhs != rhs:
                return False
        return True

    def is_iso(self) -> bool:
        return self.check() and all(
            self.source.target.is_iso(c) is not None
            for c in self.components.values()
        )


def natural_iso(F: FinFunctor, G: FinFunctor) -> NaturalTransformation | None:
    """Search for a natural isomorphism F => G; explicit component table.
    Each component must be an iso whose assigned naturality squares commute."""
    C, D = F.source, F.target

    def consistent(A, acc):
        return D.is_iso(acc[A]) is not None and all(
            D.compose(acc[m.tgt], F.on_mor(f)) == D.compose(G.on_mor(f), acc[m.src])
            for f, m in C.morphisms.items()
            if A in (m.src, m.tgt) and m.src in acc and m.tgt in acc
        )

    tables = assignments(
        C.objects, lambda A: D.hom(F.on_obj(A), G.on_obj(A)), consistent
    )
    table = next(tables, None)
    return None if table is None else NaturalTransformation(F, G, table)
