"""Grothendieck coverages, filter and type categories, sheaf checks, and
locale-morphism analysis, all at finite scale.

Coverages are stored as predicates on sieves plus generator enumeration.
Each site tabulates, when it is built, the one per-morphism datum its
covering predicate reads (an image subobject, a full-image flag or an
existential image), so deciding a sieve is a join or a lookup over that
table.  A sieve is the union of the principal sieves of its members, so
the sieves on an object are enumerated as the union closure of its
principal sieves, and a budget bounds the number of sieves that closure
yields.  The topology coincidence check walks no such enumeration: it
tests only the sieves that coherent cover families generate, each the
union of its members' principal sieves, and its budget bounds those
generated sieves per object.

Every filter of a finite lattice is the up-set of its least member, so a
germ (A, F) -> (B, G) of the filter category is one morphism out of the
object realizing the least member of F that lands inside the least member
of G, and germs compose by lifting through the inclusion of that member.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

from .canext import CanonicalExtension, sigma_extension
from .cohcat import CohCategory
from .fincat import CategoryError, FinCategory, FinFunctor, Morphism, composable_pairs
from .hyperdoctrine import (
    BaseLimits,
    CanextHyperdoctrine,
    CoherentHyperdoctrine,
    canext_hyperdoctrine,
    sub_hyperdoctrine,
)
from .lattice import (
    FinLattice,
    LatticeHom,
    MonotoneMap,
    downset_lattice,
    filter_lattice,
    filters,
    frobenius_failures,
    is_join_irreducible,
    prime_filter_poset,
    prime_filters,
)
from .order import BudgetError, FinPoset, assignments, bounded, set_name, union_closure


def sieve_budget() -> int:
    return 4096


class SiteError(ValueError):
    """A site cannot be built from the given data."""


@dataclass(frozen=True, eq=False)
class Site:
    """A finite category with a covering predicate on sieves and a
    deterministic list of generating families per object."""

    cat: FinCategory
    covers: object  # callable: (obj, iterable of morphism names) -> bool
    generators: dict[str, tuple[tuple[str, ...], ...]]

    def sieve_generated(self, A: str, fams) -> frozenset[str]:
        """Close a family of morphisms into A under precomposition."""
        out = set()
        for f in fams:
            out.add(f)
            for g in self.cat.morphisms_into(self.cat.src(f)):
                out.add(self.cat.compose(f, g))
        return frozenset(out)

    def all_sieves(self, A: str, budget: int | None = None) -> list[frozenset[str]]:
        """Every sieve on A, as a union of principal sieves.  Ordered as
        bitmasks over `morphisms_into(A)`: by the sum of 2^index."""
        budget = budget if budget is not None else sieve_budget()
        inc = self.cat.morphisms_into(A)
        index = {f: i for i, f in enumerate(inc)}
        principal = [
            sum(1 << index[g] for g in self.sieve_generated(A, [f])) for f in inc
        ]
        message = f"sieve enumeration on {A} exceeds {budget} sieves; raise --budget"
        return [
            frozenset(f for i, f in enumerate(inc) if mask >> i & 1)
            for mask in sorted(bounded(union_closure(principal), budget, message))
        ]

    def covering_sieves(self, A: str, budget: int | None = None):
        return [s for s in self.all_sieves(A, budget) if self.covers(A, s)]


# -- the coherent topology ------------------------------------------------------


def coherent_topology(C: CohCategory) -> Site:
    """A sieve covers A when finitely many members' images join to the top
    subobject of A.  Generators: the minimal such families, by size and
    then by position in `morphisms_into(A)`."""
    image = {f: C.subobject_of_mono(f) for f in C.cat.morphisms}

    def covers(A: str, sieve) -> bool:
        S = C.sub_lattice(A)
        return S.join_all(image[f] for f in sieve) == S.top

    gens = {}
    for A in C.cat.objects:
        inc = C.cat.morphisms_into(A)
        found = _minimal_joins_to_top(C.sub_lattice(A), [image[f] for f in inc])
        gens[A] = tuple(tuple(inc[i] for i in fam) for fam in found)
    return Site(C.cat, covers, gens)


def _minimal_joins_to_top(S: FinLattice, xs: list[str]) -> list[tuple[int, ...]]:
    """The positions of each family of `xs` that joins to the top of S and
    has no proper subfamily that does, sorted by size and then positions.
    A family grows only while it does not cover and each member raises its
    join: a member that does not stays redundant in every superset, so no
    superset of a family failing either test is minimal."""
    join, found = S.join_table, []

    def grow(fam, joined, without, start):
        # without[k]: the join of fam without its k-th member
        if joined == S.top:
            found.append(fam)
            return
        for i in range(start, len(xs)):
            j = join[joined, xs[i]]
            rest = [join[w, xs[i]] for w in without]
            if j != joined and j not in rest:
                grow(fam + (i,), j, rest + [joined], i + 1)

    grow((), S.bottom, [], 0)
    return sorted(found, key=lambda fam: (len(fam), fam))


# -- filter and type categories --------------------------------------------------


def filter_obj_name(A: str, F: frozenset) -> str:
    return f"({A},{set_name(F)})"


@dataclass(frozen=True)
class LocalMap:
    """A representative of a germ: a morphism out of a domain subobject."""

    dom: str  # subobject of A, member of F
    mor: str  # category morphism dom_obj -> B


class FilterCategory:
    """Objects (A, F) with F a filter in Sub(A); morphisms are germs of
    local maps.  A local map (A, F) -> (B, G) is a morphism from a domain
    in F whose preimages of members of G land in F; two are equivalent when
    they agree on a common smaller domain in F.  F is the up-set of its
    least member u, realized by U, and G that of v, so a germ is its one
    representative on u: a morphism m : U -> B whose pullback of v is all
    of U.  The germ is keyed by m and named germ[u;m]."""

    def __init__(self, C: CohCategory, prime_only: bool = False):
        self.C = C
        self.objects: dict[str, tuple[str, frozenset]] = {}
        for A in C.cat.objects:
            S = C.sub_lattice(A)
            fs = prime_filters(S) if prime_only else filters(S)
            for F in fs:
                self.objects[filter_obj_name(A, F)] = (A, F)
        self._least = {
            X: C.sub_lattice(A).meet_all(F) for X, (A, F) in self.objects.items()
        }
        self._germs: dict[tuple[str, str], dict[str, str]] = {}
        self.germ_data: dict[str, tuple[str, str, LocalMap]] = {}
        morphisms: dict[str, Morphism] = {}
        for X, (A, _) in self.objects.items():
            u = self._least[X]
            U = C.subobject_object(A, u)[0]
            for Y, (B, _) in self.objects.items():
                v = self._least[Y]
                index = self._germs[(X, Y)] = {}
                for m in C.cat.hom(U, B):
                    pb = C.pullback_map(m)
                    if pb(v) == pb.target.top:
                        n = index[m] = f"germ[{u};{m}]:{X}->{Y}"
                        morphisms[n] = Morphism(n, X, Y)
                        self.germ_data[n] = (X, Y, LocalMap(u, m))
        identities = {
            X: self._germs[(X, X)][C.subobject_object(A, self._least[X])[1]]
            for X, (A, _) in self.objects.items()
        }
        comp = {
            (g.name, f.name): self._compose(f, g)
            for f, g in composable_pairs(morphisms)
        }
        self.cat = FinCategory(
            tuple(sorted(self.objects)), morphisms, comp, identities
        )

    def _compose(self, f: Morphism, g: Morphism) -> str:
        """g o f: f's representative lands inside the least member v of
        its target's filter, so it lifts along the inclusion of v, and
        g's representative follows the lift."""
        C = self.C
        m1, m2 = self.germ_data[f.name][2].mor, self.germ_data[g.name][2].mor
        v = self._least[f.tgt]
        vo, vm = C.subobject_object(self.objects[f.tgt][0], v)
        lifts = C.cat.factorizations(C.cat.src(m1), vo, ((vm, m1),))
        if len(lifts) != 1:
            raise CategoryError(f"germ {f.name} does not factor uniquely through {v}")
        return self._germs[(f.src, g.tgt)][C.cat.compose(m2, lifts[0])]

    def _restrict_local(self, A, m: LocalMap, U) -> str:
        """m.mor restricted along the inclusion of U into dom(m)."""
        C = self.C
        uo, um = C.subobject_object(A, U)
        do, dm = C.subobject_object(A, m.dom)
        lifts = C.cat.factorizations(uo, do, ((dm, um),))
        if len(lifts) != 1:
            raise CategoryError(f"inclusion of {U} into {m.dom} not unique")
        return C.cat.compose(m.mor, lifts[0])

    def germ_of(self, X: str, Y: str, dom: str, mor: str) -> str:
        """The germ X -> Y of the local map `mor` out of `dom`."""
        A, F = self.objects[X]
        n = None
        if dom in F:
            key = self._restrict_local(A, LocalMap(dom, mor), self._least[X])
            n = self._germs[(X, Y)].get(key)
        if n is None:
            raise CategoryError(f"local map ({dom},{mor}) not a germ {X} -> {Y}")
        return n

    def image_filter(self, germ_name: str) -> frozenset:
        """The filter { V | the preimage of V is in F } on the target: the
        V whose pullback along the germ's representative is all of U."""
        pb = self.C.pullback_map(self.germ_data[germ_name][2].mor)
        return frozenset(V for V in pb.source.elements if pb(V) == pb.target.top)


def type_category(C: CohCategory) -> FilterCategory:
    """The full subcategory of the filter category on prime-filter pairs."""
    return FilterCategory(C, prime_only=True)


def jp_site(tau: FilterCategory) -> Site:
    """The singleton-generated topology on the type category: a sieve
    covers (A, rho) when some member has full image."""
    full = {
        f for f, m in tau.cat.morphisms.items()
        if tau.image_filter(f) == tau.objects[m.tgt][1]
    }
    return Site(tau.cat, *_singleton_topology(tau.cat, full))


def _singleton_topology(cat: FinCategory, hits: set[str]):
    """Covers and generators of the topology generated by the singletons
    of `hits`: a sieve covers when one of its members is in `hits`."""

    def covers(X: str, sieve) -> bool:
        return any(f in hits for f in sieve)

    gens = {
        X: tuple(sorted((f,) for f in cat.morphisms_into(X) if f in hits))
        for X in cat.objects
    }
    return covers, gens


def filter_hyperdoctrine(C: CohCategory) -> CoherentHyperdoctrine:
    """Filter lattices of the subobject fibers, substitution pushing a
    filter forward to the up-closure of its image, adjoint taking preimage
    filters.  The predicate category of this hyperdoctrine reproduces the
    filter category."""
    from .lattice import NamedSetLattice

    fibers: dict[str, NamedSetLattice] = {
        A: filter_lattice(C.sub_lattice(A)) for A in C.cat.objects
    }
    subst, exists = {}, {}
    for f, m in C.cat.morphisms.items():
        pb = C.pullback_map(f)
        SA, SB = fibers[m.src], fibers[m.tgt]
        sub_c = C.sub_lattice(m.src)
        stab = {}
        for Fn in SB.elements:
            Fset = SB.decode[Fn]
            pushed = frozenset(
                u
                for u in sub_c.elements
                if any(sub_c.leq(pb(v), u) for v in Fset)
            )
            stab[Fn] = SA.encode_of(pushed)
        subst[f] = LatticeHom(SB, SA, stab)
        etab = {}
        for Fn in SA.elements:
            Fset = SA.decode[Fn]
            pre = frozenset(
                v for v in C.sub_lattice(m.tgt).elements if pb(v) in Fset
            )
            etab[Fn] = SB.encode_of(pre)
        exists[f] = MonotoneMap(SA, SB, etab)
    return CoherentHyperdoctrine(
        C.cat, fibers, subst, exists, BaseLimits.from_cohcat(C)
    )


# -- internal locales and semidirect sites ---------------------------------------


def check_internal_locale(X: CoherentHyperdoctrine):
    """Fibers complete (finite) with all substitutions join-preserving."""
    for f in X.base.morphisms:
        if not X.sub(f).preserves_finite_joins():
            return f"substitution along {f} does not preserve joins"
    return None


def semidirect_obj_name(A: str, u: str) -> str:
    return f"<{A};{u}>"


def semidirect_mor_name(f: str, src: str, tgt: str) -> str:
    return f"sd[{f}]:{src}->{tgt}"


@dataclass(frozen=True, eq=False)
class SemidirectSite(Site):
    """Site of an internal locale: objects pair a base object with a fiber
    element; covers are detected by the join of existential images.
    `image` maps each morphism (A, u) -> (B, v) along f to the existential
    image of u along f, an element of the fiber over B."""

    obj_data: dict[str, tuple[str, str]] = field(default_factory=dict)
    mor_data: dict[str, str] = field(default_factory=dict)  # name -> base morphism
    image: dict[str, str] = field(default_factory=dict)


def semidirect_site(
    C_like, X: CoherentHyperdoctrine, keep=lambda A, u: True
) -> SemidirectSite:
    """Build C x| X over the hyperdoctrine's base, or its full subcategory
    on the objects (A, u) with keep(A, u); C_like supplies nothing beyond
    its base category (the covers come from X's adjoints).  It has no
    generating families: `generators` is empty, so a lookup fails.

    A base morphism f : A -> B gives (A, u) -> (B, v) when u <= f^*(v),
    read from the fiber's order pairs and f's substitution table.  Each
    morphism is named once, keyed by (f, source, target), and a composite
    is looked up there by the base composite: it exists, since
    u <= f^*(v) and v <= g^*(w) give u <= f^*(g^*(w)) = (g o f)^*(w)."""
    w = check_internal_locale(X)
    if w is not None:
        raise SiteError(w)
    base = X.base
    omap: dict[str, tuple[str, str]] = {}
    for A in base.objects:
        for u in X.fiber(A).elements:
            if keep(A, u):
                omap[semidirect_obj_name(A, u)] = (A, u)
    order = {A: X.fiber(A).poset.pairs for A in base.objects}
    sub = {f: X.sub(f).mapping for f in base.morphisms}
    morphisms, identities, comp = {}, {}, {}
    mdata: dict[str, str] = {}
    named: dict[tuple[str, str, str], str] = {}  # (f, src, tgt) -> name
    out_of: dict[str, list[tuple[str, str, str]]] = {}  # src -> (name, f, tgt)
    for nx, (A, u) in omap.items():
        leq_A, out = order[A], out_of.setdefault(nx, [])
        for ny, (B, v) in omap.items():
            for f in base.hom(A, B):
                if (u, sub[f][v]) in leq_A:
                    n = named[f, nx, ny] = semidirect_mor_name(f, nx, ny)
                    morphisms[n] = Morphism(n, nx, ny)
                    mdata[n] = f
                    out.append((n, f, ny))
    for nx, (A, u) in omap.items():
        identities[nx] = named[base.identity(A), nx, nx]
    # the composable pairs in `composable_pairs` order: the first morphism
    # in table order, which runs through `out_of` by source, then the second
    base_comp = base.comp
    for nx, out in out_of.items():
        for n1, f1, ny in out:
            for n2, f2, nz in out_of[ny]:
                comp[n2, n1] = named[base_comp[f2, f1], nx, nz]
    cat = FinCategory(tuple(sorted(omap)), morphisms, comp, identities)

    adjoints = {
        f: X.sub(f).left_adjoint() for f in base.morphisms
    }
    if any(a is None for a in adjoints.values()):
        raise SiteError("a substitution map lacks a left adjoint")
    image = {n: adjoints[mdata[n]](omap[m.src][1]) for n, m in morphisms.items()}

    def covers(nx: str, sieve) -> bool:
        A, u = omap[nx]
        return X.fiber(A).join_all(image[n] for n in sieve) == u

    return SemidirectSite(
        cat, covers, {}, obj_data=omap, mor_data=mdata, image=image
    )


# -- sheaf condition --------------------------------------------------------------


def sheaf_check(
    C: CohCategory,
    X: CoherentHyperdoctrine,
    budget: int | None = None,
) -> tuple[bool, str | None]:
    """Is X a sheaf for the coherent topology on C?  Sieve-indexed matching
    families must have exactly one amalgamation."""
    site = coherent_topology(C)
    for A in C.cat.objects:
        for sieve in site.covering_sieves(A, budget):
            for fam in _matching_families(C, X, sieve, budget):
                amalg = [
                    u
                    for u in X.fiber(A).elements
                    if all(X.sub(f)(u) == fam[f] for f in sieve)
                ]
                if len(amalg) != 1:
                    return False, (
                        f"cover of {A} with matching family "
                        f"{sorted(fam.items())} has {len(amalg)} amalgamations"
                    )
    return True, None


def _matching_families(C, X, sieve, budget=None):
    """Every family of fiber elements on the sieve's members that agrees
    along precomposition, in lexicographic order over the sorted sieve;
    `BudgetError` when there are more than `budget` of them."""
    budget = budget if budget is not None else sieve_budget()
    sieve = sorted(sieve)
    # the members of a sieve on A all end at A; the empty sieve has one family
    where = C.cat.tgt(sieve[0]) if sieve else "the empty sieve"
    links = {f: [] for f in sieve}
    for f in sieve:
        for g in C.cat.morphisms_into(C.cat.src(f)):
            fg = C.cat.compose(f, g)
            if fg in links:
                links[f].append((f, g, fg))
                links[fg].append((f, g, fg))

    def consistent(f, fam):
        return all(
            X.sub(g)(fam[h]) == fam[hg]
            for h, g, hg in links[f]
            if h in fam and hg in fam
        )

    return bounded(
        assignments(sieve, lambda f: X.fiber(C.cat.src(f)).elements, consistent),
        budget,
        f"matching-family enumeration on {where} exceeds {budget}; raise --budget",
    )


def unique_glueing_check(C: CohCategory, X: CoherentHyperdoctrine):
    """For every finite jointly-covering family and every fiber element u:
    u equals the join of the existential images of its restrictions."""
    site = coherent_topology(C)
    adjoints = {f: X.sub(f).left_adjoint() for f in X.base.morphisms}
    for A in C.cat.objects:
        FA = X.fiber(A)
        for fam in site.generators[A]:
            for u in FA.elements:
                glued = FA.join_all(
                    adjoints[f](X.sub(f)(u)) for f in fam
                )
                if glued != u:
                    return False, f"glueing identity fails on {A} at {u}"
    return True, None


def topology_coincidence_check(
    C: CohCategory, X: CanextHyperdoctrine | None = None, budget: int | None = None
):
    """On the semidirect site of the fiberwise extension: for every sieve,
    the plain join of existential images equals the join over the closure
    admitting each n : (B, w) -> nx whose source has a coherent cover (g_k)
    of B with every member n o g_k in the sieve.

    Only the sieves that such members generate are tested.  The plain join
    is monotone in the sieve, and a sieve holding the members holds the
    sieve S they generate, so some sieve fails exactly when some admitted n
    and cover of its source have image[n] not below the plain join of S.
    S is the union of its members' principal sieves, kept as bitmasks over
    `morphisms_into(nx)` as in `all_sieves`, and each distinct S is joined
    once per object.  The witness is the failing S first in `all_sieves`
    order, with its closure join: every failing sieve holds a failing S,
    which comes no later, so that S is the first failing sieve of all.

    Returns (ok, generated sieves checked, witness); `budget` bounds the
    distinct generated sieves per object, and a cut raises `BudgetError`
    naming the object and the generated sieves checked before it."""
    if X is None:
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    budget = budget if budget is not None else sieve_budget()
    site = semidirect_site(C, X)
    coh = coherent_topology(C)
    checked = 0
    for nx, (A, _) in site.obj_data.items():
        FA = X.fiber(A)
        inc = site.cat.morphisms_into(nx)
        index = {f: i for i, f in enumerate(inc)}
        # each n : (B, w) -> nx along gamma with its image and, per coherent
        # cover (g_k) of B, the members gamma o g_k : (C_k, g_k^* w) -> nx
        admitted = []
        for n in inc:
            B, w = site.obj_data[site.cat.src(n)]
            gamma = site.mor_data[n]
            admitted.append((site.image[n], [
                tuple(
                    semidirect_mor_name(
                        C.cat.compose(gamma, g),
                        semidirect_obj_name(C.cat.src(g), X.sub(g)(w)),
                        nx,
                    )
                    for g in fam
                )
                for fam in coh.generators[B]
            ]))
        principal = {}  # member -> (its principal sieve's bitmask, plain join)
        for f in {f for _, fams in admitted for fam in fams for f in fam}:
            S = site.sieve_generated(nx, [f])
            principal[f] = (
                sum(1 << index[g] for g in S), FA.join_all(site.image[g] for g in S)
            )
        plain: dict[int, str] = {}  # generated sieve's bitmask -> plain join
        failing = []
        for x, fams in admitted:
            for fam in fams:
                S, p = 0, FA.bottom
                for f in fam:
                    mask, j = principal[f]
                    S, p = S | mask, FA.join(p, j)
                if S not in plain:
                    if len(plain) == budget:
                        raise BudgetError(
                            f"after {checked} generated sieves checked, generated "
                            f"sieves on {nx} exceed {budget}; raise --budget"
                        )
                    plain[S] = p
                if not FA.leq(x, p):
                    failing.append(S)
        checked += len(plain)
        if failing:
            sieve = min(failing)
            p = plain[sieve]
            closure = FA.join_all([p] + [
                x for x, fams in admitted
                if not FA.leq(x, p)
                and any(all(sieve >> index[f] & 1 for f in fam) for fam in fams)
            ])
            return False, checked, f"sieve on {nx}: closure join {closure} != plain {p}"
    return True, checked, None


# -- localic topos-of-types data for lattices -------------------------------------


@dataclass(frozen=True)
class LocalicTotReport:
    type_objects: int
    prime_poset_iso: bool
    topology_trivial: bool
    downsets_iso_ext: bool

    @property
    def passed(self) -> bool:
        return self.prime_poset_iso and self.topology_trivial and self.downsets_iso_ext


def localic_tot_for_lattice(L: FinLattice) -> LocalicTotReport:
    """For a lattice as a category: the top-anchored type objects form a
    poset isomorphic to the prime filters under reverse inclusion, the
    induced topology on them is trivial, and its downset lattice is the
    canonical extension."""
    from .canext import canonical_extension
    from .cohcat import LatticeCategory

    C = LatticeCategory(L)
    tau = type_category(C)
    top = L.top
    e_objs = sorted(X for X, (A, _) in tau.objects.items() if A == top)
    pairs = {
        (x, y)
        for x in e_objs
        for y in e_objs
        if tau.cat.hom(x, y)
    }
    e_poset = FinPoset.from_pairs(e_objs, pairs)
    iso = e_poset.iso_to(prime_filter_poset(L)) is not None
    site = jp_site(tau)
    trivial = True
    for X in e_objs:
        # the sieves on X in the full subcategory on e_objs: unions of
        # principal ones
        principal = [
            frozenset(
                tau.cat.compose(f, g)
                for g in tau.cat.morphisms_into(tau.cat.src(f))
                if tau.cat.src(g) in e_objs
            )
            for f in tau.cat.morphisms_into(X)
            if tau.cat.src(f) in e_objs
        ]
        for sieve in union_closure(principal, empty=frozenset()):
            if site.covers(X, sieve) and not any(
                tau.cat.is_iso(f) is not None for f in sieve
            ):
                trivial = False
    ext = canonical_extension(L)
    down_iso = downset_lattice(e_poset).iso_to(ext.ext) is not None
    return LocalicTotReport(len(e_objs), iso, trivial, down_iso)


# -- the comparison-lemma conditions ----------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    cover_preserving: bool
    locally_full: bool
    locally_faithful: bool
    locally_surjective: bool
    co_continuous: bool
    # condition name -> the first witness against it, for each failing
    # condition, in the order the failures were found
    witnesses: dict = field(default_factory=dict)

    CONDITIONS: ClassVar[tuple[str, ...]] = (
        "cover-preserving",
        "locally-full",
        "locally-faithful",
        "locally-surjective",
        "co-continuous",
    )

    @property
    def witness(self) -> str | None:
        """The first witness found, against any condition."""
        return next(iter(self.witnesses.values()), None)

    @property
    def passed(self) -> bool:
        return all(
            [
                self.cover_preserving,
                self.locally_full,
                self.locally_faithful,
                self.locally_surjective,
                self.co_continuous,
            ]
        )


def comparison_check(e: FinFunctor, source: Site, target: Site) -> ComparisonReport:
    """The comparison-lemma conditions for e : source -> target.  Each one
    over covering sieves is monotone in the sieve, and every covering sieve
    contains a covering sieve generated by a generator family, so the
    generated covering sieves decide it exactly."""
    covers = {A: _generated_covers(source, A) for A in source.cat.objects}
    witnesses = {}
    for D in source.cat.objects:
        for s in covers[D]:
            image = target.sieve_generated(e.on_obj(D), [e.on_mor(f) for f in s])
            if not target.covers(e.on_obj(D), image):
                witnesses.setdefault(
                    "cover-preserving", f"a cover of {D} is not preserved"
                )
    for CC in source.cat.objects:
        for D in source.cat.objects:
            for g in target.cat.hom(e.on_obj(CC), e.on_obj(D)):
                if not _locally_full_at(e, source, covers[CC], D, g):
                    witnesses.setdefault(
                        "locally-full", f"morphism {g} has no local lift"
                    )
    for CC in source.cat.objects:
        for D in source.cat.objects:
            homs = source.cat.hom(CC, D)
            for i, f1 in enumerate(homs):
                for f2 in homs[i + 1:]:
                    if e.on_mor(f1) != e.on_mor(f2):
                        continue
                    if not _locally_equalized(source, covers[CC], f1, f2):
                        witnesses.setdefault(
                            "locally-faithful", f"{f1},{f2} not locally equalized"
                        )
    image_objs = {e.on_obj(A) for A in source.cat.objects}
    for X in target.cat.objects:
        inc = [
            f
            for f in target.cat.morphisms_into(X)
            if target.cat.src(f) in image_objs
        ]
        if not target.covers(X, target.sieve_generated(X, inc)):
            witnesses.setdefault(
                "locally-surjective", f"object {X} has no cover from the image"
            )
    for D in source.cat.objects:
        for s in _generated_covers(target, e.on_obj(D)):
            pulled = frozenset(
                f
                for f in source.cat.morphisms_into(D)
                if any(
                    target.cat.factorizations(
                        e.on_obj(source.cat.src(f)),
                        target.cat.src(xi),
                        ((xi, e.on_mor(f)),),
                    )
                    for xi in s
                )
            )
            if not source.covers(D, pulled):
                witnesses.setdefault(
                    "co-continuous",
                    f"a cover of {e.on_obj(D)} does not pull back to {D}",
                )
    holds = (c not in witnesses for c in ComparisonReport.CONDITIONS)
    return ComparisonReport(*holds, witnesses)


def _generated_covers(site: Site, A: str) -> list[frozenset[str]]:
    """The covering sieves on A generated by A's generator families."""
    sieves = [site.sieve_generated(A, fam) for fam in site.generators[A]]
    return [s for s in sieves if site.covers(A, s)]


def _locally_full_at(e, source, sieves, D, g) -> bool:
    for sieve in sieves:
        if all(
            any(
                e.target.compose(g, e.on_mor(xi)) == e.on_mor(fi)
                for fi in source.cat.hom(source.cat.src(xi), D)
            )
            for xi in sieve
        ):
            return True
    return False


def _locally_equalized(source, sieves, f1, f2) -> bool:
    for sieve in sieves:
        if all(
            source.cat.compose(f1, xi) == source.cat.compose(f2, xi)
            for xi in sieve
        ):
            return True
    return False


# -- the join-irreducible site and the functor into the type category -----------


def irreducible_site(C: CohCategory, X: CanextHyperdoctrine) -> SemidirectSite:
    """Full subcategory of the semidirect site on (A, x) with x join
    irreducible in the fiber; topology generated by the singleton covers
    whose existential image hits the point exactly."""
    sd = semidirect_site(C, X, lambda A, x: is_join_irreducible(X.fiber(A), x))
    hits = {
        n for n, m in sd.cat.morphisms.items() if sd.image[n] == sd.obj_data[m.tgt][1]
    }
    covers, gens = _singleton_topology(sd.cat, hits)
    return replace(sd, covers=covers, generators=gens)


def irreducible_to_types(
    C: CohCategory, X: CanextHyperdoctrine, D: SemidirectSite, tau: FilterCategory
) -> FinFunctor:
    """(A, x) |-> (A, rho_x), where rho_x collects the subobjects whose
    embedded image lies above x; a site morphism becomes the germ of its
    base morphism on the full domain."""
    obj_map = {}
    for n, (A, x) in D.obj_data.items():
        rho = frozenset(
            U
            for U in C.sub_lattice(A).elements
            if X.fiber(A).leq(x, X.fiber_ext[A].e(U))
        )
        obj_map[n] = filter_obj_name(A, rho)
    mor_map = {}
    for n, m in D.cat.morphisms.items():
        f = D.mor_data[n]
        A = C.cat.src(f)
        mor_map[n] = tau.germ_of(
            obj_map[m.src], obj_map[m.tgt], C.sub_lattice(A).top, f
        )
    return FinFunctor(D.cat, tau.cat, obj_map, mor_map)


# -- locale morphisms --------------------------------------------------------------


@dataclass(frozen=True)
class LocaleMorphism:
    """Componentwise frame data induced by a coherent functor: per source
    object, the unique extension of its subobject action."""

    C: CohCategory
    D: CohCategory
    F: FinFunctor
    components: dict[str, LatticeHom]
    source_ext: dict[str, CanonicalExtension]
    target_ext: dict[str, CanonicalExtension]


def locale_morphism(F: FinFunctor, C: CohCategory, D: CohCategory) -> LocaleMorphism:
    from .canext import canonical_extension
    from .cohcat import coherent_functor_witness, functor_sub_map

    w = coherent_functor_witness(F, C, D)
    if w is not None:
        raise CategoryError(f"not a coherent functor: {w}")
    source_ext = {A: canonical_extension(C.sub_lattice(A)) for A in C.cat.objects}
    target_ext = {
        A: canonical_extension(D.sub_lattice(F.on_obj(A))) for A in C.cat.objects
    }
    comps = {}
    for A in C.cat.objects:
        # F is coherent, so FA preserves finite joins: its lift is sigma
        FA = functor_sub_map(F, C, D, A)
        d = sigma_extension(FA, source_ext[A], target_ext[A])
        comps[A] = LatticeHom(d.map.source, d.map.target, d.map.mapping)
    return LocaleMorphism(C, D, F, comps, source_ext, target_ext)


def surjection_check(m: LocaleMorphism) -> tuple[bool, str | None]:
    """Locale surjection: every frame component is an order-embedding."""
    for A, comp in m.components.items():
        if not comp.is_order_embedding():
            return False, f"component at {A} is not an order-embedding"
    return True, None


def open_check(m: LocaleMorphism) -> tuple[bool, str | None]:
    """Open locale map: componentwise left adjoints exist (always, at
    finite scale), are natural in the base, and satisfy Frobenius.
    Naturality is derived by checking it, not assumed."""
    w = next(_openness_failures(m), None)
    return w is None, w


def _openness_failures(m: LocaleMorphism):
    sigma = {}
    for A, comp in m.components.items():
        sigma[A] = comp.left_adjoint()
        if sigma[A] is None:
            yield f"component at {A} has no left adjoint"
            return
    C, D, F = m.C, m.D, m.F
    for f, mor in C.cat.morphisms.items():
        # pullback maps are lattice homs, so each lift is sigma
        A, B = mor.src, mor.tgt
        subC = sigma_extension(
            C.pullback_map(f), m.source_ext[B], m.source_ext[A]
        ).map
        subD = sigma_extension(
            D.pullback_map(F.on_mor(f)), m.target_ext[B], m.target_ext[A]
        ).map
        for w in m.target_ext[B].ext.elements:
            if sigma[A](subD(w)) != subC(sigma[B](w)):
                yield f"adjoints not natural along {f} at {w}"
    for A, comp in m.components.items():
        E_t, E_s = m.target_ext[A].ext, m.source_ext[A].ext
        for w, v in frobenius_failures(sigma[A], comp, E_t, E_s):
            yield f"Frobenius fails at {A} on ({w},{v})"
