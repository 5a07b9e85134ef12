"""The predicate category of a hyperdoctrine and its consequences.

Objects pair a base object with a fiber element; morphisms are the fiber
elements of the product that behave as functional relations (total on the
source predicate, bounded by the product of the predicates, single-valued).
Exists is left adjoint to substitution, by theorem, in every hyperdoctrine
the program builds (see `hyperdoctrine`), so a relation f in P(A x B) is
total and bounded exactly when its source predicate is a = ex_pi1(f) and
its target predicate b satisfies b >= ex_pi2(f).  So the build reads each
fiber P(A x B) once per pair of base objects, tests single-valuedness once
per relation, and emits it at every such b.  Composition is relation
composition through the triple product (A x B) x C, computed once per pair
of composable relations, and the identity is the diagonal image; both are
fixed formulas here, so A(P) is a category by theorem and is built without
re-proving the laws: the CLI and the tests check them with
`fincat.category_law_failures`, and `counit_equivalence_check` does before
it builds the counit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .cohcat import (
    CohCategory,
    MissingLimitError,
    ProductCone,
    PullbackSquare,
    pairing,
)
from .fincat import (
    CategoryError,
    EquivalenceReport,
    FinCategory,
    FinFunctor,
    Morphism,
    NaturalTransformation,
    category_law_failures,
    check_equivalence,
    natural_iso,
)
from .hyperdoctrine import (
    CanextHyperdoctrine,
    CoherentHyperdoctrine,
    HyperdoctrineError,
    canext_hyperdoctrine,
    sub_hyperdoctrine,
)
from .lattice import FinLattice, LatticeHom, MonotoneMap, prime_filters
from .order import BudgetError, cached_method


class NotCoherentError(CategoryError):
    pass


class NotPModelError(CategoryError):
    pass


def search_budget() -> int:
    return 200_000


def pred_obj_name(A: str, a: str) -> str:
    return f"({A}|{a})"


def pred_mor_name(f: str, src: str, tgt: str) -> str:
    return f"rel[{f}]:{src}->{tgt}"


@dataclass(frozen=True)
class RelData:
    src_obj: str
    src_elem: str
    tgt_obj: str
    tgt_elem: str
    elem: str  # element of fiber(product(src_obj, tgt_obj))


class _Span(NamedTuple):
    """The tables of the triple product (A x B) x C: substitution along its
    projections onto A x B, A x C and B x C, its meet, and the existential
    adjoints along the last two."""

    sub12: dict[str, str]
    sub13: dict[str, str]
    sub23: dict[str, str]
    meet: dict[tuple[str, str], str]
    ex13: dict[str, str]
    ex23: dict[str, str]


@cached_method
def triple_projections(
    base: FinCategory, ab: ProductCone, t: ProductCone, ac: ProductCone, bc: ProductCone
) -> tuple[str, str]:
    """The projections pi13 and pi23 of the triple product t = ab x C onto
    A x C and B x C, paired into the cones ac and bc.  They depend on the
    base and the cones alone, so they are kept on the base category: the
    predicate categories of S and S^delta over one base, which share its
    chosen limits, pair each of them once."""
    pi1 = base.compose(ab.pi1, t.pi1)
    pi2 = base.compose(ab.pi2, t.pi1)
    return (
        pairing(base, ac, pi1, t.pi2),
        pairing(base, bc, pi2, t.pi2),
    )


class PredCategory:
    """A(P): the predicate category, with decode tables back to the fibers.

    The build relies on exists being left adjoint to substitution, which
    holds by theorem and is not checked: a single-valued f in P(A x B) is
    then a morphism (A, ex_pi1(f)) -> (B, b) exactly when b >= ex_pi2(f).
    One pass over each fiber P(A x B) finds every morphism; they are listed
    by source, then target, then f in fiber order.  Each pair of composable
    relations is composed once, and the composite is entered for every
    target predicate of the second."""

    def __init__(self, P: CoherentHyperdoctrine, budget: int | None = None):
        budget = budget if budget is not None else search_budget()
        self.P = P
        base = P.base
        objs = [
            (A, a) for A in base.objects for a in P.fiber(A).elements
        ]
        self.obj_data = {pred_obj_name(A, a): (A, a) for A, a in objs}
        pairs = [(A, B) for A in base.objects for B in base.objects]
        # candidate count drives the enumeration budget
        total = sum(len(P.fiber(self._pi(A, B).obj).elements) for A, B in pairs)
        if total > budget:
            raise BudgetError(
                f"predicate-category enumeration needs {total} candidate checks, "
                f"budget is {budget}; raise --budget to proceed"
            )
        rank = {X: i for i, X in enumerate(objs)}
        above = {
            A: {b: P.fiber(A).poset.up_set(b) for b in P.fiber(A).elements}
            for A in base.objects
        }
        found = []
        for A, B in pairs:
            cone = self._pi(A, B)
            ex1, ex2 = P.ex(cone.pi1).mapping, P.ex(cone.pi2).mapping
            s = self._span(A, B, B)
            below_diagonal = P.fiber(self._pi(B, B).obj).poset.down_set(
                self.identity_relation(B, P.fiber(B).top)
            )
            for i, f in enumerate(P.fiber(cone.obj).elements):
                if s.ex23[s.meet[(s.sub12[f], s.sub13[f])]] in below_diagonal:
                    a = ex1[f]
                    found += [
                        (rank[(A, a)], rank[(B, b)], i, A, a, B, b, f)
                        for b in above[B][ex2[f]]
                    ]
        self.rels: dict[str, RelData] = {}
        morphisms: dict[str, Morphism] = {}
        # (A, a, B, f) -> {b: name}, and the relations leaving each (A, a)
        targets: dict[tuple[str, str, str, str], dict[str, str]] = {}
        leaving: dict[tuple[str, str], list] = {}
        for *_, A, a, B, b, f in sorted(found):
            src, tgt = pred_obj_name(A, a), pred_obj_name(B, b)
            n = pred_mor_name(f, src, tgt)
            morphisms[n] = Morphism(n, src, tgt)
            self.rels[n] = RelData(A, a, B, b, f)
            f_at = targets.get((A, a, B, f))
            if f_at is None:
                f_at = targets[(A, a, B, f)] = {}
                leaving.setdefault((A, a), []).append((B, f, f_at))
            f_at[b] = n
        identities = {}
        for A, a in objs:
            ident = self.identity_relation(A, a)
            n = pred_mor_name(
                ident, pred_obj_name(A, a), pred_obj_name(A, a)
            )
            if n not in morphisms:
                raise HyperdoctrineError(
                    f"diagonal image of ({A},{a}) is not a functional relation"
                )
            identities[pred_obj_name(A, a)] = n
        comp = {}
        for (A, a, B, f), f_at in targets.items():
            for b, fn in f_at.items():
                for C, g, g_at in leaving.get((B, b), ()):
                    s = self._span(A, B, C)
                    h_at = targets.get(
                        (A, a, C, s.ex13[s.meet[(s.sub12[f], s.sub23[g])]]), {}
                    )
                    for c, gn in g_at.items():
                        if c not in h_at:
                            raise HyperdoctrineError(
                                f"composite of {fn};{gn} is not a functional relation"
                            )
                        comp[(gn, fn)] = h_at[c]
        self.cat = FinCategory(
            tuple(sorted(self.obj_data)), morphisms, comp, identities
        )

    # -- relation calculus -------------------------------------------------

    def _pi(self, A: str, B: str) -> ProductCone:
        return self.P.limits.product(A, B)

    @cached_method
    def _span(self, A: str, B: str, C: str) -> _Span:
        P = self.P
        ab = self._pi(A, B)
        t = P.limits.product(ab.obj, C)
        pi13, pi23 = triple_projections(P.base, ab, t, self._pi(A, C), self._pi(B, C))
        return _Span(
            P.sub(t.pi1).mapping,
            P.sub(pi13).mapping,
            P.sub(pi23).mapping,
            P.fiber(t.obj).meet_table,
            P.ex(pi13).mapping,
            P.ex(pi23).mapping,
        )

    @cached_method
    def _diagonal(self, A: str) -> str:
        base = self.P.base
        return pairing(base, self._pi(A, A), base.identity(A), base.identity(A))

    def identity_relation(self, A: str, a: str) -> str:
        return self.P.ex(self._diagonal(A))(a)

    def relation_of(self, name: str) -> RelData:
        return self.rels[name]

    def find_morphism(self, A, a, B, b, elem) -> str | None:
        n = pred_mor_name(elem, pred_obj_name(A, a), pred_obj_name(B, b))
        return n if n in self.rels else None


class PredCohCategory(CohCategory):
    """The coherent-category structure of A(P): the subobjects of (A, a)
    are the fiber elements below a; pullback along a relation is computed
    by the relation-calculus formula and images by its transpose."""

    def __init__(self, AP: PredCategory):
        self.AP = AP
        self.cat = AP.cat

    @cached_method
    def sub_lattice(self, X: str) -> FinLattice:
        A, a = self.AP.obj_data[X]
        return self.AP.P.fiber(A).down_lattice(a)

    def pullback_map(self, f: str) -> LatticeHom:
        r = self.AP.relation_of(f)
        P = self.AP.P
        cone = P.limits.product(r.src_obj, r.tgt_obj)
        SA = self.sub_lattice(self.cat.src(f))
        SB = self.sub_lattice(self.cat.tgt(f))
        table = {
            w: P.ex(cone.pi1)(
                P.fiber(cone.obj).meet(r.elem, P.sub(cone.pi2)(w))
            )
            for w in SB.elements
        }
        return LatticeHom(SB, SA, table)

    @cached_method
    def image_map(self, f: str) -> MonotoneMap:
        r = self.AP.relation_of(f)
        P = self.AP.P
        cone = P.limits.product(r.src_obj, r.tgt_obj)
        SA = self.sub_lattice(self.cat.src(f))
        SB = self.sub_lattice(self.cat.tgt(f))
        table = {
            w: P.ex(cone.pi2)(
                P.fiber(cone.obj).meet(P.sub(cone.pi1)(w), r.elem)
            )
            for w in SA.elements
        }
        return MonotoneMap(SA, SB, table)

    def terminal(self) -> str:
        P = self.AP.P
        if P.limits.terminal is None:
            raise MissingLimitError("base has no chosen terminal")
        T = pred_obj_name(P.limits.terminal, P.fiber(P.limits.terminal).top)
        if not self.is_terminal(T):
            raise MissingLimitError("top predicate on the base terminal is not terminal")
        return T

    @cached_method
    def product(self, X: str, Y: str) -> ProductCone:
        A, a = self.AP.obj_data[X]
        B, b = self.AP.obj_data[Y]
        P = self.AP.P
        cone = P.limits.product(A, B)
        FP = P.fiber(cone.obj)
        u = FP.meet(P.sub(cone.pi1)(a), P.sub(cone.pi2)(b))
        pobj = pred_obj_name(cone.obj, u)
        p1 = self._projection_relation(cone, u, cone.pi1, A, a)
        p2 = self._projection_relation(cone, u, cone.pi2, B, b)
        return ProductCone(pobj, p1, p2)

    def _projection_relation(self, cone, u, pi, B, b) -> str:
        P = self.AP.P
        g = P.base
        pc = P.limits.product(cone.obj, B)
        h = pairing(g, pc, g.identity(cone.obj), pi)
        elem = P.ex(h)(u)
        n = self.AP.find_morphism(cone.obj, u, B, b, elem)
        if n is None:
            raise HyperdoctrineError("projection relation not functional")
        return n

    def equalizer(self, f: str, g: str):
        raise MissingLimitError("equalizers of relations are not materialized")

    @cached_method
    def subobject_object(self, X: str, w: str) -> tuple[str, str]:
        A, a = self.AP.obj_data[X]
        mono_elem = self.AP.identity_relation(A, w)
        n = self.AP.find_morphism(A, w, A, a, mono_elem)
        if n is None:
            raise HyperdoctrineError(f"inclusion of {w} into ({A},{a}) not present")
        return pred_obj_name(A, w), n

    def restrict(self, f: str, w: str) -> str:
        r = self.AP.relation_of(f)
        P = self.AP.P
        cone = P.limits.product(r.src_obj, r.tgt_obj)
        elem = P.fiber(cone.obj).meet(P.sub(cone.pi1)(w), r.elem)
        n = self.AP.find_morphism(r.src_obj, w, r.tgt_obj, r.tgt_elem, elem)
        if n is None:
            raise HyperdoctrineError("restriction is not a functional relation")
        return n

    def chosen_squares(self) -> list[PullbackSquare]:
        return []


def check_coh_plus(AC: PredCohCategory):
    """The completeness-side predicates on A(P): every subobject lattice
    distributive (complete at finite scale) and every pullback map preserving
    all joins.  Returns None or a witness string."""
    from .lattice import check_distributive

    for X in AC.cat.objects:
        if not check_distributive(AC.sub_lattice(X)):
            return f"subobject lattice of {X} is not distributive"
    for f in AC.cat.morphisms:
        pb = AC.pullback_map(f)
        if not pb.preserves_finite_joins():
            return f"pullback along {f} does not preserve joins"
    return None


# -- the counit A(S(C)) -> C ---------------------------------------------------


@dataclass(frozen=True)
class CounitReport:
    functor: FinFunctor | None
    equivalence: EquivalenceReport | None
    error: str | None = None

    @property
    def passed(self) -> bool:
        return (
            self.error is None
            and self.equivalence is not None
            and self.equivalence.is_equivalence
        )


def counit_functor(C: CohCategory, AP: PredCategory) -> FinFunctor:
    """epsilon_C : A(S(C)) -> C, sending (A, U) to the realizing object of
    U and a functional relation to the morphism it is the graph of."""
    obj_map, mor_map = {}, {}
    for X, (A, u) in AP.obj_data.items():
        obj_map[X] = C.subobject_object(A, u)[0]
    for n, r in AP.rels.items():
        m = C.morphism_from_graph(
            r.src_obj, r.src_elem, r.tgt_obj, r.tgt_elem, r.elem
        )
        if m is None:
            raise CategoryError(f"relation {n} is not the graph of a unique morphism")
        mor_map[n] = m
    return FinFunctor(AP.cat, C.cat, obj_map, mor_map)


def counit_equivalence_check(C: CohCategory, budget: int | None = None) -> CounitReport:
    """The counit built on A(S(C)), once its category laws hold, and its
    equivalence report; a failed build carries its first witness."""
    try:
        AP = PredCategory(sub_hyperdoctrine(C), budget)
        w = next(category_law_failures(AP.cat), None)
        if w is not None:
            return CounitReport(None, None, w)
        eps = counit_functor(C, AP)
    except (CategoryError, HyperdoctrineError, MissingLimitError) as e:
        return CounitReport(None, None, str(e))
    return CounitReport(eps, check_equivalence(eps))


# -- canonical extension of a coherent category --------------------------------


@dataclass(frozen=True)
class CatExtension:
    hyperdoctrine: CanextHyperdoctrine
    pred: PredCategory
    coh: PredCohCategory
    embedding: FinFunctor  # E_C : C -> A(S_C^delta)


def canonical_extension_category(C: CohCategory, budget: int | None = None) -> CatExtension:
    """C^delta = A(S_C^delta) together with E_C mapping A to (A, top) and a
    morphism to the embedded image of its graph."""
    S = sub_hyperdoctrine(C)
    Sd = canext_hyperdoctrine(S)
    AP = PredCategory(Sd, budget)
    coh = PredCohCategory(AP)
    obj_map = {
        A: pred_obj_name(A, Sd.fiber(A).top) for A in C.cat.objects
    }
    mor_map = {}
    for f, m in C.cat.morphisms.items():
        cone = C.product(m.src, m.tgt)
        graph = C.graph(f)
        elem = Sd.embed(cone.obj, graph)
        n = AP.find_morphism(
            m.src, Sd.fiber(m.src).top, m.tgt, Sd.fiber(m.tgt).top, elem
        )
        if n is None:
            raise HyperdoctrineError(f"embedded graph of {f} is not functional")
        mor_map[f] = n
    E = FinFunctor(C.cat, AP.cat, obj_map, mor_map)
    return CatExtension(Sd, AP, coh, E)


# -- p-models and the universal factorization ----------------------------------


def pmodel_witness(M: FinFunctor, C: CohCategory, D: CohCategory):
    """None if M is a p-model; otherwise a description of a failure.

    Requires M coherent (raises NotCoherentError otherwise): for every base
    morphism and every prime filter of the source subobject lattice, the
    image of the meet of the filter must be the meet of the images.
    """
    from .cohcat import coherent_functor_witness, functor_sub_map

    w = coherent_functor_witness(M, C, D)
    if w is not None:
        raise NotCoherentError(w)
    for f, m in C.cat.morphisms.items():
        MA = functor_sub_map(M, C, D, m.src)
        MB = functor_sub_map(M, C, D, m.tgt)
        SD_A = MA.target
        img = D.image_map(M.on_mor(f))
        for rho in prime_filters(C.sub_lattice(m.src)):
            lhs = img(SD_A.meet_all(MA(u) for u in rho))
            rhs = MB.target.meet_all(img(MA(u)) for u in rho)
            if lhs != rhs:
                return f"meet exchange fails along {f} at prime filter {sorted(rho)}"
    return None


def pmodel_check(M: FinFunctor, C: CohCategory, D: CohCategory) -> bool:
    return pmodel_witness(M, C, D) is None


@dataclass(frozen=True)
class Factorization:
    functor: FinFunctor  # G(M) : C^delta -> D
    comparison: NaturalTransformation  # G(M) o E_C => M, an iso


def universal_factorization(
    M: FinFunctor, C: CohCategory, D: CohCategory, ext: CatExtension | None = None
) -> Factorization:
    """Factor a p-model M : C -> D through E_C.

    G(M) sends (A, u) to the realizing object of the unique complete
    extension of M's subobject action applied to u, and a relation to the
    morphism whose graph matches the transported relation.
    """
    from .canext import extend_hom
    from .cohcat import functor_sub_map

    w = pmodel_witness(M, C, D)  # raises NotCoherentError if not coherent
    if w is not None:
        raise NotPModelError(w)
    if ext is None:
        ext = canonical_extension_category(C)
    Sd, AP = ext.hyperdoctrine, ext.pred
    taubar = {}
    for A in C.cat.objects:
        MA = functor_sub_map(M, C, D, A)
        taubar[A] = extend_hom(
            LatticeHom(MA.source, MA.target, MA.mapping), Sd.fiber_ext[A]
        )
    obj_map = {}
    for X, (A, u) in AP.obj_data.items():
        obj_map[X] = D.subobject_object(M.on_obj(A), taubar[A](u))[0]
    mor_map = {}
    for n, r in AP.rels.items():
        cone = C.product(r.src_obj, r.tgt_obj)
        w_rel = taubar[cone.obj](r.elem)
        # transport along the comparison iso M(AxB) -> MA x MB
        comp = D.pairing(M.on_mor(cone.pi1), M.on_mor(cone.pi2))
        w_rel = D.image_map(comp)(w_rel)
        m = D.morphism_from_graph(
            M.on_obj(r.src_obj),
            taubar[r.src_obj](r.src_elem),
            M.on_obj(r.tgt_obj),
            taubar[r.tgt_obj](r.tgt_elem),
            w_rel,
        )
        if m is None:
            raise NotPModelError(f"transported relation {n} is not a graph")
        mor_map[n] = m
    G = FinFunctor(AP.cat, D.cat, obj_map, mor_map)
    composite = ext.embedding.then(G)
    iso = natural_iso(composite, M)
    if iso is None:
        raise NotPModelError("no natural isomorphism G(M) o E_C => M")
    return Factorization(G, iso)
