"""The predicate category of a hyperdoctrine and its consequences.

Objects pair a base object with a fiber element; morphisms are the fiber
elements of the product that behave as functional relations (total on the
source predicate, bounded by the product of the predicates, single-valued).
Exists is left adjoint to substitution, by theorem, in every hyperdoctrine
the program builds (see `hyperdoctrine`), so a relation f in P(A x B) is
total and bounded exactly when its source predicate is a = ex_pi1(f) and
its target predicate b satisfies b >= ex_pi2(f).  So the build reads each
fiber P(A x B) once per pair of base objects, tests single-valuedness once
per relation, and drops it into the bucket of each (source, target) pair
of object ranks it joins, from which the morphisms are listed in order.
Composition is relation composition through the triple product
(A x B) x C, computed once per pair of composable relations from six
tables the build reads once per triple of base objects, and the identity
is the diagonal image; both are fixed formulas here, so A(P) is a
category by theorem and is built without re-proving the laws: the CLI
and the tests check them with `fincat.category_law_failures`, and
`counit_equivalence_check` does before it builds the counit.
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


class RelData(NamedTuple):
    src_obj: str
    src_elem: str
    tgt_obj: str
    tgt_elem: str
    elem: str  # element of fiber(product(src_obj, tgt_obj))


def triple_projections(P: CoherentHyperdoctrine, A: str, B: str, C: str) -> tuple[str, str]:
    """The projections pi13 and pi23 of the triple product (A x B) x C onto
    A x C and B x C, paired into the chosen products.  They depend on the
    base and its chosen products alone, and every hyperdoctrine over one
    base reads the products of the one coherent category the base belongs
    to, so they are kept on the base category, keyed by (A, B, C): the
    predicate categories of S and S^delta over one base pair each once."""
    base, prod = P.base, P.limits.product
    try:
        kept = base._triple_projections
    except AttributeError:
        kept = {}
        object.__setattr__(base, "_triple_projections", kept)
    pis = kept.get((A, B, C))
    if pis is None:
        ab = prod(A, B)
        t = prod(ab.obj, C)
        pis = kept[A, B, C] = (
            pairing(base, prod(A, C), base.compose(ab.pi1, t.pi1), t.pi2),
            pairing(base, prod(B, C), base.compose(ab.pi2, t.pi1), t.pi2),
        )
    return pis


class PredCategory:
    """A(P): the predicate category, with decode tables back to the fibers.

    The build relies on exists being left adjoint to substitution, which
    holds by theorem and is not checked: a single-valued f in P(A x B) is
    then a morphism (A, ex_pi1(f)) -> (B, b) exactly when b >= ex_pi2(f).
    One pass over each fiber P(A x B) drops f into the bucket of each such
    (source, target) pair of object ranks, and the morphisms are listed
    bucket by bucket: by source, then target, then f in fiber order.  The
    six tables of each triple product (A x B) x C are read once per build,
    into a dict local to it.  Each pair of composable relations is composed
    once, with the tables the composite reads looked up once per relation f
    and third object C, and the composite is entered for every target
    predicate of the second."""

    def __init__(self, P: CoherentHyperdoctrine, budget: int | None = None):
        budget = budget if budget is not None else search_budget()
        self.P = P
        base, prod = P.base, P.limits.product
        objs = [
            (A, a) for A in base.objects for a in P.fiber(A).elements
        ]
        names = [pred_obj_name(A, a) for A, a in objs]
        self.obj_data = dict(zip(names, objs))
        pairs = [(A, B) for A in base.objects for B in base.objects]
        # candidate count drives the enumeration budget
        total = sum(len(P.fiber(prod(A, B).obj).elements) for A, B in pairs)
        if total > budget:
            raise BudgetError(
                f"predicate-category enumeration needs {total} candidate checks, "
                f"budget is {budget}; raise --budget to proceed"
            )
        spans = {}

        def span(A, B, C):
            """sub along the projections of (A x B) x C onto A x B, A x C
            and B x C, its meet, and ex along the last two."""
            s = spans.get((A, B, C))
            if s is None:
                pi13, pi23 = triple_projections(P, A, B, C)
                t = prod(prod(A, B).obj, C)
                s = spans[A, B, C] = (
                    P.sub(t.pi1).mapping, P.sub(pi13).mapping, P.sub(pi23).mapping,
                    P.fiber(t.obj).meet_table, P.ex(pi13).mapping, P.ex(pi23).mapping,
                )
            return s

        rank = {X: i for i, X in enumerate(objs)}
        # above[B][b]: the ranks of the (B, c) with c >= b, from B's order pairs
        above, below_diagonal = {}, {}
        for B in base.objects:
            ups = above[B] = {b: [] for b in P.fiber(B).elements}
            for b, c in P.fiber(B).poset.pairs:
                ups[b].append(rank[B, c])
            below_diagonal[B] = P.fiber(prod(B, B).obj).poset.down_set(
                self.identity_relation(B, P.fiber(B).top)
            )
        n = len(objs)
        buckets: dict[int, list[str]] = {}
        for A, B in pairs:
            cone = prod(A, B)
            ex1, ex2 = P.ex(cone.pi1).mapping, P.ex(cone.pi2).mapping
            sub12, sub13, _, meet, _, ex23 = span(A, B, B)
            below, ups = below_diagonal[B], above[B]
            for f in P.fiber(cone.obj).elements:
                if ex23[meet[sub12[f], sub13[f]]] in below:
                    src = rank[A, ex1[f]] * n
                    for tgt in ups[ex2[f]]:
                        buckets.setdefault(src + tgt, []).append(f)
        self.rels: dict[str, RelData] = {}
        morphisms: dict[str, Morphism] = {}
        # (A, a) -> B -> f -> {b: name}: the relations leaving each (A, a)
        leaving: dict[tuple[str, str], dict[str, dict[str, dict[str, str]]]] = {}
        for k in sorted(buckets):
            i, j = divmod(k, n)
            src, tgt = names[i], names[j]
            A, a = objs[i]
            B, b = objs[j]
            at = leaving.setdefault((A, a), {}).setdefault(B, {})
            for f in buckets[k]:
                name = pred_mor_name(f, src, tgt)
                morphisms[name] = Morphism(name, src, tgt)
                self.rels[name] = RelData(A, a, B, b, f)
                at.setdefault(f, {})[b] = name
        identities = {}
        for (A, a), X in zip(objs, names):
            ident = pred_mor_name(self.identity_relation(A, a), X, X)
            if ident not in morphisms:
                raise HyperdoctrineError(
                    f"diagonal image of ({A},{a}) is not a functional relation"
                )
            identities[X] = ident
        comp = {}
        for (A, a), out in leaving.items():
            for B, at in out.items():
                for f, f_at in at.items():
                    hoisted = {}
                    for b, fn in f_at.items():
                        for C, g_rels in leaving[B, b].items():
                            h = hoisted.get(C)
                            if h is None:
                                sub12, _, sub23, meet, ex13, _ = span(A, B, C)
                                h = hoisted[C] = sub12[f], sub23, meet, ex13, out.get(C, {})
                            x, sub23, meet, ex13, h_rels = h
                            for g, g_at in g_rels.items():
                                h_at = h_rels.get(ex13[meet[x, sub23[g]]], {})
                                for c, gn in g_at.items():
                                    if c not in h_at:
                                        raise HyperdoctrineError(
                                            f"composite of {fn};{gn} is not a functional relation"
                                        )
                                    comp[gn, fn] = h_at[c]
        self.cat = FinCategory(tuple(sorted(names)), morphisms, comp, identities)

    # -- relation calculus -------------------------------------------------

    def _pi(self, A: str, B: str) -> ProductCone:
        return self.P.limits.product(A, B)

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
