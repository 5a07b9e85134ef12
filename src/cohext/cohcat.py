"""Coherent categories with a computable subobject calculus.

Two implementations share one interface: fragments of finite sets (objects
are literal sets, subobjects are subsets) and distributive lattices viewed
as posetal categories (subobjects of a are the elements below a).  Chosen
limits are explicit and possibly partial: a finite fragment of sets
containing a two-point set cannot contain all its binary products, so
operations that need a missing product raise MissingLimitError.

Each implementation gives pullback and image maps; universal
quantification is not implemented again per category but read as the
right adjoint of pullback (`CohCategory.forall_map`), which on a finite
lattice is the order dual of a left adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import CategoryError, FinCategory, FinFunctor, Morphism, composable_pairs
from .lattice import FinLattice, LatticeHom, MonotoneMap, NamedSetLattice, set_lattice
from .order import assignments, cached_method, set_name, union_closure


class MissingLimitError(CategoryError):
    """A chosen limit needed by a construction is absent from the fragment."""


@dataclass(frozen=True)
class ProductCone:
    obj: str
    pi1: str
    pi2: str


@dataclass(frozen=True)
class PullbackSquare:
    """Cospan alpha : A -> C, beta : B -> C with chosen pullback Q and
    projections alpha_p : Q -> B, beta_p : Q -> A (so alpha o beta_p =
    beta o alpha_p)."""

    alpha: str
    beta: str
    obj: str
    alpha_p: str
    beta_p: str


def pairing(cat: FinCategory, cone: ProductCone, f: str, g: str) -> str:
    """The unique mediating morphism into a chosen product cone.  In a thin
    category pi o h and u share a hom-set, and so are equal, exactly when u
    runs from h's source to p's target; so the candidates are hom(src f,
    cone.obj) when both legs' ends check out, and none otherwise, without
    the `factorizations` scan."""
    Z, legs = cat.src(f), ((cone.pi1, f), (cone.pi2, g))
    if not cat.thin:
        matches = cat.factorizations(Z, cone.obj, legs)
    elif all(cat.src(u) == Z and cat.tgt(u) == cat.tgt(p) for p, u in legs):
        matches = cat.hom(Z, cone.obj)
    else:
        matches = []
    if len(matches) != 1:
        raise MissingLimitError(
            f"pairing of ({f},{g}) has {len(matches)} candidates"
        )
    return matches[0]


def is_product_cone(cat: FinCategory, A: str, B: str, cone: ProductCone) -> bool:
    """Every pair Z -> A, Z -> B has exactly one mediating Z -> cone.obj."""
    return all(
        len(cat.factorizations(Z, cone.obj, ((cone.pi1, f), (cone.pi2, g)))) == 1
        for Z in cat.objects
        for f in cat.hom(Z, A)
        for g in cat.hom(Z, B)
    )


class CohCategory:
    """Interface; see ConcreteCohCategory and LatticeCategory."""

    cat: FinCategory

    def sub_lattice(self, A: str) -> FinLattice:
        raise NotImplementedError

    def pullback_map(self, f: str) -> LatticeHom:
        raise NotImplementedError

    def image_map(self, f: str) -> MonotoneMap:
        raise NotImplementedError

    def terminal(self) -> str:
        raise NotImplementedError

    def product(self, A: str, B: str) -> ProductCone:
        raise NotImplementedError

    def equalizer(self, f: str, g: str) -> tuple[str, str]:
        raise NotImplementedError

    def subobject_object(self, A: str, u: str) -> tuple[str, str]:
        """Realize the subobject u of A as (object, mono into A)."""
        raise NotImplementedError

    def restrict(self, f: str, u: str) -> str:
        """f : A -> B restricted to the subobject u of A, as a morphism
        from the realizing object of u into B."""
        raise NotImplementedError

    def chosen_squares(self) -> list[PullbackSquare]:
        raise NotImplementedError

    # -- derived operations shared by all implementations ----------------

    def forall_map(self, f: str) -> MonotoneMap:
        """Universal quantification along f: the right adjoint of
        pullback along f."""
        adj = self.pullback_map(f).right_adjoint()
        if adj is None:
            raise CategoryError(f"pullback along {f} has no right adjoint")
        return adj

    def subobject_of_mono(self, m: str) -> str:
        """The subobject of tgt(m) carved out by the morphism m."""
        top = self.sub_lattice(self.cat.src(m)).top
        return self.image_map(m)(top)

    def pairing(self, f: str, g: str) -> str:
        """The unique h with pi1 o h = f and pi2 o h = g into the chosen
        product of the targets."""
        return pairing(self.cat, self.product(self.cat.tgt(f), self.cat.tgt(g)), f, g)

    def graph(self, f: str) -> str:
        """graph(f : A -> B) as a subobject of the chosen product A x B."""
        A = self.cat.src(f)
        h = self.pairing(self.cat.identity(A), f)
        return self.image_map(h)(self.sub_lattice(A).top)

    def morphism_from_graph(self, A: str, u: str, B: str, v: str, rel: str):
        """The morphism between the realizing objects of u and v whose
        graph relative to u is rel, or None."""
        uo, um = self.subobject_object(A, u)
        vo, vm = self.subobject_object(B, v)
        cands = []
        for m in self.cat.hom(uo, vo):
            h = self.pairing(um, self.cat.compose(vm, m))
            g = self.image_map(h)(self.sub_lattice(uo).top)
            if g == rel:
                cands.append(m)
        if len(cands) == 1:
            return cands[0]
        return None

    def is_terminal(self, T: str) -> bool:
        return all(len(self.cat.hom(A, T)) == 1 for A in self.cat.objects)


# -- concrete fragments of finite sets ----------------------------------------


def fun_name(src: frozenset, tgt: frozenset, mapping: dict) -> str:
    body = ",".join(f"{a}>{mapping[a]}" for a in sorted(mapping))
    return f"fn({body}):{set_name(src)}->{set_name(tgt)}"


class ConcreteCohCategory(CohCategory):
    """A full subcategory of finite sets, closed under subsets.

    Objects are frozensets of strings named canonically; morphisms are all
    functions between them.  Subobjects are literal subsets.  Chosen
    products and the terminal are searched for among the objects and may be
    missing; chosen pullback squares are the preimage squares of monos
    (plus product squares when available).
    """

    def __init__(self, seeds):
        sets = set()
        for s in seeds:
            s = frozenset(s)
            for mask_elems in _subsets(s):
                sets.add(mask_elems)
        if not sets:
            sets.add(frozenset())
        self.sets = sorted(sets, key=lambda s: (len(s), sorted(s)))
        self.of_name = {set_name(s): s for s in self.sets}
        self._funs: dict[str, tuple[frozenset, frozenset, dict]] = {}
        morphisms, identities = {}, {}
        for A in self.sets:
            for B in self.sets:
                for mapping in _functions(A, B):
                    n = fun_name(A, B, mapping)
                    morphisms[n] = Morphism(n, set_name(A), set_name(B))
                    self._funs[n] = (A, B, mapping)
                    if A == B and all(mapping[a] == a for a in A):
                        identities[set_name(A)] = n
        comp = {}
        for f, g in composable_pairs(morphisms):
            A, _, fm = self._funs[f.name]
            _, C, gm = self._funs[g.name]
            comp[(g.name, f.name)] = fun_name(A, C, {a: gm[fm[a]] for a in A})
        self.cat = FinCategory(
            tuple(set_name(s) for s in self.sets), morphisms, comp, identities
        )

    def fun(self, name: str) -> dict:
        return self._funs[name][2]

    def elements(self, A: str) -> frozenset:
        return self.of_name[A]

    @cached_method
    def sub_lattice(self, A: str) -> NamedSetLattice:
        return set_lattice(
            sorted(_subsets(self.of_name[A]), key=lambda s: (len(s), sorted(s)))
        )

    def pullback_map(self, f: str) -> LatticeHom:
        A, B, m = self._funs[f]
        SA, SB = self.sub_lattice(set_name(A)), self.sub_lattice(set_name(B))
        return LatticeHom(
            SB, SA,
            {
                v: SA.encode[frozenset(a for a in A if m[a] in SB.decode[v])]
                for v in SB.elements
            },
        )

    def image_map(self, f: str) -> MonotoneMap:
        A, B, m = self._funs[f]
        SA, SB = self.sub_lattice(set_name(A)), self.sub_lattice(set_name(B))
        return MonotoneMap(
            SA, SB,
            {
                u: SB.encode[frozenset(m[a] for a in SA.decode[u])]
                for u in SA.elements
            },
        )

    def terminal(self) -> str:
        for s in self.sets:
            if len(s) == 1:
                return set_name(s)
        raise MissingLimitError("no one-point set in the fragment")

    @cached_method
    def product(self, A: str, B: str) -> ProductCone:
        sa, sb = self.of_name[A], self.of_name[B]
        want = len(sa) * len(sb)
        for P in self.sets:
            if len(P) != want:
                continue
            for m1 in _functions(P, sa):
                for m2 in _functions(P, sb):
                    if len({(m1[p], m2[p]) for p in P}) == want:
                        return ProductCone(
                            set_name(P), fun_name(P, sa, m1), fun_name(P, sb, m2)
                        )
        raise MissingLimitError(f"fragment has no product of {A} and {B}")

    def equalizer(self, f: str, g: str) -> tuple[str, str]:
        A, _, fm = self._funs[f]
        _, _, gm = self._funs[g]
        eq = frozenset(a for a in A if fm[a] == gm[a])
        return set_name(eq), fun_name(eq, A, {a: a for a in eq})

    def subobject_object(self, A: str, u: str) -> tuple[str, str]:
        s = self.sub_lattice(A).decode[u]
        return set_name(s), fun_name(s, self.of_name[A], {a: a for a in s})

    def restrict(self, f: str, u: str) -> str:
        A, B, m = self._funs[f]
        s = self.sub_lattice(set_name(A)).decode[u]
        return fun_name(s, B, {a: m[a] for a in s})

    def chosen_squares(self) -> list[PullbackSquare]:
        out = []
        for C0 in self.cat.objects:
            SC = self.sub_lattice(C0)
            for v in SC.elements:
                vo, vm = self.subobject_object(C0, v)
                for beta in self.cat.morphisms_into(C0):
                    if beta == vm:
                        continue
                    B = self.cat.src(beta)
                    q = self.pullback_map(beta)(v)
                    qo, qm = self.subobject_object(B, q)
                    beta_res = self.restrict(beta, q)
                    _, _, bm = self._funs[beta_res]
                    beta_p = fun_name(
                        self.of_name[qo], self.of_name[vo], dict(bm)
                    )
                    out.append(PullbackSquare(vm, beta, qo, qm, beta_p))
        return out


def _subsets(s: frozenset):
    """All subsets of s: the unions of its singletons."""
    return list(union_closure([frozenset({e}) for e in sorted(s)], empty=frozenset()))


def _functions(A, B):
    """All functions A -> B as dicts, deterministic order."""
    values = sorted(B)
    return list(assignments(sorted(A), lambda a: values, lambda a, acc: True))


# -- distributive lattices as posetal categories -------------------------------


def le_name(a: str, b: str) -> str:
    return f"le({a},{b})"


class LatticeCategory(CohCategory):
    """A finite distributive lattice as a coherent category: one morphism
    a -> b whenever a <= b; products are meets, the terminal is the top,
    and the subobjects of a are the elements below a."""

    def __init__(self, L: FinLattice):
        from .lattice import require_distributive

        require_distributive(L)
        self.lattice = L
        morphisms = {
            le_name(a, b): Morphism(le_name(a, b), a, b)
            for a in L.elements
            for b in L.elements
            if L.leq(a, b)
        }
        identities = {a: le_name(a, a) for a in L.elements}
        comp = {
            (g.name, f.name): le_name(f.src, g.tgt)
            for f, g in composable_pairs(morphisms)
        }
        self.cat = FinCategory(tuple(L.elements), morphisms, comp, identities)

    @cached_method
    def sub_lattice(self, A: str) -> FinLattice:
        return self.lattice.down_lattice(A)

    @cached_method
    def pullback_map(self, f: str) -> LatticeHom:
        a, b = self.cat.src(f), self.cat.tgt(f)
        SA, SB = self.sub_lattice(a), self.sub_lattice(b)
        return LatticeHom(SB, SA, {v: self.lattice.meet(v, a) for v in SB.elements})

    @cached_method
    def image_map(self, f: str) -> MonotoneMap:
        a, b = self.cat.src(f), self.cat.tgt(f)
        SA, SB = self.sub_lattice(a), self.sub_lattice(b)
        return MonotoneMap(SA, SB, {u: u for u in SA.elements})

    def terminal(self) -> str:
        return self.lattice.top

    def product(self, A: str, B: str) -> ProductCone:
        m = self.lattice.meet(A, B)
        return ProductCone(m, le_name(m, A), le_name(m, B))

    def equalizer(self, f: str, g: str) -> tuple[str, str]:
        a = self.cat.src(f)
        return a, self.cat.identity(a)

    def subobject_object(self, A: str, u: str) -> tuple[str, str]:
        return u, le_name(u, A)

    def restrict(self, f: str, u: str) -> str:
        return le_name(u, self.cat.tgt(f))

    def chosen_squares(self) -> list[PullbackSquare]:
        L = self.lattice
        out = []
        for c in L.elements:
            for a in L.elements:
                if not L.leq(a, c):
                    continue
                for b in L.elements:
                    if not L.leq(b, c):
                        continue
                    q = L.meet(a, b)
                    out.append(
                        PullbackSquare(
                            le_name(a, c), le_name(b, c), q,
                            le_name(q, b), le_name(q, a),
                        )
                    )
        return out


# -- functor property checks ---------------------------------------------------


@cached_method
def functor_sub_map(F: FinFunctor, C: CohCategory, D: CohCategory, A: str) -> MonotoneMap:
    """The restriction of F to a map Sub_C(A) -> Sub_D(FA), carrying a
    subobject to the image of F applied to its mono.  Built once per
    (C, D, A) and kept on F, so every check on F reads the same table."""
    SA = C.sub_lattice(A)
    SD = D.sub_lattice(F.on_obj(A))
    table = {}
    for u in SA.elements:
        _, mono = C.subobject_object(A, u)
        table[u] = D.subobject_of_mono(F.on_mor(mono))
    return MonotoneMap(SA, SD, table)


def check_coherent_functor(F: FinFunctor, C: CohCategory, D: CohCategory) -> bool:
    return coherent_functor_witness(F, C, D) is None


@cached_method
def coherent_functor_witness(F: FinFunctor, C: CohCategory, D: CohCategory):
    """None if F preserves the chosen finite limits, images, and finite
    joins of subobjects; otherwise a human-readable witness.  Decided once
    per (C, D) and kept on F, so every check on F reads the same verdict."""
    try:
        T = C.terminal()
        if not D.is_terminal(F.on_obj(T)):
            return f"terminal {T} not preserved"
    except MissingLimitError:
        pass
    for A in C.cat.objects:
        for B in C.cat.objects:
            try:
                cone = C.product(A, B)
            except MissingLimitError:
                continue
            fcone = ProductCone(
                F.on_obj(cone.obj), F.on_mor(cone.pi1), F.on_mor(cone.pi2)
            )
            if not is_product_cone(D.cat, F.on_obj(A), F.on_obj(B), fcone):
                return f"product of ({A},{B}) not preserved"
    for f in C.cat.morphisms:
        for g in C.cat.morphisms:
            if (
                C.cat.src(f) != C.cat.src(g)
                or C.cat.tgt(f) != C.cat.tgt(g)
                or f > g
            ):
                continue
            _, eq_mono = C.equalizer(f, g)
            if not _is_equalizer(D, F.on_mor(f), F.on_mor(g), F.on_mor(eq_mono)):
                return f"equalizer of ({f},{g}) not preserved"
    for A in C.cat.objects:
        FA = functor_sub_map(F, C, D, A)
        SA, SD = FA.source, FA.target
        if FA(SA.bottom) != SD.bottom:
            return f"bottom of Sub({A}) not preserved"
        for u in SA.elements:
            for v in SA.elements:
                if FA(SA.join(u, v)) != SD.join(FA(u), FA(v)):
                    return f"join in Sub({A}) not preserved on ({u},{v})"
    for f in C.cat.morphisms:
        A, B = C.cat.src(f), C.cat.tgt(f)
        FA = functor_sub_map(F, C, D, A)
        FB = functor_sub_map(F, C, D, B)
        im_c, im_d = C.image_map(f), D.image_map(F.on_mor(f))
        for u in FA.source.elements:
            if FB(im_c(u)) != im_d(FA(u)):
                return f"image along {f} not preserved on {u}"
    return None


def _is_equalizer(D: CohCategory, f: str, g: str, mono: str) -> bool:
    if D.cat.compose(f, mono) != D.cat.compose(g, mono):
        return False
    cat, E = D.cat, D.cat.src(mono)
    return all(
        len(cat.factorizations(Z, E, ((mono, z),))) == 1
        for Z in cat.objects
        for z in cat.hom(Z, cat.src(f))
        if cat.compose(f, z) == cat.compose(g, z)
    )


def check_conservative(F: FinFunctor, C: CohCategory, D: CohCategory) -> bool:
    return conservative_witness(F, C, D) is None


def conservative_witness(F: FinFunctor, C: CohCategory, D: CohCategory):
    for A in C.cat.objects:
        FA = functor_sub_map(F, C, D, A)
        if not FA.is_order_embedding():
            return f"Sub({A}) is not order-embedded"
    return None


def check_heyting_functor(F: FinFunctor, C: CohCategory, D: CohCategory) -> bool:
    if not check_coherent_functor(F, C, D):
        return False
    for f in C.cat.morphisms:
        A, B = C.cat.src(f), C.cat.tgt(f)
        FA = functor_sub_map(F, C, D, A)
        FB = functor_sub_map(F, C, D, B)
        fa_c, fa_d = C.forall_map(f), D.forall_map(F.on_mor(f))
        for u in FA.source.elements:
            if FB(fa_c(u)) != fa_d(FA(u)):
                return False
    return True


def lattice_hom_functor(h: LatticeHom, C: LatticeCategory, D: LatticeCategory) -> FinFunctor:
    """The posetal functor induced by a bounded lattice homomorphism."""
    obj_map = {a: h(a) for a in C.lattice.elements}
    mor_map = {
        m.name: le_name(h(m.src), h(m.tgt)) for m in C.cat.morphisms.values()
    }
    return FinFunctor(C.cat, D.cat, obj_map, mor_map)
