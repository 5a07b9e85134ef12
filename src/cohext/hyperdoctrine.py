"""Coherent and first-order hyperdoctrines over finite base categories.

A hyperdoctrine is table data: a lattice per object, a substitution hom per
morphism, and a chosen existential adjoint per morphism.  The adjoints are
part of the data and then validated, so deliberately broken inputs exercise
the validators.  Beck-Chevalley is checked over the base's chosen pullback
squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .canext import CanonicalExtension, canonical_extension, delta_extension
from .cohcat import (
    CohCategory,
    MissingLimitError,
    ProductCone,
    PullbackSquare,
    is_product_cone,
)
from .fincat import FinCategory, FinFunctor, composable_pairs
from .lattice import (
    FinLattice,
    LatticeHom,
    MonotoneMap,
    check_distributive,
)


class HyperdoctrineError(ValueError):
    pass


@dataclass(frozen=True)
class BaseLimits:
    """Chosen finite-limit structure on a base category; possibly partial."""

    terminal: str | None
    products: dict[tuple[str, str], ProductCone]
    squares: tuple[PullbackSquare, ...]

    def product(self, A: str, B: str) -> ProductCone:
        cone = self.products.get((A, B))
        if cone is None:
            raise MissingLimitError(f"no chosen product of ({A},{B})")
        return cone

    @classmethod
    def from_cohcat(cls, C: CohCategory) -> BaseLimits:
        """The terminal object, the products and the chosen squares of C."""
        try:
            term = C.terminal()
        except MissingLimitError:
            term = None
        prods = {}
        for A in C.cat.objects:
            for B in C.cat.objects:
                try:
                    prods[(A, B)] = C.product(A, B)
                except MissingLimitError:
                    pass
        return cls(term, prods, tuple(C.chosen_squares()))


@dataclass(frozen=True, eq=False)
class CoherentHyperdoctrine:
    base: FinCategory
    fibers: dict[str, FinLattice]
    subst: dict[str, LatticeHom]
    exists: dict[str, MonotoneMap]
    limits: BaseLimits

    def fiber(self, A: str) -> FinLattice:
        return self.fibers[A]

    def sub(self, f: str) -> LatticeHom:
        return self.subst[f]

    def ex(self, f: str) -> MonotoneMap:
        return self.exists[f]


@dataclass(frozen=True)
class LawCheck:
    law: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[LawCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[LawCheck]:
        return [c for c in self.checks if not c.passed]


def validate(P: CoherentHyperdoctrine) -> ValidationReport:
    checks = []
    # fibers
    w = None
    for A in P.base.objects:
        if A not in P.fibers:
            w = f"missing fiber at {A}"
            break
        if not check_distributive(P.fibers[A]):
            w = f"fiber at {A} is not distributive"
            break
    checks.append(LawCheck("fibers-distributive", w is None, w))
    # typing of subst/exists
    w = None
    for f, m in P.base.morphisms.items():
        s = P.subst.get(f)
        e = P.exists.get(f)
        if s is None or e is None:
            w = f"missing subst/exists at {f}"
            break
        if s.source != P.fibers[m.tgt] or s.target != P.fibers[m.src]:
            w = f"subst at {f} mistyped"
            break
        if e.source != P.fibers[m.src] or e.target != P.fibers[m.tgt]:
            w = f"exists at {f} mistyped"
            break
    checks.append(LawCheck("tables-typed", w is None, w))
    if w is not None:
        return ValidationReport(tuple(checks))
    # contravariant functoriality
    w = None
    for A in P.base.objects:
        i = P.base.identity(A)
        if any(P.sub(i)(a) != a for a in P.fibers[A].elements):
            w = f"subst at identity of {A} is not the identity"
            break
    if w is None:
        w = next(
            (
                f"functoriality fails on ({g.name},{f.name}) at {c}"
                for f, g in composable_pairs(P.base.morphisms)
                for c in P.fibers[g.tgt].elements
                if P.sub(P.base.compose(g.name, f.name))(c)
                != P.sub(f.name)(P.sub(g.name)(c))
            ),
            None,
        )
    checks.append(LawCheck("subst-functorial", w is None, w))
    # adjunctions
    w = None
    for f, m in P.base.morphisms.items():
        FA, FB = P.fibers[m.src], P.fibers[m.tgt]
        for a in FA.elements:
            for b in FB.elements:
                if FB.leq(P.ex(f)(a), b) != FA.leq(a, P.sub(f)(b)):
                    w = f"adjunction fails at {f} on ({a},{b})"
                    break
            if w:
                break
        if w:
            break
    checks.append(LawCheck("exists-left-adjoint", w is None, w))
    # Frobenius
    w = None
    for f, m in P.base.morphisms.items():
        FA, FB = P.fibers[m.src], P.fibers[m.tgt]
        for a in FA.elements:
            for b in FB.elements:
                lhs = P.ex(f)(FA.meet(a, P.sub(f)(b)))
                rhs = FB.meet(P.ex(f)(a), b)
                if lhs != rhs:
                    w = f"Frobenius fails at {f} on ({a},{b})"
                    break
            if w:
                break
        if w:
            break
    checks.append(LawCheck("frobenius", w is None, w))
    # Beck-Chevalley on the chosen squares
    w = None
    for sq in P.limits.squares:
        A = P.base.src(sq.alpha)
        for a in P.fibers[A].elements:
            lhs = P.sub(sq.beta)(P.ex(sq.alpha)(a))
            rhs = P.ex(sq.alpha_p)(P.sub(sq.beta_p)(a))
            if lhs != rhs:
                w = f"Beck-Chevalley fails on square ({sq.alpha},{sq.beta}) at {a}"
                break
        if w:
            break
    checks.append(LawCheck("beck-chevalley", w is None, w))
    return ValidationReport(tuple(checks))


def sub_hyperdoctrine(C: CohCategory) -> CoherentHyperdoctrine:
    """The subobject hyperdoctrine of a coherent category: fibers are
    subobject lattices, substitution is pullback, the adjoints are images."""
    fibers = {A: C.sub_lattice(A) for A in C.cat.objects}
    subst = {f: C.pullback_map(f) for f in C.cat.morphisms}
    exists = {f: C.image_map(f) for f in C.cat.morphisms}
    return CoherentHyperdoctrine(
        C.cat, fibers, subst, exists, BaseLimits.from_cohcat(C)
    )


@dataclass(frozen=True, eq=False)
class CanextHyperdoctrine(CoherentHyperdoctrine):
    """Fiberwise canonical extension of a hyperdoctrine; remembers the
    per-object embeddings."""

    fiber_ext: dict[str, CanonicalExtension] = field(default_factory=dict)

    def embed(self, A: str, a: str) -> str:
        return self.fiber_ext[A].e(a)


def canext_hyperdoctrine(P: CoherentHyperdoctrine) -> CanextHyperdoctrine:
    """Apply canonical extension to every fiber; substitution maps lift by
    their unique (delta) extension and the existential adjoints by the
    sigma extension, which for join-preserving maps is the same thing."""
    rep = validate(P)
    if not rep.passed:
        raise HyperdoctrineError(
            f"hyperdoctrine does not validate: {rep.failures()[0]}"
        )
    exts = {A: canonical_extension(P.fibers[A]) for A in P.base.objects}
    fibers = {A: exts[A].ext for A in P.base.objects}
    subst, exists = {}, {}
    for f, m in P.base.morphisms.items():
        sd = delta_extension(P.sub(f), exts[m.tgt], exts[m.src])
        subst[f] = LatticeHom(sd.map.source, sd.map.target, sd.map.mapping)
        ed = delta_extension(P.ex(f), exts[m.src], exts[m.tgt])
        exists[f] = ed.map
    return CanextHyperdoctrine(
        P.base, fibers, subst, exists, P.limits, fiber_ext=exts
    )


# -- morphisms ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HypMorphism:
    source: CoherentHyperdoctrine
    target: CoherentHyperdoctrine
    K: FinFunctor
    tau: dict[str, LatticeHom]


def validate_morphism(m: HypMorphism) -> ValidationReport:
    checks = []
    P1, P2 = m.source, m.target
    w = None
    for A in P1.base.objects:
        t = m.tau.get(A)
        if t is None or t.source != P1.fibers[A] or t.target != P2.fibers[
            m.K.on_obj(A)
        ]:
            w = f"component at {A} missing or mistyped"
            break
    checks.append(LawCheck("components-typed", w is None, w))
    if w is not None:
        return ValidationReport(tuple(checks))
    # K preserves the chosen limits present on both sides
    w = None
    if P1.limits.terminal is not None:
        T2 = m.K.on_obj(P1.limits.terminal)
        if any(len(P2.base.hom(X, T2)) != 1 for X in P2.base.objects):
            w = "terminal not preserved"
    if w is None:
        for (A, B), cone in P1.limits.products.items():
            fc = ProductCone(
                m.K.on_obj(cone.obj), m.K.on_mor(cone.pi1), m.K.on_mor(cone.pi2)
            )
            if not is_product_cone(P2.base, m.K.on_obj(A), m.K.on_obj(B), fc):
                w = f"product of ({A},{B}) not preserved"
                break
    checks.append(LawCheck("limits-preserved", w is None, w))
    # naturality
    w = None
    for f, mor in P1.base.morphisms.items():
        tA, tB = m.tau[mor.src], m.tau[mor.tgt]
        for b in P1.fibers[mor.tgt].elements:
            if tA(P1.sub(f)(b)) != P2.sub(m.K.on_mor(f))(tB(b)):
                w = f"naturality fails at {f} on {b}"
                break
        if w:
            break
    checks.append(LawCheck("naturality", w is None, w))
    # existential preservation
    w = None
    for f, mor in P1.base.morphisms.items():
        tA, tB = m.tau[mor.src], m.tau[mor.tgt]
        for a in P1.fibers[mor.src].elements:
            if P2.ex(m.K.on_mor(f))(tA(a)) != tB(P1.ex(f)(a)):
                w = f"exists-preservation fails at {f} on {a}"
                break
        if w:
            break
    checks.append(LawCheck("exists-preserved", w is None, w))
    return ValidationReport(tuple(checks))


def unit_morphism(P: CoherentHyperdoctrine, Pd: CanextHyperdoctrine) -> HypMorphism:
    """(id, eta) : P -> P^delta, the fiberwise embedding."""
    tau = {
        A: LatticeHom(P.fibers[A], Pd.fibers[A], dict(Pd.fiber_ext[A].embed))
        for A in P.base.objects
    }
    return HypMorphism(P, Pd, FinFunctor.identity(P.base), tau)


def canext_morphism(
    m: HypMorphism, Pd1: CanextHyperdoctrine, Pd2: CanextHyperdoctrine
) -> HypMorphism:
    """(K, tau^delta) between the fiberwise extensions."""
    tau = {}
    for A in m.source.base.objects:
        d = delta_extension(
            m.tau[A], Pd1.fiber_ext[A], Pd2.fiber_ext[m.K.on_obj(A)]
        )
        tau[A] = LatticeHom(d.map.source, d.map.target, d.map.mapping)
    return HypMorphism(Pd1, Pd2, m.K, tau)


def compose_morphisms(m1: HypMorphism, m2: HypMorphism) -> HypMorphism:
    """m2 o m1 : P1 -> P3."""
    tau = {
        A: LatticeHom(
            m1.tau[A].source,
            m2.tau[m1.K.on_obj(A)].target,
            {
                a: m2.tau[m1.K.on_obj(A)](m1.tau[A](a))
                for a in m1.tau[A].source.elements
            },
        )
        for A in m1.source.base.objects
    }
    return HypMorphism(m1.source, m2.target, m1.K.then(m2.K), tau)


# -- first-order hyperdoctrines ------------------------------------------------


@dataclass(frozen=True, eq=False)
class FirstOrderHyperdoctrine(CoherentHyperdoctrine):
    """Adds a Heyting implication table per fiber and a universal adjoint
    per morphism."""

    implication: dict[str, dict[tuple[str, str], str]] = field(default_factory=dict)
    forall: dict[str, MonotoneMap] = field(default_factory=dict)


def fo_from_cohcat(C: CohCategory) -> FirstOrderHyperdoctrine:
    P = sub_hyperdoctrine(C)
    implication = {}
    for A in C.cat.objects:
        L = P.fibers[A]
        implication[A] = {
            (a, b): L.implies(a, b)
            for a in L.elements
            for b in L.elements
        }
    forall = {f: C.forall_map(f) for f in C.cat.morphisms}
    return FirstOrderHyperdoctrine(
        P.base, P.fibers, P.subst, P.exists, P.limits,
        implication=implication, forall=forall,
    )


def validate_fo(P: FirstOrderHyperdoctrine) -> ValidationReport:
    checks = list(validate(P).checks)
    # Heyting law per fiber
    w = None
    for A in P.base.objects:
        L = P.fibers[A]
        imp = P.implication.get(A)
        if imp is None:
            w = f"missing implication table at {A}"
            break
        for a, b in iproduct(L.elements, repeat=2):
            r = imp.get((a, b))
            if r is None:
                w = f"implication undefined on ({a},{b}) at {A}"
                break
            for x in L.elements:
                if L.leq(x, r) != L.leq(L.meet(x, a), b):
                    w = f"Heyting law fails at {A} on ({x},{a},{b})"
                    break
            if w:
                break
        if w:
            break
    checks.append(LawCheck("heyting-fibers", w is None, w))
    # forall right adjoint to subst
    w = None
    for f, m in P.base.morphisms.items():
        fa = P.forall.get(f)
        if fa is None:
            w = f"missing forall at {f}"
            break
        FA, FB = P.fibers[m.src], P.fibers[m.tgt]
        for u in FA.elements:
            for v in FB.elements:
                if FB.leq(v, fa(u)) != FA.leq(P.sub(f)(v), u):
                    w = f"forall adjunction fails at {f} on ({u},{v})"
                    break
            if w:
                break
        if w:
            break
    checks.append(LawCheck("forall-right-adjoint", w is None, w))
    # substitution preserves implication
    w = None
    for f, m in P.base.morphisms.items():
        impB = P.implication.get(m.tgt, {})
        impA = P.implication.get(m.src, {})
        for a, b in iproduct(P.fibers[m.tgt].elements, repeat=2):
            lhs = P.sub(f)(impB[(a, b)])
            rhs = impA[(P.sub(f)(a), P.sub(f)(b))]
            if lhs != rhs:
                w = f"subst at {f} breaks implication on ({a},{b})"
                break
        if w:
            break
    checks.append(LawCheck("subst-preserves-implication", w is None, w))
    return ValidationReport(tuple(checks))


def canext_fo(P: FirstOrderHyperdoctrine) -> FirstOrderHyperdoctrine:
    rep = validate_fo(P)
    if not rep.passed:
        raise HyperdoctrineError(f"does not validate: {rep.failures()[0]}")
    Pd = canext_hyperdoctrine(P)
    implication = {}
    for A in P.base.objects:
        L = Pd.fibers[A]
        implication[A] = {
            (a, b): L.implies(a, b) for a in L.elements for b in L.elements
        }
    forall = {}
    for f, m in P.base.morphisms.items():
        d = delta_extension(P.forall[f], Pd.fiber_ext[m.src], Pd.fiber_ext[m.tgt])
        forall[f] = d.map
    out = FirstOrderHyperdoctrine(
        Pd.base, Pd.fibers, Pd.subst, Pd.exists, Pd.limits,
        implication=implication, forall=forall,
    )
    rep = validate_fo(out)
    if not rep.passed:
        raise HyperdoctrineError(
            f"canonical extension broke a first-order law: {rep.failures()[0]}"
        )
    return out
