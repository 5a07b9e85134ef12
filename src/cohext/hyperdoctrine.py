"""Coherent and first-order hyperdoctrines over finite base categories.

A hyperdoctrine is table data: a lattice per object, a substitution hom per
morphism, and a chosen existential adjoint per morphism.  Beck-Chevalley
is checked over the base's chosen pullback squares, which are built on
their first read, so a hyperdoctrine that is never validated builds none
and one validated with its extension builds them once.  Every hyperdoctrine
the program builds is one by theorem and is not validated: the subobject
and first-order ones of a coherent category, `sites.filter_hyperdoctrine`
and the fiberwise canonical extension (Coumans, arXiv:1204.3745).  Only
tables read from a file are validated, by the CLI: `hyper validate`
reports them, and `hyper canext` refuses them when a law fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .canext import (
    CanonicalExtension,
    canonical_extension,
    pi_extension,
    sigma_extension,
    sigma_map,
)
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
    adjunction_failures,
    check_distributive,
    frobenius_failures,
)
from .order import trusted_instance
from .report import LawCheck


class HyperdoctrineError(ValueError):
    pass


@dataclass(frozen=True)
class BaseLimits:
    """Chosen finite-limit structure on a base category; possibly partial.

    From `from_cohcat`, `squares` is built on the first read and kept,
    like an `order.cached` value: only Beck-Chevalley reads the squares,
    and a hyperdoctrine and its extension share one `BaseLimits`.  It is a
    field, not a `cached` attribute, so `dataclasses.replace` can set it."""

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
        """The terminal object and the products of C; its chosen squares
        when first read."""
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
        return trusted_instance(cls, terminal=term, products=prods, cohcat=C)

    def __getattr__(self, name):
        """Build and keep `squares` on its first read, which is the only
        attribute a `from_cohcat` instance leaves unset."""
        if name != "squares":
            raise AttributeError(name)
        squares = tuple(self.cohcat.chosen_squares())
        object.__setattr__(self, "squares", squares)
        return squares


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
class ValidationReport:
    checks: tuple[LawCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[LawCheck]:
        return [c for c in self.checks if not c.passed]


def validate(P: CoherentHyperdoctrine) -> ValidationReport:
    """One check per law, each failed with the first witness in a fixed
    order; the laws after a missing fiber or a mistyped table are not
    checked."""
    checks = [
        LawCheck.first("fibers-distributive", _fiber_failures(P)),
        LawCheck.first("tables-typed", _typing_failures(P)),
    ]
    if not _tables_typed(P, checks):
        return ValidationReport(tuple(checks))
    mors = P.base.morphisms.items()
    checks += [
        LawCheck.first("subst-functorial", _functoriality_failures(P)),
        LawCheck.first("exists-left-adjoint", (
            f"adjunction fails at {f} on ({a},{b})"
            for f, m in mors
            for a, b in adjunction_failures(
                P.ex(f), P.sub(f), P.fibers[m.src], P.fibers[m.tgt]
            )
        )),
        LawCheck.first("frobenius", (
            f"Frobenius fails at {f} on ({a},{b})"
            for f, m in mors
            for a, b in frobenius_failures(
                P.ex(f), P.sub(f), P.fibers[m.src], P.fibers[m.tgt]
            )
        )),
        LawCheck.first("beck-chevalley", _beck_chevalley_failures(P)),
    ]
    return ValidationReport(tuple(checks))


def _fiber_failures(P: CoherentHyperdoctrine):
    for A in P.base.objects:
        if A not in P.fibers:
            yield f"missing fiber at {A}"
        elif not check_distributive(P.fibers[A]):
            yield f"fiber at {A} is not distributive"


def _tables_typed(P: CoherentHyperdoctrine, checks) -> bool:
    """Every fiber present and "tables-typed" passed: the laws read the
    tables only then."""
    return checks[1].passed and all(A in P.fibers for A in P.base.objects)


def _typing_failures(P: CoherentHyperdoctrine):
    """Morphisms at a missing fiber are skipped: the fiber is the witness
    of "fibers-distributive"."""
    for f, m in P.base.morphisms.items():
        if m.src not in P.fibers or m.tgt not in P.fibers:
            continue
        s, e = P.subst.get(f), P.exists.get(f)
        if s is None or e is None:
            yield f"missing subst/exists at {f}"
        elif s.source != P.fibers[m.tgt] or s.target != P.fibers[m.src]:
            yield f"subst at {f} mistyped"
        elif e.source != P.fibers[m.src] or e.target != P.fibers[m.tgt]:
            yield f"exists at {f} mistyped"


def _functoriality_failures(P: CoherentHyperdoctrine):
    """Contravariant functoriality: identities, then composable pairs."""
    for A in P.base.objects:
        s = P.sub(P.base.identity(A)).mapping
        if any(s[a] != a for a in P.fibers[A].elements):
            yield f"subst at identity of {A} is not the identity"
    for f, g in composable_pairs(P.base.morphisms):
        gf = P.sub(P.base.compose(g.name, f.name)).mapping
        sf, sg = P.sub(f.name).mapping, P.sub(g.name).mapping
        for c in P.fibers[g.tgt].elements:
            if gf[c] != sf[sg[c]]:
                yield f"functoriality fails on ({g.name},{f.name}) at {c}"


def _beck_chevalley_failures(P: CoherentHyperdoctrine):
    """Beck-Chevalley on the chosen pullback squares."""
    for sq in P.limits.squares:
        sb, ea = P.sub(sq.beta).mapping, P.ex(sq.alpha).mapping
        ep, sp = P.ex(sq.alpha_p).mapping, P.sub(sq.beta_p).mapping
        for a in P.fibers[P.base.src(sq.alpha)].elements:
            if sb[ea[a]] != ep[sp[a]]:
                yield f"Beck-Chevalley fails on square ({sq.alpha},{sq.beta}) at {a}"


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
    """Apply canonical extension to every fiber; substitution and the
    existential adjoints preserve finite joins and lift by their sigma
    extensions.  `canonical_extension` finds each fiber's extension by
    comparing the fiber with the extension's base, once per object, so a
    table whose lattices are the fibers themselves is lifted without
    comparing them again; any other goes through `sigma_extension`'s check."""
    exts = {A: canonical_extension(P.fibers[A]) for A in P.base.objects}
    fibers = {A: exts[A].ext for A in P.base.objects}

    def lift(g: MonotoneMap, A: str, B: str) -> MonotoneMap:
        if g.source is P.fibers[A] and g.target is P.fibers[B]:
            return sigma_map(g, exts[A], exts[B])
        return sigma_extension(g, exts[A], exts[B]).map

    subst, exists = {}, {}
    for f, m in P.base.morphisms.items():
        s = lift(P.sub(f), m.tgt, m.src)
        subst[f] = LatticeHom(s.source, s.target, s.mapping)
        exists[f] = lift(P.ex(f), m.src, m.tgt)
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
    checks = [LawCheck.first("components-typed", _component_failures(m))]
    if not checks[-1].passed:
        return ValidationReport(tuple(checks))
    checks += [
        LawCheck.first("limits-preserved", _limit_failures(m)),
        LawCheck.first("naturality", _naturality_failures(m)),
        LawCheck.first("exists-preserved", _exists_preservation_failures(m)),
    ]
    return ValidationReport(tuple(checks))


def _component_failures(m: HypMorphism):
    P1, P2 = m.source, m.target
    for A in P1.base.objects:
        t = m.tau.get(A)
        if t is None or t.source != P1.fibers[A] or (
            t.target != P2.fibers[m.K.on_obj(A)]
        ):
            yield f"component at {A} missing or mistyped"


def _limit_failures(m: HypMorphism):
    """K preserves the chosen limits present on both sides."""
    P1, P2 = m.source, m.target
    if P1.limits.terminal is not None:
        T2 = m.K.on_obj(P1.limits.terminal)
        if any(len(P2.base.hom(X, T2)) != 1 for X in P2.base.objects):
            yield "terminal not preserved"
    for (A, B), cone in P1.limits.products.items():
        fc = ProductCone(
            m.K.on_obj(cone.obj), m.K.on_mor(cone.pi1), m.K.on_mor(cone.pi2)
        )
        if not is_product_cone(P2.base, m.K.on_obj(A), m.K.on_obj(B), fc):
            yield f"product of ({A},{B}) not preserved"


def _naturality_failures(m: HypMorphism):
    P1, P2 = m.source, m.target
    for f, mor in P1.base.morphisms.items():
        tA, tB = m.tau[mor.src].mapping, m.tau[mor.tgt].mapping
        s1, s2 = P1.sub(f).mapping, P2.sub(m.K.on_mor(f)).mapping
        for b in P1.fibers[mor.tgt].elements:
            if tA[s1[b]] != s2[tB[b]]:
                yield f"naturality fails at {f} on {b}"


def _exists_preservation_failures(m: HypMorphism):
    P1, P2 = m.source, m.target
    for f, mor in P1.base.morphisms.items():
        tA, tB = m.tau[mor.src].mapping, m.tau[mor.tgt].mapping
        e1, e2 = P1.ex(f).mapping, P2.ex(m.K.on_mor(f)).mapping
        for a in P1.fibers[mor.src].elements:
            if e2[tA[a]] != tB[e1[a]]:
                yield f"exists-preservation fails at {f} on {a}"


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
    """(K, tau^delta) between the fiberwise extensions, by sigma."""
    tau = {}
    for A in m.source.base.objects:
        s = sigma_extension(m.tau[A], Pd1.fiber_ext[A], Pd2.fiber_ext[m.K.on_obj(A)]).map
        tau[A] = LatticeHom(s.source, s.target, s.mapping)
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
    """The coherent laws, then the Heyting fibers, forall right adjoint to
    substitution (the left adjoint between the order duals) and
    substitution preserving implication.  Like `validate`, it checks no
    law after a missing fiber or a mistyped table."""
    checks = list(validate(P).checks)
    if not _tables_typed(P, checks):
        return ValidationReport(tuple(checks))
    checks += [
        LawCheck.first("heyting-fibers", _heyting_failures(P)),
        LawCheck.first("forall-right-adjoint", _forall_failures(P)),
        LawCheck.first("subst-preserves-implication", _implication_failures(P)),
    ]
    return ValidationReport(tuple(checks))


def _heyting_failures(P: FirstOrderHyperdoctrine):
    for A in P.base.objects:
        L = P.fibers[A]
        imp = P.implication.get(A)
        if imp is None:
            yield f"missing implication table at {A}"
            continue
        for a, b in iproduct(L.elements, repeat=2):
            r = imp.get((a, b))
            if r is None:
                yield f"implication undefined on ({a},{b}) at {A}"
                continue
            for x in L.elements:
                if L.leq(x, r) != L.leq(L.meet(x, a), b):
                    yield f"Heyting law fails at {A} on ({x},{a},{b})"


def _forall_failures(P: FirstOrderHyperdoctrine):
    for f, m in P.base.morphisms.items():
        fa = P.forall.get(f)
        if fa is None:
            yield f"missing forall at {f}"
            continue
        FA, FB = P.fibers[m.src], P.fibers[m.tgt]
        for u, v in adjunction_failures(fa, P.sub(f), FA.dual, FB.dual):
            yield f"forall adjunction fails at {f} on ({u},{v})"


def _implication_failures(P: FirstOrderHyperdoctrine):
    """Pairs whose implication entries are missing or not fiber elements
    are skipped: they are the witnesses of "heyting-fibers"."""
    for f, m in P.base.morphisms.items():
        impB = P.implication.get(m.tgt, {})
        impA = P.implication.get(m.src, {})
        s, FA = P.sub(f).mapping, set(P.fibers[m.src].elements)
        for a, b in iproduct(P.fibers[m.tgt].elements, repeat=2):
            r, r_s = impB.get((a, b)), impA.get((s[a], s[b]))
            if r in s and r_s in FA and s[r] != r_s:
                yield f"subst at {f} breaks implication on ({a},{b})"


def canext_fo(P: FirstOrderHyperdoctrine) -> FirstOrderHyperdoctrine:
    """The fiberwise extension; each universal adjoint preserves finite
    meets and lifts by its pi extension."""
    Pd = canext_hyperdoctrine(P)
    implication = {}
    for A in P.base.objects:
        L = Pd.fibers[A]
        implication[A] = {
            (a, b): L.implies(a, b) for a in L.elements for b in L.elements
        }
    forall = {
        f: pi_extension(P.forall[f], Pd.fiber_ext[m.src], Pd.fiber_ext[m.tgt]).map
        for f, m in P.base.morphisms.items()
    }
    return FirstOrderHyperdoctrine(
        Pd.base, Pd.fibers, Pd.subst, Pd.exists, Pd.limits,
        implication=implication, forall=forall,
    )
