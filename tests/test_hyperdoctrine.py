"""Hyperdoctrine validators, the subobject and powerset constructions, and
fiberwise canonical extension."""

import json
from collections import Counter
from dataclasses import replace

import pytest

from cohext import hyperdoctrine
from cohext.canext import canonical_extension, delta_extension
from cohext.catalog import distributive_lattices
from cohext.cohcat import ConcreteCohCategory, LatticeCategory
from cohext.fixtures import FIXTURE_DIR
from cohext.hyperdoctrine import (
    BaseLimits,
    canext_fo,
    canext_hyperdoctrine,
    canext_morphism,
    compose_morphisms,
    fo_from_cohcat,
    sub_hyperdoctrine,
    unit_morphism,
    validate,
    validate_fo,
    validate_morphism,
)
from cohext.jsonio import hyperdoctrine_from_json, load_category
from cohext.lattice import FinLattice, LatticeError, LatticeHom
from cohext.predcat import PredCohCategory
from cohext.sites import filter_hyperdoctrine
from helpers import (
    boolean4,
    broken_exists_hyperdoctrine,
    chain_lattice,
    m3,
    trivial_lattice,
)


def all_fixture_hyperdoctrines():
    out = []
    for L in distributive_lattices(4):
        out.append(sub_hyperdoctrine(LatticeCategory(L)))
    out.append(sub_hyperdoctrine(ConcreteCohCategory([frozenset({"x"})])))
    out.append(sub_hyperdoctrine(ConcreteCohCategory([frozenset({"x", "y"})])))
    return out


def test_powerset_hyperdoctrine_validates():
    C = ConcreteCohCategory([frozenset({"x", "y"})])
    rep = validate(sub_hyperdoctrine(C))
    assert rep.passed, rep.failures()


def test_trivial_base_validates_vacuously():
    P = sub_hyperdoctrine(LatticeCategory(trivial_lattice()))
    assert validate(P).passed


def test_mutated_exists_fails_with_witness():
    P = broken_exists_hyperdoctrine()
    rep = validate(P)
    assert not rep.passed
    failed = {c.name for c in rep.failures()}
    assert "exists-left-adjoint" in failed
    assert all(c.witness for c in rep.failures())


def test_canonicity_on_all_fixtures():
    # fiberwise extension of every validated fixture validates again
    for P in all_fixture_hyperdoctrines():
        assert validate(P).passed
        Pd = canext_hyperdoctrine(P)
        rep = validate(Pd)
        assert rep.passed, rep.failures()


def test_single_fiber_three_chain():
    P = sub_hyperdoctrine(LatticeCategory(trivial_lattice()))
    # trivial base has one fiber, the one-element lattice; the 3-chain case
    # comes from the top fiber of the 3-chain base
    P3 = sub_hyperdoctrine(LatticeCategory(chain_lattice(3)))
    Pd = canext_hyperdoctrine(P3)
    assert len(Pd.fiber("c2").elements) == 3


def test_exists_functoriality_derived():
    # exists along identity is the identity; along composites, composes
    for P in all_fixture_hyperdoctrines():
        for A in P.base.objects:
            i = P.base.identity(A)
            assert all(P.ex(i)(a) == a for a in P.fiber(A).elements)
        for f, mf in P.base.morphisms.items():
            for g, mg in P.base.morphisms.items():
                if mf.tgt != mg.src:
                    continue
                gf = P.base.compose(g, f)
                for a in P.fiber(mf.src).elements:
                    assert P.ex(gf)(a) == P.ex(g)(P.ex(f)(a))


def test_unit_morphism_validates():
    P = sub_hyperdoctrine(LatticeCategory(boolean4()))
    Pd = canext_hyperdoctrine(P)
    m = unit_morphism(P, Pd)
    rep = validate_morphism(m)
    assert rep.passed, rep.failures()


def test_identity_morphism_extension_is_identity():
    P = sub_hyperdoctrine(LatticeCategory(chain_lattice(3)))
    Pd = canext_hyperdoctrine(P)
    from cohext.fincat import FinFunctor
    from cohext.hyperdoctrine import HypMorphism
    from cohext.lattice import LatticeHom

    ident = HypMorphism(
        P, P, FinFunctor.identity(P.base),
        {A: LatticeHom.identity(P.fiber(A)) for A in P.base.objects},
    )
    ext = canext_morphism(ident, Pd, Pd)
    assert validate_morphism(ext).passed
    for A in P.base.objects:
        assert ext.tau[A].mapping == {
            u: u for u in Pd.fiber(A).elements
        }


def test_composite_morphism_extends_to_composite():
    L2, L3 = chain_lattice(2), chain_lattice(3)
    P2 = sub_hyperdoctrine(LatticeCategory(L2))
    P3 = sub_hyperdoctrine(LatticeCategory(L3))
    from cohext.cohcat import lattice_hom_functor
    from cohext.hyperdoctrine import HypMorphism
    from cohext.lattice import LatticeHom

    h = LatticeHom(L2, L3, {"c0": "c0", "c1": "c2"})
    K = lattice_hom_functor(h, LatticeCategory(L2), LatticeCategory(L3))
    tau = {
        a: LatticeHom(
            P2.fiber(a), P3.fiber(h(a)),
            {u: h(u) for u in P2.fiber(a).elements},
        )
        for a in P2.base.objects
    }
    m = HypMorphism(P2, P3, K, tau)
    assert validate_morphism(m).passed
    P2d, P3d = canext_hyperdoctrine(P2), canext_hyperdoctrine(P3)
    md = canext_morphism(m, P2d, P3d)
    assert validate_morphism(md).passed
    both = compose_morphisms(m, unit_morphism(P3, P3d))
    other = compose_morphisms(unit_morphism(P2, P2d), md)
    for A in P2.base.objects:
        assert both.tau[A].mapping == other.tau[A].mapping


def test_first_order_validation_and_extension():
    for C in [
        LatticeCategory(chain_lattice(3)),
        LatticeCategory(boolean4()),
        ConcreteCohCategory([frozenset({"x", "y"})]),
    ]:
        P = fo_from_cohcat(C)
        rep = validate_fo(P)
        assert rep.passed, rep.failures()
        Pd = canext_fo(P)
        assert validate_fo(Pd).passed


def test_fo_frobenius_derivable_and_checked():
    # in a validated first-order hyperdoctrine the Frobenius law is among
    # the validated laws and holds
    P = fo_from_cohcat(LatticeCategory(boolean4()))
    rep = validate_fo(P)
    assert any(c.name == "frobenius" and c.passed for c in rep.checks)


def test_one_object_base_heyting_only():
    P = fo_from_cohcat(LatticeCategory(trivial_lattice()))
    rep = validate_fo(P)
    assert rep.passed


def fo_mutations():
    """The first-order hyperdoctrine of the three-chain with c0's
    implication table removed, with one subst table removed and with the
    fiber at c1 swapped for m3, each with the checks `validate_fo` gives."""
    P = fo_from_cohcat(LatticeCategory(chain_lattice(3)))
    f = next(iter(P.base.morphisms))
    coherent = [
        ("fibers-distributive", True, None), ("tables-typed", True, None),
        ("subst-functorial", True, None), ("exists-left-adjoint", True, None),
        ("frobenius", True, None), ("beck-chevalley", True, None),
    ]
    no_imp = {A: t for A, t in P.implication.items() if A != "c0"}
    yield replace(P, implication=no_imp), coherent + [
        ("heyting-fibers", False, "missing implication table at c0"),
        ("forall-right-adjoint", True, None),
        ("subst-preserves-implication", True, None),
    ]
    no_subst = {g: s for g, s in P.subst.items() if g != f}
    yield replace(P, subst=no_subst), [
        ("fibers-distributive", True, None),
        ("tables-typed", False, f"missing subst/exists at {f}"),
    ]
    yield replace(P, fibers={**P.fibers, "c1": m3()}), [
        ("fibers-distributive", False, "fiber at c1 is not distributive"),
        ("tables-typed", False, "subst at le(c0,c1) mistyped"),
    ]


def test_fo_validation_reports_missing_and_mistyped_tables():
    # no first-order law is checked after a mistyped table, and a missing
    # implication table is the heyting-fibers witness, not a KeyError
    for Q, expected in fo_mutations():
        rep = validate_fo(Q)
        assert [(c.name, c.passed, c.witness) for c in rep.checks] == expected


# -- every construction is a hyperdoctrine -----------------------------------


def constructed_bases():
    """DL(<=8) as lattice categories and the three concrete fragments of
    the site sweep."""
    yield from (LatticeCategory(L) for L in distributive_lattices(8))
    for seeds in (("x",), ("x", "y"), ("xy",)):
        yield ConcreteCohCategory([frozenset(s) for s in seeds])


def assert_lifts_are_delta(P, Pd, kind):
    """Each table of `kind` ("subst", "exists" or "forall") in Pd is
    delta_extension of P's: sigma and pi agree on the base table, which
    the builders no longer check."""
    ext = {A: canonical_extension(L) for A, L in P.fibers.items()}
    for f, m in P.base.morphisms.items():
        src, tgt = (m.tgt, m.src) if kind == "subst" else (m.src, m.tgt)
        d = delta_extension(getattr(P, kind)[f], ext[src], ext[tgt])
        assert getattr(Pd, kind)[f].mapping == d.map.mapping, (kind, f)


def test_every_construction_satisfies_the_hyperdoctrine_laws():
    """The builders validate nothing, since each is correct by theorem;
    this is where the theorem is checked, construction by construction."""
    bases = 0
    for C in constructed_bases():
        S = sub_hyperdoctrine(C)
        Sd = canext_hyperdoctrine(S)
        for label, P in (
            ("sub", S), ("canext", Sd), ("filter", filter_hyperdoctrine(C)),
        ):
            rep = validate(P)
            assert rep.passed, (label, C, rep.failures())
        F = fo_from_cohcat(C)
        Fd = canext_fo(F)
        for label, P in (("fo", F), ("fo-canext", Fd)):
            rep = validate_fo(P)
            assert rep.passed, (label, C, rep.failures())
        rep = validate_morphism(unit_morphism(S, Sd))
        assert rep.passed, ("unit", C, rep.failures())
        assert_lifts_are_delta(S, Sd, "subst")
        assert_lifts_are_delta(S, Sd, "exists")
        assert_lifts_are_delta(F, Fd, "forall")
        bases += 1
    assert bases == 39


# -- the chosen pullback squares are built on first read ----------------------


def counted_chosen_squares(monkeypatch) -> list:
    """Record the category of every `chosen_squares` call."""
    calls = []
    for cls in (ConcreteCohCategory, LatticeCategory, PredCohCategory):
        def counting(self, chosen=cls.chosen_squares):
            calls.append(self)
            return chosen(self)

        monkeypatch.setattr(cls, "chosen_squares", counting)
    return calls


def test_squares_are_built_by_the_first_validation_only(monkeypatch):
    calls = counted_chosen_squares(monkeypatch)
    for name in ("three_chain.hyp.json", "broken_exists.hyp.json"):
        data = json.loads((FIXTURE_DIR / name).read_text())
        hyperdoctrine_from_json(data, FIXTURE_DIR)
    assert calls == []
    for C in (LatticeCategory(boolean4()), ConcreteCohCategory([frozenset("xy")])):
        S = sub_hyperdoctrine(C)
        Sd = canext_hyperdoctrine(S)
        fo_from_cohcat(C)
        filter_hyperdoctrine(C)
        assert calls == []
        assert validate(S).passed and validate(Sd).passed
        assert calls == [C] and Sd.limits is S.limits
        calls.clear()


def site_fixture_categories():
    """The three concrete fragments of the site sweep and every category
    file among the fixtures."""
    for seeds in (("x",), ("x", "y"), ("xy",)):
        yield ConcreteCohCategory([frozenset(s) for s in seeds])
    for path in sorted(FIXTURE_DIR.glob("*cat.json")):
        yield load_category(path)


def test_lazy_squares_validate_as_the_squares_built_up_front():
    cases = [LatticeCategory(L) for L in distributive_lattices(6)]
    cases += site_fixture_categories()
    for C in cases:
        eager = replace(BaseLimits.from_cohcat(C), squares=tuple(C.chosen_squares()))
        S = sub_hyperdoctrine(C)
        F = fo_from_cohcat(C)
        for P in (S, canext_hyperdoctrine(S), filter_hyperdoctrine(C)):
            assert validate(P) == validate(replace(P, limits=eager)), C
        for P in (F, canext_fo(F)):
            assert validate_fo(P) == validate_fo(replace(P, limits=eager)), C
    P = broken_exists_hyperdoctrine()
    eager = replace(P.limits, squares=tuple(P.limits.cohcat.chosen_squares()))
    assert validate(P) == validate(replace(P, limits=eager))
    assert not validate(P).passed
    assert len(cases) == 13 + 3 + 5


def test_canext_hyperdoctrine_compares_no_lift_endpoints_by_structure(monkeypatch):
    """Each fiber meets its extension's base in the extension cache's
    lookup, at most once per object; no lift of a table between the fibers
    compares lattices by structure."""
    real_eq, real_extension = FinLattice.__eq__, hyperdoctrine.canonical_extension
    looking_up, calls = [], Counter()

    def eq(L, M):
        calls["lookup" if looking_up else "lift"] += 1
        return real_eq(L, M)

    def extension(L):
        looking_up.append(L)
        try:
            return real_extension(L)
        finally:
            looking_up.pop()

    monkeypatch.setattr(FinLattice, "__eq__", eq)
    monkeypatch.setattr(hyperdoctrine, "canonical_extension", extension)
    objects = 0
    for L in distributive_lattices(6):
        S = sub_hyperdoctrine(LatticeCategory(L))
        canext_hyperdoctrine(S)
        objects += len(S.base.objects)
    assert calls["lift"] == 0
    assert 0 < calls["lookup"] <= objects


def test_canext_hyperdoctrine_checks_tables_over_other_lattices_by_structure():
    S = sub_hyperdoctrine(LatticeCategory(chain_lattice(3)))
    # equal copies of the fibers lift as the fibers do
    copies = {A: FinLattice.from_poset(F.poset) for A, F in S.fibers.items()}
    subst = {
        f: LatticeHom(copies[m.tgt], copies[m.src], S.sub(f).mapping)
        for f, m in S.base.morphisms.items()
    }
    want, got = canext_hyperdoctrine(S), canext_hyperdoctrine(replace(S, subst=subst))
    assert {f: h.mapping for f, h in got.subst.items()} == {
        f: h.mapping for f, h in want.subst.items()
    }
    # a table over a lattice that is not its fiber is refused
    subst["le(c0,c1)"] = LatticeHom(S.fibers["c2"], S.fibers["c0"], {})
    with pytest.raises(LatticeError, match="map endpoints do not match"):
        canext_hyperdoctrine(replace(S, subst=subst))
