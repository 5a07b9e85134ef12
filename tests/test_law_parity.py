"""Every law check reports the same checks as its oracle in
`law_oracle.py`: the same names in the same order, the same verdicts and
the same witness strings, on the catalogue's hyperdoctrines and their
extensions, on mutations of every table, on the model-family fixtures and
on the README's locale homomorphisms.  The mutations make every law fail
at least once, and some fail at several pairs, so the witnesses of
failures and their order are compared too."""

import json
import random
from pathlib import Path

import pytest

from cohext.catalog import concrete_universes, distributive_lattices
from cohext.cohcat import ConcreteCohCategory, LatticeCategory, lattice_hom_functor
from cohext.fincat import FinFunctor
from cohext.fixtures import FIXTURE_DIR, designated_model_index
from cohext.hyperdoctrine import (
    CoherentHyperdoctrine,
    FirstOrderHyperdoctrine,
    HypMorphism,
    canext_fo,
    canext_hyperdoctrine,
    fo_from_cohcat,
    sub_hyperdoctrine,
    unit_morphism,
    validate,
    validate_fo,
    validate_morphism,
)
from cohext.jsonio import lattice_from_json
from cohext.lattice import LatticeHom, MonotoneMap
from cohext.logic.models import (
    Evaluation,
    FamilyCategory,
    ModelFamily,
    PreconditionError,
    check_m1,
    check_m2,
    check_m3,
    enumerate_models,
    sigma_bar_check,
)
from cohext.logic.parser import parse_theory
from cohext.sites import locale_morphism, open_check

from law_oracle import (
    check_m1_oracle,
    check_m2_oracle,
    check_m3_oracle,
    coherence_check_oracle,
    open_check_oracle,
    sigma_bar_check_oracle,
    validate_fo_oracle,
    validate_morphism_oracle,
    validate_oracle,
)
from helpers import broken_exists_hyperdoctrine, chain_lattice, m3


def triples(checks):
    return [(c.name, c.passed, c.witness) for c in checks]


def failed(checks):
    return {c.name for c in checks if not c.passed}


def catalogue_categories():
    return [LatticeCategory(L) for L in distributive_lattices(6)] + [
        ConcreteCohCategory(seeds) for seeds in concrete_universes(2)
    ]


def assert_validate_parity(P):
    rep = validate(P)
    assert triples(rep.checks) == triples(validate_oracle(P).checks)
    return rep.checks


def assert_fo_parity(P):
    rep = validate_fo(P)
    assert triples(rep.checks) == triples(validate_fo_oracle(P).checks)
    return rep.checks


def assert_morphism_parity(m):
    rep = validate_morphism(m)
    assert triples(rep.checks) == triples(validate_morphism_oracle(m).checks)
    return rep.checks


def test_validators_match_the_oracles_on_the_catalogue_and_extensions():
    for C in catalogue_categories():
        P = sub_hyperdoctrine(C)
        assert_validate_parity(P)
        Pd = canext_hyperdoctrine(P)
        assert_validate_parity(Pd)
        assert_morphism_parity(unit_morphism(P, Pd))
        F = fo_from_cohcat(C)
        assert_fo_parity(F)
        assert_fo_parity(canext_fo(F))


def bumped(table: dict, elements, value) -> dict:
    """The table with its first entry set to `value`, or to another
    element where it already is `value`."""
    k, old = next(iter(table.items()))
    if value == old:
        value = next((e for e in elements if e != old), old)
    return {**table, k: value}


def scrambled(table: dict, elements, rng) -> dict:
    """The table with three entries set to random elements, so a law can
    fail at several pairs and the order of the witnesses shows."""
    out = dict(table)
    for k in rng.sample(sorted(out), min(3, len(out))):
        out[k] = rng.choice(elements)
    return out


def mutations(P: FirstOrderHyperdoctrine):
    """Per table, one hyperdoctrine with one entry of that table changed
    and one with three entries scrambled."""
    rng = random.Random(0)

    def changed(table, L, value):
        yield bumped(table, L.elements, value)
        yield scrambled(table, L.elements, rng)

    for f, m in P.base.morphisms.items():
        FA, FB = P.fibers[m.src], P.fibers[m.tgt]
        for s in changed(P.subst[f].mapping, FA, FA.top):
            yield _replace(P, subst={**P.subst, f: LatticeHom(FB, FA, s)})
        for e in changed(P.exists[f].mapping, FB, FB.top):
            yield _replace(P, exists={**P.exists, f: MonotoneMap(FA, FB, e)})
        for a in changed(P.forall[f].mapping, FB, FB.bottom):
            yield _replace(P, forall={**P.forall, f: MonotoneMap(FA, FB, a)})
    for A, table in P.implication.items():
        L = P.fibers[A]
        for imp in changed(table, L, L.bottom):
            yield _replace(P, implication={**P.implication, A: imp})


def _replace(P: FirstOrderHyperdoctrine, **tables) -> FirstOrderHyperdoctrine:
    fields = dict(
        fibers=P.fibers, subst=P.subst, exists=P.exists,
        implication=P.implication, forall=P.forall,
    )
    fields.update(tables)
    return FirstOrderHyperdoctrine(
        P.base, fields["fibers"], fields["subst"], fields["exists"], P.limits,
        implication=fields["implication"], forall=fields["forall"],
    )


def test_every_law_fails_with_the_oracle_witness_on_mutated_tables():
    seen = set()
    for C in catalogue_categories():
        P = fo_from_cohcat(C)
        f = next(iter(P.base.morphisms))
        no_forall = _replace(P, forall={k: v for k, v in P.forall.items() if k != f})
        for Q in [*mutations(P), no_forall]:
            seen |= failed(assert_fo_parity(Q))
    seen |= failed(assert_validate_parity(broken_exists_hyperdoctrine()))
    # a fiber swapped for a non-distributive lattice, a missing fiber, a
    # missing subst table, a missing implication table and an implication
    # entry outside its fiber
    P = fo_from_cohcat(LatticeCategory(chain_lattice(3)))
    f = next(iter(P.base.morphisms))
    key = next(iter(P.implication["c1"]))
    for Q in (
        _replace(P, fibers={**P.fibers, "c1": m3()}),
        _replace(P, fibers={k: v for k, v in P.fibers.items() if k != "c1"}),
        _replace(P, subst={k: v for k, v in P.subst.items() if k != f}),
        _replace(P, implication={
            k: v for k, v in P.implication.items() if k != "c0"
        }),
        _replace(P, implication={
            **P.implication, "c1": {**P.implication["c1"], key: "zzz"}
        }),
    ):
        seen |= failed(assert_fo_parity(Q))
    assert seen == {
        "fibers-distributive", "tables-typed", "subst-functorial",
        "exists-left-adjoint", "frobenius", "beck-chevalley",
        "heyting-fibers", "forall-right-adjoint", "subst-preserves-implication",
    }


def test_validate_matches_the_oracle_on_the_broken_fixture():
    P = broken_exists_hyperdoctrine()
    assert not validate(P).passed
    assert_validate_parity(P)
    coherent = CoherentHyperdoctrine(P.base, P.fibers, P.subst, P.exists, P.limits)
    assert_validate_parity(coherent)


def test_morphism_laws_fail_with_the_oracle_witness():
    L2, L3 = chain_lattice(2), chain_lattice(3)
    C2, C3 = LatticeCategory(L2), LatticeCategory(L3)
    P2, P3 = sub_hyperdoctrine(C2), sub_hyperdoctrine(C3)
    morphisms = [HypMorphism(
        P3, P3, FinFunctor.identity(P3.base),
        {a: LatticeHom.identity(P3.fiber(a)) for a in P3.base.objects},
    )]
    # the second map misses the top: the terminal object is not preserved
    for table in ({"c0": "c0", "c1": "c2"}, {"c0": "c0", "c1": "c1"}):
        h = MonotoneMap(L2, L3, table)
        tau = {
            a: LatticeHom(P2.fiber(a), P3.fiber(h(a)), {u: h(u) for u in P2.fiber(a).elements})
            for a in P2.base.objects
        }
        morphisms.append(HypMorphism(P2, P3, lattice_hom_functor(h, C2, C3), tau))
    seen = set()
    for m in morphisms:
        seen |= failed(assert_morphism_parity(m))
        for a, t in m.tau.items():
            rest = {b: s for b, s in m.tau.items() if b != a}
            seen |= failed(assert_morphism_parity(HypMorphism(m.source, m.target, m.K, rest)))
            top = t.target.top
            u = next((u for u in t.source.elements if t(u) != top), None)
            if u is not None:
                wrong = MonotoneMap(t.source, t.target, {**t.mapping, u: top})
                seen |= failed(assert_morphism_parity(
                    HypMorphism(m.source, m.target, m.K, {**m.tau, a: wrong})
                ))
    assert seen == {"components-typed", "limits-preserved", "naturality", "exists-preserved"}


def family_categories():
    for name in ("pointed", "idempotent", "ordered"):
        T = parse_theory((FIXTURE_DIR / f"{name}.chr").read_text())
        for size in (2, 3, 4):
            models = enumerate_models(T, size)
            yield name, FamilyCategory(T, ModelFamily.build(models)), len(models)


def test_family_checks_match_the_oracles_with_and_without_the_designated_model():
    embedding_failed = False
    for name, C, n in family_categories():
        drop = designated_model_index(C) if name == "pointed" else n - 1
        for indices in (None, tuple(i for i in range(n) if i != drop)):
            for new, old in (
                (check_m1, check_m1_oracle),
                (check_m2, check_m2_oracle),
                (check_m3, check_m3_oracle),
            ):
                assert triples([new(C, indices)]) == triples([old(C, indices)])
            ev = Evaluation(C, indices)
            assert triples([ev.coherence_check()]) == triples([coherence_check_oracle(ev)])
            rep = sigma_bar_check(C, require_conditions=False, indices=indices)
            old = sigma_bar_check_oracle(C, require_conditions=False, indices=indices)
            parts = ("naturality", "exists_preservation", "embedding", "surjectivity")
            assert triples([getattr(rep, p) for p in parts]) == triples(
                [getattr(old, p) for p in parts]
            )
            embedding_failed |= not rep.embedding.passed
    assert embedding_failed


@pytest.mark.parametrize("sigma_bar_first", [False, True])
def test_kept_family_verdicts_match_the_oracles_in_either_order(sigma_bar_first):
    # the conditions and sigma-bar on one category, with and without the
    # designated model of pointed: whichever runs first finds the verdicts
    # and types the other reads
    T = parse_theory((FIXTURE_DIR / "pointed.chr").read_text())
    C = FamilyCategory(T, ModelFamily.build(enumerate_models(T, 2)))
    drop = designated_model_index(C)
    keep = tuple(i for i in range(len(C.family.models)) if i != drop)
    parts = ("naturality", "exists_preservation", "embedding", "surjectivity")

    def conditions(checks):
        return triples([check(C, idx) for idx in (None, keep) for check in checks])

    def sigma_bar(check):
        rep = check(C)
        with pytest.raises(PreconditionError) as e:
            check(C, indices=keep)
        dropped = check(C, require_conditions=False, indices=keep)
        reports = [getattr(r, p) for r in (rep, dropped) for p in parts]
        return triples(reports), str(e.value)

    if sigma_bar_first:
        got_bar = sigma_bar(sigma_bar_check)
        got = conditions((check_m1, check_m2, check_m3))
    else:
        got = conditions((check_m1, check_m2, check_m3))
        got_bar = sigma_bar(sigma_bar_check)
    assert got == conditions((check_m1_oracle, check_m2_oracle, check_m3_oracle))
    assert got_bar == sigma_bar(sigma_bar_check_oracle)
    assert got_bar[1].startswith("M2 fails: prime filter")
    assert [c for c in got if not c[1]] == [got[4]]


@pytest.mark.parametrize("source, target, hom", [
    ("two_chain", "three_chain", "embed_2_3"),
    ("two_chain", "three_chain", "heyting_2_3"),
    ("three_chain", "two_chain", "collapse_3_2"),
])
def test_open_check_matches_the_oracle_on_the_readme_homs(source, target, hom):
    read = lambda name: json.loads(Path(FIXTURE_DIR / name).read_text())
    L = lattice_from_json(read(f"{source}.lat.json"))
    K = lattice_from_json(read(f"{target}.lat.json"))
    CL, CK = LatticeCategory(L), LatticeCategory(K)
    F = lattice_hom_functor(LatticeHom(L, K, read(f"{hom}.hom.json")), CL, CK)
    m = locale_morphism(F, CL, CK)
    assert open_check(m) == open_check_oracle(m)
