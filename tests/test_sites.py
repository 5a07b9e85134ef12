"""Coverages, filter/type categories, comparison conditions, sheaf checks,
and locale-morphism analysis."""

from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import pytest

from cohext import sites
from cohext.catalog import concrete_universes, distributive_lattices
from cohext.cohcat import ConcreteCohCategory, LatticeCategory, lattice_hom_functor
from cohext.fincat import CategoryError, FinCategory, FinFunctor, Morphism, composable_pairs
from cohext.fixtures import mutated_comparison_source
from cohext.hyperdoctrine import canext_hyperdoctrine, sub_hyperdoctrine
from cohext.lattice import LatticeHom, filters, is_join_irreducible, prime_filters
from cohext.order import BudgetError
from cohext.sites import (
    FilterCategory,
    LocalMap,
    ComparisonReport,
    SemidirectSite,
    _matching_families,
    coherent_topology,
    comparison_check,
    filter_obj_name,
    irreducible_site,
    irreducible_to_types,
    jp_site,
    locale_morphism,
    localic_tot_for_lattice,
    open_check,
    semidirect_mor_name,
    semidirect_obj_name,
    semidirect_site,
    sheaf_check,
    surjection_check,
    topology_coincidence_check,
    type_category,
    unique_glueing_check,
)
from helpers import boolean4, chain_lattice, trivial_lattice


def fixture_categories():
    return [
        LatticeCategory(chain_lattice(2)),
        LatticeCategory(chain_lattice(3)),
        LatticeCategory(boolean4()),
        ConcreteCohCategory([frozenset({"x"})]),
        ConcreteCohCategory([frozenset({"x", "y"})]),
    ]


def test_coherent_topology_trivial_base():
    # one-point concrete category: only the maximal sieve covers the point
    C = ConcreteCohCategory([frozenset({"x"})])
    site = coherent_topology(C)
    covering = site.covering_sieves("{x}")
    assert covering == [frozenset(C.cat.morphisms_into("{x}"))]
    # the degenerate one-object lattice category: its subobject lattice
    # collapses, so even the empty sieve covers
    T = LatticeCategory(trivial_lattice())
    tsite = coherent_topology(T)
    assert tsite.covers("*", frozenset())


def minimal_covers_by_subset_scan(site, A):
    """Every family of morphisms into A, by size and then position in
    `morphisms_into(A)`, kept when it covers and contains no family kept
    before: the minimal covering families, found without pruning."""
    inc, found = site.cat.morphisms_into(A), []
    for r in range(len(inc) + 1):
        for fam in combinations(inc, r):
            if site.covers(A, fam) and not any(set(p) <= set(fam) for p in found):
                found.append(fam)
    return tuple(found)


# the concrete fragments of the site sweep in perfbench
SITE_SWEEP_FRAGMENTS = ((("x",),), (("x",), ("y",)), (("x", "y"),))


def test_coherent_topology_generators_match_the_subset_scan():
    cats = [LatticeCategory(L) for L in distributive_lattices(8)]
    cats += [
        ConcreteCohCategory([frozenset(s) for s in seeds])
        for seeds in SITE_SWEEP_FRAGMENTS
    ]
    for C in cats:
        site = coherent_topology(C)
        for A in C.cat.objects:
            assert site.generators[A] == minimal_covers_by_subset_scan(site, A)


def test_coherent_topology_of_a_long_chain_is_generated_by_identities():
    # a subset scan walks 2^18 families into the top; the pruned search
    # stops each family at its first redundant member
    C = LatticeCategory(chain_lattice(18))
    site = coherent_topology(C)
    assert site.generators["c0"] == ((),)
    for A in C.cat.objects[1:]:
        assert site.generators[A] == ((C.cat.identity(A),),)


def test_coherent_topology_point_inclusions_cover():
    C = ConcreteCohCategory([frozenset({"x", "y"})])
    site = coherent_topology(C)
    two = "{x,y}"
    incs = [
        f
        for f in C.cat.morphisms_into(two)
        if C.cat.src(f) in ("{x}", "{y}") and C.fun(f) in ({"x": "x"}, {"y": "y"})
    ]
    assert site.covers(two, incs)
    assert not site.covers(two, incs[:1])


def test_empty_object_covered_by_empty_family():
    C = ConcreteCohCategory([frozenset({"x"})])
    site = coherent_topology(C)
    assert site.covers("{}", frozenset())
    assert tuple() in site.generators["{}"]


def test_type_category_of_three_chain_has_three_objects():
    C = LatticeCategory(chain_lattice(3))
    tau = type_category(C)
    assert len(tau.objects) == 3


def test_filter_category_of_lattice_matches_filter_pred_category():
    # the filter category of L agrees with the predicate category of the
    # filter-lattice fibers: objects count and posetal homs
    from cohext.lattice import filters

    for L in [chain_lattice(2), chain_lattice(3), boolean4()]:
        C = LatticeCategory(L)
        lam = FilterCategory(C)
        expected_objects = sum(
            len(filters(C.sub_lattice(a))) for a in C.cat.objects
        )
        assert len(lam.objects) == expected_objects
        # posetal: hom sets have at most one germ
        for X in lam.cat.objects:
            for Y in lam.cat.objects:
                assert len(lam.cat.hom(X, Y)) <= 1


def test_one_object_filter_category():
    C = LatticeCategory(trivial_lattice())
    lam = FilterCategory(C)
    assert len(lam.objects) == 1


def test_germ_image_filter_formula():
    # image filter of a germ is { V | preimage in F }
    C = LatticeCategory(chain_lattice(3))
    lam = FilterCategory(C)
    for n, (X, Y, m) in lam.germ_data.items():
        A, F = lam.objects[X]
        B, G = lam.objects[Y]
        img = lam.image_filter(n)
        SB = C.sub_lattice(B)
        pb = C.pullback_map(m.mor)
        uo, um = C.subobject_object(A, m.dom)
        io = C.image_map(um)
        assert img == frozenset(V for V in SB.elements if io(pb(V)) in F)


def jp_cover_induced_oracle(tau: FilterCategory, X: str, sieve) -> bool:
    """Induced-coverage oracle: a finite subfamily such that, for every
    choice of filter members on the sources, the join of their images lies
    in the target filter.  Exponential; for tiny fixtures only."""
    A, F = tau.objects[X]
    C = tau.C
    S = C.sub_lattice(A)
    members = sorted(sieve)
    for r in range(1, len(members) + 1):
        for fam in combinations(members, r):
            datas = []
            for f in fam:
                Xf, _, m = tau.germ_data[f]
                datas.append((tau.objects[Xf], m))
            if _all_choices_land(C, S, F, datas):
                return True
    return False


def _all_choices_land(C, S, F, datas) -> bool:
    def image_of(member, U):
        (B, _), m = member
        SB = C.sub_lattice(B)
        rest = SB.meet(U, m.dom)
        ro, rm = C.subobject_object(B, rest)
        do, dm = C.subobject_object(B, m.dom)
        lifts = C.cat.factorizations(ro, do, ((dm, rm),))
        mor = C.cat.compose(m.mor, lifts[0])
        return C.image_map(mor)(C.sub_lattice(ro).top)

    def rec(i, acc):
        if i == len(datas):
            return S.join_all(acc) in F
        (_, FB), _ = datas[i]
        return all(
            rec(i + 1, acc + [image_of(datas[i], U)]) for U in sorted(FB)
        )

    return rec(0, [])


def test_jp_singleton_description_matches_induced_oracle():
    # on prime objects, a sieve covers iff a single member has full image
    for L in [chain_lattice(3), boolean4()]:
        tau = type_category(LatticeCategory(L))
        site = jp_site(tau)
        for X in tau.cat.objects:
            for sieve in site.all_sieves(X):
                if not sieve:
                    continue
                assert site.covers(X, sieve) == jp_cover_induced_oracle(
                    tau, X, sieve
                )


def sieves_oracle(site, A):
    """Every subset of the morphisms into A that is closed under
    precomposition, in bitmask order over `morphisms_into(A)`."""
    inc = site.cat.morphisms_into(A)
    out = []
    for mask in range(1 << len(inc)):
        s = frozenset(inc[i] for i in range(len(inc)) if mask >> i & 1)
        if all(
            site.cat.compose(f, g) in s
            for f in s
            for g in site.cat.morphisms_into(site.cat.src(f))
        ):
            out.append(s)
    return out


def concrete_fragments():
    return [
        ConcreteCohCategory([frozenset(s) for s in seeds])
        for seeds in ((("x",),), (("x",), ("y",)), (("x", "y"),))
    ]


def oracle_sites():
    """The jp, semidirect and irreducible sites over DL(<=4) and the three
    concrete fragments."""
    cats = [LatticeCategory(L) for L in distributive_lattices(4)]
    cats += concrete_fragments()
    for C in cats:
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
        yield jp_site(type_category(C))
        yield semidirect_site(C, X)
        yield irreducible_site(C, X)


def assert_every_sieve_once_in_order(site, A, sieves):
    """Without walking all subsets: each member is closed under
    precomposition, and the family holds the empty sieve and each principal
    sieve and is closed under union, so it holds every sieve, each being the
    union of the principal sieves of its members."""
    cat = site.cat
    inc = cat.morphisms_into(A)
    masks = [sum(1 << i for i, f in enumerate(inc) if f in s) for s in sieves]
    assert masks == sorted(set(masks))
    family = set(sieves)
    for s in family:
        assert all(cat.compose(f, g) in s for f in s for g in cat.morphisms_into(cat.src(f)))
    assert frozenset() in family
    for f in inc:
        principal = {f} | {cat.compose(f, g) for g in cat.morphisms_into(cat.src(f))}
        assert principal in family
    assert all(s | t in family for s in family for t in family)


def test_all_sieves_match_subset_oracle_in_order():
    checked = characterized = 0
    for site in oracle_sites():
        for A in site.cat.objects:
            if len(site.cat.morphisms_into(A)) > 16:
                # 2^25 subsets are too many for the oracle
                assert_every_sieve_once_in_order(site, A, site.all_sieves(A))
                characterized += 1
                continue
            assert site.all_sieves(A) == sieves_oracle(site, A)
            checked += 1
    assert checked == 87 and characterized == 1


def test_sieve_budget_refuses_up_front_at_the_same_bound():
    site = semidirect_site(
        LatticeCategory(boolean4()),
        canext_hyperdoctrine(sub_hyperdoctrine(LatticeCategory(boolean4()))),
    )
    A = max(site.cat.objects, key=lambda A: len(site.cat.morphisms_into(A)))
    n = len(site.all_sieves(A))
    assert len(site.all_sieves(A, budget=n)) == n
    with pytest.raises(BudgetError) as e:
        site.all_sieves(A, budget=n - 1)
    assert str(e.value) == f"sieve enumeration on {A} exceeds {n - 1} sieves; raise --budget"


def test_jp_cover_example_on_three_chain():
    C = LatticeCategory(chain_lattice(3))
    tau = type_category(C)
    site = jp_site(tau)
    # the object (c1, {c1}) is covered by a germ from (c1-as-subobject ...)
    src = filter_obj_name("c1", frozenset({"c1"}))
    assert src in tau.objects
    assert site.generators[src]


def test_semidirect_site_full_fiber_covers_match_coherent():
    # top-fiber objects of the semidirect site cover exactly as their base
    # objects do in the coherent topology
    C = LatticeCategory(chain_lattice(2))
    X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    site = semidirect_site(C, X)
    # no generating families are listed, so looking one up fails loudly
    assert site.generators == {}
    coh = coherent_topology(C)
    for nx, (A, u) in site.obj_data.items():
        if u != X.fiber(A).top:
            continue
        for fams in coh.generators[A]:
            lifted = [
                n
                for n in site.cat.morphisms_into(nx)
                if site.mor_data[n] in fams
                and site.obj_data[site.cat.src(n)][1]
                == X.fiber(site.obj_data[site.cat.src(n)][0]).top
            ]
            if len(lifted) == len(fams):
                assert site.covers(nx, lifted)


def test_sheaf_check_on_fixtures():
    for C in fixture_categories():
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
        ok, w = sheaf_check(C, X)
        assert ok, w
        ok, w = unique_glueing_check(C, X)
        assert ok, w


def matching_families_oracle(C, X, sieve):
    """Every family on the sorted sieve, built as a product and then
    filtered by agreement along precomposition."""
    sieve = sorted(sieve)
    fams = [dict()]
    for f in sieve:
        fams = [{**fam, f: u} for fam in fams for u in X.fiber(C.cat.src(f)).elements]
    return [
        fam
        for fam in fams
        if all(
            X.sub(g)(fam[f]) == fam[C.cat.compose(f, g)]
            for f in sieve
            for g in C.cat.morphisms_into(C.cat.src(f))
            if C.cat.compose(f, g) in fam
        )
    ]


def test_matching_families_match_product_filter_oracle():
    cats = fixture_categories() + [LatticeCategory(L) for L in distributive_lattices(4)]
    compared = 0
    for C in cats:
        site = coherent_topology(C)
        for X in (sub_hyperdoctrine(C), canext_hyperdoctrine(sub_hyperdoctrine(C))):
            for A in C.cat.objects:
                for sieve in site.covering_sieves(A):
                    got = _matching_families(C, X, sieve)
                    expected = matching_families_oracle(C, X, sieve)
                    assert [list(f.items()) for f in got] == [
                        list(f.items()) for f in expected
                    ]
                    compared += 1
    assert compared == 84


def test_sheaf_check_is_conclusive_on_every_lattice_of_eight_elements():
    # the budget counts the matching families found, not the product of
    # the fiber sizes along the sieve, which passes 4,096 on 14 of them
    lats = [L for L in distributive_lattices(8) if len(L.elements) == 8]
    assert len(lats) == 15
    for L in lats:
        C = LatticeCategory(L)
        assert sheaf_check(C, canext_hyperdoctrine(sub_hyperdoctrine(C))) == (True, None)


def test_sheaf_check_fails_on_doctored_presheaf():
    # flattening one substitution map to constant top creates multiple
    # amalgamations for the two-atom cover of the diamond's top object
    C = LatticeCategory(boolean4())
    X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    from cohext.hyperdoctrine import CoherentHyperdoctrine
    from cohext.lattice import LatticeHom, MonotoneMap

    subst = dict(X.subst)
    f = "le(a,1)"
    old = subst[f]
    subst[f] = MonotoneMap(
        old.source, old.target,
        {u: old.target.top for u in old.source.elements},
    )
    doctored = CoherentHyperdoctrine(X.base, X.fibers, subst, X.exists, X.limits)
    ok, w = sheaf_check(C, doctored)
    assert not ok and w


def test_topology_coincidence_on_fixtures():
    for C in fixture_categories()[:3]:
        ok, checked, note = topology_coincidence_check(C)
        assert ok, note
        assert checked > 0


def coincidence_closure_oracle(C, X=None):
    """The coincidence check as a walk over every sieve of every object, in
    `all_sieves` order, where every admitted image enters the closure."""
    if X is None:
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    site = semidirect_site(C, X)
    coh = sites.coherent_topology(C)
    checked = 0
    for nx, (A, _) in site.obj_data.items():
        FA = X.fiber(A)
        admitted = []
        for n in site.cat.morphisms_into(nx):
            B, w = site.obj_data[site.cat.src(n)]
            gamma = site.mor_data[n]
            admitted.append((site.image[n], [
                frozenset(
                    semidirect_mor_name(
                        C.cat.compose(gamma, g),
                        semidirect_obj_name(C.cat.src(g), X.sub(g)(w)),
                        nx,
                    )
                    for g in fam
                )
                for fam in coh.generators[B]
            ]))
        for sieve in site.all_sieves(nx):
            plain = FA.join_all(site.image[n] for n in sieve)
            closure = FA.join_all(
                [plain]
                + [x for x, fams in admitted if any(fam <= sieve for fam in fams)]
            )
            checked += 1
            if closure != plain:
                return False, checked, (
                    f"sieve on {nx}: closure join {closure} != plain {plain}"
                )
    return True, checked, None


def covered_by_nothing(real):
    """Mutant covers: `real`'s generators with the empty family added first
    to every object's covers, so each sieve admits every image into its
    object and the closure overshoots the plain join of the empty sieve."""

    def topology(C):
        return SimpleNamespace(
            generators={B: [()] + list(fams) for B, fams in real(C).generators.items()}
        )

    return topology


def test_topology_coincidence_fails_with_the_full_closure_witness(monkeypatch):
    monkeypatch.setattr(sites, "coherent_topology", covered_by_nothing(sites.coherent_topology))
    failures = 0
    for C in [LatticeCategory(L) for L in distributive_lattices(6)] + concrete_fragments():
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
        ok, _, witness = topology_coincidence_check(C, X)
        want_ok, _, want_witness = coincidence_closure_oracle(C, X)
        assert (ok, witness) == (want_ok, want_witness)
        failures += not ok
    # all but the one-element lattice, whose fibers have one element
    assert failures == 13 + 3 - 1


def generated_sieves_per_object(C, X):
    """For each object nx of the semidirect site, in order, the distinct
    sieves generated by the composites n o g~_k, for each n : (B, w) -> nx
    and each cover (g_k) of B, where g~_k : (C_k, g_k^* w) -> (B, w) is
    g_k's lift; the composites and their sieves are taken in the site's own
    composition table."""
    site = semidirect_site(C, X)
    cat, coh = site.cat, sites.coherent_topology(C)
    out = {}
    for nx in site.obj_data:
        generated = set()
        for n in cat.morphisms_into(nx):
            src = cat.src(n)
            B, w = site.obj_data[src]
            for fam in coh.generators[B]:
                members = [
                    cat.compose(n, semidirect_mor_name(
                        g, semidirect_obj_name(C.cat.src(g), X.sub(g)(w)), src
                    ))
                    for g in fam
                ]
                generated.add(frozenset(
                    cat.compose(f, h) for f in members for h in cat.morphisms_into(cat.src(f))
                ))
        out[nx] = len(generated)
    return out


def test_topology_coincidence_on_generated_sieves_matches_the_closure_walk(monkeypatch):
    """The check tests only the sieves that cover families generate.  Over
    DL(<=8) and the three fragments, as built and under the mutant covers:
    the verdict and witness are the all-sieves walk's, and the count is the
    distinct generated sieves of the objects up to the failing one."""
    cats = [LatticeCategory(L) for L in distributive_lattices(8)] + concrete_fragments()
    Xs = [canext_hyperdoctrine(sub_hyperdoctrine(C)) for C in cats]
    outcomes = []
    for mutate in (False, True):
        if mutate:
            monkeypatch.setattr(
                sites, "coherent_topology", covered_by_nothing(sites.coherent_topology)
            )
        for C, X in zip(cats, Xs):
            ok, checked, witness = topology_coincidence_check(C, X)
            want_ok, _, want_witness = coincidence_closure_oracle(C, X)
            assert (ok, witness) == (want_ok, want_witness)
            counts, want = generated_sieves_per_object(C, X), 0
            for nx, count in counts.items():
                want += count
                if not ok and witness.startswith(f"sieve on {nx}:"):
                    break
            assert checked == want
            outcomes.append(ok)
    assert len(outcomes) == 78
    assert outcomes[:39] == [True] * 39
    # the one-element lattice passes: its fibers have one element
    assert outcomes[39:].count(True) == 1


def test_topology_coincidence_budget_report():
    """A cut names the first object with more generated sieves than the
    budget, and the generated sieves of the objects before it."""
    C = LatticeCategory(boolean4())
    with pytest.raises(BudgetError) as e:
        topology_coincidence_check(C, budget=2)
    checked = 0
    for nx, n in generated_sieves_per_object(
        C, canext_hyperdoctrine(sub_hyperdoctrine(C))
    ).items():
        if n > 2:
            break
        checked += n
    assert str(e.value) == (
        f"after {checked} generated sieves checked, generated sieves on {nx} "
        "exceed 2; raise --budget"
    )


def topology_coincidence_oracle(C):
    """The coincidence check as first written: for every sieve, a walk over
    the base objects, their morphisms into A, the fiber elements below the
    pulled-back u and the coherent covers, testing cover members one by one
    against the sieve, with the left adjoints computed afresh."""
    X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    site = semidirect_site(C, X)
    coh = coherent_topology(C)
    adjoints = {f: X.sub(f).left_adjoint() for f in X.base.morphisms}
    checked = 0
    for nx, (A, u) in site.obj_data.items():
        FA = X.fiber(A)
        for sieve in site.all_sieves(nx):
            plain = FA.join_all(
                adjoints[site.mor_data[n]](site.obj_data[site.cat.src(n)][1])
                for n in sieve
            )
            closure = plain
            for B in C.cat.objects:
                for gamma in C.cat.hom(B, A):
                    for w in X.fiber(B).elements:
                        if not X.fiber(B).leq(w, X.sub(gamma)(u)):
                            continue
                        for fam in coh.generators[B]:
                            ok = True
                            for gk in fam:
                                member = semidirect_mor_name(
                                    C.cat.compose(gamma, gk),
                                    semidirect_obj_name(C.cat.src(gk), X.sub(gk)(w)),
                                    nx,
                                )
                                if member not in sieve:
                                    ok = False
                                    break
                            if ok:
                                closure = FA.join(closure, adjoints[gamma](w))
                                break
            checked += 1
            if closure != plain:
                return False, checked, (
                    f"sieve on {nx}: closure join {closure} != plain {plain}"
                )
    return True, checked, None


def test_topology_coincidence_matches_the_per_sieve_oracle():
    cats = [LatticeCategory(L) for L in distributive_lattices(6)]
    cats += concrete_fragments()
    for C in cats:
        ok, _, witness = topology_coincidence_check(C)
        assert (ok, witness) == topology_coincidence_oracle(C)[::2]
        assert (ok, witness) == coincidence_closure_oracle(C)[::2]


def test_site_covers_read_tables_built_with_the_site(monkeypatch):
    from cohext.lattice import MonotoneMap

    calls = []

    def count(cls, name):
        original = getattr(cls, name)

        def counted(self, *args):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)

    sites = []
    for C in [LatticeCategory(boolean4()), *concrete_fragments()]:
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
        count(MonotoneMap, "left_adjoint")
        irreducible_site(C, X)
        # the irreducible site reuses the adjoints of its semidirect site
        assert len(calls) == len(X.base.morphisms)
        monkeypatch.undo()
        calls.clear()
        sites += [coherent_topology(C), jp_site(type_category(C)), irreducible_site(C, X)]
    count(ConcreteCohCategory, "image_map")
    count(LatticeCategory, "image_map")
    count(FilterCategory, "image_filter")
    count(MonotoneMap, "left_adjoint")
    decided = 0
    for site in sites:
        for A in site.cat.objects:
            for sieve in site.all_sieves(A):
                site.covers(A, sieve)
                decided += 1
    assert calls == [] and decided > 0


def test_localic_tot_reports():
    expected = {2: 1, 3: 2}
    for n, pts in expected.items():
        rep = localic_tot_for_lattice(chain_lattice(n))
        assert rep.passed and rep.type_objects == pts
    rep = localic_tot_for_lattice(boolean4())
    assert rep.passed and rep.type_objects == 2


def test_comparison_lemma_on_fixtures():
    for C in fixture_categories():
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
        D = irreducible_site(C, X)
        tau = type_category(C)
        e = irreducible_to_types(C, X, D, tau)
        rep = comparison_check(e, D, jp_site(tau))
        assert rep.passed, rep.witness


def test_mutated_site_fails_exactly_cover_preservation():
    C = LatticeCategory(chain_lattice(3))
    X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    D = mutated_comparison_source(C, X)
    tau = type_category(C)
    e = irreducible_to_types(C, X, D, tau)
    rep = comparison_check(e, D, jp_site(tau))
    assert not rep.cover_preserving
    assert rep.witness
    assert rep.locally_full and rep.locally_faithful
    assert rep.locally_surjective and rep.co_continuous


def comparison_all_sieves_oracle(e, source, target):
    """The comparison conditions quantified over every covering sieve,
    not only the generated ones; no budget applies."""
    def covering(site, A):
        return site.covering_sieves(A, budget=1 << 64)

    def locally_full_at(CC, D, g):
        return any(
            all(
                any(
                    e.target.compose(g, e.on_mor(xi)) == e.on_mor(fi)
                    for fi in source.cat.hom(source.cat.src(xi), D)
                )
                for xi in sieve
            )
            for sieve in covering(source, CC)
        )

    def locally_equalized(CC, f1, f2):
        return any(
            all(source.cat.compose(f1, xi) == source.cat.compose(f2, xi) for xi in sieve)
            for sieve in covering(source, CC)
        )

    witnesses = {}
    cover_preserving = True
    for D in source.cat.objects:
        for s in covering(source, D):
            image = target.sieve_generated(e.on_obj(D), [e.on_mor(f) for f in s])
            if not target.covers(e.on_obj(D), image):
                cover_preserving = False
                witnesses.setdefault("cover-preserving", f"a cover of {D} is not preserved")
    locally_full = True
    for CC in source.cat.objects:
        for D in source.cat.objects:
            for g in target.cat.hom(e.on_obj(CC), e.on_obj(D)):
                if not locally_full_at(CC, D, g):
                    locally_full = False
                    witnesses.setdefault("locally-full", f"morphism {g} has no local lift")
    locally_faithful = True
    for CC in source.cat.objects:
        for D in source.cat.objects:
            homs = source.cat.hom(CC, D)
            for i, f1 in enumerate(homs):
                for f2 in homs[i + 1:]:
                    if e.on_mor(f1) == e.on_mor(f2) and not locally_equalized(CC, f1, f2):
                        locally_faithful = False
                        witnesses.setdefault(
                            "locally-faithful", f"{f1},{f2} not locally equalized"
                        )
    locally_surjective = True
    image_objs = {e.on_obj(A) for A in source.cat.objects}
    for X in target.cat.objects:
        inc = [f for f in target.cat.morphisms_into(X) if target.cat.src(f) in image_objs]
        if not target.covers(X, target.sieve_generated(X, inc)):
            locally_surjective = False
            witnesses.setdefault(
                "locally-surjective", f"object {X} has no cover from the image"
            )
    co_continuous = True
    for D in source.cat.objects:
        for s in covering(target, e.on_obj(D)):
            pulled = frozenset(
                f
                for f in source.cat.morphisms_into(D)
                if any(
                    target.cat.factorizations(
                        e.on_obj(source.cat.src(f)), target.cat.src(xi),
                        ((xi, e.on_mor(f)),),
                    )
                    for xi in s
                )
            )
            if not source.covers(D, pulled):
                co_continuous = False
                witnesses.setdefault(
                    "co-continuous", f"a cover of {e.on_obj(D)} does not pull back to {D}"
                )
    return ComparisonReport(
        cover_preserving, locally_full, locally_faithful, locally_surjective,
        co_continuous, witnesses,
    )


def test_comparison_report_keeps_one_witness_per_condition():
    C = LatticeCategory(chain_lattice(3))
    X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    tau = type_category(C)
    source = mutated_comparison_source(C, X)
    rep = comparison_check(irreducible_to_types(C, X, source, tau), source, jp_site(tau))
    assert list(rep.witnesses) == ["cover-preserving"]
    assert rep.witness == rep.witnesses["cover-preserving"]
    assert not rep.cover_preserving and rep.locally_full and rep.co_continuous


def test_comparison_check_matches_the_all_sieves_oracle():
    cats = [LatticeCategory(L) for L in distributive_lattices(6)]
    cats += [ConcreteCohCategory(seeds) for seeds in concrete_universes(3)]
    reports = failing = 0
    for C in cats:
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
        tau = type_category(C)
        target = jp_site(tau)
        for source in (irreducible_site(C, X), mutated_comparison_source(C, X)):
            e = irreducible_to_types(C, X, source, tau)
            rep = comparison_check(e, source, target)
            assert rep == comparison_all_sieves_oracle(e, source, target)
            reports += 1
            failing += not rep.passed
    assert (reports, failing) == (34, 15)


def test_type_category_is_irreducible_part_of_pred_category():
    # the type category agrees object- and morphism-wise with the full
    # subcategory of the predicate category of the extended fibers on the
    # pairs (A, x) with x join irreducible
    from cohext.lattice import is_join_irreducible
    from cohext.predcat import PredCategory

    for L in [chain_lattice(3), boolean4()]:
        C = LatticeCategory(L)
        Sd = canext_hyperdoctrine(sub_hyperdoctrine(C))
        AP = PredCategory(Sd)
        tau = type_category(C)
        keep = {
            X: (A, x)
            for X, (A, x) in AP.obj_data.items()
            if is_join_irreducible(Sd.fiber(A), x)
        }
        assert len(keep) == len(tau.cat.objects)
        # match objects through the prime filter of embedded subobjects
        tau_of = {}
        for X, (A, x) in keep.items():
            rho = frozenset(
                U
                for U in C.sub_lattice(A).elements
                if Sd.fiber(A).leq(x, Sd.fiber_ext[A].e(U))
            )
            tau_of[X] = filter_obj_name(A, rho)
        assert sorted(tau_of.values()) == sorted(tau.cat.objects)
        for X in keep:
            for Y in keep:
                pred_homs = [
                    n
                    for n in AP.cat.hom(X, Y)
                ]
                assert len(pred_homs) == len(
                    tau.cat.hom(tau_of[X], tau_of[Y])
                ), (X, Y)


def test_locale_surjection_for_conservative_functor():
    L2, L3 = chain_lattice(2), chain_lattice(3)
    F = lattice_hom_functor(
        LatticeHom(L2, L3, {"c0": "c0", "c1": "c2"}),
        LatticeCategory(L2), LatticeCategory(L3),
    )
    m = locale_morphism(F, LatticeCategory(L2), LatticeCategory(L3))
    ok, w = surjection_check(m)
    assert ok, w


def test_locale_open_for_heyting_functor():
    L2, L3 = chain_lattice(2), chain_lattice(3)
    F = lattice_hom_functor(
        LatticeHom(L2, L3, {"c0": "c0", "c1": "c2"}),
        LatticeCategory(L2), LatticeCategory(L3),
    )
    m = locale_morphism(F, LatticeCategory(L2), LatticeCategory(L3))
    ok, w = open_check(m)
    assert ok, w


def test_functor_checks_share_one_build_of_each_subobject_map(monkeypatch):
    # the coherence, Heyting and conservativity checks and the locale
    # morphism all read F's subobject maps: each is built once, on F
    from cohext.cohcat import (
        CohCategory,
        check_conservative,
        check_heyting_functor,
        functor_sub_map,
    )

    C, D = LatticeCategory(chain_lattice(2)), LatticeCategory(chain_lattice(3))
    F = lattice_hom_functor(
        LatticeHom(C.lattice, D.lattice, {"c0": "c0", "c1": "c2"}), C, D
    )
    calls = []
    original = CohCategory.subobject_of_mono

    def counted(self, m):
        calls.append(m)
        return original(self, m)

    monkeypatch.setattr(CohCategory, "subobject_of_mono", counted)
    locale_morphism(F, C, D)
    assert check_heyting_functor(F, C, D) and check_conservative(F, C, D)
    # one subobject_of_mono per subobject, in the one build per object
    assert len(calls) == sum(len(C.sub_lattice(A).elements) for A in C.cat.objects)
    assert functor_sub_map(F, C, D, "c1") is functor_sub_map(F, C, D, "c1")


def test_functor_checks_share_one_coherence_check(monkeypatch):
    # the locale morphism, the Heyting check, the p-model check and the
    # universal factorization each need F coherent: it is decided once, on F
    import cohext.cohcat as cohcat
    from cohext.cohcat import check_heyting_functor
    from cohext.predcat import pmodel_witness, universal_factorization

    C, D = LatticeCategory(chain_lattice(2)), LatticeCategory(chain_lattice(3))
    F = lattice_hom_functor(
        LatticeHom(C.lattice, D.lattice, {"c0": "c0", "c1": "c2"}), C, D
    )
    calls = []
    original = cohcat._is_equalizer
    monkeypatch.setattr(
        cohcat, "_is_equalizer", lambda *args: calls.append(args) or original(*args)
    )
    locale_morphism(F, C, D)
    assert check_heyting_functor(F, C, D)
    assert pmodel_witness(F, C, D) is None
    universal_factorization(F, C, D)
    # one equalizer test per parallel pair f <= g of C, in the one check
    pairs = [
        (f, g)
        for f, m in C.cat.morphisms.items()
        for g, n in C.cat.morphisms.items()
        if (m.src, m.tgt) == (n.src, n.tgt) and f <= g
    ]
    assert len(calls) == len(pairs) > 0


def test_locale_checks_fail_for_collapse():
    L2, L3 = chain_lattice(2), chain_lattice(3)
    G = lattice_hom_functor(
        LatticeHom(L3, L2, {"c0": "c0", "c1": "c0", "c2": "c1"}),
        LatticeCategory(L3), LatticeCategory(L2),
    )
    m = locale_morphism(G, LatticeCategory(L3), LatticeCategory(L2))
    ok, w = surjection_check(m)
    assert not ok and w
    ok, w = open_check(m)
    assert not ok and w


def test_factorization_rejects_non_coherent():
    """The locale morphism, the localic leg of the factorization, refuses a
    functor that is not coherent."""
    C2 = LatticeCategory(chain_lattice(2))
    const = FinFunctor(
        C2.cat, C2.cat,
        {A: "c1" for A in C2.cat.objects},
        {f: C2.cat.identity("c1") for f in C2.cat.morphisms},
    )
    with pytest.raises(CategoryError):
        locale_morphism(const, C2, C2)


def test_filter_category_matches_pred_of_filter_hyperdoctrine():
    # the germ construction agrees with the predicate category of the
    # filter-lattice hyperdoctrine, object- and hom-count-wise
    from cohext.hyperdoctrine import validate
    from cohext.predcat import PredCategory
    from cohext.sites import filter_hyperdoctrine

    for L in [chain_lattice(2), chain_lattice(3), boolean4()]:
        C = LatticeCategory(L)
        FlS = filter_hyperdoctrine(C)
        assert validate(FlS).passed, validate(FlS).failures()
        AP = PredCategory(FlS)
        lam = FilterCategory(C)
        assert len(AP.cat.objects) == len(lam.objects)
        # object correspondence: (A, filter-name) vs (A, filter set)
        pair_of = {}
        for X, (A, Fn) in AP.obj_data.items():
            Fset = FlS.fiber(A).decode[Fn]
            pair_of[X] = filter_obj_name(A, Fset)
        assert sorted(pair_of.values()) == sorted(lam.objects)
        for X in AP.cat.objects:
            for Y in AP.cat.objects:
                assert len(AP.cat.hom(X, Y)) == len(
                    lam.cat.hom(pair_of[X], pair_of[Y])
                ), (X, Y)


def all_pullback_squares(C) -> list:
    """Every cospan of C that has a pullback cone among the objects, found
    by its universal property.  Quadratic in the morphism count; for small
    fragments."""
    from cohext.cohcat import PullbackSquare

    cat = C.cat

    def is_pullback(alpha, beta, Q, pA, pB) -> bool:
        return all(
            len(cat.factorizations(Z, Q, ((pA, u), (pB, v)))) == 1
            for Z in cat.objects
            for u in cat.hom(Z, cat.src(alpha))
            for v in cat.hom(Z, cat.src(beta))
            if cat.compose(alpha, u) == cat.compose(beta, v)
        )

    def first_square(alpha, beta):
        for Q in cat.objects:
            for pA in cat.hom(Q, cat.src(alpha)):
                for pB in cat.hom(Q, cat.src(beta)):
                    if cat.compose(alpha, pA) == cat.compose(
                        beta, pB
                    ) and is_pullback(alpha, beta, Q, pA, pB):
                        return PullbackSquare(alpha, beta, Q, pB, pA)
        return None

    squares = (
        first_square(alpha, beta)
        for alpha in sorted(cat.morphisms)
        for beta in cat.morphisms_into(cat.tgt(alpha))
    )
    return [sq for sq in squares if sq is not None]


def test_exhaustive_pullback_square_mode():
    # checking the substitution/image exchange on every realizable pullback
    # square, not only the chosen ones
    from cohext.hyperdoctrine import BaseLimits, CoherentHyperdoctrine, validate

    for C in [
        ConcreteCohCategory([frozenset({"x", "y"})]),
        LatticeCategory(boolean4()),
    ]:
        P = sub_hyperdoctrine(C)
        limits = replace(BaseLimits.from_cohcat(C), squares=tuple(all_pullback_squares(C)))
        assert len(limits.squares) >= len(C.chosen_squares()) or limits.squares
        P_ex = CoherentHyperdoctrine(P.base, P.fibers, P.subst, P.exists, limits)
        rep = validate(P_ex)
        assert rep.passed, rep.failures()


def assert_same_category(got, want):
    assert got.objects == want.objects
    assert list(got.morphisms.items()) == list(want.morphisms.items())
    assert list(got.comp.items()) == list(want.comp.items())
    assert got.identities == want.identities  # looked up by object only


class OracleFilterCategory(FilterCategory):
    """The filter category built from the definition of a germ: every
    local map out of every member of the source filter is listed, the maps
    are placed into classes by pairwise germ equivalence, classes are
    merged until no two hold equivalent maps, a local map is named by
    scanning the classes, and two germs compose by restricting twice."""

    def __init__(self, C, prime_only=False):
        self.C = C
        self.objects = {}
        for A in C.cat.objects:
            S = C.sub_lattice(A)
            for F in prime_filters(S) if prime_only else filters(S):
                self.objects[filter_obj_name(A, F)] = (A, F)
        self._classes = {}
        self.germ_data = {}
        morphisms = {}
        for X, (A, F) in self.objects.items():
            for Y, (B, G) in self.objects.items():
                classes = self._germ_classes(A, F, B, G)
                self._classes[(X, Y)] = classes
                for cls in classes:
                    n = f"germ[{cls[0].dom};{cls[0].mor}]:{X}->{Y}"
                    morphisms[n] = Morphism(n, X, Y)
                    self.germ_data[n] = (X, Y, cls[0])
        identities = {}
        for X, (A, F) in self.objects.items():
            S = C.sub_lattice(A)
            identities[X] = self.germ_of(X, X, S.top, C.cat.identity(A))
        comp = {}
        for f, g in composable_pairs(morphisms):
            m1, m2 = self.germ_data[f.name][2], self.germ_data[g.name][2]
            comp[(g.name, f.name)] = self._compose_germs(f.src, f.tgt, g.tgt, m1, m2)
        self.cat = FinCategory(tuple(sorted(self.objects)), morphisms, comp, identities)

    def _equivalent(self, A, F, m1, m2):
        S = self.C.sub_lattice(A)
        meet = S.meet(m1.dom, m2.dom)
        for U in sorted(F):
            if not S.leq(U, meet):
                continue
            if self._restrict_local(A, m1, U) == self._restrict_local(A, m2, U):
                return True
        return False

    def _germ_classes(self, A, F, B, G):
        classes = []
        for m in self._local_maps(A, F, B, G):
            placed = False
            for cls in classes:
                if any(self._equivalent(A, F, x, m) for x in cls):
                    cls.append(m)
                    placed = True
                    break
            if not placed:
                classes.append([m])
        merged = True
        while merged:
            merged = False
            for i in range(len(classes)):
                for j in range(i + 1, len(classes)):
                    if any(
                        self._equivalent(A, F, x, y)
                        for x in classes[i]
                        for y in classes[j]
                    ):
                        classes[i].extend(classes[j])
                        del classes[j]
                        merged = True
                        break
                if merged:
                    break
        for cls in classes:
            cls.sort(key=lambda m: (m.dom, m.mor))
        classes.sort(key=lambda cls: (cls[0].dom, cls[0].mor))
        return classes

    def germ_of(self, X, Y, dom, mor):
        m = LocalMap(dom, mor)
        A, F = self.objects[X]
        for cls in self._classes[(X, Y)]:
            if any(c == m or self._equivalent(A, F, c, m) for c in cls):
                return f"germ[{cls[0].dom};{cls[0].mor}]:{X}->{Y}"
        raise CategoryError(f"local map ({m.dom},{m.mor}) not a germ {X} -> {Y}")

    def _local_maps(self, A, F, B, G):
        C = self.C
        out = []
        for U in sorted(F):
            uo, um = C.subobject_object(A, U)
            io = C.image_map(um)
            for mor in C.cat.hom(uo, B):
                pb = C.pullback_map(mor)
                if all(io(pb(V)) in F for V in G):
                    out.append(LocalMap(U, mor))
        return out

    def _compose_germs(self, X, Y, Z, m1, m2):
        """Germ of m2 o m1 : X -> Z, restricting m1 to the preimage of the
        domain of m2."""
        C = self.C
        A, _ = self.objects[X]
        B, _ = self.objects[Y]
        _, um = C.subobject_object(A, m1.dom)
        dom = C.image_map(um)(C.pullback_map(m1.mor)(m2.dom))
        r = self._restrict_local(A, m1, dom)
        to, tm = C.subobject_object(B, m2.dom)
        lifts = C.cat.factorizations(C.cat.src(r), to, ((tm, r),))
        if len(lifts) != 1:
            raise CategoryError("restricted map does not factor through the domain")
        return self.germ_of(X, Z, dom, C.cat.compose(m2.mor, lifts[0]))

    def image_filter(self, germ_name):
        """The filter { V | the preimage of V is in F } on the target."""
        X, Y, m = self.germ_data[germ_name]
        A, F = self.objects[X]
        B, _ = self.objects[Y]
        C = self.C
        _, um = C.subobject_object(A, m.dom)
        pb = C.pullback_map(m.mor)
        io = C.image_map(um)
        return frozenset(V for V in C.sub_lattice(B).elements if io(pb(V)) in F)


def germ_oracle_cases():
    """Lattice categories of DL(<=5) and the three concrete fragments."""
    return [LatticeCategory(L) for L in distributive_lattices(5)] + concrete_fragments()


@pytest.mark.parametrize("prime_only", [False, True], ids=["filter", "type"])
def test_germs_keyed_by_least_member_match_equivalence_closure(prime_only):
    # the oracle names a germ after its least local map in (dom, mor)
    # order, whose domain need not be the least filter member, and lists
    # germs in the order of those maps; so the categories agree under the
    # renaming of each germ to the oracle's germ of its representative
    for C in germ_oracle_cases():
        got = FilterCategory(C, prime_only)
        want = OracleFilterCategory(C, prime_only)
        rename = {
            n: want.germ_of(X, Y, m.dom, m.mor)
            for n, (X, Y, m) in got.germ_data.items()
        }
        assert list(rename) == list(got.cat.morphisms)
        assert len(set(rename.values())) == len(rename)
        assert set(rename.values()) == set(want.cat.morphisms)
        assert list(got.objects.items()) == list(want.objects.items())
        assert got.cat.objects == want.cat.objects
        for n, m in got.cat.morphisms.items():
            w = want.cat.morphisms[rename[n]]
            assert (m.src, m.tgt) == (w.src, w.tgt)
            assert got.image_filter(n) == want.image_filter(rename[n])
        assert {
            (rename[g], rename[f]): rename[h] for (g, f), h in got.cat.comp.items()
        } == want.cat.comp
        assert {
            X: rename[i] for X, i in got.cat.identities.items()
        } == want.cat.identities


def test_germs_are_named_by_their_map_out_of_the_least_member():
    # the filter {1, a} of Sub(1) in the four-element boolean lattice has
    # least member a, so its identity germ is named by the inclusion of a,
    # not by the identity on 1, whose domain sorts first
    C = LatticeCategory(boolean4())
    lam = FilterCategory(C)
    X = filter_obj_name("1", frozenset({"1", "a"}))
    assert X == "(1,{1,a})"
    assert lam.cat.identity(X) == "germ[a;le(a,1)]:(1,{1,a})->(1,{1,a})"
    for n, (X, Y, m) in lam.germ_data.items():
        A, F = lam.objects[X]
        assert m.dom == C.sub_lattice(A).meet_all(F)
        assert n == f"germ[{m.dom};{m.mor}]:{X}->{Y}"


def test_germ_of_refuses_a_domain_outside_the_source_filter():
    C = LatticeCategory(chain_lattice(3))
    tau = type_category(C)
    oracle = OracleFilterCategory(C, prime_only=True)
    refused = 0
    for X, (A, F) in tau.objects.items():
        for U in C.sub_lattice(A).elements:
            if U in F:
                continue
            _, um = C.subobject_object(A, U)
            with pytest.raises(CategoryError, match="not a germ") as e:
                tau.germ_of(X, X, U, um)
            with pytest.raises(CategoryError) as e_oracle:
                oracle.germ_of(X, X, U, um)
            assert str(e.value) == str(e_oracle.value)
            refused += 1
    assert refused > 0


def semidirect_site_oracle(C, X, keep=lambda A, u: True):
    """`semidirect_site` as it was before it read the fiber orders and
    substitution tables directly: a method call per order test and one
    formatted name per composable pair."""
    base = X.base
    omap = {}
    for A in base.objects:
        for u in X.fiber(A).elements:
            if keep(A, u):
                omap[semidirect_obj_name(A, u)] = (A, u)
    morphisms, identities, comp, mdata = {}, {}, {}, {}
    for nx, (A, u) in omap.items():
        for ny, (B, v) in omap.items():
            for f in base.hom(A, B):
                if X.fiber(A).leq(u, X.sub(f)(v)):
                    n = semidirect_mor_name(f, nx, ny)
                    morphisms[n] = Morphism(n, nx, ny)
                    mdata[n] = f
    for nx, (A, u) in omap.items():
        identities[nx] = semidirect_mor_name(base.identity(A), nx, nx)
    for m1, m2 in composable_pairs(morphisms):
        comp[(m2.name, m1.name)] = semidirect_mor_name(
            base.compose(mdata[m2.name], mdata[m1.name]), m1.src, m2.tgt
        )
    cat = FinCategory(tuple(sorted(omap)), morphisms, comp, identities)
    adjoints = {f: X.sub(f).left_adjoint() for f in base.morphisms}
    image = {n: adjoints[mdata[n]](omap[m.src][1]) for n, m in morphisms.items()}
    return SemidirectSite(cat, None, {}, obj_data=omap, mor_data=mdata, image=image)


def test_semidirect_site_matches_the_pairwise_builder():
    cases = [LatticeCategory(L) for L in distributive_lattices(8)] + concrete_fragments()
    built = 0
    for C in cases:
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))

        def irreducible(A, x):
            return is_join_irreducible(X.fiber(A), x)

        for keep in (lambda A, u: True, irreducible):
            got, want = semidirect_site(C, X, keep), semidirect_site_oracle(C, X, keep)
            assert_same_category(got.cat, want.cat)
            assert list(got.obj_data.items()) == list(want.obj_data.items())
            assert list(got.mor_data.items()) == list(want.mor_data.items())
            assert list(got.image.items()) == list(want.image.items())
            built += 1
    assert built == 2 * (36 + 3)


def irreducible_site_oracle(C, X):
    """The irreducible site as built before `semidirect_site` took an
    object filter: the full semidirect site cut down by hand."""
    full = semidirect_site(C, X)
    keep = {
        n
        for n, (A, x) in full.obj_data.items()
        if is_join_irreducible(X.fiber(A), x)
    }
    objects = tuple(sorted(keep))
    morphisms = {
        n: m
        for n, m in full.cat.morphisms.items()
        if m.src in keep and m.tgt in keep
    }
    comp = {
        k: v
        for k, v in full.cat.comp.items()
        if k[0] in morphisms and k[1] in morphisms
    }
    identities = {A: full.cat.identities[A] for A in objects}
    cat = FinCategory(objects, morphisms, comp, identities)
    adjoints = {f: X.sub(f).left_adjoint() for f in X.base.morphisms}
    omap = {n: full.obj_data[n] for n in objects}
    mdata = {n: full.mor_data[n] for n in morphisms}

    def covers(nx, sieve) -> bool:
        _, x = omap[nx]
        for n in sieve:
            _, z = omap[cat.src(n)]
            if adjoints[mdata[n]](z) == x:
                return True
        return False

    gens = {}
    for nx in objects:
        fams = [(n,) for n in cat.morphisms_into(nx) if covers(nx, (n,))]
        gens[nx] = tuple(sorted(fams))
    image = {n: adjoints[mdata[n]](omap[m.src][1]) for n, m in morphisms.items()}
    return SemidirectSite(
        cat, covers, gens, obj_data=omap, mor_data=mdata, image=image
    )


def test_irreducible_site_matches_the_hand_restricted_semidirect_site():
    for C in germ_oracle_cases():
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
        got, want = irreducible_site(C, X), irreducible_site_oracle(C, X)
        assert_same_category(got.cat, want.cat)
        assert list(got.generators.items()) == list(want.generators.items())
        # the object data follow the base order, not the name order; no
        # report depends on their order
        assert got.obj_data == want.obj_data
        assert list(got.mor_data.items()) == list(want.mor_data.items())
        assert got.image == want.image
        for nx in got.cat.objects:
            inc = got.cat.morphisms_into(nx)
            sieves = [got.sieve_generated(nx, [f]) for f in inc] + [frozenset(inc)]
            for sieve in sieves:
                assert got.covers(nx, sieve) == want.covers(nx, sieve)
