"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its time budget.  Everything is exact; there are no numeric
tolerances anywhere, only exhaustive checks at the stated bounds."""

import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import product
from math import comb

from cohext.canext import (
    canonical_extension,
    check_compact,
    check_composition,
    check_dense,
    esakia_check,
    is_filtered,
    pi_extension,
    sigma_extension,
    square_transfer,
)
from cohext.catalog import distributive_lattices
from cohext.cohcat import (
    ConcreteCohCategory,
    LatticeCategory,
    check_coherent_functor,
    lattice_hom_functor,
)
from cohext.fincat import FinFunctor, category_law_failures, check_equivalence
from cohext.fixtures import designated_model_index, mutated_comparison_source
from cohext.hyperdoctrine import (
    canext_fo,
    canext_hyperdoctrine,
    fo_from_cohcat,
    sub_hyperdoctrine,
    validate,
    validate_fo,
)
from cohext.lattice import (
    LatticeHom,
    MonotoneMap,
    filter_lattice,
    join_irreducibles,
    join_preserving_maps,
    lattice_homs,
    meet_preserving_maps,
    monotone_maps,
    prime_filters,
    product_projections,
)
from cohext.order import assignments, union_closure
from cohext.predcat import (
    canonical_extension_category,
    check_coh_plus,
    counit_equivalence_check,
    pmodel_check,
    pred_obj_name,
    universal_factorization,
)
from cohext.sites import (
    comparison_check,
    irreducible_site,
    irreducible_to_types,
    jp_site,
    localic_tot_for_lattice,
    sheaf_check,
    topology_coincidence_check,
    type_category,
    unique_glueing_check,
)
from helpers import boolean4, chain_lattice, fixture_path, is_prime_filter


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        dt = time.perf_counter() - t0
        print(
            f"criterion {num:2d} [{label}]: {status} "
            f"({dt:.2f}s, budget {budget_s:g}s)",
            file=sys.__stdout__,
            flush=True,
        )
        if status == "PASS" and dt >= budget_s:
            raise AssertionError(
                f"criterion {num} exceeded its {budget_s}s budget ({dt:.2f}s)"
            )


def diamond():
    """The catalogue's four-element lattice with two atoms, picked by shape:
    it is the one four-element lattice with two join-irreducibles (the
    four-element chain has three)."""
    (L,) = [
        L
        for L in distributive_lattices(4)
        if len(L.elements) == 4 and len(join_irreducibles(L).elements) == 2
    ]
    return L


def lattice_fixtures():
    return [
        LatticeCategory(chain_lattice(2)),
        LatticeCategory(chain_lattice(3)),
        LatticeCategory(diamond()),
    ]


def concrete_fixtures():
    return [
        ConcreteCohCategory([frozenset({"x"})]),
        ConcreteCohCategory([frozenset({"x"}), frozenset({"y"})]),
    ]


def site_fixtures():
    return lattice_fixtures() + concrete_fixtures() + [
        ConcreteCohCategory([frozenset({"x", "y"})])
    ]


def assert_extension_axioms(lattices):
    for L in lattices:
        ce = canonical_extension(L)
        assert check_dense(ce)
        assert check_compact(ce)
        assert ce.is_iso()


def test_criterion_01_extension_axioms():
    with criterion(1, "canonical-extension axioms <=6", 30):
        lats = distributive_lattices(6)
        assert len(lats) == 13
        assert_extension_axioms(lats)


def test_criterion_01_extension_axioms_on_every_lattice_up_to_ten():
    lats = distributive_lattices(10)
    assert len(lats) == 109
    with criterion(1, "canonical-extension axioms on DL(<=10)", 1):
        assert_extension_axioms(lats)


def assert_filter_dualities(lattices):
    for L in lattices:
        FL = filter_lattice(L)
        iso = MonotoneMap(FL, L, {n: L.meet_all(FL.decode[n]) for n in FL.elements})
        assert iso.is_iso()
        assert len(prime_filters(L)) == len(join_irreducibles(L).elements)


def test_criterion_02_filter_dualities():
    with criterion(2, "filter and prime-filter dualities <=6", 10):
        assert_filter_dualities(distributive_lattices(6))


def test_filter_dualities_on_the_lattices_of_seven_to_ten_elements():
    lats = [L for L in distributive_lattices(10) if len(L.elements) > 6]
    assert len(lats) == 96
    assert_filter_dualities(lats)


def test_criterion_03_sigma_pi_laws():
    # exhaustive at its bounds: every (g, f) pair for the unary laws, sigma
    # for join-preserving f and pi for meet-preserving f (the join-preserving
    # maps of the order duals), and every pair of join-preserving maps, every
    # lattice and every monotone map for the n-ary case
    composites = Counter()
    with criterion(3, "sigma/pi laws <=4", 5):
        lats = distributive_lattices(4)
        ces = {L: canonical_extension(L) for L in lats}
        for L in lats:
            for K in lats:
                cs, ct = ces[L], ces[K]
                joinpres = []
                for f in monotone_maps(L, K):
                    s = sigma_extension(f, cs, ct)
                    p = pi_extension(f, cs, ct)
                    assert all(
                        ct.ext.leq(s.map(u), p.map(u)) for u in cs.ext.elements
                    )
                    if f.preserves_finite_joins():
                        joinpres.append(f)
                lifts = {"sigma": joinpres, "pi": meet_preserving_maps(L, K)}
                # composition laws under their hypotheses (unary case)
                for M in lats:
                    cm = ces[M]
                    gs = monotone_maps(M, L)
                    for mode, fs in lifts.items():
                        for f in fs:
                            for g in gs:
                                rep = check_composition(g, f, mode, cm, cs, ct)
                                assert rep.holds, rep.witness
                        composites[mode] += len(fs) * len(gs)
                # Esakia identity for every join-preserving map
                elems = list(cs.filt_elements)
                filtered_sets = [
                    [elems[i] for i in range(len(elems)) if mask >> i & 1]
                    for mask in range(1, 1 << len(elems))
                ]
                filtered_sets = [F for F in filtered_sets if is_filtered(cs, F)]
                for f in joinpres:
                    for F in filtered_sets:
                        assert esakia_check(f, F, cs, ct)
        # the n-ary hypothesis via binary product lattices
        small = distributive_lattices(3)
        for L in small:
            P, p1, p2 = product_projections(L, L)
            cp = canonical_extension(P)
            diagonal = {
                a: next(x for x in P.elements if p1(x) == a and p2(x) == a)
                for a in L.elements
            }
            for K in small:
                ck = canonical_extension(K)
                hs = join_preserving_maps(L, K)
                for h1 in hs:
                    for h2 in hs:
                        table = {
                            x: K.join(h1(p1(x)), h2(p2(x))) for x in P.elements
                        }
                        f = MonotoneMap(P, K, table)
                        for M in small:
                            cm = canonical_extension(M)
                            for gl in monotone_maps(M, L):
                                g = MonotoneMap(
                                    M, P, {m: diagonal[gl(m)] for m in M.elements}
                                )
                                rep = check_composition(g, f, "sigma", cm, cp, ck)
                                assert rep.holds, rep.witness
                                composites["n-ary"] += 1
    # facts measured at these bounds
    assert composites == {"sigma": 12080, "pi": 12080, "n-ary": 1009}


def test_sigma_below_pi_on_every_monotone_map_up_to_five():
    lats = distributive_lattices(5)
    ces = {L: canonical_extension(L) for L in lats}
    checked = 0
    for L in lats:
        for K in lats:
            cs, ct = ces[L], ces[K]
            for f in monotone_maps(L, K):
                s, p = sigma_extension(f, cs, ct), pi_extension(f, cs, ct)
                assert all(ct.ext.leq(s(u), p(u)) for u in cs.ext.elements)
                checked += 1
    assert checked == 2536


def square_transfer_on(lats) -> int:
    """Criterion 4 on every commuting square over `lats`, decided per map
    pair by `square_transfer`; the number of squares."""
    squares = 0
    for quad in product(lats, repeat=4):
        report = square_transfer(*quad)
        assert report.holds, report.witness
        squares += report.squares
    return squares


def test_criterion_04_square_transfer():
    with criterion(4, "square-transfer equivalence <=4", 120):
        assert square_transfer_on(distributive_lattices(4)) == 49481


def test_criterion_04_square_transfer_on_every_lattice_up_to_five():
    with criterion(4, "square-transfer equivalence on DL(<=5)", 13):
        assert square_transfer_on(distributive_lattices(5)) == 8273437


def hyperdoctrine_catalog():
    out = []
    for L in distributive_lattices(4):
        out.append(sub_hyperdoctrine(LatticeCategory(L)))
    for C in concrete_fixtures():
        out.append(sub_hyperdoctrine(C))
    out.append(sub_hyperdoctrine(ConcreteCohCategory([frozenset({"x", "y"})])))
    return out


def test_criterion_05_hyperdoctrine_canonicity():
    with criterion(5, "hyperdoctrine canonicity", 120):
        for P in hyperdoctrine_catalog():
            assert validate(P).passed
            assert validate(canext_hyperdoctrine(P)).passed
        # first-order structure is preserved as well
        for C in lattice_fixtures():
            Pd = canext_fo(fo_from_cohcat(C))
            assert validate_fo(Pd).passed


def test_criterion_05_hyperdoctrine_canonicity_on_every_lattice_up_to_eight():
    lats = distributive_lattices(8)
    assert len(lats) == 36
    with criterion(5, "hyperdoctrine canonicity on DL(<=8)", 1.5):
        for L in lats:
            C = LatticeCategory(L)
            P = sub_hyperdoctrine(C)
            assert validate(P).passed
            assert validate(canext_hyperdoctrine(P)).passed
            assert validate_fo(canext_fo(fo_from_cohcat(C))).passed


def check_posetal_extension_equivalence(L):
    """Pred of the extension of C_L, restricted to the top, is L^delta."""
    C = LatticeCategory(L)
    ext = canonical_extension_category(C)
    Ld = canonical_extension(L).ext
    LdC = LatticeCategory(Ld)
    top = L.top
    obj_map = {u: pred_obj_name(top, u) for u in Ld.elements}
    mor_map = {}
    for f, m in LdC.cat.morphisms.items():
        found = [
            n
            for n, r in ext.pred.rels.items()
            if (r.src_obj, r.src_elem, r.tgt_obj, r.tgt_elem)
            == (top, m.src, top, m.tgt)
        ]
        assert len(found) == 1
        mor_map[f] = found[0]
    F = FinFunctor(LdC.cat, ext.pred.cat, obj_map, mor_map)
    rep = check_equivalence(F)
    assert rep.is_equivalence, rep.witness
    assert all(X in rep.object_witnesses for X in ext.pred.cat.objects)


def test_criterion_06_posetal_extension_equivalence():
    with criterion(6, "posetal extension equivalence <=5", 120):
        for L in distributive_lattices(5):
            check_posetal_extension_equivalence(L)


def test_criterion_07_counit_equivalence():
    with criterion(7, "counit equivalence on concrete fixtures", 120):
        for C in concrete_fixtures():
            rep = counit_equivalence_check(C)
            assert rep.passed, rep.error
            assert next(category_law_failures(rep.functor.source), None) is None
        # posetal instances of the same counit
        for C in lattice_fixtures():
            rep = counit_equivalence_check(C)
            assert rep.passed
            assert next(category_law_failures(rep.functor.source), None) is None


def check_embedding_universal_property(C):
    """E_C is a coherent p-model that factors through itself by an iso."""
    ext = canonical_extension_category(C)
    assert next(category_law_failures(ext.pred.cat), None) is None
    assert check_coherent_functor(ext.embedding, C, ext.coh)
    assert pmodel_check(ext.embedding, C, ext.coh)
    assert check_coh_plus(ext.coh) is None
    fact = universal_factorization(ext.embedding, C, ext.coh, ext)
    assert fact.comparison.is_iso()
    assert fact.comparison.check()


def test_criterion_08_embedding_universal_property():
    with criterion(8, "embedding p-model and factorization", 120):
        for C in lattice_fixtures() + [concrete_fixtures()[0]]:
            check_embedding_universal_property(C)


def check_localic_type_space(L, points):
    rep = localic_tot_for_lattice(L)
    assert rep.passed
    assert rep.type_objects == points
    assert rep.prime_poset_iso and rep.downsets_iso_ext


def test_criterion_09_localic_type_spaces():
    with criterion(9, "localic type spaces for small lattices", 5):
        for L, points in [
            (chain_lattice(2), 1),
            (chain_lattice(3), 2),
            (boolean4(), 2),
        ]:
            check_localic_type_space(L, points)


def comparison_report(C, source=irreducible_site):
    X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    D = source(C, X)
    tau = type_category(C)
    e = irreducible_to_types(C, X, D, tau)
    return comparison_check(e, D, jp_site(tau))


def test_criterion_10_comparison_conditions():
    with criterion(10, "comparison conditions + mutation", 60):
        for C in site_fixtures():
            rep = comparison_report(C)
            assert rep.passed, rep.witness
        rep = comparison_report(LatticeCategory(chain_lattice(3)), mutated_comparison_source)
        assert not rep.cover_preserving and rep.witness
        assert rep.locally_full and rep.locally_faithful
        assert rep.locally_surjective and rep.co_continuous


def test_criteria_06_and_08_to_10_on_every_lattice_up_to_eight():
    """The lattice instances of criteria 6, 8 (the embedding's p-model and
    factorization), 9 and 10 over the whole catalogue DL(<=8); criterion 9
    finds one type object per prime filter.  Gates: about 4x the slowest
    of the 0.43-0.76 s, 1.40-2.42 s, 0.18-0.31 s and 0.46-0.73 s measured
    on a 2-vCPU host."""
    lats = distributive_lattices(8)
    assert len(lats) == 36
    with criterion(6, "posetal extension equivalence on DL(<=8)", 3):
        for L in lats:
            check_posetal_extension_equivalence(L)
    with criterion(8, "embedding p-model and factorization on DL(<=8)", 9):
        for L in lats:
            check_embedding_universal_property(LatticeCategory(L))
    with criterion(9, "localic type spaces on DL(<=8)", 1.25):
        for L in lats:
            check_localic_type_space(L, len(prime_filters(L)))
    with criterion(10, "comparison conditions on DL(<=8)", 3):
        for L in lats:
            rep = comparison_report(LatticeCategory(L))
            assert rep.passed, rep.witness


def test_criterion_11_sheaf_and_coincidence():
    with criterion(11, "sheaf and topology coincidence", 120):
        for C in site_fixtures():
            X = canext_hyperdoctrine(sub_hyperdoctrine(C))
            ok, w = sheaf_check(C, X)
            assert ok, w
            ok, w = unique_glueing_check(C, X)
            assert ok, w
            ok, checked, note = topology_coincidence_check(C, X)
            assert ok, note
            assert checked > 0 or note


def test_criteria_07_and_11_on_every_lattice_up_to_eight():
    """The lattice instances of criteria 7 and 11 over the whole catalogue
    DL(<=8).  Gates: 4x the 0.7 s and 1.15 s measured on a 2-vCPU host."""
    lats = distributive_lattices(8)
    assert len(lats) == 36
    with criterion(7, "counit equivalence on DL(<=8)", 3):
        for L in lats:
            rep = counit_equivalence_check(LatticeCategory(L))
            assert rep.passed, rep.error
            assert next(category_law_failures(rep.functor.source), None) is None
    with criterion(11, "sheaf and topology coincidence on DL(<=8)", 5):
        assert sheaf_glueing_and_coincidence(lats) == 12_422


def sheaf_glueing_and_coincidence(lats) -> int:
    """Criterion 11 on each lattice's category; returns the generated
    sieves that the coincidence checks tested in all."""
    sieves = 0
    for L in lats:
        C = LatticeCategory(L)
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
        ok, w = sheaf_check(C, X)
        assert ok, w
        ok, w = unique_glueing_check(C, X)
        assert ok, w
        ok, checked, note = topology_coincidence_check(C, X)
        assert ok and note is None, note
        sieves += checked
    return sieves


def test_criterion_11_on_every_lattice_of_nine_and_ten_elements():
    """Criterion 11 on the 26 lattices of DL(=9) and the 47 of DL(=10),
    where the coincidence check tests only the sieves that cover families
    generate.  Gates: about 4x the slowest of the 0.8-1.0 s and 2.3-3.0 s
    measured on a 2-vCPU host."""
    lats = distributive_lattices(10)
    for size, count, sieves, budget_s in ((9, 26, 22_704, 4), (10, 47, 61_865, 12)):
        sized = [L for L in lats if len(L.elements) == size]
        assert len(sized) == count
        with criterion(11, f"sheaf and topology coincidence on DL(={size})", budget_s):
            assert sheaf_glueing_and_coincidence(sized) == sieves


def test_criteria_06_to_10_on_every_lattice_of_nine_elements():
    """Criteria 6-10 on the 26 lattices of DL(=9), as the DL(<=8) tests run
    them; criterion 9 finds one type object per prime filter.  Gates:
    about 4x the slowest of the 0.68-0.87 s, 0.96-1.65 s, 1.55-1.65 s,
    0.35-0.37 s and 0.68-0.89 s measured on a 2-vCPU host."""
    lats = [L for L in distributive_lattices(9) if len(L.elements) == 9]
    assert len(lats) == 26
    with criterion(6, "posetal extension equivalence on DL(=9)", 3.5):
        for L in lats:
            check_posetal_extension_equivalence(L)
    with criterion(7, "counit equivalence on DL(=9)", 7):
        for L in lats:
            rep = counit_equivalence_check(LatticeCategory(L))
            assert rep.passed, rep.error
            assert next(category_law_failures(rep.functor.source), None) is None
    with criterion(8, "embedding p-model and factorization on DL(=9)", 7):
        for L in lats:
            check_embedding_universal_property(LatticeCategory(L))
    with criterion(9, "localic type spaces on DL(=9)", 1.5):
        for L in lats:
            check_localic_type_space(L, len(prime_filters(L)))
    with criterion(10, "comparison conditions on DL(=9)", 3.5):
        for L in lats:
            rep = comparison_report(LatticeCategory(L))
            assert rep.passed, rep.witness


def set_valued_models(C: LatticeCategory, D: ConcreteCohCategory):
    """Every functor from the lattice category C into the one-point fragment
    D, by one search over C's objects: an object map is a functor exactly
    when each a <= b goes to a nonempty hom-set, whose one member it takes."""
    cat, dcat = C.cat, D.cat

    def consistent(a, acc):
        return all(
            dcat.hom(acc[s], acc[t])
            for b in acc
            for s, t in ((a, b), (b, a))
            if cat.hom(s, t)
        )

    for F in assignments(cat.objects, lambda a: dcat.objects, consistent):
        mor_map = {f: dcat.hom(F[m.src], F[m.tgt])[0] for f, m in cat.morphisms.items()}
        yield FinFunctor(cat, dcat, F, mor_map)


def test_criterion_08_models_of_a_lattice_are_its_points():
    """A Set-valued model of a lattice category is a coherent functor into
    the one-point fragment.  Over DL(<=8): (a) the functors are the up-sets
    U of L (a goes to the point exactly when a is in U), and a functor is
    coherent exactly when U is a prime filter p; (b) each coherent one
    factors through C^delta as evaluation at x_p, the meet of the embedded
    members of p: (top, u) goes to the point exactly when x_p <= u; (c)
    p -> x_p is a bijection onto the completely join-prime elements of
    L^delta, as many as the localic type objects.  Gate: about 3x the
    2.9-4.2 s measured on a 2-vCPU host."""
    lats = distributive_lattices(8)
    D = ConcreteCohCategory([{"x"}])
    empty, point = D.cat.objects
    assert (empty, point) == ("{}", "{x}")
    counts = [0, 0]
    with criterion(8, "models of DL(<=8) are points of the extension", 12):
        for L in lats:
            C = LatticeCategory(L)
            ext = canonical_extension_category(C)
            X = ext.hyperdoctrine.fiber(L.top)
            embed = ext.hyperdoctrine.fiber_ext[L.top]
            up_sets, points = set(), {}
            for M in set_valued_models(C, D):
                p = frozenset(a for a in L.elements if M.on_obj(a) == point)
                up_sets.add(p)
                coherent = check_coherent_functor(M, C, D)
                assert coherent == is_prime_filter(L, p), (L, sorted(p))
                if not coherent:
                    continue
                G = universal_factorization(M, C, D, ext).functor
                x_p = X.meet_all(embed.e(a) for a in p)
                for obj, (A, u) in ext.pred.obj_data.items():
                    if A == L.top:
                        assert (G.on_obj(obj) == point) == X.leq(x_p, u), obj
                points[p] = x_p
            principal = [L.poset.up_set(a) for a in L.elements]
            assert up_sets == set(union_closure(principal, empty=frozenset()))
            # in a finite lattice, completely join-prime is join-prime
            join_primes = {
                x for x in X.elements
                if x != X.bottom and all(
                    X.leq(x, y) or X.leq(x, z) or not X.leq(x, X.join(y, z))
                    for y in X.elements for z in X.elements
                )
            }
            assert len(set(points.values())) == len(points)
            assert set(points.values()) == join_primes
            assert len(points) == localic_tot_for_lattice(L).type_objects
            counts[0] += len(up_sets)
            counts[1] += len(points)
    assert (len(lats), counts) == (36, [334, 154])


def test_criterion_08_universal_property_on_every_hom_up_to_five():
    """For every bounded hom h : L -> K over DL(<=5), M = E_K after the
    posetal functor of h is a p-model C_L -> C_K^delta, and it factors
    through C_L^delta by G(M) with G(M)(top, u) = (top, h^delta(u)), where
    h^delta is h's sigma extension.  Gate: about 5x the 1.5 s measured on a
    2-vCPU host."""
    lats = distributive_lattices(5)
    with criterion(8, "universal property on every hom of DL(<=5)", 8):
        cats = [LatticeCategory(L) for L in lats]
        exts = [canonical_extension_category(C) for C in cats]
        homs = objects = 0
        for L, CL, ext_L in zip(lats, cats, exts):
            ce_L = ext_L.hyperdoctrine.fiber_ext[L.top]
            for K, CK, ext_K in zip(lats, cats, exts):
                ce_K = ext_K.hyperdoctrine.fiber_ext[K.top]
                for h in lattice_homs(L, K):
                    M = lattice_hom_functor(h, CL, CK).then(ext_K.embedding)
                    G = universal_factorization(M, CL, ext_K.coh, ext_L).functor
                    h_delta = sigma_extension(h, ce_L, ce_K).map
                    for u in ce_L.ext.elements:
                        got = G.on_obj(pred_obj_name(L.top, u))
                        assert got == pred_obj_name(K.top, h_delta(u)), (h, u)
                        objects += 1
                    homs += 1
    assert (len(lats), homs, objects) == (8, 381, 1730)


def test_criterion_12_morphism_theorems():
    with criterion(12, "locale morphism theorems + mutations", 60):
        from cohext.sites import locale_morphism, open_check, surjection_check

        L2, L3 = chain_lattice(2), chain_lattice(3)
        C2, C3 = LatticeCategory(L2), LatticeCategory(L3)
        conservative = lattice_hom_functor(
            LatticeHom(L2, L3, {"c0": "c0", "c1": "c2"}), C2, C3
        )
        ok, w = surjection_check(locale_morphism(conservative, C2, C3))
        assert ok, w
        heyting = lattice_hom_functor(
            LatticeHom(L2, L3, {"c0": "c0", "c1": "c2"}), C2, C3
        )
        ok, w = open_check(locale_morphism(heyting, C2, C3))
        assert ok, w
        collapse = lattice_hom_functor(
            LatticeHom(L3, L2, {"c0": "c0", "c1": "c0", "c2": "c1"}), C3, C2
        )
        m = locale_morphism(collapse, C3, C2)
        ok, w = surjection_check(m)
        assert not ok and w
        ok, w = open_check(m)
        assert not ok and w


def test_criterion_13_models_pipeline():
    with criterion(13, "models pipeline", 300):
        from cohext.logic.chase import chase
        from cohext.logic.models import (
            FamilyCategory,
            ModelFamily,
            check_m1,
            check_m2,
            check_m3,
            enumerate_models,
            sigma_bar_check,
        )
        from cohext.logic.parser import parse_theory

        corpus = ["pointed", "idempotent", "ordered"]
        for name in corpus:
            T = parse_theory(fixture_path(f"{name}.chr").read_text())
            res = chase(T, max_fresh=6, max_rounds=40)
            assert res.status == "model", (name, res.note)
            fam = ModelFamily.build(enumerate_models(T, 3))
            C = FamilyCategory(T, fam)
            assert check_m1(C).passed
            assert check_m2(C).passed
            assert check_m3(C).passed
            rep = sigma_bar_check(C)
            assert rep.passed, (name, rep)
        # removing the designated model flips exactly M2 and the embedding
        T = parse_theory(fixture_path("pointed.chr").read_text())
        fam = ModelFamily.build(enumerate_models(T, 2))
        C = FamilyCategory(T, fam)
        drop = designated_model_index(C)
        keep = tuple(i for i in range(len(fam.models)) if i != drop)
        assert check_m1(C, keep).passed
        assert not check_m2(C, keep).passed
        assert check_m3(C, keep).passed
        rep = sigma_bar_check(C, require_conditions=False, indices=keep)
        assert not rep.embedding.passed
        assert rep.naturality.passed
        assert rep.exists_preservation.passed
        assert rep.surjectivity.passed


def partition_count(n: int, largest: int | None = None) -> int:
    """The partitions of n into parts of at most `largest` (default n)."""
    largest = n if largest is None else largest
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, min(n, largest) + 1))


def test_criterion_13_family_checks_at_size_eight():
    # one class per closed-form shape: pointed, the point's index; idempotent,
    # the fibre sizes over the fixed points, a partition of n; ordered, c and
    # a multiset of three kinds (in P, in Q only, in neither) of n - 1 others
    closed_forms = {
        "pointed": lambda n: n,
        "idempotent": partition_count,
        "ordered": lambda n: comb(n + 1, 2),
    }
    with criterion(13, "family checks at size 8", 20):
        from cohext.logic.models import (
            FamilyCategory,
            ModelFamily,
            check_m1,
            check_m2,
            check_m3,
            enumerate_models,
            sigma_bar_check,
        )
        from cohext.logic.parser import parse_theory

        totals = []
        for name, count in closed_forms.items():
            T = parse_theory(fixture_path(f"{name}.chr").read_text())
            C = FamilyCategory(T, ModelFamily.build(enumerate_models(T, 8)))
            sizes = Counter(len(M.sorts["A"]) for M in C.family.models)
            assert sizes == {n: count(n) for n in range(1, 9)}, name
            totals.append(len(C.family.models))
            assert check_m1(C).passed
            assert check_m2(C).passed
            assert check_m3(C).passed
            rep = sigma_bar_check(C)
            assert rep.passed, (name, rep)
        assert totals == [36, 66, 120]


def test_criterion_13_family_checks_at_size_ten():
    # the closed forms of test_criterion_13_family_checks_at_size_eight.  The
    # family budget is passed explicitly: the default of 16,384 ordered model
    # pairs cuts idempotent (138 models) and ordered (220) at size 10
    closed_forms = {
        "pointed": lambda n: n,
        "idempotent": partition_count,
        "ordered": lambda n: comb(n + 1, 2),
    }
    with criterion(13, "family checks at size 10", 10):
        from cohext.logic.models import (
            FamilyCategory,
            ModelFamily,
            check_m1,
            check_m2,
            check_m3,
            enumerate_models,
            sigma_bar_check,
        )
        from cohext.logic.parser import parse_theory

        totals = []
        for name, count in closed_forms.items():
            T = parse_theory(fixture_path(f"{name}.chr").read_text())
            models = enumerate_models(T, 10)
            C = FamilyCategory(T, ModelFamily.build(models, budget=len(models) ** 2))
            sizes = Counter(len(M.sorts["A"]) for M in models)
            assert sizes == {n: count(n) for n in range(1, 11)}, name
            totals.append(len(models))
            assert check_m1(C).passed
            assert check_m2(C).passed
            assert check_m3(C).passed
            rep = sigma_bar_check(C)
            assert rep.passed, (name, rep)
        assert totals == [55, 138, 220]


def test_criterion_14_parser_golden():
    with criterion(14, "parser golden round-trip", 5):
        from cohext.logic.parser import parse_theory
        from cohext.logic.syntax import print_theory

        for name in ["pointed", "idempotent", "ordered"]:
            src = fixture_path(f"{name}.chr").read_text()
            golden = fixture_path(f"golden/{name}.chr.golden").read_text()
            T = parse_theory(src)
            assert print_theory(T) == golden
            T2 = parse_theory(print_theory(T))
            assert T2 == T
            assert print_theory(T2) == golden
