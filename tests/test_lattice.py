"""Lattice substrate: downsets, filters, prime filters, Birkhoff duality,
and the order and map checks run on every construction."""

import gc
import os
import subprocess
import sys
import weakref
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from cohext.canext import (
    canonical_extension,
    delta_extension,
    extend_hom,
    pi_extension,
    sigma_extension,
)
from cohext.catalog import distributive_lattices
from cohext.cohcat import (
    ConcreteCohCategory,
    LatticeCategory,
    MissingLimitError,
    functor_sub_map,
    lattice_hom_functor,
)
from cohext.fixtures import FIXTURE_DIR
from cohext.hyperdoctrine import canext_hyperdoctrine, sub_hyperdoctrine, unit_morphism
from cohext.lattice import (
    FinLattice,
    LatticeHom,
    LatticeError,
    MonotoneMap,
    NotDistributiveError,
    adjunction_failures,
    birkhoff,
    check_distributive,
    downset_lattice,
    filter_lattice,
    filters,
    ideal_lattice,
    is_join_irreducible,
    join_irreducibles,
    join_preserving_maps,
    lattice_failures,
    lattice_homs,
    map_failures,
    meet_preserving_maps,
    monotone_maps,
    pair_name,
    prime_filter_poset,
    prime_filters,
    product_lattice,
    product_projections,
    _by_items,
    _join_preserving_maps,
    _lattice_homs,
    _monotone_tables,
)
from cohext.logic.models import Evaluation, FamilyCategory, ModelFamily, enumerate_models
from cohext.logic.parser import parse_theory
from cohext.order import FinPoset, poset_failures
from cohext.predcat import PredCategory, PredCohCategory
from cohext.sites import filter_hyperdoctrine, locale_morphism, type_category
from catalog_oracle import all_posets
from helpers import (
    antichain,
    boolean4,
    chain,
    chain_lattice,
    is_filter,
    is_ideal,
    is_prime_filter,
    lattice_by_scan,
    m3,
    n5,
    trivial_lattice,
)


def all_subsets(elems):
    out = [frozenset()]
    for e in elems:
        out += [s | {e} for s in out]
    return out


def test_poset_validation_rejects_bad_relations():
    cycle = FinPoset(
        ("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")})
    )
    assert next(poset_failures(cycle)) == "not antisymmetric on (a,b)"
    assert next(poset_failures(FinPoset(("a",), frozenset()))) == "not reflexive at a"


def test_downset_lattice_of_empty_poset_is_trivial():
    L = downset_lattice(FinPoset((), frozenset()))
    assert len(L.elements) == 1
    assert L.bottom == L.top


def test_downset_lattice_of_two_antichain_is_boolean4():
    L = downset_lattice(antichain(["a", "b"]))
    assert len(L.elements) == 4
    assert L.iso_to(boolean4()) is not None


def test_downset_lattice_of_two_chain_is_three_chain():
    L = downset_lattice(chain(["a", "b"]))
    assert len(L.elements) == 3
    assert L.iso_to(chain_lattice(3)) is not None


def test_prime_filters_of_two_element_lattice():
    L = chain_lattice(2)
    assert prime_filters(L) == [frozenset({"c1"})]


def test_prime_filters_of_diamond_against_subset_oracle():
    # Oracle: test primality over all 16 subsets directly.
    B = boolean4()
    oracle = sorted(
        (s for s in all_subsets(B.elements) if is_prime_filter(B, s)),
        key=lambda s: (len(s), sorted(s)),
    )
    assert oracle == [frozenset({"a", "1"}), frozenset({"b", "1"})]
    assert sorted(prime_filters(B), key=lambda s: (len(s), sorted(s))) == oracle


def test_prime_filters_of_three_chain_exhaustive():
    L = chain_lattice(3)
    oracle = [s for s in all_subsets(L.elements) if is_prime_filter(L, s)]
    assert sorted(map(sorted, oracle)) == sorted(map(sorted, prime_filters(L)))
    assert len(oracle) == 2


def test_prime_filters_match_the_subset_oracle_on_dl6_m3_and_n5():
    # every lattice of DL(<=6), and two non-distributive ones: M3 has no
    # join-prime element, and N5's join-irreducible c is not join-prime
    lattices = [*distributive_lattices(6), m3(), n5()]
    for L in lattices:
        oracle = sorted(
            (s for s in all_subsets(L.elements) if is_prime_filter(L, s)),
            key=lambda s: (len(s), sorted(s)),
        )
        assert prime_filters(L) == oracle, L
    assert len(lattices) == 15
    assert prime_filters(m3()) == []
    N = n5()
    assert "c" in N.irreducibles
    assert prime_filters(N) == [frozenset("b1"), frozenset("ac1")]


def test_filters_match_subset_oracle_on_small_lattices():
    for L in [chain_lattice(2), chain_lattice(3), boolean4(), m3()]:
        oracle = {s for s in all_subsets(L.elements) if is_filter(L, s)}
        assert set(filters(L)) == oracle
        oracle_i = {s for s in all_subsets(L.elements) if ideal_definition(L, s)}
        assert set(ideals_of(L)) == oracle_i
        assert {s for s in all_subsets(L.elements) if is_ideal(L, s)} == oracle_i


def ideal_definition(L, s):
    """Nonempty, down-closed (closed under meets with anything) and closed
    under binary joins, read off L's own tables."""
    s = set(s)
    return bool(s) and all(
        L.meet(a, x) in s for a in s for x in L.elements
    ) and all(L.join(a, b) in s for a in s for b in s)


def ideals_of(L):
    from cohext.lattice import ideals

    return ideals(L)


def test_filter_lattice_shapes():
    assert len(filter_lattice(chain_lattice(2)).elements) == 2
    assert filter_lattice(chain_lattice(3)).iso_to(chain_lattice(3)) is not None
    assert filter_lattice(boolean4()).iso_to(boolean4()) is not None


def test_filter_lattice_iso_via_meet():
    # F |-> /\F is an order iso from (Fl(L), reverse inclusion) to L.
    for L in distributive_lattices(5):
        FL = filter_lattice(L)
        table = {n: L.meet_all(FL.decode[n]) for n in FL.elements}
        m = MonotoneMap(FL, L, table)
        assert m.is_iso()


def test_ideal_lattice_dual_to_filter_lattice_on_self_dual_inputs():
    for L in [chain_lattice(2), chain_lattice(4), boolean4()]:
        fl = filter_lattice(L)
        il = ideal_lattice(L)
        assert fl.iso_to(il) is not None


def test_join_irreducibles():
    assert set(join_irreducibles(boolean4()).elements) == {"a", "b"}
    J = join_irreducibles(chain_lattice(3))
    assert J.iso_to(chain(["x", "y"])) is not None


def test_birkhoff_roundtrip_and_m3_refusal():
    for L in distributive_lattices(6):
        to, fro = birkhoff(L)
        assert all(fro(to(a)) == a for a in L.elements)
        assert all(to(fro(d)) == d for d in to.target.elements)
    assert not check_distributive(m3())
    with pytest.raises(NotDistributiveError):
        birkhoff(m3())


def test_down_lattice_matches_the_derived_interval():
    lattices = distributive_lattices(6) + [m3(), boolean4(), chain_lattice(5)]
    compared = 0
    for L in lattices:
        for a in L.elements:
            got = L.down_lattice(a)
            want = FinLattice.from_poset(L.poset.restricted(L.poset.down_set(a)))
            assert got.elements == want.elements
            assert got.poset.pairs == want.poset.pairs
            assert got.meet_table == want.meet_table
            assert got.join_table == want.join_table
            assert (got.bottom, got.top) == (want.bottom, want.top)
            compared += 1
    assert compared == 73


def assert_prime_filters_match_irreducibles(lattices):
    # The meet map rho |-> /\rho is an order iso from (PrFl(L), reverse
    # inclusion) onto the induced poset of join-irreducibles.
    from cohext.lattice import prime_filter_poset
    from cohext.order import set_name

    for L in lattices:
        pf = prime_filters(L)
        J = join_irreducibles(L)
        assert len(pf) == len(J.elements)
        pfp = prime_filter_poset(L)
        mapping = {set_name(s): L.meet_all(s) for s in pf}
        assert set(mapping.values()) == set(J.elements)
        for s in pf:
            for t in pf:
                assert pfp.leq(set_name(s), set_name(t)) == J.leq(
                    mapping[set_name(s)], mapping[set_name(t)]
                )


def test_from_poset_matches_the_scan_on_every_poset_up_to_six():
    # most posets are not lattices, so the witness pair is compared too;
    # the reversed element order moves which pair fails first
    lattices = refused = 0
    for n in range(7):
        for P in all_posets(n):
            for order in (P, FinPoset(P.elements[::-1], P.pairs)):
                try:
                    want = lattice_by_scan(order)
                except LatticeError as e:
                    with pytest.raises(LatticeError) as got:
                        FinLattice.from_poset(order)
                    assert str(got.value) == str(e)
                    refused += 1
                    continue
                got = FinLattice.from_poset(order)
                assert got.meet_table == want.meet_table
                assert got.join_table == want.join_table
                assert (got.bottom, got.top) == (want.bottom, want.top)
                lattices += 1
    # the 25 lattices of at most six elements and the 381 other posets
    assert (lattices, refused) == (2 * 25, 2 * 381)


def test_prime_filter_join_irreducible_bijection():
    assert_prime_filters_match_irreducibles(distributive_lattices(8))


def test_prime_filter_join_irreducible_bijection_up_to_ten():
    assert_prime_filters_match_irreducibles(
        L for L in distributive_lattices(10) if len(L.elements) > 8
    )


def test_adjoint_composition_law():
    # Composable adjunctions between finite posets compose: the composite of
    # the left adjoints is left adjoint to the composite of the rights.
    A, B, C = chain_lattice(3), boolean4(), chain_lattice(4)
    for g in monotone_maps(B, A):
        gl = g.left_adjoint()
        if gl is None:
            continue
        for h in monotone_maps(C, B):
            hl = h.left_adjoint()
            if hl is None:
                continue
            comp_right = h.then(g)
            comp_left = gl.then(hl)
            assert next(adjunction_failures(comp_left, comp_right, A, C), None) is None


def test_lattice_table_validation_reports_bad_entry():
    p = chain(["0", "1"])
    L = FinLattice(
        p,
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "0", ("1", "1"): "1"},
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"},
        "0",
        "1",
    )
    assert next(lattice_failures(L)) == "meet(0,1)=1 is not the glb"


def test_product_lattice_is_componentwise():
    P = product_lattice(chain_lattice(2), chain_lattice(2))
    assert P.iso_to(boolean4()) is not None


def test_product_projections_accept_factors_named_by_pairs():
    # a factor that is itself a product has element names containing "|"
    L, K = chain_lattice(2), chain_lattice(3)
    LK = product_lattice(L, K)
    for A, B in [(LK, L), (L, LK), (LK, LK)]:
        P, p1, p2 = product_projections(A, B)
        assert p1.is_lattice_hom() and p2.is_lattice_hom()
        for a in A.elements:
            for b in B.elements:
                assert p1(pair_name(a, b)) == a and p2(pair_name(a, b)) == b


def test_hom_validation():
    L, K = chain_lattice(3), boolean4()
    bad = LatticeHom(L, K, {"c0": "0", "c1": "a", "c2": "b"})
    assert next(map_failures(bad)) == "not order-preserving on (c1,c2)"
    h = LatticeHom(L, K, {"c0": "0", "c1": "a", "c2": "1"})
    assert next(map_failures(h), None) is None and h.is_lattice_hom()


def test_trivial_lattice_has_no_prime_filters():
    assert prime_filters(trivial_lattice()) == []


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_rejected_map_names_first_offending_pair_in_product_order(hash_seed):
    # Offending pairs are (0,a), (0,b), (0,1) and (b,1); the witness must be
    # the first of them in product order whatever the hash seed.
    code = (
        "from cohext.lattice import MonotoneMap, map_failures\n"
        "from helpers import boolean4\n"
        "B = boolean4()\n"
        "f = MonotoneMap(B, B, {'0': '1', 'a': '0', 'b': 'b', '1': 'a'})\n"
        "print(next(map_failures(f)))\n"
    )
    tests = Path(__file__).resolve().parent
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={
            "PYTHONPATH": os.pathsep.join(map(str, (tests.parent / "src", tests))),
            "PYTHONHASHSEED": hash_seed,
        },
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "not order-preserving on (0,a)\n"


def monotone_maps_oracle(L: FinLattice, K: FinLattice) -> list[MonotoneMap]:
    """Backtracking along a linear extension, checking each new element
    against every element assigned before it in both directions."""
    order = L.poset.linear_extension
    out = []

    def extend(i, acc):
        if i == len(order):
            out.append(MonotoneMap(L, K, dict(acc)))
            return
        a = order[i]
        for k in K.elements:
            ok = all(
                (not L.leq(b, a) or K.leq(acc[b], k))
                and (not L.leq(a, b) or K.leq(k, acc[b]))
                for b in acc
            )
            if ok:
                acc[a] = k
                extend(i + 1, acc)
                del acc[a]

    extend(0, {})
    out.sort(key=lambda m: tuple(sorted(m.mapping.items())))
    return out


def test_monotone_maps_match_backtracking_oracle():
    lattices = distributive_lattices(5) + [m3(), boolean4()]
    total = 0
    for L in lattices:
        for K in lattices:
            got = [list(m.mapping.items()) for m in monotone_maps(L, K)]
            expected = [list(m.mapping.items()) for m in monotone_maps_oracle(L, K)]
            assert got == expected
            total += len(got)
    assert total == 5089


# The generate-and-filter searches that the dual enumeration replaced.


def lattice_homs_oracle(L, K):
    return [
        LatticeHom(L, K, m.mapping) for m in monotone_maps(L, K) if m.is_lattice_hom()
    ]


def join_preserving_maps_oracle(L, K):
    return [m for m in monotone_maps(L, K) if m.preserves_finite_joins()]


def meet_preserving_maps_oracle(L, K):
    return [m for m in monotone_maps(L, K) if m.preserves_finite_meets()]


def listing(maps):
    return [(type(m), list(m.mapping.items())) for m in maps]


def test_dual_map_searches_match_the_filter_oracles():
    lattices = distributive_lattices(6) + [m3(), boolean4(), chain_lattice(3)]
    counts = [0, 0, 0]
    for L in lattices:
        for K in lattices:
            for i, (search, oracle) in enumerate([
                (lattice_homs, lattice_homs_oracle),
                (join_preserving_maps, join_preserving_maps_oracle),
                (meet_preserving_maps, meet_preserving_maps_oracle),
            ]):
                got = search(L, K)
                assert listing(got) == listing(oracle(L, K))
                assert all(m.source is L and m.target is K for m in got)
                counts[i] += len(got)
    assert counts == [3194, 10911, 10911]


def test_dual_map_searches_on_boolean_lattices():
    B8 = downset_lattice(antichain("abc"))
    assert len(lattice_homs(B8, B8)) == 27
    assert len(join_preserving_maps(B8, B8)) == 512
    assert len(meet_preserving_maps(B8, B8)) == 512
    # homs B16 -> B16 are the 4^4 maps between the 4-antichains of atoms;
    # the filter oracle would walk every monotone self-map of B16
    B16 = downset_lattice(antichain("abcd"))
    homs = lattice_homs(B16, B16)
    assert len(homs) == 256
    assert all(h.is_lattice_hom() for h in homs)


# The uncached enumerators behind the kept map searches, as oracles.


def uncached_searches():
    return [
        (join_preserving_maps, _join_preserving_maps),
        (
            meet_preserving_maps,
            lambda L, K: [f.dual for f in _join_preserving_maps(L.dual, K.dual)],
        ),
        (lattice_homs, _lattice_homs),
    ]


def test_kept_map_searches_match_the_uncached_enumerators():
    lattices = [*distributive_lattices(5), m3()]
    for L, K in product(lattices, repeat=2):
        rebuilt = FinLattice(
            FinPoset(K.elements, K.poset.pairs), K.meet_table, K.join_table,
            K.bottom, K.top,
        )
        assert rebuilt == K and rebuilt is not K
        for search, uncached in uncached_searches():
            got = search(L, K)
            assert listing(got) == listing(uncached(L, K))
            assert all(m.source is L and m.target is K for m in got)
            # every call is a fresh list over the same map objects
            again = search(L, K)
            assert again is not got and list(map(id, again)) == list(map(id, got))
            got.clear()
            assert list(map(id, search(L, K))) == list(map(id, again))
            # an equal target reads the maps kept for K
            equal = search(L, rebuilt)
            assert listing(equal) == listing(uncached(L, rebuilt))
            assert list(map(id, equal)) == list(map(id, again))


def test_the_criterion_4_loop_enumerates_each_lattice_pair_once(monkeypatch):
    from cohext import lattice
    from cohext.canext import square_transfer

    calls = Counter()
    for name in ("_join_preserving_maps", "_lattice_homs"):
        def counting(L, K, search=getattr(lattice, name), name=name):
            calls[name] += 1
            return search(L, K)

        monkeypatch.setattr(lattice, name, counting)
    lats = distributive_lattices(3)
    squares = 0
    for quad in product(lats, repeat=4):
        report = square_transfer(*quad)
        assert report.holds
        squares += report.squares
    assert squares == 325
    pairs = len(lats) ** 2
    assert calls == {"_join_preserving_maps": pairs, "_lattice_homs": pairs}


def test_a_lattice_pair_with_kept_maps_is_collected():
    # each kept map names its source, a cycle the collector frees; so does
    # the square data kept on f and g, which names h1 and h2
    from cohext.canext import (
        CanonicalExtension,
        canonical_extension,
        comjpm_decide,
        extend_hom,
    )

    # the extensions cache keeps the lattice it first met, so L and K are
    # equal to lattices it keeps already, not kept by it themselves
    canonical_extension(chain_lattice(3)), canonical_extension(boolean4())
    L, K = chain_lattice(3), boolean4()
    homs = lattice_homs(L, K)
    assert homs and join_preserving_maps(L, K) and meet_preserving_maps(L, K)
    ce = CanonicalExtension(L, L, {a: a for a in L.elements})
    assert all(extend_hom(h, ce).mapping == h.mapping for h in homs)
    f, g = (
        next(m for m in join_preserving_maps(M, M) if m == MonotoneMap.identity(M))
        for M in (L, K)
    )
    assert all(comjpm_decide(h, h, f, g) == (True, True) for h in homs)
    assert hasattr(g, "__kept_transfer_left_results")
    assert hasattr(f, "__kept_transfer_right_results")
    refs = [weakref.ref(x) for x in (L, K, ce, homs[0], f, g)]
    del L, K, ce, homs, f, g
    gc.collect()
    assert [r() for r in refs] == [None] * 6


def duality_lattices():
    return [*distributive_lattices(8), m3(), boolean4(), chain_lattice(5)]


def test_dual_is_a_cached_involution_with_the_reversed_order():
    for L in duality_lattices():
        D = L.dual
        assert D is L.dual and D.dual is L
        assert D.elements == L.elements and (D.bottom, D.top) == (L.top, L.bottom)
        assert all(
            D.leq(a, b) == L.leq(b, a) for a in L.elements for b in L.elements
        )
        # the swapped tables are the glb and lub of the reversed order
        assert next(lattice_failures(D), None) is None


def test_cached_lattice_data_equals_a_fresh_recomputation():
    for L in duality_lattices():
        for M in (L, L.dual):
            w = M.distributivity_witness
            assert w is M.distributivity_witness
            assert w == FinLattice.distributivity_witness.func(M)
            # None exactly when every triple distributes; else a failing one
            triples = list(product(M.elements, repeat=3))
            fails = [
                (x, y, z) for x, y, z in triples
                if M.meet(x, M.join(y, z)) != M.join(M.meet(x, y), M.meet(x, z))
            ]
            assert w == (fails[0] if fails else None)
            assert M.irreducibles is M.irreducibles
            assert M.irreducibles == tuple(
                a for a in M.elements if is_join_irreducible(M, a)
            )
            assert M.poset.linear_extension == FinPoset.linear_extension.func(M.poset)
        # m3 is the one non-distributive lattice among them
        assert check_distributive(L) == (L.iso_to(m3()) is None)


# The filtered search that the distributive case of `join_preserving_maps`
# no longer runs: every candidate is checked, whatever the source.


def join_preserving_maps_filtered(L, K):
    irr = [a for a in L.elements if is_join_irreducible(L, a)]
    gens = {a: [j for j in irr if L.leq(j, a)] for a in L.elements}
    maps = (
        MonotoneMap(
            L, K, {a: K.join_all(g[x] for x in gens[a]) for a in L.elements}
        )
        for g in _monotone_tables(L.poset, irr, K.elements, K.poset.pairs)
    )
    return _by_items([f for f in maps if MonotoneMap._preserves_finite_joins.func(f)])


def test_map_verdicts_recorded_at_build_equal_a_fresh_check():
    lattices = [*distributive_lattices(5), m3()]
    fresh = MonotoneMap._preserves_finite_joins.func
    counts = [0, 0, 0]
    for L in lattices:
        for K in lattices:
            got = join_preserving_maps(L, K)
            assert listing(got) == listing(join_preserving_maps_filtered(L, K))
            homs = lattice_homs(L, K)
            meets = meet_preserving_maps(L, K)
            for f in got + homs:
                assert f.preserves_finite_joins() and fresh(f)
                assert f.preserves_finite_meets() == fresh(f.dual)
            assert all(fresh(f.dual) for f in homs)
            for f in meets:
                assert f.preserves_finite_meets() and fresh(f.dual)
                assert f.preserves_finite_joins() == fresh(f)
                assert f.dual.dual is f
            for i, maps in enumerate((got, homs, meets)):
                counts[i] += len(maps)
    assert counts == [1495, 466, 1495]


def meets_preserved(f):
    L, K, m = f.source, f.target, f.mapping
    return m[L.top] == K.top and all(
        m[L.meet(a, b)] == K.meet(m[a], m[b]) for a in L.elements for b in L.elements
    )


def right_adjoint_table(f):
    """g(b) = the join of the a with f(a) <= b, if f of it is <= b."""
    g = {}
    for b in f.target.elements:
        cand = f.source.join_all(
            a for a in f.source.elements if f.target.leq(f(a), b)
        )
        if not f.target.leq(f(cand), b):
            return None
        g[b] = cand
    return g


def test_meet_side_through_the_dual_matches_its_closed_forms():
    lats = [*distributive_lattices(4), m3()]
    for L in lats:
        for K in lats:
            for f in monotone_maps(L, K):
                assert f.dual.dual is f
                assert f.preserves_finite_meets() == meets_preserved(f)
                g, table = f.right_adjoint(), right_adjoint_table(f)
                assert (None if g is None else g.mapping) == table
                if g is not None:
                    assert g.source is K and g.target is L


# -- every construction is a valid order or map --------------------------------


def category_parts(C):
    """The subobject lattices of C with its pullback, image and universal
    maps, per object and per morphism."""
    for A in C.cat.objects:
        yield "sub", C.sub_lattice(A)
    for f in C.cat.morphisms:
        yield "pullback", C.pullback_map(f)
        yield "image", C.image_map(f)
        yield "forall", C.forall_map(f)


def hyperdoctrine_parts(label, P):
    for A in P.base.objects:
        yield label, P.fiber(A)
    for f in P.base.morphisms:
        yield label, P.sub(f)
        yield label, P.ex(f)


def constructed_orders_and_maps():
    """(label, poset, lattice or map) for each construction the program
    trusts: the lattice builders on DL(<=8), products, the categories of
    the site sweep and their hyperdoctrines, the family categories of the
    theory fixtures, the locale morphisms and the map searches and lifts
    between DL(<=4) lattices.  Each locale component, a sigma lift, is
    also checked against the delta lift of its subobject map."""
    for L in [*distributive_lattices(8), m3()]:
        yield "lattice", L
        yield "dual", L.dual
        for a in L.elements:
            yield "down", L.down_lattice(a)
        yield "filters", filter_lattice(L)
        yield "ideals", ideal_lattice(L)
        yield "downsets", downset_lattice(L.poset)
        if not check_distributive(L):
            continue
        yield "prime-filters", prime_filter_poset(L)
        yield from (("birkhoff", h) for h in birkhoff(L))
        ce = canonical_extension(L)
        for c in (ce, ce.dual):
            yield "canext", c.ext
            assert len(set(c.embed.values())) == len(c.base.elements)
            yield "embedding", LatticeHom(c.base, c.ext, c.embed)
    small = distributive_lattices(4)
    for L in small:
        for K in small:
            yield "product", product_lattice(L, K)
            yield from (("projection", p) for p in product_projections(L, K)[1:])
    bases = [LatticeCategory(L) for L in distributive_lattices(6)]
    bases += [
        ConcreteCohCategory([frozenset(s) for s in seeds])
        for seeds in (("x",), ("x", "y"), ("xy",))
    ]
    for C in bases:
        yield from category_parts(C)
        if isinstance(C, LatticeCategory):
            # the top-anchored types of `sites.localic_tot_for_lattice`
            tau, top = type_category(C), C.lattice.top
            e = sorted(X for X, (A, _) in tau.objects.items() if A == top)
            pairs = {(x, y) for x in e for y in e if tau.cat.hom(x, y)}
            yield "types", FinPoset.from_pairs(e, pairs)
        S = sub_hyperdoctrine(C)
        Sd = canext_hyperdoctrine(S)
        yield from hyperdoctrine_parts("canext-hyp", Sd)
        yield from hyperdoctrine_parts("filter-hyp", filter_hyperdoctrine(C))
        yield from (("unit", t) for t in unit_morphism(S, Sd).tau.values())
        for P in (S, Sd):
            try:
                yield from category_parts(PredCohCategory(PredCategory(P)))
            except MissingLimitError:
                pass
    for name in ("pointed", "idempotent", "ordered"):
        T = parse_theory((FIXTURE_DIR / f"{name}.chr").read_text())
        C = FamilyCategory(T, ModelFamily.build(enumerate_models(T, 4)))
        ev = Evaluation(C)
        for A in C.sorts:
            yield "family", C.sub_lattice(A)
            yield "evaluation", ev.sub_lattice(A)
            yield "ev-sigma", ev.sigma(A)
        for f in C.cat.morphisms:
            for D in (C, ev):
                yield "family", D.pullback_map(f)
                yield "family", D.image_map(f)
    for L in small:
        CL, cs = LatticeCategory(L), canonical_extension(L)
        for K in small:
            CK, ct = LatticeCategory(K), canonical_extension(K)
            for h in lattice_homs(L, K):
                F = lattice_hom_functor(h, CL, CK)
                for A in CL.cat.objects:
                    yield "functor-sub", functor_sub_map(F, CL, CK, A)
                m = locale_morphism(F, CL, CK)
                for A, c in m.components.items():
                    # the component is the sigma lift of a coherent
                    # functor's subobject map, so its delta lift
                    FA = functor_sub_map(F, CL, CK, A)
                    d = delta_extension(FA, m.source_ext[A], m.target_ext[A])
                    assert c.mapping == d.map.mapping, (h, A)
                    yield "locale", c
                yield "extend-hom", extend_hom(h, cs)
            yield from (("search", f) for f in join_preserving_maps(L, K))
            yield from (("search", f) for f in meet_preserving_maps(L, K))
            yield from (("search", h) for h in lattice_homs(L, K))
            for f in monotone_maps(L, K):
                yield "search", f
                yield "sigma", sigma_extension(f, cs, ct).map
                yield "pi", pi_extension(f, cs, ct).map
                if f.preserves_finite_joins() or f.preserves_finite_meets():
                    yield "delta", delta_extension(f, cs, ct).map
                for g in (f.left_adjoint(), f.right_adjoint()):
                    if g is not None:
                        yield "adjoint", g


def test_every_construction_builds_valid_orders_and_maps():
    """The constructors trust their data, since each construction is
    correct by theorem; this is where the theorem is checked."""
    checked = {}  # by id, holding each object so that no id is reused

    def failures(x):
        if id(x) in checked:
            return
        checked[id(x)] = x
        if isinstance(x, FinPoset):
            yield from poset_failures(x)
        elif isinstance(x, FinLattice):
            yield from lattice_failures(x)
        else:
            yield from map_failures(x)
            yield from failures(x.source)
            yield from failures(x.target)

    labels = Counter()
    for label, x in constructed_orders_and_maps():
        assert next(failures(x), None) is None, (label, x)
        labels[label] += 1
    assert labels == {
        "lattice": 37, "dual": 37, "down": 240, "filters": 37, "ideals": 37,
        "downsets": 37, "prime-filters": 36, "birkhoff": 72, "canext": 72,
        "embedding": 72, "product": 25, "projection": 50, "types": 13,
        "sub": 426, "pullback": 3565, "image": 3565, "forall": 3565,
        "canext-hyp": 466, "filter-hyp": 466, "unit": 68, "family": 27,
        "evaluation": 3, "ev-sigma": 3, "functor-sub": 213, "locale": 213,
        "extend-hom": 60, "search": 638, "sigma": 288, "pi": 288,
        "delta": 230, "adjoint": 290,
    }
