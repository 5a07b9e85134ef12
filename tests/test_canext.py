"""Canonical extension: denseness, compactness, sigma/pi/delta liftings,
unique complete extensions, Esakia identity, and square transfer."""

import pytest

from cohext.canext import (
    CanonicalExtension,
    FilteredError,
    PreservationError,
    canonical_extension,
    check_compact,
    check_composition,
    check_dense,
    comjpm_decide,
    delta_extension,
    esakia_check,
    extend_hom,
    is_filtered,
    pi_extension,
    restrict_extension,
    sigma_extension,
)
from cohext.catalog import distributive_lattices
from cohext.lattice import (
    LatticeHom,
    MonotoneMap,
    NotDistributiveError,
    boolean4,
    chain_lattice,
    join_preserving_maps,
    lattice_homs,
    m3,
    monotone_maps,
    trivial_lattice,
)


def test_extension_shapes_on_small_lattices():
    for L, size in [(chain_lattice(2), 2), (chain_lattice(3), 3), (boolean4(), 4)]:
        ce = canonical_extension(L)
        assert len(ce.ext.elements) == size
        assert ce.is_iso()
        assert check_dense(ce)
        assert check_compact(ce)


def test_nondistributive_rejected():
    with pytest.raises(NotDistributiveError):
        canonical_extension(m3())


def test_dense_fails_for_proper_sublattice_embedding():
    # 2-chain into the diamond via the bounds: the atoms are not reachable
    # as joins of meets of the image.
    two, B = chain_lattice(2), boolean4()
    ce = CanonicalExtension(two, B, {"c0": "0", "c1": "1"})
    assert not check_dense(ce)
    assert check_compact(ce)


def test_identity_embedding_dense_and_compact():
    L = boolean4()
    ce = CanonicalExtension(L, L, {a: a for a in L.elements})
    assert check_dense(ce)
    assert check_compact(ce)


def test_filter_and_ideal_elements_cover_everything_in_finite_case():
    for L in distributive_lattices(5):
        ce = canonical_extension(L)
        assert ce.filt_elements == frozenset(ce.ext.elements)
        assert ce.ideal_elements == frozenset(ce.ext.elements)


def lift_pair(L, K):
    return canonical_extension(L), canonical_extension(K)


def test_sigma_of_identity_is_identity():
    L = boolean4()
    ce = canonical_extension(L)
    s = sigma_extension(MonotoneMap.identity(L), ce, ce)
    assert s.map.mapping == {u: u for u in ce.ext.elements}


def test_sigma_of_constant_top_is_constant_top():
    L, K = chain_lattice(3), boolean4()
    cs, ct = lift_pair(L, K)
    f = MonotoneMap(L, K, {a: K.top for a in L.elements})
    s = sigma_extension(f, cs, ct)
    assert set(s.map.mapping.values()) == {ct.ext.top}


def test_sigma_equals_pi_for_hom_three_chain_to_diamond():
    L, K = chain_lattice(3), boolean4()
    cs, ct = lift_pair(L, K)
    f = MonotoneMap(L, K, {"c0": "0", "c1": "a", "c2": "1"})
    s, p = sigma_extension(f, cs, ct), pi_extension(f, cs, ct)
    assert s.map.mapping == p.map.mapping
    assert s.restricts_to_base() and p.restricts_to_base()


def test_sigma_below_pi_for_all_monotone_maps_small():
    for L in distributive_lattices(4):
        for K in distributive_lattices(4):
            cs, ct = lift_pair(L, K)
            for f in monotone_maps(L, K):
                s, p = sigma_extension(f, cs, ct), pi_extension(f, cs, ct)
                assert all(
                    ct.ext.leq(s.map(u), p.map(u)) for u in cs.ext.elements
                )


def test_delta_of_hom_is_complete_hom():
    L, K = boolean4(), chain_lattice(2)
    cs, ct = lift_pair(L, K)
    f = LatticeHom(L, K, {"0": "c0", "a": "c1", "b": "c0", "1": "c1"})
    d = delta_extension(f, cs, ct)
    assert MonotoneMap(cs.ext, ct.ext, d.map.mapping).is_lattice_hom()


def test_delta_of_atom_collapse_is_completely_join_preserving():
    # a,b |-> 1 on the diamond preserves joins but not meets, so its delta
    # lifting is completely join-preserving without being a hom.
    L, K = boolean4(), chain_lattice(2)
    cs, ct = lift_pair(L, K)
    f = MonotoneMap(L, K, {"0": "c0", "a": "c1", "b": "c1", "1": "c1"})
    assert f.preserves_finite_joins() and not f.preserves_finite_meets()
    d = delta_extension(f, cs, ct)
    assert d.map.preserves_finite_joins()


def test_delta_of_meet_only_preserving_map():
    L = chain_lattice(3)
    ce = canonical_extension(L)
    # top-preserving, meet-preserving, but moves bottom: joins not preserved
    f = MonotoneMap(L, L, {"c0": "c1", "c1": "c1", "c2": "c2"})
    assert f.preserves_finite_meets() and not f.preserves_finite_joins()
    d = delta_extension(f, ce, ce)
    assert d.map.preserves_finite_meets()


def test_delta_rejects_doubly_nonpreserving_map():
    B = boolean4()
    ce = canonical_extension(B)
    # monotone on the diamond, moves bottom up and breaks a meet
    f = MonotoneMap(B, B, {"0": "a", "a": "1", "b": "1", "1": "1"})
    assert not f.preserves_finite_joins() and not f.preserves_finite_meets()
    with pytest.raises(PreservationError):
        delta_extension(f, ce, ce)


def test_composition_law_sigma_with_join_preserving_outer():
    lats = distributive_lattices(4)
    for M in lats[:4]:
        for L in lats[:4]:
            for K in lats[:4]:
                cm, cl, ck = (
                    canonical_extension(M),
                    canonical_extension(L),
                    canonical_extension(K),
                )
                for f in join_preserving_maps(L, K):
                    for g in monotone_maps(M, L)[:6]:
                        rep = check_composition(g, f, "sigma", cm, cl, ck)
                        assert rep.holds, rep.witness


def test_composition_with_identity():
    L = boolean4()
    ce = canonical_extension(L)
    ident = MonotoneMap.identity(L)
    for g in monotone_maps(L, L)[:10]:
        assert check_composition(g, ident, "sigma", ce, ce, ce).holds
        assert check_composition(g, ident, "pi", ce, ce, ce).holds


def test_composition_law_pi_with_meet_preserving_outer():
    from cohext.lattice import meet_preserving_maps

    lats = distributive_lattices(3)
    for M in lats:
        for L in lats:
            for K in lats:
                cm, cl, ck = (
                    canonical_extension(M),
                    canonical_extension(L),
                    canonical_extension(K),
                )
                for f in meet_preserving_maps(L, K):
                    for g in monotone_maps(M, L)[:6]:
                        rep = check_composition(g, f, "pi", cm, cl, ck)
                        assert rep.holds, rep.witness


def test_unique_complete_extension_up_to_five():
    # Homs into a complete (finite) lattice extend uniquely to the
    # extension; counted by enumerating all bounded homs from the extension
    # (complete homs, at finite scale) and filtering the restriction.
    lats = distributive_lattices(5)
    for L in lats:
        ce = canonical_extension(L)
        for K in lats:
            ext_homs = lattice_homs(ce.ext, K)
            for h in lattice_homs(L, K):
                agreeing = [
                    g
                    for g in ext_homs
                    if all(g(ce.e(a)) == h(a) for a in L.elements)
                ]
                assert len(agreeing) == 1
                hbar = extend_hom(h, ce)
                assert agreeing[0].mapping == hbar.mapping


def test_esakia_singleton_and_principal_filtered_sets():
    L = chain_lattice(3)
    ce = canonical_extension(L)
    ident = MonotoneMap.identity(L)
    for x in ce.filt_elements:
        assert esakia_check(ident, [x], ce, ce)
    above = [x for x in ce.filt_elements if ce.ext.leq(ce.e("c1"), x)]
    assert esakia_check(ident, above, ce, ce)


def test_esakia_exhaustive_small():
    # Every join-preserving map, every filtered set of filter elements.
    for L in distributive_lattices(4):
        cs = canonical_extension(L)
        subsets = []
        elems = list(cs.filt_elements)
        for mask in range(1, 1 << len(elems)):
            F = [elems[i] for i in range(len(elems)) if mask >> i & 1]
            if is_filtered(cs, F):
                subsets.append(F)
        for K in distributive_lattices(4):
            ct = canonical_extension(K)
            for f in join_preserving_maps(L, K):
                for F in subsets:
                    assert esakia_check(f, F, cs, ct)


def test_esakia_rejects_unfiltered():
    B = boolean4()
    ce = canonical_extension(B)
    bad = [ce.e("a"), ce.e("b")]  # no common lower bound inside the set
    with pytest.raises(FilteredError):
        esakia_check(MonotoneMap.identity(B), bad, ce, ce)


def test_comjpm_identity_square():
    L = chain_lattice(3)
    h = LatticeHom.identity(L)
    f = MonotoneMap.identity(L)
    assert comjpm_decide(h, h, f, f) == (True, True)


def test_comjpm_agreement_on_commuting_squares_sample():
    lats = distributive_lattices(3)
    for L1 in lats:
        for L2 in lats:
            for K1 in lats:
                for K2 in lats:
                    fs = join_preserving_maps(L1, L2)
                    gs = join_preserving_maps(K1, K2)
                    h1s = lattice_homs(L1, K1)
                    h2s = lattice_homs(L2, K2)
                    for f in fs:
                        for h1 in h1s:
                            for h2 in h2s:
                                for g in gs:
                                    if any(
                                        g(h1(a)) != h2(f(a))
                                        for a in L1.elements
                                    ):
                                        continue
                                    c1, c2 = comjpm_decide(h1, h2, f, g)
                                    assert c1 == c2


def test_restrict_extension_edges_and_diamond():
    B = boolean4()
    full = restrict_extension(B, "1")
    assert len(full.ext.elements) == 4
    bottom = restrict_extension(B, "0")
    assert len(bottom.ext.elements) == 1
    atom = restrict_extension(B, "a")
    assert len(atom.ext.elements) == 2
    assert atom.base.iso_to(chain_lattice(2)) is not None
    assert check_dense(atom) and check_compact(atom)


def test_trivial_lattice_extension():
    ce = canonical_extension(trivial_lattice())
    assert len(ce.ext.elements) == 1
    assert ce.is_iso() and check_dense(ce) and check_compact(ce)


# -- oracles for the tabulated fast paths ---------------------------------------


def compact_all_subset_pairs(ce):
    """Compactness quantified literally over all subset pairs (F, I)."""
    elems = ce.base.elements
    n = len(elems)
    subsets = []
    for mask in range(1 << n):
        subsets.append([elems[i] for i in range(n) if mask >> i & 1])
    for F in subsets:
        mF_ext = ce.ext.meet_all(ce.e(a) for a in F)
        mF_base = ce.base.meet_all(F)
        for I in subsets:
            if ce.ext.leq(mF_ext, ce.ext.join_all(ce.e(a) for a in I)):
                if not ce.base.leq(mF_base, ce.base.join_all(I)):
                    return False
    return True


def hand_built_embeddings():
    two, B = chain_lattice(2), boolean4()
    return [
        CanonicalExtension(two, B, {"c0": "0", "c1": "1"}),
        CanonicalExtension(B, B, {a: a for a in B.elements}),
    ]


def unchecked_extension(base, ext, embed):
    """An embedding built past the constructor's hom/injectivity checks."""
    ce = object.__new__(CanonicalExtension)
    for k, v in (("base", base), ("ext", ext), ("embed", embed)):
        object.__setattr__(ce, k, v)
    return ce


def test_compact_matches_all_subset_pairs_oracle():
    extensions = [canonical_extension(L) for L in distributive_lattices(6)]
    extensions += hand_built_embeddings()
    for ce in extensions:
        assert check_compact(ce) == compact_all_subset_pairs(ce) is True
    # a non-injective map is not compact: c1 <= c0 after collapsing them
    three, two = chain_lattice(3), chain_lattice(2)
    collapse = unchecked_extension(three, two, {"c0": "c0", "c1": "c0", "c2": "c1"})
    assert check_compact(collapse) == compact_all_subset_pairs(collapse) is False


def test_cached_tables_match_their_definitions():
    extensions = [canonical_extension(L) for L in distributive_lattices(6)]
    extensions += hand_built_embeddings()
    for ce in extensions:
        ext, base = ce.ext, ce.base
        image = frozenset(ce.embed.values())
        filt = frozenset(
            x for x in ext.elements
            if x == ext.meet_all(y for y in image if ext.leq(x, y))
        )
        idl = frozenset(
            x for x in ext.elements
            if x == ext.join_all(y for y in image if ext.leq(y, x))
        )
        assert ce.image == image
        assert ce.filt_elements == filt and ce.ideal_elements == idl
        for u in ext.elements:
            assert ce.filter_of[u] == tuple(
                a for a in base.elements if ext.leq(u, ce.e(a))
            )
            assert ce.ideal_of[u] == tuple(
                a for a in base.elements if ext.leq(ce.e(a), u)
            )
            assert set(ce.filt_below[u]) == {x for x in filt if ext.leq(x, u)}
            assert set(ce.ideal_above[u]) == {y for y in idl if ext.leq(u, y)}


def rescan_tables(f, cs, ct):
    """Sigma and pi by rescanning the filter and ideal elements with leq."""
    ext_s, ext_t, base = cs.ext, ct.ext, cs.base.elements
    on_filt = {
        x: ext_t.meet_all(ct.e(f(a)) for a in base if ext_s.leq(x, cs.e(a)))
        for x in cs.filt_elements
    }
    on_idl = {
        y: ext_t.join_all(ct.e(f(a)) for a in base if ext_s.leq(cs.e(a), y))
        for y in cs.ideal_elements
    }
    sigma = {
        u: ext_t.join_all(on_filt[x] for x in cs.filt_elements if ext_s.leq(x, u))
        for u in ext_s.elements
    }
    pi = {
        u: ext_t.meet_all(on_idl[y] for y in cs.ideal_elements if ext_s.leq(u, y))
        for u in ext_s.elements
    }
    return sigma, pi


def test_sigma_pi_match_rescan_formula_small():
    for L in distributive_lattices(4):
        for K in distributive_lattices(4):
            cs, ct = lift_pair(L, K)
            for f in monotone_maps(L, K):
                sigma, pi = rescan_tables(f, cs, ct)
                assert sigma_extension(f, cs, ct).map.mapping == sigma
                assert pi_extension(f, cs, ct).map.mapping == pi
