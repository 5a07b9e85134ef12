"""Canonical extension: denseness, compactness, sigma/pi/delta liftings,
unique complete extensions, Esakia identity, and square transfer."""

from collections import Counter
from itertools import product

import pytest

import cohext.canext as canext
from cohext.canext import (
    CanonicalExtension,
    FilteredError,
    PreservationError,
    SquareTransferReport,
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
    sigma_extension,
    square_transfer,
    _kept_sigma_extension,
    _kept_transfer_left,
    _kept_transfer_right,
    _two_stage,
)
from cohext.catalog import distributive_lattices
from cohext.jsonio import lattice_from_json, lattice_to_json
from cohext.lattice import (
    FinLattice,
    LatticeError,
    LatticeHom,
    MonotoneMap,
    NotDistributiveError,
    downset_lattice,
    filter_lattice,
    join_preserving_maps,
    lattice_homs,
    map_failures,
    monotone_maps,
    require_distributive,
)
from cohext.order import FinPoset
from helpers import (
    antichain,
    boolean4,
    chain_lattice,
    m3,
    trivial_lattice,
)
from law_oracle import comjpm_oracle


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


def test_extension_axioms_up_to_ten():
    # criterion 1 past the bound of its gated run
    for L in distributive_lattices(10):
        ce = canonical_extension(L)
        assert check_dense(ce) and check_compact(ce)


def test_filter_and_ideal_elements_cover_everything_in_finite_case():
    for L in distributive_lattices(5):
        ce = canonical_extension(L)
        assert ce.filt_elements == frozenset(ce.ext.elements)
        assert ce.dual.filt_elements == frozenset(ce.ext.elements)


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


def test_comjpm_refuses_f_that_starts_elsewhere():
    L, M = chain_lattice(3), chain_lattice(2)
    h, g = LatticeHom.identity(L), MonotoneMap.identity(L)
    with pytest.raises(LatticeError, match="same lattice"):
        comjpm_decide(h, h, MonotoneMap.identity(M), g)


def test_extension_keeps_the_prime_filters_of_its_base():
    from cohext.lattice import prime_filter_poset

    for L in distributive_lattices(6) + [boolean4()]:
        ce = canonical_extension(L)
        assert ce.ext.base_poset == prime_filter_poset(L)


def test_comjpm_reads_the_extension_prime_filters(monkeypatch):
    # the prime filters are derived once per lattice, however often the
    # extension, its report line and the square transfer read them
    from cohext.lattice import prime_filters

    derive = FinLattice.__dict__["prime_filter_sets"]
    derived, original = [], derive.func
    monkeypatch.setattr(derive, "func", lambda L: derived.append(L) or original(L))
    L = chain_lattice(4, prefix="once")  # equal to no lattice extended before
    h, f = LatticeHom.identity(L), MonotoneMap.identity(L)
    for _ in range(2):
        assert comjpm_decide(h, h, f, f) == (True, True)
        assert len(prime_filters(canonical_extension(L).base)) == 3
    assert len(derived) == 1 and derived[0] is L


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


def counting_sigma_lifts(monkeypatch) -> list:
    """The maps `comjpm_decide` lifts from now on, one entry per lift."""
    import cohext.canext as canext

    lifted, original = [], canext.sigma_extension
    monkeypatch.setattr(
        canext, "sigma_extension", lambda f, *ces: lifted.append(f) or original(f, *ces)
    )
    return lifted


def test_squares_that_share_f_share_its_lift(monkeypatch):
    from cohext.canext import _kept_sigma_extension

    lifted = counting_sigma_lifts(monkeypatch)
    L = chain_lattice(3, prefix="shared")  # equal to no lattice lifted before
    ce = canonical_extension(L)
    f = MonotoneMap.identity(L)
    homs = lattice_homs(L, L)
    assert len(homs) == 3
    for h in homs:  # id o h = h o id: three squares over f
        assert comjpm_decide(h, h, f, f) == (True, True)
    assert lifted == [f]
    lift = _kept_sigma_extension(f)
    assert lift.base_map is f and lift.source is ce and lift.target is ce
    assert _kept_sigma_extension(f) is lift
    assert lifted == [f]


def test_the_square_transfer_lifts_each_f_once(monkeypatch):
    # the criterion-4 loop over DL(<=3), on fresh copies of its three chains
    # so that no map was lifted before
    lats = [chain_lattice(n, prefix="once_per_f") for n in (1, 2, 3)]
    assert len(lats) == len(distributive_lattices(3))
    lifted = counting_sigma_lifts(monkeypatch)
    squares, shared = 0, set()
    for L1 in lats:
        for K1 in lats:
            h1s = lattice_homs(L1, K1)
            for L2 in lats:
                fs = join_preserving_maps(L1, L2)
                for K2 in lats:
                    h2s = lattice_homs(L2, K2)
                    gs = join_preserving_maps(K1, K2)
                    for f in fs:
                        for h1 in h1s:
                            for h2 in h2s:
                                for g in gs:
                                    if any(g(h1(a)) != h2(f(a)) for a in L1.elements):
                                        continue
                                    assert comjpm_decide(h1, h2, f, g) in ((True, True), (False, False))
                                    squares += 1
                                    shared.add(id(f))
    assert len(lifted) == len({id(f) for f in lifted}) == len(shared) < squares


def commuting_squares(L1, K1, L2, K2):
    """The commuting squares g o h1 = h2 o f of a quadruple, as the tuples
    (h1, h2, f, g) `comjpm_decide` takes, in the order of the per-square
    loop: f, then h2, then g, then h1."""
    h1s, fs = lattice_homs(L1, K1), join_preserving_maps(L1, L2)
    h2s, gs = lattice_homs(L2, K2), join_preserving_maps(K1, K2)
    for f, h2, g, h1 in product(fs, h2s, gs, h1s):
        if all(g(h1(a)) == h2(f(a)) for a in L1.elements):
            yield h1, h2, f, g


def test_comjpm_decide_gives_the_oracle_pair_on_every_square_up_to_four():
    lats = distributive_lattices(4)
    squares = 0
    for quad in product(lats, repeat=4):
        loop = list(commuting_squares(*quad))
        for square in loop:
            assert comjpm_decide(*square) == comjpm_oracle(*square) == (True, True)
        assert square_transfer(*quad) == SquareTransferReport(len(loop), None)
        squares += len(loop)
    assert squares == 49481


def test_comjpm_decide_raises_what_the_oracle_raises():
    L, K = chain_lattice(3), boolean4()
    homs = lattice_homs(L, K)
    f, g = MonotoneMap.identity(L), MonotoneMap.identity(K)
    top_of_L = MonotoneMap(L, L, {a: L.top for a in L.elements})
    top_of_K = MonotoneMap(K, K, {b: K.top for b in K.elements})
    elsewhere = MonotoneMap.identity(chain_lattice(2))
    # the homs agree at the bottom c0 and first differ at c1
    h1, h2 = homs[0], homs[1]
    cases = {
        (homs[0], homs[0], top_of_L, g): "f must preserve finite joins",
        (homs[0], homs[0], f, top_of_K): "g must preserve all joins",
        (homs[0], homs[0], elsewhere, g): "f and h1 must start at the same lattice",
        (h1, h2, f, g): "base square does not commute at c1",
    }
    for square, message in cases.items():
        with pytest.raises(LatticeError) as new:
            comjpm_decide(*square)
        with pytest.raises(LatticeError) as old:
            comjpm_oracle(*square)
        assert type(new.value) is type(old.value)
        assert str(new.value) == str(old.value) == message


@pytest.mark.parametrize("broken", ["lift", "meet"])
def test_a_broken_table_fails_at_the_oracle_loop_s_first_failing_square(
    monkeypatch, broken
):
    # No catalogue square fails, so one table is broken: ext(h2) at one
    # element, failing (2), or every meet in K1, failing (1).  The lattices
    # are fresh, so the tables kept under the break stay on their maps.
    L1, K1, L2 = (chain_lattice(3, prefix=f"broken_{broken}_{p}") for p in "lkm")
    K2 = boolean4()
    if broken == "lift":
        h2 = lattice_homs(L2, K2)[2]
        u = canonical_extension(L2).ext.elements[1]
        extend = canext.extend_hom

        def broken_extend(h, ce):
            hbar = extend(h, ce)
            if h is not h2:
                return hbar
            wrong = K2.bottom if hbar(u) == K2.top else K2.top
            return MonotoneMap(hbar.source, hbar.target, {**hbar.mapping, u: wrong})

        monkeypatch.setattr(canext, "extend_hom", broken_extend)
    else:
        meet_all = FinLattice.meet_all
        monkeypatch.setattr(
            FinLattice, "meet_all", lambda M, xs: M.top if M is K1 else meet_all(M, xs)
        )
    loop = list(commuting_squares(L1, K1, L2, K2))
    failing = []
    for square in loop:
        try:
            comjpm_oracle(*square)
        except AssertionError:
            failing.append(square)
    assert 0 < len(failing) < len(loop) and loop.index(failing[0]) > 0
    report = square_transfer(L1, K1, L2, K2)
    assert report == SquareTransferReport(len(loop), failing[0])
    assert not report.holds
    with pytest.raises(AssertionError, match="square-transfer conditions disagree"):
        comjpm_decide(*failing[0])


def kept_results(function) -> str:
    """The attribute under which `order.cached_method` keeps `function`'s
    results on its first argument."""
    return f"_{function.__name__}_results"


def test_the_batch_keeps_nothing_on_the_maps_it_pairs():
    L1, K1, L2, K2 = (chain_lattice(3, prefix=f"batch_{p}") for p in "lkmn")
    report = square_transfer(L1, K1, L2, K2)
    assert report.squares > 0 and report.holds
    maps = join_preserving_maps(L1, L2) + join_preserving_maps(K1, K2)
    kept = [
        kept_results(fn)
        for fn in (_kept_transfer_left, _kept_transfer_right, _kept_sigma_extension)
    ]
    assert not any(hasattr(m, name) for m in maps for name in kept)


def test_equal_maps_built_apart_hash_once_and_share_one_kept_entry(monkeypatch):
    calls = Counter()
    kept = MonotoneMap._hash

    def counted(m, func=kept.func):
        calls[id(m)] += 1
        return func(m)

    monkeypatch.setattr(kept, "func", counted)
    L = chain_lattice(3, prefix="apart")
    f = MonotoneMap.identity(L)
    h, h_again = LatticeHom.identity(L), LatticeHom.identity(L)
    assert h_again is not h and h_again == h
    for _ in range(3):
        assert hash(h) == hash(h_again) == hash(
            (L, L, tuple(sorted(h.mapping.items())))
        )
    assert calls == {id(h): 1, id(h_again): 1}
    for square in ((h, h, f, f), (h_again, h_again, f, f)):
        assert comjpm_decide(*square) == (True, True)
    for fn in (_kept_transfer_left, _kept_transfer_right):
        assert len(getattr(f, kept_results(fn))) == 1


def restrict_extension(L: FinLattice, a: str) -> CanonicalExtension:
    """The canonical extension of the downset of a, realized inside the
    extension of L as the interval below the image of a."""
    require_distributive(L)
    ce = canonical_extension(L)
    base = L.down_lattice(a)
    ext = ce.ext.down_lattice(ce.e(a))
    restricted = CanonicalExtension(
        base, ext, {x: ce.e(x) for x in base.elements}
    )
    if not (check_dense(restricted) and check_compact(restricted)):
        raise LatticeError("restricted embedding is not dense and compact")
    return restricted


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
        # the ideal-side tables are the filter-side tables of the dual
        assert ce.image == image
        assert ce.filt_elements == filt and ce.dual.filt_elements == idl
        for u in ext.elements:
            assert ce.filter_of[u] == tuple(
                a for a in base.elements if ext.leq(u, ce.e(a))
            )
            assert ce.dual.filter_of[u] == tuple(
                a for a in base.elements if ext.leq(ce.e(a), u)
            )
            assert set(ce.filt_below[u]) == {x for x in filt if ext.leq(x, u)}
            assert set(ce.dual.filt_below[u]) == {y for y in idl if ext.leq(u, y)}
        assert ce.filt_filters == tuple(
            (x, ce.filter_of[x]) for x in ext.elements if x in filt
        )
        assert ce.dual.filt_filters == tuple(
            (y, ce.dual.filter_of[y]) for y in ext.elements if y in idl
        )


def rescan_tables(f, cs, ct):
    """Sigma and pi by rescanning the filter and ideal elements with leq;
    the ideal elements are the join closure of the embedded image."""
    ext_s, ext_t, base = cs.ext, ct.ext, cs.base.elements
    image = [cs.e(a) for a in base]
    ideal_elements = [
        y for y in ext_s.elements
        if y == ext_s.join_all(x for x in image if ext_s.leq(x, y))
    ]
    on_filt = {
        x: ext_t.meet_all(ct.e(f(a)) for a in base if ext_s.leq(x, cs.e(a)))
        for x in cs.filt_elements
    }
    on_idl = {
        y: ext_t.join_all(ct.e(f(a)) for a in base if ext_s.leq(cs.e(a), y))
        for y in ideal_elements
    }
    sigma = {
        u: ext_t.join_all(on_filt[x] for x in cs.filt_elements if ext_s.leq(x, u))
        for u in ext_s.elements
    }
    pi = {
        u: ext_t.meet_all(on_idl[y] for y in ideal_elements if ext_s.leq(u, y))
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


def test_trusted_lifts_pass_the_validating_constructor():
    lats = distributive_lattices(5)
    for L in lats:
        for K in lats:
            cs, ct = lift_pair(L, K)
            for f in monotone_maps(L, K):
                for lift in (sigma_extension, pi_extension):
                    assert next(map_failures(lift(f, cs, ct).map), None) is None
            for h in lattice_homs(L, K):
                hbar = extend_hom(h, cs)
                assert type(hbar) is LatticeHom
                assert next(map_failures(hbar), None) is None


def test_extend_hom_validates_a_wrapped_embedding():
    # the two-chain sent to the bounds of the diamond is not dense: the
    # extension formula sends 1 = a \/ b to c1 but a and b to c0, which
    # the validating constructor refuses
    two, B = chain_lattice(2), boolean4()
    wrapped = CanonicalExtension(two, B, {"c0": "0", "c1": "1"})
    h = LatticeHom.identity(two)
    for _ in range(2):  # a refusal is not kept
        with pytest.raises(LatticeError, match="not a lattice homomorphism"):
            extend_hom(h, wrapped)


def test_extend_hom_is_kept_per_extension_and_equals_the_formula():
    lats = distributive_lattices(4)
    for L in lats:
        ce = canonical_extension(L)
        for K in lats:
            for h in lattice_homs(L, K):
                hbar = extend_hom(h, ce)
                assert extend_hom(h, ce) is hbar
                assert hbar.source is ce.ext and hbar.target is K
                assert hbar.mapping == _two_stage(ce, K, h.mapping)


def two_stage_oracle(ce, T, value):
    """The two-stage formula as `_two_stage` read it with generators: meets
    over each filter by `meet_all`, then joins over the filter elements
    below by `join_all`."""
    on_filt = {
        x: T.meet_all(value[a] for a in ce.filter_of[x]) for x in ce.filt_elements
    }
    return {
        u: T.join_all(on_filt[x] for x in ce.filt_below[u]) for u in ce.ext.elements
    }


def test_two_stage_matches_the_generator_oracle():
    lats = distributive_lattices(4)
    for L in lats:
        for K in lats:
            cs, ct = lift_pair(L, K)
            for f in monotone_maps(L, K):
                value = {a: ct.e(b) for a, b in f.mapping.items()}
                assert sigma_extension(f, cs, ct).map.mapping == two_stage_oracle(
                    cs, ct.ext, value
                )
                assert pi_extension(f, cs, ct).map.mapping == two_stage_oracle(
                    cs.dual, ct.ext.dual, value
                )
            for h in lattice_homs(L, K):
                assert extend_hom(h, cs).mapping == two_stage_oracle(cs, K, h.mapping)
    # an embedding that is not onto: the two-chain sent to the bounds of
    # the diamond, whose extension of a hom is refused unless it is one
    two, B = chain_lattice(2), boolean4()
    wrapped = CanonicalExtension(two, B, {"c0": "0", "c1": "1"})
    for K in lats:
        ct = canonical_extension(K)
        for f in monotone_maps(two, K):
            value = {a: ct.e(b) for a, b in f.mapping.items()}
            assert sigma_extension(f, wrapped, ct).map.mapping == two_stage_oracle(
                wrapped, ct.ext, value
            )
            assert pi_extension(f, wrapped, ct).map.mapping == two_stage_oracle(
                wrapped.dual, ct.ext.dual, value
            )
        for h in lattice_homs(two, K):
            table = two_stage_oracle(wrapped, K, h.mapping)
            assert _two_stage(wrapped, K, h.mapping) == table
            if LatticeHom(B, K, table).is_lattice_hom():
                assert extend_hom(h, wrapped).mapping == table
            else:
                with pytest.raises(LatticeError, match="not a lattice homomorphism"):
                    extend_hom(h, wrapped)


class HashAs:
    """Stands for a member of a tuple by its hash alone."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def per_call_hash(x):
    """The structural hash by the formulas `__hash__` evaluated on every
    call before it was kept; a tuple's hash reads only its members'
    hashes, so the kept values do not enter."""
    if isinstance(x, FinPoset):
        return hash((frozenset(x.elements), x.pairs))
    if isinstance(x, FinLattice):
        return hash((HashAs(per_call_hash(x.poset)), x.bottom, x.top))
    return hash((
        HashAs(per_call_hash(x.base)), HashAs(per_call_hash(x.ext)),
        tuple(sorted(x.embed.items())),
    ))


def rebuilt(L):
    """A lattice equal to L, built anew from its JSON form."""
    return lattice_from_json(lattice_to_json(L))


def rebuilt_extension(ce):
    """An extension equal to ce, its base and extension rebuilt anew."""
    return CanonicalExtension(rebuilt(ce.base), rebuilt(ce.ext), dict(ce.embed))


def test_kept_hashes_equal_the_per_call_formulas():
    for L in distributive_lattices(5):
        ce = canonical_extension(L)
        for x in (L, L.dual, ce, ce.dual, ce.ext, ce.ext.dual):
            assert hash(x) == per_call_hash(x)
        for P in (L.poset, L.dual.poset):
            assert hash(P) == per_call_hash(P)


def test_structures_rebuilt_equal_hit_the_kept_extensions_and_maps():
    lats = distributive_lattices(5)
    for L in lats:
        for M in (L, L.dual):
            M2 = rebuilt(M)
            assert M2 is not M and M2 == M and hash(M2) == hash(M)
            assert canonical_extension(M2) is canonical_extension(M)
        ce = canonical_extension(L)
        ce2 = rebuilt_extension(ce)
        assert ce2 is not ce and ce2 == ce and hash(ce2) == hash(ce)
        assert ce2.dual == ce.dual and hash(ce2.dual) == hash(ce.dual)
        for K in lats:
            homs = lattice_homs(L, K)
            assert all(
                h2 is h for h2, h in zip(lattice_homs(L, rebuilt(K)), homs, strict=True)
            )
            for h in homs:
                assert extend_hom(h, ce2) is extend_hom(h, ce)
                assert extend_hom(h.dual, ce2.dual) is extend_hom(h.dual, ce.dual)


def test_each_structure_computes_its_hash_once(monkeypatch):
    # fresh instances, none hashed yet: the extensions are built from a
    # second catalogue and rebuilt through jsonio
    lats = distributive_lattices(5)
    exts = [rebuilt_extension(canonical_extension(L)) for L in distributive_lattices(5)]
    structures = []
    for L, ce in zip(lats, exts):
        structures += [L, L.dual, ce, ce.dual, ce.base, ce.ext, ce.ext.dual]
    structures += [x.poset for x in structures if isinstance(x, FinLattice)]
    calls = Counter()
    for cls in (FinPoset, FinLattice, CanonicalExtension):
        kept = cls._hash

        def counted(x, func=kept.func):
            calls[id(x)] += 1
            return func(x)

        monkeypatch.setattr(kept, "func", counted)
    for _ in range(3):
        for x in structures:
            assert hash(x) == per_call_hash(x)
    assert [calls[id(x)] for x in structures] == [1] * len(structures)


def test_reprs_stay_short():
    B8 = downset_lattice(antichain("abc"))
    ce = canonical_extension(B8)
    sig = sigma_extension(MonotoneMap.identity(B8), ce, ce)
    for obj in (ce, ce.ext, filter_lattice(B8), B8, sig):
        assert len(repr(obj)) < 200, repr(obj)
    assert repr(ce) == (
        "CanonicalExtension(FinLattice(8 elements) -> FinLattice(8 elements))"
    )


def test_the_extension_of_the_dual_is_the_dual_of_the_extension():
    for L in [*distributive_lattices(8), boolean4(), chain_lattice(5)]:
        ce = canonical_extension(L)
        d = ce.dual
        assert d is ce.dual and d.dual is ce
        assert d.base is ce.base.dual and d.ext is ce.ext.dual and d.embed == ce.embed
        assert check_dense(d) and check_compact(d)
        assert d.ext.iso_to(canonical_extension(L.dual).ext) is not None


def test_dense_and_compact_are_self_dual_on_wrapped_embeddings():
    # an embedding of m3 into itself has no canonical extension to compare
    # with, but its dual is still an involution and dense and compact
    M = m3()
    extensions = hand_built_embeddings()
    extensions.append(CanonicalExtension(M, M, {a: a for a in M.elements}))
    for ce in extensions:
        assert ce.dual.dual is ce
        assert check_dense(ce.dual) == check_dense(ce)
        assert check_compact(ce.dual) == check_compact(ce)
