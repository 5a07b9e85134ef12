"""Randomized structure properties, sampling posets beyond the exhaustive
enumeration bound."""

from operator import ge, le

from hypothesis import given, settings
from hypothesis import strategies as st

from cohext.canext import canonical_extension, check_compact, check_dense
from cohext.catalog import distributive_lattices
from cohext.lattice import (
    FinLattice,
    MonotoneMap,
    birkhoff,
    check_distributive,
    downset_lattice,
    filter_lattice,
    ideal_lattice,
    join_irreducibles,
    lattice_failures,
    prime_filters,
)
from cohext.order import FinPoset
from helpers import boolean4, m3


@st.composite
def posets(draw, max_size=5):
    n = draw(st.integers(min_value=0, max_value=max_size))
    names = [f"p{i}" for i in range(n)]
    pairs = set()
    # build upward: element i may sit above any subset of earlier elements,
    # so the relation is a partial order by construction
    for i in range(n):
        below = draw(st.sets(st.integers(min_value=0, max_value=max(i - 1, 0))))
        for j in below:
            if j < i:
                pairs.add((names[j], names[i]))
    return FinPoset.from_pairs(names, pairs)


@given(posets())
@settings(max_examples=60, deadline=None)
def test_downset_lattices_are_distributive(p):
    L = downset_lattice(p)
    assert check_distributive(L)
    assert next(lattice_failures(L), None) is None


@given(posets())
@settings(max_examples=40, deadline=None)
def test_birkhoff_roundtrip_random(p):
    L = downset_lattice(p)
    to, fro = birkhoff(L)
    assert all(fro(to(a)) == a for a in L.elements)
    assert all(to(fro(d)) == d for d in to.target.elements)


@given(posets(max_size=4))
@settings(max_examples=30, deadline=None)
def test_filter_lattice_meet_iso_random(p):
    L = downset_lattice(p)
    FL = filter_lattice(L)
    iso = MonotoneMap(FL, L, {n: L.meet_all(FL.decode[n]) for n in FL.elements})
    assert iso.is_iso()


def test_filter_and_ideal_tables_match_the_derived_ones():
    for L in distributive_lattices(6) + [m3(), boolean4()]:
        for S, leq in ((filter_lattice(L), ge), (ideal_lattice(L), le)):
            order = FinPoset(
                S.elements,
                frozenset(
                    (a, b)
                    for a in S.elements
                    for b in S.elements
                    if leq(S.decode[a], S.decode[b])
                ),
            )
            derived = FinLattice.from_poset(order)
            assert S.poset.pairs == order.pairs
            assert S.meet_table == derived.meet_table
            assert S.join_table == derived.join_table
            assert (S.bottom, S.top) == (derived.bottom, derived.top)


@given(posets(max_size=4))
@settings(max_examples=30, deadline=None)
def test_canonical_extension_random(p):
    L = downset_lattice(p)
    ce = canonical_extension(L)
    assert ce.is_iso()
    assert check_dense(ce)
    if len(L.elements) <= 6:  # the compactness sweep is 4^|L|
        assert check_compact(ce)
    assert len(prime_filters(L)) == len(join_irreducibles(L).elements)
