"""Lattice substrate: downsets, filters, prime filters, Birkhoff duality."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cohext.catalog import distributive_lattices
from cohext.lattice import (
    FinLattice,
    LatticeError,
    LatticeHom,
    MonotoneMap,
    NotDistributiveError,
    birkhoff,
    boolean4,
    chain_lattice,
    check_distributive,
    downset_lattice,
    filter_lattice,
    filters,
    ideal_lattice,
    is_filter,
    is_ideal,
    is_prime_filter,
    join_irreducibles,
    m3,
    monotone_maps,
    prime_filters,
    product_lattice,
    trivial_lattice,
)
from cohext.order import FinPoset, OrderError, antichain, chain, check_adjoint_pair


def all_subsets(elems):
    out = [frozenset()]
    for e in elems:
        out += [s | {e} for s in out]
    return out


def test_poset_validation_rejects_bad_relations():
    with pytest.raises(OrderError):
        FinPoset(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))
    with pytest.raises(OrderError):
        FinPoset(("a",), frozenset())


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


def test_filters_match_subset_oracle_on_small_lattices():
    for L in [chain_lattice(2), chain_lattice(3), boolean4(), m3()]:
        oracle = {s for s in all_subsets(L.elements) if is_filter(L, s)}
        assert set(filters(L)) == oracle
        oracle_i = {s for s in all_subsets(L.elements) if is_ideal(L, s)}
        assert set(ideals_of(L)) == oracle_i


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


def test_prime_filter_join_irreducible_bijection():
    # The meet map rho |-> /\rho is an order iso from (PrFl(L), reverse
    # inclusion) onto the induced poset of join-irreducibles, for every
    # distributive lattice of at most eight elements.
    from cohext.lattice import prime_filter_poset
    from cohext.order import set_name

    for L in distributive_lattices(8):
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
            assert check_adjoint_pair(
                A.poset, C.poset, comp_left.mapping, comp_right.mapping
            )


def test_lattice_table_validation_reports_bad_entry():
    p = chain(["0", "1"])
    with pytest.raises(LatticeError):
        FinLattice(
            p,
            {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "0", ("1", "1"): "1"},
            {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"},
            "0",
            "1",
        )


def test_product_lattice_is_componentwise():
    P = product_lattice(chain_lattice(2), chain_lattice(2))
    assert P.iso_to(boolean4()) is not None


def test_hom_validation():
    L, K = chain_lattice(3), boolean4()
    with pytest.raises(LatticeError):
        LatticeHom(L, K, {"c0": "0", "c1": "a", "c2": "b"})
    h = LatticeHom(L, K, {"c0": "0", "c1": "a", "c2": "1"})
    assert h.is_lattice_hom()


def test_trivial_lattice_has_no_prime_filters():
    assert prime_filters(trivial_lattice()) == []


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_rejected_map_names_first_offending_pair_in_product_order(hash_seed):
    # Offending pairs are (0,a), (0,b), (0,1) and (b,1); the witness must be
    # the first of them in product order whatever the hash seed.
    code = (
        "from cohext.lattice import LatticeError, MonotoneMap, boolean4\n"
        "B = boolean4()\n"
        "try:\n"
        "    MonotoneMap(B, B, {'0': '1', 'a': '0', 'b': 'b', '1': 'a'})\n"
        "except LatticeError as e:\n"
        "    print(e)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "not order-preserving on (0,a)\n"
