"""Categories, functors, and the concrete/posetal subobject calculus."""

from itertools import permutations, product

import pytest

from cohext import predcat
from cohext.catalog import concrete_universes, distributive_lattices
from cohext.cohcat import (
    ConcreteCohCategory,
    LatticeCategory,
    MissingLimitError,
    _functions,
    check_coherent_functor,
    check_conservative,
    check_heyting_functor,
    conservative_witness,
    fun_name,
    lattice_hom_functor,
)
from cohext.fincat import (
    CategoryError,
    FinCategory,
    FinFunctor,
    Morphism,
    _table_failures,
    category_law_failures,
    check_equivalence,
    composable_pairs,
    natural_iso,
)
from cohext.fixtures import FIXTURE_DIR
from cohext.hyperdoctrine import canext_hyperdoctrine, sub_hyperdoctrine
from cohext.jsonio import load_category
from cohext.lattice import LatticeHom, lattice_homs
from cohext.logic.models import FamilyCategory, ModelFamily, enumerate_models
from cohext.logic.parser import parse_theory
from cohext.order import set_name
from cohext.sites import (
    FilterCategory,
    irreducible_site,
    irreducible_to_types,
    semidirect_site,
    type_category,
)
from helpers import boolean4, chain_lattice


def two_point_category():
    return ConcreteCohCategory([frozenset({"x", "y"})])


def test_category_validation_catches_bad_identity():
    ms = {"i": Morphism("i", "A", "A"), "f": Morphism("f", "A", "A")}
    cat = FinCategory(("A",), ms, {("i", "i"): "i", ("f", "f"): "i",
                                   ("i", "f"): "f", ("f", "i"): "f"}, {"A": "f"})
    assert next(category_law_failures(cat)) == "right identity fails for i"


def test_concrete_category_is_associative():
    assert list(category_law_failures(two_point_category().cat)) == []


def test_sub_lattice_shapes():
    C = two_point_category()
    assert len(C.sub_lattice("{}").elements) == 1
    assert len(C.sub_lattice("{x}").elements) == 2
    assert len(C.sub_lattice("{x,y}").elements) == 4


def test_image_pullback_adjunction_and_frobenius_exhaustive():
    C = two_point_category()
    for f in C.cat.morphisms:
        pb, im = C.pullback_map(f), C.image_map(f)
        SA, SB = im.source, im.target
        for u in SA.elements:
            for v in SB.elements:
                assert SB.leq(im(u), v) == SA.leq(u, pb(v))
                assert im(SA.meet(u, pb(v))) == SB.meet(im(u), v)


def test_forall_right_adjoint_and_pointwise_formula():
    C = two_point_category()
    for f in C.cat.morphisms:
        fa, pb = C.forall_map(f), C.pullback_map(f)
        SA, SB = fa.source, fa.target
        for u in SA.elements:
            for v in SB.elements:
                assert SB.leq(v, fa(u)) == SA.leq(pb(v), u)
        A, B, m = C._funs[f]
        for u in SA.elements:
            pointwise = frozenset(
                b
                for b in B
                if all(a in SA.decode[u] for a in A if m[a] == b)
            )
            assert C.sub_lattice(C.cat.tgt(f)).decode[fa(u)] == pointwise


def forall_closed_form(C, f):
    """Universal image along f in closed form: in a fragment of sets, the
    points of the target all of whose preimages lie in u; in a lattice,
    b /\\ (a -> u) along a <= b."""
    SA, SB = C.sub_lattice(C.cat.src(f)), C.sub_lattice(C.cat.tgt(f))
    if isinstance(C, LatticeCategory):
        L, a, b = C.lattice, C.cat.src(f), C.cat.tgt(f)
        return {u: L.meet(b, L.implies(a, u)) for u in SA.elements}
    A, B, m = C._funs[f]
    return {
        u: SB.encode[
            frozenset(b for b in B if all(a in SA.decode[u] for a in A if m[a] == b))
        ]
        for u in SA.elements
    }


def test_forall_as_right_adjoint_matches_the_closed_forms():
    cats = [LatticeCategory(L) for L in distributive_lattices(6)]
    cats += [ConcreteCohCategory(seeds) for seeds in concrete_universes(3)]
    for C in cats:
        for f in C.cat.morphisms:
            fa = C.forall_map(f)
            assert fa.source is C.sub_lattice(C.cat.src(f))
            assert fa.mapping == forall_closed_form(C, f)


def test_heyting_implication_agrees_with_pointwise():
    # U -> W computed through forall along the mono equals the pointwise set
    C = two_point_category()
    A = "{x,y}"
    S = C.sub_lattice(A)
    for u in S.elements:
        uo, um = C.subobject_object(A, u)
        for w in S.elements:
            impl = C.forall_map(um)(C.pullback_map(um)(w))
            pointwise = frozenset(
                x
                for x in C.of_name[A]
                if x not in S.decode[u] or x in S.decode[w]
            )
            assert S.decode[impl] == pointwise


def test_beck_chevalley_on_chosen_squares():
    for C in [two_point_category(), LatticeCategory(boolean4())]:
        for sq in C.chosen_squares():
            pbB = C.pullback_map(sq.beta)
            imA = C.image_map(sq.alpha)
            pbQ = C.pullback_map(sq.beta_p)
            imQ = C.image_map(sq.alpha_p)
            for a in imA.source.elements:
                assert pbB(imA(a)) == imQ(pbQ(a))


def test_products_partial_in_concrete_fragments():
    C = two_point_category()
    assert C.product("{x}", "{x,y}").obj == "{x,y}"
    with pytest.raises(MissingLimitError):
        C.product("{x,y}", "{x,y}")


def test_graph_and_morphism_recovery():
    # concrete: the singleton objects have products in the fragment
    C = two_point_category()
    for A in ["{}", "{x}"]:
        for B in ["{}", "{x}", "{x,y}"]:
            for f in C.cat.hom(A, B):
                g = C.graph(f)
                got = C.morphism_from_graph(
                    A, C.sub_lattice(A).top, B, C.sub_lattice(B).top, g
                )
                assert got == f
    # posetal: products are meets, so every graph is recoverable
    P = LatticeCategory(boolean4())
    for f in P.cat.morphisms:
        g = P.graph(f)
        got = P.morphism_from_graph(
            P.cat.src(f), P.sub_lattice(P.cat.src(f)).top,
            P.cat.tgt(f), P.sub_lattice(P.cat.tgt(f)).top, g,
        )
        assert got == f


def test_identity_functor_checks():
    C = LatticeCategory(chain_lattice(3))
    F = FinFunctor.identity(C.cat)
    assert check_coherent_functor(F, C, C)
    assert check_conservative(F, C, C)
    assert check_heyting_functor(F, C, C)


def test_constant_functor_not_conservative():
    C = two_point_category()
    T = C.terminal()
    obj_map = {A: T for A in C.cat.objects}
    tid = C.cat.identity(T)
    mor_map = {f: tid for f in C.cat.morphisms}
    F = FinFunctor(C.cat, C.cat, obj_map, mor_map)
    assert conservative_witness(F, C, C) is not None


def test_lattice_hom_functors_property_split():
    L2, L3 = chain_lattice(2), chain_lattice(3)
    C2, C3 = LatticeCategory(L2), LatticeCategory(L3)
    emb = lattice_hom_functor(LatticeHom(L2, L3, {"c0": "c0", "c1": "c2"}), C2, C3)
    assert check_coherent_functor(emb, C2, C3)
    assert check_conservative(emb, C2, C3)
    assert check_heyting_functor(emb, C2, C3)
    collapse = lattice_hom_functor(
        LatticeHom(L3, L2, {"c0": "c0", "c1": "c0", "c2": "c1"}), C3, C2
    )
    assert check_coherent_functor(collapse, C3, C2)
    assert not check_conservative(collapse, C3, C2)
    assert not check_heyting_functor(collapse, C3, C2)


def test_equivalence_checker_with_witnesses():
    C = LatticeCategory(chain_lattice(2))
    F = FinFunctor.identity(C.cat)
    rep = check_equivalence(F)
    assert rep.is_equivalence
    # embedding 2 -> 3 misses the middle object up to iso
    L3 = LatticeCategory(chain_lattice(3))
    emb = lattice_hom_functor(
        LatticeHom(chain_lattice(2), chain_lattice(3), {"c0": "c0", "c1": "c2"}),
        C, L3,
    )
    rep = check_equivalence(emb)
    assert not rep.essentially_surjective and rep.witness


def test_equivalence_report_keeps_one_witness_per_condition():
    # two discrete objects onto the two-chain: faithful and essentially
    # surjective, but the morphism c0 <= c1 has no preimage
    C2 = LatticeCategory(chain_lattice(2)).cat
    ids = {"a": "id_a", "b": "id_b"}
    discrete = FinCategory(
        ("a", "b"),
        {i: Morphism(i, A, A) for A, i in ids.items()},
        {(i, i): i for i in ids.values()},
        ids,
    )
    F = FinFunctor(
        discrete, C2, {"a": "c0", "b": "c1"},
        {"id_a": C2.identity("c0"), "id_b": C2.identity("c1")},
    )
    rep = check_equivalence(F)
    assert (rep.full, rep.faithful, rep.essentially_surjective) == (False, True, True)
    assert rep.witnesses == {"full": "le(c0,c1) not in the image of Hom(a,b)"}
    assert rep.witness == rep.witnesses["full"]
    assert check_equivalence(FinFunctor.identity(C2)).witnesses == {}


def test_natural_iso_search():
    C = LatticeCategory(boolean4())
    F = FinFunctor.identity(C.cat)
    iso = natural_iso(F, F)
    assert iso is not None and iso.is_iso()


def natural_iso_oracle(F: FinFunctor, G: FinFunctor) -> dict[str, str] | None:
    """Backtracking over the objects; every candidate re-checks all the
    naturality squares whose two ends are assigned."""
    C, D = F.source, F.target
    objs = list(C.objects)

    def extend(i, acc):
        if i == len(objs):
            return dict(acc)
        A = objs[i]
        for c in D.hom(F.on_obj(A), G.on_obj(A)):
            if D.is_iso(c) is None:
                continue
            acc[A] = c
            ok = True
            for f, m in C.morphisms.items():
                if m.src in acc and m.tgt in acc:
                    if D.compose(acc[m.tgt], F.on_mor(f)) != D.compose(
                        G.on_mor(f), acc[m.src]
                    ):
                        ok = False
                        break
            if ok:
                res = extend(i + 1, acc)
                if res is not None:
                    return res
            del acc[A]
        return None

    return extend(0, {})


def relabel_functor(C: ConcreteCohCategory, rename: dict) -> FinFunctor:
    """The automorphism of a concrete category induced by a permutation of
    its points."""

    def image(S):
        return frozenset(rename[a] for a in S)

    obj_map = {set_name(S): set_name(image(S)) for S in C.sets}
    mor_map = {
        n: fun_name(image(A), image(B), {rename[a]: rename[b] for a, b in m.items()})
        for n, (A, B, m) in C._funs.items()
    }
    return FinFunctor(C.cat, C.cat, obj_map, mor_map)


def test_natural_iso_matches_backtracking_oracle(monkeypatch):
    pairs = []
    # the automorphisms of the concrete category on {x, y, z} that permute
    # its points: any two are naturally iso through the relabelling maps
    C = ConcreteCohCategory([frozenset("xyz")])
    autos = [relabel_functor(C, dict(zip("xyz", p))) for p in permutations("xyz")]
    pairs += list(product(autos, repeat=2))
    # posetal functors from lattice homs: iso exactly when the homs agree
    for L, K in product(distributive_lattices(4), repeat=2):
        CL, CK = LatticeCategory(L), LatticeCategory(K)
        functors = [lattice_hom_functor(h, CL, CK) for h in lattice_homs(L, K)]
        pairs += list(product(functors, repeat=2))
    # the comparisons searched by the universal factorization
    calls = []

    def recording(F, G):
        calls.append((F, G))
        return natural_iso(F, G)

    monkeypatch.setattr(predcat, "natural_iso", recording)
    for L in distributive_lattices(3):
        C3 = LatticeCategory(L)
        ext = predcat.canonical_extension_category(C3)
        predcat.universal_factorization(ext.embedding, C3, ext.coh, ext)
    Cx = ConcreteCohCategory([frozenset({"x"})])
    predcat.universal_factorization(FinFunctor.identity(Cx.cat), Cx, Cx)
    assert len(calls) == 4
    pairs += calls
    found = 0
    for F, G in pairs:
        iso = natural_iso(F, G)
        expected = natural_iso_oracle(F, G)
        if expected is None:
            assert iso is None
        else:
            assert list(iso.components.items()) == list(expected.items())
            found += 1
    assert 0 < found < len(pairs)
    # autos[1] swaps y and z; its comparison with the identity is that swap
    swap_to_id = natural_iso(autos[1], autos[0])
    assert swap_to_id.components["{x,y,z}"] == "fn(x>x,y>z,z>y):{x,y,z}->{x,y,z}"


def test_functions_are_the_product_in_order():
    for A, B in product([set(), {"a"}, {"b", "a"}, {"c", "a", "b"}], repeat=2):
        items = sorted(A)
        expected = [dict(zip(items, v)) for v in product(sorted(B), repeat=len(items))]
        got = _functions(frozenset(A), frozenset(B))
        assert [list(f.items()) for f in got] == [list(f.items()) for f in expected]


# -- the hom index, composable pairs and factorizations against the scans ------


def hom_scan(cat, A, B):
    return sorted(m.name for m in cat.morphisms.values() if m.src == A and m.tgt == B)


def into_scan(cat, A):
    return sorted(m.name for m in cat.morphisms.values() if m.tgt == A)


def nested_loop_pairs(morphisms):
    return [
        (f, g) for f in morphisms.values() for g in morphisms.values() if f.tgt == g.src
    ]


def category_laws_oracle(objects, morphisms, comp, identities):
    """The law loops `FinCategory` ran at construction, before it walked
    composable pairs and before the laws became one generator."""
    objs = set(objects)
    for m in morphisms.values():
        if m.src not in objs or m.tgt not in objs:
            raise CategoryError(f"morphism {m.name} has unknown endpoints")
    for A in objects:
        i = identities.get(A)
        if i is None or i not in morphisms:
            raise CategoryError(f"missing identity for {A}")
        im = morphisms[i]
        if im.src != A or im.tgt != A:
            raise CategoryError(f"identity of {A} not an endomorphism")
    for f in morphisms.values():
        for g in morphisms.values():
            if f.tgt == g.src:
                h = comp.get((g.name, f.name))
                if h is None:
                    raise CategoryError(f"missing composite {g.name} o {f.name}")
                hm = morphisms[h]
                if hm.src != f.src or hm.tgt != g.tgt:
                    raise CategoryError(f"composite {g.name} o {f.name} mistyped")
    for f in morphisms.values():
        if comp[(f.name, identities[f.src])] != f.name:
            raise CategoryError(f"right identity fails for {f.name}")
        if comp[(identities[f.tgt], f.name)] != f.name:
            raise CategoryError(f"left identity fails for {f.name}")
    for f in morphisms.values():
        for g in morphisms.values():
            if f.tgt != g.src:
                continue
            for h in morphisms.values():
                if g.tgt != h.src:
                    continue
                left = comp[(h.name, comp[(g.name, f.name)])]
                right = comp[(comp[(h.name, g.name)], f.name)]
                if left != right:
                    raise CategoryError(
                        f"associativity fails on ({h.name},{g.name},{f.name})"
                    )


def category_law_failures_oracle(cat):
    """The witness generator `category_law_failures` was before it returned
    after the table check on thin categories: the full identity and
    associativity loops run on every category whose table is well typed."""
    tables = list(_table_failures(cat))
    yield from tables
    if tables:
        return
    comp, ids = cat.comp, cat.identities
    for f in cat.morphisms.values():
        if comp[(f.name, ids[f.src])] != f.name:
            yield f"right identity fails for {f.name}"
        if comp[(ids[f.tgt], f.name)] != f.name:
            yield f"left identity fails for {f.name}"
    out_of = {}
    for m in cat.morphisms.values():
        out_of.setdefault(m.src, []).append(m)
    for f, g in composable_pairs(cat.morphisms):
        gf = comp[(g.name, f.name)]
        for h in out_of.get(g.tgt, ()):
            if comp[(h.name, gf)] != comp[(comp[(h.name, g.name)], f.name)]:
                yield f"associativity fails on ({h.name},{g.name},{f.name})"


def is_thin(cat):
    return all(len(cat.hom(A, B)) <= 1 for A in cat.objects for B in cat.objects)


def functor_laws_oracle(source, target, mor_map):
    """The composition loop `FinFunctor` ran before it walked composable pairs."""
    for f in source.morphisms:
        for g in source.morphisms:
            if source.tgt(f) != source.src(g):
                continue
            if mor_map[source.compose(g, f)] != target.compose(mor_map[g], mor_map[f]):
                raise CategoryError(f"functor breaks composition ({g},{f})")


def fixture_cohcats():
    names = ["one_point.cat.json", "pair_fragment.cat.json", "two_objects.cat.json"]
    return [load_category(FIXTURE_DIR / n) for n in names] + [
        LatticeCategory(chain_lattice(3)), LatticeCategory(boolean4())
    ]


def indexed_categories():
    cats = [LatticeCategory(L).cat for L in distributive_lattices(5)]
    for C in fixture_cohcats():
        cats += [C.cat, type_category(C).cat]
        try:
            cats.append(predcat.PredCategory(sub_hyperdoctrine(C)).cat)
        except MissingLimitError:  # pair_fragment lacks the product {x,y}^2
            pass
    T = parse_theory((FIXTURE_DIR / "pointed.chr").read_text())
    cats.append(FamilyCategory(T, ModelFamily.build(enumerate_models(T, 2))).cat)
    return cats


def test_hom_index_matches_the_scans():
    cats = indexed_categories()
    # DL(<=5); each fixture, its type and its predicate category; the family
    assert len(cats) == 8 + 5 * 3 - 1 + 1
    for cat in cats:
        for A in cat.objects:
            assert cat.morphisms_into(A) == into_scan(cat, A)
            for B in cat.objects:
                assert cat.hom(A, B) == hom_scan(cat, A, B)


def test_composable_pairs_follow_the_nested_loop():
    for cat in indexed_categories():
        assert list(composable_pairs(cat.morphisms)) == nested_loop_pairs(cat.morphisms)


def raised(check):
    with pytest.raises(CategoryError) as e:
        check()
    return str(e.value)


def mutations(cat):
    """Broken copies of the composition table: each composite of two
    non-identities dropped, mistyped, and redirected to a parallel morphism."""
    for f, g in non_identity_pairs(cat):
        yield from pair_mutations(cat, f, g)


def non_identity_pairs(cat):
    idents = set(cat.identities.values())
    return [
        (f, g) for f, g in composable_pairs(cat.morphisms)
        if f.name not in idents and g.name not in idents
    ]


def pair_mutations(cat, f, g):
    """The broken tables of `mutations` at the composite g o f."""
    key = (g.name, f.name)
    yield "missing composite", {k: v for k, v in cat.comp.items() if k != key}
    for A, i in cat.identities.items():
        if (A, A) != (f.src, g.tgt):
            yield "mistyped", {**cat.comp, key: i}
            break
    for h in cat.hom(f.src, g.tgt):
        if h != cat.comp[key]:
            yield "associativity fails", {**cat.comp, key: h}


def doubled_path_category():
    """The free category on A -> B -> C -> D with two arrows A -> B: not
    thin, yet no hom-set has more than two members.  A composite is named
    by its arrows, so composition concatenates the names of non-identities."""
    ends = {
        "1A": "AA", "1B": "BB", "1C": "CC", "1D": "DD", "f1": "AB", "f2": "AB",
        "g": "BC", "k": "CD", "gf1": "AC", "gf2": "AC", "kg": "BD",
        "kgf1": "AD", "kgf2": "AD",
    }
    morphisms = {n: Morphism(n, *st) for n, st in ends.items()}
    arrows = {n: "" if n.startswith("1") else n for n in ends}
    comp = {
        (g.name, f.name): arrows[g.name] + arrows[f.name] or f.name
        for f, g in composable_pairs(morphisms)
    }
    return FinCategory(tuple("ABCD"), morphisms, comp, {X: f"1{X}" for X in "ABCD"})


def test_category_laws_report_the_oracle_witness_on_mutated_tables():
    kinds, thin = set(), set()
    for cat in [C.cat for C in fixture_cohcats()] + [doubled_path_category()]:
        assert list(category_law_failures(cat)) == []
        thin.add(is_thin(cat))
        for kind, comp in mutations(cat):
            args = (cat.objects, cat.morphisms, comp, cat.identities)
            witnesses = list(category_law_failures(FinCategory(*args)))
            assert witnesses[0] == raised(lambda: category_laws_oracle(*args))
            assert witnesses == list(category_law_failures_oracle(FinCategory(*args)))
            assert kind in witnesses[0]
            kinds.add(kind)
    assert kinds == {"missing composite", "mistyped", "associativity fails"}
    # a redirected composite needs a parallel morphism: a category that is
    # not thin, on which the laws are checked by the full loop
    assert thin == {True, False}


def test_functor_law_reports_the_oracle_witness_on_a_broken_composite():
    broken = 0
    for C in fixture_cohcats():
        cat, idents = C.cat, set(C.cat.identities.values())
        objects = {A: A for A in cat.objects}
        for f, m in cat.morphisms.items():
            for g in cat.hom(m.src, m.tgt):
                if f in idents or g == f:
                    continue
                mor_map = {**{h: h for h in cat.morphisms}, f: g}
                message = raised(lambda: functor_laws_oracle(cat, cat, mor_map))
                assert message == raised(lambda: FinFunctor(cat, cat, objects, mor_map))
                broken += 1
    assert broken > 0


def full_functor_check(F: FinFunctor):
    """The check `FinFunctor` made on every functor before it skipped the
    identity and composition loops for a thin target."""
    source, target, obj_map, mor_map = F.source, F.target, F.obj_map, F.mor_map
    for A in source.objects:
        if obj_map.get(A) not in target.objects:
            raise CategoryError(f"functor undefined or mistyped on object {A}")
    for f, m in source.morphisms.items():
        g = mor_map.get(f)
        if g is None or g not in target.morphisms:
            raise CategoryError(f"functor undefined on morphism {f}")
        gm = target.morphisms[g]
        if gm.src != obj_map[m.src] or gm.tgt != obj_map[m.tgt]:
            raise CategoryError(f"functor mistyped on morphism {f}")
    for A in source.objects:
        if mor_map[source.identity(A)] != target.identity(obj_map[A]):
            raise CategoryError(f"functor breaks identity of {A}")
    for f, g in composable_pairs(source.morphisms):
        if mor_map[source.compose(g.name, f.name)] != target.compose(
            mor_map[g.name], mor_map[f.name]
        ):
            raise CategoryError(f"functor breaks composition ({g.name},{f.name})")


class _Unchecked(FinFunctor):
    """The four tables of a functor, built without its check."""

    def __post_init__(self):
        pass


def test_a_functor_into_a_category_that_is_not_thin_is_checked_in_full():
    cat = two_point_category().cat
    assert not cat.thin
    objects = {A: A for A in cat.objects}
    idents = set(cat.identities.values())
    swaps = [f for f in cat.hom("{x,y}", "{x,y}") if cat.is_iso(f) and f not in idents]
    kinds = set()
    for f, m in cat.morphisms.items():
        for g in cat.hom(m.src, m.tgt):
            if g == f or (f in idents and g not in swaps):
                continue
            mor_map = {**{h: h for h in cat.morphisms}, f: g}
            message = raised(lambda: full_functor_check(_Unchecked(cat, cat, objects, mor_map)))
            assert message == raised(lambda: FinFunctor(cat, cat, objects, mor_map))
            kinds.add(message.split(" of ")[0].split(" (")[0])
    assert kinds == {"functor breaks identity", "functor breaks composition"}


def test_an_undefined_or_mistyped_functor_into_a_thin_target_is_refused():
    cat = LatticeCategory(chain_lattice(3)).cat
    assert cat.thin
    objects = {A: A for A in cat.objects}
    mor_map = {f: f for f in cat.morphisms}
    f = next(f for f, m in cat.morphisms.items() if m.src != m.tgt)
    loop = cat.identity(cat.src(f))
    cases = [
        ({k: v for k, v in objects.items() if k != cat.src(f)}, mor_map, "undefined or mistyped on object"),
        ({**objects, cat.src(f): "nowhere"}, mor_map, "undefined or mistyped on object"),
        (objects, {k: v for k, v in mor_map.items() if k != f}, f"undefined on morphism {f}"),
        (objects, {**mor_map, f: "nothing"}, f"undefined on morphism {f}"),
        (objects, {**mor_map, f: loop}, f"mistyped on morphism {f}"),
    ]
    for obj_map, mors, message in cases:
        expected = raised(lambda: full_functor_check(_Unchecked(cat, cat, obj_map, mors)))
        assert message in expected
        assert raised(lambda: FinFunctor(cat, cat, obj_map, mors)) == expected


def test_every_functor_built_into_a_thin_target_passes_the_full_check(monkeypatch):
    """Every functor the constructions build over DL(<=6) and the three
    concrete fragments (counits, embeddings E_C, factorizations G(M) and
    their composites with E_C, irreducible-to-type comparisons, lattice
    hom functors) passes the check made before thin targets
    skipped its law loops."""
    built = []
    check = FinFunctor.__post_init__

    def recording(F):
        check(F)
        built.append(F)

    monkeypatch.setattr(FinFunctor, "__post_init__", recording)
    bases = [LatticeCategory(L) for L in distributive_lattices(6)]
    bases += [
        ConcreteCohCategory([frozenset(s) for s in seeds])
        for seeds in (("x",), ("x", "y"), ("xy",))
    ]
    for C in bases:
        predcat.counit_equivalence_check(C)
        X = canext_hyperdoctrine(sub_hyperdoctrine(C))
        irreducible_to_types(C, X, irreducible_site(C, X), type_category(C))
        try:
            ext = predcat.canonical_extension_category(C)
        except MissingLimitError:  # the two-point fragment lacks products
            continue
        predcat.universal_factorization(ext.embedding, C, ext.coh, ext)
    lattices = distributive_lattices(6)
    for L, K in product(lattices, repeat=2):
        for h in lattice_homs(L, K):
            lattice_hom_functor(h, LatticeCategory(L), LatticeCategory(K))
    thin = 0
    for F in built:
        full_functor_check(F)
        thin += F.target.thin
    # every target is thin, so each functor above skipped the law loops:
    # 2,655 lattice hom functors and 76 functors of the constructions
    assert (len(built), thin) == (2731, 2731)


def test_factorizations_match_the_hom_filter():
    """One leg: every lift through every morphism.  Two legs: the mediating
    morphisms into every chosen product cone."""
    for C in fixture_cohcats():
        cat = C.cat
        cases = [
            (Z, cat.src(p), ((p, u),))
            for Z in cat.objects
            for p in cat.morphisms
            for u in cat.hom(Z, cat.tgt(p))
        ]
        for A, B in product(cat.objects, repeat=2):
            try:
                cone = C.product(A, B)
            except MissingLimitError:
                continue
            cases += [
                (Z, cone.obj, ((cone.pi1, f), (cone.pi2, g)))
                for Z in cat.objects
                for f in cat.hom(Z, A)
                for g in cat.hom(Z, B)
            ]
        assert any(len(legs) == 2 for _, _, legs in cases)
        for Z, Q, legs in cases:
            expected = [
                h for h in cat.hom(Z, Q) if all(cat.compose(p, h) == u for p, u in legs)
            ]
            assert cat.factorizations(Z, Q, legs) == expected


# -- every construction is a category ----------------------------------------


def constructed_categories():
    """(label, category) for each construction the program builds: the
    lattices DL(<=6) and the three concrete fragments as categories, their
    type and filter categories, the semidirect and irreducible sites of
    their canext hyperdoctrines, the predicate categories of their subobject
    and canext hyperdoctrines where the products exist, and the family
    categories of the three theory fixtures at size 4."""
    bases = [LatticeCategory(L) for L in distributive_lattices(6)]
    bases += [
        ConcreteCohCategory([frozenset(s) for s in seeds])
        for seeds in (("x",), ("x", "y"), ("xy",))
    ]
    for C in bases:
        S = sub_hyperdoctrine(C)
        X = canext_hyperdoctrine(S)
        yield "base", C.cat
        yield "types", type_category(C).cat
        yield "filters", FilterCategory(C).cat
        yield "semidirect", semidirect_site(C, X).cat
        yield "irreducible", irreducible_site(C, X).cat
        for label, P in (("pred-sub", S), ("pred-canext", X)):
            try:
                yield label, predcat.PredCategory(P).cat
            except MissingLimitError:
                pass
    for name in ("pointed", "idempotent", "ordered"):
        T = parse_theory((FIXTURE_DIR / f"{name}.chr").read_text())
        yield "family", FamilyCategory(T, ModelFamily.build(enumerate_models(T, 4))).cat


def test_every_construction_satisfies_the_category_laws():
    labels = []
    for label, cat in constructed_categories():
        assert next(category_law_failures(cat), None) is None, (label, cat)
        labels.append(label)
    # products exist everywhere but on the two-point fragment
    assert [labels.count(k) for k in ("base", "pred-sub", "pred-canext", "family")] == [
        16, 15, 15, 3
    ]


def constructed_with_thinness():
    """(label, category, thin) for each of `constructed_categories()`."""
    return [(label, cat, is_thin(cat)) for label, cat in constructed_categories()]


def test_law_check_of_every_construction_matches_the_full_loop():
    built = constructed_with_thinness()
    for label, cat, _ in built:
        assert list(category_law_failures(cat)) == list(
            category_law_failures_oracle(cat)
        ) == [], label
    # as the fincat docstring states, every construction over one of the 13
    # lattices (listed first, each base's list opening with "base") is thin;
    # the concrete fragments are not, nor are the families
    bases_seen = 0
    for label, _, thin in built:
        bases_seen += label == "base"
        assert thin or bases_seen > 13, label
    assert {label for label, _, t in built if not t} >= {"base", "family"}


def test_law_check_of_a_broken_thin_construction_matches_the_full_loop():
    """Drop and mistype the composite of the first and the last composable
    pair of non-identities of each thin construction."""
    kinds = set()
    for label, cat, thin in constructed_with_thinness():
        if not thin:
            continue
        pairs = non_identity_pairs(cat)
        for f, g in pairs[:1] + pairs[-1:]:
            for kind, comp in pair_mutations(cat, f, g):
                mutant = FinCategory(cat.objects, cat.morphisms, comp, cat.identities)
                witnesses = list(category_law_failures(mutant))
                assert witnesses == list(category_law_failures_oracle(mutant)), label
                assert kind in witnesses[0], label
                kinds.add(kind)
    assert kinds == {"missing composite", "mistyped"}
