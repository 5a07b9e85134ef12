"""Parser, chase, and the model-family pipeline."""

import random
from itertools import permutations, product

import pytest

from cohext.fixtures import designated_model_index
from cohext.jsonio import FormatError, model_from_json, model_to_json
from cohext.logic import chase as chase_module
from cohext.logic.chase import FinModel, chase
from cohext.logic.models import (
    DistillationBudget,
    Evaluation,
    FamilyCategory,
    ModelFamily,
    PreconditionError,
    _models,
    _partial_model,
    _Coloured,
    _Unassigned,
    check_m1,
    check_m2,
    check_m3,
    enumerate_models,
    sigma_bar_check,
    type_of,
    types,
)
from cohext.logic.parser import Parser, ParseError, parse_theory, scan
from cohext.logic.syntax import (
    And,
    App,
    Eq,
    Exists,
    Or,
    RelAtom,
    Sequent,
    Signature,
    SortError,
    Theory,
    Truth,
    Var,
    print_formula,
    print_theory,
)
from cohext.order import assignments
from evaluator_oracle import eval_term_oracle, satisfies_formula_oracle, satisfies_theory_oracle
from helpers import chase_theory_text, fixture_path, is_prime_filter, noisy_theory_text
from model_oracle import canonical_key, enumerate_models_by_key, family_reach_oracle

CORPUS = ["pointed", "idempotent", "ordered"]


# -- parser ---------------------------------------------------------------------


def parse_sequent_text(sig: Signature, text: str) -> Sequent:
    p = Parser(scan(text))
    seq = p.parse_sequent(sig)
    if p.pos < p.eof:
        raise ParseError("trailing input after sequent", p.locate(p.pos))
    return seq


def test_parse_simple_sequent_with_inferred_context():
    sig = Signature(("A",), {}, {"R": ("A", "A")})
    seq = parse_sequent_text(sig, "true |- exists y. R(x,y)")
    assert [v.name for v in seq.context] == ["x"]
    assert seq.context[0].sort == "A"


def test_unsorted_variable_reports_span():
    sig = Signature(("A",), {}, {})
    with pytest.raises(SortError) as e:
        parse_sequent_text(sig, "true |- x = x")
    assert e.value.span is not None


def test_sort_clash_rejected():
    sig = Signature(("A", "B"), {}, {"P": ("A",), "Q": ("B",)})
    with pytest.raises(SortError):
        parse_sequent_text(sig, "P(x) |- Q(x)")


def test_disjunction_under_exists_scopes_right():
    sig = Signature(("A",), {}, {"P": ("A",), "Q": ("A",)})
    seq = parse_sequent_text(sig, "true |- exists y. P(y) or Q(y)")
    assert isinstance(seq.rhs, Exists)
    assert isinstance(seq.rhs.body, Or)
    # and the printer guards a quantifier that is not in tail position
    printed = print_formula(seq.rhs)
    assert parse_sequent_text(sig, f"true |- {printed}").rhs == seq.rhs
    guarded = parse_sequent_text(sig, "true |- (exists y. P(y)) or Q(x)")
    assert isinstance(guarded.rhs, Or)
    reprinted = print_formula(guarded.rhs)
    assert parse_sequent_text(sig, f"true |- {reprinted}").rhs == guarded.rhs


def test_golden_roundtrip_byte_exact():
    for name in CORPUS:
        src = fixture_path(f"{name}.chr").read_text()
        golden = fixture_path(f"golden/{name}.chr.golden").read_text()
        T = parse_theory(src)
        assert print_theory(T) == golden
        T2 = parse_theory(print_theory(T))
        assert T2 == T
        assert print_theory(T2) == golden


def test_parse_error_location():
    with pytest.raises(ParseError) as e:
        parse_theory("sort A\nrel P : A\ntrue |- P(?)\n")
    assert e.value.span == (3, 11)


# -- chase ----------------------------------------------------------------------


def theory(src):
    return parse_theory(src)


def test_chase_total_relation_from_one_element():
    T = theory("sort A\nrel R : A, A\nx:A | true |- exists y:A. R(x,y)\n")
    start = FinModel(T, {"A": ("a0",)}, {}, {"R": frozenset()})
    res = chase(T, start=start)
    assert res.status == "model"
    # known-elements-first strategy closes the loop instead of growing
    assert res.model.sorts["A"] == ("a0",)
    assert ("a0", "a0") in res.model.rels["R"]


def test_chase_refutes_inconsistent_theory():
    res = chase(theory("sort A\ntrue |- false\n"))
    assert res.status == "refuted"


def test_chase_empty_theory_returns_start():
    T = theory("sort A\nrel P : A\n")
    start = FinModel(T, {"A": ("a0", "a1")}, {}, {"P": frozenset({("a0",)})})
    res = chase(T, start=start)
    assert res.status == "model"
    assert res.model.sorts == start.sorts
    assert res.model.rels == start.rels


def test_chase_branches_deterministically():
    T = theory(
        "sort A\nrel P : A\nrel Q : A\n"
        "x:A | true |- P(x) or Q(x)\n"
        "x:A | P(x) and Q(x) |- false\n"
    )
    start = FinModel(T, {"A": ("a0",)}, {}, {"P": frozenset(), "Q": frozenset()})
    r1 = chase(T, start=start)
    r2 = chase(T, start=start)
    assert r1.status == "model" and r1.model.rels == r2.model.rels
    assert r1.model.rels["P"] == frozenset({("a0",)})
    # rotating the branch order with the seed flips the choice
    r3 = chase(T, start=start, seed=1)
    assert r3.status == "model"
    assert r3.model.rels["Q"] == frozenset({("a0",)})


def test_chase_budget_exhaustion_reports_partial():
    # unbounded successor growth runs out of fresh elements
    T = theory(
        "sort A\nfun s : A -> A\nrel Lt : A, A\n"
        "x:A | true |- Lt(x, s(x))\n"
        "x:A | Lt(x, x) |- false\n"
        "x:A, y:A | Lt(x,y) and Lt(y,x) |- false\n"
    )
    start = FinModel(T, {"A": ("a0",)}, {"s": {}}, {"Lt": frozenset()})
    res = chase(T, start=start, max_fresh=3, max_rounds=40)
    assert res.status == "exhausted" and res.model is not None
    assert res.note == "fresh-element budget exhausted"


def test_chase_cut_by_the_round_budget_is_not_refuted():
    T = parse_theory(fixture_path("pointed.chr").read_text())
    res = chase(T, max_rounds=1)
    assert (res.status, res.note) == ("exhausted", "round budget exhausted")
    assert chase(T, max_rounds=2).status == "model"


@pytest.mark.parametrize("seed", [0, 1])
def test_chase_branch_cut_before_a_contradiction_is_not_refuted(seed):
    # Both theories have models that the budget keeps out of reach, and
    # every branch it leaves fails.  The first has s(c) = c, but the chase
    # names each new s(x) by a fresh element; the second has a 3-cycle of
    # R, but two elements allow only the fresh witness.
    theories = [
        ("sort A\nfun c : -> A\nfun s : A -> A\nrel P : A\nrel Q : A\n"
         "true |- P(c) or Q(c)\nx:A | P(x) |- P(s(x))\nx:A | Q(x) |- false\n", 4),
        ("sort A\nfun c : -> A\nrel R : A, A\nx:A | true |- exists y:A. R(x, y)\n"
         "x:A | R(x, x) |- false\nx:A, y:A | R(x, y) and R(y, x) |- false\n", 2),
    ]
    for text, max_fresh in theories:
        res = chase(theory(text), max_fresh=max_fresh, seed=seed)
        assert (res.status, res.note) == ("exhausted", "fresh-element budget exhausted")


def test_chase_corpus_terminates():
    for name in CORPUS:
        T = parse_theory(fixture_path(f"{name}.chr").read_text())
        res = chase(T, max_fresh=6, max_rounds=40)
        assert res.status == "model", (name, res.note)
        assert res.model.satisfies_theory()


def chase_theory(rng):
    return parse_theory(chase_theory_text(rng))


def test_every_chase_model_satisfies_its_theory():
    # the chase returns a state with no violation unchecked; this is the
    # check it no longer makes.  max_fresh is 3 because at 4 a few of these
    # theories search for minutes.
    rng = random.Random(17)
    statuses = {"model": 0, "refuted": 0, "exhausted": 0}
    for _ in range(300):
        T = chase_theory(rng)
        res = chase(T, max_fresh=3, max_rounds=32)
        statuses[res.status] += 1
        if res.status == "model":
            M = res.model
            for f, (args, _) in T.signature.funcs.items():
                assert set(M.funcs[f]) == set(product(*[M.sorts[s] for s in args]))
            assert M.satisfies_theory(), print_theory(T)
            assert satisfies_theory_oracle(M), print_theory(T)
    assert statuses == {"model": 254, "refuted": 32, "exhausted": 14}


def chase_theories():
    rng = random.Random(17)
    return [chase_theory(rng) for _ in range(300)]


def oracle_holds(model, phi, env) -> bool:
    """`chase._holds` read through the interpreter oracle."""
    try:
        return satisfies_formula_oracle(model, phi, env)
    except KeyError:
        return False


def test_the_chase_gives_the_results_it_gave_through_the_interpreter(monkeypatch):
    theories = chase_theories()
    got = [chase(T, max_fresh=3, max_rounds=32) for T in theories]
    monkeypatch.setattr(chase_module, "_holds", oracle_holds)
    assert [chase(T, max_fresh=3, max_rounds=32) for T in theories] == got


def has_small_model(T) -> bool:
    """T has a model of one or two elements in each sort, by the first
    model of each `_models` search."""
    names = ("a0", "a1")
    return any(
        next(_models(T, {s: names[:n] for s in T.signature.sorts}), None) is not None
        for n in (1, 2)
    )


def test_no_refuted_theory_has_a_model_of_one_or_two_elements():
    small = {"model": [], "refuted": [], "exhausted": []}
    for T in chase_theories():
        small[chase(T, max_fresh=3, max_rounds=32).status].append(has_small_model(T))
    assert (len(small["refuted"]), sum(small["refuted"])) == (32, 0)
    # a fact measured at this bound, not a property: the chase names every
    # undefined function value by a fresh element (`_eval_defining`), so
    # most theories it gives up on have a model that it never tries
    assert (len(small["exhausted"]), sum(small["exhausted"])) == (14, 13)


# -- the compiled evaluator against the interpreter -----------------------------


def subformulas(phi):
    yield phi
    if isinstance(phi, (And, Or)):
        for p in phi.parts:
            yield from subformulas(p)
    elif isinstance(phi, Exists):
        yield from subformulas(phi.body)


def subterms(phi):
    for psi in subformulas(phi):
        stack = list(psi.args) if isinstance(psi, RelAtom) else []
        stack += [psi.lhs, psi.rhs] if isinstance(psi, Eq) else []
        while stack:
            t = stack.pop()
            yield t
            if isinstance(t, App):
                stack += t.args


def outcome(evaluate, *args):
    """The value, or the class of the exception that escaped."""
    try:
        return evaluate(*args)
    except (KeyError, _Unassigned) as e:
        return type(e)


def evaluation_models(T, rng):
    """The chase's model of T (total, or partial when the chase gave up),
    the same with every other function cell dropped, and two partial
    assignments of model enumeration on two elements per sort."""
    M = chase(T, max_fresh=3, max_rounds=32).model
    if M is not None:
        yield M
        dropped = {f: dict(sorted(table.items())[::2]) for f, table in M.funcs.items()}
        yield FinModel(T, M.sorts, dropped, M.rels)
    sig = T.signature
    sorts = {s: (f"{s.lower()}0", f"{s.lower()}1") for s in sig.sorts}
    cells = {("fun", f, d): sorts[res] for f, (args, res) in sig.funcs.items()
             for d in product(*[sorts[s] for s in args])}
    cells |= {("rel", r, d): (False, True) for r, args in sig.rels.items()
              for d in product(*[sorts[s] for s in args])}
    for _ in range(2):
        acc = {c: rng.choice(vs) for c, vs in cells.items() if rng.random() < 0.7}
        yield _partial_model(T, sorts, acc)


def test_compiled_formulas_evaluate_as_the_interpreter_did():
    """Every formula and term of the theories that the parser's differential
    test reads (the fixtures, and the seed-17 noisy and chase texts that
    parse) and of the two-sorted theory, over `evaluation_models`, under
    assignments of every variable of its sequent (four per sequent and
    model, at random) and of its context only: the same value, or the same
    exception."""
    texts = [fixture_path(f"{name}.chr").read_text() for name in CORPUS]
    rng = random.Random(17)
    texts += [noisy_theory_text(rng) for _ in range(400)]
    rng = random.Random(17)
    texts += [chase_theory_text(rng) for _ in range(300)]
    theories = [two_sorted_theory()]
    for text in texts:
        try:
            theories.append(parse_theory(text))
        except (ParseError, SortError):
            pass
    seen = {"value": 0, KeyError: 0, _Unassigned: 0}
    rng = random.Random(35)
    for T in theories:
        for M in evaluation_models(T, rng):
            for seq in T.sequents:
                names = {v.name: v.sort for v in seq.context}
                for phi in (seq.lhs, seq.rhs):
                    for psi in subformulas(phi):
                        if isinstance(psi, Exists):
                            names.update((b.name, b.sort) for b in psi.binders)
                choices = list(product(*[M.sorts[s] for s in names.values()]))
                for choice in rng.sample(choices, min(4, len(choices))):
                    env = dict(zip(names, choice))
                    for env in (env, {v.name: env[v.name] for v in seq.context}):
                        for phi in (seq.lhs, seq.rhs):
                            for psi in subformulas(phi):
                                got = outcome(M.satisfies_formula, psi, env)
                                assert got == outcome(satisfies_formula_oracle, M, psi, env)
                                seen[got if isinstance(got, type) else "value"] += 1
                            for t in subterms(phi):
                                got = outcome(M.eval_term, t, env)
                                assert got == outcome(eval_term_oracle, M, t, env)
    # the two-sorted theory, 3 fixtures, 140 noisy and 300 chase texts; each
    # outcome occurs (51,945 values, 7,838 KeyErrors, 21,013 unassigned
    # reads when measured)
    assert len(theories) == 1 + 3 + 140 + 300
    assert all(seen.values()), seen


ONE = {"sorts": {"A": ["a"]}}


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "model needs 'sorts'"),
        ({}, "model needs 'sorts'"),
        ({"elements": ["c0"], "leq": []}, "model needs 'sorts'"),
        ({"sorts": {"B": ["a"]}}, "model needs 'sorts' with exactly the sorts"),
        ({"sorts": {"A": ["a"], "B": []}}, "with exactly the sorts"),
        ({"sorts": {"A": "a"}}, "carriers must be lists of strings"),
        ({"sorts": {"A": [1]}}, "carriers must be lists of strings"),
        ({**ONE, "functions": {"g": []}}, "'functions' must map names in"),
        ({**ONE, "relations": {"Q": []}}, "'relations' must map names in"),
        ({**ONE, "relations": {"P": 3}}, "'relations' must map names in"),
        ({**ONE, "functions": []}, "'functions' must map names in"),
        ({**ONE, "functions": {"c": [[[], "b"]]}}, "c: ['b'] is not a row"),
        ({**ONE, "functions": {"c": [[["a"], "a"]]}}, "c: ['a'] is not a row"),
        ({**ONE, "functions": {"c": [["a"]]}}, "entries must be"),
        ({**ONE, "functions": {"c": [7]}}, "entries must be"),
        ({**ONE, "relations": {"P": [["b"]]}}, "P: ['b'] is not a row"),
        ({**ONE, "relations": {"P": [["a", "a"]]}}, "is not a row"),
        ({**ONE, "relations": {"P": ["a"]}}, "P: 'a' is not a row"),
    ],
)
def test_model_from_json_rejects_malformed_models(data, message):
    T = parse_theory(fixture_path("pointed.chr").read_text())
    with pytest.raises(FormatError) as e:
        model_from_json(T, data)
    assert message in str(e.value)


def test_model_json_round_trip_and_partial_tables():
    for name in CORPUS:
        T = parse_theory(fixture_path(f"{name}.chr").read_text())
        for M in enumerate_models(T, 2):
            back = model_from_json(T, model_to_json(M))
            assert (back.sorts, back.funcs, back.rels) == (M.sorts, M.funcs, M.rels)
    T = parse_theory(fixture_path("pointed.chr").read_text())
    M = model_from_json(T, {"sorts": {"A": []}})
    assert M.funcs == {"c": {}} and M.rels == {"P": frozenset()}


def test_chase_equality_merging():
    T = theory(
        "sort A\nfun f : A -> A\nrel P : A\n"
        "x:A | true |- f(x) = x\n"
    )
    start = FinModel(
        T, {"A": ("a0",)}, {"f": {}}, {"P": frozenset({("a0",)})}
    )
    res = chase(T, start=start)
    assert res.status == "model"
    assert res.model.funcs["f"] == {("a0",): "a0"}


# -- model families ----------------------------------------------------------------


def corpus_category(name, size=2):
    T = parse_theory(fixture_path(f"{name}.chr").read_text())
    fam = ModelFamily.build(enumerate_models(T, size))
    return FamilyCategory(T, fam)


def test_enumerate_models_dedupes_up_to_iso():
    T = theory("sort A\nrel P : A\n")
    all_models = enumerate_models(T, 2, up_to_iso=False)
    classes = enumerate_models(T, 2, up_to_iso=True)
    assert len(classes) == 5 and len(all_models) == 6


def test_enumerate_models_refuses_sorts_that_share_element_names():
    T = theory("sort A\nsort a\nfun f : A -> a\n")
    with pytest.raises(ValueError, match="sorts A and a share the element name a0"):
        enumerate_models(T, 2)
    # a1 + "0" == a + "10": refused before any model is built
    T = theory("sort A1\nsort a\n")
    with pytest.raises(ValueError, match="sorts A1 and a share the element name a10"):
        enumerate_models(T, 11)
    assert len(enumerate_models(T, 2)) == 4


def canonical_key_oracle(M: FinModel):
    """The least rename of M over every permutation of every carrier."""
    best = None
    per_sort = [list(permutations(range(len(xs)))) for xs in M.sorts.values()]
    names = list(M.sorts)
    for combo in product(*per_sort):
        mapping = {}
        for sname, perm in zip(names, combo):
            xs = M.sorts[sname]
            for i, j in enumerate(perm):
                mapping[xs[i]] = f"{sname}#{j}"
        key = (
            tuple(sorted((s, len(xs)) for s, xs in M.sorts.items())),
            tuple(
                sorted(
                    (f, tuple(sorted((tuple(mapping[a] for a in k), mapping[v])
                                      for k, v in tab.items())))
                    for f, tab in M.funcs.items()
                )
            ),
            tuple(
                sorted(
                    (r, tuple(sorted(tuple(mapping[a] for a in t) for t in rows)))
                    for r, rows in M.rels.items()
                )
            ),
        )
        if best is None or key < best:
            best = key
    return best


def iso_classes(models, key):
    classes = {}
    for i, M in enumerate(models):
        classes.setdefault(key(M), []).append(i)
    return sorted(classes.values())


def iso_classes_by_search(models):
    """The classes `enumerate_models` finds: each model joins the first
    kept model of equal invariant that the search finds isomorphic."""
    palette, kept, classes = {}, [], []
    for i, M in enumerate(models):
        coloured = _Coloured(M, palette)
        for c, K in enumerate(kept):
            if K.invariant == coloured.invariant and coloured.isomorphic(K):
                classes[c].append(i)
                break
        else:
            kept.append(coloured)
            classes.append([i])
    return sorted(classes)


def test_canonical_key_splits_models_like_the_permutation_oracle():
    models = classes = 0
    for family in oracle_families(up_to_iso=False):
        got = iso_classes(family, canonical_key)
        assert got == iso_classes(family, canonical_key_oracle)
        assert iso_classes_by_search(family) == got
        models, classes = models + len(family), classes + len(got)
    assert (models, classes) == (559, 143)


def as_tables(models):
    return [(M.sorts, M.funcs, M.rels) for M in models]


def test_enumerate_models_matches_the_permutation_key_enumerator():
    for name in CORPUS:
        T = parse_theory(fixture_path(f"{name}.chr").read_text())
        reduced = first_of_each_class(
            enumerate_models(T, 5, up_to_iso=False), canonical_key_oracle
        )
        assert as_tables(enumerate_models(T, 5)) == as_tables(reduced)


def all_func_tables(sig, sorts):
    """Every choice of function tables; the first function varies fastest
    and each table runs through its values in lexicographic order."""
    items = sorted(sig.funcs.items())
    domains = {f: list(product(*[sorts[s] for s in args])) for f, (args, _) in items}
    keys = [(f, d) for f, _ in reversed(items) for d in domains[f]]
    codomain = lambda key: sorts[sig.funcs[key[0]][1]]
    for acc in assignments(keys, codomain, lambda key, acc: True):
        yield {f: {d: acc[f, d] for d in domains[f]} for f, _ in items}


def all_rel_tables(sig, sorts):
    """Every choice of relation tables; the first relation varies fastest
    and each counts up its rows as a bitmask, the first row lowest."""
    items = sorted(sig.rels.items())

    def rec(i):
        if i == len(items):
            yield {}
            return
        name, args = items[i]
        domain = list(product(*[sorts[s] for s in args]))
        for rest in rec(i + 1):
            for mask in range(1 << len(domain)):
                rows = frozenset(
                    domain[j] for j in range(len(domain)) if mask >> j & 1
                )
                yield {name: rows, **rest}

    yield from rec(0)


def enumerate_models_oracle(T, max_size, min_size=1):
    """The generate-and-filter enumerator: every choice of tables on every
    size vector, kept when it satisfies the theory by the interpreter
    oracle."""
    sig = T.signature
    out = []
    for vec in product(range(min_size, max_size + 1), repeat=len(sig.sorts)):
        sorts = {s: tuple(f"{s.lower()}{i}" for i in range(n)) for s, n in zip(sig.sorts, vec)}
        for funcs in all_func_tables(sig, sorts):
            for rels in all_rel_tables(sig, sorts):
                m = FinModel(T, sorts, funcs, rels)
                if satisfies_theory_oracle(m):
                    out.append(m)
    return out


def first_of_each_class(models, key):
    out, seen = [], set()
    for M in models:
        k = key(M)
        if k not in seen:
            seen.add(k)
            out.append(M)
    return out


def two_sorted_theory():
    """Two sorts, a cross-sort function, a constant, a binary and a nullary
    relation (the parser has no nullary relations, so built directly)."""
    sig = Signature(
        ("A", "B"), {"f": (("A",), "B"), "c": ((), "A")}, {"P": ("B", "A"), "R": ()}
    )
    x, y, c = Var("x", "A"), Var("y", "B"), App("c", (), "A")
    fx = App("f", (x,), "B")
    R = RelAtom("R", ())
    return Theory(sig, (
        Sequent((x,), R, RelAtom("P", (fx, x))),
        Sequent((), Truth(), Or((R, Exists((y,), RelAtom("P", (y, c)))))),
    ))


def generated_theory(rng):
    """A theory shaped like those of the model-sweep benchmark, with one
    unary relation fewer: a constant c, a function f and relations P and R
    over one sort; sequents with existentials, disjunctions, f(c) and
    equations."""

    def term(vs):
        base = rng.choice(vs + ["c"])
        return f"f({base})" if rng.random() < 0.3 else base

    def atom(vs, first=None):
        k = rng.random()
        if k < 0.45:
            return f"P({first or term(vs)})"
        if k < 0.85:
            return f"R({first or term(vs)}, {term(vs)})"
        return f"{first or term(vs)} = {term(vs)}"

    lines = ["sort A", "fun c : -> A", "fun f : A -> A", "rel P : A", "rel R : A, A", ""]
    for _ in range(rng.randint(2, 4)):
        vs = ["x", "y"][: rng.choice([0, 1, 1, 2])]
        lhs = " and ".join(atom(vs) for _ in range(rng.choice([1, 2]))) if vs else "true"
        kind = rng.choice(["atom", "or", "exists"])
        if kind == "or":
            rhs = f"{atom(vs)} or {atom(vs)}"
        elif kind == "exists":
            rhs = f"exists z:A. {atom(vs + ['z'], first='z')}"
        else:
            rhs = atom(vs)
        ctx = ", ".join(f"{v}:A" for v in vs)
        lines.append(f"{ctx} | {lhs} |- {rhs}" if vs else f"{lhs} |- {rhs}")
    return parse_theory("\n".join(lines) + "\n")


def oracle_cases():
    for name in CORPUS:
        yield name, parse_theory(fixture_path(f"{name}.chr").read_text()), 5, 1
    yield "two sorts", two_sorted_theory(), 2, 1
    yield "empty carriers", theory(
        "sort A\nsort B\nfun g : A -> B\nrel P : A\n"
        "x:A | P(x) |- exists y:A. g(y) = g(x) and P(y)\n"
    ), 2, 0
    yield "shared name", theory(
        "sort A\nfun f : A -> A\nrel f : A\nx:A | f(x) |- f(f(x))\n"
    ), 3, 1
    yield "no cell: false", theory("sort A\nrel P : A\ntrue |- false\n"), 3, 0
    yield "no cell: true", theory("sort A\nrel P : A\nx:A | x = x |- true\n"), 3, 0
    # two-argument cells and function values that transpositions move; the
    # oracle takes about 0.4 s at size 3 and would try 4^16 tables at 4
    yield "binary function", theory(
        "sort A\nfun m : A, A -> A\n"
        "x:A | true |- m(x, x) = x\nx:A, y:A | true |- m(x, y) = m(y, x)\n"
    ), 3, 1
    rng = random.Random(7)
    for i in range(50):
        yield f"generated {i}", generated_theory(rng), 2, 1


def test_enumerate_models_matches_the_generate_and_filter_oracle():
    counts = {}
    for name, T, max_size, min_size in oracle_cases():
        want = enumerate_models_oracle(T, max_size, min_size)
        got = enumerate_models(T, max_size, min_size, up_to_iso=False)
        assert as_tables(got) == as_tables(want), name
        reduced = first_of_each_class(want, canonical_key)
        got = enumerate_models(T, max_size, min_size)
        assert as_tables(got) == as_tables(reduced), name
        counts[name] = (len(reduced), len(want))
    assert counts["no cell: false"] == (0, 0)
    assert counts["no cell: true"] == (1 + 2 + 3 + 4, 1 + 2 + 4 + 8)
    assert counts["binary function"] == (1 + 1 + 7, 1 + 2 + 27)
    assert len(counts) == 59


def test_transposition_cut_leaves_few_labelled_models_at_size_five():
    # facts measured at this bound: the lex-leader cut leaves 5, 8 and 15
    # of the 80, 196 and 405 labelled models, against 5, 7 and 15 classes
    sorts = {"A": tuple(f"a{i}" for i in range(5))}
    for name, cut, labelled in [("pointed", 5, 80), ("idempotent", 8, 196), ("ordered", 15, 405)]:
        T = parse_theory(fixture_path(f"{name}.chr").read_text())
        assert sum(1 for _ in _models(T, sorts, lex_leader=True)) == cut, name
        assert sum(1 for _ in _models(T, sorts)) == labelled, name


def test_canonical_key_splits_the_shared_name_family_like_the_permutation_oracle():
    T = theory("sort A\nfun f : A -> A\nrel f : A\n")
    family = enumerate_models(T, 3, up_to_iso=False)
    got = iso_classes(family, canonical_key)
    assert got == iso_classes(family, canonical_key_oracle)
    assert iso_classes_by_search(family) == got
    assert (len(family), len(got)) == (2 + 16 + 216, len(enumerate_models(T, 3)))


def test_enumerate_models_matches_the_canonical_key_enumerator_up_to_size_eight():
    # one list per theory covers every smaller size: models come out by
    # carrier size, so the list at size n begins with the list at n - 1
    for name in CORPUS:
        T = parse_theory(fixture_path(f"{name}.chr").read_text())
        assert as_tables(enumerate_models(T, 8)) == as_tables(enumerate_models_by_key(T, 8))
    # the generated theories are compared at size 2 by
    # test_enumerate_models_matches_the_generate_and_filter_oracle: with a
    # binary relation, some have tens of thousands of models at size 3


def homomorphisms(M: FinModel, N: FinModel) -> list[dict[str, dict[str, str]]]:
    """The enumeration oracle for the reach relation: all structure
    homomorphisms M -> N in lexicographic order, by one depth-first search
    that checks each row of M's relations and function graphs as soon as
    its last element is assigned."""
    sig = M.theory.signature
    keys = [(s, a) for s in sig.sorts for a in M.sorts[s]]
    position = {k: i for i, k in enumerate(keys)}
    tables = [
        (
            args + (res,),
            [k + (v,) for k, v in M.funcs[f].items()],
            {k + (v,) for k, v in N.funcs[f].items()},
        )
        for f, (args, res) in sig.funcs.items()
    ] + [(args, M.rels[r], N.rels[r]) for r, args in sig.rels.items()]
    rows = {k: [] for k in keys}
    for sorts, m_rows, n_rows in tables:
        for row in m_rows:
            cells = tuple(zip(sorts, row))
            if cells:
                rows[max(cells, key=position.__getitem__)].append((cells, n_rows))
            elif row not in n_rows:
                return []

    def consistent(key, acc):
        return all(tuple(acc[c] for c in cells) in n for cells, n in rows[key])

    return [
        {s: {a: h[s, a] for a in M.sorts[s]} for s in sig.sorts}
        for h in assignments(keys, lambda key: N.sorts[key[0]], consistent)
    ]


def test_homomorphism_search_respects_structure():
    T = theory("sort A\nrel P : A\n")
    M = FinModel(T, {"A": ("a0",)}, {}, {"P": frozenset({("a0",)})})
    N = FinModel(T, {"A": ("b0",)}, {}, {"P": frozenset()})
    assert homomorphisms(M, N) == []
    assert len(homomorphisms(N, M)) == 1
    reach = ModelFamily.build([M, N]).reach
    assert reach[(0, 1)] == {"A": {"a0": frozenset()}}
    assert reach[(1, 0)] == {"A": {"b0": frozenset({"a0"})}}


def homomorphisms_oracle(M: FinModel, N: FinModel) -> list[dict]:
    """Every sort-indexed function M -> N, filtered by the function tables
    and the relations."""
    sig = M.theory.signature
    sort_maps = []
    for s in sig.sorts:
        dom, cod = M.sorts[s], N.sorts[s]
        if dom and not cod:
            return []
        sort_maps.append(
            [dict(zip(dom, vals)) for vals in product(cod, repeat=len(dom))]
        )
    out = []
    for combo in product(*sort_maps):
        h = dict(zip(sig.sorts, combo))
        if all(
            N.funcs[f][tuple(h[s][a] for s, a in zip(args, tup))] == h[res][v]
            for f, (args, res) in sig.funcs.items()
            for tup, v in M.funcs[f].items()
        ) and all(
            tuple(h[s][a] for s, a in zip(argsorts, tup)) in N.rels[r]
            for r, argsorts in sig.rels.items()
            for tup in M.rels[r]
        ):
            out.append(h)
    return out


def as_items(homs):
    return [[(s, list(h[s].items())) for s in h] for h in homs]


def oracle_families(up_to_iso=True):
    families = [
        enumerate_models(
            parse_theory(fixture_path(f"{name}.chr").read_text()), 4,
            up_to_iso=up_to_iso,
        )
        for name in CORPUS
    ]
    sig = two_sorted_theory().signature
    families.append(enumerate_models(Theory(sig, ()), 2, up_to_iso=up_to_iso))
    # an empty carrier in the source
    families.append(enumerate_models(
        theory("sort A\nsort B\nrel P : A\n"), 2, 0, up_to_iso=up_to_iso
    ))
    return families


def test_homomorphisms_match_product_filter_oracle():
    total = 0
    for models in oracle_families():
        for M, N in product(models, repeat=2):
            got = homomorphisms(M, N)
            assert as_items(got) == as_items(homomorphisms_oracle(M, N))
            total += len(got)
    assert total == 13671


def reach_oracle(M: FinModel, homs) -> dict:
    """{h(a) : h in homs} for each sort and element of M."""
    return {
        s: {a: frozenset(h[s][a] for h in homs) for a in M.sorts[s]}
        for s in M.theory.signature.sorts
    }


def test_reach_matches_every_hom_of_the_oracles():
    pairs = empty = 0
    for k, models in enumerate(oracle_families()):
        fam = ModelFamily.build(models)
        for (i, M), (j, N) in product(enumerate(models), repeat=2):
            homs = homomorphisms_oracle(M, N)
            assert fam.reach[(i, j)] == reach_oracle(M, homs)
            if k < len(CORPUS):  # the fixtures at size 4
                assert fam.reach[(i, j)] == reach_oracle(M, homomorphisms(M, N))
            pairs, empty = pairs + 1, empty + (not homs)
    assert (pairs, empty) == (8001, 3968)


def test_model_family_completes_fewer_homs_than_it_has(monkeypatch):
    import cohext.logic.models as models

    T = parse_theory(fixture_path("ordered.chr").read_text())
    family = enumerate_models(T, 5)
    total = sum(len(homomorphisms(M, N)) for M, N in product(family, repeat=2))
    completed = []
    search = models.assignments

    def counted(*args):
        for h in search(*args):
            completed.append(h)
            yield h

    monkeypatch.setattr(models, "assignments", counted)
    ModelFamily.build(family)
    assert total == 92715
    assert len(completed) < total


def reach_search_oracle(M: FinModel, N: FinModel) -> dict:
    """The reach relation by the witness search without per-model tables
    or node-consistent domains: M's rows and N's row sets are built for
    this one pair, every key searches all of its sort in N, and every pair
    (a, b) not yet covered gets its pinned search."""
    sig = M.theory.signature
    keys = [(s, a) for s in sig.sorts for a in M.sorts[s]]
    reached = {k: set() for k in keys}
    tables = [
        (
            args + (res,),
            [k + (v,) for k, v in M.funcs[f].items()],
            {k + (v,) for k, v in N.funcs[f].items()},
        )
        for f, (args, res) in sig.funcs.items()
    ] + [(args, M.rels[r], N.rels[r]) for r, args in sig.rels.items()]
    rows = {k: [] for k in keys}
    hom_exists = True
    for sorts, m_rows, n_rows in tables:
        for row in m_rows:
            cells = tuple(zip(sorts, row))
            for cell in set(cells):
                rows[cell].append((cells, n_rows))
            if not cells and row not in n_rows:
                hom_exists = False

    def consistent(key, acc):
        for cells, n_rows in rows[key]:
            image = tuple(map(acc.get, cells))  # None for an unassigned cell
            if image not in n_rows and None not in image:
                return False
        return True

    def first_hom(order, values) -> bool:
        for h in assignments(order, values.__getitem__, consistent):
            for k, b in h.items():
                reached[k].add(b)
            return True
        return False

    if hom_exists and first_hom(keys, {k: N.sorts[k[0]] for k in keys}):
        for pin in keys:
            rest = [k for k in keys if k != pin]
            for b in N.sorts[pin[0]]:
                if b not in reached[pin]:
                    values = {
                        k: sorted(N.sorts[k[0]], key=reached[k].__contains__)
                        for k in rest
                    }
                    first_hom([pin, *rest], {**values, pin: (b,)})
    return {s: {a: frozenset(reached[s, a]) for a in M.sorts[s]} for s in sig.sorts}


def assert_reach_matches_the_search_oracle(models) -> int:
    """The family's reach equals the oracle's on every ordered pair; the
    number of pairs with no homomorphism."""
    fam = ModelFamily.build(models)
    empty = 0
    for (i, M), (j, N) in product(enumerate(models), repeat=2):
        want = reach_search_oracle(M, N)
        assert fam.reach[(i, j)] == want, (i, j)
        empty += not any(want[s][a] for s in want for a in want[s])
    return empty


def test_reach_matches_the_search_oracle_on_the_benchmark_families():
    for name in CORPUS:
        T = parse_theory(fixture_path(f"{name}.chr").read_text())
        for size in (4, 5):
            assert_reach_matches_the_search_oracle(enumerate_models(T, size))


# Each theory exercises one way a domain is pruned or left alone: a constant
# whose value a target's unary relation misses (an empty domain), a diagonal
# row R(a, a), a binary function's fixed point f(a, a) = a, a function into a
# second sort (never a loop), and an empty carrier.
PRUNING_THEORIES = {
    "constant missed": ("sort A\nfun c : -> A\nrel P : A\n", 1),
    "diagonal row": ("sort A\nrel R : A, A\n", 1),
    "binary fixed point": ("sort A\nfun f : A, A -> A\n", 1),
    "second sort": ("sort A\nsort B\nfun g : A -> B\nrel P : B\n", 1),
    "empty carrier": ("sort A\nsort B\nfun g : A -> B\nrel P : A\n", 0),
}


@pytest.mark.parametrize("name", PRUNING_THEORIES)
def test_reach_matches_the_search_oracle_on_each_pruning_path(name):
    text, min_size = PRUNING_THEORIES[name]
    models = enumerate_models(theory(text), 2, min_size, up_to_iso=False)
    assert assert_reach_matches_the_search_oracle(models) > 0


def test_an_empty_domain_runs_no_search_and_a_shared_name_is_no_loop(monkeypatch):
    import cohext.logic.models as models

    searches = []
    search = models.assignments
    monkeypatch.setattr(
        models, "assignments", lambda *args: searches.append(args) or search(*args)
    )
    # P(c) holds in M but misses N's constant: c's domain is empty; the row
    # R(a0, a1) names two keys, so M's reach is searched, not read off
    T = theory("sort A\nfun c : -> A\nrel P : A\nrel R : A, A\n")
    R = frozenset({("a0", "a1")})
    M = FinModel(
        T, {"A": ("a0", "a1")}, {"c": {(): "a0"}}, {"P": frozenset({("a0",)}), "R": R}
    )
    N = FinModel(
        T, {"A": ("a0", "a1")}, {"c": {(): "a0"}}, {"P": frozenset({("a1",)}), "R": R}
    )
    reach = ModelFamily.build([M, N]).reach
    assert reach[(0, 1)] == {"A": {"a0": frozenset(), "a1": frozenset()}}
    assert reach == {
        (i, j): reach_search_oracle(P, Q)
        for (i, P), (j, Q) in product(enumerate([M, N]), repeat=2)
    }
    # (0, 0) takes a search and a pinned one for a1 -> a0, (1, 1) and (1, 0)
    # take one search each; (0, 1) takes none
    assert len(searches) == 4
    # g(x) = x across two sorts names two keys, so it prunes nothing
    T = theory("sort A\nsort B\nfun g : A -> B\n")
    M = FinModel(T, {"A": ("x",), "B": ("x",)}, {"g": {("x",): "x"}}, {})
    N = FinModel(
        T, {"A": ("x", "y"), "B": ("x", "y")}, {"g": {("x",): "y", ("y",): "x"}}, {}
    )
    reach = ModelFamily.build([M, N]).reach
    assert reach[(0, 1)] == reach_search_oracle(M, N)
    assert reach[(0, 1)] == {"A": {"x": frozenset("xy")}, "B": {"x": frozenset("xy")}}


def test_node_consistent_domains_skip_the_pinned_searches_that_must_fail(monkeypatch):
    # per fixture at size 5: its models, the reach searches of the family
    # and those of the oracle.  Every model of `ordered` has only loops, so
    # each of its reaches is its domains, read off with no search.
    import cohext.logic.models as models

    families = {
        name: enumerate_models(parse_theory(fixture_path(f"{name}.chr").read_text()), 5)
        for name in ("ordered", "idempotent")
    }
    counts = []

    def counting(search):
        def counted(*args):
            counts[-1] += 1
            return search(*args)

        return counted

    monkeypatch.setattr(models, "assignments", counting(models.assignments))
    monkeypatch.setitem(globals(), "assignments", counting(assignments))
    found = {}
    for name, family in families.items():
        counts.append(0)
        ModelFamily.build(family)
        counts.append(0)
        for M, N in product(family, repeat=2):
            reach_search_oracle(M, N)
        found[name] = (len(family), counts[-2:])
    # idempotent's build searched 906 times before its pairs read composites
    assert found == {"ordered": (35, [0, 11515]), "idempotent": (18, [52, 2250])}


def test_reach_matches_the_witness_search_oracle_up_to_size_eight():
    for name in CORPUS:
        T = parse_theory(fixture_path(f"{name}.chr").read_text())
        for size in (3, 6, 8):
            models = enumerate_models(T, size)
            assert ModelFamily.build(models).reach == family_reach_oracle(models), name
    # the two-sorted corpus, and labelled families, where composites pass
    # through isomorphic copies: idempotent at size 4 and the empty carriers
    labelled = oracle_families(up_to_iso=False)
    for models in oracle_families()[-2:] + [labelled[1], labelled[-1]]:
        assert ModelFamily.build(models).reach == family_reach_oracle(models)


def test_model_family_counts_the_searches_it_runs(monkeypatch):
    # facts measured at these bounds: before the pairs read composites,
    # idempotent's build ran 906 searches at size 5 and 26,000 at size 8
    import cohext.logic.models as models

    T = parse_theory(fixture_path("idempotent.chr").read_text())
    calls = []
    search = models.assignments
    monkeypatch.setattr(
        models, "assignments", lambda *args: calls.append(args) or search(*args)
    )
    counts = []
    for size in (5, 8):
        family = enumerate_models(T, size)
        calls.clear()
        fam = ModelFamily.build(family)
        assert fam.searches == len(calls)
        counts.append((len(family), fam.searches))
    assert counts == [(18, 52), (66, 314)]


def test_types_are_prime_filters_on_all_corpus_fixtures():
    for name in CORPUS:
        C = corpus_category(name)
        for A in C.sorts:
            for _, _, t in types(C, A):
                assert is_prime_filter(C.sub_lattice(A), t)


def test_singleton_sort_unique_type():
    C = corpus_category("idempotent")
    M1 = [i for i, M in enumerate(C.family.models) if len(M.sorts["A"]) == 1]
    for i in M1:
        a = C.family.models[i].sorts["A"][0]
        t = type_of(C, "A", i, a)
        assert is_prime_filter(C.sub_lattice("A"), t)


def test_conditions_pass_on_corpus():
    for name, size in product(CORPUS, (2, 5)):
        C = corpus_category(name, size)
        assert check_m1(C).passed
        assert check_m2(C).passed
        assert check_m3(C).passed


def test_sigma_bar_passes_on_corpus_families_of_size_six():
    # sigma_bar_check first requires M1-M3
    counts = []
    for name in CORPUS:
        C = corpus_category(name, 6)
        counts.append(len(C.family.models))
        assert sigma_bar_check(C).passed
    assert counts == [21, 29, 56]


def test_evaluation_coherent_conservative_pmodel():
    for name in CORPUS:
        C = corpus_category(name)
        ev = Evaluation(C)
        assert ev.coherence_check().passed
        assert ev.conservativity_check()
        assert check_m1(C).passed


def test_conservativity_reads_only_the_indexed_members():
    C = corpus_category("pointed")
    n = len(C.family.models)
    drop = designated_model_index(C)
    assert drop == 2
    assert Evaluation(C).conservativity_check()
    # without the designated model, [{a0}|{a0}|{a0,a1}] and [{a0}|{a0}|{a0}]
    # of Sub(A) agree on every remaining member but are not equal
    keep = tuple(i for i in range(n) if i != drop)
    assert not Evaluation(C, keep).conservativity_check()


def test_subfunctor_criterion_direct():
    C = corpus_category("pointed")
    ev = Evaluation(C)
    A = "A"
    for H in ev.sub_lattice(A).elements:
        fam = ev.sub_lattice(A).decode[H]
        assert ev.is_subfunctor(A, fam)
    # a non-closed family is rejected: take a cyclic orbit and delete a point
    for i, M in enumerate(C.family.models):
        for a in M.sorts[A]:
            orbit = list(ev.cyclic_subfunctor(A, i, a))
            for j in range(len(orbit)):
                if len(orbit[j]) > 1 or (j != i and orbit[j]):
                    broken = list(orbit)
                    broken[j] = frozenset(sorted(broken[j])[1:])
                    if tuple(broken) != tuple(orbit):
                        assert not ev.is_subfunctor(A, tuple(broken))
                        return


def subfunctors_frontier_oracle(ev, A):
    """The breadth-first union closure of the cyclic subfunctors."""
    empty = tuple(frozenset() for _ in ev.indices)
    gens = {
        ev.cyclic_subfunctor(A, i, a)
        for i in ev.indices
        for a in ev.family.models[i].sorts[A]
    }
    out = {empty}
    frontier = {empty}
    while frontier:
        nxt = set()
        for fam in frontier:
            for g in gens:
                u = tuple(x | y for x, y in zip(fam, g))
                if u not in out:
                    out.add(u)
                    nxt.add(u)
        frontier = nxt
    return out


def subfunctors_subset_oracle(ev, A):
    """Every family of subsets of the carriers that is a subfunctor."""
    choices = []
    for part in ev.carrier(A):
        pts = sorted(part)
        choices.append([
            frozenset(p for k, p in enumerate(pts) if mask >> k & 1)
            for mask in range(1 << len(pts))
        ])
    return {fam for fam in product(*choices) if ev.is_subfunctor(A, fam)}


def test_subfunctors_match_the_oracles_on_the_corpus():
    for name in CORPUS:
        for size in (2, 3):
            C = corpus_category(name, size)
            n = len(C.family.models)
            for indices in (None, tuple(range(1, n))):
                ev = Evaluation(C, indices)
                for A in C.sorts:
                    subs = ev._subfunctors(A)
                    assert subs == subfunctors_frontier_oracle(ev, A)
                    if size == 2:
                        assert subs == subfunctors_subset_oracle(ev, A)


def test_subfunctor_bound_stops_the_search_once_passed(monkeypatch):
    import cohext.logic.models as models

    ev = Evaluation(corpus_category("ordered"))
    total = len(ev._subfunctors("A"))
    assert len(ev._subfunctors("A", budget=total)) == total
    pulled = []
    closure = models.union_closure

    def counted(*args):
        for x in closure(*args):
            pulled.append(x)
            yield x

    monkeypatch.setattr(models, "union_closure", counted)
    for budget in range(total):
        pulled.clear()
        with pytest.raises(ValueError) as e:
            ev._subfunctors("A", budget=budget)
        assert str(e.value) == (
            f"subfunctor lattice of ev(A) exceeds {budget} elements; raise --budget"
        )
        assert len(pulled) == budget + 1


def test_sigma_restricted_to_base_is_plain_sigma():
    from cohext.canext import canonical_extension, extend_hom

    C = corpus_category("ordered")
    ev = Evaluation(C)
    for A in C.sorts:
        ext = canonical_extension(C.sub_lattice(A))
        sig = ev.sigma(A)
        bar = extend_hom(sig, ext)
        for u in C.sub_lattice(A).elements:
            assert bar(ext.e(u)) == sig(u)


def test_sigma_bar_passes_on_corpus():
    for name in CORPUS:
        rep = sigma_bar_check(corpus_category(name))
        assert rep.passed, rep


def test_sigma_bar_refuses_when_conditions_fail():
    # the exhaustive bare-predicate family fails M3, and the checker says so
    T = theory("sort A\nrel P : A\n")
    fam = ModelFamily.build(enumerate_models(T, 2))
    C = FamilyCategory(T, fam)
    with pytest.raises(PreconditionError) as e:
        sigma_bar_check(C)
    assert "M3" in str(e.value)


def test_dropping_designated_model_flips_m2_and_embedding():
    C = corpus_category("pointed", size=2)
    drop = designated_model_index(C)
    keep = tuple(i for i in range(len(C.family.models)) if i != drop)
    assert check_m2(C).passed
    assert not check_m2(C, keep).passed
    assert check_m1(C, keep).passed
    assert check_m3(C, keep).passed
    rep = sigma_bar_check(C, require_conditions=False, indices=keep)
    assert not rep.embedding.passed
    assert "prime filter" in rep.embedding.witness
    assert rep.naturality.passed
    assert rep.exists_preservation.passed
    assert rep.surjectivity.passed


def test_ev_image_is_left_adjoint_of_preimage():
    # existentials in the presheaf target are componentwise direct images;
    # checked directly against the adjunction
    for name in CORPUS:
        C = corpus_category(name)
        ev = Evaluation(C)
        for f in C.cat.morphisms:
            im, pb = ev.image_map(f), ev.pullback_map(f)
            SA, SB = im.source, im.target
            for u in SA.elements:
                for v in SB.elements:
                    assert SB.leq(im(u), v) == SA.leq(u, pb(v))


def test_distillation_budget_guard():
    T = theory(
        "sort A\nfun c : -> A\nfun d : -> A\nrel R : A, A\ntrue |- R(c,d)\n"
    )
    fam = ModelFamily.build(enumerate_models(T, 2))
    with pytest.raises(DistillationBudget):
        FamilyCategory(T, fam, sub_budget=64)
