"""Model families, types of elements, the family conditions, the evaluation
functor, and the frame-isomorphism checks against the type-space fibers.

The base category for these checks is distilled from the theory and the
family: objects are the sorts, morphisms are term-definable maps modulo
agreement on every family member, and subobjects of a sort are the
families of realized coherent-definable subsets, closed under meets,
joins, preimages, and images to a fixpoint.  The distillation is a
semantic approximation of the syntactic category, read from the unary
terms up to the depth `TERM_DEPTH`.

Models are enumerated by propagation: one depth-first search per vector of
carrier sizes assigns the cells of the function and relation tables, and
each sequent instance (a sequent with one assignment of its context) is
evaluated, by `FinModel`'s own evaluator over the partial tables, whenever
a cell it may read is assigned.  A definite violation cuts the branch, so
every leaf of the search is a model.  When models are wanted one per
isomorphism class, the search also cuts a branch once some transposition
of two elements of one sort provably sends its models to models the search
yields earlier (a lex-leader check).  Those are never the first of their
class, which is the one kept, so the cut is exact and the lists are
unchanged; the labelled enumeration (`up_to_iso=False`) does not cut.  The
repeats the cut misses are found by an invariant from colour refinement
and, within one value of it, an exact isomorphism search.

A model family keeps, for each ordered pair of members, the reach relation
of the homomorphisms between them: which elements the homomorphisms
M_i -> M_j send each element of M_i to.  It does not keep the
homomorphisms.  Condition M3, the subfunctor test and the cyclic
subfunctors read only images of single elements, so the reach relation is
all they need, and it is found with far fewer searches than listing every
homomorphism takes.  Each model's row tables are built once for all the
pairs it is in, and each search runs over node-consistent domains
(Mackworth, "Consistency in networks of relations", 1977): a row whose
cells are all one element, such as P(a), R(a, a) or a constant's value,
keeps in that element's domain only the targets that satisfy it.  Every
homomorphism satisfies such a row, so the pruning is exact; what it saves
is each pinned search whose pin lies outside its domain, which must fail.
Homomorphisms compose, so a pair's reach contains the composite of the
reaches through any third member, and the searches cover only what those
composites leave.

The family conditions, and each element's type, are found once per
category and kept on it, so the frame-isomorphism check reads the verdicts
and types the conditions have found, and the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct
from operator import and_, le, or_

from ..canext import canonical_extension, comjpm_decide, extend_hom, sigma_extension
from ..fincat import FinCategory, Morphism, composable_pairs
from ..lattice import (
    LatticeHom,
    MonotoneMap,
    NamedSetLattice,
    prime_filters,
    set_lattice,
)
from ..order import (
    BudgetError,
    assignments,
    bounded,
    cached_method,
    set_name,
    union_closure,
)
from ..report import LawCheck
from .chase import FinModel
from .syntax import And, App, Eq, Exists, Or, RelAtom, Theory, Var, print_term


# -- model enumeration and the reach of homomorphisms -----------------------------


def enumerate_models(
    T: Theory, max_size: int, min_size: int = 1, up_to_iso: bool = True
) -> list[FinModel]:
    """All models of the theory with carriers of the given sizes, one per
    isomorphism class when up_to_iso.  Elements are named by the lowercased
    sort name and an index, so two sorts that would share an element name
    are refused: models map elements by name.

    Each size vector is one search that assigns the function cells and then
    the relation cells, and evaluates each sequent instance whenever a cell
    it may read is assigned (`_models`), so every leaf is a model.  Models
    come out in the order of their tables: the function tables vary
    slowest, the first function fastest and within a table the last
    argument tuple fastest; then the relations, the first fastest, each
    counting up its rows as a bitmask with the first row lowest.  Of each
    isomorphism class the first model in that order is kept.

    When up_to_iso, the search also cuts every branch whose models some
    transposition of two elements of one sort maps to a model earlier in
    that order (`_models`' lex-leader cut).  Such a model is not the first
    of its class, so the cut drops only models that would be dropped
    anyway.  The repeats it misses are found by class: each model is
    bucketed by an isomorphism invariant read from its colour refinement
    (`_Coloured`), and kept unless an exact search finds it isomorphic to
    a model already kept in its bucket.  Without up_to_iso the search does
    not cut and visits every labelled model."""
    sig = T.signature
    names = {s: tuple(f"{s.lower()}{i}" for i in range(max_size)) for s in sig.sorts}
    owner = {}
    for s, xs in names.items():
        for x in xs:
            if owner.setdefault(x, s) != s:
                raise ValueError(f"sorts {owner[x]} and {s} share the element name {x}")
    out, palette, buckets = [], {}, {}
    for vec in iproduct(range(min_size, max_size + 1), repeat=len(sig.sorts)):
        sorts = {s: names[s][:n] for s, n in zip(sig.sorts, vec)}
        for m in _models(T, sorts, lex_leader=up_to_iso):
            if up_to_iso:
                coloured = _Coloured(m, palette)
                bucket = buckets.setdefault(coloured.invariant, [])
                if any(coloured.isomorphic(kept) for kept in bucket):
                    continue
                bucket.append(coloured)
            out.append(m)
    return out


def _tables(M: FinModel) -> list[tuple[tuple[str, ...], set]]:
    """M's function graphs and relations, each as (its sorts, its rows),
    functions first in signature order; a graph row is args + (value,)."""
    sig = M.theory.signature
    return [
        (args + (res,), {k + (v,) for k, v in M.funcs[f].items()})
        for f, (args, res) in sig.funcs.items()
    ] + [(args, M.rels[r]) for r, args in sig.rels.items()]


class _Coloured:
    """A model with its tables (`_tables`) and the stable colouring of its
    elements by colour refinement (one-dimensional Weisfeiler-Leman).  An
    element starts with the colour of its sort; each round recolours it by
    its colour and the sorted list of (position, table and colours of the
    row) over the rows it lies in, until a round splits no class or leaves
    none with two elements.  Colours are the indices of these signatures in
    `palette`, which the models of one enumeration share, so equal colours
    mean equal signatures in every model.  An isomorphism keeps every
    colour, so isomorphic models have equal invariants: the carrier sizes,
    the colour histogram and each table's rows read as colours.  When every
    element has its own colour the invariant determines the model up to
    isomorphism."""

    __slots__ = ("model", "tables", "colour", "invariant")

    def __init__(self, M: FinModel, palette: dict):
        tables = [rows for _, rows in _tables(M)]
        cells = [(t, row) for t, rows in enumerate(tables) for row in rows if row]
        colour = {
            x: palette.setdefault(("sort", s), len(palette))
            for s, xs in M.sorts.items()
            for x in xs
        }
        classes = len(set(colour.values()))
        while True:
            seen = {x: [] for x in colour}
            get = colour.__getitem__
            for t, row in cells:
                image = (t, *map(get, row))
                for p, x in enumerate(row):
                    seen[x].append((p, image))
            colour = {
                x: palette.setdefault((c, *sorted(seen[x])), len(palette))
                for x, c in colour.items()
            }
            refined = len(set(colour.values()))
            if refined in (classes, len(colour)):
                break
            classes = refined
        get = colour.__getitem__
        self.model, self.tables, self.colour = M, tables, colour
        self.invariant = (
            tuple(len(xs) for xs in M.sorts.values()),
            tuple(sorted(colour.values())),
            tuple(tuple(sorted(tuple(map(get, row)) for row in rows)) for rows in tables),
        )

    def isomorphic(self, other: _Coloured) -> bool:
        """Whether some bijection keeping colours maps this model's rows
        onto the other's, by one `order.assignments` search over this
        model's elements, the smallest colour classes first, each row
        checked once its last element is assigned.  Called on models with
        equal invariants, so each colour class has as many elements here as
        there and each table as many rows: an injective map that sends rows
        into rows is an isomorphism."""
        candidates = {}
        for y, c in other.colour.items():
            candidates.setdefault(c, []).append(y)
        colour = self.colour
        order = sorted(colour, key=lambda x: len(candidates[colour[x]]))
        position = {x: i for i, x in enumerate(order)}
        last = {x: [] for x in order}
        for rows, target in zip(self.tables, other.tables):
            for row in rows:
                if row:
                    last[max(row, key=position.__getitem__)].append((row, target))

        def consistent(x, h):
            y = h[x]
            return sum(v == y for v in h.values()) == 1 and all(
                tuple(map(h.__getitem__, row)) in target for row, target in last[x]
            )

        values = lambda x: candidates[colour[x]]
        return next(assignments(order, values, consistent), None) is not None


def _models(T: Theory, sorts: dict[str, tuple[str, ...]], lex_leader: bool = False):
    """The models of T on the given carriers, by one `order.assignments`
    search over the cells ("fun", f, args) and ("rel", r, args); a relation
    cell takes False, then True.  A sequent instance, a sequent with one
    assignment of its context, is indexed under every cell it may read and
    evaluated whenever one of them is assigned.  Reading an unassigned cell
    leaves it undecided; a holding lhs with a failing rhs cuts the branch.
    An instance that reads no cell is decided before the search.

    With lex_leader, a branch is also cut when some transposition sigma of
    two elements of one sort provably sends each of its models M to a
    smaller assignment sigma M (Crawford, Ginsberg, Luks and Roy,
    "Symmetry-breaking predicates for search problems", 1996): positions in
    `keys` order, function values in carrier order, False before True.
    sigma M's cell at a position is sigma applied to the value of its
    partner cell, the cell at sigma's image of the arguments.  The check
    reads the assigned positions in order and cuts at the first where the
    two differ with sigma M smaller; it gives up at the first partner cell
    not yet assigned.  The cut is exact: sigma M is a model on the same
    carriers exactly when M is, and the search yields its models in this
    order, so each model cut has an isomorphic model before it and is not
    the first of its class."""
    sig = T.signature
    funcs, rels = sorted(sig.funcs.items()), sorted(sig.rels.items())
    fdom = {f: list(iproduct(*[sorts[s] for s in args])) for f, (args, _) in funcs}
    rdom = {r: list(iproduct(*[sorts[s] for s in args])) for r, args in rels}
    keys = [("fun", f, d) for f, _ in reversed(funcs) for d in fdom[f]]
    keys += [("rel", r, d) for r, _ in reversed(rels) for d in reversed(rdom[r])]
    index = {k: [] for k in keys}
    ground = []
    for seq in T.sequents:
        for choice in iproduct(*[sorts[v.sort] for v in seq.context]):
            env = {v.name: x for v, x in zip(seq.context, choice)}
            cells = _cells_read(seq, env, sorts)
            for c in cells:
                index[c].append((seq, env))
            if not cells:
                ground.append((seq, env))
    unassigned = _partial_model(T, sorts, {})
    if any(_violated(unassigned, seq, env) for seq, env in ground):
        return
    partial = None
    position = {k: i for i, k in enumerate(keys)}
    carrier_index = {x: j for xs in sorts.values() for j, x in enumerate(xs)}
    rank = [0] * len(keys)  # rank[i]: the order of the value at keys[i]
    swaps = _transposition_tables(T, sorts, keys, position) if lex_leader else ()

    def smaller_image(table, i):
        for k, p, perm in table:
            if p > i:
                return False
            v, w = rank[p], rank[k]
            if perm is not None:
                v = perm[v]
            if v != w:
                return v < w
        return False

    def consistent(key, acc):
        nonlocal partial
        if partial is None:  # the search assigns into this one dict throughout
            partial = _partial_model(T, sorts, acc)
        if swaps:
            i = position[key]
            v = acc[key]
            rank[i] = carrier_index[v] if key[0] == "fun" else v
            if any(smaller_image(table, i) for table in swaps):
                return False
        return not any(_violated(partial, seq, env) for seq, env in index[key])

    def values(key):
        return sorts[sig.funcs[key[1]][1]] if key[0] == "fun" else (False, True)

    for acc in assignments(keys, values, consistent):
        yield FinModel(
            T,
            sorts,
            {f: {d: acc["fun", f, d] for d in fdom[f]} for f, _ in funcs},
            {r: frozenset(d for d in rdom[r] if acc["rel", r, d]) for r, _ in rels},
        )


def _transposition_tables(T: Theory, sorts, keys, position) -> list[list[tuple]]:
    """For each transposition sigma of two elements of one sort, the key
    positions k at which sigma M may differ from M, in order, each as
    (k, p, perm): p is the position of k's partner cell and perm, for a
    function into sigma's sort, swaps the two value ranks (None otherwise).
    A position whose partner lies before it is left out: when the check
    reaches it, the partner's position compared equal, and sigma being an
    involution makes this one equal too."""
    sig = T.signature
    tables = []
    for s, xs in sorts.items():
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                swap = {xs[a]: xs[b], xs[b]: xs[a]}
                perm = list(range(len(xs)))
                perm[a], perm[b] = b, a
                perm = tuple(perm)
                table = []
                for k, (kind, name, d) in enumerate(keys):
                    p = position[kind, name, tuple(swap.get(x, x) for x in d)]
                    moves = kind == "fun" and sig.funcs[name][1] == s
                    if p > k or (p == k and moves):
                        table.append((k, p, perm if moves else None))
                tables.append(table)
    return tables


class _Unassigned(Exception):
    """A read of a cell that the search has not assigned yet."""


class _Cells:
    """One symbol's cells in a partial assignment, read as a function table
    (`cells[args]`) or as a relation (`args in cells`)."""

    __slots__ = ("acc", "kind", "name")

    def __init__(self, acc: dict, kind: str, name: str):
        self.acc, self.kind, self.name = acc, kind, name

    def __getitem__(self, args):
        value = self.acc.get((self.kind, self.name, args))
        if value is None:
            raise _Unassigned
        return value

    __contains__ = __getitem__


def _partial_model(T: Theory, sorts, acc: dict) -> FinModel:
    sig = T.signature
    return FinModel(
        T,
        sorts,
        {f: _Cells(acc, "fun", f) for f in sig.funcs},
        {r: _Cells(acc, "rel", r) for r in sig.rels},
    )


def _violated(M: FinModel, seq, env) -> bool:
    """The instance's lhs holds in M and its rhs fails, read from assigned
    cells only."""
    try:
        return M.satisfies_formula(seq.lhs, env) and not M.satisfies_formula(seq.rhs, env)
    except _Unassigned:
        return False


def _cells_read(seq, env: dict, sorts) -> set[tuple]:
    """The cells that evaluating the sequent under env may read.  A variable
    bound in it, and a term with a function at its head, may take any value
    of its sort: f(f(x)) may read every cell of f."""
    cells = set()

    def values(t, env):
        if isinstance(t, Var):
            return (env[t.name],) if t.name in env else sorts[t.sort]
        args = [values(a, env) for a in t.args]
        cells.update(("fun", t.func, d) for d in iproduct(*args))
        return sorts[t.sort]

    def visit(phi, env):
        if isinstance(phi, RelAtom):
            args = [values(a, env) for a in phi.args]
            cells.update(("rel", phi.rel, d) for d in iproduct(*args))
        elif isinstance(phi, Eq):
            values(phi.lhs, env)
            values(phi.rhs, env)
        elif isinstance(phi, (And, Or)):
            for p in phi.parts:
                visit(p, env)
        elif isinstance(phi, Exists):
            bound = {b.name for b in phi.binders}
            visit(phi.body, {k: v for k, v in env.items() if k not in bound})

    visit(seq.lhs, env)
    visit(seq.rhs, env)
    return cells


class _RowTables:
    """One model's side of every reach search it takes part in, built once.

    As a source M: its keys (sort, element); each row of its relations and
    function graphs whose cells name two or more keys, listed under each of
    them with its table's index; its rows with no cell (a nullary relation);
    and each key's loop profile, its sort and the (arity, table index) of
    each row whose cells all name that key, and the set of these profiles.
    As a target N: the row set of each table, by index, and the
    node-consistent domain of each loop profile met so far (`domain`)."""

    __slots__ = (
        "model", "keys", "rows", "ground", "profile", "profiles", "sets", "domains"
    )

    def __init__(self, M: FinModel):
        tables = _tables(M)
        self.model = M
        self.keys = [(s, a) for s in M.theory.signature.sorts for a in M.sorts[s]]
        self.sets = [m_rows for _, m_rows in tables]
        self.rows = {k: [] for k in self.keys}
        self.ground = []
        loops = {k: [] for k in self.keys}
        for t, (sorts, m_rows) in enumerate(tables):
            for row in m_rows:
                cells = tuple(zip(sorts, row))
                distinct = set(cells)
                if not cells:
                    self.ground.append((row, t))
                elif len(distinct) == 1:
                    loops[cells[0]].append((len(cells), t))
                else:
                    for cell in distinct:
                        self.rows[cell].append((cells, t))
        self.profile = {k: (k[0], tuple(sorted(ls))) for k, ls in loops.items()}
        self.profiles = set(self.profile.values())
        self.domains = {}

    def domain(self, profile) -> tuple[list[str], frozenset[str]]:
        """The elements b of the profile's sort in this model whose row
        (b, ..., b) lies in the table of each loop of the profile, in
        carrier order and as a set; found once per profile."""
        try:
            return self.domains[profile]
        except KeyError:
            sort, loops = profile
            found = [
                b for b in self.model.sorts[sort]
                if all((b,) * arity in self.sets[t] for arity, t in loops)
            ]
            kept = self.domains[profile] = found, frozenset(found)
            return kept


def _reach(m: _RowTables, n: _RowTables, via) -> tuple[dict, bool, int]:
    """reach[A][a] = {h(a) : h a structure homomorphism M -> N}, for each
    sort A and element a of M, found from witnesses instead of listing every
    homomorphism; with whether a homomorphism exists and the number of
    searches run.

    Each key searches a node-consistent domain (`_RowTables.domain`): a
    loop of M, a row whose cells are all one key k, keeps in k's domain
    only the b whose row (b, ..., b) lies in N's table.  That is exact:
    every homomorphism satisfies the loop, and a search that checked it
    would reject each pruned value as soon as k is assigned.  The loops are
    not checked again: an empty domain means that no homomorphism exists,
    and a pin outside its domain is never reached.  When M has no other
    row, every assignment from the domains is a homomorphism, so the reach
    is the domains themselves and no search runs.

    Otherwise `reached` is seeded with composites: `via` yields the reach
    relations (M -> K, K -> N) through models K that M maps to and that map
    to N, and a composite of homomorphisms is a homomorphism, so g(h(a))
    lies in the reach for every h(a) in the first and g(h(a)) in the second.
    They are read until every key's domain is covered.  A composite shows
    that a homomorphism exists; without one, one unpinned search tells.
    Then each pair (a, b) of a domain that no homomorphism found so far
    covers gets one depth-first search with a first in key order and
    pinned to b, stopped at its first homomorphism.  Inside such a search
    values not yet reached are tried first, so each homomorphism found
    covers new pairs.  Any row is checked as soon as all its cells are
    assigned, in whatever order the search assigns them."""
    sorts = m.model.theory.signature.sorts
    domains = {p: n.domain(p) for p in m.profiles}
    exists = all(row in n.sets[t] for row, t in m.ground) and all(
        found for found, _ in domains.values()
    )
    if not exists or not any(m.rows.values()):
        reach = {s: {} for s in sorts}
        for (s, a), p in m.profile.items():
            reach[s][a] = domains[p][1] if exists else frozenset()
        return reach, exists, 0
    domain = {k: domains[p][0] for k, p in m.profile.items()}
    reached = {k: set() for k in m.keys}
    rows, sets = m.rows, n.sets
    searches, composed = 0, False

    def consistent(key, acc):
        for cells, t in rows[key]:
            image = tuple(map(acc.get, cells))  # None for an unassigned cell
            if image not in sets[t] and None not in image:
                return False
        return True

    def first_hom(order, values) -> bool:
        nonlocal searches
        searches += 1
        for h in assignments(order, values.__getitem__, consistent):
            for k, b in h.items():
                reached[k].add(b)
            return True
        return False

    for to_k, from_k in via:
        composed = True
        for (s, a), got in reached.items():
            firsts, seconds = to_k[s][a], from_k[s]
            for b in firsts:
                got |= seconds[b]
        if all(len(reached[k]) == len(domain[k]) for k in m.keys):
            break
    if composed or first_hom(m.keys, domain):
        for pin in m.keys:
            if len(reached[pin]) == len(domain[pin]):
                continue
            rest = [k for k in m.keys if k != pin]
            for b in domain[pin]:
                if b not in reached[pin]:
                    values = {
                        k: sorted(domain[k], key=reached[k].__contains__)
                        for k in rest
                    }
                    first_hom([pin, *rest], {**values, pin: (b,)})
        exists = True
    else:
        exists = False
    reach = {s: {} for s in sorts}
    for (s, a), got in reached.items():
        reach[s][a] = frozenset(got)
    return reach, exists, searches


@dataclass(frozen=True, eq=False)
class ModelFamily:
    """Finitely many models of one theory and, for each ordered pair (i, j)
    of them, the reach relation of the homomorphisms M_i -> M_j:
    reach[(i, j)][A][a] = {h(a) : h : M_i -> M_j}, for each sort A and each
    element a of M_i(A).  The homomorphisms themselves are not kept.  Their
    readers need no more: condition M3, the subfunctor test and the cyclic
    subfunctors each ask only where homomorphisms send one element.
    `searches` counts the homomorphism searches the build ran."""

    models: tuple[FinModel, ...]
    reach: dict[tuple[int, int], dict[str, dict[str, frozenset[str]]]]
    searches: int = 0

    @classmethod
    def build(cls, models, budget: int | None = None) -> ModelFamily:
        """`budget` bounds the ordered model pairs, one reach each.  Each
        model's row tables are built once (`_RowTables`) and serve every
        pair it is in, as source and as target; a target finds each
        node-consistent domain once per loop profile (see `_reach`).  The
        pairs are built row by row, so the pair (i, j) reads composites
        through each model k below both i and j with homomorphisms i -> k
        and k -> j, and searches only the pins they leave uncovered."""
        models = tuple(models)
        budget = REACH_BUDGET if budget is None else budget
        if len(models) ** 2 > budget:
            raise BudgetError(
                f"model family of {len(models)} models exceeds {budget} "
                "model pairs; raise --budget"
            )
        tables = [_RowTables(M) for M in models]
        reach, homs, searches = {}, set(), 0
        for i, m in enumerate(tables):
            for j, n in enumerate(tables):
                via = (
                    (reach[i, k], reach[k, j])
                    for k in range(min(i, j))
                    if (i, k) in homs and (k, j) in homs
                )
                reach[i, j], exists, count = _reach(m, n, via)
                searches += count
                if exists:
                    homs.add((i, j))
        return cls(models, reach, searches)


# -- the distilled base category ----------------------------------------------------


@dataclass(frozen=True)
class TermMap:
    """A unary term x:A |- t(x):B evaluated on every family member."""

    name: str
    src: str
    tgt: str
    tables: tuple[dict, ...]  # one function per model


TERM_DEPTH = 2  # nesting depth of the unary terms a distilled category reads
REACH_BUDGET = 1 << 14  # ordered model pairs of a family, one reach search each
SUBOBJECT_BUDGET = 2048  # subobject families of a distilled category
SUBFUNCTOR_BUDGET = 1 << 14  # subfunctors of one evaluated sort


class DistillationBudget(BudgetError):
    """The realized-subobject closure outgrew its budget; shrink the family
    or the signature."""


class FamilyCategory:
    """Sorts with term-definable maps, morphisms identified extensionally
    over the family; subobjects are hom-monotone families of subsets
    generated by the realized definable sets."""

    def __init__(
        self,
        T: Theory,
        family: ModelFamily,
        sub_budget: int | None = None,
    ):
        self.sub_budget = SUBOBJECT_BUDGET if sub_budget is None else sub_budget
        self.theory = T
        self.family = family
        sig = T.signature
        self.sorts = tuple(sig.sorts)
        terms = _unary_terms(sig, TERM_DEPTH)
        self._maps: dict[str, TermMap] = {}
        morphisms, identities, comp = {}, {}, {}
        canon: dict[tuple, str] = {}
        for src, t, tgt in terms:
            tables = tuple(
                {
                    a: M.eval_term(t, {"x": a})
                    for a in M.sorts[src]
                }
                for M in family.models
            )
            key = (src, tgt, tuple(tuple(sorted(tb.items())) for tb in tables))
            if key in canon:
                continue
            name = f"tm[{print_term(t)}]:{src}->{tgt}"
            canon[key] = name
            self._maps[name] = TermMap(name, src, tgt, tables)
            morphisms[name] = Morphism(name, src, tgt)
        self._by_key = canon
        for s in self.sorts:
            ident = [
                n
                for n, tm in self._maps.items()
                if tm.src == s and tm.tgt == s
                and all(
                    tb == {a: a for a in M.sorts[s]}
                    for tb, M in zip(tm.tables, family.models)
                )
            ]
            identities[s] = ident[0]
        for f, g in composable_pairs(morphisms):
            t1, t2 = self._maps[f.name], self._maps[g.name]
            tables = tuple(
                {a: tb2[tb1[a]] for a in tb1}
                for tb1, tb2 in zip(t1.tables, t2.tables)
            )
            key = (t1.src, t2.tgt, tuple(tuple(sorted(tb.items())) for tb in tables))
            if key not in self._by_key:
                raise ValueError(
                    "term-depth budget too small: "
                    f"composite of {f.name};{g.name} missing"
                )
            comp[(g.name, f.name)] = self._by_key[key]
        self.cat = FinCategory(self.sorts, morphisms, comp, identities)
        self._subs: dict[str, NamedSetLattice] = {}
        self._build_subobjects()

    def term_map(self, name: str) -> TermMap:
        return self._maps[name]

    # subobjects: families of subsets, one per model, closed under the
    # lattice operations and the term-map preimages and images

    def _build_subobjects(self):
        models = self.family.models
        seeds: dict[str, set[tuple]] = {s: set() for s in self.sorts}
        for s in self.sorts:
            seeds[s].add(tuple(frozenset(M.sorts[s]) for M in models))
            seeds[s].add(tuple(frozenset() for _ in models))
        sig = self.theory.signature
        for rel, argsorts in sig.rels.items():
            for s in set(argsorts):
                var = Var("x", s)
                patterns = _argument_patterns(sig, argsorts, s)
                for args in patterns:
                    phi = RelAtom(rel, args)
                    fam = tuple(M.definable(phi, var) for M in models)
                    seeds[s].add(fam)
        fams = {s: set(seeds[s]) for s in self.sorts}
        changed = True
        while changed:
            changed = False
            if sum(len(v) for v in fams.values()) > self.sub_budget:
                raise DistillationBudget(
                    f"subobject closure exceeds {self.sub_budget} families; "
                    "raise --budget"
                )
            for s in self.sorts:
                new = set()
                cur = list(fams[s])
                for u in cur:
                    for v in cur:
                        new.add(_family_meet(u, v))
                        new.add(_family_join(u, v))
                if not new <= fams[s]:
                    fams[s] |= new
                    changed = True
            for tm in self._maps.values():
                for u in list(fams[tm.tgt]):
                    pre = _preimage(tm.tables, u)
                    if pre not in fams[tm.src]:
                        fams[tm.src].add(pre)
                        changed = True
                for u in list(fams[tm.src]):
                    img = _image(tm.tables, u)
                    if img not in fams[tm.tgt]:
                        fams[tm.tgt].add(img)
                        changed = True
        for s in self.sorts:
            self._subs[s] = _family_lattice(sorted(fams[s]))

    def sub_lattice(self, A: str) -> NamedSetLattice:
        return self._subs[A]

    def decode(self, A: str, u: str) -> tuple:
        return self._subs[A].decode[u]

    def pullback_map(self, f: str) -> LatticeHom:
        tm = self._maps[f]
        return _preimage_map(tm.tables, self._subs[tm.src], self._subs[tm.tgt])

    def image_map(self, f: str) -> MonotoneMap:
        tm = self._maps[f]
        return _image_map(tm.tables, self._subs[tm.src], self._subs[tm.tgt])


# families of subsets, one per model, with componentwise operations


def _family_meet(f, g) -> tuple:
    return tuple(map(and_, f, g))


def _family_join(f, g) -> tuple:
    return tuple(map(or_, f, g))


def _family_leq(f, g) -> bool:
    return all(map(le, f, g))


def _preimage(tables, fam) -> tuple:
    """Componentwise preimage of a family along per-model function tables."""
    return tuple(
        frozenset(a for a in tb if tb[a] in part) for tb, part in zip(tables, fam)
    )


def _image(tables, fam) -> tuple:
    """Componentwise direct image of a family along per-model function tables."""
    return tuple(frozenset(tb[a] for a in part) for tb, part in zip(tables, fam))


def _preimage_map(tables, SA, SB) -> LatticeHom:
    """SB -> SA: the preimage of each family along the tables of a term map
    from A to B, between lattices of families SA and SB."""
    return LatticeHom(
        SB, SA, {v: SA.encode[_preimage(tables, SB.decode[v])] for v in SB.elements}
    )


def _image_map(tables, SA, SB) -> MonotoneMap:
    """SA -> SB: the direct image of each family along the same tables."""
    return MonotoneMap(
        SA, SB, {u: SB.encode[_image(tables, SA.decode[u])] for u in SA.elements}
    )


def _family_name(fam) -> str:
    return "[" + "|".join(set_name(p) for p in fam) + "]"


def _family_lattice(fams) -> NamedSetLattice:
    return set_lattice(
        fams, name=_family_name, meet=_family_meet, join=_family_join, leq=_family_leq
    )


def _unary_terms(sig, depth):
    """(src sort, term, tgt sort) for terms in one variable x up to the
    given nesting depth; constants give constant maps from every sort."""
    out = []
    for s in sig.sorts:
        layer = [Var("x", s)]
        layer += [
            App(f, (), res)
            for f, (args, res) in sorted(sig.funcs.items())
            if args == ()
        ]
        out.extend((s, t, t.sort) for t in layer)
        for _ in range(depth):
            nxt = []
            for t in layer:
                for f, (args, res) in sorted(sig.funcs.items()):
                    if len(args) == 1 and args[0] == t.sort:
                        nxt.append(App(f, (t,), res))
            out.extend((s, t, t.sort) for t in nxt)
            layer = nxt
    return out


def _argument_patterns(sig, argsorts, s):
    """Tuples of unary terms in the variable x:s filling the argument
    positions; each position gets x (when sorts match) or a constant."""
    var = Var("x", s)
    consts = {
        srt: [App(f, (), srt) for f, (a, r) in sorted(sig.funcs.items()) if a == () and r == srt]
        for srt in sig.sorts
    }
    options = []
    for srt in argsorts:
        opts = []
        if srt == s:
            opts.append(var)
        opts.extend(consts[srt])
        options.append(opts)
    pats = [tuple(p) for p in iproduct(*options)]
    return [p for p in pats if any(isinstance(t, Var) for t in p)]


# -- types ------------------------------------------------------------------------


@cached_method
def type_of(C: FamilyCategory, A: str, model_index: int, a: str) -> frozenset:
    """t_A(a, M): the subobjects of A whose component at M contains a;
    found once per element and kept on C."""
    S = C.sub_lattice(A)
    return frozenset(
        u for u in S.elements if a in C.decode(A, u)[model_index]
    )


@cached_method
def _least_member(C: FamilyCategory, A: str, model_index: int, a: str) -> str:
    """The least member of a's type, the meet of the filter."""
    return C.sub_lattice(A).meet_all(type_of(C, A, model_index, a))


def types(C: FamilyCategory, A: str) -> list[tuple[int, str, frozenset]]:
    out = []
    for i, M in enumerate(C.family.models):
        for a in M.sorts[A]:
            out.append((i, a, type_of(C, A, i, a)))
    return out


# -- the family conditions ----------------------------------------------------------
#
# Each verdict is kept on the category by its normalised index tuple, so
# `sigma_bar_check`'s precondition pass reads the verdicts a caller has
# already asked for, and a caller reads those the precondition pass found.


def _indices(C: FamilyCategory, indices) -> tuple[int, ...]:
    return tuple(range(len(C.family.models))) if indices is None else tuple(indices)


def _meet_exchange(C: FamilyCategory, tm: TermMap, i: int, rho) -> bool:
    """At family member i, the image along tm of the meet of the components
    of the prime filter rho is the meet of their images."""
    parts = [C.decode(tm.src, u)[i] for u in rho]
    table = tm.tables[i]
    image = lambda part: frozenset(table[a] for a in part)
    return image(reduce(and_, parts)) == reduce(and_, map(image, parts))


def check_m1(C: FamilyCategory, indices=None) -> LawCheck:
    """Every family member commutes images with prime-filter meets."""
    return _m1(C, _indices(C, indices))


def check_m2(C: FamilyCategory, indices=None) -> LawCheck:
    """Every prime filter of every subobject lattice is a realized type."""
    return _m2(C, _indices(C, indices))


def check_m3(C: FamilyCategory, indices=None) -> LawCheck:
    """Whenever b lies in every N-component of the type of a, some family
    homomorphism carries a to b.  A type is a filter of Sub(A), so those b
    are the N-component of its least member, one meet of the type; each
    model then takes one set difference against the reach."""
    return _m3(C, _indices(C, indices))


@cached_method
def _m1(C: FamilyCategory, idx: tuple[int, ...]) -> LawCheck:
    return LawCheck.first("M1", (
        f"model {i}, map {f}, prime filter {sorted(rho)}"
        for i in idx
        for f, tm in C._maps.items()
        for rho in prime_filters(C.sub_lattice(tm.src))
        if not _meet_exchange(C, tm, i, rho)
    ))


@cached_method
def _m2(C: FamilyCategory, idx: tuple[int, ...]) -> LawCheck:
    return LawCheck.first("M2", (
        f"prime filter {sorted(rho)} of {A} unrealized"
        for A in C.sorts
        if (rho := _unrealized_prime_filter(C, idx, A)) is not None
    ))


@cached_method
def _m3(C: FamilyCategory, idx: tuple[int, ...]) -> LawCheck:
    return LawCheck.first("M3", _m3_failures(C, idx))


def _m3_failures(C: FamilyCategory, idx):
    fam = C.family
    for A in C.sorts:
        for i in idx:
            for a in fam.models[i].sorts[A]:
                least = C.decode(A, _least_member(C, A, i, a))
                for j in idx:
                    missing = least[j] - fam.reach[(i, j)][A][a]
                    if missing:
                        yield (
                            f"no hom sends {a} (model {i}) to {min(missing)} "
                            f"(model {j}) at {A}"
                        )


# -- the evaluation functor -----------------------------------------------------------


class Evaluation:
    """ev : C -> Set^S.  ev(A) is the family M |-> M(A) with homomorphisms
    acting componentwise; its subobjects are the subfunctors.  An index
    subset restricts the evaluation to a subfamily without re-distilling
    the category; `budget` bounds the subfunctors enumerated per sort."""

    def __init__(self, C: FamilyCategory, indices=None, budget: int | None = None):
        self.C = C
        self.family = C.family
        self.indices = _indices(C, indices)
        self._sub: dict[str, NamedSetLattice] = {}
        for A in C.sorts:
            subs = sorted(self._subfunctors(A, budget))
            self._sub[A] = _family_lattice(subs)

    def project(self, fam_full) -> tuple:
        return tuple(fam_full[i] for i in self.indices)

    def carrier(self, A: str) -> tuple[frozenset, ...]:
        return tuple(
            frozenset(self.family.models[i].sorts[A]) for i in self.indices
        )

    def is_subfunctor(self, A: str, fam) -> bool:
        """Every homomorphism between the members keeps fam inside fam: the
        cyclic subfunctor of each of its elements lies inside it."""
        return all(
            all(map(le, self.cyclic_subfunctor(A, i, a), fam))
            for i, part in zip(self.indices, fam)
            for a in part
        )

    @cached_method
    def cyclic_subfunctor(self, A: str, i: int, a: str) -> tuple:
        """The least subfunctor containing a at family member i: the orbit
        of a under all outgoing homomorphisms."""
        return tuple(self.family.reach[(i, j)][A][a] for j in self.indices)

    def _subfunctors(self, A: str, budget: int | None = None):
        """Every subfunctor is the union of the cyclic ones below it, so
        the subfunctors are the componentwise union closure of the cyclic
        ones.  The search stops once it has found more than `budget`."""
        budget = SUBFUNCTOR_BUDGET if budget is None else budget
        empty = tuple(frozenset() for _ in self.indices)
        gens = dict.fromkeys(
            self.cyclic_subfunctor(A, i, a)
            for i in self.indices
            for a in self.family.models[i].sorts[A]
        )
        message = (
            f"subfunctor lattice of ev({A}) exceeds {budget} elements; raise --budget"
        )
        return set(bounded(union_closure(gens, _family_join, empty), budget, message))

    def sub_lattice(self, A: str) -> NamedSetLattice:
        return self._sub[A]

    def sigma(self, A: str) -> LatticeHom:
        """Sub_C(A) -> Sub(ev(A)): a subobject family restricts to a
        subfunctor of the evaluation."""
        SA = self.C.sub_lattice(A)
        SE = self._sub[A]
        table = {}
        for u in SA.elements:
            fam = self.project(self.C.decode(A, u))
            if not self.is_subfunctor(A, fam):
                raise ValueError(f"{u} is not hom-monotone; family is inconsistent")
            table[u] = SE.encode[fam]
        return LatticeHom(SA, SE, table)

    def _tables(self, tm: TermMap) -> tuple:
        return tuple(tm.tables[i] for i in self.indices)

    def pullback_map(self, f: str) -> LatticeHom:
        tm = self.C.term_map(f)
        return _preimage_map(self._tables(tm), self._sub[tm.src], self._sub[tm.tgt])

    def image_map(self, f: str) -> MonotoneMap:
        tm = self.C.term_map(f)
        return _image_map(self._tables(tm), self._sub[tm.src], self._sub[tm.tgt])

    def coherence_check(self) -> LawCheck:
        """Degreewise: the subobject action preserves meets, joins, and
        images, i.e. sigma commutes with the structure maps."""
        return LawCheck.first("ev-coherent", self._coherence_failures())

    def _coherence_failures(self):
        C = self.C
        for A in C.sorts:
            if not self.sigma(A).is_lattice_hom():
                yield f"sigma at {A} not a hom"
        for f, tm in C._maps.items():
            sA, sB = self.sigma(tm.src), self.sigma(tm.tgt)
            imC, imE = C.image_map(f), self.image_map(f)
            pbC, pbE = C.pullback_map(f), self.pullback_map(f)
            for u in sA.source.elements:
                if sB(imC(u)) != imE(sA(u)):
                    yield f"image along {f} at {u}"
            for v in sB.source.elements:
                if sA(pbC(v)) != pbE(sB(v)):
                    yield f"preimage along {f} at {v}"

    def conservativity_check(self) -> bool:
        """Jointly order-reflecting: subobject order agrees with the
        componentwise order of the evaluations at the indexed members."""
        for A in self.C.sorts:
            S = self.C.sub_lattice(A)
            for u in S.elements:
                for v in S.elements:
                    comp = all(
                        a <= b
                        for a, b in zip(
                            self.project(self.C.decode(A, u)),
                            self.project(self.C.decode(A, v)),
                        )
                    )
                    if comp != S.leq(u, v):
                        return False
        return True


# -- the sigma-bar frame isomorphism -----------------------------------------------


@dataclass(frozen=True)
class SigmaBarReport:
    naturality: LawCheck
    exists_preservation: LawCheck
    embedding: LawCheck
    surjectivity: LawCheck

    @property
    def passed(self) -> bool:
        return all(
            r.passed
            for r in (
                self.naturality,
                self.exists_preservation,
                self.embedding,
                self.surjectivity,
            )
        )


class PreconditionError(ValueError):
    pass


def sigma_bar_check(
    C: FamilyCategory,
    require_conditions: bool = True,
    indices=None,
    budget: int | None = None,
) -> SigmaBarReport:
    """Extend the subobject-to-subfunctor comparison to the fiber
    extensions and check it is an internal frame isomorphism: natural,
    existential-preserving, an embedding, and surjective.  `budget` bounds
    each subfunctor lattice of the evaluation.  With require_conditions,
    M1-M3 must hold on the indexed members first; their verdicts are the
    ones `check_m1` to `check_m3` keep on C, so a caller that has checked
    them pays for no second pass.  The surjectivity check reads the types
    they found too."""
    if require_conditions:
        for rep in (check_m1(C, indices), check_m2(C, indices), check_m3(C, indices)):
            if not rep.passed:
                raise PreconditionError(f"{rep.name} fails: {rep.witness}")
    ev = Evaluation(C, indices, budget)
    exts = {A: canonical_extension(C.sub_lattice(A)) for A in C.sorts}
    sigma = {A: ev.sigma(A) for A in C.sorts}
    sigma_bar = {A: extend_hom(sigma[A], exts[A]) for A in C.sorts}

    def naturality():
        """Across substitution; a pullback map is a hom, so its lift is
        sigma."""
        for f, tm in C._maps.items():
            subd = sigma_extension(C.pullback_map(f), exts[tm.tgt], exts[tm.src]).map
            pbE = ev.pullback_map(f)
            for v in exts[tm.tgt].ext.elements:
                if sigma_bar[tm.src](subd(v)) != pbE(sigma_bar[tm.tgt](v)):
                    yield f"fails along {f} at {v}"

    def exists_preservation():
        """By the square transfer, whose second condition is the pointwise
        identity sigma_bar o delta(image) = image o sigma_bar."""
        for f, tm in C._maps.items():
            im, imE = C.image_map(f), ev.image_map(f)
            c1, c2 = comjpm_decide(sigma[tm.src], sigma[tm.tgt], im, imE)
            if not (c1 and c2):
                yield f"fails along {f}"

    def embedding():
        for A in C.sorts:
            if not sigma_bar[A].is_order_embedding():
                rho = _unrealized_prime_filter(C, ev.indices, A)
                yield (
                    f"component at {A} not an embedding"
                    + (f"; unrealized prime filter {sorted(rho)}" if rho else "")
                )

    def surjectivity():
        """Every subfunctor is reached by the join of its type points.  The
        point of a type is the meet of its image in the extension, which is
        the image of its least member, as e preserves meets."""
        for A in C.sorts:
            SE, ext = ev.sub_lattice(A), exts[A]
            point = {
                (j, a): ext.e(_least_member(C, A, j, a))
                for j in ev.indices
                for a in C.family.models[j].sorts[A]
            }
            for H in SE.elements:
                points = (
                    point[j, a] for j, part in zip(ev.indices, SE.decode[H]) for a in part
                )
                if sigma_bar[A](ext.ext.join_all(points)) != H:
                    yield f"subfunctor {H} of ev({A}) not reached"

    return SigmaBarReport(
        LawCheck.first("naturality", naturality()),
        LawCheck.first("exists-preservation", exists_preservation()),
        LawCheck.first("embedding", embedding()),
        LawCheck.first("surjectivity", surjectivity()),
    )


def _unrealized_prime_filter(C, indices, A):
    """The first prime filter of Sub(A) that no element of the indexed
    models realizes as its type, or None."""
    realized = {
        type_of(C, A, i, a)
        for i in indices
        for a in C.family.models[i].sorts[A]
    }
    for rho in prime_filters(C.sub_lattice(A)):
        if frozenset(rho) not in realized:
            return rho
    return None
