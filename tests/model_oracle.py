"""Model enumeration and the reach relation as they were before isomorphism
classes were found by colour refinement and search, and before each pair's
reach was seeded with composites: `canonical_key`, the least encoding over
the permutations of each class of elements with equal incidences;
`enumerate_models_by_key`, which keeps the first model of each key; and
`family_reach_oracle`, the witness search over node-consistent domains with
every pinned search it needs, each model's row tables built once.  The new
code must give the same model lists, with their names and order, and the
same reach tables."""

from itertools import product

from cohext.logic.chase import FinModel
from cohext.logic.models import _models
from cohext.order import assignments, canonical_form


def canonical_key(M: FinModel):
    """Isomorphism-invariant key: the carrier sizes, the symbols, and
    the least encoding of the function graphs and then the relation rows
    by each element's position within its sort, over the orders that
    permute only elements of one sort with the same (symbol, position)
    incidences in function graph and relation rows
    (`order.canonical_form`)."""
    sort_of = {x: s for s, xs in M.sorts.items() for x in xs}
    funcs, rels = sorted(M.funcs), sorted(M.rels)
    tables = [[k + (v,) for k, v in M.funcs[f].items()] for f in funcs]
    tables += [M.rels[r] for r in rels]
    incidences = {x: [] for x in sort_of}
    for name, rows in zip(funcs + rels, tables):
        for row in rows:
            for i, x in enumerate(row):
                incidences[x].append((name, i))
    # the signature leads with the sort, so every order lists the sorts
    # in sorted order and gives the same positions within them
    positions = [j for s in sorted(M.sorts) for j in range(len(M.sorts[s]))]

    def encode(order):
        pos = dict(zip(order, positions)).__getitem__
        return tuple(
            tuple(sorted([tuple(map(pos, row)) for row in rows])) for rows in tables
        )

    signature = lambda x: (sort_of[x], tuple(sorted(incidences[x])))
    sizes = tuple(sorted((s, len(xs)) for s, xs in M.sorts.items()))
    return sizes, tuple(funcs), tuple(rels), canonical_form(sort_of, signature, encode)


def enumerate_models_by_key(T, max_size: int, min_size: int = 1) -> list[FinModel]:
    """`enumerate_models(T, max_size, min_size)` with the repeats that the
    lex-leader cut misses removed by `canonical_key`."""
    sig = T.signature
    out, seen = [], set()
    for vec in product(range(min_size, max_size + 1), repeat=len(sig.sorts)):
        sorts = {s: tuple(f"{s.lower()}{i}" for i in range(n)) for s, n in zip(sig.sorts, vec)}
        for m in _models(T, sorts, lex_leader=True):
            key = canonical_key(m)
            if key not in seen:
                seen.add(key)
                out.append(m)
    return out


class RowTables:
    """One model's keys, multi-key rows listed under each of their keys,
    rows with no cell, loops (key, arity, table index) and row sets."""

    def __init__(self, M: FinModel):
        sig = M.theory.signature
        tables = [
            (args + (res,), {k + (v,) for k, v in M.funcs[f].items()})
            for f, (args, res) in sig.funcs.items()
        ] + [(args, M.rels[r]) for r, args in sig.rels.items()]
        self.model = M
        self.keys = [(s, a) for s in sig.sorts for a in M.sorts[s]]
        self.sets = [m_rows for _, m_rows in tables]
        self.rows = {k: [] for k in self.keys}
        self.ground, self.loops = [], []
        for t, (sorts, m_rows) in enumerate(tables):
            for row in m_rows:
                cells = tuple(zip(sorts, row))
                distinct = set(cells)
                if not cells:
                    self.ground.append((row, t))
                elif len(distinct) == 1:
                    self.loops.append((cells[0], len(cells), t))
                else:
                    for cell in distinct:
                        self.rows[cell].append((cells, t))


def reach_by_witnesses(m: RowTables, n: RowTables) -> dict:
    """One unpinned search, then a pinned search for each pair (a, b) of a
    node-consistent domain that no homomorphism found so far covers."""
    M, N = m.model, n.model
    sig = M.theory.signature
    reached = {k: set() for k in m.keys}
    domain = {k: N.sorts[k[0]] for k in m.keys}
    for k, arity, t in m.loops:
        domain[k] = [b for b in domain[k] if (b,) * arity in n.sets[t]]
    rows, sets = m.rows, n.sets

    def consistent(key, acc):
        for cells, t in rows[key]:
            image = tuple(map(acc.get, cells))  # None for an unassigned cell
            if image not in sets[t] and None not in image:
                return False
        return True

    def first_hom(order, values) -> bool:
        for h in assignments(order, values.__getitem__, consistent):
            for k, b in h.items():
                reached[k].add(b)
            return True
        return False

    hom_exists = all(row in sets[t] for row, t in m.ground) and all(domain.values())
    if hom_exists and not any(rows.values()):
        reached = domain
    elif hom_exists and first_hom(m.keys, domain):
        for pin in m.keys:
            rest = [k for k in m.keys if k != pin]
            for b in domain[pin]:
                if b not in reached[pin]:
                    values = {
                        k: sorted(domain[k], key=reached[k].__contains__)
                        for k in rest
                    }
                    first_hom([pin, *rest], {**values, pin: (b,)})
    return {s: {a: frozenset(reached[s, a]) for a in M.sorts[s]} for s in sig.sorts}


def family_reach_oracle(models) -> dict:
    """The reach of every ordered pair of the models, by `reach_by_witnesses`."""
    tables = [RowTables(M) for M in models]
    return {
        (i, j): reach_by_witnesses(m, n)
        for i, m in enumerate(tables)
        for j, n in enumerate(tables)
    }
