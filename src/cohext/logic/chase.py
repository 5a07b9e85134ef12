"""Forward-chaining model construction for coherent theories.

States carry per-sort carriers, partial function tables, and relation
tables.  Each round scans the sequents in order and repairs the first
violation per sequent: conjunctions split, disjunctions branch (in order,
with backtracking), existentials try known elements before a fresh one,
equations merge elements by congruence closure.  Functions are totalized
by implicit repairs so a successful run returns an honest finite model.
Everything is deterministic; the seed only rotates the branch order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .syntax import (
    And,
    App,
    Eq,
    Exists,
    Falsity,
    Or,
    RelAtom,
    Sequent,
    Theory,
    Truth,
    Var,
)


@dataclass(frozen=True)
class FinModel:
    """A finite structure for a theory's signature: the carrier of each
    sort, each function's table from argument tuples to elements and each
    relation's set of rows.  The chase reads a view of its own partial
    tables through it, and model enumeration a view of its partial
    assignment.  Terms and formulas are evaluated by the closures their
    nodes compile once (`syntax`), which read `sorts`, `funcs` and `rels`."""

    theory: Theory
    sorts: dict[str, tuple[str, ...]]
    funcs: dict[str, dict[tuple, str]]
    rels: dict[str, frozenset]

    def eval_term(self, t, env: dict) -> str | None:
        return t.value(self.funcs, env)

    def satisfies_formula(self, phi, env: dict) -> bool | None:
        """phi's truth value under env, by its compiled closure (`syntax`):
        None when the cells defined so far do not decide it."""
        return phi.holds(self, env)

    def violation(self) -> tuple[Sequent, dict] | None:
        """The first instance, a sequent with an assignment of its context,
        whose lhs is true and whose rhs is not, in sequent order and
        `itertools.product` order of the context's carriers; None if there
        is none.  On total tables the rhs is then false."""
        for seq in self.theory.sequents:
            lhs, rhs = seq.lhs.holds, seq.rhs.holds
            for choice in iproduct(*[self.sorts[v.sort] for v in seq.context]):
                env = {v.name: x for v, x in zip(seq.context, choice)}
                if lhs(self, env) is True and rhs(self, env) is not True:
                    return seq, env
        return None

    def satisfies_theory(self) -> bool:
        return self.violation() is None

    def definable(self, phi, var: Var) -> frozenset:
        """The subset of the carrier of var's sort defined by a formula
        with var as its only free variable."""
        return frozenset(
            x
            for x in self.sorts[var.sort]
            if self.satisfies_formula(phi, {var.name: x})
        )


@dataclass
class _State:
    sorts: dict[str, list[str]]
    funcs: dict[str, dict[tuple, str]]
    rels: dict[str, set]
    fresh: int = 0

    def copy(self) -> _State:
        return _State(
            {s: list(xs) for s, xs in self.sorts.items()},
            {f: dict(t) for f, t in self.funcs.items()},
            {r: set(t) for r, t in self.rels.items()},
            self.fresh,
        )


@dataclass(frozen=True)
class ChaseResult:
    status: str  # "model" | "refuted" | "exhausted"
    model: FinModel | None
    rounds: int
    note: str | None = None


class _Exhausted(Exception):
    pass


def chase(
    T: Theory,
    max_fresh: int = 8,
    max_rounds: int = 64,
    seed: int = 0,
    start: FinModel | None = None,
) -> ChaseResult:
    sig = T.signature
    state = _State(
        {s: [] for s in sig.sorts},
        {f: {} for f in sig.funcs},
        {r: set() for r in sig.rels},
    )
    if start is not None:
        state.sorts = {s: list(xs) for s, xs in start.sorts.items()}
        state.funcs = {f: dict(t) for f, t in start.funcs.items()}
        state.rels = {r: set(t) for r, t in start.rels.items()}
    # constants must denote; this may seed the carriers
    try:
        for f, (args, res) in sorted(sig.funcs.items()):
            if args == () and () not in state.funcs[f]:
                state.funcs[f][()] = _fresh(state, res, max_fresh)
    except _Exhausted:
        return ChaseResult("exhausted", None, 0, "constant budget")
    result = _search(T, state, max_fresh, max_rounds, seed)
    return result


def _fresh(state: _State, sort: str, max_fresh: int) -> str:
    if state.fresh >= max_fresh:
        raise _Exhausted()
    name = f"e{state.fresh}"
    state.fresh += 1
    state.sorts[sort].append(name)
    return name


def _search(T, state, max_fresh, max_rounds, seed) -> ChaseResult:
    """Depth-first over branch choices; within a branch, repair rounds.
    The theory is refuted only when no budget cut a branch short."""
    stack = [(state, 0)]
    best_partial = state
    cuts = set()  # names of the budgets that cut a branch
    while stack:
        st, rounds = stack.pop()
        try:
            outcome = _run_rounds(T, st, max_fresh, max_rounds - rounds, seed, cuts)
        except _Exhausted:
            best_partial = st
            cuts.add("round")
            continue
        if outcome[0] == "model":
            return ChaseResult("model", outcome[1], rounds + outcome[2])
        if outcome[0] == "stuck":
            best_partial = st
            continue
        _, alternatives, used = outcome
        stack.extend((alt, rounds + used) for alt in reversed(alternatives))
    if cuts:
        return ChaseResult("exhausted", _to_model(T, best_partial), max_rounds,
                           " and ".join(sorted(cuts)) + " budget exhausted")
    return ChaseResult("refuted", None, max_rounds, "all branches failed")


def _run_rounds(T, state, max_fresh, rounds_left, seed, cuts):
    """Repair rounds on one branch: each repairs the first instance whose
    lhs is true and whose rhs is not, false or not yet decided by the
    partial tables.  A state with no such instance is returned as a model
    unchecked: every function is total on the same tables, so each formula
    reads true or false there, and no instance is violated."""
    used = 0
    while used < rounds_left:
        violation = _find_violation(T, state)
        if violation is None:
            return ("model", _to_model(T, state), used)
        seq, env = violation
        alternatives = _repairs(T, seq.rhs, env, state, max_fresh, seed, cuts)
        used += 1
        if not alternatives:
            return ("stuck", None, used)
        if len(alternatives) == 1:
            state = alternatives[0]
            continue
        return ("branch", alternatives, used)
    raise _Exhausted()


def _find_violation(T, state):
    # a view of the state's own tables, read only while no repair runs
    found = FinModel(T, state.sorts, state.funcs, state.rels).violation()
    if found is not None:
        return found
    # implicit totality of function symbols
    for f, (args, res) in sorted(T.signature.funcs.items()):
        for tup in iproduct(*[state.sorts[s] for s in args]):
            if tup not in state.funcs[f]:
                return _totality_sequent(f, args, res), dict(
                    zip([f"x{i}" for i in range(len(args))], tup)
                )
    return None


def _totality_sequent(f, args, res) -> Sequent:
    xs = tuple(Var(f"x{i}", s) for i, s in enumerate(args))
    y = Var("y*", res)
    return Sequent(xs, Truth(), Exists((y,), Eq(App(f, xs, res), y)))


def _repairs(T, phi, env, state, max_fresh, seed, cuts) -> list[_State]:
    """All one-step ways to make phi hold, each as a successor state; a way
    that needs more than max_fresh elements is dropped and noted in cuts."""
    if isinstance(phi, Truth):
        return [state]
    if isinstance(phi, Falsity):
        return []
    if isinstance(phi, RelAtom):
        st = state.copy()
        try:
            args = tuple(_eval_defining(st, t, env, max_fresh) for t in phi.args)
        except _Exhausted:
            cuts.add("fresh-element")
            return []
        st.rels[phi.rel].add(args)
        return [st]
    if isinstance(phi, Eq):
        st = state.copy()
        try:
            a = _eval_defining(st, phi.lhs, env, max_fresh)
            b = _eval_defining(st, phi.rhs, env, max_fresh)
        except _Exhausted:
            cuts.add("fresh-element")
            return []
        _merge(st, a, b)
        return [st]
    if isinstance(phi, And):
        states = [state]
        for part in phi.parts:
            nxt = []
            for st in states:
                env2 = dict(env)
                nxt.extend(_repairs(T, part, env2, st, max_fresh, seed, cuts))
            states = nxt
        return states
    if isinstance(phi, Or):
        out = []
        parts = list(phi.parts)
        if seed:
            k = seed % len(parts)
            parts = parts[k:] + parts[:k]
        for part in parts:
            out.extend(_repairs(T, part, env, state, max_fresh, seed, cuts))
        return out
    if isinstance(phi, Exists):
        out = []
        choices = [state.sorts[b.sort] + [None] for b in phi.binders]
        for combo in iproduct(*choices):
            st = state.copy()
            env2 = dict(env)
            try:
                for b, v in zip(phi.binders, combo):
                    env2[b.name] = (
                        v if v is not None else _fresh(st, b.sort, max_fresh)
                    )
            except _Exhausted:
                cuts.add("fresh-element")
                continue
            out.extend(_repairs(T, phi.body, env2, st, max_fresh, seed, cuts))
        return out
    raise TypeError(phi)


def _eval_defining(state: _State, t, env, max_fresh) -> str:
    if isinstance(t, Var):
        return env[t.name]
    args = tuple(_eval_defining(state, a, env, max_fresh) for a in t.args)
    table = state.funcs[t.func]
    if args not in table:
        table[args] = _fresh(state, t.sort, max_fresh)
    return table[args]


def _merge(state: _State, a: str, b: str):
    """Identify a and b and close under the induced function collisions."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if x == y:
            continue
        keep, drop = sorted([x, y])
        for xs in state.sorts.values():
            if drop in xs:
                xs.remove(drop)
        for r in state.rels:
            state.rels[r] = {
                tuple(keep if v == drop else v for v in tup)
                for tup in state.rels[r]
            }
        for f, table in state.funcs.items():
            new = {}
            for args, v in table.items():
                args2 = tuple(keep if u == drop else u for u in args)
                v2 = keep if v == drop else v
                if args2 in new and new[args2] != v2:
                    pending.append((new[args2], v2))
                else:
                    new[args2] = v2
            state.funcs[f] = new


def _to_model(T, state: _State) -> FinModel:
    return FinModel(
        T,
        {s: tuple(xs) for s, xs in state.sorts.items()},
        {f: dict(t) for f, t in state.funcs.items()},
        {r: frozenset(t) for r, t in state.rels.items()},
    )
