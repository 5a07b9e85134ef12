"""Recursive interpreters kept as test oracles for the closures compiled
on each node (`cohext.logic.syntax`): `isinstance` tests on every node.

The two-valued interpreter is the one the closures replaced: a generator
over the parts of each conjunction, disjunction and existential, reading
the `funcs` and `rels` tables of a total `FinModel`.  The strong Kleene
interpreter reads a partial model, as the closures do, through its `sorts`,
its function tables (`funcs[f].get(args)`, None when undefined) and its
relation tables (`rels[r].__contains__(args)`, None when unknown), so it
runs over chase states and model enumeration's partial assignments alike.  It
evaluates every part of a formula and then combines the values by the
truth tables, with no short cut."""

from itertools import product

from cohext.logic.syntax import And, Eq, Exists, Falsity, Or, RelAtom, Truth, Var


def eval_term_oracle(M, t, env: dict) -> str:
    if isinstance(t, Var):
        return env[t.name]
    return M.funcs[t.func][tuple(eval_term_oracle(M, a, env) for a in t.args)]


def satisfies_formula_oracle(M, phi, env: dict) -> bool:
    if isinstance(phi, Truth):
        return True
    if isinstance(phi, Falsity):
        return False
    if isinstance(phi, RelAtom):
        args = tuple(eval_term_oracle(M, t, env) for t in phi.args)
        return args in M.rels[phi.rel]
    if isinstance(phi, Eq):
        return eval_term_oracle(M, phi.lhs, env) == eval_term_oracle(M, phi.rhs, env)
    if isinstance(phi, And):
        return all(satisfies_formula_oracle(M, p, env) for p in phi.parts)
    if isinstance(phi, Or):
        return any(satisfies_formula_oracle(M, p, env) for p in phi.parts)
    if isinstance(phi, Exists):
        domains = [M.sorts[b.sort] for b in phi.binders]
        return any(
            satisfies_formula_oracle(
                M, phi.body, {**env, **{b.name: v for b, v in zip(phi.binders, choice)}}
            )
            for choice in product(*domains)
        )
    raise TypeError(phi)


def satisfies_theory_oracle(M) -> bool:
    for seq in M.theory.sequents:
        for choice in product(*[M.sorts[v.sort] for v in seq.context]):
            env = {v.name: x for v, x in zip(seq.context, choice)}
            if satisfies_formula_oracle(M, seq.lhs, env) and not satisfies_formula_oracle(
                M, seq.rhs, env
            ):
                return False
    return True


def kleene_term_oracle(M, t, env: dict):
    """t's element, or None when it reads an undefined cell."""
    if isinstance(t, Var):
        return env[t.name]
    args = tuple(kleene_term_oracle(M, a, env) for a in t.args)
    return None if None in args else M.funcs[t.func].get(args)


def kleene_oracle(M, phi, env: dict):
    """phi's strong Kleene value: True, False, or None for unknown."""
    if isinstance(phi, (Truth, Falsity)):
        return isinstance(phi, Truth)
    if isinstance(phi, RelAtom):
        args = tuple(kleene_term_oracle(M, t, env) for t in phi.args)
        return None if None in args else M.rels[phi.rel].__contains__(args)
    if isinstance(phi, Eq):
        a, b = kleene_term_oracle(M, phi.lhs, env), kleene_term_oracle(M, phi.rhs, env)
        return None if a is None or b is None else a == b
    if isinstance(phi, Exists):
        domains = [M.sorts[b.sort] for b in phi.binders]
        envs = ({**env, **{b.name: v for b, v in zip(phi.binders, choice)}}
                for choice in product(*domains))
        return _junction([kleene_oracle(M, phi.body, e) for e in envs], True)
    if isinstance(phi, (And, Or)):
        return _junction([kleene_oracle(M, p, env) for p in phi.parts], isinstance(phi, Or))
    raise TypeError(phi)


def _junction(values, decisive: bool):
    """A disjunction's value (decisive True) or a conjunction's (False)."""
    if any(v is decisive for v in values):
        return decisive
    return None if any(v is None for v in values) else not decisive


def violation_oracle(M):
    """`FinModel.violation` by the Kleene interpreter: the first instance
    whose lhs is true and whose rhs is not."""
    for seq in M.theory.sequents:
        for choice in product(*[M.sorts[v.sort] for v in seq.context]):
            env = {v.name: x for v, x in zip(seq.context, choice)}
            lhs, rhs = kleene_oracle(M, seq.lhs, env), kleene_oracle(M, seq.rhs, env)
            if lhs is True and rhs is not True:
                return seq, env
    return None
