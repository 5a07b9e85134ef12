"""The recursive interpreter that the closures compiled on each node
(`cohext.logic.syntax`) replaced, kept as a test oracle: `isinstance`
tests on every node and a generator over the parts of each conjunction,
disjunction and existential.  It reads the model's `sorts`, `funcs` and
`rels` tables as `FinModel` keeps them, so it runs over chase states and
over the partial assignments of model enumeration alike."""

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
