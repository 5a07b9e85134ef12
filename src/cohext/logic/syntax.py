"""AST for the coherent-logic frontend: signatures, terms, formulas over
true/false/and/or/exists/=, sequents, and theories, with a canonical
pretty-printer.

Each term and formula is compiled, on its first evaluation, into a closure
that is kept on its node (`order.cached`): a term's `value(funcs, env)` is
its element, a formula's `holds(model, env)` its truth in a model with
`sorts`, `funcs` and `rels` tables (`chase.FinModel`), both under an
assignment `env` of elements to variable names.  A closure reads the
tables in the order of the recursive interpreter it replaced: a term's
arguments left to right before its own cell, a relation's arguments
before its row, an equation's left side before its right, the parts of a
conjunction or disjunction left to right until one decides it, and an
existential's choices in `itertools.product` order of its binders'
carriers until one holds.  So it gives the same value and lets the same
exception escape: a `KeyError` from an undefined cell or variable, or
whatever a partial table raises for a cell not yet assigned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from ..order import cached


class SortError(ValueError):
    """Ill-sorted input; carries a source location when available."""

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        self.span = span
        if span is not None:
            message = f"{message} (line {span[0]}, column {span[1]})"
        super().__init__(message)


@dataclass(frozen=True)
class Signature:
    sorts: tuple[str, ...]
    funcs: dict[str, tuple[tuple[str, ...], str]]  # name -> (arg sorts, result)
    rels: dict[str, tuple[str, ...]]  # name -> arg sorts

    def check(self, where):
        """Every symbol's sorts are declared.  `where(kind, name)` is where
        the "function" or "relation" was declared; it is asked only for the
        symbol at fault."""
        for name, (args, res) in self.funcs.items():
            for s in args + (res,):
                if s not in self.sorts:
                    raise SortError(
                        f"function {name} uses undeclared sort {s}",
                        where("function", name),
                    )
        for name, args in self.rels.items():
            for s in args:
                if s not in self.sorts:
                    raise SortError(
                        f"relation {name} uses undeclared sort {s}",
                        where("relation", name),
                    )


# -- terms ---------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str
    sort: str

    @cached
    def value(self):
        name = self.name
        return lambda funcs, env: env[name]


@dataclass(frozen=True)
class App:
    func: str
    args: tuple
    sort: str

    @cached
    def value(self):
        f, args = self.func, self.args
        if not args:
            return lambda funcs, env: funcs[f][()]
        if len(args) == 1:
            if isinstance(args[0], Var):
                x = args[0].name
                return lambda funcs, env: funcs[f][(env[x],)]
            a = args[0].value
            return lambda funcs, env: funcs[f][(a(funcs, env),)]
        values = [t.value for t in args]
        return lambda funcs, env: funcs[f][tuple([v(funcs, env) for v in values])]


def print_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.func
    return f"{t.func}({', '.join(print_term(a) for a in t.args)})"


# -- formulas ------------------------------------------------------------------


@dataclass(frozen=True)
class Truth:
    @cached
    def holds(self):
        return lambda model, env: True


@dataclass(frozen=True)
class Falsity:
    @cached
    def holds(self):
        return lambda model, env: False


@dataclass(frozen=True)
class RelAtom:
    rel: str
    args: tuple

    @cached
    def holds(self):
        r, args = self.rel, self.args
        if len(args) == 1:
            a = args[0].value
            return lambda model, env: (a(model.funcs, env),) in model.rels[r]
        if len(args) == 2:
            a, b = args[0].value, args[1].value

            def holds(model, env):
                funcs = model.funcs
                return (a(funcs, env), b(funcs, env)) in model.rels[r]

            return holds
        values = [t.value for t in args]

        def holds(model, env):
            funcs = model.funcs
            return tuple([v(funcs, env) for v in values]) in model.rels[r]

        return holds


@dataclass(frozen=True)
class Eq:
    lhs: object
    rhs: object

    @cached
    def holds(self):
        a, b = self.lhs.value, self.rhs.value

        def holds(model, env):
            funcs = model.funcs
            return a(funcs, env) == b(funcs, env)

        return holds


@dataclass(frozen=True)
class And:
    parts: tuple  # two or more

    @cached
    def holds(self):
        parts = [p.holds for p in self.parts]
        if len(parts) == 2:
            p, q = parts
            return lambda model, env: p(model, env) and q(model, env)

        def holds(model, env):
            for p in parts:
                if not p(model, env):
                    return False
            return True

        return holds


@dataclass(frozen=True)
class Or:
    parts: tuple

    @cached
    def holds(self):
        parts = [p.holds for p in self.parts]
        if len(parts) == 2:
            p, q = parts
            return lambda model, env: p(model, env) or q(model, env)

        def holds(model, env):
            for p in parts:
                if p(model, env):
                    return True
            return False

        return holds


@dataclass(frozen=True)
class Exists:
    binders: tuple[Var, ...]
    body: object

    @cached
    def holds(self):
        body = self.body.holds
        if len(self.binders) == 1:
            (b,) = self.binders
            name, sort = b.name, b.sort

            def holds(model, env):
                domain = model.sorts[sort]
                env = dict(env)
                for x in domain:
                    env[name] = x
                    if body(model, env):
                        return True
                return False

            return holds
        names = [b.name for b in self.binders]
        sorts = [b.sort for b in self.binders]

        def holds(model, env):
            domains = [model.sorts[s] for s in sorts]
            env = dict(env)
            for choice in product(*domains):
                env.update(zip(names, choice))
                if body(model, env):
                    return True
            return False

        return holds


def print_formula(phi) -> str:
    return _print_or(phi)


def _print_or(phi) -> str:
    if isinstance(phi, Or):
        parts = [
            _print_and(p) if i == len(phi.parts) - 1 else _print_and(p, guard=True)
            for i, p in enumerate(phi.parts)
        ]
        return " or ".join(parts)
    return _print_and(phi)


def _print_and(phi, guard: bool = False) -> str:
    # guard: the formula continues to the right, so a trailing quantifier
    # must be parenthesized to keep its scope
    if isinstance(phi, And):
        parts = []
        for i, p in enumerate(phi.parts):
            last = i == len(phi.parts) - 1
            parts.append(_print_atom(p, guard=guard or not last))
        return " and ".join(parts)
    return _print_atom(phi, guard=guard)


def _print_atom(phi, guard: bool = False) -> str:
    if isinstance(phi, Truth):
        return "true"
    if isinstance(phi, Falsity):
        return "false"
    if isinstance(phi, RelAtom):
        if not phi.args:
            return phi.rel
        return f"{phi.rel}({', '.join(print_term(t) for t in phi.args)})"
    if isinstance(phi, Eq):
        return f"{print_term(phi.lhs)} = {print_term(phi.rhs)}"
    if isinstance(phi, Exists):
        binders = ", ".join(f"{b.name}:{b.sort}" for b in phi.binders)
        body = print_formula(phi.body)
        s = f"exists {binders}. {body}"
        return f"({s})" if guard else s
    if isinstance(phi, (And, Or)):
        return f"({print_formula(phi)})"
    raise TypeError(phi)


# -- sequents and theories ------------------------------------------------------


@dataclass(frozen=True)
class Sequent:
    context: tuple[Var, ...]
    lhs: object
    rhs: object
    span: tuple[int, int] | None = field(default=None, compare=False)

    def __str__(self):
        ctx = ", ".join(f"{v.name}:{v.sort}" for v in self.context)
        body = f"{print_formula(self.lhs)} |- {print_formula(self.rhs)}"
        return f"{ctx} | {body}" if ctx else body


@dataclass(frozen=True)
class Theory:
    signature: Signature
    sequents: tuple[Sequent, ...]


def print_theory(T: Theory) -> str:
    lines = []
    for s in T.signature.sorts:
        lines.append(f"sort {s}")
    for name, (args, res) in sorted(T.signature.funcs.items()):
        arrow = f"{', '.join(args)} -> {res}" if args else f"-> {res}"
        lines.append(f"fun {name} : {arrow}")
    for name, args in sorted(T.signature.rels.items()):
        lines.append(f"rel {name} : {', '.join(args)}")
    if lines and T.sequents:
        lines.append("")
    for seq in T.sequents:
        lines.append(str(seq))
    return "\n".join(lines) + "\n"
