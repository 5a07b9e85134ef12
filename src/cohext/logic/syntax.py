"""AST for the coherent-logic frontend: signatures, terms, formulas over
true/false/and/or/exists/=, sequents, and theories, with a canonical
pretty-printer."""

from __future__ import annotations

from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class App:
    func: str
    args: tuple
    sort: str


def print_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.func
    return f"{t.func}({', '.join(print_term(a) for a in t.args)})"


# -- formulas ------------------------------------------------------------------


@dataclass(frozen=True)
class Truth:
    pass


@dataclass(frozen=True)
class Falsity:
    pass


@dataclass(frozen=True)
class RelAtom:
    rel: str
    args: tuple


@dataclass(frozen=True)
class Eq:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class And:
    parts: tuple  # two or more


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Exists:
    binders: tuple[Var, ...]
    body: object


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
