"""Scanner and recursive-descent parser for the theory file format.

Layout: declarations (sort / fun / rel) followed by sequents.  'and' binds
tighter than 'or'; a quantifier body extends as far right as possible.
Sequent contexts are optional: missing variable sorts are inferred from
their first constraining use, and a variable with no constraining use is a
sort error carrying its location.  Binders are renamed apart from the
free variables and from each other as they are read, so each sequent is
elaborated in one flat environment.

Lexical rules (docs/grammar.md, "Lexical structure"): one compiled regex
scans the whole text.  Tokens are identifiers `[A-Za-z_][A-Za-z0-9_']*`,
the keywords among them, and the punctuation `|- -> ( ) , : . = |`; '//'
starts a comment that runs to the end of its line; any other character
that is not whitespace is an error.  Lines are numbered as `str.splitlines`
splits them and columns count characters from 1.  Declared names must be
identifiers, and no sort, function or relation is declared twice.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from .syntax import (
    And,
    App,
    Eq,
    Exists,
    Falsity,
    Or,
    RelAtom,
    Sequent,
    Signature,
    SortError,
    Theory,
    Truth,
    Var,
)


class ParseError(ValueError):
    def __init__(self, message: str, span: tuple[int, int] | None = None):
        self.span = span
        if span is not None:
            message = f"{message} (line {span[0]}, column {span[1]})"
        super().__init__(message)


class Token(NamedTuple):
    kind: str  # ident / keyword / punct / eof
    text: str
    line: int
    col: int

    @property
    def span(self) -> tuple[int, int]:
        return (self.line, self.col)


KEYWORDS = {"sort", "fun", "rel", "true", "false", "and", "or", "exists"}
PUNCT = ["|-", "->", "(", ")", ",", ":", ".", "=", "|"]
_KIND = dict.fromkeys(KEYWORDS, "keyword") | dict.fromkeys(PUNCT, "punct")
# The characters at which str.splitlines ends a line; '\r\n' ends one line.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# One match per token: the blanks and comment before it, then the token, a
# line break, a stray character or the end of the text.  Every alternative
# succeeds once the blanks and comment are consumed greedily, so no match
# backtracks into them and no character is skipped.
_TOKEN = re.compile(
    rf"([^\S{_BREAKS}]*(?://[^{_BREAKS}]*)?)"  # 1: blanks and a comment
    r"(?:([A-Za-z_][A-Za-z0-9_']*|\|-|->|[(),:.=|])"  # 2: token
    rf"|(\r\n|[{_BREAKS}])"  # 3: line break
    r"|(\S)"  # 4: stray character
    r"|\Z)"
)
# Token from a (kind, text, line, col) tuple, without NamedTuple's
# Python-level __new__ (as `_raw_term` below, for the parser's terms).
_token = partial(tuple.__new__, Token)


def tokenize(text: str) -> list[Token]:
    out = []
    line, start, at = 1, 0, 0  # line number, offset it starts at, offset read
    for skip, word, brk, stray in _TOKEN.findall(text):
        at += len(skip)
        if word:
            out.append(_token((_KIND.get(word, "ident"), word, line, at - start + 1)))
            at += len(word)
        elif brk:
            at += len(brk)
            line, start = line + 1, at
        elif stray:
            raise ParseError(f"unexpected character {stray!r}", (line, at - start + 1))
    # EOF sits on the line after the last one; a text that ends in a line
    # break (or is empty) has no unterminated last line.
    if text and text[-1] not in _BREAKS:
        line += 1
    out.append(Token("eof", "", line, 1))
    return out


class RawTerm(NamedTuple):
    head: str
    args: tuple
    span: tuple[int, int]


_raw_term = partial(tuple.__new__, RawTerm)


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        # the sequent being read: names its binders may not take, the
        # binders in scope (by name as written, to the name given), each
        # binder's declared sort and span, and the free names a binder took
        self.taken: set[str] = set()
        self.renaming: dict[str, str] = {}
        self.bound: dict[str, tuple[str | None, tuple[int, int]]] = {}
        self.clashes: set[str] = set()

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.span)
        return t

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is `text` (never EOF's)."""
        if self.toks[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def name(self, what: str) -> str:
        """Read an identifier and return it; `what` says what it names when
        the next token is not one."""
        t = self.next()
        if t.kind != "ident":
            found = "end of input" if t.kind == "eof" else repr(t.text)
            raise ParseError(f"expected {what}, found {found}", t.span)
        return t.text

    # -- declarations ----------------------------------------------------

    def parse_theory(self) -> Theory:
        sorts: list[str] = []
        funcs: dict = {}
        rels: dict = {}
        declared: dict = {}  # (kind, name) -> where the name was declared
        sequents = []
        # The declarations so far, built when a sequent follows new ones.  It
        # shares the dicts: a sequent is elaborated before the next
        # declaration is read, so it sees only the declarations above it.
        sig = None
        while self.peek().kind != "eof":
            if self.accept("sort"):
                sorts.append(self._declare("sort", declared))
            elif self.accept("fun"):
                name = self._declare("function", declared)
                self.expect(":")
                args = []
                while not self.accept("->"):
                    # sorts are separated by commas: a sort name right
                    # after a sort is refused here, any other token by `name`
                    t = self.peek()
                    if args and not self.accept(",") and t.kind == "ident":
                        found = f"found {t.text!r}"
                        raise ParseError(f"expected ',' or '->', {found}", t.span)
                    args.append(self.name("a sort name"))
                funcs[name] = (tuple(args), self.name("a sort name"))
            elif self.accept("rel"):
                name = self._declare("relation", declared)
                self.expect(":")
                args = [self.name("a sort name")]
                while self.accept(","):
                    args.append(self.name("a sort name"))
                rels[name] = tuple(args)
            else:
                if sig is None:
                    sig = Signature(tuple(sorts), funcs, rels)
                sequents.append(self.parse_sequent(sig))
                continue
            sig = None
        if sig is None:
            sig = Signature(tuple(sorts), funcs, rels)
        sig.check(declared)
        return Theory(sig, tuple(sequents))

    def _declare(self, kind: str, declared: dict) -> str:
        span = self.peek().span
        name = self.name(f"a {kind} name")
        if (kind, name) in declared:
            raise ParseError(f"{kind} {name} is already declared", span)
        declared[kind, name] = span
        return name

    # -- sequents ----------------------------------------------------------

    def parse_sequent(self, sig: Signature) -> Sequent:
        """A free name is taken from the binders read after it; one that
        occurs only after a binder of its name is found when it is read,
        and the sequent is read again with it taken."""
        start = self.peek().span
        context = self._try_context()
        begin = self.pos
        avoid = {name for name, _ in context} | set(sig.funcs)
        while True:
            self.taken, self.bound, self.clashes = set(avoid), {}, set()
            lhs = self.parse_formula()
            self.expect("|-")
            rhs = self.parse_formula()
            if not self.clashes:
                return elaborate_sequent(sig, context, lhs, rhs, start, self.bound)
            avoid |= self.clashes
            self.pos = begin

    def _try_context(self):
        """`x:A, y:B |` if the sequent starts with one, else () and no
        token consumed."""
        save = self.pos
        binds = []
        while True:
            t = self.next()
            if t.kind != "ident" or not self.accept(":"):
                break
            binds.append((t.text, self.next().text))
            if self.accept("|"):
                return tuple(binds)
            if not self.accept(","):
                break
        self.pos = save
        return ()

    # -- formulas -----------------------------------------------------------

    def parse_formula(self):
        parts = [self.parse_conjunct()]
        while self.accept("or"):
            parts.append(self.parse_conjunct())
        return parts[0] if len(parts) == 1 else ("or", tuple(parts))

    def parse_conjunct(self):
        parts = [self.parse_quantified()]
        while self.accept("and"):
            parts.append(self.parse_quantified())
        return parts[0] if len(parts) == 1 else ("and", tuple(parts))

    def parse_quantified(self):
        if not self.accept("exists"):
            return self.parse_atom()
        # Each binder is renamed apart from every name taken so far in the
        # sequent, so one flat environment covers the whole sequent.  It
        # names that binder inside its body only.
        outer = self.renaming
        self.renaming = dict(outer)
        binders = []
        while True:
            t = self.next()
            if t.kind != "ident":
                raise ParseError("expected a bound variable", t.span)
            sort = self.next().text if self.accept(":") else None
            fresh = t.text
            while fresh in self.taken:
                fresh += "'"
            self.taken.add(fresh)
            self.renaming[t.text] = fresh
            self.bound[fresh] = (sort, t.span)
            binders.append((fresh, sort, t.span))
            if not self.accept(","):
                break
        self.expect(".")
        body = self.parse_formula()
        self.renaming = outer
        return ("exists", tuple(binders), body)

    def parse_atom(self):
        text = self.peek().text
        if text == "true" or text == "false":
            self.pos += 1
            return (text,)
        if text == "(":
            self.pos += 1
            phi = self.parse_formula()
            self.expect(")")
            return phi
        term = self.parse_term()
        if self.accept("="):
            return ("eq", term, self.parse_term())
        return ("atomT", term)

    def parse_term(self) -> RawTerm:
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected a term, found {t.text!r}", t.span)
        args = []
        if self.accept("("):
            if self.peek().text != ")":
                args.append(self.parse_term())
                while self.accept(","):
                    args.append(self.parse_term())
            self.expect(")")
        name = self.renaming.get(t.text)
        if name is None:
            name = t.text
            if not args:  # a free variable: no binder may take its name
                self.taken.add(name)
                if name in self.bound:
                    self.clashes.add(name)
        return _raw_term((name, tuple(args), t.span))


# -- elaboration ------------------------------------------------------------------
#
# The parser has renamed binders apart, so one flat environment covers the
# whole sequent; sorts then propagate to a fixpoint from relation and
# function argument positions and across equations.


def elaborate_sequent(sig, context, raw_lhs, raw_rhs, span, bound) -> Sequent:
    """`bound` maps each binder of the two sides to its declared sort (or
    None) and its span."""
    explicit = bool(context)
    env: dict[str, str | None] = {}
    spans: dict[str, tuple[int, int]] = {}
    order: list[str] = []
    for name, sort in context:
        if sort not in sig.sorts:
            raise SortError(f"unknown sort {sort}", span)
        if name in sig.funcs:
            raise SortError(f"variable {name} collides with a declared symbol", span)
        env[name] = sort
        order.append(name)
    for name, (sort, sp) in bound.items():
        env[name] = sort
        spans[name] = sp
    _collect_free(sig, raw_lhs, env, spans, order, explicit)
    _collect_free(sig, raw_rhs, env, spans, order, explicit)
    for _ in range(1 + len(env)):
        if not (_infer(sig, raw_lhs, env) | _infer(sig, raw_rhs, env)):
            break
    for name, sort in env.items():
        if sort is None:
            raise SortError(
                f"cannot infer a sort for variable {name}", spans.get(name, span)
            )
        if sort not in sig.sorts:
            raise SortError(f"unknown sort {sort}", spans.get(name, span))
    var = {name: Var(name, sort) for name, sort in env.items()}
    lhs = _elab_formula(sig, raw_lhs, var)
    rhs = _elab_formula(sig, raw_rhs, var)
    return Sequent(tuple([var[n] for n in order]), lhs, rhs, span)


def _collect_free(sig, raw, env, spans, order, explicit):
    kind = raw[0]
    if kind in ("true", "false"):
        return
    if kind == "eq":
        _collect_term(sig, raw[1], env, spans, order, explicit)
        _collect_term(sig, raw[2], env, spans, order, explicit)
    elif kind == "atomT":
        t = raw[1]
        if t.head not in sig.rels:
            raise SortError(f"unknown relation {t.head}", t.span)
        if len(sig.rels[t.head]) != len(t.args):
            raise SortError(
                f"relation {t.head} expects {len(sig.rels[t.head])} arguments", t.span
            )
        for a in t.args:
            _collect_term(sig, a, env, spans, order, explicit)
    elif kind in ("and", "or"):
        for p in raw[1]:
            _collect_free(sig, p, env, spans, order, explicit)
    elif kind == "exists":
        _collect_free(sig, raw[2], env, spans, order, explicit)


def _collect_term(sig, t: RawTerm, env, spans, order, explicit):
    if t.head in sig.funcs:
        if len(sig.funcs[t.head][0]) != len(t.args):
            raise SortError(
                f"function {t.head} expects {len(sig.funcs[t.head][0])} arguments",
                t.span,
            )
        for a in t.args:
            _collect_term(sig, a, env, spans, order, explicit)
        return
    if t.args:
        raise SortError(f"unknown function {t.head}", t.span)
    if t.head not in env:
        if explicit:
            raise SortError(f"variable {t.head} not in context", t.span)
        env[t.head] = None
        spans[t.head] = t.span
        order.append(t.head)


def _infer(sig, raw, env) -> bool:
    kind = raw[0]
    changed = False
    if kind == "eq":
        s = _term_sort(sig, raw[1], env) or _term_sort(sig, raw[2], env)
        if s:
            changed |= _push(sig, raw[1], s, env)
            changed |= _push(sig, raw[2], s, env)
    elif kind == "atomT":
        t = raw[1]
        for a, s in zip(t.args, sig.rels[t.head]):
            changed |= _push(sig, a, s, env)
    elif kind in ("and", "or"):
        for p in raw[1]:
            changed |= _infer(sig, p, env)
    elif kind == "exists":
        changed |= _infer(sig, raw[2], env)
    return changed


def _term_sort(sig, t: RawTerm, env):
    if t.head in sig.funcs:
        return sig.funcs[t.head][1]
    return env.get(t.head)


def _push(sig, t: RawTerm, sort, env) -> bool:
    if t.head in sig.funcs:
        args, res = sig.funcs[t.head]
        if res != sort:
            raise SortError(f"term {t.head} has sort {res}, expected {sort}", t.span)
        changed = False
        for a, s in zip(t.args, args):
            changed |= _push(sig, a, s, env)
        return changed
    if env.get(t.head) is None:
        env[t.head] = sort
        return True
    if env[t.head] != sort:
        raise SortError(
            f"variable {t.head} used at sorts {env[t.head]} and {sort}", t.span
        )
    return False


def _elab_formula(sig, raw, var):
    kind = raw[0]
    if kind == "true":
        return Truth()
    if kind == "false":
        return Falsity()
    if kind == "eq":
        lhs, rhs = _elab_term(sig, raw[1], var), _elab_term(sig, raw[2], var)
        if lhs.sort != rhs.sort:
            raise SortError(
                f"equality between sorts {lhs.sort} and {rhs.sort}", raw[1].span
            )
        return Eq(lhs, rhs)
    if kind == "atomT":
        t = raw[1]
        terms = tuple([_elab_term(sig, a, var) for a in t.args])
        for tm, s, rt in zip(terms, sig.rels[t.head], t.args):
            if tm.sort != s:
                raise SortError(
                    f"argument of {t.head} has sort {tm.sort}, expected {s}", rt.span
                )
        return RelAtom(t.head, terms)
    if kind == "and":
        return And(tuple([_elab_formula(sig, p, var) for p in raw[1]]))
    if kind == "or":
        return Or(tuple([_elab_formula(sig, p, var) for p in raw[1]]))
    if kind == "exists":
        binders = tuple(var[name] for name, _, _ in raw[1])
        return Exists(binders, _elab_formula(sig, raw[2], var))
    raise ParseError(f"malformed formula {raw!r}")


def _elab_term(sig, t: RawTerm, var):
    if t.head in sig.funcs:
        args, res = sig.funcs[t.head]
        terms = tuple([_elab_term(sig, a, var) for a in t.args])
        for tm, s in zip(terms, args):
            if tm.sort != s:
                raise SortError(
                    f"argument of {t.head} has sort {tm.sort}, expected {s}", t.span
                )
        return App(t.head, terms, res)
    return var[t.head]


def parse_theory(text: str) -> Theory:
    return Parser(tokenize(text)).parse_theory()

