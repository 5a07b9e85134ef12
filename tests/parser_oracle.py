"""The parser that `cohext.logic.parser` replaced, kept as a test oracle.

It scans each line with a match that finds where its first stray character
would be, reads tokens through `accept` and `next`, and elaborates each
sequent in four walks: `_collect_free`, the `_infer` fixpoint until a pass
changes no sort, and `_elab_formula` and `_elab_term`, which build the AST
and check the sorts again.  It raises the module's own `ParseError` and
`SortError`, so a differential test compares exception classes as well as
messages and spans.  Its errors at the end of the input say `found end of
input`, as the parser's do.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import islice
from typing import NamedTuple

from cohext.logic.parser import ParseError
from cohext.logic.syntax import (
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


KEYWORDS = {"sort", "fun", "rel", "true", "false", "and", "or", "exists"}
PUNCT = ["|-", "->", "(", ")", ",", ":", ".", "=", "|"]
# A token's kind by its text; EOF's text is "", and any other text not
# listed is an identifier.
_KIND = dict.fromkeys(KEYWORDS, "keyword") | dict.fromkeys(PUNCT, "punct") | {"": "eof"}
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\|-|->|[(),:.=|]")
# The longest run of tokens and blanks that starts a line: nothing follows
# the repetition, so a match never gives back a token it read, and where it
# stops is where a left-to-right scan meets its first stray character.
_CLEAN = re.compile(rf"(?:{_TOKEN.pattern}|\s)*").match


class Scan(NamedTuple):
    """A text's tokens, read one line at a time.  Token i has text
    `texts[i]` and is the `place[i]`-th token of line `line_of[i]`; the last
    token is EOF, with text "", on the line after the last one.  Columns are
    found only when `locate` asks for one."""

    lines: list[str]  # as str.splitlines splits the text, comments kept
    texts: list[str]
    line_of: list[int]
    place: list[int]

    def locate(self, i: int) -> tuple[int, int]:
        """Token i's (line, column), found by scanning its line again.  No
        token contains '/', so the tokens before a line's comment are found
        the same with the comment kept."""
        ln = self.line_of[i]
        if ln > len(self.lines):  # EOF
            return (ln, 1)
        line = self.lines[ln - 1]
        return (ln, next(islice(_TOKEN.finditer(line), self.place[i], None)).start() + 1)


def scan(text: str) -> Scan:
    """The tokens of `text`, or a ParseError at its first stray character.
    A line's tokens and blanks are checked by one match and its tokens
    listed by one `findall`, before and without its comment."""
    lines = text.splitlines()
    texts: list[str] = []
    line_of: list[int] = []
    place: list[int] = []
    for ln, line in enumerate(lines, start=1):
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut]
        end = _CLEAN(line).end()
        if end < len(line):
            raise ParseError(f"unexpected character {line[end]!r}", (ln, end + 1))
        words = _TOKEN.findall(line)
        texts += words
        line_of += [ln] * len(words)
        place += range(len(words))
    texts.append("")
    line_of.append(len(lines) + 1)
    place.append(0)
    return Scan(lines, texts, line_of, place)


class RawTerm(NamedTuple):
    head: str
    args: tuple
    at: int  # the index of its head token


_raw_term = partial(tuple.__new__, RawTerm)


def _found(text: str) -> str:
    return repr(text) if text else "end of input"


class Parser:
    """Reads token texts; a token is named by its index in the scan, and
    its (line, column) is found only for an error or a sequent's span."""

    def __init__(self, tokens: Scan):
        self.locate = tokens.locate
        self.texts = tokens.texts
        self.eof = len(tokens.texts) - 1
        self.pos = 0
        # the sequent being read: names its binders may not take, the
        # binders in scope (by name as written, to the name given), each
        # binder's declared sort and token, the free names a binder took,
        # and the head token of each binder applied to arguments, to its
        # name as written
        self.taken: set[str] = set()
        self.renaming: dict[str, str] = {}
        self.bound: dict[str, tuple[str | None, int]] = {}
        self.clashes: set[str] = set()
        self.applied: dict[int, str] = {}

    def next(self) -> int:
        """The next token's index; it is consumed unless it is EOF."""
        i = self.pos
        if i < self.eof:
            self.pos = i + 1
        return i

    def expect(self, text: str):
        i = self.next()
        if self.texts[i] != text:
            raise ParseError(f"expected {text!r}, found {_found(self.texts[i])}", self.locate(i))

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is `text` (never EOF's)."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def name(self, what: str) -> str:
        """Read an identifier and return it; `what` says what it names when
        the next token is not one."""
        i = self.next()
        t = self.texts[i]
        if t in _KIND:
            raise ParseError(f"expected {what}, found {_found(t)}", self.locate(i))
        return t

    # -- declarations ----------------------------------------------------

    def parse_theory(self) -> Theory:
        sorts: list[str] = []
        funcs: dict = {}
        rels: dict = {}
        declared: dict = {}  # (kind, name) -> the token of the name declared
        sequents = []
        # The declarations so far, built when a sequent follows new ones.  It
        # shares the dicts: a sequent is elaborated before the next
        # declaration is read, so it sees only the declarations above it.
        sig = None
        while self.pos < self.eof:
            if self.accept("sort"):
                sorts.append(self._declare("sort", declared))
            elif self.accept("fun"):
                name = self._declare("function", declared)
                self.expect(":")
                args = []
                while not self.accept("->"):
                    # sorts are separated by commas: a sort name right
                    # after a sort is refused here, any other token by `name`
                    at = self.pos
                    t = self.texts[at]
                    if args and not self.accept(",") and t not in _KIND:
                        found = f"found {t!r}"
                        raise ParseError(f"expected ',' or '->', {found}", self.locate(at))
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
        sig.check(lambda kind, name: self.locate(declared[kind, name]))
        return Theory(sig, tuple(sequents))

    def _declare(self, kind: str, declared: dict) -> str:
        at = self.pos
        name = self.name(f"a {kind} name")
        if (kind, name) in declared:
            raise ParseError(f"{kind} {name} is already declared", self.locate(at))
        declared[kind, name] = at
        return name

    # -- sequents ----------------------------------------------------------

    def parse_sequent(self, sig: Signature) -> Sequent:
        """A free name is taken from the binders read after it; one that
        occurs only after a binder of its name is found when it is read,
        and the sequent is read again with it taken."""
        start = self.pos
        context = self._try_context()
        begin = self.pos
        avoid = {name for name, _ in context} | set(sig.funcs)
        while True:
            self.taken, self.bound, self.clashes, self.applied = set(avoid), {}, set(), {}
            lhs = self.parse_formula()
            self.expect("|-")
            rhs = self.parse_formula()
            if not self.clashes:
                try:
                    return elaborate_sequent(
                        sig, context, lhs, rhs, self.locate(start), self.bound, self.applied
                    )
                except _Misplaced as e:
                    message, at = e.args
                    raise SortError(message, self.locate(at)) from None
            avoid |= self.clashes
            self.pos = begin

    def _try_context(self):
        """`x:A, y:B |` if the sequent starts with one, else () and no
        token consumed."""
        save = self.pos
        binds = []
        while True:
            t = self.texts[self.next()]
            if t in _KIND or not self.accept(":"):
                break
            binds.append((t, self.texts[self.next()]))
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
            i = self.next()
            t = self.texts[i]
            if t in _KIND:
                raise ParseError(f"expected a bound variable, found {_found(t)}", self.locate(i))
            sort = self.texts[self.next()] if self.accept(":") else None
            fresh = t
            while fresh in self.taken:
                fresh += "'"
            self.taken.add(fresh)
            self.renaming[t] = fresh
            self.bound[fresh] = (sort, i)
            binders.append((fresh, sort, i))
            if not self.accept(","):
                break
        self.expect(".")
        body = self.parse_formula()
        self.renaming = outer
        return ("exists", tuple(binders), body)

    def parse_atom(self):
        text = self.texts[self.pos]
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
        i = self.next()
        t = self.texts[i]
        if t in _KIND:
            raise ParseError(f"expected a term, found {_found(t)}", self.locate(i))
        args = []
        if self.accept("("):
            if self.texts[self.pos] != ")":
                args.append(self.parse_term())
                while self.accept(","):
                    args.append(self.parse_term())
            self.expect(")")
        name = self.renaming.get(t)
        if name is None:
            name = t
            if not args:  # a free variable: no binder may take its name
                self.taken.add(name)
                if name in self.bound:
                    self.clashes.add(name)
        elif args:
            self.applied[i] = t
        return _raw_term((name, tuple(args), i))


# -- elaboration ------------------------------------------------------------------
#
# The parser has renamed binders apart, so one flat environment covers the
# whole sequent; sorts then propagate to a fixpoint from relation and
# function argument positions and across equations.  A term names its
# head token by index; an error raises `_Misplaced` with that index, and
# the parser, which alone can locate the token, raises it as a SortError.


class _Misplaced(Exception):
    """A sort error's message and the index of the token it is at."""


def elaborate_sequent(sig, context, raw_lhs, raw_rhs, span, bound, applied) -> Sequent:
    """`span` is where the sequent starts; `bound` maps each binder of the
    two sides to its declared sort (or None) and its token, and `applied`
    the head token of each binder applied to arguments to its name as
    written."""
    explicit = bool(context)
    env: dict[str, str | None] = {}
    tokens: dict[str, int] = {}
    order: list[str] = []
    for name, sort in context:
        if sort not in sig.sorts:
            raise SortError(f"unknown sort {sort}", span)
        if name in sig.funcs:
            raise SortError(f"variable {name} collides with a declared symbol", span)
        if name in env:
            raise SortError(f"variable {name} is repeated in the context", span)
        env[name] = sort
        order.append(name)
    for name, (sort, at) in bound.items():
        env[name] = sort
        tokens[name] = at
    _collect_free(sig, raw_lhs, env, tokens, order, explicit, applied)
    _collect_free(sig, raw_rhs, env, tokens, order, explicit, applied)
    for _ in range(1 + len(env)):
        if not (_infer(sig, raw_lhs, env) | _infer(sig, raw_rhs, env)):
            break
    for name, sort in env.items():
        # a context variable's sort was checked above; every other name has
        # a token
        if sort is None:
            raise _Misplaced(f"cannot infer a sort for variable {name}", tokens[name])
        if sort not in sig.sorts:
            raise _Misplaced(f"unknown sort {sort}", tokens[name])
    var = {name: Var(name, sort) for name, sort in env.items()}
    lhs = _elab_formula(sig, raw_lhs, var)
    rhs = _elab_formula(sig, raw_rhs, var)
    return Sequent(tuple([var[n] for n in order]), lhs, rhs, span)


def _collect_free(sig, raw, env, tokens, order, explicit, applied):
    kind = raw[0]
    if kind in ("true", "false"):
        return
    if kind == "eq":
        _collect_term(sig, raw[1], env, tokens, order, explicit, applied)
        _collect_term(sig, raw[2], env, tokens, order, explicit, applied)
    elif kind == "atomT":
        t = raw[1]
        if t.head not in sig.rels:
            raise _Misplaced(f"unknown relation {t.head}", t.at)
        if len(sig.rels[t.head]) != len(t.args):
            raise _Misplaced(
                f"relation {t.head} expects {len(sig.rels[t.head])} arguments", t.at
            )
        for a in t.args:
            _collect_term(sig, a, env, tokens, order, explicit, applied)
    elif kind in ("and", "or"):
        for p in raw[1]:
            _collect_free(sig, p, env, tokens, order, explicit, applied)
    elif kind == "exists":
        _collect_free(sig, raw[2], env, tokens, order, explicit, applied)


def _collect_term(sig, t: RawTerm, env, tokens, order, explicit, applied):
    if t.head in sig.funcs:
        if len(sig.funcs[t.head][0]) != len(t.args):
            raise _Misplaced(
                f"function {t.head} expects {len(sig.funcs[t.head][0])} arguments",
                t.at,
            )
        for a in t.args:
            _collect_term(sig, a, env, tokens, order, explicit, applied)
        return
    if t.args:
        if t.at in applied:
            raise _Misplaced(f"bound variable {applied[t.at]} applied to arguments", t.at)
        raise _Misplaced(f"unknown function {t.head}", t.at)
    if t.head not in env:
        if explicit:
            raise _Misplaced(f"variable {t.head} not in context", t.at)
        env[t.head] = None
        tokens[t.head] = t.at
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
            raise _Misplaced(f"term {t.head} has sort {res}, expected {sort}", t.at)
        changed = False
        for a, s in zip(t.args, args):
            changed |= _push(sig, a, s, env)
        return changed
    if env.get(t.head) is None:
        env[t.head] = sort
        return True
    if env[t.head] != sort:
        raise _Misplaced(
            f"variable {t.head} used at sorts {env[t.head]} and {sort}", t.at
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
            raise _Misplaced(
                f"equality between sorts {lhs.sort} and {rhs.sort}", raw[1].at
            )
        return Eq(lhs, rhs)
    if kind == "atomT":
        t = raw[1]
        terms = tuple([_elab_term(sig, a, var) for a in t.args])
        for tm, s, rt in zip(terms, sig.rels[t.head], t.args):
            if tm.sort != s:
                raise _Misplaced(
                    f"argument of {t.head} has sort {tm.sort}, expected {s}", rt.at
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
                raise _Misplaced(
                    f"argument of {t.head} has sort {tm.sort}, expected {s}", t.at
                )
        return App(t.head, terms, res)
    return var[t.head]


def parse_theory(text: str) -> Theory:
    return Parser(scan(text)).parse_theory()

