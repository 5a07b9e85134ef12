"""Scanner and recursive-descent parser for the theory file format.

Layout: declarations (sort / fun / rel) and sequents, in any order; each
sequent sees only the declarations above it.  'and' binds tighter than
'or'; a quantifier body extends as far right as possible.  Sequent
contexts are optional: missing variable sorts are inferred from their
first constraining use, and a variable with no constraining use is a sort
error carrying its location.  Binders are renamed apart from the free
variables and from each other as they are read.

Lexical rules (docs/grammar.md, "Lexical structure"): tokens are
identifiers `[A-Za-z_][A-Za-z0-9_']*`, the keywords among them, and the
punctuation `|- -> ( ) , : . = |`; '//' starts a comment that runs to the
end of its line; any other character that is not whitespace is an error.
Lines are numbered as `str.splitlines` splits them and columns count
characters from 1.  Declared names must be identifiers, and no sort,
function or relation is declared twice.

`scan` reads the text one line at a time, with no Python loop over
characters or tokens: each line is cut at its first '//' and one `findall`
lists its tokens.  Tokens never hold a blank and a stray character is in
no token, so the line has a stray character exactly when its tokens are
shorter in all than its non-blank characters; only then does one regex
match find where the first one is.  A token is kept as its text, its line
and its place on the line; its column is found only when a span is read,
for an error or for a sequent's start, so the parser and elaboration pass
token indices around.  The parser reads the token texts in place: on the
paths every sequent takes it compares `texts[pos]` and moves `pos` itself.

A sequent is read by one of two paths.  The typed descent
(`_typed_sequent`) applies when every sort is known as it is read: the
context is given, or no free variable occurs, and every binder has a
declared sort.  It builds the AST as it reads, checking each symbol, arity
and sort against the signature and its scope, and it never raises: at
anything it cannot type, a sort to infer or an error, it gives up.  The
sequent is then read again from its context by the raw path
(`_raw_sequent`): a raw descent, then `elaborate_sequent` in three steps.
`_collect_free` checks every symbol, arity and context use and lists the
free variables; the `_infer` fixpoint runs only while some variable's sort
is unknown; then one walk (`_formula`, `_term`) makes `_infer`'s checks, in
`_infer`'s order, and builds the AST.  Only the raw path infers sorts and
raises errors, so the errors come in one documented order whichever path
a sequent starts on: a syntax error before any sort error, a context,
symbol, arity or context-use error before a sort clash, a sort clash
before an unknown or undeclared variable sort.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import islice
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
    A line's tokens are listed by one `findall`, before and without its
    comment; `str.split` drops exactly the characters that `\\s` matches."""
    lines = text.splitlines()
    texts: list[str] = []
    line_of: list[int] = []
    place: list[int] = []
    for ln, line in enumerate(lines, start=1):
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut]
        words = _TOKEN.findall(line)
        if len("".join(words)) != len("".join(line.split())):
            end = _CLEAN(line).end()
            raise ParseError(f"unexpected character {line[end]!r}", (ln, end + 1))
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
    its (line, column) is found only for an error or a sequent's span.
    Only the EOF token has the empty text, so a token whose text is
    compared equal to a punctuation or keyword is never EOF and the token
    after it exists."""

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

    def expect(self, text: str):
        i = self.pos
        t = self.texts[i]
        if t != text:
            raise ParseError(f"expected {text!r}, found {_found(t)}", self.locate(i))
        self.pos = i + 1

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is `text` (never EOF's)."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def name(self, what: str) -> str:
        """Read an identifier and return it; `what` says what it names when
        the next token is not one."""
        i = self.pos
        t = self.texts[i]
        if t in _KIND:
            raise ParseError(f"expected {what}, found {_found(t)}", self.locate(i))
        self.pos = i + 1
        return t

    # -- declarations ----------------------------------------------------

    def parse_theory(self) -> Theory:
        sorts: list[str] = []
        funcs: dict = {}
        rels: dict = {}
        declared: dict = {}  # (kind, name) -> the token of the name declared
        sequents = []
        texts = self.texts
        # The declarations so far, built when a sequent follows new ones.  It
        # shares the dicts: a sequent is elaborated before the next
        # declaration is read, so it sees only the declarations above it.
        sig = None
        while self.pos < self.eof:
            t = texts[self.pos]
            if t == "sort":
                self.pos += 1
                sorts.append(self._declare("sort", declared))
            elif t == "fun":
                self.pos += 1
                name = self._declare("function", declared)
                self.expect(":")
                args = []
                while not self.accept("->"):
                    # sorts are separated by commas: a sort name right
                    # after a sort is refused here, any other token by `name`
                    at = self.pos
                    t = texts[at]
                    if args and not self.accept(",") and t not in _KIND:
                        raise ParseError(f"expected ',' or '->', found {t!r}", self.locate(at))
                    args.append(self.name("a sort name"))
                funcs[name] = (tuple(args), self.name("a sort name"))
            elif t == "rel":
                self.pos += 1
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
        """Read by the typed descent; when it gives up, read again from the
        context by the raw descent, which alone infers sorts and raises
        errors."""
        start = self.pos
        context = self._try_context()
        begin = self.pos
        seq = self._typed_sequent(sig, context, start)
        if seq is None:
            self.pos = begin
            seq = self._raw_sequent(sig, context, start)
        return seq

    def _raw_sequent(self, sig: Signature, context, start: int) -> Sequent:
        """A free name is taken from the binders read after it; one that
        occurs only after a binder of its name is found when it is read,
        and the sequent is read again with it taken."""
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
        token consumed.  A sort is whatever token follows the ':', EOF
        included; elaboration refuses it if it is no declared sort."""
        texts = self.texts
        i = self.pos
        binds = []
        while True:
            t = texts[i]
            if t in _KIND or texts[i + 1] != ":":
                return ()
            sort = texts[i + 2]
            binds.append((t, sort))
            i += 3 if sort else 2  # EOF is never consumed
            t = texts[i]
            if t == "|":
                self.pos = i + 1
                return tuple(binds)
            if t != ",":
                return ()
            i += 1

    # -- the typed descent -------------------------------------------------
    #
    # Each method reads one production as the raw descent does and builds
    # its AST node at once, checking symbols, arities and sorts as it goes.
    # It raises `_Untyped` at whatever it cannot type: a sort to infer, an
    # error, or a rare form such as a binder named as a relation, which the
    # raw path reads.  A term is read at the sort its position asks for, or
    # at its own sort on an equation's left.

    def _typed_sequent(self, sig: Signature, context, start: int) -> Sequent | None:
        """The sequent read with every sort known as it is read, or None
        when it gives up.  The scope maps each context variable, and each
        binder inside its body, by its name as written to its variable,
        renamed apart as the raw descent renames it."""
        funcs = sig.funcs
        free: dict[str, Var] = {}
        for name, sort in context:
            if sort not in sig.sorts or name in funcs or name in free:
                return None
            free[name] = Var(name, sort)
        self.funcs, self.rels, self.sorts = funcs, sig.rels, sig.sorts
        self.scope, self.taken = free, set(funcs).union(free)
        try:
            lhs = self._typed_formula()
            if self.texts[self.pos] != "|-":
                return None
            self.pos += 1
            rhs = self._typed_formula()
        except _Untyped:
            return None
        return Sequent(tuple(free.values()), lhs, rhs, self.locate(start))

    def _typed_formula(self):
        part = self._typed_conjunct()
        texts = self.texts
        if texts[self.pos] != "or":
            return part
        parts = [part]
        while texts[self.pos] == "or":
            self.pos += 1
            parts.append(self._typed_conjunct())
        return Or(tuple(parts))

    def _typed_conjunct(self):
        part = self._typed_quantified()
        texts = self.texts
        if texts[self.pos] != "and":
            return part
        parts = [part]
        while texts[self.pos] == "and":
            self.pos += 1
            parts.append(self._typed_quantified())
        return And(tuple(parts))

    def _typed_quantified(self):
        texts = self.texts
        if texts[self.pos] != "exists":
            return self._typed_atom()
        self.pos += 1
        outer = self.scope
        scope = self.scope = dict(outer)
        taken = self.taken
        binders = []
        while True:
            i = self.pos
            t = texts[i]
            if t in _KIND or texts[i + 1] != ":" or texts[i + 2] not in self.sorts:
                raise _Untyped
            fresh = t
            while fresh in taken:
                fresh += "'"
            taken.add(fresh)
            v = scope[t] = Var(fresh, texts[i + 2])
            binders.append(v)
            self.pos = i + 3
            if texts[i + 3] != ",":
                break
            self.pos = i + 4
        if texts[self.pos] != ".":
            raise _Untyped
        self.pos += 1
        body = self._typed_formula()
        self.scope = outer
        return Exists(tuple(binders), body)

    def _typed_atom(self):
        texts = self.texts
        i = self.pos
        t = texts[i]
        if t == "true" or t == "false":
            self.pos = i + 1
            return Truth() if t == "true" else Falsity()
        if t == "(":
            self.pos = i + 1
            phi = self._typed_formula()
            if texts[self.pos] != ")":
                raise _Untyped
            self.pos += 1
            return phi
        if t in _KIND:
            raise _Untyped
        if texts[i + 1] == "(" and t not in self.funcs:
            # a relation atom; a name that is also a function's is read as
            # a term below, and a relation with no '(' as a bare term
            sorts = self.rels.get(t)
            if sorts is None or t in self.scope:
                raise _Untyped
            self.pos = i + 2
            return RelAtom(t, self._typed_args(sorts))
        lhs = self._typed_term(None)
        if texts[self.pos] != "=":
            raise _Untyped
        self.pos += 1
        return Eq(lhs, self._typed_term(lhs.sort))

    def _typed_args(self, sorts) -> tuple:
        """The arguments after an opening '(', read at `sorts`, and the
        closing ')'."""
        texts = self.texts
        args = []
        for s in sorts:
            if args:
                if texts[self.pos] != ",":
                    raise _Untyped
                self.pos += 1
            args.append(self._typed_term(s))
        if texts[self.pos] != ")":
            raise _Untyped
        self.pos += 1
        return tuple(args)

    def _typed_term(self, sort):
        """A term of sort `sort`, or of any sort when `sort` is None.  A
        bare name is the innermost binder of that name in scope, else a
        context variable, else a constant; no name is applied to arguments
        but a function's."""
        texts = self.texts
        i = self.pos
        t = texts[i]
        if t in _KIND:
            raise _Untyped
        f = self.funcs.get(t)
        if texts[i + 1] == "(":
            if f is None or t in self.scope or (sort is not None and f[1] != sort):
                raise _Untyped
            self.pos = i + 2
            return App(t, self._typed_args(f[0]), f[1])
        self.pos = i + 1
        v = self.scope.get(t)
        if v is None:
            if f is None or f[0] or (sort is not None and f[1] != sort):
                raise _Untyped
            return App(t, (), f[1])
        if sort is not None and v.sort != sort:
            raise _Untyped
        return v

    # -- formulas -----------------------------------------------------------

    def parse_formula(self):
        part = self.parse_conjunct()
        if self.texts[self.pos] != "or":
            return part
        parts = [part]
        while self.texts[self.pos] == "or":
            self.pos += 1
            parts.append(self.parse_conjunct())
        return ("or", tuple(parts))

    def parse_conjunct(self):
        part = self.parse_quantified()
        if self.texts[self.pos] != "and":
            return part
        parts = [part]
        while self.texts[self.pos] == "and":
            self.pos += 1
            parts.append(self.parse_quantified())
        return ("and", tuple(parts))

    def parse_quantified(self):
        texts = self.texts
        if texts[self.pos] != "exists":
            return self.parse_atom()
        self.pos += 1
        # Each binder is renamed apart from every name taken so far in the
        # sequent, so one flat environment covers the whole sequent.  It
        # names that binder inside its body only.
        outer = self.renaming
        self.renaming = dict(outer)
        binders = []
        while True:
            i = self.pos
            t = texts[i]
            if t in _KIND:
                raise ParseError(f"expected a bound variable, found {_found(t)}", self.locate(i))
            sort = None
            if texts[i + 1] == ":":
                sort = texts[i + 2]
                self.pos = i + 3 if sort else i + 2  # EOF is never consumed
            else:
                self.pos = i + 1
            fresh = t
            while fresh in self.taken:
                fresh += "'"
            self.taken.add(fresh)
            self.renaming[t] = fresh
            self.bound[fresh] = (sort, i)
            binders.append((fresh, sort, i))
            if texts[self.pos] != ",":
                break
            self.pos += 1
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
        if self.texts[self.pos] == "=":
            self.pos += 1
            return ("eq", term, self.parse_term())
        return ("atomT", term)

    def parse_term(self) -> RawTerm:
        texts = self.texts
        i = self.pos
        t = texts[i]
        if t in _KIND:
            raise ParseError(f"expected a term, found {_found(t)}", self.locate(i))
        args = ()
        if texts[i + 1] == "(":
            self.pos = i + 2
            if texts[i + 2] != ")":
                args = [self.parse_term()]
                while texts[self.pos] == ",":
                    self.pos += 1
                    args.append(self.parse_term())
                args = tuple(args)
            self.expect(")")
        else:
            self.pos = i + 1
        name = self.renaming.get(t)
        if name is None:
            name = t
            if not args:  # a free variable: no binder may take its name
                self.taken.add(name)
                if name in self.bound:
                    self.clashes.add(name)
        elif args:
            self.applied[i] = t
        return _raw_term((name, args, i))


# -- elaboration ------------------------------------------------------------------
#
# The parser has renamed binders apart, so one flat environment covers the
# whole sequent; sorts then propagate to a fixpoint from relation and
# function argument positions and across equations.  A term names its
# head token by index; an error raises `_Misplaced` with that index, and
# the parser, which alone can locate the token, raises it as a SortError.


class _Untyped(Exception):
    """The typed descent met something it cannot type."""


class _Misplaced(Exception):
    """A sort error's message and the index of the token it is at."""


def elaborate_sequent(sig, context, raw_lhs, raw_rhs, span, bound, applied) -> Sequent:
    """`span` is where the sequent starts; `bound` maps each binder of the
    two sides to its declared sort (or None) and its token, and `applied`
    the head token of each binder applied to arguments to its name as
    written.

    Once no sort is unknown, a pass of `_infer` changes nothing and only
    checks, so the walk that builds the AST makes that pass's checks in its
    order and raises the error it would raise first.  Its equations and
    arguments then agree in sort, as the AST needs."""
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
    # each pass that changes a sort fills at least one unknown one
    while None in env.values():
        if not (_infer(sig, raw_lhs, env) | _infer(sig, raw_rhs, env)):
            break  # a sort stays unknown, which the loop below reports
    else:  # every sort is known
        var = {name: Var(name, sort) for name, sort in env.items()}
        lhs = _formula(sig.funcs, sig.rels, raw_lhs, var)
        rhs = _formula(sig.funcs, sig.rels, raw_rhs, var)
    for name, sort in env.items():
        # a context variable's sort was checked above; every other name has
        # a token
        if sort is None:
            raise _Misplaced(f"cannot infer a sort for variable {name}", tokens[name])
        if sort not in sig.sorts:
            raise _Misplaced(f"unknown sort {sort}", tokens[name])
    return Sequent(tuple([var[n] for n in order]), lhs, rhs, span)


def _collect_free(sig, raw, env, tokens, order, explicit, applied):
    kind = raw[0]
    if kind == "atomT":
        t = raw[1]
        args = sig.rels.get(t.head)
        if args is None:
            raise _Misplaced(f"unknown relation {t.head}", t.at)
        if len(args) != len(t.args):
            raise _Misplaced(f"relation {t.head} expects {len(args)} arguments", t.at)
        for a in t.args:
            _collect_term(sig, a, env, tokens, order, explicit, applied)
    elif kind == "eq":
        _collect_term(sig, raw[1], env, tokens, order, explicit, applied)
        _collect_term(sig, raw[2], env, tokens, order, explicit, applied)
    elif kind == "and" or kind == "or":
        for p in raw[1]:
            _collect_free(sig, p, env, tokens, order, explicit, applied)
    elif kind == "exists":
        _collect_free(sig, raw[2], env, tokens, order, explicit, applied)


def _collect_term(sig, t: RawTerm, env, tokens, order, explicit, applied):
    f = sig.funcs.get(t.head)
    if f is not None:
        if len(f[0]) != len(t.args):
            raise _Misplaced(f"function {t.head} expects {len(f[0])} arguments", t.at)
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


def _formula(funcs, rels, raw, var):
    """The AST of a side, checked as a pass of `_infer` with every sort
    known checks it: an equation's sides at the sort of its left side, a
    relation's arguments at its argument sorts."""
    kind = raw[0]
    if kind == "atomT":
        t = raw[1]
        return RelAtom(
            t.head, tuple([_term(funcs, a, s, var) for a, s in zip(t.args, rels[t.head])])
        )
    if kind == "eq":
        lhs = raw[1]
        f = funcs.get(lhs.head)
        sort = var[lhs.head].sort if f is None else f[1]
        return Eq(_term(funcs, lhs, sort, var), _term(funcs, raw[2], sort, var))
    if kind == "and":
        return And(tuple([_formula(funcs, rels, p, var) for p in raw[1]]))
    if kind == "or":
        return Or(tuple([_formula(funcs, rels, p, var) for p in raw[1]]))
    if kind == "exists":
        binders = tuple([var[name] for name, _, _ in raw[1]])
        return Exists(binders, _formula(funcs, rels, raw[2], var))
    return Truth() if kind == "true" else Falsity()


def _term(funcs, t: RawTerm, sort, var):
    """The term t, checked at `sort` as `_push` checks it."""
    f = funcs.get(t.head)
    if f is None:
        v = var[t.head]
        if v.sort != sort:
            raise _Misplaced(f"variable {t.head} used at sorts {v.sort} and {sort}", t.at)
        return v
    args, res = f
    if res != sort:
        raise _Misplaced(f"term {t.head} has sort {res}, expected {sort}", t.at)
    return App(t.head, tuple([_term(funcs, a, s, var) for a, s in zip(t.args, args)]), res)


def parse_theory(text: str) -> Theory:
    return Parser(scan(text)).parse_theory()
