"""The line scanner against the per-character scanner it replaced, and the
parser's checks on declarations."""

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scanner_oracle import tokenize_oracle

from cohext.logic.parser import _KIND, ParseError, parse_theory, scan
from cohext.logic.syntax import SortError, print_theory
from helpers import fixture_path


class Token(NamedTuple):
    kind: str  # ident / keyword / punct / eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The scan as a token list, each token located as a span read locates
    it."""
    s = scan(text)
    return [Token(_KIND.get(t, "ident"), t, *s.locate(i)) for i, t in enumerate(s.texts)]


CORPUS = ["pointed", "idempotent", "ordered"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BLANKS = [" ", "  ", "\t", "\xa0", "\x1f", "\u3000"]


def read_tokens(tokenizer, text):
    """The tokens as (kind, text, line, col), or the error's message and span."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenizer(text)]
    except ParseError as e:
        return ("error", str(e), e.span)


def assert_same_scan(text):
    assert read_tokens(tokenize, text) == read_tokens(tokenize_oracle, text), repr(text)


# -- the scanner against its oracle ---------------------------------------------


def test_scanner_matches_the_oracle_on_the_fixtures():
    for name in CORPUS:
        assert_same_scan(fixture_path(f"{name}.chr").read_text())
        assert_same_scan(fixture_path(f"golden/{name}.chr.golden").read_text())


def generated_theory(rng: random.Random) -> str:
    """Theory text over one signature, with its tokens joined by a random mix
    of blanks, line breaks and comments, and now and then a stray character."""
    words = ["sort", "A", "fun", "f", ":", "A", "->", "A", "rel", "R", ":", "A", ",", "A"]
    for _ in range(rng.randint(1, 4)):
        words += ["x", ":", "A", "|"] if rng.random() < 0.5 else []
        words += rng.choice([["R", "(", "x", ",", "f", "(", "x", ")", ")"], ["true"], ["x", "=", "x'"]])
        words += ["|-", "exists", "y", ".", "R", "(", "x", ",", "y", ")", "or", "false"]
    out = []
    for w in words:
        out.append(w)
        k = rng.random()
        if k < 0.1:
            out.append(rng.choice(BLANKS) + "// note |- (" + rng.choice(BREAKS))
        elif k < 0.3:
            out.append(rng.choice(BREAKS))
        elif k < 0.95:
            out.append(rng.choice(BLANKS))
    if rng.random() < 0.1:
        out.insert(rng.randrange(len(out) + 1), rng.choice(["-", "/", "é", "?", "$"]))
    return "".join(out)


def test_scanner_matches_the_oracle_on_generated_theories():
    rng = random.Random(17)
    for _ in range(400):
        assert_same_scan(generated_theory(rng))


EDGE_CASES = [
    "",
    "sort A",
    "sort A\n",
    "sort A\n\n",
    "sort A\r\nrel P : A\r\n",
    "sort A\rrel P : A",
    "sort A\x0brel P\x0b: A",
    "sort A\x1c\x1d\x1erel P : A",
    "sort A\x0c\x85\u2028\u2029rel P : A",
    "\tsort\tA\t\n\t\trel P :\tA",
    "sort A // a comment |- (\nrel P : A//x",
    "x // y // z",
    "//only a comment",
    "\n\n\n",
    "-",
    "a - b",
    "|--",
    "|-|->->|",
    "sort Á",
    "rel é : A",
    "x\xa0=\u3000y\x1f",
    "f(x')' = _a_1",
    "x:A | P(x) |- Q(x)\r",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_scanner_matches_the_oracle_on_edge_cases(text):
    assert_same_scan(text)


ALPHABET = [
    "sort", "and", "x", "x'", "A1", "_", "(", ")", ",", ":", ".", "=", "|", "|-",
    "->", "-", ">", "/", "//", " ", "\t", "\xa0", "é", "?", *BREAKS,
]


@given(st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_scanner_matches_the_oracle_on_token_and_junk_strings(text):
    assert_same_scan(text)


def test_tokens_are_light_records_with_a_span():
    # the scan keeps each token's text, line and place on its line in three
    # lists; a column is found only when asked for
    s = scan("sort A\n  fun // f\n")
    assert (s.texts, s.line_of, s.place) == (["sort", "A", "fun", ""], [1, 1, 2, 3], [0, 1, 0, 0])
    assert [s.locate(i) for i in range(4)] == [(1, 1), (1, 6), (2, 3), (3, 1)]
    assert scan("").locate(0) == (1, 1)


# -- spans, located only when read --------------------------------------------

SIG = "sort A\nfun c : -> A\nrel P : A\n"


@pytest.mark.parametrize(
    "sequents, spans",
    [
        ("P(c) |- P(c)  true |- P(c)\n", [(4, 1), (4, 15)]),  # one line, rescanned
        ("\t\tP(c) |- P(c)\n\xa0true |- P(c)\n", [(4, 3), (5, 2)]),
        ("// a comment\ntrue |- P(c)\n", [(5, 1)]),
        ("true |- P(c)\r\n true |- P(c)\r\n", [(4, 1), (5, 2)]),
        (" x:A | P(x) |- P(c)", [(4, 2)]),
        ("P(c) |- P(c) x:A | P(x) |- P(c)", [(4, 1), (4, 14)]),
    ],
)
def test_a_sequent_span_is_where_its_first_token_is(sequents, spans):
    T = parse_theory(SIG + sequents)
    assert [seq.span for seq in T.sequents] == spans


@pytest.mark.parametrize(
    "text, message",
    [
        ("sort A sort  A", "sort A is already declared (line 1, column 14)"),
        ("sort A rel P : C", "relation P uses undeclared sort C (line 1, column 12)"),
        (SIG + "true |- P(g(c))", "unknown function g (line 4, column 11)"),
        (SIG + "true |- P(c) and exists y. true", "cannot infer a sort for variable y (line 4, column 25)"),
        (SIG + "true |- true  true |- x = x", "cannot infer a sort for variable x (line 4, column 23)"),
    ],
)
def test_an_error_at_a_token_not_first_on_its_line_is_located(text, message):
    with pytest.raises((ParseError, SortError)) as e:
        parse_theory(text)
    assert str(e.value) == message


def sequent_starts(text: str) -> list[tuple[int, int]]:
    """Where `generated_theory`'s sequents start, by the oracle scanner: the
    first after the 14 tokens of the declarations, each other after the last
    token of the sequent before it, `false`, which occurs nowhere else."""
    toks = tokenize_oracle(text)
    starts = [14] + [i + 1 for i, t in enumerate(toks[:-2]) if t.text == "false"]
    return [(toks[i].line, toks[i].col) for i in starts]


def test_sequent_spans_match_the_oracle_on_generated_theories():
    rng, parsed = random.Random(17), 0
    for _ in range(400):
        text = generated_theory(rng)
        try:
            T = parse_theory(text)
        except (ParseError, SortError):
            continue
        parsed += 1
        for form in (text, print_theory(T)):
            spans = [seq.span for seq in parse_theory(form).sequents]
            assert spans == sequent_starts(form), repr(form)
    assert parsed == 140


# -- declarations -------------------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("sort A\nfun f : A", "expected a sort name, found end of input (line 3, column 1)"),
        ("sort", "expected a sort name, found end of input (line 2, column 1)"),
        ("sort (", "expected a sort name, found '(' (line 1, column 6)"),
        ("sort A\nrel P : A,", "expected a sort name, found end of input (line 3, column 1)"),
        ("sort and", "expected a sort name, found 'and' (line 1, column 6)"),
        ("sort A\nfun -> : A", "expected a function name, found '->' (line 2, column 5)"),
        ("sort A\nfun f : A rel P : A", "expected a sort name, found 'rel' (line 2, column 11)"),
        ("sort A\nrel exists : A", "expected a relation name, found 'exists' (line 2, column 5)"),
    ],
)
def test_a_declared_name_must_be_an_identifier(text, message):
    with pytest.raises(ParseError) as e:
        parse_theory(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("sort A\nfun f : A A -> A", "expected ',' or '->', found 'A' (line 2, column 11)"),
        ("sort A\nfun g : A, -> A", "expected a sort name, found '->' (line 2, column 12)"),
    ],
)
def test_function_argument_sorts_are_separated_by_single_commas(text, message):
    with pytest.raises(ParseError) as e:
        parse_theory(text)
    assert str(e.value) == message
    T = parse_theory("sort A\nsort B\nfun f : A, B -> A\nfun c : -> B\n")
    assert T.signature.funcs == {"f": (("A", "B"), "A"), "c": ((), "B")}


@pytest.mark.parametrize(
    "text, message",
    [
        ("sort A\nsort A", "sort A is already declared (line 2, column 6)"),
        ("sort A\nfun f : A -> A\nfun f : -> A", "function f is already declared (line 3, column 5)"),
        ("sort A\nrel P : A\nrel P : A, A", "relation P is already declared (line 3, column 5)"),
    ],
)
def test_a_name_is_declared_once(text, message):
    with pytest.raises(ParseError) as e:
        parse_theory(text)
    assert str(e.value) == message


def test_a_function_and_a_relation_may_share_a_name():
    T = parse_theory("sort A\nfun P : -> A\nrel P : A\ntrue |- P(P)\n")
    assert T.signature.funcs == {"P": ((), "A")}
    assert T.signature.rels == {"P": ("A",)}


@pytest.mark.parametrize(
    "text, message",
    [
        ("sort A\nfun f : B -> A", "function f uses undeclared sort B (line 2, column 5)"),
        ("sort A\n\nrel P : A, C", "relation P uses undeclared sort C (line 3, column 5)"),
    ],
)
def test_an_undeclared_sort_is_located_at_its_declaration(text, message):
    with pytest.raises(SortError) as e:
        parse_theory(text)
    assert str(e.value) == message


def test_a_sort_may_be_declared_after_its_use_in_a_declaration():
    T = parse_theory("fun f : A -> A\nsort A\n")
    assert T.signature.sorts == ("A",)


def test_each_sequent_sees_only_the_declarations_above_it():
    T = parse_theory("sort A\nrel P : A\nx:A | P(x) |- P(x)\nrel Q : A\n")
    assert set(T.signature.rels) == {"P", "Q"}
    with pytest.raises(SortError) as e:
        parse_theory("sort A\nrel P : A\nx:A | P(x) |- Q(x)\nrel Q : A\n")
    assert str(e.value) == "unknown relation Q (line 3, column 15)"


def test_binders_are_renamed_apart_from_every_name_taken_before_them():
    T = parse_theory(
        "sort A\nfun f : A -> A\nrel P : A\nrel R : A, A\n"
        "x:A | exists x:A, x:A. R(x, x) and (exists f:A. P(f)) "
        "|- exists y:A. exists y:A. P(y) and P(x)\n"
    )
    assert str(T.sequents[0]) == (
        "x:A | exists x':A, x'':A. R(x'', x'') and exists f':A. P(f') "
        "|- exists y:A. exists y':A. P(y') and P(x)"
    )


def test_a_binder_binds_its_name_only_inside_its_body():
    # y after the body is free, so it joins the implicit context and the
    # binder is renamed apart from it, wherever the free y occurs
    for text in ("exists y:A. P(y) |- P(y)", "P(y) and exists y:A. P(y) |- true"):
        T = parse_theory(f"sort A\nrel P : A\n{text}\n")
        seq = T.sequents[0]
        assert [v.name for v in seq.context] == ["y"]
        assert "exists y':A. P(y')" in str(seq)
    T = parse_theory("sort A\nrel P : A\nexists y:A. P(y) |- P(y)\n")
    assert str(T.sequents[0]) == "y:A | exists y':A. P(y') |- P(y)"


def test_a_free_name_shared_with_a_binder_must_be_in_the_given_context():
    with pytest.raises(SortError) as e:
        parse_theory("sort A\nrel P : A\nx:A | exists y:A. P(y) |- P(y)\n")
    assert str(e.value) == "variable y not in context (line 3, column 29)"
    T = parse_theory("sort A\nrel P : A\nx:A, y:A | exists y:A. P(y) |- P(y)\n")
    assert str(T.sequents[0]) == "x:A, y:A | exists y':A. P(y') |- P(y)"
