"""The line scanner against the per-character scanner it replaced, the
parser against the parser it replaced, and the parser's checks on
declarations, on errors at the end of the input and on the order of its
errors."""

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parser_oracle import parse_theory as parse_theory_oracle
from scanner_oracle import tokenize_oracle

from cohext.logic.parser import _KIND, KEYWORDS, PUNCT, ParseError, parse_theory, scan
from cohext.logic.syntax import SortError, print_theory
from helpers import BREAKS, chase_theory_text, fixture_path, noisy_theory_text


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


def test_scanner_matches_the_oracle_on_generated_theories():
    rng = random.Random(17)
    for _ in range(400):
        assert_same_scan(noisy_theory_text(rng))


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
    """Where `noisy_theory_text`'s sequents start, by the oracle scanner: the
    first after the 14 tokens of the declarations, each other after the last
    token of the sequent before it, `false`, which occurs nowhere else."""
    toks = tokenize_oracle(text)
    starts = [14] + [i + 1 for i, t in enumerate(toks[:-2]) if t.text == "false"]
    return [(toks[i].line, toks[i].col) for i in starts]


def test_sequent_spans_match_the_oracle_on_generated_theories():
    rng, parsed = random.Random(17), 0
    for _ in range(400):
        text = noisy_theory_text(rng)
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


# -- the parser against the parser it replaced ----------------------------------


def parse_outcome(parse, text):
    """The theory and its sequents' spans, or the error's class, message and
    span."""
    try:
        T = parse(text)
    except (ParseError, SortError) as e:
        return (type(e), str(e), e.span)
    return (T, [seq.span for seq in T.sequents])


def differential_texts() -> list[str]:
    """The fixtures and their goldens, the 400 seed-17 `noisy_theory_text`
    texts and the 300 seed-17 `chase_theory_text` texts."""
    texts = [fixture_path(f"{name}.chr").read_text() for name in CORPUS]
    texts += [fixture_path(f"golden/{name}.chr.golden").read_text() for name in CORPUS]
    rng = random.Random(17)
    texts += [noisy_theory_text(rng) for _ in range(400)]
    rng = random.Random(17)
    texts += [chase_theory_text(rng) for _ in range(300)]
    return texts


# the words a mutation inserts: every keyword and punctuation token, the
# signatures' names, names declared nowhere and a sort name that is not one
MUTATION_WORDS = sorted(KEYWORDS) + PUNCT + [
    "A", "B", "C", "c", "f", "g", "x", "y", "z", "P", "Q", "R", "Z", "x'",
]


# words of one kind, which a mutation may put one for another
SIMILAR = [["and", "or"], ["c", "x", "y", "z", "f", "g", "x'"], ["P", "Q", "R", "Z"], ["A", "B", "C"]]


def mutated(rng: random.Random, text: str) -> str:
    """text with one or two token edits (delete, insert, replace, replace by
    a word of its kind, swap two neighbours, duplicate), its tokens written
    one blank apart on the lines they were on."""
    words = [(t.line, t.text) for t in tokenize_oracle(text)[:-1]]
    last = len(text.splitlines())
    for _ in range(rng.randint(1, 2)):
        if not words:
            break
        k = rng.randrange(len(words))
        line, word = words[k]
        edit = rng.choice(["delete", "insert", "replace", "similar", "similar", "swap", "duplicate"])
        if edit == "delete":
            del words[k]
        elif edit == "insert":
            words.insert(k, (line, rng.choice(MUTATION_WORDS)))
        elif edit == "replace":
            words[k] = (line, rng.choice(MUTATION_WORDS))
        elif edit == "similar":
            kind = next((ws for ws in SIMILAR if word in ws), [word])
            words[k] = (line, rng.choice(kind))
        elif edit == "duplicate":
            words.insert(k, (line, word))
        elif k + 1 < len(words):
            words[k], words[k + 1] = (line, words[k + 1][1]), (words[k + 1][0], word)
    lines = [[] for _ in range(last)]
    for line, word in words:
        lines[line - 1].append(word)
    return "\n".join(" ".join(ws) for ws in lines) + "\n"


def test_parser_matches_the_oracle_on_theories_and_their_mutations():
    """Each text gives an equal theory with equal spans, or an error of the
    same class with the same message and span."""
    texts = differential_texts()
    rng = random.Random(35)
    mutants = []
    for text in texts:
        try:
            tokenize_oracle(text)
        except ParseError:  # a stray character: the text is an error as it is
            continue
        mutants += [mutated(rng, text) for _ in range(3)]
    errors = []
    for text in texts + mutants:
        got = parse_outcome(parse_theory, text)
        assert got == parse_outcome(parse_theory_oracle, text), repr(text)
        errors.append(isinstance(got[0], type))
    # facts measured on these inputs: how many texts, and how many of them
    # fail to parse
    assert (len(texts), sum(errors[: len(texts)])) == (706, 260)
    assert (len(mutants), sum(errors[len(texts) :])) == (2016, 1838)


SIG7 = "sort A\nsort B\nfun c : -> A\nfun g : B -> B\nrel P : A\nrel Q : B\n"


@pytest.mark.parametrize(
    "sequent, message",
    [
        ("x:A | P(x) |- P(x) and", "expected a term, found end of input (line 8, column 1)"),
        ("x:A | P(x)", "expected '|-', found end of input (line 8, column 1)"),
        ("P(c) |- exists z", "expected '.', found end of input (line 8, column 1)"),
        ("P(c) |- exists", "expected a bound variable, found end of input (line 8, column 1)"),
    ],
)
def test_an_error_at_the_end_of_input_names_it(sequent, message):
    for parse in (parse_theory, parse_theory_oracle):
        with pytest.raises(ParseError) as e:
            parse(SIG7 + sequent)
        assert str(e.value) == message


@pytest.mark.parametrize(
    "sequent, message",
    [
        # a syntax error wins over every sort error
        ("x:A | Z(x) |- P(x) and", "expected a term, found end of input (line 8, column 1)"),
        ("x:A | Z(x) |- P(x)", "unknown relation Z (line 7, column 7)"),
        # an unknown symbol, an arity or a context error wins over a sort clash
        ("x:A | Q(x) |- Z(x)", "unknown relation Z (line 7, column 15)"),
        ("x:A | Q(x) |- P(g(x, x))", "function g expects 1 arguments (line 7, column 17)"),
        ("x:A | Q(x) |- P(y)", "variable y not in context (line 7, column 17)"),
        ("x:A | Q(x) |- P(x)", "variable x used at sorts A and B (line 7, column 9)"),
        # a sort clash wins over an undeclared binder sort
        ("x:A | Q(x) |- exists z:C. P(z)", "variable x used at sorts A and B (line 7, column 9)"),
        ("x:A | P(x) |- exists z:C. true", "unknown sort C (line 7, column 22)"),
    ],
)
def test_errors_come_in_the_documented_order(sequent, message):
    for parse in (parse_theory, parse_theory_oracle):
        with pytest.raises((ParseError, SortError)) as e:
            parse(SIG7 + sequent)
        assert str(e.value) == message
