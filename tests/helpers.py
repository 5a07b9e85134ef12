"""Small structures and fixture access that only the suites use: chain
and antichain posets, the chain, one-element, four-element Boolean and M3
lattices, the N5 pentagon, the lattice tables found by scanning every
element (the oracle of `FinLattice.from_poset`), the definitional filter,
prime-filter and ideal tests (the oracles of the up-set enumerations), the
path of a shipped fixture, a hyperdoctrine whose existential table
breaks the adjunction law, and the texts of random theories: one with
its tokens joined by a random mix of blanks, line breaks and comments,
and one for the chase."""

from __future__ import annotations

from functools import reduce
from itertools import product
from pathlib import Path

from cohext.cohcat import LatticeCategory
from cohext.fixtures import FIXTURE_DIR
from cohext.hyperdoctrine import CoherentHyperdoctrine, sub_hyperdoctrine
from cohext.lattice import FinLattice, LatticeError, MonotoneMap
from cohext.order import FinPoset


def chain(names) -> FinPoset:
    names = tuple(names)
    pairs = {
        (names[i], names[j]) for i in range(len(names)) for j in range(i, len(names))
    }
    return FinPoset(names, frozenset(pairs))


def antichain(names) -> FinPoset:
    names = tuple(names)
    return FinPoset(names, frozenset((a, a) for a in names))


def trivial_lattice() -> FinLattice:
    return FinLattice.from_poset(FinPoset(("*",), frozenset({("*", "*")})))


def boolean4() -> FinLattice:
    """The four-element Boolean lattice (the diamond) 0 < a,b < 1."""
    return FinLattice.from_poset(
        FinPoset.from_pairs("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    )


def chain_lattice(n: int, prefix: str = "c") -> FinLattice:
    """The n-element chain c0 < c1 < ... ."""
    return FinLattice.from_poset(chain([f"{prefix}{i}" for i in range(n)]))


def m3() -> FinLattice:
    """The non-distributive lattice with three incomparable atoms."""
    return FinLattice.from_poset(
        FinPoset.from_pairs(
            "0abc1",
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        )
    )


def n5() -> FinLattice:
    """The non-distributive pentagon 0 < a < c < 1, 0 < b < 1: c is
    join-irreducible but not join-prime (c <= a \\/ b, yet c is below
    neither)."""
    return FinLattice.from_poset(
        FinPoset.from_pairs(
            "0acb1", [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
        )
    )


def lattice_by_scan(poset: FinPoset) -> FinLattice:
    """`FinLattice.from_poset` as it was before it read bitmasks: each meet
    and join found by scanning every element for the lower and upper
    bounds of the pair and then for their greatest and least members."""
    if not poset.elements:
        raise LatticeError("a lattice needs at least one element")
    meet, join = {}, {}
    for a, b in product(poset.elements, repeat=2):
        lows = [x for x in poset.elements if poset.leq(x, a) and poset.leq(x, b)]
        glb = [x for x in lows if all(poset.leq(y, x) for y in lows)]
        ups = [x for x in poset.elements if poset.leq(a, x) and poset.leq(b, x)]
        lub = [x for x in ups if all(poset.leq(x, y) for y in ups)]
        if len(glb) != 1:
            raise LatticeError(f"pair ({a},{b}) has no meet")
        if len(lub) != 1:
            raise LatticeError(f"pair ({a},{b}) has no join")
        meet[(a, b)], join[(a, b)] = glb[0], lub[0]
    bottom = reduce(lambda x, y: meet[x, y], poset.elements)
    top = reduce(lambda x, y: join[x, y], poset.elements)
    return FinLattice(poset, meet, join, bottom, top)


def is_filter(L: FinLattice, s) -> bool:
    s = set(s)
    if not s:
        return False
    return all(L.join(a, x) in s for a in s for x in L.elements) and all(
        L.meet(a, b) in s for a in s for b in s
    )


def is_prime_filter(L: FinLattice, s) -> bool:
    s = set(s)
    if not is_filter(L, s) or len(s) == len(L.elements):
        return False
    return all(
        a in s or b in s
        for a in L.elements
        for b in L.elements
        if L.join(a, b) in s
    )


def is_ideal(L: FinLattice, s) -> bool:
    return is_filter(L.dual, s)


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


def broken_exists_hyperdoctrine() -> CoherentHyperdoctrine:
    """The subobject hyperdoctrine of the 3-chain with one existential
    table entry bumped, so the adjunction law fails with a witness."""
    C = LatticeCategory(chain_lattice(3))
    P = sub_hyperdoctrine(C)
    exists = dict(P.exists)
    f = "le(c0,c2)"
    old = exists[f]
    table = dict(old.mapping)
    table["c0"] = "c2"  # image of the bottom subobject jumps to the top
    exists[f] = MonotoneMap(old.source, old.target, table)
    return CoherentHyperdoctrine(P.base, P.fibers, P.subst, exists, P.limits)


BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BLANKS = [" ", "  ", "\t", "\xa0", "\x1f", "\u3000"]


def noisy_theory_text(rng) -> str:
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


def chase_theory_text(rng) -> str:
    """A theory over the model-sweep benchmark's signature (a constant c, a
    function f, relations P, Q and R) where, unlike the benchmark's, f(x)
    may occur in a conclusion and a conclusion may be false."""

    def term(vs):
        base = rng.choice(vs + ["c"])
        return f"f({base})" if rng.random() < 0.3 else base

    def atom(vs, first=None):
        k, a = rng.random(), first or term(vs)
        if k < 0.3:
            return f"P({a})"
        if k < 0.55:
            return f"Q({a})"
        if k < 0.85:
            return f"R({a}, {term(vs)})"
        return f"{a} = {term(vs)}"

    lines = ["sort A", "fun c : -> A", "fun f : A -> A", "rel P : A", "rel Q : A", "rel R : A, A"]
    for _ in range(rng.randint(2, 5)):
        vs = ["x", "y"][: rng.choice([0, 1, 1, 2])]
        lhs = " and ".join(atom(vs) for _ in range(rng.choice([1, 2]))) if vs else "true"
        k = rng.random()
        if k < 0.1:
            rhs = "false"
        elif k < 0.35:
            rhs = f"{atom(vs)} or {atom(vs)}"
        elif k < 0.6:
            rhs = f"exists z:A. {atom(vs + ['z'], first='z')}"
        else:
            rhs = atom(vs)
        ctx = ", ".join(f"{v}:A" for v in vs)
        lines.append(f"{ctx} | {lhs} |- {rhs}" if vs else f"{lhs} |- {rhs}")
    return "\n".join(lines) + "\n"
