"""model-sweep: the coherent-logic frontend (parser, chase, model families).

Jobs:
  - THEORIES seeded theories over one sort with a constant c, a unary
    function f, unary relations P, Q and a binary relation R: printed as
    .chr text, parsed, round-tripped through the printer, and chased at
    max_fresh=5;
  - the three fixture theories through model enumeration, the family
    category, conditions M1-M3 and the sigma-bar check at sizes 4 and 5
    (size 6 takes minutes);
  - criterion 13's test that dropping the designated model flips M2.
It bypasses catalog, jsonio and almost all of canext.

The generator keeps f(x) out of conclusions and disjunctions to at most one
context variable without f, and no sequent concludes false, so the
one-element model with every relation full satisfies each theory and the
chase's depth-first search reaches a model on its first path.  About one
theory in 20 is made inconsistent by two ground sequents placed first,
A |- false and true |- A, which the chase refutes without branching; each
theory's expected status is therefore known and checked.  Random false
sequents are left out: when a contradiction shows only deep in the search,
the chase tries every branch first, and about one such theory in 10,000
took more than 3 s at max_fresh=5.  As generated, no theory of seeds 0 to
699 took more than 25 ms to chase (median 0.2 ms).
"""

from __future__ import annotations

import random
from functools import partial
from pathlib import Path

from cohext.fixtures import designated_model_index
from cohext.logic.chase import chase
from cohext.logic.models import (
    FamilyCategory,
    ModelFamily,
    check_m1,
    check_m2,
    check_m3,
    enumerate_models,
    sigma_bar_check,
)
from cohext.logic.parser import parse_theory
from cohext.logic.syntax import print_theory

THEORIES = 600
MAX_FRESH = 5
REFUTED_SHARE = 0.05
FIXTURE_THEORIES = ("pointed", "idempotent", "ordered")
FAMILY_SIZES = (4, 5)
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SIGNATURE = "sort A\nfun c : -> A\nfun f : A -> A\nrel P : A\nrel Q : A\nrel R : A, A\n\n"


def setup(rng: random.Random, run) -> list[tuple[str, object]]:
    jobs = [
        (f"theory/{i}", partial(theory_job, *theory_text(rng)))
        for i in range(THEORIES)
    ]
    for name in FIXTURE_THEORIES:
        text = (FIXTURES / f"{name}.chr").read_text()
        for size in FAMILY_SIZES:
            jobs.append((f"family/{name}/{size}", partial(family_job, text, size)))
    pointed = (FIXTURES / "pointed.chr").read_text()
    jobs.append(("drop-designated", partial(drop_job, pointed)))
    return jobs


# -- theory generator ---------------------------------------------------------


def term(rng, vs, apply_f_to_vars: bool) -> str:
    base = rng.choice(vs + ["c"])
    if rng.random() < 0.3 and (apply_f_to_vars or base == "c"):
        return f"f({base})"
    return base


def atom(rng, vs, apply_f_to_vars=False, first=None) -> str:
    def arg():
        return first or term(rng, vs, apply_f_to_vars)

    k = rng.random()
    if k < 0.3:
        return f"P({arg()})"
    if k < 0.55:
        return f"Q({arg()})"
    if k < 0.85:
        return f"R({arg()}, {term(rng, vs, apply_f_to_vars)})"
    return f"{arg()} = {term(rng, vs, apply_f_to_vars)}"


def sequent(rng, kind: str) -> str:
    vs = ["x", "y"][: rng.choice([0, 1, 1, 2])]
    if kind == "or":
        vs = vs[:1]
    lhs = "true"
    if vs and rng.random() < 0.85:
        lhs = " and ".join(atom(rng, vs, True) for _ in range(rng.choice([1, 1, 2])))
    if kind == "or":
        rhs = f"{atom(rng, vs)} or {atom(rng, vs)}"
    elif kind == "exists":
        rhs = f"exists z:A. {atom(rng, vs + ['z'], first='z')}"
        if rng.random() < 0.5:
            rhs += f" and {atom(rng, vs + ['z'])}"
    else:
        rhs = atom(rng, vs)
    ctx = ", ".join(f"{v}:A" for v in vs)
    return f"{ctx} | {lhs} |- {rhs}" if vs else f"{lhs} |- {rhs}"


def theory_text(rng: random.Random) -> tuple[str, bool]:
    """A theory's .chr text, and whether it is inconsistent."""
    n = rng.randint(2, 5)
    kinds = ["atom"] * n
    slots = rng.sample(range(n), n)
    if rng.random() < 0.6:
        kinds[slots[0]] = "exists"
    if n > 1 and rng.random() < 0.5:
        kinds[slots[1]] = "or"
    sequents = [sequent(rng, k) for k in kinds]
    inconsistent = rng.random() < REFUTED_SHARE
    if inconsistent:
        ground = atom(rng, [])
        sequents[:0] = [f"{ground} |- false", f"true |- {ground}"]
    return SIGNATURE + "\n".join(sequents) + "\n", inconsistent


# -- jobs ---------------------------------------------------------------------


def theory_job(text, inconsistent, run):
    T = run.call("logic.parser", parse_theory, text)
    printed = run.call("logic.parser", print_theory, T)
    run.check("print/parse round trip", run.call("logic.parser", parse_theory, printed) == T)
    res = run.call("logic.chase", chase, T, max_fresh=MAX_FRESH)
    run.count("logic.chase.rounds", res.rounds)
    if res.status == "exhausted":
        run.count("logic.chase.exhausted")
        run.mark_inconclusive()
    else:
        expected = "refuted" if inconsistent else "model"
        run.check(f"chase status {res.status}, expected {expected}", res.status == expected)
    if res.status == "model":
        run.check("chase model satisfies the theory",
                  run.call("logic.chase", res.model.satisfies_theory))
    size = None if res.model is None else sum(map(len, res.model.sorts.values()))
    return [res.status, res.rounds, size]


def family_category(run, text, size):
    T = run.call("logic.parser", parse_theory, text)
    models = run.call("logic.models", enumerate_models, T, size)
    run.count("logic.models.models", len(models))
    fam = run.call("logic.models", ModelFamily.build, models)
    return run.budgeted("logic.models", FamilyCategory, T, fam), len(models)


def family_job(text, size, run):
    C, models = family_category(run, text, size)
    if C is None:
        return [models, None]
    for check in (check_m1, check_m2, check_m3):
        run.check(check.__name__, run.call("logic.models", check, C).passed)
    rep = run.call("logic.models", sigma_bar_check, C)
    run.check("sigma-bar is a frame isomorphism", rep.passed)
    return [models, len(C.cat.morphisms)]


def drop_job(text, run):
    """Removing the designated model flips exactly M2 and the embedding."""
    C, models = family_category(run, text, 2)
    if C is None:
        return [models, None]
    drop = designated_model_index(C)
    keep = tuple(i for i in range(models) if i != drop)
    run.check("M1 survives the drop", run.call("logic.models", check_m1, C, keep).passed)
    run.check("M2 fails after the drop", not run.call("logic.models", check_m2, C, keep).passed)
    run.check("M3 survives the drop", run.call("logic.models", check_m3, C, keep).passed)
    rep = run.call("logic.models", sigma_bar_check, C, require_conditions=False, indices=keep)
    run.check("embedding fails after the drop", not rep.embedding.passed)
    run.check(
        "the other sigma-bar conditions survive",
        rep.naturality.passed and rep.exists_preservation.passed and rep.surjectivity.passed,
    )
    return [models, drop]
