"""Procedural fixtures shared by the test suites and the benchmark: the
directory of shipped fixtures, a deliberately broken site for the
comparison check, and the designated corpus model for the model-family
checks."""

from __future__ import annotations

from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parents[2] / "fixtures"


def mutated_comparison_source(C_like, X):
    """The irreducible site with a non-covering family declared as a
    generator, so only cover preservation of the canonical functor into
    the type category fails."""
    from .sites import SemidirectSite, irreducible_site

    D = irreducible_site(C_like, X)
    fake_gens = dict(D.generators)
    # declare the empty family a generating cover everywhere; then every
    # sieve covers, and images of empty sieves are not covers downstream
    for A in D.cat.objects:
        fake_gens[A] = tuple(fake_gens[A]) + (tuple(),)

    def mutated_covers(A, sieve):
        return True

    return SemidirectSite(
        D.cat, mutated_covers, fake_gens,
        obj_data=D.obj_data, mor_data=D.mor_data,
    )


def designated_model_index(C) -> int:
    """The corpus member whose removal breaks realizability: the unique
    two-element model of the pointed-predicate theory with both elements
    in the predicate."""
    for i, M in enumerate(C.family.models):
        if len(M.sorts["A"]) == 2 and len(M.rels["P"]) == 2:
            return i
    raise ValueError("designated model not present; family bound changed?")
