"""Every bounded search raises the one `order.BudgetError` when its budget
runs out: each refuses one below its exact need and finishes at it."""

import pytest

from cohext import predcat, sites
from cohext.canext import canonical_extension, check_compact
from cohext.cohcat import LatticeCategory
from cohext.hyperdoctrine import canext_hyperdoctrine, sub_hyperdoctrine
from cohext.logic.models import (
    DistillationBudget,
    Evaluation,
    FamilyCategory,
    ModelFamily,
    enumerate_models,
)
from cohext.logic.parser import parse_theory
from cohext.order import BudgetError
from helpers import boolean4, chain_lattice, fixture_path


def extended_boolean4():
    C = LatticeCategory(boolean4())
    return C, canext_hyperdoctrine(sub_hyperdoctrine(C))


def pred_category_search():
    _, X = extended_boolean4()
    return lambda budget: predcat.PredCategory(X, budget), 25


def sieve_search():
    C, X = extended_boolean4()
    site = sites.semidirect_site(C, X)
    A = max(site.cat.objects, key=lambda A: len(site.cat.morphisms_into(A)))
    return lambda budget: site.all_sieves(A, budget), len(site.all_sieves(A))


def matching_family_search():
    C, X = extended_boolean4()
    top = C.lattice.top
    sieve = sites.coherent_topology(C).covering_sieves(top)[-1]
    need = len(sites._matching_families(C, X, sieve))
    return lambda budget: sites._matching_families(C, X, sieve, budget), need


def compactness_search():
    ce = canonical_extension(chain_lattice(3))
    return lambda budget: check_compact(ce, budget), 1 << 3


def ordered_family():
    T = parse_theory(fixture_path("ordered.chr").read_text())
    return T, ModelFamily.build(enumerate_models(T, 2))


def reach_search():
    models = enumerate_models(parse_theory(fixture_path("ordered.chr").read_text()), 2)
    return lambda budget: ModelFamily.build(models, budget), len(models) ** 2


def distillation_search():
    T, fam = ordered_family()
    C = FamilyCategory(T, fam)
    need = sum(len(C.sub_lattice(s).elements) for s in C.sorts)
    return lambda budget: FamilyCategory(T, fam, sub_budget=budget), need


def subfunctor_search():
    ev = Evaluation(FamilyCategory(*ordered_family()))
    return lambda budget: ev._subfunctors("A", budget), len(ev._subfunctors("A"))


SEARCHES = (
    pred_category_search,
    sieve_search,
    matching_family_search,
    compactness_search,
    reach_search,
    distillation_search,
    subfunctor_search,
)


@pytest.mark.parametrize("search", SEARCHES, ids=lambda s: s.__name__)
def test_search_refuses_below_its_need_and_finishes_at_it(search):
    run, need = search()
    assert need > 1
    with pytest.raises(BudgetError):
        run(need - 1)
    run(need)


@pytest.mark.parametrize(
    "search",
    (
        sieve_search,
        matching_family_search,
        compactness_search,
        reach_search,
        distillation_search,
        subfunctor_search,
    ),
    ids=lambda s: s.__name__,
)
def test_cut_message_tells_how_to_proceed(search):
    run, need = search()
    with pytest.raises(BudgetError) as e:
        run(need - 1)
    assert str(e.value).endswith("; raise --budget")


def test_one_budget_error_class():
    assert issubclass(BudgetError, ValueError)
    assert predcat.BudgetError is BudgetError
    assert issubclass(DistillationBudget, BudgetError)
    assert not issubclass(sites.SiteError, BudgetError)
