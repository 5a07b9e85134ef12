"""site-sweep: the upper layers over DL(<=6) and the concrete fragments.

The jobs are the acceptance pairings of criteria 5-11 with the lattice
bound raised to 6, plus the two deliberately failing inputs.  Every job
receives its structure as JSON text and parses it through jsonio, the way
CLI files arrive, so no structure (and none of its cached methods) is
shared between jobs; only canext's extension cache is.  Here canext builds
many small fibre extensions once each, where canext-sweep reads a few
extensions many times.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from functools import partial
from pathlib import Path

from cohext.canext import canonical_extension
from cohext.catalog import distributive_lattices
from cohext.cohcat import ConcreteCohCategory, LatticeCategory
from cohext.fincat import FinFunctor, check_equivalence
from cohext.fixtures import mutated_comparison_source
from cohext.hyperdoctrine import canext_hyperdoctrine, sub_hyperdoctrine, validate
from cohext.jsonio import category_from_json, category_to_json, hyperdoctrine_from_json
from cohext.predcat import (
    canonical_extension_category,
    counit_equivalence_check,
    pmodel_check,
    pred_obj_name,
)
from cohext.sites import (
    comparison_check,
    irreducible_site,
    irreducible_to_types,
    jp_site,
    sheaf_check,
    topology_coincidence_check,
    type_category,
    unique_glueing_check,
)

LATTICES_PER_SIZE = (1, 1, 1, 2, 3, 5)
# The concrete fragments of the acceptance suite; the last one has no
# chosen products, so the predicate-category jobs skip it as criterion 8 does.
CONCRETE = ((("x",),), (("x",), ("y",)), (("x", "y"),))
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def setup(rng: random.Random, run) -> list[tuple[str, object]]:
    lats = run.call("catalog", distributive_lattices, 6)
    run.count("catalog.lattices", len(lats))
    sizes = Counter(len(L.elements) for L in lats)
    got = tuple(sizes[n] for n in range(1, 7))
    run.check(f"lattices per size {got}", got == LATTICES_PER_SIZE)

    cats = [run.call("cohcat", LatticeCategory, L) for L in lats]
    cats += [
        run.call("cohcat", ConcreteCohCategory, [frozenset(s) for s in seeds])
        for seeds in CONCRETE
    ]
    texts = [json.dumps(run.call("jsonio", category_to_json, C)) for C in cats]

    jobs = []
    for i, text in enumerate(texts):
        lattice = i < len(lats)
        jobs.append((f"hyper/{i}", partial(hyper_job, text)))
        if lattice or i < len(texts) - 1:
            jobs.append((f"predcat/{i}", partial(predcat_job, text)))
        if lattice:
            jobs.append((f"equiv/{i}", partial(equiv_job, text)))
        jobs.append((f"sheaf/{i}", partial(sheaf_job, text)))
        jobs.append((f"glue/{i}", partial(glue_job, text)))
        jobs.append((f"topology/{i}", partial(topology_job, text)))
        jobs.append((f"comparison/{i}", partial(comparison_job, text)))
    jobs.append(("broken-exists", partial(broken_exists_job, broken_exists_text())))
    chain3 = next(t for L, t in zip(lats, texts) if len(L.elements) == 3)
    jobs.append(("mutated-comparison", partial(mutated_comparison_job, chain3)))
    return jobs


def broken_exists_text() -> str:
    """The broken fixture with its base file inlined, so the job reads no
    file."""
    data = json.loads((FIXTURES / "broken_exists.hyp.json").read_text())
    data["base"] = json.loads((FIXTURES / data["base"]).read_text())
    return json.dumps(data)


def load(run, fn, text: str):
    run.count("jsonio.bytes", len(text))
    return run.call("jsonio", from_text, fn, text)


def from_text(fn, text: str):
    return fn(json.loads(text))


def extended(run, C):
    P = run.call("hyperdoctrine", sub_hyperdoctrine, C)
    return run.call("hyperdoctrine", canext_hyperdoctrine, P)


def hyper_job(text, run):
    P = load(run, hyperdoctrine_from_json, json.dumps({"subobjects_of": json.loads(text)}))
    laws = []
    for Q in (P, run.call("hyperdoctrine", canext_hyperdoctrine, P)):
        rep = run.call("hyperdoctrine", validate, Q)
        run.count("hyperdoctrine.laws", len(rep.checks))
        run.check("hyperdoctrine laws", rep.passed)
        laws.append(len(rep.checks))
    return laws


def predcat_job(text, run):
    C = load(run, category_from_json, text)
    ext = run.budgeted("predcat", canonical_extension_category, C)
    objects = None
    if ext is not None:
        objects = len(ext.pred.cat.objects)
        run.count("predcat.objects", objects)
        run.check("p-model", run.call("predcat", pmodel_check, ext.embedding, C, ext.coh))
    rep = run.budgeted("predcat", counit_equivalence_check, C)
    if rep is not None:
        run.check(f"counit equivalence: {rep.error}", rep.passed)
    return [objects]


def equiv_job(text, run):
    """Criterion 6: the extension of a lattice-as-category is equivalent
    to the category of its lattice's extension."""
    C = load(run, category_from_json, text)
    ext = run.budgeted("predcat", canonical_extension_category, C)
    if ext is None:
        return [None]
    run.count("predcat.objects", len(ext.pred.cat.objects))
    Ld = run.call("canext", canonical_extension, C.lattice).ext
    run.count("canext.extensions")
    LdC = run.call("cohcat", LatticeCategory, Ld)
    top = C.lattice.top
    by_ends = {}
    for n, r in ext.pred.rels.items():
        by_ends.setdefault((r.src_obj, r.src_elem, r.tgt_obj, r.tgt_elem), []).append(n)
    mor_map = {}
    for f, m in LdC.cat.morphisms.items():
        found = by_ends.get((top, m.src, top, m.tgt), [])
        run.check("one predicate morphism per order pair", len(found) == 1)
        mor_map[f] = found[0]
    obj_map = {u: pred_obj_name(top, u) for u in Ld.elements}
    F = run.call("fincat", FinFunctor, LdC.cat, ext.pred.cat, obj_map, mor_map)
    rep = run.call("fincat", check_equivalence, F)
    run.check(f"equivalence: {rep.witness}", rep.is_equivalence)
    run.check(
        "every object witnessed",
        all(X in rep.object_witnesses for X in ext.pred.cat.objects),
    )
    return [len(ext.pred.cat.objects)]


def sites_budgeted(run, fn, *args):
    out = run.budgeted("sites", fn, *args)
    if out is None:
        run.count("sites.inconclusive")
    return out


def sheaf_job(text, run):
    C = load(run, category_from_json, text)
    out = sites_budgeted(run, sheaf_check, C, extended(run, C))
    if out is not None:
        run.check(f"sheaf: {out[1]}", out[0])
    return [out is not None]


def glue_job(text, run):
    C = load(run, category_from_json, text)
    out = sites_budgeted(run, unique_glueing_check, C, extended(run, C))
    if out is not None:
        run.check(f"unique glueing: {out[1]}", out[0])
    return [out is not None]


def topology_job(text, run):
    """A sieve budget that runs out returns ok=True with a note; that is
    inconclusive, not a pass."""
    C = load(run, category_from_json, text)
    out = sites_budgeted(run, topology_coincidence_check, C, extended(run, C))
    if out is None:
        return [None]
    ok, checked, note = out
    run.count("sites.sieves", checked)
    if ok and note is not None:
        run.count("sites.inconclusive")
        run.mark_inconclusive()
    else:
        run.check(f"topologies coincide: {note}", ok)
    return [ok, checked, note is not None]


def comparison_parts(run, text, source):
    C = load(run, category_from_json, text)
    X = extended(run, C)
    D = run.call("sites", source, C, X)
    tau = run.call("sites", type_category, C)
    e = run.call("sites", irreducible_to_types, C, X, D, tau)
    target = run.call("sites", jp_site, tau)
    return sites_budgeted(run, comparison_check, e, D, target)


def comparison_job(text, run):
    rep = comparison_parts(run, text, irreducible_site)
    if rep is not None:
        run.check(f"comparison conditions: {rep.witness}", rep.passed)
    return [rep is not None]


def broken_exists_job(text, run):
    """The bumped existential table must fail validation with a witness."""
    P = load(run, hyperdoctrine_from_json, text)
    rep = run.call("hyperdoctrine", validate, P)
    run.count("hyperdoctrine.laws", len(rep.checks))
    failures = rep.failures()
    run.check("broken exists is rejected", not rep.passed)
    run.check("rejection has a witness", all(c.witness for c in failures))
    return [len(rep.checks), len(failures)]


def mutated_comparison_job(text, run):
    """A non-covering generator breaks cover preservation and nothing else."""
    rep = comparison_parts(run, text, mutated_comparison_source)
    if rep is None:
        return [None]
    run.check("mutation breaks cover preservation", not rep.cover_preserving)
    run.check("mutation has a witness", bool(rep.witness))
    run.check(
        "mutation keeps the other conditions",
        rep.locally_full and rep.locally_faithful
        and rep.locally_surjective and rep.co_continuous,
    )
    return [rep.cover_preserving]
