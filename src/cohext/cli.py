"""Command-line entry point.

Exit codes: 0 when every check passes, 1 when a check fails (the report
carries witnesses), 2 on usage errors.  Reports are JSON on stdout, or a
file with --out.  --budget bounds the items each bounded search enumerates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .canext import canonical_extension, check_compact, check_dense
from .catalog import concrete_universes, distributive_lattices
from .cohcat import ConcreteCohCategory, LatticeCategory, lattice_hom_functor
from .fincat import category_law_failures
from .jsonio import (
    category_from_json,
    category_to_dot,
    hom_from_json,
    hyperdoctrine_from_json,
    lattice_from_json,
    lattice_to_json,
    located,
    model_from_json,
    model_to_json,
)
from .lattice import prime_filters
from .order import BudgetError
from .report import Report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = (
        ("--budget", args.budget, 1),
        ("--max-size", getattr(args, "max_size", None), 1),
        ("--max-fresh", getattr(args, "max_fresh", None), 0),
        ("--rounds", getattr(args, "rounds", None), 1),
        ("--max", getattr(args, "max", None), 0),
    )
    for flag, value, least in flags:
        if value is not None and value < least:
            parser.error(f"argument {flag}: must be an integer >= {least}, not {value}")
    if not hasattr(args, "run"):
        parser.print_help()
        return 2
    report = Report(command=args.command, seed=getattr(args, "seed", None))
    t0 = time.monotonic()
    try:
        args.run(args, report)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if getattr(args, "timing", False):
        report.timing_ms = round((time.monotonic() - t0) * 1000, 3)
    text = report.render()
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cohext",
        description="finite workbench for canonical extensions, predicate "
        "categories, type-space sites, and coherent-logic model checks",
    )
    p.add_argument("--out", help="write the JSON report to a file")
    p.add_argument("--timing", action="store_true", help="include wall time")
    p.add_argument("--budget", type=int, help="items a search may enumerate, >= 1")
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("canext", help="canonical extension of a lattice file")
    c.add_argument("lattice")
    c.set_defaults(run=cmd_canext)

    h = sub.add_parser("hyper", help="hyperdoctrine checks")
    hsub = h.add_subparsers(dest="subcommand", required=True)
    hv = hsub.add_parser("validate")
    hv.add_argument("hyperdoctrine")
    hv.set_defaults(run=cmd_hyper_validate)
    hc = hsub.add_parser("canext")
    hc.add_argument("hyperdoctrine")
    hc.set_defaults(run=cmd_hyper_canext)

    pc = sub.add_parser("predcat", help="predicate-category constructions")
    psub = pc.add_subparsers(dest="subcommand", required=True)
    pb = psub.add_parser("build")
    pb.add_argument("category")
    pb.add_argument("--dot", help="write a DOT rendering to a file")
    pb.set_defaults(run=cmd_predcat_build)
    pk = psub.add_parser("counit-check")
    pk.add_argument("category")
    pk.set_defaults(run=cmd_predcat_counit)
    pe = psub.add_parser("canext")
    pe.add_argument("category")
    pe.set_defaults(run=cmd_predcat_canext)
    pm = psub.add_parser("pmodel-check")
    pm.add_argument("category")
    pm.set_defaults(run=cmd_predcat_pmodel)

    t = sub.add_parser("tot", help="type-space sites and locale checks")
    tsub = t.add_subparsers(dest="subcommand", required=True)
    ts = tsub.add_parser("site")
    ts.add_argument("category")
    ts.add_argument("--dot", help="write the type category to a DOT file")
    ts.set_defaults(run=cmd_tot_site)
    tc = tsub.add_parser("compare")
    tc.add_argument("category")
    tc.set_defaults(run=cmd_tot_compare)
    tsh = tsub.add_parser("sheaf-check")
    tsh.add_argument("category")
    tsh.set_defaults(run=cmd_tot_sheaf)
    tl = tsub.add_parser("locale-check")
    tl.add_argument("source", help="source lattice file")
    tl.add_argument("target", help="target lattice file")
    tl.add_argument("hom", help="JSON file with a {element: image} mapping")
    tl.set_defaults(run=cmd_tot_locale)

    ch = sub.add_parser("chase", help="forward-chaining model search")
    ch.add_argument("theory")
    ch.add_argument("--max-fresh", type=int, default=8)
    ch.add_argument("--rounds", type=int, default=64)
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--start", help="JSON model to start from")
    ch.set_defaults(run=cmd_chase)

    m = sub.add_parser("models", help="model-family checks")
    msub = m.add_subparsers(dest="subcommand", required=True)
    mm = msub.add_parser("check-m")
    mm.add_argument("theory")
    mm.add_argument("--max-size", type=int, default=2)
    mm.add_argument("--drop", type=int, help="drop the model at this index")
    mm.set_defaults(run=cmd_models_check)
    ms = msub.add_parser("sigma-bar")
    ms.add_argument("theory")
    ms.add_argument("--max-size", type=int, default=2)
    ms.add_argument("--drop", type=int)
    ms.set_defaults(run=cmd_models_sigma)

    e = sub.add_parser("enumerate", help="deterministic fixture streams")
    e.add_argument("kind", choices=["dl", "cat", "hyp"])
    e.add_argument("--max", type=int, required=True)
    e.add_argument("--emit", action="store_true", help="print one JSON per line")
    e.set_defaults(run=cmd_enumerate)
    return p


# -- command bodies -----------------------------------------------------------


def read_json(report: Report, path):
    """The JSON in the file, read once: parsed from the bytes it hashed."""
    return json.loads(report.add_input(path))


def read_hyperdoctrine(report: Report, path):
    return hyperdoctrine_from_json(read_json(report, path), Path(path).parent)


def cmd_canext(args, report: Report):
    L = lattice_from_json(read_json(report, args.lattice))
    ce = canonical_extension(L)
    report.check("iso", ce.is_iso())
    report.check("dense", check_dense(ce))
    report.check("compact", check_compact(ce, args.budget))
    report.check(
        "primeFilterCount", True,
        count=len(prime_filters(ce.base)), extSize=len(ce.ext.elements),
    )


def cmd_hyper_validate(args, report: Report):
    from .hyperdoctrine import validate

    P = read_hyperdoctrine(report, args.hyperdoctrine)
    for c in validate(P).checks:
        report.check(c.name, c.passed, c.witness)


def cmd_hyper_canext(args, report: Report):
    """The builders trust their input: tables that fail a law are refused."""
    from .hyperdoctrine import HyperdoctrineError, canext_hyperdoctrine, validate

    P = read_hyperdoctrine(report, args.hyperdoctrine)
    failed = validate(P).failures()
    if failed:
        c = failed[0]
        raise HyperdoctrineError(f"hyperdoctrine does not validate: {c.name}: {c.witness}")
    for c in validate(canext_hyperdoctrine(P)).checks:
        report.check(f"extension-{c.name}", c.passed, c.witness)


def cmd_predcat_build(args, report: Report):
    from .hyperdoctrine import sub_hyperdoctrine
    from .predcat import PredCategory

    C = category_from_json(read_json(report, args.category))
    AP = PredCategory(sub_hyperdoctrine(C), args.budget)
    check_category(report, "category-laws", AP.cat)
    if args.dot:
        Path(args.dot).write_text(category_to_dot(AP.cat, "PredCategory"))


def check_category(report: Report, name: str, cat, **data) -> bool:
    """The report line of a category a command builds, with its size:
    failed with the first witness against the category laws.  Returns
    whether the laws hold."""
    w = next(category_law_failures(cat), None)
    report.check(
        name, w is None, w,
        objects=len(cat.objects), morphisms=len(cat.morphisms), **data,
    )
    return w is None


def check_conditions(report: Report, rep) -> None:
    """One check per condition of an equivalence or comparison report,
    each with its own witness."""
    for name in rep.CONDITIONS:
        report.check(name, name not in rep.witnesses, rep.witnesses.get(name))


def cmd_predcat_counit(args, report: Report):
    from .predcat import counit_equivalence_check

    C = category_from_json(read_json(report, args.category))
    rep = counit_equivalence_check(C, args.budget)
    if rep.error:
        report.check("counit-built", False, rep.error)
        return
    report.check("counit-built", True)
    check_conditions(report, rep.equivalence)


def cmd_predcat_canext(args, report: Report):
    from .cohcat import coherent_functor_witness
    from .predcat import canonical_extension_category, check_coh_plus

    C = category_from_json(read_json(report, args.category))
    ext = canonical_extension_category(C, args.budget)
    if not check_category(report, "extension-built", ext.pred.cat):
        return
    w = coherent_functor_witness(ext.embedding, C, ext.coh)
    report.check("embedding-coherent", w is None, w)
    w = check_coh_plus(ext.coh)
    report.check("coh-plus", w is None, w)


def cmd_predcat_pmodel(args, report: Report):
    from .predcat import canonical_extension_category, pmodel_witness

    C = category_from_json(read_json(report, args.category))
    ext = canonical_extension_category(C, args.budget)
    w = pmodel_witness(ext.embedding, C, ext.coh)
    report.check("embedding-pmodel", w is None, w)


def cmd_tot_site(args, report: Report):
    from .sites import jp_site, type_category

    C = category_from_json(read_json(report, args.category))
    tau = type_category(C)
    site = jp_site(tau)
    check_category(
        report, "site-built", tau.cat,
        singletonCovers=sum(len(v) for v in site.generators.values()),
    )
    if args.dot:
        Path(args.dot).write_text(category_to_dot(tau.cat, "TypeCategory"))


def cmd_tot_compare(args, report: Report):
    from .hyperdoctrine import canext_hyperdoctrine, sub_hyperdoctrine
    from .sites import (
        comparison_check,
        irreducible_site,
        irreducible_to_types,
        jp_site,
        type_category,
    )

    C = category_from_json(read_json(report, args.category))
    X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    D = irreducible_site(C, X)
    tau = type_category(C)
    e = irreducible_to_types(C, X, D, tau)
    check_conditions(report, comparison_check(e, D, jp_site(tau)))


def cmd_tot_sheaf(args, report: Report):
    from .hyperdoctrine import canext_hyperdoctrine, sub_hyperdoctrine
    from .sites import sheaf_check, topology_coincidence_check, unique_glueing_check

    C = category_from_json(read_json(report, args.category))
    X = canext_hyperdoctrine(sub_hyperdoctrine(C))
    # a budget cut fails its check with the cut as witness; the rest still run
    try:
        report.check("sheaf", *sheaf_check(C, X, args.budget))
    except BudgetError as e:
        report.check("sheaf", False, str(e))
    report.check("unique-glueing", *unique_glueing_check(C, X))
    try:
        ok, n, w = topology_coincidence_check(C, X, args.budget)
        report.check("topology-coincidence", ok, w, generatedSievesChecked=n)
    except BudgetError as e:
        report.check("topology-coincidence", False, str(e))


def cmd_tot_locale(args, report: Report):
    from .sites import locale_morphism, open_check, surjection_check

    def read(path, build, *context):
        # an error in the data of one of the three files names that file
        return located(path, lambda: build(read_json(report, path), *context))

    def lattice_category(data):
        return LatticeCategory(lattice_from_json(data))

    CL = read(args.source, lattice_category)
    CK = read(args.target, lattice_category)
    h = read(args.hom, hom_from_json, CL.lattice, CK.lattice)
    F = lattice_hom_functor(h, CL, CK)
    m = locale_morphism(F, CL, CK)
    ok, w = surjection_check(m)
    report.check("surjection", ok, w)
    ok, w = open_check(m)
    report.check("open", ok, w)


def cmd_chase(args, report: Report):
    from .logic.chase import chase
    from .logic.parser import parse_theory

    T = parse_theory(report.add_input(args.theory).decode())
    start = None
    if args.start:
        start = model_from_json(T, read_json(report, args.start))
    res = chase(
        T, max_fresh=args.max_fresh, max_rounds=args.rounds,
        seed=args.seed, start=start,
    )
    report.seed = args.seed
    report.check(
        "chase", res.status == "model", res.note,
        status=res.status, rounds=res.rounds,
        model=model_to_json(res.model) if res.model else None,
    )


def _family_setup(args, report):
    from .logic.models import FamilyCategory, ModelFamily, enumerate_models
    from .logic.parser import parse_theory

    T = parse_theory(report.add_input(args.theory).decode())
    models = enumerate_models(T, args.max_size)
    if args.drop is not None and not 0 <= args.drop < len(models):
        last = len(models) - 1
        raise ValueError(f"argument --drop: must be in 0..{last}, not {args.drop}")
    fam = ModelFamily.build(models, args.budget)
    C = FamilyCategory(T, fam, sub_budget=args.budget)
    indices = None
    if args.drop is not None:
        indices = tuple(i for i in range(len(models)) if i != args.drop)
    return C, indices, len(models)


def cmd_models_check(args, report: Report):
    from .logic.models import TERM_DEPTH, check_m1, check_m2, check_m3

    C, indices, n = _family_setup(args, report)
    report.check(
        "family-size", True, models=n, dropped=args.drop,
        note=f"base category is a semantic distillation (term depth {TERM_DEPTH}), "
        "an approximation of the syntactic category",
    )
    for rep in (check_m1(C, indices), check_m2(C, indices), check_m3(C, indices)):
        report.check(rep.name, rep.passed, rep.witness)


def cmd_models_sigma(args, report: Report):
    from .logic.models import sigma_bar_check

    C, indices, _ = _family_setup(args, report)
    rep = sigma_bar_check(
        C, require_conditions=False, indices=indices, budget=args.budget
    )
    for r in (rep.naturality, rep.exists_preservation, rep.embedding, rep.surjectivity):
        report.check(r.name, r.passed, r.witness)


def cmd_enumerate(args, report: Report):
    if args.kind == "dl":
        lats = distributive_lattices(args.max)
        if args.emit:
            for L in lats:
                sys.stdout.write(json.dumps(lattice_to_json(L)) + "\n")
        report.check(
            "enumerated", True,
            count=len(lats), sizes=[len(L.elements) for L in lats],
        )
    elif args.kind == "cat":
        seeds = concrete_universes(args.max)
        cats = [ConcreteCohCategory(s) for s in seeds]
        if args.emit:
            from .jsonio import category_to_json

            for C in cats:
                sys.stdout.write(json.dumps(category_to_json(C)) + "\n")
        report.check(
            "enumerated", True,
            count=len(cats), objects=[len(C.sets) for C in cats],
        )
    else:
        lats = distributive_lattices(args.max)
        descriptors = [
            {"shape": "subobjects-of-lattice", "lattice": lattice_to_json(L)}
            for L in lats
        ] + [
            {"shape": "powersets-of-fragment", "points": k}
            for k in range(1, min(args.max, 3) + 1)
        ]
        if args.emit:
            for d in descriptors:
                sys.stdout.write(json.dumps(d) + "\n")
        report.check("enumerated", True, count=len(descriptors))


if __name__ == "__main__":
    sys.exit(main())
