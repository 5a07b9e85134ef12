"""CLI contract: subcommands, exit codes, report determinism, DOT export."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_fincat import category_law_failures_oracle

from cohext.cli import main
from cohext.fincat import FinCategory, FinFunctor, category_law_failures, composable_pairs
from cohext.fixtures import FIXTURE_DIR
from cohext.hyperdoctrine import sub_hyperdoctrine
from cohext.jsonio import load_category
from cohext.predcat import PredCategory, search_budget
from cohext.sites import sieve_budget

PKG = Path(__file__).resolve().parents[1]


def run_cli(*args, timeout=None, stdin=None, hash_seed=None):
    """Run the CLI in a child process whose environment holds only its
    import path (and `PYTHONHASHSEED`, if `hash_seed` is given), so no
    variable of the caller's can change its reports; `stdin` is the text
    piped to it."""
    env = {"PYTHONPATH": str(PKG / "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "cohext.cli", *args],
        capture_output=True, text=True, cwd=PKG, input=stdin,
        env=env, timeout=timeout,
    )


def fx(name):
    return str(FIXTURE_DIR / name)


def test_canext_report_shape_and_exit():
    r = run_cli("canext", fx("diamond.lat.json"))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["pass"] is True
    names = {c["name"]: c for c in data["checks"]}
    assert names["iso"]["pass"] and names["dense"]["pass"] and names["compact"]["pass"]
    assert names["primeFilterCount"]["data"]["count"] == 2


def test_unknown_flag_exits_2():
    r = run_cli("canext", "--frobnicate", fx("diamond.lat.json"))
    assert r.returncode == 2


def test_missing_file_exits_2():
    r = run_cli("canext", "no-such-file.json")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_reports_byte_identical_across_runs():
    r1 = run_cli("tot", "compare", fx("three_chain.latcat.json"))
    r2 = run_cli("tot", "compare", fx("three_chain.latcat.json"))
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_check_failure_exits_1_with_witness():
    r = run_cli("hyper", "validate", fx("broken_exists.hyp.json"))
    assert r.returncode == 1
    data = json.loads(r.stdout)
    assert not data["pass"]
    assert any("witness" in c for c in data["checks"] if not c["pass"])


def test_each_comparison_check_carries_only_its_own_witness(monkeypatch, capsys):
    import cohext.sites
    from cohext.fixtures import mutated_comparison_source
    from cohext.hyperdoctrine import canext_hyperdoctrine

    # a non-covering generator breaks cover preservation and nothing else
    C = load_category(fx("three_chain.latcat.json"))
    mutated = mutated_comparison_source(C, canext_hyperdoctrine(sub_hyperdoctrine(C)))
    monkeypatch.setattr(cohext.sites, "irreducible_site", lambda C, X: mutated)
    assert main(["tot", "compare", fx("three_chain.latcat.json")]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == ["cover-preserving"]
    assert [c["name"] for c in checks if "witness" in c] == ["cover-preserving"]


def dropping_a_composite(built, pick):
    """A stand-in for `FinCategory` that drops the composite of the
    composable pair of non-identities `pick` chooses from them, in table
    order, and appends each category it builds to `built`."""

    def breaking(objects, morphisms, comp, identities):
        ids = set(identities.values())
        f, g = pick(
            (f, g) for f, g in composable_pairs(morphisms)
            if f.name not in ids and g.name not in ids
        )
        comp = {k: v for k, v in comp.items() if k != (g.name, f.name)}
        built.append(FinCategory(objects, morphisms, comp, identities))
        return built[-1]

    return breaking


@pytest.mark.parametrize("module, args, line", [
    ("predcat", ["predcat", "build", "three_chain.latcat.json"], "category-laws"),
    ("predcat", ["predcat", "counit-check", "one_point.cat.json"], "counit-built"),
    ("predcat", ["predcat", "canext", "three_chain.latcat.json"], "extension-built"),
    ("sites", ["tot", "site", "three_chain.latcat.json"], "site-built"),
])
def test_a_broken_category_fails_its_report_line_with_the_first_witness(
    monkeypatch, capsys, module, args, line
):
    """The category a command builds loses the composite of its first
    composable pair of non-identities."""
    built = []
    breaking = dropping_a_composite(built, next)
    monkeypatch.setattr(importlib.import_module(f"cohext.{module}"), "FinCategory", breaking)
    assert main([*args[:-1], fx(args[-1])]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not checks[line]["pass"]
    assert checks[line]["witness"] == next(category_law_failures(built[-1]))
    assert checks[line]["witness"] == next(category_law_failures_oracle(built[-1]))
    assert checks[line]["witness"].startswith("missing composite")


def test_a_broken_extension_ends_the_canext_report(monkeypatch, capsys):
    """A(S^delta) loses the composite of its last composable pair of
    non-identities, which the checks after `extension-built` would read."""
    import cohext.predcat

    built = []
    breaking = dropping_a_composite(built, lambda pairs: list(pairs)[-1])
    monkeypatch.setattr(cohext.predcat, "FinCategory", breaking)
    assert main(["predcat", "canext", fx("three_chain.latcat.json")]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == ["extension-built"]
    assert not checks[0]["pass"]
    assert checks[0]["witness"] == next(category_law_failures(built[-1]))


def test_a_non_coherent_embedding_is_reported_with_its_witness(monkeypatch, capsys):
    """E_C is replaced by the functor constant at the image of the top, which
    sends every subobject to the top and so fails coherence."""
    from dataclasses import replace

    import cohext.predcat
    from cohext.cohcat import coherent_functor_witness

    build = cohext.predcat.canonical_extension_category
    broken = []

    def constant_embedding(C, budget=None):
        ext = build(C, budget)
        E = ext.embedding
        T = E.on_obj(C.terminal())
        F = FinFunctor(
            C.cat, E.target, {A: T for A in C.cat.objects},
            {f: E.target.identity(T) for f in C.cat.morphisms},
        )
        broken.append((F, C, ext.coh))
        return replace(ext, embedding=F)

    monkeypatch.setattr(cohext.predcat, "canonical_extension_category", constant_embedding)
    assert main(["predcat", "canext", fx("three_chain.latcat.json")]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    w = coherent_functor_witness(*broken[0])
    assert w is not None
    assert checks["embedding-coherent"] == {"name": "embedding-coherent", "pass": False, "witness": w}


def test_hyper_validate_and_canext_pass():
    r = run_cli("hyper", "validate", fx("three_chain.hyp.json"))
    assert r.returncode == 0
    r = run_cli("hyper", "canext", fx("three_chain.hyp.json"))
    assert r.returncode == 0


def test_hyper_canext_refuses_an_input_that_fails_a_law():
    # the library trusts its input, so the command validates what it read
    r = run_cli("hyper", "canext", fx("broken_exists.hyp.json"))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (
        "error: hyperdoctrine does not validate: exists-left-adjoint: "
        "adjunction fails at le(c0,c2) on (c0,c0)\n"
    )


def test_predcat_subcommands():
    assert run_cli("predcat", "build", fx("three_chain.latcat.json")).returncode == 0
    assert run_cli("predcat", "counit-check", fx("one_point.cat.json")).returncode == 0
    assert run_cli("predcat", "canext", fx("three_chain.latcat.json")).returncode == 0
    assert run_cli("predcat", "pmodel-check", fx("diamond.latcat.json")).returncode == 0


def test_tot_subcommands(tmp_path):
    dot = tmp_path / "tau.dot"
    r = run_cli("tot", "site", fx("three_chain.latcat.json"), "--dot", str(dot))
    assert r.returncode == 0
    assert dot.read_text().startswith("digraph")
    assert run_cli("tot", "sheaf-check", fx("diamond.latcat.json")).returncode == 0
    r = run_cli(
        "tot", "locale-check",
        fx("two_chain.lat.json"), fx("three_chain.lat.json"), fx("embed_2_3.hom.json"),
    )
    assert r.returncode == 0
    r = run_cli(
        "tot", "locale-check",
        fx("three_chain.lat.json"), fx("two_chain.lat.json"), fx("collapse_3_2.hom.json"),
    )
    assert r.returncode == 1
    data = json.loads(r.stdout)
    by_name = {c["name"]: c for c in data["checks"]}
    assert not by_name["surjection"]["pass"] and by_name["surjection"]["witness"]
    assert not by_name["open"]["pass"]


def test_budget_exhausted_coincidence_check_is_not_a_pass():
    r = run_cli("--budget", "2", "tot", "sheaf-check", fx("one_point.cat.json"))
    assert r.returncode == 1
    data = json.loads(r.stdout)
    check = {c["name"]: c for c in data["checks"]}["topology-coincidence"]
    assert not data["pass"] and not check["pass"]
    assert check["witness"] == (
        "after 3 generated sieves checked, generated sieves on <{x};{{{x}}}> exceed 2; "
        "raise --budget"
    )


def test_predcat_budget_cut_is_a_located_error():
    r = run_cli("--budget", "2", "predcat", "build", fx("three_chain.latcat.json"))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: predicate-category enumeration needs")
    assert "budget is 2" in r.stderr


def test_sieve_budget_cut_fails_sheaf_check_and_keeps_the_report():
    r = run_cli("--budget", "4", "tot", "sheaf-check", fx("diamond.latcat.json"))
    assert r.returncode == 1
    data = json.loads(r.stdout)
    checks = {c["name"]: c for c in data["checks"]}
    assert list(checks) == ["sheaf", "unique-glueing", "topology-coincidence"]
    assert not data["pass"] and not checks["sheaf"]["pass"]
    assert checks["sheaf"]["witness"] == (
        "sieve enumeration on 1 exceeds 4 sieves; raise --budget"
    )
    assert not checks["topology-coincidence"]["pass"]
    assert checks["topology-coincidence"]["witness"] == (
        "after 11 generated sieves checked, generated sieves on <1;{}> exceed 4; "
        "raise --budget"
    )


def test_budget_bounds_the_compactness_check():
    r = run_cli("--budget", "3", "canext", fx("diamond.lat.json"))
    assert r.returncode == 2
    assert r.stderr == (
        "error: compactness check tabulates 2^4 subsets, over 3; raise --budget\n"
    )
    assert run_cli("--budget", "16", "canext", fx("diamond.lat.json")).returncode == 0


def test_budget_flag_leaves_later_calls_in_the_process_unchanged(capsys):
    three_chain = fx("three_chain.latcat.json")
    assert main(["--budget", "3", "predcat", "build", three_chain]) == 2
    assert main(["--budget", "2", "tot", "sheaf-check", fx("one_point.cat.json")]) == 1
    capsys.readouterr()
    assert (search_budget(), sieve_budget()) == (200_000, 4096)
    AP = PredCategory(sub_hyperdoctrine(load_category(three_chain)))
    assert len(AP.cat.objects) > 3


def test_budget_below_one_is_a_usage_error():
    for budget in ("0", "-3"):
        r = run_cli("--budget", budget, "tot", "sheaf-check", fx("one_point.cat.json"))
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"--budget: must be an integer >= 1, not {budget}" in r.stderr


def test_bounds_below_their_minimum_are_usage_errors():
    chase = ["chase", fx("pointed.chr")]
    cases = [
        (chase, "--max-fresh", 0, "-1"),
        (chase, "--rounds", 1, "0"),
        (chase, "--rounds", 1, "-2"),
    ] + [(["enumerate", kind], "--max", 0, "-1") for kind in ("dl", "cat", "hyp")]
    for args, flag, least, value in cases:
        r = run_cli(*args, flag, value)
        assert r.returncode == 2 and r.stdout == ""
        assert f"{flag}: must be an integer >= {least}, not {value}" in r.stderr


def test_chase_command_reports_model():
    r = run_cli("chase", fx("pointed.chr"))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["checks"][0]["data"]["status"] == "model"
    assert data["seed"] == 0


def test_models_commands():
    r = run_cli("models", "check-m", fx("pointed.chr"), "--max-size", "2")
    assert r.returncode == 0
    r = run_cli("models", "sigma-bar", fx("pointed.chr"), "--max-size", "2")
    assert r.returncode == 0


def test_budget_cuts_the_models_commands_with_a_located_error():
    # one model, so its one model pair is within every budget and the
    # subobject closure (2 families) is the first search a budget cuts
    for cmd in ("check-m", "sigma-bar"):
        args = ("models", cmd, fx("pointed.chr"), "--max-size", "1")
        r = run_cli("--budget", "1", *args)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: subobject closure exceeds 1 families; raise --budget\n"
        assert run_cli("--budget", "2", *args).returncode == 0


def test_budget_bounds_the_model_pairs_of_a_family():
    # pointed.chr has 6 models of size <= 3, so 36 ordered pairs
    args = ("models", "check-m", fx("pointed.chr"), "--max-size", "3")
    for budget in ("8", "35"):
        r = run_cli("--budget", budget, *args)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == (
            f"error: model family of 6 models exceeds {budget} model pairs; "
            "raise --budget\n"
        )
    assert run_cli("--budget", "36", *args).returncode == 0


def test_model_flags_out_of_range_are_usage_errors():
    # pointed.chr has 3 models of size <= 2, so valid drops are 0..2
    for cmd in ("check-m", "sigma-bar"):
        for drop in ("99", "-1", "3"):
            r = run_cli(
                "models", cmd, fx("pointed.chr"), "--max-size", "2", "--drop", drop
            )
            assert r.returncode == 2 and r.stdout == ""
            assert f"--drop: must be in 0..2, not {drop}" in r.stderr
        r = run_cli("models", cmd, fx("pointed.chr"), "--max-size", "0")
        assert r.returncode == 2 and r.stdout == ""
        assert "--max-size: must be an integer >= 1, not 0" in r.stderr
    r = run_cli("models", "check-m", fx("pointed.chr"), "--drop", "0")
    assert r.returncode in (0, 1)
    assert json.loads(r.stdout)["checks"][0]["data"]["dropped"] == 0


def test_models_refuse_sorts_that_share_element_names(tmp_path):
    theory = tmp_path / "clash.chr"
    theory.write_text("sort A\nsort a\nfun f : A -> a\n")
    r = run_cli("models", "check-m", str(theory), "--max-size", "2")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: sorts A and a share the element name a0")


def test_chase_start_must_be_a_model_of_the_theory(tmp_path):
    r = run_cli("chase", fx("pointed.chr"), "--start", fx("two_chain.lat.json"))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: model needs 'sorts'")
    assert "Traceback" not in r.stderr
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"sorts": {"A": ["a"]}, "relations": {"P": [["a"]]}}))
    r = run_cli("chase", fx("pointed.chr"), "--start", str(start))
    assert r.returncode == 0
    model = json.loads(r.stdout)["checks"][0]["data"]["model"]
    assert model["sorts"]["A"][0] == "a" and ["a"] in model["relations"]["P"]


def test_enumerate_counts_and_refusal():
    r = run_cli("enumerate", "dl", "--max", "5")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["checks"][0]["data"]["count"] == 8
    r = run_cli("enumerate", "dl", "--max", "8")
    assert r.returncode == 0
    assert json.loads(r.stdout)["checks"][0]["data"]["count"] == 36
    r = run_cli("enumerate", "dl", "--max", "9")
    assert r.returncode == 0
    assert json.loads(r.stdout)["checks"][0]["data"]["count"] == 62
    r = run_cli("enumerate", "cat", "--max", "2")
    assert r.returncode == 0


def test_enumerate_refuses_fragments_over_more_than_three_points():
    r = run_cli("enumerate", "cat", "--max", "4")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: concrete fragments supported up to 3 points\n"


def test_a_piped_theory_is_read_once_and_parsed(tmp_path):
    # c is a free variable here, so the theory holds in the empty model of
    # its one sort; a second read of the pipe would parse an empty theory
    text = "sort A\nrel P : A\ntrue |- P(c)\n"
    piped = run_cli("chase", "/dev/stdin", stdin=text, timeout=30)
    assert piped.returncode == 0
    model = json.loads(piped.stdout)["checks"][0]["data"]["model"]
    assert model == {"sorts": {"A": []}, "functions": {}, "relations": {"P": []}}
    path = tmp_path / "t.chr"
    path.write_text(text)
    from_file = json.loads(run_cli("chase", str(path)).stdout)
    assert from_file["checks"] == json.loads(piped.stdout)["checks"]


def test_a_piped_theory_with_an_error_is_a_located_error():
    r = run_cli("chase", "/dev/stdin", stdin="sort A\nrel P : A\ntrue |- P(g(c))\n", timeout=30)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: unknown function g (line 3, column 11)\n"
    r = run_cli("canext", "/dev/stdin", stdin=(FIXTURE_DIR / "diamond.lat.json").read_text())
    assert r.returncode == 0 and json.loads(r.stdout)["pass"]


def test_enumerate_emits_json_lines():
    r = run_cli("enumerate", "dl", "--max", "4", "--emit")
    lines = [l for l in r.stdout.splitlines() if l.startswith("{\"elements\"")]
    assert len(lines) == 5
    for line in lines:
        json.loads(line)


def test_malformed_category_and_hyperdoctrine_files_are_located_errors(tmp_path):
    hyp = json.loads((FIXTURE_DIR / "broken_exists.hyp.json").read_text())
    hyp["base"] = fx(hyp["base"])
    no_subst = {k: v for k, v in hyp.items() if k != "subst"}
    unknown = {**hyp, "subst": {**hyp["subst"], "zz": {}}}
    swapped = {"c0": "c1", "c1": "c0", "c2": "c2"}
    not_monotone = {**hyp, "subst": {**hyp["subst"], "le(c2,c2)": swapped}}
    partial = {**hyp, "exists": {**hyp["exists"], "le(c1,c1)": {"c0": "c0"}}}
    antichain = {"elements": ["a", "b"], "leq": [["a", "a"], ["b", "b"]]}
    no_meet = {**hyp, "fibers": {**hyp["fibers"], "c2": antichain}}
    not_a_table = {**hyp, "exists": {**hyp["exists"], "le(c1,c1)": 5}}
    monotone = {"c0": "c1", "c1": "c1", "c2": "c2"}
    not_a_hom = {**hyp, "subst": {**hyp["subst"], "le(c2,c2)": monotone}}
    locale = ("tot", "locale-check", fx("two_chain.lat.json"), fx("three_chain.lat.json"))
    cases = [
        (("predcat", "build"), {"kind": "lattice"}, "'lattice'"),
        (("predcat", "build"), [1, 2], "'kind'"),
        (("predcat", "build"), {"kind": "concrete", "objects": {"X": 5}}, "object X"),
        (("hyper", "validate"), no_subst, "'subst'"),
        (("hyper", "validate"), unknown, "unknown morphism zz"),
        (("hyper", "validate"), not_monotone,
         "'subst' at le(c2,c2): not order-preserving on (c0,c1)"),
        (("hyper", "canext"), partial, "'exists' at le(c1,c1): map undefined on c1"),
        (("hyper", "validate"), no_meet, "fiber at c2: pair (a,b) has no meet"),
        (("hyper", "validate"), not_a_table,
         "'exists' at le(c1,c1) must map elements to elements"),
        (("canext",), {"elements": 5, "leq": []}, "'elements' must be a list"),
        (("canext",), {"elements": ["a"], "leq": 5}, "'leq' must be a list"),
        (("canext",), {"elements": ["a"], "leq": [["a", "a"]], "meet": [1]},
         "bad meet entry 1: not a triple"),
        (("canext",), {"elements": ["a", "a"], "leq": []}, "duplicate elements"),
        (("canext",), {"elements": ["a"], "leq": [["a", "b"]]},
         "relation pair (a,b) uses unknown element"),
        (("canext",), {"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]},
         "not antisymmetric"),
        (("hyper", "validate"), not_a_hom,
         "'subst' at le(c2,c2): not a lattice homomorphism"),
        (locale, 5, "hom JSON must be an object"),
        (locale, [], "hom JSON must be an object"),
    ]
    for i, (command, data, located) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(data))
        r = run_cli(*command, str(path))
        assert r.returncode == 2 and r.stdout == "", data
        assert r.stderr.startswith("error:") and located in r.stderr
        assert "Traceback" not in r.stderr


def test_locale_check_names_the_file_at_fault(tmp_path):
    antichain = {"elements": ["a", "b"], "leq": [["a", "a"], ["b", "b"]]}
    cases = [
        # a monotone map that is no hom, and a partial one
        ("hom", {"c0": "c0", "c1": "c1"}, "not a lattice homomorphism"),
        ("hom", {"c0": "c0"}, "map undefined on c1"),
        # a lattice with no meet of a and b, as the source and as the target
        ("source", antichain, "pair (a,b) has no meet"),
        ("target", antichain, "pair (a,b) has no meet"),
    ]
    for i, (role, data, message) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(data))
        files = {
            "source": fx("two_chain.lat.json"),
            "target": fx("three_chain.lat.json"),
            "hom": fx("embed_2_3.hom.json"),
            role: str(path),
        }
        r = run_cli("tot", "locale-check", files["source"], files["target"], files["hom"])
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {path}: {message}\n")


def test_a_non_distributive_input_is_refused_naming_its_file(tmp_path):
    m3 = {
        "elements": ["0", "a", "b", "c", "1"],
        "leq": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
    }
    files = {
        "m3.lat.json": m3,
        "id.json": {x: x for x in m3["elements"]},
        "m3.latcat.json": {"kind": "lattice", "lattice": m3},
        "sub.hyp.json": {"subobjects_of": "m3.latcat.json"},
        "inline.hyp.json": {"subobjects_of": {"kind": "lattice", "lattice": m3}},
        "base.hyp.json": {"base": "m3.latcat.json", "fibers": {}},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    lat, cat, hom = (str(tmp_path / n) for n in ("m3.lat.json", "m3.latcat.json", "id.json"))
    hyper = lambda name: ("hyper", "validate", str(tmp_path / name))
    cases = [
        (("tot", "locale-check", lat, lat, hom), lat),
        # M3 as the source of a valid target, and as the target of a valid
        # source: the file at fault is named, before the hom is read
        (("tot", "locale-check", lat, fx("two_chain.lat.json"), hom), lat),
        (("tot", "locale-check", fx("two_chain.lat.json"), lat, hom), lat),
        (hyper("sub.hyp.json"), cat),
        (hyper("inline.hyp.json"), "'subobjects_of'"),
        (hyper("base.hyp.json"), cat),
        # a command that reads one file names no file
        (("canext", lat), None),
    ]
    for args, at_fault in cases:
        r = run_cli(*args)
        where = "" if at_fault is None else f"{at_fault}: "
        refusal = f"error: {where}distributivity fails on triple (a,b,c)\n"
        assert (r.returncode, r.stdout, r.stderr) == (2, "", refusal), args


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_rejected_order_names_its_first_witness_whatever_the_hash_seed(
    tmp_path, hash_seed
):
    # antisymmetry fails on (a,b) and (b,a); an unknown element is named at
    # the first pair listed with one, never at a pair the closure adds
    cases = [
        ({"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "a"], ["b", "c"]]},
         "not antisymmetric on (a,b)"),
        ({"elements": ["a"], "leq": [["a", "b"], ["c", "a"]]},
         "relation pair (a,b) uses unknown element"),
        ({"elements": ["a"], "leq": [["c", "a"], ["a", "b"]]},
         "relation pair (c,a) uses unknown element"),
    ]
    for i, (data, message) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(data))
        r = run_cli("canext", str(path), hash_seed=hash_seed)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


def test_truncated_theory_is_a_located_error_not_a_hang(tmp_path):
    path = tmp_path / "truncated.chr"
    path.write_text("fun f : A")  # cut before the arrow
    r = run_cli("chase", str(path), timeout=30)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (
        "error: expected a sort name, found end of input (line 2, column 1)\n"
    )


def test_every_shipped_fixture_loads_and_validates():
    from cohext.hyperdoctrine import validate
    from cohext.jsonio import hyperdoctrine_from_json, load_category, load_lattice
    from cohext.logic.parser import parse_theory

    for p in sorted(FIXTURE_DIR.glob("*.lat.json")):
        load_lattice(p)
    for p in sorted(FIXTURE_DIR.glob("*.json")):
        if p.name.endswith((".cat.json", ".latcat.json")):
            load_category(p)
    for p in sorted(FIXTURE_DIR.glob("*.chr")):
        parse_theory(p.read_text())
    def load_hyperdoctrine(name):
        return hyperdoctrine_from_json(json.loads((FIXTURE_DIR / name).read_text()), FIXTURE_DIR)

    assert validate(load_hyperdoctrine("three_chain.hyp.json")).passed
    # the deliberately broken fixture loads but fails validation, by design
    rep = validate(load_hyperdoctrine("broken_exists.hyp.json"))
    assert not rep.passed
