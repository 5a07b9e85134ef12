"""CLI contract: subcommands, exit codes, report determinism, DOT export."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cohext.fixtures import FIXTURE_DIR

PKG = Path(__file__).resolve().parents[1]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cohext.cli", *args],
        capture_output=True, text=True, cwd=PKG,
        env={**os.environ, "PYTHONPATH": str(PKG / "src")},
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


def test_hyper_validate_and_canext_pass():
    r = run_cli("hyper", "validate", fx("three_chain.hyp.json"))
    assert r.returncode == 0
    r = run_cli("hyper", "canext", fx("three_chain.hyp.json"))
    assert r.returncode == 0


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
    r = run_cli("--budget", "4", "tot", "sheaf-check", fx("one_point.cat.json"))
    assert r.returncode == 1
    data = json.loads(r.stdout)
    check = {c["name"]: c for c in data["checks"]}["topology-coincidence"]
    assert not data["pass"] and not check["pass"]
    assert check["witness"].startswith("sieve budget exhausted at")


def test_predcat_budget_cut_is_a_located_error():
    r = run_cli("--budget", "2", "predcat", "build", fx("three_chain.latcat.json"))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: predicate-category enumeration needs")
    assert "budget is 2" in r.stderr


def test_sieve_budget_cut_fails_sheaf_check_and_keeps_the_report():
    r = run_cli("--budget", "8", "tot", "sheaf-check", fx("diamond.latcat.json"))
    assert r.returncode == 1
    data = json.loads(r.stdout)
    checks = {c["name"]: c for c in data["checks"]}
    assert list(checks) == ["sheaf", "unique-glueing", "topology-coincidence"]
    assert not data["pass"] and not checks["sheaf"]["pass"]
    assert checks["sheaf"]["witness"].startswith("sieve enumeration on ")
    assert "COHEXT_SIEVE_BUDGET" in checks["sheaf"]["witness"]


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


def test_enumerate_counts_and_refusal():
    r = run_cli("enumerate", "dl", "--max", "5")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["checks"][0]["data"]["count"] == 8
    r = run_cli("enumerate", "dl", "--max", "8")
    assert r.returncode == 0
    assert json.loads(r.stdout)["checks"][0]["data"]["count"] == 36
    r = run_cli("enumerate", "dl", "--max", "9")
    assert r.returncode == 2 and "estimate" in r.stderr
    r = run_cli("enumerate", "cat", "--max", "2")
    assert r.returncode == 0


def test_enumerate_emits_json_lines():
    r = run_cli("enumerate", "dl", "--max", "4", "--emit")
    lines = [l for l in r.stdout.splitlines() if l.startswith("{\"elements\"")]
    assert len(lines) == 5
    for line in lines:
        json.loads(line)


def test_every_shipped_fixture_loads_and_validates():
    from cohext.hyperdoctrine import validate
    from cohext.jsonio import load_category, load_hyperdoctrine, load_lattice
    from cohext.logic.parser import parse_theory

    for p in sorted(FIXTURE_DIR.glob("*.lat.json")):
        load_lattice(p)
    for p in sorted(FIXTURE_DIR.glob("*.json")):
        if p.name.endswith((".cat.json", ".latcat.json")):
            load_category(p)
    for p in sorted(FIXTURE_DIR.glob("*.chr")):
        parse_theory(p.read_text())
    assert validate(load_hyperdoctrine(FIXTURE_DIR / "three_chain.hyp.json")).passed
    # the deliberately broken fixture loads but fails validation, by design
    rep = validate(load_hyperdoctrine(FIXTURE_DIR / "broken_exists.hyp.json"))
    assert not rep.passed
