"""Sweep benchmark for cohext.

    python3 perfbench/run.py --workload canext-sweep --seed 1 --seconds 35 --trace 0

Runs one workload (canext-sweep, site-sweep or model-sweep, see README.md)
as repeated cold sweeps, each in a fresh process started one at a time,
until --seconds have passed and at least MIN_ROUNDS sweeps ran.  With
--trace 0 it reports the end-to-end metrics as medians over the sweeps;
with --trace 1 it alternates untraced and traced sweeps and reports the
per-layer metrics from the traced ones, with the tracing overhead.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run metadata, per-sweep results and span files go to .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("canext-sweep", "site-sweep", "model-sweep")
MIN_ROUNDS = (3, 2)  # sweeps without tracing; pairs of sweeps with tracing
RUN_CAP_S = 170.0  # a whole run ends within 180 s even when a sweep hangs
GRACE_S = 10.0  # time a capped sweep gets to report before it is killed
STRIPPED_ENV = ("COHEXT_BUDGET", "COHEXT_SIEVE_BUDGET", "PYTHONPATH")


def source_digest() -> str:
    """Identifies the code measured: the checkout need not be a git repo."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env() -> dict:
    """The caller's environment without the budget overrides; string
    hashing fixed, so set and dict orders are the same in every sweep."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONHASHSEED"] = "0"
    return env


def one_sweep(workload, seed, traced, cap_s, env, spans_out) -> dict:
    cmd = [
        sys.executable, str(BENCH / "sweep.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)), "--cap-s", f"{cap_s:.3f}",
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    started = time.monotonic()
    cmd += ["--spawned-at", repr(started)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=cap_s + GRACE_S,
        )
    except subprocess.TimeoutExpired:
        return {"lost": f"killed after {cap_s + GRACE_S:.0f} s", "wall_s": time.monotonic() - started}
    wall_s = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"lost": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "wall_s": wall_s}
    out = json.loads(lines[-1])
    out["traced"] = traced
    out["wall_s"] = wall_s
    return out


def run_sweeps(workload, seed, seconds, trace) -> list[dict]:
    env = child_env()
    t0 = time.monotonic()
    sweeps, longest = [], 0.0
    rounds = 0
    while True:
        now = time.monotonic() - t0
        if rounds >= MIN_ROUNDS[trace] and now + longest > seconds:
            break
        if rounds and now + longest + GRACE_S > RUN_CAP_S:
            break
        # alternate which side of a traced pair runs first
        order = [False, True] if rounds % 2 == 0 else [True, False]
        started = time.monotonic()
        for traced in order if trace else [False]:
            cap_s = max(RUN_CAP_S - GRACE_S - (time.monotonic() - t0), 1.0)
            spans_out = OUT / f"spans-{workload}-seed{seed}-{len(sweeps)}.json" if traced else None
            sweeps.append(one_sweep(workload, seed, traced, cap_s, env, spans_out))
            if "lost" in sweeps[-1] or sweeps[-1]["unfinished"]:
                return sweeps
        longest = max(longest, time.monotonic() - started)
        rounds += 1
    return sweeps


def sweep_s(sweep, col):
    return sum(job[col] for job in sweep["jobs"])


def job_percentiles_ms(sweeps, col) -> tuple[float, float]:
    """p50 and p90 over jobs of each job's median latency across sweeps."""
    per_job = {}
    for s in sweeps:
        for job in s["jobs"]:
            per_job.setdefault(job[0], []).append(job[col])
    q = statistics.quantiles([median(v) for v in per_job.values()], n=100, method="inclusive")
    return q[49] * 1000, q[89] * 1000


def end_to_end(sweeps, scaled=True) -> dict:
    """Medians over sweeps, of times at reference speed or as measured."""
    col = 2 if scaled else 1
    p50, p90 = job_percentiles_ms(sweeps, col)
    checks = sum(s["checks"] for s in sweeps)
    inconclusive = sum(s["inconclusive"] for s in sweeps)
    return {
        "setup_s": (median([s["setup_scaled_s" if scaled else "setup_s"] for s in sweeps]), "s"),
        "sweep_s": (median([sweep_s(s, col) for s in sweeps]), "s"),
        "job_p50_ms": (p50, "ms"),
        "job_p90_ms": (p90, "ms"),
        "peak_rss_mib": (median([s["peak_rss_kib"] for s in sweeps]) / 1024, "MiB"),
        "conclusive_share": (1 - inconclusive / max(checks, 1), "ratio"),
    }


def per_layer(untraced, traced) -> dict:
    first = traced[0]
    out = {}
    for name, value in first["layers"].items():
        unit = "s" if name.endswith(".self_s") else "count"
        if unit == "s":
            value = median([s["layers"][name] for s in traced])
        out[name] = (value, unit)
    for name, value in first["counts"].items():
        out[name] = (value, "bytes" if name == "jsonio.bytes" else "count")
    base = median([sweep_s(s, 2) for s in untraced])
    out["trace.overhead_share"] = ((median([sweep_s(s, 2) for s in traced]) - base) / base, "ratio")
    return out


def check_digest(workload, seed, digest, code) -> bool:
    """Verdicts and counts of one seed must not change between runs of the
    same code; the first run of a seed records them."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}/{seed}/{code}"
    if known.setdefault(key, digest) != digest:
        return False
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "cohext" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no cohext checkout at {ROOT} (need src/cohext and fixtures/)", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Byte-compile once, so no sweep pays for it in its set-up time.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, check=True, capture_output=True, timeout=120)

    code = source_digest()
    sweeps = run_sweeps(args.workload, args.seed, args.seconds, args.trace)
    done = [s for s in sweeps if "lost" not in s]
    if not done:
        print(f"perfbench: no sweep finished: {sweeps[-1]['lost']}", file=sys.stderr)
        return 1
    jobs = done[0]["attempted"]
    attempted = sum(s.get("attempted", jobs) for s in sweeps)
    wrong = sum(s.get("wrong", 0) for s in sweeps)
    failed = sum(s.get("wrong", 0) + s.get("unfinished", s.get("attempted", jobs)) for s in sweeps)
    digests = {s["digest"] for s in done}
    consistent = len(digests) == 1 and check_digest(args.workload, args.seed, done[0]["digest"], code)
    correct = wrong == 0 and consistent and len(done) == len(sweeps)

    untraced = [s for s in done if not s["traced"]]
    traced = [s for s in done if s["traced"]]
    if args.trace and untraced and traced:
        metrics = per_layer(untraced, traced)
    elif not args.trace:
        metrics = end_to_end(done)
    else:
        print("perfbench: no complete pair of untraced and traced sweeps", file=sys.stderr)
        return 1

    checks = sum(s["checks"] for s in done)
    inconclusive = sum(s["inconclusive"] for s in done)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_digest": code,
        "nproc": os.cpu_count(),
        "jobs_per_sweep": jobs,
        "sweeps": len(sweeps),
        "budgets": done[0]["budgets"],
        "digest": sorted(digests),
        "failed_share": failed / attempted,
        "inconclusive_share": inconclusive / max(checks, 1),
        "failures": [f for s in sweeps for f in s.get("failures", [s.get("lost")])][:10],
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "sweeps": sweeps}, indent=1)
    )
    print(" ".join(f"{k}={v}" for k, v in meta.items() if k not in ("failures", "digest")))
    for line in meta["failures"]:
        print(f"  failure: {line}")
    if not args.trace:
        print(f"  {'failed_share':<20} {meta['failed_share']:.6g} ratio ({failed}/{attempted} jobs)")
        print(f"  {'inconclusive_share':<20} {meta['inconclusive_share']:.6g} ratio "
              f"({inconclusive}/{checks} checks)")
    measured = end_to_end(done, scaled=False) if not args.trace else {}
    for name, (value, unit) in metrics.items():
        note = f"  (as measured: {measured[name][0]:.6g})" if name in measured else ""
        print(f"  {name:<20} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
