"""One cold sweep of one workload, in its own process.

Started by run.py with a clean environment; prints one JSON line with the
set-up time, per-job latencies, verdict digest and, when traced, the
per-layer metrics.  Jobs run one after another (a closed loop with one
client), in an order shuffled by the seed.  A wall-clock cap stops the
sweep: the job running at the cap and every job after it count as failed.

Every time is reported as measured and at reference speed (speed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from speed import Speed  # noqa: E402
from tracing import WORK_COUNTS, Run  # noqa: E402

MODULES = {
    "canext-sweep": "canext_sweep",
    "site-sweep": "site_sweep",
    "model-sweep": "model_sweep",
}
FAILURES_KEPT = 5


class CapReached(BaseException):
    """Raised by the wall-clock cap; a BaseException so that no job's
    `except Exception` can swallow it."""


def on_cap(_signum, _frame):
    raise CapReached()


def budgets_in_effect() -> dict:
    from cohext.predcat import search_budget
    from cohext.sites import sieve_budget

    return {"COHEXT_BUDGET": search_budget(), "COHEXT_SIEVE_BUDGET": sieve_budget()}


def sweep(workload: str, seed: int, traced: bool, cap_s: float, spawned_at: float) -> dict:
    speed = Speed()
    speed.start()
    rng = random.Random(seed)
    run = Run(traced)
    module = importlib.import_module(MODULES[workload])
    jobs, records, intervals, failures = [], {}, [], []
    setup_end = None
    signal.signal(signal.SIGALRM, on_cap)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        try:
            jobs = module.setup(rng, run)
        except Exception as exc:
            failures.append(f"setup: {type(exc).__name__}: {exc}")
        setup_end = time.monotonic()
        rng.shuffle(jobs)
        for key, job in jobs:
            run.job = key
            start = time.monotonic()
            try:
                records[key] = job(run)
            except Exception as exc:
                records[key] = None
                failures.append(f"{key}: {type(exc).__name__}: {exc}")
            intervals.append((key, start, time.monotonic()))
    except CapReached:
        failures.append(f"wall-clock cap of {cap_s:.0f} s reached after {len(records)} jobs")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        speed.stop()
    if setup_end is None:
        setup_end = time.monotonic()

    digest = hashlib.sha256(
        json.dumps(
            [sorted(records.items()), sorted(run.counts.items()), run.checks, run.inconclusive]
        ).encode()
    ).hexdigest()
    out = {
        "setup_s": speed.measured(spawned_at, setup_end),
        "setup_scaled_s": speed.scaled(spawned_at, setup_end),
        "jobs": [
            [key, speed.measured(t0, t1), speed.scaled(t0, t1)]
            for key, t0, t1 in intervals
        ],
        "reference_s": speed.times,
        "attempted": max(len(jobs), 1),
        "wrong": sum(r is None for r in records.values()) + (not jobs),
        "unfinished": len(jobs) - len(records),
        "failures": failures[:FAILURES_KEPT],
        "checks": run.checks,
        "inconclusive": run.inconclusive,
        "counts": {name: run.counts[name] for name in WORK_COUNTS},
        "digest": digest,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "budgets": budgets_in_effect(),
    }
    if traced:
        out["layers"] = run.layer_metrics(speed.scaled)
        out["spans"] = {
            "layer_fields": ["job", "layer", "function", "start", "end", "raised"],
            "layer": run.spans,
            "job_fields": ["job", "start", "end"],
            "job": intervals,
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(MODULES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cap-s", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--spans-out", type=Path,
                    help="file the traced run writes its spans to")
    args = ap.parse_args()
    out = sweep(args.workload, args.seed, bool(args.trace), args.cap_s, args.spawned_at)
    spans = out.pop("spans", None)
    if spans is not None and args.spans_out is not None:
        args.spans_out.write_text(json.dumps(spans))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
