"""Per-process state of one sweep: layer spans, work counts and verdicts.

Every call from benchmark code into a public function of a cohext layer
goes through `Run.call`.  With tracing on it records a span (job id,
layer, function, start, end, raised); with tracing off it is a plain call.
Spans come only from benchmark code, so they never nest below their job:
a layer's self time is the sum of its spans' durations.
"""

from __future__ import annotations

from collections import Counter
from time import monotonic

from cohext.lattice import LatticeError
from cohext.logic.models import DistillationBudget
from cohext.predcat import BudgetError
from cohext.sites import SiteError

LAYERS = (
    "catalog",
    "lattice",
    "canext",
    "fincat",
    "cohcat",
    "hyperdoctrine",
    "predcat",
    "sites",
    "jsonio",
    "logic.parser",
    "logic.chase",
    "logic.models",
)

WORK_COUNTS = (
    "catalog.lattices",
    "lattice.maps",
    "canext.extensions",
    "canext.lifts",
    "canext.squares",
    "hyperdoctrine.laws",
    "predcat.objects",
    "sites.sieves",
    "sites.inconclusive",
    "logic.chase.rounds",
    "logic.chase.exhausted",
    "logic.models.models",
    "jsonio.bytes",
)


class Mismatch(Exception):
    """A verdict or count differs from what the theory predicts."""


def is_budget_error(exc: BaseException) -> bool:
    """Errors that mean a check ran out of budget, not that it failed."""
    if isinstance(exc, (BudgetError, SiteError, DistillationBudget)):
        return True
    return isinstance(exc, LatticeError) and "budget" in str(exc)


class Run:
    def __init__(self, traced: bool):
        self.traced = traced
        self.job = "setup"
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.checks = 0
        self.inconclusive = 0

    def call(self, layer: str, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        start = monotonic()
        raised = True
        try:
            out = fn(*args, **kwargs)
            raised = False
            return out
        finally:
            self.spans.append(
                (self.job, layer, fn.__qualname__, start, monotonic(), raised)
            )

    def budgeted(self, layer: str, fn, *args, **kwargs):
        """Like `call`, but a budget error counts as an inconclusive check
        and returns None instead of raising."""
        try:
            return self.call(layer, fn, *args, **kwargs)
        except Exception as exc:
            if not is_budget_error(exc):
                raise
            self.mark_inconclusive()
            return None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def check(self, what: str, ok: bool) -> None:
        """One conclusive check whose verdict must be `ok`."""
        self.checks += 1
        if not ok:
            raise Mismatch(what)

    def mark_inconclusive(self) -> None:
        self.checks += 1
        self.inconclusive += 1

    def layer_metrics(self, duration) -> dict:
        """Calls, errors and self time per layer; `duration(start, end)`
        gives the time a span took."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for _job, layer, _name, start, end, raised in self.spans:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration(start, end)
            out[f"{layer}.errors"] += raised
        return out
