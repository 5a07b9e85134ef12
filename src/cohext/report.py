"""Check outcomes and machine-readable run reports: command, input hashes,
per-check outcomes with witnesses.  Reports are byte-identical across runs
with the same inputs and seed; wall-clock timing is opt-in because it would
break that."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class LawCheck:
    """The outcome of one named check: a law, a condition or a report line,
    with the witness of its first failure and any counts it reports."""

    name: str
    passed: bool
    witness: str | None = None
    data: dict | None = None

    @classmethod
    def first(cls, name: str, witnesses) -> LawCheck:
        """The check `name`, failed with the first of `witnesses` (strings,
        lazily produced in check order) if there is one."""
        w = next(iter(witnesses), None)
        return cls(name, w is None, w)


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    seed: int | None = None
    timing_ms: float | None = None

    def add_input(self, path) -> bytes:
        """Record the file's hash and return the bytes hashed, so the
        command reads what the report names (a pipe can be read once)."""
        p = Path(path)
        data = p.read_bytes()
        self.inputs[str(p)] = hashlib.sha256(data).hexdigest()
        return data

    def check(self, name, passed, witness=None, **data):
        self.checks.append(LawCheck(name, bool(passed), witness, data or None))
        return passed

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        out = {
            "command": self.command,
            "inputs": dict(sorted(self.inputs.items())),
            "checks": [
                {
                    "name": c.name,
                    "pass": c.passed,
                    **({"witness": c.witness} if c.witness else {}),
                    **({"data": c.data} if c.data else {}),
                }
                for c in self.checks
            ],
            "pass": self.passed,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.timing_ms is not None:
            out["timing_ms"] = self.timing_ms
        return out

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False) + "\n"
