"""Structured verification reports.

Every checker returns a Report rather than a boolean so the CLI can show
which basis tuple failed and with what residual.  The record form (one
JSON object per line) deliberately omits the timing field: records must
be byte-identical across runs for the same input and seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    context: tuple
    residual: str

    def as_dict(self) -> dict:
        return {"context": list(self.context), "residual": self.residual}


@dataclass
class Report:
    check_name: str
    violations: list[Violation] = field(default_factory=list)
    timing_ms: float = 0.0

    @property
    def status(self) -> str:
        return "pass" if not self.violations else "fail"

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_record(self) -> str:
        payload = {
            "check": self.check_name,
            "status": self.status,
            "violations": [v.as_dict() for v in self.violations],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        head = f"[{self.status.upper():4s}] {self.check_name} ({self.timing_ms:.1f} ms)"
        if self.passed:
            return head
        lines = [head]
        for v in self.violations:
            lines.append(f"    at {v.context}: residual {v.residual}")
        return "\n".join(lines)


class checked:
    """Context manager that times a check and assembles its Report.

    Violations are appended as (context, residual-string) pairs; they are
    sorted on exit so report order never depends on evaluation order.
    """

    def __init__(self, name: str):
        self.report = Report(name)

    def __enter__(self) -> "checked":
        self._t0 = time.perf_counter()
        return self

    def add(self, context: tuple, residual: str):
        self.report.violations.append(Violation(tuple(context), residual))

    def add_nonzero(self, context: tuple, residual) -> None:
        """Record `residual` (an element-like object) unless it is zero."""
        if residual.is_zero:
            return
        self.add(context, str(residual))

    def __exit__(self, exc_type, exc, tb):
        # a label and an index may share a position (("multiplicativity",
        # "operator_twist") beside ("multiplicativity", i, j)): indices first
        self.report.violations.sort(key=lambda v: (tuple((type(x) is str, x) for x in v.context), v.residual))
        self.report.timing_ms = (time.perf_counter() - self._t0) * 1000.0
        return False
