"""Machine-readable verification reports.

Every check in the package produces a report: a named list of metrics, each
with its measured value and the tolerance it was held to. Reports serialize
to JSON for the command-line tools.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Metric", "VerificationReport"]


@dataclass(frozen=True)
class Metric:
    label: str
    value: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "value": self.value,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    name: str
    metrics: list[Metric] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    error: str | None = None

    def check(self, label: str, value: float, tolerance: float) -> bool:
        """Record |value| <= tolerance as a metric; returns whether it passed."""
        value = float(value)
        ok = abs(value) <= tolerance
        self.metrics.append(Metric(label, value, float(tolerance), ok))
        return ok

    def fail(self, message: str) -> None:
        self.error = message

    @property
    def overall(self) -> bool:
        return self.error is None and all(m.passed for m in self.metrics)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "overall": self.overall,
            "metrics": [m.to_dict() for m in self.metrics],
            "notes": list(self.notes),
            "error": self.error,
        }

    def to_json(self, **extra) -> str:
        d = self.to_dict()
        d.update(extra)
        return json.dumps(d, indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        lines = [f"[{'PASS' if self.overall else 'FAIL'}] {self.name}"]
        for m in self.metrics:
            status = "ok  " if m.passed else "FAIL"
            lines.append(f"  {status} {m.label}: {m.value:.3e} (tol {m.tolerance:.1e})")
        if self.error:
            lines.append(f"  error: {self.error}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
