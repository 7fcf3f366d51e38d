"""Structured pass/fail reports returned by the verifiers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Check", "VerificationReport", "report_lines"]


@dataclass(frozen=True, slots=True)
class Check:
    name: str
    passed: bool
    detail: str = ""
    deviation: float = 0.0


@dataclass(frozen=True, slots=True)
class VerificationReport:
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "checks": [
                {
                    "name": c.name,
                    "pass": c.passed,
                    "detail": c.detail,
                    # a dense product that overflowed leaves no number to report
                    "deviation": c.deviation if math.isfinite(c.deviation) else None,
                }
                for c in self.checks
            ],
        }

    def __str__(self) -> str:
        return "\n".join(report_lines(self.overall, ((c.name, c.passed, c.detail) for c in self.checks)))


def report_lines(overall: bool, checks) -> list[str]:
    """A report as text: the verdict, then one line per (name, passed, detail)."""
    lines = [f"overall: {'pass' if overall else 'FAIL'}"]
    for name, passed, detail in checks:
        mark = "ok " if passed else "BAD"
        lines.append(f"  [{mark}] {name}  {detail}".rstrip())
    return lines
