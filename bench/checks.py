"""Fail-closed check primitives shared by the workloads and the runner.

A gate reads ``not (value <= gate)``, so NaN never passes, and every sup
propagates NaN instead of dropping it the way the builtin ``max`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def sup(values) -> float:
    """Max that propagates NaN (the builtin max drops it unless it comes first)."""
    out = -math.inf
    for x in values:
        if x != x:
            return math.nan
        if x > out:
            out = x
    return out


@dataclass
class Outcome:
    """What the check of one operation found."""

    points: int = 0            # grid points certified: base plus transformed
    problems: list = field(default_factory=list)
    worst_ratio: float = 0.0   # max value / gate over the gated values
    nonfinite: int = 0         # non-finite values among the checked outputs

    @property
    def ok(self) -> bool:
        return not self.problems

    def gate(self, name: str, value, gate: float):
        """Fails unless value is a finite number no larger than gate."""
        if value is None or not isinstance(value, (int, float)):
            self.problems.append(f"{name}: missing value {value!r}")
            return
        if not math.isfinite(value):
            self.nonfinite += 1
            self.problems.append(f"{name}: non-finite value {value!r}")
            return
        if not (value <= gate):
            self.problems.append(f"{name}: {value!r} exceeds gate {gate!r}")
        self.worst_ratio = max(self.worst_ratio, value / gate)

    def finite(self, name: str, values):
        bad = sum(1 for x in values if x is not None and not math.isfinite(x))
        if bad:
            self.nonfinite += bad
            self.problems.append(f"{name}: {bad} non-finite values")

    def equal(self, name: str, got, want):
        if got != want:
            self.problems.append(f"{name}: got {got!r}, expected {want!r}")
