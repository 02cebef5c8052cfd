"""Report vocabulary of the static verifier.

Every analysis produces an :class:`AnalysisResult`; the checker assembles
them (plus the paper-invariant certificate) into a :class:`VerifyReport`
whose :meth:`VerifyReport.to_dict` emits the machine-readable
``repro.verify-report.v1`` JSON document:

.. code-block:: json

    {
      "schema": "repro.verify-report.v1",
      "config": {"app": "sp", "shape": [8, 8, 8], "p": 4, ...},
      "ok": true,
      "analyses": {
        "matching": {"ok": true, "violations": [], "stats": {...}},
        "deadlock": {"ok": true, "violations": [], "stats": {...}},
        "races":    {"ok": true, "violations": [], "stats": {...}},
        "invariants": {"ok": true, "violations": [], "stats": {...}}
      },
      "certificate": {...}
    }

Violations carry a ``witness`` dict with concrete (rank, op index, channel)
coordinates so a failing configuration can be localized without re-running
anything.
"""

from __future__ import annotations

import dataclasses
from typing import Any

__all__ = ["SCHEMA", "Violation", "AnalysisResult", "VerifyReport"]

#: schema tag of the emitted JSON document
SCHEMA = "repro.verify-report.v1"


@dataclasses.dataclass(frozen=True)
class Violation:
    """One concrete defect found by an analysis."""

    analysis: str
    kind: str
    message: str
    witness: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one analysis pass over a program IR / mapping."""

    name: str
    violations: tuple[Violation, ...]
    stats: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "stats": self.stats,
        }


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """Complete verdict on one (app, shape, p, partitioning) configuration."""

    config: dict[str, Any]
    analyses: tuple[AnalysisResult, ...]
    certificate: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.analyses)

    def violations(self) -> tuple[Violation, ...]:
        return tuple(v for a in self.analyses for v in a.violations)

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema": SCHEMA,
            "config": self.config,
            "ok": self.ok,
            "analyses": {a.name: a.to_dict() for a in self.analyses},
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        return doc

    def summary(self) -> str:
        """One-line human verdict."""
        if self.ok:
            parts = ", ".join(f"{a.name} ok" for a in self.analyses)
            return f"VERIFIED: {parts}"
        bad = [a for a in self.analyses if not a.ok]
        parts = ", ".join(
            f"{a.name}: {len(a.violations)} violation(s)" for a in bad
        )
        return f"FAILED: {parts}"
