"""Compact, serializable summaries of simulated runs.

A :class:`~repro.simmpi.trace.RunResult` drags its full event trace along —
exactly what a profiling session wants and exactly what a batch worker must
*not* ship back across a process boundary or persist in a result cache.
:class:`RunSummary` keeps the aggregate story (virtual clocks, message and
byte counts, compute seconds) and round-trips losslessly through plain JSON
dicts, so cached sweep results replay bit-identically to fresh runs.
"""

from __future__ import annotations

import dataclasses

from .trace import RunResult

__all__ = ["RunSummary", "ZERO_FAULT_COUNTS"]

#: canonical all-zero fault counters — a run with no injector attached and a
#: run under a zero-rate fault plan serialize byte-identically (pinned by the
#: zero-plan equivalence tests)
ZERO_FAULT_COUNTS = {
    "cancelled": 0,
    "delayed": 0,
    "dropped": 0,
    "duplicated": 0,
    "link_slowed": 0,
    "timeouts_fired": 0,
}


def _canon_counts(counts: dict | None) -> dict:
    """Sorted copy over the canonical key set (zeros when absent)."""
    if counts is None:
        return dict(ZERO_FAULT_COUNTS)
    return {key: int(counts.get(key, 0)) for key in ZERO_FAULT_COUNTS}


@dataclasses.dataclass(frozen=True)
class RunSummary:
    """Trace-free aggregate view of one simulated run."""

    nprocs: int
    makespan: float
    clocks: tuple[float, ...]
    message_count: int
    total_bytes: int
    compute_seconds: float
    #: aggregate send/recv CPU seconds and blocked-waiting seconds across
    #: ranks
    comm_seconds: float
    blocked_seconds: float
    #: fault-injection counters; always serialized (all-zero when the run
    #: had no injector) so fault-free and zero-plan results are identical
    faults: tuple[tuple[str, int], ...] = tuple(
        sorted(ZERO_FAULT_COUNTS.items())
    )
    #: aggregated reliable-delivery protocol counters, or None when the run
    #: did not use the protocol wrapper
    protocol: tuple[tuple[str, int], ...] | None = None

    @classmethod
    def from_result(cls, result: RunResult) -> "RunSummary":
        """Summarize a run.  Works for traces recorded with events disabled
        too — the aggregate counters are maintained unconditionally."""
        protocol = result.protocol_stats
        return cls(
            nprocs=len(result.clocks),
            makespan=result.makespan,
            clocks=tuple(float(c) for c in result.clocks),
            message_count=result.message_count,
            total_bytes=result.total_bytes,
            compute_seconds=result.trace.compute_seconds,
            comm_seconds=sum(result.comm_by_rank or ()),
            blocked_seconds=sum(result.blocked_by_rank or ()),
            faults=tuple(sorted(_canon_counts(result.fault_counts).items())),
            protocol=(
                tuple(sorted((k, int(v)) for k, v in protocol.items()))
                if protocol is not None
                else None
            ),
        )

    def to_dict(self) -> dict:
        """JSON-serializable encoding; floats survive exactly (repr
        round-trip)."""
        doc = {
            "nprocs": self.nprocs,
            "makespan": self.makespan,
            "clocks": list(self.clocks),
            "message_count": self.message_count,
            "total_bytes": self.total_bytes,
            "compute_seconds": self.compute_seconds,
            "comm_seconds": self.comm_seconds,
            "blocked_seconds": self.blocked_seconds,
            "faults": dict(self.faults),
        }
        if self.protocol is not None:
            doc["protocol"] = dict(self.protocol)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunSummary":
        protocol = doc.get("protocol")
        return cls(
            nprocs=int(doc["nprocs"]),
            makespan=float(doc["makespan"]),
            clocks=tuple(float(c) for c in doc["clocks"]),
            message_count=int(doc["message_count"]),
            total_bytes=int(doc["total_bytes"]),
            compute_seconds=float(doc["compute_seconds"]),
            comm_seconds=float(doc["comm_seconds"]),
            blocked_seconds=float(doc["blocked_seconds"]),
            faults=tuple(
                sorted(_canon_counts(doc.get("faults")).items())
            ),
            protocol=(
                tuple(sorted((k, int(v)) for k, v in protocol.items()))
                if protocol is not None
                else None
            ),
        )
