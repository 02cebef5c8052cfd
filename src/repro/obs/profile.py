"""Profile assembly: one JSON-able document per simulated run.

``build_profile`` is a pure function of ``(events, clocks)`` — the same
document (byte-identical once serialized) comes from an in-memory trace or
a re-read JSONL stream.  ``format_profile`` renders it as fixed-width text
for terminals; ``run_profiled_app`` runs one of the proxy apps (SP / BT /
ADI) on the simulator with phase annotations and returns the run plus its
profile.
"""

from __future__ import annotations

from repro.simmpi.trace import RunResult, TraceEvent

from .critical import critical_path
from .derive import (
    comm_matrix,
    comm_matrix_by_phase,
    phase_profile,
    rank_activity,
)

__all__ = ["build_profile", "format_profile", "run_profiled_app"]


def build_profile(
    events: list[TraceEvent], clocks: tuple[float, ...]
) -> dict:
    """Fold an event stream into the profile document (JSON-serializable)."""
    makespan = max(clocks) if clocks else 0.0
    activity = rank_activity(events, clocks)
    phases = phase_profile(events, clocks)
    matrix = comm_matrix(events)
    by_phase = comm_matrix_by_phase(events)
    path = critical_path(events, clocks)
    return {
        "nprocs": len(clocks),
        "makespan": makespan,
        "clocks": list(clocks),
        "efficiency": (
            sum(a.busy for a in activity) / (len(clocks) * makespan)
            if clocks and makespan > 0 else 1.0
        ),
        "ranks": [
            {
                "rank": a.rank,
                "compute": a.compute,
                "send": a.send,
                "recv": a.recv,
                "blocked": a.blocked,
                "idle": a.idle,
                "clock": a.clock,
            }
            for a in activity
        ],
        "phases": [
            {
                "phase": p.phase,
                "elapsed": p.elapsed,
                "per_rank": {str(r): v for r, v in p.per_rank.items()},
                "compute": p.compute,
                "comm": p.comm,
                "blocked": p.blocked,
                "messages": p.messages,
                "bytes": p.nbytes,
                "imbalance": p.imbalance(),
            }
            for p in phases
        ],
        "comm_matrix": [
            {"src": src, "dst": dst, "messages": count, "bytes": nbytes}
            for (src, dst), (count, nbytes) in matrix.items()
        ],
        "comm_matrix_by_phase": {
            phase: [
                {"src": src, "dst": dst, "messages": count, "bytes": nbytes}
                for (src, dst), (count, nbytes) in cells.items()
            ]
            for phase, cells in by_phase.items()
        },
        "total_messages": sum(c for c, _ in matrix.values()),
        "total_bytes": sum(b for _, b in matrix.values()),
        "critical_path": {
            "length": path.length,
            "compute": path.compute_seconds,
            "comm_cpu": path.comm_cpu_seconds,
            "wire": path.wire_seconds,
            "wait": path.wait_seconds,
            "segments": len(path.segments),
            "ranks": list(path.ranks),
            "phases": path.phase_breakdown(),
        },
    }


def format_profile(profile: dict) -> str:
    """Render a profile document as a text report."""
    from repro.analysis.report import format_table

    lines = [
        f"nprocs {profile['nprocs']}  makespan {profile['makespan']:.6g} s"
        f"  efficiency {profile['efficiency']:.2f}"
        f"  messages {profile['total_messages']}"
        f"  bytes {profile['total_bytes']}",
        "",
        format_table(
            ["rank", "compute (s)", "send (s)", "recv (s)", "blocked (s)",
             "idle (s)"],
            [
                [r["rank"], r["compute"], r["send"], r["recv"],
                 r["blocked"], r["idle"]]
                for r in profile["ranks"]
            ],
            title="per-rank activity",
        ),
        "",
        format_table(
            ["phase", "elapsed (s)", "compute (s)", "comm (s)",
             "blocked (s)", "msgs", "KiB", "imbal"],
            [
                [p["phase"], p["elapsed"], p["compute"], p["comm"],
                 p["blocked"], p["messages"], p["bytes"] / 1024.0,
                 p["imbalance"]]
                for p in profile["phases"]
            ],
            title="per-phase profile (elapsed summed over ranks)",
        ),
    ]
    top = sorted(
        profile["comm_matrix"], key=lambda c: -c["bytes"]
    )[:10]
    if top:
        lines += [
            "",
            format_table(
                ["src", "dst", "messages", "KiB"],
                [
                    [c["src"], c["dst"], c["messages"],
                     c["bytes"] / 1024.0]
                    for c in top
                ],
                title="communication matrix (top pairs by bytes)",
            ),
        ]
    cp = profile["critical_path"]
    lines += [
        "",
        "critical path: "
        f"length {cp['length']:.6g} s = compute {cp['compute']:.6g}"
        f" + comm cpu {cp['comm_cpu']:.6g} + wire {cp['wire']:.6g}"
        f" + wait {cp['wait']:.3g}",
        f"  {cp['segments']} segments through ranks "
        + "->".join(str(r) for r in cp["ranks"]),
    ]
    return "\n".join(lines)


def run_profiled_app(
    app: str,
    shape: tuple[int, ...],
    nprocs: int,
    steps: int = 1,
    machine=None,
    record_events: bool = True,
    sinks=(),
) -> tuple[object, RunResult]:
    """Run a phase-annotated proxy app on the simulator.

    ``app`` is one of ``"sp"``, ``"bt"``, ``"adi"``; returns the executor's
    ``(result_array, RunResult)``.  The schedules carry the apps' phase
    annotations, so the recorded events are ready for
    :func:`build_profile`.
    """
    from repro.apps import plan_app, random_field
    from repro.simmpi.machine import origin2000
    from repro.sweep.multipart import MultipartExecutor

    if machine is None:
        machine = origin2000()
    config = plan_app(
        app, shape, nprocs, steps=steps, cost_model=machine.to_cost_model()
    )
    field_shape = config.problem.field_shape
    executor = MultipartExecutor(
        config.partitioning,
        field_shape,
        machine,
        record_events=record_events,
        sinks=sinks,
    )
    return executor.run(random_field(field_shape), config.problem.schedule())
