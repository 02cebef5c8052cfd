"""Deadlock detection over the abstract execution's stuck state.

With eager sends, a rank can only block on a receive, and each blocked
rank waits on exactly **one** other rank (receives name their source), so
the wait-for graph of a stuck state is a functional graph: every blocked
rank has a single outgoing edge.  Any stuck state therefore decomposes
into

* **cycles** — genuine communication deadlocks (rank A's pending receive
  can only be satisfied after A itself makes progress); reported with the
  minimal witness: the rank/op chain around the cycle;
* **stalls** — chains that terminate at a rank which already finished (or
  at a cycle): the root receive waits for a message its source will never
  send.  The missing message itself is a matching-analysis fact; the
  stall report localizes *which* receive transitively hangs the ranks.

A completed abstract run yields a trivially-ok result.
"""

from __future__ import annotations

from repro.simmpi.message import RecvOp

from .abstract import AbstractRun, OpRef
from .ir import ProgramIR
from .report import AnalysisResult, Violation

__all__ = ["check_deadlock"]


def _recv_at(ir: ProgramIR, ref: OpRef) -> RecvOp:
    op = ir.ranks[ref[0]][ref[1]]
    if op.__class__ is not RecvOp:  # pragma: no cover - engine invariant
        raise AssertionError(f"blocked op at {ref} is not a recv: {op!r}")
    return op


def check_deadlock(ir: ProgramIR, run: AbstractRun) -> AnalysisResult:
    """Classify a stuck state into cycles and stalls, with witnesses."""
    if run.completed:
        return AnalysisResult(
            name="deadlock",
            violations=(),
            stats={"blocked_ranks": 0, "cycles": 0},
        )

    blocked = run.blocked
    waits_on = {
        rank: _recv_at(ir, ref).source for rank, ref in blocked.items()
    }

    violations: list[Violation] = []
    on_cycle: set[int] = set()
    # functional-graph cycle detection: walk successors with 3-color marks
    color: dict[int, int] = {}  # 1 = on current walk, 2 = resolved
    cycles: list[list[int]] = []
    for start in sorted(blocked):
        if color.get(start):
            continue
        walk: list[int] = []
        node = start
        while (
            node in blocked
            and color.get(node) is None
        ):
            color[node] = 1
            walk.append(node)
            node = waits_on[node]
        if node in blocked and color.get(node) == 1:
            cycle = walk[walk.index(node):]
            cycles.append(cycle)
            on_cycle.update(cycle)
        for seen in walk:
            color[seen] = 2

    for cycle in cycles:
        chain: list[dict] = []
        for rank in cycle:
            chain.append(ir.witness(*blocked[rank]))
        ranks = " -> ".join(str(r) for r in cycle + [cycle[0]])
        phases = sorted({op["phase"] for op in chain if op["phase"]})
        violations.append(
            Violation(
                analysis="deadlock",
                kind="cycle",
                message=(
                    f"wait-for cycle among ranks {ranks}"
                    + (f" (phase {', '.join(phases)})" if phases else "")
                ),
                witness={"cycle": chain},
            )
        )

    # stalls: blocked ranks whose wait chain leaves the blocked set (their
    # source finished without sending).  Report only the chain *roots* —
    # the receives whose source is not itself blocked — as the minimal
    # witnesses; everything else hangs transitively.
    for rank in sorted(blocked):
        if rank in on_cycle:
            continue
        src = waits_on[rank]
        if src in blocked:
            continue  # waits on another blocked rank; not the root cause
        op = _recv_at(ir, blocked[rank])
        dependents = sorted(
            r for r in blocked if r not in on_cycle and waits_on[r] == rank
        )
        violations.append(
            Violation(
                analysis="deadlock",
                kind="stall",
                message=(
                    f"rank {rank} blocked on recv(source={src}, "
                    f"tag={op.tag}) but rank {src} finished without "
                    f"sending it"
                ),
                witness={
                    "recv": ir.witness(*blocked[rank]),
                    "source_finished": True,
                    "dependent_ranks": dependents,
                },
            )
        )
    return AnalysisResult(
        name="deadlock",
        violations=tuple(violations),
        stats={
            "blocked_ranks": len(blocked),
            "cycles": len(cycles),
        },
    )
