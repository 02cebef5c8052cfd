"""Message-race detection via the neighbor property and happens-before.

Two sends race when they target the same ``(dst, tag)`` channel and
neither happens-before the other: their delivery order at the destination
is fixed only by simulator timing — a perturbation of clock values (a
different machine model, a slightly different compute estimate) could
reorder them, making any behavior that depends on the order
nondeterministic.

Two sends from the *same* source are always ordered by program order, so
races can only involve distinct sources — which is exactly the situation
the paper's neighbor property rules out for sweep traffic: each
``(dst, tag)`` channel of a multipartitioned sweep or stencil exchange has
a single sender.  The analysis therefore groups sends by channel first;
when every channel has a single sender, that grouping is the proof of race
freedom, in O(ops).  Only when some channel has sends from two distinct
ranks does it compute a vector clock per op — happens-before is the union
of program order within a rank and the send → matching-recv edges of the
abstract execution, which is confluent under eager sends — and decide each
distinct-source pair on it.  A retargeted or tag-colliding message shows
up with both sends as witnesses.

Only runs to completion are analyzed (a stuck program is already reported
by the deadlock analysis, and its happens-before relation is partial).
"""

from __future__ import annotations

from collections import defaultdict

from repro.simmpi.message import RecvOp, SendOp

from .abstract import AbstractRun, OpRef
from .ir import ProgramIR
from .report import AnalysisResult, Violation

__all__ = ["check_races", "vector_clocks"]


def vector_clocks(
    ir: ProgramIR, run: AbstractRun
) -> dict[OpRef, tuple[int, ...]]:
    """Vector clock of every send/recv op under the run's matching.

    ``clock[ref][r]`` = number of ops of rank ``r`` that happen before or
    at ``ref``.  Computed by replaying ranks in rounds: a receive is
    processed once its matched send's clock is known (guaranteed to
    terminate because the matching came from a completed execution).
    """
    if not run.completed:
        raise ValueError("vector clocks need a completed abstract run")
    n = ir.nprocs
    recv_to_send = run.recv_matching
    clocks: dict[OpRef, tuple[int, ...]] = {}
    current = [[0] * n for _ in range(n)]
    pos = [0] * n
    progressed = True
    while progressed:
        progressed = False
        for rank in range(n):
            ops = ir.ranks[rank]
            vc = current[rank]
            i = pos[rank]
            while i < len(ops):
                kind = ops[i].__class__
                ref = (rank, i)
                if kind is RecvOp:
                    send_ref = recv_to_send.get(ref)
                    if send_ref is not None:
                        send_vc = clocks.get(send_ref)
                        if send_vc is None:
                            break  # sender has not reached that op yet
                        for r in range(n):
                            if send_vc[r] > vc[r]:
                                vc[r] = send_vc[r]
                    # unmatched recv in a completed run cannot happen
                    vc[rank] += 1
                    clocks[ref] = tuple(vc)
                else:
                    vc[rank] += 1
                    if kind is SendOp:
                        clocks[ref] = tuple(vc)
                i += 1
            if i != pos[rank]:
                pos[rank] = i
                progressed = True
    return clocks


def _ordered(
    a: OpRef, a_vc: tuple[int, ...], b: OpRef, b_vc: tuple[int, ...]
) -> bool:
    """True when one send happens-before the other (either direction)."""
    return b_vc[a[0]] >= a_vc[a[0]] or a_vc[b[0]] >= b_vc[b[0]]


def check_races(ir: ProgramIR, run: AbstractRun) -> AnalysisResult:
    """Flag happens-before-concurrent send pairs on a shared channel."""
    if not run.completed:
        return AnalysisResult(
            name="races",
            violations=(),
            stats={"checked_pairs": 0, "skipped": "program deadlocks"},
        )
    by_channel: dict[tuple[int, int], list[OpRef]] = defaultdict(list)
    for rank, index, send in ir.sends():
        by_channel[(send.dest, send.tag)].append((rank, index))
    # channels with two distinct senders; none is the neighbor property,
    # and then no clock is built
    shared = [
        (channel, refs)
        for channel, refs in sorted(by_channel.items())
        if len({rank for rank, _ in refs}) > 1
    ]
    clocks = vector_clocks(ir, run) if shared else {}

    violations: list[Violation] = []
    checked = 0
    for (dest, tag), refs in shared:
        for i, s1 in enumerate(refs):
            for s2 in refs[i + 1:]:
                if s1[0] == s2[0]:
                    continue  # program order fixes same-source pairs
                checked += 1
                if _ordered(s1, clocks[s1], s2, clocks[s2]):
                    continue
                violations.append(
                    Violation(
                        analysis="races",
                        kind="message-race",
                        message=(
                            f"sends from ranks {s1[0]} and {s2[0]} to "
                            f"(dst={dest}, tag={tag}) are concurrent: "
                            f"delivery order is timing-dependent"
                        ),
                        witness={
                            "channel": {"dst": dest, "tag": tag},
                            "sends": [ir.witness(*s1), ir.witness(*s2)],
                        },
                    )
                )
    return AnalysisResult(
        name="races",
        violations=tuple(violations),
        stats={
            "channels": len(by_channel),
            "checked_pairs": checked,
        },
    )
