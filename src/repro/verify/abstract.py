"""Abstract (timing-free) execution of a :class:`~repro.verify.ir.ProgramIR`.

The engine's semantics, stripped of virtual time: sends are eager and
never block; a receive blocks until a matching send has been *issued*;
channels are FIFO per ``(source, dest, tag)``; ``ANY_TAG`` receives match
the earliest issued message from their source.  Under these semantics the
set of reachable final states is independent of scheduling order (eager
sends make the per-channel match function confluent), so one deterministic
abstract run decides:

* whether the program **completes** — if not, the stuck state (every
  unfinished rank blocked on an unsatisfiable receive) feeds the deadlock
  analysis;
* the **matching** relation send → recv, which anchors the happens-before
  relation used by the race analysis;
* the **unmatched sends** left in flight at completion (orphan messages,
  reported by the matching analysis).

A paired compiled program needs no run (``verify_ir`` reads its steps):
this runs for hand-built, mutated and unpaired IRs, and finds witnesses.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.simmpi.message import ANY_TAG, RecvOp, SendOp

from .ir import ProgramIR

__all__ = ["OpRef", "AbstractRun", "execute_abstract"]

#: coordinates of one op inside a ProgramIR: (rank, position in rank list)
OpRef = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class AbstractRun:
    """Result of one abstract execution."""

    completed: bool
    #: send OpRef -> recv OpRef for every matched pair
    matching: dict[OpRef, OpRef]
    #: sends never consumed by any receive (issue order)
    unmatched_sends: tuple[OpRef, ...]
    #: per unfinished rank: the OpRef of the receive it is stuck on
    blocked: dict[int, OpRef]

    @property
    def recv_matching(self) -> dict[OpRef, OpRef]:
        """Inverse view: recv OpRef -> send OpRef."""
        return {r: s for s, r in self.matching.items()}


def execute_abstract(ir: ProgramIR) -> AbstractRun:
    """Run ``ir`` to completion or to a stuck state."""
    nprocs = ir.nprocs
    pos = [0] * nprocs                      # next op position per rank
    done = [len(ops) == 0 for ops in ir.ranks]
    # FIFO of pending send refs per (source, dest, tag)
    channels: dict[tuple[int, int, int], deque[OpRef]] = {}
    # issue-ordered pending sends per (dest, source) for ANY_TAG matching
    arrivals: dict[tuple[int, int], deque[OpRef]] = {}
    matching: dict[OpRef, OpRef] = {}
    send_order: list[OpRef] = []

    def try_recv(rank: int, op: RecvOp) -> bool:
        if op.tag == ANY_TAG:
            seq = arrivals.get((rank, op.source))
            if not seq:
                return False
            send_ref = seq.popleft()
            send_tag = ir.ranks[send_ref[0]][send_ref[1]].tag
            channels[(op.source, rank, send_tag)].remove(send_ref)
        else:
            q = channels.get((op.source, rank, op.tag))
            if not q:
                return False
            send_ref = q.popleft()
            arrivals[(rank, op.source)].remove(send_ref)
        matching[send_ref] = (rank, pos[rank])
        return True

    def advance(rank: int) -> None:
        """Drive one rank until it finishes or blocks."""
        ops = ir.ranks[rank]
        i = pos[rank]
        while i < len(ops):
            op = ops[i]
            kind = op.__class__
            if kind is SendOp:
                ref = (rank, i)
                channels.setdefault(
                    (rank, op.dest, op.tag), deque()
                ).append(ref)
                arrivals.setdefault((op.dest, rank), deque()).append(ref)
                send_order.append(ref)
            elif kind is RecvOp:
                pos[rank] = i
                if not try_recv(rank, op):
                    return
            i += 1
            pos[rank] = i
        done[rank] = True

    # round-based scheduling: sweep ranks in ascending order until a full
    # pass makes no progress (confluence makes the order irrelevant for
    # the final state; ascending order matches the engine's scan)
    progressed = True
    while progressed and not all(done):
        progressed = False
        for rank in range(nprocs):
            if done[rank]:
                continue
            before = pos[rank]
            advance(rank)
            if done[rank] or pos[rank] != before:
                progressed = True

    blocked = {
        rank: (rank, pos[rank])
        for rank in range(nprocs)
        if not done[rank]
    }
    unmatched = tuple(ref for ref in send_order if ref not in matching)
    return AbstractRun(
        completed=not blocked,
        matching=matching,
        unmatched_sends=unmatched,
        blocked=blocked,
    )
