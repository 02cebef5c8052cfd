"""Deterministic discrete-event engine driving simulated rank programs.

Each rank is a Python generator; the engine runs a rank until it blocks on a
:class:`~repro.simmpi.message.RecvOp` whose message has not been *sent* yet,
then switches to another runnable rank.  Determinism: ranks are always
scanned in rank order, messages match in FIFO order per (source, dest, tag),
and all time is virtual.

Timing semantics (see :class:`~repro.simmpi.machine.MachineModel`):

* ``SendOp`` — sender clock advances by ``send_cpu_time``; the message's
  arrival time is ``sender_clock + transfer_time`` (eager/buffered send, the
  sender never blocks — adequate for the coarse-grain, well-matched traffic
  of line sweeps).
* ``RecvOp`` — completes at ``max(receiver_clock, arrival) + recv_cpu_time``.
* ``ComputeOp`` — advances the local clock.

On a *bus* network all transfers additionally serialize through a shared
channel: each message's wire occupancy begins no earlier than the channel's
previous release.

Observability hooks
-------------------

* Every event also flows through the engine's *trace sinks* — objects with
  an ``on_event(TraceEvent)`` method (and optionally ``on_run_end(result)``)
  passed via the ``sinks`` argument.  Sinks see all events even when
  ``record_events=False``, which is how long runs stream to disk
  (:class:`repro.obs.sinks.JsonlSink`) or keep a bounded window
  (:class:`repro.obs.sinks.RingBufferSink`) without O(events) memory.
* ``MarkOp`` labels prefixed with :data:`~repro.simmpi.message.PHASE_BEGIN`
  / :data:`~repro.simmpi.message.PHASE_END` maintain a per-rank stack of
  open phases; every event is stamped with the "/"-joined path of that
  stack (``TraceEvent.phase``), attributing all compute/send/recv time to
  the innermost open phase.

The null-emit fast path
-----------------------

When ``record_events=False`` *and* no sinks are attached, nobody can ever
observe a :class:`TraceEvent`, so the engine skips constructing them
entirely (no dataclass allocation, no ``detail`` string formatting, no sink
fan-out).  All aggregate accounting survives: the per-rank virtual clocks
and per-rank compute/comm/blocked second totals are accumulated
unconditionally, so :class:`~repro.simmpi.trace.RunResult` /
:class:`~repro.simmpi.summary.RunSummary` report identical numbers with and
without tracing — pinned by ``tests/simmpi/test_engine_fastpath.py``.

Lockstep replay
---------------

Every executor lowers a schedule to a :class:`Lockstep` program: one
:class:`Step` per op index, with the op kind and vectors of operands over
the ranks that run it (``active``; every rank when ``None``).  A compiled
multipartitioned schedule runs every step on every rank (balance
property); the block baselines mask a wavefront's idle ranks and chain
ends and a halo exchange's grid edges.  When :attr:`Lockstep.paired`
confirms that each receive step takes exactly the messages of its
``match``, an earlier send step, :func:`replay_lockstep` advances the
ranks one step at a time with a few numpy operations and no generators,
message objects or wake sweeps.  It uses the fast path's float
expressions in the same order (``clock = start + send_cpu_time``,
``arrives = clock + transfer_time``, ``start = max(arrival, clock)`` with
``blocked += arrival - clock`` only when ``arrival >= clock``, ``clock =
start + recv_cpu_time``, per-rank sums in program order) elementwise in
float64, on the whole vectors for a full step and on the active entries
otherwise, so every :class:`RunResult` number equals the engine's bit for
bit.  The blocked term is taken as ``start - clock``: ``+0.0``, which
leaves the sum unchanged, for an early message.  The engine's result
cannot depend on interleaving here: the op lists are fixed, each receive
names one FIFO channel, sends never block and no clock feeds back into
control flow, so replaying step by step is one more valid interleaving.

That argument needs a non-bus network (the shared ``_bus_free_at`` depends
on the global send order), no fault injection, no wildcard, timed or
cancellable receives (a :class:`Step` has no field for them) and no
observer (marks live only in the compiled schedule's marked view, which
observed runs replay through the engine): :func:`replayable`, which the
executor driver's ``run_skeleton`` asks.  :func:`replay_lockstep` raises
``ValueError`` on an unpaired program and ``TypeError`` on a step of any
other kind instead of approximating.  The machine's timing functions are
called once per distinct message size (per ``(src, dst, nbytes)`` with a
topology), and ``compute_seconds`` is a Python ``sum`` in rank order,
never a pairwise ``np.sum``.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from collections import defaultdict, deque
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, NamedTuple

import numpy as np

from repro.core.cost import NetworkScaling

from .machine import MachineModel
from .message import (
    ANY_SOURCE,
    ANY_TAG,
    CANCELLED,
    PHASE_BEGIN,
    PHASE_END,
    TIMEOUT,
    Bytes,
    ComputeOp,
    MarkOp,
    Message,
    RecvOp,
    SendOp,
    payload_nbytes,
)
from .trace import RunResult, Trace, TraceEvent

__all__ = [
    "SimDeadlockError",
    "Engine",
    "run_programs",
    "Step",
    "Lockstep",
    "replay_lockstep",
    "replayable",
]

class SimDeadlockError(RuntimeError):
    """All unfinished ranks are blocked on receives that can never match."""


def _describe_source(source: int) -> str:
    return "ANY" if source == ANY_SOURCE else str(source)


def _deadlock_message(blocked: list[tuple[int, RecvOp]]) -> str:
    descriptions = "; ".join(
        f"rank {rank} waiting on recv(source={_describe_source(op.source)}, "
        f"tag={'ANY' if op.tag == ANY_TAG else op.tag})"
        for rank, op in blocked
    )
    return (
        f"deadlock: {len(blocked)} rank(s) blocked on unmatched "
        f"receives: {descriptions}"
    )


class _RankState:
    __slots__ = (
        "gen",
        "clock",
        "blocked",
        "done",
        "result",
        "pending_value",
        "phases",
        "phase_path",
    )

    def __init__(self, gen: Generator):
        self.gen = gen
        self.clock = 0.0
        self.blocked: RecvOp | None = None
        self.done = False
        self.result: object = None
        self.pending_value: object = None
        self.phases: list[str] = []
        self.phase_path = ""


class Engine:
    """Runs a set of rank generators to completion over virtual time."""

    def __init__(
        self,
        machine: MachineModel,
        nprocs: int,
        record_events: bool = False,
        sinks: Iterable = (),
        faults=None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.machine = machine
        self.nprocs = nprocs
        self.trace = Trace(enabled=record_events)
        self.sinks = tuple(sinks)
        # null-emit fast path: with no in-memory trace and no sinks, no
        # TraceEvent can ever be observed, so none is constructed
        self._fast = not record_events and not self.sinks
        # per-destination FIFO queues of undelivered messages, keyed
        # (source, tag), plus per-destination arrival order per source for
        # ANY_TAG matching — indexing by dest first avoids building a
        # 3-tuple key per send/recv on the hot path
        self._inbox: list[dict[tuple[int, int], deque[Message]]] = [
            defaultdict(deque) for _ in range(nprocs)
        ]
        self._arrivals: list[dict[int, deque[Message]]] = [
            defaultdict(deque) for _ in range(nprocs)
        ]
        self._bus_free_at = 0.0
        self._bus = machine.network is NetworkScaling.BUS
        # bound-method caches for the per-op timing calls
        self._send_cpu_time = machine.send_cpu_time
        self._recv_cpu_time = machine.recv_cpu_time
        self._transfer_time = machine.transfer_time
        # wake index: _waiting_src[rank] is the source a blocked rank is
        # receiving from (-1 when runnable, ANY_SOURCE for wildcard
        # receives); _dirty lists the blocked ranks whose awaited source
        # sent since the last wake sweep
        self._waiting_src = [-1] * nprocs
        self._dirty: list[int] = []
        # optional fault injection (repro.faults.FaultInjector, duck-typed):
        # all decisions are pure-integer hashes of the message coordinates,
        # so they are independent of scheduling.  None keeps every hot path
        # on its original branch.
        self._faults = faults
        if faults is not None:
            self._seq: dict[int, int] = {}
            self._straggle: list[float] | None = faults.compute_factors(
                nprocs
            )
            self._pauses: list[list[tuple[float, float]]] | None = (
                faults.pause_intervals(nprocs)
            )
            self._pause_idx = [0] * nprocs
            self._fault_counts = {
                "dropped": 0,
                "duplicated": 0,
                "delayed": 0,
                "link_slowed": 0,
                "timeouts_fired": 0,
                "cancelled": 0,
            }
        else:
            self._straggle = None
            self._pauses = None
            self._fault_counts = None
        # aggregate accounting, maintained on both the traced and the
        # null-emit paths (engine-owned; folded into `trace` at run end)
        self._msg_count = 0
        self._total_bytes = 0
        self._compute_s = [0.0] * nprocs
        self._comm_s = [0.0] * nprocs
        self._blocked_s = [0.0] * nprocs

    # -- event fan-out -------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        """Append one event to the in-memory trace and fan it out to sinks
        (never called on the fast path — aggregate counters are maintained
        directly by the op handlers)."""
        if self.trace.enabled:
            self.trace.events.append(event)
        for sink in self.sinks:
            sink.on_event(event)

    # -- op handlers ---------------------------------------------------------

    def _pause_shift(self, rank: int, t: float) -> float:
        """Push ``t`` past any fault-plan pause interval covering it.

        Per-rank clocks are monotone, so a single advancing index suffices.
        The time spent waiting out the pause is charged as blocked time.
        """
        intervals = self._pauses[rank]  # type: ignore[index]
        i = self._pause_idx[rank]
        while i < len(intervals) and intervals[i][1] <= t:
            i += 1
        self._pause_idx[rank] = i
        if i < len(intervals) and intervals[i][0] <= t:
            shifted = intervals[i][1]
            self._blocked_s[rank] += shifted - t
            return shifted
        return t

    def _do_send(self, rank: int, state: _RankState, op: SendOp) -> None:
        dest = op.dest
        if not 0 <= dest < self.nprocs:
            raise ValueError(f"rank {rank}: send to invalid dest {dest}")
        nbytes = payload_nbytes(op.payload)
        start = state.clock
        faults = self._faults
        seq = 0
        if faults is not None:
            if self._pauses is not None:
                start = self._pause_shift(rank, start)
            key = rank * self.nprocs + dest
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
        clock = start + self._send_cpu_time(nbytes)
        state.clock = clock
        self._comm_s[rank] += clock - start
        wire_start = clock
        if self._bus and self._bus_free_at > wire_start:
            wire_start = self._bus_free_at
        transfer = self._transfer_time(nbytes, src=rank, dst=dest)
        dropped = False
        duplicated = False
        if faults is not None:
            counts = self._fault_counts
            factor = faults.link_factor(rank, dest)
            if factor != 1.0:
                transfer *= factor
                counts["link_slowed"] += 1  # type: ignore[index]
            delay = faults.extra_delay(rank, dest, op.tag, seq)
            if delay != 0.0:
                transfer += delay
                counts["delayed"] += 1  # type: ignore[index]
            dropped = faults.drop(rank, dest, op.tag, seq)
            duplicated = not dropped and faults.duplicate(
                rank, dest, op.tag, seq
            )
        arrives = wire_start + transfer
        if self._bus:
            self._bus_free_at = arrives
        if dropped:
            # the message was transmitted and lost: the sender paid its CPU
            # and (on a bus) the wire occupancy, but nothing is delivered
            self._fault_counts["dropped"] += 1  # type: ignore[index]
        else:
            msg = Message(
                source=rank,
                dest=dest,
                tag=op.tag,
                payload=op.payload,
                nbytes=nbytes,
                sent_at=clock,
                arrives_at=arrives,
                seq=seq,
            )
            self._inbox[dest][(rank, op.tag)].append(msg)
            self._arrivals[dest][rank].append(msg)
            ws = self._waiting_src[dest]
            if ws == rank or ws == ANY_SOURCE:
                self._dirty.append(dest)
        self._msg_count += 1
        self._total_bytes += nbytes
        if not self._fast:
            self._emit(
                TraceEvent(
                    rank=rank,
                    kind="send",
                    start=start,
                    end=clock,
                    detail=f"->{dest} tag={op.tag}"
                    + (" dropped" if dropped else ""),
                    nbytes=nbytes,
                    peer=dest,
                    tag=op.tag,
                    arrival=arrives,
                    phase=state.phase_path,
                )
            )
        if duplicated:
            # an in-network duplicate: same bytes delivered a second time,
            # one wire latency later (deterministic spacing)
            dup = Message(
                source=rank,
                dest=dest,
                tag=op.tag,
                payload=op.payload,
                nbytes=nbytes,
                sent_at=clock,
                arrives_at=arrives + self.machine.latency,
                seq=seq,
            )
            self._inbox[dest][(rank, op.tag)].append(dup)
            self._arrivals[dest][rank].append(dup)
            ws = self._waiting_src[dest]
            if ws == rank or ws == ANY_SOURCE:
                self._dirty.append(dest)
            self._fault_counts["duplicated"] += 1  # type: ignore[index]
            self._msg_count += 1
            self._total_bytes += nbytes
            if not self._fast:
                # a second send event keeps FIFO send<->recv pairing intact
                # for trace consumers (obs.critical matches per channel)
                self._emit(
                    TraceEvent(
                        rank=rank,
                        kind="send",
                        start=clock,
                        end=clock,
                        detail=f"->{dest} tag={op.tag} dup",
                        nbytes=nbytes,
                        peer=dest,
                        tag=op.tag,
                        arrival=dup.arrives_at,
                        phase=state.phase_path,
                    )
                )

    def _peek_any_source(self, rank: int, tag: int) -> Message | None:
        """Earliest-arriving deliverable message from any source (ties by
        lowest source rank); per-source FIFO order is still respected —
        only each source's head message is a candidate."""
        best: Message | None = None
        if tag == ANY_TAG:
            for src in sorted(self._arrivals[rank]):
                q = self._arrivals[rank][src]
                if not q:
                    continue
                head = q[0]
                if best is None or (
                    (head.arrives_at, head.source)
                    < (best.arrives_at, best.source)
                ):
                    best = head
        else:
            inbox = self._inbox[rank]
            for src in sorted(self._arrivals[rank]):
                q = inbox.get((src, tag))
                if not q:
                    continue
                head = q[0]
                if best is None or (
                    (head.arrives_at, head.source)
                    < (best.arrives_at, best.source)
                ):
                    best = head
        return best

    def _try_recv(self, rank: int, state: _RankState, op: RecvOp) -> bool:
        """Attempt to complete a receive; True on success.

        A timed receive (``op.timeout >= 0``) completes here only when a
        matching message arrives within the window; an expired window is
        resolved at quiescence (:meth:`_resolve_quiescence`), never eagerly
        — per-channel FIFO guarantees no earlier message can still appear,
        but an :data:`ANY_SOURCE` receive could yet be satisfied by another
        sender, so expiry must wait until no rank can make progress.
        """
        source = op.source
        if source == ANY_SOURCE:
            msg = self._peek_any_source(rank, op.tag)
            if msg is None:
                return False
            if op.timeout >= 0 and msg.arrives_at > state.clock + op.timeout:
                return False
            if op.tag == ANY_TAG:
                self._arrivals[rank][msg.source].popleft()
                self._inbox[rank][(msg.source, msg.tag)].remove(msg)
            else:
                self._inbox[rank][(msg.source, msg.tag)].popleft()
                self._arrivals[rank][msg.source].remove(msg)
        elif not 0 <= source < self.nprocs:
            raise ValueError(
                f"rank {rank}: recv from invalid source {source}"
            )
        elif op.tag == ANY_TAG:
            seq = self._arrivals[rank][source]
            if not seq:
                return False
            if op.timeout >= 0 and seq[0].arrives_at > state.clock + op.timeout:
                return False
            msg = seq.popleft()
            self._inbox[rank][(source, msg.tag)].remove(msg)
        else:
            q = self._inbox[rank][(source, op.tag)]
            if not q:
                return False
            if op.timeout >= 0 and q[0].arrives_at > state.clock + op.timeout:
                return False
            msg = q.popleft()
            self._arrivals[rank][source].remove(msg)
        clock = state.clock
        start = msg.arrives_at
        if start < clock:
            start = clock
        else:
            self._blocked_s[rank] += start - clock
        if self._pauses is not None:
            start = self._pause_shift(rank, start)
        end = start + self._recv_cpu_time(msg.nbytes)
        state.clock = end
        self._comm_s[rank] += end - start
        state.pending_value = msg.payload
        if not self._fast:
            self._emit(
                TraceEvent(
                    rank=rank,
                    kind="recv",
                    start=start,
                    end=end,
                    detail=f"<-{msg.source} tag={msg.tag}",
                    nbytes=msg.nbytes,
                    peer=msg.source,
                    tag=msg.tag,
                    arrival=msg.arrives_at,
                    phase=state.phase_path,
                )
            )
        return True

    def _do_compute(self, rank: int, state: _RankState, op: ComputeOp) -> None:
        start = state.clock
        seconds = op.seconds
        if self._straggle is not None:
            if self._pauses is not None:
                start = self._pause_shift(rank, start)
            factor = self._straggle[rank]
            if factor != 1.0:
                seconds = seconds * factor
        state.clock = start + seconds
        self._compute_s[rank] += seconds
        if not self._fast:
            self._emit(
                TraceEvent(
                    rank=rank,
                    kind="compute",
                    start=start,
                    end=state.clock,
                    detail=f"{op.points:g} pts" if op.points else "",
                    phase=state.phase_path,
                )
            )

    def _do_mark(self, rank: int, state: _RankState, op: MarkOp) -> None:
        label = op.label
        if label.startswith(PHASE_BEGIN):
            state.phases.append(label[len(PHASE_BEGIN):])
            state.phase_path = "/".join(state.phases)
        elif label.startswith(PHASE_END):
            name = label[len(PHASE_END):]
            if not state.phases or state.phases[-1] != name:
                open_phase = state.phases[-1] if state.phases else None
                raise ValueError(
                    f"rank {rank}: phase_end({name!r}) does not match the "
                    f"innermost open phase {open_phase!r}"
                )
        if not self._fast:
            self._emit(
                TraceEvent(
                    rank=rank,
                    kind="mark",
                    start=state.clock,
                    end=state.clock,
                    detail=label,
                    phase=state.phase_path,
                )
            )
        if label.startswith(PHASE_END):
            state.phases.pop()
            state.phase_path = "/".join(state.phases)

    # -- main loop ------------------------------------------------------------

    def run(self, generators: Iterable[Generator]) -> RunResult:
        states = [_RankState(g) for g in generators]
        if len(states) != self.nprocs:
            raise ValueError(
                f"expected {self.nprocs} rank programs, got {len(states)}"
            )
        runnable = deque(range(self.nprocs))
        while True:
            while runnable:
                rank = runnable.popleft()
                state = states[rank]
                if state.done:
                    continue
                self._advance(rank, state)
                if not state.done and state.blocked is None:
                    raise AssertionError("rank neither done nor blocked")
                # A rank that blocked may be unblocked by messages already
                # sent; _advance loops internally, so reaching here means it
                # is either finished or waiting on a future message.  Wake
                # any ranks whose mailbox actually changed.
                self._drain_wakeups(states)
            if all(s.done for s in states):
                break
            # quiescence: every unfinished rank is blocked and no pending
            # message can complete its receive — fire the earliest receive
            # deadline, cancel an all-cancellable remainder, or report
            # deadlock
            runnable.extend(self._resolve_quiescence(states))
        trace = self.trace
        trace.message_count = self._msg_count
        trace.total_bytes = self._total_bytes
        trace.compute_seconds = sum(self._compute_s)
        result = RunResult(
            clocks=tuple(s.clock for s in states),
            returns=tuple(s.result for s in states),
            trace=trace,
            compute_by_rank=tuple(self._compute_s),
            comm_by_rank=tuple(self._comm_s),
            blocked_by_rank=tuple(self._blocked_s),
            fault_counts=(
                dict(self._fault_counts)
                if self._fault_counts is not None
                else None
            ),
        )
        for sink in self.sinks:
            on_run_end = getattr(sink, "on_run_end", None)
            if on_run_end is not None:
                on_run_end(result)
        return result

    def _resolve_quiescence(self, states: list[_RankState]) -> list[int]:
        """Resolve a stall where every unfinished rank is blocked.

        Resolution order:

        1. **Timed receives** — fire the earliest ``(deadline, rank)``: the
           rank resumes with :data:`TIMEOUT` at ``clock = deadline``.  Safe
           by induction: at quiescence no rank can run before some blocked
           receive resolves, and every other resolution happens at a
           deadline ``>=`` this one, so every message sent afterwards is
           *sent* at virtual time ``>=`` the fired deadline — no message
           that "should have" beaten the timeout can still appear.
        2. **Cancellable receives** — if every blocked rank is cancellable,
           all resume with :data:`CANCELLED`, clocks unchanged (protocol
           termination).
        3. Otherwise the configuration is genuinely deadlocked.
        """
        best_rank = -1
        best_deadline = 0.0
        for r, s in enumerate(states):
            if s.done or s.blocked is None:
                continue
            op = s.blocked
            if op.timeout >= 0:
                deadline = s.clock + op.timeout
                if best_rank < 0 or deadline < best_deadline:
                    best_rank, best_deadline = r, deadline
        if best_rank >= 0:
            s = states[best_rank]
            self._blocked_s[best_rank] += best_deadline - s.clock
            if not self._fast:
                self._emit(
                    TraceEvent(
                        rank=best_rank,
                        kind="timeout",
                        start=s.clock,
                        end=best_deadline,
                        detail=(
                            f"recv(source={_describe_source(s.blocked.source)}"
                            f", tag={s.blocked.tag}) timed out"
                        ),
                        phase=s.phase_path,
                    )
                )
            s.clock = best_deadline
            s.pending_value = TIMEOUT
            s.blocked = None
            self._waiting_src[best_rank] = -1
            if self._fault_counts is not None:
                self._fault_counts["timeouts_fired"] += 1
            return [best_rank]
        blocked = [(r, s) for r, s in enumerate(states) if not s.done]
        if blocked and all(
            s.blocked is not None and s.blocked.cancellable
            for _, s in blocked
        ):
            resumed = []
            for r, s in blocked:
                if not self._fast:
                    self._emit(
                        TraceEvent(
                            rank=r,
                            kind="cancel",
                            start=s.clock,
                            end=s.clock,
                            detail="lingering recv cancelled",
                            phase=s.phase_path,
                        )
                    )
                s.pending_value = CANCELLED
                s.blocked = None
                self._waiting_src[r] = -1
                if self._fault_counts is not None:
                    self._fault_counts["cancelled"] += 1
                resumed.append(r)
            return resumed
        raise SimDeadlockError(
            _deadlock_message([(r, s.blocked) for r, s in blocked])
        )

    def _take_ready(self) -> list[int]:
        """Blocked ranks whose awaited source sent a message since the last
        sweep.  Consumes the dirty list."""
        ready = self._dirty
        if ready:
            self._dirty = []
        return ready

    def _drain_wakeups(self, states: list[_RankState]) -> None:
        """Re-poll only the blocked receivers whose awaited source has sent.

        The wake index (``_waiting_src`` + ``_dirty``) makes each sweep
        O(#ranks-with-new-mail) instead of rescanning every blocked rank:
        a send to rank ``r`` marks ``r`` dirty only when ``r`` is currently
        blocked on that source, and only dirty ranks are re-polled here.
        Wake *order* still matches a full ascending-rank scan exactly (the
        equivalence is pinned by a hypothesis stress test): each pass visits
        candidates in ascending rank order; a rank dirtied mid-pass joins
        the current pass if its rank number is still ahead of the scan
        position, otherwise the next pass.
        """
        ready = self._take_ready()
        while ready:
            heap = sorted(set(ready))
            in_pass = set(heap)
            next_pass: set[int] = set()
            while heap:
                rank = heappop(heap)
                in_pass.discard(rank)
                state = states[rank]
                op = state.blocked
                if state.done or op is None:
                    continue
                if not self._try_recv(rank, state, op):
                    continue
                state.blocked = None
                self._waiting_src[rank] = -1
                self._advance(rank, state)
                for newly in self._take_ready():
                    if newly in in_pass or newly in next_pass:
                        continue
                    if newly > rank:
                        heappush(heap, newly)
                        in_pass.add(newly)
                    else:
                        next_pass.add(newly)
            ready = sorted(next_pass)

    def _advance(self, rank: int, state: _RankState) -> None:
        """Drive one rank until it finishes or blocks on an empty receive.

        Ops dispatch on their exact class: the four primitive dataclasses
        of :mod:`repro.simmpi.message`; anything else is rejected.
        """
        gen_send = state.gen.send
        fast = self._fast and self._faults is None
        compute_s = self._compute_s
        while True:
            try:
                op = gen_send(state.pending_value)
                state.pending_value = None
            except StopIteration as stop:
                state.done = True
                state.result = stop.value
                return
            cls = op.__class__
            if cls is ComputeOp and fast:
                state.clock += op.seconds
                compute_s[rank] += op.seconds
            elif cls is SendOp:
                self._do_send(rank, state, op)
            elif cls is RecvOp:
                if not self._try_recv(rank, state, op):
                    state.blocked = op
                    self._waiting_src[rank] = op.source
                    return
            elif cls is ComputeOp:
                self._do_compute(rank, state, op)
            elif cls is MarkOp:
                self._do_mark(rank, state, op)
            else:
                raise TypeError(
                    f"rank {rank} yielded unsupported op {op!r}"
                )


def run_programs(
    machine: MachineModel,
    programs: list[Generator],
    record_events: bool = False,
    sinks: Iterable = (),
    faults=None,
) -> RunResult:
    """Convenience wrapper: run already-instantiated rank generators."""
    engine = Engine(
        machine, nprocs=len(programs), record_events=record_events,
        sinks=sinks, faults=faults,
    )
    return engine.run(programs)


class Step(NamedTuple):
    """One op index of a :class:`Lockstep` program: the op kind its ranks
    run there, with the operands as vectors over those ranks."""

    kind: type  # SendOp, RecvOp or ComputeOp
    peer: Any = None  # int[k]: a send's dest, a receive's source
    tag: Any = None  # int[k]
    nbytes: Any = None  # int[k]: a send's payload size
    seconds: Any = None  # float[k]: a compute charge
    points: Any = None  # int[k]: the points it covers
    match: int = -1  # a receive's matched send step
    site: Any = None  # the producer's annotation; never read here
    active: Any = None  # int[k], increasing: its ranks; None: every rank


@dataclasses.dataclass(frozen=True, eq=False)
class Lockstep:
    """Per-rank programs stored as one :class:`Step` per op index: every
    rank runs the steps it is active in, in step order.  There are no mark
    steps: observers read
    :attr:`repro.sweep.compile.CompiledSchedule.marked`."""

    steps: tuple[Step, ...]
    nprocs: int

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        for on in (s.active for s in self.steps if s.active is not None):
            if len(on) and not (
                0 <= on[0] and on[-1] < self.nprocs and (on[1:] > on[:-1]).all()
            ):
                raise ValueError(
                    f"active ranks must increase within [0, {self.nprocs})"
                )
        every = np.arange(self.nprocs)
        every.flags.writeable = False
        object.__setattr__(self, "_every", every)

    def ranks(self, step: Step) -> np.ndarray:
        """The ranks ``step`` runs on (read-only)."""
        return self._every if step.active is None else step.active

    @functools.cached_property
    def messages(self) -> tuple[np.ndarray, ...]:
        """``(step, src, dst, tag, nbytes)`` of every message: its send
        step's position among the send steps, then the step's vectors,
        concatenated in step order."""
        sends = [step for step in self.steps if step.kind is SendOp]
        row = np.repeat(np.arange(len(sends)), [len(s.peer) for s in sends])
        return (row,) + tuple(
            np.concatenate([get(s) for s in sends] or [row])
            for get in (
                self.ranks, operator.attrgetter("peer"),
                operator.attrgetter("tag"), operator.attrgetter("nbytes"),
            )
        )

    @functools.cached_property
    def paired(self) -> bool:
        """Whether FIFO matching pairs each receive step with its
        ``match``: the k-th receive step's ``match`` is the k-th send step,
        an earlier one, whose ranks send to exactly the receive step's
        ranks, each from its ``peer`` with the receive's tag: then no two
        messages on one channel can swap.  One scatter of the messages by
        ``(step, src)`` and one gather by source check every receive."""
        steps = self.steps
        sends = [i for i, step in enumerate(steps) if step.kind is SendOp]
        recvs = [i for i, step in enumerate(steps) if step.kind is RecvOp]
        if [steps[i].match for i in recvs] != sends or any(
            s >= r for s, r in zip(sends, recvs)
        ):
            return False
        if not recvs:
            return True
        recvs = [steps[i] for i in recvs]
        row, src, dst, tag, _ = self.messages
        if [len(s.peer) for s in recvs] != [len(steps[i].peer) for i in sends]:
            return False
        source = np.concatenate([s.peer for s in recvs])
        if source.min() < 0 or source.max() >= self.nprocs:
            return False
        # each send step's dest and tag by sender, -1 where it is idle
        dest = np.full((len(sends), self.nprocs), -1)
        dest[row, src] = dst
        tags = np.zeros_like(dest)
        tags[row, src] = tag
        return bool(
            (dest[row, source]
             == np.concatenate([self.ranks(s) for s in recvs])).all()
            and (tags[row, source]
                 == np.concatenate([s.tag for s in recvs])).all()
        )

    def per_rank(self, columns: Iterable) -> tuple[tuple, ...]:
        """Every rank's entries of ``columns`` (one iterable per step over
        its ranks), in step order."""
        if all(step.active is None for step in self.steps):
            return tuple(zip(*columns)) or ((),) * self.nprocs
        ranks: list[list] = [[] for _ in range(self.nprocs)]
        for step, column in zip(self.steps, columns):
            for rank, entry in zip(self.ranks(step).tolist(), column):
                ranks[rank].append(entry)
        return tuple(map(tuple, ranks))

    def rank_ops(self) -> tuple[tuple, ...]:
        """Every rank's op tuple."""
        return self.per_rank(
            map(ComputeOp, step.seconds.tolist(), step.points.tolist())
            if step.kind is ComputeOp else map(
                SendOp, step.peer.tolist(),
                map(Bytes, step.nbytes.tolist()), step.tag.tolist(),
            ) if step.kind is SendOp else map(
                RecvOp, step.peer.tolist(), step.tag.tolist()
            )
            for step in self.steps
        )


def replayable(
    machine: MachineModel, program: Lockstep, observed: bool
) -> bool:
    """Whether :func:`replay_lockstep` times ``program``'s run exactly: no
    fault, protocol, trace or sink ``observed`` the run, the network is no
    bus, and the program is paired (checked only then); otherwise the
    engine runs it."""
    bus = machine.network is NetworkScaling.BUS
    return not observed and not bus and program.paired


def replay_lockstep(machine: MachineModel, program: Lockstep) -> RunResult:
    """:func:`run_programs` over generators that yield ``program``'s
    per-rank ops, computed without the event loop: every rank advanced
    together one step at a time (see "Lockstep replay" above)."""
    if not program.paired:
        raise ValueError("lockstep replay needs a paired program")
    steps, nprocs = program.steps, program.nprocs
    _, src, dst, _, nbytes = program.messages
    # the machine's scalar timings, once per distinct message shape
    key = nbytes
    if machine.topology is not None and len(nbytes):
        key = (src * nprocs + dst) * (int(nbytes.max()) + 1) + nbytes
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    timings = np.array([
        (machine.send_cpu_time(n), machine.transfer_time(n, src=s, dst=d),
         machine.recv_cpu_time(n))
        for n, s, d in zip(
            nbytes[first].tolist(), src[first].tolist(), dst[first].tolist()
        )
    ], dtype=float).reshape(-1, 3)[inverse.ravel()]
    # (send cpu, wire time, receive cpu) of every message, send step by
    # send step in the order of its ranks
    send_cpu, wire, recv_cpu = timings.T
    clock, compute, comm, blocked = (np.zeros(nprocs) for _ in range(4))
    # receive step k takes send step k's (arrivals, receive cpus, senders)
    in_flight: deque = deque()
    lo = 0
    for step in steps:
        kind, on = step.kind, step.active
        if kind is ComputeOp:
            if on is None:
                clock += step.seconds
                compute += step.seconds
            else:
                clock[on] += step.seconds
                compute[on] += step.seconds
        elif kind is SendOp:
            hi = lo + len(step.peer)
            if on is None:
                start = clock
                clock = start + send_cpu[lo:hi]
                comm += clock - start
                in_flight.append((clock + wire[lo:hi], recv_cpu[lo:hi], on))
            else:
                start = clock[on]
                end = start + send_cpu[lo:hi]
                clock[on] = end
                comm[on] += end - start
                in_flight.append((end + wire[lo:hi], recv_cpu[lo:hi], on))
            lo = hi
        elif kind is RecvOp:
            arrivals, cpus, senders = in_flight.popleft()
            at = step.peer if senders is None else np.searchsorted(
                senders, step.peer
            )
            # max(arrival, clock) - clock is arrival - clock for a late
            # message, else +0.0: the engine's conditional, bit for bit
            if on is None:
                start = np.maximum(arrivals[at], clock)
                blocked += start - clock
                clock = start + cpus[at]
                comm += clock - start
            else:
                start = np.maximum(arrivals[at], clock[on])
                blocked[on] += start - clock[on]
                end = start + cpus[at]
                clock[on] = end
                comm[on] += end - start
        else:
            raise TypeError(f"lockstep replay cannot run {kind.__name__}")
    compute_by_rank = tuple(compute.tolist())
    trace = Trace(enabled=False, message_count=len(src),
                  total_bytes=int(nbytes.sum()),
                  compute_seconds=sum(compute_by_rank))
    return RunResult(
        clocks=tuple(clock.tolist()),
        returns=(None,) * nprocs,
        trace=trace,
        compute_by_rank=compute_by_rank,
        comm_by_rank=tuple(comm.tolist()),
        blocked_by_rank=tuple(blocked.tolist()),
    )
