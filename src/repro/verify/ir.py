"""The rank-program IR: the compiled lockstep program and its op tuples.

For a compiled schedule ``ProgramIR.ranks`` is the marked view
:attr:`repro.sweep.compile.CompiledSchedule.marked`: one tuple per rank of
the primitive ops of :mod:`repro.simmpi.message`
(``SendOp``/``RecvOp``/``ComputeOp``/``MarkOp``), the program the engine
runs with an observed run's marks interleaved, so a verdict about the IR
is a verdict about that program.  An op is identified by its coordinates
``(rank, index)``, its position in ``ranks``; phase-span marks count as
positions like any other op.  Analyses switch on ``op.__class__`` and
never run an op or touch a payload.

A compiled IR keeps the :class:`~repro.simmpi.engine.Lockstep` the run
executes and derives ``ranks`` only when a per-op analysis asks.
``verify_ir`` decides a :attr:`ProgramIR.paired` program from its send
steps (DESIGN.md §8); hand-built, mutated and unpaired IRs are analyzed op
by op.

The phase an op sits in is not stored per op: :meth:`ProgramIR.witness`
folds a rank's phase-span marks (:func:`fold_phases`) the first time it
describes an op of that rank, so a clean verdict never pays for it.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.simmpi.engine import Lockstep
from repro.simmpi.message import (
    ANY_TAG,
    PHASE_BEGIN,
    PHASE_END,
    MarkOp,
    RecvOp,
    SendOp,
    payload_nbytes,
)

__all__ = ["ProgramIR", "extract_program_ir", "fold_phases"]

_SPAN_PREFIXES = (PHASE_BEGIN, PHASE_END)


def fold_phases(rank: int, ops: Sequence[Any]) -> tuple[str, ...]:
    """The ``"/"``-joined phase path of every op of one rank, mirroring
    the engine's attribution rule: the innermost open phase wins.  A
    phase-span mark gets the path it leaves open."""
    paths: list[str] = []
    stack: list[str] = []
    path = ""
    for op in ops:
        if op.__class__ is MarkOp and op.label.startswith(_SPAN_PREFIXES):
            label = op.label
            if label.startswith(PHASE_BEGIN):
                stack.append(label[len(PHASE_BEGIN):])
            else:
                name = label[len(PHASE_END):]
                if not stack or stack[-1] != name:
                    raise ValueError(
                        f"rank {rank}: phase_end({name!r}) does not match "
                        f"the open phase stack {stack!r}"
                    )
                stack.pop()
            path = "/".join(stack)
        paths.append(path)
    if stack:
        raise ValueError(f"rank {rank}: unclosed phase span(s) {stack!r}")
    return tuple(paths)


def _counted(op: Any) -> bool:
    """Whether ``op`` counts in ``total_ops``: it is no phase-span mark."""
    return op.__class__ is not MarkOp or not op.label.startswith(
        _SPAN_PREFIXES
    )


class ProgramIR:
    """The complete program: one op tuple per rank, or the lockstep
    program (or compiled schedule's marked view) they come from."""

    def __init__(
        self,
        nprocs: int,
        ranks: Sequence[tuple[Any, ...]] | None = None,
        lockstep: Lockstep | None = None,
        compiled: Any = None,
    ) -> None:
        self.nprocs = nprocs
        self.compiled = compiled
        self.lockstep = lockstep if compiled is None else compiled.lockstep
        self._ranks = None if ranks is None else tuple(ranks)
        if self._ranks is not None and len(self._ranks) != nprocs:
            raise ValueError(
                f"expected {nprocs} rank op lists, got {len(self._ranks)}"
            )
        self._phases: dict[int, tuple[str, ...]] = {}

    @property
    def ranks(self) -> tuple[tuple[Any, ...], ...]:
        if self._ranks is None:
            if self.compiled is not None:
                self._ranks = tuple(ops for ops, _ in self.compiled.marked)
            else:
                assert self.lockstep is not None
                self._ranks = self.lockstep.rank_ops()
        return self._ranks

    @property
    def paired(self) -> bool:
        """A paired lockstep program with no ``ANY_TAG`` receive (pairing
        gives every receive its message's tag)."""
        if self.lockstep is None or not self.lockstep.paired:
            return False
        return not (self.lockstep.messages[3] == ANY_TAG).any()

    def sends(self) -> Iterator[tuple[int, int, SendOp]]:
        """Every send as ``(rank, index, op)``, in rank then program order."""
        for rank, ops in enumerate(self.ranks):
            for index, op in enumerate(ops):
                if op.__class__ is SendOp:
                    yield rank, index, op

    def recvs(self) -> Iterator[tuple[int, int, RecvOp]]:
        """Every receive as ``(rank, index, op)``."""
        for rank, ops in enumerate(self.ranks):
            for index, op in enumerate(ops):
                if op.__class__ is RecvOp:
                    yield rank, index, op

    @property
    def total_ops(self) -> int:
        """Every op except phase-span marks: every rank's ops of a lockstep
        program, plus a compiled one's op-label mark per schedule op on
        every rank."""
        if self.lockstep is None:
            return sum(_counted(op) for ops in self.ranks for op in ops)
        labels = 0 if self.compiled is None else len(self.compiled.schedule)
        return self.nprocs * labels + sum(
            len(self.lockstep.ranks(s)) for s in self.lockstep.steps
        )

    @property
    def total_sends(self) -> int:
        if self.lockstep is None:
            return sum(1 for _ in self.sends())
        return len(self.lockstep.messages[0])

    @property
    def total_send_bytes(self) -> int:
        if self.lockstep is None:
            return sum(payload_nbytes(op.payload) for _, _, op in self.sends())
        return int(self.lockstep.messages[4].sum())

    def replace_rank(
        self, rank: int, ops: tuple[Any, ...]
    ) -> "ProgramIR":
        """A per-op copy with one rank's op sequence substituted — the
        mutation hook the self-test harness uses."""
        ranks = list(self.ranks)
        ranks[rank] = tuple(ops)
        return ProgramIR(self.nprocs, ranks)

    def witness(self, rank: int, index: int) -> dict[str, Any]:
        """The JSON description of the send or receive at ``(rank,
        index)`` that violation reports carry."""
        phases = self._phases.get(rank)
        if phases is None:
            phases = self._phases[rank] = fold_phases(rank, self.ranks[rank])
        op = self.ranks[rank][index]
        if op.__class__ is SendOp:
            return {
                "kind": "send",
                "rank": rank,
                "op_index": index,
                "dest": op.dest,
                "tag": op.tag,
                "nbytes": payload_nbytes(op.payload),
                "phase": phases[index],
            }
        return {
            "kind": "recv",
            "rank": rank,
            "op_index": index,
            "source": op.source,
            "tag": "ANY" if op.tag == ANY_TAG else op.tag,
            "phase": phases[index],
        }


def extract_program_ir(executor: Any, schedule: Any) -> ProgramIR:
    """The :class:`ProgramIR` of ``schedule`` on ``executor``.

    ``executor`` is a :class:`repro.sweep.multipart.MultipartExecutor`;
    the IR keeps the compiled program the executor runs (the same one
    whether or not it observes the run), with no per-op work.  Witnesses
    name their phases from the program's marked view.
    """
    compiled = executor.compile(schedule)
    return ProgramIR(compiled.nprocs, compiled=compiled)
