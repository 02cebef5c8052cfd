"""The rank-program IR: the compiled per-rank op tuples themselves.

``ProgramIR.ranks`` is :attr:`repro.sweep.compile.CompiledSchedule.ops`:
one tuple per rank of the primitive ops of :mod:`repro.simmpi.message`
(``SendOp``/``RecvOp``/``ComputeOp``/``MarkOp``) that skeleton mode times
and the real-data interpreter walks, so a verdict about the IR is a
verdict about the program the engine runs.  An op is identified by its
coordinates ``(rank, index)``, its position in ``ranks``; phase-span marks
count as positions like any other op.  Analyses switch on
``op.__class__`` and never run an op or touch a payload.

The phase an op sits in is not stored per op: :meth:`ProgramIR.witness`
folds a rank's phase-span marks (:func:`fold_phases`) the first time it
describes an op of that rank, so a clean verdict never pays for it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Sequence

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


@dataclasses.dataclass(frozen=True)
class ProgramIR:
    """The complete program: one op tuple per rank."""

    nprocs: int
    ranks: tuple[tuple[Any, ...], ...]
    _phases: dict[int, tuple[str, ...]] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.ranks) != self.nprocs:
            raise ValueError(
                f"expected {self.nprocs} rank op lists, got {len(self.ranks)}"
            )

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
        """Every op except phase-span marks."""
        return sum(
            1
            for ops in self.ranks
            for op in ops
            if op.__class__ is not MarkOp
            or not op.label.startswith(_SPAN_PREFIXES)
        )

    @property
    def total_sends(self) -> int:
        return sum(1 for _ in self.sends())

    @property
    def total_send_bytes(self) -> int:
        return sum(payload_nbytes(op.payload) for _, _, op in self.sends())

    def replace_rank(
        self, rank: int, ops: tuple[Any, ...]
    ) -> "ProgramIR":
        """A copy with one rank's op sequence substituted — the mutation
        hook the self-test harness uses."""
        ranks = list(self.ranks)
        ranks[rank] = tuple(ops)
        return ProgramIR(self.nprocs, tuple(ranks))

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
    the IR is its compiled per-rank op tuples, with no per-op work.  Phase
    marks are only compiled when the executor was constructed with mark
    emission enabled (``record_events=True`` or any sink attached);
    witness phases are empty strings otherwise.
    """
    compiled = executor.compile(schedule)
    return ProgramIR(compiled.nprocs, compiled.ops)
