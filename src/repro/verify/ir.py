"""The rank-program IR: a side-effect-free view of what every rank does.

The IR is a tuple of per-rank op sequences.  Each op is a small frozen
record carrying its own coordinates — ``(rank, index)`` — plus the fields
the analyses need (peer, tag, declared byte count, phase annotation), and
nothing else: no payloads, no numpy arrays, no generators.  Analyses over
the IR therefore cannot mutate simulator state, and extracting the IR
cannot run any computation of the underlying schedule.

Extraction lowers the executor's compiled schedule
(:meth:`repro.sweep.multipart.MultipartExecutor.compile`): the same
per-rank op lists the engine replays in skeleton mode and the real-data
interpreter walks, so verdicts about the IR hold for both executions by
construction.  No rank program runs and no payload is touched.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Sequence, Union

from repro.simmpi.message import (
    ANY_TAG,
    PHASE_BEGIN,
    PHASE_END,
    ComputeOp,
    MarkOp,
    RecvOp,
    SendOp,
    payload_nbytes,
)

__all__ = [
    "IRSend",
    "IRRecv",
    "IRCompute",
    "IRMark",
    "IROp",
    "ProgramIR",
    "extract_program_ir",
]


@dataclasses.dataclass(frozen=True, slots=True)
class IRSend:
    """An eager (never-blocking) send of ``nbytes`` to ``(dest, tag)``."""

    rank: int
    index: int
    dest: int
    tag: int
    nbytes: int
    phase: str = ""

    def witness(self) -> dict:
        return {
            "kind": "send",
            "rank": self.rank,
            "op_index": self.index,
            "dest": self.dest,
            "tag": self.tag,
            "nbytes": self.nbytes,
            "phase": self.phase,
        }


@dataclasses.dataclass(frozen=True, slots=True)
class IRRecv:
    """A blocking receive from ``(source, tag)``; ``tag`` may be ANY_TAG."""

    rank: int
    index: int
    source: int
    tag: int
    phase: str = ""

    def witness(self) -> dict:
        return {
            "kind": "recv",
            "rank": self.rank,
            "op_index": self.index,
            "source": self.source,
            "tag": "ANY" if self.tag == ANY_TAG else self.tag,
            "phase": self.phase,
        }


@dataclasses.dataclass(frozen=True, slots=True)
class IRCompute:
    """A local compute charge (kept for completeness; analyses skip it)."""

    rank: int
    index: int
    seconds: float
    phase: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class IRMark:
    """A trace marker (op labels; phase begin/end already folded into the
    per-op ``phase`` field during extraction)."""

    rank: int
    index: int
    label: str
    phase: str = ""


IROp = Union[IRSend, IRRecv, IRCompute, IRMark]


@dataclasses.dataclass(frozen=True)
class ProgramIR:
    """The complete program: one op tuple per rank."""

    nprocs: int
    ranks: tuple[tuple[IROp, ...], ...]

    def __post_init__(self) -> None:
        if len(self.ranks) != self.nprocs:
            raise ValueError(
                f"expected {self.nprocs} rank op lists, got {len(self.ranks)}"
            )

    def sends(self) -> Iterator[IRSend]:
        for ops in self.ranks:
            for op in ops:
                if isinstance(op, IRSend):
                    yield op

    def recvs(self) -> Iterator[IRRecv]:
        for ops in self.ranks:
            for op in ops:
                if isinstance(op, IRRecv):
                    yield op

    @property
    def total_ops(self) -> int:
        return sum(len(ops) for ops in self.ranks)

    @property
    def total_sends(self) -> int:
        return sum(1 for _ in self.sends())

    @property
    def total_send_bytes(self) -> int:
        return sum(s.nbytes for s in self.sends())

    def replace_rank(self, rank: int, ops: tuple[IROp, ...]) -> "ProgramIR":
        """A copy with one rank's op sequence substituted — the mutation
        hook the self-test harness uses."""
        ranks = list(self.ranks)
        ranks[rank] = tuple(ops)
        return ProgramIR(self.nprocs, tuple(ranks))


def _lower_rank(rank: int, raw_ops: Sequence[Any]) -> tuple[IROp, ...]:
    """Lower primitive ops to IR records, folding phase-span marks into a
    per-op ``phase`` path (mirroring the engine's attribution rule: the
    innermost open phase wins)."""
    out: list[IROp] = []
    stack: list[str] = []
    path = ""
    for op in raw_ops:
        index = len(out)
        if isinstance(op, MarkOp):
            label = op.label
            if label.startswith(PHASE_BEGIN):
                stack.append(label[len(PHASE_BEGIN):])
                path = "/".join(stack)
                continue
            if label.startswith(PHASE_END):
                name = label[len(PHASE_END):]
                if not stack or stack[-1] != name:
                    raise ValueError(
                        f"rank {rank}: phase_end({name!r}) does not match "
                        f"the open phase stack {stack!r}"
                    )
                stack.pop()
                path = "/".join(stack)
                continue
            out.append(IRMark(rank, index, label, path))
        elif isinstance(op, SendOp):
            out.append(
                IRSend(
                    rank,
                    index,
                    op.dest,
                    op.tag,
                    payload_nbytes(op.payload),
                    path,
                )
            )
        elif isinstance(op, RecvOp):
            out.append(IRRecv(rank, index, op.source, op.tag, path))
        elif isinstance(op, ComputeOp):
            out.append(IRCompute(rank, index, op.seconds, path))
        else:  # pragma: no cover - the compiler emits primitive ops only
            raise TypeError(f"unsupported primitive op {op!r}")
    if stack:
        raise ValueError(f"rank {rank}: unclosed phase span(s) {stack!r}")
    return tuple(out)


def extract_program_ir(executor: Any, schedule: Any) -> ProgramIR:
    """Extract the :class:`ProgramIR` of ``schedule`` on ``executor``.

    ``executor`` is a :class:`repro.sweep.multipart.MultipartExecutor`;
    its compiled per-rank op lists are lowered one rank at a time.  Phase
    marks are only compiled when the executor was constructed with mark
    emission enabled (``record_events=True`` or any sink attached); the IR
    is structurally identical either way — phases just stay empty strings
    otherwise.
    """
    compiled = executor.compile(schedule)
    ranks = tuple(
        _lower_rank(rank, ops) for rank, ops in enumerate(compiled.ops)
    )
    return ProgramIR(compiled.nprocs, ranks)
