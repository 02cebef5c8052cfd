"""Static communication planning: vectorization + aggregation (Section 5).

Given a resolved multipartitioned distribution and a sweep direction or a
stencil reach, this module computes — *without running anything* — the
exact message pattern the runtime will execute: per phase, which rank sends
how many elements to which rank.  Each plan is a fold over the sends of the
compiled schedule (:mod:`repro.sweep.compile`), the same per-rank op lists
the simulator executes, so the plan is the runtime's pattern by
construction.  Three facts from the paper make the plan small and regular:

* **balance** — every rank computes in every phase;
* **neighbor** — all of a rank's carries in one phase go to one rank, so a
  fully-vectorized shift is ONE message per rank per phase;
* loop-carried sweep dependences are vectorized across the hyper-rectangular
  slab, never sent tile by tile.
"""

from __future__ import annotations

import dataclasses

from repro.core.mapping import Multipartitioning
from repro.simmpi.machine import MachineModel
from repro.sweep.compile import ITEMSIZE, ScheduleCompiler
from repro.sweep.ops import StencilOp, SweepOp

__all__ = [
    "PlannedMessage",
    "SweepCommPlan",
    "plan_sweep_comm",
    "StencilCommPlan",
    "plan_stencil_comm",
]


@dataclasses.dataclass(frozen=True)
class PlannedMessage:
    """One planned point-to-point transfer."""

    phase: int
    source: int
    dest: int
    tiles: int        # tile boundary planes carried
    elements: int     # total elements carried


@dataclasses.dataclass(frozen=True)
class SweepCommPlan:
    """Complete communication plan for one sweep along ``axis``."""

    axis: int
    reverse: bool
    phases: int
    messages: tuple[PlannedMessage, ...]

    @property
    def message_count(self) -> int:
        return len(self.messages)

    @property
    def total_elements(self) -> int:
        return sum(m.elements for m in self.messages)

    def messages_in_phase(self, phase: int) -> tuple[PlannedMessage, ...]:
        return tuple(m for m in self.messages if m.phase == phase)


def _planned(
    partitioning: Multipartitioning,
    shape: tuple[int, ...],
    op,
    aggregate: bool = True,
) -> tuple[PlannedMessage, ...]:
    """The compiled sends of the one-op schedule ``[op]``, ordered by phase
    then source rank.  Compute charges play no part, so any machine
    compiles the same sends."""
    compiled = ScheduleCompiler(
        partitioning, shape, MachineModel(), aggregate
    ).compile([op])
    messages = [
        PlannedMessage(
            phase=site.phase,
            source=rank,
            dest=send.dest,
            tiles=len(site.tiles),
            elements=send.payload.nbytes // ITEMSIZE,
        )
        for rank, send, site in compiled.sends()
    ]
    return tuple(sorted(messages, key=lambda m: m.phase))


def plan_sweep_comm(
    partitioning: Multipartitioning,
    shape: tuple[int, ...],
    axis: int,
    reverse: bool = False,
    aggregate: bool = True,
) -> SweepCommPlan:
    """Build the static message plan for a sweep.

    With ``aggregate=True``, each rank sends exactly one message per
    communication phase (to its unique downstream neighbor); otherwise one
    message per tile boundary.
    """
    axis %= len(shape)
    return SweepCommPlan(
        axis=axis,
        reverse=reverse,
        phases=partitioning.gammas[axis],
        messages=_planned(
            partitioning, shape, SweepOp(axis=axis, reverse=reverse),
            aggregate,
        ),
    )


@dataclasses.dataclass(frozen=True)
class StencilCommPlan:
    """Halo-exchange plan for one star-stencil statement: the shadow-region
    fills along every partitioned axis, aggregated per (rank, axis, side)."""

    reach: tuple[tuple[int, int], ...]
    messages: tuple[PlannedMessage, ...]

    @property
    def message_count(self) -> int:
        return len(self.messages)

    @property
    def total_elements(self) -> int:
        return sum(m.elements for m in self.messages)


def plan_stencil_comm(
    partitioning: Multipartitioning,
    shape: tuple[int, ...],
    reach: tuple[tuple[int, int], ...],
) -> StencilCommPlan:
    """Static halo plan for a star stencil of the given per-axis reach.

    One aggregated message per (rank, axis, side) whose axis is cut and
    whose side has positive reach — this is what the neighbor property buys
    for shadow fills too.  ``phase`` encodes ``2 * axis + side``.
    """
    if len(reach) != len(shape):
        raise ValueError("reach must have one (lo, hi) pair per axis")
    reach = tuple(reach)
    # planning never runs the stencil kernel
    op = StencilOp(fn=None, reach=reach)  # type: ignore[arg-type]
    return StencilCommPlan(
        reach=reach, messages=_planned(partitioning, shape, op)
    )
