"""Baseline 2: dynamic block partitioning with full-array transposes.

The array is block-partitioned along ``part_axis`` — the block layout of
:class:`BlockGridExecutor` over the grid ``(1,) * part_axis + (p,)`` — so
sweeps along every other axis, pointwise ops and stencils run exactly as
there.  To sweep along ``part_axis`` itself the data is redistributed
(all-to-all "transpose") so that ``part_axis`` becomes local and
``alt_axis`` is partitioned, the sweep runs locally, and the data is
transposed back.

This is the strategy's defining trade: perfect efficiency during each sweep,
paid for by two all-to-alls moving (almost) the whole array per swept
dimension (Section 1's "dynamic block partitioning").
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.simmpi.comm import Comm
from repro.simmpi.machine import MachineModel

from .blockgrid import BlockGridExecutor
from .tiles import axis_extents

__all__ = ["TransposeExecutor"]


class TransposeExecutor(BlockGridExecutor):
    """Dynamic block partitioning executor (transpose-based sweeps)."""

    def __init__(
        self,
        nprocs: int,
        shape: tuple[int, ...],
        machine: MachineModel,
        part_axis: int = 0,
        alt_axis: int | None = None,
        record_events: bool = False,
    ):
        shape = tuple(int(s) for s in shape)
        if len(shape) < 2:
            raise ValueError("need at least 2 dimensions")
        if alt_axis is None:
            alt_axis = 1 if part_axis != 1 else 0
        if part_axis == alt_axis:
            raise ValueError("part_axis and alt_axis must differ")
        for ax in (part_axis, alt_axis):
            if not 0 <= ax < len(shape):
                raise ValueError("axis out of range")
            if nprocs > shape[ax]:
                raise ValueError(
                    f"need nprocs <= extent of axis {ax} for block cuts"
                )
        super().__init__(
            (1,) * part_axis + (nprocs,), shape, machine,
            record_events=record_events,
        )
        self.part_axis = part_axis
        self.alt_axis = alt_axis
        self._alt_spans = axis_extents(shape[alt_axis], nprocs)

    def _cut_sweep(
        self, comm: Comm, blocks: dict, op, axis: int, op_index: int
    ) -> Generator:
        """Redistribute so ``part_axis`` is local, sweep, redistribute back;
        the rank's block of ``op.array`` is rebound to the returned data."""
        slab = blocks[op.array]
        # forward transpose: split own slab along alt_axis, one piece per rank
        pieces = [
            np.ascontiguousarray(
                np.take(slab, range(lo, hi), axis=self.alt_axis)
            )
            for lo, hi in self._alt_spans
        ]
        # pack + unpack are real memory passes: charge one element pass each
        yield from comm.compute(
            self.machine.compute_time(slab.size, ops=2.0), points=slab.size
        )
        received = yield from comm.alltoall(pieces)
        # reassemble: full part_axis extent, own alt_axis span
        work = np.concatenate(received, axis=axis)
        yield from self._local_sweep(comm, work, op, axis)
        # backward transpose: split along part_axis, return pieces
        back_pieces = [
            np.ascontiguousarray(np.take(work, range(lo, hi), axis=axis))
            for lo, hi in self._spans[axis]
        ]
        yield from comm.compute(
            self.machine.compute_time(work.size, ops=2.0), points=work.size
        )
        returned = yield from comm.alltoall(back_pieces)
        blocks[op.array] = np.concatenate(returned, axis=self.alt_axis)
