"""Baseline 2: dynamic block partitioning with full-array transposes.

The array is block-partitioned along ``part_axis`` — the block layout of
:class:`BlockGridExecutor` over the grid ``(1,) * part_axis + (p,)`` — so
sweeps along every other axis, pointwise ops and stencils run exactly as
there.  To sweep along ``part_axis`` itself the data is redistributed
(all-to-all "transpose") so that ``part_axis`` becomes local and
``alt_axis`` is partitioned, the sweep runs locally, and the data is
transposed back.  The executor overrides only the lowering and
interpretation of that sweep: pack, one full send and receive step per
all-to-all round, the local sweep, pack, and the rounds back.  The
executor driver (:mod:`repro.sweep.driver`) runs and times the one
lockstep program in both modes, real data and skeleton.

This is the strategy's defining trade: perfect efficiency during each sweep,
paid for by two all-to-alls moving (almost) the whole array per swept
dimension (Section 1's "dynamic block partitioning").
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.simmpi.comm import _TAG_ALLTOALL
from repro.simmpi.engine import Step
from repro.simmpi.machine import MachineModel
from repro.simmpi.message import ComputeOp, RecvOp, SendOp

from .blockgrid import BlockGridExecutor, BlockSite, _region
from .compile import ITEMSIZE
from .ops import scan_op
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
        self._part_spans = axis_extents(shape[part_axis], nprocs)
        self._alt_spans = axis_extents(shape[alt_axis], nprocs)
        #: every rank's share while ``part_axis`` is local: the whole array
        #: cut along ``alt_axis``, (nprocs, ndim)
        self._work = np.tile(np.array(shape, dtype=np.int64), (nprocs, 1))
        self._work[:, alt_axis] = [hi - lo for lo, hi in self._alt_spans]

    def _cuts(self, stage: str) -> tuple:
        """``(axis, spans)`` a stage's pieces are cut along, and those of
        the array they fill: forward, the block's ``alt_axis`` pieces fill
        the work array along ``part_axis``; back, the other way round."""
        alt = (self.alt_axis, self._alt_spans)
        part = (self.part_axis, self._part_spans)
        return (alt, part) if stage == "forward" else (part, alt)

    def _cut_sweep(self, index: int, op, axis: int, steps: list) -> None:
        """Pack, the exchange rounds of :meth:`~repro.simmpi.comm.Comm
        .alltoall` that make ``axis`` local, the local sweep, pack, and
        the rounds back.  Pack + unpack are real memory passes: one element
        pass each."""
        work = self._work.prod(axis=1)
        for stage, points, ops, tiles in (
            ("forward", self._points, 2.0, 0),
            ("sweep", work, op.flops_per_point, 1),
            ("back", work, 2.0, 0),
        ):
            site = BlockSite(index, (), stage)
            steps.append(self._compute(points, ops, tiles, site))
            if stage != "sweep":
                self._exchange(stage, site, steps)

    def _exchange(self, stage: str, site: BlockSite, steps: list) -> None:
        """The ``p - 1`` rounds of :meth:`~repro.simmpi.comm.Comm.alltoall`,
        a send and a receive step each: in round ``shift`` every rank sends
        rank ``rank + shift`` its piece and receives from ``rank - shift``."""
        (axis, spans), _ = self._cuts(stage)
        shape = self._blocks if stage == "forward" else self._work
        plane = ITEMSIZE * shape.prod(axis=1) // shape[:, axis]
        extents = np.array([hi - lo for lo, hi in spans])
        p, ranks = self.nprocs, self._ranks
        for shift in range(1, p):
            dest, tag = (ranks + shift) % p, np.full(p, _TAG_ALLTOALL + shift)
            steps.append(Step(SendOp, dest, tag, plane * extents[dest],
                              site=site))
            steps.append(Step(RecvOp, (ranks - shift) % p, tag,
                              match=len(steps) - 1, site=site))

    def _cut_entry(
        self, rank: int, prim, op, site: BlockSite, blocks: dict,
        state: dict,
    ) -> Generator:
        """Interpret one entry of a transposed sweep: the forward pieces
        fill a work array holding ``part_axis`` whole, the sweep scans it,
        and the pieces coming back fill the rank's block in place."""
        cls, block = prim.__class__, blocks[op.array]
        if site.key == "forward" and cls is ComputeOp:
            state["work"] = np.empty(self._work[rank].tolist())
        work = state["work"]
        if site.key == "sweep":
            n = self.shape[self.part_axis]
            scan_op(work, op, 0, n, n, carry=None)
            yield prim
            return
        (cut, cuts), (fill, fills) = self._cuts(site.key)
        source, target = (block, work) if site.key == "forward" else (work, block)
        if cls is ComputeOp:  # the rank's own piece
            target[_region(fill, *fills[rank])] = source[_region(cut, *cuts[rank])]
            yield prim
        elif cls is SendOp:
            piece = np.array(source[_region(cut, *cuts[prim.dest])], copy=True)
            yield SendOp(prim.dest, piece, prim.tag)
        else:
            target[_region(fill, *fills[prim.source])] = yield prim
