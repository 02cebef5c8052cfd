"""Static block partitioning with pipelined wavefront sweeps.

``grid`` gives the processor count per axis; missing trailing axes are
uncut.  ``(p,)`` is the classic static block unipartitioning (one slab per
rank), ``(1, p)`` cuts axis 1, and ``(p1, p2)`` is the ``p1 x p2``
processor grid real static block parallelizations of 3-D codes use.  Ranks
are numbered in C order over the grid, and each owns one block for the
whole computation.  Sweeps then behave per axis:

* along an uncut axis: every line lies inside one block, so the sweep is
  one local compute;
* along a cut axis: every line crosses one *chain* of ranks (those that
  differ only in that coordinate).  The recurrence serializes the chain,
  so it is pipelined: the block is cut into ``chunks`` pieces over the
  first other cut axis (else the first other axis), and a rank starts
  chunk ``k`` as soon as its upstream neighbour has finished it.  Small
  chunks shorten pipeline fill/drain but pay more per-message overhead —
  the classic tension the paper describes in Section 1.  The chains run
  concurrently.

A star stencil exchanges faces along each cut axis in turn.  This is the
strongest block-partitioning baseline for 3-D line sweeps and the shape
against which the paper's 3-D multipartitionings were historically compared
(van der Wijngaart's "static" variants).  :class:`TransposeExecutor`
(:mod:`repro.sweep.transpose`) shares the layout and overrides only the
lowering and interpretation of a cut-axis sweep.

The executor lowers a schedule once to a
:class:`~repro.simmpi.engine.Lockstep` program, the form the
multipartitioned compiler emits: one step per op index, its vectors over
the ranks that run it, and a :class:`BlockSite` naming what each rank's
entry acts on.  Every tag, peer, byte count and compute charge of a block
baseline is decided there and nowhere else.  A cut-axis sweep is the
skewed (affine) schedule of the pipelined loop nest (Adutskevich,
Bakhanovich & Likhoded, arXiv cs/0606028): chain position ``q`` runs
chunk ``c`` at time ``c + q``, so each time is a receive, a compute and a
send step over the ranks with a chunk then, less the chain heads'
receive and the chain tails' send.  Halo sends and receives are masked at
the grid's edges; uncut sweeps and local ops are full compute steps.

:mod:`repro.sweep.driver` scatters the arrays over the blocks (a
:class:`~repro.sweep.tiles.TileGrid` of the grid, rank ``r`` owning the
``r``-th tile in C order) and runs and times the program as it does every
strategy's.  Here the real-data interpreter runs the numpy kernels at
compute entries and sends the real carry plane, halo face or transpose
piece in place of each send's declared byte count.
:func:`best_wavefront_chunks` picks the pipeline granularity by skeleton
makespan.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Generator, NamedTuple

import numpy as np

from repro.simmpi.engine import Lockstep, Step
from repro.simmpi.machine import MachineModel
from repro.simmpi.message import ComputeOp, RecvOp, SendOp

from .compile import ITEMSIZE, CompiledSchedule, compute_charge
from .driver import Executor
from .ops import (
    BinaryPointwiseOp,
    BlockSweepOp,
    CopyOp,
    PointwiseOp,
    StencilOp,
    SweepOp,
    apply_local_op,
    scan_op,
)
from .tiles import TileGrid, axis_extents

__all__ = ["BlockGridExecutor", "best_wavefront_chunks"]

#: ops every rank applies to its whole block as one local compute
_LOCAL = (PointwiseOp, BinaryPointwiseOp, CopyOp)


class BlockSite(NamedTuple):
    """What one lowered entry of a block rank program acts on.

    ``region`` is the chunk of the block (a tuple of slices) a wavefront
    compute scans, and ``key`` its global ``(lo, hi)`` span along the
    swept axis; a halo entry's ``key`` is its ``(axis, side)``, a
    transposed sweep's its stage (``"forward"``, ``"sweep"`` or
    ``"back"``).  A step's site is one :class:`BlockSite` for all its
    ranks, or, for a wavefront compute, a function of the rank."""

    op_index: int
    region: tuple = ()
    key: Any = None


def _region(axis: int, lo: int, hi: int) -> tuple:
    """``[lo, hi)`` along ``axis``, everything along the axes before it."""
    return (slice(None),) * axis + (slice(lo, hi),)


class BlockGridExecutor(Executor):
    """Static block partitioning over a per-axis processor grid, with
    pipelined wavefront sweeps along the cut axes."""

    def __init__(
        self,
        grid: tuple[int, ...],
        shape: tuple[int, ...],
        machine: MachineModel,
        chunks: int = 8,
        record_events: bool = False,
    ):
        shape = tuple(int(s) for s in shape)
        grid = tuple(int(g) for g in grid)
        if len(shape) < 2:
            raise ValueError("need at least 2 dimensions")
        if not 1 <= len(grid) <= len(shape):
            raise ValueError("grid needs one factor per leading axis")
        if min(grid) < 1:
            raise ValueError("grid factors must be >= 1")
        if any(g > n for g, n in zip(grid, shape)):
            raise ValueError("grid exceeds array extents")
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        self.grid = grid + (1,) * (len(shape) - len(grid))
        self.nprocs = math.prod(grid)
        self.shape = shape
        self.machine = machine
        self.chunks = chunks
        self.record_events = record_events
        self._cut_axes = tuple(a for a, g in enumerate(self.grid) if g > 1)
        # C-order rank numbering: neighbours along axis a are stride[a] apart
        self._strides = tuple(
            math.prod(self.grid[a + 1:]) for a in range(len(shape))
        )
        self._ranks = np.arange(self.nprocs)
        tiles = TileGrid(shape, self.grid)
        self.layout = (tiles, self._ranks.reshape(self.grid))
        #: every rank's grid coordinates and block extents, (nprocs, ndim)
        self._at = np.indices(self.grid).reshape(len(shape), -1).T
        self._blocks = np.array(
            [tiles.tile_shape(at) for at in self._at.tolist()], dtype=np.int64
        )
        self._points = self._blocks.prod(axis=1)

    def _compute(self, points, ops, tiles, site, active=None) -> Step:
        """A compute step charging each rank its ``points``."""
        return Step(ComputeOp, seconds=compute_charge(
            self.machine, points, ops, tiles
        ), points=points, site=site, active=active)

    def compile(self, schedule) -> CompiledSchedule:
        """``schedule`` lowered for every rank (see :meth:`lower`)."""
        schedule = tuple(schedule)
        return CompiledSchedule(schedule, self.lower(schedule))

    # -- lowering ------------------------------------------------------------

    def lower(self, schedule) -> Lockstep:
        """The lockstep program of ``schedule`` on every rank."""
        steps: list[Step] = []
        ndim = len(self.shape)
        for index, op in enumerate(schedule):
            sweep = isinstance(op, (SweepOp, BlockSweepOp))
            if isinstance(op, StencilOp):
                self._stencil(index, op, steps)
            elif sweep and self.grid[op.axis % ndim] > 1:
                self._cut_sweep(index, op, op.axis % ndim, steps)
            elif sweep or isinstance(op, _LOCAL):
                steps.append(self._compute(
                    self._points, op.flops_per_point, 1, BlockSite(index)
                ))
            else:
                raise TypeError(f"unsupported op {op!r}")
        return Lockstep(tuple(steps), self.nprocs)

    def _cut_sweep(self, index: int, op, axis: int, steps: list) -> None:
        """Wavefront along cut ``axis``, as the skewed schedule of the
        pipelined loop nest: chain position ``q`` (counted downstream) runs
        chunk ``c`` at time ``c + q``, a receive, a compute and a send step.
        Chain heads skip the receive, chain tails the send, and a rank is
        idle before its first chunk and after its last (chains with fewer
        chunks finish early).  Chunks cut the first other cut axis (keeping
        chunk traffic within the chain), else the first other axis."""
        blocks, chain, ranks = self._blocks, self.grid[axis], self._ranks
        coord = self._at[:, axis]
        pos = chain - 1 - coord if op.reverse else coord
        hop = (-1 if op.reverse else 1) * self._strides[axis]
        chunk_axis = next(
            a for a in self._cut_axes + tuple(range(len(self.shape)))
            if a != axis
        )
        extent = blocks[:, chunk_axis]
        count = np.minimum(self.chunks, extent)
        base, rem = np.divmod(extent, count)  # axis_extents' chunk heights
        row = self._points // extent  # points per chunk-axis plane
        plane = ITEMSIZE * (row // blocks[:, axis])  # carry bytes per plane
        tag, carry, sent = (index + 1) * 100_000, BlockSite(index), -1
        for t in range(int((pos + count).max())):
            k = t - pos
            live = (k >= 0) & (k < count)
            height = base + (k < rem)
            if (on := ranks[live & (pos > 0)]).size:
                steps.append(Step(RecvOp, on - hop, tag + k[on], match=sent,
                                  site=carry, active=on))
            on = ranks[live]
            steps.append(self._compute(
                height[on] * row[on], op.flops_per_point, 1,
                functools.partial(self._chunks, index, axis, chunk_axis, k),
                None if live.all() else on,
            ))
            if (on := ranks[live & (pos < chain - 1)]).size:
                sent = len(steps)
                steps.append(Step(SendOp, on + hop, tag + k[on],
                                  height[on] * plane[on], site=carry,
                                  active=on))

    def _chunks(
        self, index: int, axis: int, chunk_axis: int, chunk, ranks
    ) -> list[BlockSite]:
        """The sites of ``ranks``' wavefront computes, each of its chunk
        ``chunk[rank]``: the chunk it scans and its global span along the
        swept axis."""
        tiles, sites = self.layout[0], []
        for rank in ranks.tolist():
            extent = int(self._blocks[rank, chunk_axis])
            cut = axis_extents(extent, min(self.chunks, extent))[chunk[rank]]
            span = tiles.tile_span(axis, self._at[rank, axis])
            sites.append(BlockSite(index, _region(chunk_axis, *cut), span))
        return sites

    def _stencil(self, index: int, op: StencilOp, steps: list) -> None:
        """Halo exchange across each cut axis, one after the other (star
        stencil: axis fills are independent), then the update.  Along each
        axis every rank sends its trailing planes downstream (their low
        ghosts, side 0) and its leading planes upstream (their high ghosts,
        side 1), then receives; a grid edge has no neighbour to send to.
        An entry's site names its ``(axis, side)``."""
        reach = op.pad_widths(len(self.shape))
        tag_base = (index + 1) * 100_000 + 50_000
        for i, axis in enumerate(self._cut_axes):
            coord, stride = self._at[:, axis], self._strides[axis]
            plane = ITEMSIZE * self._points // self._blocks[:, axis]
            sides = [
                (width, self._ranks[senders], hop, tag_base + 10 * i + side,
                 BlockSite(index, (), (axis, side)))
                for side, (width, senders, hop) in enumerate((
                    (reach[axis][0], coord + 1 < self.grid[axis], stride),
                    (reach[axis][1], coord > 0, -stride),
                ))
                if width
            ]
            first = len(steps)
            for width, on, hop, tag, site in sides:
                steps.append(Step(SendOp, on + hop, np.full(len(on), tag),
                                  width * plane[on], site=site, active=on))
            for sent, (_, on, hop, tag, site) in enumerate(sides, first):
                steps.append(Step(RecvOp, on, np.full(len(on), tag),
                                  match=sent, site=site, active=on + hop))
        steps.append(self._compute(
            self._points, op.flops_per_point, 1, BlockSite(index)
        ))

    # -- real-data interpretation --------------------------------------------

    def _interpret(
        self, comm, compiled: CompiledSchedule, tiles: dict
    ) -> Generator:
        """Real-data rank program: walk the rank's lowered ops, running the
        numpy kernels at compute entries and sending the real payload at
        each send."""
        rank, schedule = comm.rank, compiled.schedule
        at = tuple(self._at[rank].tolist())
        blocks = {name: blocks[at] for name, blocks in tiles.items()}

        def get(name: str) -> np.ndarray:
            if name not in blocks:
                raise KeyError(
                    f"schedule references unknown array {name!r}"
                )
            return blocks[name]

        state: dict = {}  # what a cut-axis sweep keeps between entries
        ghosts: list = []  # a stencil's ((axis, side), received face)
        for prim, site in zip(compiled.ops[rank], compiled.sites[rank]):
            op = schedule[site.op_index]
            cls = prim.__class__
            if isinstance(op, (SweepOp, BlockSweepOp)):
                block, axis = get(op.array), op.axis % len(self.shape)
                if self.grid[axis] > 1:
                    yield from self._cut_entry(
                        rank, prim, op, site, blocks, state
                    )
                    continue
                scan_op(block, op, 0, block.shape[axis], block.shape[axis],
                        carry=None)
            elif cls is SendOp:
                face = op.face(get(op.array), *site.key)
                yield SendOp(prim.dest, face, prim.tag)
                continue
            elif cls is RecvOp:
                ghosts.append((site.key, (yield prim)))
                continue
            elif isinstance(op, StencilOp):
                result = op.update(get(op.array), ghosts)
                get(op.out_array or op.array)[...] = result
                ghosts = []
            else:
                apply_local_op(op, get)
            yield prim
        return rank

    def _cut_entry(
        self, rank: int, prim, op, site: BlockSite, blocks: dict,
        state: dict,
    ) -> Generator:
        """Interpret one entry of a wavefront sweep: a receive delivers the
        chunk's incoming carry, the compute scans the chunk, and the send
        passes its outgoing carry downstream."""
        cls = prim.__class__
        if cls is RecvOp:
            state["in"] = yield prim
        elif cls is SendOp:
            yield SendOp(prim.dest, state.pop("out"), prim.tag)
        else:
            lo, hi = site.key
            state["out"] = scan_op(
                blocks[op.array][site.region], op, lo, hi,
                self.shape[op.axis % len(self.shape)],
                carry=state.pop("in", None),
            )
            yield prim


def best_wavefront_chunks(
    shape: tuple[int, ...],
    nprocs: int,
    machine: MachineModel,
    schedule,
) -> tuple[int, float]:
    """``(chunks, makespan)`` of the wavefront ``(nprocs,)`` with the least
    skeleton makespan (the fewest chunks on a tie): the tuning knob a
    careful hand coder would sweep.  The candidates are the counts
    ``ceil(n / h)`` for chunk heights ``h = 1 .. n`` along the chunked
    axis 1, one per distinct tallest chunk."""
    n = shape[1]
    best = (1, float("inf"))
    for chunks in sorted({-(-n // h) for h in range(1, n + 1)}):
        makespan = BlockGridExecutor(
            (nprocs,), shape, machine, chunks=chunks
        ).run_skeleton(schedule).makespan
        if makespan < best[1]:
            best = (chunks, makespan)
    return best
