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

The executor lowers a schedule once into every rank's tuple of primitive
ops (:mod:`repro.simmpi.message`), with a parallel tuple of
:class:`BlockSite` entries naming what each entry acts on.  Every tag,
peer, byte count and compute charge of a block baseline is decided there
and nowhere else:

* :meth:`BlockGridExecutor.run` interprets the ops: the numpy kernels run
  at compute entries, and each send carries the real carry plane, halo
  face or transpose piece in place of its declared
  :class:`~repro.simmpi.message.Bytes`;
* :meth:`BlockGridExecutor.run_skeleton` replays them as they are, with no
  scatter, kernel or gather.

Both go through the engine (a wavefront pipeline is not lockstep: its end
ranks skip a receive or a send), so their clocks, makespan, message counts
and byte totals agree bit for bit.  :func:`best_wavefront_chunks` picks the
pipeline granularity by skeleton makespan.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, Iterator, NamedTuple

import numpy as np

from repro.simmpi.engine import run_programs
from repro.simmpi.machine import MachineModel
from repro.simmpi.message import Bytes, ComputeOp, RecvOp, SendOp
from repro.simmpi.trace import RunResult

from .compile import ITEMSIZE
from .ops import (
    BinaryPointwiseOp,
    BlockSweepOp,
    CopyOp,
    PointwiseOp,
    StencilOp,
    SweepOp,
    scan_op,
)
from .tiles import axis_extents

__all__ = [
    "BlockGridExecutor",
    "apply_local_op",
    "as_named",
    "best_wavefront_chunks",
    "unwrap_named",
]

#: ops every rank applies to its whole block as one local compute
_LOCAL = (PointwiseOp, BinaryPointwiseOp, CopyOp)


def as_named(arrays) -> tuple[bool, dict]:
    """Normalize executor input: single array -> {"u": array}."""
    single = not isinstance(arrays, dict)
    named = {"u": arrays} if single else arrays
    shapes = {np.asarray(a).shape for a in named.values()}
    if len(shapes) > 1:
        raise ValueError(f"aligned arrays must share a shape, got {shapes}")
    return single, named


def unwrap_named(single: bool, named: dict):
    return named["u"] if single else named


def apply_local_op(op, get: Callable[[str], np.ndarray]) -> None:
    """Apply a communication-free op (pointwise / binary / copy) in place
    to this rank's blocks; ``get(name)`` returns the local block of an
    array."""
    if isinstance(op, PointwiseOp):
        slab = get(op.array)
        result = op.fn(slab)
        if result.shape != slab.shape:
            raise ValueError(f"{op.name} changed the slab's shape")
        slab[...] = result
    elif isinstance(op, BinaryPointwiseOp):
        target = get(op.target)
        result = op.fn(target, get(op.source))
        if result.shape != target.shape:
            raise ValueError(f"{op.name} changed the slab's shape")
        target[...] = result
    elif isinstance(op, CopyOp):
        get(op.dst)[...] = get(op.src)
    else:
        raise TypeError(f"not a local slab op: {op!r}")


class BlockSite(NamedTuple):
    """What one lowered entry of a block rank program acts on.

    ``region`` is a tuple of slices: the chunk of the block a wavefront
    entry scans, the face a halo send copies, where a halo receive's ghost
    lands in the padded block.  ``key`` is a wavefront entry's global
    ``(lo, hi)`` span along the swept axis, or a transposed sweep's stage
    (``"forward"``, ``"sweep"`` or ``"back"``)."""

    op_index: int
    region: tuple = ()
    key: Any = None


def _region(axis: int, lo: int, hi: int) -> tuple:
    """``[lo, hi)`` along ``axis``, everything along the axes before it."""
    return (slice(None),) * axis + (slice(lo, hi),)


class BlockGridExecutor:
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
        self._spans = [axis_extents(n, g) for n, g in zip(shape, self.grid)]

    # -- rank geometry -------------------------------------------------------

    def _coords(self, rank: int) -> tuple[int, ...]:
        return tuple(
            rank // stride % g for stride, g in zip(self._strides, self.grid)
        )

    def _rank_sel(self, rank: int) -> tuple:
        return tuple(
            slice(*self._spans[a][c])
            for a, c in enumerate(self._coords(rank))
        )

    def _block_shape(self, rank: int) -> tuple[int, ...]:
        return tuple(s.stop - s.start for s in self._rank_sel(rank))

    def _charge(self, shape, flops_per_point: float) -> ComputeOp:
        """One kernel pass over a block of ``shape``."""
        size = math.prod(shape)
        return ComputeOp(
            self.machine.compute_time(size, flops_per_point, tiles=1), size
        )

    # -- public API ----------------------------------------------------------

    def run(self, arrays, schedule) -> "tuple":
        """Distribute the array(s), interpret the lowered ``schedule`` on
        every simulated rank, reassemble and return ``(result,
        run_result)``."""
        single, named = as_named(arrays)
        per_rank: list[dict] = [{} for _ in range(self.nprocs)]
        for name, array in named.items():
            array = np.asarray(array, dtype=np.float64)
            if array.shape != self.shape:
                raise ValueError("array shape mismatch")
            for rank in range(self.nprocs):
                per_rank[rank][name] = np.array(
                    array[self._rank_sel(rank)], copy=True
                )
        programs = [
            self._interpret(rank, ops, sites, per_rank[rank], schedule)
            for rank, (ops, sites) in enumerate(self._lower(schedule))
        ]
        result = run_programs(
            self.machine, programs, record_events=self.record_events
        )
        out = {}
        for name in named:
            full = np.empty(self.shape, dtype=np.float64)
            for rank in range(self.nprocs):
                full[self._rank_sel(rank)] = per_rank[rank][name]
            out[name] = full
        return unwrap_named(single, out), result

    def run_skeleton(self, schedule) -> RunResult:
        """Replay the lowered ``schedule`` payload-free: the ops
        :meth:`run` interprets, so every number of the result equals
        real-data mode's."""
        return run_programs(
            self.machine,
            # a generator expression ignores what the engine sends back
            [(op for op in ops) for ops, _ in self._lower(schedule)],
            record_events=self.record_events,
        )

    # -- lowering ------------------------------------------------------------

    def _lower(self, schedule) -> tuple[tuple[tuple, tuple], ...]:
        """Every rank's ``(ops, sites)`` for ``schedule``."""
        return tuple(
            tuple(zip(*self._lower_rank(rank, schedule))) or ((), ())
            for rank in range(self.nprocs)
        )

    def _lower_rank(self, rank: int, schedule) -> Iterator[tuple]:
        block = self._block_shape(rank)
        for index, op in enumerate(schedule):
            sweep = isinstance(op, (SweepOp, BlockSweepOp))
            if isinstance(op, StencilOp):
                yield from self._lower_stencil(rank, index, op, block)
            elif sweep and self.grid[op.axis % len(block)] > 1:
                axis = op.axis % len(block)
                yield from self._lower_cut_sweep(rank, index, op, axis)
            elif sweep or isinstance(op, _LOCAL):
                yield self._charge(block, op.flops_per_point), BlockSite(index)
            else:
                raise TypeError(f"unsupported op {op!r}")

    def _lower_cut_sweep(
        self, rank: int, index: int, op, axis: int
    ) -> Iterator[tuple]:
        """Wavefront along cut ``axis``: pipeline chunk by chunk down this
        rank's chain, chunking over the first other cut axis (keeping chunk
        traffic within the chain), else the first other axis."""
        block = self._block_shape(rank)
        pos, chain = self._coords(rank)[axis], self.grid[axis]
        span = self._spans[axis][pos]
        chunk_axis = next(
            a for a in self._cut_axes + tuple(range(len(block))) if a != axis
        )
        n_chunk = block[chunk_axis]

        step = -1 if op.reverse else +1
        first = pos == (0 if step == 1 else chain - 1)
        last = pos == (chain - 1 if step == 1 else 0)
        upstream = rank - step * self._strides[axis]
        downstream = rank + step * self._strides[axis]
        tag_base = (index + 1) * 100_000

        for k, (lo, hi) in enumerate(
            axis_extents(n_chunk, min(self.chunks, n_chunk))
        ):
            chunk = list(block)
            chunk[chunk_axis] = hi - lo
            site = BlockSite(index, _region(chunk_axis, lo, hi), span)
            if not first:
                yield RecvOp(upstream, tag_base + k), site
            yield self._charge(chunk, op.flops_per_point), site
            if not last:
                plane = ITEMSIZE * math.prod(chunk) // chunk[axis]
                yield SendOp(downstream, Bytes(plane), tag_base + k), site

    def _lower_stencil(
        self, rank: int, index: int, op: StencilOp, block: tuple
    ) -> Iterator[tuple]:
        """Halo exchange across each cut axis, one after the other (star
        stencil: axis fills are independent), then the update.  Along each
        axis a rank sends its trailing planes downstream (their low ghosts)
        and its leading planes upstream (their high ghosts) before
        receiving; a receive's region is where its ghost lands in the
        padded block."""
        coords = self._coords(rank)
        reach = op.pad_widths(len(block))
        core = [slice(lo, lo + n) for n, (lo, _) in zip(block, reach)]
        tag_base = (index + 1) * 100_000 + 50_000
        for i, axis in enumerate(self._cut_axes):
            (lo_w, hi_w), n = reach[axis], block[axis]
            pos, stride = coords[axis], self._strides[axis]
            plane, tag = ITEMSIZE * math.prod(block) // n, tag_base + 10 * i
            down, up = pos + 1 < self.grid[axis], pos > 0
            before, after = tuple(core[:axis]), tuple(core[axis + 1:])
            if lo_w and down:
                face = BlockSite(index, _region(axis, n - lo_w, n))
                yield SendOp(rank + stride, Bytes(lo_w * plane), tag), face
            if hi_w and up:
                face = BlockSite(index, _region(axis, 0, hi_w))
                yield SendOp(rank - stride, Bytes(hi_w * plane), tag + 1), face
            if lo_w and up:
                land = before + (slice(0, lo_w),) + after
                yield RecvOp(rank - stride, tag), BlockSite(index, land)
            if hi_w and down:
                land = before + (slice(lo_w + n, lo_w + n + hi_w),) + after
                yield RecvOp(rank + stride, tag + 1), BlockSite(index, land)
        yield self._charge(block, op.flops_per_point), BlockSite(index)

    # -- real-data interpretation --------------------------------------------

    def _interpret(
        self, rank: int, ops: tuple, sites: tuple, blocks: dict, schedule
    ) -> Generator:
        """Real-data rank program: walk the rank's lowered ops, running the
        numpy kernels at compute entries and sending the real payload at
        each send."""

        def get(name: str) -> np.ndarray:
            if name not in blocks:
                raise KeyError(
                    f"schedule references unknown array {name!r}"
                )
            return blocks[name]

        state: dict = {}  # what a cut-axis sweep keeps between entries
        ghosts: list = []  # a stencil's (padded region, received face)
        for prim, site in zip(ops, sites):
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
                # copy: the face may alias the block about to be updated
                face = np.array(get(op.array)[site.region], copy=True)
                yield SendOp(prim.dest, face, prim.tag)
                continue
            elif cls is RecvOp:
                ghosts.append((site.region, (yield prim)))
                continue
            elif isinstance(op, StencilOp):
                block = get(op.array)
                padded = np.pad(block, op.pad_widths(block.ndim))
                for region, face in ghosts:
                    padded[region] = face
                ghosts = []
                result = op.fn(padded)
                if result.shape != block.shape:
                    raise ValueError(
                        f"{op.name} must return the core shape "
                        f"{block.shape}, got {result.shape}"
                    )
                get(op.out_array or op.array)[...] = result
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
    skeleton makespan over 1, 2, 4, ... chunks, up to the extent of the
    chunked axis 1: the tuning knob a careful hand coder would sweep."""
    best = (1, float("inf"))
    chunks = 1
    while chunks <= shape[1]:
        makespan = BlockGridExecutor(
            (nprocs,), shape, machine, chunks=chunks
        ).run_skeleton(schedule).makespan
        if makespan < best[1]:
            best = (chunks, makespan)
        chunks *= 2
    return best
