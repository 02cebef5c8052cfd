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
cut-axis sweep.
"""

from __future__ import annotations

import math
from typing import Callable, Generator

import numpy as np

from repro.simmpi.comm import Comm
from repro.simmpi.engine import run_programs
from repro.simmpi.machine import MachineModel

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

__all__ = ["BlockGridExecutor", "local_slab_op", "as_named", "unwrap_named"]


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


def local_slab_op(
    comm: Comm,
    op,
    get: Callable[[str], np.ndarray],
    machine: MachineModel,
) -> Generator:
    """Apply a communication-free op (pointwise / binary / copy) to this
    rank's blocks; ``get(name)`` returns the local block of an array."""
    if isinstance(op, PointwiseOp):
        slab = get(op.array)
        result = op.fn(slab)
        if result.shape != slab.shape:
            raise ValueError(f"{op.name} changed the slab's shape")
        slab[...] = result
        size = slab.size
    elif isinstance(op, BinaryPointwiseOp):
        target = get(op.target)
        result = op.fn(target, get(op.source))
        if result.shape != target.shape:
            raise ValueError(f"{op.name} changed the slab's shape")
        target[...] = result
        size = target.size
    elif isinstance(op, CopyOp):
        dst = get(op.dst)
        dst[...] = get(op.src)
        size = dst.size
    else:
        raise TypeError(f"not a local slab op: {op!r}")
    yield from comm.compute(
        machine.compute_time(size, op.flops_per_point, tiles=1),
        points=size,
    )


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

    def run(self, arrays, schedule) -> "tuple":
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
            self._rank_program(Comm(rank, self.nprocs), per_rank[rank],
                               schedule)
            for rank in range(self.nprocs)
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

    # -- rank program -----------------------------------------------------------

    def _rank_program(
        self, comm: Comm, blocks: dict, schedule
    ) -> Generator:
        def get(name: str) -> np.ndarray:
            if name not in blocks:
                raise KeyError(
                    f"schedule references unknown array {name!r}"
                )
            return blocks[name]

        for op_index, op in enumerate(schedule):
            if isinstance(op, (PointwiseOp, BinaryPointwiseOp, CopyOp)):
                yield from local_slab_op(comm, op, get, self.machine)
            elif isinstance(op, StencilOp):
                yield from self._stencil(
                    comm,
                    get(op.array),
                    op,
                    op_index,
                    out=get(op.out_array or op.array),
                )
            elif isinstance(op, (SweepOp, BlockSweepOp)):
                block = get(op.array)
                axis = op.axis % len(self.shape)
                if self.grid[axis] == 1:
                    yield from self._local_sweep(comm, block, op, axis)
                else:
                    yield from self._cut_sweep(comm, blocks, op, axis,
                                               op_index)
            else:
                raise TypeError(f"unsupported op {op!r}")
        return comm.rank

    def _local_sweep(
        self, comm: Comm, block: np.ndarray, op, axis: int
    ) -> Generator:
        """Sweep a block that holds the full extent of ``axis``."""
        n = self.shape[axis]
        scan_op(block, op, 0, n, n, carry=None)
        yield from comm.compute(
            self.machine.compute_time(
                block.size, op.flops_per_point, tiles=1
            ),
            points=block.size,
        )

    def _cut_sweep(
        self, comm: Comm, blocks: dict, op, axis: int, op_index: int
    ) -> Generator:
        """Wavefront along cut ``axis``: pipeline chunk by chunk down this
        rank's chain, chunking over the first other cut axis (keeping chunk
        traffic within the chain), else the first other axis."""
        block = blocks[op.array]
        pos, chain = self._coords(comm.rank)[axis], self.grid[axis]
        lo, hi = self._spans[axis][pos]
        chunk_axis = next(
            a for a in self._cut_axes + tuple(range(block.ndim)) if a != axis
        )
        n_chunk = block.shape[chunk_axis]
        spans = axis_extents(n_chunk, min(self.chunks, n_chunk))

        step = -1 if op.reverse else +1
        first = pos == (0 if step == 1 else chain - 1)
        last = pos == (chain - 1 if step == 1 else 0)
        upstream = comm.rank - step * self._strides[axis]
        downstream = comm.rank + step * self._strides[axis]
        tag_base = (op_index + 1) * 100_000

        for k, (clo, chi) in enumerate(spans):
            sel: list = [slice(None)] * block.ndim
            sel[chunk_axis] = slice(clo, chi)
            sub = block[tuple(sel)]
            carry_in = None
            if not first:
                carry_in = yield from comm.recv(upstream, tag_base + k)
            carry_out = scan_op(sub, op, lo, hi, self.shape[axis],
                                carry=carry_in)
            yield from comm.compute(
                self.machine.compute_time(
                    sub.size, op.flops_per_point, tiles=1
                ),
                points=sub.size,
            )
            if not last:
                yield from comm.send(carry_out, downstream, tag_base + k)

    def _stencil(
        self,
        comm: Comm,
        block: np.ndarray,
        op: StencilOp,
        op_index: int,
        out: np.ndarray | None = None,
    ) -> Generator:
        """Halo exchange across each cut axis, one after the other (star
        stencil: axis fills are independent).  Along each axis a rank sends
        its trailing planes downstream (their low ghosts) and its leading
        planes upstream (their high ghosts) before receiving."""
        coords = self._coords(comm.rank)
        ndim = block.ndim
        reach = op.pad_widths(ndim)
        tag_base = (op_index + 1) * 100_000 + 50_000

        ghosts: dict[tuple[int, int], np.ndarray] = {}
        for i, axis in enumerate(self._cut_axes):
            lo_w, hi_w = reach[axis]
            pos, length = coords[axis], self.grid[axis]
            stride = self._strides[axis]
            n = block.shape[axis]
            tag = tag_base + 10 * i

            def face(index: slice) -> np.ndarray:
                sel: list = [slice(None)] * ndim
                sel[axis] = index
                # copy: the face may alias the block about to be updated
                return np.array(block[tuple(sel)], copy=True)

            if lo_w and pos + 1 < length:
                yield from comm.send(
                    face(slice(n - lo_w, n)), comm.rank + stride, tag
                )
            if hi_w and pos - 1 >= 0:
                yield from comm.send(
                    face(slice(0, hi_w)), comm.rank - stride, tag + 1
                )
            if lo_w and pos - 1 >= 0:
                ghosts[(axis, 0)] = yield from comm.recv(
                    comm.rank - stride, tag
                )
            if hi_w and pos + 1 < length:
                ghosts[(axis, 1)] = yield from comm.recv(
                    comm.rank + stride, tag + 1
                )

        padded = np.pad(block, reach, mode="constant")
        core = tuple(
            slice(lo, lo + s) for s, (lo, _) in zip(block.shape, reach)
        )
        for (axis, side), ghost in ghosts.items():
            lo_w, hi_w = reach[axis]
            sel = list(core)
            sel[axis] = (
                slice(0, lo_w)
                if side == 0
                else slice(
                    lo_w + block.shape[axis],
                    lo_w + block.shape[axis] + hi_w,
                )
            )
            padded[tuple(sel)] = ghost
        result = op.fn(padded)
        if result.shape != block.shape:
            raise ValueError(
                f"{op.name} must return the core shape {block.shape}, "
                f"got {result.shape}"
            )
        (out if out is not None else block)[...] = result
        yield from comm.compute(
            self.machine.compute_time(
                block.size, op.flops_per_point, tiles=1
            ),
            points=block.size,
        )
