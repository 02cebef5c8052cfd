"""Compile a schedule on a multipartitioned array into per-rank op lists.

dHPF derives every rank's communication statically from the distribution
(paper Section 5): sweep carries are vectorized across a slab and
aggregated into one message per neighbour, and stencil shadow regions are
filled the same way.  :class:`ScheduleCompiler` is that step.  It lowers a
schedule into one tuple of frozen primitive ops per rank
(:mod:`repro.simmpi.message`): :class:`SendOp` with a :class:`Bytes`
payload, :class:`RecvOp`, :class:`ComputeOp` and :class:`MarkOp`.  Every
message tag, neighbour rank, byte count and compute charge of the
multipartitioned path is decided here and nowhere else.  Each send, receive
and compute entry also carries a :class:`Site`: the schedule op it comes
from and the tiles it covers.

Everything that needs a multipartitioned schedule's behaviour reads the
compiled program:

* skeleton mode replays the ops through the engine;
* real-data mode interprets them, running the numpy kernels at compute
  entries and packing payloads at sends;
* the static verifier lowers them to its IR (:mod:`repro.verify.ir`);
* :mod:`repro.hpf.commsched` folds the sends into message plans.

Tile geometry (slab tiles, points, boundary-plane sizes) is worked out once
per (rank, axis, slab) and shared by every op and every entry that needs it.
"""

from __future__ import annotations

import dataclasses
from math import prod
from typing import Any, Iterator, NamedTuple, Sequence

from repro.core.mapping import Multipartitioning
from repro.simmpi.comm import _check_phase_label
from repro.simmpi.machine import MachineModel
from repro.simmpi.message import (
    PHASE_BEGIN,
    PHASE_END,
    Bytes,
    ComputeOp,
    MarkOp,
    RecvOp,
    SendOp,
)

from .ops import (
    BinaryPointwiseOp,
    BlockSweepOp,
    CopyOp,
    PointwiseOp,
    StencilOp,
    SweepOp,
)
from .tiles import TileGrid

__all__ = [
    "ITEMSIZE",
    "Site",
    "CompiledSchedule",
    "ScheduleCompiler",
    "neighbor_tile",
]

#: distributed blocks are always float64 (scatter casts on entry)
ITEMSIZE = 8


class Site(NamedTuple):
    """What one compiled send, receive or compute entry covers.

    ``tiles`` are the rank's tiles the entry acts on: the slab's tiles for
    a sweep phase (a send carries their boundary planes, a receive delivers
    their incoming carries), the tiles with a neighbour on the halo side
    for a stencil message, all of the rank's tiles otherwise.  ``phase`` is
    the sweep phase (the slab's position in sweep order) for sweep entries
    and ``2 * axis + side`` for stencil halo messages, where side 0 fills
    the low ghosts with planes sent in the ``+1`` direction.
    """

    op_index: int
    tiles: tuple[tuple[int, ...], ...]
    phase: int = 0


@dataclasses.dataclass(frozen=True)
class CompiledSchedule:
    """Per-rank primitive ops of one schedule, with a parallel tuple of
    sites (``None`` for marks)."""

    schedule: tuple
    ops: tuple[tuple[Any, ...], ...]
    sites: tuple[tuple[Site | None, ...], ...]

    @property
    def nprocs(self) -> int:
        return len(self.ops)

    def sends(self) -> Iterator[tuple[int, SendOp, Site]]:
        """Every send as ``(rank, op, site)``, in rank then program order."""
        for rank, (ops, sites) in enumerate(zip(self.ops, self.sites)):
            for op, site in zip(ops, sites):
                if op.__class__ is SendOp:
                    yield rank, op, site


def neighbor_tile(
    tile: tuple[int, ...], axis: int, step: int
) -> tuple[int, ...]:
    """The tile ``step`` positions from ``tile`` along ``axis``."""
    return tile[:axis] + (tile[axis] + step,) + tile[axis + 1:]


class _Slab(NamedTuple):
    tiles: tuple[tuple[int, ...], ...]
    points: int
    #: wire bytes of each tile's boundary plane normal to the slab's axis
    planes: tuple[int, ...]
    #: payload of the aggregated carry message: all of those planes
    carries: Bytes


class _Marks(NamedTuple):
    """Marks shared by every rank's program."""

    #: per schedule op: the phase-span transitions and the op label before it
    heads: list[tuple[MarkOp, ...]]
    #: closes the last open phase span
    tail: tuple[MarkOp, ...]
    #: per sweep phase ``k``: the begin/end marks of its ``p{k}`` span
    spans: list[tuple[MarkOp, MarkOp]]


class _RankGeometry:
    """One rank's tiles, bucketed by slab along every axis."""

    __slots__ = ("tiles", "points", "slabs", "_gammas", "_plane")

    def __init__(self, grid: TileGrid, tiles: tuple[tuple[int, ...], ...]):
        shapes = [grid.tile_shape(t) for t in tiles]
        points = [prod(s) for s in shapes]
        self.tiles = tiles
        self.points = sum(points)
        self._gammas = grid.gammas
        self._plane = [
            [ITEMSIZE * n // s[axis] for n, s in zip(points, shapes)]
            for axis in range(grid.ndim)
        ]
        self.slabs = []
        for axis, gamma in enumerate(grid.gammas):
            members: list[list[int]] = [[] for _ in range(gamma)]
            for i, tile in enumerate(tiles):
                members[tile[axis]].append(i)
            plane = self._plane[axis]
            slabs = []
            for m in members:
                planes = tuple(plane[i] for i in m)
                slabs.append(_Slab(
                    tuple(tiles[i] for i in m),
                    sum(points[i] for i in m),
                    planes,
                    Bytes(sum(planes)),
                ))
            self.slabs.append(tuple(slabs))

    def halo(self, axis: int, step: int) -> tuple[tuple, int]:
        """(tiles with a ``step``-neighbour along ``axis``, total bytes of
        their boundary planes normal to ``axis``)."""
        inner = [
            i for i, t in enumerate(self.tiles)
            if 0 <= t[axis] + step < self._gammas[axis]
        ]
        plane = self._plane[axis]
        return (
            tuple(self.tiles[i] for i in inner),
            sum(plane[i] for i in inner),
        )


class ScheduleCompiler:
    """Lowers schedules on one multipartitioned field to per-rank op lists.

    ``aggregate=False`` sends one message per tile boundary instead of one
    vectorized message per phase (the ablation of the optimization);
    ``marks=True`` adds the op-label and phase-span marks that traces and
    the verifier's phase attribution read.
    """

    def __init__(
        self,
        partitioning: Multipartitioning,
        shape: Sequence[int],
        machine: MachineModel,
        aggregate: bool = True,
        marks: bool = False,
    ):
        self.partitioning = partitioning
        self.grid = TileGrid(tuple(shape), partitioning.gammas)
        self.machine = machine
        self.aggregate = aggregate
        self.marks = marks
        self._geometry: list[_RankGeometry | None] = (
            [None] * partitioning.nprocs
        )
        self._tags: dict[int, tuple[int, ...]] = {}

    def compile(self, schedule) -> CompiledSchedule:
        """Every rank's ops and sites for ``schedule``."""
        schedule = tuple(schedule)
        marks = self._marks(schedule)
        charges: dict = {}
        lowered = [
            self._lower(rank, schedule, marks, charges)
            for rank in range(self.partitioning.nprocs)
        ]
        return CompiledSchedule(
            schedule,
            tuple(ops for ops, _ in lowered),
            tuple(sites for _, sites in lowered),
        )

    def compile_rank(self, rank: int, schedule) -> tuple[tuple, tuple]:
        """One rank's ``(ops, sites)`` for ``schedule``."""
        schedule = tuple(schedule)
        return self._lower(rank, schedule, self._marks(schedule), {})

    # -- lowering -------------------------------------------------------------

    def _rank_geometry(self, rank: int) -> _RankGeometry:
        geo = self._geometry[rank]
        if geo is None:
            geo = _RankGeometry(
                self.grid, self.partitioning.tiles_of(rank)
            )
            self._geometry[rank] = geo
        return geo

    def _sweep_tags(self, index: int) -> tuple[int, ...]:
        """Phase ``k``'s carry tag of the sweep at schedule position
        ``index`` is entry ``k``; one tuple shared by every rank."""
        tags = self._tags.get(index)
        if tags is None:
            base = (index + 1) * 100_000
            tags = tuple(range(base, base + max(self.partitioning.gammas)))
            self._tags[index] = tags
        return tags

    def _marks(self, schedule: tuple) -> _Marks | None:
        """The schedule's marks, or ``None`` when marks are off."""
        if not self.marks:
            return None
        heads = []
        open_phase = None
        for index, op in enumerate(schedule):
            head = []
            # consecutive ops sharing a phase annotation share one span
            # (e.g. the four sweeps of SP's x_solve)
            phase = getattr(op, "phase", None)
            if phase != open_phase:
                if open_phase is not None:
                    head.append(MarkOp(PHASE_END + open_phase))
                if phase is not None:
                    label = _check_phase_label(phase)
                    head.append(MarkOp(PHASE_BEGIN + label))
                open_phase = phase
            head.append(MarkOp(f"op{index}:{op.label()}"))
            heads.append(tuple(head))
        tail = (
            (MarkOp(PHASE_END + open_phase),) if open_phase is not None
            else ()
        )
        # nested span per sweep phase ("x_solve/p2"): every rank
        # participates in every one (balance property)
        spans = [
            (MarkOp(f"{PHASE_BEGIN}p{k}"), MarkOp(f"{PHASE_END}p{k}"))
            for k in range(max(self.partitioning.gammas))
        ]
        return _Marks(heads, tail, spans)

    def _charge(self, charges: dict, points: int, flops: float, tiles: int):
        """The compute op for ``points`` over ``tiles`` tiles, shared
        between entries (and ranks) with the same charge."""
        key = (points, flops, tiles)
        op = charges.get(key)
        if op is None:
            op = charges[key] = ComputeOp(
                self.machine.compute_time(points, flops, tiles=tiles),
                points,
            )
        return op

    def _lower(self, rank: int, schedule: tuple, marks, charges: dict):
        geo = self._rank_geometry(rank)
        ops: list = []
        sites: list = []
        for index, op in enumerate(schedule):
            if marks is not None:
                ops.extend(marks.heads[index])
                sites.extend([None] * len(marks.heads[index]))
            if isinstance(op, (SweepOp, BlockSweepOp)):
                self._sweep(rank, index, op, geo, marks, charges, ops, sites)
            elif isinstance(op, StencilOp):
                self._stencil(rank, index, op, geo, charges, ops, sites)
            elif isinstance(op, (BinaryPointwiseOp, CopyOp, PointwiseOp)):
                ops.append(self._charge(
                    charges, geo.points, op.flops_per_point, len(geo.tiles)
                ))
                sites.append(Site(index, geo.tiles))
            else:
                raise TypeError(f"unsupported op {op!r}")
        if marks is not None:
            ops.extend(marks.tail)
            sites.extend([None] * len(marks.tail))
        return tuple(ops), tuple(sites)

    def _sweep(self, rank, index, op, geo, marks, charges, ops, sites):
        """Slab by slab in sweep order: receive the carries of the slab's
        tiles, scan them, forward their boundary planes downstream.  The
        neighbor property sends all of a phase's carries to one rank."""
        mp = self.partitioning
        axis = op.axis % self.grid.ndim
        step = -1 if op.reverse else +1
        dest = mp.neighbor_rank(rank, axis, step)
        source = mp.neighbor_rank(rank, axis, -step)
        tags = self._sweep_tags(index)
        slabs = geo.slabs[axis]
        last = len(slabs) - 1
        spans = marks.spans if marks is not None else None
        put_op, put_site = ops.append, sites.append
        for phase, slab in enumerate(reversed(slabs) if op.reverse else slabs):
            site = Site(index, slab.tiles, phase)
            if spans is not None:
                put_op(spans[phase][0])
                put_site(None)
            if phase > 0:
                tag = tags[phase]
                if self.aggregate:
                    put_op(RecvOp(source, tag))
                    put_site(site)
                else:
                    for tile in slab.tiles:
                        put_op(RecvOp(
                            source, tag * 1_000_000 + self._linear(tile)
                        ))
                        put_site(Site(index, (tile,), phase))
            put_op(self._charge(
                charges, slab.points, op.flops_per_point, len(slab.tiles)
            ))
            put_site(site)
            if phase < last:
                tag = tags[phase + 1]
                if self.aggregate:
                    put_op(SendOp(dest, slab.carries, tag))
                    put_site(site)
                else:
                    for tile, nbytes in zip(slab.tiles, slab.planes):
                        linear = self._linear(neighbor_tile(tile, axis, step))
                        put_op(SendOp(
                            dest, Bytes(nbytes), tag * 1_000_000 + linear
                        ))
                        put_site(Site(index, (tile,), phase))
            if spans is not None:
                put_op(spans[phase][1])
                put_site(None)

    def _stencil(self, rank, index, op, geo, charges, ops, sites):
        """Halo exchange, then the local update.  One aggregated message per
        (rank, axis, side): all sends first (eager, never block), then the
        receives a rank has neighbours for."""
        mp = self.partitioning
        reach = op.pad_widths(self.grid.ndim)
        tag_base = (index + 1) * 100_000 + 50_000
        halo = [
            (axis, side, step, width)
            for axis, gamma in enumerate(mp.gammas)
            if gamma > 1
            for side, (step, width) in enumerate(
                ((+1, reach[axis][0]), (-1, reach[axis][1]))
            )
            if width
        ]
        # ghosts on the low side of a tile come from the previous tile's
        # trailing planes (sent in the +1 direction), and vice versa
        for axis, side, step, width in halo:
            tiles, nbytes = geo.halo(axis, step)
            if tiles:
                ops.append(SendOp(
                    mp.neighbor_rank(rank, axis, step),
                    Bytes(width * nbytes),
                    tag_base + 10 * axis + side,
                ))
                sites.append(Site(index, tiles, 2 * axis + side))
        for axis, side, step, width in halo:
            tiles, _ = geo.halo(axis, -step)
            if tiles:
                ops.append(RecvOp(
                    mp.neighbor_rank(rank, axis, -step),
                    tag_base + 10 * axis + side,
                ))
                sites.append(Site(index, tiles, 2 * axis + side))
        ops.append(self._charge(
            charges, geo.points, op.flops_per_point, len(geo.tiles)
        ))
        sites.append(Site(index, geo.tiles))

    def _linear(self, tile: tuple[int, ...]) -> int:
        idx = 0
        for t, g in zip(tile, self.grid.gammas):
            idx = idx * g + t
        return idx
