"""Compile a schedule on a multipartitioned array into one lockstep program.

dHPF derives every rank's communication statically from the distribution
(paper Section 5): sweep carries are vectorized across a slab and
aggregated into one message per neighbour, and stencil shadow regions are
filled the same way.  :class:`ScheduleCompiler` is that step.  Every
message tag, neighbour rank, byte count and compute charge of the
multipartitioned path is decided here and nowhere else.

The balance property gives every rank the same number of tiles in every
slab, and the neighbor property sends all of a slab's carries to one rank,
so every rank runs the same op kinds in the same order.  The compiler
therefore lowers a schedule for all ranks at once into a
:class:`~repro.simmpi.engine.Lockstep` program: per op index one
:class:`~repro.simmpi.engine.Step` with vectors over ranks for the peer
(``Multipartitioning``'s successor tables), tag, byte count and compute
charge (bincounts of tile points and boundary planes over the owner table),
and the index of the matched send.  Each rank's tuple of primitive ops
(:mod:`repro.simmpi.message`) and the parallel tuple of :class:`Site`
entries (the schedule op an entry comes from and the tiles it covers) are
derived from it on first use.

A sweep's per-sweep work is done once per sweep, not once per step.  One
read-only tag table (row ``k`` tags phase ``k``'s receives and phase
``k - 1``'s sends) serves every phase, the steps take row and slab-column
views of it and of the slab sums, and the compute charges are computed
once per ``(axis, flops_per_point, tiles)`` per compiler (SP's twelve
sweeps share three).  The coefficients a schedule carries are built once
per ``(n, coefficients)`` too (:func:`~repro.sweep.recurrence.thomas_factor`,
:func:`~repro.sweep.ops.block_thomas_ops`), although a skeleton run never
reads them.

The program is the same whoever watches it.  The op-label and phase-span
marks that traces and the verifier's witnesses read are a fold over it
(:attr:`CompiledSchedule.marked`): each step's site names its schedule op
and sweep phase, and each schedule op its ``phase`` and ``label()``.

Everything that needs a multipartitioned schedule's behaviour reads the
compiled program:

* skeleton mode times the lockstep program with
  :func:`repro.simmpi.engine.replay_lockstep`, or the per-rank ops through
  the engine when faults, the reliable protocol, observers, a bus network
  or an unpaired program are involved (observed runs replay the marked
  view);
* real-data mode interprets the per-rank ops, running the numpy kernels at
  compute entries and packing payloads at sends;
* the static verifier decides a paired program from its steps and
  analyzes the marked view op by op otherwise (:mod:`repro.verify.ir`);
* :mod:`repro.hpf.commsched` folds the sends into message plans.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from math import prod
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.mapping import Multipartitioning
from repro.simmpi.comm import _check_phase_label
from repro.simmpi.engine import Lockstep, Step
from repro.simmpi.machine import MachineModel
from repro.simmpi.message import (
    PHASE_BEGIN,
    PHASE_END,
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
from .tiles import TileGrid, axis_extents

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


@dataclasses.dataclass(frozen=True, eq=False)
class CompiledSchedule:
    """One schedule compiled for every rank at once.

    ``lockstep`` is the program itself.  Each rank's op tuple (``ops``),
    the parallel tuple of sites (``sites``) and the marked view an
    observer reads (``marked``) are derived from it on first use."""

    schedule: tuple
    lockstep: Lockstep

    @property
    def nprocs(self) -> int:
        return self.lockstep.nprocs

    @functools.cached_property
    def ops(self) -> tuple[tuple[Any, ...], ...]:
        return self.lockstep.rank_ops()

    @functools.cached_property
    def sites(self) -> tuple[tuple[Site, ...], ...]:
        # a step's site is ``(op_index, phase, tiles)``, ``tiles()`` giving
        # every rank's tiles; steps sharing a site share its Site objects
        made: dict = {}
        for step in self.lockstep.steps:
            if step.site not in made:
                index, phase, tiles = step.site
                made[step.site] = [Site(index, t, phase) for t in tiles()]
        columns = [made[step.site] for step in self.lockstep.steps]
        return tuple(zip(*columns)) if columns else ((),) * self.nprocs

    @functools.cached_property
    def marked(self) -> tuple[tuple[tuple, tuple], ...]:
        """Each rank's ``(ops, sites)`` with marks interleaved (``None``
        sites): before each schedule op its phase-span transitions and an
        ``op{index}:{label}`` mark, around each sweep phase ``k`` a nested
        ``p{k}`` span (every rank takes part in every one, balance
        property).  Consecutive ops sharing a phase annotation share one
        span (e.g. the four sweeps of SP's x_solve)."""
        steps = self.lockstep.steps
        slots: list = []  # marks and step indices, the same for every rank
        open_phase = last = None
        for (index, k), group in itertools.groupby(
            range(len(steps)), key=lambda i: steps[i].site[:2]
        ):
            op = self.schedule[index]
            if index != last:
                if op.phase != open_phase:
                    if open_phase is not None:
                        slots.append(MarkOp(PHASE_END + open_phase))
                    if op.phase is not None:
                        label = _check_phase_label(op.phase)
                        slots.append(MarkOp(PHASE_BEGIN + label))
                    open_phase = op.phase
                slots.append(MarkOp(f"op{index}:{op.label()}"))
                last = index
            if isinstance(op, (SweepOp, BlockSweepOp)):
                slots += [MarkOp(f"{PHASE_BEGIN}p{k}"), *group,
                          MarkOp(f"{PHASE_END}p{k}")]
            else:
                slots += group
        if open_phase is not None:
            slots.append(MarkOp(PHASE_END + open_phase))
        return tuple(
            (
                tuple(s if s.__class__ is MarkOp else ops[s] for s in slots),
                tuple(None if s.__class__ is MarkOp else sites[s]
                      for s in slots),
            )
            for ops, sites in zip(self.ops, self.sites)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledSchedule):
            return NotImplemented
        return (self.schedule, self.ops, self.sites) == (
            other.schedule, other.ops, other.sites
        )

    __hash__ = None  # type: ignore[assignment]

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


class _Geometry:
    """Every rank's tile geometry at once, from the owner table.

    Per-rank sums are bincounts over the owner table, per slab along an
    axis over ``owner * gamma + slab``.  Tile tuples (for sites) are built
    only when asked for."""

    def __init__(self, partitioning: Multipartitioning, grid: TileGrid):
        self.partitioning = partitioning
        self.grid = grid
        self.owner = partitioning.owner.ravel()
        sizes = [
            np.array([hi - lo for lo, hi in axis_extents(n, g)])
            for n, g in zip(grid.shape, grid.gammas)
        ]
        self.coords = [c.ravel() for c in np.indices(grid.gammas)]
        self.tile_points = functools.reduce(np.multiply.outer, sizes).ravel()
        #: wire bytes of each tile's boundary plane normal to each axis
        self.planes = [
            ITEMSIZE * self.tile_points // size[c]
            for size, c in zip(sizes, self.coords)
        ]
        self.points = self._sum(self.owner, self.tile_points, 1)[:, 0]
        self._memo: dict = {}

    def _sum(self, key, weights, width: int) -> np.ndarray:
        # bincount sums in float64, exact for integer totals below 2**53
        nprocs = self.partitioning.nprocs
        return np.bincount(
            key, weights, minlength=nprocs * width
        ).astype(np.int64).reshape(nprocs, width)

    def slab_sums(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and boundary-plane bytes of each rank's tiles in each
        slab along ``axis``: two ``(nprocs, gamma)`` int matrices."""
        if ("sums", axis) not in self._memo:
            gamma = self.grid.gammas[axis]
            key = self.owner * gamma + self.coords[axis]
            self._memo["sums", axis] = (
                self._sum(key, self.tile_points, gamma),
                self._sum(key, self.planes[axis], gamma),
            )
        return self._memo["sums", axis]

    def slab_order(self, axis: int) -> np.ndarray:
        """Flat indices of each rank's tiles in each slab along ``axis``,
        lexicographic: an ``(nprocs, gamma, tiles per slab)`` matrix (the
        balance property makes the last extent the same for all)."""
        if ("order", axis) not in self._memo:
            gamma = self.grid.gammas[axis]
            key = self.owner * gamma + self.coords[axis]
            self._memo["order", axis] = np.argsort(key, kind="stable").reshape(
                self.partitioning.nprocs, gamma, -1
            )
        return self._memo["order", axis]

    # per-rank tile tuples for sites: each is a list over ranks, memoized

    def tiles(self) -> list:
        if "tiles" not in self._memo:
            self._memo["tiles"] = [
                self.partitioning.tiles_of(r)
                for r in range(self.partitioning.nprocs)
            ]
        return self._memo["tiles"]

    def slab(self, axis: int, slab: int) -> list:
        key = ("slab", axis, slab)
        if key not in self._memo:
            flat = self.slab_order(axis)[:, slab]
            coords = [c[flat].tolist() for c in self.coords]
            self._memo[key] = [
                tuple(zip(*(c[r] for c in coords))) for r in range(len(flat))
            ]
        return self._memo[key]

    def tile(self, axis: int, slab: int, index: int) -> list:
        return [(tiles[index],) for tiles in self.slab(axis, slab)]

    def halo(self, axis: int, step: int) -> list:
        """Each rank's tiles with a ``step``-neighbour along ``axis``."""
        gamma = self.grid.gammas[axis]
        return [
            tuple(t for t in tiles if 0 <= t[axis] + step < gamma)
            for tiles in self.tiles()
        ]


class ScheduleCompiler:
    """Lowers schedules on one multipartitioned field to a lockstep
    program over every rank.

    ``aggregate=False`` sends one message per tile boundary instead of one
    vectorized message per phase (the ablation of the optimization).  The
    program does not depend on who observes it: traces and the verifier
    read its marked view (:attr:`CompiledSchedule.marked`).
    """

    def __init__(
        self,
        partitioning: Multipartitioning,
        shape: Sequence[int],
        machine: MachineModel,
        aggregate: bool = True,
    ):
        self.partitioning = partitioning
        self.grid = TileGrid(tuple(shape), partitioning.gammas)
        self.machine = machine
        self.aggregate = aggregate
        self._geo = _Geometry(partitioning, self.grid)
        self._last: CompiledSchedule | None = None

    def compile(self, schedule) -> CompiledSchedule:
        """Every rank's program for ``schedule``; consecutive calls with the
        same schedule ops share one compile (ops are matched by identity:
        their coefficient arrays have no truth value)."""
        schedule = tuple(schedule)
        last = self._last
        if last is None or len(last.schedule) != len(schedule) or any(
            a is not b for a, b in zip(last.schedule, schedule)
        ):
            self._last = last = self._lower(schedule)
        return last

    # -- lowering -------------------------------------------------------------

    def _lower(self, schedule: tuple) -> CompiledSchedule:
        steps: list[Step] = []
        for index, op in enumerate(schedule):
            if isinstance(op, (SweepOp, BlockSweepOp)):
                self._sweep(index, op, steps)
            elif isinstance(op, StencilOp):
                self._stencil(index, op, steps)
            elif isinstance(op, (BinaryPointwiseOp, CopyOp, PointwiseOp)):
                steps.append(self._whole(index, op))
            else:
                raise TypeError(f"unsupported op {op!r}")
        return CompiledSchedule(
            schedule, Lockstep(tuple(steps), self.partitioning.nprocs)
        )

    def _charge(self, axis: int | None, flops: float, tiles: int):
        """``machine.compute_time`` of each rank's points in each slab along
        ``axis`` (of all its points when ``axis`` is ``None``), called once
        per distinct count and memoized per ``(axis, flops, tiles)``:
        read-only."""
        key = ("charge", axis, flops, tiles)
        if key not in self._geo._memo:
            geo = self._geo
            points = geo.points if axis is None else geo.slab_sums(axis)[0]
            values, inverse = np.unique(points, return_inverse=True)
            seconds = np.array([
                self.machine.compute_time(n, flops, tiles=tiles)
                for n in values.tolist()
            ])[inverse.ravel()].reshape(points.shape)
            seconds.flags.writeable = False
            geo._memo[key] = seconds
        return self._geo._memo[key]

    def _whole(self, index: int, op) -> Step:
        """The compute step of an op over all of every rank's tiles."""
        return Step(
            ComputeOp,
            seconds=self._charge(
                None, op.flops_per_point, self.partitioning.tiles_per_rank
            ),
            points=self._geo.points,
            site=(index, 0, self._geo.tiles),
        )

    def _sweep(self, index, op, steps):
        """Slab by slab in sweep order: receive the carries of the slab's
        tiles, scan them, forward their boundary planes downstream.  The
        neighbor property sends all of a phase's carries to one rank, so
        every rank's steps are the same; phase ``k``'s receives are matched
        by phase ``k - 1``'s sends.  Row ``k`` of one tag table tags both.

        Aggregated, each phase sends one message (under the phase's site);
        otherwise one per tile, tagged ``tag * 10**6`` plus the receiving
        tile's linear index, under a one-tile site."""
        mp, geo = self.partitioning, self._geo
        axis = op.axis % self.grid.ndim
        step = -1 if op.reverse else +1
        points, planes = geo.slab_sums(axis)
        per_slab = mp.tiles_per_slab_per_rank(axis)
        seconds = self._charge(axis, op.flops_per_point, per_slab)
        gamma = points.shape[1]
        source, dest = mp._neighbors[(axis, -step)], mp._neighbors[(axis, step)]
        tag = (index + 1) * 100_000
        tags = np.add.outer(
            np.arange(tag, tag + gamma), np.zeros(mp.nprocs, dtype=np.int64)
        )
        tags.flags.writeable = False
        if not self.aggregate:
            order = geo.slab_order(axis)
            shift = step * prod(self.grid.gammas[axis + 1:])

        def per_tile(phase, slab, row, offset):
            """(tags, flat tile index, site) of each tile carry of a slab"""
            flat = order[:, slab]
            return [
                (row * 1_000_000 + flat[:, i] + offset, flat[:, i],
                 (index, phase, functools.partial(geo.tile, axis, slab, i)))
                for i in range(per_slab)
            ]

        for phase in range(gamma):
            slab = gamma - 1 - phase if op.reverse else phase
            site = (index, phase, functools.partial(geo.slab, axis, slab))
            if phase == 0:
                pass
            elif self.aggregate:
                steps.append(Step(RecvOp, source, tags[phase],
                                  match=len(steps) - 1, site=site))
            else:
                sent = len(steps) - per_slab
                steps += [
                    Step(RecvOp, source, tile_tags, match=sent + i, site=where)
                    for i, (tile_tags, _, where) in enumerate(
                        per_tile(phase, slab, tags[phase], 0)
                    )
                ]
            steps.append(Step(ComputeOp, seconds=seconds[:, slab],
                              points=points[:, slab], site=site))
            if phase == gamma - 1:
                pass
            elif self.aggregate:
                steps.append(Step(SendOp, dest, tags[phase + 1],
                                  planes[:, slab], site=site))
            else:
                steps += [
                    Step(SendOp, dest, tile_tags, geo.planes[axis][flat],
                         site=where)
                    for tile_tags, flat, where in per_tile(
                        phase, slab, tags[phase + 1], shift
                    )
                ]

    def _stencil(self, index, op, steps):
        """Halo exchange, then the local update.  One aggregated message per
        (rank, axis, side): all sends first (eager, never block), then the
        receives.  With ``gamma > 1`` along an axis every rank has tiles
        with neighbours on both sides (balance property)."""
        mp, geo = self.partitioning, self._geo
        nprocs = mp.nprocs
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
        # trailing planes (sent in the +1 direction), and vice versa; the
        # tiles of the last slab in the send direction have no neighbour
        first = len(steps)
        for axis, side, step, width in halo:
            _, planes = geo.slab_sums(axis)
            steps.append(Step(
                SendOp, mp._neighbors[(axis, step)],
                np.full(nprocs, tag_base + 10 * axis + side),
                width * (planes.sum(axis=1) - planes[:, -1 if step > 0 else 0]),
                site=(index, 2 * axis + side,
                      functools.partial(geo.halo, axis, step)),
            ))
        for sent, (axis, side, step, width) in enumerate(halo, first):
            steps.append(Step(
                RecvOp, mp._neighbors[(axis, -step)],
                np.full(nprocs, tag_base + 10 * axis + side), match=sent,
                site=(index, 2 * axis + side,
                      functools.partial(geo.halo, axis, -step)),
            ))
        steps.append(self._whole(index, op))
