"""Distributed line sweeps over a multipartitioned array.

Each simulated rank owns the tiles its :class:`Multipartitioning` assigns it.
A sweep along axis ``i`` proceeds slab by slab: every rank computes the scan
on *its own* tiles of the current slab (perfect balance), then forwards each
tile's outgoing boundary plane ("carry") to the owner of the downstream
neighbour tile.  The **neighbor property** guarantees all those carries go to
one single rank, so they are aggregated into one message per phase —
the communication-vectorization the dHPF compiler performs (Section 5).
Setting ``aggregate=False`` sends one message per tile instead (the ablation
of that optimization).

The executor compiles a :mod:`repro.sweep.ops` schedule once into a
lockstep program over all ranks (:mod:`repro.sweep.compile`), and
:mod:`repro.sweep.driver` runs and times it as it does every strategy's.
What stays here is the real-data interpreter (``payload="data"``): the
numpy kernels run at compute entries and the carry/halo payloads are
packed at sends and unpacked at receives; and the view the engine runs,
with the phase marks when a trace or a sink observes the run.  Skeleton
mode (``payload="skeleton"``, or ``run_skeleton`` directly) times the same
ops from tile geometry alone, which is what lets class-B/C problems
simulate in seconds: the paper's Table 1 claims are about communication
structure and timing, none of which needs the payload data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.core.mapping import Multipartitioning
from repro.simmpi.comm import Comm
from repro.simmpi.machine import MachineModel
from repro.simmpi.message import RecvOp, SendOp

from .compile import CompiledSchedule, ScheduleCompiler, Site, neighbor_tile
from .driver import Executor
from .ops import BlockSweepOp, StencilOp, SweepOp, apply_local_op, scan_op

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.protocol import ProtocolConfig

__all__ = ["MultipartExecutor", "best_processor_count"]


class _CarryPayload:
    """Aggregated sweep carries: tile coords + their boundary planes.

    Declares a *structural* wire size — the plane buffers only, matching
    what an MPI implementation would put on the wire for the vectorized
    carry message (coords are tiny metadata) and what the compiler
    computes from tile geometry alone."""

    __slots__ = ("coords", "planes", "nbytes")

    def __init__(self, coords, planes):
        self.coords = coords
        self.planes = planes
        self.nbytes = sum(p.nbytes for p in planes)


class _FacePayload:
    """Aggregated stencil halo faces: (dest tile, face array) pairs, with
    the same structural wire-size convention as :class:`_CarryPayload`."""

    __slots__ = ("items", "nbytes")

    def __init__(self, items):
        self.items = items
        self.nbytes = sum(face.nbytes for _, face in items)

    def __iter__(self):
        return iter(self.items)


class MultipartExecutor(Executor):
    """Runs sweep schedules on a multipartitioned distributed array."""

    def __init__(
        self,
        partitioning: Multipartitioning,
        shape: tuple[int, ...],
        machine: MachineModel,
        aggregate: bool = True,
        record_events: bool = False,
        sinks: tuple = (),
        payload: str = "data",
        faults: FaultPlan | None = None,
        protocol: ProtocolConfig | None = None,
    ):
        if len(shape) != partitioning.ndim:
            raise ValueError("array rank must match partitioning rank")
        if payload not in ("data", "skeleton"):
            raise ValueError(
                f"payload must be 'data' or 'skeleton', got {payload!r}"
            )
        if (
            faults is not None
            and (faults.drop_rate > 0.0 or faults.dup_rate > 0.0)
            and protocol is None
        ):
            raise ValueError(
                "fault plans that drop or duplicate messages require the "
                "reliable-delivery protocol (pass protocol=ProtocolConfig())"
            )
        self.partitioning = partitioning
        self.nprocs = partitioning.nprocs
        self.machine = machine
        self.aggregate = aggregate
        self.record_events = record_events
        self.sinks = tuple(sinks)
        self.payload = payload
        self.faults = faults
        self.protocol = protocol
        self._compiler = ScheduleCompiler(
            partitioning, shape, machine, aggregate
        )
        self.grid = self._compiler.grid
        self.layout = (self.grid, partitioning.owner)

    def compile(self, schedule) -> CompiledSchedule:
        """Every rank's op list for ``schedule`` (see
        :mod:`repro.sweep.compile`)."""
        return self._compiler.compile(schedule)

    def _program(self, compiled: CompiledSchedule, rank: int) -> tuple:
        """One rank's ``(ops, sites)`` as the engine runs them: with the
        op-label and phase-span marks when the in-memory trace or a sink
        observes the run, the plain program otherwise."""
        if self.record_events or self.sinks:
            return compiled.marked[rank]
        return compiled.ops[rank], compiled.sites[rank]

    def _ops(self, compiled: CompiledSchedule, rank: int) -> tuple:
        return self._program(compiled, rank)[0]

    # -- real-data rank program ----------------------------------------------

    def _interpret(
        self,
        comm: Comm,
        compiled: CompiledSchedule,
        arrays: "dict[str, dict[tuple[int, ...], np.ndarray]]",
    ) -> Generator:
        """Real-data rank program: walk the rank's compiled ops, running
        the numpy kernels at compute entries and packing/unpacking the
        payloads at send/recv entries."""

        def blocks_of(name: str):
            if name not in arrays:
                raise KeyError(
                    f"schedule references unknown array {name!r}"
                )
            return arrays[name]

        schedule = compiled.schedule
        carries: dict = {}   # receiving tile -> incoming sweep carry
        outgoing: dict = {}  # sending tile -> outgoing sweep carry
        ghosts: dict = {}    # tile -> {(axis, side): halo face}
        for prim, site in zip(*self._program(compiled, comm.rank)):
            if site is None:  # a mark
                yield prim
                continue
            op = schedule[site.op_index]
            cls = prim.__class__
            if cls is SendOp:
                if isinstance(op, StencilOp):
                    payload = self._faces(blocks_of(op.array), op, site)
                elif self.aggregate:
                    axis = op.axis % self.grid.ndim
                    step = -1 if op.reverse else +1
                    payload = _CarryPayload(
                        tuple(
                            neighbor_tile(t, axis, step) for t in site.tiles
                        ),
                        [outgoing.pop(t) for t in site.tiles],
                    )
                else:
                    payload = outgoing.pop(site.tiles[0])
                yield from comm.send(payload, prim.dest, prim.tag)
            elif cls is RecvOp:
                payload = yield from comm.recv(prim.source, prim.tag)
                if isinstance(op, StencilOp):
                    key = divmod(site.phase, 2)  # (axis, side)
                    for tile, face in payload:
                        ghosts.setdefault(tile, {})[key] = face
                elif self.aggregate:
                    carries.update(zip(payload.coords, payload.planes))
                else:
                    carries[site.tiles[0]] = payload
            else:
                if isinstance(op, (SweepOp, BlockSweepOp)):
                    outgoing = self._scan(
                        blocks_of(op.array), op, site, carries
                    )
                elif isinstance(op, StencilOp):
                    blocks = blocks_of(op.array)
                    out = blocks_of(op.out_array or op.array)
                    for tile in site.tiles:
                        out[tile][...] = op.update(
                            blocks[tile], ghosts.get(tile, {}).items()
                        )
                    ghosts = {}
                else:
                    for tile in site.tiles:
                        apply_local_op(
                            op, lambda name, tile=tile: blocks_of(name)[tile]
                        )
                yield prim
        return comm.rank

    def _scan(self, blocks, op, site: Site, carries: dict) -> dict:
        """Scan the slab's tiles, consuming their incoming carries; returns
        each tile's outgoing carry."""
        axis = op.axis % self.grid.ndim
        lo, hi = self.grid.tile_span(axis, site.tiles[0][axis])
        n_axis = self.grid.shape[axis]
        return {
            tile: scan_op(
                blocks[tile], op, lo, hi, n_axis,
                carry=carries.pop(tile, None),
            )
            for tile in site.tiles
        }

    def _faces(self, blocks, op: StencilOp, site: Site) -> _FacePayload:
        """The halo faces the site's tiles send to their neighbours."""
        axis, side = divmod(site.phase, 2)
        step = +1 if side == 0 else -1
        items = [
            (neighbor_tile(tile, axis, step), op.face(blocks[tile], axis, side))
            for tile in site.tiles
        ]
        return _FacePayload(items)


def best_processor_count(
    shape: tuple[int, ...],
    p: int,
    machine: MachineModel,
    schedule,
    p_min: int | None = None,
) -> tuple[int, float]:
    """The Conclusions' processor-dropping search, timed by simulation:
    returns ``(p_used, makespan)`` for the fastest ``p' in [p_min, p]``,
    each running its own optimal partitioning as a compiled skeleton
    (:meth:`MultipartExecutor.run_skeleton`).  A ``p'`` whose tiling cuts
    some axis into more tiles than it has points is skipped; if every
    ``p'`` is, :class:`ValueError` is raised.

    Default ``p_min`` is the largest ``q**(d-1) <= p`` — the nearest lower
    processor count guaranteed to admit a compact (diagonal) partitioning.
    """
    from repro.core.api import plan_multipartitioning

    d = len(shape)
    if p_min is None:
        root = 1
        while (root + 1) ** (d - 1) <= p:
            root += 1
        p_min = root ** (d - 1)
    if not 1 <= p_min <= p:
        raise ValueError("need 1 <= p_min <= p")
    cost_model = machine.to_cost_model()
    best: tuple[int, float] | None = None
    for p_try in range(p_min, p + 1):
        plan = plan_multipartitioning(shape, p_try, cost_model)
        try:
            executor = MultipartExecutor(
                plan.partitioning, shape, machine, payload="skeleton"
            )
        except ValueError:
            continue
        t = executor.run_skeleton(schedule).makespan
        if best is None or t < best[1]:
            best = (p_try, t)
    if best is None:
        raise ValueError(
            f"no processor count in [{p_min}, {p}] tiles the "
            f"{'x'.join(map(str, shape))} array"
        )
    return best
