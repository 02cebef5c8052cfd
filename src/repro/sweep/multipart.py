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
lockstep program over all ranks (:mod:`repro.sweep.compile`) and runs it in
one of two modes over that same compiled program:

* **real-data mode** (``payload="data"``) interprets each rank's ops (the
  per-rank tuples derived from the lockstep program): the
  numpy kernels run at compute entries and the carry/halo payloads are
  packed at sends and unpacked at receives.  It returns both the
  reassembled global array (verified against the sequential reference in
  the tests) and the simulator's :class:`RunResult` (virtual time, message
  and byte counts).
* **skeleton mode** (``payload="skeleton"``, or :meth:`MultipartExecutor
  .run_skeleton` directly) times the compiled ops as they are: declared
  byte counts (:class:`~repro.simmpi.message.Bytes`) and compute charges
  from tile geometry, no scatter, scan or gather.  That is what lets
  class-A/B (64^3 / 102^3) problems at p <= 64 simulate in seconds: the
  paper's Table 1 claims are about communication structure and timing,
  none of which needs the payload data.  A fault-free, unobserved run on
  a non-bus machine times a paired lockstep program itself with
  :func:`~repro.simmpi.engine.replay_lockstep`, one numpy step per op
  index for all ranks, and builds no per-rank ops; every other run
  replays the per-rank ops through the engine.

Both modes issue the identical op sequence, so their clocks, makespan,
message counts and byte totals agree bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import Generator

import numpy as np

from repro.core.mapping import Multipartitioning
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.protocol import ProtocolConfig, ReliableComm
from repro.simmpi.comm import Comm
from repro.simmpi.engine import replay_lockstep, replayable, run_programs
from repro.simmpi.machine import MachineModel
from repro.simmpi.message import RecvOp, SendOp
from repro.simmpi.trace import RunResult

from .compile import CompiledSchedule, ScheduleCompiler, Site, neighbor_tile
from .ops import (
    BlockSweepOp,
    StencilOp,
    SweepOp,
    apply_local_op,
    as_named,
    scan_op,
    unwrap_named,
)

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


class MultipartExecutor:
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

    # -- fault / protocol plumbing --------------------------------------------

    def _make_comm(self, rank: int) -> Comm:
        """Plain communicator, or the reliable-delivery wrapper when a
        protocol config is attached."""
        nprocs = self.partitioning.nprocs
        if self.protocol is not None:
            return ReliableComm(rank, nprocs, self.protocol)
        return Comm(rank, nprocs)

    @staticmethod
    def _finalized(comm: "ReliableComm", inner: Generator) -> Generator:
        """Run ``inner``, then linger re-acking stray retransmissions until
        every rank is done (see :meth:`ReliableComm.finalize`)."""
        result = yield from inner
        yield from comm.finalize()
        return result

    def _execute(self, comms: "list[Comm]", programs: list) -> RunResult:
        """Run the rank programs on the engine, with the fault injector and
        the protocol's finalization and counters when configured."""
        if self.protocol is not None:
            programs = [
                self._finalized(comm, prog)
                for comm, prog in zip(comms, programs)
            ]
        injector = (
            None if self.faults is None
            else FaultInjector(self.faults, self.partitioning.nprocs)
        )
        result = run_programs(
            self.machine, programs, record_events=self.record_events,
            sinks=self.sinks, faults=injector,
        )
        if self.protocol is None:
            return result
        # fold per-rank ReliableComm counters into the result
        stats = {
            key: sum(
                comm.stats[key]  # type: ignore[attr-defined]
                for comm in comms
            )
            for key in comms[0].stats  # type: ignore[attr-defined]
        }
        return dataclasses.replace(result, protocol_stats=stats)

    # -- public API -----------------------------------------------------------

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

    def run(self, arrays, schedule) -> "tuple":
        """Distribute the array(s), execute ``schedule`` on all simulated
        ranks, reassemble and return ``(result, run_result)``.

        ``arrays`` is a single numpy array (ops default to array "u"; a
        single array comes back) or a dict of aligned same-shape arrays.

        In skeleton mode the data (if any) is ignored entirely and the
        result array is ``None`` — see :meth:`run_skeleton`.
        """
        if self.payload == "skeleton":
            return None, self.run_skeleton(schedule)
        single, named = as_named(arrays)
        mp = self.partitioning
        per_rank_named: list[dict] = [
            {} for _ in range(mp.nprocs)
        ]
        for name, array in named.items():
            array = np.asarray(array, dtype=np.float64)
            scattered = self.grid.scatter(array, mp.owner, mp.nprocs)
            for rank in range(mp.nprocs):
                per_rank_named[rank][name] = scattered[rank]
        compiled = self.compile(schedule)
        comms = [self._make_comm(rank) for rank in range(mp.nprocs)]
        result = self._execute(comms, [
            self._interpret(comms[rank], compiled, per_rank_named[rank])
            for rank in range(mp.nprocs)
        ])
        out = {
            name: self.grid.gather(
                [per_rank_named[rank][name] for rank in range(mp.nprocs)]
            )
            for name in named
        }
        return unwrap_named(single, out), result

    def run_skeleton(self, schedule) -> "RunResult":
        """Execute ``schedule`` payload-free and return the
        :class:`~repro.simmpi.trace.RunResult` only.

        The same compiled ops :meth:`run` interprets — same sends (by tag
        and byte count), receives, compute durations and, when observed,
        phase marks — are timed, so clocks, makespan, message counts, and
        byte totals match real-data mode bit-for-bit; only the array
        contents are absent.
        With no faults, protocol or observers on a non-bus machine a
        paired lockstep program goes through
        :func:`~repro.simmpi.engine.replay_lockstep`, which gives the
        engine's result without its event loop or per-rank ops."""
        compiled = self.compile(schedule)
        observed = (
            self.faults is not None or self.protocol is not None
            or self.record_events or bool(self.sinks)
        )
        if replayable(self.machine, compiled.lockstep, observed):
            return replay_lockstep(self.machine, compiled.lockstep)
        comms = [
            self._make_comm(rank) for rank in range(self.partitioning.nprocs)
        ]
        return self._execute(comms, [
            self._replay(comm, self._program(compiled, comm.rank)[0])
            for comm in comms
        ])

    def skeleton_rank_program(self, rank: int, schedule) -> Generator:
        """One rank's payload-free program as a fresh generator replaying
        the ops the engine would run for it."""
        ops, _ = self._program(self.compile(schedule), rank)
        return self._replay(Comm(rank, self.partitioning.nprocs), ops)

    # -- rank programs --------------------------------------------------------

    @staticmethod
    def _replay(comm: Comm, ops: tuple) -> Generator:
        """Yield one rank's compiled ops.  A plain :class:`Comm` would
        yield exactly these ops from its verbs, so they pass straight
        through; a wrapper such as :class:`ReliableComm` gets every send
        and receive through its own verbs."""
        if type(comm) is Comm:
            for op in ops:
                yield op
        else:
            for op in ops:
                cls = op.__class__
                if cls is SendOp:
                    yield from comm.send(op.payload, op.dest, op.tag)
                elif cls is RecvOp:
                    yield from comm.recv(op.source, op.tag)
                else:
                    yield op

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
