"""The one executor driver: how every strategy's program is run and timed.

Each executor keeps only what makes its strategy: ``compile(schedule)``
lowers a schedule to a :class:`~repro.sweep.compile.CompiledSchedule` (a
:class:`~repro.simmpi.engine.Lockstep` program and its sites),
``_interpret`` walks one rank's ops and sites with real data, and
``_ops`` names the view of the program the engine runs.
:class:`Executor` does the rest, once for every strategy:

* :meth:`Executor.run` scatters each named array over the executor's
  tiles (``layout``: a :class:`~repro.sweep.tiles.TileGrid` and its owner
  table), compiles the schedule, interprets every rank's program on the
  engine, gathers the tiles and unwraps a single array;
* :meth:`Executor.run_skeleton` times the same program payload-free:
  with :func:`~repro.simmpi.engine.replay_lockstep` when
  :func:`~repro.simmpi.engine.replayable` finds it exact (a paired
  program, no bus, nothing observing the run), else by replaying every
  rank's ops through the engine;
* the engine hand-off both modes share: plain communicators, or the
  reliable protocol's, whose finalization runs after each rank's program
  and whose counters are summed into the result; the fault injector; the
  in-memory trace and the sinks.

Both modes run the same ops, so their clocks, makespan, message counts
and byte totals agree bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Generator

import numpy as np

from repro.simmpi.comm import Comm
from repro.simmpi.engine import replay_lockstep, replayable, run_programs
from repro.simmpi.message import RecvOp, SendOp
from repro.simmpi.trace import RunResult

from .compile import CompiledSchedule
from .ops import as_named, unwrap_named

__all__ = ["Executor"]


class Executor:
    """Runs and times a strategy's compiled programs.

    A subclass sets ``machine``, ``nprocs`` and ``layout`` (a
    :class:`~repro.sweep.tiles.TileGrid` and its owner table) and provides
    ``compile(schedule)`` and ``_interpret(comm, compiled, blocks)``, a
    rank's real-data program over its ``{array name: {tile: block}}``.
    Only :class:`~repro.sweep.multipart.MultipartExecutor` sets
    ``sinks``, ``faults``, ``protocol`` or ``payload``."""

    record_events = False
    sinks = ()
    faults = None
    protocol = None
    payload = "data"

    def _ops(self, compiled: CompiledSchedule, rank: int) -> tuple:
        """One rank's ops as the engine runs them."""
        return compiled.ops[rank]

    def run(self, arrays, schedule) -> tuple:
        """Distribute the array(s), run ``schedule`` on every simulated
        rank, reassemble and return ``(result, run_result)``.

        ``arrays`` is a single numpy array (ops default to array "u"; a
        single array comes back) or a dict of aligned same-shape arrays.
        With ``payload="skeleton"`` the data is ignored and the result
        array is ``None`` (see :meth:`run_skeleton`)."""
        if self.payload == "skeleton":
            return None, self.run_skeleton(schedule)
        single, named = as_named(arrays)
        grid, owner = self.layout
        blocks: list[dict] = [{} for _ in range(self.nprocs)]
        for name, array in named.items():
            scattered = grid.scatter(
                np.asarray(array, dtype=np.float64), owner, self.nprocs
            )
            for rank, tiles in enumerate(scattered):
                blocks[rank][name] = tiles
        compiled = self.compile(schedule)
        result = self._engine(
            lambda comm: self._interpret(comm, compiled, blocks[comm.rank])
        )
        out = {name: grid.gather([b[name] for b in blocks]) for name in named}
        return unwrap_named(single, out), result

    def run_skeleton(self, schedule) -> RunResult:
        """Time ``schedule`` payload-free: the ops :meth:`run` interprets,
        with their byte counts and compute charges, so every number of
        the result equals real-data mode's; only the arrays are absent."""
        compiled = self.compile(schedule)
        observed = (
            self.faults is not None or self.protocol is not None
            or self.record_events or bool(self.sinks)
        )
        if replayable(self.machine, compiled.lockstep, observed):
            return replay_lockstep(self.machine, compiled.lockstep)
        return self._engine(
            lambda comm: _replay(comm, self._ops(compiled, comm.rank))
        )

    def skeleton_rank_program(self, rank: int, schedule) -> Generator:
        """One rank's payload-free program as a fresh generator replaying
        the ops the engine would run for it."""
        ops = self._ops(self.compile(schedule), rank)
        return _replay(Comm(rank, self.nprocs), ops)

    def _engine(self, program: Callable[[Comm], Generator]) -> RunResult:
        """Run ``program(comm)`` for every rank's communicator on the
        engine, with the fault injector and the protocol's finalization
        and counters when configured."""
        nprocs, protocol = self.nprocs, self.protocol
        if protocol is None:
            comms = [Comm(rank, nprocs) for rank in range(nprocs)]
            programs = [program(comm) for comm in comms]
        else:
            from repro.faults.protocol import ReliableComm

            comms = [ReliableComm(rank, nprocs, protocol)
                     for rank in range(nprocs)]
            programs = [_finalized(comm, program(comm)) for comm in comms]
        injector = None
        if self.faults is not None:
            from repro.faults.inject import FaultInjector

            injector = FaultInjector(self.faults, nprocs)
        result = run_programs(
            self.machine, programs, record_events=self.record_events,
            sinks=self.sinks, faults=injector,
        )
        if protocol is None:
            return result
        # fold per-rank ReliableComm counters into the result
        stats = {
            key: sum(comm.stats[key] for comm in comms)
            for key in comms[0].stats
        }
        return dataclasses.replace(result, protocol_stats=stats)


def _finalized(comm, inner: Generator) -> Generator:
    """Run ``inner``, then linger re-acking stray retransmissions until
    every rank is done (see :meth:`ReliableComm.finalize`)."""
    result = yield from inner
    yield from comm.finalize()
    return result


def _replay(comm: Comm, ops: tuple) -> Generator:
    """Yield one rank's compiled ops.  A plain :class:`Comm` would yield
    exactly these ops from its verbs, so they pass straight through; a
    wrapper such as :class:`ReliableComm` gets every send and receive
    through its own verbs."""
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
