"""The lockstep replay gives the engine's result, bit for bit.

:func:`repro.simmpi.engine.replay_lockstep` times a compiled lockstep
program one op index at a time for every rank.  For compiled
multipartitioned schedules it must agree with the discrete-event engine on
every number a run summary carries, with exact ``==`` (no tolerance).
``run_skeleton`` uses it only for a paired program in a fault-free,
unobserved run on a non-bus machine; everything else, an unpaired program
included, stays on the engine.  Programs it cannot time exactly are
rejected, never approximated.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.apps import plan_app
from repro.faults import ZERO_FAULTS, ProtocolConfig
from repro.simmpi.engine import (
    Lockstep,
    SimDeadlockError,
    Step,
    replay_lockstep,
    run_programs,
)
from repro.simmpi.machine import (
    MachineModel,
    bus,
    ethernet_cluster,
    origin2000,
)
from repro.simmpi.message import Bytes, ComputeOp, MarkOp, RecvOp, SendOp
from repro.simmpi.summary import RunSummary
from repro.simmpi.topology import topology_for
from repro.sweep import multipart
from repro.sweep.multipart import MultipartExecutor
from repro.sweep.ops import PointwiseOp, StencilOp

from .block_oracle import _msg_time

FIELDS = (
    "clocks",
    "compute_by_rank",
    "comm_by_rank",
    "blocked_by_rank",
    "message_count",
    "total_bytes",
)


def _machine(name, p):
    if name == "torus":
        return MachineModel(
            name="origin2000_torus",
            compute_per_point=8.0e-8,
            overhead=4.0e-6,
            latency=1.0e-5,
            bandwidth=3.0e8,
            tile_overhead=1.2e-4,
            topology=topology_for("torus3d", p),
            per_hop_latency=2.5e-6,
        )
    return {"origin2000": origin2000, "ethernet": ethernet_cluster}[name]()


def _engine_replay(machine, ops):
    """The engine run of the same op lists, one generator per rank."""
    return run_programs(machine, [(op for op in rank_ops) for rank_ops in ops])


def assert_identical(lockstep, engine):
    for field in FIELDS:
        assert getattr(lockstep, field) == getattr(engine, field), field
    assert lockstep.trace.compute_seconds == engine.trace.compute_seconds
    assert lockstep.returns == engine.returns
    assert lockstep.fault_counts is None and engine.fault_counts is None
    # == treats 0.0 and -0.0 alike; the serialized documents do not
    assert json.dumps(RunSummary.from_result(lockstep).to_dict()) == (
        json.dumps(RunSummary.from_result(engine).to_dict())
    )


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    app=st.sampled_from(["sp", "bt", "adi"]),
    shape=st.tuples(*[st.integers(7, 17)] * 3),
    p=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]),
    aggregate=st.booleans(),
    machine_name=st.sampled_from(["origin2000", "ethernet", "torus"]),
    stencil=st.booleans(),
)
def test_static_replay_matches_engine(
    app, shape, p, aggregate, machine_name, stencil
):
    """Lockstep and engine replays of one compiled program."""
    machine = _machine(machine_name, p)
    try:
        config = plan_app(
            app, shape, p, cost_model=machine.to_cost_model(),
            stencil_rhs=stencil,
        )
        executor = MultipartExecutor(
            config.partitioning, config.problem.field_shape, machine,
            aggregate=aggregate, payload="skeleton",
        )
    except ValueError:
        assume(False)
    compiled = executor.compile(config.problem.schedule())
    assert compiled.lockstep.paired
    assert_identical(
        replay_lockstep(machine, compiled.lockstep),
        _engine_replay(machine, compiled.ops),
    )


@pytest.mark.parametrize("shape, p, machine_name", [
    ((102,) * 3, 256, "origin2000"),
    ((128,) * 3, 256, "torus"),
    ((162,) * 3, 512, "origin2000"),
    ((160,) * 3, 512, "ethernet"),
], ids=["B-uneven-256", "even-256-torus", "C-uneven-512", "even-512"])
def test_lockstep_at_scale(shape, p, machine_name):
    """SP at p in {256, 512}: lockstep equals the engine."""
    machine = _machine(machine_name, p)
    config = plan_app("sp", shape, p, cost_model=machine.to_cost_model())
    even = all(
        s % g == 0
        for s, g in zip(config.problem.field_shape, config.partitioning.gammas)
    )
    assert even == (shape[0] % 32 == 0)
    compiled = MultipartExecutor(
        config.partitioning, config.problem.field_shape, machine,
        payload="skeleton",
    ).compile(config.problem.schedule())
    assert compiled.lockstep.paired
    assert_identical(
        replay_lockstep(machine, compiled.lockstep),
        _engine_replay(machine, compiled.ops),
    )


def _ring(n, iters, nbytes=800):
    """Each iteration computes, sends to the next rank and receives from
    the previous one; at n=1 a rank sends to itself."""
    ranks = np.arange(n)
    steps: list = []
    for i in range(iters):
        tag = np.full(n, i)
        steps += [
            Step(ComputeOp, seconds=1e-6 * (ranks + 1), points=np.zeros(n)),
            Step(SendOp, (ranks + 1) % n, tag, np.full(n, nbytes)),
            Step(RecvOp, (ranks - 1) % n, tag, match=len(steps) + 1),
        ]
    return Lockstep(tuple(steps), n)


@pytest.mark.parametrize("machine_factory", [
    MachineModel, origin2000, ethernet_cluster,
])
@pytest.mark.parametrize("program", [
    _ring(1, 3), _ring(4, 30), _ring(5, 10, nbytes=12_000),
], ids=["ring1", "ring4", "ring5"])
def test_hand_built_ops_match_engine(machine_factory, program):
    machine = machine_factory()
    assert program.paired
    assert_identical(
        replay_lockstep(machine, program),
        _engine_replay(machine, program.rank_ops()),
    )


def test_receive_on_time_early_and_late_match_engine():
    """Rank 1's message arrives exactly at its clock, rank 2's before it,
    rank 0's after it: only rank 0 blocks, the others' blocked time stays
    ``+0.0``, and every number equals the engine's."""
    machine = MachineModel(overhead=0.25, latency=0.5, bandwidth=1.0)
    ranks = np.arange(3)
    tag = np.zeros(3, dtype=np.int64)
    program = Lockstep((
        Step(ComputeOp, seconds=np.array([1.0, 1.5, 3.0]),
             points=np.ones(3, dtype=np.int64)),
        Step(SendOp, (ranks + 1) % 3, tag, np.zeros(3, dtype=np.int64)),
        Step(RecvOp, (ranks - 1) % 3, tag, match=1),
    ), 3)
    lockstep = replay_lockstep(machine, program)
    assert_identical(lockstep, _engine_replay(machine, program.rank_ops()))
    # arrivals 3.75, 1.75, 2.25 against clocks 1.25, 1.75, 3.25
    assert lockstep.clocks == (4.0, 2.0, 3.5)
    assert lockstep.comm_by_rank == (0.5, 0.5, 0.5)
    assert lockstep.blocked_by_rank == (2.5, 0.0, 0.0)
    assert [math.copysign(1.0, b) for b in lockstep.blocked_by_rank] == [
        1.0, 1.0, 1.0
    ]


def _send(tag=5, nbytes=(8, 16), peer=(1, 0)):
    return Step(SendOp, np.array(peer), np.array([tag, tag]),
                np.array(nbytes))


def _recv(match, tag=5, peer=(1, 0)):
    return Step(RecvOp, np.array(peer), np.array([tag, tag]), match=match)


def _compute(seconds):
    return Step(ComputeOp, seconds=np.array(seconds), points=np.array([1, 2]))


def loop_paired(program):
    """The per-receive loop ``Lockstep.paired`` replaced, kept as the
    reference its stacked comparison must agree with."""
    ranks = np.arange(program.nprocs)
    matched = []
    for index, step in enumerate(program.steps):
        if step.kind is RecvOp:
            if not 0 <= step.match < index:
                return False
            send, source = program.steps[step.match], step.peer
            if not (
                send.kind is SendOp and 0 <= source.min()
                and source.max() < program.nprocs
                and np.array_equal(send.peer[source], ranks)
                and np.array_equal(send.tag[source], step.tag)
            ):
                return False
            matched.append(step.match)
    return matched == [
        i for i, step in enumerate(program.steps) if step.kind is SendOp
    ]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    app=st.sampled_from(["sp", "bt", "adi"]),
    p=st.sampled_from([2, 3, 4, 6, 8, 9]),
    aggregate=st.booleans(),
    corrupt=st.sampled_from(
        ["none", "peer", "tag", "source", "match", "drop"]
    ),
    data=st.data(),
)
def test_pairing_equals_per_receive_loop(app, p, aggregate, corrupt, data):
    """A compiled program, clean or with one step corrupted, is paired
    exactly when the per-receive loop says so."""
    config = plan_app(app, (8, 8, 8), p)
    steps = list(MultipartExecutor(
        config.partitioning, config.problem.field_shape, origin2000(),
        aggregate=aggregate, payload="skeleton",
    ).compile(config.problem.schedule()).lockstep.steps)
    kind = {"peer": SendOp, "tag": SendOp}.get(corrupt, RecvOp)
    at = data.draw(st.sampled_from(
        [i for i, step in enumerate(steps) if step.kind is kind]
    ))
    rank = data.draw(st.integers(0, p - 1))
    step = steps[at]
    if corrupt == "peer":
        peer = step.peer.copy()
        peer[rank] = data.draw(st.integers(0, p))
        steps[at] = step._replace(peer=peer)
    elif corrupt == "tag":
        tag = step.tag.copy()
        tag[rank] += data.draw(st.integers(0, 1))
        steps[at] = step._replace(tag=tag)
    elif corrupt == "source":
        source = step.peer.copy()
        source[rank] = data.draw(st.integers(-1, p))
        steps[at] = step._replace(peer=source)
    elif corrupt == "match":
        steps[at] = step._replace(
            match=data.draw(st.integers(-1, len(steps)))
        )
    elif corrupt == "drop":
        del steps[data.draw(st.integers(0, len(steps) - 1))]
    program = Lockstep(tuple(steps), p)
    assert program.paired is loop_paired(program)
    event(f"{corrupt}: {'paired' if program.paired else 'unpaired'}")


class TestLockstepPairing:
    """Only a program whose compile-time pairing is the FIFO matching is
    replayed in lockstep; any other is left to the engine."""

    @pytest.mark.parametrize("steps, paired", [
        ([_compute([1e-6, 3e-6]), _send(), _recv(1)], True),
        ([_send(), _compute([2e-6, 0.0]), _send(nbytes=(0, 4)), _recv(0),
          _recv(2)], True),
        # the pairing crosses on one channel: FIFO gives step 3 step 0
        ([_send(), _send(nbytes=(0, 4)), _compute([2e-6, 0.0]), _recv(1),
          _recv(0)], False),
        # tags say step 2 gets step 1's message, not its match
        ([_send(), _send(tag=6, nbytes=(0, 4)), _recv(0, tag=6), _recv(1)],
         False),
        ([_send(), _recv(-1)], False),
        ([_send(), _send(tag=6), _recv(0)], False),  # step 1 never received
    ], ids=["ring", "two", "crossed", "tag", "unmatched", "unreceived"])
    def test_pairing_decides_the_replay(self, steps, paired):
        program = Lockstep(tuple(steps), 2)
        assert program.paired is paired is loop_paired(program)
        machine = _machine("torus", 2)
        engine = _engine_replay(machine, program.rank_ops())
        if paired:
            assert_identical(replay_lockstep(machine, program), engine)
        else:
            with pytest.raises(ValueError, match="paired"):
                replay_lockstep(machine, program)

    def test_receive_before_its_send_deadlocks_like_engine(self):
        """Unpaired, so the lockstep replay refuses it; the engine, which
        times it, reports the deadlock."""
        program = Lockstep((_recv(1), _send()), 2)
        assert not program.paired
        with pytest.raises(ValueError, match="paired"):
            replay_lockstep(origin2000(), program)
        with pytest.raises(SimDeadlockError) as engine:
            _engine_replay(origin2000(), program.rank_ops())
        assert str(engine.value) == (
            "deadlock: 2 rank(s) blocked on unmatched receives: "
            "rank 0 waiting on recv(source=1, tag=5); "
            "rank 1 waiting on recv(source=0, tag=5)"
        )

    def test_marks_raise_type_error(self):
        program = Lockstep((Step(MarkOp),), 2)
        with pytest.raises(TypeError, match="lockstep replay cannot run"):
            replay_lockstep(origin2000(), program)


class TestRejects:
    @pytest.mark.parametrize("op, message", [
        (SendOp(2, Bytes(8)), "rank 0: send to invalid dest 2"),
        (SendOp(-1, Bytes(8)), "rank 0: send to invalid dest -1"),
        (RecvOp(5), "rank 0: recv from invalid source 5"),
    ])
    def test_invalid_peer_raises_like_engine(self, op, message):
        """A peer out of range leaves the program unpaired: the lockstep
        replay refuses it, and the engine reports the peer."""
        if op.__class__ is SendOp:
            steps = (_send(peer=(op.dest, 0)), _recv(0))
        else:
            steps = (_send(), _recv(0, peer=(op.source, 0)))
        program = Lockstep(steps, 2)
        assert not program.paired
        with pytest.raises(ValueError, match="paired"):
            replay_lockstep(origin2000(), program)
        with pytest.raises(ValueError, match=message):
            _engine_replay(origin2000(), program.rank_ops())

    def test_no_ranks(self):
        with pytest.raises(ValueError, match="nprocs must be >= 1"):
            Lockstep((), 0)


class TestDispatch:
    """``run_skeleton`` takes the lockstep replay only when it is exact."""

    SHAPE = (8, 8, 8)

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def spy(machine, program):
            seen.append(program.nprocs)
            return replay_lockstep(machine, program)

        monkeypatch.setattr(multipart, "replay_lockstep", spy)
        return seen

    def _run(self, machine=None, **kw):
        machine = machine or origin2000()
        config = plan_app("sp", self.SHAPE, 4)
        return MultipartExecutor(
            config.partitioning, config.problem.field_shape, machine,
            payload="skeleton", **kw,
        ).run_skeleton(config.problem.schedule())

    def test_plain_run_uses_static_replay(self, calls):
        self._run()
        self._run(ethernet_cluster())
        assert calls == [4, 4]

    @pytest.mark.parametrize("kw", [
        {"machine": bus()},
        {"faults": ZERO_FAULTS},
        {"protocol": ProtocolConfig()},
        {"record_events": True},
        {"sinks": (type("Sink", (), {"on_event": lambda self, e: None})(),)},
    ], ids=["bus", "zero_faults", "protocol", "record_events", "sink"])
    def test_other_runs_stay_on_engine(self, calls, kw):
        self._run(**kw)
        assert calls == []

    def test_unpaired_program_is_timed_by_engine(self, calls, monkeypatch):
        paired = RunSummary.from_result(self._run())
        compile_ = MultipartExecutor.compile

        def compile_unpaired(executor, schedule):
            compiled = compile_(executor, schedule)
            lockstep = Lockstep(compiled.lockstep.steps, compiled.nprocs)
            object.__setattr__(lockstep, "paired", False)
            return dataclasses.replace(compiled, lockstep=lockstep)

        monkeypatch.setattr(MultipartExecutor, "compile", compile_unpaired)
        unpaired = RunSummary.from_result(self._run())
        assert calls == [4]
        assert json.dumps(paired.to_dict()) == json.dumps(unpaired.to_dict())

    def test_zero_rate_plan_summary_equals_fault_free(self, calls):
        clean = RunSummary.from_result(self._run())
        zero = RunSummary.from_result(self._run(faults=ZERO_FAULTS))
        assert calls == [4]
        assert clean == zero
        assert json.dumps(clean.to_dict()) == json.dumps(zero.to_dict())

    def test_record_events_summary_equals_static(self):
        static = RunSummary.from_result(self._run())
        traced = RunSummary.from_result(self._run(record_events=True))
        assert json.dumps(static.to_dict()) == json.dumps(traced.to_dict())


def section_3_1_time(shape, partitioning, machine, schedule) -> float:
    """The §3.1 closed form of a schedule's time under a multipartitioning
    with aggregated communication.  A sweep along axis ``i`` is ``gamma_i``
    balanced compute phases separated by ``gamma_i - 1`` exchanges of one
    message per rank carrying its share of the cut hyper-surface,
    ``eta / (eta_i * p)`` elements; a stencil sends one such message per
    cut axis and nonzero side of its reach."""
    eta = float(np.prod(shape))
    p = partitioning.nprocs
    gammas = partitioning.gammas

    def message(elems: float) -> float:
        return _msg_time(machine, elems * machine.itemsize, concurrent=p)

    total = 0.0
    for op in schedule:
        total += machine.compute_time(
            eta / p, op.flops_per_point, tiles=partitioning.tiles_per_rank
        )
        if isinstance(op, PointwiseOp):
            continue
        if isinstance(op, StencilOp):
            for axis, gamma in enumerate(gammas):
                if gamma == 1:
                    continue
                share = eta / (shape[axis] * p)
                for width in op.reach[axis]:
                    if width:
                        total += message(width * share)
            continue
        axis = op.axis % len(shape)
        total += (gammas[axis] - 1) * message(eta / (shape[axis] * p))
    return total


@pytest.mark.parametrize("machine_factory", [origin2000, ethernet_cluster])
@pytest.mark.parametrize("app", ["sp", "bt", "adi"])
@pytest.mark.parametrize("n, p", [(36, 4), (36, 9), (64, 16), (64, 64)])
def test_even_shapes_reproduce_section_3_1_model(machine_factory, app, n, p):
    """With every tile the same size the skeleton makespan is the §3.1
    closed form (:func:`section_3_1_time`) up to rounding."""
    machine = machine_factory()
    config = plan_app(app, (n,) * 3, p, cost_model=machine.to_cost_model())
    shape = config.problem.field_shape
    assert all(s % g == 0 for s, g in zip(shape, config.partitioning.gammas))
    schedule = config.problem.schedule()
    run = MultipartExecutor(
        config.partitioning, shape, machine, payload="skeleton"
    ).run_skeleton(schedule)
    closed = section_3_1_time(shape, config.partitioning, machine, schedule)
    assert run.makespan == pytest.approx(closed, rel=1e-12)
