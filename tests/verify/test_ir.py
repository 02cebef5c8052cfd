"""IR extraction: soundness against the engine, phase folding, op counts."""

import pytest

from repro.apps import plan_app
from repro.simmpi.machine import origin2000
from repro.simmpi.message import (
    PHASE_BEGIN,
    PHASE_END,
    Bytes,
    ComputeOp,
    MarkOp,
    RecvOp,
    SendOp,
)
from repro.simmpi.program import record_ops
from repro.sweep.multipart import MultipartExecutor
from repro.verify import ProgramIR, extract_program_ir
from repro.verify.ir import fold_phases


def skeleton_config(app, shape, p, record_events=False):
    """(executor, schedule) as ``repro check`` compiles them: skeleton
    payloads, the Origin 2000 machine."""
    machine = origin2000()
    config = plan_app(app, shape, p, cost_model=machine.to_cost_model())
    executor = MultipartExecutor(
        config.partitioning,
        config.problem.field_shape,
        machine,
        record_events=record_events,
        payload="skeleton",
    )
    return executor, config.problem.schedule()


class TestRecordOps:
    def test_drains_generator_feeding_none_into_recvs(self):
        def prog():
            yield SendOp(1, Bytes(8), tag=5)
            got = yield RecvOp(0, tag=5)
            assert got is None
            yield ComputeOp(1.0)

        ops = record_ops(prog())
        assert [type(op) for op in ops] == [SendOp, RecvOp, ComputeOp]

    def test_custom_recv_value(self):
        def prog():
            got = yield RecvOp(0, tag=1)
            yield SendOp(1, Bytes(got), tag=1)

        ops = record_ops(prog(), recv_value=64)
        assert ops[1].payload.nbytes == 64

    def test_rejects_non_primitive_op(self):
        def prog():
            yield "not an op"

        with pytest.raises(TypeError):
            record_ops(prog())

    def test_op_budget(self):
        def prog():
            while True:
                yield ComputeOp(0.0)

        with pytest.raises(RuntimeError):
            record_ops(prog(), max_ops=10)


class TestLowerRank:
    def test_phase_spans_fold_into_op_phase(self):
        raw = [
            MarkOp(PHASE_BEGIN + "sweep"),
            MarkOp(PHASE_BEGIN + "x"),
            SendOp(1, Bytes(8), tag=3),
            MarkOp(PHASE_END + "x"),
            RecvOp(1, tag=4),
            MarkOp(PHASE_END + "sweep"),
            ComputeOp(1.0),
        ]
        phases = fold_phases(0, raw)
        assert len(phases) == len(raw)
        assert phases[2] == "sweep/x"  # the send
        assert phases[4] == "sweep"  # the recv
        assert phases[6] == ""  # the compute

    def test_mismatched_phase_end_raises(self):
        with pytest.raises(ValueError, match="does not match"):
            fold_phases(0, [MarkOp(PHASE_BEGIN + "a"), MarkOp(PHASE_END + "b")])

    def test_unclosed_phase_raises(self):
        with pytest.raises(ValueError, match="unclosed"):
            fold_phases(0, [MarkOp(PHASE_BEGIN + "a")])

    def test_witness_reads_the_folded_phase(self):
        raw = (
            MarkOp(PHASE_BEGIN + "sweep"),
            SendOp(1, Bytes(8), tag=3),
            MarkOp(PHASE_END + "sweep"),
        )
        ir = ProgramIR(2, (raw, (RecvOp(0, tag=3),)))
        assert ir.witness(0, 1) == {
            "kind": "send", "rank": 0, "op_index": 1, "dest": 1, "tag": 3,
            "nbytes": 8, "phase": "sweep",
        }
        assert ir.witness(1, 0)["phase"] == ""


class TestExtraction:
    @pytest.mark.parametrize("app,p", [("sp", 4), ("adi", 6), ("bt", 4)])
    def test_ir_matches_engine_traffic(self, app, p):
        """The extracted IR declares exactly the messages the engine moves:
        same count, same total bytes — the engine run is the oracle for the
        per-rank extraction's soundness."""
        executor, schedule = skeleton_config(app, (8, 8, 8), p)
        ir = extract_program_ir(executor, schedule)
        run = executor.run_skeleton(schedule)
        assert ir.nprocs == p
        assert ir.total_sends == run.message_count
        assert ir.total_send_bytes == run.total_bytes
        # every rank must both compute and communicate in these apps
        for ops in ir.ranks:
            assert any(isinstance(op, SendOp) for op in ops)
            assert any(isinstance(op, RecvOp) for op in ops)

    def test_ir_is_the_compiled_program(self):
        executor, schedule = skeleton_config("sp", (8, 8, 8), 4)
        ir = extract_program_ir(executor, schedule)
        compiled = executor.compile(schedule)
        assert ir.lockstep is compiled.lockstep
        assert ir.ranks == tuple(ops for ops, _ in compiled.marked)

    @pytest.mark.parametrize("app", ["sp", "bt", "adi"])
    @pytest.mark.parametrize("shape,p", [((8, 8, 8), 4), ((9, 7, 11), 6)])
    def test_total_ops_excludes_phase_spans(self, app, shape, p):
        """The published op count is the unmarked program plus one op-label
        mark per schedule op and rank: phase-span marks do not count.  The
        step count and the per-op count of the marked view agree."""
        executor, schedule = skeleton_config(app, shape, p)
        ir = extract_program_ir(executor, schedule)
        plain = sum(map(len, executor.compile(schedule).ops))
        assert ir.total_ops == plain + p * len(schedule)
        assert ir.total_ops == ProgramIR(p, ir.ranks).total_ops
        assert ir.total_ops < sum(map(len, ir.ranks))

    def test_phases_annotated_when_marks_enabled(self):
        """Witnesses name their phases whether or not the executor
        observes its runs: both compile the same program."""
        witnesses = []
        for record_events in (False, True):
            executor, schedule = skeleton_config(
                "sp", (8, 8, 8), 4, record_events=record_events
            )
            ir = extract_program_ir(executor, schedule)
            witnesses.append([ir.witness(r, i) for r, i, _ in ir.sends()])
        phases = {w["phase"] for w in witnesses[0]}
        assert phases and all(p for p in phases)
        assert witnesses[0] == witnesses[1]

    def test_replace_rank_substitutes_one_rank(self):
        executor, schedule = skeleton_config("sp", (8, 8, 8), 2)
        ir = extract_program_ir(executor, schedule)
        mutated = ir.replace_rank(0, ())
        assert mutated.ranks[0] == ()
        assert mutated.ranks[1] == ir.ranks[1]
        assert ir.ranks[0]  # original untouched

    def test_rank_count_validated(self):
        with pytest.raises(ValueError):
            ProgramIR(3, ((), ()))
