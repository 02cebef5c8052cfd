"""IR extraction: soundness against the engine, phase folding, op record."""

import pytest

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
from repro.verify import IRRecv, IRSend, ProgramIR, extract_program_ir
from repro.verify.checker import build_configuration
from repro.verify.ir import _lower_rank


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
        ops = _lower_rank(0, raw)
        assert isinstance(ops[0], IRSend) and ops[0].phase == "sweep/x"
        assert isinstance(ops[1], IRRecv) and ops[1].phase == "sweep"
        assert ops[2].phase == ""

    def test_mismatched_phase_end_raises(self):
        with pytest.raises(ValueError, match="does not match"):
            _lower_rank(0, [MarkOp(PHASE_BEGIN + "a"), MarkOp(PHASE_END + "b")])

    def test_unclosed_phase_raises(self):
        with pytest.raises(ValueError, match="unclosed"):
            _lower_rank(0, [MarkOp(PHASE_BEGIN + "a")])


class TestExtraction:
    @pytest.mark.parametrize("app,p", [("sp", 4), ("adi", 6), ("bt", 4)])
    def test_ir_matches_engine_traffic(self, app, p):
        """The extracted IR declares exactly the messages the engine moves:
        same count, same total bytes — the engine run is the oracle for the
        per-rank extraction's soundness."""
        executor, schedule, _, _ = build_configuration(app, (8, 8, 8), p)
        ir = extract_program_ir(executor, schedule)
        run = executor.run_skeleton(schedule)
        assert ir.nprocs == p
        assert ir.total_sends == run.message_count
        assert ir.total_send_bytes == run.total_bytes
        # every rank must both compute and communicate in these apps
        for ops in ir.ranks:
            assert any(isinstance(op, IRSend) for op in ops)
            assert any(isinstance(op, IRRecv) for op in ops)

    def test_phases_annotated_when_marks_enabled(self):
        executor, schedule, _, _ = build_configuration("sp", (8, 8, 8), 4)
        ir = extract_program_ir(executor, schedule)
        phases = {op.phase for op in ir.sends()}
        assert phases and all(p for p in phases)

    def test_replace_rank_substitutes_one_rank(self):
        executor, schedule, _, _ = build_configuration("sp", (8, 8, 8), 2)
        ir = extract_program_ir(executor, schedule)
        mutated = ir.replace_rank(0, ())
        assert mutated.ranks[0] == ()
        assert mutated.ranks[1] == ir.ranks[1]
        assert ir.ranks[0]  # original untouched

    def test_rank_count_validated(self):
        with pytest.raises(ValueError):
            ProgramIR(3, ((), ()))
