"""Unit tests of the communication analyses over hand-built IRs."""

import pytest

from repro.apps import plan_app
from repro.simmpi.machine import origin2000
from repro.simmpi.message import ANY_TAG, Bytes, RecvOp, SendOp
from repro.sweep.multipart import MultipartExecutor
from repro.verify import races as races_module
from repro.verify import (
    ProgramIR,
    check_deadlock,
    check_matching,
    check_races,
    execute_abstract,
    extract_program_ir,
    verify_ir,
)


def prog(*ranks):
    """Build a ProgramIR from per-rank op specs:
    ("s", dest, tag[, nbytes]) / ("r", source, tag)."""
    built = []
    for specs in ranks:
        ops = []
        for spec in specs:
            if spec[0] == "s":
                nbytes = spec[3] if len(spec) > 3 else 8
                ops.append(SendOp(spec[1], Bytes(nbytes), spec[2]))
            else:
                ops.append(RecvOp(spec[1], spec[2]))
        built.append(tuple(ops))
    return ProgramIR(len(built), tuple(built))


def kinds(result):
    return [v.kind for v in result.violations]


class TestAbstractExecution:
    def test_clean_exchange_completes(self):
        ir = prog([("s", 1, 7)], [("r", 0, 7)])
        run = execute_abstract(ir)
        assert run.completed
        assert run.matching == {(0, 0): (1, 0)}
        assert run.unmatched_sends == ()

    def test_head_to_head_blocks(self):
        ir = prog([("r", 1, 1), ("s", 1, 2)], [("r", 0, 2), ("s", 0, 1)])
        run = execute_abstract(ir)
        assert not run.completed
        assert run.blocked == {0: (0, 0), 1: (1, 0)}

    def test_any_tag_matches_in_issue_order(self):
        ir = prog(
            [("s", 1, 30), ("s", 1, 20)],
            [("r", 0, ANY_TAG), ("r", 0, ANY_TAG)],
        )
        run = execute_abstract(ir)
        assert run.completed
        # earliest issued message first, regardless of tag value
        assert run.matching[(0, 0)] == (1, 0)
        assert run.matching[(0, 1)] == (1, 1)

    def test_fifo_per_channel(self):
        ir = prog(
            [("s", 1, 5, 10), ("s", 1, 5, 20)],
            [("r", 0, 5), ("r", 0, 5)],
        )
        run = execute_abstract(ir)
        assert run.completed
        assert run.matching[(0, 0)] == (1, 0)


class TestMatching:
    def test_clean(self):
        ir = prog([("s", 1, 7)], [("r", 0, 7)])
        assert check_matching(ir).ok

    def test_orphan_send(self):
        ir = prog([("s", 1, 7), ("s", 1, 7)], [("r", 0, 7)])
        result = check_matching(ir)
        assert kinds(result) == ["orphan-send"]
        witness = result.violations[0].witness
        assert witness["channel"] == {"src": 0, "dst": 1}
        assert witness["unconsumed"] == 1
        assert witness["ops"][0]["kind"] == "send"

    def test_missing_send(self):
        ir = prog([("s", 1, 7)], [("r", 0, 7), ("r", 0, 7)])
        result = check_matching(ir)
        assert kinds(result) == ["missing-send"]
        assert result.violations[0].witness["channel"]["tag"] == 7

    def test_any_tag_absorbs_leftover_sends(self):
        ir = prog(
            [("s", 1, 3), ("s", 1, 4)],
            [("r", 0, ANY_TAG), ("r", 0, ANY_TAG)],
        )
        assert check_matching(ir).ok

    def test_any_tag_deficit(self):
        ir = prog([], [("r", 0, ANY_TAG)])
        result = check_matching(ir)
        assert kinds(result) == ["any-tag-deficit"]

    def test_stats(self):
        ir = prog([("s", 1, 7)], [("r", 0, 7)])
        stats = check_matching(ir).stats
        assert stats == {"sends": 1, "recvs": 1, "pairs": 1, "channels": 1}


class TestDeadlock:
    def test_completed_run_is_ok(self):
        ir = prog([("s", 1, 7)], [("r", 0, 7)])
        assert check_deadlock(ir, execute_abstract(ir)).ok

    def test_two_rank_cycle_with_witness(self):
        ir = prog([("r", 1, 1), ("s", 1, 2)], [("r", 0, 2), ("s", 0, 1)])
        result = check_deadlock(ir, execute_abstract(ir))
        assert kinds(result) == ["cycle"]
        chain = result.violations[0].witness["cycle"]
        assert [op["rank"] for op in chain] == [0, 1]
        assert all(op["kind"] == "recv" for op in chain)
        assert result.stats["cycles"] == 1

    def test_three_rank_cycle(self):
        ir = prog(
            [("r", 2, 1), ("s", 1, 1)],
            [("r", 0, 1), ("s", 2, 1)],
            [("r", 1, 1), ("s", 0, 1)],
        )
        result = check_deadlock(ir, execute_abstract(ir))
        assert kinds(result) == ["cycle"]
        assert len(result.violations[0].witness["cycle"]) == 3

    def test_stall_names_finished_source_and_dependents(self):
        # rank 2 finishes without sending; 0 waits on 2, 1 waits on 0
        ir = prog([("r", 2, 9), ("s", 1, 5)], [("r", 0, 5)], [])
        result = check_deadlock(ir, execute_abstract(ir))
        assert kinds(result) == ["stall"]
        witness = result.violations[0].witness
        assert witness["recv"]["rank"] == 0
        assert witness["recv"]["source"] == 2
        assert witness["source_finished"] is True
        assert witness["dependent_ranks"] == [1]

    def test_cycle_plus_stall_chain(self):
        # 0<->1 cycle; 2 stalls on finished rank 3
        ir = prog(
            [("r", 1, 1), ("s", 1, 2)],
            [("r", 0, 2), ("s", 0, 1)],
            [("r", 3, 7)],
            [],
        )
        result = check_deadlock(ir, execute_abstract(ir))
        assert sorted(kinds(result)) == ["cycle", "stall"]


class TestRaces:
    def test_concurrent_sends_to_shared_channel(self):
        ir = prog(
            [("s", 2, 5)],
            [("s", 2, 5)],
            [("r", 0, 5), ("r", 1, 5)],
        )
        result = check_races(ir, execute_abstract(ir))
        assert kinds(result) == ["message-race"]
        witness = result.violations[0].witness
        assert witness["channel"] == {"dst": 2, "tag": 5}
        assert {s["rank"] for s in witness["sends"]} == {0, 1}

    def test_happens_before_ordered_sends_do_not_race(self):
        # 1's send is causally after 0's: 0 -> 2 -> 1 -> 2 chain
        ir = prog(
            [("s", 2, 5)],
            [("r", 2, 9), ("s", 2, 5)],
            [("r", 0, 5), ("s", 1, 9), ("r", 1, 5)],
        )
        result = check_races(ir, execute_abstract(ir))
        assert result.ok
        assert result.stats["checked_pairs"] == 1

    def test_same_source_pairs_are_program_ordered(self):
        ir = prog([("s", 1, 5), ("s", 1, 5)], [("r", 0, 5), ("r", 0, 5)])
        result = check_races(ir, execute_abstract(ir))
        assert result.ok
        assert result.stats["checked_pairs"] == 0

    def test_stuck_program_is_skipped(self):
        ir = prog([("r", 1, 1)], [("r", 0, 1)])
        result = check_races(ir, execute_abstract(ir))
        assert result.ok
        assert result.stats["skipped"] == "program deadlocks"


class TestRacesByNeighborProperty:
    @pytest.fixture
    def clock_calls(self, monkeypatch):
        calls = []
        real = races_module.vector_clocks

        def spy(ir, run):
            calls.append(ir)
            return real(ir, run)

        monkeypatch.setattr(races_module, "vector_clocks", spy)
        return calls

    @pytest.mark.parametrize("p", [4, 6, 9])
    def test_clean_compiled_sp_builds_no_clocks(self, clock_calls, p):
        """Every (dst, tag) channel of a compiled SP program has one
        sender, so race freedom needs no happens-before relation."""
        machine = origin2000()
        config = plan_app(
            "sp", (8, 8, 8), p, cost_model=machine.to_cost_model()
        )
        executor = MultipartExecutor(
            config.partitioning,
            config.problem.field_shape,
            machine,
            record_events=True,
            payload="skeleton",
        )
        ir = extract_program_ir(executor, config.problem.schedule())
        *_, races = verify_ir(ir)
        assert races.ok and races.stats["channels"] > 0
        assert races.stats["checked_pairs"] == 0
        assert clock_calls == []

    def test_shared_channel_builds_clocks(self, clock_calls):
        ir = prog(
            [("s", 2, 5)],
            [("s", 2, 5)],
            [("r", 0, 5), ("r", 1, 5)],
        )
        check_races(ir, execute_abstract(ir))
        assert clock_calls == [ir]


class TestVerifyIR:
    def test_returns_all_three_analyses(self):
        ir = prog([("s", 1, 7)], [("r", 0, 7)])
        matching, deadlock, races = verify_ir(ir)
        assert (matching.name, deadlock.name, races.name) == (
            "matching", "deadlock", "races",
        )
        assert matching.ok and deadlock.ok and races.ok
