"""Mutation self-test harness: seed one defect per checker class into a
known-good configuration and assert the verifier reports it with a concrete,
JSON-serializable witness.

Mutations over the extracted IR re-enter through :func:`verify_ir`; the
mapping mutation re-enters through :func:`check_invariants`.  Every test
also asserts the *unmutated* configuration verifies cleanly, so a detection
can never be a false positive of the baseline.
"""

import dataclasses
import json

import pytest

from repro.apps import plan_app
from repro.simmpi.machine import origin2000
from repro.simmpi.message import SendOp
from repro.sweep.multipart import MultipartExecutor
from repro.verify import check_invariants, extract_program_ir, verify_ir


@pytest.fixture(scope="module")
def config():
    machine = origin2000()
    planned = plan_app(
        "sp", (8, 8, 8), 4, cost_model=machine.to_cost_model()
    )
    executor = MultipartExecutor(
        planned.partitioning,
        planned.problem.field_shape,
        machine,
        record_events=True,
        payload="skeleton",
    )
    ir = extract_program_ir(executor, planned.problem.schedule())
    return ir, planned.partitioning, planned.mapping


@pytest.fixture(scope="module")
def baseline(config):
    ir, partitioning, mapping = config
    results = verify_ir(ir)
    assert all(r.ok for r in results), "baseline must be clean"
    inv, _ = check_invariants(partitioning, mapping=mapping)
    assert inv.ok
    return results


def all_violations(results):
    return [v for r in results for v in r.violations]


def assert_witnessed(results, analysis, kind):
    """The named checker produced the expected kind, with a JSON witness."""
    matches = [
        v for v in all_violations(results)
        if v.analysis == analysis and v.kind == kind
    ]
    assert matches, (
        f"expected {analysis}/{kind}, got "
        f"{[(v.analysis, v.kind) for v in all_violations(results)]}"
    )
    for v in matches:
        json.dumps(v.witness)  # concrete machine-readable witness
    return matches


class TestDropRecv:
    def test_matching_reports_orphan_send(self, config, baseline):
        ir, _, _ = config
        rank, i, dropped = next(iter(ir.recvs()))
        ops = ir.ranks[rank]
        mutated = ir.replace_rank(rank, ops[:i] + ops[i + 1:])
        results = verify_ir(mutated)
        matches = assert_witnessed(results, "matching", "orphan-send")
        # the witness names the channel whose receive was dropped ...
        hits = [
            v for v in matches
            if v.witness["channel"] == {"src": dropped.source, "dst": rank}
        ]
        assert hits
        # ... and points at the unconsumed send by its compiled position
        for op in hits[0].witness["ops"]:
            sent = mutated.ranks[op["rank"]][op["op_index"]]
            assert sent.__class__ is SendOp
            assert (op["rank"], sent.dest, sent.tag) == (
                dropped.source, rank, dropped.tag,
            )


class TestSwapTag:
    def test_matching_reports_both_sides(self, config, baseline):
        ir, _, _ = config
        rank, i, original = next(iter(ir.sends()))
        ops = ir.ranks[rank]
        swapped = dataclasses.replace(original, tag=original.tag + 999_983)
        mutated = ir.replace_rank(rank, ops[:i] + (swapped,) + ops[i + 1:])
        results = verify_ir(mutated)
        # the receiver's expected tag never arrives ...
        missing = assert_witnessed(results, "matching", "missing-send")
        assert any(
            v.witness["channel"]["tag"] == original.tag for v in missing
        )
        # ... and the retagged message is never consumed; the witness
        # names it by its position in the compiled program
        orphan = assert_witnessed(results, "matching", "orphan-send")
        named = [
            mutated.ranks[op["rank"]][op["op_index"]]
            for v in orphan
            for op in v.witness["ops"]
        ]
        assert any(op is swapped for op in named)
        # the starved receive also hangs ranks (as a stall or, when the
        # sweep dependences wrap around, a genuine wait-for cycle)
        deadlocks = [
            v for v in all_violations(results) if v.analysis == "deadlock"
        ]
        assert deadlocks and all(
            v.kind in ("stall", "cycle") for v in deadlocks
        )
        for v in deadlocks:
            json.dumps(v.witness)


class TestRetargetDest:
    def test_deadlock_and_matching_localize_it(self, config, baseline):
        ir, _, _ = config
        rank, i, send = next(iter(ir.sends()))
        wrong_dest = next(
            d for d in range(ir.nprocs) if d not in (send.dest, rank)
        )
        retargeted = dataclasses.replace(send, dest=wrong_dest)
        ops = ir.ranks[rank]
        mutated = ir.replace_rank(rank, ops[:i] + (retargeted,) + ops[i + 1:])
        results = verify_ir(mutated)
        # original receiver starves; the misdirected message is unconsumed
        # (or double-matches the wrong channel)
        missing = assert_witnessed(results, "matching", "missing-send")
        assert any(
            v.witness["channel"]["dst"] == send.dest for v in missing
        )
        deadlocks = [
            v for v in all_violations(results) if v.analysis == "deadlock"
        ]
        assert deadlocks, "starved receive must hang at least one rank"


class TestInjectedConcurrentSend:
    def test_race_checker_catches_tag_collision(self, config, baseline):
        """A duplicate of an existing message sent from a *different* rank:
        two happens-before-concurrent sends now share one (dst, tag)
        channel — exactly what the race analysis (and, on valid configs,
        the neighbor theorem) rules out."""
        ir, _, _ = config
        rank, _, send = next(iter(ir.sends()))
        imposter_rank = next(
            r for r in range(ir.nprocs) if r not in (rank, send.dest)
        )
        ops = ir.ranks[imposter_rank]
        mutated = ir.replace_rank(imposter_rank, (send,) + ops)
        results = verify_ir(mutated)
        races = assert_witnessed(results, "races", "message-race")
        witness = races[0].witness
        assert witness["channel"] == {"dst": send.dest, "tag": send.tag}
        assert {s["rank"] for s in witness["sends"]} == {rank, imposter_rank}


class TestPermuteMappingRow:
    def test_invariants_report_mapping_inconsistency(self, config, baseline):
        ir, partitioning, mapping = config
        assert mapping is not None
        corrupted = dataclasses.replace(
            mapping, matrix=mapping.matrix[::-1].copy()
        )
        # guard: the permutation must actually change the generated table
        assert (
            corrupted.rank_grid(partitioning.gammas)
            != partitioning.owner
        ).any()
        result, cert = check_invariants(partitioning, mapping=corrupted)
        assert not result.ok
        v = next(
            v for v in result.violations if v.kind == "mapping-consistency"
        )
        json.dumps(v.witness)
        assert v.witness["mismatches"] > 0
        assert cert["mapping_consistent"] is False
