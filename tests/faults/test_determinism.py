"""Bit-reproducibility of fault-injected runs — the subsystem's core claim."""

import json

from repro.apps.sp import SPProblem
from repro.core.api import plan_multipartitioning
from repro.faults import FaultPlan, ProtocolConfig, ZERO_FAULTS
from repro.runner import BatchRunner, ExperimentSpec, run_spec
from repro.simmpi.machine import origin2000
from repro.simmpi.summary import RunSummary
from repro.sweep.multipart import MultipartExecutor

SHAPE = (8, 8, 8)


def _skeleton(p, faults=None, protocol=None):
    machine = origin2000()
    problem = SPProblem(SHAPE, steps=1)
    plan = plan_multipartitioning(SHAPE, p, machine.to_cost_model())
    executor = MultipartExecutor(
        plan.partitioning, problem.field_shape, machine,
        payload="skeleton", faults=faults, protocol=protocol,
    )
    return executor.run_skeleton(problem.schedule())


class TestRepeatedRuns:
    def test_same_plan_same_seed_is_bit_identical(self):
        plan = FaultPlan(seed=2002, drop_rate=0.1, jitter=1e-6)
        a = _skeleton(4, faults=plan, protocol=ProtocolConfig())
        b = _skeleton(4, faults=plan, protocol=ProtocolConfig())
        assert a.makespan == b.makespan  # exact, not approx
        assert a.clocks == b.clocks
        assert a.fault_counts == b.fault_counts
        assert a.protocol_stats == b.protocol_stats

    def test_different_seed_differs(self):
        a = _skeleton(
            4, faults=FaultPlan(seed=1, drop_rate=0.1),
            protocol=ProtocolConfig(),
        )
        b = _skeleton(
            4, faults=FaultPlan(seed=2, drop_rate=0.1),
            protocol=ProtocolConfig(),
        )
        assert a.makespan != b.makespan


class TestZeroRateEquivalence:
    """A run with a fault plan attached stays on the engine, while a
    fault-free skeleton run takes the lockstep replay, so these compare the
    engine under a zero-rate plan against the lockstep replay."""

    def test_zero_plan_reproduces_fault_free_run_exactly(self):
        base = _skeleton(4)
        zero = _skeleton(4, faults=ZERO_FAULTS)
        assert zero.makespan == base.makespan
        assert zero.clocks == base.clocks

    def test_zero_plan_summary_serializes_byte_identically(self):
        base = RunSummary.from_result(_skeleton(4))
        zero = RunSummary.from_result(_skeleton(4, faults=ZERO_FAULTS))
        assert base == zero
        assert json.dumps(base.to_dict(), sort_keys=True) == json.dumps(
            zero.to_dict(), sort_keys=True
        )

    def test_inert_factors_change_nothing(self):
        # nonzero factors behind zero rates never touch the arithmetic
        plan = FaultPlan(
            seed=9, slow_link_factor=8.0, straggler_factor=8.0,
            pause_duration=1.0,
        )
        assert _skeleton(4, faults=plan).clocks == _skeleton(4).clocks


class TestBatchRunnerDeterminism:
    SPECS = [
        ExperimentSpec(
            shape=SHAPE, p=p, mode="skeleton",
            faults={"drop_rate": 0.1, "seed": 2002},
        )
        for p in (2, 4)
    ]

    def _results(self, jobs):
        return BatchRunner(cache=None, jobs=jobs).run(self.SPECS)

    def test_jobs_do_not_change_results(self):
        one = self._results(1)
        two = self._results(2)
        assert json.dumps(one, sort_keys=True) == json.dumps(
            two, sort_keys=True
        )

    def test_fault_counts_surface_in_summary(self):
        result = run_spec(self.SPECS[1])
        faults = result["summary"]["faults"]
        assert faults["dropped"] > 0
        assert result["fault_plan"]["drop_rate"] == 0.1
        assert len(result["fault_plan_hash"]) == 64

    def test_zero_fault_spec_matches_no_fault_spec(self):
        bare = run_spec(ExperimentSpec(shape=SHAPE, p=4, mode="skeleton"))
        zeroed = run_spec(
            ExperimentSpec(shape=SHAPE, p=4, mode="skeleton", faults={})
        )
        # same summary content: the zero plan is invisible in the output
        assert json.dumps(bare["summary"], sort_keys=True) == json.dumps(
            zeroed["summary"], sort_keys=True
        )
