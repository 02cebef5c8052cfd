"""Runner integration of the fault-injection axis: spec, grid, execution."""

import json

import pytest

from repro.runner import (
    BatchRunner,
    ExperimentSpec,
    ResultCache,
    expand_grid,
    run_spec,
)
from repro.runner.execute import resolve_faults
from repro.runner.spec import FAULT_FIELDS


class TestSpecFaults:
    def test_faults_canonicalize_sorted(self):
        spec = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton",
            faults={"seed": 7, "drop_rate": 0.1},
        )
        assert spec.faults == (("drop_rate", 0.1), ("seed", 7.0))

    def test_unknown_fault_field_rejected(self):
        with pytest.raises(ValueError, match="fault"):
            ExperimentSpec(
                shape=(8, 8, 8), p=4, mode="skeleton",
                faults={"drop_rat": 0.1},
            )

    def test_faults_need_a_message_timeline(self):
        for mode in ("plan",):
            with pytest.raises(ValueError, match="simulated or skeleton"):
                ExperimentSpec(
                    shape=(8, 8, 8), p=4, mode=mode,
                    faults={"drop_rate": 0.1},
                )

    def test_faults_change_the_cache_key(self):
        bare = ExperimentSpec(shape=(8, 8, 8), p=4, mode="skeleton")
        faulty = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton",
            faults={"drop_rate": 0.1},
        )
        reseeded = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton",
            faults={"drop_rate": 0.1, "seed": 3},
        )
        keys = {s.cache_key() for s in (bare, faulty, reseeded)}
        assert len(keys) == 3

    def test_fault_fields_cover_plan_and_protocol(self):
        assert "drop_rate" in FAULT_FIELDS
        assert "protocol_timeout" in FAULT_FIELDS


class TestGridFaultsAxis:
    BASE = {
        "mode": "skeleton",
        "shapes": [[8, 8, 8]],
        "nprocs": [2, 4],
    }

    def test_absent_axis_expands_as_before(self):
        specs = expand_grid(dict(self.BASE))
        assert len(specs) == 2
        assert all(s.faults == () for s in specs)

    def test_fault_axis_multiplies(self):
        doc = dict(self.BASE)
        doc["faults"] = [{}, {"drop_rate": 0.05}, {"drop_rate": 0.1}]
        specs = expand_grid(doc)
        assert len(specs) == 6
        # p is the innermost axis: faults vary slower than p
        assert specs[0].faults == specs[1].faults == ()
        assert specs[2].faults == (("drop_rate", 0.05),)

    def test_malformed_axis_rejected(self):
        doc = dict(self.BASE)
        doc["faults"] = "drop_rate=0.1"
        with pytest.raises(ValueError, match="faults"):
            expand_grid(doc)
        doc["faults"] = [0.1]
        with pytest.raises(ValueError, match="faults"):
            expand_grid(doc)


class TestResolveFaults:
    def test_no_faults_resolves_to_none(self):
        plan, protocol = resolve_faults(
            ExperimentSpec(shape=(8, 8, 8), p=4, mode="skeleton")
        )
        assert plan is None and protocol is None

    def test_seed_defaults_to_spec_seed(self):
        spec = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton", seed=77,
            faults={"drop_rate": 0.1},
        )
        plan, _ = resolve_faults(spec)
        assert plan.seed == 77

    def test_explicit_fault_seed_wins(self):
        spec = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton", seed=77,
            faults={"drop_rate": 0.1, "seed": 5},
        )
        plan, _ = resolve_faults(spec)
        assert plan.seed == 5

    def test_protocol_auto_enables_for_lossy_plans(self):
        lossy = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton",
            faults={"drop_rate": 0.1},
        )
        _, protocol = resolve_faults(lossy)
        assert protocol is not None
        delayed = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton",
            faults={"jitter": 1e-6},
        )
        _, protocol = resolve_faults(delayed)
        assert protocol is None

    def test_protocol_overrides_flow_through(self):
        spec = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton",
            faults={
                "drop_rate": 0.1, "protocol_timeout": 0.5,
                "max_retries": 3, "backoff": 1.5,
            },
        )
        _, protocol = resolve_faults(spec)
        assert protocol.timeout == 0.5
        assert protocol.max_retries == 3
        assert protocol.backoff == 1.5


class TestRunSpecFaults:
    def test_result_names_the_fault_plan(self):
        result = run_spec(
            ExperimentSpec(
                shape=(8, 8, 8), p=4, mode="skeleton",
                faults={"drop_rate": 0.1},
            )
        )
        assert "error" not in result
        assert result["fault_plan"]["drop_rate"] == 0.1
        assert len(result["fault_plan_hash"]) == 64
        assert result["summary"]["faults"]["dropped"] > 0
        assert result["summary"]["protocol"]["retransmits"] > 0

    def test_exhausted_retries_become_a_structured_error(self):
        spec = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton",
            faults={
                "drop_rate": 0.97, "protocol_timeout": 0.001,
                "max_retries": 1,
            },
        )
        result = run_spec(spec)
        assert "protocol retries exhausted" in result["error"]
        detail = result["protocol_exhausted"]
        assert set(detail) == {"rank", "dest", "seq", "retries"}
        assert detail["retries"] == 1

    def test_exhausted_results_are_never_cached(self, tmp_path):
        spec = ExperimentSpec(
            shape=(8, 8, 8), p=4, mode="skeleton",
            faults={
                "drop_rate": 0.97, "protocol_timeout": 0.001,
                "max_retries": 1,
            },
        )
        cache = ResultCache(tmp_path)
        runner = BatchRunner(cache=cache, jobs=1)
        first = runner.run([spec])
        assert "error" in first[0]
        assert len(cache) == 0
        runner.run([spec])
        assert runner.last_sources == ["miss"]

    def test_simulated_mode_carries_faults_too(self):
        result = run_spec(
            ExperimentSpec(
                shape=(8, 8, 8), p=2, mode="simulated",
                faults={"drop_rate": 0.05},
            )
        )
        assert "error" not in result
        assert result["summary"]["faults"]["dropped"] >= 0
