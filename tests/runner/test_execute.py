"""Tests for worker-side spec execution across modes, apps, partitioners."""

import json

import pytest

from repro.runner import (
    ExperimentSpec,
    resolve_cost_model,
    resolve_machine,
    run_spec,
    spec_for_cost_model,
)


class TestResolvers:
    def test_presets(self):
        from repro.simmpi.machine import origin2000

        spec = ExperimentSpec(shape=(8, 8), p=2)
        assert resolve_machine(spec) == origin2000()

    def test_machine_overrides_applied(self):
        spec = ExperimentSpec(
            shape=(8, 8), p=2,
            machine_params=(("latency", 1e-3), ("network", "bus")),
        )
        from repro.core.cost import NetworkScaling

        machine = resolve_machine(spec)
        assert machine.latency == 1e-3
        assert machine.network is NetworkScaling.BUS

    def test_cost_model_from_machine(self):
        from repro.simmpi.machine import origin2000

        spec = ExperimentSpec(shape=(8, 8), p=2)
        assert resolve_cost_model(spec) == origin2000().to_cost_model()

    def test_cost_model_from_explicit_params(self):
        from repro.core.cost import CostModel

        model = CostModel(k2=3e-4)
        spec = spec_for_cost_model((8, 8), 2, model)
        assert resolve_cost_model(spec) == model


class TestModes:
    def test_plan_mode_fields(self):
        result = run_spec(
            ExperimentSpec(shape=(102, 102, 102), p=50, mode="plan")
        )
        assert result["gammas"] == [5, 10, 10]
        assert result["candidates_examined"] == 12
        assert result["compact"] is False
        assert "sequential_time" not in result
        assert "summary" not in result

    def test_simulated_mode_verifies_numerics(self):
        result = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=4, mode="simulated")
        )
        assert result["max_abs_error"] < 1e-11
        summary = result["summary"]
        assert summary["nprocs"] == 4
        assert summary["makespan"] > 0
        assert summary["message_count"] > 0

    def test_result_is_json_pure(self):
        result = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=2, mode="simulated")
        )
        assert json.loads(json.dumps(result)) == result


class TestApps:
    @pytest.mark.parametrize("app", ["sp", "bt", "adi"])
    def test_each_app_simulates_correctly(self, app):
        result = run_spec(
            ExperimentSpec(shape=(6, 6, 6), p=2, mode="simulated", app=app)
        )
        assert result["max_abs_error"] < 1e-11

    def test_bt_component_axis_never_cut(self):
        result = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=4, mode="plan", app="bt")
        )
        assert len(result["gammas"]) == 4
        assert result["gammas"][3] == 1


class TestPartitioners:
    def test_diagonal_matches_optimal_on_squares(self):
        diag = run_spec(
            ExperimentSpec(
                shape=(8, 8, 8), p=4, mode="simulated",
                partitioner="diagonal",
            )
        )
        assert sorted(diag["gammas"]) == [2, 2, 2]
        assert diag["compact"] is True
        assert diag["candidates_examined"] == 0
        assert diag["max_abs_error"] < 1e-11

    def test_diagonal_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            run_spec(
                ExperimentSpec(
                    shape=(8, 8, 8), p=6, mode="plan",
                    partitioner="diagonal",
                )
            )

    def test_diagonal_rejects_bt(self):
        with pytest.raises(ValueError):
            run_spec(
                ExperimentSpec(
                    shape=(8, 8, 8), p=4, mode="plan", app="bt",
                    partitioner="diagonal",
                )
            )


class TestSeedSensitivity:
    def test_seed_changes_field_not_structure(self):
        a = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=2, mode="simulated", seed=1)
        )
        b = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=2, mode="simulated", seed=2)
        )
        # structure (plan, message counts) is seed-independent ...
        assert a["gammas"] == b["gammas"]
        assert a["summary"]["message_count"] == b["summary"]["message_count"]
        # ... and the same seed reproduces bit-identical results
        again = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=2, mode="simulated", seed=1)
        )
        assert json.dumps(a) == json.dumps(again)


class TestSkeletonMode:
    @pytest.mark.parametrize("app", ["sp", "bt", "adi"])
    def test_matches_simulated_timing(self, app):
        """run_spec in skeleton mode reproduces the simulated-mode summary
        and speedup exactly — just without data verification."""
        skel = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=4, mode="skeleton", app=app)
        )
        sim = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=4, mode="simulated", app=app)
        )
        assert skel["summary"] == sim["summary"]
        assert skel["speedup"] == sim["speedup"]
        assert "max_abs_error" not in skel

    def test_result_is_json_pure(self):
        result = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=2, mode="skeleton")
        )
        assert json.loads(json.dumps(result)) == result

    def test_p1_speedup_is_exactly_one(self):
        result = run_spec(
            ExperimentSpec(shape=(8, 8, 8), p=1, mode="skeleton")
        )
        assert result["speedup"] == pytest.approx(1.0, rel=1e-12)
