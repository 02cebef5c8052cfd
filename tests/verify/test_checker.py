"""End-to-end verification of the standard configuration grid, report
shape, and the runner's verify pre-flight."""

import json

import pytest

from repro.runner import ExperimentSpec
from repro.runner.execute import run_spec
from repro.sweep.compile import ScheduleCompiler
from repro.verify import SCHEMA, VerifyReport, verify_config


class TestStandardGrid:
    @pytest.mark.parametrize("app", ["sp", "bt", "adi"])
    @pytest.mark.parametrize("p", [2, 4, 6, 9])
    @pytest.mark.parametrize("aggregate", [True, False])
    def test_grid_verifies_clean(self, app, p, aggregate):
        report = verify_config(app, (8, 8, 8), p, aggregate=aggregate)
        assert report.ok, report.summary()
        names = [a.name for a in report.analyses]
        assert names == ["matching", "deadlock", "races", "invariants"]
        assert report.certificate is not None and report.certificate["ok"]

    @pytest.mark.parametrize("app", ["sp", "bt", "adi"])
    def test_larger_shape(self, app):
        assert verify_config(app, (12, 12, 12), 6).ok

    def test_diagonal_partitioner(self):
        report = verify_config("adi", (8, 8, 8), 9, partitioner="diagonal")
        assert report.ok

    def test_stencil_rhs_flow(self):
        assert verify_config("sp", (8, 8, 8), 4, stencil_rhs=True).ok

    def test_multi_step(self):
        assert verify_config("adi", (8, 8, 8), 4, steps=2).ok


class TestReportDocument:
    def test_schema_and_round_trip(self):
        report = verify_config("sp", (8, 8, 8), 4)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema"] == SCHEMA == "repro.verify-report.v1"
        assert doc["ok"] is True
        assert set(doc["analyses"]) == {
            "matching", "deadlock", "races", "invariants",
        }
        cfg = doc["config"]
        assert cfg["app"] == "sp" and cfg["p"] == 4
        assert cfg["gammas"] == [2, 2, 2]
        ir = cfg["ir"]
        assert ir["ranks"] == 4 and ir["messages"] > 0 and ir["bytes"] > 0
        cert = doc["certificate"]
        assert cert["schema"] == "repro.mapping-certificate.v1"
        assert cert["ok"] and "matrix" in cert and "moduli" in cert

    def test_stats_are_populated(self):
        report = verify_config("sp", (8, 8, 8), 4)
        by_name = {a.name: a for a in report.analyses}
        assert by_name["matching"].stats["sends"] > 0
        assert by_name["races"].stats["channels"] > 0
        assert by_name["invariants"].stats["tiles"] == 8

    def test_unplannable_config_reported_not_raised(self):
        report = verify_config(
            "adi", (8, 8, 8), 7, partitioner="diagonal"
        )
        assert not report.ok
        v = report.violations()[0]
        assert v.kind == "unplannable"
        assert "FAILED" in report.summary()
        json.dumps(report.to_dict())

    def test_unknown_app_reported(self):
        report = verify_config("lu", (8, 8, 8), 4)
        assert not report.ok
        assert report.violations()[0].kind == "unplannable"


class TestRunnerPreFlight:
    def test_run_spec_verify_clean_result_unchanged(self):
        spec = ExperimentSpec(
            app="sp", shape=(8, 8, 8), p=4, mode="plan"
        )
        plain = run_spec(spec)
        verified = run_spec(spec, verify=True)
        # a clean pre-flight leaves the result (and cache schema) untouched
        assert verified == plain
        assert "verify" not in verified

    def test_run_spec_verify_skeleton_mode(self):
        spec = ExperimentSpec(
            app="adi", shape=(8, 8, 8), p=2, mode="skeleton"
        )
        result = run_spec(spec, verify=True)
        assert result == run_spec(spec)
        assert result["summary"]["makespan"] > 0

    @pytest.mark.parametrize("mode", ["skeleton", "simulated"])
    def test_verified_run_compiles_once(self, mode, monkeypatch):
        """The pre-flight verifies the very program the run executes: one
        schedule is lowered once, and every compile hands out that one
        result."""
        lowered, handed = [], []
        lower, compile_ = ScheduleCompiler._lower, ScheduleCompiler.compile

        def spy_lower(self, schedule):
            lowered.append(schedule)
            return lower(self, schedule)

        def spy_compile(self, schedule):
            handed.append(compile_(self, schedule))
            return handed[-1]

        monkeypatch.setattr(ScheduleCompiler, "_lower", spy_lower)
        monkeypatch.setattr(ScheduleCompiler, "compile", spy_compile)
        spec = ExperimentSpec(app="sp", shape=(8, 8, 8), p=4, mode=mode)
        result = run_spec(spec, verify=True)
        assert "error" not in result and result["summary"]["makespan"] > 0
        assert len(lowered) == 1
        assert len(handed) == 2 and handed[0] is handed[1]

    @pytest.mark.parametrize("app", ["sp", "bt", "adi"])
    def test_failing_pre_flight_certifies_like_check(self, app, monkeypatch):
        """The pre-flight proves the same certificate ``repro check`` does —
        for SP and ADI that includes the modular-mapping cross-check; BT's
        3-D mapping does not describe its 4-D owner table, so it has none."""
        monkeypatch.setattr(VerifyReport, "ok", property(lambda self: False))
        spec = ExperimentSpec(app=app, shape=(12, 12, 12), p=6, mode="plan")
        certificate = run_spec(spec, verify=True)["verify"]["certificate"]
        check = verify_config(app, (12, 12, 12), 6).to_dict()
        assert certificate == check["certificate"]
        mapping_keys = {"mapping_consistent", "matrix", "moduli"}
        if app == "bt":
            assert not mapping_keys & set(certificate)
        else:
            assert mapping_keys <= set(certificate)
            assert certificate["mapping_consistent"] is True
