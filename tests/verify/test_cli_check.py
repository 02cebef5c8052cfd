"""The ``repro check`` CLI and ``sweep --verify`` wiring."""

import json

import pytest

from repro.cli import main


class TestCheckCommand:
    def test_clean_config_exits_zero(self, capsys):
        code = main(["check", "--app", "sp", "--shape", "8x8x8", "-p", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("VERIFIED")
        for name in ("matching", "deadlock", "races", "invariants"):
            assert name in out

    def test_json_document(self, capsys):
        code = main(
            ["check", "--app", "bt", "--shape", "8,8,8", "-p", "9", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.verify-report.v1"
        assert doc["ok"] is True
        assert doc["config"]["app"] == "bt"
        assert doc["config"]["gammas"] == [3, 3, 3, 1]

    def test_no_aggregate_and_steps(self, capsys):
        code = main(
            ["check", "--app", "adi", "--shape", "8x8x8", "-p", "6",
             "--no-aggregate", "--steps", "2"]
        )
        assert code == 0

    def test_failing_config_exits_one(self, capsys):
        code = main(
            ["check", "--app", "adi", "--shape", "8x8x8", "-p", "7",
             "--partitioner", "diagonal"]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().out


    @pytest.mark.parametrize("argv", [
        ["--app", "sp", "--shape", "102x102x102", "-p", "997"],
        ["--shape", "8x8x8", "-p", "81"],
    ])
    def test_untileable_config_is_a_violation(self, capsys, argv):
        """The plan cuts an axis into more tiles than it has points: an
        invariants violation with a valid report, not a traceback."""
        code = main(["check", *argv, "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        (violation,) = doc["analyses"]["invariants"]["violations"]
        assert violation["kind"] == "unplannable"
        assert "non-empty tiles" in violation["message"]


class TestSweepVerifyFlag:
    def test_sweep_verify_runs_clean(self, capsys, tmp_path):
        code = main(
            ["sweep", "--shapes", "8x8x8", "--nprocs", "2,4",
             "--apps", "sp", "--mode", "plan", "--verify",
             "--cache-dir", str(tmp_path / "cache"), "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["results"]) == 2
        assert all("error" not in r for r in doc["results"])
