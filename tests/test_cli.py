"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestPlan:
    def test_basic(self, capsys):
        out = run_cli(
            capsys, "plan", "--shape", "102,102,102", "-p", "50"
        )
        assert "5x10x10" in out
        assert "generalized" in out
        assert "moduli" in out

    def test_x_separator(self, capsys):
        out = run_cli(capsys, "plan", "--shape", "64x64x64", "-p", "16")
        assert "4x4x4" in out

    def test_objective_flag(self, capsys):
        out = run_cli(
            capsys,
            "plan", "--shape", "128,128,16", "-p", "4",
            "--objective", "volume",
        )
        assert "4x4x1" in out or "tile grid" in out

    def test_bad_shape_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "--shape", "0,4", "-p", "2"])
        with pytest.raises(SystemExit):
            main(["plan", "--shape", "abc", "-p", "2"])


class TestMap:
    def test_3d(self, capsys):
        out = run_cli(capsys, "map", "--gammas", "4,4,2", "-p", "8")
        assert "layer" in out

    def test_4d_prints_raw(self, capsys):
        out = run_cli(capsys, "map", "--gammas", "2,2,2,2", "-p", "4")
        assert "[" in out


class TestList:
    def test_p8(self, capsys):
        out = run_cli(capsys, "list", "-p", "8")
        assert "8x8x1" in out
        assert "4x4x2" in out

    def test_p30_d3(self, capsys):
        out = run_cli(capsys, "list", "-p", "30", "-d", "3")
        assert "15x10x6" in out


class TestTables:
    def test_table1(self, capsys):
        out = run_cli(capsys, "table1", "--class", "B")
        assert "5x10x10" in out
        assert "# CPUs" in out

    def test_table1_skeleton_mode(self, capsys):
        out = run_cli(capsys, "table1", "--class", "A", "--max-p", "9")
        assert "skeleton" in out  # title reflects the mode
        assert "# CPUs" in out
        # --max-p trims the processor-count rows
        assert "3x3x3" in out and "4x4x4" not in out
        # p=1 skeleton speedup normalizes to exactly 1.00 (hand column)
        assert "1.00" in out

    def test_figure1(self, capsys):
        out = run_cli(capsys, "figure1")
        assert "layer k=0" in out

    def test_table1_has_no_mode_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--mode", "modeled"])
        assert exc.value.code == 2

    def test_drop(self, capsys):
        out = run_cli(capsys, "drop", "-p", "50")
        assert "p'=49" in out

    def test_drop_without_a_valid_tiling_fails_cleanly(self, capsys):
        # every count in [81, 81] needs a 9x9x9 tiling of an 8^3 array
        assert main(["drop", "--shape", "8,8,8", "-p", "81"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "drop: no processor count in [81, 81] tiles the 8x8x8 array\n"
        )

    def test_count(self, capsys):
        out = run_cli(capsys, "count", "--limit", "250")
        assert "#elementary" in out
        assert "210" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_cached_parser_matches_fresh_processes(self, capsys):
        """``main`` reuses one parser per process; calls with different
        subcommands (and a default after an explicit flag) print exactly
        what a fresh ``python -m repro`` prints."""
        calls = [
            ["plan", "--shape", "128,128,16", "-p", "4",
             "--objective", "volume"],
            ["list", "-p", "8"],
            ["plan", "--shape", "128,128,16", "-p", "4"],
        ]
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "repro", *argv], env=env,
                capture_output=True, text=True, check=True,
            ).stdout
            for argv in calls
        ]
        in_process = [run_cli(capsys, *argv) for argv in calls]
        assert build_parser() is build_parser()
        assert in_process == fresh
        assert fresh[0] != fresh[2]


class TestExtensionCommands:
    def test_bt(self, capsys):
        out = run_cli(capsys, "bt", "--class", "B")
        assert "speedup" in out
        assert "7x7x7" in out

    def test_locality(self, capsys):
        out = run_cli(
            capsys, "locality", "--gammas", "4,4,2", "-p", "8",
            "--topology", "ring",
        )
        assert "mean" in out and "hops" in out
        assert "best variant" in out

    def test_locality_hypercube(self, capsys):
        out = run_cli(
            capsys, "locality", "--gammas", "4,4,4", "-p", "16",
            "--topology", "hypercube",
        )
        assert "hypercube" in out

    def test_sensitivity(self, capsys):
        out = run_cli(
            capsys,
            "sensitivity", "--shape", "128,128,8", "-p", "4",
            "--parameter", "k2", "--values", "0,1e-2",
        )
        assert "optimal gammas" in out
        assert "2x2x2" in out

    def test_simulate(self, capsys):
        out = run_cli(
            capsys, "simulate", "--shape", "12,12,12", "-p", "4",
            "--width", "32",
        )
        assert "rank   0" in out
        assert "per-op time breakdown" in out
        assert "max error" in out

    def test_profile_text(self, capsys):
        out = run_cli(
            capsys, "profile", "--shape", "12,12,12", "-p", "4",
        )
        assert "per-rank activity" in out
        assert "per-phase profile" in out
        assert "critical path" in out
        assert "x_solve" in out

    def test_profile_json(self, capsys):
        import json

        out = run_cli(
            capsys, "profile", "--shape", "12,12,12", "-p", "4", "--json",
        )
        doc = json.loads(out)
        assert doc["app"] == "sp"
        assert doc["nprocs"] == 4
        assert doc["total_messages"] > 0
        assert doc["critical_path"]["length"] <= doc["makespan"] + 1e-12

    def test_profile_artifacts(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        run_cli(
            capsys, "profile", "--shape", "12,12,12", "-p", "4",
            "--app", "adi", "--chrome", str(chrome), "--jsonl", str(jsonl),
        )
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        from repro.obs import read_jsonl

        events, clocks = read_jsonl(jsonl)
        assert events and clocks is not None

    def test_diagnose(self, capsys, tmp_path):
        import numpy as np

        from repro.core.diagonal import diagonal_3d

        good = tmp_path / "good.npy"
        np.save(good, diagonal_3d(16))
        out = run_cli(capsys, "diagnose", str(good), "-p", "16")
        assert "valid multipartitioning" in out

        bad = tmp_path / "bad.npy"
        np.save(bad, np.zeros((2, 2), dtype=np.int64))
        out = run_cli(capsys, "diagnose", str(bad), "-p", "2")
        assert "NOT a multipartitioning" in out


class TestSweep:
    GRID_ARGS = (
        "sweep", "--shapes", "8x8x8", "--nprocs", "1,2,4",
        "--apps", "sp,adi", "--mode", "plan",
    )

    def test_inline_flags_text_output(self, capsys, tmp_path):
        out = run_cli(
            capsys, *self.GRID_ARGS, "--cache-dir", str(tmp_path / "c")
        )
        assert "6 specs" in out
        assert "miss" in out
        assert "hit rate" in out

    def test_second_invocation_all_hits(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        run_cli(capsys, *self.GRID_ARGS, "--cache-dir", cache)
        out = run_cli(capsys, *self.GRID_ARGS, "--cache-dir", cache)
        assert "6 hits, 0 misses (100% hit rate)" in out

    def test_no_cache_bypasses(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        run_cli(capsys, *self.GRID_ARGS, "--cache-dir", cache)
        out = run_cli(
            capsys, *self.GRID_ARGS, "--cache-dir", cache, "--no-cache"
        )
        assert "0 hits, 6 misses" in out

    def test_json_output_is_deterministic_across_jobs(self, capsys):
        import json

        args = (
            "sweep", "--shapes", "8x8x8", "--nprocs", "1,2,4",
            "--mode", "simulated", "--no-cache", "--json",
        )
        doc1 = json.loads(run_cli(capsys, *args, "--jobs", "1"))
        doc2 = json.loads(run_cli(capsys, *args, "--jobs", "2"))
        assert doc1["schema"] == "repro.sweep-result.v3"
        assert json.dumps(doc1["results"]) == json.dumps(doc2["results"])
        assert doc1["stats"]["metrics"]["counters"]["sweep.specs"][
            "total"
        ] == 3

    def test_skeleton_mode_matches_simulated_timing(self, capsys):
        import json

        def doc(mode):
            return json.loads(run_cli(
                capsys, "sweep", "--shapes", "8x8x8", "--nprocs", "2,4",
                "--mode", mode, "--no-cache", "--json",
            ))

        skel, sim = doc("skeleton"), doc("simulated")
        assert skel["schema"] == "repro.sweep-result.v3"
        for s, m in zip(skel["results"], sim["results"]):
            assert s["summary"] == m["summary"]
            assert s["speedup"] == m["speedup"]
            assert "max_abs_error" not in s

    def test_grid_file(self, capsys, tmp_path):
        import json

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "mode": "plan",
            "shapes": [[8, 8, 8]],
            "nprocs": [2, 4],
        }))
        out = run_cli(
            capsys, "sweep", "--grid", str(grid),
            "--cache-dir", str(tmp_path / "c"),
        )
        assert "2 specs" in out

    def test_errors_surface_with_exit_code(self, capsys, tmp_path):
        import json

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "mode": "plan",
            "shapes": [[8, 8, 8]],
            "nprocs": [4, 6],
            "partitioners": ["diagonal"],
        }))
        assert main([
            "sweep", "--grid", str(grid), "--no-cache",
        ]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out

    def test_requires_grid_or_flags(self, capsys):
        assert main(["sweep"]) == 2

    def test_modeled_mode_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--shapes", "8x8x8", "--nprocs", "2",
                "--mode", "modeled", "--no-cache",
            ])
        assert exc.value.code == 2
        assert "invalid choice: 'modeled'" in capsys.readouterr().err


class TestFaultCommands:
    def test_sweep_fault_drops_axis(self, capsys):
        import json

        out = json.loads(run_cli(
            capsys, "sweep", "--shapes", "8x8x8", "--nprocs", "2,4",
            "--mode", "skeleton", "--fault-drops", "0,0.1",
            "--no-cache", "--json",
        ))
        assert len(out["results"]) == 4
        faulty = out["results"][2:]
        assert all(r["fault_plan"]["drop_rate"] == 0.1 for r in faulty)
        assert all(
            r["summary"]["faults"]["dropped"] > 0 for r in faulty
        )

    def test_sweep_faults_json_axis(self, capsys):
        import json

        out = json.loads(run_cli(
            capsys, "sweep", "--shapes", "8x8x8", "--nprocs", "2",
            "--mode", "skeleton",
            "--faults", '[{"straggler_rate": 1.0, "straggler_factor": 2.0}]',
            "--no-cache", "--json",
        ))
        (result,) = out["results"]
        assert result["fault_plan"]["straggler_factor"] == 2.0

    def test_sweep_faults_reject_plan_mode(self, capsys):
        assert main([
            "sweep", "--shapes", "8x8x8", "--nprocs", "2",
            "--mode", "plan", "--fault-drops", "0.1", "--no-cache",
        ]) == 2
        assert "simulated or skeleton" in capsys.readouterr().err

    def test_chaos_text_report(self, capsys):
        out = run_cli(
            capsys, "chaos", "--app", "sp", "--shape", "8,8,8",
            "-p", "4", "--drops", "0,0.1", "--ranking-p", "2,4",
        )
        assert "degradation: sp 8x8x8" in out
        assert "straggler shift" in out
        assert "resilience ranking" in out

    def test_chaos_json_schema(self, capsys):
        import json

        doc = json.loads(run_cli(
            capsys, "chaos", "--app", "sp", "--shape", "8,8,8",
            "-p", "4", "--drops", "0,0.05", "--json",
        ))
        assert doc["schema"] == "repro.chaos-report.v1"
        assert doc["curve"]["points"][0]["slowdown"] == 1.0

    def test_chaos_is_seed_deterministic(self, capsys):
        args = (
            "chaos", "--app", "sp", "--shape", "8,8,8", "-p", "4",
            "--drops", "0.1", "--seed", "5", "--json",
        )
        assert run_cli(capsys, *args) == run_cli(capsys, *args)

    def test_check_protocol_flag(self, capsys):
        out = run_cli(
            capsys, "check", "--app", "sp", "--shape", "8,8,8",
            "-p", "4", "--protocol",
        )
        assert "protocol ok" in out

    def test_simulate_seed_changes_field_not_timing(self, capsys):
        base = run_cli(
            capsys, "simulate", "--shape", "8,8,8", "-p", "2",
            "--seed", "1",
        )
        again = run_cli(
            capsys, "simulate", "--shape", "8,8,8", "-p", "2",
            "--seed", "1",
        )
        assert base == again
        assert "verified vs sequential" in base

    def test_locality_new_topologies(self, capsys):
        for topo in ("torus3d", "fattree"):
            out = run_cli(
                capsys, "locality", "--gammas", "2,4,4", "-p", "8",
                "--topology", topo,
            )
            assert topo in out
