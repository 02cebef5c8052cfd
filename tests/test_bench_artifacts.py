"""The benchmark session merges into the committed artifacts.

A session that runs some benches replaces only their blocks in
``benchmarks/results.txt`` and their records in ``BENCH_profile.json``,
and appends one line to ``BENCH_history.jsonl``.
"""

import importlib.util
import json
import pathlib

import pytest

_CONFTEST = pathlib.Path(__file__).parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture
def harness(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_harness", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_RESULTS", tmp_path / "results.txt")
    monkeypatch.setattr(module, "_PROFILE_JSON", tmp_path / "profile.json")
    monkeypatch.setattr(module, "_HISTORY_JSONL", tmp_path / "history.jsonl")
    monkeypatch.setattr(module, "_provenance", lambda: {"git_sha": "new"})
    return module


def _entry(title, module=None, **extra):
    entry = {"title": title, **extra}
    if module is not None:
        entry["module"] = module
    return entry


class TestMergeEntries:
    def test_replaces_only_the_modules_that_ran(self, harness):
        old = [
            _entry("a1", "bench_a", v=0), _entry("b", "bench_b", v=0),
            _entry("a2", "bench_a", v=0), _entry("c", "bench_c", v=0),
        ]
        new = [_entry("a3", "bench_a", v=1), _entry("c", "bench_c", v=1)]
        assert harness.merge_entries(old, new) == [
            _entry("a3", "bench_a", v=1), _entry("b", "bench_b", v=0),
            _entry("c", "bench_c", v=1),
        ]

    def test_old_entries_without_module_match_by_title(self, harness):
        old = [_entry("x", v=0), _entry("y", v=0), _entry("z", v=0)]
        new = [_entry("y", "bench_y", v=1), _entry("w", "bench_w", v=1)]
        assert harness.merge_entries(old, new) == [
            _entry("x", v=0), _entry("y", "bench_y", v=1), _entry("z", v=0),
            _entry("w", "bench_w", v=1),
        ]

    def test_empty_sides(self, harness):
        entries = [_entry("a", "bench_a")]
        assert harness.merge_entries([], entries) == entries
        assert harness.merge_entries(entries, []) == entries

    def test_results_blocks_round_trip(self, harness):
        text = (
            "\n===== A =====\nrow 1\nrow 2\n"
            "\n===== B (x) ===== [bench_b]\nrow\n"
        )
        blocks = harness._read_blocks(text)
        assert [b["title"] for b in blocks] == ["A", "B (x)"]
        assert [b.get("module") for b in blocks] == [None, "bench_b"]
        assert "".join(map(harness._write_block, blocks)) == text


def test_partial_session_keeps_other_benches(harness):
    harness._RESULTS.write_text(
        "\n===== kept =====\nold kept\n\n===== redone =====\nold redone\n"
    )
    harness._PROFILE_JSON.write_text(json.dumps({"records": [
        {"title": "kept", "data": 0, "module": "bench_k",
         "provenance": {"git_sha": "old"}},
        {"title": "redone", "data": 0, "provenance": {"git_sha": "old"}},
    ]}))
    harness._blocks.append(
        {"title": "redone", "text": "new redone\n", "module": "bench_r"}
    )
    harness._records.append({"title": "redone", "data": 1, "module": "bench_r"})
    harness.pytest_sessionfinish(None, 0)
    assert harness._RESULTS.read_text() == (
        "\n===== kept =====\nold kept\n"
        "\n===== redone ===== [bench_r]\nnew redone\n"
    )
    records = json.loads(harness._PROFILE_JSON.read_text())["records"]
    assert [(r["title"], r["data"], r["provenance"]["git_sha"])
            for r in records] == [("kept", 0, "old"), ("redone", 1, "new")]
    history = harness._HISTORY_JSONL.read_text().splitlines()
    assert len(history) == 1
    assert json.loads(history[0])["records"] == [
        {"title": "redone", "data": 1, "module": "bench_r"}
    ]


def test_retitled_bench_replaces_its_old_block(harness):
    """results.txt names each block's module, so a bench whose title
    changed replaces its old block instead of leaving it behind."""
    harness._RESULTS.write_text(
        "\n===== old title ===== [bench_r]\nold\n"
        "\n===== kept ===== [bench_k]\nkept\n"
    )
    harness._blocks.append(
        {"title": "new title", "text": "new\n", "module": "bench_r"}
    )
    harness.pytest_sessionfinish(None, 0)
    assert harness._RESULTS.read_text() == (
        "\n===== new title ===== [bench_r]\nnew\n"
        "\n===== kept ===== [bench_k]\nkept\n"
    )


def test_session_without_reports_touches_nothing(harness):
    harness.pytest_sessionfinish(None, 0)
    assert not harness._RESULTS.exists()
    assert not harness._PROFILE_JSON.exists()
    assert not harness._HISTORY_JSONL.exists()
