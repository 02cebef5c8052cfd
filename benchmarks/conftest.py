"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures (or an ablation)
and *prints* the regenerated rows — run with ``pytest benchmarks/
--benchmark-only -s`` to see them; ``report`` also appends to
``benchmarks/results.txt`` so a plain ``--benchmark-only`` run leaves the
artifacts on disk for EXPERIMENTS.md.

Benches may pass structured ``data`` alongside the text block; everything
collected in a session is written to ``BENCH_profile.json`` at the repo
root, each record stamped with where it was measured (git sha, Python
version, CPU count, platform).  Every session is also appended as one line
to ``BENCH_history.jsonl``, so the perf/profile trajectory accumulates
across commits instead of holding only the last session's subset.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess

import pytest

_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS = pathlib.Path(__file__).parent / "results.txt"
_PROFILE_JSON = _ROOT / "BENCH_profile.json"
_HISTORY_JSONL = _ROOT / "BENCH_history.jsonl"

_records: list[dict] = []


def pytest_configure(config):
    # start each benchmark session with fresh artifacts
    if _RESULTS.exists():
        _RESULTS.unlink()
    _records.clear()


def _provenance() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def pytest_sessionfinish(session, exitstatus):
    if not _records:
        return
    provenance = _provenance()
    records = [{**record, "provenance": provenance} for record in _records]
    with _PROFILE_JSON.open("w") as fh:
        json.dump({"records": records}, fh, indent=2)
        fh.write("\n")
    finished = datetime.datetime.now(datetime.timezone.utc)
    with _HISTORY_JSONL.open("a") as fh:
        fh.write(json.dumps({
            "finished": finished.isoformat(timespec="seconds"),
            **provenance,
            "records": _records,
        }) + "\n")


@pytest.fixture(scope="session")
def report():
    """Print a regenerated artifact and persist it to results.txt.

    ``data`` (optional) attaches a JSON-serializable payload that lands in
    ``BENCH_profile.json`` under the same title.
    """

    def _report(title: str, text: str, data=None) -> None:
        block = f"\n===== {title} =====\n{text}\n"
        print(block)
        with _RESULTS.open("a") as fh:
            fh.write(block)
        if data is not None:
            _records.append({"title": title, "data": data})

    return _report
