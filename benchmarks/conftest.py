"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures (or an ablation)
and *prints* the regenerated rows — run with ``pytest benchmarks/
--benchmark-only -s`` to see them; ``report`` also writes them to
``benchmarks/results.txt`` at the session's end, so a plain
``--benchmark-only`` run leaves the artifacts on disk for EXPERIMENTS.md.

Benches may pass structured ``data`` alongside the text block; it lands
in ``BENCH_profile.json`` at the repo root, each record stamped with where
it was measured (git sha, Python version, CPU count, platform) and the
bench module that made it.  A session that runs only some benches replaces
only their blocks and records (:func:`merge_entries`), so the committed
artifacts keep every other bench's last result.  Every session is also
appended as one line to ``BENCH_history.jsonl``, so the perf/profile
trajectory accumulates across commits.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import re
import subprocess

import pytest

_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS = pathlib.Path(__file__).parent / "results.txt"
_PROFILE_JSON = _ROOT / "BENCH_profile.json"
_HISTORY_JSONL = _ROOT / "BENCH_history.jsonl"

#: a results.txt block header: its title and the bench module that made it
#: (absent from blocks written before modules were recorded)
_BLOCK = re.compile(r"^===== (.*) =====(?: \[(\w+)\])?$", re.MULTILINE)

#: this session's records and results.txt blocks, each with its "module"
_records: list[dict] = []
_blocks: list[dict] = []


def merge_entries(old: list[dict], new: list[dict]) -> list[dict]:
    """``old`` with every entry of a bench module that ran replaced by
    ``new``.  An old entry belongs to a module that ran when its
    ``"module"`` is one of ``new``'s, or, lacking one, when its
    ``"title"`` is.  The first replaced entry's place takes the new
    entries, the rest are appended: entries keep their order."""
    ran = {entry["module"] for entry in new}
    owner = {entry["title"]: entry["module"] for entry in new}
    merged: list[dict] = []
    placed: set = set()
    for entry in old:
        module = entry.get("module") or owner.get(entry["title"])
        if module not in ran:
            merged.append(entry)
        elif module not in placed:
            placed.add(module)
            merged += [e for e in new if e["module"] == module]
    return merged + [e for e in new if e["module"] not in placed]


def _read_blocks(text: str) -> list[dict]:
    """The ``===== title ===== [module]`` blocks of results.txt, in
    order."""
    heads = list(_BLOCK.finditer(text))
    # a block's text runs to the newline that opens the next block
    ends = [head.start() - 1 for head in heads[1:]] + [len(text)]
    return [
        {"title": head.group(1), "text": text[head.end() + 1:end]}
        | ({"module": head.group(2)} if head.group(2) else {})
        for head, end in zip(heads, ends)
    ]


def _write_block(block: dict) -> str:
    """One results.txt block, its header naming the module that made it
    (so that a retitled bench replaces its old block)."""
    module = f" [{block['module']}]" if block.get("module") else ""
    return f"\n===== {block['title']} ====={module}\n{block['text']}"


def pytest_configure(config):
    _records.clear()
    _blocks.clear()


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
    if _blocks:
        old = _read_blocks(_RESULTS.read_text()) if _RESULTS.exists() else []
        _RESULTS.write_text("".join(
            map(_write_block, merge_entries(old, _blocks))
        ))
    if not _records:
        return
    provenance = _provenance()
    records = [{**record, "provenance": provenance} for record in _records]
    old = []
    if _PROFILE_JSON.exists():
        old = json.loads(_PROFILE_JSON.read_text())["records"]
    with _PROFILE_JSON.open("w") as fh:
        json.dump({"records": merge_entries(old, records)}, fh, indent=2)
        fh.write("\n")
    finished = datetime.datetime.now(datetime.timezone.utc)
    with _HISTORY_JSONL.open("a") as fh:
        fh.write(json.dumps({
            "finished": finished.isoformat(timespec="seconds"),
            **provenance,
            "records": _records,
        }) + "\n")


@pytest.fixture
def report(request):
    """Print a regenerated artifact; the session's end merges it into
    results.txt.

    ``data`` (optional) attaches a JSON-serializable payload that lands in
    ``BENCH_profile.json`` under the same title.
    """
    module = request.module.__name__.rpartition(".")[2]

    def _report(title: str, text: str, data=None) -> None:
        print(f"\n===== {title} =====\n{text}\n")
        _blocks.append({"title": title, "text": f"{text}\n", "module": module})
        if data is not None:
            _records.append({"title": title, "data": data, "module": module})

    return _report
