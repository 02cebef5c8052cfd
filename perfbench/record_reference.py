"""Re-record ``reference.json``: the SHA-256 of every result document any
seed of any workload can ask for.

Run from the repository root::

    python3 perfbench/record_reference.py

Only re-record when a change is *meant* to alter result documents; the
benchmark counts every document that differs from this file as a failure.
A document is recorded only if it passes every other oracle check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

from oracle import (  # noqa: E402
    REFERENCE_PATH,
    Oracle,
    digest,
    independent_problems,
)
from workloads import (  # noqa: E402
    CHECK_APPS,
    CHECK_COUNTS,
    CLASS_B,
    CLASS_C,
    PLAN_ANCHORS,
    PLAN_DRAW_RANGE,
    TABLE1_COUNTS,
)


def _call(argv):
    from repro.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def main() -> int:
    lo, hi = PLAN_DRAW_RANGE
    plan_counts = list(PLAN_ANCHORS) + list(range(lo, hi + 1))
    with tempfile.TemporaryDirectory(dir=HERE) as cache:
        argvs = [
            ["sweep", "--mode", "skeleton", "--shapes", CLASS_B,
             "--nprocs", ",".join(map(str, TABLE1_COUNTS)),
             "--jobs", "1", "--json", "--cache-dir", cache],
            ["sweep", "--mode", "plan", "--no-cache",
             "--shapes", f"{CLASS_B},{CLASS_C}",
             "--nprocs", ",".join(map(str, plan_counts)),
             "--jobs", "1", "--json"],
        ] + [
            ["check", "--app", app, "--shape", CLASS_B, "-p", str(p),
             "--json"]
            for app in CHECK_APPS
            for p in CHECK_COUNTS
        ]
        unchecked = Oracle({})
        reference = {}
        for argv in argvs:
            rc, out = _call(argv)
            problems, documents = unchecked.check_call(argv, rc, out)
            for key, data in documents:
                other = independent_problems(problems[key])
                if other:
                    print(f"{key}: {other}", file=sys.stderr)
                    return 1
                reference[key] = digest(data)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} documents to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
