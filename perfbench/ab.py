"""Interleaved A/B comparison of the working tree against a base ref.

Run from the repository root (a git checkout)::

    python3 perfbench/ab.py --base HEAD~1 --workloads table1-cold,check-b

The base ref is checked out into a ``git worktree`` under
``perfbench/out/``.  Both sides run *this* benchmark code (``run.py`` from
the working tree) against their own ``src/``, alternating A B, B A, A B ...
so that slow drift of the host hits both sides alike; the two runs of a pair
share one seed.  Every run lasts ``run_seconds`` from ``BENCHMARK.json``, the
length the bounds were measured at, and every workload gets ``PAIRS`` pairs.
For every workload and end-to-end metric the report gives each side's
median and quartiles and the share of pairs the change (A) won.  Ties count
for neither side.  No metric is divided by a constant.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: pairs per workload; pair i runs seed i + 1 on both sides
PAIRS = 10


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"benchmark failed in {root} ({proc.returncode}): "
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict) -> dict:
    """Per metric: quartiles of each side and the share of pairs A won."""
    out = {}
    for name, direction in better.items():
        a = [pa["metrics"][name]["value"] for pa, _ in pairs]
        b = [pb["metrics"][name]["value"] for _, pb in pairs]
        sign = 1 if direction == "lower" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (x - y) < 0)
        out[name] = {
            "a_quartiles": quartiles(a),
            "b_quartiles": quartiles(b),
            "a_won_share": wins / len(pairs),
            "pairs": len(pairs),
            "a_correct": all(pa["correct"] for pa, _ in pairs),
            "b_correct": all(pb["correct"] for _, pb in pairs),
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of side B")
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in spec["workloads"]),
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    sha = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--verify", args.base],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    OUT.mkdir(exist_ok=True)
    base = OUT / f"ab-base-{sha[:12]}"
    subprocess.run(
        ["git", "-C", str(root), "worktree", "add", "--detach", str(base),
         sha], check=True, capture_output=True,
    )
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {"base": args.base, "base_sha": sha, "workloads": {}}
    try:
        for workload in args.workloads.split(","):
            pairs = []
            for i in range(PAIRS):
                seed = i + 1
                order = [("a", root), ("b", base)]
                if i % 2:
                    order.reverse()
                got = {side: run_side(path, workload, seed,
                                      spec["run_seconds"])
                       for side, path in order}
                pairs.append((got["a"], got["b"]))
            report["workloads"][workload] = summarize(pairs, better)
    finally:
        subprocess.run(
            ["git", "-C", str(root), "worktree", "remove", "--force",
             str(base)], capture_output=True,
        )
    report["utc"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with (OUT / "history.jsonl").open("a") as fh:
        fh.write(json.dumps({"ab": report}, sort_keys=True) + "\n")
    for workload, metrics in report["workloads"].items():
        for name, m in metrics.items():
            qa, qb = m["a_quartiles"], m["b_quartiles"]
            print(f"{workload:12s} {name:12s} A {qa[1]:.6g} [{qa[0]:.6g}, "
                  f"{qa[2]:.6g}]  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"A won {m['a_won_share']:.0%} of {m['pairs']} pairs"
                  + ("" if m["a_correct"] and m["b_correct"]
                     else "  (a side had failed specs)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
