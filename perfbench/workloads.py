"""Workload recipes: the argv lists each workload feeds to ``repro.cli.main``.

A workload is a list of *rounds*; a round is one pass over the workload's
argv list.  The benchmark always measures whole rounds, so the multiset of
calls in a run does not depend on the seed; the seed only fixes the order of
the calls and, for ``plan-scale``, which small ``p`` join the fixed anchors.
The program never sees the seed: it only receives the generated argv.
"""

from __future__ import annotations

import random

#: the 18 processor counts of the paper's Table 1 with p <= 64
TABLE1_COUNTS = (
    1, 2, 4, 6, 8, 9, 12, 16, 18, 20, 24, 25, 32, 36, 45, 49, 50, 64,
)
CLASS_B = "102x102x102"
CLASS_C = "162x162x162"
CHECK_APPS = ("sp", "bt", "adi")
CHECK_COUNTS = tuple(p for p in TABLE1_COUNTS if p >= 16)
#: large-p anchors of plan-scale: two composites and the prime 997, whose
#: p**2 tiles make planning cost ~10x that of its composite neighbours
PLAN_ANCHORS = (960, 997, 1000)
#: range of the seeded plan-scale draws.  It stays small so that one seed's
#: draw cannot outweigh the anchors: a seeded prime near 1024 would cost as
#: much as the whole anchor set and make the call time a lottery on the seed.
PLAN_DRAW_RANGE = (65, 256)

WORKLOADS = ("table1-cold", "table1-warm", "check-b", "plan-scale")


def is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))


def table1_argv(seed: int, cache_dir: str) -> list[str]:
    counts = list(TABLE1_COUNTS)
    random.Random(seed).shuffle(counts)
    return [
        "sweep", "--mode", "skeleton", "--shapes", CLASS_B,
        "--nprocs", ",".join(map(str, counts)),
        "--jobs", "1", "--json", "--cache-dir", cache_dir,
    ]


def check_argvs(rng: random.Random) -> list[list[str]]:
    pairs = [(app, p) for app in CHECK_APPS for p in CHECK_COUNTS]
    rng.shuffle(pairs)
    return [
        ["check", "--app", app, "--shape", CLASS_B, "-p", str(p), "--json"]
        for app, p in pairs
    ]


def plan_draw(seed: int) -> list[int]:
    """The seeded part of plan-scale: one prime and one composite."""
    rng = random.Random(seed)
    lo, hi = PLAN_DRAW_RANGE
    primes = [n for n in range(lo, hi + 1) if is_prime(n)]
    composites = [n for n in range(lo, hi + 1) if not is_prime(n)]
    return [rng.choice(primes), rng.choice(composites)]


def plan_argv(seed: int) -> list[str]:
    counts = list(PLAN_ANCHORS) + plan_draw(seed)
    random.Random(seed).shuffle(counts)
    return [
        "sweep", "--mode", "plan", "--no-cache",
        "--shapes", f"{CLASS_B},{CLASS_C}",
        "--nprocs", ",".join(map(str, counts)),
        "--jobs", "1", "--json",
    ]


class Rounds:
    """Deterministic stream of rounds for one (workload, seed).

    ``cache_dir(n)`` names the cache directory of round ``n`` for the
    table1 workloads: a fresh one per round for ``table1-cold``, the
    set-up-filled one for ``table1-warm``.
    """

    def __init__(self, workload: str, seed: int, cache_dir):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.cache_dir = cache_dir
        self._rng = random.Random(seed)

    def next_round(self, n: int) -> list[list[str]]:
        if self.workload in ("table1-cold", "table1-warm"):
            return [table1_argv(self.seed, str(self.cache_dir(n)))]
        if self.workload == "check-b":
            return check_argvs(self._rng)
        return [plan_argv(self.seed)]

    def probe_argvs(self, cache_dir: str) -> list[list[str]]:
        """Cheap calls that load every module the workload's command loads
        on first use (the module set does not depend on p)."""
        if self.workload in ("table1-cold", "table1-warm"):
            return [[
                "sweep", "--mode", "skeleton", "--shapes", CLASS_B,
                "--nprocs", "4", "--jobs", "1", "--json",
                "--cache-dir", cache_dir,
            ]] * 2  # second call replays from the cache
        if self.workload == "check-b":
            return [
                ["check", "--app", app, "--shape", CLASS_B, "-p", "16",
                 "--json"]
                for app in CHECK_APPS
            ]
        return [[
            "sweep", "--mode", "plan", "--no-cache",
            "--shapes", f"{CLASS_B},{CLASS_C}", "--nprocs", "67",
            "--jobs", "1", "--json",
        ]]
