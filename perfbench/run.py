"""Repository benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 10 --trace 0

A single client calls the public CLI entry ``repro.cli.main(argv)`` in a
closed loop (``--jobs 1``, no threads), in whole rounds, until ``--seconds``
have passed.  Every call's output is checked by :mod:`oracle`.

``--trace 0`` reports the end-to-end metrics:

* ``call_norm``   median over calls of the call's wall seconds divided by
                  the wall seconds of a fixed reference quantum timed just
                  before and after it (:func:`reference_quantum`); the raw
                  seconds are in the history record;
* ``setup_s``     median wall time of a fresh interpreter importing
                  ``repro.cli`` plus every module the workload's command loads
                  on first use, plus the workload's preparation (filling the
                  cache for ``table1-warm``);
* ``peak_rss_mb`` peak resident memory of this process.

``--trace 1`` makes the same calls, drives each one layer by layer
(:mod:`layers`) right after it, and reports the per-layer metrics.  Spans
are written to ``perfbench/out/`` at the end; every run appends one line to
``perfbench/out/history.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

import layers  # noqa: E402
import oracle as oracle_mod  # noqa: E402
from workloads import WORKLOADS, Rounds  # noqa: E402

SETUP_REPS = 9
IMPORTTIME_REPS = 3
#: seconds of calls between two timings of the reference quantum
REF_SLICE_S = 1.0

#: fresh-interpreter set-up: import repro.cli and the listed modules, then
#: run the optional preparation argv (sys.argv[2:])
SETUP_CODE = """
import sys
import repro.cli
for name in sys.argv[1].split(","):
    try:
        __import__(name)
    except Exception:
        pass
if len(sys.argv) > 2:
    import contextlib, io
    with contextlib.redirect_stdout(io.StringIO()):
        sys.exit(repro.cli.main(sys.argv[2:]))
"""

#: lists the modules the given calls load beyond a bare interpreter
PROBE_CODE = """
import sys
before = set(sys.modules)
import contextlib, io, json
import repro.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        repro.cli.main(argv)
print(",".join(m for m in sys.modules if m not in before))
"""


def _ref_process(n: int):
    yield from range(n)


def reference_quantum() -> int:
    """Fixed work that never changes with the program: a generator-driven
    event loop on a heap, a dict loop, JSON round trips and numpy sorts,
    the kinds of work the workloads do.  The host this runs on changes
    speed by up to 2x for minutes at a time; this quantum slows down with
    it, so a call time divided by it stays steady.  Its live data stays
    small, so it never sets the run's peak memory."""
    import heapq

    import numpy as np

    heap = []
    procs = [_ref_process(300) for _ in range(40)]
    for rank in range(len(procs)):
        heapq.heappush(heap, (0.0, rank))
    acc = 0
    while heap:
        clock, rank = heapq.heappop(heap)
        value = next(procs[rank], None)
        if value is not None:
            acc += value
            heapq.heappush(heap, (clock + 1e-6 * (value % 7 + 1), rank))
    counts: dict[int, int] = {}
    for i in range(60000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
        acc += len((i, key, acc & 7))
    for shift in range(4):
        text = json.dumps({str(i): [i, 3 * i + shift] for i in range(1000)},
                          sort_keys=True)
        acc += len(json.loads(text))
    for shift in range(8):
        keys = (np.arange(50000, dtype=np.int64) * 7 + shift) % 101
        acc += int(np.argsort(keys, kind="stable")[:10].sum())
    return acc


def reference_seconds() -> float:
    """Median wall time of three reference quanta."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        reference_quantum()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _subprocess_env(src: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def _python(args, env) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up subprocess failed ({proc.returncode}): {proc.stderr[-2000:]}"
        )
    return elapsed, proc


def _importtime_ms(stderr: str) -> tuple[float, float]:
    """(all imports after interpreter start-up, numpy) from -X importtime,
    in ms."""
    total = numpy = 0.0
    after_site = False
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # header line
        raw = parts[2][1:]
        name = raw.strip()
        level = (len(raw) - len(raw.lstrip())) // 2
        if name == "numpy" and not numpy:
            numpy = cumulative / 1e3
        if after_site and level == 0:
            total += cumulative / 1e3
        if name == "site" and level == 0:
            after_site = True
    return total, numpy


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 src: Path, work: Path):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.env = _subprocess_env(src)
        self.warm_cache = work / "warm-cache"
        self.rounds = Rounds(workload, seed, self._cache_dir)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.call_s: list[float] = []
        self.call_norm: list[float] = []
        self.ref_s: list[float] = []
        self.details: dict = {}

    def _cache_dir(self, n: int) -> Path:
        if self.workload == "table1-warm":
            return self.warm_cache
        return self.work / f"cold-{n}"

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Probe the module set, then time fresh-interpreter set-ups;
        returns the median set-up seconds."""
        _, probe = _python(
            ["-c", PROBE_CODE,
             json.dumps(self.rounds.probe_argvs(str(self.work / "probe")))],
            self.env,
        )
        self.modules = probe.stdout.strip().splitlines()[-1]
        samples = []
        reps = 1 if self.trace else SETUP_REPS
        for i in range(reps):
            prep = []
            if self.workload == "table1-warm":
                fill = self.work / f"fill-{i}"
                prep = self.rounds.next_round(0)[0][:-1] + [str(fill)]
            elapsed, _ = _python(["-c", SETUP_CODE, self.modules, *prep],
                                 self.env)
            samples.append(elapsed)
            if prep:
                shutil.rmtree(self.warm_cache, ignore_errors=True)
                fill.rename(self.warm_cache)
        self.details["setup_samples_s"] = samples
        return statistics.median(samples)

    def import_times(self) -> tuple[float, float]:
        runs = [
            _importtime_ms(
                _python(["-X", "importtime", "-c", SETUP_CODE, self.modules],
                        self.env)[1].stderr
            )
            for _ in range(IMPORTTIME_REPS)
        ]
        return (statistics.median(r[0] for r in runs),
                statistics.median(r[1] for r in runs))

    # -- calls ----------------------------------------------------------------

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        from repro.cli import main

        if self.workload == "table1-cold":
            shutil.rmtree(argv[-1], ignore_errors=True)
        gc.collect()
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed call, not a lost run
            rc = -1
            self.failures.append(f"{argv}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        return rc, buf.getvalue(), elapsed

    def judge(self, argv, rc, stdout) -> tuple[dict, list]:
        problems, documents = self.oracle.check_call(argv, rc, stdout)
        self.attempted += len(problems)
        for key, found in problems.items():
            if found:
                self.failed += 1
                self.failures.append(f"{key}: {'; '.join(found)}")
        return problems, documents

    def cleanup_call(self, argv) -> None:
        if self.workload == "table1-cold":
            shutil.rmtree(argv[-1], ignore_errors=True)

    def warm_up(self) -> None:
        """One cheap untimed, checked call; the oracle must flag every
        deliberately corrupted copy of it."""
        argv = self.rounds.probe_argvs(str(self._cache_dir(0)))[0]
        rc, stdout, _ = self.call(argv)
        self.judge(argv, rc, stdout)
        self.details["oracle_selftest"] = oracle_mod.selftest(
            self.oracle, argv, rc, stdout
        )
        self.cleanup_call(argv)

    # -- measurement ----------------------------------------------------------

    def measure(self) -> None:
        """Timed rounds.  About once a second the reference quantum is timed
        again; each call is divided by the mean of the reference timings
        that bracket it."""
        ref_before = reference_seconds()
        pending: list[float] = []

        def close_slice() -> float:
            ref_after = reference_seconds()
            ref = (ref_before + ref_after) / 2
            self.call_s.extend(pending)
            self.call_norm.extend(c / ref for c in pending)
            self.ref_s.append(ref_after)
            pending.clear()
            return ref_after

        deadline = time.perf_counter() + self.seconds
        slice_end = time.perf_counter() + REF_SLICE_S
        n = 0
        while True:
            n += 1
            for argv in self.rounds.next_round(n):
                rc, stdout, elapsed = self.call(argv)
                pending.append(elapsed)
                self.judge(argv, rc, stdout)
                self.cleanup_call(argv)
                if time.perf_counter() >= slice_end:
                    ref_before = close_slice()
                    slice_end = time.perf_counter() + REF_SLICE_S
            if time.perf_counter() >= deadline:
                break
        if pending:
            close_slice()
        self.details["rounds"] = n

    def measure_traced(self) -> tuple[dict, dict, list]:
        tracer = layers.Tracer()
        per_round: list[dict] = []
        layer_rounds: list[dict] = []
        deadline = time.perf_counter() + self.seconds
        n = 0
        while True:
            n += 1
            tracer.round = n
            untraced_s = 0.0
            result_bytes = 0
            start = len(tracer.spans)
            for argv in self.rounds.next_round(n):
                rc, stdout, elapsed = self.call(argv)
                untraced_s += elapsed
                _, documents = self.judge(argv, rc, stdout)
                result_bytes += sum(len(data) for _, data in documents)
                self.cleanup_call(argv)
                # drive the same call right after it, from the same heap
                # state, so that host drift and garbage hit both alike
                gc.collect()
                self.traced_call(tracer, argv, stdout)
            tracer.finish(start)
            metrics, layer_ms = layers.round_metrics(
                tracer.spans[start:], untraced_s, result_bytes
            )
            per_round.append(metrics)
            layer_rounds.append(layer_ms)
            if time.perf_counter() >= deadline:
                break
        self.details["rounds"] = n
        merged = {
            name: statistics.median(r[name] for r in per_round)
            for name in per_round[0]
        }
        layer_ms = {
            name: statistics.median(r[name] for r in layer_rounds)
            for name in layer_rounds[0]
        }
        return merged, layers.attribution(self.workload, layer_ms), tracer.spans

    def traced_call(self, tracer, argv, stdout) -> None:
        """Drive one call's specs through the layers and compare outcomes
        with the untraced output; a mismatch fails the spec."""
        from repro.runner import ExperimentSpec, ResultCache

        try:
            doc = json.loads(stdout)
        except ValueError:
            return  # already failed by the oracle
        if argv[0] == "check":
            app = argv[argv.index("--app") + 1]
            p = int(argv[argv.index("-p") + 1])
            shape = [int(s) for s in argv[argv.index("--shape") + 1].split("x")]
            got = layers.drive_check(tracer, app, shape, p)
            pairs = [(oracle_mod.check_key(app, "x".join(map(str, shape)), p),
                      got, layers.check_outcome(doc))]
        else:
            cache = None
            if "--cache-dir" in argv:
                cache_dir = Path(argv[argv.index("--cache-dir") + 1])
                if self.workload == "table1-cold":
                    cache_dir = cache_dir.with_name(cache_dir.name + "-traced")
                    shutil.rmtree(cache_dir, ignore_errors=True)
                cache = ResultCache(cache_dir)
            pairs = []
            for result in doc.get("results", []):
                spec = ExperimentSpec.from_dict(result["spec"])
                traced = layers.drive_sweep_spec(tracer, spec, cache)
                pairs.append((oracle_mod.result_key(result["spec"]),
                              layers.sweep_outcome(traced),
                              layers.sweep_outcome(result)))
            if self.workload == "table1-cold" and cache is not None:
                shutil.rmtree(cache.root, ignore_errors=True)
        for key, got, want in pairs:
            self.attempted += 1
            if got != want:
                self.failed += 1
                self.failures.append(f"{key}: traced outcome differs")

    # -- run ----------------------------------------------------------------------

    def run(self) -> dict:
        if self.trace:
            self.setup()
            import_ms, numpy_ms = self.import_times()
        else:
            setup_s = self.setup()
        self.oracle = oracle_mod.Oracle.load()
        self.warm_up()
        if self.trace:
            per_layer, attributed, spans = self.measure_traced()
            per_layer["cli.import_ms"] = import_ms
            per_layer["cli.import_numpy_ms"] = numpy_ms
            self.details["attribution"] = attributed
            self.spans = spans
            values = per_layer
        else:
            self.measure()
            values = {
                "call_norm": statistics.median(self.call_norm),
                "setup_s": setup_s,
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                ),
            }
            self.details["call_s"] = call_stats(self.call_s)
            self.details["call_norm"] = call_stats(self.call_norm)
            self.details["ref_s"] = call_stats(self.ref_s)
        return values


def call_stats(samples: list[float]) -> dict:
    """Sample count, median, and the highest of p90/p95/p99 with at least
    ten samples beyond it."""
    out = {"samples": len(samples), "median": statistics.median(samples)}
    ordered = sorted(samples)
    for q in (99, 95, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = ordered[int(len(samples) * q / 100)]
            break
    return out


def provenance(root: Path, src: Path, seed: int) -> dict:
    import hashlib
    from importlib import metadata

    sha = None
    if (root / ".git").exists():  # a plain source checkout has no sha
        try:
            sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        tree.update(str(path.relative_to(src)).encode() + b"\0")
        tree.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro source tree under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    units = metric_units()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"work-{args.workload}-"))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  src, work)
    try:
        values = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    selftest = bench.details["oracle_selftest"]
    correct = bench.failed == 0 and selftest["ok"]
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(root, src, args.seed),
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "fail_rate": bench.failed / bench.attempted,
        "metrics": metrics,
        "details": bench.details,
        "failures": bench.failures[:20],
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}-{stamp}.jsonl"
        with spans_path.open("w") as fh:
            for span in bench.spans:
                fh.write(json.dumps(span) + "\n")
        record["spans"] = str(spans_path.relative_to(HERE.parent))
    with (OUT / "history.jsonl").open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    report(record)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def report(record: dict) -> None:
    """Human-readable summary on stderr."""
    err = sys.stderr
    print(f"{record['workload']} seed {record['provenance']['seed']}: "
          f"{record['attempted']} specs, {record['failed']} failed "
          f"(fail_rate {record['fail_rate']:.4f}); oracle self-test "
          f"{record['details']['oracle_selftest']}", file=err)
    for failure in record["failures"]:
        print(f"  FAIL {failure}", file=err)
    if "call_s" in record["details"]:
        print(f"  call_s {record['details']['call_s']}", file=err)
    for name, metric in record["metrics"].items():
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}",
              file=err)
    attributed = record["details"].get("attribution")
    if attributed:
        print(f"  dominant layers {attributed['predicted']}: share "
              f"{attributed['predicted_share']:.1%} -> "
              f"{'matches' if attributed['matches_prediction'] else 'DOES NOT match'}"
              " the prediction", file=err)
        for name, share in sorted(attributed["shares"].items(),
                                  key=lambda kv: -kv[1]):
            print(f"    {name:20s} {attributed['layer_ms'][name]:10.2f} ms "
                  f"{share:6.1%}", file=err)


if __name__ == "__main__":
    raise SystemExit(main())
