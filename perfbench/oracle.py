"""Output oracle: decides, spec by spec, whether a CLI call was correct.

A spec fails when the call exited non-zero, when its result carries an
``"error"``, or when any of these independent checks disagrees:

* **validity** — the plan's gammas satisfy the paper's condition: for every
  axis i, p divides the product of the other gammas (checked here, in plain
  Python, not by the program);
* **closed form** — a skeleton run's ``message_count`` / ``total_bytes`` and a
  check report's IR message / byte counts equal
  :func:`repro.analysis.counting.schedule_comm_totals`;
* **verdict** — every ``repro check`` report is VERIFIED;
* **reference** — every result document is byte-identical to the one
  recorded in ``reference.json`` (stored as SHA-256 of the bytes).

:func:`corrupted_variants` yields deliberately broken copies of a good call;
the benchmark reports ``correct: false`` unless the oracle flags every one of
them, and unless the checks other than the reference flag every one they can
see without it (:func:`selftest`).
"""

from __future__ import annotations

import copy
import hashlib
import json
from math import prod
from pathlib import Path
from types import SimpleNamespace

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def canonical_bytes(doc) -> bytes:
    """The result-cache encoding of one result document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gammas_valid(gammas, p: int) -> bool:
    """Paper's validity condition: p | prod_{j != i} gamma_j for every i."""
    return all(
        prod(g for j, g in enumerate(gammas) if j != i) % p == 0
        for i in range(len(gammas))
    )


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _shape_key(shape) -> str:
    return "x".join(map(str, shape))


def result_key(spec: dict) -> str:
    return f"{spec['mode']}/{spec['app']}/{_shape_key(spec['shape'])}/p{spec['p']}"


def check_key(app: str, shape: str, p: int) -> str:
    return f"check/{app}/{shape}/p{p}"


def expected_keys(argv: list[str]) -> list[str]:
    """Reference keys of the specs one call is asked to produce."""
    if argv[0] == "check":
        return [check_key(_flag(argv, "--app"), _flag(argv, "--shape"),
                          int(_flag(argv, "-p")))]
    mode = _flag(argv, "--mode")
    return [
        f"{mode}/sp/{shape}/p{p}"
        for shape in _flag(argv, "--shapes").split(",")
        for p in _flag(argv, "--nprocs").split(",")
    ]


class Oracle:
    """Checks CLI outputs against the reference and the closed forms."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self._totals: dict = {}

    @classmethod
    def load(cls) -> "Oracle":
        return cls(json.loads(REFERENCE_PATH.read_text()))

    def closed_form(self, app: str, shape, gammas, p: int) -> tuple[int, int]:
        key = (app, tuple(shape), tuple(gammas), p)
        if key not in self._totals:
            from repro.analysis.counting import schedule_comm_totals
            from repro.apps.adi import ADIProblem
            from repro.apps.bt import BTProblem
            from repro.apps.sp import SPProblem

            cls = {"sp": SPProblem, "bt": BTProblem, "adi": ADIProblem}[app]
            problem = cls(tuple(shape), steps=1)
            self._totals[key] = schedule_comm_totals(
                problem.field_shape,
                SimpleNamespace(gammas=tuple(gammas), nprocs=p),
                problem.schedule(),
            )
        return self._totals[key]

    def check_call(
        self, argv: list[str], rc: int, stdout: str
    ) -> tuple[dict[str, list[str]], list[tuple[str, bytes]]]:
        """Judge one call.

        Returns ``(problems, documents)``: ``problems`` maps every expected
        spec key to its list of failures (empty when the spec is correct);
        ``documents`` are the (key, bytes) result documents the call emitted.
        """
        keys = expected_keys(argv)
        problems: dict[str, list[str]] = {key: [] for key in keys}
        if rc != 0:
            for key in keys:
                problems[key].append(f"exit code {rc}")
        try:
            doc = json.loads(stdout)
        except ValueError:
            for key in keys:
                problems[key].append("output is not JSON")
            return problems, []
        if argv[0] == "check":
            return self._check_report(keys[0], argv, stdout, doc, problems)
        return self._check_sweep(argv, doc, problems)

    def _check_report(self, key, argv, stdout, doc, problems):
        found = problems[key]
        data = stdout.encode()
        if self.reference.get(key) != digest(data):
            found.append("report differs from reference")
        try:
            if doc["ok"] is not True or not all(
                a["ok"] for a in doc["analyses"].values()
            ):
                found.append("verdict is not VERIFIED")
            config = doc["config"]
            p = int(_flag(argv, "-p"))
            if config["p"] != p or config["app"] != _flag(argv, "--app"):
                found.append("report is for another configuration")
            if not gammas_valid(config["gammas"], p):
                found.append(f"gammas {config['gammas']} invalid for p={p}")
            totals = self.closed_form(
                config["app"], config["shape"], config["gammas"], p
            )
            if (config["ir"]["messages"], config["ir"]["bytes"]) != totals:
                found.append("IR messages/bytes differ from closed form")
        except (KeyError, TypeError, ValueError) as exc:
            found.append(f"malformed report: {exc!r}")
        return problems, [(key, data)]

    def _check_sweep(self, argv, doc, problems):
        documents = []
        try:
            results = doc["results"]
        except (KeyError, TypeError):
            for found in problems.values():
                found.append("no results in output")
            return problems, documents
        seen = set()
        for result in results:
            try:
                spec = result["spec"]
                key = result_key(spec)
            except (KeyError, TypeError):
                continue
            if key not in problems:
                continue  # an unrequested spec; the requested ones stay unseen
            seen.add(key)
            data = canonical_bytes(result)
            documents.append((key, data))
            problems[key].extend(self._result_problems(key, spec, result, data))
        for key, found in problems.items():
            if key not in seen:
                found.append("missing from results")
        return problems, documents

    def _result_problems(self, key, spec, result, data) -> list[str]:
        if "error" in result:
            return [f"error result: {result['error']}"]
        found = []
        if self.reference.get(key) != digest(data):
            found.append("result differs from reference")
        try:
            p = spec["p"]
            gammas = result["gammas"]
            if not gammas_valid(gammas, p):
                found.append(f"gammas {gammas} invalid for p={p}")
            if spec["mode"] == "skeleton":
                summary = result["summary"]
                totals = self.closed_form(spec["app"], spec["shape"], gammas, p)
                if (summary["message_count"], summary["total_bytes"]) != totals:
                    found.append("messages/bytes differ from closed form")
        except (KeyError, TypeError, ValueError) as exc:
            found.append(f"malformed result: {exc!r}")
        return found


#: corruptions only the reference digest can see: a float that no other
#: check derives independently
REFERENCE_ONLY = frozenset({"clock", "cost"})


def _block_gammas(config: dict) -> list[int]:
    """Gammas of a plain block partitioning along the last axis: they break
    the validity condition for every p > 1."""
    return [1] * (len(config["shape"]) - 1) + [config["p"]]


def _mutations(doc: dict, is_check: bool):
    """(label, mutate-in-place) pairs, each a plausible silent corruption."""
    if is_check:
        def flip_verdict(d):
            d["ok"] = False

        def extra_message(d):
            d["config"]["ir"]["messages"] += 1

        def bad_gamma(d):
            d["config"]["gammas"] = _block_gammas(d["config"])

        return [("verdict", flip_verdict), ("ir-messages", extra_message),
                ("gammas", bad_gamma)]

    first = doc["results"][0]

    def bad_gamma(d):
        d["results"][0]["gammas"] = _block_gammas(d["results"][0]["spec"])

    def error(d):
        d["results"][0]["error"] = "injected"

    def drop(d):
        del d["results"][0]

    out = [("gammas", bad_gamma), ("error", error), ("missing", drop)]
    if "summary" in first:
        def extra_message(d):
            d["results"][0]["summary"]["message_count"] += 1

        def clock(d):
            clocks = d["results"][0]["summary"]["clocks"]
            clocks[-1] = clocks[-1] * (1 + 2**-40)

        out += [("messages", extra_message), ("clock", clock)]
    else:
        def cost(d):
            d["results"][0]["cost"] *= 1 + 2**-40

        out.append(("cost", cost))
    return out


def corrupted_variants(argv: list[str], rc: int, stdout: str):
    """Yield ``(label, rc, stdout)`` for deliberately corrupted copies of a
    good call, including a non-zero exit."""
    yield "exit-code", 1, stdout
    doc = json.loads(stdout)
    is_check = argv[0] == "check"
    for label, mutate in _mutations(doc, is_check):
        bad = copy.deepcopy(doc)
        mutate(bad)
        text = json.dumps(bad, indent=2 if is_check else None)
        yield label, rc, text + "\n"


def independent_problems(found: list[str]) -> list[str]:
    """The problems found by the checks other than the reference digest."""
    return [p for p in found if "differs from reference" not in p]


def selftest(oracle: Oracle, argv: list[str], rc: int, stdout: str) -> dict:
    """Feed every corrupted variant through the oracle; report which were
    caught.  Each variant outside :data:`REFERENCE_ONLY` must also be caught
    by the checks other than the reference digest, so that each of those
    checks is shown able to fail on its own.  ``ok`` is False if any
    corruption went unnoticed."""
    without_reference = Oracle({})
    caught, missed = [], []
    for label, bad_rc, bad_stdout in corrupted_variants(argv, rc, stdout):
        problems, _ = oracle.check_call(argv, bad_rc, bad_stdout)
        if not any(problems.values()):
            missed.append(label)
            continue
        if label not in REFERENCE_ONLY:
            problems, _ = without_reference.check_call(argv, bad_rc, bad_stdout)
            if not any(independent_problems(f) for f in problems.values()):
                missed.append(f"{label} (without reference)")
                continue
        caught.append(label)
    return {"ok": not missed, "caught": caught, "missed": missed}
