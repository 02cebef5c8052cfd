"""Send/recv matching analysis.

Checks that every posted receive has exactly one matching send per
``(src, dst, tag)`` channel and vice versa.  The check is a pure counting
argument over the IR — order-insensitive, so it complements the abstract
execution: a program can complete (every recv found *a* message) while
still leaking orphan sends, and a stuck program still gets precise
per-channel diagnostics here.

Violation kinds:

* ``orphan-send``    — more sends than receives on a channel (the extra
  messages are never consumed);
* ``missing-send``   — more receives than sends (the extra receives can
  never complete);
* ``any-tag-deficit`` — ANY_TAG receives on a ``(src, dst)`` pair
  outnumber the sends left after all tag-specific receives are satisfied
  (sends left over after the ANY_TAG receives are ``orphan-send``).

Witness ops are ``(rank, index)`` positions in the compiled per-rank op
tuples, described by :meth:`~repro.verify.ir.ProgramIR.witness`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.simmpi.message import ANY_TAG

from .abstract import OpRef
from .ir import ProgramIR
from .report import AnalysisResult, Violation

__all__ = ["check_matching"]

_WITNESS_CAP = 5  # op witnesses listed per violation


def check_matching(ir: ProgramIR) -> AnalysisResult:
    """Count-match every ``(src, dst, tag)`` channel of ``ir``."""
    sends: dict[tuple[int, int], dict[int, list[OpRef]]] = defaultdict(
        lambda: defaultdict(list)
    )
    recvs: dict[tuple[int, int], dict[int, list[OpRef]]] = defaultdict(
        lambda: defaultdict(list)
    )
    n_sends = n_recvs = 0
    for rank, index, send in ir.sends():
        sends[(rank, send.dest)][send.tag].append((rank, index))
        n_sends += 1
    for rank, index, recv in ir.recvs():
        recvs[(recv.source, rank)][recv.tag].append((rank, index))
        n_recvs += 1

    def witnesses(refs: list[OpRef]) -> list[dict[str, Any]]:
        return [ir.witness(*ref) for ref in refs[:_WITNESS_CAP]]

    violations: list[Violation] = []
    pairs = sorted(set(sends) | set(recvs))
    n_channels = 0
    for pair in pairs:
        src, dst = pair
        by_tag_s = sends.get(pair, {})
        by_tag_r = recvs.get(pair, {})
        any_recvs = by_tag_r.get(ANY_TAG, [])
        leftover_sends: list[OpRef] = []
        tags = sorted(set(by_tag_s) | (set(by_tag_r) - {ANY_TAG}))
        n_channels += len(tags)
        for tag in tags:
            tag_sends = by_tag_s.get(tag, [])
            tag_recvs = by_tag_r.get(tag, [])
            if len(tag_recvs) > len(tag_sends):
                extra = tag_recvs[len(tag_sends):]
                violations.append(
                    Violation(
                        analysis="matching",
                        kind="missing-send",
                        message=(
                            f"channel {src}->{dst} tag {tag}: "
                            f"{len(tag_recvs)} recv(s) but only "
                            f"{len(tag_sends)} send(s)"
                        ),
                        witness={
                            "channel": {"src": src, "dst": dst, "tag": tag},
                            "sends": len(tag_sends),
                            "recvs": len(tag_recvs),
                            "ops": witnesses(extra),
                        },
                    )
                )
            elif len(tag_sends) > len(tag_recvs):
                leftover_sends.extend(tag_sends[len(tag_recvs):])
        if len(leftover_sends) > len(any_recvs):
            extra_s = leftover_sends[len(any_recvs):]
            tags_s = sorted({ir.ranks[r][i].tag for r, i in extra_s})
            violations.append(
                Violation(
                    analysis="matching",
                    kind="orphan-send",
                    message=(
                        f"channel {src}->{dst}: {len(extra_s)} send(s) "
                        f"never received (tags {tags_s})"
                    ),
                    witness={
                        "channel": {"src": src, "dst": dst},
                        "unconsumed": len(extra_s),
                        "any_tag_recvs": len(any_recvs),
                        "ops": witnesses(extra_s),
                    },
                )
            )
        elif len(any_recvs) > len(leftover_sends):
            extra_r = any_recvs[len(leftover_sends):]
            violations.append(
                Violation(
                    analysis="matching",
                    kind="any-tag-deficit",
                    message=(
                        f"channel {src}->{dst}: {len(extra_r)} ANY_TAG "
                        f"recv(s) with no send left to match"
                    ),
                    witness={
                        "channel": {"src": src, "dst": dst},
                        "unmatched": len(extra_r),
                        "ops": witnesses(extra_r),
                    },
                )
            )
    return AnalysisResult(
        name="matching",
        violations=tuple(violations),
        stats={
            "sends": n_sends,
            "recvs": n_recvs,
            "pairs": len(pairs),
            "channels": n_channels,
        },
    )
