"""ASCII rendering of result tables and mapping figures."""

from __future__ import annotations

from typing import Sequence

from repro.core.mapping import Multipartitioning

from .speedup import PAPER_TABLE1_DHPF, PAPER_TABLE1_HAND, SpeedupRow

__all__ = ["format_table", "render_figure1", "format_table1"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Simple fixed-width table renderer."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(v) for v in row] for row in rows
    ]
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.rjust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        # 2 decimals for human-scale magnitudes, 4 significant digits
        # otherwise (small times, tiny costs) so distinct values stay
        # distinguishable in the printed tables
        return f"{v:.2f}" if 1.0 <= abs(v) < 1e4 else f"{v:.4g}"
    if isinstance(v, tuple):
        return "x".join(map(str, v))
    return str(v)


def render_figure1(partitioning: Multipartitioning, axis: int = 2) -> str:
    """Figure-1-style rendering: one 2-D layer of the owner table per slab
    along ``axis`` (z by default, matching the paper's drawing)."""
    layers = partitioning.layer_strings(axis=axis)
    blocks = []
    for k, layer in enumerate(layers):
        blocks.append(f"layer {chr(ord('k'))}={k} (axis {axis}):\n{layer}")
    return "\n\n".join(blocks)


def format_table1(
    rows: list[SpeedupRow],
    include_paper: bool = True,
) -> str:
    """Render Table 1, optionally alongside the published numbers."""
    headers = ["# CPUs", "tiling", "hand-coded", "dHPF", "% diff."]
    if include_paper:
        headers += ["paper hand", "paper dHPF"]
    body = []
    for r in rows:
        row = [
            r.p,
            r.gammas,
            r.hand_speedup,
            r.dhpf_speedup,
            r.pct_diff,
        ]
        if include_paper:
            row += [PAPER_TABLE1_HAND.get(r.p), PAPER_TABLE1_DHPF.get(r.p)]
        body.append(row)
    return format_table(
        headers,
        body,
        title="Table 1: NAS SP speedups, hand-coded (diagonal) vs dHPF "
        "(generalized), skeleton",
    )
