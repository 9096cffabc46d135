"""Minimal CSV-to-SVG line rendering for experiment outputs. No interactivity."""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["render_line_chart", "render_csv"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
WIDTH, HEIGHT = 640, 420  # pixel size of every chart


def render_line_chart(
    rows: Sequence[dict],
    x: str,
    ys: Sequence[str],
    out_path: str,
    series: Optional[str] = None,
) -> str:
    """Write a plain SVG with one polyline per y column (and per series value).
    A column named in x, ys or series that a row lacks, or holds None for
    (the cells past the end of a short CSV row), raises ValueError."""
    wanted = [x, *ys, *([series] if series else [])]
    for i, row in enumerate(rows, 1):
        missing = [c for c in wanted if c not in row]
        if missing:
            raise ValueError(f"no column {missing[0]!r} among {', '.join(row)}")
        empty = [c for c in wanted if row[c] is None]
        if empty:
            raise ValueError(f"row {i} has no value in column {empty[0]!r}")
    groups: dict[str, list[dict]] = {}
    for row in rows:
        key = str(row[series]) if series else ""
        groups.setdefault(key, []).append(row)
    curves = []
    for gkey, grows in sorted(groups.items()):
        grows = sorted(grows, key=lambda r: float(r[x]))
        for y in ys:
            label = f"{gkey} {y}".strip()
            pts = [(float(r[x]), float(r[y])) for r in grows]
            curves.append((label, pts))
    if not curves or not any(pts for _, pts in curves):
        raise ValueError("nothing to plot")

    xs = [p for _, pts in curves for p, _ in pts]
    yvals = [q for _, pts in curves for _, q in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(yvals), max(yvals)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad, legend_h = 50, 16 * len(curves)

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (WIDTH - 2 * pad)

    def sy(v):
        return HEIGHT - pad - (v - y0) / (y1 - y0) * (HEIGHT - 2 * pad - legend_h)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{pad}" y1="{HEIGHT - pad}" x2="{WIDTH - pad}" y2="{HEIGHT - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{HEIGHT - pad}" x2="{pad}" y2="{pad + legend_h}" stroke="black"/>',
        f'<text x="{WIDTH - pad}" y="{HEIGHT - pad + 30}" text-anchor="end" font-size="11">{x}: {x0:g} .. {x1:g}</text>',
        f'<text x="{pad - 40}" y="{pad + legend_h - 8}" font-size="11">{y0:g} .. {y1:g}</text>',
    ]
    for i, (label, pts) in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{sx(px):.1f},{sy(py):.1f}" for px, py in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{pad + 6}" y="{pad + 12 + 16 * i}" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    svg = "\n".join(parts)
    Path(out_path).write_text(svg)
    return svg


def render_csv(
    csv_path: str,
    x: str,
    ys: Sequence[str],
    out_path: str,
    series: Optional[str] = None,
) -> str:
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return render_line_chart(rows, x, ys, out_path, series=series)
