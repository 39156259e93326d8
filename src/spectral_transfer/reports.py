"""Report bundles: structured summary, flat CSV tables, optional SVG scatter.

File emission is deterministic: fixed names, sorted JSON keys, shortest
round-trip float formatting, and Unix newlines, so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ScatterData:
    """Points plus the reference line ``y = reference_slope x``."""

    x_label: str
    y_label: str
    points: tuple  # (x, y, series label)
    reference_slope: float


@dataclass(frozen=True)
class ReportBundle:
    """Everything one experiment produces."""

    experiment: str
    summary: dict
    tables: dict = field(default_factory=dict)  # name -> (header, rows)
    scatters: dict = field(default_factory=dict)
    all_certified: bool = True


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def emit_reports(bundle: ReportBundle, out_dir, svg: bool = False) -> list:
    """Write summary.txt, one CSV per table, and scatters when requested.

    Returns the list of written paths.  Fails with the offending path on
    IO errors.
    """
    payload = {"experiment": bundle.experiment, "certified": bundle.all_certified,
               **bundle.summary}
    texts = {"summary.txt": json.dumps(payload, indent=2, sort_keys=True) + "\n"}
    for name, (header, rows) in sorted(bundle.tables.items()):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        # csv writes a str or int cell as it is and a float as its repr; only a
        # column holding a bool is formatted, its bools in lower case
        columns = [col if set(map(type, col)) <= {float, int, str} else map(_format_cell, col)
                   for col in zip(*rows)]
        writer.writerows(zip(*columns))
        texts[f"{name}.csv"] = buffer.getvalue()
    if svg:
        for name, scatter in sorted(bundle.scatters.items()):
            texts[f"{name}.svg"] = render_scatter_svg(scatter)

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for file_name, text in texts.items():
        path = os.path.join(out_dir, file_name)
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)
    return written


_SVG_W, _SVG_H = 640, 480
_MARGIN = 60


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_scatter_svg(scatter: ScatterData) -> str:
    """Small standalone scatter plot with a y = slope x reference line."""
    xs = [p[0] for p in scatter.points] or [1.0]
    ys = [p[1] for p in scatter.points] or [1.0]
    x_max = max(max(xs), 1e-12)
    y_max = max(max(ys), scatter.reference_slope * x_max, 1e-12)
    plot_w = _SVG_W - 2 * _MARGIN
    plot_h = _SVG_H - 2 * _MARGIN

    def to_px(x, y):
        px = _MARGIN + (x / x_max) * plot_w
        py = _SVG_H - _MARGIN - (y / y_max) * plot_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        # axes
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 15}" text-anchor="middle" '
        f'font-size="13">{scatter.x_label}</text>',
        f'<text x="18" y="{_SVG_H // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {_SVG_H // 2})">{scatter.y_label}</text>',
        f'<text x="{_MARGIN}" y="{_SVG_H - _MARGIN + 18}" font-size="11">0</text>',
        f'<text x="{_SVG_W - _MARGIN}" y="{_SVG_H - _MARGIN + 18}" '
        f'text-anchor="end" font-size="11">{_fmt(x_max)}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN}" text-anchor="end" '
        f'font-size="11">{_fmt(y_max)}</text>',
    ]
    # reference line clipped to the plot box
    x_end = min(x_max, y_max / scatter.reference_slope) if scatter.reference_slope > 0 else x_max
    px0, py0 = to_px(0.0, 0.0)
    px1, py1 = to_px(x_end, scatter.reference_slope * x_end)
    parts.append(
        f'<line x1="{_fmt(px0)}" y1="{_fmt(py0)}" x2="{_fmt(px1)}" '
        f'y2="{_fmt(py1)}" stroke="red" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_SVG_W - _MARGIN}" y="{_MARGIN - 8}" text-anchor="end" '
        f'fill="red" font-size="12">y = {scatter.reference_slope:g} x</text>'
    )
    for x, y, _label in scatter.points:
        px, py = to_px(x, y)
        parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="steelblue" '
            f'fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
