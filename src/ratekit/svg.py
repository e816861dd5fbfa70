"""Deterministic SVG figures: each function returns the standalone SVG text of
one figure, which callers write with ``core.write_text``."""

from __future__ import annotations

import numpy as np

__all__ = ["curves"]


def curves(series, x_label: str, y_label: str) -> str:
    """Minimal deterministic line plot: one polyline per (label, xs, ys) series.

    Data ranges map linearly onto a fixed 640x480 viewport; callers get valid
    standalone SVG text.
    """
    if not series:
        raise ValueError("need at least one series")
    parsed = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError(f"series {label!r}: xs and ys must be 1-d and equal length")
        if xs.size < 2:
            raise ValueError(f"series {label!r}: need at least 2 points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError(f"series {label!r}: points must be finite")
        parsed.append((str(label), xs, ys))

    width, height = 640, 480
    ml, mr, mt, mb = 60, 20, 20, 45
    x0, x1 = ml, width - mr
    y0, y1 = height - mb, mt  # y axis points up

    all_x = np.concatenate([xs for _, xs, _ in parsed])
    all_y = np.concatenate([ys for _, _, ys in parsed])
    xmin, xmax = float(all_x.min()), float(all_x.max())
    ymin, ymax = float(all_y.min()), float(all_y.max())
    xspan = xmax - xmin or 1.0
    yspan = ymax - ymin or 1.0

    def sx(v: float) -> float:
        return x0 + (v - xmin) / xspan * (x1 - x0)

    def sy(v: float) -> float:
        return y0 + (v - ymin) / yspan * (y1 - y0)

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) // 2}" y="{height - 8}" text-anchor="middle" '
        f'font-size="14">{_xml_escape(x_label)}</text>',
        f'<text x="14" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 14 {(y0 + y1) // 2})">{_xml_escape(y_label)}</text>',
        f'<text x="{x0}" y="{y0 + 16}" text-anchor="middle" font-size="11">{xmin:.4g}</text>',
        f'<text x="{x1}" y="{y0 + 16}" text-anchor="middle" font-size="11">{xmax:.4g}</text>',
        f'<text x="{x0 - 6}" y="{y0}" text-anchor="end" font-size="11">{ymin:.4g}</text>',
        f'<text x="{x0 - 6}" y="{y1 + 10}" text-anchor="end" font-size="11">{ymax:.4g}</text>',
    ]
    for i, (label, xs, ys) in enumerate(parsed):
        color = palette[i % len(palette)]
        points = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        out.append(
            f'<text x="{x1 - 2}" y="{mt + 16 * (i + 1)}" text-anchor="end" font-size="12" '
            f'fill="{color}">{_xml_escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
