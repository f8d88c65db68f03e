"""Minimal SVG line charts written without third-party dependencies.

The charts are a convenience for eyeballing run output; the CSV files
are the canonical artifact.  Only what the presets need is implemented:
several named series over a shared x axis, fixed tick count, and a
small legend.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
WIDTH, HEIGHT = 760, 460
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_BOTTOM = 70, 18, 46
N_TICKS = 5
FONT = 'font-family="Menlo, Consolas, monospace" font-size="11"'


def _finite(values):
    return [float(v) for v in values if math.isfinite(float(v))]


def _escape(text: str) -> str:
    """&, < and > as entities (xml.sax.saxutils.escape would import urllib and ssl)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def line_chart(x, series: dict[str, "np.ndarray"], title: str = "",
               x_label: str = "", y_label: str = "") -> str:
    """Render named series against a shared abscissa as an SVG string."""
    if not series:
        raise ValueError("need at least one series")
    xs = [float(v) for v in x]
    if not xs:
        raise ValueError("need at least one x value")

    x_lo, x_hi = min(xs), max(xs)
    pool = []
    for values in series.values():
        if len(values) != len(xs):
            raise ValueError("series length does not match x")
        pool.extend(_finite(values))
    if not pool:
        raise ValueError("series contain no finite values")
    y_lo, y_hi = min(pool), max(pool)
    if x_hi - x_lo <= 0.0:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo <= 0.0:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    margin_top = 34 if title else 18
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - margin_top - MARGIN_BOTTOM

    def sx(v):
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return margin_top + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
                   f'font-family="Menlo, Consolas, monospace" '
                   f'font-size="14">{_escape(title)}</text>')

    # gridlines and tick labels
    for i in range(N_TICKS):
        f = i / (N_TICKS - 1)
        xv = x_lo + f * (x_hi - x_lo)
        yv = y_lo + f * (y_hi - y_lo)
        gx, gy = sx(xv), sy(yv)
        out.append(f'<line x1="{gx:.1f}" y1="{margin_top}" x2="{gx:.1f}" '
                   f'y2="{margin_top + plot_h}" stroke="#dddddd"/>')
        out.append(f'<line x1="{MARGIN_LEFT}" y1="{gy:.1f}" '
                   f'x2="{MARGIN_LEFT + plot_w}" y2="{gy:.1f}" stroke="#dddddd"/>')
        out.append(f'<text x="{gx:.1f}" y="{margin_top + plot_h + 16}" '
                   f'text-anchor="middle" {FONT}>{_fmt(xv)}</text>')
        out.append(f'<text x="{MARGIN_LEFT - 6}" y="{gy + 4:.1f}" '
                   f'text-anchor="end" {FONT}>{_fmt(yv)}</text>')

    # frame
    out.append(f'<rect x="{MARGIN_LEFT}" y="{margin_top}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#444444"/>')
    if x_label:
        out.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" '
                   f'y="{HEIGHT - 8}" text-anchor="middle" {FONT}>'
                   f'{_escape(x_label)}</text>')
    if y_label:
        yc = margin_top + plot_h / 2
        out.append(f'<text x="16" y="{yc:.0f}" text-anchor="middle" {FONT} '
                   f'transform="rotate(-90 16 {yc:.0f})">{_escape(y_label)}</text>')

    x_arr = np.array(xs)
    for k, (name, values) in enumerate(series.items()):
        color = PALETTE[k % len(PALETTE)]
        y_arr = np.asarray(values, dtype=float)
        shown = np.isfinite(y_arr)  # sx and sy map arrays as they map a number
        points = " ".join(map("%.2f,%.2f".__mod__, zip(sx(x_arr[shown]).tolist(),
                                                       sy(y_arr[shown]).tolist())))
        out.append(f'<polyline points="{points}" fill="none" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        ly = margin_top + 14 + 16 * k
        lx = MARGIN_LEFT + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" {FONT}>{_escape(name)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
