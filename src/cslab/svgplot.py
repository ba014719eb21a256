"""Minimal deterministic SVG line plots (no external plotting stack)."""

from __future__ import annotations

from typing import IO, Sequence

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

_W, _H = 720, 480
_MARGIN = 60


def write_line_plot(
    stream: IO[str],
    x: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
    comment: str,
) -> None:
    """Write one SVG with a polyline per (label, values) pair."""
    xs = list(x)
    all_y = [v for _, ys in series for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_lo == y_hi:
        y_lo -= 0.5
        y_hi += 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(f"<!-- {comment} -->\n")
    stream.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n'
    )
    stream.write(f'<rect width="{_W}" height="{_H}" fill="white"/>\n')
    stream.write(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#333"/>\n'
    )
    stream.write(
        f'<text x="{_W / 2:.1f}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>\n'
    )
    stream.write(
        f'<text x="{_W / 2:.1f}" y="{_H - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>\n'
    )
    stream.write(
        f'<text x="18" y="{_H / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_H / 2:.1f})">{y_label}</text>\n'
    )
    # axis extents
    for val, xp, yp, anchor in (
        (x_lo, _MARGIN, _H - _MARGIN + 16, "middle"),
        (x_hi, _W - _MARGIN, _H - _MARGIN + 16, "middle"),
        (y_lo, _MARGIN - 6, _H - _MARGIN, "end"),
        (y_hi, _MARGIN - 6, _MARGIN + 4, "end"),
    ):
        stream.write(
            f'<text x="{xp}" y="{yp}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="10">{val:.6g}</text>\n'
        )

    # each value v maps to out_lo + (v - lo) / span * (out_hi - out_lo), in
    # that order so the points do not move; a zero span is read as 1
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    pxy = np.empty((len(xs), 2))
    pxy[:, 0] = _MARGIN + (np.asarray(xs, dtype=float) - x_lo) / x_span * (_W - 2 * _MARGIN)
    template = " ".join(["%.2f,%.2f"] * len(xs))
    for idx, (label, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        ys = np.asarray(ys, dtype=float)
        pxy[:, 1] = (_H - _MARGIN) + (ys - y_lo) / y_span * (2 * _MARGIN - _H)
        points = template % tuple(pxy.ravel().tolist())
        stream.write(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>\n'
        )
        stream.write(
            f'<text x="{_W - _MARGIN - 8}" y="{_MARGIN + 16 + 14 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{label}</text>\n'
        )
    stream.write("</svg>\n")
