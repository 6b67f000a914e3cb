"""Minimal dependency-free SVG figure.

Enough for the validation and workspace figures: one polyline, one set
of markers, an axis frame with tick labels, and a title. Data
coordinates are mapped into a fixed-size canvas with equal margins.
"""
from __future__ import annotations

import numpy as np

WIDTH, HEIGHT, MARGIN = 640, 480, 56


def write_svg(path, line, points, title: str, x_label: str, y_label: str) -> None:
    """Write to ``path`` a figure of the polyline through the (N, 2) ``line``
    and a marker at each of the (M, 2) ``points``.

    Both axes span the data padded by 5 % of its extent (of 1 where the
    extent is zero); each carries ticks at its low, middle and high value.
    """
    line = np.asarray(line, dtype=float)
    points = np.asarray(points, dtype=float)
    data = np.vstack([line, points])
    lo, hi = data.min(axis=0), data.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    lo, hi = lo - 0.05 * span, hi + 0.05 * span
    w, h = WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN

    def to_px(xy):
        t = (xy - lo) / (hi - lo)
        return np.column_stack([MARGIN + t[:, 0] * w, HEIGHT - MARGIN - t[:, 1] * h])

    fracs = (0.0, 0.5, 1.0)
    ticks = [(MARGIN + f * w, HEIGHT - MARGIN + 16, "middle", lo[0] + f * (hi[0] - lo[0]))
             for f in fracs]
    ticks += [(MARGIN - 8, HEIGHT - MARGIN - f * h, "end", lo[1] + f * (hi[1] - lo[1]))
              for f in fracs]
    vertices = " ".join(f"{x:.2f},{y:.2f}" for x, y in to_px(line))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{w}" height="{h}" fill="none" '
        f'stroke="#444"/>',
        f'<text x="{WIDTH / 2}" y="{MARGIN / 2}" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        *(f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}" '
          f'font-size="10">{val:.3g}</text>' for x, y, anchor, val in ticks),
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="14" y="{HEIGHT / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {HEIGHT / 2})">{y_label}</text>',
        f'<polyline points="{vertices}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        *(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.0" fill="#d62728"/>'
          for x, y in to_px(points)),
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
