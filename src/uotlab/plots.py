"""Self-contained two-panel log-log SVG plots of sweep errors.

Hand-rolled SVG with no external assets: each panel holds the measured
error curve and a reference guide line anchored at the first fitted point
(slope -1/2 for the primal panel, -1 for the dual panel).
"""

from __future__ import annotations

import math

from .core import InvalidInput

PANEL_W, PANEL_H = 420, 360
MARGIN = 60
GAP = 60


def _panel(series, guide_slope, x0, title, ylabel):
    pts = [(t, e) for t, e in series if e > 0 and math.isfinite(e)]
    if len(pts) < 2:
        raise InvalidInput("need at least two positive points per panel")
    lx = [math.log10(t) for t, _ in pts]
    ly = [math.log10(e) for _, e in pts]
    # guide line anchored at the first point of the upper-half fit window
    mid = 0.5 * (lx[0] + lx[-1])
    k0 = next(i for i, v in enumerate(lx) if v >= mid)
    guide = [
        (lx[k0], ly[k0]),
        (lx[-1], ly[k0] + guide_slope * (lx[-1] - lx[k0])),
    ]
    xmin, xmax = min(lx), max(lx)
    ymin = min(ly + [g[1] for g in guide])
    ymax = max(ly + [g[1] for g in guide])
    if xmax == xmin:
        xmax += 1.0
    if ymax == ymin:
        ymax += 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    def sx(v):
        return x0 + MARGIN + (v - xmin) / (xmax - xmin) * PANEL_W

    def sy(v):
        return MARGIN + (ymax - v) / (ymax - ymin) * PANEL_H

    def path(coords):
        return "M " + " L ".join(f"{sx(a):.2f} {sy(b):.2f}" for a, b in coords)

    parts = [
        f'<rect x="{x0 + MARGIN}" y="{MARGIN}" width="{PANEL_W}" height="{PANEL_H}" '
        'fill="none" stroke="#999"/>',
        f'<path d="{path(list(zip(lx, ly)))}" fill="none" stroke="#1f77b4" '
        'stroke-width="1.5"/>',
        f'<path d="{path(guide)}" fill="none" stroke="#ff7f0e" stroke-width="1.5" '
        'stroke-dasharray="6 4"/>',
        f'<text x="{x0 + MARGIN + PANEL_W / 2:.0f}" y="{MARGIN - 15}" '
        f'text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{x0 + MARGIN + PANEL_W / 2:.0f}" y="{MARGIN + PANEL_H + 35}" '
        'text-anchor="middle" font-size="13">log10 t</text>',
        f'<text x="{x0 + 18}" y="{MARGIN + PANEL_H / 2:.0f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 {x0 + 18} {MARGIN + PANEL_H / 2:.0f})">'
        f"{ylabel}</text>",
    ]
    # sparse tick labels on both axes
    for v in range(math.ceil(xmin), math.floor(xmax) + 1):
        parts.append(
            f'<text x="{sx(v):.0f}" y="{MARGIN + PANEL_H + 16}" '
            f'text-anchor="middle" font-size="11">{v}</text>'
        )
    for v in range(math.ceil(ymin), math.floor(ymax) + 1):
        parts.append(
            f'<text x="{x0 + MARGIN - 6:.0f}" y="{sy(v) + 4:.0f}" '
            f'text-anchor="end" font-size="11">{v}</text>'
        )
    return parts


def emit_svg(points, path, title=""):
    """Write the two-panel (primal left, dual right) log-log error figure."""
    # saxutils pulls in urllib.request; only a written figure pays for it
    from xml.sax.saxutils import escape

    primal = [(p.t, p.primal_err) for p in points]
    dual = [(p.t, p.dual_err) for p in points]
    width = 2 * (PANEL_W + MARGIN) + GAP + MARGIN
    height = PANEL_H + 2 * MARGIN + 20
    body = []
    body += _panel(primal, -0.5, 0, "plan error vs reference", "log10 ||plan err||")
    body += _panel(
        dual,
        -1.0,
        PANEL_W + MARGIN + GAP,
        "potential error vs reference",
        "log10 ||dual err||",
    )
    if title:
        body.append(
            f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
            f'font-size="14">{escape(title)}</text>'
        )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        '<rect width="100%" height="100%" fill="white"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
