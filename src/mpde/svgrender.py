"""Deterministic SVG rendering of a Newton polygon.

Output is a plain hand-built SVG string: fixed canvas, viewbox derived from
the vertex bounding box plus a margin, translucent quadrant shading per
generator point, the boundary polyline (horizontal ray, finite segments,
vertical ray), generator/vertex markers, and slope labels.  No timestamps,
no randomness: identical polygons give identical bytes.
"""

from __future__ import annotations

from .polygon import NewtonPolygon

WIDTH = 640
HEIGHT = 480
PLOT_MARGIN = 48


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_polygon_svg(poly: NewtonPolygon) -> str:
    """The SVG text of the polygon."""
    xs = [float(p[0]) for p in poly.points] + [0.0]
    ys = [float(p[1]) for p in poly.points] + [0.0]
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    pad_x, pad_y = 0.18 * span_x + 0.35, 0.18 * span_y + 0.35
    x0, x1 = min(xs) - pad_x, max(xs) + pad_x
    y0, y1 = min(ys) - pad_y, max(ys) + pad_y

    sx = (WIDTH - 2 * PLOT_MARGIN) / (x1 - x0)
    sy = (HEIGHT - 2 * PLOT_MARGIN) / (y1 - y0)

    def tx(x: float) -> float:
        return PLOT_MARGIN + (x - x0) * sx

    def ty(y: float) -> float:
        return HEIGHT - PLOT_MARGIN - (y - y0) * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    # quadrant shading: {x <= a, y >= b} clipped to the plot area
    for (a, b) in poly.points:
        left, right = tx(x0), tx(float(a))
        top, bottom = ty(y1), ty(float(b))
        parts.append(
            f'<rect x="{_fmt(left)}" y="{_fmt(top)}" '
            f'width="{_fmt(right - left)}" height="{_fmt(bottom - top)}" '
            f'fill="#9ecae1" fill-opacity="0.18"/>'
        )

    # axes
    if x0 < 0 < x1:
        parts.append(
            f'<line x1="{_fmt(tx(0))}" y1="{_fmt(ty(y0))}" x2="{_fmt(tx(0))}" '
            f'y2="{_fmt(ty(y1))}" stroke="#999999" stroke-width="1"/>'
        )
    if y0 < 0 < y1:
        parts.append(
            f'<line x1="{_fmt(tx(x0))}" y1="{_fmt(ty(0))}" x2="{_fmt(tx(x1))}" '
            f'y2="{_fmt(ty(0))}" stroke="#999999" stroke-width="1"/>'
        )

    # boundary: left ray, chain, up ray
    first, last = poly.vertices[0], poly.vertices[-1]
    chain = [(tx(x0), ty(float(first[1])))]
    chain += [(tx(float(vx)), ty(float(vy))) for vx, vy in poly.vertices]
    chain.append((tx(float(last[0])), ty(y1)))
    points_attr = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in chain)
    parts.append(
        f'<polyline points="{points_attr}" fill="none" stroke="#08306b" stroke-width="2"/>'
    )

    # generator points and hull vertices
    for (a, b) in poly.points:
        parts.append(
            f'<circle cx="{_fmt(tx(float(a)))}" cy="{_fmt(ty(float(b)))}" r="4" '
            f'fill="#fd8d3c" stroke="#7f2704" stroke-width="1"/>'
        )
    for (vx, vy) in poly.vertices:
        parts.append(
            f'<circle cx="{_fmt(tx(float(vx)))}" cy="{_fmt(ty(float(vy)))}" r="5" '
            f'fill="#08306b"/>'
        )

    # slope labels at segment midpoints
    for (v1, v2, k) in poly.segments:
        mx = (float(v1[0]) + float(v2[0])) / 2
        my = (float(v1[1]) + float(v2[1])) / 2
        parts.append(
            f'<text x="{_fmt(tx(mx) + 8)}" y="{_fmt(ty(my))}" font-family="monospace" '
            f'font-size="14" fill="#08306b">k={k}</text>'
        )

    # coordinate captions for the vertices
    for (vx, vy) in poly.vertices:
        parts.append(
            f'<text x="{_fmt(tx(float(vx)) + 6)}" y="{_fmt(ty(float(vy)) + 16)}" '
            f'font-family="monospace" font-size="11" fill="#333333">'
            f'({vx}, {vy})</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
