"""Hand-emitted SVG scatter plots of inference reports.

No plotting library: the figures are plain <circle>/<line>/<path> elements so
tests can diff them structurally.  Colors follow the fixed label map:
rank1 blue, rank2 red, boundary gray, anything else black.
"""

from __future__ import annotations

import math

LABEL_COLORS = {"rank1": "#1f5fbf", "rank2": "#c02020", "boundary": "#888888"}
DEFAULT_COLOR = "#000000"
SIZE = 640
MARGIN = 40


def _color(label: str) -> str:
    return LABEL_COLORS.get(label, DEFAULT_COLOR)


def _bounds(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo = min(min(xs), min(ys)) if points else -1.0
    hi = max(max(xs), max(ys)) if points else 1.0
    pad = 0.05 * (hi - lo or 1.0)
    return lo - pad, hi + pad


def report_svg(report: dict, only_correct: bool = False,
               shape=None) -> str:
    """SVG scatter of a report dict (see the pipeline JSON schema)."""
    pts = report.get("points", [])
    if only_correct:
        pts = [p for p in pts if p.get("correct")]
    coords = [p["coords"] for p in pts]
    lo, hi = _bounds(coords)
    span = hi - lo

    def sx(v):
        return MARGIN + (v - lo) / span * (SIZE - 2 * MARGIN)

    def sy(v):
        return SIZE - MARGIN - (v - lo) / span * (SIZE - 2 * MARGIN)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
           f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">']
    # axes
    out.append(f'<line x1="{MARGIN}" y1="{SIZE - MARGIN}" x2="{SIZE - MARGIN}" '
               f'y2="{SIZE - MARGIN}" stroke="#333" stroke-width="1"/>')
    out.append(f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
               f'y2="{SIZE - MARGIN}" stroke="#333" stroke-width="1"/>')
    if shape is not None:
        out.extend(_shape_paths(shape, sx, sy))
    for p in pts:
        x, y = p["coords"][0], p["coords"][1]
        out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                   f'fill="{_color(p["label"])}"/>')
    out.extend(_legend())
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _legend():
    items = [("rank1", LABEL_COLORS["rank1"]), ("rank2", LABEL_COLORS["rank2"]),
             ("boundary", LABEL_COLORS["boundary"]), ("other", DEFAULT_COLOR)]
    out = ['<g id="legend">']
    for k, (name, color) in enumerate(items):
        y = MARGIN + 18 * k
        out.append(f'<circle cx="{SIZE - 110}" cy="{y}" r="4" fill="{color}"/>')
        out.append(f'<text x="{SIZE - 100}" y="{y + 4}" font-size="12" '
                   f'font-family="sans-serif">{name}</text>')
    out.append("</g>")
    return out


def _shape_paths(shape, sx, sy):
    out = ['<g id="shape" stroke="#bbbbbb" stroke-width="1" fill="none">']
    for comp in shape.sampling_components:
        if comp[0] == "circle":
            _, c, r = comp
            steps = 128
            d = []
            for k in range(steps + 1):
                th = 2 * math.pi * k / steps
                cmd = "M" if k == 0 else "L"
                d.append(f"{cmd}{sx(c[0] + r * math.cos(th)):.2f} "
                         f"{sy(c[1] + r * math.sin(th)):.2f}")
            out.append(f'<path d="{" ".join(d)}"/>')
        else:
            _, p0, p1 = comp
            out.append(f'<line x1="{sx(p0[0]):.2f}" y1="{sy(p0[1]):.2f}" '
                       f'x2="{sx(p1[0]):.2f}" y2="{sy(p1[1]):.2f}"/>')
    out.append("</g>")
    return out
