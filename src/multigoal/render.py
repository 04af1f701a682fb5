"""SVG rendering of maps, promising regions, goals, and planned tours."""

from __future__ import annotations

import numpy as np

from .grid import write_lines

CELL = 4  # SVG units per map cell

LEG_COLORS = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
)


def render_svg(grid, goals=None, masks=None, legs=(), out_path=None) -> str:
    """Compose an SVG: obstacles black, a list of masks translucent red, goals
    numbered, legs colored polylines. Writes to out_path when given; returns the markup."""
    w, h = grid.width * CELL, grid.height * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]

    parts.append('<g fill="black">')
    for y in range(grid.height):
        row = grid.cells[y]
        x = 0
        while x < grid.width:
            if row[x]:
                run = x
                while run < grid.width and row[run]:
                    run += 1
                parts.append(
                    f'<rect x="{x * CELL}" y="{y * CELL}" width="{(run - x) * CELL}" height="{CELL}"/>'
                )
                x = run
            else:
                x += 1
    parts.append("</g>")

    if masks is not None:
        combined = np.zeros((grid.height, grid.width))
        for m in masks:
            combined = np.maximum(combined, m.values)
        parts.append('<g fill="#d62728">')
        for y, x in zip(*np.nonzero(combined > 0)):
            opacity = 0.4 * combined[y, x]
            parts.append(
                f'<rect x="{x * CELL}" y="{y * CELL}" width="{CELL}" height="{CELL}" '
                f'fill-opacity="{opacity:.3f}"/>'
            )
        parts.append("</g>")

    for k, leg in enumerate(legs):
        color = LEG_COLORS[k % len(LEG_COLORS)]
        pts = " ".join(f"{p.x * CELL:.2f},{p.y * CELL:.2f}" for p in leg.points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    if goals is not None:
        for i, p in enumerate(goals):
            cx, cy = p.x * CELL, p.y * CELL
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" fill="#d62728"/>')
            parts.append(
                f'<text x="{cx:.2f}" y="{cy + 2.6:.2f}" font-size="7" fill="white" '
                f'text-anchor="middle" font-family="sans-serif">{i}</text>'
            )

    parts.append("</svg>")
    if out_path is not None:
        write_lines(out_path, parts)
    return "\n".join(parts) + "\n"
