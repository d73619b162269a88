"""Static SVG heatmaps for attention matrices.

The export is a plain SVG built from rectangles and text, one grid per
attention head, side by side. Cell (i, j) maps its attention weight
linearly from [0, max] onto a single blue hue, and every cell carries
``data-row``/``data-col``/``data-value`` attributes holding the exact
weight so downstream tooling can read the numbers back out of the file.
A legend below the grids shows a preview of each sentence.
"""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

import numpy as np

CELL = 28
LABEL_PAD = 34
GRID_GAP = 46
LEGEND_LINE = 16
TITLE_HEIGHT = 24
PREVIEW_CHARS = 40

_HUE_LOW = (255, 255, 255)
_HUE_HIGH = (8, 69, 148)  # dark blue


def _fill(value: float, peak: float) -> str:
    intensity = value / peak if peak > 0 else 0.0
    channels = [
        round(low + (high - low) * intensity)
        for low, high in zip(_HUE_LOW, _HUE_HIGH)
    ]
    return f"rgb({channels[0]},{channels[1]},{channels[2]})"


def render_attention_svg(
    matrices: list[np.ndarray],
    sentence_previews: list[str],
    title: str,
) -> str:
    """Render one grid per matrix; all matrices must be n-by-n.

    ``sentence_previews`` are the document's sentences, uncut: the legend
    shows the first n, each cut to ``PREVIEW_CHARS`` characters.
    """
    if not matrices:
        raise ValueError("no attention matrices to render")
    n = matrices[0].shape[0]
    for m in matrices:
        if m.shape != (n, n):
            raise ValueError(f"attention matrices must all be {n}x{n}")

    grid = n * CELL
    grid_span = LABEL_PAD + grid
    width = len(matrices) * grid_span + (len(matrices) - 1) * GRID_GAP + LABEL_PAD
    legend = sentence_previews[:n]
    height = TITLE_HEIGHT + LABEL_PAD + grid + 20 + len(legend) * LEGEND_LINE + 10

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<title>{escape(title)}</title>',
        f'<text x="{LABEL_PAD}" y="16" font-size="13">{escape(title)}</text>',
    ]
    for g, matrix in enumerate(matrices):
        x0 = LABEL_PAD + g * (grid_span + GRID_GAP)
        y0 = TITLE_HEIGHT + LABEL_PAD
        if len(matrices) > 1:
            parts.append(
                f'<text x="{x0}" y="{y0 - LABEL_PAD + 12}">head {g}</text>')
        peak = float(matrix.max())
        for j in range(n):
            parts.append(
                f'<text x="{x0 + j * CELL + CELL // 2}" y="{y0 - 6}" '
                f'text-anchor="middle">{j}</text>')
        for i in range(n):
            parts.append(
                f'<text x="{x0 - 6}" y="{y0 + i * CELL + CELL // 2 + 4}" '
                f'text-anchor="end">{i}</text>')
            for j in range(n):
                value = float(matrix[i, j])
                parts.append(
                    f'<rect x="{x0 + j * CELL}" y="{y0 + i * CELL}" '
                    f'width="{CELL}" height="{CELL}" fill="{_fill(value, peak)}" '
                    f'stroke="#999" stroke-width="0.5" '
                    f'data-head="{g}" data-row="{i}" data-col="{j}" '
                    f'data-value={quoteattr(repr(value))}/>')
    legend_y = TITLE_HEIGHT + LABEL_PAD + grid + 24
    for i, preview in enumerate(legend):
        snippet = preview[:PREVIEW_CHARS]
        parts.append(
            f'<text x="{LABEL_PAD}" y="{legend_y + i * LEGEND_LINE}">'
            f'{i}: {escape(snippet)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
