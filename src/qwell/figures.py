"""Deterministic CSV and self-contained SVG rendering of density profiles.

The nine reference panels pair three fragmentation layouts with six
single-plateau configurations, drawn with the plateau centers solid and the
interior boundaries dashed.  CSV rows and SVG polyline points are printed
by _printf_rows in passes of _ROW_CHUNK rows: `%` and f-strings both call
`PyOS_double_to_string`, so the bytes are the same.
"""
from __future__ import annotations

from fractions import Fraction

# whoever imports this module renders a density, which needs numpy
import numpy as np

from .plateau import PlateauReport, detect_plateaux
from .wavefield import PANELS, WellParams, density_p


def density_samples(params: WellParams, samples: int) -> np.ndarray:
    """Density on a half-step offset grid over [0, 1/2], away from the exact
    singular points, as a C-contiguous (samples, 2) float64 array whose row i
    is (x_i, p_i); the CLI refuses fewer than 2 samples."""
    xs = (np.arange(samples) + 0.5) * (0.5 / samples)
    return np.column_stack((xs, density_p(xs, params)))


_VIEW_W, _VIEW_H = 640, 360
_ML, _MR, _MT, _MB = 46, 12, 12, 30
# rows per printf pass, which bounds the tuple of floats `%` needs
_ROW_CHUNK = 1 << 16


def _printf_rows(rows: np.ndarray, fmt: str, sep: str) -> str:
    """Each row of a 2-d float array printed with fmt, joined by sep."""
    return sep.join(sep.join([fmt] * len(part)) % tuple(part.ravel().tolist())
                    for part in (rows[i:i + _ROW_CHUNK] for i in range(0, len(rows), _ROW_CHUNK)))


def render_csv(rows: np.ndarray) -> str:
    """`x,p`, then one `%.12g,%.12g` line per row."""
    return "x,p\n" + _printf_rows(rows, "%.12g,%.12g\n", "")


def render_svg(rows: np.ndarray, report: PlateauReport) -> str:
    """Self-contained SVG: density polyline, solid plateau center lines,
    dashed boundary lines (boundaries on 0 or 1/2 are skipped).  The polyline
    maps numpy columns through px and the scalar y operations (same doubles)."""
    w = _VIEW_W - _ML - _MR
    h = _VIEW_H - _MT - _MB
    xs, ps = rows.T
    y_max = float(ps.max()) if len(ps) else 1.0
    y_max = y_max * 1.05 if y_max > 0 else 1.0

    def px(x: float) -> float:
        return _ML + x / 0.5 * w

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{w}" height="{h}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for interval in report.intervals:
        center = (interval.lo + interval.hi) / 2
        cx = px(float(center))
        parts.append(
            f'<line x1="{cx:.2f}" y1="{_MT}" x2="{cx:.2f}" y2="{_MT + h}" '
            f'stroke="black" stroke-width="1.2"><title>center {center.numerator}/'
            f'{center.denominator}</title></line>'
        )
        for edge in (interval.lo, interval.hi):
            if edge == 0 or edge == Fraction(1, 2):
                continue
            ex = px(float(edge))
            parts.append(
                f'<line x1="{ex:.2f}" y1="{_MT}" x2="{ex:.2f}" y2="{_MT + h}" '
                f'stroke="black" stroke-width="1" stroke-dasharray="6 4">'
                f'<title>boundary {edge.numerator}/{edge.denominator}</title></line>'
            )
    points = _printf_rows(np.column_stack((px(xs), _MT + h - ps / y_max * h)), "%.2f,%.2f", " ")
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1060c0" stroke-width="1.3"/>'
    )
    for tick in (0.0, 0.25, 0.5):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{_MT + h}" x2="{tx:.2f}" y2="{_MT + h + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{_MT + h + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_ML - 8}" y="{_MT + 12}" font-size="12" text-anchor="end" '
        f'font-family="sans-serif">{y_max:.3g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_panel(panel: str, samples: int = 2000) -> tuple[str, str]:
    """CSV and SVG content for one reference panel."""
    params = WellParams(*PANELS[panel])
    report = detect_plateaux(params)
    rows = density_samples(params, samples)
    return render_csv(rows), render_svg(rows, report)
