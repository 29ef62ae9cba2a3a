"""The one-pass CSV/SVG renderers against the per-row f-string renderers they
replaced, which are kept here as the byte oracle."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwell import figures
from qwell.figures import _MB, _ML, _MR, _MT, _VIEW_H, _VIEW_W
from qwell.plateau import PlateauReport, detect_plateaux
from qwell.wavefield import PANELS, WellParams


def oracle_csv(rows):
    lines = ["x,p"]
    lines.extend(f"{x:.12g},{p:.12g}" for x, p in rows)
    return "\n".join(lines) + "\n"


def oracle_svg(rows, report):
    w = _VIEW_W - _ML - _MR
    h = _VIEW_H - _MT - _MB
    y_max = max((p for _, p in rows), default=1.0)
    y_max = y_max * 1.05 if y_max > 0 else 1.0

    def px(x: float) -> float:
        return _ML + x / 0.5 * w

    def py(p: float) -> float:
        return _MT + h - p / y_max * h

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
    points = " ".join(f"{px(x):.2f},{py(p):.2f}" for x, p in rows)
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


def as_array(rows):
    return np.array(rows, dtype=float).reshape(-1, 2)


def assert_same_bytes(rows, report):
    assert figures.render_csv(as_array(rows)) == oracle_csv(rows)
    assert figures.render_svg(as_array(rows), report) == oracle_svg(rows, report)


REPORTS = {panel: detect_plateaux(WellParams(*PANELS[panel])) for panel in ("plat-a", "frag-a", "zero-b")}
XS = st.floats(min_value=0.0, max_value=0.5)
PS = st.one_of(st.sampled_from([0.0, 5e-324, 1e300]), st.floats(min_value=0.0, max_value=1e300))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(XS, PS), max_size=50), st.sampled_from(sorted(REPORTS)))
def test_renderers_match_the_f_string_oracle_on_any_rows(rows, panel):
    assert_same_bytes(rows, REPORTS[panel])


@pytest.mark.parametrize("samples", [2, 3, 4000])
@pytest.mark.parametrize("panel", sorted(REPORTS))
def test_renderers_match_the_f_string_oracle_on_panels(panel, samples):
    report = REPORTS[panel]
    assert report.intervals
    assert_same_bytes(figures.density_samples(report.params, samples).tolist(), report)


def test_density_samples_are_one_float64_array_of_x_p_rows():
    params = REPORTS["frag-a"].params
    rows = figures.density_samples(params, 37)
    assert isinstance(rows, np.ndarray)
    assert rows.shape == (37, 2) and rows.dtype == np.float64 and rows.flags.c_contiguous
    assert rows[:, 0].tolist() == [(i + 0.5) * (0.5 / 37) for i in range(37)]


def test_density_samples_peak_below_64_bytes_a_sample():
    """density_p squares |S| in one np.float_power call, so its peak is its
    arrays, about 59 bytes a sample; one Python float list of every sample
    took it to about 82."""
    samples = 1 << 18
    tracemalloc.start()
    try:
        figures.density_samples(WellParams(*PANELS["plat-a"]), samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * samples


def test_polyline_keeps_the_scalar_order_of_operations():
    # with y_max = 1.05 these points print 299.80 and 300.17; p * h / y_max
    # and p * (h / y_max) round them to the other side of the .xx5 boundary
    rows = [(0.0, 1.0), (0.25, 0.09970047169811327), (0.375, 0.09847877358490571)]
    assert_same_bytes(rows, REPORTS["plat-a"])
    assert "337.00,299.80 482.50,300.17" in figures.render_svg(as_array(rows), REPORTS["plat-a"])


def test_row_chunks_match_the_per_row_format():
    # two full printf chunks of CSV rows and polyline points and a partial third
    n = 2 * figures._ROW_CHUNK + 3
    rows = [(0.5 * i / n, (i * 7919 % 1000) / 997) for i in range(n)]
    assert_same_bytes(rows, REPORTS["plat-a"])


@pytest.mark.parametrize("n", [2, 3, 4, 10])
def test_small_row_chunks_leave_no_seam(monkeypatch, n):
    # chunks of 3 rows: a partial chunk, one full chunk, and one or three
    # full chunks followed by a lone row
    monkeypatch.setattr(figures, "_ROW_CHUNK", 3)
    rows = [(0.5 * i / n, (i * 7919 % 1000) / 997) for i in range(n)]
    assert_same_bytes(rows, REPORTS["frag-a"])


def test_all_zero_density_falls_back_to_unit_y_max():
    rows = [(0.125, 0.0), (0.25, 0.0), (0.375, 0.0)]
    assert_same_bytes(rows, REPORTS["plat-a"])
    assert 'font-family="sans-serif">1</text>' in figures.render_svg(as_array(rows), REPORTS["plat-a"])


def test_empty_rows_give_a_header_and_an_empty_polyline():
    report = PlateauReport(WellParams(*PANELS["plat-a"]), (), 0)
    assert_same_bytes([], report)
    assert figures.render_csv(as_array([])) == "x,p\n"
    assert '<polyline points=""' in figures.render_svg(as_array([]), report)


@pytest.mark.parametrize(
    "v", [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 0.125, 2.675, 1e16, 999999999999.5]
)
def test_printf_and_f_string_formats_agree(v):
    # the pinned CSV/SVG digests rest on this identity
    assert "%.12g" % v == f"{v:.12g}"
    assert "%.2f" % v == f"{v:.2f}"
