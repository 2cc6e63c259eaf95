"""Static SVG 1.1 log-log plots, no dependencies.

One exported builder: scatter series on decade-gridded log axes, an
optional fitted power-law line, and an optional slope band drawn around
the fit.  Output is a self-contained UTF-8 SVG document string.
"""
from __future__ import annotations

import math
from xml.sax.saxutils import escape

_PALETTE = ("#1f6fb2", "#d1495b", "#3a7d44", "#8338ec", "#e07b00", "#035e7b")
_LN10 = math.log(10.0)


def _finite_positive(xs, ys):
    pts = [(x, y) for x, y in zip(xs, ys)
           if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)]
    return pts


def loglog_svg(series, *, title: str = "", ylabel: str = "error",
               fit: tuple[float, float] | None = None,
               band: tuple[float, float] | None = None) -> str:
    """Render (label, xs, ys) series on log10 axes of N, 720 x 540 px.

    ``fit`` is (slope, intercept) from a natural-log least squares fit;
    ``band`` is a (slope_lo, slope_hi) pair drawn as a wedge through the
    fitted line's midpoint (requires ``fit``).  Non-positive or non-finite
    points cannot be placed on log axes and are dropped.
    """
    width, height = 720, 540
    margin_l, margin_r, margin_t, margin_b = 72.0, 24.0, 44.0, 56.0
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    cleaned = [(label, _finite_positive(xs, ys)) for label, xs, ys in series]
    all_pts = [p for _, pts in cleaned for p in pts]
    if not all_pts:
        raise ValueError("nothing to plot: no positive finite points")
    lxs = [math.log10(x) for x, _ in all_pts]
    lys = [math.log10(y) for _, y in all_pts]
    x_lo, x_hi = min(lxs), max(lxs)
    y_lo, y_hi = min(lys), max(lys)
    x_pad = 0.05 * (x_hi - x_lo or 1.0)
    y_pad = 0.08 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(lx: float) -> float:
        return margin_l + (lx - x_lo) / (x_hi - x_lo) * plot_w

    def py(ly: float) -> float:
        return margin_t + (y_hi - ly) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        out.append(f'<text x="{width / 2}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{escape(title)}</text>')

    # decade grid and tick labels
    for k in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = px(k)
        out.append(f'<line x1="{x:.2f}" y1="{margin_t}" x2="{x:.2f}" '
                   f'y2="{margin_t + plot_h}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{margin_t + plot_h + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">1e{k}</text>')
    for k in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        y = py(k)
        out.append(f'<line x1="{margin_l}" y1="{y:.2f}" x2="{margin_l + plot_w}" '
                   f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{margin_l - 6}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">1e{k}</text>')
    out.append(f'<text x="{margin_l + plot_w / 2}" y="{height - 14}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">N</text>')
    out.append(f'<text x="18" y="{margin_t + plot_h / 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {margin_t + plot_h / 2})">{escape(ylabel)}</text>')

    # band wedge, under the data
    if band is not None and fit is not None:
        slope, intercept = fit
        mid_lx = (x_lo + x_hi) / 2.0
        mid_ly = (slope * mid_lx * _LN10 + intercept) / _LN10
        lo, hi = sorted(band)
        corners = [
            (px(x_lo), py(mid_ly + lo * (x_lo - mid_lx))),
            (px(x_hi), py(mid_ly + lo * (x_hi - mid_lx))),
            (px(x_hi), py(mid_ly + hi * (x_hi - mid_lx))),
            (px(x_lo), py(mid_ly + hi * (x_lo - mid_lx))),
        ]
        pts = " ".join(f"{cx:.2f},{cy:.2f}" for cx, cy in corners)
        out.append(f'<polygon points="{pts}" fill="#3a7d44" fill-opacity="0.12" stroke="none"/>')

    if fit is not None:
        slope, intercept = fit
        y1 = (slope * x_lo * _LN10 + intercept) / _LN10
        y2 = (slope * x_hi * _LN10 + intercept) / _LN10
        out.append(f'<line x1="{px(x_lo):.2f}" y1="{py(y1):.2f}" x2="{px(x_hi):.2f}" '
                   f'y2="{py(y2):.2f}" stroke="#222222" stroke-width="1.2" '
                   'stroke-dasharray="6 4"/>')

    legend_y = margin_t + 16
    for i, (label, pts) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            path = " ".join(f"{px(math.log10(x)):.2f},{py(math.log10(y)):.2f}" for x, y in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       'stroke-width="1.5"/>')
            for x, y in pts:
                out.append(f'<circle cx="{px(math.log10(x)):.2f}" '
                           f'cy="{py(math.log10(y)):.2f}" r="3" fill="{color}"/>')
        lx = margin_l + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{legend_y + 18 * i - 4}" x2="{lx + 22}" '
                   f'y2="{legend_y + 18 * i - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{legend_y + 18 * i}" font-family="sans-serif" '
                   f'font-size="12">{escape(str(label))}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
