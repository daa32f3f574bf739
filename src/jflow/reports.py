"""Deterministic run artifacts: CSV, JSON, SVG.

Everything here is plain text with repr-level floats, written with
unix newlines, so identical inputs produce identical bytes on every
platform.  That determinism is a contract, not a
convenience: trajectory comparisons in the test suite are byte-wise.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Iterable, Sequence

import numpy as np

from .cone import HypothesisReport
from .flow import FlowResult, MonitorRecord
from .functionals import FunctionalReport
from .geodesic import ProbeReport

TRAJECTORY_HEADER = ",".join(MonitorRecord._fields)


def _num(value: float) -> str:
    return repr(float(value))


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return _num(value)


def trajectory_csv(records: Iterable[MonitorRecord]) -> str:
    rows = [TRAJECTORY_HEADER]
    for r in records:
        rows.append(",".join(map(_cell, r)))
    return "\n".join(rows) + "\n"


def probe_csv(report: ProbeReport) -> str:
    """t, value, second_difference; endpoints have no second difference."""
    rows = ["t,value,second_difference"]
    last = len(report.ts) - 1
    for k, (t, v) in enumerate(zip(report.ts, report.values)):
        if 0 < k < last:
            tail = _num(report.second_differences[k - 1])
        else:
            tail = ""
        rows.append(f"{_num(t)},{_num(v)},{tail}")
    return "\n".join(rows) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def functional_report_json(report: FunctionalReport) -> str:
    return _json(report._asdict())


def hypothesis_report_json(report: HypothesisReport) -> str:
    return _json(report._asdict())


def final_state_json(result: FlowResult) -> str:
    state = result.state
    return _json({
        "t": state.t,
        "step_count": state.step_count,
        "converged": result.converged,
        "reason": result.reason,
        "residual": result.residual,
        "sigma_mean": result.sigma_mean,
        "minus_nc": result.minus_nc,
        "kappa": result.kappa,
        "rhs_spread": result.rhs_spread,
        "subsolution_margin": result.subsolution_margin,
        "suspect_steps": result.suspect_steps,
        "stats": asdict(result.stats),
        "grid_shape": list(state.phi.shape),
        "phi": [float(v) for v in np.asarray(state.phi).ravel()],
    })


def probe_report_json(report: ProbeReport) -> str:
    return _json({
        "functional_id": report.functional_id,
        "min_second_difference": report.min_second_difference,
        "t_at_min": report.t_at_min,
        "nodes": len(report.ts),
    })


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def svg_line_plot(series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
                  title: str) -> str:
    """Minimal 640 x 400 line plot: one polyline per series, shared axes.

    Finite points only; series with fewer than two finite points are
    drawn as nothing but still listed in the legend, so the file shape
    is independent of the data values.
    """
    width, height, margin = 640, 400, 50.0
    pts = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if np.isfinite(x) and np.isfinite(y):
                pts.append((float(x), float(y)))
    if pts:
        x_lo = min(p[0] for p in pts)
        x_hi = max(p[0] for p in pts)
        y_lo = min(p[1] for p in pts)
        y_hi = max(p[1] for p in pts)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 16:.1f}" '
        f'font-size="10">{x_lo:.6g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16:.1f}" '
        f'text-anchor="end" font-size="10">{x_hi:.6g}</text>',
        f'<text x="{margin - 4}" y="{height - margin:.1f}" text-anchor="end" '
        f'font-size="10">{y_lo:.6g}</text>',
        f'<text x="{margin - 4}" y="{margin:.1f}" text-anchor="end" '
        f'font-size="10">{y_hi:.6g}</text>',
    ]
    for idx, (name, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = [f"{sx(float(x)):.3f},{sy(float(y)):.3f}"
                  for x, y in zip(xs, ys)
                  if np.isfinite(x) and np.isfinite(y)]
        if len(coords) >= 2:
            out.append(f'<polyline fill="none" stroke="{color}" '
                       f'stroke-width="1.5" points="{" ".join(coords)}"/>')
        out.append(f'<text x="{width - margin:.1f}" y="{margin + 14 * idx:.1f}" '
                   f'text-anchor="end" font-size="11" fill="{color}">'
                   f'{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
