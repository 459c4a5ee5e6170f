"""Static SVG scatter plot of utilitarian vs. representation ratio means.

Hand-rolled SVG with fixed-precision coordinates: no plotting dependency,
and the output is byte-identical across reruns for the same input, which the
determinism tests rely on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .bench import RULES, RuleSummary

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
            "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")

_MARGIN, _PLOT = 70, 420
_SIZE = _PLOT + 2 * _MARGIN


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _xy(util: float, rep: float) -> tuple[float, float]:
    return (_MARGIN + util * _PLOT, _MARGIN + (1.0 - rep) * _PLOT)


def _shape(rule: str) -> str:
    # a rule outside the table falls back to a circle
    return RULES[rule].marker if rule in RULES else "circle"


def _marker(shape: str, x: float, y: float, fill: str) -> str:
    r = 6.0
    stroke = 'stroke="#333333" stroke-width="1"'
    if shape == "circle":
        return (f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
                f'fill="{fill}" {stroke}/>')
    if shape == "square":
        return (f'<rect x="{_fmt(x - r)}" y="{_fmt(y - r)}" '
                f'width="{_fmt(2 * r)}" height="{_fmt(2 * r)}" '
                f'fill="{fill}" {stroke}/>')
    if shape == "triangle-up":
        pts = [(x, y - r), (x - r, y + r), (x + r, y + r)]
    elif shape == "triangle-down":
        pts = [(x, y + r), (x - r, y - r), (x + r, y - r)]
    elif shape == "diamond":
        pts = [(x, y - r), (x + r, y), (x, y + r), (x - r, y)]
    elif shape == "cross":
        return (f'<path d="M {_fmt(x - r)} {_fmt(y - r)} L {_fmt(x + r)} '
                f'{_fmt(y + r)} M {_fmt(x - r)} {_fmt(y + r)} L '
                f'{_fmt(x + r)} {_fmt(y - r)}" stroke="{fill}" '
                f'stroke-width="3" fill="none"/>')
    elif shape == "plus":
        return (f'<path d="M {_fmt(x - r)} {_fmt(y)} L {_fmt(x + r)} '
                f'{_fmt(y)} M {_fmt(x)} {_fmt(y - r)} L {_fmt(x)} '
                f'{_fmt(y + r)}" stroke="{fill}" stroke-width="3" '
                f'fill="none"/>')
    else:
        raise ValueError(f"unknown marker shape {shape!r}")
    path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
    return f'<polygon points="{path}" fill="{fill}" {stroke}/>'


def scatter_svg(summaries: Mapping[str, Sequence[RuleSummary]]) -> str:
    """Render one marker per (dataset, rule) mean-ratio pair."""
    if not summaries or all(not v for v in summaries.values()):
        raise ValueError("nothing to plot")
    datasets = sorted(summaries)
    fills = {d: _PALETTE[i % len(_PALETTE)] for i, d in enumerate(datasets)}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT}" '
        f'height="{_PLOT}" fill="none" stroke="#000000"/>',
    ]
    for i in range(5):
        t = i / 4
        gx = _MARGIN + t * _PLOT
        gy = _MARGIN + (1 - t) * _PLOT
        parts.append(
            f'<line x1="{_fmt(gx)}" y1="{_MARGIN}" x2="{_fmt(gx)}" '
            f'y2="{_MARGIN + _PLOT}" stroke="#dddddd"/>')
        parts.append(
            f'<line x1="{_MARGIN}" y1="{_fmt(gy)}" x2="{_MARGIN + _PLOT}" '
            f'y2="{_fmt(gy)}" stroke="#dddddd"/>')
        parts.append(
            f'<text x="{_fmt(gx)}" y="{_MARGIN + _PLOT + 18}" '
            f'font-size="11" text-anchor="middle">{t:.2f}</text>')
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{_fmt(gy + 4)}" font-size="11" '
            f'text-anchor="end">{t:.2f}</text>')
    parts.append(
        f'<text x="{_fmt(_MARGIN + _PLOT / 2)}" y="{_SIZE - 14}" '
        f'font-size="13" text-anchor="middle">utilitarian ratio</text>')
    parts.append(
        f'<text x="16" y="{_fmt(_MARGIN + _PLOT / 2)}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{_fmt(_MARGIN + _PLOT / 2)})">representation ratio</text>')

    for dataset in datasets:
        for s in summaries[dataset]:
            x, y = _xy(float(s.util_mean), float(s.rep_mean))
            parts.append(_marker(_shape(s.rule), x, y, fills[dataset]))

    # legend: rules (shapes) then datasets (fills)
    ly = _MARGIN + 6
    lx = _MARGIN + _PLOT + 4
    rules = sorted({s.rule for v in summaries.values() for s in v})
    for rule in rules:
        parts.append(_marker(_shape(rule), lx + 8, ly, "#999999"))
        parts.append(f'<text x="{lx + 20}" y="{_fmt(ly + 4)}" '
                     f'font-size="11">{rule}</text>')
        ly += 18
    ly += 8
    for dataset in datasets:
        parts.append(f'<rect x="{lx + 2}" y="{_fmt(ly - 6)}" width="12" '
                     f'height="12" fill="{fills[dataset]}"/>')
        parts.append(f'<text x="{lx + 20}" y="{_fmt(ly + 4)}" '
                     f'font-size="11">{dataset}</text>')
        ly += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_scatter(summaries: Mapping[str, Sequence[RuleSummary]],
                 path: str | Path) -> None:
    Path(path).write_text(scatter_svg(summaries), encoding="utf-8")
