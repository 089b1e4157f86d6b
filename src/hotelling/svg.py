"""Minimal SVG rendering of profiles: facilities as circles on [0,1].

Presentation only; no numeric result depends on these drawings.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Game, PureProfile

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

_WIDTH = 640
_MARGIN = 40
_ROW = 26


def _x(position: Fraction) -> float:
    return _MARGIN + float(position) * (_WIDTH - 2 * _MARGIN)


def render_profile(game: Game, profile: PureProfile, title: str = "") -> str:
    """One row of circles per player, plus a shared axis marked at 0, 1/2 and 1.

    Each circle drops a dashed line to the axis.
    """
    height = _MARGIN * 2 + _ROW * (game.num_players + 1)
    axis_y = height - _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<text x="{_MARGIN}" y="20" font-family="sans-serif" font-size="13">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_WIDTH - _MARGIN}" y2="{axis_y}" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    for tick in ("0", "1/2", "1"):
        x = _x(Fraction(tick))
        parts.append(
            f'<line x1="{x:.1f}" y1="{axis_y - 4}" x2="{x:.1f}" y2="{axis_y + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{tick}</text>'
        )
    for player, strategy in enumerate(profile.strategies):
        y = _MARGIN + _ROW * player
        color = _COLORS[player % len(_COLORS)]
        parts.append(
            f'<text x="6" y="{y + 4}" font-family="sans-serif" font-size="11" '
            f'fill="{color}">p{player}</text>'
        )
        for loc in strategy:
            x = _x(loc)
            parts.append(f'<circle cx="{x:.1f}" cy="{y}" r="5" fill="{color}"/>')
            parts.append(
                f'<line x1="{x:.1f}" y1="{y}" x2="{x:.1f}" y2="{axis_y}" '
                f'stroke="{color}" stroke-width="0.5" stroke-dasharray="2,3"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
