"""Deterministic SVG heatmaps from a design-space sweep CSV.

No plotting library: the SVG is assembled from strings with fixed number
formatting so identical input bytes produce identical output bytes. Cells of
mono-stable designs (empty value fields) render gray.
"""

from __future__ import annotations

import csv
import io
import math
import os

from .errors import ConfigError

__all__ = ["render_plots"]

_EXPECTED_HEADER = ["theta_deg", "gamma_s", "psi_l_deg", "u_barr_unitless", "t_star_ms", "bistable"]

# Dark-to-bright perceptual ramp, interpolated linearly in RGB.
_STOPS = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]

_CELL_W = 72
_CELL_H = 44
_MARGIN_L = 96
_MARGIN_T = 56
_MARGIN_B = 40
_MARGIN_R = 24


def _color(frac: float) -> str:
    frac = min(1.0, max(0.0, frac))
    pos = frac * (len(_STOPS) - 1)
    i = min(int(pos), len(_STOPS) - 2)
    t = pos - i
    r0, g0, b0 = _STOPS[i]
    r1, g1, b1 = _STOPS[i + 1]
    return "#{:02x}{:02x}{:02x}".format(
        round(r0 + t * (r1 - r0)), round(g0 + t * (g1 - g0)), round(b0 + t * (b1 - b0))
    )


def _number(path, lineno: int, key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"sweep CSV {path} line {lineno}: bad {key}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"sweep CSV {path} line {lineno}: non-finite {key} {raw!r}")
    return val


def _read_sweep(path):
    try:
        with open(path, "rb") as fh:
            content = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read sweep CSV {path}: {exc}") from exc
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = content.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"sweep CSV {path} line {lineno}: not UTF-8 text") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ConfigError(f"sweep CSV {path} line {reader.line_num}: {exc}") from exc
    if not rows or rows[0] != _EXPECTED_HEADER:
        raise ConfigError(f"sweep CSV {path} missing expected header")
    if len(rows) < 2:
        raise ConfigError(f"sweep CSV {path} has no data rows")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(_EXPECTED_HEADER):
            raise ConfigError(f"sweep CSV {path} line {lineno}: wrong column count")
        cell = {
            "theta": _number(path, lineno, "theta_deg", row[0]),
            "gamma": _number(path, lineno, "gamma_s", row[1]),
        }
        for key, raw in (("psi_l_deg", row[2]), ("u_barr_unitless", row[3])):
            cell[key] = None if raw == "" else _number(path, lineno, key, raw)
        data.append(cell)
    return data


def _svg_for(data, key: str, title: str) -> str:
    thetas = sorted({c["theta"] for c in data})
    gammas = sorted({c["gamma"] for c in data})
    lookup = {(c["theta"], c["gamma"]): c[key] for c in data}
    finite = [v for v in lookup.values() if v is not None]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 1.0
    span = hi - lo

    width = _MARGIN_L + _CELL_W * len(thetas) + _MARGIN_R
    height = _MARGIN_T + _CELL_H * len(gammas) + _MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_MARGIN_L}" y="24" font-family="monospace" font-size="16" '
        f'fill="#000000">{title}</text>',
    ]
    for col, theta in enumerate(thetas):
        x = _MARGIN_L + col * _CELL_W + _CELL_W // 2
        parts.append(
            f'<text x="{x}" y="{_MARGIN_T - 10}" font-family="monospace" font-size="11" '
            f'fill="#000000" text-anchor="middle">{theta:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L - 8}" y="{_MARGIN_T - 26}" font-family="monospace" '
        f'font-size="11" fill="#000000" text-anchor="end">theta_deg</text>'
    )
    for row, gamma in enumerate(gammas):
        y = _MARGIN_T + row * _CELL_H + _CELL_H // 2 + 4
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y}" font-family="monospace" font-size="11" '
            f'fill="#000000" text-anchor="end">gamma={gamma:g}</text>'
        )
    for row, gamma in enumerate(gammas):
        for col, theta in enumerate(thetas):
            x = _MARGIN_L + col * _CELL_W
            y = _MARGIN_T + row * _CELL_H
            val = lookup.get((theta, gamma))
            if val is None:
                fill = "#cccccc"
                label = "n/a"
            else:
                frac = 0.5 if span == 0.0 else (val - lo) / span
                fill = _color(frac)
                label = f"{val:.3g}"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" '
                f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>'
            )
            text_fill = "#000000" if val is None else ("#ffffff" if frac < 0.55 else "#000000")
            parts.append(
                f'<text x="{x + _CELL_W // 2}" y="{y + _CELL_H // 2 + 4}" '
                f'font-family="monospace" font-size="11" fill="{text_fill}" '
                f'text-anchor="middle">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_plots(sweep_csv_path, out_dir) -> list:
    """One heatmap SVG per quantity; returns the written paths."""
    data = _read_sweep(sweep_csv_path)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for key, title in (
        ("psi_l_deg", "tip angle psi_l [deg]"),
        ("u_barr_unitless", "unitless energy barrier"),
    ):
        path = os.path.join(out_dir, f"{key}.svg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_svg_for(data, key, title))
        written.append(path)
    return written
