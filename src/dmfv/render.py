"""Static ASCII / SVG snapshots of the chip (replaces interactive viewing).

This module only draws; the states come from ``fluidics.ticks``.
"""

from __future__ import annotations

from .chip import ChipState
from .isa import Loc, RKind

_RES_GLYPH = {RKind.REAGENT: "R", RKind.OUTPUT: "O", RKind.WASTE: "W"}


def _mixer_cells(state: ChipState) -> tuple[set[Loc], set[Loc]]:
    ends: set[Loc] = set()
    interior: set[Loc] = set()
    for mx in state.mixers:
        ends.update((mx.a, mx.b))
        if mx.a.row == mx.b.row:
            lo, hi = sorted((mx.a.col, mx.b.col))
            interior.update(Loc(mx.a.row, c) for c in range(lo + 1, hi))
        else:
            lo, hi = sorted((mx.a.row, mx.b.row))
            interior.update(Loc(r, mx.a.col) for r in range(lo + 1, hi))
    return ends, interior


def ascii_frame(state: ChipState) -> str:
    ends, interior = _mixer_cells(state)
    det_cells = {d.loc for d in state.detectors.values()}
    rows = []
    for r in range(1, state.header.rows + 1):
        chars = []
        for c in range(1, state.header.cols + 1):
            loc = Loc(r, c)
            if loc in state.by_loc:
                chars.append("M" if loc in ends else "D")
            elif loc in interior:
                chars.append("=")
            elif loc in state.reservoirs:
                chars.append(_RES_GLYPH[state.reservoirs[loc].kind])
            elif loc in det_cells:
                chars.append("x")
            else:
                chars.append(".")
        rows.append(" ".join(chars))
    out = [f"t={state.t}"] + rows
    for loc in sorted(state.by_loc):
        droplet = state.by_loc[loc]
        out.append(f"  {loc} id={droplet.node} cf={droplet.cf}")
    for mx in state.mixers:
        out.append(f"  {mx.span()} type {mx.mtype.value}")
    for det in state.detections:
        out.append(f"  detect {det.detector} at {det.loc} until t={det.t_end}")
    return "\n".join(out) + "\n"


def svg_frame(state: ChipState) -> str:
    cell = 28   # side of one electrode, in pixels
    ends, interior = _mixer_cells(state)
    w = state.header.cols * cell
    h = state.header.rows * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">']
    for r in range(1, state.header.rows + 1):
        for c in range(1, state.header.cols + 1):
            loc = Loc(r, c)
            x, y = (c - 1) * cell, (r - 1) * cell
            fill = "#ffffff"
            if loc in interior:
                fill = "#fff3c4"
            if loc in state.reservoirs:
                fill = {"R": "#d8f0d8", "O": "#d8e4f8", "W": "#f4d8d8"}[
                    _RES_GLYPH[state.reservoirs[loc].kind]]
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{fill}" stroke="#888"/>')
            if loc in state.reservoirs:
                glyph = _RES_GLYPH[state.reservoirs[loc].kind]
                parts.append(f'<text x="{x + 3}" y="{y + 11}" font-size="9">{glyph}</text>')
    for loc in sorted(state.by_loc):
        x = (loc.col - 1) * cell + cell // 2
        y = (loc.row - 1) * cell + cell // 2
        color = "#3b6fd4" if loc in ends else "#444444"
        parts.append(f'<circle cx="{x}" cy="{y}" r="{cell // 3}" fill="{color}"/>')
        parts.append(f'<text x="{x - cell // 3}" y="{y - cell // 3 - 2}" '
                     f'font-size="8">{state.by_loc[loc].node}</text>')
    parts.append(f'<text x="2" y="{h - 4}" font-size="9">t={state.t}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

