"""Error taxonomy, violation records and report formatting.

Codes e1..e5 are design-constraint (Phase I) findings localized to a tick
and the offending instruction(s); e6/e7 are realization (Phase II) findings
carrying graph evidence.  Pin codes cover the shared-control-pin rules.
Rules build their ``Violation`` rows directly.  A row's consequence follows
its code (``CONSEQUENCE``); a pin row's consequence is its response.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import NamedTuple

from .chip import MixerEntry
from .isa import Loc, Record, Value, value


class Code(Enum):
    E1 = "e1"
    E2 = "e2"
    E3 = "e3"
    E4 = "e4"
    E5 = "e5"
    E6 = "e6"
    E7 = "e7"
    PIN_CASE1 = "pin-case1"
    PIN_CASE2 = "pin-case2"
    PIN_CASE3 = "pin-case3"
    PIN_DISPENSE = "pin-dispense"
    STRUCTURAL = "structural"


# consequence vocabulary (design error -> consequence)
CONSEQUENCE = {
    Code.E1: "Unintentional mix of droplets",
    Code.E2: "Unintentional mix of droplets",
    Code.E3: "Incorrect fluidic operation",
    Code.E4: "Incorrect fluidic operation",
    Code.E5: "Droplet routing error or Incorrect fluidic operation",
    Code.E6: "Inhomogeneous mixing",
    Code.E7: "Incorrect realization of input assay",
    Code.STRUCTURAL: "Malformed actuation program",
}

# potential-cause strings for Phase II findings
CAUSE = {
    Code.E6: "Mixing performed for lesser time",
    Code.E7: "Wrong mix operation performed",
}

PHASE2_CODES = {Code.E6, Code.E7}


@value
class Violation(NamedTuple):
    code: Code
    response: str                       # verifier response column
    t: int | None = None
    instructions: tuple[str, ...] = ()  # compact source form, line order
    cells: tuple[Loc, ...] = ()
    pins: tuple[int, ...] = ()
    path: str | None = None             # execution-path label (cyberphysical)
    detail: str = ""
    secondary: bool = False             # possible cascade after an earlier failure
    # the mixer whose span ``detail`` words, so that a row shifted in time
    # re-words it: not part of the row's value, so out of its equality, hash
    # and repr (``_replace`` keeps it)
    mixer: MixerEntry | None = None

    __match_args__ = ("code", "response", "t", "instructions", "cells", "pins", "path",
                      "detail", "secondary")
    __hash__, __repr__ = Value.__hash__, Record.__repr__

    @property
    def phase(self) -> int:
        return 2 if self.code in PHASE2_CODES else 1

    @property
    def consequence(self) -> str:
        return CONSEQUENCE.get(self.code, self.response)

    def instruction_text(self) -> str:
        return " ".join(self.instructions)


class Report(Record):
    __slots__ = __match_args__ = ("violations", "final_t", "t_max", "notes")

    def __init__(self, violations: list[Violation] | None = None, final_t: int | None = None,
                 t_max: int | None = None, notes: list[str] | None = None) -> None:
        self.violations = [] if violations is None else violations
        self.final_t, self.t_max = final_t, t_max
        self.notes = [] if notes is None else notes

    @property
    def tmax_exceeded(self) -> bool:
        return (self.t_max is not None and self.final_t is not None
                and self.final_t > self.t_max)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.tmax_exceeded

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _phase_rows(report: Report, phase: int) -> list[Violation]:
    return [v for v in report.violations if v.phase == phase]


def format_report(report: Report, mode: str = "text") -> str:
    if mode == "json":
        return _format_json(report)
    if mode == "text":
        return _format_text(report)
    raise ValueError(f"unknown report mode {mode!r}")


def _row(v: Violation) -> str:
    parts = [f"{v.code.value:<5}", f"{v.response}"]
    if v.t is not None:
        parts.append(f"t={v.t}")
    if v.instructions:
        parts.append(v.instruction_text())
    if v.pins:
        parts.append("shared pin(s) {" + ",".join(str(p) for p in sorted(v.pins)) + "}")
    if v.path is not None:
        parts.append(f"path={v.path}")
    if v.detail:
        parts.append(f"[{v.detail}]")
    prefix = "* " if v.secondary else "  "
    return prefix + "  ".join(parts)


def _format_text(report: Report) -> str:
    lines: list[str] = []
    p1, p2 = _phase_rows(report, 1), _phase_rows(report, 2)
    if p1:
        lines.append("Phase I - Design constraint checking")
        lines.extend(_row(v) for v in p1)
    if p2:
        lines.append("Phase II - Realization error checking")
        for v in p2:
            cause = CAUSE.get(v.code, "")
            extra = f"  {cause}" if cause else ""
            lines.append(_row(v) + extra)
    if report.tmax_exceeded:
        lines.append(f"  tmax  Completion time exceeds T_max  final t={report.final_t} > {report.t_max}")
    for note in report.notes:
        lines.append(f"  note  {note}")
    if report.ok:
        final = f", completed at t={report.final_t}" if report.final_t is not None else ""
        lines.append(f"PASS{final}")
    else:
        lines.append(f"FAIL ({len(report.violations)} violation(s))")
    return "\n".join(lines) + "\n"


# JSON strings as ``json.dumps`` writes them by default (ASCII only), by
# the standard library's C encoder when it has one
_string = json.encoder.encode_basestring_ascii


def _json_int(x: int | None) -> str:
    return "null" if x is None else str(x)


def _json_array(items: list[str], pad: str) -> str:
    """A JSON array of encoded items, laid out as ``json.dumps(indent=2)``
    lays it out with its closing bracket at ``pad``."""
    if not items:
        return "[]"
    sep = ",\n" + pad + "  "
    return "[" + sep[1:] + sep.join(items) + "\n" + pad + "]"


def _violation_json(v: Violation, out: list[str]) -> None:
    """Append a row, as an item of the "violations" array, to ``out``."""
    pad = "      "
    out += (
        '{\n      "code": ', _string(v.code.value), ',\n      "phase": ', str(v.phase),
        ',\n      "response": ', _string(v.response),
        ',\n      "cause": ', _string(CAUSE.get(v.code, "")), ',\n      "t": ', _json_int(v.t),
        ',\n      "instructions": ', _json_array([_string(i) for i in v.instructions], pad),
        ',\n      "cells": ', _json_array([_json_array([str(c.row), str(c.col)], pad + "  ")
                                          for c in v.cells], pad),
        ',\n      "pins": ', _json_array([str(p) for p in sorted(v.pins)], pad),
        ',\n      "consequence": ', _string(v.consequence),
        ',\n      "path": ', "null" if v.path is None else _string(v.path),
        ',\n      "detail": ', _string(v.detail),
        ',\n      "secondary": ', "true" if v.secondary else "false", "\n    }")


def _format_json(report: Report) -> str:
    """The report as ``json.dumps(doc, indent=2)`` would write it, written
    piece by piece: with an indent the standard library runs its slow,
    pure-Python encoder.  ``tests/test_diag.py`` holds that document.  The
    pieces are small strings joined once, as ``json.dumps`` joins them; a
    string per row raised the process's peak memory."""
    out = ['{\n  "schema": "dmfv-report/1",\n  "ok": ', "true" if report.ok else "false",
           ',\n  "final_t": ', _json_int(report.final_t),
           ',\n  "t_max": ', _json_int(report.t_max),
           ',\n  "tmax_exceeded": ', "true" if report.tmax_exceeded else "false",
           ',\n  "violations": ']
    sep = "[\n    "
    for v in report.violations:
        out.append(sep)
        _violation_json(v, out)
        sep = ",\n    "
    out += ("\n  ]" if report.violations else "[]",
            ',\n  "notes": ', _json_array([_string(n) for n in report.notes], "  "), "\n}\n")
    return "".join(out)
