"""Error taxonomy, violation records and report formatting.

Codes e1..e5 are design-constraint (Phase I) findings localized to a tick
and the offending instruction(s); e6/e7 are realization (Phase II) findings
carrying graph evidence.  Pin codes cover the shared-control-pin rules.
Rules build their ``Violation`` rows directly.  A row's consequence follows
its code (``CONSEQUENCE``); a pin row's consequence is its response.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .isa import Loc


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


@dataclass(frozen=True)
class Violation:
    code: Code
    response: str                       # verifier response column
    t: int | None = None
    instructions: tuple[str, ...] = ()  # compact source form, line order
    cells: tuple[Loc, ...] = ()
    pins: tuple[int, ...] = ()
    path: str | None = None             # execution-path label (cyberphysical)
    detail: str = ""
    secondary: bool = False             # possible cascade after an earlier failure

    @property
    def phase(self) -> int:
        return 2 if self.code in PHASE2_CODES else 1

    @property
    def consequence(self) -> str:
        return CONSEQUENCE.get(self.code, self.response)

    def instruction_text(self) -> str:
        return " ".join(self.instructions)


@dataclass
class Report:
    violations: list[Violation] = field(default_factory=list)
    final_t: int | None = None
    t_max: int | None = None
    notes: list[str] = field(default_factory=list)

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


def _violation_json(v: Violation) -> dict:
    return {
        "code": v.code.value,
        "phase": v.phase,
        "response": v.response,
        "cause": CAUSE.get(v.code, ""),
        "t": v.t,
        "instructions": list(v.instructions),
        "cells": [[c.row, c.col] for c in v.cells],
        "pins": sorted(v.pins),
        "consequence": v.consequence,
        "path": v.path,
        "detail": v.detail,
        "secondary": v.secondary,
    }


def _format_json(report: Report) -> str:
    doc = {
        "schema": "dmfv-report/1",
        "ok": report.ok,
        "final_t": report.final_t,
        "t_max": report.t_max,
        "tmax_exceeded": report.tmax_exceeded,
        "violations": [_violation_json(v) for v in report.violations],
        "notes": list(report.notes),
    }
    return json.dumps(doc, indent=2) + "\n"
