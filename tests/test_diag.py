import json
import random

import pytest

from dmfv.diag import CAUSE, CONSEQUENCE, Code, Report, Violation, format_report
from dmfv.isa import Loc


def test_classification_table():
    v = Violation(Code.E1, "Static fluidic constraint violated", t=27,
                  instructions=("m(11,8,12,8)",))
    assert v.consequence == "Unintentional mix of droplets"
    assert v.phase == 1
    e6 = Violation(Code.E6, "Inhomogeneous mixing")
    assert e6.phase == 2
    assert CAUSE[Code.E6] == "Mixing performed for lesser time"
    e7 = Violation(Code.E7, "Incorrect realization of input sequencing graph")
    assert CAUSE[Code.E7] == "Wrong mix operation performed"
    assert CONSEQUENCE[Code.E7] == "Incorrect realization of input assay"


def test_localization_fields():
    v = Violation(Code.E4, "Droplet on (5,5) is in active mixer", t=28,
                  instructions=("m(5,5,5,4)",), cells=(Loc(5, 5),))
    assert (v.t, v.instruction_text()) == (28, "m(5,5,5,4)")


def test_text_report_mirrors_two_phase_layout():
    report = Report(final_t=34)
    report.violations = [
        Violation(Code.E1, "Static fluidic constraint violated", t=27,
                  instructions=("m(11,8,12,8)",)),
        Violation(Code.E6, "Inhomogeneous mixing", detail="v1 mixed for 4 < 6 time units"),
    ]
    text = format_report(report, "text")
    assert "Phase I - Design constraint checking" in text
    assert "Phase II - Realization error checking" in text
    assert "Mixing performed for lesser time" in text
    assert text.index("Phase I") < text.index("Phase II")


def test_empty_report_is_pass_with_final_t():
    text = format_report(Report(final_t=34), "text")
    assert text.strip() == "PASS, completed at t=34"


def test_json_report_schema_and_stability():
    report = Report(final_t=69, t_max=70)
    report.violations = [
        Violation(Code.PIN_CASE3, "Droplet stuck on (13,11)", t=56,
                  instructions=("m(5,13,6,13)", "m(13,11,13,10)"),
                  pins=(7,), path="11")]
    a = format_report(report, "json")
    assert a == format_report(report, "json")
    doc = json.loads(a)
    assert doc["schema"] == "dmfv-report/1"
    assert doc["ok"] is False
    row = doc["violations"][0]
    assert row["code"] == "pin-case3"
    assert row["pins"] == [7]
    assert row["path"] == "11"
    assert list(row) == ["code", "phase", "response", "cause", "t", "instructions",
                         "cells", "pins", "consequence", "path", "detail",
                         "secondary"]


def test_multi_path_rows_keep_labels():
    report = Report()
    for label in ("01", "11"):
        report.violations.append(
            Violation(Code.E1, "Static fluidic constraint violated", t=20,
                      instructions=("m(7,4,7,3)",), path=label))
    text = format_report(report, "text")
    assert "path=01" in text and "path=11" in text


def test_format_report_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="^unknown report mode 'xml'$"):
        format_report(Report(), "xml")


def test_tmax_row():
    report = Report(final_t=36, t_max=30)
    assert report.tmax_exceeded
    text = format_report(report, "text")
    assert "exceeds T_max" in text and "36 > 30" in text
    assert report.exit_code == 1


# --- the JSON writer against json.dumps (oracle) --------------------------------

def _violation_doc(v: Violation) -> dict:
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


def _dumped(report: Report) -> str:
    """The JSON report as the standard library writes its document."""
    doc = {
        "schema": "dmfv-report/1",
        "ok": report.ok,
        "final_t": report.final_t,
        "t_max": report.t_max,
        "tmax_exceeded": report.tmax_exceeded,
        "violations": [_violation_doc(v) for v in report.violations],
        "notes": list(report.notes),
    }
    return json.dumps(doc, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII (one outside the BMP)
_AWKWARD = ('"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "µ", "—", "\u2028", "😀",
            "m(1,2,1,3)", "path 01: mixer still active", "", " ")


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_AWKWARD) for _ in range(rng.randint(0, 4)))


def _random_report(rng: random.Random) -> Report:
    rows = []
    for _ in range(rng.choice((0, 1, 1, 3, 6))):
        rows.append(Violation(
            rng.choice(list(Code)), _text(rng),
            t=rng.choice((None, 0, 7, 12345)),
            instructions=tuple(_text(rng) for _ in range(rng.choice((0, 1, 3)))),
            cells=tuple(Loc(rng.randint(0, 60), rng.randint(0, 60))
                        for _ in range(rng.choice((0, 1, 2)))),
            pins=tuple(rng.randint(1, 999) for _ in range(rng.choice((0, 1, 3)))),
            path=rng.choice((None, "", "0", "0110")),
            detail=_text(rng), secondary=rng.random() < 0.3))
    return Report(rows, final_t=rng.choice((None, 0, 69)), t_max=rng.choice((None, 30, 70)),
                  notes=[_text(rng) for _ in range(rng.choice((0, 1, 2)))])


def test_json_writer_matches_json_dumps_on_random_reports():
    rng = random.Random(404)
    seen = set()
    for _ in range(2000):
        report = _random_report(rng)
        assert format_report(report, "json") == _dumped(report)
        seen.update(v.code for v in report.violations)
        seen.update(("t", v.t is None) for v in report.violations)
        seen.add(("ok", report.ok, report.tmax_exceeded))
    assert set(Code) <= seen
    assert {("t", True), ("t", False), ("ok", True, False), ("ok", False, True)} <= seen

