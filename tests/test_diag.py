import json

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


def test_tmax_row():
    report = Report(final_t=36, t_max=30)
    assert report.tmax_exceeded
    text = format_report(report, "text")
    assert "exceeds T_max" in text and "36 > 30" in text
    assert report.exit_code == 1
