import pytest

from dmfv.chip import init_state
from dmfv.diag import Code
from dmfv.fluidics import (EngineError, active_mixer_guard, check_dispense,
                           check_mix_start, check_move, check_output, check_waste,
                           mixer_conflicts, move_clearance_cells, sfc_conflicts,
                           state_at, static_fc, step, verify_program)
from dmfv.graph import CFVector
from dmfv.isa import (ChipHeader, Loc, MType, ReservoirDecl, RKind,
                      parse_program)

from conftest import load


def header(rows, cols, reservoirs=()):
    return ChipHeader(rows, cols, 5, tuple(reservoirs))


def state_with(rows, cols, locs, reservoirs=()):
    st = init_state(header(rows, cols, reservoirs))
    for i, loc in enumerate(locs):
        st, _ = st.add_droplet(f"n{i}", loc, CFVector.unit("S"), 0)
    return st


EXAMPLE_STATE = [Loc(3, 3), Loc(4, 1), Loc(5, 4)]   # recurring worked example


def test_static_fc_instance_on_6x6():
    st = state_with(6, 6, [Loc(3, 3)])
    assert static_fc(st, Loc(3, 3))
    # the constraint instance is the conjunction over the eight neighbors
    assert sfc_conflicts(st, Loc(3, 3)) == []
    st2 = state_with(6, 6, [Loc(3, 3), Loc(4, 4)])
    assert not static_fc(st2, Loc(3, 3))
    assert sfc_conflicts(st2, Loc(3, 3)) == [Loc(4, 4)]


def test_check_dispense_worked_example():
    res = (ReservoirDecl(Loc(1, 1), RKind.REAGENT, "S"),)
    ok = check_dispense(state_with(5, 4, EXAMPLE_STATE, res), Loc(1, 1))
    assert ok.ok
    bad = check_dispense(state_with(5, 4, EXAMPLE_STATE + [Loc(2, 2)], res), Loc(1, 1))
    assert not bad.ok
    assert bad.violation.code is Code.E1
    assert Loc(2, 2) in bad.violation.cells


def test_check_dispense_wrong_reservoir_is_e3():
    res = (ReservoirDecl(Loc(3, 1), RKind.REAGENT, "R1"),)
    v = check_dispense(state_with(15, 15, [], res), Loc(2, 1)).violation
    assert v.code is Code.E3
    assert v.response == "Dispense from invalid input reservoir"


def test_check_move_worked_examples():
    st = state_with(5, 4, EXAMPLE_STATE)
    up = check_move(st, Loc(3, 3), Loc(2, 3))
    assert up.ok
    assert move_clearance_cells(Loc(3, 3), Loc(2, 3)) == (
        Loc(1, 2), Loc(1, 3), Loc(1, 4))
    left = check_move(st, Loc(3, 3), Loc(3, 2))
    assert not left.ok
    assert Loc(4, 1) in left.violation.cells  # conflicts on that cell
    missing = check_move(st, Loc(2, 2), Loc(2, 3))
    assert missing.violation.code is Code.E4


def test_check_move_conflict_with_idle_droplet_is_static_in_context():
    st = state_with(5, 4, EXAMPLE_STATE)
    v = check_move(st, Loc(3, 3), Loc(3, 2), movers={Loc(3, 3): 0}).violation
    assert v.code is Code.E1    # the droplet on (4,1) stays put
    v = check_move(st, Loc(3, 3), Loc(3, 2), movers={Loc(3, 3): 0, Loc(4, 1): 1}).violation
    assert v.code is Code.E2    # both droplets in motion: dynamic


def test_check_mix_start_linear_instance():
    st = state_with(6, 6, [Loc(5, 2), Loc(5, 5)])
    assert check_mix_start(st, Loc(5, 2), Loc(5, 5), 12, MType.H14).ok
    # the 18-literal instance: 2 positive endpoints + 16 negated cells
    region = (st.n8(Loc(5, 2)) | st.n8(Loc(5, 5))) - {Loc(5, 2), Loc(5, 5)}
    expected = ({Loc(4, j) for j in range(1, 7)} | {Loc(6, j) for j in range(1, 7)}
                | {Loc(5, 1), Loc(5, 3), Loc(5, 4), Loc(5, 6)})
    assert region == expected
    assert mixer_conflicts(st, Loc(5, 2), Loc(5, 5)) == []


def test_check_mix_start_missing_droplets_is_e5():
    st = state_with(15, 15, [Loc(11, 3), Loc(11, 8)])
    v = check_mix_start(st, Loc(11, 4), Loc(11, 7), 6, MType.H14).violation
    assert v.code is Code.E5
    assert v.response == "Droplet is not present on (11,4) and (11,7)"


def test_check_mix_start_geometry():
    st = state_with(6, 6, [Loc(5, 2), Loc(5, 4)])
    v = check_mix_start(st, Loc(5, 2), Loc(5, 4), 12, MType.H14).violation
    assert v.code is Code.STRUCTURAL


def test_check_waste_and_output():
    res = (ReservoirDecl(Loc(5, 4), RKind.WASTE),
           ReservoirDecl(Loc(5, 1), RKind.OUTPUT),
           ReservoirDecl(Loc(1, 1), RKind.REAGENT, "S"))
    st = state_with(5, 4, [Loc(5, 4)], res)
    assert check_waste(st, Loc(5, 4)).ok
    assert check_waste(state_with(5, 4, [], res), Loc(5, 4)).violation.code is Code.E4
    assert check_output(st, Loc(5, 4)).violation.code is Code.E3
    assert check_waste(st, Loc(3, 3)).violation.code is Code.E3


def test_active_mixer_guard_trivial_and_violating():
    st = state_with(6, 6, [])
    assert active_mixer_guard(st).ok
    prog = parse_program(
        "dim(6,6)\naccuracy 5\nR(1,1,S) R(1,4,B)\n"
        "1 d(1,1) d(1,4)\n2 m([1,1]->[2,1]) m([1,4]->[2,4])\n"
        "3 m([2,1]->[3,1]) m([2,4]->[3,4])\n4 mix([3,1]<->[3,4],6,14)\n11 end\n")
    st = state_at(prog, 5)
    assert active_mixer_guard(st).ok
    st2, _ = st.add_droplet("X", Loc(4, 2), CFVector.unit("S"), 5)
    guard = active_mixer_guard(st2)
    assert not guard.ok and Loc(4, 2) in guard.violation.cells


def test_step_simultaneous_moves():
    prog = parse_program(load("twowaymix.dmf"))
    st = state_at(prog, 17)
    line = prog.line_at(18)
    result = step(st, line)
    assert result.violations == []
    assert result.state.occupied(Loc(2, 4)) and result.state.occupied(Loc(5, 4))


def test_step_rejects_conditionals():
    prog = parse_program(load("recovery.dmf"))
    st = init_state(prog.header, prog.detectors)
    with pytest.raises(EngineError):
        step(st, prog.line_at(15))


def test_empty_tick_gap_only_expires_mixers():
    prog = parse_program(
        "dim(6,6)\naccuracy 5\nR(1,1,S) R(1,4,B)\n"
        "1 d(1,1) d(1,4)\n2 m([1,1]->[2,1]) m([1,4]->[2,4])\n"
        "3 m([2,1]->[3,1]) m([2,4]->[3,4])\n4 mix([3,1]<->[3,4],3,14)\n20 end\n")
    before = state_at(prog, 7)
    after = state_at(prog, 15)
    assert before.mixers and not after.mixers
    assert sorted(after.by_loc) == [Loc(3, 1), Loc(3, 4)]
    assert sorted(before.by_loc) == sorted(after.by_loc)


def test_verify_twowaymix_clean_and_concentrations():
    prog = parse_program(load("twowaymix.dmf"))
    trace, report = verify_program(prog)
    assert report.ok and report.final_t == 36
    wasted = [e for e in trace.events if type(e).__name__ == "Wasted"]
    assert len(wasted) == 1
    assert wasted[0].cf.get("S") == 0.5           # 16/32 droplet to waste
    assert trace.outputs[0].cf.get("S") == 0.25   # 8/32 to the output
    # determinism: identical reports byte for byte
    from dmfv.diag import format_report
    _, again = verify_program(prog)
    assert format_report(report, "json") == format_report(again, "json")


def test_verify_flags_tmax():
    prog = parse_program(load("twowaymix.dmf"))
    _, report = verify_program(prog, t_max=30)
    assert report.tmax_exceeded and not report.ok
    _, report = verify_program(prog, t_max=40)
    assert report.ok


def test_double_dispense_same_cell_conflicts():
    prog = parse_program("dim(5,4)\naccuracy 5\nR(1,1,S)\n1 d(1,1) d(1,1)\n2 end\n")
    _, report = verify_program(prog)
    v = report.violations[0]
    assert v.code is Code.E1 and "double claim" in v.detail


def test_policy_all_reports_and_continues():
    prog = parse_program(
        "dim(5,4)\naccuracy 5\nR(1,1,S) R(1,4,B)\n"
        "1 d(1,1) d(2,2)\n2 m([1,1]->[2,1])\n3 end\n")
    _, first = verify_program(prog, policy="first")
    assert len(first.violations) == 1
    _, every = verify_program(prog, policy="all")
    assert len(every.violations) >= 1
    assert every.final_t == 3


def test_detector_pins_droplet():
    text = ("dim(6,6)\naccuracy 5\nR(1,1,S)\nD(d1,3,1,3)\n"
            "1 d(1,1)\n2 m([1,1]->[2,1])\n3 m([2,1]->[3,1])\n"
            "4 detect(d1)\n5 m([3,1]->[4,1])\n9 end\n")
    _, report = verify_program(parse_program(text))
    v = report.violations[0]
    assert v.code is Code.E4 and v.t == 5
    assert "under detection" in v.response
    # waiting out the detection window is fine
    ok_text = text.replace("5 m([3,1]->[4,1])", "7 m([3,1]->[4,1])")
    _, report = verify_program(parse_program(ok_text))
    assert report.ok


def test_detect_needs_droplet():
    text = ("dim(6,6)\naccuracy 5\nR(1,1,S)\nD(d1,3,1,2)\n"
            "1 d(1,1)\n2 detect(d1)\n5 end\n")
    _, report = verify_program(parse_program(text))
    v = report.violations[0]
    assert v.code is Code.E4 and "No droplet on detector d1" in v.response


def test_detect_on_busy_detector():
    text = ("dim(6,6)\naccuracy 5\nR(1,1,S)\nD(d1,3,1,3)\n"
            "1 d(1,1)\n2 m([1,1]->[2,1])\n3 m([2,1]->[3,1])\n"
            "4 detect(d1)\n5 detect(d1)\n9 end\n")
    _, report = verify_program(parse_program(text))
    v = report.violations[0]
    assert (v.code, v.t) == (Code.E4, 5) and "Detector d1 is busy" in v.response
    # once the window has closed the detector can measure again
    _, report = verify_program(parse_program(text.replace("5 detect", "7 detect")))
    assert report.ok


def test_mixer_endpoint_departure_is_e4():
    prog = parse_program(
        "dim(6,6)\naccuracy 5\nR(1,1,S) R(1,4,B)\n"
        "1 d(1,1) d(1,4)\n2 m([1,1]->[2,1]) m([1,4]->[2,4])\n"
        "3 m([2,1]->[3,1]) m([2,4]->[3,4])\n4 mix([3,1]<->[3,4],6,14)\n"
        "6 m([3,1]->[2,1])\n11 end\n")
    _, report = verify_program(prog)
    v = report.violations[0]
    assert (v.code, v.t) == (Code.E4, 6)
    assert v.response == "Droplet on (3,1) is in active mixer"


def test_global_check_catches_diagonal_landing():
    # two moves that pass their clearance triples but land corner to corner
    prog = parse_program(
        "dim(6,6)\naccuracy 5\nR(1,1,S) R(4,4,B)\n"
        "1 d(1,1) d(4,4)\n2 m([1,1]->[2,1]) m([4,4]->[3,4])\n"
        "3 m([2,1]->[2,2]) m([3,4]->[3,3])\n4 end\n")
    _, report = verify_program(prog)
    assert any(v.code is Code.E2 or v.code is Code.E1 for v in report.violations)
    ts = [v.t for v in report.violations]
    assert 3 in ts
