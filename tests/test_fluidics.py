import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from dmfv import fluidics, inject
from dmfv.branches import verify_all_paths
from dmfv.cli import main
from dmfv.chip import (ChipState, DetectionEntry, MixerEntry,
                       expire_detections, expire_mixers, init_state)
from dmfv.diag import Code, format_report
from dmfv.fluidics import Cursor, EngineError, state_at, step, ticks, verify_program
from dmfv.graph import CFVector
from dmfv.isa import (ChipHeader, DetectorDecl, DetectStart, Dispense, DmfError, Loc,
                      MixStart, Move, MType, Output, ReservoirDecl, RKind, TimedLine,
                      ValidationError, Waste, parse_program, serialize_program)
from dmfv.pins import parse_pins

from conftest import (REPLAYED, count_checked_lines, count_memo_hits, dedicated_map,
                      finished_runs, fractions_of, line_at, load, memo_step, mutant,
                      path_verdicts, stepped_paths, with_droplet, without_bulk, without_memo)
from test_acceptance import _random_walk
from test_branches import _HELD_Q, _OUTPUT_FIRST, _TWO_LAST, _detour_chain
from test_cli import _DMF_FIXTURES, _fixture_verify_argvs, _mutate_dmf
from test_oracle import (check, move_clearance_cells, neighbors8, separation_partners,
                         static_fc)
from test_pins import random_pin_maps


def header(rows, cols, reservoirs=()):
    return ChipHeader(rows, cols, 5, tuple(reservoirs))


def state_with(rows, cols, locs, reservoirs=()):
    st = init_state(header(rows, cols, reservoirs))
    for i, loc in enumerate(locs):
        st = with_droplet(st, f"n{i}", loc, CFVector.unit("S"))
    return st


EXAMPLE_STATE = [Loc(3, 3), Loc(4, 1), Loc(5, 4)]   # recurring worked example


def test_static_fc_instance_on_6x6():
    st = state_with(6, 6, [Loc(3, 3)])
    assert static_fc(st, Loc(3, 3))
    # the constraint instance is the conjunction over the eight neighbors
    assert separation_partners(st, Loc(3, 3)) == []
    st2 = state_with(6, 6, [Loc(3, 3), Loc(4, 4)])
    assert not static_fc(st2, Loc(3, 3))
    assert separation_partners(st2, Loc(3, 3)) == [Loc(4, 4)]


def test_check_dispense_worked_example():
    res = (ReservoirDecl(Loc(1, 1), RKind.REAGENT, "S"),)
    ok = check(state_with(5, 4, EXAMPLE_STATE, res), Dispense(Loc(1, 1)))
    assert ok is None
    bad = check(state_with(5, 4, EXAMPLE_STATE + [Loc(2, 2)], res), Dispense(Loc(1, 1)))
    assert bad is not None
    assert bad.code is Code.E1
    assert Loc(2, 2) in bad.cells


def test_check_dispense_wrong_reservoir_is_e3():
    res = (ReservoirDecl(Loc(3, 1), RKind.REAGENT, "R1"),)
    v = check(state_with(15, 15, [], res), Dispense(Loc(2, 1)))
    assert v.code is Code.E3
    assert v.response == "Dispense from invalid input reservoir"


def test_check_move_worked_examples():
    st = state_with(5, 4, EXAMPLE_STATE)
    up = check(st, Move(Loc(3, 3), Loc(2, 3)))
    assert up is None
    assert move_clearance_cells(Loc(3, 3), Loc(2, 3)) == (
        Loc(1, 2), Loc(1, 3), Loc(1, 4))
    left = check(st, Move(Loc(3, 3), Loc(3, 2)))
    assert left is not None
    assert Loc(4, 1) in left.cells  # conflicts on that cell
    missing = check(st, Move(Loc(2, 2), Loc(2, 3)))
    assert missing.code is Code.E4


def test_check_move_conflict_with_idle_droplet_is_static_in_context():
    st = state_with(5, 4, EXAMPLE_STATE)
    left = Move(Loc(3, 3), Loc(3, 2))
    v = check(st, left, TimedLine(1, (left,)))
    assert v.code is Code.E1    # the droplet on (4,1) stays put
    v = check(st, left, TimedLine(1, (left, Move(Loc(4, 1), Loc(5, 1)))))
    assert v.code is Code.E2    # both droplets in motion: dynamic


def test_check_mix_start_linear_instance():
    st = state_with(6, 6, [Loc(5, 2), Loc(5, 5)])
    # passing means every one of the 16 negated cells below is free
    assert check(st, MixStart(Loc(5, 2), Loc(5, 5), 12, MType.H14)) is None
    # the 18-literal instance: 2 positive endpoints + 16 negated cells
    region = (neighbors8(Loc(5, 2), 6, 6) | neighbors8(Loc(5, 5), 6, 6)) - {Loc(5, 2), Loc(5, 5)}
    expected = ({Loc(4, j) for j in range(1, 7)} | {Loc(6, j) for j in range(1, 7)}
                | {Loc(5, 1), Loc(5, 3), Loc(5, 4), Loc(5, 6)})
    assert region == expected


def test_check_mix_start_missing_droplets_is_e5():
    st = state_with(15, 15, [Loc(11, 3), Loc(11, 8)])
    v = check(st, MixStart(Loc(11, 4), Loc(11, 7), 6, MType.H14))
    assert v.code is Code.E5
    assert v.response == "Droplet is not present on (11,4) and (11,7)"


def test_check_mix_start_geometry():
    st = state_with(6, 6, [Loc(5, 2), Loc(5, 4)])
    v = check(st, MixStart(Loc(5, 2), Loc(5, 4), 12, MType.H14))
    assert v.code is Code.STRUCTURAL


def test_check_waste_and_output():
    res = (ReservoirDecl(Loc(5, 4), RKind.WASTE),
           ReservoirDecl(Loc(5, 1), RKind.OUTPUT),
           ReservoirDecl(Loc(1, 1), RKind.REAGENT, "S"))
    st = state_with(5, 4, [Loc(5, 4)], res)
    assert check(st, Waste(Loc(5, 4))) is None
    assert check(state_with(5, 4, [], res), Waste(Loc(5, 4))).code is Code.E4
    assert check(st, Output(Loc(5, 4))).code is Code.E3
    assert check(st, Waste(Loc(3, 3))).code is Code.E3


# one droplet on (3,2), the endpoint of a 1x4 mixer and the cell of detector d1,
# consumed twice on one line: the second instruction's row, as each kind words it
_CONSUMERS = {"move": Move(Loc(3, 2), Loc(2, 2)),
              "mix": MixStart(Loc(3, 2), Loc(3, 5), 4, MType.H14),
              "waste": Waste(Loc(3, 2)), "output": Output(Loc(3, 2)),
              "detect": DetectStart("d1")}
_SECOND_ROW = {
    "move": (Code.E4, "Droplet on (3,2) is used by a concurrent instruction", ""),
    "mix": (Code.E5, "Droplet is not present on (3,2)",
            "endpoint droplet consumed by a concurrent instruction"),
    "waste": (Code.E4, "No droplet present on (3,2)",
              "droplet consumed by a concurrent instruction"),
    "output": (Code.E4, "No droplet present on (3,2)",
               "droplet consumed by a concurrent instruction"),
    "detect": (Code.E4, "No droplet on detector d1 at (3,2)", ""),
}
_TEXT = {"move": "m(3,2,2,2)", "mix": "mix(3,2,3,5,4,14)", "waste": "waste(3,2)",
         "output": "output(3,2)", "detect": "detect(d1)"}


@pytest.mark.parametrize("first", sorted(_CONSUMERS))
@pytest.mark.parametrize("second", sorted(_CONSUMERS))
def test_droplet_consumed_by_two_instructions(first, second):
    # the sink kind of the cell lets a first waste or output pass
    kind = {"waste": RKind.WASTE, "output": RKind.OUTPUT}.get(first, RKind.WASTE)
    st = init_state(header(6, 7, [ReservoirDecl(Loc(3, 2), kind)]),
                    (DetectorDecl("d1", Loc(3, 2), 2),))
    for node, loc in (("A", Loc(3, 2)), ("B", Loc(3, 5))):
        st = with_droplet(st, node, loc, CFVector.unit(node))
    result = step(st, TimedLine(1, (_CONSUMERS[first], _CONSUMERS[second])))
    [v] = result.violations
    code, response, detail = _SECOND_ROW[second]
    # only a move names the instruction that took the droplet first
    texts = (_TEXT[first], _TEXT[second]) if second == "move" else (_TEXT[second],)
    assert (v.code, v.response, v.t, v.instructions, v.cells, v.detail) == (
        code, response, 1, texts, (Loc(3, 2),), detail)
    assert result.state.by_loc == st.by_loc     # the failing line leaves the chip as it was


def test_step_simultaneous_moves():
    prog = parse_program(load("twowaymix.dmf"))
    st = state_at(prog, 17)
    line = line_at(prog, 18)
    result = step(st, line)
    assert result.violations == []
    assert Loc(2, 4) in result.state.by_loc and Loc(5, 4) in result.state.by_loc


def count_bulk_passes(monkeypatch) -> list:
    """The instruction tuples of the lines that the bulk pass (the one-pass
    transport, ``_transport``) accepts, in step order."""
    passed = []
    real = fluidics._transport

    def recorded(snapshot, instrs, t):
        new = real(snapshot, instrs, t)
        if new is not None:
            passed.append(instrs)
        return new
    monkeypatch.setattr(fluidics, "_transport", recorded)
    return passed


def test_consumes_runs_once_per_instruction_per_step(monkeypatch):
    # every line the bulk pass hands back to the per-instruction path reads
    # each instruction's consumed cells once; a line it passes reads none
    calls = [0]
    for kind, rule in list(fluidics.RULES.items()):
        def counted(state, instr, consumes=rule.consumes):
            calls[0] += 1
            return consumes(state, instr)
        monkeypatch.setitem(fluidics.RULES, kind, rule._replace(consumes=counted))
    bulk = count_bulk_passes(monkeypatch)
    for name in ("pcr.dmf", "twowaymix.dmf", "threeway_bad.dmf"):
        prog = parse_program(load(name))
        every = sum(type(instr) in fluidics.RULES for line in prog.main for instr in line.instrs)
        # the bulk pass passes lines of moves with and without a pin map
        for pin_map in (None, dedicated_map(prog.header.rows, prog.header.cols)):
            calls[0] = 0
            bulk.clear()
            verify_program(prog, policy="all", pin_map=pin_map)
            assert calls[0] == every - sum(map(len, bulk)), name
            assert bulk, name
            calls[0] = 0
            without_bulk(verify_program, prog, policy="all", pin_map=pin_map)
            assert calls[0] == every, name


# Sinks and detectors share cells, so that wastes, outputs and detections
# meet droplets that a mixer or a detection holds.
_PINNED_HEADER = ChipHeader(7, 7, 5, (
    ReservoirDecl(Loc(1, 1), RKind.REAGENT, "A"), ReservoirDecl(Loc(7, 7), RKind.REAGENT, "B"),
    ReservoirDecl(Loc(1, 7), RKind.WASTE), ReservoirDecl(Loc(4, 1), RKind.WASTE),
    ReservoirDecl(Loc(7, 1), RKind.OUTPUT), ReservoirDecl(Loc(4, 7), RKind.OUTPUT)))
_PINNED_DETECTORS = tuple(DetectorDecl(f"d{i}", loc, 2 + i % 3) for i, loc in enumerate(
    (Loc(1, 7), Loc(4, 1), Loc(7, 1), Loc(4, 7), Loc(1, 4), Loc(4, 4), Loc(7, 4))))


def _consumer(rng, state, cell):
    """A random instruction that takes up the droplet on ``cell``: a detection
    or a mix where one is possible, else a move, a waste or an output."""
    detectors = [d.id for d in _PINNED_DETECTORS if d.loc == cell]
    if detectors and rng.random() < 0.5:
        return DetectStart(detectors[0])
    partners = [(other, mtype) for other, mtype in ((Loc(cell.row, cell.col + 3), MType.H14),
                                                    (Loc(cell.row + 3, cell.col), MType.V41))
                if other in state.by_loc]
    if partners and rng.random() < 0.7:
        other, mtype = rng.choice(partners)
        return MixStart(cell, other, rng.randrange(2, 6), mtype)
    if rng.random() < 0.3:
        sink = state.reservoirs.get(cell)
        return (Output if sink is not None and sink.kind is RKind.OUTPUT else Waste)(cell)
    dr, dc = rng.choice(((-1, 0), (1, 0), (0, -1), (0, 1)))
    dst = Loc(cell.row + dr, cell.col + dc)
    return Move(cell, dst) if state.header.in_bounds(dst) else None


def _pinned_walk(seed, advance):
    """One seeded 80-tick walk on the pinned chip.  Each tick's line is drawn
    from the state before it and stepped by ``advance(state, line)``; yields
    each step's result."""
    rng = random.Random(seed)
    state = init_state(_PINNED_HEADER, _PINNED_DETECTORS)
    for t in range(1, 81):
        instrs = [Dispense(rng.choice((Loc(1, 1), Loc(7, 7))))] if rng.random() < 0.5 else []
        pinned = {c for mx in state.mixers for c in (mx.a, mx.b)}
        pinned |= {det.loc for det in state.detections}
        for cell in sorted(state.by_loc):
            if rng.random() < (0.7 if cell in pinned else 0.5):
                instr = _consumer(rng, state, cell)
                if instr is not None:
                    instrs.append(instr)
        rng.shuffle(instrs)
        result = advance(state, TimedLine(t, tuple(instrs)))
        yield result
        state = result.state


def test_pinned_droplets_stay_on_their_cells_under_policy_all():
    # The chip names a droplet by its cell, which is exact only while every
    # droplet that a mixer or a detection holds stays where it was taken up.
    seen = Counter()
    for seed in range(30):
        held = {}
        for result in _pinned_walk(seed, lambda state, line: step(state, line, policy="all")):
            state, t = result.state, result.state.t
            seen["e4 on a held droplet"] += sum(
                v.code is Code.E4 and ("in active mixer" in v.response
                                       or "under detection" in v.response)
                for v in result.violations)
            for entry in (*state.mixers, *state.detections):
                cells = (entry.a, entry.b) if hasattr(entry, "a") else (entry.loc,)
                assert all(c in state.by_loc for c in cells), (seed, t, entry)
                droplets = tuple(state.by_loc[c] for c in cells)
                first = held.setdefault(entry, droplets)
                assert all(a is b for a, b in zip(first, droplets)), (seed, t, entry)
                seen["mixer ticks" if len(cells) == 2 else "detection ticks"] += 1
    assert all(seen[k] >= 100 for k in ("e4 on a held droplet", "mixer ticks",
                                       "detection ticks")), seen


def test_step_rejects_conditionals():
    prog = parse_program(load("recovery.dmf"))
    st = init_state(prog.header, prog.detectors)
    with pytest.raises(EngineError):
        step(st, line_at(prog, 15))


def test_cursor_refuses_an_unknown_policy():
    prog = parse_program(load("twowaymix.dmf"))
    with pytest.raises(EngineError, match="^unknown violation policy 'last'$"):
        Cursor(prog, policy="last")


def test_verify_program_refuses_a_conditional_program():
    # the path walk expands a conditional program; the CLI never hands one here
    with pytest.raises(EngineError, match="^program has conditional calls"):
        verify_program(parse_program(load("recovery.dmf")))


def test_step_refuses_a_line_before_the_current_tick():
    # a library guard: validation keeps a program's lines in time order
    # (NonMonotonicTime), so only a direct caller of step can go back
    st = state_with(4, 4, [Loc(2, 2)]).at_tick(5)
    for line in (TimedLine(3, (Move(Loc(2, 2), Loc(2, 3)),)), TimedLine(4, ())):
        with pytest.raises(EngineError, match=f"^line at t={line.t} precedes current "
                                              "state t=5$"):
            step(st, line)
        with pytest.raises(EngineError, match=f"^line at t={line.t} precedes current "
                                              "state t=5$"):
            memo_step({})(st, line)     # a cursor's line, in the same words
    assert step(st, TimedLine(5, ())).state.t == 5


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
    assert fractions_of(wasted[0].cf)["S"] == 0.5           # 16/32 droplet to waste
    outputs = [e for e in trace.events if type(e).__name__ == "Outputted"]
    assert fractions_of(outputs[0].cf)["S"] == 0.25         # 8/32 to the output
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


def replay_state_at(program, t):
    """State right after tick t by replaying every line from t=1 (oracle).

    This is the ``state_at`` that ``ticks`` replaced: lines up to t step on
    the state of the previous line, a failing line returns the state it
    found, and the mixers and detections due by t resolve at the end.
    """
    state = init_state(program.header, program.detectors)
    for line in program.main:
        if line.t > t:
            break
        result = step(state, line)
        if result.violations:
            return result.state
        state = result.state
    state, _ = expire_mixers(state, t)
    return expire_detections(state, t).at_tick(t)


_LANES = (1, 4, 7, 10)


def lane_program(rng):
    """A random program on a 9x10 chip, with gaps of 1-4 ticks between lines.

    Droplets ride four columns three apart, so lanes never touch; droplets
    of neighbouring lanes that share a row may mix, lane 7 passes detector
    d1 on row 5, and row 9 holds the sinks.  Mixers and detections often
    end between two lines.  Half the programs get one failing instruction.
    """
    dur = rng.randrange(1, 5)
    head = ["dim(9,10)", "accuracy 5",
            "R(1,1,A) R(1,4,B) R(1,7,A) R(1,10,B) W(9,1) O(9,4) W(9,7) O(9,10)",
            f"D(d1,5,7,{dur})"]
    pos = dict.fromkeys(_LANES)          # lane -> row of its droplet
    free_at = dict.fromkeys(_LANES, 0)   # first tick the droplet may act
    n_lines = rng.randrange(8, 22)
    fault_at = rng.randrange(n_lines) if rng.random() < 0.5 else None
    t = rng.choice((0, 1, 1, 1))
    lines = []
    for k in range(n_lines):
        instrs, used = [], set()
        for a, b in zip(_LANES, _LANES[1:]):
            if (a not in used and pos[a] is not None and pos[a] == pos[b]
                    and max(free_at[a], free_at[b]) <= t and rng.random() < 0.6):
                t_mix = rng.randrange(1, 6)
                instrs.append(f"mix([{pos[a]},{a}]<->[{pos[b]},{b}],{t_mix},14)")
                used.update((a, b))
                free_at[a] = free_at[b] = t + t_mix + 1
        for c in _LANES:
            r = pos[c]
            if c in used or rng.random() < 0.3:
                continue
            if r is None:
                instrs.append(f"d(1,{c})")
                pos[c] = 1
            elif free_at[c] > t:
                continue
            elif r == 9:
                instrs.append(f"{'waste' if c in (1, 7) else 'output'}(9,{c})")
                pos[c] = None
            elif c == 7 and r == 5 and rng.random() < 0.5:
                instrs.append("detect(d1)")
                free_at[c] = t + dur
            else:
                step_r = 1 if r < 3 or rng.random() < 0.7 else -1
                instrs.append(f"m([{r},{c}]->[{r + step_r},{c}])")
                pos[c] = r + step_r
        if k == fault_at:
            r = rng.randrange(2, 9)
            instrs.append(rng.choice((f"m([{r},2]->[{r + 1},2])", f"d({r},3)")))
        if instrs:
            lines.append(f"{t} " + " ".join(instrs))
        t += rng.choice((1, 1, 2, 3, 4))
    lines.append(f"{t} end")
    return parse_program("\n".join(head + lines) + "\n")


def test_ticks_match_replay_oracle(fixtures):
    rng = random.Random(8086)
    programs = [parse_program(load(name)) for name in
                ("pcr.dmf", "twowaymix.dmf", "mplex.dmf", "threeway_bad.dmf")]
    programs += [lane_program(rng) for _ in range(30)]
    seen = Counter()
    for prog in programs:
        last = prog.main[-1].t
        line_ticks = {ln.t for ln in prog.main}
        _, report = verify_program(prog)
        bad_t = report.violations[0].t if report.violations else None
        frames = list(ticks(prog, last + 3))
        first = 0 if 0 in line_ticks else 1
        stop = last + 3 if bad_t is None else bad_t
        assert [t for t, _ in frames] == list(range(first, stop + 1))
        prev = None
        for t, state in frames:
            want = replay_state_at(prog, t)
            assert (state.by_loc, state.mixers, state.detections) == (
                want.by_loc, want.mixers, want.detections), (t, prog)
            # a failing tick shows the state its line found, one tick earlier
            assert state.t == (max(t - 1, 0) if t == bad_t else t)
            if prev is not None and t not in line_ticks:
                seen["idle mixer ends"] += len(prev.mixers) - len(state.mixers)
                seen["idle detection ends"] += len(prev.detections) - len(state.detections)
            seen["mixer ticks"] += bool(state.mixers)
            seen["detection ticks"] += bool(state.detections)
            prev = state
        seen["failing"] += bad_t is not None
        seen["line at t=0"] += first == 0
        for t in {0, first, last // 2, last, last + 3, stop}:
            state, want = state_at(prog, t), replay_state_at(prog, t)
            assert (state.by_loc, state.mixers, state.detections) == (
                want.by_loc, want.mixers, want.detections)
            assert state.t == (frames[-1][1].t if bad_t is not None and t >= bad_t else t)
    assert all(seen[k] >= 3 for k in ("idle mixer ends", "idle detection ends",
                                      "mixer ticks", "detection ticks",
                                      "failing", "line at t=0")), seen
    assert seen["failing"] <= len(programs) - 10, seen


def test_idle_ticks_share_the_droplet_index(monkeypatch):
    copies = [0]
    real = ChipState.copy

    def counted(self):
        copies[0] += 1
        return real(self)

    monkeypatch.setattr(ChipState, "copy", counted)
    # a mixer runs over the first idle ticks; no idle tick after it is due
    prog = parse_program("dim(8,8)\naccuracy 2\nR(1,1,S) R(1,4,B)\n1 d(1,1) d(1,4)\n"
                         "2 mix([1,1]<->[1,4],6,14)\n3000 end\n")
    frames = list(ticks(prog))
    assert [t for t, _ in frames] == list(range(1, 3001))
    # one copy per line and one where the mixer completes, none per idle tick
    assert copies[0] == 4
    after_mix = frames[8][1]
    assert after_mix.t == 9 and not after_mix.mixers
    assert all(state.by_loc is after_mix.by_loc for _, state in frames[8:-1])
    copies[0] = 0
    assert state_at(prog, 2999).by_loc == after_mix.by_loc and copies[0] == 3


def replay_move_candidates(program, want_dynamic):
    """The injection search with each line's state replayed from t=1 (oracle)."""
    lines = {ln.t: ln for ln in program.main}
    for t in range(1, program.main[-1].t + 1):
        state, _ = expire_mixers(replay_state_at(program, t - 1), t)
        state = expire_detections(state, t)
        for src, dst in inject._sites(state, lines.get(t), want_dynamic=want_dynamic):
            yield t, src, dst


def test_injection_search_matches_replay_in_one_pass(monkeypatch):
    calls = [0]
    real = fluidics.step

    def counted(*args, **kw):
        calls[0] += 1
        return real(*args, **kw)

    monkeypatch.setattr(fluidics, "step", counted)
    for name in ("pcr.dmf", "twowaymix.dmf", "threeway_bad.dmf"):
        prog = parse_program(load(name))
        for want_dynamic in (False, True):
            calls[0] = 0
            hits = list(inject._move_candidates(prog, want_dynamic=want_dynamic))
            assert calls[0] <= len(prog.main), (name, want_dynamic)   # one step per line
            assert hits and hits == list(replay_move_candidates(prog, want_dynamic))


def test_injection_search_skips_idle_ticks_that_change_nothing(monkeypatch):
    scans = []
    real = inject._sites
    monkeypatch.setattr(inject, "_sites", lambda *a, **kw: scans.append(a[0].t) or real(*a, **kw))
    # a lone droplet has no site: only the lines' ticks and the first idle tick are scanned
    lone = parse_program("dim(6,6)\naccuracy 2\nR(1,1,S)\n1 d(1,1)\n3000 end\n")
    assert list(inject._move_candidates(lone, want_dynamic=False)) == []
    assert len(scans) == 3
    # the mixer frees (1,4) on the idle tick t=9, and it may then land next to
    # X, which a detection holds throughout
    held = parse_program("dim(8,8)\naccuracy 2\nR(1,1,S) R(1,4,B) R(3,3,S)\nD(dx,3,3,60)\n"
                         "1 d(1,1) d(1,4) d(3,3)\n2 mix([1,1]<->[1,4],6,14) detect(dx)\n"
                         "40 m([1,1]->[1,2])\n41 end\n")
    hits = list(inject._move_candidates(held, want_dynamic=False))
    assert hits[0][0] == 9
    assert hits == list(replay_move_candidates(held, False))


def test_grid_holds_only_cells_on_the_array(monkeypatch, capsys):
    # engine probes test no bounds, which is sound only while every occupied
    # cell is on the array: check that after every step of every fixture run
    real = fluidics.step
    steps = [0]

    def checked(state, line, **kw):
        result = real(state, line, **kw)
        header = result.state.header
        assert all(header.in_bounds(loc) for loc in result.state.by_loc), line
        steps[0] += 1
        return result

    monkeypatch.setattr(fluidics, "step", checked)
    for argv in _fixture_verify_argvs():
        for extra in ([], ["--all"]):
            assert main(argv + extra) in (0, 1)
    capsys.readouterr()
    assert steps[0] > 300


# --- the engine's door: a program with structural issues is refused ----------

def test_ticks_refuse_a_line_before_tick_zero():
    prog = parse_program(load("twowaymix.dmf"))
    early = prog._replace(main=(TimedLine(-1, (Dispense(Loc(1, 1)),)), *prog.main))
    assert [i.code for i in early.issues] == ["BadTimestamp"]
    with pytest.raises(ValidationError, match="BadTimestamp at t=-1"):
        list(ticks(early))


def test_verify_refuses_an_undeclared_detector():
    prog = parse_program("dim(5,5)\naccuracy 2\nR(1,1,S)\n1 d(1,1)\n2 detect(d9)\n3 end\n",
                         validate=False)
    with pytest.raises(ValidationError, match="UndeclaredDetector at t=2"):
        verify_program(prog)


def test_verify_refuses_an_off_array_dispense_with_a_pin_map():
    prog = parse_program("dim(5,5)\naccuracy 2\nR(6,6,S)\n1 d(6,6)\n2 end\n",
                         validate=False)
    with pytest.raises(ValidationError, match="OutOfBounds"):
        verify_program(prog, pin_map=dedicated_map(5, 5))


# --- the step memo against the plain step (oracle) ----------------------------

def _value(state):
    if state is None or state is REPLAYED:
        return state
    return (state.t, state.by_loc, state.mixers, state.detections, state.next_node)


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except DmfError as err:
        return type(err).__name__, str(err)


def _linear_run(prog, **kw):
    (trace, report), [final] = finished_runs(verify_program, prog, **kw)
    return (trace.events, report.violations, report.notes, report.final_t, _value(final))


def _path_run(prog, **kw):
    """The walk's JSON and text reports, and each path's label with its
    final state where the walk stepped it to its end (``REPLAYED`` where it
    was replayed)."""
    report, finals = stepped_paths(verify_all_paths, prog, **kw)
    return {"json": format_report(report, "json"), "text": format_report(report, "text"),
            "finals": [(label, _value(finals.get(label, REPLAYED)))
                       for label in path_verdicts(report)]}


# Conditional programs whose paths merge, so that the path walk replays:
# the recoveries of the fixtures never put the chip back as they found it.
_MERGING = (_HELD_Q, _OUTPUT_FIRST, _TWO_LAST, serialize_program(_detour_chain(3)))


def _merging_mutants(rng, n: int):
    """The programs among n random mutants of ``_MERGING``."""
    for _ in range(n):
        prog = _outcome(parse_program, _mutate_dmf(rng, rng.choice(_MERGING)))
        if not isinstance(prog, tuple):
            yield prog


def _replayed(runs) -> int:
    """The number of replayed paths in ``_runs``' outcomes."""
    return sum(final is REPLAYED for out in runs if isinstance(out, dict)
               for _, final in out["finals"])


def _runs(prog, pin_map=None):
    """Every way a program is stepped: verification under both policies, and
    the ticks that rendering and the injection search read."""
    out = [_outcome(_path_run if prog.has_conditionals else _linear_run, prog,
                    policy=policy, pin_map=pin_map) for policy in ("first", "all")]
    if not prog.has_conditionals:
        out.append(_outcome(lambda: [(t, _value(st)) for t, st in ticks(prog)]))
    return out


def test_memo_matches_plain_step_on_fixtures(capsys):
    pins = ("mplex.pins", "mplex_pin1.pins", "mplex_pin2.pins", "mplex_pin3.pins")
    cases = [(parse_program(load(name)), None) for name in _DMF_FIXTURES]
    cases += [(parse_program(load("mplex.dmf")), parse_pins(load(p))) for p in pins]
    cases += [(parse_program(text), None) for text in _MERGING]
    replayed = 0
    for prog, pin_map in cases:
        got = _runs(prog, pin_map)
        assert got == without_memo(_runs, prog, pin_map)
        replayed += _replayed(got)
    assert replayed >= 20, replayed
    # the text and JSON reports, as the command line prints them
    for argv in _fixture_verify_argvs():
        for extra in ([], ["--all"], ["--format", "text"], ["--format", "text", "--all"]):
            rc = main(argv + extra)
            got = rc, capsys.readouterr().out
            rc = without_memo(main, argv + extra)
            assert got == (rc, capsys.readouterr().out), argv + extra


def test_memo_matches_plain_step_on_the_dmf_fuzz_corpus():
    # the mutated .dmf corpus of test_cli: each text that parses is verified
    # and walked tick by tick, with the memo and with the plain step
    rng = random.Random(1618)
    ran = replayed = 0
    for _ in range(200):
        text = _mutate_dmf(rng, load(rng.choice(_DMF_FIXTURES)))
        prog = _outcome(parse_program, text)
        if not isinstance(prog, tuple):
            ran += 1
            assert _runs(prog) == without_memo(_runs, prog), text
    for prog in _merging_mutants(random.Random(2718), 150):
        got = _runs(prog)
        assert got == without_memo(_runs, prog)
        replayed += _replayed(got)
    assert ran >= 50, ran
    assert replayed >= 50, replayed


def step_both_ways(checked, served, **kw):
    """An ``advance`` for one walk that steps each line with a memo of its
    own and with the plain step, and requires the same rows, events and
    state, and that neither step changed the state it was given.  Equal
    bodies share one tuple, as the parser makes them; ``served`` counts the
    steps the memo served, ``checked`` the lines checked
    (``count_checked_lines``)."""
    interned = {}
    stepped = memo_step({}, **kw)

    def advance(state, line):
        line = TimedLine(line.t, interned.setdefault(line.instrs, line.instrs))
        given = _value(state.copy())    # its own droplet index
        want = step(state, line, **kw)
        before = checked[0]
        got = stepped(state, line)
        served[0] += checked[0] == before
        assert (got.violations, got.events, _value(got.state)) == (
            want.violations, want.events, _value(want.state)), line
        assert _value(state) == given, line     # neither step wrote into it
        return want
    return advance


def test_memo_matches_plain_step_on_random_walks(monkeypatch):
    # the 9b/9c walks of test_acceptance and the 30 seeded pinned walks, with
    # and without a pin map
    checked = count_checked_lines(monkeypatch)
    served, codes = [0], set()
    for seed in range(25):
        advance = step_both_ways(checked, served, policy="all")
        for state, line in _random_walk(seed):
            codes.update(v.code for v in advance(state, line).violations)
    shared = dedicated_map(7, 7).with_remap({Loc(2, 2): 1, Loc(4, 3): 1, Loc(3, 5): 9,
                                             Loc(6, 4): 9, Loc(5, 6): 33})
    for pin_map in (None, shared):
        for seed in range(30):
            advance = step_both_ways(checked, served, policy="all", pin_map=pin_map)
            for result in _pinned_walk(seed, advance):
                codes.update(v.code for v in result.violations)
    assert {Code.E1, Code.E2, Code.E3, Code.E4, Code.PIN_CASE1} <= codes, codes
    assert served[0] > 0


def cycle_program(rng):
    """A random line cycle, repeated: the memo's case.

    Three droplets ride columns 2, 5 and 8 of an 8x9 chip.  The cycle's
    first half moves random subsets of them down a row; its second half
    moves the same subsets back up, in reverse order, so the chip is back
    in its layout when the cycle repeats, with the same gaps.  A line may
    also mix two droplets that stay on one row, or detect the one that
    stays on (4,5); the gap after it outlasts the mixer or the detection.
    Half the programs get one faulty instruction in one line of one round.
    """
    dur = rng.randrange(1, 4)
    head = ["dim(8,9)", "accuracy 4", "R(1,2,A) R(1,5,B) R(1,8,A) W(8,2)",
            f"D(d1,4,5,{dur})", "1 d(1,2) d(1,5) d(1,8)"]
    half = [[c for c in (2, 5, 8) if rng.random() < 0.6] for _ in range(rng.randrange(1, 5))]
    row = {2: 1, 5: 1, 8: 1}
    cycle = []      # (instructions, gap to the next line)
    for movers, step_r in [(m, 1) for m in half] + [(m, -1) for m in reversed(half)]:
        instrs = [f"m([{row[c]},{c}]->[{row[c] + step_r},{c}])" for c in movers]
        gap = rng.randrange(1, 4)
        pairs = [(a, b) for a, b in ((2, 5), (5, 8))
                 if row[a] == row[b] and a not in movers and b not in movers]
        if pairs and rng.random() < 0.4:
            (a, b), t_mix = rng.choice(pairs), rng.randrange(1, 4)
            instrs.append(f"mix([{row[a]},{a}]<->[{row[b]},{b}],{t_mix},14)")
            gap = max(gap, t_mix + 1)
        elif row[5] == 4 and 5 not in movers and rng.random() < 0.5:
            instrs.append("detect(d1)")
            gap = max(gap, dur)
        cycle.append((instrs, gap))
        for c in movers:
            row[c] += step_r
    rounds = rng.randrange(2, 7)
    fault = (rng.randrange(rounds), rng.randrange(len(cycle))) if rng.random() < 0.5 else None
    lines, t = [], 2
    for k in range(rounds):
        for i, (instrs, gap) in enumerate(cycle):
            if (k, i) == fault:
                instrs = instrs + [rng.choice(("m([7,7]->[7,6])", "d(3,3)", "waste(8,2)",
                                               "m([1,2]->[1,3])", "detect(d1)"))]
            if instrs:
                lines.append(f"{t} " + " ".join(instrs))
            t += gap
    lines.append(f"{t} end")
    return parse_program("\n".join(head + lines) + "\n")


def test_memo_matches_plain_step_on_repeated_cycles(monkeypatch):
    served = count_memo_hits(monkeypatch)
    rng = random.Random(5)
    seen = Counter()
    # Case 1 fires on a droplet at (3,5)
    shared = dedicated_map(8, 9).with_remap({Loc(3, 4): 7, Loc(3, 6): 7})
    for _ in range(60):
        prog = cycle_program(rng)
        for pin_map in (None, shared):
            got = _runs(prog, pin_map)
            assert got == without_memo(_runs, prog, pin_map)
            seen["failing" if got[0][1] else "clean", pin_map is None] += 1
            seen.update(v.code for v in got[1][1])
    # some hits commit onto the copy that expire made for a mixer or a
    # detection that resolved on their tick
    assert served[0] >= 1000 and served[1] >= 100, (served, seen)
    assert all(seen[k, m] >= 10 for k in ("clean", "failing") for m in (True, False)), seen
    assert seen[Code.E3] and seen[Code.E4] and seen[Code.PIN_CASE1], seen


def test_memo_oracle_catches_a_hit_that_drops_completions():
    # a served line must hand on the completions that its ``expire`` resolved
    dropped = mutant(fluidics.Cursor.advance, "_apply(new, clean[1], t, events)",
                     "events = []; _apply(new, clean[1], t, events)")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fluidics.Cursor, "advance", dropped)
        with pytest.raises(AssertionError):
            test_memo_matches_plain_step_on_repeated_cycles(m)


def _key_cases():
    """For each field of the memo's key, (field, first state, second state,
    line, step keywords): the line passes on the first state and fails on
    the second, which differs from the first in that field only."""
    near = TimedLine(1, (Move(Loc(2, 2), Loc(2, 3)),))
    yield 0, state_with(6, 6, [Loc(2, 2)]), state_with(6, 6, [Loc(2, 2), Loc(3, 4)]), near, {}
    pair = state_with(6, 6, [Loc(2, 2), Loc(2, 5)])
    mixing = pair.copy()
    mixing.mixers = (MixerEntry(Loc(2, 2), Loc(2, 5), 0, 9, MType.H14),)
    yield 1, pair, mixing, TimedLine(1, (Move(Loc(2, 2), Loc(3, 2)),)), {}
    # two detectors share (3,3): the other one is busy, then this one
    shared = init_state(header(6, 6), (DetectorDecl("d1", Loc(3, 3), 4),
                                       DetectorDecl("d2", Loc(3, 3), 4)))
    shared = with_droplet(shared, "n0", Loc(3, 3), CFVector.unit("S"))
    other, this = shared.copy(), shared.copy()
    other.detections = (DetectionEntry("d2", Loc(3, 3), 9),)
    this.detections = (DetectionEntry("d1", Loc(3, 3), 9),)
    yield 2, other, this, TimedLine(1, (DetectStart("d1"),)), {}
    # pin Case 1 fires on a droplet at (4,4): one layout has it, one not
    split = dedicated_map(6, 6).with_remap({Loc(4, 3): 99, Loc(4, 5): 99})
    yield (0, state_with(6, 6, [Loc(1, 1)]), state_with(6, 6, [Loc(1, 1), Loc(4, 4)]),
           TimedLine(1, (Move(Loc(1, 1), Loc(1, 2)),)), {"pin_map": split})


@pytest.mark.parametrize("dropped", [None, 0, 1, 2])
def test_memo_key_tells_apart_what_each_field_holds(monkeypatch, dropped):
    # With the whole key, each second state gets the plain step's rows.  A
    # mutant key without one field serves the first state's clean verdict to
    # the cases that differ in that field, and this test sees it.
    if dropped is not None:
        real = fluidics._signature
        monkeypatch.setattr(fluidics, "_signature", lambda snapshot: tuple(
            None if i == dropped else f for i, f in enumerate(real(snapshot))))
    for field, first, second, line, kw in _key_cases():
        stepped = memo_step({}, **kw)
        assert not stepped(first, line).violations
        got, want = stepped(second, line), step(second, line, **kw)
        assert want.violations, (field, line)
        if field == dropped:
            assert got.violations == [], (field, line)      # the mutant is caught
        else:
            assert (got.violations, got.events, _value(got.state)) == (
                want.violations, want.events, _value(want.state)), (field, line)


def test_checks_run_once_per_body_and_layout(monkeypatch):
    # a 4-line cycle, repeated: a detour, a mix and a detection, each of
    # which finds the same cells, mixers and detections in every round
    calls = [0]
    for kind, rule in list(fluidics.RULES.items()):
        def counted(state, instr, i, ctx, check=rule.check):
            calls[0] += 1
            return check(state, instr, i, ctx)
        monkeypatch.setitem(fluidics.RULES, kind, rule._replace(check=counted))
    checked = count_checked_lines(monkeypatch)
    rounds = 10
    lines = ["1 d(3,2) d(3,5)"]
    for k in range(rounds):
        b = 2 + 6 * k
        lines += [f"{b} m([3,2]->[2,2])", f"{b + 1} m([2,2]->[3,2])",
                  f"{b + 2} mix([3,2]<->[3,5],1,14)", f"{b + 4} detect(d1)"]
    prog = parse_program("dim(6,7)\naccuracy 2\nR(3,2,S) R(3,5,B)\nD(d1,3,5,1)\n"
                         + "\n".join(lines) + f"\n{2 + 6 * rounds} end\n")
    bulk = count_bulk_passes(monkeypatch)
    got = _linear_run(prog)
    assert not got[1] and got[3] == 2 + 6 * rounds
    # the two move lines find no mixer and no detection: the bulk pass
    # passes each once, and the memo serves them after that
    assert (calls[0], checked[0], len(bulk)) == (2 + 2, 1 + 2 + 1, 2)  # the end line has no check
    calls[0] = checked[0] = 0
    bulk.clear()
    assert without_memo(_linear_run, prog) == got
    assert (calls[0], checked[0], len(bulk)) == (2 + 2 * rounds, 1 + 2 * rounds + 1, 2 * rounds)
    # checked instruction by instruction, the move lines count as before
    calls[0] = checked[0] = 0
    assert without_bulk(_linear_run, prog) == got
    assert (calls[0], checked[0]) == (2 + 4, 1 + 4 + 1)
    calls[0] = checked[0] = 0
    assert without_bulk(without_memo, _linear_run, prog) == got
    assert (calls[0], checked[0]) == (2 + 4 * rounds, 1 + 4 * rounds + 1)


def test_memo_keeps_only_bodies_that_a_run_can_step_twice(monkeypatch):
    signatures = [0]
    real = fluidics._signature

    def counted(snapshot):
        signatures[0] += 1
        return real(snapshot)
    monkeypatch.setattr(fluidics, "_signature", counted)
    # every body of pcr.dmf is distinct: no signature is built, no entry kept
    prog = parse_program(load("pcr.dmf"))
    assert prog.repeats == frozenset()
    for policy in ("first", "all"):
        cursor = Cursor(prog, policy=policy)
        for line in prog.main:
            cursor.advance(line)
        assert (signatures[0], cursor.memo, cursor.rows) == (0, {}, [])
    # a body on two lines is kept and served the second time
    prog = parse_program("dim(6,6)\naccuracy 2\nR(2,2,S)\n1 d(2,2)\n2 m([2,2]->[2,3])\n"
                         "3 m([2,3]->[2,2])\n4 m([2,2]->[2,3])\n5 m([2,3]->[3,3])\n6 end\n")
    twice = prog.main[1].instrs
    assert prog.main[3].instrs is twice and prog.repeats == {id(twice)}
    served = count_memo_hits(monkeypatch)
    cursor = Cursor(prog)
    for line in prog.main:
        cursor.advance(line)
    assert signatures[0] == 2 and served[0] == 1
    assert list(cursor.memo.values()) == [(twice, fluidics._plan(twice))]
    # a conditional program keeps the bodies that two of its lines share,
    # main or recovery, and no other (the path walk steps each suffix that
    # its paths share once), and its walk signs only those
    prog = parse_program(load("recovery.dmf"))
    lines = [*prog.main, *(ln for block in prog.recoveries.values() for ln in block)]
    shared = {id(body) for body, n in Counter(ln.instrs for ln in lines).items() if n > 1}
    assert prog.repeats == shared and 0 < len(shared) < len(lines)
    signed, unsigned = set(), set()
    advance = fluidics.Cursor.advance

    def watched(cursor, line):
        before = signatures[0]
        events = advance(cursor, line)
        (signed if signatures[0] > before else unsigned).add(id(line.instrs))
        return events
    monkeypatch.setattr(fluidics.Cursor, "advance", watched)
    assert verify_all_paths(prog).ok
    assert signed == shared and unsigned and unsigned.isdisjoint(shared)


def test_commit_guard_runs_on_a_memo_hit_under_python_O():
    # a move passes on a chip where its destination is free, and its stored
    # plan is then filed under the signature of a chip where a droplet sits
    # there: the hit skips the checks and runs the plan, whose plain check
    # still refuses the write
    code = textwrap.dedent("""
        from dmfv import fluidics
        from dmfv.chip import Droplet, InconsistentState, init_state
        from dmfv.graph import CFVector
        from dmfv.isa import ChipHeader, Loc, Move, TimedLine
        assert False, "assert statements must be stripped under -O"
        clean = init_state(ChipHeader(6, 6, 5, ()))
        clean._add(Loc(2, 2), Droplet("S", CFVector.unit("S")))
        bad = clean.copy()
        bad._add(Loc(5, 5), Droplet("B", CFVector.unit("B")))
        line = TimedLine(1, (Move(Loc(2, 2), Loc(5, 5)),))
        program = fluidics.Program(clean.header, (line,))
        program.__dict__.update(issues=(), repeats={id(line.instrs)})
        cursor = fluidics.Cursor(program)
        cursor.state = clean
        cursor.advance(line)
        if cursor.rows:
            raise SystemExit(2)
        [(key, (body, plan))] = cursor.memo.items()
        if key != (id(line.instrs), fluidics._signature(clean)) or body is not line.instrs:
            raise SystemExit(3)
        cursor.memo[id(body), fluidics._signature(bad)] = body, plan
        cursor.state = bad
        try:
            cursor.advance(line)
        except InconsistentState:
            raise SystemExit(0)
        raise SystemExit(1)
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# --- the bulk pass of lines of moves against the per-instruction path ------------

def _instruction_rows(state, line):
    """The rows of the per-instruction checks alone of ``line`` on ``state``
    (the plain step under policy "all", without the separation check) and
    the cells claimed by the instructions that passed them."""
    contexts, real = [], fluidics.LineContext

    def kept(*args):
        contexts.append(real(*args))
        return contexts[-1]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fluidics, "_post_checks", lambda *a: [])
        m.setattr(fluidics, "LineContext", kept)
        rows = without_bulk(step, state, line, policy="all").violations
    return rows, contexts[0].claimed


def _bulk_agrees(state, line) -> bool:
    """Whether the bulk pass accepts ``line`` on ``state``, asserting that it
    accepts exactly the lines of moves, on a snapshot with no active mixer
    and no live detection, in which the per-instruction checks find no row;
    that those checks then claim each destination for its move, as the
    separation check and the pin phase read an accepted line; and that it
    builds ``_commit``'s state, down to the order of ``by_loc``, without
    writing into the snapshot."""
    snapshot = fluidics.expire(state, line.t)[0]
    given = list(snapshot.by_loc.items())
    new = fluidics._transport(snapshot, line.instrs, line.t)
    assert list(snapshot.by_loc.items()) == given, line
    eligible = (not snapshot.mixers and not snapshot.detections
                and all(type(instr) is Move for instr in line.instrs))
    rows, claimed = _instruction_rows(state, line)
    assert (new is not None) == (eligible and not rows), (line, rows)
    if new is not None:
        assert claimed == {instr.dst: i for i, instr in enumerate(line.instrs)}, line
        want, events = fluidics._commit(snapshot, line.instrs, line.t)
        assert events == [], line
        assert (list(new.by_loc.items()), new.t, new.mixers, new.detections, new.next_node) == (
            list(want.by_loc.items()), want.t, want.mixers, want.detections,
            want.next_node), line
    return new is not None


def random_moves(rng):
    """A random snapshot and a random line of moves on it, at t=1.

    Sources are mostly occupied cells, some free; some moves take a source
    or a destination that an earlier move of the line took, or leave the
    cell that an earlier move fills; a fifth of the
    snapshots hold an active mixer and a fifth a live detection, each on
    droplets that the line may move.  Densities run from one droplet to a
    third of the cells, so probes beyond a destination meet droplets often.
    """
    rows, cols = rng.randrange(3, 9), rng.randrange(3, 9)
    cells = [Loc(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    occupied = rng.sample(cells, rng.randrange(1, len(cells) // 3 + 2))
    state = state_with(rows, cols, occupied)
    if len(occupied) > 1 and rng.random() < 0.2:
        a, b = rng.sample(occupied, 2)
        state.mixers = (MixerEntry(a, b, 0, 9, MType.H14),)
    if rng.random() < 0.2:
        state.detections = (DetectionEntry("d1", rng.choice(occupied), 9),)

    def neighbour(loc):
        return rng.choice([Loc(loc.row + dr, loc.col + dc)
                           for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                           if 1 <= loc.row + dr <= rows and 1 <= loc.col + dc <= cols])
    moves = []
    for _ in range(rng.choice((1, 1, 2, 2, 3, 4, 6))):
        roll = rng.random()
        if moves and roll < 0.1:                   # a source taken twice
            src = rng.choice(moves).src
            dst = neighbour(src)
        elif moves and roll < 0.2:                 # a destination claimed twice
            dst = rng.choice(moves).dst
            src = neighbour(dst)
        elif moves and roll < 0.25:                # a chain: from an earlier destination
            src = rng.choice(moves).dst
            dst = neighbour(src)
        else:
            src = rng.choice(occupied if rng.random() < 0.85 else cells)
            dst = neighbour(src)
        moves.append(Move(src, dst))
    return state, TimedLine(1, tuple(moves))


def test_bulk_check_matches_per_instruction_path_on_random_lines():
    # a line the bulk pass passes also runs in pin mode, under maps from
    # dedicated to heavily shared, whose pin phase reads what the line does
    # to droplets (a refused line takes one path either way)
    rng, map_rng = random.Random(2024), random.Random(2025)
    seen = Counter()
    for _ in range(3000):
        state, line = random_moves(rng)
        passed = _bulk_agrees(state, line)
        seen["passed" if passed else "refused"] += 1
        pin_maps = random_pin_maps(map_rng, state.header.rows, state.header.cols) if passed else ()
        for pin_map, policy in itertools.product((None, *pin_maps), ("first", "all")):
            got = step(state, line, policy=policy, pin_map=pin_map)
            want = without_bulk(step, state, line, policy=policy, pin_map=pin_map)
            assert (got.violations, got.events, _value(got.state)) == (
                want.violations, want.events, _value(want.state)), (policy, pin_map, line)
            if pin_map is None and policy == "all":
                seen.update((v.code, v.detail) for v in want.violations)
            elif pin_map is not None:
                seen.update(v.code for v in want.violations if v.pins)
    assert seen["passed"] >= 300 and seen["refused"] >= 300, seen
    # pin rows of every pairwise and split rule on lines the bulk pass passed
    assert all(seen[c] >= 50 for c in (Code.PIN_CASE1, Code.PIN_CASE2, Code.PIN_CASE3)), seen
    # every row the bulk pass stands for, and the separation rows after a pass
    assert {(Code.E1, "destination cell occupied"), (Code.E1, "move lands next to an idle droplet"),
            (Code.E2, "two droplets head for the same cell"), (Code.E2, ""), (Code.E4, "")
            } <= set(seen), seen


def test_transport_matches_commit_on_bulk_passed_lines():
    # _bulk_agrees compares each accepted line's state with _commit's
    rng = random.Random(1618)
    passed = sum(_bulk_agrees(*random_moves(rng)) for _ in range(3000))
    assert passed >= 300, passed
    # a move onto an idle droplet, two moves onto one cell, two moves from
    # one cell and a move from the cell an earlier move fills: the pass
    # refuses each, and the per-instruction path words its row
    st = state_with(6, 6, [Loc(1, 4), Loc(2, 5), Loc(5, 2), Loc(5, 3)])
    for instrs, row in (
            ((Move(Loc(5, 2), Loc(5, 3)),), "Static fluidic constraint violated"),
            ((Move(Loc(1, 4), Loc(2, 4)), Move(Loc(2, 5), Loc(2, 4))),
             "Dynamic fluidic constraint violated"),
            ((Move(Loc(5, 2), Loc(4, 2)), Move(Loc(5, 2), Loc(6, 2))),
             "Droplet on (5,2) is used by a concurrent instruction"),
            ((Move(Loc(5, 3), Loc(4, 3)), Move(Loc(4, 3), Loc(3, 3))),
             "No droplet present on (4,3)")):
        assert fluidics._transport(st, instrs, 1) is None, instrs
        rows = step(st, TimedLine(1, instrs), policy="all").violations
        assert rows and rows[0].response == row, rows


def bulk_checked(fn, *args, **kw):
    """fn(*args, **kw), with ``_bulk_agrees`` asserted on every line stepped;
    returns fn's result and the number of lines the bulk pass passed."""
    plain, passed = fluidics.step, [0]

    def checked(state, line, **k):
        passed[0] += _bulk_agrees(state, line)
        return plain(state, line, **k)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fluidics, "step", checked)
        return fn(*args, **kw), passed[0]


def test_bulk_check_matches_per_instruction_path_on_fixtures_and_fuzz():
    pins = ("mplex.pins", "mplex_pin1.pins", "mplex_pin2.pins", "mplex_pin3.pins")
    cases = [(parse_program(load(name)), None) for name in _DMF_FIXTURES]
    cases += [(parse_program(load("mplex.dmf")), parse_pins(load(p))) for p in pins]
    rng = random.Random(3141)
    for _ in range(200):
        prog = _outcome(parse_program, _mutate_dmf(rng, load(rng.choice(_DMF_FIXTURES))))
        if not isinstance(prog, tuple):
            cases.append((prog, None))
    cases += [(prog, None) for prog in _merging_mutants(random.Random(2718), 150)]
    assert len(cases) >= 60, len(cases)
    passed = replayed = 0
    for prog, pin_map in cases:
        got, n = bulk_checked(_runs, prog, pin_map)
        passed += n
        assert got == without_bulk(_runs, prog, pin_map)
        replayed += _replayed(got)
    assert passed >= 100, passed
    assert replayed >= 50, replayed


# each mutant drops one test of the one-pass transport
_TRANSPORT_MUTANTS = {
    "occupied source": ("or instr.src not in cells or instr.dst in cells:",
                        "or instr.dst in cells:"),
    "count": ("if len(by_loc) != len(cells):", "if False:"),
    "probes": ("if not cells.keys().isdisjoint(chain.from_iterable(map(_probes, instrs))):",
               "if False:"),
}


@pytest.mark.parametrize("name", sorted(_TRANSPORT_MUTANTS))
def test_bulk_oracle_catches_each_transport_mutant(monkeypatch, name):
    monkeypatch.setattr(fluidics, "_transport",
                        mutant(fluidics._transport, *_TRANSPORT_MUTANTS[name]))
    for oracle in (test_bulk_check_matches_per_instruction_path_on_random_lines,
                   test_transport_matches_commit_on_bulk_passed_lines):
        with pytest.raises(AssertionError):
            oracle()
