import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from dmfv import branches, chip, cli, fluidics, graph, isa, pins
from dmfv.chip import ChipState, InconsistentState
from dmfv.cli import main
from dmfv.diag import format_report
from dmfv.fluidics import verify_program
from dmfv.inject import InjectionSpec, MutationInapplicable, add_instruction, inject_error
from dmfv.isa import Loc, Move, parse_program, serialize_program
from dmfv.pins import serialize_pins

from conftest import FIXTURES, dedicated_map, load


def fx(name: str) -> str:
    return str(FIXTURES / name)


def test_verify_pass_exit_zero(capsys):
    rc = main(["verify", fx("pcr.dmf"), "--sg", fx("pcr.sg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "t=34" in out


def test_verify_cli_equals_library(capsys):
    rc = main(["verify", fx("twowaymix.dmf")])
    out = capsys.readouterr().out
    _, report = verify_program(parse_program(load("twowaymix.dmf")))
    assert rc == 0
    assert out == format_report(report, "text")


def test_verify_injected_program_exit_one(tmp_path, capsys):
    rc = main(["inject", fx("pcr.dmf"), "--error", "e3",
               "-o", str(tmp_path / "pcr_e3.dmf")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", str(tmp_path / "pcr_e3.dmf")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "e3" in out and "d(2,1)" in out and "t=1" in out


def test_verify_json_format(capsys):
    rc = main(["verify", fx("twowaymix.dmf"), "--sg", fx("twowaymix.sg"),
               "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["ok"] is True and doc["final_t"] == 36


def test_verify_event_log(tmp_path, capsys):
    log = tmp_path / "events.log"
    rc = main(["verify", fx("twowaymix.dmf"), "--events", str(log)])
    assert rc == 0
    lines = log.read_text().splitlines()
    assert any(line.startswith("17\tmix-done\tv1") for line in lines)
    assert any("output" in line and "(5,1)" in line for line in lines)
    # concentrations print as reduced fractions, one cf= field per line that has one
    cfs = [(line.split("\t")[2], line.rsplit("\tcf=", 1)[1]) for line in lines
           if "\tcf=" in line]
    assert cfs == [("v1", "{B:1/2, S:1/2}"), ("v1", "{B:1/2, S:1/2}"),
                   ("v2", "{B:3/4, S:1/4}"), ("v2", "{B:3/4, S:1/4}")]


def test_verify_events_needs_a_straight_line_program(tmp_path, capsys):
    # a conditional program has one event log per path
    log = tmp_path / "events.log"
    for extra in ([], ["--path", "10"]):
        assert main(["verify", fx("recovery.dmf"), "--events", str(log), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --events "), captured
    assert not log.exists()


def test_inject_move_presets_need_a_straight_line_program(tmp_path, capsys):
    # the move search replays one straight-line run; the error names the
    # preset, not an engine step that the CLI offers no way to take
    out = tmp_path / "mutated.dmf"
    for e in ("e1", "e2"):
        assert main(["inject", fx("recovery.dmf"), "--error", e, "-o", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: --error {e} works on straight-line "
                                           "programs; this one has conditional calls\n")
    assert not out.exists()


def test_pin_rows_keep_their_consequence(tmp_path, capsys):
    # a pin row's consequence is its response: on the first failing tick, on
    # the secondary rows after it and on the rows of each execution path
    pmap = dedicated_map(8, 8)
    pins = tmp_path / "recovery.pins"
    pins.write_text(serialize_pins(pmap.with_remap({Loc(1, 2): pmap.pin[Loc(7, 6)]})))
    kinds = set()
    for argv in (["verify", fx("mplex.dmf"), "--pins", fx("mplex_pin1.pins"), "--all"],
                 ["verify", fx("recovery.dmf"), "--pins", str(pins)]):
        assert main(argv + ["--format", "json"]) == 1
        rows = json.loads(capsys.readouterr().out)["violations"]
        assert all(v["code"].startswith("pin-") and v["consequence"] == v["response"]
                   for v in rows), rows
        kinds.update((v["secondary"], v["path"]) for v in rows)
    assert kinds == {(False, None), (True, None), (False, "10"), (False, "11")}


# a reagent named like a realized graph's mix (v1, v2, ...) or sink (O, W)
_RENAMED = (("pcr.dmf", "pcr.sg", "R1", "v1"), ("twowaymix.dmf", "twowaymix.sg", "S", "O"),
            ("recovery.dmf", "recovery.sg", "S", "v2"),
            ("twowaymix.dmf", "twowaymix.sg", "B", "W"))


def test_reserved_reagent_names_exit_two(tmp_path, capsys):
    for dmf, sg, old, new in _RENAMED:
        prog, spec = tmp_path / dmf, tmp_path / sg
        prog.write_text(load(dmf).replace(f",{old})", f",{new})"))
        spec.write_text(re.sub(rf"\b{old}\b", new, load(sg)))
        assert f",{new})" in prog.read_text()
        for argv in (["verify", prog], ["verify", prog, "--sg", spec], ["graph", prog],
                     ["render", prog]):
            assert main(list(map(str, argv))) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(
                f"error: ReservedName: reserved reagent name(s) {new}: "), captured


def test_verify_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.dmf"
    bad.write_text("dim(2,2)\naccuracy 1\nR(1,1,S)\n1 zzz\n")
    rc = main(["verify", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _exits_two(argv, capsys) -> str:
    """Run argv, which must fail as unusable input; return its stderr."""
    rc = main(argv)
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, ""), (argv, captured)
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err, captured
    return captured.err


def test_unwritable_outputs_exit_two(tmp_path, capsys):
    # an output that cannot be written is unusable input, whatever the verdict
    missing = tmp_path / "missing"
    for argv in (["verify", fx("pcr.dmf"), "--events", str(tmp_path)],
                 ["verify", fx("threeway_bad.dmf"), "--events", str(missing / "ev.log")],
                 ["graph", fx("pcr.dmf"), "-o", str(missing / "x.dot")],
                 ["render", fx("pcr.dmf"), "--at", "4", "-o", str(missing / "x.txt")],
                 ["render", fx("pcr.dmf"), "--animate", "--svg", "-o", fx("pcr.dmf")],
                 ["inject", fx("pcr.dmf"), "--error", "e3", "-o", str(missing / "x.dmf")],
                 ["inject", fx("mplex.dmf"), "--error", "pin", "--pins", fx("mplex.pins"),
                  "--remap", "1,1=3", "-o", str(missing / "x.pins")]):
        assert "[Errno " in _exits_two(argv, capsys)
    assert not missing.exists()


@pytest.mark.parametrize("args, form", [
    (["mplex.dmf", "--error", "pin", "--pins", "mplex.pins", "--remap", "1,1"],
     "--remap '1,1': expected 'r,c=P[;r,c=P...]'"),
    (["mplex.dmf", "--error", "pin", "--pins", "mplex.pins", "--remap", "1,1=x"],
     "--remap '1,1=x': expected 'r,c=P[;r,c=P...]'"),
    (["pcr.dmf", "--error", "e1", "--line", "1", "--move", "1,1->x,2"],
     "--move '1,1->x,2': expected 'r,c->r,c'"),
    (["pcr.dmf", "--error", "e3", "--to", "5"], "--to '5': expected 'r,c'"),
    (["pcr.dmf", "--error", "e7", "--swap", "A,B,C"], "--swap 'A,B,C': expected 'A,B'"),
])
def test_inject_argument_errors_name_the_option_and_its_form(args, form, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["inject", *(fx(a) if a.endswith((".dmf", ".pins")) else a for a in args),
            "-o", str(out)]
    assert _exits_two(argv, capsys) == f"error: {form}\n"
    assert not out.exists()


def test_undecodable_inputs_exit_two(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00dim(2,2)\n")
    for argv in (["verify", str(binary)], ["paths", str(binary)],
                 ["verify", fx("pcr.dmf"), "--pins", str(binary)],
                 ["verify", fx("pcr.dmf"), "--sg", str(binary)],
                 ["inject", fx("mplex.dmf"), "--error", "pin", "--pins", str(binary),
                  "--remap", "1,1=3"]):
        assert "can't decode" in _exits_two(argv, capsys)


def test_negative_ticks_exit_two(capsys):
    # the .dmf grammar has no negative tick, so neither do the tick options
    assert _exits_two(["render", fx("pcr.dmf"), "--at", "-3"], capsys) == (
        "error: --at -3: ticks are non-negative\n")
    for name in ("pcr.dmf", "recovery.dmf"):
        assert _exits_two(["verify", fx(name), "--tmax", "-5"], capsys) == (
            "error: --tmax -5: ticks are non-negative\n")
    assert main(["verify", fx("pcr.dmf"), "--tmax", "0"]) == 1
    assert "final t=34 > 0" in capsys.readouterr().out


def test_negative_max_paths_exit_two(capsys):
    # verify used to ignore the flag on a straight-line program, and paths
    # blamed the program's conditionals
    for cmd in ("verify", "paths"):
        for name in ("pcr.dmf", "recovery.dmf"):
            assert _exits_two([cmd, fx(name), "--max-paths", "-1"], capsys) == (
                "error: --max-paths -1: conditional counts are non-negative\n")
    assert main(["paths", fx("pcr.dmf"), "--max-paths", "0"]) == 0
    capsys.readouterr()


def test_max_paths_guard_and_its_boundary(capsys):
    # recovery.dmf has two conditionals: a limit of one refuses it, and a
    # limit equal to the count lets it through
    for cmd in ("verify", "paths"):
        assert _exits_two([cmd, fx("recovery.dmf"), "--max-paths", "1"], capsys) == (
            "error: 2 conditionals expand to 2^2 paths; raise the limit explicitly\n")
        assert main([cmd, fx("recovery.dmf"), "--max-paths", "2"]) == 0
        assert capsys.readouterr().out.count("path ") == 4


def test_ignore_waste_without_sg_exits_two(capsys):
    # without an input graph there is no conformance for the flag to relax
    for name in ("pcr.dmf", "recovery.dmf"):
        assert _exits_two(["verify", fx(name), "--ignore-waste"], capsys) == (
            "error: verify reads --ignore-waste only with --sg\n")
        assert main(["verify", fx(name), "--sg", fx(name.replace(".dmf", ".sg")),
                     "--ignore-waste"]) == 0
        capsys.readouterr()


def test_duplicate_headers_exit_two(tmp_path, capsys):
    # a second header line would silently replace the first
    prog, spec = tmp_path / "twice.dmf", tmp_path / "twice.sg"
    for header, name in (("accuracy 3", "accuracy"), ("tmax 99\ntmax 40", "tmax"),
                         ("dim(9,9)", "dim")):
        prog.write_text(load("pcr.dmf").replace("R(", f"{header}\nR(", 1))
        for cmd in ("verify", "paths", "graph", "render"):
            err = _exits_two([cmd, str(prog)], capsys)
            assert f"duplicate {name} declaration" in err, (cmd, err)
    header = "reagents R1 R2 R3 R4 R5 R6 R7 R8\n"
    spec.write_text(load("pcr.sg").replace(header, header + "reagents R1 R2\n"))
    err = _exits_two(["verify", fx("pcr.dmf"), "--sg", str(spec)], capsys)
    assert "duplicate reagents declaration" in err, err


def test_engine_faults_keep_their_traceback(monkeypatch, capsys):
    # only unusable input maps to exit 2; a fault of the verifier itself
    # must not pass for a verdict or for bad input
    def broken(*args, **kw):
        raise InconsistentState("a droplet added on (1,1) would overwrite another")

    monkeypatch.setattr(fluidics, "verify_program", broken)
    with pytest.raises(InconsistentState):
        main(["verify", fx("pcr.dmf")])
    assert capsys.readouterr().err == ""


def test_verify_validates_a_program_once(monkeypatch, capsys):
    calls = []
    real = isa.validate_structure

    def counted(p):
        calls.append(p)
        return real(p)

    # wherever a module binds the name, the count sees the call
    for module in (isa, branches):
        monkeypatch.setattr(module, "validate_structure", counted, raising=False)
    assert main(["verify", fx("recovery.dmf")]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(calls) == 1


def test_verify_all_paths(capsys):
    rc = main(["verify", fx("recovery.dmf"), "--sg", fx("recovery.sg")])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS" in out
    assert out.count("path ") == 4      # one report row per execution path
    assert "path 11: PASS, ends t=69" in out


def test_verify_single_path(capsys):
    rc = main(["verify", fx("recovery.dmf"), "--path", "11"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_path_label_on_linear_program(capsys):
    rc = main(["verify", fx("pcr.dmf"), "--path", "10"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "no path labeled '10'" in captured.err
    # the one path of a conditional-free program has the empty label
    assert main(["verify", fx("pcr.dmf"), "--path", ""]) == 0


def test_verify_pins_mode(capsys):
    rc = main(["verify", fx("mplex.dmf"), "--pins", fx("mplex_pin3.pins")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "Droplet stuck on (13,11)" in out and "t=56" in out


def test_paths_listing(capsys):
    rc = main(["paths", fx("recovery.dmf")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == ("path 00: 24 lines, ends at t=35\npath 01: 41 lines, ends at t=56\n"
                   "path 10: 33 lines, ends at t=48\npath 11: 50 lines, ends at t=69\n")
    assert main(["paths", fx("pcr.dmf")]) == 0
    assert capsys.readouterr().out == "path (linear): 16 lines, ends at t=34\n"


def test_graph_dot_output(capsys):
    rc = main(["graph", fx("twowaymix.dmf")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("digraph") and '"v2" -> "O"' in out


def test_render_mixer_span_at_t4(capsys):
    rc = main(["render", fx("twowaymix.dmf"), "--at", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "t=4" in out
    row3 = out.splitlines()[3]          # header line + rows 1..; row 3 of the grid
    assert row3.startswith("M = = M")   # 1x4 mixer spanning (3,1)..(3,4)


def test_render_t0_empty_grid(capsys):
    rc = main(["render", fx("twowaymix.dmf"), "--at", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "R . . R" in out and "O . . W" in out and "D" not in out.split("t=0")[1]


def test_render_animate_pcr(tmp_path, capsys):
    out_file = tmp_path / "frames.txt"
    rc = main(["render", fx("pcr.dmf"), "--animate", "-o", str(out_file)])
    assert rc == 0
    body = out_file.read_text()
    assert body.count("t=") == 34       # one frame per tick
    assert "mix (5,5)..(5,8) [27,34]" in body
    assert "mix (4,3)..(7,3) [5,12]" in body


def test_render_stops_at_violation(tmp_path, capsys):
    rc = main(["inject", fx("pcr.dmf"), "--error", "e4",
               "-o", str(tmp_path / "pcr_e4.dmf")])
    capsys.readouterr()
    rc = main(["render", str(tmp_path / "pcr_e4.dmf"), "--at", "34"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "violation at t=28" in captured.err


def _frames(text: str) -> list[str]:
    """The ASCII frames of a render output, without any report after them."""
    frames = [f for f in text.split("\n\n") if f.startswith("t=")]
    return [f.split("\nPhase I")[0].rstrip("\n") for f in frames]


def test_render_at_and_animate_label_failing_tick_alike(tmp_path, capsys):
    # pcr has no line between t=7 and t=14; the added move fails at t=14
    prog = add_instruction(parse_program(load("pcr.dmf")), 14, Move(Loc(1, 1), Loc(1, 2)))
    path = tmp_path / "gap.dmf"
    path.write_text(serialize_program(prog))
    assert main(["render", str(path), "--at", "14"]) == 1
    at = capsys.readouterr()
    assert main(["render", str(path), "--animate"]) == 1
    animate = capsys.readouterr()
    assert "violation at t=14" in at.err and "violation at t=14" in animate.err
    # both show the state the failing line found, labeled with the tick before
    assert _frames(at.out) == _frames(animate.out)[-1:]
    assert _frames(at.out)[0].startswith("t=13\n")


def test_render_steps_a_line_at_t0(tmp_path, capsys):
    path = tmp_path / "t0.dmf"
    path.write_text("dim(6,6)\naccuracy 5\nR(1,1,S) R(1,4,B)\n"
                    "0 d(1,1)\n1 d(1,4)\n2 m([1,1]->[2,1])\n3 end\n")
    assert main(["render", str(path), "--animate"]) == 0
    frames = _frames(capsys.readouterr().out)
    assert [f.split("\n")[0] for f in frames] == ["t=0", "t=1", "t=2", "t=3"]
    assert "(2,1) id=S" in frames[-1] and "(1,4) id=B" in frames[-1]
    assert main(["render", str(path), "--at", "0"]) == 0
    assert _frames(capsys.readouterr().out) == frames[:1]


def test_render_at_copies_state_once_per_line_not_per_tick(tmp_path, monkeypatch, capsys):
    path = tmp_path / "gap.dmf"
    path.write_text("dim(6,6)\naccuracy 5\nR(1,1,S)\n1 d(1,1)\n300000 end\n")
    copies = [0]
    real = ChipState.copy

    def counted(self):
        copies[0] += 1
        return real(self)

    monkeypatch.setattr(ChipState, "copy", counted)
    assert main(["render", str(path), "--at", "300000"]) == 0
    frames = _frames(capsys.readouterr().out)
    assert [f.split("\n")[0] for f in frames] == ["t=300000"]
    assert "(1,1) id=S" in frames[0]
    assert copies[0] <= 10, copies     # O(lines), where one copy per tick is 300,000


def test_render_svg(tmp_path):
    out_file = tmp_path / "frame.svg"
    rc = main(["render", fx("twowaymix.dmf"), "--at", "4", "--svg",
               "-o", str(out_file)])
    assert rc == 0
    assert out_file.read_text().startswith("<svg")


def test_inject_pin_companion_file(tmp_path, capsys):
    rc = main(["inject", fx("mplex.dmf"), "--error", "pin",
               "--pins", fx("mplex.pins"), "--remap", "13,5=6",
               "-o", str(tmp_path / "remap.pins")])
    assert rc == 0
    written = (tmp_path / "remap.pins").read_text()
    assert written == load("mplex_pin1.pins")


def test_inject_error_leaves_pin_remaps_to_the_cli():
    # a pin remap mutates the pin map, not the program, so only the CLI makes one
    with pytest.raises(MutationInapplicable, match="^unknown injection code 'pin'$"):
        inject_error(parse_program(load("pcr.dmf")), InjectionSpec("pin"))


def test_inject_e1_skips_droplet_under_detect(tmp_path, capsys):
    # at t=9 the droplet on (3,3) starts a detection next to an idle droplet
    # on (3,5); moving either toward the other is no e1 site while it does
    path = tmp_path / "detect.dmf"
    path.write_text("dim(8,8)\naccuracy 5\nR(1,1,S) R(1,5,B)\nD(d1,3,3,2)\n"
                    "1 d(1,1)\n2 m([1,1]->[2,1])\n3 m([2,1]->[3,1])\n4 m([3,1]->[3,2])\n"
                    "5 m([3,2]->[3,3])\n6 d(1,5)\n7 m([1,5]->[2,5])\n8 m([2,5]->[3,5])\n"
                    "9 detect(d1)\n12 end\n")
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert main(["inject", str(path), "--error", "e1", "-o", str(tmp_path / "e1.dmf")]) == 0
    assert capsys.readouterr().out.startswith(
        "added m(3,5,3,4) at t=10 (lands next to an idle droplet)")
    _, report = verify_program(parse_program((tmp_path / "e1.dmf").read_text()))
    first = next(v for v in report.violations if not v.secondary)
    assert (first.code.value, first.t, first.instructions) == ("e1", 10, ("m(3,5,3,4)",))


def test_inject_explicit_move_needs_its_line(tmp_path, capsys):
    out = str(tmp_path / "e2.dmf")
    # --line 0 is a line like any other
    assert main(["inject", fx("pcr.dmf"), "--error", "e2", "--line", "0",
                 "--move", "1,1->1,2", "-o", out]) == 0
    assert capsys.readouterr().out.startswith("added m(1,1,1,2) at t=0 ")
    assert parse_program((tmp_path / "e2.dmf").read_text()).main[0].instrs[-1] == Move(
        Loc(1, 1), Loc(1, 2))
    # without --line the move has no tick: an input error, not a site search
    assert main(["inject", fx("pcr.dmf"), "--error", "e2", "--move", "1,1->1,2",
                 "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("args, refusal", [
    (["--error", "e3", "--line", "5"], "--error e3 does not read --line"),
    (["--error", "e7", "--pos", "2"], "--error e7 does not read --pos"),
    (["--error", "e1", "--duration", "3"], "--error e1 does not read --duration"),
    (["--error", "e4", "--pins", "x.pins"], "--error e4 does not read --pins"),
    (["--error", "e6", "--line", "5", "--swap", "A,B"], "--error e6 does not read --swap"),
    (["--error", "e2", "--line", "26"], "--error e2 reads --line only with --move"),
])
def test_inject_refuses_options_its_preset_does_not_read(args, refusal, tmp_path, capsys):
    out = tmp_path / "out.dmf"
    assert _exits_two(["inject", fx("pcr.dmf"), *args, "-o", str(out)], capsys) == (
        f"error: {refusal}\n")
    assert not out.exists()


def test_inject_e4_line_must_fall_in_the_mixing_window(tmp_path, capsys):
    # pcr's last mix starts at t=27 with t_mix 6: its mixer holds t=28..33
    out = tmp_path / "e4.dmf"
    for line in (0, 26, 27, 34):
        assert main(["inject", fx("pcr.dmf"), "--error", "e4", "--line", str(line),
                     "-o", str(out)]) == 2, line
        assert capsys.readouterr().err.startswith("error: "), line
    for line in (28, 33):
        assert main(["inject", fx("pcr.dmf"), "--error", "e4", "--line", str(line),
                     "-o", str(out)]) == 0, line
        assert f"at t={line} " in capsys.readouterr().out
        _, report = verify_program(parse_program(out.read_text()))
        first = report.violations[0]
        assert (first.code.value, first.t) == ("e4", line)
        assert first.response == "Droplet on (5,5) is in active mixer"


def test_inject_e3_refuses_a_reagent_reservoir(tmp_path, capsys):
    # a dispense from (3,1) is legal, and one from (8,1) claims a cell the
    # line already fills: neither program would show e3
    out = tmp_path / "e3.dmf"
    for to in ("3,1", "8,1"):
        assert main(["inject", fx("pcr.dmf"), "--error", "e3", "--to", to,
                     "-o", str(out)]) == 2, to
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is a reagent reservoir" in err, err
        assert not out.exists()
    assert main(["inject", fx("pcr.dmf"), "--error", "e3", "--to", "2,1",
                 "-o", str(out)]) == 0
    capsys.readouterr()
    _, report = verify_program(parse_program(out.read_text()))
    assert (report.violations[0].code.value, report.violations[0].t) == ("e3", 1)


def test_inject_e3_names_why_no_dispense_is_corrupted(tmp_path, capsys):
    # no dispense at all, and a dispense whose neighbours on the array are all
    # reservoirs, are two different reasons
    texts = {"no dispense instruction to corrupt": "dim(3,3)\naccuracy 1\nR(1,1,S)\n0 end\n",
             "no dispense has a neighbour on the array that is not a reservoir":
                 "dim(2,2)\naccuracy 2\nR(1,1,S) O(1,2) W(2,1)\n1 d(1,1)\n2 end\n"}
    prog = tmp_path / "p.dmf"
    for reason, text in texts.items():
        prog.write_text(text)
        assert main(["inject", str(prog), "--error", "e3"]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"


def test_inject_inapplicable_exit_two(tmp_path, capsys):
    empty = tmp_path / "empty.dmf"
    empty.write_text("dim(3,3)\naccuracy 1\nR(1,1,S)\n0 end\n")
    rc = main(["inject", str(empty), "--error", "e5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err



_ENDS_AT_T3 = "dim(5,5)\naccuracy 5\nR(1,1,S) R(1,3,B)\n1 d(1,1)\n2 d(1,3)\n3 end\n"


@pytest.mark.parametrize("args", [
    ["pcr.dmf", "--error", "e1", "--line", "1", "--move", "garbage"],
    ["pcr.dmf", "--error", "e3", "--to", "5"],
    ["pcr.dmf", "--error", "e7", "--swap", "A"],
    ["mplex.dmf", "--error", "pin", "--pins", "mplex.pins", "--remap", "99,99=3"],
    ["pcr.dmf", "--error", "e1", "--line", "1", "--move", "1,1->9,9"],
    ["pcr.dmf", "--error", "e3", "--to", "99,99"],
    ["pcr.dmf", "--error", "e6", "--duration", "0"],
    ["ends_at_t3.dmf", "--error", "e1"],
])
def test_inject_writes_only_programs_that_parse(args, tmp_path, capsys):
    (tmp_path / "ends_at_t3.dmf").write_text(_ENDS_AT_T3)
    out = tmp_path / "out"
    files = {name: fx(name) for name in ("pcr.dmf", "mplex.dmf", "mplex.pins")}
    files["ends_at_t3.dmf"] = str(tmp_path / "ends_at_t3.dmf")
    rc = main(["inject", *(files.get(a, a) for a in args), "-o", str(out)])
    err = capsys.readouterr().err
    if args[0] != "ends_at_t3.dmf":
        assert (rc, err.startswith("error: "), out.exists()) == (2, True, False), err
        return
    # the added move goes before the end marker, and the written program shows e1
    assert rc == 0 and out.read_text().endswith("\n3 m([1,1]->[1,2]) end\n")
    assert main(["verify", str(out)]) == 1
    assert "e1 " in capsys.readouterr().out


_DMF_FIXTURES = ("pcr.dmf", "twowaymix.dmf", "mplex.dmf", "threeway_bad.dmf",
                 "recovery.dmf")
_JUNK = ("zzz", "m([1,1]->[1,1])", "m([2,2]->[2,3])", "mix([1,1]<->[1,2],3,14)",
         "detect(d9)", "detect(d1)", "waste(1,1)", "output(2,2)", "d(1,1)", "end",
         "if(d1) call Recovery(9)")


def _mutate_dmf(rng, text: str) -> str:
    """One or two random edits of a .dmf text: whole lines, a timestamp, one
    instruction or one number."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    for _ in range(rng.choice((1, 1, 2))):
        timed = [i for i, ln in enumerate(lines) if ln.split()[0].isdigit()]
        i = rng.choice(timed or range(len(lines)))
        head, *instrs = lines[i].split()
        kind = rng.choice(("drop-line", "dup-line", "swap-lines", "retime", "drop-instr",
                           "dup-instr", "move-instr", "number", "junk"))
        if kind == "drop-line":
            del lines[rng.randrange(len(lines))]
        elif kind == "dup-line":
            lines.insert(rng.randrange(len(lines)), lines[i])
        elif kind == "swap-lines":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "number":
            k = rng.randrange(len(lines))
            parts = re.split(r"(-?\d+)", lines[k])     # numbers at odd positions
            if len(parts) > 1:
                parts[rng.randrange(1, len(parts), 2)] = str(
                    rng.choice((0, -1, 1, 2, 3, 4, 16, 40)))
                lines[k] = "".join(parts)
        else:
            moved = None
            if kind == "retime" and head.isdigit():
                head = str(max(0, int(head) + rng.randrange(-3, 4)))
            elif kind == "drop-instr" and instrs:
                instrs.pop(rng.randrange(len(instrs)))
            elif kind == "dup-instr" and instrs:
                instrs.append(rng.choice(instrs))
            elif kind == "move-instr" and instrs:
                moved = instrs.pop(rng.randrange(len(instrs)))
            elif kind == "junk":
                instrs.insert(rng.randrange(len(instrs) + 1), rng.choice(_JUNK))
            lines[i] = " ".join([head, *instrs])
            if moved is not None:
                j = rng.choice(timed or [i])
                lines[j] += " " + moved
    return "\n".join(lines) + "\n"


def mutated_dmf_corpus(indir, outdir):
    """The seeded .dmf mutation corpus: 200 mutated fixtures, each written to
    its own file under ``indir``, with the argvs run on each (their outputs
    go to ``outdir``).  Yields (text, argvs)."""
    rng = random.Random(1618)
    site = random.Random(1729)          # --line/--pos of the e5/e6 runs
    for k in range(200):
        text = _mutate_dmf(rng, load(rng.choice(_DMF_FIXTURES)))
        prog = indir / f"mutated{k:03}.dmf"
        prog.write_text(text)
        at = str(rng.randrange(0, 40))
        stamps = [ln.split()[0] for ln in text.splitlines() if ln.split()[0].isdigit()]
        line = site.choice(stamps + ["0", "999"])
        pos = site.choice((0, 0, 1, 2, 9, -1, -9))
        yield text, [
            ["verify", str(prog)], ["render", str(prog), "--at", at],
            ["render", str(prog), "--animate"], ["graph", str(prog)],
            ["inject", str(prog), "--error", "e1", "-o", str(outdir / "e1.dmf")],
            ["inject", str(prog), "--error", "e2", "-o", str(outdir / "e2.dmf")],
            *(["inject", str(prog), "--error", e, f"--line={line}", f"--pos={pos}",
               "-o", str(outdir / f"{e}.dmf")] for e in ("e5", "e6"))]


def test_cli_survives_mutated_dmf_files(tmp_path, capsys):
    codes = Counter()
    for text, argvs in mutated_dmf_corpus(tmp_path, tmp_path):
        for argv in argvs:
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc in (0, 1, 2), (argv, text)
            assert rc != 2 or err.startswith("error: "), (argv, text, err)
            codes[argv[0], rc] += 1
            if argv[0] == "inject":
                codes[argv[3], rc] += 1
    # the corpus reaches every exit code of every command
    assert all(codes[cmd, rc] for cmd in ("verify", "render", "graph")
               for rc in (0, 1, 2)), codes
    assert all(codes[e, rc] for e in ("e1", "e2", "e5", "e6") for rc in (0, 2)), codes


_SG_PAIRS = (("twowaymix.dmf", "twowaymix.sg"), ("pcr.dmf", "pcr.sg"),
             ("threeway_bad.dmf", "threeway.sg"), ("recovery.dmf", "recovery.sg"))


def _mutate_sg(rng, text: str) -> tuple[str, bool]:
    """One malformed-graph mutation of an .sg text; the flag says whether it
    always makes the graph invalid."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    nodes = {ln.split()[1]: ln.split()[2] for ln in lines if ln.startswith("node")}
    edges = [tuple(ln.split()[1:]) for ln in lines if ln.startswith("edge")]
    mixes = [n for n, k in nodes.items() if k == "mix"]
    sinks = [n for n, k in nodes.items() if k in ("output", "waste")]
    kind = rng.choice(("cycle", "dangling", "indegree", "duplicate", "sink", "kind",
                       "drop-line", "dup-line", "swap-lines", "token"))
    if kind == "cycle":
        # reverse the feed of a mix into a mix: arities hold, a cycle appears
        a, b = rng.choice([e for e in edges if e[0] in mixes and e[1] in mixes])
        feed = next(i for i, ln in enumerate(lines) if ln.startswith("edge")
                    and ln.split()[2] == a)
        lines[feed] = f"edge {b} {a}"
        return "\n".join(lines) + "\n", True
    if kind == "dangling":
        a = rng.choice(list(nodes))
        lines.append(rng.choice((f"edge {a} ghost", f"edge ghost {a}")))
        return "\n".join(lines) + "\n", True
    if kind == "indegree":
        m = rng.choice(mixes)
        feeds = [i for i, ln in enumerate(lines) if ln.startswith("edge")
                 and ln.split()[2] == m]
        if rng.random() < 0.5:
            del lines[rng.choice(feeds)]
        else:
            lines.append(lines[rng.choice(feeds)])
        return "\n".join(lines) + "\n", True
    if kind == "duplicate":
        nid = rng.choice(list(nodes))
        lines.insert(rng.randrange(1, len(lines)),
                     rng.choice((f"node {nid} output", f"node {nid} mix 3")))
        return "\n".join(lines) + "\n", True
    if kind == "sink":
        # a sink feeds a mix in place of one of its inputs: arities hold
        if not sinks:
            sinks = ["Q"]
            lines += ["node Q waste", f"edge {mixes[-1]} Q"]
        feed = rng.choice([i for i, ln in enumerate(lines) if ln.startswith("edge")
                           and ln.split()[2] in mixes])
        lines[feed] = f"edge {rng.choice(sinks)} {lines[feed].split()[2]}"
        return "\n".join(lines) + "\n", True
    if kind == "kind":
        i = rng.choice([i for i, ln in enumerate(lines) if ln.startswith("node")])
        parts = lines[i].split()
        lines[i] = " ".join(parts[:2] + [rng.choice(("heat", "split", "Mix", ""))])
        return "\n".join(lines) + "\n", True
    if kind == "drop-line":
        del lines[rng.randrange(len(lines))]
    elif kind == "dup-line":
        lines.insert(rng.randrange(len(lines)), rng.choice(lines))
    elif kind == "swap-lines":
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        i = rng.randrange(len(lines))
        parts = lines[i].split()
        parts[rng.randrange(len(parts))] = rng.choice(("0", "-1", "x", "S", "M1", "O", ""))
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n", False


def mutated_sg_corpus(indir):
    """The seeded .sg mutation corpus: 200 mutated fixture graphs, each
    written to its own file under ``indir``.  Yields (argv, text, whether
    the mutation always makes the graph invalid)."""
    rng = random.Random(2718)
    for k in range(200):
        program, sg = rng.choice(_SG_PAIRS)
        text, always_invalid = _mutate_sg(rng, load(sg))
        sg_file = indir / f"mutated{k:03}.sg"
        sg_file.write_text(text)
        yield ["verify", fx(program), "--sg", str(sg_file)], text, always_invalid


def test_verify_survives_mutated_sg_files(tmp_path, capsys):
    invalid = 0
    for argv, text, always_invalid in mutated_sg_corpus(tmp_path):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), text
        if always_invalid:
            assert rc == 2 and err.startswith("error: "), text
            invalid += 1
    assert invalid >= 100


def _fixture_verify_argvs() -> list[list[str]]:
    argvs = [["verify", fx(name), "--format", "json"] for name in _DMF_FIXTURES]
    argvs += [["verify", fx(dmf), "--sg", fx(sg), "--format", "json"] for dmf, sg in _SG_PAIRS]
    argvs += [["verify", fx("mplex.dmf"), "--pins", fx(pins), "--format", "json"]
              for pins in ("mplex.pins", "mplex_pin1.pins", "mplex_pin2.pins",
                           "mplex_pin3.pins")]
    return argvs


def _verify_in_subprocess(argvs, *flags) -> list:
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from dmfv.cli import main
        out = []
        for argv in json.loads(sys.argv[1]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            out.append([rc, buf.getvalue()])
        print(json.dumps({"optimize": sys.flags.optimize, "runs": out}))
    """)
    src = FIXTURES.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *flags, "-c", code, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_verify_reports_unchanged_under_python_O():
    # assert statements vanish under -O; no verdict may rest on one
    argvs = _fixture_verify_argvs()
    plain = _verify_in_subprocess(argvs)
    optimized = _verify_in_subprocess(argvs, "-O")
    assert (plain["optimize"], optimized["optimize"]) == (0, 1)
    assert optimized["runs"] == plain["runs"]
    assert {rc for rc, _ in plain["runs"]} == {0, 1}


def test_cli_imports_no_fractions():
    # concentrations are integers over a power of two; Fraction is only the
    # tests' oracle, and importing it would also pull in decimal at start-up
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dmfv.cli; print('fractions' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr


def _module_cli(argv, **env) -> subprocess.CompletedProcess:
    """``python -m dmfv.cli`` on ``argv`` in a fresh interpreter, with ``env``
    added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"), **env)
    return subprocess.run([sys.executable, "-m", "dmfv.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_exits_with_the_verdict(tmp_path):
    # sys.exit(main()) hands the exit code to the shell
    passed = _module_cli(["verify", fx("pcr.dmf")])
    assert passed.returncode == 0 and "PASS" in passed.stdout, passed.stderr
    failed = _module_cli(["verify", fx("threeway_bad.dmf"), "--sg", fx("threeway.sg")])
    assert failed.returncode == 1 and "FAIL" in failed.stdout, failed.stderr
    missing = _module_cli(["verify", str(tmp_path / "missing.dmf")])
    assert (missing.returncode, missing.stdout) == (2, "")
    [line] = missing.stderr.splitlines()
    assert line.startswith("error: ") and "missing.dmf" in line


# the C locale without UTF-8 mode, whose default encoding is ASCII
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_inputs_are_read_as_utf8_whatever_the_locale(tmp_path):
    # a non-ASCII comment in a .dmf, .sg or .pins file must still be read
    ascii_locale = _ASCII_LOCALE
    probe = subprocess.run([sys.executable, "-c", "import locale; "
                            "print(locale.getpreferredencoding(False))"],
                           env=dict(os.environ, **ascii_locale), capture_output=True,
                           text=True, timeout=60)
    assert "utf" not in probe.stdout.lower(), probe.stdout
    f = {}
    for name in ("pcr.dmf", "pcr.sg", "mplex.dmf", "mplex_pin1.pins"):
        f[name] = tmp_path / name
        f[name].write_text("# résumé\n" + load(name), encoding="utf-8")
    runs = [(["verify", str(f["pcr.dmf"]), "--sg", str(f["pcr.sg"])], 0),
            (["verify", str(f["mplex.dmf"]), "--pins", str(f["mplex_pin1.pins"])], 1),
            (["inject", str(f["mplex.dmf"]), "--error", "pin", "--pins",
              str(f["mplex_pin1.pins"]), "--remap", "1,1=2", "-o", str(tmp_path / "bad.pins")],
             0)]
    for argv, rc in runs:
        proc = _module_cli(argv, **ascii_locale)
        assert (proc.returncode, proc.stderr) == (rc, ""), argv
    assert (tmp_path / "bad.pins").read_text().split()[:2] == ["2", "2"]


_SE = """dim(3,3)
accuracy 2
R(1,1,S\u00e9) O(1,3)
1 d(1,1)
2 m([1,1]->[1,2])
3 m([1,2]->[1,3])
4 output(1,3)
5 end
"""


def _se_files(tmp_path):
    """A program whose reagent is named S\u00e9, and a graph of reagent B."""
    prog, sg = tmp_path / "se.dmf", tmp_path / "b.sg"
    prog.write_text(_SE, encoding="utf-8")
    sg.write_text("reagents B\nnode B dispense B\nnode O output\nedge B O\n", encoding="utf-8")
    return prog, sg


@pytest.mark.parametrize("command", ["graph", "verify"])
def test_stdout_that_cannot_encode_the_text_exits_2(tmp_path, command):
    # under the ASCII locale, a DOT graph or a text report naming S\u00e9
    # (verify's e7 row names the realized reagents) is an output that
    # cannot be written: exit 2 with one error line, no traceback
    prog, sg = _se_files(tmp_path)
    argv = {"graph": ["graph", prog], "verify": ["verify", prog, "--sg", sg]}[command]
    proc = _module_cli(list(map(str, argv)), **_ASCII_LOCALE)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: "), line


@pytest.mark.parametrize("command", ["graph -o", "verify --events", "inject -o", "render -o",
                                     "render --svg"])
def test_files_are_written_as_utf8_whatever_the_locale(tmp_path, command):
    prog, _ = _se_files(tmp_path)
    out, frames = tmp_path / "out", tmp_path / "frames"
    argv, written = {
        "graph -o": (["graph", prog, "-o", out], [out]),
        "verify --events": (["verify", prog, "--events", out], [out]),
        "inject -o": (["inject", prog, "--error", "e3", "--to", "2,2", "-o", out], [out]),
        "render -o": (["render", prog, "--at", "2", "-o", out], [out]),
        "render --svg": (["render", prog, "--svg", "--animate", "-o", frames],
                         [frames / f"frame_000{i}_t{i + 1}.svg" for i in range(3)]),
    }[command]
    proc = _module_cli(list(map(str, argv)), **_ASCII_LOCALE)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    for path in written:
        assert "S\u00e9" in path.read_text(encoding="utf-8"), path


def test_swap_names_are_read_as_utf8_whatever_the_locale(tmp_path):
    # argv arrives as bytes: --swap S\u00e9,B must name the reagent that the
    # UTF-8 program declares, and bytes that are not UTF-8 exit 2; argv and
    # output are bytes here, so the test runs under any locale
    prog, out = tmp_path / "two.dmf", tmp_path / "out.dmf"
    prog.write_text(_SE.replace("O(1,3)", "R(3,1,B) O(1,3)"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"), PYTHONIOENCODING="utf-8",
               **_ASCII_LOCALE)

    def inject_swap(names: bytes) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "dmfv.cli", "inject", str(prog), "--error",
                               "e7", "--swap", names, "-o", str(out)],
                              env=env, capture_output=True, timeout=120)
    swapped = inject_swap("S\u00e9,B".encode())
    assert (swapped.returncode, swapped.stderr) == (0, b""), swapped.stderr
    assert swapped.stdout.decode().startswith("interchanged reagents S\u00e9 and B")
    assert "R(1,1,B) R(3,1,S\u00e9)" in out.read_text(encoding="utf-8")
    out.unlink()
    refused = inject_swap(b"S\xff,B")
    assert (refused.returncode, refused.stdout) == (2, b"")
    [line] = refused.stderr.decode().splitlines()
    assert line.startswith("error: 'utf-8' codec can't decode"), line
    assert not out.exists()


def test_benchmark_trace_targets_resolve():
    # the traced benchmark wraps dmfv attributes by name, and one it cannot
    # find reads 0 instead of failing; only the two known ones may be missing
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", FIXTURES.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {"cli": cli, "fluidics": fluidics, "chip": chip, "pins": pins,
               "branches": branches, "graph": graph}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        absent = set(tracer.absent)
    finally:
        tracer.remove()
    assert absent <= {"branches.enumerate_paths", "fluidics.check_*"}, absent
