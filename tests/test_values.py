"""dmfv's record and value types, built without ``dataclasses``: each keeps
the equality, hashing and repr that it had as a dataclass, and a fresh
``dmfv`` start never imports ``dataclasses`` (nor ``inspect``, which it
pulls in)."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dmfv import fluidics
from dmfv.chip import (CFVector, DetectionEntry, Dispensed, Droplet, MixCompleted, MixerEntry,
                       MixStarted, Outputted, Wasted, init_state)
from dmfv.diag import Code, Report, Violation
from dmfv.graph import MIX, SeqGraph, SGNode
from dmfv.inject import InjectionSpec
from dmfv.isa import (ChipHeader, CondCall, DetectorDecl, DetectStart, Dispense, End, Loc,
                      MixStart, Move, MType, Output, Program, RKind, ReservoirDecl, SemanticError,
                      TimedLine, Waste, parse_program)
from dmfv.pins import PinMap

from conftest import load

SRC = Path(__file__).resolve().parent.parent / "src"

_CF = CFVector((("A", 1), ("B", 1)), 1)
_HEADER = ChipHeader(6, 6, 5, (ReservoirDecl(Loc(1, 1), RKind.REAGENT, "A"),
                              ReservoirDecl(Loc(6, 6), RKind.OUTPUT)))
_LINE = TimedLine(1, (Move(Loc(2, 2), Loc(2, 3)), Dispense(Loc(1, 1))))
_MIXER = MixerEntry(Loc(2, 2), Loc(2, 5), 3, 7, MType.H14)
_STATE = init_state(_HEADER)

# one builder per converted type: each call builds a new value equal to the last
VALUES = {
    ReservoirDecl: lambda: ReservoirDecl(Loc(1, 1), RKind.REAGENT, "A"),
    DetectorDecl: lambda: DetectorDecl("d1", Loc(3, 3), 4),
    ChipHeader: lambda: ChipHeader(6, 6, 5, (ReservoirDecl(Loc(1, 1), RKind.REAGENT, "A"),)),
    Dispense: lambda: Dispense(Loc(1, 1)),
    Move: lambda: Move(Loc(2, 2), Loc(2, 3)),
    MixStart: lambda: MixStart(Loc(2, 2), Loc(2, 5), 3, MType.H14),
    Waste: lambda: Waste(Loc(1, 1)),
    Output: lambda: Output(Loc(1, 1)),
    DetectStart: lambda: DetectStart("d1"),
    CondCall: lambda: CondCall("d1", "1"),
    End: End,
    TimedLine: lambda: TimedLine(1, (Move(Loc(2, 2), Loc(2, 3)), End())),
    SemanticError: lambda: SemanticError("BadTimestamp", "timestamps must be non-negative", -1),
    Droplet: lambda: Droplet("v1", _CF),
    MixerEntry: lambda: MixerEntry(Loc(2, 2), Loc(2, 5), 3, 7, MType.H14),
    DetectionEntry: lambda: DetectionEntry("d1", Loc(3, 3), 9),
    Dispensed: lambda: Dispensed(1, "A", Loc(1, 1), CFVector.unit("A")),
    MixStarted: lambda: MixStarted(3, Loc(2, 2), Loc(2, 5), 7, MType.H14, ("A", "B")),
    MixCompleted: lambda: MixCompleted(7, "v1", Loc(2, 2), Loc(2, 5), 3, 7, ("A", "B"), _CF),
    Wasted: lambda: Wasted(8, "v1", Loc(1, 1), _CF),
    Outputted: lambda: Outputted(8, "v1", Loc(1, 1), _CF),
    fluidics.Rule: lambda: fluidics.RULES[Move]._replace(),
    Violation: lambda: Violation(Code.E1, "Static fluidic constraint violated", t=3,
                                 instructions=("m(2,2,2,3)",), cells=(Loc(2, 3), Loc(2, 4))),
    InjectionSpec: lambda: InjectionSpec("e2", line=4, move=(Loc(2, 2), Loc(2, 3))),
}
# a value that holds a dict, so that it is frozen but has no hash
UNHASHABLE_VALUES = {Program: lambda: Program(_HEADER, (_LINE,), (), {"1": (_LINE,)}, 9)}
RECORDS = {
    PinMap: lambda: PinMap(1, 2, {(1, 1): 1, (1, 2): 2}),
    Report: lambda: Report([Violation(Code.E3, "No droplet present on (2,2)", t=1)], 4, 9, ["n"]),
    fluidics.Trace: lambda: fluidics.Trace(("A",), [Dispensed(1, "A", Loc(1, 1), _CF)]),
    fluidics.StepResult: lambda: fluidics.StepResult(_STATE, [], []),
    fluidics.MemoEntry: lambda: fluidics.MemoEntry(_LINE.instrs),
    SGNode: lambda: SGNode("v1", MIX, t_mix=3),
    SeqGraph: lambda: SeqGraph(("A",), {"v1": SGNode("v1", MIX, t_mix=3)}, [("A", "v1")]),
}
ALL = {**VALUES, **UNHASHABLE_VALUES, **RECORDS}


def _astuple(x) -> tuple:
    return tuple(getattr(x, name) for name in x.__match_args__)


def test_no_src_module_imports_dataclasses():
    found = []
    for path in sorted((SRC / "dmfv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_a_fresh_cli_start_imports_neither_dataclasses_nor_inspect():
    code = ("import sys, dmfv.cli; dmfv.cli.build_parser(); "
            "print(*sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == []


def test_equal_values_compare_and_hash_equal():
    for cls, make in ALL.items():
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b, cls
        if cls in VALUES:
            assert hash(a) == hash(b), cls


def test_equality_is_type_sensitive():
    cell = Loc(1, 1)
    sinks = [Dispense(cell), Waste(cell), Output(cell)]
    for i, a in enumerate(sinks):
        for b in sinks[i + 1:]:
            assert a != b and not a == b and b != a, (a, b)
    wasted, outputted = Wasted(8, "v1", cell, _CF), Outputted(8, "v1", cell, _CF)
    assert wasted != outputted and not wasted == outputted
    assert DetectStart("d1") != CondCall("d1", "d1") and End() != Dispense(cell)
    made = [make() for make in ALL.values()]
    for i, a in enumerate(made):
        for b in made[i + 1:]:
            assert a != b and not a == b, (a, b)


def test_no_value_equals_a_plain_tuple():
    for cls, make in ALL.items():
        x = make()
        for plain in (_astuple(x), tuple(x) if isinstance(x, tuple) else ()):
            assert x != plain and not x == plain and plain != x and not plain == x, cls


def test_values_are_frozen_and_records_unhashable():
    for make in [*VALUES.values(), *UNHASHABLE_VALUES.values()]:
        x = make()
        for name in x.__match_args__:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
    for make in [*UNHASHABLE_VALUES.values(), *RECORDS.values()]:
        with pytest.raises(TypeError):
            hash(make())
    graph = RECORDS[SeqGraph]()
    graph.nodes["v1"].cf = _CF
    assert graph != RECORDS[SeqGraph]()


def test_copy_and_pickle_rebuild_a_value():
    for cls, make in {**VALUES, **UNHASHABLE_VALUES}.items():
        x = make()
        twins = [copy.copy(x), copy.deepcopy(x)]
        if cls is not fluidics.Rule:    # a rule's functions include lambdas
            twins.append(pickle.loads(pickle.dumps(x)))
        for twin in twins:
            assert type(twin) is cls and twin == x, cls
    move = pickle.loads(pickle.dumps(VALUES[Move]()))
    assert (move.max_row, move.max_col, move.probes) == (2, 3, ((1, 4), (2, 4), (3, 4)))


def test_violation_mixer_is_out_of_its_value_but_kept_by_replace():
    plain = VALUES[Violation]()
    worded = plain._replace(detail=_MIXER.span(), mixer=_MIXER)
    assert worded == plain._replace(detail=_MIXER.span())
    assert hash(worded) == hash(plain._replace(detail=_MIXER.span()))
    assert repr(worded) == (
        "Violation(code=<Code.E1: 'e1'>, response='Static fluidic constraint violated', t=3, "
        "instructions=('m(2,2,2,3)',), cells=(Loc(row=2, col=3), Loc(row=2, col=4)), pins=(), "
        "path=None, detail='mix (2,2)..(2,5) [3,7]', secondary=False)")
    for changes in ({"t": 5}, {"secondary": True}, {"path": "01"}):
        moved = worded._replace(**changes)
        assert moved.mixer is _MIXER and moved != worded, changes


def test_program_equality_reads_its_fields_only():
    text = load("pcr.dmf")
    checked, fresh = parse_program(text), parse_program(text, validate=False)
    assert "issues" in vars(checked) and "issues" not in vars(fresh)
    assert checked == fresh and not checked.has_conditionals
    assert "has_conditionals" in vars(checked) and checked == fresh
    assert fresh._replace(t_max=9999) != fresh
    assert fresh._replace(main=fresh.main) == fresh
