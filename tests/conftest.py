from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


def load(name: str) -> str:
    return (FIXTURES / name).read_text()


def fractions_of(cf) -> dict[str, Fraction]:
    """A {reagent: Fraction} view of a concentration vector."""
    return {k: Fraction(v, 1 << cf.exp) for k, v in cf.nums}


def line_at(program, t: int):
    """The first main line of ``program`` at tick t."""
    return next(ln for ln in program.main if ln.t == t)


def dedicated_map(rows: int, cols: int):
    """One pin per electrode (fully reconfigurable chip)."""
    from itertools import product

    from dmfv.pins import PinMap

    cells = product(range(1, rows + 1), range(1, cols + 1))
    return PinMap(rows, cols, dict(zip(cells, range(1, rows * cols + 1))))


def with_droplet(state, node: str, loc, cf):
    """A copy of ``state`` with one more droplet, ``node`` of concentration
    ``cf``, on ``loc``; the chip's guard refuses an occupied cell."""
    from dmfv.chip import Droplet

    new = state.copy()
    new._add(loc, Droplet(node, cf))
    return new


def check_dispense_pins(pmap, state, loc):
    """The pin dispense rule at ``loc``, against the droplets on ``state`` in
    sorted order, through the owner index that ``pins.pin_phase`` builds."""
    from dmfv import pins

    return pins._dispense_row(pmap, loc, pins._n4_owners(pmap, sorted(state.by_loc)))


def mutant(fn, old: str, new: str):
    """``fn`` rebuilt from its source with the one occurrence of ``old``
    replaced by ``new``, in its own module's namespace: a mutant to
    monkeypatch in its place, which an oracle test must catch."""
    import __future__
    import inspect
    import textwrap

    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    code = compile(source.replace(old, new), f"<mutant of {fn.__qualname__}>", "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace: dict = {}
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


def without_memo(fn, *args, **kw):
    """fn(*args, **kw) with every line stepped by the plain step, which has
    no memo and checks every line: the oracle of the step memo.  Each cursor
    is built as if no body could repeat, so it hands every line to
    ``fluidics.step`` and keeps no verdict."""
    from dmfv import fluidics

    init = fluidics.Cursor.__init__

    def plain(cursor, *a, **k):
        init(cursor, *a, **k)
        cursor.repeats = frozenset()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fluidics.Cursor, "__init__", plain)
        return fn(*args, **kw)


def memo_step(memo: dict, **kw):
    """A ``step(state, line)`` for lines drawn outside a program that
    consults and fills ``memo`` as a cursor does for a body that can
    repeat: a cursor, with ``kw`` (policy, pin map), put on ``state`` before
    the line.  It returns the cursor's state after the line, the line's rows
    and its events as a ``StepResult``."""
    from dmfv import fluidics
    from dmfv.isa import Program

    def stepped(state, line):
        program = Program(state.header, ())
        program.__dict__["issues"] = ()     # the lines come from outside it
        cursor = fluidics.Cursor(program, **kw)
        cursor.state, cursor.memo, cursor.repeats = state, memo, {id(line.instrs)}
        events = cursor.advance(line)
        return fluidics.StepResult(cursor.state, cursor.rows, events)
    return stepped


def without_bulk(fn, *args, **kw):
    """fn(*args, **kw) with every line checked instruction by instruction:
    the one-pass transport of lines of moves refuses every line, and its
    oracle, the per-instruction path, decides and commits them all."""
    from dmfv import fluidics

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fluidics, "_transport", lambda snapshot, instrs, t: None)
        return fn(*args, **kw)


def count_checked_lines(monkeypatch) -> list[int]:
    """A one-item counter of the lines whose checks run; a step that its memo
    serves builds no ``LineContext``."""
    from dmfv import fluidics

    checked = [0]
    real = fluidics.LineContext

    def counted(*args):
        checked[0] += 1
        return real(*args)

    monkeypatch.setattr(fluidics, "LineContext", counted)
    return checked


def count_stepped_lines(monkeypatch) -> list:
    """A list that gets one item for each line that a cursor steps, whether
    its memo serves the line or its checks run: each ``Cursor.advance`` on a
    cursor that has not stopped."""
    from dmfv import fluidics

    calls = []
    advance = fluidics.Cursor.advance

    def counted(cursor, line):
        if not cursor.stopped:
            calls.append(1)
        return advance(cursor, line)

    monkeypatch.setattr(fluidics.Cursor, "advance", counted)
    return calls


def count_memo_hits(monkeypatch) -> list[int]:
    """A two-item counter of the lines that their cursor's memo serves, and
    of those served on a tick where ``expire`` resolved a mixer or a
    detection, whose commit goes onto ``expire``'s copy.  A served line is
    one that a cursor steps (it expires the line's snapshot) without any
    check of it, not even the one-pass transport, which every checked line
    runs first."""
    from dmfv import fluidics

    hits, stepped, checked, resolved = [0, 0], [False], [False], [False]
    advance, transport, expire = fluidics.Cursor.advance, fluidics._transport, fluidics.expire

    def checking(*args):
        checked[0] = True
        return transport(*args)

    def expiring(state, t):
        stepped[0] = True
        out = expire(state, t)
        resolved[0] = out[0] is not state
        return out

    def counted(cursor, line):
        stepped[0] = checked[0] = resolved[0] = False
        events = advance(cursor, line)
        hit = stepped[0] and not checked[0]
        hits[0] += hit
        hits[1] += hit and resolved[0]
        return events

    monkeypatch.setattr(fluidics, "_transport", checking)
    monkeypatch.setattr(fluidics, "expire", expiring)
    monkeypatch.setattr(fluidics.Cursor, "advance", counted)
    return hits


def finished_runs(fn, *args, **kw):
    """fn(*args, **kw) and, in the order they finish, each run's final chip
    state (None for a run stopped at its failing tick), caught by wrapping
    ``Cursor.finish``: one per straight-line run.  For the path walk, which
    finishes only the paths it steps to their end, use ``stepped_paths``."""
    from dmfv import fluidics

    runs = []
    finish = fluidics.Cursor.finish

    def caught(cursor):
        runs.append(None if cursor.stopped else cursor.state)
        return finish(cursor)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fluidics.Cursor, "finish", caught)
        return fn(*args, **kw), runs


REPLAYED = "replayed"


def path_verdicts(report) -> dict[str, tuple[bool, int | None]]:
    """By label, in the report's order, whether each path passed and its
    final tick, read off the ``path L: PASS|FAIL, ends t=T`` notes that open
    the path walk's report."""
    found = (re.fullmatch(r"path ([01]*): (PASS|FAIL), ends t=(\d+|None)", n)
             for n in report.notes)
    return {m[1]: (m[2] == "PASS", None if m[3] == "None" else int(m[3]))
            for m in found if m}


def path_rows(report) -> dict[str | None, list]:
    """The path walk's rows, grouped by the label each is tagged with."""
    rows: dict[str | None, list] = {}
    for v in report.violations:
        rows.setdefault(v.path, []).append(v)
    return rows


def stepped_paths(fn, *args, **kw):
    """fn(*args, **kw) and, by label, the final chip state of each path that
    the path walk steps to its end (None for a run stopped at its failing
    tick), caught by wrapping ``branches._leaf``, the one function that
    builds the end facts of a path stepped to its end.  A path missing from
    it reached a node of the path DAG that another path stepped before;
    tests mark it ``REPLAYED``."""
    from dmfv import branches

    finals = {}
    leaf = branches._leaf

    def caught(label, cursor):
        finals[label] = None if cursor.stopped else cursor.state
        return leaf(label, cursor)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(branches, "_leaf", caught)
        return fn(*args, **kw), finals
