"""Fluidic instruction set: grammar, parser and serializer for .dmf programs.

A program is line oriented.  Header lines declare the electrode array
(``dim``), the concentration accuracy (``accuracy``), reservoirs
(``R``/``O``/``W``), optional on-chip detectors (``D``) and an optional
completion bound (``tmax``).  Every following line is ``<t> <instr>...``;
instructions sharing a line fire concurrently at tick t.  Error-recovery
routines appear after the main sequence as ``recovery <id>:`` blocks closed
by ``endrecovery``.

Two move/mix spellings are accepted, the arrow form ``m([3,1]->[3,2])`` /
``mix([3,1]<->[3,4],12,14)`` and the compact form ``m(3,1,3,2)`` /
``mix(3,1,3,4,12,14)``; both parse to the same AST and serialize back to
the arrow form.

Within one ``parse_program`` call each distinct line body parses once (by
its tokens, else by ``_scan``) and each distinct cell builds its ``Loc``
once.  Each distinct token builds its instruction once per process, in the
table ``_TOKENS``: an instruction is a slotted frozen ``Value`` that depends
only on its token's text, so programs for one chip share it exactly (bounds
depend on the array and are checked per program).  What the checks read of
an instruction's cells is built with it, out of equality and repr: an
instruction that names cells carries its extent (``max_row``, ``max_col``)
and a move its probes (``Move.probes``), whose cells all moves share
(``_PROBE_CELLS``, which also hold the cells of ``FORWARD``, each cell's
forward neighbours for the separation check).  A parse that finds more than
``_TOKENS_BOUND`` tokens in the table clears it, the probe cells and
``FORWARD`` first, which bounds their memory; the bound lies above the
token universe of one 60x60 array, so a process serving one chip never
clears them.
Validation checks every cell a program names against the array, each
distinct instruction tuple once: a line whose extents lie on the array
passes whole, and any other line takes a per-instruction loop, which words
an issue with the line's tick for each cell off the array (a tuple out of
bounds is checked on every line that holds it).  The engine relies on that
and tests no bounds itself.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from itertools import chain
from functools import cached_property
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence


# --- records and values -----------------------------------------------------

# dmfv's record and value types are plain classes, slotted classes and
# NamedTuples rather than dataclasses: importing ``dataclasses`` and
# generating each class's methods with it took most of ``import dmfv.cli``.

def _astuple(x) -> tuple:
    # the values of a record's fields, which are its ``__match_args__``
    return tuple([getattr(x, name) for name in x.__match_args__])


class Record:
    """Base of the plain record classes.  A record's fields are its
    ``__match_args__``: it equals only a record of its own type with equal
    fields, and its repr shows them.  A record may change, so it has no hash."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and _astuple(self) == _astuple(other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({shown})"


class Value(Record):
    """A record that never changes: ``__init__`` sets its attributes through
    ``object.__setattr__`` and nothing sets them later.  It hashes as the
    tuple of its fields.  Any other attribute is built from its fields, out
    of its equality, hash and repr."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(_astuple(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is frozen")

    def _replace(self, **changes):
        """The value built from its fields, with those in ``changes`` replaced."""
        return type(self)(**{name: getattr(self, name) for name in self.__match_args__} | changes)

    def __reduce__(self):
        # copy and pickle rebuild a value from its fields, as it refuses assignment
        return type(self), _astuple(self)


def value(cls):
    """Give a ``NamedTuple`` class the equality of a record, so that it equals
    no plain tuple and no value of another type.  It keeps the tuple's hash,
    which is the hash of its fields, as a ``Value``'s is."""
    cls.__eq__, cls.__ne__ = Record.__eq__, Record.__ne__
    return cls


class Loc(NamedTuple):
    row: int
    col: int

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


class RKind(Enum):
    REAGENT = "R"
    OUTPUT = "O"
    WASTE = "W"


class MType(Enum):
    # 1x4 horizontal and 4x1 vertical linear mixers; extensible.
    H14 = "14"
    V41 = "41"


@value
class ReservoirDecl(NamedTuple):
    loc: Loc
    kind: RKind
    name: str | None = None  # reagent name, only for RKind.REAGENT

    def text(self) -> str:
        if self.kind is RKind.REAGENT:
            return f"R({self.loc.row},{self.loc.col},{self.name})"
        return f"{self.kind.value}({self.loc.row},{self.loc.col})"


@value
class DetectorDecl(NamedTuple):
    id: str
    loc: Loc
    duration: int

    def text(self) -> str:
        return f"D({self.id},{self.loc.row},{self.loc.col},{self.duration})"


@value
class ChipHeader(NamedTuple):
    rows: int
    cols: int
    accuracy: int
    reservoirs: tuple[ReservoirDecl, ...]

    def in_bounds(self, loc: Loc) -> bool:
        return 0 < loc[0] <= self.rows and 0 < loc[1] <= self.cols

    @property
    def reagents(self) -> tuple[str, ...]:
        """Reagent names in declaration order (the CF component order)."""
        seen: list[str] = []
        for r in self.reservoirs:
            if r.kind is RKind.REAGENT and r.name not in seen:
                seen.append(r.name)
        return tuple(seen)


# --- instructions ---------------------------------------------------------

# the extent of an instruction that names a row or column below 1, or of one
# that names no cell (a class attribute), so that its line takes the loop of
# ``_check_locs``; no array reaches it
_OFF = float("inf")
# each probe cell (row, col), as the one tuple that every move's probes
# and ``FORWARD`` share; cleared with ``_TOKENS``
_PROBE_CELLS: dict[tuple[int, int], tuple[int, int]] = {}


class _Forward(dict):
    """Each cell -> the four of its eight neighbours that sort after it, in
    order: (r, c+1), (r+1, c-1), (r+1, c), (r+1, c+1).  An entry is built
    on its first lookup, from cells shared through ``_PROBE_CELLS``, and
    may lie off the array; cleared with ``_TOKENS``."""

    __slots__ = ()

    def __missing__(self, cell: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        r, c = cell
        share = _PROBE_CELLS.setdefault
        a, b, d, e = (r, c + 1), (r + 1, c - 1), (r + 1, c), (r + 1, c + 1)
        out = self[cell] = (share(a, a), share(b, b), share(d, d), share(e, e))
        return out


FORWARD = _Forward()


class _Placed(Value):
    """An instruction that names cells, with its extent: the largest row and
    column it names, or ``_OFF``.  It is built with the instruction and is
    out of equality, hashing and repr.  This ``__init__`` is that of an
    instruction whose one field is its one cell (dispense, waste, output)."""

    __slots__ = ("max_row", "max_col")

    def __init__(self, loc: Loc) -> None:
        object.__setattr__(self, "loc", loc)
        _place(self, loc, loc)


def _place(instr: _Placed, a: Loc, b: Loc) -> None:
    (r1, c1), (r2, c2) = a, b
    setattr_ = object.__setattr__
    setattr_(instr, "max_row", (r1 if r1 > r2 else r2) if r1 > 0 < r2 else _OFF)
    setattr_(instr, "max_col", (c1 if c1 > c2 else c2) if c1 > 0 < c2 else _OFF)


class Dispense(_Placed):
    __slots__ = __match_args__ = ("loc",)

    def compact(self) -> str:
        return f"d({self.loc.row},{self.loc.col})"

    canonical = compact


class Move(_Placed):
    # ``probes``: the three cells beyond the destination that the dynamic
    # rule checks, sorted, as shared (row, col) pairs; they may lie off the
    # array
    __slots__ = ("src", "dst", "probes")
    __match_args__ = ("src", "dst")

    def __init__(self, src: Loc, dst: Loc) -> None:
        # _place inline, as a move is the commonest instruction to build
        (r0, c0), (r, c) = src, dst
        if c != c0:
            beyond = c + c - c0
            a, b, d = (r - 1, beyond), (r, beyond), (r + 1, beyond)
        else:
            beyond = r + r - r0
            a, b, d = (beyond, c - 1), (beyond, c), (beyond, c + 1)
        share = _PROBE_CELLS.setdefault
        setattr_ = object.__setattr__
        setattr_(self, "src", src)
        setattr_(self, "dst", dst)
        setattr_(self, "max_row", (r if r > r0 else r0) if r > 0 < r0 else _OFF)
        setattr_(self, "max_col", (c if c > c0 else c0) if c > 0 < c0 else _OFF)
        setattr_(self, "probes", (share(a, a), share(b, b), share(d, d)))

    def compact(self) -> str:
        return f"m({self.src.row},{self.src.col},{self.dst.row},{self.dst.col})"

    def canonical(self) -> str:
        return f"m([{self.src.row},{self.src.col}]->[{self.dst.row},{self.dst.col}])"


class MixStart(_Placed):
    __slots__ = __match_args__ = ("a", "b", "t_mix", "mtype")

    def __init__(self, a: Loc, b: Loc, t_mix: int, mtype: MType) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "a", a)
        setattr_(self, "b", b)
        setattr_(self, "t_mix", t_mix)
        setattr_(self, "mtype", mtype)
        _place(self, a, b)

    def compact(self) -> str:
        return (f"mix({self.a.row},{self.a.col},{self.b.row},{self.b.col},"
                f"{self.t_mix},{self.mtype.value})")

    def canonical(self) -> str:
        return (f"mix([{self.a.row},{self.a.col}]<->[{self.b.row},{self.b.col}],"
                f"{self.t_mix},{self.mtype.value})")


class Waste(_Placed):
    __slots__ = __match_args__ = ("loc",)

    def compact(self) -> str:
        return f"waste({self.loc.row},{self.loc.col})"

    canonical = compact


class Output(_Placed):
    __slots__ = __match_args__ = ("loc",)

    def compact(self) -> str:
        return f"output({self.loc.row},{self.loc.col})"

    canonical = compact


class DetectStart(Value):
    __slots__ = __match_args__ = ("detector",)
    max_row = max_col = _OFF

    def __init__(self, detector: str) -> None:
        object.__setattr__(self, "detector", detector)

    def compact(self) -> str:
        return f"detect({self.detector})"

    canonical = compact


class CondCall(Value):
    __slots__ = __match_args__ = ("detector", "recovery")
    max_row = max_col = _OFF

    def __init__(self, detector: str, recovery: str) -> None:
        object.__setattr__(self, "detector", detector)
        object.__setattr__(self, "recovery", recovery)

    def compact(self) -> str:
        return f"if({self.detector}) call Recovery({self.recovery})"

    canonical = compact


class End(Value):
    __slots__ = ()
    max_row = max_col = _OFF

    def compact(self) -> str:
        return "end"

    canonical = compact


Instruction = Dispense | Move | MixStart | Waste | Output | DetectStart | CondCall | End


@value
class TimedLine(NamedTuple):
    t: int
    instrs: tuple[Instruction, ...]

    def text(self) -> str:
        return f"{self.t} " + " ".join(i.canonical() for i in self.instrs)


_BODY = attrgetter("instrs")


class Program(Value):
    """A parsed program: its five fields are its value.  What is worked out
    from them (``issues``, ``has_conditionals``, ``repeats``) is kept in its
    ``__dict__``."""

    __match_args__ = ("header", "main", "detectors", "recoveries", "t_max")

    def __init__(self, header: ChipHeader, main: tuple[TimedLine, ...],
                 detectors: tuple[DetectorDecl, ...] = (),
                 recoveries: dict[str, tuple[TimedLine, ...]] | None = None,
                 t_max: int | None = None) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "header", header)
        setattr_(self, "main", main)
        setattr_(self, "detectors", detectors)
        setattr_(self, "recoveries", {} if recoveries is None else recoveries)
        setattr_(self, "t_max", t_max)

    @cached_property
    def has_conditionals(self) -> bool:
        return any(CondCall in map(type, ln.instrs) for ln in self.main)

    @cached_property
    def issues(self) -> tuple[SemanticError, ...]:
        """What :func:`validate_structure` finds, run once per program."""
        return tuple(validate_structure(self))

    @cached_property
    def repeats(self) -> frozenset[int]:
        """The ids of the instruction tuples that one run may step twice:
        each that two or more lines share (the parser gives equal bodies one
        tuple; a recovery line counts, though a straight-line run never
        steps it) and, in a conditional program, whose forks re-step shared
        suffixes, every tuple.  The program keeps them alive.
        ``parse_program`` fills it from the bodies it met twice."""
        bodies = map(id, map(_BODY, chain(self.main, *self.recoveries.values())))
        if self.has_conditionals:
            return frozenset(bodies)
        return frozenset(key for key, n in Counter(bodies).items() if n > 1)


# --- errors ----------------------------------------------------------------

class DmfError(Exception):
    pass


class ParseError(DmfError):
    def __init__(self, message: str, line: int, col: int = 0, expected: str = ""):
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"line {line}" + (f", col {col}" if col else "")
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{loc}: {message}{suffix}")


@value
class SemanticError(NamedTuple):
    code: str
    message: str
    t: int | None = None

    def __str__(self) -> str:
        at = f" at t={self.t}" if self.t is not None else ""
        return f"{self.code}{at}: {self.message}"


class ValidationError(DmfError):
    def __init__(self, issues: Sequence[SemanticError]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


# --- parsing ----------------------------------------------------------------

_DIM_RE = re.compile(r"dim\s*(?:\(\s*(\d+)\s*,\s*(\d+)\s*\)|\s(\d+)\s+(\d+))\s*$")
_NUMBER_RE = re.compile(r"(accuracy|tmax)\s+(\d+)\s*$")
_RECOVERY_RE = re.compile(r"recovery\s+(\w+)\s*:\s*$")
_TIMED_RE = re.compile(r"(\d+)\s+(\S.*)$")


def _move(m: re.Match, cell, lineno: int, col: int) -> Move:
    r1, c1, r2, c2 = m.groups()
    src, dst = cell(r1, c1), cell(r2, c2)
    if abs(src[0] - dst[0]) + abs(src[1] - dst[1]) != 1:
        raise ParseError(f"move destination {dst} is not a 4-neighbor of {src}",
                         lineno, col)
    return Move(src, dst)


def _mix(m: re.Match, cell, lineno: int, col: int) -> MixStart:
    a, b = cell(m[1], m[2]), cell(m[3], m[4])
    t_mix = int(m[5])
    if t_mix < 1:
        raise ParseError("mixing time must be at least 1", lineno, col)
    try:
        mtype = MType(m[6])
    except ValueError:
        raise ParseError(f"unknown mixer type {m[6]!r}", lineno, col, "14 or 41") from None
    return MixStart(a, b, t_mix, mtype)


# (pattern, builder) pairs, tried in order at each position of a line.  A
# builder takes the match, the parse's cell memo, the line number and column.
# No two patterns of a table match at one position (their literal prefixes
# differ), so the order only decides how soon the match is found: moves,
# the commonest instruction, come first.
_DECL_PATTERNS = [
    (re.compile(r"R\((\d+),(\d+),([A-Za-z_]\w*)\)"),
     lambda m, cell, *_: ReservoirDecl(cell(m[1], m[2]), RKind.REAGENT, m[3])),
    (re.compile(r"O\((\d+),(\d+)\)"),
     lambda m, cell, *_: ReservoirDecl(cell(m[1], m[2]), RKind.OUTPUT)),
    (re.compile(r"W\((\d+),(\d+)\)"),
     lambda m, cell, *_: ReservoirDecl(cell(m[1], m[2]), RKind.WASTE)),
    (re.compile(r"D\(([A-Za-z_]\w*),(\d+),(\d+),(\d+)\)"),
     lambda m, cell, *_: DetectorDecl(m[1], cell(m[2], m[3]), int(m[4]))),
]

_INSTR_PATTERNS = [
    (re.compile(r"m\(\[(\d+),(\d+)\]\s*->\s*\[(\d+),(\d+)\]\)"), _move),
    (re.compile(r"m\((\d+),(\d+),(\d+),(\d+)\)"), _move),
    (re.compile(r"mix\(\[(\d+),(\d+)\]\s*<->\s*\[(\d+),(\d+)\],(\d+),(\d+)\)"), _mix),
    (re.compile(r"mix\((\d+),(\d+),(\d+),(\d+),(\d+),(\d+)\)"), _mix),
    (re.compile(r"d\((\d+),(\d+)\)"), lambda m, cell, *_: Dispense(cell(m[1], m[2]))),
    (re.compile(r"waste\((\d+),(\d+)\)"), lambda m, cell, *_: Waste(cell(m[1], m[2]))),
    (re.compile(r"output\((\d+),(\d+)\)"), lambda m, cell, *_: Output(cell(m[1], m[2]))),
    (re.compile(r"detect\(([A-Za-z_]\w*)\)"), lambda m, *_: DetectStart(m[1])),
    (re.compile(r"if\s*\(\s*([A-Za-z_]\w*)\s*\)\s*call\s*<?\s*Recovery\(\s*(\w+)\s*\)\s*>?"),
     lambda m, *_: CondCall(m[1], m[2])),
    (re.compile(r"end\b"), lambda *_: End()),
]


def _scan(line: str, lineno: int, patterns, cell) -> list:
    """Scan a whole line as a whitespace-separated sequence of pattern matches."""
    out = []
    pos = 0
    n = len(line)
    while pos < n:
        if line[pos].isspace():
            pos += 1
            continue
        for pat, builder in patterns:
            m = pat.match(line, pos)
            if m:
                out.append(builder(m, cell, lineno, pos + 1))
                pos = m.end()
                break
        else:
            raise ParseError(f"unrecognized token {line[pos:pos + 24]!r}",
                             lineno, pos + 1, "an instruction or declaration")
    return out


# token text -> its instruction, shared by every parse in the process
_TOKENS: dict[str, Instruction] = {}
_TOKENS_BOUND = 1 << 15


def _tokens(body: str, memo: dict[str, Instruction], cell) -> tuple[Instruction, ...] | None:
    """A body's instructions as ``_scan`` reads them, if each whitespace-separated
    token fullmatches an instruction pattern and builds; else None.  A body
    whose tokens are all in ``memo`` is read in one lookup per token."""
    toks = body.split()
    out = list(map(memo.get, toks))
    if all(out):
        return tuple(out)
    out = []
    for tok in toks:
        instr = memo.get(tok)
        if instr is None:
            for pat, builder in _INSTR_PATTERNS:
                m = pat.fullmatch(tok)
                if m is not None:
                    break
            else:
                return None
            try:
                instr = memo[tok] = builder(m, cell, 0, 0)
            except ParseError:
                return None
        out.append(instr)
    return tuple(out)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line with more than a comment, which runs
    from ``#`` to the end of its line: the rule of .dmf, .sg and .pins files."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def parse_program(text: str, *, validate: bool = True) -> Program:
    """Parse a .dmf program.

    Raises ParseError on malformed tokens.  With ``validate`` (the default),
    structural invariants are also enforced and the first batch of semantic
    issues raises ValidationError; pass ``validate=False`` to obtain the raw
    parse and inspect issues via :func:`validate_structure`.
    """
    dim: tuple[int, int] | None = None
    numbers: dict[str, int] = {}      # the accuracy and tmax headers
    reservoirs: list[ReservoirDecl] = []
    detectors: list[DetectorDecl] = []
    main: list[TimedLine] = []
    recoveries: dict[str, tuple[TimedLine, ...]] = {}
    current_recovery: str | None = None
    recovery_lines: list[TimedLine] = []
    # Per-call memos: each distinct body (the text after the timestamp) parses
    # once and each distinct cell builds its Loc once.  ``_TOKENS`` holds only
    # instructions (a declaration in a body is an unrecognized token).  Bodies
    # that ``_tokens`` refuses go to ``_scan``, the only writer of parse errors.
    bodies: dict[str, tuple[Instruction, ...]] = {}
    again: set[str] = set()     # the bodies met on an earlier line
    cells: dict[tuple[str, str], Loc] = {}
    if len(_TOKENS) > _TOKENS_BOUND:
        _TOKENS.clear()
        _PROBE_CELLS.clear()
        FORWARD.clear()

    def cell(row: str, col: str) -> Loc:
        loc = cells.get((row, col))
        if loc is None:
            loc = cells[row, col] = Loc(int(row), int(col))
        return loc

    for lineno, line in content_lines(text):
        if line[0].isdigit():
            # no header pattern matches a line that starts with a digit
            m = _TIMED_RE.match(line)
            if m:
                body = m[2]
                instrs = bodies.get(body)
                if instrs is None:
                    instrs = bodies[body] = (_tokens(body, _TOKENS, cell) or tuple(
                        _scan(body, lineno, _INSTR_PATTERNS, cell)))
                else:
                    again.add(body)
                tl = TimedLine(int(m[1]), instrs)
                (recovery_lines if current_recovery is not None else main).append(tl)
                continue
            raise ParseError(f"unrecognized line {line[:32]!r}", lineno)
        m = _DIM_RE.match(line)
        if m:
            if dim is not None:
                raise ParseError("duplicate dim declaration", lineno)
            vals = [g for g in m.groups() if g is not None]
            dim = (int(vals[0]), int(vals[1]))
            if dim[0] < 1 or dim[1] < 1:
                raise ParseError("chip dimensions must be positive", lineno)
            continue
        m = _NUMBER_RE.match(line)
        if m:
            if m[1] in numbers:
                raise ParseError(f"duplicate {m[1]} declaration", lineno)
            numbers[m[1]] = int(m[2])
            continue
        m = _RECOVERY_RE.match(line)
        if m:
            if current_recovery is not None:
                raise ParseError("recovery block opened inside another recovery", lineno)
            current_recovery = m[1]
            recovery_lines = []
            continue
        if line == "endrecovery":
            if current_recovery is None:
                raise ParseError("endrecovery outside a recovery block", lineno)
            if current_recovery in recoveries:
                raise ParseError(f"duplicate recovery block {current_recovery!r}", lineno)
            recoveries[current_recovery] = tuple(recovery_lines)
            current_recovery = None
            continue
        if line[0] in "ROWD":
            if main or current_recovery is not None:
                raise ParseError("declarations must precede instruction lines", lineno)
            for decl in _scan(line, lineno, _DECL_PATTERNS, cell):
                (detectors if isinstance(decl, DetectorDecl) else reservoirs).append(decl)
            continue
        raise ParseError(f"unrecognized line {line[:32]!r}", lineno)

    if current_recovery is not None:
        raise ParseError(f"recovery block {current_recovery!r} not closed", 0, expected="endrecovery")
    if dim is None:
        raise ParseError("missing dim declaration", 0, expected="dim(r,c)")
    if "accuracy" not in numbers:
        raise ParseError("missing accuracy declaration", 0, expected="accuracy n")

    header = ChipHeader(dim[0], dim[1], numbers["accuracy"], tuple(reservoirs))
    program = Program(header, tuple(main), tuple(detectors), recoveries, numbers.get("tmax"))
    # ``repeats`` as the parse found it, which spares a pass over the lines
    repeated = bodies.values() if program.has_conditionals else map(bodies.get, again)
    program.__dict__["repeats"] = frozenset(map(id, repeated))
    if validate and program.issues:
        raise ValidationError(program.issues)
    return program


def serialize_program(p: Program) -> str:
    """Canonical text form; parse_program(serialize_program(p)) == p."""
    out = [f"dim({p.header.rows},{p.header.cols})", f"accuracy {p.header.accuracy}"]
    if p.header.reservoirs:
        out.append(" ".join(r.text() for r in p.header.reservoirs))
    if p.detectors:
        out.append(" ".join(d.text() for d in p.detectors))
    if p.t_max is not None:
        out.append(f"tmax {p.t_max}")
    out.extend(ln.text() for ln in p.main)
    for rid, lines in p.recoveries.items():
        out.append(f"recovery {rid}:")
        out.extend(ln.text() for ln in lines)
        out.append("endrecovery")
    return "\n".join(out) + "\n"


# --- structural validation ---------------------------------------------------

# the cells each instruction type names, for the bounds check
_CELLS = {
    Dispense: lambda instr: (instr.loc,),
    Waste: lambda instr: (instr.loc,),
    Output: lambda instr: (instr.loc,),
    Move: lambda instr: (instr.src, instr.dst),
    MixStart: lambda instr: (instr.a, instr.b),
}


_MAX_ROW, _MAX_COL = attrgetter("max_row"), attrgetter("max_col")


def _check_locs(p: Program, line: TimedLine, issues: list[SemanticError]) -> list:
    """Add an issue for each cell of the line off the array; return the
    (position, instruction) pairs of the instructions that name no cell.
    A line whose extents lie on the array holds neither, and passes whole;
    on any other line, so does each instruction whose extent does."""
    hdr, instrs = p.header, line.instrs
    rows, cols = hdr.rows, hdr.cols
    if not instrs or (max(map(_MAX_ROW, instrs)) <= rows
                      and max(map(_MAX_COL, instrs)) <= cols):
        return []
    control = []
    for j, instr in enumerate(instrs):
        if instr.max_row <= rows and instr.max_col <= cols:
            continue
        cells = _CELLS.get(type(instr))
        if cells is None:
            control.append((j, instr))
            continue
        for loc in cells(instr):
            if not hdr.in_bounds(loc):
                issues.append(SemanticError(
                    "OutOfBounds", f"{instr.compact()} references {loc} outside the "
                    f"{hdr.rows}x{hdr.cols} array", line.t))
    return control


def validate_structure(p: Program) -> list[SemanticError]:
    """Return all structural invariant violations (empty list means valid)."""
    issues: list[SemanticError] = []
    hdr = p.header

    if hdr.accuracy < 1:
        issues.append(SemanticError("BadAccuracy", "accuracy must be at least 1"))
    if not any(r.kind is RKind.REAGENT for r in hdr.reservoirs):
        issues.append(SemanticError("NoReagentReservoir", "at least one reagent reservoir is required"))
    reserved = ", ".join(name for name in hdr.reagents if re.fullmatch(r"v\d+|O|W", name))
    if reserved:
        issues.append(SemanticError("ReservedName", f"reserved reagent name(s) {reserved}: the "
                                    "realized graph names its mixes v1, v2, ... and its sinks O and W"))
    seen_locs: set[Loc] = set()
    for r in hdr.reservoirs:
        if r.loc in seen_locs:
            issues.append(SemanticError("DuplicateReservoir", f"two reservoirs declared at {r.loc}"))
        seen_locs.add(r.loc)
        if not hdr.in_bounds(r.loc):
            issues.append(SemanticError("OutOfBounds", f"reservoir at {r.loc} outside the array"))
    det_ids: set[str] = set()
    for d in p.detectors:
        if d.id in det_ids:
            issues.append(SemanticError("DuplicateDetector", f"detector {d.id} declared twice"))
        det_ids.add(d.id)
        if not hdr.in_bounds(d.loc):
            issues.append(SemanticError("OutOfBounds", f"detector {d.id} at {d.loc} outside the array"))
        if d.duration < 1:
            issues.append(SemanticError("BadDuration", f"detector {d.id} duration must be at least 1"))

    # (line index, position, instruction) of each main-line instruction that
    # names no cell: the end marker and conditional rules below read only these
    main_control: list[tuple[int, int, Instruction]] = []
    # the (position, instruction) pairs that name no cell, of each instruction
    # tuple found in bounds, by id; lines share equal bodies' tuples, and p
    # keeps every tuple alive, so each clean body is checked once
    control_of: dict[int, list[tuple[int, Instruction]]] = {}

    def check_lines(lines: tuple[TimedLine, ...], in_recovery: str | None) -> None:
        prev = None
        for i, ln in enumerate(lines):
            if prev is not None and ln.t <= prev:
                issues.append(SemanticError(
                    "NonMonotonicTime", f"timestamp {ln.t} does not increase past {prev}", ln.t))
            prev = ln.t
            if ln.t < 0:
                issues.append(SemanticError("BadTimestamp", "timestamps must be non-negative", ln.t))
            control = control_of.get(id(ln.instrs))
            if control is None:
                found = len(issues)
                control = _check_locs(p, ln, issues)
                if len(issues) == found:
                    control_of[id(ln.instrs)] = control
            for j, instr in control:
                if in_recovery is None:
                    main_control.append((i, j, instr))
                if isinstance(instr, (DetectStart, CondCall)) and instr.detector not in det_ids:
                    issues.append(SemanticError(
                        "UndeclaredDetector", f"detector {instr.detector!r} is not declared", ln.t))
                if isinstance(instr, CondCall):
                    if in_recovery is not None:
                        issues.append(SemanticError(
                            "NestedConditional", "recovery routines may not branch", ln.t))
                    elif instr.recovery not in p.recoveries:
                        issues.append(SemanticError(
                            "UndeclaredRecovery", f"Recovery({instr.recovery}) has no block", ln.t))
                    elif len(ln.instrs) != 1:
                        issues.append(SemanticError(
                            "CondNotAlone", "a conditional call must be alone on its line", ln.t))
                if isinstance(instr, End) and in_recovery is not None:
                    issues.append(SemanticError("EndInRecovery", "end is not allowed in a recovery", ln.t))

    check_lines(p.main, None)
    for rid, lines in p.recoveries.items():
        if not lines:
            issues.append(SemanticError("EmptyRecovery", f"Recovery({rid}) has no instruction lines"))
        check_lines(lines, rid)

    # end must be the final instruction of the final main line, nowhere else
    for i, j, instr in main_control:
        if isinstance(instr, End):
            ln = p.main[i]
            last = i == len(p.main) - 1 and j == len(ln.instrs) - 1
            if not last:
                issues.append(SemanticError("EndNotLast", "end must be the final instruction", ln.t))

    # each recovery referenced by at most one conditional (fault model)
    used: dict[str, int] = {}
    for _, _, instr in main_control:
        if isinstance(instr, CondCall):
            used[instr.recovery] = used.get(instr.recovery, 0) + 1
    for rid, count in used.items():
        if count > 1:
            issues.append(SemanticError(
                "RecoveryReused", f"Recovery({rid}) is referenced by {count} conditionals"))

    if p.t_max is not None and p.main and p.t_max < p.main[-1].t:
        issues.append(SemanticError(
            "TMaxTooSmall", f"tmax {p.t_max} precedes the final line at t={p.main[-1].t}"))
    return issues
