import random
import re
from collections import Counter

import pytest

from dmfv import isa
from dmfv.cli import main
from dmfv.isa import (ChipHeader, CondCall, DetectorDecl, DetectStart, Dispense, End,
                      Instruction, Loc, MixStart, Move, MType, Output, ParseError, Program,
                      ReservoirDecl, RKind, SemanticError, TimedLine, ValidationError, Waste,
                      parse_program, serialize_program, validate_structure)

from conftest import load
from test_cli import _DMF_FIXTURES, _mutate_dmf

SMALL = """\
dim(5,4)
accuracy 5
R(1,1,S) R(1,4,B) O(5,1) W(5,4)
1 d(1,1) d(1,4)
2 m([1,1]->[2,1]) m([1,4]->[2,4])
3 end
"""


def test_parse_header_and_reservoirs():
    p = parse_program(SMALL)
    assert (p.header.rows, p.header.cols) == (5, 4)
    assert p.header.accuracy == 5
    kinds = [r.kind for r in p.header.reservoirs]
    assert kinds == [RKind.REAGENT, RKind.REAGENT, RKind.OUTPUT, RKind.WASTE]
    assert p.header.reagents == ("S", "B")
    assert len(p.main) == 3


def test_parse_dim_spelled_with_spaces():
    p = parse_program("dim 5 4\naccuracy 5\nR(1,1,S)\n0 end\n")
    assert (p.header.rows, p.header.cols) == (5, 4)


def test_empty_assay():
    p = parse_program("dim(3,3)\naccuracy 1\nR(1,1,S)\n0 end\n")
    assert len(p.main) == 1
    assert isinstance(p.main[0].instrs[0], End)


def test_both_move_spellings_identical():
    a = parse_program("dim(5,4)\naccuracy 5\nR(1,1,S)\n1 m([3,1]->[3,2])\n2 end\n")
    b = parse_program("dim(5,4)\naccuracy 5\nR(1,1,S)\n1 m(3,1,3,2)\n2 end\n")
    assert a.main[0] == b.main[0]
    assert a.main[0].instrs[0] == Move(Loc(3, 1), Loc(3, 2))


def test_both_mix_spellings_identical():
    a = parse_program("dim(5,4)\naccuracy 5\nR(1,1,S)\n"
                      "1 mix([3,1]<->[3,4],12,14)\n2 end\n")
    b = parse_program("dim(5,4)\naccuracy 5\nR(1,1,S)\n1 mix(3,1,3,4,12,14)\n2 end\n")
    assert a.main[0] == b.main[0]
    mix = a.main[0].instrs[0]
    assert mix == MixStart(Loc(3, 1), Loc(3, 4), 12, MType.H14)


def test_conditional_and_detector_syntax():
    text = ("dim(8,8)\naccuracy 5\nR(1,1,S)\nD(d1,4,4,2)\n"
            "1 d(1,1)\n5 detect(d1)\n7 if(d1) call Recovery(1)\n9 end\n"
            "recovery 1:\n8 m([4,4]->[4,5])\nendrecovery\n")
    p = parse_program(text)
    assert p.detectors[0].loc == Loc(4, 4)
    assert CondCall("d1", "1") in p.main[2].instrs
    # the paper-style spelling with angle brackets parses too
    alt = text.replace("if(d1) call Recovery(1)", "if (d1)  call <Recovery(1)>")
    assert parse_program(alt) == p


def test_move_must_be_four_neighbor():
    with pytest.raises(ParseError):
        parse_program("dim(5,4)\naccuracy 5\nR(1,1,S)\n1 m([3,1]->[4,2])\n2 end\n")


def test_duplicate_headers_are_refused():
    # a second accuracy or tmax line would silently replace the first, as a
    # second dim line would redefine the chip
    base = "dim(4,4)\naccuracy 3\ntmax 10\nR(1,1,S)\n1 d(1,1)\n2 end\n"
    assert parse_program(base).t_max == 10
    for extra, name in (("accuracy 5", "accuracy"), ("tmax 3", "tmax"), ("dim(5,5)", "dim")):
        with pytest.raises(ParseError, match=f"duplicate {name} declaration") as err:
            parse_program(base.replace("R(1,1,S)", f"{extra}\nR(1,1,S)"))
        assert err.value.line == 4


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("dim(5,4)\naccuracy 5\nR(1,1,S)\n1 d(1,1) blargh\n")
    assert err.value.line == 4
    assert err.value.col > 1


def test_each_distinct_line_body_parses_once(monkeypatch):
    # each distinct body is split into tokens once; only the header and the
    # bodies that the token path refuses reach the scanner, once each
    tokenized, scanned = [], []
    tokens, scan = isa._tokens, isa._scan

    def counted_tokens(body, *rest):
        tokenized.append(body)
        return tokens(body, *rest)

    def counted_scan(line, *rest):
        scanned.append(line)
        return scan(line, *rest)
    monkeypatch.setattr(isa, "_tokens", counted_tokens)
    monkeypatch.setattr(isa, "_scan", counted_scan)
    program = parse_program("dim(4,4)\naccuracy 2\nR(1,1,S)\n1 d(1,1)\n2 m(1,1,1,2)\n"
                            "3 m(1,2,1,1)\n4 m(1,1,1,2)\n5 m(1,2,1,1)\n"
                            "6 m([1,1] -> [1,2])\n7 m(1,2,1,1)\n8 m([1,1] -> [1,2])\n9 end\n")
    assert tokenized == ["d(1,1)", "m(1,1,1,2)", "m(1,2,1,1)", "m([1,1] -> [1,2])", "end"]
    assert scanned == ["R(1,1,S)", "m([1,1] -> [1,2])"]
    assert program.main[3].instrs is program.main[1].instrs == (Move(Loc(1, 1), Loc(1, 2)),)
    assert program.main[7].instrs is program.main[5].instrs == program.main[1].instrs


def test_pcr_fixture_parses():
    p = parse_program(load("pcr.dmf"))
    assert (p.header.rows, p.header.cols) == (15, 15)
    assert len(p.header.reagents) == 8
    assert len(p.main) == 16
    assert p.main[-1].t == 34


def test_roundtrip_fixtures():
    for name in ("pcr.dmf", "twowaymix.dmf", "threeway_bad.dmf", "recovery.dmf",
                 "mplex.dmf"):
        p = parse_program(load(name))
        assert parse_program(serialize_program(p)) == p


def test_serializer_canonical_form():
    p = parse_program(load("pcr.dmf"))
    assert serialize_program(p).startswith("dim(15,15)\naccuracy 5\n")


# --- structural validation -----------------------------------------------------

def _program(lines, header=None, detectors=(), recoveries=None):
    header = header or ChipHeader(5, 4, 5, (ReservoirDecl(Loc(1, 1), RKind.REAGENT, "S"),))
    return Program(header, tuple(lines), tuple(detectors), recoveries or {})


def test_validate_clean_fixture():
    assert validate_structure(parse_program(load("pcr.dmf"))) == []


def test_validate_non_monotonic_time():
    p = _program([TimedLine(5, (Dispense(Loc(1, 1)),)),
                  TimedLine(3, (End(),))])
    issues = validate_structure(p)
    assert any(i.code == "NonMonotonicTime" and i.t == 3 for i in issues)


def test_validate_undeclared_detector():
    p = _program([TimedLine(1, (CondCall("d9", "1"),))],
                 recoveries={"1": (TimedLine(2, (Dispense(Loc(1, 1)),)),)})
    issues = validate_structure(p)
    assert any(i.code == "UndeclaredDetector" and "d9" in i.message for i in issues)


def test_validate_duplicate_reservoir_and_bounds():
    header = ChipHeader(5, 4, 5, (ReservoirDecl(Loc(1, 1), RKind.REAGENT, "S"),
                                  ReservoirDecl(Loc(1, 1), RKind.WASTE)))
    p = Program(header, (TimedLine(1, (Dispense(Loc(9, 9)),)),), (), {})
    codes = {i.code for i in validate_structure(p)}
    assert "DuplicateReservoir" in codes
    assert "OutOfBounds" in codes


def test_validate_reserved_reagent_names():
    # the realized graph names mixes v1, v2, ... and its sinks O and W
    names = ("v3", "S", "O", "v", "vO", "W", "Ov", "V1", "v12")
    header = ChipHeader(9, 9, 5, tuple(ReservoirDecl(Loc(1, c), RKind.REAGENT, name)
                                      for c, name in enumerate(names, start=1)))
    issues = validate_structure(Program(header, (TimedLine(1, (End(),)),), (), {}))
    assert [(i.code, i.message) for i in issues] == [(
        "ReservedName", "reserved reagent name(s) v3, O, W, v12: the realized graph "
                        "names its mixes v1, v2, ... and its sinks O and W")]


def test_validate_end_must_be_last():
    p = _program([TimedLine(1, (End(),)), TimedLine(2, (Dispense(Loc(1, 1)),))])
    assert any(i.code == "EndNotLast" for i in validate_structure(p))


def test_parse_raises_on_semantic_issue_by_default():
    with pytest.raises(ValidationError):
        parse_program("dim(5,4)\naccuracy 5\nR(1,1,S)\n5 d(1,1)\n3 end\n")


# --- fuzz / property -------------------------------------------------------------

def _noise_corpus() -> list[str]:
    rng = random.Random(20240817)
    alphabet = "dimacuryRSWO()[]<->, \n0123456789ex#:"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
             for _ in range(400)]
    # mutated valid programs
    base = load("pcr.dmf")
    for _ in range(200):
        i = rng.randrange(len(base))
        texts.append(base[:i] + rng.choice("xyz([,") + base[i + 1:])
    return texts


def test_parser_never_crashes_on_noise():
    for text in _noise_corpus():
        try:
            parse_program(text)
        except (ParseError, ValidationError):
            pass


def _random_program(rng: random.Random) -> Program:
    rows, cols = rng.randrange(3, 9), rng.randrange(3, 9)
    reservoirs = [ReservoirDecl(Loc(1, 1), RKind.REAGENT, "A")]
    if cols > 1:
        reservoirs.append(ReservoirDecl(Loc(rows, cols), RKind.WASTE))
    lines = []
    t = 0
    for _ in range(rng.randrange(1, 7)):
        t += rng.randrange(1, 5)
        instrs = []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.randrange(4)
            r, c = rng.randrange(1, rows + 1), rng.randrange(1, cols + 1)
            if kind == 0:
                instrs.append(Dispense(Loc(r, c)))
            elif kind == 1:
                dst = Loc(r + 1, c) if r < rows else Loc(r - 1, c)
                instrs.append(Move(Loc(r, c), dst))
            elif kind == 2 and c + 3 <= cols:
                instrs.append(MixStart(Loc(r, c), Loc(r, c + 3),
                                       rng.randrange(1, 13), MType.H14))
            else:
                instrs.append(Dispense(Loc(r, c)))
        lines.append(TimedLine(t, tuple(instrs)))
    lines.append(TimedLine(t + 1, (End(),)))
    header = ChipHeader(rows, cols, rng.randrange(1, 7), tuple(reservoirs))
    return Program(header, tuple(lines), (), {})


def test_roundtrip_random_programs():
    rng = random.Random(81219)
    for _ in range(150):
        p = _random_program(rng)
        text = serialize_program(p)
        again = parse_program(text, validate=False)
        assert again == p
        assert serialize_program(again) == text


# --- the per-token parse (oracle) ---------------------------------------------------
#
# The parser as it was before the per-call memos: every token builds its own
# instruction and Locs, and validation tests bounds through ChipHeader.in_bounds
# and walks every instruction for the end marker and conditional rules.
# ``_old_parse`` runs parse_program with these in place of the new scan and
# validation.

_OLD_DECL_PATTERNS = [
    ("R", re.compile(r"R\((\d+),(\d+),([A-Za-z_]\w*)\)")),
    ("O", re.compile(r"O\((\d+),(\d+)\)")),
    ("W", re.compile(r"W\((\d+),(\d+)\)")),
    ("D", re.compile(r"D\(([A-Za-z_]\w*),(\d+),(\d+),(\d+)\)")),
]

_OLD_INSTR_PATTERNS = [
    ("mix_a", re.compile(r"mix\(\[(\d+),(\d+)\]\s*<->\s*\[(\d+),(\d+)\],(\d+),(\d+)\)")),
    ("mix_c", re.compile(r"mix\((\d+),(\d+),(\d+),(\d+),(\d+),(\d+)\)")),
    ("move_a", re.compile(r"m\(\[(\d+),(\d+)\]\s*->\s*\[(\d+),(\d+)\]\)")),
    ("move_c", re.compile(r"m\((\d+),(\d+),(\d+),(\d+)\)")),
    ("dispense", re.compile(r"d\((\d+),(\d+)\)")),
    ("waste", re.compile(r"waste\((\d+),(\d+)\)")),
    ("output", re.compile(r"output\((\d+),(\d+)\)")),
    ("detect", re.compile(r"detect\(([A-Za-z_]\w*)\)")),
    ("cond", re.compile(r"if\s*\(\s*([A-Za-z_]\w*)\s*\)\s*call\s*<?\s*Recovery\(\s*(\w+)\s*\)\s*>?")),
    ("end", re.compile(r"end\b")),
]


def _old_scan(line: str, lineno: int, patterns, build) -> list:
    """Scan a whole line as a whitespace-separated sequence of pattern matches."""
    out = []
    pos = 0
    n = len(line)
    while pos < n:
        if line[pos].isspace():
            pos += 1
            continue
        for name, pat in patterns:
            m = pat.match(line, pos)
            if m:
                out.append(build(name, m, lineno, pos))
                pos = m.end()
                break
        else:
            raise ParseError(f"unrecognized token {line[pos:pos + 24]!r}",
                             lineno, pos + 1, "an instruction or declaration")
    return out


def _old_mk_decl(name: str, m: re.Match, lineno: int, pos: int):
    if name == "R":
        return ReservoirDecl(Loc(int(m[1]), int(m[2])), RKind.REAGENT, m[3])
    if name == "O":
        return ReservoirDecl(Loc(int(m[1]), int(m[2])), RKind.OUTPUT)
    if name == "W":
        return ReservoirDecl(Loc(int(m[1]), int(m[2])), RKind.WASTE)
    return DetectorDecl(m[1], Loc(int(m[2]), int(m[3])), int(m[4]))


def _old_mk_instr(name: str, m: re.Match, lineno: int, pos: int) -> Instruction:
    col = pos + 1
    if name in ("move_a", "move_c"):
        src, dst = Loc(int(m[1]), int(m[2])), Loc(int(m[3]), int(m[4]))
        if abs(src.row - dst.row) + abs(src.col - dst.col) != 1:
            raise ParseError(f"move destination {dst} is not a 4-neighbor of {src}",
                             lineno, col)
        return Move(src, dst)
    if name in ("mix_a", "mix_c"):
        a, b = Loc(int(m[1]), int(m[2])), Loc(int(m[3]), int(m[4]))
        t_mix = int(m[5])
        if t_mix < 1:
            raise ParseError("mixing time must be at least 1", lineno, col)
        try:
            mtype = MType(m[6])
        except ValueError:
            raise ParseError(f"unknown mixer type {m[6]!r}", lineno, col, "14 or 41") from None
        return MixStart(a, b, t_mix, mtype)
    if name == "dispense":
        return Dispense(Loc(int(m[1]), int(m[2])))
    if name == "waste":
        return Waste(Loc(int(m[1]), int(m[2])))
    if name == "output":
        return Output(Loc(int(m[1]), int(m[2])))
    if name == "detect":
        return DetectStart(m[1])
    if name == "cond":
        return CondCall(m[1], m[2])
    return End()


def _old_check_locs(p: Program, line: TimedLine, issues: list[SemanticError]) -> None:
    def bad(loc: Loc) -> bool:
        return not p.header.in_bounds(loc)

    for instr in line.instrs:
        locs: tuple[Loc, ...] = ()
        if isinstance(instr, (Dispense, Waste, Output)):
            locs = (instr.loc,)
        elif isinstance(instr, Move):
            locs = (instr.src, instr.dst)
        elif isinstance(instr, MixStart):
            locs = (instr.a, instr.b)
        for loc in locs:
            if bad(loc):
                issues.append(SemanticError(
                    "OutOfBounds", f"{instr.compact()} references {loc} outside the "
                    f"{p.header.rows}x{p.header.cols} array", line.t))


def _old_validate_structure(p: Program) -> list[SemanticError]:
    """Return all structural invariant violations (empty list means valid)."""
    issues: list[SemanticError] = []
    hdr = p.header

    if hdr.accuracy < 1:
        issues.append(SemanticError("BadAccuracy", "accuracy must be at least 1"))
    if not any(r.kind is RKind.REAGENT for r in hdr.reservoirs):
        issues.append(SemanticError("NoReagentReservoir", "at least one reagent reservoir is required"))
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

    def check_lines(lines: tuple[TimedLine, ...], in_recovery: str | None) -> None:
        prev = None
        for ln in lines:
            if prev is not None and ln.t <= prev:
                issues.append(SemanticError(
                    "NonMonotonicTime", f"timestamp {ln.t} does not increase past {prev}", ln.t))
            prev = ln.t
            if ln.t < 0:
                issues.append(SemanticError("BadTimestamp", "timestamps must be non-negative", ln.t))
            _old_check_locs(p, ln, issues)
            for instr in ln.instrs:
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
    for i, ln in enumerate(p.main):
        for j, instr in enumerate(ln.instrs):
            if isinstance(instr, End):
                last = i == len(p.main) - 1 and j == len(ln.instrs) - 1
                if not last:
                    issues.append(SemanticError("EndNotLast", "end must be the final instruction", ln.t))

    # each recovery referenced by at most one conditional (fault model)
    used: dict[str, int] = {}
    for ln in p.main:
        for instr in ln.instrs:
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


def _outcome(text: str):
    """What parse_program makes of a text: the program, or the error text."""
    try:
        program = parse_program(text)
    except (ParseError, ValidationError) as err:
        return type(err).__name__, str(err)
    return "ok", program


def _old_parse(text: str, monkeypatch):
    def scan(line, lineno, patterns, cell):
        if patterns is isa._INSTR_PATTERNS:
            return _old_scan(line, lineno, _OLD_INSTR_PATTERNS, _old_mk_instr)
        return _old_scan(line, lineno, _OLD_DECL_PATTERNS, _old_mk_decl)

    with monkeypatch.context() as m:
        m.setattr(isa, "_tokens", lambda *a: None)      # every body is scanned
        m.setattr(isa, "_scan", scan)
        m.setattr(isa, "validate_structure", _old_validate_structure)
        return _outcome(text)


# one instruction or cell in several spellings, repeated tokens and cells off the array
_SPELLINGS = """\
dim(6,6)
accuracy 5
R(1,1,S) R(1,4,B) R(01,4,B) D(d1,3,3,2) W(7,1)
1 d(1,1) d(01,4) m(2,2,2,3) m([2,2] -> [2,3]) m([2,2]->[2,3])
2 mix(3,1,3,4,2,14) mix([3,1] <-> [3,4],2,14) detect(d1) d(0,9)
3 if (d1) call <Recovery(1)>
4 end end
recovery 1:
5 m([4,4]->[4,5]) m(4,6,4,7) end
endrecovery
"""


def _parse_corpus(mutants: int) -> list[str]:
    """The fixtures, the spellings, ``mutants`` texts of the .dmf fuzz corpus
    of test_cli, the noise corpus and a program around each hand body."""
    rng = random.Random(1618)
    texts = [load(name) for name in _DMF_FIXTURES] + [_SPELLINGS]
    texts += [_mutate_dmf(rng, load(rng.choice(_DMF_FIXTURES))) for _ in range(mutants)]
    texts += _noise_corpus()
    return texts + [f"{_HAND_HEAD}1 d(1,1)\n2 {body}\n9 end\n" for body in _HAND_BODIES]


def test_parse_fills_repeats_as_a_pass_over_the_lines_finds_them():
    # the parse's set of bodies met twice is what ``Program.repeats`` finds
    # on the same program built in code
    kinds = Counter()
    for text in _parse_corpus(150):
        try:
            p = parse_program(text, validate=False)
        except ParseError:
            continue
        built = Program(p.header, p.main, p.detectors, p.recoveries, p.t_max)
        assert "repeats" in p.__dict__ and "repeats" not in built.__dict__
        assert p.repeats == built.repeats, text
        kinds["conditional" if p.has_conditionals else "repeats" if p.repeats else "none"] += 1
    assert all(kinds[k] >= 5 for k in ("conditional", "repeats", "none")), kinds


def test_parse_matches_per_token_oracle(monkeypatch):
    kinds = {}
    for text in _parse_corpus(200):
        got, want = _outcome(text), _old_parse(text, monkeypatch)
        assert got == want, text
        kinds[got[0]] = kinds.get(got[0], 0) + 1
        if got[0] != "ParseError":
            raw = parse_program(text, validate=False)
            assert validate_structure(raw) == _old_validate_structure(raw), text
    assert all(kinds.get(k, 0) >= 10 for k in ("ok", "ParseError", "ValidationError")), kinds


def test_bounds_are_checked_once_per_body_in_bounds(monkeypatch):
    calls = []
    real = isa._check_locs
    monkeypatch.setattr(isa, "_check_locs", lambda p, ln, issues: calls.append(ln.t)
                        or real(p, ln, issues))
    # the parser shares one tuple between equal bodies; a body out of bounds
    # is checked on each of its lines, so each line keeps its own issue
    text = ("dim(5,4)\naccuracy 5\nR(1,1,S)\n"
            + "".join(f"{t} m([2,2]->[2,3]) m(4,4,4,3)\n{t + 1} m([2,3]->[2,2])\n"
                      f"{t + 2} m([1,4]->[1,5])\n" for t in range(1, 30, 3))
            + "40 end\n")
    raw = parse_program(text, validate=False)
    issues = validate_structure(raw)
    assert issues == _old_validate_structure(raw)
    assert [i.t for i in issues] == list(range(3, 31, 3))
    assert all(i.code == "OutOfBounds" and "(1,5)" in i.message for i in issues)
    assert calls == [1, 2, *range(3, 31, 3), 40]


def test_a_line_on_the_array_makes_no_bounds_call(monkeypatch):
    # every body differs; a line whose extents lie on the array passes whole,
    # and only the lines that hold the move off it, and the end line, take
    # the per-instruction loop, which reports that move with each line's tick
    # and tests the cells of no instruction whose own extent is on the array
    text = ("dim(5,5)\naccuracy 5\nR(1,1,S)\n1 m([2,2]->[2,3]) m([3,3]->[3,4])\n"
            "2 m([3,3]->[3,4]) m([2,2]->[2,3])\n3 m([2,2]->[2,3]) m([4,4]->[4,5])\n"
            "4 m([4,4]->[4,5]) m([1,5]->[1,6])\n5 m([1,5]->[1,6]) m([2,2]->[2,3])\n6 end\n")
    raw = parse_program(text, validate=False)
    calls = []
    in_bounds = isa.ChipHeader.in_bounds
    monkeypatch.setattr(isa.ChipHeader, "in_bounds",
                        lambda hdr, loc: calls.append(loc) or in_bounds(hdr, loc))
    issues = validate_structure(raw)
    monkeypatch.undo()
    assert issues == _old_validate_structure(raw)
    assert [(i.code, i.t, i.message) for i in issues] == [
        ("OutOfBounds", t, "m(1,5,1,6) references (1,6) outside the 5x5 array") for t in (4, 5)]
    # the reservoir, then the cells of the move off the array on lines 4 and 5
    assert calls == [Loc(1, 1), Loc(1, 5), Loc(1, 6), Loc(1, 5), Loc(1, 6)]


# --- the geometry an instruction carries (oracle) -----------------------------------

def _beyond(src: Loc, dst: Loc) -> tuple:
    """The cells the dynamic rule checks: the cell one step past the
    destination in the move's direction and its two neighbours across that
    direction, sorted."""
    dr, dc = dst.row - src.row, dst.col - src.col
    ahead = (dst.row + dr, dst.col + dc)
    return tuple(sorted({ahead, (ahead[0] + dc, ahead[1] + dr), (ahead[0] - dc, ahead[1] - dr)}))


def _cells_named(instr) -> tuple:
    if isinstance(instr, (Dispense, Waste, Output)):
        return (instr.loc,)
    if isinstance(instr, Move):
        return (instr.src, instr.dst)
    if isinstance(instr, MixStart):
        return (instr.a, instr.b)
    return ()


_DIRS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def test_move_probes_are_the_three_cells_beyond_the_destination(monkeypatch):
    monkeypatch.setattr(isa, "_TOKENS", {})
    monkeypatch.setattr(isa, "_PROBE_CELLS", {})
    moves = []
    for text in _parse_corpus(150):
        try:
            p = parse_program(text, validate=False)
        except ParseError:
            continue
        lines = [*p.main, *(ln for block in p.recoveries.values() for ln in block)]
        moves += [i for ln in lines for i in ln.instrs if type(i) is Move]
    parsed = len(moves)
    rng = random.Random(2029)
    for _ in range(2000):
        n = rng.randrange(1, 9)
        src = Loc(rng.randrange(0, n + 2), rng.randrange(0, n + 2))
        dr, dc = rng.choice(_DIRS)
        dst = Loc(src.row + dr, src.col + dc)
        if 0 <= dst.row <= n + 1 and 0 <= dst.col <= n + 1:
            moves.append(Move(src, dst))
    assert parsed > 1000 and len(moves) - parsed > 1000
    for m in moves:
        assert m.probes == _beyond(m.src, m.dst), m
        # each probe cell is the one shared pair for its cell
        assert all(isa._PROBE_CELLS[c] is c for c in m.probes), m
        built = Move(Loc(*m.src), Loc(*m.dst))
        assert built == m and hash(built) == hash(m) and built.probes == m.probes
        assert repr(m) == f"Move(src={m.src!r}, dst={m.dst!r})"


def test_derived_fields_stay_out_of_equality_and_repr():
    cases = [(Dispense(Loc(0, 2)), "Dispense(loc=Loc(row=0, col=2))"),
             (Waste(Loc(3, 1)), "Waste(loc=Loc(row=3, col=1))"),
             (Output(Loc(2, 2)), "Output(loc=Loc(row=2, col=2))"),
             (MixStart(Loc(1, 1), Loc(1, 4), 3, MType.H14),
              "MixStart(a=Loc(row=1, col=1), b=Loc(row=1, col=4), t_mix=3, mtype=<MType.H14: '14'>)")]
    for instr, text in cases:
        again = type(instr)(*(getattr(instr, f) for f in instr.__match_args__))
        assert repr(instr) == text and again == instr and hash(again) == hash(instr)


def _random_placed(rng: random.Random, rows: int, cols: int):
    """An instruction that names cells, with rows and columns from 0 to one
    past the array."""
    def cell():
        return Loc(rng.randrange(0, rows + 2), rng.randrange(0, cols + 2))
    kind = rng.choice((Dispense, Waste, Output, Move, MixStart))
    if kind is Move:
        src = cell()
        dr, dc = rng.choice(_DIRS)
        return Move(src, Loc(src.row + dr, src.col + dc))
    if kind is MixStart:
        return MixStart(cell(), cell(), rng.randrange(1, 9), rng.choice(list(MType)))
    return kind(cell())


def test_extent_lies_on_the_array_exactly_when_every_cell_does():
    rng = random.Random(7151)
    control = (DetectStart("d1"), CondCall("d1", "1"), End())
    seen = {True: 0, False: 0, "line on the array": 0}
    for _ in range(3000):
        n = rng.randrange(1, 7)
        rows, cols = rng.choice(((1, n), (n, 1), (rng.randrange(1, 7), rng.randrange(1, 7))))
        hdr = ChipHeader(rows, cols, 5, ())
        p = Program(hdr, ())
        instr = _random_placed(rng, rows, cols)
        on_array = all(hdr.in_bounds(c) for c in _cells_named(instr))
        assert (instr.max_row <= rows and instr.max_col <= cols) == on_array, (rows, cols, instr)
        seen[on_array] += 1
        # a line of such instructions, some control: _check_locs reports
        # what the per-instruction oracle reports and returns the control ones
        instrs = [instr] + [rng.choice(control) if rng.random() < 0.1
                            else _random_placed(rng, rows, cols) for _ in range(rng.randrange(4))]
        rng.shuffle(instrs)
        line = TimedLine(rng.randrange(20), tuple(instrs))
        got, want = [], []
        assert isa._check_locs(p, line, got) == [
            (j, i) for j, i in enumerate(instrs) if not _cells_named(i)]
        _old_check_locs(p, line, want)
        assert got == want, line
        seen["line on the array"] += not want and all(map(_cells_named, instrs))
    assert min(seen.values()) > 150, seen
    issues = []
    assert isa._check_locs(p, TimedLine(1, ()), issues) == [] and issues == []


# --- the token path of the parser against the scanner ----------------------------

# Bodies that the token path must read as ``_scan`` does, or refuse: spaces
# inside a token, tokens with no space between them, bad moves and mixes,
# and declarations where an instruction belongs.
_HAND_BODIES = (
    "m([1,2] -> [1,3])", "m([1,2]->[1,3])", "m(1,1,1,2)m(2,2,2,3)", "m(1,1,1,2) m(2,2,2,3)",
    "if (x) call Recovery(y)", "if (d1) call Recovery(1)", "if(d1)callRecovery(1)",
    "if(d1) call <Recovery(1)>", "if(d1)call<Recovery(1)>", "m(1,1,3,3)", "m([1,1]->[2,2])",
    "mix(1,1,1,4,0,14)", "mix([1,1]<->[1,4],0,14)", "mix(1,1,1,4,3,99)",
    "mix([1,1] <-> [1,4],3,14)", "mix([1,1]<->[1,4],3,41)", "O(3,3)", "R(1,1,S)",
    "d(1,1) O(3,3)", "W(6,6) d(1,1)", "D(d1,2,2,3)", "end", "end end", "endx", "end(1)",
    "d(1,1)\tm(2,2,2,3)", "d(1,1)\u00a0m(2,2,2,3)", "waste(6,6) output(3,3)", "detect(d1)",
    "detect(d1)d(1,1)", "d(01,1) d(1,1)", "d(1,1", "zzz", "m(1,1,1,2) zzz",
)
_HAND_HEAD = "dim(6,6)\naccuracy 3\nR(1,1,S) R(1,4,B) O(3,3) W(6,6)\nD(d1,2,2,3)\n"
_VOCABULARY = ("d(1,1)", "d(2,3)", "m(1,1,1,2)", "m([2,2]->[2,3])", "m([2,2]", "->", "[2,3])",
               "m(1,1,2,2)", "mix(1,1,1,4,3,14)", "mix([1,1]<->[1,4],0,14)", "waste(6,6)",
               "output(3,3)", "detect(d1)", "end", "O(3,3)", "R(1,1,S)", "if(d1)", "call",
               "Recovery(1)", "zzz")


def _cell_memo():
    cells = {}
    return lambda row, col: cells.setdefault((row, col), Loc(int(row), int(col)))


def _scanned(body: str, cell):
    """What the scanner makes of a body: its instructions, or its error as
    (message, line, col)."""
    try:
        return tuple(isa._scan(body, 5, isa._INSTR_PATTERNS, cell))
    except ParseError as err:
        return str(err), err.line, err.col


def _bodies(text: str) -> list[str]:
    return [m[2] for line in text.splitlines() if (m := isa._TIMED_RE.match(line.strip()))]


def test_token_path_reads_each_body_as_the_scanner_or_refuses():
    rng = random.Random(99)
    bodies = list(_HAND_BODIES)
    for name in _DMF_FIXTURES:
        bodies += _bodies(load(name))
    mutated = random.Random(1618)
    for _ in range(200):
        bodies += _bodies(_mutate_dmf(mutated, load(mutated.choice(_DMF_FIXTURES))))
    bodies += ["".join(rng.choice(("", " ", "  ", "\t")) + rng.choice(_VOCABULARY)
                       for _ in range(rng.randrange(1, 5))).strip() for _ in range(2000)]
    memo, cell = {}, _cell_memo()      # one memo, so tokens repeat across bodies
    seen = {"read": 0, "refused": 0, "error": 0}
    for body in bodies:
        got, want = isa._tokens(body, memo, cell), _scanned(body, cell)
        if got is None:
            seen["refused"] += 1
            seen["error"] += not isinstance(want[0], Instruction)
        else:
            seen["read"] += 1
            assert got == want, body
    assert memo and all(isinstance(v, Instruction) for v in memo.values())
    assert min(seen.values()) >= 200, seen


def test_declaration_tokens_are_not_instructions(tmp_path, capsys):
    # the parse's memo of declarations must not answer for a body
    for token in ("O(3,3)", "R(1,1,S)"):
        path = tmp_path / "decl.dmf"
        path.write_text(f"dim(6,6)\naccuracy 3\nR(1,1,S) O(3,3)\n1 d(1,1)\n2 {token}\n3 end\n")
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: line 5, col 1: unrecognized token {token!r} "
            "(expected an instruction or declaration)\n")


# --- the token table, which outlives a parse --------------------------------------

# a body whose second token fails to build after its first has built
_NOT_ADJACENT = f"{_HAND_HEAD}1 d(1,1)\n2 d(2,2) m(1,1,3,3)\n9 end\n"


def test_warm_and_cold_parses_agree(monkeypatch):
    # a parse that finds the table filled by other programs, in another
    # order, reads every text as a parse that finds it empty and as the
    # memo-free oracle; a token that failed to build in an earlier parse
    # is still worded by the scanner with its line and column
    texts = _parse_corpus(150) + [_NOT_ADJACENT] * 2
    monkeypatch.setattr(isa, "_TOKENS", {})
    cold = [_outcome(text) for text in texts]
    warm = [_outcome(text) for text in reversed(texts)][::-1]
    for text, got_cold, got_warm in zip(texts, cold, warm):
        assert got_cold == got_warm == _old_parse(text, monkeypatch), text
    assert cold[-1] == ("ParseError",
                        "line 6, col 8: move destination (3,3) is not a 4-neighbor of (1,1)")
    # the table holds each token that built, as the one instruction the
    # scanner reads it as: no declaration and no token that failed
    table, cell = isa._TOKENS, _cell_memo()
    assert "d(2,2)" in table and "m(1,1,3,3)" not in table
    assert not table.keys() & {"O(3,3)", "R(1,1,S)", "D(d1,2,2,3)"}
    for token, instr in table.items():
        assert isinstance(instr, Instruction) and _scanned(token, cell) == (instr,), token


def _counted_builds(monkeypatch) -> list[str]:
    """The text of each instruction token built from now on."""
    built = []

    def counted(builder):
        return lambda m, *rest: built.append(m[0]) or builder(m, *rest)
    monkeypatch.setattr(isa, "_INSTR_PATTERNS",
                        [(pat, counted(builder)) for pat, builder in isa._INSTR_PATTERNS])
    return built


def _pairs_program(tokens: list[str]) -> str:
    lines = "".join(f"{t} {a} {b}\n" for t, (a, b) in enumerate(zip(tokens[::2], tokens[1::2]), 1))
    return f"dim(9,9)\naccuracy 2\nR(1,1,S)\n{lines}"


def test_a_token_an_earlier_program_built_builds_nothing(monkeypatch):
    monkeypatch.setattr(isa, "_TOKENS", {})
    built = _counted_builds(monkeypatch)
    moves = [f"m([{r},{c}]->[{r},{c + 1}])" for r in range(1, 10) for c in range(1, 9)]
    first = parse_program(_pairs_program(moves))
    assert built == moves
    # no body of the second program is a body of the first, and four of
    # its tokens are new: only those four build
    built.clear()
    new = ["d(9,9)", "m(9,9,8,9)", "waste(5,5)", "output(2,2)"]
    second = parse_program(_pairs_program(moves[1:] + new + moves[:1]))
    assert built == new
    assert {ln.instrs for ln in first.main}.isdisjoint(ln.instrs for ln in second.main)
    assert second.main[0].instrs[0] is first.main[0].instrs[1]


def test_a_parse_past_the_bound_starts_from_an_empty_table(monkeypatch):
    monkeypatch.setattr(isa, "_TOKENS", {})
    monkeypatch.setattr(isa, "_PROBE_CELLS", {})
    monkeypatch.setattr(isa, "_TOKENS_BOUND", 4)
    head = "dim(9,9)\naccuracy 2\nR(1,1,S)\n"
    parse_program(f"{head}1 d(1,1) d(2,2)\n2 m(1,1,1,2) m(2,2,2,3)\n")
    parse_program(f"{head}1 d(3,3)\n")            # at the bound: kept
    assert list(isa._TOKENS) == ["d(1,1)", "d(2,2)", "m(1,1,1,2)", "m(2,2,2,3)", "d(3,3)"]
    assert sorted(isa._PROBE_CELLS) == [(0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    # the separation check's forward neighbours share the probe cells (the
    # table is a cache that other tests filled, from other probe cells)
    isa.FORWARD.clear()
    assert isa.FORWARD[Loc(2, 3)] == ((2, 4), (3, 2), (3, 3), (3, 4))
    assert all(isa._PROBE_CELLS[c] is c for c in isa.FORWARD[Loc(2, 3)])
    built = _counted_builds(monkeypatch)
    parse_program(f"{head}1 d(1,1)\n")            # past it: all three cleared first
    assert list(isa._TOKENS) == ["d(1,1)"] and built == ["d(1,1)"]
    assert isa._PROBE_CELLS == {} and isa.FORWARD == {}
