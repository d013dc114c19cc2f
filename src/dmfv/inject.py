"""Error injection: reproducible mutations of a clean actuation program.

Each preset targets one error class.  The searching presets (e1..e4) replay
the clean program and pick the earliest mutation site deterministically;
e5/e6/e7 take the mutation site as parameters with simple defaults.
"""

from __future__ import annotations

from typing import NamedTuple

from . import chip, fluidics
from .isa import (Dispense, DmfError, End, Instruction, Loc, MixStart, Move, MType,
                  Program, RKind, ReservoirDecl, TimedLine, parse_program,
                  serialize_program, value)


class MutationInapplicable(DmfError):
    pass


@value
class InjectionSpec(NamedTuple):
    code: str                       # e1..e7 or "pin"
    line: int | None = None         # timestamp of the targeted line
    pos: int | None = None          # instruction index within that line
    move: tuple[Loc, Loc] | None = None
    to: Loc | None = None
    duration: int | None = None
    swap: tuple[str, str] | None = None


# --- structural edits -----------------------------------------------------------

def _with_lines(program: Program, lines: list[TimedLine]) -> Program:
    lines = sorted(lines, key=lambda ln: ln.t)
    return Program(program.header, tuple(lines), program.detectors,
                   program.recoveries, program.t_max)


def add_instruction(program: Program, t: int, instr: Instruction) -> Program:
    """Add ``instr`` to line t, before its end marker if it has one."""
    lines = list(program.main)
    for i, ln in enumerate(lines):
        if ln.t == t:
            if ln.instrs and isinstance(ln.instrs[-1], End):
                lines[i] = TimedLine(t, ln.instrs[:-1] + (instr, ln.instrs[-1]))
            else:
                lines[i] = TimedLine(t, ln.instrs + (instr,))
            return _with_lines(program, lines)
    end_t = lines[-1].t if lines else 0
    if t > end_t:
        raise MutationInapplicable(f"t={t} is past the end of the program")
    lines.append(TimedLine(t, (instr,)))
    return _with_lines(program, lines)


def _edit(program: Program, i: int, pos: int, instr: Instruction | None) -> Program:
    """``instr`` in place of instruction ``pos`` of main line ``i``, or, when
    None, that instruction dropped and the line with it if it empties."""
    lines = list(program.main)
    ln = lines[i]
    instrs = ln.instrs[:pos] + (() if instr is None else (instr,)) + ln.instrs[pos + 1:]
    if instrs:
        lines[i] = TimedLine(ln.t, instrs)
    else:
        del lines[i]
    return _with_lines(program, lines)


def swap_reagent_names(program: Program, a: str, b: str) -> Program:
    decls = []
    hit = 0
    for r in program.header.reservoirs:
        if r.kind is RKind.REAGENT and r.name == a:
            decls.append(ReservoirDecl(r.loc, r.kind, b))
            hit += 1
        elif r.kind is RKind.REAGENT and r.name == b:
            decls.append(ReservoirDecl(r.loc, r.kind, a))
            hit += 1
        else:
            decls.append(r)
    if hit < 2:
        raise MutationInapplicable(f"reagents {a!r} and {b!r} not both declared")
    header = type(program.header)(program.header.rows, program.header.cols,
                                  program.header.accuracy, tuple(decls))
    return Program(header, program.main, program.detectors, program.recoveries,
                   program.t_max)


# --- searching presets -----------------------------------------------------------

_DIRS = (Loc(-1, 0), Loc(1, 0), Loc(0, -1), Loc(0, 1))


def _sites(state: chip.ChipState, line: TimedLine | None, *, want_dynamic: bool):
    """(src, dst) of each move that, added to ``line`` on the state the line
    finds, trips the clearance rule next to a moving (e2) or idle (e1) droplet.
    A clean line consumes each droplet once, so the consumed cells that its
    moves do not leave are those its other instructions consume."""
    ctx = fluidics.LineContext(state, line or TimedLine(state.t, ()))
    move_srcs = ctx.movers.keys()
    busy = {cell for cells in ctx.consumed for cell in cells} - move_srcs
    claimed = {cell for cells in ctx.claims for cell in cells}
    for src in sorted(state.by_loc):
        if (src in busy or src in move_srcs or state.mixer_pinning(src)
                or state.detection_pinning(src)):
            continue
        for d in _DIRS:
            dst = Loc(src.row + d.row, src.col + d.col)
            if (not state.header.in_bounds(dst) or dst in state.by_loc
                    or dst in claimed):
                continue
            conflicts = fluidics.move_conflicts(state, Move(src, dst))
            if not conflicts or any(c in busy for c in conflicts):
                continue
            if any(c in move_srcs for c in conflicts) == want_dynamic:
                yield src, dst


def _move_candidates(program: Program, *, want_dynamic: bool):
    """Every site (t, src, dst), earliest first, from one pass of the clean run.

    A tick without a line that follows such a tick without a site, and
    resolves nothing, finds the same state: it has no site either and is
    not scanned.
    """
    lines = {ln.t: ln for ln in program.main}
    prev = chip.init_state(program.header, program.detectors)
    barren = False          # the tick before had no line and no site
    for t, after in fluidics.ticks(program):
        state, _ = fluidics.expire(prev, t)     # the state line t finds
        resolved, prev = state is not prev, after
        line = lines.get(t)
        if barren and line is None and not resolved:
            continue
        barren = line is None
        for src, dst in _sites(state, line, want_dynamic=want_dynamic):
            barren = False
            yield t, src, dst


def _inject_move(program: Program, spec: InjectionSpec) -> tuple[Program, str]:
    """e1/e2: add a move that lands next to an idle (e1) or moving (e2) droplet."""
    if not fluidics.verify_program(program)[1].ok:
        raise MutationInapplicable("program is not clean; cannot stage an injection")
    dynamic = spec.code == "e2"
    if spec.move is not None:
        if spec.line is None:
            raise MutationInapplicable("an explicit move needs the line to add it to (--line)")
        t, (src, dst) = spec.line, spec.move
    else:
        hit = next(_move_candidates(program, want_dynamic=dynamic), None)
        if hit is None:
            raise MutationInapplicable("no suitable move-injection site found")
        t, src, dst = hit
    why = "interferes with a concurrent move" if dynamic else "lands next to an idle droplet"
    return add_instruction(program, t, Move(src, dst)), (
        f"added {Move(src, dst).compact()} at t={t} ({why})")


def _inject_e3(program: Program, spec: InjectionSpec) -> tuple[Program, str]:
    if spec.to is not None and any(r.loc == spec.to and r.kind is RKind.REAGENT
                                   for r in program.header.reservoirs):
        # a dispense from a reagent reservoir is legal: the search skips these too
        raise MutationInapplicable(f"{spec.to} is a reagent reservoir, so a dispense "
                                   f"from it is legal")
    if not any(isinstance(instr, Dispense) for ln in program.main for instr in ln.instrs):
        raise MutationInapplicable("no dispense instruction to corrupt")
    for i, ln in enumerate(program.main):
        for pos, instr in enumerate(ln.instrs):
            if isinstance(instr, Dispense):
                if spec.to is not None:
                    bad = spec.to
                else:
                    bad = None
                    for d in _DIRS:
                        cand = Loc(instr.loc.row + d.row, instr.loc.col + d.col)
                        if program.header.in_bounds(cand) and not any(
                                r.loc == cand for r in program.header.reservoirs):
                            bad = cand
                            break
                    if bad is None:
                        continue
                p = _edit(program, i, pos, Dispense(bad))
                return p, (f"replaced {instr.compact()} with {Dispense(bad).compact()} "
                           f"at t={ln.t}")
    raise MutationInapplicable("no dispense has a neighbour on the array that is not a "
                               "reservoir")


def _inject_e4(program: Program, spec: InjectionSpec) -> tuple[Program, str]:
    last: tuple[int, MixStart] | None = None
    for ln in program.main:
        for instr in ln.instrs:
            if isinstance(instr, MixStart):
                last = (ln.t, instr)
    if last is None:
        raise MutationInapplicable("no mixing operation to disturb")
    t_s, mix = last
    a, b = mix.a, mix.b
    if mix.mtype is MType.H14:
        dst = Loc(a.row, a.col - 1) if a.col < b.col else Loc(a.row, a.col + 1)
    else:
        dst = Loc(a.row - 1, a.col) if a.row < b.row else Loc(a.row + 1, a.col)
    if not program.header.in_bounds(dst):
        raise MutationInapplicable("mixer endpoint sits on the array edge")
    # the mixer holds its droplets on ticks t_s+1 .. t_s+t_mix
    t = spec.line if spec.line is not None else t_s + 1
    if not t_s < t <= t_s + mix.t_mix:
        raise MutationInapplicable(f"line t={t} is outside the mixing window "
                                   f"t={t_s + 1}..{t_s + mix.t_mix} of {mix.compact()}")
    p = add_instruction(program, t, Move(a, dst))
    return p, f"added {Move(a, dst).compact()} at t={t} (droplet is mixing until t={t_s + mix.t_mix + 1})"


def _mix_at(program: Program, t: int | None, pos: int | None) -> tuple[int, int, MixStart]:
    """(i, pos, mix) of the mix at position ``pos`` (default 0) of the first
    main line i at tick t, or of the program's first mix when t is None."""
    if t is None:
        for i, ln in enumerate(program.main):
            for p, instr in enumerate(ln.instrs):
                if isinstance(instr, MixStart):
                    return i, p, instr
        raise MutationInapplicable("no mixing operation present")
    pos = pos or 0
    i = next((i for i, ln in enumerate(program.main) if ln.t == t), None)
    instrs = () if i is None else program.main[i].instrs
    if not 0 <= pos < len(instrs) or not isinstance(instrs[pos], MixStart):
        raise MutationInapplicable(f"no mix instruction at t={t} #{pos}")
    return i, pos, instrs[pos]


def _inject_e5(program: Program, spec: InjectionSpec) -> tuple[Program, str]:
    i, pos, mix = _mix_at(program, spec.line, spec.pos)
    t = program.main[i].t
    if t < 1:
        raise MutationInapplicable("cannot schedule the mixer any earlier")
    p = add_instruction(_edit(program, i, pos, None), t - 1, mix)
    return p, f"moved {mix.compact()} one tick early, from t={t} to t={t - 1}"


def _inject_e6(program: Program, spec: InjectionSpec) -> tuple[Program, str]:
    i, pos, mix = _mix_at(program, spec.line, spec.pos)
    t = program.main[i].t
    duration = spec.duration if spec.duration is not None else max(1, mix.t_mix - 2)
    if duration >= mix.t_mix:
        raise MutationInapplicable("shortened duration must be below the original")
    p = _edit(program, i, pos, MixStart(mix.a, mix.b, duration, mix.mtype))
    return p, f"shortened {mix.compact()} at t={t} to t_mix={duration}"


def _inject_e7(program: Program, spec: InjectionSpec) -> tuple[Program, str]:
    if spec.swap is not None:
        a, b = spec.swap
    else:
        names = program.header.reagents
        if len(names) < 2:
            raise MutationInapplicable("need two reagents to swap")
        a, b = (names[1], names[2]) if len(names) >= 3 else (names[0], names[1])
    p = swap_reagent_names(program, a, b)
    return p, f"interchanged reagents {a} and {b} in the reservoir assignment"


def inject_error(program: Program, spec: InjectionSpec) -> tuple[Program, str]:
    """Apply the preset for spec.code; returns the mutated program and a note."""
    dispatch = {
        "e1": _inject_move, "e2": _inject_move, "e3": _inject_e3,
        "e4": _inject_e4, "e5": _inject_e5, "e6": _inject_e6, "e7": _inject_e7,
    }
    if spec.code not in dispatch:
        raise MutationInapplicable(f"unknown injection code {spec.code!r}")
    mutated, note = dispatch[spec.code](program, spec)
    try:
        parse_program(serialize_program(mutated))   # the written file must parse
    except DmfError as err:
        raise MutationInapplicable(f"the mutated program is malformed: {err}") from None
    return mutated, note
