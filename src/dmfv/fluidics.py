"""Design-constraint checking for fully reconfigurable chips.

Every formula here is a conjunction of single-cell literals over the
occupancy snapshot at the start of the tick, so truth checking is a direct
table lookup (witness checking, no solver).  Concurrent instructions on one
line are all validated against that snapshot plus the intra-tick claim set,
then their effects commit together; a global separation check runs on the
committed state.  It also covers every active mixer's guard region, since
each droplet in that region is adjacent to an occupied mixer endpoint.

``Cursor`` is the one engine that steps lines.  ``verify_program`` and the
path walk advance it over timed lines only; ``ticks`` also passes the idle
ticks between lines, and rendering, ``state_at`` and the injection search
read their states from it.

Violation classification follows the error taxonomy: a movement conflict
with a droplet that also moves this tick is dynamic (e2, both instructions
reported); a conflict with an idle droplet leaves adjacent droplets in the
committed state and is static (e1).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from . import chip
from .chip import ChipState, DetectionEntry, MixerEntry
from .diag import Code, Report, Violation, classify
from .graph import CFVector
from .isa import (CondCall, Dispense, DetectStart, DmfError, End, Instruction, Loc,
                  MixStart, Move, MType, Output, Program, RKind, TimedLine, Waste)


class EngineError(DmfError):
    pass


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violation: Violation | None = None

    @staticmethod
    def passed() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def failed(v: Violation) -> "Verdict":
        return Verdict(False, v)


# --- constraint geometry -------------------------------------------------------

def move_clearance_cells(src: Loc, dst: Loc) -> tuple[Loc, ...]:
    """The three cells beyond the destination checked by the dynamic rule.

    Out-of-bounds cells are dropped by callers; walls cannot hold droplets.
    """
    dr, dc = dst.row - src.row, dst.col - src.col
    r, c = dst.row, dst.col
    if dc == 1:    # right
        return (Loc(r - 1, c + 1), Loc(r, c + 1), Loc(r + 1, c + 1))
    if dc == -1:   # left
        return (Loc(r - 1, c - 1), Loc(r, c - 1), Loc(r + 1, c - 1))
    if dr == 1:    # down
        return (Loc(r + 1, c - 1), Loc(r + 1, c), Loc(r + 1, c + 1))
    return (Loc(r - 1, c - 1), Loc(r - 1, c), Loc(r - 1, c + 1))  # up


def static_fc(state: ChipState, loc: Loc) -> bool:
    """True iff a droplet sits at loc with its whole 8-neighborhood free."""
    if not state.occupied(loc):
        return False
    return not any(n in state.by_loc for n in state.n8(loc))


def sfc_conflicts(state: ChipState, loc: Loc) -> list[Loc]:
    return sorted(n for n in state.n8(loc) if n in state.by_loc)


def dispense_conflicts(state: ChipState, loc: Loc) -> list[Loc]:
    cells = [loc] if loc in state.by_loc else []
    return sorted(cells + sfc_conflicts(state, loc))


def move_conflicts(state: ChipState, src: Loc, dst: Loc) -> list[Loc]:
    cells = move_clearance_cells(src, dst)
    return sorted(c for c in cells if state.in_bounds(c) and c in state.by_loc)


def mixer_conflicts(state: ChipState, a: Loc, b: Loc) -> list[Loc]:
    region = (state.n8(a) | state.n8(b)) - {a, b}
    return sorted(c for c in region if c in state.by_loc)


def mixer_geometry_ok(a: Loc, b: Loc, mtype: MType) -> bool:
    if mtype is MType.H14:
        return a.row == b.row and abs(a.col - b.col) == 3
    return a.col == b.col and abs(a.row - b.row) == 3


# --- standalone checks (public surface; the engine passes richer context) ------

def check_dispense(state: ChipState, loc: Loc, *, t: int | None = None,
                   claims: frozenset[Loc] = frozenset()) -> Verdict:
    t = state.t + 1 if t is None else t
    decl = state.reservoirs.get(loc)
    if decl is None or decl.kind is not RKind.REAGENT:
        return Verdict.failed(classify(
            Code.E3, "Dispense from invalid input reservoir", t=t,
            instructions=(Dispense(loc).compact(),), cells=(loc,),
            detail=f"{loc} is not a reagent reservoir"))
    if loc in claims:
        return Verdict.failed(classify(
            Code.E1, "Static fluidic constraint violated", t=t,
            instructions=(Dispense(loc).compact(),), cells=(loc,),
            detail=f"double claim on {loc} within the tick"))
    conflicts = dispense_conflicts(state, loc)
    if conflicts:
        return Verdict.failed(classify(
            Code.E1, "Static fluidic constraint violated", t=t,
            instructions=(Dispense(loc).compact(),), cells=tuple(conflicts),
            detail="dispense neighborhood is not free"))
    return Verdict.passed()


def check_move(state: ChipState, src: Loc, dst: Loc, *, t: int | None = None,
               movers: dict[Loc, int] | None = None) -> Verdict:
    """Verify one droplet transport.

    ``movers`` maps source cells of concurrent moves to their line position;
    without it (direct calls) every clearance conflict reports as dynamic,
    matching the raw movement rule.
    """
    t = state.t + 1 if t is None else t
    instr = Move(src, dst).compact()
    rec = state.droplet_at(src)
    if rec is None:
        return Verdict.failed(classify(
            Code.E4, f"No droplet present on {src}", t=t,
            instructions=(instr,), cells=(src,)))
    mx = state.mixer_pinning(rec.key)
    if mx is not None:
        return Verdict.failed(classify(
            Code.E4, f"Droplet on {src} is in active mixer", t=t,
            instructions=(instr,), cells=(src,), detail=mx.span()))
    det = state.detection_pinning(rec.key)
    if det is not None:
        return Verdict.failed(classify(
            Code.E4, f"Droplet on {src} is under detection", t=t,
            instructions=(instr,), cells=(src,), detail=f"detector {det.detector}"))
    if dst in state.by_loc:
        return Verdict.failed(classify(
            Code.E1, "Static fluidic constraint violated", t=t,
            instructions=(instr,), cells=(dst,), detail="destination cell occupied"))
    conflicts = move_conflicts(state, src, dst)
    if conflicts:
        if movers is None or any(c in movers for c in conflicts):
            return Verdict.failed(classify(
                Code.E2, "Dynamic fluidic constraint violated", t=t,
                instructions=(instr,), cells=tuple(conflicts)))
        return Verdict.failed(classify(
            Code.E1, "Static fluidic constraint violated", t=t,
            instructions=(instr,), cells=tuple(conflicts),
            detail="move lands next to an idle droplet"))
    return Verdict.passed()


def _missing_text(missing: list[Loc], a: Loc, b: Loc) -> str:
    if len(missing) == 2:
        return f"Droplet is not present on {a} and {b}"
    return f"Droplet is not present on {missing[0]}"


def check_mix_start(state: ChipState, a: Loc, b: Loc, t_mix: int, mtype: MType, *,
                    t: int | None = None,
                    movers: dict[Loc, int] | None = None) -> Verdict:
    t = state.t + 1 if t is None else t
    instr = MixStart(a, b, t_mix, mtype).compact()
    if not mixer_geometry_ok(a, b, mtype):
        return Verdict.failed(classify(
            Code.STRUCTURAL, f"Invalid mixer geometry for type {mtype.value}", t=t,
            instructions=(instr,), cells=(a, b)))
    missing = [e for e in (a, b) if e not in state.by_loc]
    if missing:
        return Verdict.failed(classify(
            Code.E5, _missing_text(missing, a, b), t=t,
            instructions=(instr,), cells=tuple(missing)))
    for endpoint in (a, b):
        rec = state.droplet_at(endpoint)
        mx = state.mixer_pinning(rec.key)
        if mx is not None:
            return Verdict.failed(classify(
                Code.E4, f"Droplet on {endpoint} is in active mixer", t=t,
                instructions=(instr,), cells=(endpoint,), detail=mx.span()))
        det = state.detection_pinning(rec.key)
        if det is not None:
            return Verdict.failed(classify(
                Code.E4, f"Droplet on {endpoint} is under detection", t=t,
                instructions=(instr,), cells=(endpoint,)))
    moving = set(movers or ())
    conflicts = [c for c in mixer_conflicts(state, a, b) if c not in moving]
    if conflicts:
        return Verdict.failed(classify(
            Code.E1, "Static fluidic constraint violated", t=t,
            instructions=(instr,), cells=tuple(conflicts),
            detail="mixer neighborhood is not free"))
    return Verdict.passed()


def _check_sink(state: ChipState, loc: Loc, kind: RKind, instr_text: str,
                t: int) -> Verdict:
    decl = state.reservoirs.get(loc)
    if decl is None or decl.kind is not kind:
        word = "waste" if kind is RKind.WASTE else "output"
        return Verdict.failed(classify(
            Code.E3, f"Dispense to invalid {word} reservoir", t=t,
            instructions=(instr_text,), cells=(loc,),
            detail=f"{loc} is not a registered {word} cell"))
    rec = state.droplet_at(loc)
    if rec is None:
        return Verdict.failed(classify(
            Code.E4, f"No droplet present on {loc}", t=t,
            instructions=(instr_text,), cells=(loc,)))
    mx = state.mixer_pinning(rec.key)
    if mx is not None:
        return Verdict.failed(classify(
            Code.E4, f"Droplet on {loc} is in active mixer", t=t,
            instructions=(instr_text,), cells=(loc,), detail=mx.span()))
    det = state.detection_pinning(rec.key)
    if det is not None:
        return Verdict.failed(classify(
            Code.E4, f"Droplet on {loc} is under detection", t=t,
            instructions=(instr_text,), cells=(loc,)))
    return Verdict.passed()


def check_waste(state: ChipState, loc: Loc, *, t: int | None = None) -> Verdict:
    t = state.t + 1 if t is None else t
    return _check_sink(state, loc, RKind.WASTE, Waste(loc).compact(), t)


def check_output(state: ChipState, loc: Loc, *, t: int | None = None) -> Verdict:
    t = state.t + 1 if t is None else t
    return _check_sink(state, loc, RKind.OUTPUT, Output(loc).compact(), t)


def check_detect(state: ChipState, detector: str, *, t: int | None = None) -> Verdict:
    t = state.t + 1 if t is None else t
    decl = state.detectors.get(detector)
    instr = DetectStart(detector).compact()
    if decl is None:
        return Verdict.failed(classify(
            Code.STRUCTURAL, f"Detector {detector} is not declared", t=t,
            instructions=(instr,)))
    if any(d.detector == detector for d in state.detections):
        return Verdict.failed(classify(
            Code.E4, f"Detector {detector} is busy", t=t,
            instructions=(instr,), cells=(decl.loc,)))
    rec = state.droplet_at(decl.loc)
    if rec is None:
        return Verdict.failed(classify(
            Code.E4, f"No droplet on detector {detector} at {decl.loc}", t=t,
            instructions=(instr,), cells=(decl.loc,)))
    if state.mixer_pinning(rec.key) is not None:
        return Verdict.failed(classify(
            Code.E4, f"Droplet on {decl.loc} is in active mixer", t=t,
            instructions=(instr,), cells=(decl.loc,)))
    return Verdict.passed()


# --- stepping ------------------------------------------------------------------

@dataclass
class StepResult:
    state: ChipState
    violations: list[Violation]
    events: list[chip.Event]


def _line_instrs(line: TimedLine, idxs: list[int]) -> tuple[str, ...]:
    return tuple(line.instrs[i].compact() for i in sorted(set(idxs)))


def expire(state: ChipState, t: int) -> tuple[ChipState, list[chip.MixCompleted]]:
    """Resolve the mixers and detections due by tick t, before its line runs."""
    state, completed = chip.expire_mixers(state, t)
    return chip.expire_detections(state, t), completed


def step(state: ChipState, line: TimedLine, *, policy: str = "first",
         pin_map=None) -> StepResult:
    """Advance the chip over one instruction line.

    Expired mixers and detections resolve first, each instruction is checked
    against the resulting snapshot plus intra-tick claims, effects commit
    together, and the committed state must satisfy the global separation
    invariant (plus the pin rules when a pin map is supplied).
    """
    t = line.t
    if t < state.t:
        raise EngineError(f"line at t={t} precedes current state t={state.t}")
    snapshot, completed = expire(state, t)
    events: list[chip.Event] = list(completed)
    violations: list[Violation] = []
    movers: dict[Loc, int] = {}
    for i, instr in enumerate(line.instrs):
        if isinstance(instr, Move) and instr.src not in movers:
            movers[instr.src] = i

    claimed: dict[Loc, int] = {}
    engaged: dict[int, int] = {}   # droplet key -> instruction index
    effects: list[tuple[int, Instruction]] = []

    for i, instr in enumerate(line.instrs):
        if isinstance(instr, CondCall):
            raise EngineError("conditional programs must be expanded into paths first")
        if isinstance(instr, End):
            continue
        v = _check_one(snapshot, line, i, instr, t, movers, claimed, engaged)
        if v is not None:
            violations.append(v)
            if policy == "first":
                return StepResult(snapshot, violations, events)
            continue
        _plan(snapshot, instr, i, claimed, engaged)
        effects.append((i, instr))

    new, more = _commit(snapshot, line, effects, t)
    events.extend(more)
    post = _post_checks(new, line, claimed, t)
    if post:
        violations.extend(post)
        if policy == "first":
            return StepResult(snapshot, violations, events)
    if pin_map is not None:
        from . import pins
        pin_violations = pins.pin_phase(pin_map, snapshot, new, line, effects, t)
        if pin_violations:
            violations.extend(pin_violations)
            if policy == "first":
                return StepResult(snapshot, violations, events)
    new.check_consistency()
    return StepResult(new, violations, events)


def _check_one(snapshot: ChipState, line: TimedLine, i: int, instr: Instruction,
               t: int, movers: dict[Loc, int], claimed: dict[Loc, int],
               engaged: dict[int, int]) -> Violation | None:
    if isinstance(instr, Dispense):
        verdict = check_dispense(snapshot, instr.loc, t=t,
                                 claims=frozenset(claimed))
        return verdict.violation

    if isinstance(instr, Move):
        rec = snapshot.droplet_at(instr.src)
        if rec is not None and rec.key in engaged:
            return classify(Code.E4, f"Droplet on {instr.src} is used by a "
                            "concurrent instruction", t=t,
                            instructions=_line_instrs(line, [engaged[rec.key], i]),
                            cells=(instr.src,))
        if instr.dst in claimed:
            other = claimed[instr.dst]
            if isinstance(line.instrs[other], Move):
                return classify(Code.E2, "Dynamic fluidic constraint violated", t=t,
                                instructions=_line_instrs(line, [other, i]),
                                cells=(instr.dst,),
                                detail="two droplets head for the same cell")
            return classify(Code.E1, "Static fluidic constraint violated", t=t,
                            instructions=_line_instrs(line, [other, i]),
                            cells=(instr.dst,), detail="destination already claimed")
        verdict = check_move(snapshot, instr.src, instr.dst, t=t, movers=movers)
        if verdict.ok:
            return None
        v = verdict.violation
        if v.code is Code.E2:
            # name every concurrent move whose droplet collides
            idxs = [i] + [movers[c] for c in v.cells if c in movers and movers[c] != i]
            v = classify(Code.E2, v.response, t=t,
                         instructions=_line_instrs(line, idxs), cells=v.cells)
        return v

    if isinstance(instr, MixStart):
        for endpoint in (instr.a, instr.b):
            rec = snapshot.droplet_at(endpoint)
            if rec is not None and rec.key in engaged:
                return classify(Code.E5, _missing_text([endpoint], instr.a, instr.b),
                                t=t, instructions=(instr.compact(),), cells=(endpoint,),
                                detail="endpoint droplet consumed by a concurrent instruction")
        return check_mix_start(snapshot, instr.a, instr.b, instr.t_mix, instr.mtype,
                               t=t, movers=movers).violation

    if isinstance(instr, (Waste, Output)):
        rec = snapshot.droplet_at(instr.loc)
        if rec is not None and rec.key in engaged:
            return classify(Code.E4, f"No droplet present on {instr.loc}", t=t,
                            instructions=(instr.compact(),), cells=(instr.loc,),
                            detail="droplet consumed by a concurrent instruction")
        check = check_waste if isinstance(instr, Waste) else check_output
        return check(snapshot, instr.loc, t=t).violation

    if isinstance(instr, DetectStart):
        decl = snapshot.detectors.get(instr.detector)
        if decl is not None:
            rec = snapshot.droplet_at(decl.loc)
            if rec is not None and rec.key in engaged:
                return classify(Code.E4, f"No droplet on detector {instr.detector} "
                                f"at {decl.loc}", t=t,
                                instructions=(instr.compact(),), cells=(decl.loc,))
        return check_detect(snapshot, instr.detector, t=t).violation
    return None


def _plan(snapshot: ChipState, instr: Instruction, i: int,
          claimed: dict[Loc, int], engaged: dict[int, int]) -> None:
    if isinstance(instr, Dispense):
        claimed[instr.loc] = i
    elif isinstance(instr, Move):
        claimed[instr.dst] = i
        engaged[snapshot.by_loc[instr.src]] = i
    elif isinstance(instr, MixStart):
        engaged[snapshot.by_loc[instr.a]] = i
        engaged[snapshot.by_loc[instr.b]] = i
    elif isinstance(instr, (Waste, Output)):
        engaged[snapshot.by_loc[instr.loc]] = i
    elif isinstance(instr, DetectStart):
        decl = snapshot.detectors[instr.detector]
        engaged[snapshot.by_loc[decl.loc]] = i


def _commit(snapshot: ChipState, line: TimedLine,
            effects: list[tuple[int, Instruction]], t: int) -> tuple[ChipState, list[chip.Event]]:
    new = snapshot.at_tick(t)   # the one copy of this tick; updated in place
    events: list[chip.Event] = []
    # removals first, then transports, then arrivals, then bookkeeping
    for _, instr in effects:
        if isinstance(instr, (Waste, Output)):
            rec = new._remove(new.by_loc[instr.loc])
            ev = chip.Wasted if isinstance(instr, Waste) else chip.Outputted
            events.append(ev(t, rec.node, instr.loc, rec.cf))
    for _, instr in effects:
        if isinstance(instr, Move):
            new._move(new.by_loc[instr.src], instr.dst)
    for _, instr in effects:
        if isinstance(instr, Dispense):
            reagent = new.reservoirs[instr.loc].name
            rec = new._add(reagent, instr.loc, CFVector.unit(reagent), t)
            events.append(chip.Dispensed(t, reagent, instr.loc, rec.key, rec.cf))
    for _, instr in effects:
        if isinstance(instr, MixStart):
            ka, kb = new.by_loc[instr.a], new.by_loc[instr.b]
            entry = MixerEntry(instr.a, instr.b, t, t + instr.t_mix + 1, instr.mtype,
                               (ka, kb), (new.droplets[ka].node, new.droplets[kb].node))
            new.mixers = new.mixers + (entry,)
            events.append(chip.MixStarted(t, instr.a, instr.b, entry.t_e, instr.mtype,
                                          entry.input_nodes))
        elif isinstance(instr, DetectStart):
            decl = new.detectors[instr.detector]
            entry = DetectionEntry(instr.detector, new.by_loc[decl.loc], decl.loc,
                                   t + decl.duration)
            new.detections = new.detections + (entry,)
    return new, events


# Of the eight neighbours of (r, c), the four that sort after it, in sorted order.
_FORWARD_N8 = ((0, 1), (1, -1), (1, 0), (1, 1))


def _post_checks(state: ChipState, line: TimedLine, claimed: dict[Loc, int],
                 t: int) -> list[Violation]:
    """Global separation invariant over the committed state.

    Each adjacent pair is found once, from its smaller cell, by probing the
    forward half of that cell's 8-neighbourhood; rows come out in the sorted
    (c1, c2) order of a scan over all pairs.  Every active mixer's guard
    region is covered: its endpoints stay occupied, so any droplet in the
    region is adjacent to one of them.
    """
    out: list[Violation] = []
    by_loc = state.by_loc
    for c1 in sorted(by_loc):
        r, c = c1
        for dr, dc in _FORWARD_N8:
            if (r + dr, c + dc) not in by_loc:
                continue
            c2 = Loc(r + dr, c + dc)
            idxs = [claimed[x] for x in (c1, c2) if x in claimed]
            detail = ""
            for mx in state.mixers:
                if c1 in (mx.a, mx.b) or c2 in (mx.a, mx.b):
                    detail = mx.span()
                    break
            out.append(classify(
                Code.E1, "Static fluidic constraint violated", t=t,
                instructions=_line_instrs(line, idxs), cells=(c1, c2),
                detail=detail))
    return out


# --- whole-program verification --------------------------------------------------

def format_event(ev: chip.Event) -> str:
    if isinstance(ev, chip.Dispensed):
        return f"{ev.t}\tdispense\t{ev.node}\t{ev.loc}"
    if isinstance(ev, chip.MixStarted):
        return (f"{ev.t}\tmix-start\t{ev.a}<->{ev.b}\tuntil={ev.t_e}"
                f"\tinputs={ev.input_nodes[0]},{ev.input_nodes[1]}")
    if isinstance(ev, chip.MixCompleted):
        return (f"{ev.t}\tmix-done\t{ev.node}\t{ev.a}<->{ev.b}"
                f"\twindow=[{ev.t_s},{ev.t_e}]\tcf={ev.cf}")
    if isinstance(ev, chip.Wasted):
        return f"{ev.t}\twaste\t{ev.node}\t{ev.loc}\tcf={ev.cf}"
    return f"{ev.t}\toutput\t{ev.node}\t{ev.loc}\tcf={ev.cf}"


@dataclass
class Trace:
    header: object
    reagents: tuple[str, ...]
    events: list[chip.Event] = field(default_factory=list)
    final_state: ChipState | None = None

    @property
    def outputs(self) -> list[chip.Outputted]:
        return [e for e in self.events if isinstance(e, chip.Outputted)]

    def event_log(self) -> str:
        """Newline-delimited event dump for debugging."""
        return "\n".join(format_event(e) for e in self.events) + "\n"


class Cursor:
    """A program run, advanced one timed line or idle tick at a time.

    It holds the chip state, the trace's events and the Phase-I report.
    Violations after the first failing tick are marked secondary; under
    policy "first" the run stops at the first failing tick and ignores later
    lines.  ``fork`` returns a second cursor that goes on independently from
    the same point: states are values, so only the event and violation
    lists are copied.
    """

    def __init__(self, program: Program, *, pin_map=None, policy: str = "first",
                 t_max: int | None = None):
        if policy not in ("first", "all"):
            raise EngineError(f"unknown violation policy {policy!r}")
        self.pin_map, self.policy = pin_map, policy
        self.state = chip.init_state(program.header, program.detectors)
        self.trace = Trace(program.header, program.header.reagents)
        self.report = Report(t_max=t_max if t_max is not None else program.t_max)
        self.first_bad_t: int | None = None
        self.stopped = False
        self.ended = False            # an end marker has been stepped
        self.last_t: int | None = None

    def advance(self, line: TimedLine) -> None:
        if self.stopped:
            return
        result = step(self.state, line, policy=self.policy, pin_map=self.pin_map)
        for v in result.violations:
            if self.first_bad_t is not None and line.t > self.first_bad_t:
                v = classify(v.code, v.response, t=v.t, instructions=v.instructions,
                             cells=v.cells, pins=v.pins, path=v.path,
                             detail=v.detail, secondary=True)
            self.report.violations.append(v)
        if result.violations and self.first_bad_t is None:
            self.first_bad_t = line.t
        self.state = result.state
        self.trace.events.extend(result.events)
        self.last_t = line.t
        self.ended = self.ended or any(isinstance(i, End) for i in line.instrs)
        self.stopped = bool(result.violations) and self.policy == "first"

    def idle(self, t: int) -> None:
        """Pass tick t, which has no line: only due mixers and detections resolve."""
        state, completed = expire(self.state, t)
        self.state = state.at_tick(t)
        self.trace.events.extend(completed)

    def fork(self) -> "Cursor":
        new = copy.copy(self)
        new.trace = Trace(self.trace.header, self.trace.reagents, list(self.trace.events))
        new.report = Report(violations=list(self.report.violations),
                            t_max=self.report.t_max)
        return new

    def finish(self) -> tuple[Trace, Report]:
        """The trace and report of the lines advanced so far, as the run's end."""
        if not self.stopped:
            if self.last_t is not None:
                self.report.final_t = self.last_t
                if not self.ended:
                    self.report.notes.append("program has no end marker")
            for mx in self.state.mixers:
                self.report.notes.append(f"mixer still active at program end: {mx.span()}")
            self.trace.final_state = self.state
        return self.trace, self.report


def verify_program(program: Program, *, pin_map=None, policy: str = "first",
                   t_max: int | None = None) -> tuple[Trace, Report]:
    """Run the design-constraint phase over a straight-line program.

    Returns the trace (consumed by graph reconstruction) and the Phase-I
    report.  Conditional programs must be expanded into linear paths first.
    """
    if program.has_conditionals:
        raise EngineError("program has conditional calls; expand paths first")
    cursor = Cursor(program, pin_map=pin_map, policy=policy, t_max=t_max)
    for line in program.main:
        cursor.advance(line)
    return cursor.finish()


def ticks(program: Program, upto: int | None = None):
    """Yield (t, state) after each tick up to ``upto`` (default: the last line).

    Ticks run from 1, or from 0 when a line sits there.  A tick with a line
    advances a cursor over it; a tick without one only resolves the mixers
    and detections due by then.  The first failing tick yields the state
    its line found, and the run stops there.
    """
    lines = {ln.t: ln for ln in program.main}
    last = program.main[-1].t if program.main else 0
    cursor = Cursor(program)
    for t in range(0 if 0 in lines else 1, (last if upto is None else upto) + 1):
        if t in lines:
            cursor.advance(lines[t])
        else:
            cursor.idle(t)
        yield t, cursor.state
        if cursor.stopped:
            return


def state_at(program: Program, t: int) -> ChipState:
    """Chip state right after tick t, the last state ``ticks`` yields.

    t=0 gives the blank chip unless a line sits there; past a failing tick
    it is the state the failing line found.
    """
    state = chip.init_state(program.header, program.detectors)
    for _, state in ticks(program, t):
        pass
    return state
