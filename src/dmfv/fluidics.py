"""Design-constraint checking for fully reconfigurable chips.

Every formula here is a conjunction of single-cell literals over the
occupancy snapshot at the start of the tick, so truth checking is a direct
table lookup (witness checking, no solver).  Concurrent instructions on one
line are all validated against that snapshot plus the intra-tick claim set,
then their effects commit together; a global separation check runs on the
committed state.  It also covers every active mixer's guard region, since
each droplet in that region is adjacent to an occupied mixer endpoint.  One
C-level ``isdisjoint`` over each droplet's forward neighbours
(``isa.FORWARD``) proves a clean state clean; only a state with an
adjacent pair takes the loop that finds and words the pairs.

What each instruction does is written once, in ``RULES``: the cells of the
droplets it consumes, the cells it claims, its check and the phase in which
its effect commits.  Only this module reads that table: ``LineContext``
reads a line off it once, and ``step`` and the injection search read the
line from there.  One generic rule rejects a droplet that two instructions
of a line consume; each entry keeps its own wording.
Check fast, explain slow: a line of moves is checked and committed in one
pass (``_transport``), whose plain tests are the per-instruction checks'
literals; a line it refuses, and any other line, is checked one instruction
at a time, which words its rows, and commits instruction by instruction
(``_commit``).

``Cursor`` is the one engine that steps lines.  ``verify_program``, the
path walk and ``state_at`` advance it over timed lines only; ``ticks`` also
passes the idle ticks between lines, and rendering and the injection search
read their states from it.  A cursor keeps no event log: it hands each
line's events to its caller, and ``verify_program`` collects them.

A cursor keeps, for its run, the clean verdicts of the lines it stepped
whose body two or more lines share (``Program.repeats``), in one dict from
line body and what the checks read in the snapshot (``_signature``: the
occupied cells, the active mixers' endpoints and the busy detectors) to
the body's commit plan.  A line whose body already passed on the same
cells passes again without its checks, and the cursor serves it itself:
one ``expire``, one ``_signature`` and the stored plan, run on the tick's
one copy of the state, so it costs only its effects and builds no
``StepResult``.  On a miss the cursor hands the snapshot it expired to
``step``, so no line expires or is signed twice.  ``step`` keeps no memo:
it checks every line it is given, and so it is the memo's oracle.  That is
exact, because no rule reads anything else that changes during a run
(``_signature`` gives the argument rule by rule); assays that repeat their
transport and mix lines on the same layout check each once.  A body on one
line builds no key and keeps no entry: the step memo shares what lines
share, and the path walk (``branches``) what paths share.  Forks share
these verdicts, as they share the program.

A cursor raises ``ValidationError`` for a program with structural issues
(``Program.issues``), so every cell a line names is on the array and every
detector it names is declared.  The chip's one droplet index,
``ChipState.by_loc``, maps each occupied cell to its droplet, so every rule
names a droplet by its cell: what a line consumes, what a mixer or a
detection holds.  Probes of it test no bounds: the index holds only cells on
the array, and a probe off it simply misses.  A commit that would overwrite
a droplet raises ``chip.InconsistentState`` at the write; the one-pass
transport refuses such a line, and the per-instruction path words its rows.

Violation classification follows the error taxonomy: a movement conflict
with a droplet that also moves this tick is dynamic (e2, both instructions
reported); a conflict with an idle droplet leaves adjacent droplets in the
committed state and is static (e1).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Callable, NamedTuple

from . import chip, pins
from .chip import CFVector, ChipState, DetectionEntry, Droplet, MixerEntry
from .diag import Code, Report, Violation
from .isa import (FORWARD, CondCall, Dispense, DetectStart, DmfError, End, Instruction,
                  Loc, MixStart, Move, MType, Output, Program, Record, RKind, TimedLine,
                  ValidationError, Waste, value)


class EngineError(DmfError):
    pass


# --- constraint geometry -------------------------------------------------------

def move_conflicts(state: ChipState, move: Move) -> list[Loc]:
    """The occupied cells among the three beyond the destination that the
    dynamic rule checks (``Move.probes``, built with the move), in sorted
    order.

    The probes are plain (row, col) pairs, which hash and compare equal to
    Loc keys; a Loc is built only for a hit.  ``by_loc`` holds only cells
    on the array, so a probe off the array misses without a bounds test.
    """
    by_loc = state.by_loc
    return [Loc(*p) for p in move.probes if p in by_loc]


def _occupied_near(state: ChipState, *centres: Loc) -> list[Loc]:
    """The occupied cells of the 3x3 blocks around ``centres``, sorted.

    As in ``move_conflicts``, cells off the array need no test.
    """
    block = {(r + dr, c + dc) for r, c in centres for dr in (-1, 0, 1) for dc in (-1, 0, 1)}
    return sorted(Loc(*p) for p in block & state.by_loc.keys())


def mixer_geometry_ok(a: Loc, b: Loc, mtype: MType) -> bool:
    if mtype is MType.H14:
        return a.row == b.row and abs(a.col - b.col) == 3
    return a.col == b.col and abs(a.row - b.row) == 3


# --- the rule table ------------------------------------------------------------

# commit phases, applied in this order within a tick
REMOVE, TRANSPORT, ARRIVE, BOOK = range(4)


class LineContext:
    """One line as the rule table reads it on a snapshot: the one reading
    that the checks, the pin phase and the injection search share.

    ``rules[i]`` is the rule of instruction i (None for ``end`` and a
    conditional), ``consumed[i]`` holds the cells of the droplets it
    consumes and ``claims[i]`` the cells it fills with an arriving droplet.
    ``movers`` maps each cell that a transport on the line leaves to the
    position of the first such instruction.  As instructions pass their
    checks, ``claimed`` maps the cells they claim, and ``engaged`` the cells
    of the droplets they consume, to their positions.
    """

    __slots__ = ("line", "t", "rules", "consumed", "claims", "movers", "claimed", "engaged")

    def __init__(self, state: ChipState, line: TimedLine):
        self.line, self.t = line, line.t
        self.rules: list[Rule | None] = []
        self.consumed: list[tuple[Loc, ...]] = []
        self.claims: list[tuple[Loc, ...]] = []
        self.movers: dict[Loc, int] = {}
        self.claimed: dict[Loc, int] = {}
        self.engaged: dict[Loc, int] = {}
        for i, instr in enumerate(line.instrs):
            rule = RULES.get(type(instr))
            cells = () if rule is None else rule.consumes(state, instr)
            self.rules.append(rule)
            self.consumed.append(cells)
            self.claims.append(() if rule is None else rule.claims(instr))
            if rule is not None and rule.phase == TRANSPORT:
                for cell in cells:
                    self.movers.setdefault(cell, i)

    def effects(self, passed) -> tuple[dict, list, list]:
        """What the instructions at positions ``passed`` do to droplets: each
        transport's {new cell: (old cell, position)}, each arrival's (cell,
        position) and the cells of the droplets removed."""
        moved, arrived, removed = {}, [], []
        for i in passed:
            phase, cells, claims = self.rules[i].phase, self.consumed[i], self.claims[i]
            if phase == TRANSPORT:
                moved.update((dst, (src, i)) for src, dst in zip(cells, claims))
            elif phase == ARRIVE:
                arrived += ((cell, i) for cell in claims)
            elif phase == REMOVE:
                removed += cells
        return moved, arrived, removed


@value
class Rule(NamedTuple):
    """What one instruction type does on a tick.

    ``consumes(state, instr)`` gives the cells of the droplets it takes up,
    ``claims(instr)`` the cells it fills with an arriving droplet.
    ``check(state, instr, i, ctx)`` returns its violation on the snapshot,
    or None, for the instruction at position i of the line.  ``commit``
    applies its effect to the tick's copy of the state in ``phase`` order.
    ``taken`` words the row for a droplet it consumes that an earlier
    instruction of the line already consumed: code, response and detail
    (formatted with ``cell`` and ``instr``), and whether the row also names
    that earlier instruction.
    """
    consumes: Callable[[ChipState, Instruction], tuple[Loc, ...]]
    claims: Callable[[Instruction], tuple[Loc, ...]]
    check: Callable[[ChipState, Instruction, int, LineContext], Violation | None]
    phase: int
    commit: Callable[[ChipState, Instruction, int, list], None]
    taken: tuple[Code, str, str, bool] | None = None


def _line_instrs(line: TimedLine, idxs) -> tuple[str, ...]:
    return tuple(line.instrs[i].compact() for i in sorted(set(idxs)))


def _row(code: Code, response: str, instr: Instruction, t: int, cells=(),
         detail: str = "", mixer: MixerEntry | None = None) -> Violation:
    """A row that names only the instruction being checked."""
    return Violation(code, response, t=t, instructions=(instr.compact(),), cells=cells,
                     detail=detail, mixer=mixer)


def _pinned(state: ChipState, cell: Loc, instr: Instruction, t: int, *,
            name_detector: bool = False) -> Violation | None:
    """The e4 row for the droplet on ``cell`` if an active mixer or a
    detection holds it."""
    if not state.mixers and not state.detections:
        return None
    mx = state.mixer_pinning(cell)
    if mx is not None:
        return _row(Code.E4, f"Droplet on {cell} is in active mixer", instr, t, (cell,),
                    mx.span(), mx)
    det = state.detection_pinning(cell)
    if det is not None:
        return _row(Code.E4, f"Droplet on {cell} is under detection", instr, t, (cell,),
                    f"detector {det.detector}" if name_detector else "")
    return None


def _check_dispense(state: ChipState, instr: Dispense, i: int,
                    ctx: LineContext) -> Violation | None:
    loc, t = instr.loc, ctx.t
    decl = state.reservoirs.get(loc)
    if decl is None or decl.kind is not RKind.REAGENT:
        return _row(Code.E3, "Dispense from invalid input reservoir", instr, t, (loc,),
                    f"{loc} is not a reagent reservoir")
    if loc in ctx.claimed:
        return _row(Code.E1, "Static fluidic constraint violated", instr, t, (loc,),
                    f"double claim on {loc} within the tick")
    conflicts = _occupied_near(state, loc)
    if conflicts:
        return _row(Code.E1, "Static fluidic constraint violated", instr, t,
                    tuple(conflicts), "dispense neighborhood is not free")
    return None


def _check_move(state: ChipState, instr: Move, i: int,
                ctx: LineContext) -> Violation | None:
    src, dst, t = instr.src, instr.dst, ctx.t
    if dst in ctx.claimed:
        j = ctx.claimed[dst]
        if isinstance(ctx.line.instrs[j], Move):
            return Violation(Code.E2, "Dynamic fluidic constraint violated", t=t,
                             instructions=_line_instrs(ctx.line, [j, i]), cells=(dst,),
                             detail="two droplets head for the same cell")
        return Violation(Code.E1, "Static fluidic constraint violated", t=t,
                         instructions=_line_instrs(ctx.line, [j, i]), cells=(dst,),
                         detail="destination already claimed")
    if src not in state.by_loc:
        return _row(Code.E4, f"No droplet present on {src}", instr, t, (src,))
    pinned = _pinned(state, src, instr, t, name_detector=True)
    if pinned is not None:
        return pinned
    if dst in state.by_loc:
        return _row(Code.E1, "Static fluidic constraint violated", instr, t, (dst,),
                    "destination cell occupied")
    conflicts = move_conflicts(state, instr)
    if not conflicts:
        return None
    moving = [ctx.movers[c] for c in conflicts if c in ctx.movers]
    if moving:
        # name every concurrent move whose droplet collides
        return Violation(Code.E2, "Dynamic fluidic constraint violated", t=t,
                         instructions=_line_instrs(ctx.line, [i, *moving]),
                         cells=tuple(conflicts))
    return _row(Code.E1, "Static fluidic constraint violated", instr, t, tuple(conflicts),
                "move lands next to an idle droplet")


def _check_mix(state: ChipState, instr: MixStart, i: int,
               ctx: LineContext) -> Violation | None:
    a, b, t = instr.a, instr.b, ctx.t
    if not mixer_geometry_ok(a, b, instr.mtype):
        return _row(Code.STRUCTURAL, f"Invalid mixer geometry for type {instr.mtype.value}",
                    instr, t, (a, b))
    missing = tuple(e for e in (a, b) if e not in state.by_loc)
    if missing:
        return _row(Code.E5, "Droplet is not present on " + " and ".join(map(str, missing)),
                    instr, t, missing)
    for endpoint in (a, b):
        pinned = _pinned(state, endpoint, instr, t)
        if pinned is not None:
            return pinned
    conflicts = [c for c in _occupied_near(state, a, b)
                 if c != a and c != b and c not in ctx.movers]
    if conflicts:
        return _row(Code.E1, "Static fluidic constraint violated", instr, t,
                    tuple(conflicts), "mixer neighborhood is not free")
    return None


def _check_detect(state: ChipState, instr: DetectStart, i: int,
                  ctx: LineContext) -> Violation | None:
    name, t = instr.detector, ctx.t
    decl = state.detectors[name]
    if any(d.detector == name for d in state.detections):
        return _row(Code.E4, f"Detector {name} is busy", instr, t, (decl.loc,))
    if decl.loc not in state.by_loc:
        return _row(Code.E4, f"No droplet on detector {name} at {decl.loc}", instr, t,
                    (decl.loc,))
    if state.mixer_pinning(decl.loc) is not None:
        return _row(Code.E4, f"Droplet on {decl.loc} is in active mixer", instr, t,
                    (decl.loc,))
    return None


def _commit_dispense(state: ChipState, instr: Dispense, t: int, events: list) -> None:
    reagent = state.reservoirs[instr.loc].name
    cf = CFVector.unit(reagent)
    state._add(instr.loc, Droplet(reagent, cf))
    events.append(chip.Dispensed(t, reagent, instr.loc, cf))


def _commit_move(state: ChipState, instr: Move, t: int, events: list) -> None:
    state._move(instr.src, instr.dst)


def _commit_mix(state: ChipState, instr: MixStart, t: int, events: list) -> None:
    entry = MixerEntry(instr.a, instr.b, t, t + instr.t_mix + 1, instr.mtype)
    state.mixers = state.mixers + (entry,)
    events.append(chip.MixStarted(t, instr.a, instr.b, entry.t_e, instr.mtype,
                                  (state.by_loc[instr.a].node, state.by_loc[instr.b].node)))


def _commit_detect(state: ChipState, instr: DetectStart, t: int, events: list) -> None:
    decl = state.detectors[instr.detector]
    state.detections = state.detections + (
        DetectionEntry(instr.detector, decl.loc, t + decl.duration),)


def _sink(kind: RKind, event) -> Rule:
    """The rule of ``waste`` or ``output``: the droplet leaves through a sink."""
    word = "waste" if kind is RKind.WASTE else "output"

    def check(state: ChipState, instr, i: int, ctx: LineContext) -> Violation | None:
        loc, t = instr.loc, ctx.t
        decl = state.reservoirs.get(loc)
        if decl is None or decl.kind is not kind:
            return _row(Code.E3, f"Dispense to invalid {word} reservoir", instr, t, (loc,),
                        f"{loc} is not a registered {word} cell")
        if loc not in state.by_loc:
            return _row(Code.E4, f"No droplet present on {loc}", instr, t, (loc,))
        return _pinned(state, loc, instr, t)

    def commit(state: ChipState, instr, t: int, events: list) -> None:
        droplet = state._remove(instr.loc)
        events.append(event(t, droplet.node, instr.loc, droplet.cf))

    return Rule(consumes=lambda state, instr: (instr.loc,), claims=_no_cells,
                check=check, phase=REMOVE, commit=commit,
                taken=(Code.E4, "No droplet present on {cell}",
                       "droplet consumed by a concurrent instruction", False))


def _no_cells(*_) -> tuple[Loc, ...]:
    return ()


RULES: dict[type, Rule] = {
    Dispense: Rule(consumes=_no_cells, claims=lambda instr: (instr.loc,),
                   check=_check_dispense, phase=ARRIVE, commit=_commit_dispense),
    Move: Rule(consumes=lambda state, instr: (instr.src,), claims=lambda instr: (instr.dst,),
               check=_check_move, phase=TRANSPORT, commit=_commit_move,
               taken=(Code.E4, "Droplet on {cell} is used by a concurrent instruction",
                      "", True)),
    MixStart: Rule(consumes=lambda state, instr: (instr.a, instr.b), claims=_no_cells,
                   check=_check_mix, phase=BOOK, commit=_commit_mix,
                   taken=(Code.E5, "Droplet is not present on {cell}",
                          "endpoint droplet consumed by a concurrent instruction", False)),
    Waste: _sink(RKind.WASTE, chip.Wasted),
    Output: _sink(RKind.OUTPUT, chip.Outputted),
    DetectStart: Rule(consumes=lambda state, instr: (state.detectors[instr.detector].loc,),
                      claims=_no_cells, check=_check_detect, phase=BOOK, commit=_commit_detect,
                      taken=(Code.E4, "No droplet on detector {instr.detector} at {cell}",
                             "", False)),
}


# --- stepping ------------------------------------------------------------------

class StepResult(Record):
    __slots__ = __match_args__ = ("state", "violations", "events")

    def __init__(self, state: ChipState, violations: list[Violation],
                 events: list[chip.Event]) -> None:
        self.state, self.violations, self.events = state, violations, events


def expire(state: ChipState, t: int) -> tuple[ChipState, list[chip.MixCompleted]]:
    """Resolve the mixers and detections due by tick t, before its line runs."""
    if not state.mixers and not state.detections:
        return state, []
    state, completed = chip.expire_mixers(state, t)
    return chip.expire_detections(state, t), completed


def _consumed_twice(ctx: LineContext, rule: Rule, instr: Instruction, i: int,
                    cells: tuple[Loc, ...]) -> Violation | None:
    """The generic rule: no droplet is consumed by two instructions of a line."""
    for cell in cells:
        j = ctx.engaged.get(cell)
        if j is not None:
            code, response, detail, both = rule.taken
            return Violation(code, response.format(cell=cell, instr=instr), t=ctx.t,
                             instructions=_line_instrs(ctx.line, [j, i] if both else [i]),
                             cells=(cell,), detail=detail)
    return None


_probes = attrgetter("probes")


def _transport(snapshot: ChipState, instrs, t: int) -> ChipState | None:
    """The committed state of a line of moves that passes every check, on a
    snapshot with no active mixer or detection, as ``_commit`` builds it
    down to the order of ``by_loc``, with no events; else None, and nothing
    is written into the snapshot.

    One loop tests each instruction with plain ifs, on the snapshot: a move
    whose source is occupied and whose destination is free; then one
    ``isdisjoint`` over every move's probes (``Move.probes``) finds a
    droplet beyond a destination.  Only a line that passes both is copied:
    a second loop moves each droplet in one copy of the index, refusing a
    source that an earlier move of the line took, and a destination that
    two moves share shrinks the index.  So a line refused for a source, a
    destination or a probe costs no copy before the per-instruction path's."""
    if snapshot.mixers or snapshot.detections:
        return None
    cells = snapshot.by_loc
    for instr in instrs:
        if type(instr) is not Move or instr.src not in cells or instr.dst in cells:
            return None
    if not cells.keys().isdisjoint(chain.from_iterable(map(_probes, instrs))):
        return None
    new = snapshot.copy()
    by_loc = new.by_loc
    pop = by_loc.pop
    for instr in instrs:
        droplet = pop(instr.src, None)
        if droplet is None:         # an earlier move of the line took it
            return None
        by_loc[instr.dst] = droplet
    if len(by_loc) != len(cells):
        return None
    new.t = t
    return new


def _signature(snapshot: ChipState) -> tuple:
    """What the checks of a line read in its snapshot: the occupied cells,
    each active mixer's endpoints and each live detection's detector and
    cell, in order.  (An idle chip builds no comprehension: this runs once
    per line of a shared body.)  With the body's id it keys a cursor's memo.

    A body that passed on a snapshot passes on any snapshot with the same
    signature, because every check reads only the body, the signature and
    what is fixed for a run (reservoirs, detector declarations, the pin
    map, the policy):

    - the consumed cells, claims and movers of ``LineContext`` follow from
      the body (a detection consumes its declared detector's cell);
    - ``_consumed_twice`` reads only those;
    - dispense: the reservoir table, the claims and the occupied cells
      around the reservoir;
    - move: the claims, the occupied cells, the mixer endpoints and
      detection cells that pin the source, and the movers;
    - mix: the mixer geometry, the occupied cells, the mixer endpoints and
      detection cells that pin an endpoint, and the movers;
    - detect: the declarations, the busy detectors, the occupied cells and
      the mixer endpoints;
    - waste and output: the reservoir table, the occupied cells, and the
      mixer endpoints and detection cells that pin the droplet;
    - the committed occupancy is the snapshot's, less the cells the body
      consumes, plus those it claims, and the committed mixers are the
      snapshot's plus the body's, so the separation check (``_post_checks``)
      and ``pins.pin_phase``, which read only the committed cells and mixer
      endpoints and the snapshot's cells, find what they found before.

    Ticks, droplet ids and concentrations appear only in rows and in the
    effects of a commit, and a served line's plan always runs, so its state
    and events are those of the full step.  Only clean verdicts are stored.
    """
    mixers, detections = snapshot.mixers, snapshot.detections
    return (frozenset(snapshot.by_loc),
            tuple([(mx.a, mx.b) for mx in mixers]) if mixers else (),
            tuple([(d.detector, d.loc) for d in detections]) if detections else ())


def step(state: ChipState, line: TimedLine, *, policy: str = "first",
         pin_map=None, expired: tuple[ChipState, list] | None = None) -> StepResult:
    """Advance the chip over one instruction line, checking every rule.

    Expired mixers and detections resolve first, each instruction is checked
    against the resulting snapshot plus intra-tick claims, effects commit
    together, and the committed state must satisfy the global separation
    invariant (plus the pin rules when a pin map is supplied).  A caller
    that has already resolved them (``Cursor``, which signs the snapshot
    for its memo) passes ``expired``, what ``expire(state, line.t)`` gave
    it; the events list in it becomes this step's.

    ``_transport`` may check and commit a line of moves in one pass.  Its
    plain tests are the per-instruction path's literals, move by move: no
    mixer or detection (``_pinned``), occupied sources, free destinations
    and free probes (``_check_move``), a source no earlier move took
    (``_consumed_twice``) and, by the droplet count after the line, distinct
    destinations (``_check_move``).  So it accepts exactly the lines without
    a row; it builds the state that ``_commit`` would, down to the order of
    ``by_loc``, with no events.  The claims {destination: position} are
    built only where a row or the pin phase reads them: ``_post_checks``
    builds them for a state with an adjacent pair, and the pin phase gets
    the effects that ``LineContext.effects`` gives when every move passes.
    The rest of the step is shared.
    """
    t = line.t
    if expired is None:
        if t < state.t:
            raise EngineError(f"line at t={t} precedes current state t={state.t}")
        expired = expire(state, t)
    snapshot, events = expired
    violations: list[Violation] = []
    new = _transport(snapshot, line.instrs, t)
    if new is not None:
        ctx = claimed = None
    else:
        ctx = LineContext(snapshot, line)
        passed: list[int] = []      # positions of the instructions that pass
        for i, instr in enumerate(line.instrs):
            rule = ctx.rules[i]
            if rule is None:
                if isinstance(instr, CondCall):
                    raise EngineError("conditional programs must be expanded into paths first")
                continue    # end
            consumed = ctx.consumed[i]
            v = _consumed_twice(ctx, rule, instr, i, consumed)
            if v is None:
                v = rule.check(snapshot, instr, i, ctx)
            if v is not None:
                violations.append(v)
                if policy == "first":
                    return StepResult(snapshot, violations, events)
                continue
            for cell in ctx.claims[i]:
                ctx.claimed[cell] = i
            for cell in consumed:
                ctx.engaged[cell] = i
            passed.append(i)
        claimed = ctx.claimed
        new, more = _commit(snapshot, [line.instrs[i] for i in passed], t)
        events.extend(more)
    post = _post_checks(new, line, claimed, t)
    if post:
        violations.extend(post)
        if policy == "first":
            return StepResult(snapshot, violations, events)
    if pin_map is not None:
        effects = (ctx.effects(passed) if ctx is not None else
                   ({m.dst: (m.src, i) for i, m in enumerate(line.instrs)}, [], []))
        pin_violations = pins.pin_phase(pin_map, snapshot, new, line, *effects)
        if pin_violations:
            violations.extend(pin_violations)
            if policy == "first":
                return StepResult(snapshot, violations, events)
    return StepResult(new, violations, events)


def _commit(snapshot: ChipState, instrs, t: int) -> tuple[ChipState, list[chip.Event]]:
    """Apply the effects of the passed instructions to one copy of the
    snapshot, which stays as it was for a line that a later check fails."""
    new, events = snapshot.copy(), []
    _apply(new, _plan(instrs), t, events)
    return new, events


def _plan(instrs) -> tuple:
    """The commit plan of instructions: each one's (commit, instruction),
    phase by phase (removals, transports, arrivals, bookkeeping), each phase
    in line order.  An instruction without a rule (end) has no effect."""
    phases: tuple[list, ...] = ([], [], [], [])
    for instr in instrs:
        rule = RULES.get(type(instr))
        if rule is not None:
            phases[rule.phase].append((rule.commit, instr))
    return (*phases[0], *phases[1], *phases[2], *phases[3])


def _apply(new: ChipState, plan: tuple, t: int, events: list) -> None:
    """Run a commit plan on ``new``, the one copy of tick t, in place."""
    new.t = t
    for commit, instr in plan:
        commit(new, instr, t, events)


def _post_checks(state: ChipState, line: TimedLine, claimed: dict[Loc, int] | None,
                 t: int) -> list[Violation]:
    """Global separation invariant over the committed state.

    Each adjacent pair is found once, from its smaller cell, in the forward
    half of that cell's 8-neighbourhood (``isa.FORWARD``).  One
    ``isdisjoint`` over every droplet's forward cells first proves a clean
    state clean; only a state with a pair takes the loop that finds them.
    Only the pairs found are sorted, so rows come out in the (c1, c2) order
    of a scan over all pairs.  Every active mixer's guard region is covered:
    its endpoints stay occupied, so any droplet in the region is adjacent
    to one of them.  ``claimed`` maps each cell that an instruction filled
    to its position; None stands for a line that ``_transport`` committed,
    whose moves claim their destinations.
    """
    by_loc = state.by_loc
    if by_loc.keys().isdisjoint(chain.from_iterable(map(FORWARD.__getitem__, by_loc))):
        return []
    if claimed is None:
        claimed = {m.dst: i for i, m in enumerate(line.instrs)}
    pairs = [(c1, Loc(*c2)) for c1 in by_loc for c2 in FORWARD[c1] if c2 in by_loc]
    pairs.sort()
    out: list[Violation] = []
    for c1, c2 in pairs:
        idxs = [claimed[x] for x in (c1, c2) if x in claimed]
        mixer = next((mx for mx in state.mixers
                      if c1 in (mx.a, mx.b) or c2 in (mx.a, mx.b)), None)
        out.append(Violation(
            Code.E1, "Static fluidic constraint violated", t=t,
            instructions=_line_instrs(line, idxs), cells=(c1, c2),
            detail=mixer.span() if mixer else "", mixer=mixer))
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


class Trace(Record):
    __slots__ = __match_args__ = ("reagents", "events")

    def __init__(self, reagents: tuple[str, ...], events: list[chip.Event] | None = None) -> None:
        self.reagents = reagents
        self.events = [] if events is None else events

    def event_log(self) -> str:
        """Newline-delimited event dump for debugging."""
        return "\n".join(format_event(e) for e in self.events) + "\n"


class Cursor:
    """A program run, advanced one timed line or idle tick at a time.

    It holds the chip state and the Phase-I rows, and keeps no history:
    ``advance`` hands each line's events to its caller, which keeps what it
    needs.  Violations after the first failing tick are marked secondary;
    under policy "first" the run stops at the first failing tick and ignores
    later lines.  ``fork`` returns a second cursor that goes on independently
    from the same point: states are values, so only the rows are copied, and
    the step memo is shared.  ``finish`` builds the report.
    A program with structural issues raises ``ValidationError``, and a pin
    map must have the chip's size (DmfError otherwise).
    """

    def __init__(self, program: Program, *, pin_map=None, policy: str = "first",
                 t_max: int | None = None):
        if program.issues:
            raise ValidationError(program.issues)
        if policy not in ("first", "all"):
            raise EngineError(f"unknown violation policy {policy!r}")
        if pin_map is not None:
            pin_map.check_chip(program.header)
        self.pin_map, self.policy = pin_map, policy
        # (id(body), _signature(snapshot)) -> (body, commit plan), for the
        # clean verdicts of shared bodies; the body keeps its id alive
        self.memo: dict[tuple[int, tuple], tuple[tuple, tuple]] = {}
        self.repeats = program.repeats
        self.state = chip.init_state(program.header, program.detectors)
        self.rows: list[Violation] = []
        self.t_max = t_max if t_max is not None else program.t_max
        self.first_bad_t: int | None = None
        self.stopped = False
        self.ended = False            # an end marker has been stepped
        self.last_t: int | None = None

    def advance(self, line: TimedLine) -> list[chip.Event]:
        """Step ``line`` and return its events (none once the run has stopped).

        The cursor resolves the line's due mixers and detections
        (``expire``) itself.  A line whose body two lines share
        (``Program.repeats``) is also signed (``_signature``); if its body
        already passed on a snapshot with that signature, the cursor serves
        it: the commit plan (``_plan``) stored with that verdict runs on the
        tick's one copy, which is ``expire``'s when a mixer or a detection
        resolved and a fresh one otherwise, and nothing else runs.  Any
        other line is checked by ``step`` on that snapshot, and a clean
        verdict of a shared body is stored with the body's plan.
        """
        if self.stopped:
            return []
        state, t, body = self.state, line.t, line.instrs
        if t < state.t:
            raise EngineError(f"line at t={t} precedes current state t={state.t}")
        self.last_t = t
        # validation puts an end marker last on its line
        if body and isinstance(body[-1], End):
            self.ended = True
        expired = snapshot, events = expire(state, t)
        key = None
        if id(body) in self.repeats:
            key = id(body), _signature(snapshot)
            clean = self.memo.get(key)
            if clean is not None:
                self.state = new = snapshot if snapshot is not state else snapshot.copy()
                _apply(new, clean[1], t, events)
                return events
        result = step(state, line, policy=self.policy, pin_map=self.pin_map, expired=expired)
        if key is not None and not result.violations:
            self.memo[key] = body, _plan(body)
        for v in result.violations:
            if self.first_bad_t is not None and t > self.first_bad_t:
                v = v._replace(secondary=True)
            self.rows.append(v)
        if result.violations and self.first_bad_t is None:
            self.first_bad_t = t
        self.state = result.state
        self.stopped = bool(result.violations) and self.policy == "first"
        return result.events

    def idle(self, t: int) -> None:
        """Pass tick t, which has no line: only due mixers and detections resolve."""
        self.state = expire(self.state, t)[0].at_tick(t)

    def fork(self) -> "Cursor":
        new = Cursor.__new__(Cursor)
        new.pin_map, new.policy, new.memo = self.pin_map, self.policy, self.memo
        new.repeats = self.repeats
        new.state, new.first_bad_t = self.state, self.first_bad_t
        new.stopped, new.ended, new.last_t = self.stopped, self.ended, self.last_t
        new.rows, new.t_max = list(self.rows), self.t_max
        return new

    def finish(self) -> Report:
        """The report of the lines advanced so far, as the run's end: the
        one builder of a run's end facts.  It holds the rows and, unless the
        run stopped at its first failing tick, the final tick (if a line
        ran), a note if no end marker was stepped and, last, one per mixer
        left active (``mixer_note``)."""
        report = Report(self.rows, t_max=self.t_max)
        if not self.stopped:
            if self.last_t is not None:
                report.final_t = self.last_t
                if not self.ended:
                    report.notes.append("program has no end marker")
            report.notes += map(mixer_note, self.state.mixers)
        return report


def mixer_note(mx: MixerEntry) -> str:
    """The end note of a mixer still active when its run ends."""
    return f"mixer still active at program end: {mx.span()}"


def verify_program(program: Program, *, pin_map=None, policy: str = "first",
                   t_max: int | None = None) -> tuple[Trace, Report]:
    """Run the design-constraint phase over a straight-line program.

    Returns the trace, which collects what ``advance`` returns (consumed by
    graph reconstruction), and the Phase-I report.  Conditional programs
    must be expanded into linear paths first.
    """
    if program.has_conditionals:
        raise EngineError("program has conditional calls; expand paths first")
    cursor = Cursor(program, pin_map=pin_map, policy=policy, t_max=t_max)
    trace = Trace(program.header.reagents)
    for line in program.main:
        trace.events.extend(cursor.advance(line))
    return trace, cursor.finish()


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

    A cursor advances over the lines up to t and then passes tick t once:
    ``expire`` resolves everything due by t in (t_e, a) order, as the idle
    ticks in between would one by one.  t=0 gives the blank chip unless a
    line sits there; past a failing tick it is the state the failing line
    found, labeled with the tick before it.
    """
    cursor = Cursor(program)
    for line in program.main:
        if line.t > t:
            break
        cursor.advance(line)
        if cursor.stopped:
            return cursor.state.at_tick(max(line.t - 1, 0))
    if t > cursor.state.t:
        cursor.idle(t)
    return cursor.state
