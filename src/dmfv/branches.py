"""Execution paths of cyberphysical programs.

A program with k conditional recovery calls can execute in 2^k ways.  On
each path a taken branch runs the recovery block right after the
conditional (internal gaps preserved) and the main line resumes one tick
after the block; a not-taken branch lets the continuation fire on the very
next tick.  ``_branch`` holds this rule.  Written timestamps therefore
match the all-faulty path; every other path is a compaction of it.

Paths that share their leading outcomes run the same lines at the same
ticks up to their next conditional, so ``verify_all_paths`` walks the tree
of outcomes depth first and steps each shared prefix once, forking the run
at every conditional.  Paths whose chip states agree at a resume point, up
to a shift in time, share their stepped suffix as well, failing or not: a
recovery that puts the chip back as it found it leaves its path one shift
away from the path that skipped it.  The first path to reach such a state
steps what follows and keeps a summary of each path below it; the others
replay those summaries, rows included, shifted in time.  So stepping costs
distinct resume states times lines, not paths times lines.
``path_shapes`` walks the same tree without stepping, for ``dmfv paths``.
The walk writes each path straight into the one report ``dmfv verify``
prints; a path keeps no report of its own and no event log.
"""

from __future__ import annotations

from typing import NamedTuple

from . import chip, fluidics, graph
from .diag import Code, Report, Violation
from .isa import CondCall, DmfError, Program, TimedLine, ValidationError


class PathLimitExceeded(DmfError):
    pass


def _cond_of(line: TimedLine) -> CondCall | None:
    if len(line.instrs) == 1 and isinstance(line.instrs[0], CondCall):
        return line.instrs[0]
    return None


def _branch(program: Program, idx: int, delta: int,
            taken: bool) -> tuple[tuple[TimedLine, ...], int]:
    """Resolve the conditional at ``program.main[idx]`` on a path whose main
    lines are shifted by ``delta`` ticks.

    Returns the recovery lines it inserts (none when not taken), starting one
    tick after the conditional, and the shift of the main lines after it,
    which makes the next one fire one tick after the last inserted line, or
    after the conditional itself.
    """
    main = program.main
    tau = main[idx].t + delta
    inserted: tuple[TimedLine, ...] = ()
    if taken:
        block = program.recoveries[_cond_of(main[idx]).recovery]
        base = block[0].t
        inserted = tuple(TimedLine(tau + 1 + (bl.t - base), bl.instrs) for bl in block)
    if idx + 1 == len(main):
        return inserted, delta
    resume = inserted[-1].t if inserted else tau
    return inserted, resume + 1 - main[idx + 1].t


def _count_conditionals(program: Program, max_conditionals: int) -> int:
    """Refuse a program with structural issues (``Program.issues``, found
    once per program) and return its number of conditionals."""
    if program.issues:
        raise ValidationError(program.issues)
    k = sum(1 for ln in program.main if _cond_of(ln) is not None)
    if k > max_conditionals:
        raise PathLimitExceeded(
            f"{k} conditionals expand to 2^{k} paths; raise the limit explicitly")
    return k


def path_shapes(program: Program, *,
                max_conditionals: int = 16) -> list[tuple[str, int, int]]:
    """(label, line count, final tick) of every path, in label order.

    A conditional-free program has the one path labeled with the empty
    string; a path without lines ends at t=0.
    """
    _count_conditionals(program, max_conditionals)
    main = program.main
    out: list[tuple[str, int, int]] = []

    def walk(idx: int, delta: int, label: str, lines: int, last: int) -> None:
        while idx < len(main) and _cond_of(main[idx]) is None:
            lines, last = lines + 1, main[idx].t + delta
            idx += 1
        if idx == len(main):
            out.append((label, lines, last))
            return
        for taken in (False, True):
            inserted, child_delta = _branch(program, idx, delta, taken)
            walk(idx + 1, child_delta, label + "01"[taken], lines + len(inserted),
                 inserted[-1].t if inserted else last)

    walk(0, 0, "", 0, 0)
    return out


class _Leaf(NamedTuple):
    """A path's summary, which its report and outputs are built from: no
    cursor and no chip state.  Rows are untagged; last_t is None if no line
    ran."""
    label: str
    rows: list[Violation]
    last_t: int | None
    ended: bool
    stopped: bool
    mixers: tuple[chip.MixerEntry, ...]
    outs: tuple


def _summary(label: str, cursor: fluidics.Cursor, outs: tuple) -> _Leaf:
    """The leaf of a path whose run ``cursor`` stepped to its end."""
    return _Leaf(label, cursor.rows, cursor.last_t, cursor.ended,
                 cursor.stopped, cursor.state.mixers, outs)


def _later(mx: chip.MixerEntry, d: int) -> chip.MixerEntry:
    return chip.MixerEntry(mx.a, mx.b, mx.t_s + d, mx.t_e + d, mx.mtype)


def _shifted(v: Violation, d: int) -> Violation:
    """Row ``v`` d ticks later: its tick and the span its detail words."""
    mx = v.mixer and _later(v.mixer, d)
    return Violation(v.code, v.response, v.t + d, v.instructions, v.cells, v.pins, v.path,
                     mx.span() if mx else v.detail, v.secondary, mx)


def _resume_key(main: tuple[TimedLine, ...], idx: int, cursor: fluidics.Cursor,
                delta: int) -> tuple:
    """What the rest of the walk from ``main[idx]`` depends on, with time
    measured from the walk's shift ``delta``: the chip state, less its tick
    (the next line advanced overwrites it) and less the detections over by
    ``main[idx]``'s tick (no line advances earlier, and its ``expire`` drops
    them before any check), and whether the run has failed yet, which
    decides whether the rows below are secondary and, under policy "first",
    whether the run has stopped.  An end marker is never advanced before a
    resume point.
    """
    state, t = cursor.state, main[idx].t + delta
    return (idx, cursor.first_bad_t is None, frozenset(state.by_loc.items()),
            tuple([(mx.a, mx.b, mx.t_s - delta, mx.t_e - delta, mx.mtype)
                   for mx in state.mixers]),
            tuple([(det.detector, det.loc, det.t_end - delta)
                   for det in state.detections if det.t_end > t]),
            state.next_node)


def verify_all_paths(program: Program, *, pin_map=None, input_sg=None,
                     policy: str = "first", t_max: int | None = None,
                     only: str | None = None,
                     max_conditionals: int = 16) -> Report:
    """Verify every path (or the one selected by ``only``) into one report:
    a ``path L: PASS|FAIL, ends t=T`` note per path in label order, then the
    rows and notes of each path's spliced program verified alone, tagged
    with its label, and the latest final tick of any path.

    The lines a group of paths shares up to a conditional are stepped
    once: the run is forked there, and each fork goes on under one outcome.
    Paths that reach a resume point in the same state, up to a shift in
    time, also share what follows: the first one steps it and keeps a
    ``_Leaf`` summary of each path below, and the others replay those
    summaries shifted in time, rows included.

    When an input graph is supplied (annotated, as ``graph.parse_input_sg``
    returns it), each clean path is additionally required to deliver the
    same multiset of output concentrations the input graph specifies;
    recovery detours must re-produce the same mixture: the walk carries each
    path's output concentrations, rounded once as their lines are stepped,
    and builds no graph.
    """
    k = _count_conditionals(program, max_conditionals)
    if only is not None and (len(only) != k or not set(only) <= {"0", "1"}):
        raise DmfError(f"no path labeled {only!r}")
    n = program.header.accuracy
    want = None if input_sg is None else _output_cfs(input_sg, n)
    main = program.main
    root = fluidics.Cursor(program, pin_map=pin_map, policy=policy, t_max=t_max)
    report = Report(t_max=root.t_max)
    notes: list[str] = []       # the paths' own notes, after every summary
    leaves: list[_Leaf] = []    # of each path emitted
    # resume key -> (delta, label length, output count, row count and last_t
    #                at the key, the leaves below it)
    memo: dict[tuple, tuple[int, int, int, int, int | None, list[_Leaf]]] = {}

    def outputs(cursor: fluidics.Cursor, line: TimedLine) -> tuple:
        # Each output edge of the path's realized graph carries its Outputted
        # event's own cf: only a mix changes a droplet's cf, and it puts one
        # droplet on both its cells.
        return tuple(graph.round_cf(e.cf, n) for e in cursor.advance(line)
                     if isinstance(e, chip.Outputted))

    def emit(leaf: _Leaf) -> None:
        leaves.append(leaf)
        label, path = leaf.label, leaf.label or None
        end = fluidics.end_report([Violation(v.code, v.response, v.t, v.instructions, v.cells,
                                             v.pins, path, v.detail, v.secondary, v.mixer)
                                   for v in leaf.rows],
                                  root.t_max, leaf.last_t, leaf.ended, leaf.stopped, leaf.mixers)
        if want is not None and not leaf.rows:      # Phase I clean
            _check_outputs(want, sorted(leaf.outs), end, label)
        report.violations += end.violations
        report.notes.append(f"path {label}: {'PASS' if end.ok else 'FAIL'}, ends t={end.final_t}")
        notes.extend(f"path {label}: {n}" for n in end.notes)
        if end.final_t is not None and (report.final_t is None or end.final_t > report.final_t):
            report.final_t = end.final_t

    def replay(cursor: fluidics.Cursor, delta: int, label: str, outs: tuple,
               stored: tuple) -> None:
        # The key holds whether the run has failed, so each row keeps its
        # secondary flag; a concentration does not change under a shift.
        delta0, depth, n_outs, n_rows, last_t, below = stored
        d = delta - delta0
        for leaf in below:
            emit(_Leaf(label + leaf.label[depth:],
                       cursor.rows + [_shifted(v, d) for v in leaf.rows[n_rows:]],
                       cursor.last_t if leaf.last_t == last_t else leaf.last_t + d,
                       leaf.ended, leaf.stopped, tuple(_later(mx, d) for mx in leaf.mixers),
                       outs + leaf.outs[n_outs:]))

    def walk(cursor: fluidics.Cursor, idx: int, delta: int, label: str,
             outs: tuple) -> None:
        key = None
        if idx < len(main):
            key = _resume_key(main, idx, cursor, delta)
            if key in memo:
                replay(cursor, delta, label, outs, memo[key])
                return
            first = len(leaves)
            stored = (delta, len(label), len(outs), len(cursor.rows), cursor.last_t)
        while idx < len(main) and _cond_of(main[idx]) is None:
            line = main[idx]
            outs += outputs(cursor, TimedLine(line.t + delta, line.instrs) if delta else line)
            idx += 1
        if idx == len(main):
            emit(_summary(label, cursor, outs))
        else:
            choices = (False, True) if only is None else (only[len(label)] == "1",)
            for i, taken in enumerate(choices):
                # the last child takes the cursor over; the others get forks
                child = cursor if i == len(choices) - 1 else cursor.fork()
                inserted, child_delta = _branch(program, idx, delta, taken)
                child_outs = outs
                for line in inserted:
                    child_outs += outputs(child, line)
                walk(child, idx + 1, child_delta, label + "01"[taken], child_outs)
        if key is not None:
            memo[key] = stored + (leaves[first:],)

    walk(root, 0, 0, "", ())
    report.notes += notes
    return report


def _output_cfs(sg: graph.SeqGraph, n: int) -> list[graph.CFVector]:
    """The sorted multiset of output concentrations, rounded to accuracy n."""
    return sorted(graph.round_cf(cf, n) for cf in sg.terminal_cfs(graph.OUTPUT))


def _check_outputs(want: list[graph.CFVector], got: list[graph.CFVector],
                   report: Report, label: str) -> None:
    if want != got:
        got_text, want_text = sorted(map(str, got)), sorted(map(str, want))
        report.violations.append(Violation(
            Code.E7, "Incorrect realization of input sequencing graph",
            path=label or None,
            detail=f"path outputs {got_text or ['none']} do not match specified "
                   f"{want_text or ['none']}"))

