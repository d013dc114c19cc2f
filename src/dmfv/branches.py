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
away from the path that skipped it.  The walk only steps: each resume
point it steps from becomes a node of a path DAG, which keeps the segment
stepped from it and what lies below it once, in time relative to its
shift, and a run that reaches a node's state takes that node and goes no
further.  So stepping costs distinct resume states times lines, not paths
times lines.  Then one depth-first pass over the DAG writes every path
straight into the one report ``dmfv verify`` prints, its rows, ticks and
mixer notes shifted as they are written; a path keeps no report of its own
and no event log.  ``path_shapes`` walks the same tree without stepping,
for ``dmfv paths``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import chip, fluidics, graph
from .diag import Code, Report, Violation
from .isa import CondCall, DmfError, Program, TimedLine, ValidationError


MAX_CONDITIONALS = 16       # the default limit on a program's conditionals


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
                max_conditionals: int = MAX_CONDITIONALS) -> list[tuple[str, int, int]]:
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


class _Node(NamedTuple):
    """A resume point of the path DAG, stepped at shift ``delta``: the
    segment stepped from it to the next conditional or to the program's end
    (its rows, rounded outputs and last tick less ``delta``, None if no line
    ran), then how the segment ends.  At the program's end, ``end`` holds
    the run's end facts (``_leaf``).  At a conditional, ``below`` holds one
    outcome each, in label order: (label digit, the recovery lines' rows
    and last tick as the segment's, their outputs, the child node, and the
    child's shift less ``delta``)."""
    delta: int
    rows: list[Violation]
    outs: tuple
    last_t: int | None
    end: tuple[Report, tuple[chip.MixerEntry, ...]] | None
    below: tuple[tuple, ...]


def _leaf(label: str, cursor: fluidics.Cursor) -> tuple[Report, tuple[chip.MixerEntry, ...]]:
    """The end facts of the path ``label``, whose run ``cursor`` stepped to
    its end: its end as ``Cursor.finish`` builds it, and the mixers left
    active."""
    return cursor.finish(), cursor.state.mixers


def _since(cursor: fluidics.Cursor, n_rows: int, last_t: int | None,
           delta: int) -> tuple[list[Violation], int | None]:
    """The rows ``cursor`` added after its first ``n_rows``, and its last
    tick less ``delta`` if a line ran since it was ``last_t`` (else None)."""
    return cursor.rows[n_rows:], None if cursor.last_t == last_t else cursor.last_t - delta


def _later(mx: chip.MixerEntry, d: int) -> chip.MixerEntry:
    return chip.MixerEntry(mx.a, mx.b, mx.t_s + d, mx.t_e + d, mx.mtype)


def _write_rows(out: list[Violation], path: str | None,
                segments: list[tuple[list[Violation], int]]) -> None:
    """Append to ``out`` the rows of each (rows, d) segment, d ticks later
    and tagged with ``path``: one row each, and a row that words a mixer's
    span re-words it."""
    for rows, d in segments:
        for v in rows:
            mx = d and v.mixer and _later(v.mixer, d)
            out.append(Violation(v.code, v.response, v.t + d, v.instructions, v.cells, v.pins,
                                 path, mx.span() if mx else v.detail, v.secondary,
                                 mx or v.mixer))


def _resume_key(main: tuple[TimedLine, ...], idx: int, cursor: fluidics.Cursor,
                delta: int) -> tuple:
    """What the rest of the walk from ``main[idx]`` depends on, with time
    measured from the walk's shift ``delta``: the chip state, less its tick
    (the next line advanced overwrites it) and less the detections over by
    ``main[idx]``'s tick (no line advances earlier, and its ``expire`` drops
    them before any check); whether the run has failed yet, which decides
    whether the rows below are secondary and, under policy "first", whether
    the run has stopped; and whether any line has run, without which a run
    has no final tick.  An end marker is never advanced before a resume
    point.
    """
    state, t = cursor.state, main[idx].t + delta
    return (idx, cursor.first_bad_t is None, cursor.last_t is None,
            frozenset(state.by_loc.items()),
            tuple([(mx.a, mx.b, mx.t_s - delta, mx.t_e - delta, mx.mtype)
                   for mx in state.mixers]),
            tuple([(det.detector, det.loc, det.t_end - delta)
                   for det in state.detections if det.t_end > t]),
            state.next_node)


def verify_all_paths(program: Program, *, pin_map=None, input_sg=None,
                     policy: str = "first", t_max: int | None = None,
                     only: str | None = None,
                     max_conditionals: int = MAX_CONDITIONALS) -> Report:
    """Verify every path (or the one selected by ``only``) into one report:
    a ``path L: PASS|FAIL, ends t=T`` note per path in label order, then the
    rows and notes of each path's spliced program verified alone, tagged
    with its label, and the latest final tick of any path.

    It runs in two passes.  The walk steps and writes nothing: the lines a
    group of paths shares up to a conditional are stepped once, the run is
    forked there, and each fork goes on under one outcome.  Each resume
    point it steps from becomes a ``_Node`` of a path DAG, relative to the
    node's shift; a run that reaches a resume point in a node's state, up
    to a shift in time, goes no further and takes that node.  Then one
    depth-first pass over the DAG writes every path in label order, its
    rows, last tick and mixer notes shifted as they are written.

    When an input graph is supplied (annotated, as ``graph.parse_input_sg``
    returns it), each clean path is additionally required to deliver the
    same multiset of output concentrations the input graph specifies;
    recovery detours must re-produce the same mixture: the walk keeps the
    output concentrations of each segment, rounded once as their lines are
    stepped, and builds no graph.
    """
    k = _count_conditionals(program, max_conditionals)
    if only is not None and (len(only) != k or not set(only) <= {"0", "1"}):
        raise DmfError(f"no path labeled {only!r}")
    n = program.header.accuracy
    want = None if input_sg is None else _output_cfs(input_sg, n)
    main = program.main
    root = fluidics.Cursor(program, pin_map=pin_map, policy=policy, t_max=t_max)
    t_max = root.t_max
    memo: dict[tuple, _Node] = {}       # resume key -> its node

    def outputs(cursor: fluidics.Cursor, line: TimedLine) -> tuple:
        # Each output edge of the path's realized graph carries its Outputted
        # event's own cf: only a mix changes a droplet's cf, and it puts one
        # droplet on both its cells.
        return tuple(graph.round_cf(e.cf, n) for e in cursor.advance(line)
                     if isinstance(e, chip.Outputted))

    def walk(cursor: fluidics.Cursor, idx: int, delta: int, label: str) -> _Node:
        # The node of the resume point ``main[idx]``, reached at shift
        # ``delta``: one stepped before in the same state, or a new one.
        key = None
        if idx < len(main):
            key = _resume_key(main, idx, cursor, delta)
            node = memo.get(key)
            if node is not None:
                return node
        n_rows, last_t, outs = len(cursor.rows), cursor.last_t, ()
        while idx < len(main) and _cond_of(main[idx]) is None:
            line = main[idx]
            outs += outputs(cursor, TimedLine(line.t + delta, line.instrs) if delta else line)
            idx += 1
        rows, t = _since(cursor, n_rows, last_t, delta)
        if idx == len(main):
            node = _Node(delta, rows, outs, t, _leaf(label, cursor), ())
        else:
            below = []
            choices = (False, True) if only is None else (only[len(label)] == "1",)
            for i, taken in enumerate(choices):
                # the last child takes the cursor over; the others get forks
                child = cursor if i == len(choices) - 1 else cursor.fork()
                inserted, child_delta = _branch(program, idx, delta, taken)
                n_rows, last_t, child_outs = len(child.rows), child.last_t, ()
                for line in inserted:
                    child_outs += outputs(child, line)
                digit = "01"[taken]
                # the recovery's rows and last tick, taken before the child steps on
                below.append((digit, *_since(child, n_rows, last_t, delta), child_outs,
                              walk(child, idx + 1, child_delta, label + digit),
                              child_delta - delta))
            node = _Node(delta, rows, outs, t, None, tuple(below))
        if key is not None:
            memo[key] = node
        return node

    report = Report(t_max=t_max)
    notes: list[str] = []               # the paths' own notes, after every summary

    def write(below: tuple[tuple, ...], delta: int, d: int, label: str, last_t: int | None,
              outs: tuple, segments: tuple[tuple[list[Violation], int], ...]) -> None:
        # Write each path below the outcomes ``below`` of a node that a run
        # reached at shift ``delta``, ``d`` ticks later than the node was
        # stepped, with ``label`` and, after the node's segment, last tick
        # ``last_t``, outputs ``outs`` and its rows as (rows, d) segments.
        # A leaf's path is written here, in its parent's loop.  The resume key holds
        # whether the run has failed, so each row keeps its secondary flag;
        # a concentration does not change under a shift.
        for digit, rec_rows, rec_t, rec_outs, child, shift in below:
            base, c_rows, c_o, c_t, end, c_below = child
            c_delta, c_label, c_outs = delta + shift, label + digit, outs + rec_outs + c_o
            c_last = last_t if rec_t is None else rec_t + delta
            if c_t is not None:
                c_last = c_t + c_delta
            c_d = c_delta - base
            c_segments = segments
            if rec_rows:
                c_segments += ((rec_rows, d),)
            if c_rows:
                c_segments += ((c_rows, c_d),)
            if end is None:
                write(c_below, c_delta, c_d, c_label, c_last, c_outs, c_segments)
                continue
            # One path: its rows, its e7 output row if Phase I is clean,
            # its summary note and its own notes.
            finish, mixers = end
            clean = not c_segments
            if c_segments:
                _write_rows(report.violations, c_label or None, c_segments)
            elif want is not None:
                clean = _check_outputs(want, sorted(c_outs), report, c_label)
            final_t = None if finish.final_t is None else c_last
            ok = clean and (t_max is None or final_t is None or final_t <= t_max)
            report.notes.append(f"path {c_label}: {'PASS' if ok else 'FAIL'}, ends t={final_t}")
            path_notes = finish.notes
            if path_notes:
                if c_d and mixers:
                    # a run that did not stop ends its notes with one per mixer
                    path_notes = path_notes[:-len(mixers)] + [
                        fluidics.mixer_note(_later(mx, c_d)) for mx in mixers]
                notes.extend([f"path {c_label}: {n}" for n in path_notes])
            if final_t is not None and (report.final_t is None or final_t > report.final_t):
                report.final_t = final_t

    # the root is the one outcome of a node above it
    write((("", [], None, (), walk(root, 0, 0, ""), 0),), 0, 0, "", None, (), ())
    report.notes += notes
    return report


def _output_cfs(sg: graph.SeqGraph, n: int) -> list[graph.CFVector]:
    """The sorted multiset of output concentrations, rounded to accuracy n."""
    return sorted(graph.round_cf(cf, n) for cf in sg.terminal_cfs(graph.OUTPUT))


def _check_outputs(want: list[graph.CFVector], got: list[graph.CFVector],
                   report: Report, label: str) -> bool:
    """Whether a path delivers the specified outputs; if not, add its e7 row."""
    if want == got:
        return True
    got_text, want_text = sorted(map(str, got)), sorted(map(str, want))
    report.violations.append(Violation(
        Code.E7, "Incorrect realization of input sequencing graph",
        path=label or None,
        detail=f"path outputs {got_text or ['none']} do not match specified "
               f"{want_text or ['none']}"))
    return False

