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
steps what follows, and its resume point becomes a node of a path DAG: the
node keeps what lies below it once, in time relative to its shift (each
path stepped to its end, with its rows, outputs and end facts, and an edge
to each node replayed below it).  Every other path that reaches the state
is written from the DAG, its rows and end notes shifted in time as they
are written.  So stepping costs distinct resume states times lines, not
paths times lines, and a replayed path costs only the writing of its own
text.  ``path_shapes`` walks the same tree without stepping, for ``dmfv
paths``.  The walk writes each path straight into the one report ``dmfv
verify`` prints; a path keeps no report of its own and no event log.
"""

from __future__ import annotations

from itertools import islice
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
    """A path the walk stepped to its end: its label, untagged rows, last
    tick (None if no line ran) and output concentrations from the root, the
    mixers left active, and its end as ``Cursor.finish`` builds it."""
    label: str
    rows: list[Violation]
    last_t: int | None
    outs: tuple
    mixers: tuple[chip.MixerEntry, ...]
    end: Report


class _Edge(NamedTuple):
    """A replay: what the arriving run had from the root (label, untagged
    rows, last tick, output concentrations), its shift, and the node it
    replayed."""
    label: str
    rows: list[Violation]
    last_t: int | None
    outs: tuple
    delta: int
    node: _Node


class _Node(NamedTuple):
    """A resume point of the path DAG: the shift at which it was stepped,
    and in label order what lies below it, relative to its key.  Each entry
    is a leaf stepped below it or an edge to a node replayed there:
    (label suffix, output suffix, rows after the key as (rows, start) or
    None, last tick less the shift or None if no line ran after the key,
    then the child node and its shift less this one for an edge, or None
    and the ``_Leaf`` for a leaf)."""
    delta: int
    below: list[tuple]


def _node(delta: int, depth: int, n_outs: int, n_rows: int, last_t: int | None,
          entries: list[_Leaf | _Edge]) -> _Node:
    """The node of a resume point stepped at shift ``delta`` by a run that
    had ``depth`` outcomes, ``n_outs`` outputs and ``n_rows`` rows at its key
    and last ran a line at ``last_t``; ``entries`` are its leaves and edges."""
    below = []
    for e in entries:
        rows = (e.rows, n_rows) if len(e.rows) > n_rows else None
        t = None if e.last_t == last_t else e.last_t - delta
        tail = (e.node, e.delta - delta) if type(e) is _Edge else (None, e)
        below.append((e.label[depth:], e.outs[n_outs:], rows, t, *tail))
    return _Node(delta, below)


def _summary(label: str, cursor: fluidics.Cursor, outs: tuple) -> _Leaf:
    """The leaf of a path whose run ``cursor`` stepped to its end."""
    return _Leaf(label, cursor.rows, cursor.last_t, outs, cursor.state.mixers, cursor.finish())


def _later(mx: chip.MixerEntry, d: int) -> chip.MixerEntry:
    return chip.MixerEntry(mx.a, mx.b, mx.t_s + d, mx.t_e + d, mx.mtype)


def _write_rows(out: list[Violation], path: str | None,
                segments: list[tuple[list[Violation], int, int]]) -> None:
    """Append to ``out`` the rows of each (rows, start, d) segment from
    ``start`` on, d ticks later and tagged with ``path``: one row each, and
    a row that words a mixer's span re-words it."""
    for rows, start, d in segments:
        for v in islice(rows, start, None):
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
                     max_conditionals: int = 16) -> Report:
    """Verify every path (or the one selected by ``only``) into one report:
    a ``path L: PASS|FAIL, ends t=T`` note per path in label order, then the
    rows and notes of each path's spliced program verified alone, tagged
    with its label, and the latest final tick of any path.

    The lines a group of paths shares up to a conditional are stepped
    once: the run is forked there, and each fork goes on under one outcome.
    Each resume point the walk steps from becomes a node of a path DAG,
    which keeps its subtree once, relative to the node's shift: the leaf of
    each path stepped to its end below it (label, rows, outputs and end
    facts) and an edge to each node replayed below it.  A run that reaches
    a resume point in a node's state, up to a shift in time, goes no
    further: each path below the node is written straight into the report
    from the DAG, its rows and mixer notes shifted as they are written.

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
    t_max = root.t_max
    report = Report(t_max=t_max)
    notes: list[str] = []               # the paths' own notes, after every summary
    entries: list[_Leaf | _Edge] = []   # every leaf stepped and edge replayed
    memo: dict[tuple, _Node] = {}       # resume key -> its node

    def outputs(cursor: fluidics.Cursor, line: TimedLine) -> tuple:
        # Each output edge of the path's realized graph carries its Outputted
        # event's own cf: only a mix changes a droplet's cf, and it puts one
        # droplet on both its cells.
        return tuple(graph.round_cf(e.cf, n) for e in cursor.advance(line)
                     if isinstance(e, chip.Outputted))

    def write(label: str, rows: list, final_t: int | None, path_notes: list[str],
              outs: tuple) -> None:
        # One path: its rows, given as the segments ``_write_rows`` reads
        # (the arriving run's first, then the DAG's), its e7 output row if
        # Phase I is clean, its summary note and its own notes.
        count = len(report.violations)
        if len(rows) > 1 or rows[0][0]:
            _write_rows(report.violations, label or None, rows)
        clean = len(report.violations) == count
        if clean and want is not None:
            clean = _check_outputs(want, sorted(outs), report, label)
        ok = clean and (t_max is None or final_t is None or final_t <= t_max)
        report.notes.append(f"path {label}: {'PASS' if ok else 'FAIL'}, ends t={final_t}")
        if path_notes:
            notes.extend([f"path {label}: {n}" for n in path_notes])
        if final_t is not None and (report.final_t is None or final_t > report.final_t):
            report.final_t = final_t

    def replay(node: _Node, delta: int, label: str, rows: list, last_t: int | None,
               outs: tuple) -> None:
        # Write each path below ``node`` for a run that arrives at its key at
        # shift ``delta``.  The key holds whether the run has failed, so each
        # row keeps its secondary flag; a concentration does not change
        # under a shift.
        d = delta - node.delta
        for suffix, e_outs, after, t, child, e in node.below:
            e_label = label + suffix
            e_rows = rows if after is None else rows + [(*after, d)]
            e_last = last_t if t is None else t + delta
            if child is not None:
                replay(child, e + delta, e_label, e_rows, e_last, outs + e_outs)
                continue
            path_notes = e.end.notes
            if d and e.mixers and path_notes:
                # a run that did not stop ends its notes with one per mixer
                path_notes = path_notes[:-len(e.mixers)] + [
                    fluidics.mixer_note(_later(mx, d)) for mx in e.mixers]
            write(e_label, e_rows, None if e.end.final_t is None else e_last,
                  path_notes, outs + e_outs)

    def walk(cursor: fluidics.Cursor, idx: int, delta: int, label: str,
             outs: tuple) -> None:
        key = None
        if idx < len(main):
            key = _resume_key(main, idx, cursor, delta)
            node = memo.get(key)
            if node is not None:
                entries.append(_Edge(label, cursor.rows, cursor.last_t, outs, delta, node))
                replay(node, delta, label, [(cursor.rows, 0, 0)], cursor.last_t, outs)
                return
            first = len(entries)
            at_key = (delta, len(label), len(outs), len(cursor.rows), cursor.last_t)
        while idx < len(main) and _cond_of(main[idx]) is None:
            line = main[idx]
            outs += outputs(cursor, TimedLine(line.t + delta, line.instrs) if delta else line)
            idx += 1
        if idx == len(main):
            leaf = _summary(label, cursor, outs)
            entries.append(leaf)
            write(label, [(leaf.rows, 0, 0)], leaf.end.final_t, leaf.end.notes, outs)
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
            memo[key] = _node(*at_key, entries[first:])

    walk(root, 0, 0, "", ())
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

