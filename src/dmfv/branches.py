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
to a shift in time, share their stepped suffix as well: a recovery that
puts the chip back as it found it leaves its path one shift away from the
path that skipped it.  The first path to reach such a state steps what
follows, and the others replay its clean leaves shifted in time, so
stepping costs distinct resume states times lines, not paths times lines.
``path_shapes`` walks the same tree without stepping, for ``dmfv paths``.
Each path's report is the one its spliced straight-line program gets when
verified alone.  A path keeps its report and its outputs, no event log.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass
class PathReport:
    label: str          # one outcome per conditional: "1" where its recovery runs
    report: Report


def _tagged(report: Report, label: str) -> Report:
    return Report([replace(v, path=label or None) for v in report.violations],
                  final_t=report.final_t, t_max=report.t_max,
                  notes=[f"path {label}: {n}" for n in report.notes])


def _resume_key(main: tuple[TimedLine, ...], idx: int, cursor: fluidics.Cursor,
                delta: int) -> tuple:
    """What the rest of the walk from ``main[idx]`` depends on, with time
    measured from the walk's shift ``delta``: the chip state, less its tick
    (the next line advanced overwrites it) and less the detections over by
    ``main[idx]``'s tick (no line advances earlier, and its ``expire`` drops
    them before any check).

    The cursor's flags need no place: an end marker is never advanced
    before a resume point, a stopped cursor is not looked up, and only a
    subtree without new rows, which no earlier row can change, is kept.
    """
    rel = chip.expire_detections(cursor.state.shifted(-delta), main[idx].t)
    return idx, frozenset(rel.by_loc.items()), rel.mixers, rel.detections, rel.next_node


def verify_all_paths(program: Program, *, pin_map=None, input_sg=None,
                     policy: str = "first", t_max: int | None = None,
                     only: str | None = None,
                     max_conditionals: int = 16) -> list[PathReport]:
    """Verify every path (or the one selected by ``only``), in label order.

    Each path's report equals that of its spliced program verified alone,
    but the lines a group of paths shares up to a conditional are stepped
    once: the run is forked there, and each fork goes on under one outcome.
    Paths that reach a resume point in the same chip state, up to a shift
    in time, also share what follows: the first one steps it, and the
    others replay its clean leaves shifted in time.

    When an input graph is supplied (annotated, as ``graph.parse_input_sg``
    returns it), each clean path is additionally required to deliver the
    same multiset of output concentrations the input graph specifies;
    recovery detours must re-produce the same mixture: the walk carries each
    path's output concentrations, rounded once as their lines are stepped,
    and builds no graph.  A path yields its report and nothing else.
    """
    k = _count_conditionals(program, max_conditionals)
    if only is not None and (len(only) != k or not set(only) <= {"0", "1"}):
        raise DmfError(f"no path labeled {only!r}")
    n = program.header.accuracy
    want = None if input_sg is None else _output_cfs(input_sg, n)
    main = program.main
    out: list[PathReport] = []
    # (label, cursor, rounded output concentrations) of each path emitted
    leaves: list[tuple[str, fluidics.Cursor, tuple]] = []
    # resume key -> (delta, label length, output count and last_t at the key,
    #                the leaves below it)
    memo: dict[tuple, tuple[int, int, int, int | None, list]] = {}

    def outputs(cursor: fluidics.Cursor, line: TimedLine) -> tuple:
        # Each output edge of the path's realized graph carries its Outputted
        # event's own cf: only a mix changes a droplet's cf, and it puts one
        # droplet on both its cells.
        return tuple(graph.round_cf(e.cf, n) for e in cursor.advance(line)
                     if isinstance(e, chip.Outputted))

    def emit(label: str, cursor: fluidics.Cursor, outs: tuple) -> None:
        leaves.append((label, cursor, outs))
        report = _tagged(cursor.finish(), label)
        if want is not None and not any(v.phase == 1 for v in report.violations):
            _check_outputs(want, sorted(outs), report, label)
        out.append(PathReport(label, report))

    def replay(cursor: fluidics.Cursor, delta: int, label: str, outs: tuple,
               stored: tuple) -> None:
        delta0, depth, n_outs, last_t, below = stored
        d = delta - delta0
        for i, (leaf_label, leaf, leaf_outs) in enumerate(below):
            child = cursor if i == len(below) - 1 else cursor.fork()
            if leaf.last_t != last_t:   # the leaf stepped lines after the key
                child.state = leaf.state.shifted(d)
                child.last_t, child.ended = leaf.last_t + d, leaf.ended
            # a concentration does not change under a shift in time
            emit(label + leaf_label[depth:], child, outs + leaf_outs[n_outs:])

    def walk(cursor: fluidics.Cursor, idx: int, delta: int, label: str,
             outs: tuple) -> None:
        key = None
        if idx < len(main) and not cursor.stopped:
            key = _resume_key(main, idx, cursor, delta)
            if key in memo:
                replay(cursor, delta, label, outs, memo[key])
                return
            first, rows = len(leaves), len(cursor.report.violations)
            stored = (delta, len(label), len(outs), cursor.last_t)
        while idx < len(main) and _cond_of(main[idx]) is None:
            line = main[idx]
            outs += outputs(cursor, TimedLine(line.t + delta, line.instrs) if delta else line)
            idx += 1
        if idx == len(main):
            emit(label, cursor, outs)
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
        # rows carry absolute ticks, so only a subtree without new rows is kept
        if key is not None and all(len(leaf.report.violations) == rows
                                   for _, leaf, _ in leaves[first:]):
            memo[key] = stored + (leaves[first:],)

    walk(fluidics.Cursor(program, pin_map=pin_map, policy=policy, t_max=t_max), 0, 0, "", ())
    return out


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


def merge_reports(path_reports: list[PathReport]) -> Report:
    merged = Report()
    for pr in path_reports:
        merged.violations.extend(pr.report.violations)
        merged.notes.extend(pr.report.notes)
        if pr.report.final_t is not None:
            if merged.final_t is None or pr.report.final_t > merged.final_t:
                merged.final_t = pr.report.final_t
        merged.t_max = pr.report.t_max
    return merged
