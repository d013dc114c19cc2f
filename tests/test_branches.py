import random
from dataclasses import dataclass

import pytest

from dmfv import branches, chip, fluidics
from dmfv.branches import (PathLimitExceeded, _branch, _check_outputs, _cond_of,
                           _count_conditionals, _output_cfs, path_shapes, verify_all_paths)
from dmfv.diag import Code, Report, format_report
from dmfv.graph import conformance, parse_input_sg, reconstruct
from dmfv.isa import (CondCall, DmfError, Loc, Move, Program, TimedLine, ValidationError,
                      parse_program, serialize_program)

from conftest import (count_checked_lines, dedicated_map, finished_runs, load,
                      path_rows, path_verdicts, stepped_paths, without_memo)


# --- naive splicing: each path as a straight-line program (oracle) ---------------

@dataclass(frozen=True)
class PathSpec:
    outcomes: tuple[bool, ...]      # one entry per conditional, program order
    label: str                      # e.g. "10" (1 = recovery taken)
    program: Program                # spliced straight-line program


def _splice(program: Program, outcomes: tuple[bool, ...]) -> Program:
    lines: list[TimedLine] = []
    delta = 0
    cond_i = 0
    for idx, line in enumerate(program.main):
        if _cond_of(line) is None:
            lines.append(TimedLine(line.t + delta, line.instrs))
            continue
        inserted, delta = _branch(program, idx, delta, outcomes[cond_i])
        lines.extend(inserted)
        cond_i += 1
    return Program(program.header, tuple(lines), program.detectors, {}, program.t_max)


def enumerate_paths(program: Program, *, max_conditionals: int = 16) -> list[PathSpec]:
    """Every execution path of a conditional program, spliced, in label order.

    Returns 2^k specs for k conditionals; a conditional-free program yields
    the single identity path labeled with the empty string.
    """
    k = _count_conditionals(program, max_conditionals)
    if k == 0:
        return [PathSpec((), "", program)]
    paths = []
    for mask in range(1 << k):
        outcomes = tuple(bool((mask >> (k - 1 - bit)) & 1) for bit in range(k))
        label = "".join("01"[o] for o in outcomes)
        paths.append(PathSpec(outcomes, label, _splice(program, outcomes)))
    return paths


def _tagged(report: Report, label: str) -> Report:
    """``report``, its rows and notes now tagged with the path's label."""
    report.violations = [v._replace(path=label or None) for v in report.violations]
    report.notes = [f"path {label}: {n}" for n in report.notes]
    return report


def _merged(paths: list[tuple[str, Report]]) -> Report:
    """The one report of the tagged reports of ``(label, report)`` paths in
    label order, as ``dmfv verify`` prints it: a PASS/FAIL note per path,
    then every path's rows and notes, and the latest final tick of any path
    (the reference for the report that ``verify_all_paths`` writes)."""
    merged = Report()
    for _, report in paths:
        merged.violations.extend(report.violations)
        merged.notes.extend(report.notes)
        if report.final_t is not None:
            if merged.final_t is None or report.final_t > merged.final_t:
                merged.final_t = report.final_t
        merged.t_max = report.t_max
    merged.notes[:0] = [f"path {label}: {'PASS' if report.ok else 'FAIL'}, "
                        f"ends t={report.final_t}" for label, report in paths]
    return merged


def test_linear_program_single_path():
    prog = parse_program(load("twowaymix.dmf"))
    specs = enumerate_paths(prog)
    assert len(specs) == 1
    assert specs[0].program.main == prog.main


def test_recovery_program_expands_to_four_paths():
    prog = parse_program(load("recovery.dmf"))
    specs = enumerate_paths(prog)
    assert [s.label for s in specs] == ["00", "01", "10", "11"]
    ends = {s.label: s.program.main[-1].t for s in specs}
    assert ends == {"00": 35, "01": 56, "10": 48, "11": 69}
    # every spliced path is itself a valid straight-line program
    for s in specs:
        assert not s.program.has_conditionals
        reparsed = parse_program(serialize_program(s.program))
        assert reparsed.main == s.program.main


def test_all_faulty_path_keeps_written_timestamps():
    prog = parse_program(load("recovery.dmf"))
    full = next(s for s in enumerate_paths(prog) if s.label == "11")
    expected = []
    for ln in prog.main:
        if isinstance(ln.instrs[0], CondCall):
            expected.extend(prog.recoveries[ln.instrs[0].recovery])
        else:
            expected.append(ln)
    assert full.program.main == tuple(expected)


def _synthetic_conditional(k: int) -> Program:
    """k conditionals over a wandering droplet; exercises structure only."""
    text = ["dim(9,9)", "accuracy 2", "R(1,1,S) R(1,9,B)"]
    dets = " ".join(f"D(d{i},{2 + 2 * i},1,1)" for i in range(k))
    text.append(dets)
    text.append("1 d(1,1)")
    t = 1
    for i in range(k):
        t += 1
        text.append(f"{t} m([{2 * i + 1},1]->[{2 * i + 2},1])")
        t += 1
        text.append(f"{t} detect(d{i})")
        t += 1
        text.append(f"{t} if(d{i}) call Recovery({i})")
        t += 3
    text.append(f"{t} m([{2 * k + 1},1]->[{2 * k + 2},1])")
    text.append(f"{t + 1} end")
    for i in range(k):
        text.append(f"recovery {i}:")
        base = 100 * (i + 1)
        text.append(f"{base} m([{2 * i + 2},1]->[{2 * i + 2},2])")
        text.append(f"{base + 1} m([{2 * i + 2},2]->[{2 * i + 3},2])")
        text.append(f"{base + 2} m([{2 * i + 3},2]->[{2 * i + 3},1])")
        text.append("endrecovery")
    return parse_program("\n".join(text) + "\n")


def _reference_instruction_stream(prog: Program, outcomes):
    """Independent control-flow walk: which instructions fire, in order."""
    out = []
    i = 0
    for ln in prog.main:
        if len(ln.instrs) == 1 and isinstance(ln.instrs[0], CondCall):
            if outcomes[i]:
                for rl in prog.recoveries[ln.instrs[0].recovery]:
                    out.append(rl.instrs)
            i += 1
        else:
            out.append(ln.instrs)
    return out


def test_three_conditionals_eight_paths_match_reference_interpreter():
    prog = _synthetic_conditional(3)
    specs = enumerate_paths(prog)
    assert len(specs) == 8
    for spec in specs:
        assert [ln.instrs for ln in spec.program.main] == \
            _reference_instruction_stream(prog, spec.outcomes)
        ts = [ln.t for ln in spec.program.main]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)


def test_path_limit_guard():
    prog = _synthetic_conditional(3)
    with pytest.raises(PathLimitExceeded):
        enumerate_paths(prog, max_conditionals=2)
    with pytest.raises(PathLimitExceeded):
        path_shapes(prog, max_conditionals=2)


def test_nested_conditional_rejected():
    text = ("dim(5,5)\naccuracy 2\nR(1,1,S)\nD(d1,2,1,1)\n"
            "1 d(1,1)\n2 detect(d1)\n3 if(d1) call Recovery(1)\n5 end\n"
            "recovery 1:\n4 if(d1) call Recovery(1)\nendrecovery\n")
    prog = parse_program(text, validate=False)
    for expand in (enumerate_paths, path_shapes, verify_all_paths):
        with pytest.raises(ValidationError, match="NestedConditional at t=4"):
            expand(prog)


def test_path_shapes_match_spliced_paths():
    rng = random.Random(20080801)
    programs = [parse_program(load(n)) for n in ("recovery.dmf", "twowaymix.dmf")]
    programs += [_synthetic_conditional(k) for k in (1, 2, 3)]
    programs += [_random_conditional(rng, c) for c in range(6) for _ in range(5)]
    programs.append(Program(programs[0].header, ()))
    for prog in programs:
        want = [(s.label, len(s.program.main), s.program.main[-1].t if s.program.main else 0)
                for s in enumerate_paths(prog)]
        assert path_shapes(prog) == want
    assert path_shapes(programs[-1]) == [("", 0, 0)]


def test_verify_all_paths_clean_and_output_conformance():
    prog = parse_program(load("recovery.dmf"))
    input_sg = parse_input_sg(load("recovery.sg"))
    report = verify_all_paths(prog, input_sg=input_sg)
    assert path_verdicts(report) == {"00": (True, 35), "01": (True, 56), "10": (True, 48),
                                     "11": (True, 69)}
    assert report.ok and report.final_t == 69, report.violations
    # the no-fault path's graph, rebuilt from the trace of its spliced
    # program, conforms to the input graph in full
    no_fault = enumerate_paths(prog)[0]
    assert no_fault.label == "00"
    assert conformance(input_sg, reconstruct(fluidics.verify_program(no_fault.program)[0]),
                       5).ok


def test_path_independence():
    # verifying one path in isolation reproduces its slice of the full run
    prog = parse_program(load("recovery.dmf"))
    full = verify_all_paths(prog)
    for label in ("00", "01", "10", "11"):
        alone = verify_all_paths(prog, only=label)
        assert alone.violations == path_rows(full).get(label, [])
        assert alone.notes == [n for n in full.notes if n.startswith(f"path {label}: ")]
        assert alone.final_t == path_verdicts(full)[label][1]


def test_single_path_selection():
    prog = parse_program(load("recovery.dmf"))
    only = verify_all_paths(prog, only="10")
    assert list(path_verdicts(only)) == ["10"]
    with pytest.raises(DmfError):
        verify_all_paths(prog, only="777")


def test_fault_injected_into_recovery_hits_taken_paths_only():
    prog = parse_program(load("recovery.dmf"))
    rec1 = list(prog.recoveries["1"])
    patched = []
    for ln in rec1:
        if ln.t == 17:
            ln = TimedLine(17, ln.instrs + (Move(Loc(7, 6), Loc(7, 5)),))
        elif ln.t == 18:
            ln = TimedLine(18, ln.instrs + (Move(Loc(7, 5), Loc(7, 4)),))
        elif ln.t == 20:
            # lands beside the droplet awaiting the waste reservoir: static FC
            ln = TimedLine(20, ln.instrs + (Move(Loc(7, 4), Loc(7, 3)),))
        patched.append(ln)
    bad = Program(prog.header, prog.main, prog.detectors,
                  {**prog.recoveries, "1": tuple(patched)}, prog.t_max)
    report = verify_all_paths(bad)
    verdicts, rows = path_verdicts(report), path_rows(report)
    assert verdicts["00"][0] and verdicts["01"][0]
    assert rows.keys() == {"10", "11"}
    for label in ("10", "11"):
        assert not verdicts[label][0]
        vs = rows[label]
        assert vs[0].code is Code.E1 and vs[0].t == 20


# --- the depth-first walk against naive per-path replay ---------------------------

def _random_conditional(rng: random.Random, c: int, *, extras: bool = False,
                        spans: bool = False) -> Program:
    """A droplet P walks row 6 past c detector checkpoints; each recovery is a
    detour up and back, which puts the chip back as it found it.  A parked
    droplet Q sits on (2,1) and a 1x4 mixer on row 9 may still be active at
    the end.  Up to two faults land on random main or recovery lines: a move
    from an empty cell (e4), a dispense onto Q (e1) or one from a cell that
    is no reservoir (e3).

    ``extras`` adds what merging paths must tell apart.  A detection may hold
    Q from t=2 across the early conditionals, and a fault may move Q.  A
    recovery past column 2 may re-mix instead of detouring: it dilutes P, or
    mixes two fresh droplets and wastes both, so it leaves a new mix id
    behind either way.  The main line may stop at its last conditional.

    ``spans`` (without ``extras``, for c >= 1) starts the mix on the first
    main line after the first conditional, so that paths shifted apart
    share it, and keeps it active for 40-99 ticks.  It adds a fault that
    moves the mixer's droplet on (9,4), an e4 row naming the mixer's span,
    and lands one to three faults, so that rows come both before and after
    a resume point."""
    cols = 4 * c + 10
    decls = [f"dim(10,{cols})", "accuracy 2",
             f"R(6,1,S) R(2,1,B) R(9,1,S) R(9,4,B) O(6,{cols})"]
    main = [[1, ["d(6,1)", "d(2,1)", "d(9,1)", "d(9,4)"]],
            [2, [f"mix([9,1]<->[9,4],{rng.randint(40, 99) if spans else rng.randint(2, 60)},14)"]]]
    recoveries = []
    faults = ("m([3,5]->[3,6])", "d(2,1)", "d(3,3)")
    t, col = 3, 1
    if extras:
        faults += ("m([2,1]->[2,2])",)
        if rng.random() < 0.5:
            decls.append(f"D(dq,2,1,{rng.randint(8, 80)})")
            main[1][1].append("detect(dq)")
    if spans:
        faults += ("m([9,4]->[9,5])",) * 2

    def walk_to(end_col):
        nonlocal t, col
        while col < end_col:
            main.append([t, [f"m([6,{col}]->[6,{col + 1}])"]])
            t, col = t + rng.randint(1, 2), col + 1

    for i in range(c):
        walk_to(col + rng.randint(1, 3))
        dur = rng.randint(1, 3)
        decls.append(f"D(d{i},6,{col},{dur})")
        main.append([t, [f"detect(d{i})"]])
        t += dur
        main.append([t, [f"if(d{i}) call Recovery({i})"]])
        t += rng.randint(1, 3)
        kind = "detour"
        if extras and col >= 3 and rng.random() < 0.4:
            # the cells a side mix declares stay clear of the next recovery's
            kind = "side" if i % 2 == 0 and rng.random() < 0.5 else "dilute"
        if kind == "dilute":
            tm, bt = rng.randint(1, 3), rng.randint(0, 300)
            decls.append(f"R(3,{col},B) W(2,{col})")
            block = [[bt, [f"d(3,{col})"]], [bt + 1, [f"mix([3,{col}]<->[6,{col}],{tm},41)"]],
                     [bt + tm + 3, [f"m([3,{col}]->[2,{col}])"]],
                     [bt + tm + 4, [f"waste(2,{col})"]]]
        elif kind == "side":
            tm, bt, nxt = rng.randint(1, 3), rng.randint(0, 300), col + 1
            decls.append(f"R(1,{col},S) R(4,{col},B) W(1,{nxt}) W(4,{nxt})")
            block = [[bt, [f"d(1,{col})", f"d(4,{col})"]],
                     [bt + 1, [f"mix([1,{col}]<->[4,{col}],{tm},41)"]],
                     [bt + tm + 3, [f"m([1,{col}]->[1,{nxt}])", f"m([4,{col}]->[4,{nxt}])"]],
                     [bt + tm + 4, [f"waste(1,{nxt})", f"waste(4,{nxt})"]]]
        else:
            trip = [(6 - j, col) for j in range(rng.randint(1, 2) + 1)]
            trip += trip[-2::-1]
            bt, block = rng.randint(0, 300), []
            for (r1, c1), (r2, c2) in zip(trip, trip[1:]):
                block.append([bt, [f"m([{r1},{c1}]->[{r2},{c2}])"]])
                bt += rng.randint(1, 2)
        recoveries.append(block)
    if not (extras and c and rng.random() < 0.3):
        walk_to(cols)
        main.append([t, [f"output(6,{cols})"]])
        if rng.random() < 0.8:
            main.append([t + 1, ["end"]])
    if spans:
        mix = main.pop(1)[1]
        first = next(i for i, ln in enumerate(main) if ln[1][0].startswith("if("))
        main[first + 1][1] += mix
    targets = [ln for ln in main[:-1] if not ln[1][0].startswith("if(")]
    targets += [ln for block in recoveries for ln in block]
    for _ in range(rng.choice((1, 2, 3) if spans else (0, 1, 1, 2))):
        rng.choice(targets)[1].append(rng.choice(faults))
    text = decls + [f"{t} {' '.join(ins)}" for t, ins in main]
    for i, block in enumerate(recoveries):
        text += [f"recovery {i}:"] + [f"{t} {' '.join(ins)}" for t, ins in block]
        text.append("endrecovery")
    return parse_program("\n".join(text) + "\n")


def _graph_outputs(program, events, input_sg, report, label):
    """The sorted output concentrations of the graph that a clean path's
    ``events`` realize, checked against ``input_sg`` as the walk checks
    them; None where the walk checks nothing."""
    if any(v.phase == 1 for v in report.violations):
        return None
    n = program.header.accuracy
    # every clean path's events make a graph
    got = _output_cfs(reconstruct(fluidics.Trace(program.header.reagents, events)), n)
    if input_sg is None:
        return None
    _check_outputs(_output_cfs(input_sg, n), got, report, label)
    return got


def _naive_paths(program, *, pin_map=None, input_sg=None, policy="first", t_max=None):
    """Verify each spliced path on its own, as verify_all_paths once did: the
    outputs are read off the path's realized graph.  Each path also keeps
    its events, last."""
    out = []
    for spec in enumerate_paths(program):
        (trace, report), [final] = finished_runs(
            fluidics.verify_program, spec.program, pin_map=pin_map, policy=policy,
            t_max=t_max)
        report = _tagged(report, spec.label)
        outs = _graph_outputs(program, trace.events, input_sg, report, spec.label)
        out.append((spec.label, report, outs, final, trace.events))
    return out


def _unmerged_paths(program, *, pin_map=None, input_sg=None, policy="first", t_max=None):
    """The depth-first walk that forks at each conditional and never merges:
    every path steps its own suffix after its last conditional, and keeps
    its own events, from which its outputs are read (oracle).  Returns what
    ``_walked`` returns."""
    _count_conditionals(program, 16)
    paths, outputs, finals = [], {}, {}

    def emit(label, cursor, events):
        report = _tagged(cursor.finish(), label)
        outs = _graph_outputs(program, events, input_sg, report, label)
        paths.append((label, report))
        if outs is not None:
            outputs[label] = outs
        finals[label] = None if cursor.stopped else cursor.state

    def walk(cursor, idx, delta, label, events):
        main = program.main
        while idx < len(main) and _cond_of(main[idx]) is None:
            line = main[idx]
            events = events + cursor.advance(
                TimedLine(line.t + delta, line.instrs) if delta else line)
            idx += 1
        if idx == len(main):
            emit(label, cursor, events)
            return
        for taken in (False, True):
            child = cursor.fork() if not taken else cursor
            inserted, child_delta = _branch(program, idx, delta, taken)
            child_events = events + [e for line in inserted for e in child.advance(line)]
            walk(child, idx + 1, child_delta, label + "01"[taken], child_events)

    walk(fluidics.Cursor(program, pin_map=pin_map, policy=policy, t_max=t_max), 0, 0, "", [])
    return _merged(paths), outputs, finals


def _walked(program, **kw):
    """verify_all_paths' report, and by label the outputs and final state of
    its paths: the state is caught as the walk summarises each path it
    steps to its end (a path replayed from another's summary has none), and
    the outputs as the walk hands a clean path's sorted output
    concentrations to ``_check_outputs`` (a path it does not check has
    none)."""
    outputs = {}
    check = branches._check_outputs

    def caught(want, got, report, label):
        outputs[label] = list(got)
        return check(want, got, report, label)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(branches, "_check_outputs", caught)
        report, finals = stepped_paths(verify_all_paths, program, **kw)
    return report, outputs, finals


def _final(state):
    if state is None:
        return state
    return (state.t, state.by_loc, state.mixers, state.detections)


def _as_walked(naive) -> tuple:
    """Naive paths as ``_walked`` returns a walk: the merged report, and by
    label the outputs of each path checked and the final state of each."""
    return (_merged([(label, report) for label, report, *_ in naive]),
            {label: outs for label, _, outs, *_ in naive if outs is not None},
            {label: final for label, _, _, final, _ in naive})


def _naive(program, **kw) -> tuple:
    return _as_walked(_naive_paths(program, **kw))


def _assert_same(walked, want) -> int:
    """The same report, text and JSON, the same delivered output multiset on
    each path, and the same final state on every path the walk stepped; a
    naive path's trailing events are not compared.  Returns the number of
    walked paths that were replayed."""
    (report, outputs, finals), (want_report, want_outputs, want_finals) = walked, want
    for fmt in ("json", "text"):
        assert format_report(report, fmt) == format_report(want_report, fmt)
    assert outputs == want_outputs
    assert finals.keys() <= want_finals.keys()
    for label, final in finals.items():
        assert _final(final) == _final(want_finals[label]), label
    return len(path_verdicts(report)) - len(finals)


_OUT_S = "reagents S B\nnode S dispense S\nnode O output\nedge S O\n"
_OUT_SB = ("reagents S B\nnode S dispense S\nnode B dispense B\nnode M mix 1\n"
           "node O output\nedge S M\nedge B M\nedge M O\n")


def _random_corpus():
    """The random conditional corpus: 60 programs, each with the keywords of
    its four runs (no pin map or a shared one, policy first or all)."""
    rng = random.Random(20080801)
    for extras in (False, True):
        for c in range(6):
            for _ in range(5):
                prog = _random_conditional(rng, c, extras=extras)
                rows, cols = prog.header.rows, prog.header.cols
                shared = dedicated_map(rows, cols).with_remap(
                    {Loc(rng.randint(4, 7), rng.randint(1, cols)): rng.randint(1, 6)
                     for _ in range(3)})
                input_sg = parse_input_sg(rng.choice((_OUT_S, _OUT_SB)))
                t_max = rng.choice((None, 20, 40))
                yield prog, [dict(pin_map=pin_map, input_sg=input_sg, policy=policy,
                                  t_max=t_max)
                             for pin_map in (None, shared) for policy in ("first", "all")]


def test_walk_matches_naive_replay_on_random_programs(monkeypatch):
    # the merged walk, the unmerged walk and naive replay agree path by path
    calls = []
    step = fluidics.step
    monkeypatch.setattr(fluidics, "step", lambda *a, **kw: calls.append(1) or step(*a, **kw))
    steps = {"merged": 0, "unmerged": 0}
    seen, kinds, replayed = set(), set(), 0
    for prog, runs in _random_corpus():
        if _cond_of(prog.main[-1]) is not None:
            kinds.add("ends on a conditional")
        for kw in runs:
            pin_map, policy = kw["pin_map"], kw["policy"]
            naive = _naive_paths(prog, **kw)
            for name, walk in (("merged", _walked), ("unmerged", _unmerged_paths)):
                calls.clear()
                replayed += _assert_same(walk(prog, **kw), _as_walked(naive))
                steps[name] += len(calls)
            for i, x in enumerate(naive):
                _assert_same(_walked(prog, only=x[0], **kw), _as_walked(naive[i:i + 1]))
            for _, report, _, _, events in naive:
                # rows after the first failing tick are marked secondary
                rows = [v for v in report.violations if v.t is not None]
                assert all(v.secondary == (v.t > rows[0].t) for v in rows)
                seen.update((policy, pin_map is None, v.code, v.secondary)
                            for v in report.violations)
                kinds.update({3: "dilutes P", 1: "side mix"}.get(e.a.row)
                             for e in events if isinstance(e, chip.MixCompleted))
                kinds.update("Q held" for v in report.violations if v.response
                             == "Droplet on (2,1) is under detection")
    # the corpus reaches each kind of row under both policies and both modes
    codes = {code for _, _, code, _ in seen}
    assert {Code.E1, Code.E3, Code.E4, Code.E7} <= codes
    assert any(code.name.startswith("PIN") for code in codes), codes
    assert {(p, m, True) for p, m, _, s in seen if s} == {("all", True, True),
                                                            ("all", False, True)}
    assert {"dilutes P", "side mix", "Q held", "ends on a conditional"} <= kinds, kinds
    assert steps["merged"] < steps["unmerged"], steps
    assert replayed >= 100, replayed


# Recovery 0 leaves a droplet on (1,1) that recovery 1 moves next to, so
# only path 11 fails: under policy "first" it stops with no final tick, and
# the latest final tick, path 01's, is not that of the last path with one.
_LAST_STOPS = """dim(5,8)
accuracy 2
R(3,1,S) R(1,1,B)
D(d0,3,2,1) D(d1,3,2,1)
1 d(3,1)
2 m([3,1]->[3,2])
3 detect(d0)
4 if(d0) call Recovery(0)
5 detect(d1)
6 if(d1) call Recovery(1)
7 m([3,2]->[3,3])
8 end
recovery 0:
100 d(1,1)
endrecovery
recovery 1:
200 m([3,2]->[2,2])
201 m([2,2]->[2,3])
202 m([2,3]->[3,3])
203 m([3,3]->[3,2])
endrecovery
"""


def test_whole_reports_match_with_a_tmax_between_the_paths():
    # the corpus once more with each program's input graph and a t_max at
    # the median of its paths' final ticks, under both policies: the merged
    # report holds PASS and FAIL summaries side by side, e7 rows of some
    # paths among the rows of others, and the tmax row
    cases = set()
    for prog, runs in _random_corpus():
        finals = sorted(t for _, _, t in path_shapes(prog))
        t_max = finals[len(finals) // 2]
        for policy in ("first", "all"):
            kw = dict(input_sg=runs[0]["input_sg"], policy=policy, t_max=t_max)
            walked = _walked(prog, **kw)
            _assert_same(walked, _naive(prog, **kw))
            report = walked[0]
            ticks = [t for _, t in path_verdicts(report).values()]
            if report.tmax_exceeded and any(t is not None and t <= t_max for t in ticks):
                cases.add(("tmax row, some paths within", policy))
            if any(v.code is Code.E7 for v in report.violations):
                cases.add(("e7", policy))
    assert cases == {("tmax row, some paths within", "first"),
                     ("tmax row, some paths within", "all"), ("e7", "first"), ("e7", "all")}
    # the report's final tick is the latest of any path, not the last one's
    prog = parse_program(_LAST_STOPS)
    for policy, t11, final_t in (("first", None, 12), ("all", 13, 13)):
        walked = _walked(prog, policy=policy)
        _assert_same(walked, _naive(prog, policy=policy))
        assert path_verdicts(walked[0]) == {"00": (True, 8), "01": (True, 12),
                                            "10": (True, 9), "11": (False, t11)}
        assert walked[0].final_t == final_t


def _replay_cases(program, policy, **kw) -> set:
    """What the walk's replays of ``program`` exercise, caught by wrapping
    ``_write_rows``, which writes each path's rows as segments, each at its
    shift d: the segments before the first one at d != 0 are the rows of
    the run that arrives, the rest those replayed from the path DAG.  The
    cases: rows replayed at d != 0, under the policy; replayed rows after
    rows of the path that arrives (which must all be secondary); a row
    naming a mixer's span replayed at d != 0; a path replayed that stopped
    at its first failing tick."""
    written = []
    write = branches._write_rows

    def caught(out, path, segments):
        written.append((path or "", segments))
        return write(out, path, segments)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(branches, "_write_rows", caught)
        report, finals = stepped_paths(verify_all_paths, program, policy=policy, **kw)
    verdicts = path_verdicts(report)
    cases = set()
    for label, segments in written:
        if label in finals:
            continue
        first = next((i for i, (_, d) in enumerate(segments) if d), len(segments))
        arrived = [v for vs, _ in segments[:first] for v in vs]
        rows = [(v, d) for vs, d in segments[first:] for v in vs]
        if any(d for _, d in rows):
            cases.add(("d != 0", policy))
        if rows and arrived:
            assert all(v.secondary for v, _ in rows), label
            cases.add("after prior rows")
        if any(v.mixer is not None and d for v, d in rows):
            cases.add("mixer span, d != 0")
        if verdicts[label] == (False, None):
            cases.add("stopped")
    return cases


def test_replayed_rows_match_naive_replay():
    # a corpus of its own RNG, with faults on either side of the resume
    # points, some on the active mixer: every replay case occurs, and each
    # replayed path gets its spliced program's report
    rng = random.Random(1013)
    cases, replayed = set(), 0
    for c in range(1, 6):
        for _ in range(8):
            prog = _random_conditional(rng, c, spans=True)
            for policy in ("first", "all"):
                replayed += _assert_same(_walked(prog, policy=policy),
                                         _naive(prog, policy=policy))
                cases |= _replay_cases(prog, policy)
    assert cases == {("d != 0", "first"), ("d != 0", "all"), "after prior rows",
                     "mixer span, d != 0", "stopped"}, cases
    assert replayed >= 100, replayed


def test_walk_with_memo_matches_plain_step(monkeypatch):
    # forks share the step memo, so paths reuse each other's clean verdicts;
    # each path must get what the plain step, checking every line, gives it
    checked = count_checked_lines(monkeypatch)
    served = replayed = 0
    for prog, runs in _random_corpus():
        for kw in runs:
            checked[0] = 0
            walked = _walked(prog, **kw)
            with_memo = checked[0]
            plain = without_memo(_walked, prog, **kw)
            served += checked[0] - 2 * with_memo     # the plain walk checks every line
            replayed += _assert_same(walked, plain)
    assert served >= 100, served
    assert replayed >= 100, replayed


def test_walk_steps_each_shared_prefix_once(monkeypatch):
    prog = parse_program(load("recovery.dmf"))
    specs = enumerate_paths(prog)
    prefixes = {spec.program.main[:i + 1] for spec in specs
                for i in range(len(spec.program.main))}
    naive_steps = sum(len(spec.program.main) for spec in specs)
    calls = []
    step = fluidics.step
    monkeypatch.setattr(fluidics, "step", lambda *a, **kw: calls.append(1) or step(*a, **kw))
    assert verify_all_paths(prog).ok
    assert len(calls) == len(prefixes) < naive_steps


# Path 10 reaches t=10 (written) with Q still under detection; path 01, which
# is stepped first, reaches it with Q free in an otherwise equal state.
_HELD_Q = """dim(4,10)
accuracy 2
R(3,1,S) R(1,10,B)
D(d0,3,3,1) D(d1,3,5,1) D(dq,1,10,11)
1 d(3,1) d(1,10)
2 m([3,1]->[3,2]) detect(dq)
3 m([3,2]->[3,3])
4 detect(d0)
5 if(d0) call Recovery(0)
6 m([3,3]->[3,4])
7 m([3,4]->[3,5])
8 detect(d1)
9 if(d1) call Recovery(1)
10 m([1,10]->[2,10])
11 end
recovery 0:
100 m([3,3]->[2,3])
101 m([2,3]->[3,3])
endrecovery
recovery 1:
200 m([3,5]->[2,5])
201 m([2,5]->[1,5])
202 m([1,5]->[2,5])
203 m([2,5]->[3,5])
endrecovery
"""

# The main line ends on two conditionals: paths 00 and 10 step no line after
# the first one, so their last tick is their own, not a shifted one.
_TWO_LAST = """dim(4,6)
accuracy 2
R(3,1,S)
D(d0,3,2,1) D(d1,3,2,1)
1 d(3,1)
2 m([3,1]->[3,2])
3 detect(d0)
4 if(d0) call Recovery(0)
5 if(d1) call Recovery(1)
recovery 0:
100 m([3,2]->[2,2])
101 m([2,2]->[3,2])
endrecovery
recovery 1:
200 m([3,2]->[3,3])
endrecovery
"""


# A droplet is output before the conditional, whose recovery puts the chip
# back as it found it: path 1 replays path 0's suffix, and the chip state at
# the merge no longer shows the first output.
_OUTPUT_FIRST = """dim(4,6)
accuracy 2
R(3,1,S) O(3,6)
D(d0,3,3,1)
1 d(3,1)
2 m([3,1]->[3,2])
3 m([3,2]->[3,3])
4 m([3,3]->[3,4])
5 m([3,4]->[3,5])
6 m([3,5]->[3,6])
7 output(3,6)
8 d(3,1)
9 m([3,1]->[3,2])
10 m([3,2]->[3,3])
11 detect(d0)
12 if(d0) call Recovery(0)
13 m([3,3]->[3,4])
14 m([3,4]->[3,5])
15 m([3,5]->[3,6])
16 output(3,6)
17 end
recovery 0:
100 m([3,3]->[2,3])
101 m([2,3]->[3,3])
endrecovery
"""
_TWO_S = "reagents S\nnode S dispense S\nnode O output\nedge S O\nedge S O\n"


def test_merges_keep_what_the_shared_state_hides(monkeypatch):
    held, two = parse_program(_HELD_Q), parse_program(_TWO_LAST)
    replayed = 0
    for policy in ("first", "all"):
        for prog in (held, two):
            replayed += _assert_same(_walked(prog, policy=policy),
                                     _naive(prog, policy=policy))
    assert [label for label, (ok, _) in path_verdicts(verify_all_paths(held)).items()
            if not ok] == ["00", "10"]
    assert [t for _, t in path_verdicts(verify_all_paths(two)).values()] == [3, 6, 6, 8]
    first = parse_program(_OUTPUT_FIRST)
    for sg, ok in ((_TWO_S, True), (_TWO_S.replace("edge S O\n", "", 1), False)):
        input_sg = parse_input_sg(sg)
        walked = _walked(first, input_sg=input_sg)
        replayed += _assert_same(walked, _naive(first, input_sg=input_sg))
        assert [passed for passed, _ in path_verdicts(walked[0]).values()] == [ok, ok]
    assert replayed >= 6, replayed
    # path 1 replays the five lines after the merge, which path 0 stepped
    calls = []
    step = fluidics.step
    monkeypatch.setattr(fluidics, "step", lambda *a, **kw: calls.append(1) or step(*a, **kw))
    verify_all_paths(first)
    assert len(calls) == len(first.main) - 1 + 2


# Each path outputs a 1:3 mix, finer than the accuracy, and then pure B:
# the graph's output multiset is rounded and sorted, not in output order.
_TWO_OUTPUTS = """dim(5,4)
accuracy 1
R(1,1,S) R(1,4,B) O(5,1) W(5,4)
D(d1,4,1,1)
1 d(1,1) d(1,4)
2 m([1,1]->[2,1]) m([1,4]->[2,4])
3 m([2,1]->[3,1]) m([2,4]->[3,4])
4 d(1,4) mix([3,1]<->[3,4],12,14)
17 m([3,4]->[4,4])
18 m([1,4]->[2,4]) m([4,4]->[5,4])
19 m([2,4]->[3,4]) waste(5,4)
20 mix([3,1]<->[3,4],12,14)
33 m([3,1]->[4,1]) m([3,4]->[4,4])
34 detect(d1) m([4,4]->[5,4])
35 waste(5,4)
36 if(d1) call Recovery(1)
37 m([4,1]->[5,1])
38 output(5,1)
39 d(1,4)
40 m([1,4]->[2,4])
41 m([2,4]->[3,4])
42 m([3,4]->[4,4])
43 m([4,4]->[4,3])
44 m([4,3]->[4,2])
45 m([4,2]->[4,1])
46 m([4,1]->[5,1])
47 output(5,1)
48 end
recovery 1:
100 m([4,1]->[4,2])
101 m([4,2]->[4,1])
endrecovery
"""
_TWO_OUTPUTS_SG = """reagents S B
node S dispense S
node B dispense B
node M1 mix 12
node M2 mix 12
node W waste
node O output
edge S M1
edge B M1
edge M1 W
edge M1 M2
edge B M2
edge M2 W
edge M2 O
edge B O
"""


def test_path_outputs_match_the_realized_graph():
    prog = parse_program(_TWO_OUTPUTS)
    for sg, ok in ((_TWO_OUTPUTS_SG, True), (_TWO_OUTPUTS_SG.replace("edge B O\n", ""), False)):
        input_sg = parse_input_sg(sg)
        walked = _walked(prog, input_sg=input_sg)
        assert _assert_same(walked, _naive(prog, input_sg=input_sg)) == 1
        assert [passed for passed, _ in path_verdicts(walked[0]).values()] == [ok, ok]


def _detour_chain(c: int, *, fault: bool = False) -> Program:
    """A droplet walks row 3 past c checkpoints; each recovery is a detour up
    and back, so every path resumes the main line in the same chip state.
    ``fault`` adds a dispense from (1,1), which is no reservoir (e3), to the
    first main line after the last conditional."""
    cols = 2 * c + 3
    dets = " ".join(f"D(d{i},3,{2 * i + 3},1)" for i in range(c))
    text = [f"dim(4,{cols})", "accuracy 2", f"R(3,1,S) O(3,{cols})", dets, "1 d(3,1)"]
    recoveries = []
    t, col = 2, 1
    for i in range(c):
        for _ in range(2):
            text.append(f"{t} m([3,{col}]->[3,{col + 1}])")
            t, col = t + 1, col + 1
        text += [f"{t} detect(d{i})", f"{t + 1} if(d{i}) call Recovery({i})"]
        t += 2
        recoveries += [f"recovery {i}:", f"{100 * i} m([3,{col}]->[2,{col}])",
                       f"{100 * i + 1} m([2,{col}]->[3,{col}])", "endrecovery"]
    text += [f"{t} m([3,{col}]->[3,{col + 1}])" + " d(1,1)" * fault,
             f"{t + 1} m([3,{col + 1}]->[3,{col + 2}])",
             f"{t + 2} output(3,{cols})", f"{t + 3} end"]
    return parse_program("\n".join(text + recoveries) + "\n")


def test_steps_grow_linearly_in_conditionals_when_recoveries_restore(monkeypatch):
    calls = []
    step = fluidics.step
    monkeypatch.setattr(fluidics, "step", lambda *a, **kw: calls.append(1) or step(*a, **kw))
    for c in range(4, 11):
        prog = _detour_chain(c)
        calls.clear()
        verdicts = path_verdicts(verify_all_paths(prog))
        assert len(verdicts) == 2 ** c and all(ok for ok, _ in verdicts.values())
        assert {t for _, t in verdicts.values()} == {
            prog.main[-1].t + 2 * k for k in range(c + 1)}
        # each of the 3c + 5 main and 2c recovery lines is stepped once
        assert len(calls) <= 5 * c + 5, (c, len(calls))


def test_steps_grow_linearly_in_conditionals_when_every_path_fails(monkeypatch):
    # the fault after the last conditional fails all 2^c paths, each at its
    # own shift of the faulty line; the first path to reach a resume point
    # steps its subtree, rows included, and the others replay it
    calls = []
    step = fluidics.step
    monkeypatch.setattr(fluidics, "step", lambda *a, **kw: calls.append(1) or step(*a, **kw))
    for c in range(4, 11):
        prog = _detour_chain(c, fault=True)
        fault_t = prog.main[-4].t
        for policy in ("first", "all"):
            calls.clear()
            rows = path_rows(verify_all_paths(prog, policy=policy))
            assert len(rows) == 2 ** c
            assert all([v.code for v in vs] == [Code.E3] for vs in rows.values())
            assert {vs[0].t for vs in rows.values()} == {
                fault_t + 2 * k for k in range(c + 1)}
            assert len(calls) <= 5 * c + 5, (c, policy, len(calls))


def test_replays_write_each_path_from_the_dag(monkeypatch):
    # on the detour chain every path but the first is written from the path
    # DAG: a run's end facts (the report ``fluidics`` builds of a run's end)
    # are built once per path stepped to its end, not once per path, and
    # each row written is the one row built for it
    ends, built = [], []
    end, violation = fluidics.Report, branches.Violation
    monkeypatch.setattr(fluidics, "Report", lambda *a, **kw: ends.append(1) or end(*a, **kw))
    monkeypatch.setattr(branches, "Violation",
                        lambda *a, **kw: built.append(1) or violation(*a, **kw))
    for c in range(4, 11):
        for fault in (False, True):
            prog = _detour_chain(c, fault=fault)
            for policy in ("first", "all"):
                ends.clear()
                built.clear()
                report = verify_all_paths(prog, policy=policy)
                assert len(path_verdicts(report)) == 2 ** c
                assert len(ends) <= 5 * c + 5, (c, fault, policy, len(ends))
                assert len(built) == len(report.violations) == fault * 2 ** c, (c, policy)
