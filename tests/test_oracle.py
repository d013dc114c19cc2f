"""Equivalence of every constraint check against a naive formula evaluator.

The oracle builds each rule as an explicit list of (cell, wanted-occupancy)
literals straight from its definition and evaluates the conjunction by table
lookup; the production checks must agree verdict for verdict on randomly
occupied grids, valid or not.
"""

import random

import pytest

from dmfv import fluidics, isa
from dmfv.chip import MixerEntry, init_state
from dmfv.cli import main
from dmfv.diag import Code, Violation
from dmfv.fluidics import RULES, LineContext, mixer_geometry_ok, move_conflicts
from dmfv.graph import CFVector
from dmfv.isa import (ChipHeader, Dispense, Loc, MixStart, Move, MType, ReservoirDecl,
                      RKind, TimedLine, parse_program)

from conftest import load, mutant, with_droplet
from test_cli import _DMF_FIXTURES, _fixture_verify_argvs


def check(state, instr, line=None):
    """The rule-table check of ``instr`` on ``state``, as the instruction at
    its position on ``line`` (default: a line of its own at the next tick)."""
    line = line or TimedLine(state.t + 1, (instr,))
    return RULES[type(instr)].check(state, instr, line.instrs.index(instr),
                                    LineContext(state, line))


def separation_partners(state, loc):
    """The droplets the separation check pairs with the one on loc."""
    rows = fluidics._post_checks(state, TimedLine(state.t, ()), {}, state.t)
    return sorted(c for v in rows if loc in v.cells for c in v.cells if c != loc)


def static_fc(state, loc):
    """The static rule at loc as the engine applies it: a droplet sits there
    and the separation check pairs it with no other."""
    return loc in state.by_loc and not separation_partners(state, loc)


def neighbors8(loc, rows, cols):
    """The cells of the 3x3 block around loc, less loc, on a rows x cols array."""
    r, c = loc
    cand = [Loc(r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)]
    return {p for p in cand if 1 <= p.row <= rows and 1 <= p.col <= cols}


def eval_conj(literals, occupied):
    return all((cell in occupied) == want for cell, want in literals)


def sfc_formula(loc, rows, cols):
    return [(loc, True)] + [(n, False) for n in neighbors8(loc, rows, cols)]


def dispense_formula(loc, rows, cols):
    return [(loc, False)] + [(n, False) for n in neighbors8(loc, rows, cols)]


def mixer_formula(a, b, rows, cols):
    return sfc_formula(a, rows, cols) + sfc_formula(b, rows, cols)


def move_clearance_cells(src: Loc, dst: Loc) -> tuple[Loc, ...]:
    """The three cells beyond the destination checked by the dynamic rule,
    written out for each direction; cells off the array included."""
    dr, dc = dst.row - src.row, dst.col - src.col
    r, c = dst.row, dst.col
    if dc == 1:    # right
        return (Loc(r - 1, c + 1), Loc(r, c + 1), Loc(r + 1, c + 1))
    if dc == -1:   # left
        return (Loc(r - 1, c - 1), Loc(r, c - 1), Loc(r + 1, c - 1))
    if dr == 1:    # down
        return (Loc(r + 1, c - 1), Loc(r + 1, c), Loc(r + 1, c + 1))
    return (Loc(r - 1, c - 1), Loc(r - 1, c), Loc(r - 1, c + 1))  # up


def move_formula(src, dst, rows, cols):
    lits = [(src, True)]
    for c in move_clearance_cells(src, dst):
        if 1 <= c.row <= rows and 1 <= c.col <= cols:
            lits.append((c, False))
    return lits


def random_state(rng, *, reservoir_at=None):
    rows, cols = rng.randrange(2, 9), rng.randrange(2, 9)
    res = ()
    if reservoir_at is not None:
        loc = Loc(rng.randrange(1, rows + 1), rng.randrange(1, cols + 1))
        res = (ReservoirDecl(loc, RKind.REAGENT, "S"),)
    st = init_state(ChipHeader(rows, cols, 5, res))
    occupied = set()
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if rng.random() < 0.18:
                occupied.add(Loc(r, c))
    for i, loc in enumerate(sorted(occupied)):
        st = with_droplet(st, f"n{i}", loc, CFVector.unit("S"))
    return st, occupied


def run_oracle_equivalence(samples: int, seed: int = 90125) -> int:
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        st, occ = random_state(rng, reservoir_at=True)
        rows, cols = st.header.rows, st.header.cols
        loc = Loc(rng.randrange(1, rows + 1), rng.randrange(1, cols + 1))

        assert static_fc(st, loc) == eval_conj(sfc_formula(loc, rows, cols), occ)

        res_loc = next(iter(st.reservoirs))
        ok = check(st, Dispense(res_loc)) is None
        assert ok == eval_conj(dispense_formula(res_loc, rows, cols), occ)

        dirs = [Loc(-1, 0), Loc(1, 0), Loc(0, -1), Loc(0, 1)]
        d = rng.choice(dirs)
        dst = Loc(loc.row + d.row, loc.col + d.col)
        if st.header.in_bounds(dst) and dst not in occ:
            ok = check(st, Move(loc, dst)) is None
            assert ok == eval_conj(move_formula(loc, dst, rows, cols), occ)

        if cols >= 4:
            a = Loc(rng.randrange(1, rows + 1), rng.randrange(1, cols - 2))
            b = Loc(a.row, a.col + 3)
            assert mixer_geometry_ok(a, b, MType.H14)
            ok = check(st, MixStart(a, b, 4, MType.H14)) is None
            assert ok == eval_conj(mixer_formula(a, b, rows, cols), occ)
        checked += 1
    return checked


def test_oracle_equivalence_sampled():
    assert run_oracle_equivalence(2500) == 2500


def test_guard_matches_mixer_formula_on_random_walks():
    # park a 1x4 mixer and walk a droplet around it; the separation check
    # covers the mixer's guard region, so it must pass exactly when the
    # literal mixer conjunction holds, every step
    rng = random.Random(777)
    for _ in range(300):
        st = init_state(ChipHeader(8, 8, 5, ()))
        a, b = Loc(4, 3), Loc(4, 6)
        st = with_droplet(st, "A", a, CFVector.unit("S"))
        st = with_droplet(st, "B", b, CFVector.unit("S"))
        st.mixers = (MixerEntry(a, b, 0, 9, MType.H14),)
        walker = Loc(rng.randrange(1, 9), rng.randrange(1, 9))
        if walker in (a, b):
            continue
        for _ in range(6):
            occ = {a, b}
            st2 = st
            if walker not in occ:
                st2 = with_droplet(st, "W", walker, CFVector.unit("S"))
                occ.add(walker)
            ok = not fluidics._post_checks(st2, TimedLine(1, ()), {}, 1)
            assert ok == eval_conj(mixer_formula(a, b, 8, 8), occ)
            d = rng.choice([Loc(-1, 0), Loc(1, 0), Loc(0, -1), Loc(0, 1)])
            nxt = Loc(walker.row + d.row, walker.col + d.col)
            if 1 <= nxt.row <= 8 and 1 <= nxt.col <= 8 and nxt not in (a, b):
                walker = nxt


def pairwise_separation(state, line, claimed, t):
    """The separation check as a scan over every droplet pair (oracle)."""
    out = []
    locs = sorted(state.by_loc)
    for i, c1 in enumerate(locs):
        for c2 in locs[i + 1:]:
            if abs(c1.row - c2.row) <= 1 and abs(c1.col - c2.col) <= 1:
                idxs = sorted({claimed[c] for c in (c1, c2) if c in claimed})
                detail = next((mx.span() for mx in state.mixers
                               if c1 in (mx.a, mx.b) or c2 in (mx.a, mx.b)), "")
                out.append(Violation(
                    Code.E1, "Static fluidic constraint violated", t=t,
                    instructions=tuple(line.instrs[i].compact() for i in idxs),
                    cells=(c1, c2), detail=detail))
    return out


def test_separation_probe_matches_pairwise_scan():
    rng = random.Random(4104)
    rows_seen = 0
    for _ in range(400):
        st, occ = random_state(rng)
        locs = sorted(occ)
        st = st.copy()
        mixers = []
        for _ in range(min(rng.randrange(3), len(locs) // 2)):
            a, b = rng.sample(locs, 2)
            mixers.append(MixerEntry(a, b, 0, 9, MType.H14))
        st.mixers = tuple(mixers)
        # droplets that arrived this tick: each claims its cell for one instruction
        arrived = rng.sample(locs, rng.randrange(len(locs) + 1))
        instrs = [Dispense(c) if rng.random() < 0.3 else Move(Loc(c.row, c.col + 1), c)
                  for c in arrived]
        claimed = {c: i for i, c in enumerate(arrived)}
        line = TimedLine(3, tuple(instrs))
        expected = pairwise_separation(st, line, claimed, 3)
        assert fluidics._post_checks(st, line, claimed, 3) == expected
        rows_seen += len(expected)
    assert rows_seen > 400


def dense_state(rng):
    """A random committed state, the separation check's input, with the
    cells of the rows it arrived on.

    A third of the states are clean: droplets on a lattice of pitch 2 or
    more, each possibly shifted off it.  The rest are dense (up to half the
    cells), with the last row and column occupied more often.  Half the
    states hold one or two active mixers of either type, on droplets that
    stay on their endpoints, with droplets in their guard regions."""
    rows, cols = rng.randrange(2, 10), rng.randrange(2, 10)
    cells = [Loc(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    if rng.random() < 1 / 3:
        pitch = rng.randrange(2, 4)
        occupied = {Loc(r, c) for r, c in cells if r % pitch == 1 and c % pitch == 1}
        shift = {Loc(r + rng.choice((0, 0, 0, 1)), c) for r, c in occupied}
        occupied = {c for c in shift if c.row <= rows}
    else:
        density = rng.uniform(0.05, 0.5)
        occupied = {c for c in cells
                    if rng.random() < (2 * density if rows in c or c.col == cols else density)}
    mixers = []
    for _ in range(rng.randrange(3) if rng.random() < 0.5 else 0):
        mtype = rng.choice((MType.H14, MType.V41))
        dr, dc = (0, 3) if mtype is MType.H14 else (3, 0)
        if rows > dr and cols > dc:
            a = Loc(rng.randrange(1, rows + 1 - dr), rng.randrange(1, cols + 1 - dc))
            b = Loc(a.row + dr, a.col + dc)
            occupied |= {a, b}
            mixers.append(MixerEntry(a, b, 0, 9, mtype))
    st = init_state(ChipHeader(rows, cols, 5, ())).copy()
    for i, loc in enumerate(sorted(occupied)):
        st = with_droplet(st, f"n{i}", loc, CFVector.unit("S"))
    st.mixers = tuple(mixers)
    arrived = rng.sample(sorted(occupied), rng.randrange(len(occupied) + 1))
    line = TimedLine(3, tuple(Dispense(c) if rng.random() < 0.3 else Move(Loc(c.row, c.col + 1), c)
                              for c in arrived))
    return st, line, {c: i for i, c in enumerate(arrived)}


def test_separation_check_matches_all_pairs_on_dense_states():
    # pairs on the last row or column, pairs that touch only diagonally, in
    # both directions, pairs in an active mixer's guard region, and clean
    # states, which the separation proof alone decides
    rng = random.Random(6021)
    seen = {"clean": 0, "last row": 0, "last col": 0, "down-left": 0, "down-right": 0,
            "guard": 0}
    for _ in range(1500):
        st, line, claimed = dense_state(rng)
        expected = pairwise_separation(st, line, claimed, 3)
        assert fluidics._post_checks(st, line, claimed, 3) == expected
        rows, cols = st.header.rows, st.header.cols
        seen["clean"] += not expected
        for v in expected:
            (r1, c1), (r2, c2) = v.cells
            seen["last row"] += r1 == r2 == rows
            seen["last col"] += c1 == c2 == cols
            seen["down-left"] += (r2 - r1, c2 - c1) == (1, -1)
            seen["down-right"] += (r2 - r1, c2 - c1) == (1, 1)
            seen["guard"] += v.detail != ""       # a mixer's span
    assert all(n >= 200 for n in seen.values()), seen


def test_separation_oracle_catches_an_always_clean_proof(monkeypatch):
    proof = ("if by_loc.keys().isdisjoint(chain.from_iterable(map(FORWARD.__getitem__, "
             "by_loc))):")
    monkeypatch.setattr(fluidics, "_post_checks", mutant(fluidics._post_checks, proof, "if True:"))
    for oracle in (test_separation_check_matches_all_pairs_on_dense_states,
                   test_separation_probe_matches_pairwise_scan,
                   test_guard_matches_mixer_formula_on_random_walks):
        with pytest.raises(AssertionError):
            oracle()


def _verdicts(capsys) -> list:
    """The exit code and JSON report of each fixture's verify run, under both
    policies, and the Phase-I rows of random dense programs."""
    out = []
    for argv in _fixture_verify_argvs():
        for extra in ([], ["--all"]):
            out.append((main(argv + extra), capsys.readouterr().out))
    rng = random.Random(77)
    for _ in range(20):
        text = dense_program(rng)
        report = fluidics.verify_program(parse_program(text), policy="all")[1]
        out.append((text, report.violations, report.final_t))
    return out


def dense_program(rng) -> str:
    """A random program in which droplets on a lattice of pitch 3 take
    random steps together, every one of them on every line."""
    n = rng.randrange(6, 12)
    start = [Loc(r, c) for r in range(2, n, 3) for c in range(2, n, 3)]
    decls = " ".join(f"R({r},{c},S)" for r, c in start)
    lines = ["1 " + " ".join(f"d({r},{c})" for r, c in start)]
    at = list(start)
    for t in range(2, 12):
        moves = []
        for i, (r, c) in enumerate(at):
            dr, dc = rng.choice(((0, 1), (0, -1), (1, 0), (-1, 0)))
            if 1 <= r + dr <= n and 1 <= c + dc <= n:
                moves.append(f"m([{r},{c}]->[{r + dr},{c + dc}])")
                at[i] = Loc(r + dr, c + dc)
        if moves:
            lines.append(f"{t} " + " ".join(moves))
    return f"dim({n},{n})\naccuracy 2\n{decls}\n" + "\n".join(lines) + "\n12 end\n"


def test_clearing_the_neighbour_table_at_its_bound_keeps_verdicts(monkeypatch, capsys):
    # at a bound of 0 every parse clears the token table, the shared cells
    # and the table of forward neighbours, which the separation check then
    # builds again
    want = _verdicts(capsys)
    assert len(isa.FORWARD) > 0
    monkeypatch.setattr(isa, "_TOKENS", {})
    monkeypatch.setattr(isa, "_PROBE_CELLS", {})
    monkeypatch.setattr(isa, "_TOKENS_BOUND", 0)
    assert _verdicts(capsys) == want
    assert len(isa.FORWARD) > 0
    parse_program(load(_DMF_FIXTURES[0]))
    assert len(isa.FORWARD) == 0
    assert any(rows for _, rows, _ in want[-20:])


def test_move_conflicts_probe_matches_bounded_clearance_scan():
    # move_conflicts probes (row, col) pairs with no bounds test; the oracle
    # drops off-array cells first.  Every border cell is occupied half the
    # time, so probes run along and past all four edges.
    rng = random.Random(31337)
    off_array = hits = 0
    for _ in range(300):
        rows, cols = rng.randrange(2, 9), rng.randrange(2, 9)
        st = init_state(ChipHeader(rows, cols, 5, ()))
        for r in range(1, rows + 1):
            for c in range(1, cols + 1):
                edge = r in (1, rows) or c in (1, cols)
                if rng.random() < (0.5 if edge else 0.18):
                    st = with_droplet(st, "S", Loc(r, c), CFVector.unit("S"))
        for r in range(1, rows + 1):
            for c in range(1, cols + 1):
                src = Loc(r, c)
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    dst = Loc(r + dr, c + dc)
                    if not st.header.in_bounds(dst):
                        continue
                    cells = move_clearance_cells(src, dst)
                    expected = sorted(c for c in cells
                                      if st.header.in_bounds(c) and c in st.by_loc)
                    got = move_conflicts(st, Move(src, dst))
                    assert got == expected, (src, dst)
                    assert all(type(c) is Loc for c in got)
                    off_array += sum(not st.header.in_bounds(c) for c in cells)
                    hits += len(got)
    assert off_array > 1000 and hits > 1000
