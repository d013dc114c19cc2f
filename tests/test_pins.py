import random
from collections import Counter

import pytest

from dmfv import pins
from dmfv.chip import MixerEntry, init_state
from dmfv.diag import Code, Violation
from dmfv.fluidics import LineContext, _commit, step, verify_program
from dmfv.graph import CFVector
from dmfv.isa import (ChipHeader, Dispense, DmfError, Loc, Move, MType, Output,
                      ReservoirDecl, RKind, TimedLine, Waste, parse_program)
from dmfv.pins import (OutOfBounds, PinMap, check_case1, check_pair, parse_pins,
                       pin_phase, serialize_pins)

from conftest import FIXTURES, check_dispense_pins, dedicated_map, load, with_droplet


def make_map(rows, cols, overrides):
    """Distinct high pin ids everywhere, with the given values overlaid."""
    pin = {Loc(r, c): 100 + (r - 1) * cols + c
           for r in range(1, rows + 1) for c in range(1, cols + 1)}
    pin.update({Loc(r, c): p for (r, c), p in overrides.items()})
    return PinMap(rows, cols, pin)


@pytest.fixture
def pair_checks(monkeypatch):
    """Counts calls of ``pins.check_pair``; read and reset ``calls[0]``."""
    calls = [0]

    def counted(*args, **kw):
        calls[0] += 1
        return check_pair(*args, **kw)

    monkeypatch.setattr(pins, "check_pair", counted)
    return calls


def droplets(rows, cols, locs):
    st = init_state(ChipHeader(rows, cols, 5, ()))
    for i, loc in enumerate(locs):
        st = with_droplet(st, f"n{i}", loc, CFVector.unit("S"))
    return st


def pins_of(pmap, cells):
    """The set of pins driving ``cells``."""
    return {pmap.pin[c] for c in cells}


def n4_cells(rows, cols, loc):
    """The cells of loc's N4 neighborhood on a rows x cols array (oracle)."""
    r, c = loc
    return {Loc(r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
            if 1 <= r + dr <= rows and 1 <= c + dc <= cols}


def scan_case1(pmap, loc):
    """check_case1 as a scan of every N4 cell, with no pin-count shortcut
    (oracle)."""
    seen = {}
    for cell in sorted(n4_cells(pmap.rows, pmap.cols, loc)):
        seen.setdefault(pmap.pin[cell], []).append(cell)
    for p, cells in sorted(seen.items()):
        if len(cells) > 1:
            return Violation(Code.PIN_CASE1, "Unintentional droplet split", cells=(loc, *cells),
                             pins=(p,), detail=f"pin {p} drives {len(cells)} neighbors of {loc}")
    return None


def test_pins_of_neighborhood_sets():
    ahead_map = make_map(6, 6, {(2, 3): 4, (4, 4): 1, (5, 3): 4, (6, 4): 2,
                            (5, 5): 7, (5, 4): 6})
    assert pins_of(ahead_map, ahead_map.n4(Loc(5, 4))) == {1, 4, 2, 7}
    stretch_map = make_map(6, 6, {(2, 2): 3, (4, 5): 8, (5, 4): 6, (6, 5): 9,
                            (5, 6): 3, (5, 5): 7})
    assert pins_of(stretch_map, stretch_map.n4(Loc(5, 5))) == {8, 6, 9, 3}
    assert pins_of(stretch_map, ()) == set()
    with pytest.raises(OutOfBounds):
        stretch_map.with_remap({Loc(9, 9): 1})
    assert issubclass(OutOfBounds, DmfError)


def test_case1_shared_pin_splits_droplet():
    split_map = make_map(6, 6, {(3, 3): 3, (3, 2): 2, (3, 4): 2})
    row = check_case1(split_map, Loc(3, 3))
    assert row is not None
    assert row.pins == (2,)
    assert row.response == row.consequence == "Unintentional droplet split"
    assert (row.t, row.instructions) == (None, ())
    assert check_case1(make_map(6, 6, {}), Loc(3, 3)) is None


def test_case1_matches_bruteforce_on_random_maps():
    rng = random.Random(3111)
    for _ in range(400):
        rows = cols = 6
        pin = {Loc(r, c): rng.randrange(1, 14)
               for r in range(1, rows + 1) for c in range(1, cols + 1)}
        pmap = PinMap(rows, cols, pin)
        loc = Loc(rng.randrange(1, rows + 1), rng.randrange(1, cols + 1))
        n4 = sorted(pmap.n4(loc))
        clash = any(pmap.pin[a] == pmap.pin[b]
                    for i, a in enumerate(n4) for b in n4[i + 1:])
        assert (check_case1(pmap, loc) is not None) == clash


def test_map_probes_match_the_cell_rules_on_every_cell():
    rng = random.Random(1411)
    for _ in range(60):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        n = rng.choice((2, 4, rows * cols))
        pmap = PinMap(rows, cols, {Loc(r, c): rng.randrange(1, n + 1)
                                   for r in range(1, rows + 1) for c in range(1, cols + 1)})
        for _ in range(2):   # the second pass reads the cache
            for r in range(1, rows + 1):
                for c in range(1, cols + 1):
                    loc = Loc(r, c)
                    assert pmap.n4(loc) == n4_cells(rows, cols, loc)
                    assert pmap.n4_pins(loc) == pins_of(pmap, pmap.n4(loc))
                    assert check_case1(pmap, loc) == scan_case1(pmap, loc)


def test_pin_map_refuses_a_cell_off_the_array():
    pin = dict(dedicated_map(4, 5).pin)
    pin[Loc(5, 1)] = 99
    with pytest.raises(DmfError, match=r"^pin map has cells off its 4x5 array$"):
        PinMap(4, 5, pin)


def test_parsed_map_equals_its_loc_keyed_map():
    text = load("mplex.pins")
    pmap = parse_pins(text)
    grid = [line.split() for line in text.splitlines() if line.split("#")[0].strip()]
    by_loc = {Loc(r, c): int(p) for r, row in enumerate(grid, 1) for c, p in enumerate(row, 1)}
    assert pmap == PinMap(pmap.rows, pmap.cols, by_loc)
    assert parse_pins(serialize_pins(pmap)) == pmap
    assert all(pmap.pin[loc] == p for loc, p in by_loc.items())
    assert dedicated_map(3, 4) == PinMap(3, 4, {Loc(r, c): (r - 1) * 4 + c
                                               for r in range(1, 4) for c in range(1, 5)})


def test_case2_shared_pin_at_t():
    stretch_map = make_map(6, 6, {(2, 2): 3, (4, 5): 8, (5, 4): 6, (6, 5): 9,
                            (5, 6): 3, (5, 5): 7})
    f = check_pair(stretch_map, Loc(2, 2), Loc(2, 2), Loc(5, 5), Loc(5, 5))
    assert f is not None and f.pins == (3,)
    assert f.code is Code.PIN_CASE2
    assert f.response == "Droplet stretch"


def test_case2_shared_pin_at_t1():
    ahead_map = make_map(6, 6, {(2, 3): 4, (4, 4): 1, (5, 3): 4, (6, 4): 2,
                            (5, 5): 7, (5, 4): 6})
    f = check_pair(ahead_map, Loc(2, 2), Loc(2, 3), Loc(5, 5), Loc(5, 4))
    assert f is not None and f.pins == (4,)
    assert f.code is Code.PIN_CASE2
    assert f.response == "Droplet stretch"   # shared cell sits ahead of the move


def test_case3_shared_pin_behind_move_strands_droplet():
    stuck_map = make_map(6, 6, {(2, 3): 4, (4, 5): 8, (6, 5): 9, (5, 6): 4,
                            (5, 4): 7, (5, 5): 6})
    f = check_pair(stuck_map, Loc(2, 2), Loc(2, 3), Loc(5, 5), Loc(5, 4))
    assert f is not None and f.pins == (4,)
    assert f.code is Code.PIN_CASE3
    assert f.response == "Droplet stuck on (5,5)"  # pulled forward and back


MOVE_PINS = {(1, 2): 9, (1, 1): 10, (2, 2): 7, (1, 3): 4, (1, 4): 5, (2, 3): 2,
         (4, 1): 6, (3, 1): 5, (5, 1): 8, (4, 2): 7, (4, 4): 11, (5, 3): 12,
         (5, 4): 13}


def test_move_versus_static_droplet():
    pmap = make_map(5, 4, MOVE_PINS)
    ok = check_pair(pmap, Loc(1, 2), Loc(1, 3), Loc(4, 1), Loc(4, 1))
    assert ok is None
    bad = check_pair(pmap, Loc(1, 2), Loc(2, 2), Loc(4, 1), Loc(4, 1))
    assert bad is not None and bad.pins == (7,)


def test_pair_symmetry_random():
    rng = random.Random(515)
    for _ in range(400):
        pin = {Loc(r, c): rng.randrange(1, 10) for r in range(1, 7) for c in range(1, 7)}
        pmap = PinMap(6, 6, pin)
        d1 = Loc(rng.randrange(2, 6), rng.randrange(2, 6))
        d2 = Loc(rng.randrange(2, 6), rng.randrange(2, 6))
        if max(abs(d1.row - d2.row), abs(d1.col - d2.col)) < 3:
            continue
        m1 = Loc(d1.row, d1.col + 1)
        m2 = Loc(d2.row, d2.col - 1)
        a = check_pair(pmap, d1, m1, d2, m2)
        b = check_pair(pmap, d2, m2, d1, m1)
        # the (a)/(b) constraint pairs swap roles, so the verdicts agree even
        # though the first rule to fire (and its pin set) may mirror
        assert (a is None) == (b is None)


DISPENSE_PINS = {(1, 1): 7, (1, 2): 3, (2, 1): 4, (2, 3): 2, (3, 2): 4, (4, 3): 5,
        (3, 4): 3, (3, 1): 2, (5, 1): 5, (4, 2): 3, (4, 4): 2, (5, 3): 4,
        (1, 4): 3}


def test_dispense_pin_examples():
    pmap = make_map(5, 4, DISPENSE_PINS)
    st = droplets(5, 4, [Loc(3, 3), Loc(4, 1), Loc(5, 4)])
    assert pins_of(pmap, pmap.n4(Loc(3, 3))) == {2, 4, 5, 3}
    assert pins_of(pmap, pmap.n4(Loc(4, 1))) == {2, 5, 3}
    assert pins_of(pmap, pmap.n4(Loc(5, 4))) == {2, 4}
    assert pins_of(pmap, pmap.n4(Loc(1, 1))) == {3, 4}
    assert check_dispense_pins(pmap, st, Loc(1, 1)) is None
    bad = check_dispense_pins(pmap, st, Loc(1, 4))
    assert bad is not None and bad.pins == (3,)
    assert bad.response == "Droplet stretch"


def test_dispense_far_droplet_on_big_grid_is_safe():
    pmap = dedicated_map(12, 12)
    st = droplets(12, 12, [Loc(11, 11)])
    assert check_dispense_pins(pmap, st, Loc(1, 1)) is None


def test_injective_map_subsumes_general_mode():
    for name in ("twowaymix.dmf", "pcr.dmf"):
        prog = parse_program(load(name))
        pmap = dedicated_map(prog.header.rows, prog.header.cols)
        assert len(set(pmap.pin.values())) == len(pmap.pin)
        _, report = verify_program(prog, pin_map=pmap)
        assert report.ok, report.violations


def test_injective_map_reports_match_general_mode_on_bad_program():
    from dmfv.inject import InjectionSpec, inject_error
    prog = parse_program(load("pcr.dmf"))
    bad, _ = inject_error(prog, InjectionSpec("e1"))
    _, general = verify_program(bad)
    _, pinned = verify_program(bad, pin_map=dedicated_map(15, 15))
    rows = lambda r: [(v.code, v.t, v.instruction_text()) for v in r.violations]
    assert rows(general) == rows(pinned)


def test_pair_checks_skip_distant_droplets(pair_checks):
    text = ("dim(9,9)\naccuracy 5\nR(1,1,A) R(1,9,B) R(9,1,C)\n"
            "1 d(1,1) d(1,9) d(9,1)\n"
            "2 m([1,1]->[2,1]) m([1,9]->[2,9]) m([9,1]->[8,1])\n"
            "3 m([2,1]->[3,1])\n4 end\n")
    prog = parse_program(text)
    _, report = verify_program(prog, pin_map=dedicated_map(9, 9))
    assert report.ok
    # no droplet sits in another's N4 region and no pin is shared, so the
    # pin index joins no pair on any tick
    assert pair_checks[0] == 0


def scan_dispense_pins(pmap, state, loc, extra_droplets=()):
    """check_dispense_pins as a scan of every other droplet for each
    dispense (oracle)."""
    own = pmap.pin[loc]
    if own in pmap.n4_pins(loc):
        shared_self = sorted(c for c in pmap.n4(loc) if pmap.pin[c] == own)
        return Violation(Code.PIN_DISPENSE, "Droplet stretch", cells=(loc, *shared_self),
                         pins=(own,), detail=f"pin {own} is repeated in N4({loc})")
    others = sorted(state.by_loc) + [c for c in extra_droplets if c != loc]
    for d in others:
        if own in pmap.n4_pins(d):
            shared = sorted(c for c in pmap.n4(d) if pmap.pin[c] == own)
            return Violation(Code.PIN_DISPENSE, "Droplet stretch", cells=(loc, d, *shared),
                             pins=(own,),
                             detail=f"pin {own} of {loc} drives a neighbor of the droplet at {d}")
    return None


def all_pairs_pin_phase(pmap, snapshot, committed, ctx, passed):
    """The pin phase as a plain scan over every participant pair (oracle); it
    reads each instruction's cells off the instruction, not ``ctx``."""
    out = []
    line, t = ctx.line, ctx.t
    effects = [(i, line.instrs[i]) for i in passed]
    moved, dispensed = {}, []
    for i, instr in effects:
        if isinstance(instr, Move):
            moved[instr.dst] = (instr.src, i)
        elif isinstance(instr, Dispense):
            dispensed.append((instr.loc, i))
    for loc, i in dispensed:
        others = tuple(l for l, _ in dispensed if l != loc)
        f = scan_dispense_pins(pmap, snapshot, loc, extra_droplets=others)
        if f is not None:
            out.append(f._replace(t=t, instructions=(line.instrs[i].compact(),)))
    participants = []
    pinned_cells = {c for mx in committed.mixers for c in (mx.a, mx.b)}
    for loc in sorted(committed.by_loc):
        if loc in pinned_cells:
            continue
        if loc in moved:
            old, i = moved[loc]
            participants.append((old, loc, i))
        elif loc in {l for l, _ in dispensed}:
            continue
        else:
            participants.append((loc, loc, None))
    for i, instr in effects:
        if isinstance(instr, (Waste, Output)):
            participants.append((instr.loc, instr.loc, None))
    participants.sort(key=lambda p: p[0])
    for a in range(len(participants)):
        for b in range(a + 1, len(participants)):
            o1, n1, i1 = participants[a]
            o2, n2, i2 = participants[b]
            f = pins.check_pair(pmap, o1, n1, o2, n2)
            if f is not None:
                idxs = tuple(sorted(i for i in (i1, i2) if i is not None))
                instrs = tuple(line.instrs[i].compact() for i in idxs)
                out.append(f._replace(t=t, instructions=instrs))
    for loc in sorted(committed.by_loc):
        f = scan_case1(pmap, loc)
        if f is not None:
            idx = moved.get(loc)
            instrs = (line.instrs[idx[1]].compact(),) if idx else ()
            out.append(f._replace(t=t, instructions=instrs))
    return out


def random_tick(rng, rows, cols):
    """A committed tick with moves, dispenses, waste/output and a mixer, as
    the pin phase's arguments: snapshot, committed state, the line's
    context and the positions of its instructions, all of which pass."""
    cells = [Loc(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    rng.shuffle(cells)
    sources, sinks = cells[:3], cells[3:5]
    res = tuple(ReservoirDecl(l, RKind.REAGENT, "AB"[i % 2]) for i, l in enumerate(sources))
    res += (ReservoirDecl(sinks[0], RKind.WASTE), ReservoirDecl(sinks[1], RKind.OUTPUT))
    snapshot = init_state(ChipHeader(rows, cols, 5, res))
    parked = [l for l in cells[5:] if rng.random() < 0.18]
    parked += [l for l in sinks if rng.random() < 0.6]
    for loc in parked:
        snapshot = with_droplet(snapshot, "S", loc, CFVector.unit("A"))
    free = [l for l in parked if l not in sinks]
    if len(free) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(free, 2)
        snapshot = snapshot.copy()
        snapshot.mixers = (MixerEntry(a, b, 0, 99, MType.H14),)
        free = [l for l in free if l not in (a, b)]
    instrs, claimed = [], set()
    for src in free:
        if rng.random() < 0.5:
            dr, dc = rng.choice([(-1, 0), (1, 0), (0, -1), (0, 1)])
            dst = Loc(src.row + dr, src.col + dc)
            if snapshot.header.in_bounds(dst) and dst not in snapshot.by_loc and dst not in claimed:
                instrs.append(Move(src, dst))
                claimed.add(dst)
    for loc in sources:
        if loc not in snapshot.by_loc and loc not in claimed and rng.random() < 0.5:
            instrs.append(Dispense(loc))
            claimed.add(loc)
    for loc, kind in zip(sinks, (Waste, Output)):
        if loc in snapshot.by_loc and rng.random() < 0.7:
            instrs.append(kind(loc))
    rng.shuffle(instrs)
    line = TimedLine(1, tuple(instrs))
    committed, _ = _commit(snapshot, instrs, 1)
    return snapshot, committed, LineContext(snapshot, line), list(range(len(instrs)))


def quiet_tick(rng, rows, cols):
    """A sparse committed tick of moves alone, as ``random_tick`` returns
    it: two to five droplets, about half of which move, and no dispense,
    waste, output or mixer."""
    cells = [Loc(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    snapshot = init_state(ChipHeader(rows, cols, 5, ()))
    for loc in rng.sample(cells, rng.randrange(2, 6)):
        snapshot = with_droplet(snapshot, "S", loc, CFVector.unit("A"))
    instrs, claimed = [], set()
    for src in snapshot.by_loc:
        dr, dc = rng.choice([(-1, 0), (1, 0), (0, -1), (0, 1)])
        dst = Loc(src.row + dr, src.col + dc)
        if (rng.random() < 0.5 and snapshot.header.in_bounds(dst)
                and dst not in snapshot.by_loc and dst not in claimed):
            instrs.append(Move(src, dst))
            claimed.add(dst)
    line = TimedLine(1, tuple(instrs))
    committed, _ = _commit(snapshot, instrs, 1)
    return snapshot, committed, LineContext(snapshot, line), list(range(len(instrs)))


def engine_pin_phase(pmap, snapshot, committed, ctx, passed):
    """pin_phase as the engine calls it after checking a line instruction by
    instruction."""
    return pin_phase(pmap, snapshot, committed, ctx.line, *ctx.effects(passed))


def random_pin_maps(rng, rows, cols):
    """Dedicated, remapped and randomly shared maps over one grid."""
    base = dedicated_map(rows, cols)
    cells = list(base.pin)
    remapped = base.with_remap({c: rng.randrange(1, 6) for c in rng.sample(cells, 6)})
    shared = [PinMap(rows, cols, {c: rng.randrange(1, n + 1) for c in cells})
              for n in (rows * cols, rows * cols // 3, 12, 4)]
    return [base, remapped, *shared]


def test_pin_phase_matches_all_pairs_oracle(pair_checks, monkeypatch):
    # a call that builds no candidate index is one the quiet-tick test decided
    indexed = [0]
    candidate_pairs = pins._candidate_pairs

    def counted(*args):
        indexed[0] += 1
        return candidate_pairs(*args)
    monkeypatch.setattr(pins, "_candidate_pairs", counted)
    rng, quiet_rng = random.Random(20221108), random.Random(20061022)
    codes, joined, scanned, several, quiet = set(), 0, 0, Counter(), Counter()
    for _ in range(50):
        rows, cols = rng.randrange(5, 10), rng.randrange(5, 10)
        pmaps = random_pin_maps(rng, rows, cols)
        # several ticks per map exercise its caches; the sparse ticks of
        # moves alone are the ones the quiet-tick test may decide
        ticks = [(random_tick(rng, rows, cols), False) for _ in range(3)]
        ticks += [(quiet_tick(quiet_rng, rows, cols), True) for _ in range(4)]
        for tick, sparse in ticks:
            dispenses = sum(isinstance(i, Dispense) for i in tick[2].line.instrs)
            for pmap in pmaps:
                pair_checks[0] = 0
                expected = all_pairs_pin_phase(pmap, *tick)
                scanned += pair_checks[0]
                pair_checks[0] = 0
                indexed[0] = 0
                assert engine_pin_phase(pmap, *tick) == expected
                joined += pair_checks[0]
                codes.update(v.code for v in expected)
                if dispenses > 1:
                    several.update(v.code for v in expected)
                if sparse:
                    quiet["decided" if indexed[0] == 0 else "rows" if expected else "doubt"] += 1
    assert codes >= {Code.PIN_CASE1, Code.PIN_CASE2, Code.PIN_CASE3, Code.PIN_DISPENSE}
    # the indexed dispense rule meets the scan on ticks with several dispenses
    assert several[Code.PIN_DISPENSE] >= 500, several
    assert joined < scanned
    # the quiet-tick test decides most sparse ticks, and the full phase words
    # the rows of those that have some
    assert quiet["decided"] >= 200 and quiet["rows"] >= 100, quiet


@pytest.mark.parametrize("label, shared, response", [
    ("2(c)", {(2, 3): 1, (4, 4): 1}, "Droplet stretch"),
    ("2(d)", {(5, 4): 1, (3, 3): 1}, "Droplet stretch"),
    ("3(a)", {(2, 3): 1, (5, 6): 1}, "Droplet stuck on (5,5)"),
    ("3(b)", {(5, 4): 1, (2, 1): 1}, "Droplet stuck on (2,2)"),
])
def test_pair_rule_between_two_movers(label, shared, response):
    # Two droplets far apart both move, (2,2)->(2,3) and (5,5)->(5,4), on a
    # map where one pin drives the two cells named: only rule ``label`` of
    # check_pair fails.  No droplet stays put, so the quiet-tick test finds
    # the pair only by testing the second mover against the first.
    state = init_state(ChipHeader(7, 7, 5, ()))
    for loc in (Loc(2, 2), Loc(5, 5)):
        state = with_droplet(state, "S", loc, CFVector.unit("A"))
    line = TimedLine(1, (Move(Loc(2, 2), Loc(2, 3)), Move(Loc(5, 5), Loc(5, 4))))
    rows = step(state, line, policy="all", pin_map=make_map(7, 7, shared)).violations
    code = Code.PIN_CASE2 if label.startswith("2") else Code.PIN_CASE3
    assert [(v.code, v.response, v.detail.split(":")[0], v.instruction_text(), v.pins)
            for v in rows] == [(code, response, f"case {label}", "m(2,2,2,3) m(5,5,5,4)", (1,))]


def test_mplex_fixture_rows(fixtures):
    prog = parse_program(load("mplex.dmf"))
    base = parse_pins(load("mplex.pins"))
    assert verify_program(prog, pin_map=base)[1].ok
    expected = {
        "mplex_pin1.pins": ("Droplet stretch", 4,
                            "m(3,3,4,3) m(13,3,13,4)", (6,)),
        "mplex_pin2.pins": ("Droplet stuck on (13,14)", 53,
                            "m(13,14,13,13) m(3,14,3,13)", (8,)),
        "mplex_pin3.pins": ("Droplet stuck on (13,11)", 56,
                            "m(5,13,6,13) m(13,11,13,10)", (7,)),
    }
    for name, (response, t, instr, shared) in expected.items():
        pmap = parse_pins(load(name))
        _, report = verify_program(prog, pin_map=pmap)
        v = report.violations[0]
        assert (v.response, v.t, v.instruction_text(), tuple(sorted(v.pins))) == (
            response, t, instr, shared)


def test_pin_map_reports_first_missing_cell():
    pin = dict(parse_pins(load("mplex.pins")).pin)
    rows, cols = max(pin)
    del pin[Loc(3, 4)], pin[Loc(2, 5)]
    with pytest.raises(DmfError, match=r"^pin map is missing cell \(2,5\)$"):
        PinMap(rows, cols, pin)
    pin[Loc(rows + 1, 1)] = pin[Loc(rows, cols + 1)] = 1   # as many keys, two off the grid
    assert len(pin) == rows * cols
    with pytest.raises(DmfError, match=r"^pin map is missing cell \(2,5\)$"):
        PinMap(rows, cols, pin)


def test_pin_map_roundtrip_and_dim_check():
    pmap = parse_pins(load("mplex.pins"))
    assert parse_pins(serialize_pins(pmap)) == pmap
    prog = parse_program(load("twowaymix.dmf"))
    from dmfv.isa import DmfError
    with pytest.raises(DmfError):
        verify_program(prog, pin_map=pmap)



def test_pin_map_size_must_equal_the_chip(tmp_path, capsys):
    from dmfv.branches import verify_all_paths
    from dmfv.cli import main

    small = tmp_path / "5x5.pins"
    small.write_text(serialize_pins(dedicated_map(5, 5)))
    assert main(["verify", str(FIXTURES / "pcr.dmf"), "--pins", str(small)]) == 2
    assert capsys.readouterr().err == "error: pin map is 5x5 but the chip is 15x15\n"
    # a smaller and a larger map, on a straight-line 15x15 and a conditional 8x8 program
    for name, verify, sides in (("pcr.dmf", verify_program, (5, 20)),
                                ("recovery.dmf", verify_all_paths, (6, 11))):
        program = parse_program(load(name))
        n = program.header.rows
        for side in sides:
            with pytest.raises(DmfError, match=f"^pin map is {side}x{side} but the chip "
                                               f"is {n}x{n}$"):
                verify(program, pin_map=dedicated_map(side, side))
