"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from fractions import Fraction

from dmfv.branches import verify_all_paths
from dmfv.chip import init_state
from dmfv.diag import CAUSE, Code
from dmfv.fluidics import step, verify_program
from dmfv.graph import (OUTPUT, CFVector, SeqGraph, SGNode, cf_mix, conformance,
                        parse_input_sg, reconstruct, round_cf)
from dmfv.inject import InjectionSpec, inject_error
from dmfv.isa import (ChipHeader, Dispense, Loc, MixStart, Move, MType, Output,
                      ReservoirDecl, RKind, TimedLine, Waste, parse_program)
from dmfv.pins import check_case1, check_pair, parse_pins

from conftest import check_dispense_pins, dedicated_map, fractions_of, load, path_verdicts
from test_branches import enumerate_paths
from test_oracle import run_oracle_equivalence
from test_pins import DISPENSE_PINS, MOVE_PINS, droplets, make_map


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {mark}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_pcr_clean_run():
    t0 = time.perf_counter()
    prog = parse_program(load("pcr.dmf"))
    trace, report = verify_program(prog)
    elapsed = time.perf_counter() - t0
    ok = report.ok and report.final_t == 34 and elapsed < 1.0
    _report("1 (PCR clean run)", ok,
            f"violations={len(report.violations)}, final_t={report.final_t}, "
            f"{elapsed * 1000:.1f} ms")


PCR_ERROR_ROWS = [
    ("e1", "Static fluidic constraint violated", 27, "m(11,8,12,8)"),
    ("e2", "Dynamic fluidic constraint violated", 26, "m(11,7,11,8) m(13,8,12,8)"),
    ("e3", "Dispense from invalid input reservoir", 1, "d(2,1)"),
    ("e4", "Droplet on (5,5) is in active mixer", 28, "m(5,5,5,4)"),
    ("e5", "Droplet is not present on (11,4) and (11,7)", 6, "mix(11,4,11,7,6,14)"),
]

# e2 and e5 take explicit sites: the target rows hit the concurrent move pair
# at t=26 and the third mixer (line 7), neither of which is the earliest
# applicable site a blind search would pick.
SPECS = {
    "e1": InjectionSpec("e1"),
    "e2": InjectionSpec("e2", line=26, move=(Loc(13, 8), Loc(12, 8))),
    "e3": InjectionSpec("e3"),
    "e4": InjectionSpec("e4"),
    "e5": InjectionSpec("e5", line=7, pos=0),
}


def test_criterion_2_pcr_injection_rows():
    prog = parse_program(load("pcr.dmf"))
    rows = []
    for code, *_ in PCR_ERROR_ROWS:
        mutated, _ = inject_error(prog, SPECS[code])
        _, report = verify_program(mutated)
        v = report.violations[0]
        rows.append((v.code.value, v.response, v.t, v.instruction_text()))
    ok = rows == PCR_ERROR_ROWS
    _report("2 (PCR error-injection rows)", ok, f"{len(rows)} rows exact")


def test_criterion_3_pcr_realization_errors():
    prog = parse_program(load("pcr.dmf"))
    input_sg = parse_input_sg(load("pcr.sg"))

    short, _ = inject_error(prog, InjectionSpec("e6", line=5, pos=0, duration=4))
    trace, report = verify_program(short)
    assert report.ok, "e6 injection must stay clean in Phase I"
    conf6 = conformance(input_sg, reconstruct(trace), prog.header.accuracy)
    v6 = [v for v in conf6.violations if v.code is Code.E6]

    swapped, _ = inject_error(prog, InjectionSpec("e7"))
    trace, report = verify_program(swapped)
    assert report.ok, "e7 injection must stay clean in Phase I"
    conf7 = conformance(input_sg, reconstruct(trace), prog.header.accuracy)
    v7 = [v for v in conf7.violations if v.code is Code.E7]

    ok = (bool(v6) and v6[0].response == "Inhomogeneous mixing"
          and CAUSE[Code.E6] == "Mixing performed for lesser time"
          and bool(v7)
          and v7[0].response == "Incorrect realization of input sequencing graph"
          and CAUSE[Code.E7] == "Wrong mix operation performed")
    _report("3 (PCR realization errors)", ok,
            f"e6: {v6[0].detail}; e7 rows: {len(v7)}")


def test_criterion_4_wrong_ratio_and_short_mix():
    prog = parse_program(load("threeway_bad.dmf"))
    trace, report = verify_program(prog)
    assert report.ok
    conf = conformance(parse_input_sg(load("threeway.sg")), reconstruct(trace),
                       prog.header.accuracy)
    e7 = [v for v in conf.violations if v.code is Code.E7]
    e6 = [v for v in conf.violations if v.code is Code.E6]
    ok = (any("(1:1:2) produced, (1:2:1) specified" in v.detail for v in e7)
          and any("6 < 12" in v.detail for v in e6))
    _report("4 (ratio and duration conformance)", ok,
            f"{len(e7)} ratio mismatch(es) + {len(e6)} duration shortfall(s) in one report")


def test_criterion_5_twowaymix_reconstruction():
    prog = parse_program(load("twowaymix.dmf"))
    trace, report = verify_program(prog)
    assert report.ok
    sg = reconstruct(trace)
    v1, v2 = sg.nodes["v1"], sg.nodes["v2"]
    shape = sorted(sg.edges) == sorted([("S", "v1"), ("B", "v1"), ("v1", "W"),
                                        ("v1", "v2"), ("B", "v2"), ("v2", "O")])
    windows = (v1.t_s, v1.t_e, v2.t_s, v2.t_e) == (4, 17, 20, 33)
    cfs = (fractions_of(v1.cf)["S"] == Fraction(16, 32)
           and fractions_of(v2.cf)["S"] == Fraction(8, 32))
    conf = conformance(parse_input_sg(load("twowaymix.sg")), sg, 5)
    ok = shape and windows and cfs and conf.ok
    _report("5 (twoWayMix reconstruction)", ok,
            "S,B->v1(16/32)->{W, v2(8/32)->O}, windows [4,17] and [20,33]")


def test_criterion_6_pin_examples():
    results = []

    split_map = make_map(6, 6, {(3, 3): 3, (3, 2): 2, (3, 4): 2})
    f = check_case1(split_map, Loc(3, 3))
    results.append(f is not None and f.pins == (2,))

    stretch_map = make_map(6, 6, {(2, 2): 3, (4, 5): 8, (5, 4): 6, (6, 5): 9,
                            (5, 6): 3, (5, 5): 7})
    f = check_pair(stretch_map, Loc(2, 2), Loc(2, 2), Loc(5, 5), Loc(5, 5))
    results.append(f is not None and f.pins == (3,))

    ahead_map = make_map(6, 6, {(2, 3): 4, (4, 4): 1, (5, 3): 4, (6, 4): 2,
                            (5, 5): 7, (5, 4): 6})
    f = check_pair(ahead_map, Loc(2, 2), Loc(2, 3), Loc(5, 5), Loc(5, 4))
    results.append(f is not None and f.pins == (4,) and f.code is Code.PIN_CASE2)

    stuck_map = make_map(6, 6, {(2, 3): 4, (4, 5): 8, (6, 5): 9, (5, 6): 4,
                            (5, 4): 7, (5, 5): 6})
    f = check_pair(stuck_map, Loc(2, 2), Loc(2, 3), Loc(5, 5), Loc(5, 4))
    results.append(f is not None and f.pins == (4,) and f.code is Code.PIN_CASE3)

    disp_pins = make_map(5, 4, DISPENSE_PINS)
    st = droplets(5, 4, [Loc(3, 3), Loc(4, 1), Loc(5, 4)])
    results.append(check_dispense_pins(disp_pins, st, Loc(1, 1)) is None)
    bad = check_dispense_pins(disp_pins, st, Loc(1, 4))
    results.append(bad is not None and bad.pins == (3,))

    move_pins = make_map(5, 4, MOVE_PINS)
    results.append(check_pair(move_pins, Loc(1, 2), Loc(1, 3), Loc(4, 1), Loc(4, 1)) is None)
    f = check_pair(move_pins, Loc(1, 2), Loc(2, 2), Loc(4, 1), Loc(4, 1))
    results.append(f is not None and f.pins == (7,))

    _report("6 (pin rule examples)", all(results),
            f"{sum(results)}/8 shared-pin sets exact")


def test_criterion_7_pin_schema_rows():
    prog = parse_program(load("mplex.dmf"))
    assert verify_program(prog, pin_map=parse_pins(load("mplex.pins")))[1].ok
    expected = [
        ("mplex_pin1.pins", "Droplet stretch", 4, "m(3,3,4,3) m(13,3,13,4)"),
        ("mplex_pin2.pins", "Droplet stuck on (13,14)", 53,
         "m(13,14,13,13) m(3,14,3,13)"),
        ("mplex_pin3.pins", "Droplet stuck on (13,11)", 56,
         "m(5,13,6,13) m(13,11,13,10)"),
    ]
    rows = []
    for name, *_ in expected:
        report = verify_program(prog, pin_map=parse_pins(load(name)))[1]
        v = report.violations[0]
        rows.append((name, v.response, v.t, v.instruction_text()))
    ok = rows == expected
    _report("7 (pin-constrained schema rows)", ok,
            "stretch @4, stuck(13,14) @53, stuck(13,11) @56 (fixture-based)")


def test_criterion_8_cyberphysical_paths():
    prog = parse_program(load("recovery.dmf"))
    input_sg = parse_input_sg(load("recovery.sg"))
    specs = enumerate_paths(prog)
    verdicts = path_verdicts(verify_all_paths(prog, input_sg=input_sg))
    all_clean = list(verdicts) == [s.label for s in specs] and all(
        ok for ok, _ in verdicts.values())
    full_t = verdicts["11"][1]
    want = sorted(str(round_cf(cf, 5)) for cf in input_sg.terminal_cfs(OUTPUT))
    # each path's realized graph, rebuilt from the trace of its spliced program
    graphs = [reconstruct(verify_program(spec.program)[0]) for spec in specs]
    outputs_ok = len(graphs) == 4 and all(
        sorted(str(round_cf(cf, 5)) for cf in sg.terminal_cfs(OUTPUT)) == want
        for sg in graphs)
    ok = (len(specs) == 4 and all_clean and full_t == 69 and outputs_ok)
    _report("8 (cyberphysical paths)", ok,
            f"4 paths, all-faulty ends t={full_t}, outputs conform")


# --- criterion 9: property suites -------------------------------------------------

def test_criterion_9a_oracle_equivalence():
    checked = run_oracle_equivalence(10000, seed=424242)
    _report("9a (oracle equivalence)", checked >= 10000,
            f"{checked} random states, every check agrees with the literal formulas")


def _random_walk(seed: int, ticks: int = 40):
    rng = random.Random(seed)
    header = ChipHeader(6, 6, 5, (
        ReservoirDecl(Loc(1, 1), RKind.REAGENT, "A"),
        ReservoirDecl(Loc(6, 6), RKind.REAGENT, "B"),
        ReservoirDecl(Loc(1, 6), RKind.WASTE),
        ReservoirDecl(Loc(6, 1), RKind.OUTPUT)))
    state = init_state(header)
    dirs = [Loc(-1, 0), Loc(1, 0), Loc(0, -1), Loc(0, 1)]
    for t in range(1, ticks + 1):
        instrs = []
        if rng.random() < 0.4:
            res = rng.choice([Loc(1, 1), Loc(6, 6), Loc(3, 3)])  # (3,3) is invalid
            instrs.append(Dispense(res))
        for loc in sorted(state.by_loc):
            roll = rng.random()
            if roll < 0.5:
                d = rng.choice(dirs)
                dst = Loc(loc.row + d.row, loc.col + d.col)
                if header.in_bounds(dst):
                    instrs.append(Move(loc, dst))
            elif roll < 0.55 and loc == Loc(1, 6):
                instrs.append(Waste(loc))
            elif roll < 0.6 and loc == Loc(6, 1):
                instrs.append(Output(loc))
        if rng.random() < 0.2:
            occ = sorted(state.by_loc)
            for a in occ:
                b = Loc(a.row, a.col + 3)
                if b in state.by_loc:
                    instrs.append(MixStart(a, b, rng.randrange(2, 5), MType.H14))
                    break
        if not instrs:
            continue
        yield state, TimedLine(t, tuple(instrs))
        state = step(state, TimedLine(t, tuple(instrs)), policy="all").state


def test_criterion_9b_9c_invariants_on_fuzzed_programs():
    accepted_ticks = conserved = 0
    for seed in range(25):
        for state, line in _random_walk(seed):
            result = step(state, line, policy="all")
            names = [type(e).__name__ for e in result.events]
            expect = (len(state.by_loc) + names.count("Dispensed")
                      - names.count("Wasted") - names.count("Outputted"))
            assert len(result.state.by_loc) == expect
            conserved += 1
            if not result.violations:
                locs = sorted(result.state.by_loc)
                for i, c1 in enumerate(locs):
                    for c2 in locs[i + 1:]:
                        assert max(abs(c1.row - c2.row), abs(c1.col - c2.col)) > 1
                accepted_ticks += 1
    _report("9b/9c (fuzzed invariants)", accepted_ticks > 100 and conserved > 300,
            f"{accepted_ticks} clean ticks separation-checked, "
            f"{conserved} ticks conservation-checked")


def test_criterion_9d_cf_sums_under_random_trees():
    rng = random.Random(9)
    pool = [CFVector.unit(n) for n in ("A", "B", "C", "D")]
    for _ in range(3000):
        m = cf_mix(rng.choice(pool), rng.choice(pool))
        assert sum(fractions_of(m).values()) == 1
        assert sum(fractions_of(round_cf(m, rng.randrange(1, 9))).values()) == 1
        pool.append(m)
    _report("9d (CF sum preservation)", True, "3000 random mixes, exact unit totals")


def test_criterion_9e_conformance_reflexivity_and_relabeling():
    trace, _ = verify_program(parse_program(load("twowaymix.dmf")))
    sg = reconstruct(trace)
    reflexive = conformance(sg, sg, 5).ok
    relabeled = SeqGraph(sg.reagents)
    for i, (nid, node) in enumerate(reversed(list(sg.nodes.items()))):
        relabeled.nodes[f"n{i}"] = SGNode(f"n{i}", node.kind, node.reagent,
                                          node.t_mix, node.t_s, node.t_e, node.cf)
    names = {nid: f"n{i}" for i, nid in enumerate(reversed(list(sg.nodes)))}
    relabeled.edges = [(names[a], names[b]) for a, b in reversed(sg.edges)]
    invariant = conformance(sg, relabeled, 5).ok
    _report("9e (conformance reflexivity/relabeling)", reflexive and invariant)


def test_criterion_9f_injective_pin_map_subsumption():
    ok = True
    for name in ("twowaymix.dmf", "pcr.dmf", "mplex.dmf"):
        prog = parse_program(load(name))
        pmap = dedicated_map(prog.header.rows, prog.header.cols)
        _, general = verify_program(prog)
        _, pinned = verify_program(prog, pin_map=pmap)
        ok = ok and general.ok and pinned.ok
    _report("9f (injective pin-map subsumption)", ok,
            "pin phase silent on fluidically clean programs")
