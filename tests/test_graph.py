import copy
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest

from dmfv import chip, graph
from dmfv.diag import Code, Report, Violation
from dmfv.fluidics import Trace, verify_program
from dmfv.graph import (DISPENSE, MIX, OUTPUT, WASTE, BadArity, CFVector, CycleDetected,
                        OrphanDroplet,
                        SeqGraph, SGNode, _adjacency, _cf_key, _duration_check, _graded,
                        cf_mix, conformance, parse_input_sg,
                        ratio_str, reconstruct, round_cf, to_dot)
from dmfv.isa import Loc, ParseError, parse_program

from conftest import fractions_of, load, mutant


def preds(sg: SeqGraph, nid: str) -> list[str]:
    """A node's predecessors, by a scan over every edge."""
    return [s for s, d in sg.edges if d == nid]


def topo_order(sg: SeqGraph) -> list[str]:
    return list(_graded(sg, *_adjacency(sg))[0])


def depths(sg: SeqGraph) -> dict[str, int]:
    """Longest-path depth from the dummy entry; sources sit at depth 1."""
    return _graded(sg, *_adjacency(sg))[0]


def annotate_cfs(sg: SeqGraph) -> None:
    """Propagate concentration vectors from dispense sources through mixes."""
    for nid, cf in _graded(sg, *_adjacency(sg))[1].items():
        sg.nodes[nid].cf = cf


S, B = CFVector.unit("S"), CFVector.unit("B")


def test_cf_mix_dilution_steps():
    half = cf_mix(S, B)
    assert fractions_of(half)["S"] == Fraction(1, 2)        # 16/32
    quarter = cf_mix(half, B)
    assert fractions_of(quarter)["S"] == Fraction(1, 4)     # 8/32
    assert cf_mix(half, half) == half               # idempotent on equal inputs
    assert cf_mix(S, B) == cf_mix(B, S)             # commutative


def test_cf_components_sum_to_one():
    rng = random.Random(11)
    units = [CFVector.unit(n) for n in "ABCDE"]
    pool = list(units)
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        m = cf_mix(a, b)
        assert sum(fractions_of(m).values()) == 1
        assert sum(fractions_of(round_cf(m, rng.randrange(1, 8))).values()) == 1
        pool.append(m)


def test_cf_mix_is_the_fraction_average_in_normal_form():
    # the sum keeps the finer vector's order unless the other brings a
    # reagent it lacks, and a sum over unequal exponents skips the
    # normalisation: each of the four cases must give the exact
    # component-wise average in normal form
    rng = random.Random(2309)
    kinds = Counter()
    for case in range(40):
        pool = [CFVector.unit(f"R{i}") for i in range(rng.randrange(1, 5))]
        for _ in range(80):
            a, b = rng.choice(pool), rng.choice(pool[-8:])
            m = cf_mix(a, b)
            fa, fb = fractions_of(a), fractions_of(b)
            assert fractions_of(m) == {k: (fa.get(k, 0) + fb.get(k, 0)) / 2
                                       for k in fa.keys() | fb.keys()}, (a, b)
            keys = [k for k, _ in m.nums]
            assert keys == sorted(keys) and all(v for _, v in m.nums), (a, b)
            assert m.exp == 0 or any(v % 2 for _, v in m.nums), (a, b)
            fine, coarse = (fa, fb) if a.exp >= b.exp else (fb, fa)
            kinds[coarse.keys() <= fine.keys(), a.exp != b.exp] += 1
            pool.append(m)
    assert all(kinds[kept, unequal] >= 50 for kept in (True, False)
               for unequal in (True, False)), kinds


def test_round_cf_exact_and_third_approximation():
    assert round_cf(cf_mix(S, B), 5) == cf_mix(S, B)    # 16/32 already exact
    # a ten-deep alternating mix tree approaches 1/3: bits of 341/1024
    cf = B
    for bit in "0101010101"[::-1]:
        cf = cf_mix(cf, S if bit == "1" else B)
    assert fractions_of(cf)["S"] == Fraction(341, 1024)
    rounded = round_cf(cf, 5)
    assert fractions_of(rounded)["S"] == Fraction(11, 32)   # nearest dyadic to 1/3
    assert sum(fractions_of(rounded).values()) == 1


def test_ratio_rendering():
    tri = cf_mix(cf_mix(CFVector.unit("R1"), CFVector.unit("R2")),
                 cf_mix(CFVector.unit("R2"), CFVector.unit("R3")))
    assert ratio_str(tri, ("R1", "R2", "R3"), 2) == "(1:2:1)"


# --- CF arithmetic in Fractions, as first written: the oracle for CFVector ------

@dataclass(frozen=True)
class FracCF:
    """Mapping reagent -> exact fraction of unit volume; components sum to 1."""

    components: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def of(mapping: dict[str, Fraction]) -> "FracCF":
        return FracCF(tuple(sorted((k, Fraction(v)) for k, v in mapping.items() if v != 0)))

    @staticmethod
    def unit(reagent: str) -> "FracCF":
        return FracCF(((reagent, Fraction(1)),))

    def get(self, reagent: str) -> Fraction:
        return dict(self.components).get(reagent, Fraction(0))

    def __str__(self) -> str:
        return "{" + ", ".join(f"{k}:{v}" for k, v in self.components) + "}"


def frac_mix(a: FracCF, b: FracCF) -> FracCF:
    out: dict[str, Fraction] = dict(a.components)
    for k, v in b.components:
        out[k] = out.get(k, Fraction(0)) + v
    return FracCF.of({k: v / 2 for k, v in out.items()})


def frac_rounded(cf: FracCF, n: int) -> dict[str, int]:
    scale = 1 << n
    rounded = {k: (2 * v.numerator * scale + v.denominator) // (2 * v.denominator)
               for k, v in cf.components}
    residue = scale - sum(rounded.values())
    if residue and rounded:
        largest = max(rounded, key=lambda k: (rounded[k], k))
        rounded[largest] += residue
    return rounded


def frac_round_cf(cf: FracCF, n: int) -> FracCF:
    return FracCF.of({k: Fraction(v, 1 << n) for k, v in frac_rounded(cf, n).items()})


def frac_ratio_str(cf: FracCF, reagents: tuple[str, ...], n: int) -> str:
    rounded = frac_rounded(cf, n)
    nums = [rounded.get(r, 0) for r in reagents]
    g = gcd(*nums) if any(nums) else 1
    return "(" + ":".join(str(v // max(g, 1)) for v in nums) + ")"


def frac_key(cf: FracCF, n: int):
    return tuple(sorted((k, v) for k, v in frac_rounded(cf, n).items() if v))


def as_frac(cf: CFVector) -> FracCF:
    return FracCF.of(fractions_of(cf))


def test_cf_arithmetic_matches_fraction_oracle():
    rng = random.Random(20240)
    deep = 0
    for case in range(60):
        reagents = tuple(f"R{i}" for i in range(rng.randrange(2, 6)))
        pool = [(CFVector.unit(r), FracCF.unit(r)) for r in reagents]
        for _ in range(rng.randrange(10, 60)):
            if rng.random() < 0.3:
                # extend a chain from the newest vector: exp grows past n
                (a, fa), (b, fb) = pool[-1], rng.choice(pool[:len(reagents)])
            else:
                # any two, older intermediates reused
                (a, fa), (b, fb) = rng.choice(pool), rng.choice(pool)
            pool.append((cf_mix(a, b), frac_mix(fa, fb)))
        for cf, frac in pool:
            assert as_frac(cf) == frac, case
            assert str(cf) == str(frac), case
            assert cf.exp == 0 or any(v % 2 for _, v in cf.nums), case     # normal form
            for n in range(1, 9):
                deep += cf.exp > n
                assert as_frac(round_cf(cf, n)) == frac_round_cf(frac, n), (case, n)
                assert str(round_cf(cf, n)) == str(frac_round_cf(frac, n)), (case, n)
                assert ratio_str(cf, reagents, n) == frac_ratio_str(frac, reagents, n)
                assert _cf_key(cf, n) == frac_key(frac, n), (case, n)
        # equal values compare and hash equal, whatever mix order built them
        by_value: dict[FracCF, CFVector] = {}
        for cf, frac in pool:
            first = by_value.setdefault(frac, cf)
            assert first == cf and hash(first) == hash(cf), case
        assert len(set(cf for cf, _ in pool)) == len(by_value), case
    assert deep > 1000


def test_equal_vectors_from_different_mix_orders():
    A, C, D = (CFVector.unit(r) for r in "ACD")
    left = cf_mix(cf_mix(A, B), cf_mix(C, D))
    right = cf_mix(cf_mix(D, B), cf_mix(C, A))
    assert left == right and hash(left) == hash(right)
    assert str(left) == "{A:1/4, B:1/4, C:1/4, D:1/4}"
    # a diluted chain mixed with itself reduces back to the same vector
    chain = B
    for _ in range(12):
        chain = cf_mix(chain, S)
    assert cf_mix(chain, chain) == chain and chain.exp == 12
    assert str(cf_mix(S, S)) == "{S:1}" and cf_mix(S, S) == S


def test_parse_input_sg_threeway():
    sg = parse_input_sg(load("threeway.sg"))
    assert len(sg.nodes) == 7
    assert sg.reagents == ("R1", "R2", "R3")
    assert fractions_of(sg.nodes["M3"].cf)["R2"] == Fraction(1, 2)
    assert [fractions_of(cf)["R2"] for cf in sg.terminal_cfs(OUTPUT)] == [Fraction(1, 2)]


def test_parse_input_sg_minimal_and_errors():
    two = parse_input_sg("reagents S\nnode S dispense S\nnode O output\nedge S O\n")
    assert len(two.nodes) == 2
    with pytest.raises(BadArity):
        parse_input_sg("reagents S\nnode S dispense S\nnode M mix 3\nedge S M\n")
    cyc = ("reagents S\nnode S dispense S\nnode M mix 3\nnode N mix 3\n"
           "edge S M\nedge N M\nedge M N\nedge M N\n")
    with pytest.raises(CycleDetected):
        parse_input_sg(cyc)


def test_parse_input_sg_refuses_a_second_reagents_header():
    # the second header is blamed, not the node line that it would break
    for second in ("reagents S B", "reagents X"):
        with pytest.raises(ParseError, match="duplicate reagents declaration") as err:
            parse_input_sg(f"reagents S B\n{second}\nnode S dispense S\n"
                           "node O output\nedge S O\n")
        assert err.value.line == 2


def test_parse_input_sg_twowaymix_shape():
    sg = parse_input_sg(load("twowaymix.sg"))
    assert {n.kind for n in sg.nodes.values()} == {"dispense", MIX, WASTE, OUTPUT}
    assert len([n for n in sg.nodes.values() if n.kind == MIX]) == 2
    assert preds(sg, "W") == ["M1"]
    assert topo_order(sg) == ["S", "B", "M1", "W", "M2", "O"]


def test_reconstruct_twowaymix_matches_expected_graph():
    trace, report = verify_program(parse_program(load("twowaymix.dmf")))
    assert report.ok
    sg = reconstruct(trace)
    v1, v2 = sg.nodes["v1"], sg.nodes["v2"]
    assert (v1.t_s, v1.t_e) == (4, 17) and fractions_of(v1.cf)["S"] == Fraction(1, 2)
    assert (v2.t_s, v2.t_e) == (20, 33) and fractions_of(v2.cf)["S"] == Fraction(1, 4)
    assert sorted(sg.edges) == sorted([("S", "v1"), ("B", "v1"), ("v1", "W"),
                                       ("v1", "v2"), ("B", "v2"), ("v2", "O")])


def test_reconstruct_no_mix_trace():
    prog = parse_program("dim(3,3)\naccuracy 2\nR(1,1,S) O(1,3)\n"
                         "1 d(1,1)\n2 m([1,1]->[1,2])\n3 m([1,2]->[1,3])\n"
                         "4 output(1,3)\n5 end\n")
    trace, report = verify_program(prog)
    assert report.ok
    sg = reconstruct(trace)
    assert set(sg.nodes) == {"S", "O"}
    assert sg.edges == [("S", "O")]


def test_reconstruct_pcr_uniform_tree():
    trace, report = verify_program(parse_program(load("pcr.dmf")))
    assert report.ok
    sg = reconstruct(trace)
    mixes = [n for n in sg.nodes.values() if n.kind == MIX]
    assert len(mixes) == 7
    final = sg.nodes["v7"]
    assert all(fractions_of(final.cf)[f"R{k}"] == Fraction(1, 8) for k in range(1, 9))
    for nid in sg.nodes:
        if sg.nodes[nid].kind == MIX:
            assert len(preds(sg, nid)) == 2
    topo_order(sg)  # acyclic


def test_reconstruct_refuses_a_mix_of_a_droplet_never_dispensed():
    # a forged trace: the engine records a dispense before any mix of its droplet
    trace = Trace(("S", "B"), [
        chip.Dispensed(1, "S", Loc(1, 1), S),
        chip.MixCompleted(6, "v1", Loc(2, 2), Loc(2, 3), 1, 6, ("S", "B"), cf_mix(S, B))])
    with pytest.raises(OrphanDroplet, match="^edge B->v1 references an unknown node$"):
        reconstruct(trace)


def _hand_built(nodes, edges) -> SeqGraph:
    """A graph built node by node, without the checks of ``parse_input_sg``."""
    sg = SeqGraph(("S", "B"))
    for node in nodes:
        sg.add_node(node)
    for src, dst in edges:
        sg.add_edge(src, dst)
    return sg


def test_conformance_refuses_a_mix_without_two_concentrations():
    source, mix, out = SGNode("S", DISPENSE, reagent="S"), SGNode("M", MIX), SGNode("O", OUTPUT)
    one_input = _hand_built([source, mix, out], [("S", "M"), ("M", "O")])
    with pytest.raises(BadArity, match="^mix node 'M' has in-degree 1, needs 2$"):
        conformance(one_input, one_input, 2)
    from_waste = _hand_built([source, SGNode("W", WASTE), mix, out],
                             [("S", "W"), ("W", "M"), ("S", "M"), ("M", "O")])
    with pytest.raises(BadArity, match="^mix node 'M' fed by a node without a concentration$"):
        conformance(from_waste, from_waste, 2)


def test_conformance_of_two_spec_graphs_checks_no_mixing_time():
    # a spec graph has no realized windows, so no mix is too short or too long
    spec, shorter = parse_input_sg(load("twowaymix.sg")), parse_input_sg(load("twowaymix.sg"))
    shorter.nodes["M1"].t_mix = 1
    report = conformance(spec, shorter, 5)
    assert report.ok and not report.notes


def test_conformance_reflexive_and_relabeling_invariant():
    trace, _ = verify_program(parse_program(load("twowaymix.dmf")))
    sg = reconstruct(trace)
    assert conformance(sg, sg, 5).ok
    relabeled = SeqGraph(sg.reagents)
    mapping = {nid: f"x{i}" for i, nid in enumerate(sg.nodes)}
    for nid, node in reversed(list(sg.nodes.items())):
        clone = SGNode(mapping[nid], node.kind, node.reagent, node.t_mix,
                       node.t_s, node.t_e, node.cf)
        relabeled.nodes[clone.id] = clone
    for a, b in reversed(sg.edges):
        relabeled.edges.append((mapping[a], mapping[b]))
    assert conformance(sg, relabeled, 5).ok


def test_conformance_twowaymix_against_spec_graph():
    trace, _ = verify_program(parse_program(load("twowaymix.dmf")))
    sg = reconstruct(trace)
    input_sg = parse_input_sg(load("twowaymix.sg"))
    report = conformance(input_sg, sg, 5)
    assert report.ok, report.violations


def test_conformance_flags_wrong_ratio_and_short_mix():
    trace, _ = verify_program(parse_program(load("threeway_bad.dmf")))
    sg = reconstruct(trace)
    input_sg = parse_input_sg(load("threeway.sg"))
    report = conformance(input_sg, sg, 2)
    codes = [v.code for v in report.violations]
    assert Code.E6 in codes and Code.E7 in codes
    e7_details = " | ".join(v.detail for v in report.violations if v.code is Code.E7)
    assert "(1:1:2) produced, (1:2:1) specified" in e7_details
    e6 = next(v for v in report.violations if v.code is Code.E6)
    assert "6 < 12" in e6.detail
    assert e6.response == "Inhomogeneous mixing"


def test_longer_mixing_passes_with_note():
    input_sg = parse_input_sg(load("twowaymix.sg"))
    trace, _ = verify_program(parse_program(load("twowaymix.dmf")))
    sg = reconstruct(trace)
    input_sg.nodes["M1"].t_mix = 10   # spec asks for less than realized
    report = conformance(input_sg, sg, 5)
    assert report.ok
    assert any("12 > 10" in n for n in report.notes)


def test_ignore_waste_relaxation():
    trace, _ = verify_program(parse_program(load("twowaymix.dmf")))
    sg = reconstruct(trace)
    input_sg = parse_input_sg(
        "reagents S B\nnode S dispense S\nnode B dispense B\n"
        "node M1 mix 12\nnode M2 mix 12\nnode O output\n"
        "edge S M1\nedge B M1\nedge M1 M2\nedge B M2\nedge M2 O\n")
    strict = conformance(input_sg, sg, 5)
    assert not strict.ok          # realized graph wastes a droplet, spec doesn't
    relaxed = conformance(input_sg, sg, 5, ignore_waste=True)
    assert relaxed.ok, relaxed.violations


# --- random mix trees vs a brute-force level matcher -----------------------------

def _random_tree(rng: random.Random) -> SeqGraph:
    sg = SeqGraph(("A", "B", "C"))
    for name in sg.reagents:
        sg.add_node(SGNode(name, "dispense", reagent=name))
    frontier = list(sg.reagents)
    for i in range(rng.randrange(1, 5)):
        a, b = rng.sample(frontier, 2) if len(frontier) >= 2 else (frontier[0],) * 2
        nid = f"m{i}"
        sg.add_node(SGNode(nid, MIX, t_mix=4, t_s=1, t_e=6))
        sg.add_edge(a, nid)
        sg.add_edge(b, nid)
        frontier.append(nid)
    sink = frontier[-1]
    sg.add_node(SGNode("O", OUTPUT))
    sg.add_edge(sink, "O")
    return sg


def _brute_force_conforms(left: SeqGraph, right: SeqGraph, n: int) -> bool:
    from itertools import permutations

    from dmfv.graph import _signature

    def sig(sg, nid):
        cfs = {k: node.cf for k, node in sg.nodes.items()}
        return _signature(nid, sg.nodes[nid].kind, cfs, {nid: preds(sg, nid)}, n)

    annotate_cfs(left)
    annotate_cfs(right)
    dl, dr = depths(left), depths(right)
    for depth in set(dl.values()) | set(dr.values()):
        for kind in ("dispense", MIX, OUTPUT, WASTE):
            a = sorted(sig(left, nid) for nid, d in dl.items()
                       if d == depth and left.nodes[nid].kind == kind)
            b_ids = [nid for nid, d in dr.items()
                     if d == depth and right.nodes[nid].kind == kind]
            if len(a) != len(b_ids):
                return False
            matched = any(
                a == sorted(sig(right, nid) for nid in perm)
                for perm in permutations(b_ids))
            if b_ids and not matched:
                return False
            if not b_ids and a:
                return False
    return True


def test_conformance_matches_bruteforce_matcher():
    rng = random.Random(62025)
    agree = checked = 0
    while checked < 120:
        left = _random_tree(rng)
        right = _random_tree(rng)
        if rng.random() < 0.4:
            right = left
        mine = not any(v.code is Code.E7
                       for v in conformance(left, right, 5).violations)
        brute = _brute_force_conforms(left, right, 5)
        assert mine == brute
        agree += mine == brute
        checked += 1
    assert agree == checked


def test_to_dot_contains_windows_and_ratios():
    trace, _ = verify_program(parse_program(load("twowaymix.dmf")))
    sg = reconstruct(trace)
    dot = to_dot(sg, n=5)
    assert '"v1" -> "v2"' in dot
    assert "[4,17]" in dot and "[20,33]" in dot


def test_conformance_leaves_its_graphs_unannotated():
    rng = random.Random(4711)
    for _ in range(40):
        left, right = _random_tree(rng), _random_tree(rng)
        report = conformance(left, right, 3)
        assert all(node.cf is None for sg in (left, right) for node in sg.nodes.values())
        annotated = [copy.deepcopy(sg) for sg in (left, right)]
        for sg in annotated:
            annotate_cfs(sg)
        again = conformance(*annotated, 3)
        assert (report.violations, report.notes) == (again.violations, again.notes)


# --- level-order conformance as first written: the oracle ----------------------
# Depths and concentrations by edge scans, each level rescanned for each kind,
# spec ids matched by a first-match scan, rounding in Fractions.

def _oracle_round_key(cf: FracCF, n: int):
    scale = 1 << n
    rounded = {}
    for k, v in cf.components:
        num, den = (v * scale).numerator, (v * scale).denominator
        rounded[k] = (2 * num + den) // (2 * den)
    residue = scale - sum(rounded.values())
    if residue and rounded:
        largest = max(rounded, key=lambda k: (rounded[k], k))
        rounded[largest] += residue
    exact = FracCF.of({k: Fraction(v, scale) for k, v in rounded.items()})
    return exact, tuple((k, int(v * scale)) for k, v in exact.components)


def _oracle_annotate(sg: SeqGraph) -> None:
    """Concentrations in Fractions: recorded ones converted, the rest mixed."""
    def cf(nid):
        node = sg.nodes[nid]
        if node.kind == "dispense":
            node.cf = FracCF.unit(node.reagent)
        elif isinstance(node.cf, CFVector):
            node.cf = as_frac(node.cf)
        elif node.kind == MIX and node.cf is None:
            a, b = preds(sg, nid)
            node.cf = frac_mix(cf(a), cf(b))
        return node.cf
    for nid in sg.nodes:
        cf(nid)


def _oracle_depths(sg: SeqGraph) -> dict:
    depth = {}

    def d(nid):
        if nid not in depth:
            ps = preds(sg, nid)
            depth[nid] = 1 if not ps else 1 + max(d(p) for p in ps)
        return depth[nid]
    for nid in sg.nodes:
        d(nid)
    return depth


def _oracle_signature(sg, nid, n):
    node = sg.nodes[nid]
    if node.kind in (OUTPUT, WASTE):
        return (node.kind, tuple(sorted(_oracle_round_key(sg.nodes[p].cf, n)[1]
                                        for p in preds(sg, nid) if sg.nodes[p].cf is not None)))
    return (node.kind, _oracle_round_key(node.cf, n)[1] if node.cf is not None else ())


def _oracle_describe(sg, nid, reagents, n):
    def ratio(cf):
        nums = [int(_oracle_round_key(cf, n)[0].get(r) * (1 << n)) for r in reagents]
        g = gcd(*nums) if any(nums) else 1
        return "(" + ":".join(str(v // max(g, 1)) for v in nums) + ")"
    node = sg.nodes[nid]
    if node.kind in (OUTPUT, WASTE):
        ratios = sorted(ratio(sg.nodes[p].cf) for p in preds(sg, nid)
                        if sg.nodes[p].cf is not None)
        return " + ".join(ratios) if ratios else "(empty)"
    return ratio(node.cf) if node.cf is not None else "(none)"


def _oracle_conformance(input_sg, synth_sg, n, ignore_waste=False) -> Report:
    report = Report()
    reagents = input_sg.reagents or synth_sg.reagents
    if set(input_sg.reagents) != set(synth_sg.reagents) and input_sg.reagents and synth_sg.reagents:
        report.violations.append(Violation(
            Code.E7, "Incorrect realization of input sequencing graph",
            detail=f"reagent universes differ: specified {sorted(input_sg.reagents)}, "
                   f"realized {sorted(synth_sg.reagents)}"))
        return report
    _oracle_annotate(input_sg)
    _oracle_annotate(synth_sg)
    d_in, d_sy = _oracle_depths(input_sg), _oracle_depths(synth_sg)
    kinds = ["dispense", MIX, OUTPUT] + ([] if ignore_waste else [WASTE])
    for depth in sorted(set(d_in.values()) | set(d_sy.values())):
        for kind in kinds:
            spec_ids = sorted(nid for nid, d in d_in.items()
                              if d == depth and input_sg.nodes[nid].kind == kind)
            real_ids = sorted(nid for nid, d in d_sy.items()
                              if d == depth and synth_sg.nodes[nid].kind == kind)
            if not spec_ids and not real_ids:
                continue
            if len(spec_ids) != len(real_ids):
                report.violations.append(Violation(
                    Code.E7, "Incorrect realization of input sequencing graph",
                    detail=f"depth {depth}: specified {len(spec_ids)} {kind} node(s), "
                           f"realized {len(real_ids)}"))
            unmatched_spec = list(spec_ids)
            matched, leftovers = [], []
            for rid in real_ids:
                sig = _oracle_signature(synth_sg, rid, n)
                hit = next((sid for sid in unmatched_spec
                            if _oracle_signature(input_sg, sid, n) == sig), None)
                if hit is None:
                    leftovers.append(rid)
                else:
                    unmatched_spec.remove(hit)
                    matched.append((hit, rid))
            for sid, rid in matched:
                if kind == MIX:
                    _duration_check(input_sg.nodes[sid], synth_sg.nodes[rid], report)
            for rid, sid in zip(sorted(leftovers), sorted(unmatched_spec)):
                report.violations.append(Violation(
                    Code.E7, "Incorrect realization of input sequencing graph",
                    detail=f"ratio {_oracle_describe(synth_sg, rid, reagents, n)} produced, "
                           f"{_oracle_describe(input_sg, sid, reagents, n)} specified"))
                if kind == MIX:
                    _duration_check(input_sg.nodes[sid], synth_sg.nodes[rid], report)
    return report


def _random_dag(rng: random.Random, reagents: tuple[str, ...]) -> SeqGraph:
    """A spec graph: dispenses (a reagent may have two), mixes of any two
    earlier non-sink nodes (the same one twice makes a repeated edge), and an
    output and a waste sink fed by many nodes."""
    sg = SeqGraph(reagents)
    pool = []
    for i, r in enumerate(reagents + tuple(rng.sample(reagents, rng.randrange(2)))):
        pool.append(sg.add_node(SGNode(f"{r}{i}", "dispense", reagent=r)).id)
    for i in range(rng.randrange(1, 14)):
        # bias toward recent nodes for depth, but reuse older intermediates too
        a, b = (pool[-1 - min(int(rng.expovariate(0.4)), len(pool) - 1)] for _ in "ab")
        nid = sg.add_node(SGNode(f"m{i:02d}", MIX, t_mix=rng.randrange(1, 6))).id
        sg.add_edge(a, nid)
        sg.add_edge(b, nid)
        pool.append(nid)
    sg.add_node(SGNode("O", OUTPUT))
    sg.add_edge(pool[-1], "O")
    for p in rng.sample(pool, rng.randrange(0, len(pool) // 2)):
        sg.add_edge(p, "O")
    if rng.random() < 0.7:
        sg.add_node(SGNode("W", WASTE))
        for p in rng.sample(pool, rng.randrange(1, len(pool))):
            for _ in range(rng.randrange(1, 3)):
                sg.add_edge(p, "W")
    return sg


def _realize(rng: random.Random, spec: SeqGraph, mutation: str | None = None,
             drift=(0, 0, 0, -1, 1, 2)) -> SeqGraph:
    """A realized graph for spec under fresh ids, with one mutation (drawn
    unless given) or none, each mix mixed for its specified time plus a
    draw from ``drift``.  Some carry concentrations, as reconstructed graphs
    do, some recorded before the mutation; the rest leave them to
    conformance."""
    ids = list(spec.nodes)
    order = topo_order(spec)
    mapping = {nid: f"v{i:02d}" for i, nid in enumerate(rng.sample(ids, len(ids)))}
    nodes = {mapping[nid]: SGNode(mapping[nid], node.kind, node.reagent)
             for nid, node in spec.nodes.items()}
    edges = [(mapping[a], mapping[b]) for a, b in spec.edges]
    mixes = [mapping[nid] for nid in order if spec.nodes[nid].kind == MIX]
    for nid in spec.nodes:
        if spec.nodes[nid].kind == MIX:
            t_s = rng.randrange(1, 50)
            dur = spec.nodes[nid].t_mix + rng.choice(drift)
            nodes[mapping[nid]].t_s, nodes[mapping[nid]].t_e = t_s, t_s + dur + 1
    rng.shuffle(edges)          # realized edges come in event order
    real = SeqGraph(spec.reagents, nodes, edges)
    annotate = rng.random()
    if annotate < 0.3:          # concentrations recorded before the mutation
        annotate_cfs(real)
    if mutation is None:
        mutation = rng.choice(("none", "none", "reagent", "rewire", "add", "drop", "window"))
    if mutation == "feed":
        # one mix takes its feed from a dispense of another reagent
        feeds = [k for k, (a, b) in enumerate(edges)
                 if b in mixes and nodes[a].kind == "dispense"]
        k = rng.choice(feeds)
        other = [n for n in nodes if nodes[n].kind == "dispense"
                 and nodes[n].reagent != nodes[edges[k][0]].reagent]
        edges[k] = (rng.choice(other), edges[k][1])
    elif mutation == "reagent":
        src = rng.choice([n for n in nodes.values() if n.kind == "dispense"])
        src.reagent = rng.choice([r for r in spec.reagents if r != src.reagent])
    elif mutation == "rewire":
        i = rng.randrange(len(mixes))
        target = mixes[i]
        idx = rng.choice([k for k, (_, d) in enumerate(edges) if d == target])
        sources = [n for n in nodes if nodes[n].kind == "dispense"] + mixes[:i]
        edges[idx] = (rng.choice(sources), target)
    elif mutation == "add":
        a, b = (rng.choice([n for n in nodes if nodes[n].kind in ("dispense", MIX)])
                for _ in "ab")
        nodes["vx"] = SGNode("vx", MIX, t_s=3, t_e=3 + rng.randrange(1, 7))
        sink = rng.choice([n for n in nodes if nodes[n].kind in (OUTPUT, WASTE)])
        edges += [(a, "vx"), (b, "vx"), ("vx", sink)]
    elif mutation == "drop":
        gone = rng.choice(mixes)
        first = next(a for a, b in edges if b == gone)
        edges = [(first if a == gone else a, b) for a, b in edges if b != gone]
        del nodes[gone]
    elif mutation == "window":
        node = nodes[rng.choice(mixes)]
        node.t_e += rng.choice((-2, -1, 1, 3))
    real.edges = edges
    if 0.3 <= annotate < 0.7:
        annotate_cfs(real)
    return real


def _dilution_chain(rng: random.Random, mixes: int) -> SeqGraph:
    """A spec graph of the serial-dilution shape: the first mix takes both
    reagents, each later mix the one before it and a reagent, and each mix
    sends one half to the waste or the output; the last sends both."""
    sg = SeqGraph(("S", "B"))
    for node in (SGNode("S", "dispense", reagent="S"), SGNode("B", "dispense", reagent="B"),
                 SGNode("W", WASTE), SGNode("O", OUTPUT)):
        sg.add_node(node)
    prev = "S"
    for i in range(1, mixes + 1):
        nid = sg.add_node(SGNode(f"M{i}", MIX, t_mix=rng.randint(1, 3))).id
        sg.add_edge(prev, nid)
        sg.add_edge("B" if i == 1 else rng.choice("SB"), nid)
        sg.add_edge(nid, rng.choice("WWO"))
        prev = nid
    sg.add_edge(prev, "W")
    return sg


def _blurred(rng: random.Random, spec: SeqGraph, n: int) -> SeqGraph:
    """A faithful realization of spec whose mixes record concentrations
    that differ from the specified ones, some by less than accuracy n
    shows: each of some mixes records its vector moved 2^-k of the way to a
    reagent, for k from n - 1 to n + 3."""
    real = _realize(rng, spec, "none", drift=(0,))
    annotate_cfs(real)
    for node in real.nodes.values():
        if node.kind == MIX and rng.random() < 0.5:
            blur = CFVector.unit(rng.choice(spec.reagents))
            for _ in range(rng.randint(max(n - 1, 1), n + 3)):
                blur = cf_mix(node.cf, blur)
            node.cf = blur
    return real


def _conformance_corpus(rng: random.Random):
    """(spec, realized, accuracy, ignore_waste) cases: random DAGs with one
    mutation or none, at accuracy 1 to 8; serial-dilution chains of 50 to
    300 mixes, faithful or with a short mix (e6), a swapped feed (e7) or a
    rewired input, whose deep levels differ by less than the accuracy;
    and random DAGs at accuracy 1 to 3 whose recorded concentrations differ
    from the specified ones, some by less than the accuracy shows."""
    for _ in range(400):
        reagents = ("A", "B", "C", "D")[:rng.randrange(2, 5)]
        spec = _random_dag(rng, reagents)
        real = _realize(rng, spec)
        if rng.random() < 0.05:
            real.reagents = reagents[:-1] + ("Z",)
        if rng.random() < 0.5:
            annotate_cfs(spec)
        yield spec, real, rng.randrange(1, 9), rng.random() < 0.3
    for mutation in ("none", "window", "feed", "rewire") * 3:
        spec = _dilution_chain(rng, rng.randint(50, 300))
        real = _realize(rng, spec, mutation, drift=(0,))
        yield spec, real, rng.choice((1, 2, 3, 8)), rng.random() < 0.3
    for _ in range(100):
        spec = _random_dag(rng, ("A", "B", "C", "D")[:rng.randrange(2, 5)])
        n = rng.randint(1, 3)
        yield spec, _blurred(rng, spec, n), n, rng.random() < 0.3


def test_conformance_matches_level_order_oracle():
    seen_e6 = seen_e7 = seen_allowed = 0
    for case, (spec, real, n, ignore_waste) in enumerate(
            _conformance_corpus(random.Random(50321))):
        got = graph.conformance(spec, real, n, ignore_waste=ignore_waste)
        want = _oracle_conformance(copy.deepcopy(spec), copy.deepcopy(real), n,
                                   ignore_waste=ignore_waste)
        assert got.violations == want.violations, case
        assert got.notes == want.notes, case
        seen_e6 += any(v.code is Code.E6 for v in got.violations)
        seen_e7 += any(v.code is Code.E7 for v in got.violations)
        seen_allowed += any("(allowed)" in note for note in got.notes)
    assert seen_e6 and seen_e7 and seen_allowed


# Mutants of conformance's exact-first match, each of which the level-order
# oracle must catch: a 1:1 level matched whatever its values, a 1:1 level
# matched by exact values alone (no rounded fallback, so a difference that
# the accuracy hides reads as e7), and the 1:1 match applied to every level
# with as many nodes on each side, which pairs their first ids.
_EXACT_FIRST_MUTANTS = {
    "one-to-one always matches": ("or _signature(sid, kind, in_cfs, in_preds, n)",
                                  "or True or _signature(sid, kind, in_cfs, in_preds, n)"),
    "one-to-one never rounds": ("or _signature(sid, kind, in_cfs, in_preds, n)",
                                "and _signature(sid, kind, in_cfs, in_preds, n)"),
    "several nodes matched exact-first": ("if len(spec_ids) == 1 == len(real_ids):",
                                          "if spec_ids and len(spec_ids) == len(real_ids):"),
}


@pytest.mark.parametrize("name", sorted(_EXACT_FIRST_MUTANTS))
def test_level_order_oracle_catches_each_exact_first_mutant(monkeypatch, name):
    monkeypatch.setattr(graph, "conformance",
                        mutant(graph.conformance, *_EXACT_FIRST_MUTANTS[name]))
    with pytest.raises(AssertionError):
        test_conformance_matches_level_order_oracle()
