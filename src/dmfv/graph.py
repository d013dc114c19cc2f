"""Sequencing graphs, conformance checking, and the rounding and display of
concentration vectors, whose exact arithmetic (``CFVector``, ``cf_mix``)
lives in ``chip`` with the droplets that carry them.  Rounding to the
declared accuracy happens only here, never inside the arithmetic.

``SeqGraph.edges`` is the only record of a graph's wiring.  Each operation
that walks a graph builds its predecessor and successor lists once, in one
pass over the edges, so parsing, ordering, depths, concentration propagation
and conformance all cost O(V+E) (conformance adds a sort within each depth
level).
"""

from __future__ import annotations

from collections import deque
from math import gcd

from . import chip
from .chip import CFVector, cf_mix
from .diag import Code, Report, Violation
from .isa import DmfError, ParseError, Record, content_lines


class CycleDetected(DmfError):
    pass


class BadArity(DmfError):
    pass


class OrphanDroplet(DmfError):
    pass


# --- rounding and display of concentration vectors -----------------------------

def _rounded(cf: CFVector, n: int) -> dict[str, int]:
    """Numerators of cf's components over 2^n, each rounded half away from
    zero; the residue lands on the largest so they sum to exactly 2^n.
    Within the accuracy (``exp <= n``) the shift is exact and leaves none."""
    sh = cf.exp - n
    if sh <= 0:
        return {k: v << -sh for k, v in cf.nums}
    half = 1 << (sh - 1)
    rounded = {k: (v + half) >> sh for k, v in cf.nums}
    residue = (1 << n) - sum(rounded.values())
    if residue and rounded:
        largest = max(rounded, key=lambda k: (rounded[k], k))
        rounded[largest] += residue
    return rounded


def round_cf(cf: CFVector, n: int) -> CFVector:
    """Round each component to denominator 2^n; the residue lands on the
    largest component so the total stays exactly 1."""
    return CFVector.normal(tuple((k, v) for k, v in _rounded(cf, n).items() if v), n)


def ratio_str(cf: CFVector, reagents: tuple[str, ...], n: int) -> str:
    """Render as an integer ratio over the reagent order, gcd-reduced."""
    rounded = _rounded(cf, n)
    nums = [rounded.get(r, 0) for r in reagents]
    g = gcd(*nums) if any(nums) else 1
    return "(" + ":".join(str(v // max(g, 1)) for v in nums) + ")"


# --- sequencing graphs --------------------------------------------------------

DISPENSE, MIX, OUTPUT, WASTE = "dispense", "mix", "output", "waste"


class SGNode(Record):
    __slots__ = __match_args__ = ("id", "kind", "reagent", "t_mix", "t_s", "t_e", "cf")

    def __init__(self, id: str, kind: str, reagent: str | None = None,
                 t_mix: int | None = None, t_s: int | None = None, t_e: int | None = None,
                 cf: CFVector | None = None) -> None:
        self.id, self.kind, self.reagent = id, kind, reagent
        self.t_mix = t_mix          # specified duration (input graphs)
        self.t_s, self.t_e = t_s, t_e   # realized window (reconstructed graphs)
        self.cf = cf


class SeqGraph(Record):
    __slots__ = __match_args__ = ("reagents", "nodes", "edges")

    def __init__(self, reagents: tuple[str, ...] = (), nodes: dict[str, SGNode] | None = None,
                 edges: list[tuple[str, str]] | None = None) -> None:
        self.reagents = reagents
        self.nodes = {} if nodes is None else nodes
        self.edges = [] if edges is None else edges     # repeats = multiplicity

    def add_node(self, node: SGNode) -> SGNode:
        if node.id in self.nodes:
            raise BadArity(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        return node

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise OrphanDroplet(f"edge {src}->{dst} references an unknown node")
        self.edges.append((src, dst))

    def terminal_cfs(self, kind: str) -> list[CFVector]:
        """Concentrations arriving at output (or waste) nodes, one per edge."""
        preds, _ = _adjacency(self)
        out: list[CFVector] = []
        for nid, node in self.nodes.items():
            if node.kind != kind:
                continue
            for p in preds[nid]:
                cf = self.nodes[p].cf
                if cf is not None:
                    out.append(cf)
        return out


def _adjacency(sg: SeqGraph) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Predecessor and successor lists of every node, in edge order (repeated
    edges repeat), from one pass over ``sg.edges``."""
    preds: dict[str, list[str]] = {nid: [] for nid in sg.nodes}
    succs: dict[str, list[str]] = {nid: [] for nid in sg.nodes}
    for s, d in sg.edges:
        succs[s].append(d)
        preds[d].append(s)
    return preds, succs


def _topo(preds: dict[str, list[str]], succs: dict[str, list[str]]) -> list[str]:
    """Kahn's order: sources in node order, then FIFO as in-degrees reach 0."""
    indeg = {nid: len(ps) for nid, ps in preds.items()}
    queue = deque(nid for nid, deg in indeg.items() if deg == 0)
    order: list[str] = []
    while queue:
        nid = queue.popleft()
        order.append(nid)
        for d in succs[nid]:
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    if len(order) != len(preds):
        raise CycleDetected("sequencing graph has a cycle")
    return order


def _depths(order: list[str], preds: dict[str, list[str]]) -> dict[str, int]:
    depth: dict[str, int] = {}
    for nid in order:
        ps = preds[nid]
        depth[nid] = 1 if not ps else 1 + max(depth[p] for p in ps)
    return depth


def _concentrations(sg: SeqGraph, order: list[str],
                    preds: dict[str, list[str]]) -> dict[str, CFVector | None]:
    """Every node's concentration, leaving the nodes as they are: a dispense
    node's unit vector, a mix node's own ``cf`` or else the mix of its two
    predecessors', any other node's own ``cf``."""
    cfs: dict[str, CFVector | None] = {}
    for nid in order:
        node = sg.nodes[nid]
        if node.kind == DISPENSE:
            cfs[nid] = CFVector.unit(node.reagent)
        elif node.kind == MIX and node.cf is None:
            ps = preds[nid]
            if len(ps) != 2:
                raise BadArity(f"mix node {nid!r} has in-degree {len(ps)}, needs 2")
            ca, cb = cfs[ps[0]], cfs[ps[1]]
            if ca is None or cb is None:
                raise BadArity(f"mix node {nid!r} fed by a node without a concentration")
            cfs[nid] = cf_mix(ca, cb)
        else:
            cfs[nid] = node.cf
    return cfs


def parse_input_sg(text: str) -> SeqGraph:
    """Parse the .sg input-graph format.

    Line oriented: a ``reagents`` header fixing the component order, then
    ``node <id> dispense <reagent>`` | ``node <id> mix <t_mix>`` |
    ``node <id> output|waste`` and ``edge <from> <to>`` lines (repeated edges
    carry multiplicity).
    """
    sg = SeqGraph()
    pending_edges: list[tuple[str, str, int]] = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "reagents":
            if len(parts) < 2:
                raise ParseError("reagents header needs at least one name", lineno)
            if sg.reagents:
                raise ParseError("duplicate reagents declaration", lineno)
            sg.reagents = tuple(parts[1:])
        elif parts[0] == "node":
            if len(parts) < 3:
                raise ParseError("node line needs an id and a kind", lineno)
            nid, kind = parts[1], parts[2]
            if kind == DISPENSE:
                if len(parts) != 4:
                    raise ParseError("dispense node needs a reagent name", lineno)
                if parts[3] not in sg.reagents:
                    raise ParseError(f"reagent {parts[3]!r} not in reagents header", lineno)
                sg.add_node(SGNode(nid, DISPENSE, reagent=parts[3]))
            elif kind == MIX:
                if len(parts) != 4 or not parts[3].isdigit() or int(parts[3]) < 1:
                    raise ParseError("mix node needs a positive mixing time", lineno)
                sg.add_node(SGNode(nid, MIX, t_mix=int(parts[3])))
            elif kind in (OUTPUT, WASTE):
                sg.add_node(SGNode(nid, kind))
            else:
                raise ParseError(f"unknown node kind {kind!r}", lineno)
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ParseError("edge line needs a source and a target", lineno)
            pending_edges.append((parts[1], parts[2], lineno))
        else:
            raise ParseError(f"unrecognized line {line[:32]!r}", lineno)
    for src, dst, lineno in pending_edges:
        if src not in sg.nodes or dst not in sg.nodes:
            raise ParseError(f"edge {src}->{dst} references an unknown node", lineno)
        sg.edges.append((src, dst))

    preds, succs = _adjacency(sg)
    for nid, node in sg.nodes.items():
        if node.kind == DISPENSE and preds[nid]:
            raise BadArity(f"dispense node {nid!r} cannot have predecessors")
        if node.kind == MIX and len(preds[nid]) != 2:
            raise BadArity(f"mix node {nid!r} has in-degree {len(preds[nid])}, needs 2")
        if node.kind in (OUTPUT, WASTE):
            if succs[nid]:
                raise BadArity(f"{node.kind} node {nid!r} cannot have successors")
            if not preds[nid]:
                raise BadArity(f"{node.kind} node {nid!r} receives no droplets")
    order = _topo(preds, succs)  # raises CycleDetected
    for nid, cf in _concentrations(sg, order, preds).items():
        sg.nodes[nid].cf = cf
    return sg


def reconstruct(trace) -> SeqGraph:
    """Rebuild the realized sequencing graph from a violation-free trace.

    Dispense sources merge per reagent; every mix completion adds a node
    annotated with its window and concentration and two incoming edges;
    waste/output transports add edges into single W / O sink nodes.
    """
    sg = SeqGraph(reagents=tuple(trace.reagents))

    def ensure_source(reagent: str) -> None:
        if reagent not in sg.nodes:
            sg.add_node(SGNode(reagent, DISPENSE, reagent=reagent, cf=CFVector.unit(reagent)))

    def ensure_sink(nid: str, kind: str) -> None:
        if nid not in sg.nodes:
            sg.add_node(SGNode(nid, kind))

    for ev in trace.events:
        if isinstance(ev, chip.Dispensed):
            ensure_source(ev.node)
        elif isinstance(ev, chip.MixCompleted):
            sg.add_node(SGNode(ev.node, MIX, t_s=ev.t_s, t_e=ev.t_e, cf=ev.cf))
            for parent in ev.input_nodes:
                sg.add_edge(parent, ev.node)
        elif isinstance(ev, chip.Wasted):
            ensure_sink("W", WASTE)
            sg.add_edge(ev.node, "W")
        elif isinstance(ev, chip.Outputted):
            ensure_sink("O", OUTPUT)
            sg.add_edge(ev.node, "O")
    return sg


# --- conformance ---------------------------------------------------------------

def _cf_key(cf: CFVector, n: int) -> tuple[tuple[str, int], ...]:
    """cf's rounded numerators over 2^n, zeros dropped, in reagent order."""
    return tuple((k, v) for k, v in _rounded(cf, n).items() if v)


def _signature(sg: SeqGraph, nid: str, keys: dict[str, tuple | None],
               preds: dict[str, list[str]]):
    """A node's kind and rounded concentration; a sink's carries the sorted
    rounded concentrations it receives.  ``keys`` holds each node's
    ``_cf_key``, None without a concentration."""
    kind = sg.nodes[nid].kind
    if kind in (OUTPUT, WASTE):
        return (kind, tuple(sorted(keys[p] for p in preds[nid] if keys[p] is not None)))
    return (kind, keys[nid] if keys[nid] is not None else ())


def _describe(sg: SeqGraph, nid: str, reagents: tuple[str, ...], n: int,
              cfs: dict[str, CFVector | None], preds: dict[str, list[str]]) -> str:
    node = sg.nodes[nid]
    if node.kind in (OUTPUT, WASTE):
        ratios = sorted(ratio_str(cfs[p], reagents, n) for p in preds[nid]
                        if cfs[p] is not None)
        return " + ".join(ratios) if ratios else "(empty)"
    return ratio_str(cfs[nid], reagents, n) if cfs[nid] is not None else "(none)"


def _duration_check(spec_node: SGNode, real_node: SGNode, report: Report) -> None:
    spec, t_s, t_e = spec_node.t_mix, real_node.t_s, real_node.t_e
    if spec is None or t_s is None or t_e is None:
        return
    realized = t_e - t_s - 1     # the mixer holds its droplets on t_s+1 .. t_e-1
    if realized < spec:
        report.violations.append(Violation(
            Code.E6, "Inhomogeneous mixing",
            detail=f"{real_node.id} mixed for {realized} < {spec} time units"))
    elif realized > spec:
        report.notes.append(
            f"{real_node.id} mixed for {realized} > {spec} time units (allowed)")


def _levels(sg: SeqGraph):
    """Adjacency, concentrations and the (depth, kind) buckets of sg."""
    preds, succs = _adjacency(sg)
    order = _topo(preds, succs)
    cfs = _concentrations(sg, order, preds)
    depth = _depths(order, preds)
    levels: dict[tuple[int, str], list[str]] = {}
    for nid in order:
        levels.setdefault((depth[nid], sg.nodes[nid].kind), []).append(nid)
    return preds, cfs, levels


def conformance(input_sg: SeqGraph, synth_sg: SeqGraph, n: int, *,
                ignore_waste: bool = False) -> Report:
    """Level-order conformance of the realized graph against the input graph.

    Nodes are matched per depth and kind by (kind, rounded concentration)
    signature; mismatched signatures or counts raise e7, matched mixes whose
    realized window is shorter than the specified mixing time raise e6.
    Within a level, each realized node in id order takes the first spec node
    in id order with its signature; the leftovers are paired in id order.

    Pure: concentrations missing from either graph are computed on the side,
    and neither graph changes.  Costs O(V+E) plus a sort within each level.
    """
    report = Report()
    reagents = input_sg.reagents or synth_sg.reagents
    if set(input_sg.reagents) != set(synth_sg.reagents) and input_sg.reagents and synth_sg.reagents:
        report.violations.append(Violation(
            Code.E7, "Incorrect realization of input sequencing graph",
            detail=f"reagent universes differ: specified {sorted(input_sg.reagents)}, "
                   f"realized {sorted(synth_sg.reagents)}"))
        return report

    in_preds, in_cfs, in_levels = _levels(input_sg)
    sy_preds, sy_cfs, sy_levels = _levels(synth_sg)
    memo: dict[CFVector, tuple] = {}   # each distinct vector's key, once

    def cf_key(cf: CFVector) -> tuple:
        found = memo.get(cf)
        if found is None:
            found = memo[cf] = _cf_key(cf, n)
        return found

    def keys_of(cfs: dict[str, CFVector | None]) -> dict[str, tuple | None]:
        return {nid: None if cf is None else cf_key(cf) for nid, cf in cfs.items()}

    in_keys, sy_keys = keys_of(in_cfs), keys_of(sy_cfs)
    kinds = [DISPENSE, MIX, OUTPUT] + ([] if ignore_waste else [WASTE])
    rank = {kind: i for i, kind in enumerate(kinds)}
    levels = sorted({key for key in (*in_levels, *sy_levels) if key[1] in rank},
                    key=lambda key: (key[0], rank[key[1]]))

    for depth, kind in levels:
        spec_ids = sorted(in_levels.get((depth, kind), ()))
        real_ids = sorted(sy_levels.get((depth, kind), ()))
        if len(spec_ids) != len(real_ids):
            report.violations.append(Violation(
                Code.E7, "Incorrect realization of input sequencing graph",
                detail=f"depth {depth}: specified {len(spec_ids)} {kind} node(s), "
                       f"realized {len(real_ids)}"))
        # multiset match on signatures: spec ids queued per signature, in id order
        by_sig: dict[tuple, deque[str]] = {}
        for sid in spec_ids:
            by_sig.setdefault(_signature(input_sg, sid, in_keys, in_preds),
                              deque()).append(sid)
        matched: list[tuple[str, str]] = []
        leftovers: list[str] = []
        for rid in real_ids:
            queue = by_sig.get(_signature(synth_sg, rid, sy_keys, sy_preds))
            if queue:
                matched.append((queue.popleft(), rid))
            else:
                leftovers.append(rid)
        for sid, rid in matched:
            if kind == MIX:
                _duration_check(input_sg.nodes[sid], synth_sg.nodes[rid], report)
        # pair leftovers of the same kind for ratio evidence
        taken = {sid for sid, _ in matched}
        unmatched_spec = [sid for sid in spec_ids if sid not in taken]
        for rid, sid in zip(leftovers, unmatched_spec):
            report.violations.append(Violation(
                Code.E7, "Incorrect realization of input sequencing graph",
                detail=f"ratio {_describe(synth_sg, rid, reagents, n, sy_cfs, sy_preds)} "
                       f"produced, {_describe(input_sg, sid, reagents, n, in_cfs, in_preds)} "
                       f"specified"))
            if kind == MIX:
                _duration_check(input_sg.nodes[sid], synth_sg.nodes[rid], report)
    return report


def to_dot(sg: SeqGraph, n: int) -> str:
    """DOT rendering of a sequencing graph for external viewers; each
    concentration reads as a ratio rounded to accuracy n."""
    lines = ["digraph sg {", "  rankdir=TB;"]
    for nid, node in sg.nodes.items():
        label = nid
        if node.kind == MIX:
            window = f" [{node.t_s},{node.t_e}]" if node.t_s is not None else ""
            spec = f" t_mix={node.t_mix}" if node.t_mix is not None else ""
            label += f"\\nmix{spec}{window}"
        if node.cf is not None and sg.reagents:
            label += f"\\n{ratio_str(node.cf, sg.reagents, n)}"
        shape = "box" if node.kind == DISPENSE else "ellipse"
        lines.append(f'  "{nid}" [label="{label}", shape={shape}];')
    for src, dst in sg.edges:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
