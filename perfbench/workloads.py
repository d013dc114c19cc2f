"""Seeded program generators with answers known from construction.

Every generated case carries the verdict dmfv must return, derived from how
the program was laid out, never from running dmfv: the exit code, the code
and tick of the first primary violation, and for conditional programs the
labels of the failing execution paths.  A seeded minority of cases carries
exactly one planted fault whose outcome follows from one rule at one tick.

Each case also records the ticks its verdict covers (timed lines stepped,
summed over every execution path), counted here from the program layout.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

FAULT_SHARE = 0.25


@dataclass
class Case:
    name: str
    files: dict[str, str]            # suffix -> text; written next to each other
    flags: tuple[str, ...]           # extra `dmfv verify` flags
    expect: dict                     # verdict fields that must match (see run.verdict)
    ticks: int                       # timed lines the verdict covers, all paths
    shape: dict = field(default_factory=dict)
    fixture: dict[str, Path] | None = None   # anchor cases read the repo fixtures


def _mv(a, b) -> str:
    return f"m([{a[0]},{a[1]}]->[{b[0]},{b[1]}])"


def _d(a) -> str:
    return f"d({a[0]},{a[1]})"


def _program(rows, cols, decls, lines, recoveries=None, accuracy=5) -> str:
    out = [f"dim({rows},{cols})", f"accuracy {accuracy}", " ".join(decls)]
    out += [f"{t} " + " ".join(ins) for t, ins in sorted(lines.items()) if ins]
    for rid, block in (recoveries or {}).items():
        out.append(f"recovery {rid}:")
        out += [f"{t} " + " ".join(ins) for t, ins in sorted(block.items())]
        out.append("endrecovery")
    return "\n".join(out) + "\n"


def _stratified(rng: Random, n: int, lo: int, hi: int) -> list[int]:
    """n values evenly spaced over [lo, hi] in a seeded order: every seed gets
    the same size mix, so run-to-run differences come from the instances."""
    vals = [lo + (hi - lo + 1) * i // n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _mixed(rng: Random, n: int, weights: dict[int, int]) -> list[int]:
    """n values in the given whole-number proportions (n a multiple of their
    sum), in a seeded order."""
    unit = n // sum(weights.values())
    vals = [v for v, w in weights.items() for _ in range(w * unit)]
    rng.shuffle(vals)
    return vals


def _fault_plan(rng: Random, n: int, kinds: list[str]) -> list[str | None]:
    """Exactly round(n * FAULT_SHARE) faulty slots, kinds cycled, seeded order."""
    nf = round(n * FAULT_SHARE)
    plan = [kinds[i % len(kinds)] for i in range(nf)] + [None] * (n - nf)
    rng.shuffle(plan)
    return plan


# --- execution paths (splice rule as documented in README) --------------------

def splice_paths(main, recoveries):
    """Timelines of every execution path.

    ``main`` is a list of (t, key, recovery-id or None); a recovery id marks a
    conditional line.  ``recoveries`` maps ids to lists of (t, key).  Returns
    {label: [(t, key), ...]}: a taken branch inserts its block right after the
    conditional (gaps kept) and the main line resumes one tick after the block;
    a branch not taken lets the next line fire on the next tick.
    """
    conds = [rec for _, _, rec in main if rec is not None]
    paths = {}
    for mask in range(1 << len(conds)):
        taken = [bool((mask >> (len(conds) - 1 - i)) & 1) for i in range(len(conds))]
        label = "".join("1" if x else "0" for x in taken)
        out, delta, ci = [], 0, 0
        for idx, (t, key, rec) in enumerate(main):
            if rec is None:
                out.append((t + delta, key))
                continue
            tau = t + delta
            resume = tau
            if taken[ci]:
                block = recoveries[rec]
                out += [(tau + 1 + bt - block[0][0], bk) for bt, bk in block]
                resume = out[-1][0]
            if idx + 1 < len(main):
                delta = resume + 1 - main[idx + 1][0]
            ci += 1
        paths[label] = out
    return paths


def _path_ticks(path, fault_key=None) -> int:
    for i, (_, key) in enumerate(path):
        if key == fault_key:
            return i + 1
    return len(path)


def _shared_prefix_share(paths, fault_key=None) -> float:
    """Share of stepped path ticks that lie on a prefix an earlier path shares."""
    seen, total = set(), 0
    for path in paths.values():
        steps = path[:_path_ticks(path, fault_key)]
        total += len(steps)
        for i in range(len(steps)):
            seen.add(tuple(steps[:i + 1]))
    return 1 - len(seen) / total if total else 0.0


# --- anchors: README fixtures with the answers README states --------------------

_TIMED = re.compile(r"\s*(\d+)\s+(\S.*)$")


def _fixture_layout(text: str):
    main, recoveries, cur = [], {}, None
    for n, raw in enumerate(text.splitlines()):
        line = raw.split("#", 1)[0].strip()
        m = re.match(r"recovery\s+(\w+)\s*:$", line)
        if m:
            cur = recoveries.setdefault(m[1], [])
            continue
        if line == "endrecovery":
            cur = None
            continue
        m = _TIMED.match(line)
        if not m:
            continue
        if cur is not None:
            cur.append((int(m[1]), n))
        else:
            call = re.search(r"Recovery\(\s*(\w+)\s*\)", m[2])
            main.append((int(m[1]), n, call[1] if call else None))
    return main, recoveries


def _fixture_ticks(text: str, stop_t: int | None = None) -> int:
    main, recoveries = _fixture_layout(text)
    total = 0
    for path in splice_paths(main, recoveries).values():
        total += len([t for t, _ in path if stop_t is None or t <= stop_t])
    return total


def anchors(workload: str, fixtures: Path) -> list[Case]:
    def text(name):
        return (fixtures / name).read_text()

    if workload == "general-dense":
        # README: pcr passes, completing at t=34
        return [Case("anchor-pcr", {}, (), {"exit": 0, "first": None, "final_t": 34},
                     _fixture_ticks(text("pcr.dmf")), {"anchor": True},
                     {"dmf": fixtures / "pcr.dmf", "sg": fixtures / "pcr.sg"})]
    if workload == "assay-graph":
        # README: threeway_bad vs threeway.sg raises e7 and e6 (Phase II only)
        return [Case("anchor-threeway_bad", {}, (),
                     {"exit": 1, "codes": frozenset({"e6", "e7"})},
                     _fixture_ticks(text("threeway_bad.dmf")), {"anchor": True},
                     {"dmf": fixtures / "threeway_bad.dmf", "sg": fixtures / "threeway.sg"})]
    if workload == "cyber-paths":
        # README: recovery has 4 paths; the all-faulty path ends at t=69
        return [Case("anchor-recovery", {}, (),
                     {"exit": 0, "paths": 4, "path_ends": {"11": 69}, "failing": frozenset()},
                     _fixture_ticks(text("recovery.dmf")), {"anchor": True},
                     {"dmf": fixtures / "recovery.dmf", "sg": fixtures / "recovery.sg"})]
    if workload == "pin-shuttle":
        # README: mplex_pin1..3 each trigger one shared-pin failure class; the
        # class and tick are those of the error-injection schema they reproduce
        rows = [("mplex_pin1.pins", "pin-case2", 4), ("mplex_pin2.pins", "pin-case3", 53),
                ("mplex_pin3.pins", "pin-case3", 56)]
        return [Case(f"anchor-{name[:-5]}", {}, (),
                     {"exit": 1, "first": (code, t), "codes": frozenset({code})},
                     _fixture_ticks(text("mplex.dmf"), stop_t=t), {"anchor": True},
                     {"dmf": fixtures / "mplex.dmf", "pins": fixtures / name})
                for name, code, t in rows]
    raise KeyError(workload)


# --- general-dense: a lattice of k droplets that all move every tick -------------

_DIRS = {"R": (0, 1), "L": (0, -1), "D": (1, 0), "U": (-1, 0)}


def _lattice_walk(rng: Random, n: int, span_r: int, span_c: int, size: int):
    """Direction runs (length 2..6) keeping the lattice's top-left corner inside."""
    lo_r, hi_r, lo_c, hi_c = 2, size - 1 - span_r, 2, size - 1 - span_c
    r, c = (lo_r + hi_r) // 2, (lo_c + hi_c) // 2
    corners, dirs = [(r, c)], []
    while len(dirs) < n:
        d = rng.choice("RLDU")
        run = rng.randint(2, 6)
        dr, dc = _DIRS[d]
        if not (lo_r <= r + dr * run <= hi_r and lo_c <= c + dc * run <= hi_c):
            continue
        for _ in range(run):
            r, c = r + dr, c + dc
            dirs.append(d)
            corners.append((r, c))
    return dirs[:n], corners[:n + 1]


def general_dense(seed: int, smoke: bool) -> list[Case]:
    rng = Random(f"general-dense/{seed}")
    size, ticks = (20, 8) if smoke else (60, 40)
    n = 6 if smoke else 120
    ks = _stratified(rng, n, 4, 9) if smoke else _stratified(rng, n, 16, 144)
    faults = _fault_plan(rng, n, ["e1", "e2", "e3", "e4"])
    cases = []
    for idx, (k, fault) in enumerate(zip(ks, faults)):
        ncols = math.ceil(math.sqrt(k))
        nrows = math.ceil(k / ncols)
        offs = [(3 * (j // ncols), 3 * (j % ncols)) for j in range(k)]
        dirs, corners = _lattice_walk(rng, ticks, 3 * (nrows - 1), 3 * (ncols - 1), size)

        def pos(j, step):              # droplet j after `step` lattice moves
            return (corners[step][0] + offs[j][0], corners[step][1] + offs[j][1])

        start = [pos(j, 0) for j in range(k)]
        decls = [f"R({r},{c},X{j % 8})" for j, (r, c) in enumerate(start)]
        lines = {1: [_d(p) for p in start]}
        # droplet j's move at tick i+2 is the lattice move i; planted faults edit it
        moves = {j: [(pos(j, i), pos(j, i + 1)) for i in range(ticks)] for j in range(k)}
        expect = {"exit": 0, "first": None, "final_t": ticks + 2}
        extra: dict[int, str] = {}
        if fault:
            # fault move i (line t_f = i+2); e2 needs the same direction twice
            i = rng.randrange(1, ticks - 2)
            while fault == "e2" and dirs[i] != dirs[i + 1]:
                i = rng.randrange(1, ticks - 2)
            t_f = i + 2
            dr, dc = _DIRS[dirs[i]]
            occupied = {pos(j, i) for j in range(k)} | {pos(j, i + 1) for j in range(k)}
            if fault in ("e1", "e2"):
                # X has a droplet W behind it, three cells against the motion
                trailing = [j for j in range(k)
                            if (offs[j][0] - 3 * dr, offs[j][1] - 3 * dc) in offs]
                x = rng.choice(trailing)
                if fault == "e1":
                    # X reverses: it lands next to W, which closes in -> e1 at t_f
                    a = pos(x, i)
                    moves[x][i] = (a, (a[0] - dr, a[1] - dc))
                    moves[x][i + 1:] = [None] * (ticks - i - 1)
                    expect = {"exit": 1, "first": ("e1", t_f), "final_t": ticks + 2}
                else:
                    # X runs one tick late: at t_f+1 W's dynamic clearance meets X
                    moves[x] = moves[x][:i] + [None] + moves[x][i:-1]
                    expect = {"exit": 1, "first": ("e2", t_f + 1), "final_t": ticks + 2}
            else:
                cell = rng.choice([(r, c) for r in range(2, size)
                                   for c in range(2, size - 1)
                                   if (r, c) not in occupied and (r, c) not in start
                                   and (r, c + 1) not in occupied])
                # e3: dispense where no reservoir is; e4: move from an empty cell to
                # one no droplet claims this tick (a claimed target reads as e2)
                extra[t_f] = _d(cell) if fault == "e3" else _mv(cell, (cell[0], cell[1] + 1))
                expect = {"exit": 1, "first": (fault, t_f), "final_t": ticks + 2}
        for i in range(ticks):
            lines[i + 2] = [_mv(*moves[j][i]) for j in range(k) if moves[j][i]]
            if i + 2 in extra:
                lines[i + 2].append(extra[i + 2])
        lines[ticks + 2] = ["end"]
        text = _program(size, size, decls, lines)
        cases.append(Case(f"gd{idx:03d}", {"dmf": text}, ("--all",), expect, ticks + 2,
                          {"k": k, "fault": fault}))
    return cases


# --- pin-shuttle: parked droplets and shuttles on a pin-constrained 30x30 --------

def _pin_map(rng: Random, size: int, footprint: set, share: float) -> dict:
    """Dedicated pins on every droplet's footprint; off it, a `share` of the
    electrodes is wired to a few shared pins."""
    groups = rng.randint(1, 6)
    pins = {}
    for r in range(1, size + 1):
        for c in range(1, size + 1):
            if (r, c) not in footprint and rng.random() < share:
                pins[(r, c)] = 1000 + rng.randrange(groups)
            else:
                pins[(r, c)] = (r - 1) * size + c
    return pins


def _n4(p):
    r, c = p
    return [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]


def pin_shuttle(seed: int, smoke: bool) -> list[Case]:
    rng = Random(f"pin-shuttle/{seed}")
    size, ticks = 30, (8 if smoke else 30)
    n = 6 if smoke else 120
    lanes, parked_rows = [3, 9, 15, 21, 27], [6, 12, 18, 24]
    slots = [(r, c) for r in parked_rows for c in range(2, size + 1, 4)]
    ks = _stratified(rng, n, 4, 6) if smoke else _stratified(rng, n, 8, 20)
    shares = [(i + rng.random()) / n for i in range(n)]   # 0 = dedicated, 1 = heavily shared
    rng.shuffle(shares)
    faults = _fault_plan(rng, n, ["pin-case1", "pin-case2", "pin-case3"])
    cases = []
    for idx, (k, share, fault) in enumerate(zip(ks, shares, faults)):
        nsh = rng.randint(2, 3)
        parked = rng.sample(slots, k - nsh)
        tracks = []                 # per shuttle: its cell at each line 1..ticks+1
        for s, row in enumerate(rng.sample(lanes, nsh)):
            lo, hi = rng.randint(1, 6), rng.randint(size - 6, size)
            col, step, track = lo, 1, [(row, lo)]
            for _ in range(ticks):
                if s == 0 or rng.random() < 0.85:     # shuttle 0 never rests: no empty line
                    if not lo <= col + step <= hi:
                        step = -step
                    col += step
                track.append((row, col))
            tracks.append(track)
        positions = set(parked) | {p for tr in tracks for p in tr}
        footprint = positions | {q for p in positions for q in _n4(p)}
        pins = _pin_map(rng, size, footprint, share)
        expect = {"exit": 0, "first": None, "final_t": ticks + 2}
        covered = ticks + 2
        if fault:
            # (shuttle s, tick i): s enters a cell for the first time at line t = i+1
            firsts = [(s, i) for s, tr in enumerate(tracks) for i in range(2, ticks + 1)
                      if tr[i] != tr[i - 1] and tr[i] not in tr[:i]]
            if fault == "pin-case3":
                firsts = [(s, i) for s, i in firsts if any(
                    q != s and tracks[q][i] != tracks[q][i - 1] for q in range(nsh))]
            late = [(s, i) for s, i in firsts if i >= 2 * ticks // 3]
            s, i = rng.choice(late or firsts)   # late faults keep costs close to clean ones
            y = tracks[s][i]
            up, down = (y[0] - 1, y[1]), (y[0] + 1, y[1])
            if fault == "pin-case1":
                # two N4 cells of y share a fresh pin: split once s reaches y
                pins[up] = pins[down] = 9001
            elif fault == "pin-case2":
                # a cell beside y carries a parked droplet's pin: stretch at y
                pins[rng.choice([up, down])] = pins[rng.choice(parked)]
            else:
                # a cell beside shuttle q's old position carries y's pin while
                # q leaves it: only rule 3 (old neighborhood vs new cell) sees it
                q = rng.choice([q for q in range(nsh)
                                if q != s and tracks[q][i] != tracks[q][i - 1]])
                old = tracks[q][i - 1]
                pins[(old[0] + rng.choice((-1, 1)), old[1])] = pins[y]
            expect = {"exit": 1, "first": (fault, i + 1)}
            covered = i + 1
        decls = [f"R({r},{c},X{j % 6})"
                 for j, (r, c) in enumerate(parked + [tr[0] for tr in tracks])]
        lines = {1: [_d(p) for p in parked + [tr[0] for tr in tracks]]}
        for i in range(1, ticks + 1):
            lines[i + 1] = [_mv(tr[i - 1], tr[i]) for tr in tracks if tr[i] != tr[i - 1]]
        lines[ticks + 2] = ["end"]
        pin_text = "\n".join(" ".join(str(pins[(r, c)]) for c in range(1, size + 1))
                             for r in range(1, size + 1)) + "\n"
        counts: dict[int, int] = {}
        for p in pins.values():
            counts[p] = counts.get(p, 0) + 1
        shared = sum(1 for p in pins.values() if counts[p] > 1) / len(pins)
        cases.append(Case(f"ps{idx:03d}",
                          {"dmf": _program(size, size, decls, lines), "pins": pin_text},
                          (), expect, covered,
                          {"k": k, "pin_shared_share": shared, "fault": fault}))
    return cases


# --- cyber-paths: detector checkpoints with conditional recoveries ----------------

def cyber_paths(seed: int, smoke: bool) -> list[Case]:
    rng = Random(f"cyber-paths/{seed}")
    n = 6 if smoke else 120
    # c = 4:5:6:7 in the ratio 2:3:2:1 puts the median verdict inside the
    # c = 5 programs, not on the cost step between two values of c
    cs = _stratified(rng, n, 2, 3) if smoke else _mixed(rng, n, {4: 2, 5: 3, 6: 2, 7: 1})
    faults = _fault_plan(rng, n, ["rec-e4", "rec-e1", "rec-e7", "main-e4", "main-e3"])
    cases = []
    row = 8                                    # the product droplet's lane
    for idx, (c, fault) in enumerate(zip(cs, faults)):
        cols = 12 + 2 * c
        spots = sorted(rng.sample(range(9, cols - 1, 2), c))
        # faults sit in the later half, so failing paths still replay most ticks
        faulty = rng.randrange(c // 2, c) if fault and fault.startswith("rec") else None
        buffers = rng.sample(range(5, cols - 1, 3), rng.randint(1, 3))
        if fault == "rec-e1":
            buffers = [b for b in buffers if abs(b - spots[faulty]) >= 3] + [spots[faulty]]
        tm0 = rng.randint(2, 4)
        decls = [f"R({row},2,S)", f"R({row},5,B)", "W(10,2)", f"O({row},{cols})"]
        decls += [f"R(11,{b},B)" for b in buffers]
        lines: dict[int, list[str]] = {}
        main: list[tuple[int, str, str | None]] = []     # (t, key, recovery id)
        recoveries: dict[str, dict[int, list[str]]] = {}
        blocks: dict[str, list[tuple[int, str]]] = {}

        def emit(t, *ins, cond=None):
            lines[t] = list(ins)
            main.append((t, f"m{t}", cond))

        emit(1, _d((row, 2)), _d((row, 5)), *[_d((11, b)) for b in buffers])
        emit(2, f"mix([{row},2]<->[{row},5],{tm0},14)")
        t = 2 + tm0 + 1
        emit(t, _mv((row, 2), (9, 2)), _mv((row, 5), (row, 6)))
        emit(t + 1, _mv((9, 2), (10, 2)), _mv((row, 6), (row, 7)))
        emit(t + 2, "waste(10,2)", _mv((row, 7), (row, 8)))
        t, col = t + 3, 8
        fault_key = None
        end_col = cols - 1 if fault == "main-e3" else cols
        for i, spot in enumerate(spots):
            while col < spot:
                emit(t, _mv((row, col), (row, col + 1)))
                t, col = t + 1, col + 1
            dur = rng.randint(1, 3)
            rid = str(i + 1)
            decls.append(f"D(d{rid},{row},{spot},{dur})")
            emit(t, f"detect(d{rid})")
            t += dur
            emit(t, f"if(d{rid}) call Recovery({rid})", cond=rid)
            kind = fault if i == faulty else "detour"
            block: dict[int, list[str]] = {}
            b = t + 1
            if kind == "rec-e7":
                # dilute the product with a fresh B droplet: outputs change -> e7
                tm = rng.randint(1, 3)
                decls += [f"R(5,{spot},B)", f"W(4,{spot})"]
                block[b] = [_d((5, spot))]
                block[b + 1] = [f"mix([5,{spot}]<->[{row},{spot}],{tm},41)"]
                block[b + tm + 3] = [_mv((5, spot), (4, spot))]
                block[b + tm + 4] = [f"waste(4,{spot})"]
            else:
                # a detour up and back; rec-e1 heads down toward a buffer instead
                sign, h = (1, 2) if kind == "rec-e1" else (-1, rng.randint(1, 3))
                trip = [(row + sign * j, spot) for j in range(h + 1)]
                trip += trip[-2::-1]
                for j in range(len(trip) - 1):
                    block[b + j] = [_mv(trip[j], trip[j + 1])]
                if kind == "rec-e4":                    # the first move misses the droplet
                    block[b] = [_mv((row - 1, spot), (row - 2, spot))]
                    fault_key = f"r{rid}.{b}"
                if kind == "rec-e1":                    # second step lands by the buffer
                    fault_key = f"r{rid}.{b + 1}"
            recoveries[rid] = block
            blocks[rid] = [(bt, f"r{rid}.{bt}") for bt in sorted(block)]
            t = max(block) + 1
            if fault == "main-e4" and i == c - 1:
                # a move from a cell no droplet ever visits, in every path
                emit(t, _mv((row, spot), (row, spot + 1)), _mv((2, 3), (2, 4)))
                fault_key = f"m{t}"
                t, col = t + 1, spot + 1
        while col < end_col:
            emit(t, _mv((row, col), (row, col + 1)))
            t, col = t + 1, col + 1
        emit(t, f"output({row},{end_col})")
        if fault == "main-e3":
            fault_key = f"m{t}"
        emit(t + 1, "end")
        paths = splice_paths(main, blocks)
        labels = sorted(paths)
        if fault in ("main-e4", "main-e3"):
            failing = set(labels)
        elif fault:
            failing = {lb for lb in labels if lb[faulty] == "1"}
        else:
            failing = set()
        first = None
        if failing:
            lb = min(failing)
            code = {"rec-e4": "e4", "rec-e1": "e1", "rec-e7": "e7",
                    "main-e4": "e4", "main-e3": "e3"}[fault]
            tick = None if code == "e7" else next(
                pt for pt, key in paths[lb] if key == fault_key)
            first = (code, tick)
        expect = {"exit": 1 if failing else 0, "first": first, "failing": frozenset(failing),
                  "paths": len(labels)}
        if not failing:
            expect["final_t"] = max(p[-1][0] for p in paths.values())
        stop = None if fault == "rec-e7" else fault_key
        ticks = sum(_path_ticks(paths[lb], stop if lb in failing else None)
                    for lb in labels)
        sg = ("reagents S B\nnode S dispense S\nnode B dispense B\n"
              f"node M1 mix {tm0}\nnode W waste\nnode O output\n"
              "edge S M1\nedge B M1\nedge M1 W\nedge M1 O\n")
        cases.append(Case(f"cp{idx:03d}",
                          {"dmf": _program(12, cols, decls, lines, recoveries), "sg": sg},
                          (), expect, ticks,
                          {"c": c, "fault": fault,
                           "shared_prefix_share": _shared_prefix_share(paths, stop)}))
    return cases


# --- assay-graph: one 1x4 mixer realizing a long dilution graph -------------------

def assay_graph(seed: int, smoke: bool) -> list[Case]:
    rng = Random(f"assay-graph/{seed}")
    n = 6 if smoke else 100
    vs = _stratified(rng, n, 4, 8) if smoke else _stratified(rng, n, 100, 300)
    faults = _fault_plan(rng, n, ["e6", "e7", "e5", "e3"])
    A, B = (6, 4), (6, 7)
    feed = {"S": [(3, 7), (4, 7), (5, 7)], "B": [(9, 7), (8, 7), (7, 7)]}
    cases = []
    for idx, (V, fault) in enumerate(zip(vs, faults)):
        reagents = ["S", "B"] + [rng.choice("SB") for _ in range(V - 1)]  # feeds
        tms = [rng.randint(1, 3) for _ in range(V)]
        sinks = [rng.choice(("waste", "waste", "output")) for _ in range(V - 1)] + ["output"]
        real_reagents, real_tms = list(reagents), list(tms)
        # faulty mix (0-based) in the last third, so an early stop still costs most
        j = rng.randrange(max(2, 2 * V // 3), V) if fault else None
        if fault == "e6":
            tms[j] = max(tms[j], 2)
            real_tms[j] = tms[j] - 1                    # mixes one tick short
        if fault == "e7":
            # swapping the feed moves M(j+1)'s S share by exactly 1/2, which no
            # rounding hides, while both reagents stay in use (feeds 0 and 1)
            real_reagents[j + 1] = "B" if reagents[j + 1] == "S" else "S"
        lines: dict[int, list[str]] = {}

        def add(t, ins):
            lines.setdefault(t, []).append(ins)

        add(1, _d((3, 4)))
        add(1, _d(feed[real_reagents[1]][0]))
        for s in (2, 3, 4):
            add(s, _mv((s + 1, 4), (s + 2, 4)))
            path = feed[real_reagents[1]] + [B]
            add(s, _mv(path[s - 2], path[s - 1]))
        t = 5
        fault_t = None
        for m in range(V):
            add(t, f"mix([{A[0]},{A[1]}]<->[{B[0]},{B[1]}],{real_tms[m]},14)")
            te = t + real_tms[m] + 1
            add(te, _mv(B, (6, 8)))
            add(te + 1, _mv((6, 8), (6, 9)))
            if m == j and fault == "e3":
                add(te + 2, "output(6,9)")              # (6,9) is a waste cell
                fault_t = te + 2
            elif sinks[m] == "waste":
                add(te + 2, "waste(6,9)")
            else:
                add(te + 2, _mv((6, 9), (6, 10)))
                add(te + 3, "output(6,10)")
            if m == V - 1:
                add(te, _mv(A, (6, 3)))
                add(te + 1, "waste(6,3)")
                add(te + 4, "end")
                break
            if not (m + 1 == j and fault == "e5"):    # e5: the next feed never comes
                path = feed[real_reagents[m + 2]] + [B]
                add(te, _d(path[0]))
                for s in range(3):
                    add(te + 1 + s, _mv(path[s], path[s + 1]))
            t = te + 4
            if m + 1 == j and fault == "e5":
                fault_t = t
        stepped = sorted(lines)
        covered = len(stepped) if fault_t is None else stepped.index(fault_t) + 1
        # spec graph: M1 = mix(r0, r1); M(i) = mix(M(i-1), r(i)); B-side halves to sinks
        sg = ["reagents S B", "node S dispense S", "node B dispense B", "node W waste",
              "node O output"]
        sg += [f"node M{m + 1} mix {tms[m]}" for m in range(V)]
        sg += [f"edge {reagents[0]} M1", f"edge {reagents[1]} M1"]
        sg += [f"edge M{m} M{m + 1}\nedge {reagents[m + 1]} M{m + 1}" for m in range(1, V)]
        sg += [f"edge M{m + 1} {'W' if sinks[m] == 'waste' else 'O'}" for m in range(V)]
        sg.append(f"edge M{V} W")
        first = {"e6": ("e6", None), "e7": ("e7", None), "e5": ("e5", fault_t),
                 "e3": ("e3", fault_t)}.get(fault)
        expect = {"exit": 1 if fault else 0, "first": first}
        if not fault:
            expect["final_t"] = stepped[-1]
        decls = ["R(3,4,S)", "R(3,7,S)", "R(9,7,B)", "W(6,9)", "W(6,3)", "O(6,10)"]
        cases.append(Case(f"ag{idx:03d}",
                          {"dmf": _program(12, 12, decls, lines, accuracy=8),
                           "sg": "\n".join(sg) + "\n"},
                          (), expect, covered,
                          {"V": V, "lines": len(stepped), "fault": fault}))
    return cases


WORKLOADS = {
    "general-dense": general_dense,
    "pin-shuttle": pin_shuttle,
    "cyber-paths": cyber_paths,
    "assay-graph": assay_graph,
}


def build(workload: str, seed: int, smoke: bool, fixtures: Path) -> list[Case]:
    return WORKLOADS[workload](seed, smoke) + anchors(workload, fixtures)
