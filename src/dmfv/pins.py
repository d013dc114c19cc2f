"""Shared-control-pin rules for pin-constrained chips.

One physical pin may drive several electrodes, so actuating a cell for one
droplet can tug at another.  The rules decompose into per-droplet checks
(distinct pins around every droplet) and pairwise checks between the time-t
and time-t+1 positions of two droplets; a droplet that stays put is the
degenerate case with both positions equal.  Every pairwise rule tests a pin
of one droplet's cells against the N4 pins of the other, so each tick
indexes droplets by their own cells' pins and intersects every droplet's N4
pin set with that index.  A ``PinMap`` holds exactly the cells of its array,
so it reads N4 neighbourhoods off its own table; cells do not change during
a run, so it caches, for every cell it is asked about, the N4 cells, the
N4 pin set and whether Case 1 fails there.  The rules index ``PinMap.pin``
directly: the engine runs only a program whose every cell is on the array, and
``check_chip`` gives the map the chip's size.  A dispense looks its own pin
up in one per-tick index of the droplets' N4 pins.  Each rule returns its
``diag.Violation`` row, and ``pin_phase`` adds tick and instructions.

Check fast, explain slow: a tick of moves alone, with no active mixer,
first tries to prove with set tests over those caches that it has no row
(``_quiet``); on any doubt the full phase runs and words the rows.  The
engine hands ``pin_phase`` each line with what its passed instructions do
to droplets; this module reads no rule table and imports no engine.

Consequence wording: a shared pin on the cell directly behind a moving
droplet fights the destination electrode and strands it ("Droplet stuck on
(r,c)"); any other shared cell pulls the droplet sideways ("Droplet
stretch"); duplicated pins inside one neighborhood split it ("Unintentional
droplet split").  A row's consequence is its response.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, filterfalse, product
from operator import itemgetter

from .chip import ChipState
from .diag import Code, Violation
from .isa import ChipHeader, DmfError, Loc, Record, TimedLine, content_lines


class OutOfBounds(DmfError):
    """A remapped cell off the pin map's array."""


class PinMap(Record):
    __slots__ = ("rows", "cols", "pin", "_n4_pins", "_n4", "_split")
    __match_args__ = ("rows", "cols", "pin")

    def __init__(self, rows: int, cols: int, pin: dict[tuple[int, int], int]) -> None:
        self.rows, self.cols = rows, cols
        self.pin = pin      # (row, col) -> pin; Loc keys compare equal
        # per-cell caches, filled on first use; not part of the map's value
        self._n4_pins: dict[Loc, frozenset[int]] = {}
        self._n4: dict[Loc, frozenset[Loc]] = {}
        self._split: set[Loc] = set()
        # the one coverage check: the map's cells are exactly its array's
        order, cells = _cells(rows, cols)
        if pin.keys() != cells:
            missing = next(filterfalse(self.pin.__contains__, order), None)
            if missing is not None:
                raise DmfError(f"pin map is missing cell ({missing[0]},{missing[1]})")
            raise DmfError(f"pin map has cells off its {self.rows}x{self.cols} array")

    def check_chip(self, header: ChipHeader) -> None:
        """Raise DmfError unless the map covers exactly the chip's array."""
        if (self.rows, self.cols) != (header.rows, header.cols):
            raise DmfError(f"pin map is {self.rows}x{self.cols} but the chip "
                           f"is {header.rows}x{header.cols}")

    def n4(self, loc: Loc) -> frozenset[Loc]:
        """The on-array N4 cells of loc (cached)."""
        if loc not in self._n4:
            r, c = loc
            self._n4[loc] = frozenset(p for p in (Loc(r - 1, c), Loc(r + 1, c),
                                                  Loc(r, c - 1), Loc(r, c + 1)) if p in self.pin)
        return self._n4[loc]

    def n4_pins(self, loc: Loc) -> frozenset[int]:
        """Pins driving the N4 neighborhood of loc (cached); the map holds
        only on-array cells, so an off-array neighbour reads None.  A cell
        with fewer N4 pins than on-array N4 cells joins ``_split``, the
        cells asked about so far on which Case 1 fails."""
        pins = self._n4_pins.get(loc)
        if pins is None:
            r, c = loc
            near = [*map(self.pin.get, ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)))]
            pins = self._n4_pins[loc] = frozenset(near).difference((None,))
            if len(pins) < 4 - near.count(None):
                self._split.add(loc)
        return pins

    def with_remap(self, remap: dict[Loc, int]) -> "PinMap":
        new = dict(self.pin)
        for loc, p in remap.items():
            if loc not in new:
                raise OutOfBounds(f"{loc} outside the pin map")
            new[loc] = p
        return PinMap(self.rows, self.cols, new)


def parse_pins(text: str) -> PinMap:
    grid: list[list[int]] = []
    for lineno, line in content_lines(text):
        try:
            grid.append(list(map(int, line.split())))
        except ValueError:
            raise DmfError(f"pin map line {lineno}: not a row of integers") from None
    if not grid:
        raise DmfError("pin map is empty")
    cols = len(grid[0])
    if any(len(row) != cols for row in grid):
        raise DmfError("pin map rows have differing lengths")
    order, _ = _cells(len(grid), cols)
    return PinMap(len(grid), cols, dict(zip(order, chain.from_iterable(grid))))


@lru_cache(maxsize=16)
def _cells(rows: int, cols: int) -> tuple[tuple[tuple[int, int], ...], frozenset]:
    """The (row, col) cells of a rows x cols array, in row order and as a set."""
    order = tuple(product(range(1, rows + 1), range(1, cols + 1)))
    return order, frozenset(order)


def serialize_pins(pmap: PinMap) -> str:
    width = max(len(str(p)) for p in pmap.pin.values())
    rows = []
    for r in range(1, pmap.rows + 1):
        rows.append(" ".join(str(pmap.pin[r, c]).rjust(width)
                             for c in range(1, pmap.cols + 1)))
    return "\n".join(rows) + "\n"


# --- rule checks ---------------------------------------------------------------

def _row(code: Code, response: str, pin: int, cells: tuple[Loc, ...], detail: str) -> Violation:
    """A pin rule's row without tick or instructions."""
    return Violation(code, response, cells=cells, pins=(pin,), detail=detail)


def check_case1(pmap: PinMap, loc: Loc) -> Violation | None:
    """Distinct pins are required on the four neighborhood electrodes.  A
    cell with as many N4 pins as on-array N4 cells passes without a scan;
    with fewer, some pin repeats, and the row names the smallest."""
    pmap.n4_pins(loc)
    if loc not in pmap._split:
        return None
    seen: dict[int, list[Loc]] = {}
    for cell in sorted(pmap.n4(loc)):
        seen.setdefault(pmap.pin[cell], []).append(cell)
    p, cells = min((p, cells) for p, cells in seen.items() if len(cells) > 1)
    return _row(Code.PIN_CASE1, "Unintentional droplet split", p, (loc, *cells),
                f"pin {p} drives {len(cells)} neighbors of {loc}")


def _consequence(shared_cells: list[Loc], affected_old: Loc, affected_new: Loc) -> str:
    if affected_old != affected_new:
        behind = Loc(2 * affected_old.row - affected_new.row,
                     2 * affected_old.col - affected_new.col)
        if behind in shared_cells:
            return f"Droplet stuck on {affected_old}"
    return "Droplet stretch"


def check_pair(pmap: PinMap, d1_t: Loc, d1_t1: Loc, d2_t: Loc, d2_t1: Loc) -> Violation | None:
    """Pairwise movement rules between two droplets (static = equal positions)."""
    hood1, hood2 = pmap.n4(d1_t), pmap.n4(d2_t)
    checks = [
        ("2(a)", Code.PIN_CASE2, d1_t, hood2, (d2_t, d2_t1)),
        ("2(b)", Code.PIN_CASE2, d2_t, hood1, (d1_t, d1_t1)),
        ("2(c)", Code.PIN_CASE2, d1_t1, pmap.n4(d2_t1), (d2_t, d2_t1)),
        ("2(d)", Code.PIN_CASE2, d2_t1, pmap.n4(d1_t1), (d1_t, d1_t1)),
        ("3(a)", Code.PIN_CASE3, d1_t1, hood2 - {d2_t1}, (d2_t, d2_t1)),
        ("3(b)", Code.PIN_CASE3, d2_t1, hood1 - {d1_t1}, (d1_t, d1_t1)),
    ]
    for label, code, single, hood, affected in checks:
        single_pin = pmap.pin[single]
        shared_cells = sorted(c for c in hood if pmap.pin[c] == single_pin)
        if shared_cells:
            return _row(code, _consequence(shared_cells, *affected), single_pin,
                        (single, *shared_cells),
                        f"case {label}: Pin({{{single}}}) meets Pin(N4 region) on "
                        f"{{{single_pin}}}")
    return None


def _n4_owners(pmap: PinMap, droplets) -> dict[int, list[Loc]]:
    """Each pin, mapped to the droplets whose N4 region it drives, in order."""
    owners: dict[int, list[Loc]] = {}
    for d in droplets:
        for p in pmap.n4_pins(d):
            owners.setdefault(p, []).append(d)
    return owners


def _dispense_row(pmap: PinMap, loc: Loc, owners: dict[int, list[Loc]]) -> Violation | None:
    """The dispense rule at ``loc``: a dispensed droplet's pin must avoid its
    own N4 pins and those of every droplet in ``owners`` (``_n4_owners``);
    the first droplet it meets, in the owners' order, is named.  A droplet
    on ``loc`` itself meets its pin only where the first rule already
    fails, so skipping it changes nothing."""
    own = pmap.pin[loc]
    if own in pmap.n4_pins(loc):
        shared_self = sorted(c for c in pmap.n4(loc) if pmap.pin[c] == own)
        return _row(Code.PIN_DISPENSE, "Droplet stretch", own, (loc, *shared_self),
                    f"pin {own} is repeated in N4({loc})")
    for d in owners.get(own, ()):
        if d != loc:
            shared = sorted(c for c in pmap.n4(d) if pmap.pin[c] == own)
            return _row(Code.PIN_DISPENSE, "Droplet stretch", own, (loc, d, *shared),
                        f"pin {own} of {loc} drives a neighbor of the droplet at {d}")
    return None


# --- per-tick phase (driven by the fluidics engine) -----------------------------

def pin_phase(pmap: PinMap, snapshot: ChipState, committed: ChipState, line: TimedLine,
              moved: dict[Loc, tuple[Loc, int]], dispensed: list[tuple[Loc, int]],
              removed: list[Loc]) -> list[Violation]:
    """Pin rules for one tick: dispense checks, droplet pairs, Case 1.

    ``moved``, ``dispensed`` and ``removed`` say what the line's passed
    instructions do to droplets: each transport's {new cell: (old cell,
    position)}, each arrival's (cell, position) and the cells of the
    droplets removed.  A tick of moves alone, with no active mixer, that
    ``_quiet`` proves free of rows has none.

    Pairs are checked in sorted order, but only those that meet in the pin
    index of ``_candidate_pairs``; every other pair passes every pairwise rule.
    """
    if not dispensed and not removed and not committed.mixers and _quiet(pmap, committed, moved):
        return []
    out: list[Violation] = []
    t = line.t
    dispensed_at = {l for l, _ in dispensed}

    if dispensed:
        owners = _n4_owners(pmap, [*sorted(snapshot.by_loc), *(l for l, _ in dispensed)])
        for loc, i in dispensed:
            v = _dispense_row(pmap, loc, owners)
            if v is not None:
                out.append(v._replace(t=t, instructions=(line.instrs[i].compact(),)))

    # participants: (old, new, instr index or None); mixer endpoints excluded.
    # Case 1 covers every droplet; its rows follow the pair rows.
    participants: list[tuple[Loc, Loc, int | None]] = []
    case1: list[Violation] = []
    pinned_cells = {c for mx in committed.mixers for c in (mx.a, mx.b)}
    for loc in sorted(committed.by_loc):
        v = check_case1(pmap, loc)
        if v is not None:
            idx = moved.get(loc)
            instrs = (line.instrs[idx[1]].compact(),) if idx else ()
            case1.append(v._replace(t=t, instructions=instrs))
        if loc in pinned_cells:
            continue
        if loc in moved:
            old, i = moved[loc]
            participants.append((old, loc, i))
        elif loc not in dispensed_at:   # a dispense is covered by its own rule
            participants.append((loc, loc, None))
    # droplets sent to waste/output this tick participate as static at t
    participants.extend((loc, loc, None) for loc in removed)

    participants.sort(key=itemgetter(0))
    for a, b in _candidate_pairs(pmap, participants):
        o1, n1, i1 = participants[a]
        o2, n2, i2 = participants[b]
        v = check_pair(pmap, o1, n1, o2, n2)
        if v is not None:
            idxs = tuple(sorted(i for i in (i1, i2) if i is not None))
            instrs = tuple(line.instrs[i].compact() for i in idxs)
            out.append(v._replace(t=t, instructions=instrs))
    out.extend(case1)
    return out


def _quiet(pmap: PinMap, committed: ChipState, moved: dict[Loc, tuple[Loc, int]]) -> bool:
    """Whether a tick of moves alone, with no mixer, provably has no pin
    row: no droplet's cell fails Case 1, and no two droplets meet as in
    ``_candidate_pairs``.  The static droplets' own pins are tested against
    the union of their N4 pins at once (a droplet meeting itself only leaves
    the tick in doubt); each mover is tested against those before it."""
    pin, n4_pins = pmap.pin, pmap.n4_pins
    cells = committed.by_loc.keys()
    statics = cells - moved.keys()
    hood = set().union(*map(n4_pins, statics))
    own = set(map(pin.__getitem__, statics))
    if not own.isdisjoint(hood):
        return False
    for new, (old, _) in moved.items():
        near, mine = n4_pins(old) | n4_pins(new), {pin[old], pin[new]}
        if not (near.isdisjoint(own) and hood.isdisjoint(mine)):
            return False
        own |= mine
        hood |= near
    return pmap._split.isdisjoint(cells)    # every droplet's cell is cached now


def _candidate_pairs(pmap: PinMap,
                     participants: list[tuple[Loc, Loc, int | None]]) -> list[tuple[int, int]]:
    """Index pairs (a < b, sorted) that check_pair could fail on.

    Each case of check_pair tests the pin of one droplet's old or new cell
    against pins in N4(old) or N4(new) of the other droplet.  Indexing every
    participant under the pins of its own two cells and intersecting each
    participant's N4 pin set (one cached set for a static droplet, the union
    of two for a mover) with that index therefore finds every such pair.
    """
    pin = pmap.pin
    owners: dict[int, list[int]] = {}
    for a, (old, new, _) in enumerate(participants):
        owners.setdefault(pin[old], []).append(a)
        if pin[new] != pin[old]:
            owners.setdefault(pin[new], []).append(a)
    n4_pins, owned = pmap.n4_pins, owners.keys()
    pairs: set[tuple[int, int]] = set()
    for b, (old, new, _) in enumerate(participants):
        hood = n4_pins(old) if old == new else n4_pins(old) | n4_pins(new)
        for p in owned & hood:
            for a in owners[p]:
                if a != b:
                    pairs.add((a, b) if a < b else (b, a))
    return sorted(pairs)
