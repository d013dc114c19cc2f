"""Symbolic chip description: occupancy, reservoir table, active mixers, droplets.

State is a value.  Every public operation returns a new ChipState; the
verifier snapshots the state at the start of each tick and commits all
concurrent effects together onto one fresh copy, mirroring the per-tick
occupancy encoding the checks are defined over.

Bounds are checked once, when a program is validated: every cell a
droplet can reach is on the array, so ``by_loc`` holds only cells on the
array, and the engine probes it with any cell, off the array too, without
a bounds test.  ``check_consistency`` still runs after every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .isa import ChipHeader, DetectorDecl, Loc, MType

if TYPE_CHECKING:
    from .graph import CFVector


class OutOfBounds(Exception):
    pass


class InconsistentState(Exception):
    """The grid and the droplet registry disagree (an engine bug)."""


def neighbors4(loc: Loc, rows: int, cols: int) -> set[Loc]:
    r, c = loc
    cand = [Loc(r - 1, c), Loc(r + 1, c), Loc(r, c - 1), Loc(r, c + 1)]
    return {p for p in cand if 1 <= p.row <= rows and 1 <= p.col <= cols}


def neighbors8(loc: Loc, rows: int, cols: int) -> set[Loc]:
    r, c = loc
    cand = [Loc(r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)]
    return {p for p in cand if 1 <= p.row <= rows and 1 <= p.col <= cols}


@dataclass(frozen=True)
class DropletRecord:
    key: int            # registry key, unique per droplet
    node: str           # sequencing-graph identity (reagent name or mix id)
    loc: Loc
    cf: "CFVector"
    born_at: int


@dataclass(frozen=True)
class MixerEntry:
    a: Loc
    b: Loc
    t_s: int
    t_e: int            # completion tick: t_s + t_mix + 1
    mtype: MType
    input_keys: tuple[int, int]
    input_nodes: tuple[str, str]

    def span(self) -> str:
        return f"mix {self.a}..{self.b} [{self.t_s},{self.t_e}]"


@dataclass(frozen=True)
class DetectionEntry:
    detector: str
    key: int
    loc: Loc
    t_end: int          # droplet is pinned for ticks < t_end


# --- trace events -------------------------------------------------------------

@dataclass(frozen=True)
class Dispensed:
    t: int
    node: str           # reagent name
    loc: Loc
    key: int
    cf: "CFVector"


@dataclass(frozen=True)
class MixStarted:
    t: int
    a: Loc
    b: Loc
    t_e: int
    mtype: MType
    input_nodes: tuple[str, str]


@dataclass(frozen=True)
class MixCompleted:
    t: int              # equals the mixer's t_e
    node: str           # fresh id shared by both result droplets
    a: Loc
    b: Loc
    t_s: int
    t_e: int
    input_nodes: tuple[str, str]
    cf: "CFVector"


@dataclass(frozen=True)
class Wasted:
    t: int
    node: str
    loc: Loc
    cf: "CFVector"


@dataclass(frozen=True)
class Outputted:
    t: int
    node: str
    loc: Loc
    cf: "CFVector"


Event = Dispensed | MixStarted | MixCompleted | Wasted | Outputted


class ChipState:
    """Occupancy grid, droplet registry, T_reservoir, T_mixer and detections."""

    __slots__ = ("header", "t", "droplets", "by_loc", "mixers", "detections",
                 "reservoirs", "detectors", "next_key", "next_node")

    def __init__(self, header: ChipHeader, detectors: Iterable[DetectorDecl] = ()):
        self.header = header
        self.t = 0
        self.droplets: dict[int, DropletRecord] = {}
        self.by_loc: dict[Loc, int] = {}
        self.mixers: tuple[MixerEntry, ...] = ()
        self.detections: tuple[DetectionEntry, ...] = ()
        self.reservoirs = {r.loc: r for r in header.reservoirs}
        self.detectors = {d.id: d for d in detectors}
        self.next_key = 1
        self.next_node = 1

    def copy(self) -> "ChipState":
        new = ChipState.__new__(ChipState)
        new.header = self.header
        new.t = self.t
        new.droplets = dict(self.droplets)
        new.by_loc = dict(self.by_loc)
        new.mixers = self.mixers
        new.detections = self.detections
        new.reservoirs = self.reservoirs
        new.detectors = self.detectors
        new.next_key = self.next_key
        new.next_node = self.next_node
        return new

    # -- queries --

    def in_bounds(self, loc: Loc) -> bool:
        return self.header.in_bounds(loc)

    def occupied(self, loc: Loc) -> bool:
        if not self.in_bounds(loc):
            raise OutOfBounds(f"{loc} outside {self.header.rows}x{self.header.cols} array")
        return loc in self.by_loc

    def droplet_at(self, loc: Loc) -> DropletRecord | None:
        key = self.by_loc.get(loc)
        return None if key is None else self.droplets[key]

    def mixer_pinning(self, key: int) -> MixerEntry | None:
        for mx in self.mixers:
            if key in mx.input_keys:
                return mx
        return None

    def detection_pinning(self, key: int) -> DetectionEntry | None:
        for det in self.detections:
            if det.key == key:
                return det
        return None

    def add_droplet(self, node: str, loc: Loc, cf, born_at: int) -> tuple["ChipState", DropletRecord]:
        new = self.copy()
        return new, new._add(node, loc, cf, born_at)

    # In-place updates, for a copy that no one else holds yet: the engine
    # copies the state once per tick and builds on that copy.

    def _add(self, node: str, loc: Loc, cf, born_at: int) -> DropletRecord:
        rec = DropletRecord(self.next_key, node, loc, cf, born_at)
        self.droplets[rec.key] = rec
        self.by_loc[loc] = rec.key
        self.next_key += 1
        return rec

    def _move(self, key: int, dst: Loc) -> None:
        rec = self.droplets[key]
        del self.by_loc[rec.loc]
        self.droplets[key] = DropletRecord(rec.key, rec.node, dst, rec.cf, rec.born_at)
        self.by_loc[dst] = key

    def _remove(self, key: int) -> DropletRecord:
        rec = self.droplets.pop(key)
        del self.by_loc[rec.loc]
        return rec

    def at_tick(self, t: int) -> "ChipState":
        new = self.copy()
        new.t = t
        return new

    def check_consistency(self) -> None:
        """Raise InconsistentState unless grid and registry are a bijection."""
        if len(self.by_loc) != len(self.droplets):
            raise InconsistentState(
                f"{len(self.by_loc)} occupied cells but {len(self.droplets)} droplets")
        for loc, key in self.by_loc.items():
            rec = self.droplets.get(key)
            if rec is None or rec.loc != loc:
                raise InconsistentState(f"cell {loc} maps to droplet {key}, "
                                        f"which is not there")


def init_state(header: ChipHeader, detectors: Iterable[DetectorDecl] = ()) -> ChipState:
    """Blank chip at t=0: every cell free, no droplets, empty mixer table."""
    return ChipState(header, detectors)


def expire_mixers(state: ChipState, t: int) -> tuple[ChipState, list[MixCompleted]]:
    """Complete every mixer with t_e <= t: the two inputs are replaced by two
    result droplets at the endpoints, both carrying one fresh id."""
    from .graph import cf_mix  # local import keeps chip free of graph at load time

    due = [mx for mx in state.mixers if mx.t_e <= t]
    if not due:
        return state, []
    events: list[MixCompleted] = []
    new = state.copy()
    new.mixers = tuple(mx for mx in state.mixers if mx.t_e > t)
    for mx in sorted(due, key=lambda m: (m.t_e, m.a)):
        k1, k2 = mx.input_keys
        cf = cf_mix(new.droplets[k1].cf, new.droplets[k2].cf)
        new._remove(k1)
        new._remove(k2)
        node = f"v{new.next_node}"
        new.next_node += 1
        for loc in (mx.a, mx.b):
            new._add(node, loc, cf, mx.t_e)
        events.append(MixCompleted(mx.t_e, node, mx.a, mx.b, mx.t_s, mx.t_e,
                                   mx.input_nodes, cf))
    return new, events


def expire_detections(state: ChipState, t: int) -> ChipState:
    live = tuple(d for d in state.detections if d.t_end > t)
    if live == state.detections:
        return state
    new = state.copy()
    new.detections = live
    return new
