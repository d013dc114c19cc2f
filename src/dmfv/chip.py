"""Symbolic chip description: occupancy, reservoirs, mixers, detections, droplets.

State is a value.  Every public operation returns a new ChipState; the
verifier snapshots the state at the start of each tick and commits all
concurrent effects together onto one fresh copy, mirroring the per-tick
occupancy encoding the checks are defined over.

The state has one droplet index, ``by_loc``, from each occupied cell to
its droplet, and names a droplet by the cell it sits on.  That is exact: a
droplet that an active mixer or detection holds cannot leave its cell (every
rule that moves or removes one rejects it with e4), and no droplet enters an
occupied cell.  So a mixer entry holds no droplet of its own: the droplets
it mixes are the ones on its two cells, read there when it completes.
``_add`` and ``_move`` raise InconsistentState rather than overwrite a
droplet.

Bounds are checked once, when a program is validated, and the engine runs
only a program without issues: every cell a droplet can reach is on the
array, so ``by_loc`` holds only cells on the array, and the engine probes
it with any cell, off the array too, without a bounds test.

A droplet carries its concentration, so the arithmetic on concentrations
lives here: exact dyadic rationals per reagent, since the (1:1) mix-split
only ever averages two vectors.  A ``CFVector`` holds integer numerators
over one ``2**exp``, so a mix (``cf_mix``) is a shift and an add;
``Fraction`` is only the tests' oracle.  Rounding to the declared accuracy
happens only in ``graph``.  This module imports no ``dmfv`` module but
``isa``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .isa import ChipHeader, DetectorDecl, Loc, MType, value


class InconsistentState(Exception):
    """A write would overwrite a droplet (an engine bug)."""


# --- concentration vectors ---------------------------------------------------

class CFVector(NamedTuple):
    """Mapping reagent -> fraction of unit volume, as integers over a power
    of two: each component is ``numerator / 2**exp``.

    ``nums`` holds (reagent, numerator) pairs sorted by reagent, with no
    zeros, and the numerators sum to ``2**exp``.  The form is normal
    (``exp == 0`` or some numerator is odd), so equal vectors compare and
    hash equal.
    """

    nums: tuple[tuple[str, int], ...]
    exp: int = 0

    @staticmethod
    def unit(reagent: str) -> "CFVector":
        return CFVector(((reagent, 1),))

    @staticmethod
    def normal(nums: tuple[tuple[str, int], ...], exp: int) -> "CFVector":
        """The vector nums / 2**exp with the common factors of two taken out."""
        bits = 0
        for _, v in nums:
            bits |= v
        s = min((bits & -bits).bit_length() - 1, exp) if bits else 0
        if s:
            nums = tuple((k, v >> s) for k, v in nums)
        return CFVector(nums, exp - s)

    def __str__(self) -> str:
        """Each component as a reduced fraction: ``{B:3/4, S:1/4}``, ``{S:1}``."""
        exp, parts = self.exp, []
        for k, v in self.nums:
            s = min((v & -v).bit_length() - 1, exp)
            parts.append(f"{k}:{v >> s}" if s == exp else f"{k}:{v >> s}/{1 << (exp - s)}")
        return "{" + ", ".join(parts) + "}"


def cf_mix(a: CFVector, b: CFVector) -> CFVector:
    """Balanced (1:1) mix-split: the component-wise average, exact.  The
    exponents align by a shift, the numerators add and the exponent grows
    by one.  The sum is re-sorted only if b brings a reagent that a lacks,
    and normalised only if the exponents were equal: otherwise a's exponent
    is positive, so it has an odd numerator, which b's shifted, even ones
    leave odd."""
    d = a.exp - b.exp
    if d < 0:
        a, b, d = b, a, -d
    out = dict(a.nums)
    for k, v in b.nums:
        out[k] = out.get(k, 0) + (v << d)
    nums = tuple(out.items())
    if len(nums) > len(a.nums):
        nums = tuple(sorted(nums))
    return CFVector(nums, a.exp + 1) if d else CFVector.normal(nums, a.exp + 1)


@value
class Droplet(NamedTuple):
    node: str           # sequencing-graph identity (reagent name or mix id)
    cf: CFVector


@value
class MixerEntry(NamedTuple):
    a: Loc
    b: Loc
    t_s: int
    t_e: int            # completion tick: t_s + t_mix + 1
    mtype: MType

    def span(self) -> str:
        return f"mix {self.a}..{self.b} [{self.t_s},{self.t_e}]"


@value
class DetectionEntry(NamedTuple):
    detector: str
    loc: Loc
    t_end: int          # droplet is pinned for ticks < t_end


# --- trace events -------------------------------------------------------------

@value
class Dispensed(NamedTuple):
    t: int
    node: str           # reagent name
    loc: Loc
    cf: CFVector


@value
class MixStarted(NamedTuple):
    t: int
    a: Loc
    b: Loc
    t_e: int
    mtype: MType
    input_nodes: tuple[str, str]


@value
class MixCompleted(NamedTuple):
    t: int              # equals the mixer's t_e
    node: str           # fresh id shared by both result droplets
    a: Loc
    b: Loc
    t_s: int
    t_e: int
    input_nodes: tuple[str, str]
    cf: CFVector


@value
class Wasted(NamedTuple):
    t: int
    node: str
    loc: Loc
    cf: CFVector


@value
class Outputted(NamedTuple):
    t: int
    node: str
    loc: Loc
    cf: CFVector


Event = Dispensed | MixStarted | MixCompleted | Wasted | Outputted


class ChipState:
    """Occupancy (cell -> droplet), T_reservoir, T_mixer and detections."""

    __slots__ = ("header", "t", "by_loc", "mixers", "detections", "reservoirs",
                 "detectors", "next_node")

    def __init__(self, header: ChipHeader, detectors: Iterable[DetectorDecl] = ()):
        self.header = header
        self.t = 0
        self.by_loc: dict[Loc, Droplet] = {}
        self.mixers: tuple[MixerEntry, ...] = ()
        self.detections: tuple[DetectionEntry, ...] = ()
        self.reservoirs = {r.loc: r for r in header.reservoirs}
        self.detectors = {d.id: d for d in detectors}
        self.next_node = 1

    def copy(self) -> "ChipState":
        """The same chip with its own droplet index, for in-place updates."""
        new = self.at_tick(self.t)
        new.by_loc = dict(self.by_loc)
        return new

    def at_tick(self, t: int) -> "ChipState":
        """The same chip labelled tick t.  It shares this state's droplet
        index, which no one writes: every update goes to a fresh ``copy``."""
        new = ChipState.__new__(ChipState)
        new.header = self.header
        new.t = t
        new.by_loc = self.by_loc
        new.mixers = self.mixers
        new.detections = self.detections
        new.reservoirs = self.reservoirs
        new.detectors = self.detectors
        new.next_node = self.next_node
        return new

    # -- queries --

    def mixer_pinning(self, loc: Loc) -> MixerEntry | None:
        """The active mixer that holds the droplet on ``loc``, if any."""
        for mx in self.mixers:
            if loc == mx.a or loc == mx.b:
                return mx
        return None

    def detection_pinning(self, loc: Loc) -> DetectionEntry | None:
        """The detection that holds the droplet on ``loc``, if any."""
        for det in self.detections:
            if det.loc == loc:
                return det
        return None

    # In-place updates, for a copy that no one else holds yet: the engine
    # copies the state once per tick and builds on that copy.  The checks
    # are plain ifs, so they hold under python -O.

    def _add(self, loc: Loc, droplet: Droplet) -> None:
        if loc in self.by_loc:
            raise InconsistentState(f"a droplet added on {loc} would overwrite another")
        self.by_loc[loc] = droplet

    def _move(self, src: Loc, dst: Loc) -> None:
        if dst in self.by_loc:
            raise InconsistentState(f"a droplet moved to {dst} would overwrite another")
        self.by_loc[dst] = self.by_loc.pop(src)

    def _remove(self, loc: Loc) -> Droplet:
        return self.by_loc.pop(loc)


def init_state(header: ChipHeader, detectors: Iterable[DetectorDecl] = ()) -> ChipState:
    """Blank chip at t=0: every cell free, no droplets, empty mixer table."""
    return ChipState(header, detectors)


def expire_mixers(state: ChipState, t: int) -> tuple[ChipState, list[MixCompleted]]:
    """Complete every mixer with t_e <= t: the two droplets on its endpoints
    are replaced by two result droplets, both carrying one fresh id."""
    due = [mx for mx in state.mixers if mx.t_e <= t]
    if not due:
        return state, []
    events: list[MixCompleted] = []
    new = state.copy()
    new.mixers = tuple(mx for mx in state.mixers if mx.t_e > t)
    for mx in due if len(due) == 1 else sorted(due, key=lambda m: (m.t_e, m.a)):
        a, b = new._remove(mx.a), new._remove(mx.b)
        result = Droplet(f"v{new.next_node}", cf_mix(a.cf, b.cf))
        new.next_node += 1
        for loc in (mx.a, mx.b):
            new._add(loc, result)
        events.append(MixCompleted(mx.t_e, result.node, mx.a, mx.b, mx.t_s, mx.t_e,
                                   (a.node, b.node), result.cf))
    return new, events


def expire_detections(state: ChipState, t: int) -> ChipState:
    live = tuple(d for d in state.detections if d.t_end > t)
    if live == state.detections:
        return state
    new = state.copy()
    new.detections = live
    return new
