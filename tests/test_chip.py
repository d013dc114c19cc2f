import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dmfv.chip import (ChipState, Droplet, InconsistentState, MixerEntry,
                       expire_mixers, init_state)
from dmfv.graph import CFVector, cf_mix
from dmfv.isa import ChipHeader, Loc, MType, ReservoirDecl, RKind

from conftest import with_droplet
from test_oracle import neighbors8


def header(rows=5, cols=4, reservoirs=None):
    reservoirs = reservoirs or (ReservoirDecl(Loc(1, 1), RKind.REAGENT, "S"),)
    return ChipHeader(rows, cols, 5, tuple(reservoirs))


def test_init_state_blank():
    st = init_state(header(5, 4, (
        ReservoirDecl(Loc(1, 1), RKind.REAGENT, "S"),
        ReservoirDecl(Loc(1, 4), RKind.REAGENT, "B"),
        ReservoirDecl(Loc(5, 1), RKind.OUTPUT),
        ReservoirDecl(Loc(5, 4), RKind.WASTE))))
    assert st.t == 0
    assert not st.by_loc and not st.mixers
    assert len(st.reservoirs) == 4
    assert st.header.rows * st.header.cols == 20
    for r in range(1, 6):
        for c in range(1, 5):
            assert Loc(r, c) not in st.by_loc


def test_init_state_single_cell_and_pcr_sizes():
    st = init_state(ChipHeader(1, 1, 1, (ReservoirDecl(Loc(1, 1), RKind.REAGENT, "S"),)))
    assert Loc(1, 1) not in st.by_loc
    st = init_state(ChipHeader(15, 15, 5, tuple(
        ReservoirDecl(Loc(3, k + 1), RKind.REAGENT, f"R{k}") for k in range(8))))
    assert st.header.rows * st.header.cols == 225
    assert len(st.reservoirs) == 8


def test_neighbors_truncation_and_center_sets():
    assert neighbors8(Loc(1, 1), 5, 4) == {Loc(1, 2), Loc(2, 1), Loc(2, 2)}
    assert len(neighbors8(Loc(3, 3), 6, 6)) == 8


def test_occupied_out_of_bounds():
    # validation bounds every cell a program names, so the index holds only
    # cells on the array and a probe off it misses
    st = with_droplet(init_state(header()), "S", Loc(1, 1), CFVector.unit("S"))
    assert Loc(9, 9) not in st.by_loc and Loc(0, 1) not in st.by_loc


def _with_mixer(st: ChipState, a: Loc, b: Loc, t_s: int, t_e: int) -> ChipState:
    st = with_droplet(st, "S", a, CFVector.unit("S"))
    st = with_droplet(st, "B", b, CFVector.unit("B"))
    st.mixers = (MixerEntry(a, b, t_s, t_e, MType.H14),)
    return st


def test_expire_mixers_places_two_droplets_with_shared_id():
    st = _with_mixer(init_state(header()), Loc(3, 1), Loc(3, 4), 4, 17)
    done, events = expire_mixers(st, 17)
    assert len(events) == 1
    ev = events[0]
    assert (ev.a, ev.b, ev.t_s, ev.t_e) == (Loc(3, 1), Loc(3, 4), 4, 17)
    assert ev.cf == cf_mix(CFVector.unit("S"), CFVector.unit("B"))
    d1, d2 = done.by_loc[Loc(3, 1)], done.by_loc[Loc(3, 4)]
    assert d1.node == d2.node == ev.node
    assert not done.mixers


def test_expire_mixers_identity_without_due_entries():
    st = _with_mixer(init_state(header()), Loc(3, 1), Loc(3, 4), 4, 17)
    same, events = expire_mixers(st, 10)
    assert events == [] and same is st
    done, _ = expire_mixers(st, 17)
    again, events = expire_mixers(done, 17)
    assert events == [] and again is done  # idempotent for a given t


def test_two_mixers_expiring_same_tick():
    st = init_state(header(15, 15))
    st = _with_mixer(st, Loc(4, 3), Loc(7, 3), 5, 12)
    st = with_droplet(st, "C", Loc(9, 13), CFVector.unit("C"))
    st = with_droplet(st, "D", Loc(12, 13), CFVector.unit("D"))
    st.mixers = st.mixers + (MixerEntry(Loc(9, 13), Loc(12, 13), 5, 12, MType.V41),)
    done, events = expire_mixers(st, 12)
    assert len(events) == 2
    assert len(done.by_loc) == 4
    assert {l for l in done.by_loc} == {Loc(4, 3), Loc(7, 3), Loc(9, 13), Loc(12, 13)}


def test_add_and_move_refuse_an_occupied_cell():
    st = init_state(header(6, 6))
    st = with_droplet(st, "S", Loc(2, 2), CFVector.unit("S"))
    st = with_droplet(st, "B", Loc(4, 4), CFVector.unit("B"))
    with pytest.raises(InconsistentState):
        with_droplet(st, "C", Loc(4, 4), CFVector.unit("C"))
    moved = st.copy()
    with pytest.raises(InconsistentState):
        moved._move(Loc(2, 2), Loc(4, 4))
    assert moved.by_loc == st.by_loc             # the refused write changed nothing
    moved._move(Loc(2, 2), Loc(2, 3))
    assert moved.by_loc[Loc(2, 3)] == Droplet("S", CFVector.unit("S"))
    assert Loc(2, 2) in st.by_loc and Loc(2, 3) not in st.by_loc   # the copy left st alone


def test_occupied_cell_guard_raises_under_python_O():
    # _move and _add raise; the one-pass transport refuses, with plain ifs,
    # a move onto an idle droplet and two moves onto one cell, so step words
    # the per-instruction rows, and the per-instruction commit of such a
    # line still meets _move's raise
    code = textwrap.dedent("""
        from dmfv import fluidics
        from dmfv.chip import Droplet, InconsistentState, init_state
        from dmfv.graph import CFVector
        from dmfv.isa import ChipHeader, Loc, Move, TimedLine
        assert False, "assert statements must be stripped under -O"
        st = init_state(ChipHeader(6, 6, 5, ()))
        st._add(Loc(2, 2), Droplet("S", CFVector.unit("S")))
        st._add(Loc(5, 5), Droplet("B", CFVector.unit("B")))
        st._add(Loc(1, 4), Droplet("A", CFVector.unit("A")))
        st._add(Loc(2, 5), Droplet("C", CFVector.unit("C")))
        # the two moves onto (2,4) probe no droplet
        lines = {"destination cell occupied": (Move(Loc(2, 2), Loc(5, 5)),),
                 "two droplets head for the same cell": (Move(Loc(1, 4), Loc(2, 4)),
                                                         Move(Loc(2, 5), Loc(2, 4)))}
        refused = 0
        writes = [lambda: st._move(Loc(2, 2), Loc(5, 5)),
                  lambda: st._add(Loc(2, 2), Droplet("C", CFVector.unit("C")))]
        writes += [lambda instrs=instrs: fluidics._commit(st, instrs, 1) for instrs in lines.values()]
        for write in writes:
            try:
                write()
            except InconsistentState:
                refused += 1
        if refused != 4:
            raise SystemExit(1)
        for detail, instrs in lines.items():
            if fluidics._transport(st, instrs, 1) is not None:
                raise SystemExit(2)
            rows = fluidics.step(st, TimedLine(1, instrs), policy="all").violations
            if rows[0].detail != detail:
                raise SystemExit(3)
        raise SystemExit(0)
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
