#!/usr/bin/env python3
"""Single-shot wall times of verify_program, with and without a pin map.

Times the PCR fixture in general and pin mode, then synthetic programs that
park k droplets three cells apart and shuttle the last one for 400 ticks:
pin mode on a 30x30 array at k = 4, 8 and 16, and general mode with k = 4 on
15x15 to 60x60 arrays.  Each case runs once and nothing is checked, so the
numbers are rough; perfbench/ is the benchmark with repeats and known
answers.  Not a unit test; run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_verify.py
"""

from __future__ import annotations

import time
from pathlib import Path

from dmfv.fluidics import verify_program
from dmfv.isa import parse_program
from dmfv.pins import dedicated_map


def synthetic(rows: int, droplets: int, ticks: int) -> str:
    cols = rows
    lines = [f"dim({rows},{cols})", "accuracy 5"]
    # reagent reservoirs two columns apart along the top rows
    cells = []
    r, c = 1, 1
    for _ in range(droplets):
        cells.append((r, c))
        c += 3
        if c > cols:
            c = 1 if r % 2 else 2
            r += 3
    lines.append(" ".join(f"R({r},{c},X{i})" for i, (r, c) in enumerate(cells)))
    lines.append("1 " + " ".join(f"d({r},{c})" for r, c in cells))
    # shuttle the last droplet up and down forever
    r, c = cells[-1]
    t = 1
    for _ in range(ticks // 2):
        t += 1
        lines.append(f"{t} m([{r},{c}]->[{r + 1},{c}])")
        t += 1
        lines.append(f"{t} m([{r + 1},{c}]->[{r},{c}])")
    lines.append(f"{t + 1} end")
    return "\n".join(lines) + "\n"


def timed(label: str, fn) -> float:
    t0 = time.perf_counter()
    fn()
    dt = time.perf_counter() - t0
    print(f"{label:<44} {dt * 1000:8.2f} ms")
    return dt


def main() -> None:
    pcr = (Path(__file__).resolve().parent.parent / "fixtures" / "pcr.dmf").read_text()
    prog = parse_program(pcr)
    timed("PCR (15x15, 16 lines), general mode", lambda: verify_program(prog))
    timed("PCR, pin mode (dedicated 225-pin map)",
          lambda: verify_program(prog, pin_map=dedicated_map(15, 15)))

    print("\nscaling in droplet count (30x30 array, 400 ticks):")
    for k in (4, 8, 16):
        text = synthetic(30, k, 400)
        p = parse_program(text)
        pmap = dedicated_map(30, 30)
        timed(f"  {k:>2} droplets, pin mode", lambda: verify_program(p, pin_map=pmap))
    print("\nscaling in array size (4 droplets, 400 ticks):")
    for n in (15, 30, 60):
        text = synthetic(n, 4, 400)
        p = parse_program(text)
        timed(f"  {n:>2}x{n} array, general mode", lambda: verify_program(p))


if __name__ == "__main__":
    main()
