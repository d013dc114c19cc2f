"""Command-line driver: verify | graph | paths | inject | render.

Exit codes: 0 all checks pass, 1 violations found, 2 unusable input
(parse/semantic errors, an input that cannot be read or decoded, an output
that cannot be written, or text that stdout's encoding cannot hold).
``main`` is the one place that reports these, as ``error: ...`` with exit
2; any other exception is a fault of the verifier and keeps its traceback.
Files are read and written as UTF-8 whatever the locale, and ``--swap``'s
reagent names are decoded as UTF-8 from argv's bytes; stdout keeps the
locale's encoding.  All behavior is reachable through the library
modules with identical results; this file only wires them together.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import branches, fluidics, graph, inject, pins, render
from .diag import Report, format_report
from .isa import DmfError, Loc, Program, parse_program, serialize_program


def _read(path: str) -> str:
    """An input file's text (.dmf, .sg or .pins), as UTF-8 whatever the locale."""
    return Path(path).read_text(encoding="utf-8")


def _write(path: Path | str, text: str) -> None:
    """Write an output file (event log, DOT, program, pin map or frame) as UTF-8."""
    Path(path).write_text(text, encoding="utf-8")


def _load_program(path: str) -> Program:
    return parse_program(_read(path))


def _split2(text: str, sep: str) -> tuple[str, str]:
    first, second = text.split(sep)     # ValueError unless exactly two parts
    return first, second


def _parse_loc(text: str) -> Loc:
    r, c = _split2(text, ",")
    return Loc(int(r), int(c))


def _parse_remap(text: str) -> dict[Loc, int]:
    cells = (_split2(part, "=") for part in text.split(";"))
    return {_parse_loc(cell): int(pin_id) for cell, pin_id in cells}


def _option(flag: str, form: str, parse, text: str | None):
    """``parse(text)`` (None for an absent option), or a DmfError that names
    the option and the form it expects."""
    try:
        return None if text is None else parse(text)
    except ValueError:
        raise DmfError(f"{flag} {text!r}: expected {form}") from None


def _non_negative(flag: str, value: int | None, what: str = "ticks") -> None:
    if value is not None and value < 0:
        raise DmfError(f"{flag} {value}: {what} are non-negative")


def _emit(report: Report, fmt: str) -> int:
    sys.stdout.write(format_report(report, fmt))
    return report.exit_code


def cmd_verify(args) -> int:
    _non_negative("--tmax", args.tmax)
    _non_negative("--max-paths", args.max_paths, "conditional counts")
    if args.ignore_waste and not args.sg:
        raise DmfError("verify reads --ignore-waste only with --sg")
    program = _load_program(args.program)
    pin_map = pins.parse_pins(_read(args.pins)) if args.pins else None
    input_sg = graph.parse_input_sg(_read(args.sg)) if args.sg else None
    policy = "all" if args.all else "first"
    t_max = args.tmax

    if args.events and program.has_conditionals:
        raise DmfError("--events works on straight-line programs; "
                       "a conditional program has one event log per path")
    if program.has_conditionals or args.path:
        # the path expansion refuses a label that names no path
        return _emit(branches.verify_all_paths(
            program, pin_map=pin_map, input_sg=input_sg, policy=policy,
            t_max=t_max, only=args.path, max_conditionals=args.max_paths), args.format)

    trace, report = fluidics.verify_program(program, pin_map=pin_map,
                                            policy=policy, t_max=t_max)
    if args.events:
        _write(args.events, trace.event_log())
    if input_sg is not None and not report.violations:     # Phase I clean
        synth = graph.reconstruct(trace)
        conf = graph.conformance(input_sg, synth, program.header.accuracy,
                                 ignore_waste=args.ignore_waste)
        report.violations.extend(conf.violations)
        report.notes.extend(conf.notes)
    return _emit(report, args.format)


def cmd_graph(args) -> int:
    program = _load_program(args.program)
    if program.has_conditionals:
        raise DmfError("conditional programs have one graph per path; "
                       "dmfv verify checks every path")
    trace, report = fluidics.verify_program(program)
    if report.violations:
        sys.stdout.write(format_report(report, "text"))
        return 1
    dot = graph.to_dot(graph.reconstruct(trace), n=program.header.accuracy)
    if args.out:
        _write(args.out, dot)
    else:
        sys.stdout.write(dot)
    return 0


def cmd_paths(args) -> int:
    _non_negative("--max-paths", args.max_paths, "conditional counts")
    program = _load_program(args.program)
    for label, lines, final in branches.path_shapes(program, max_conditionals=args.max_paths):
        print(f"path {label or '(linear)'}: {lines} lines, ends at t={final}")
    return 0


# The options each inject preset reads; e1 and e2 read --line only with --move.
_INJECT_READS = {
    "e1": ("line", "move"), "e2": ("line", "move"), "e3": ("to",), "e4": ("line",),
    "e5": ("line", "pos"), "e6": ("line", "pos", "duration"), "e7": ("swap",),
    "pin": ("pins", "remap"),
}


def cmd_inject(args) -> int:
    reads = _INJECT_READS[args.error]
    for opt in ("line", "pos", "move", "to", "duration", "swap", "pins", "remap"):
        if getattr(args, opt) is not None and opt not in reads:
            raise DmfError(f"--error {args.error} does not read --{opt}")
    if "move" in reads and args.line is not None and args.move is None:
        raise DmfError(f"--error {args.error} reads --line only with --move")
    program = _load_program(args.program)
    if args.error in ("e1", "e2") and program.has_conditionals:
        raise DmfError(f"--error {args.error} works on straight-line programs; "
                       "this one has conditional calls")
    stem = Path(args.program)

    if args.error == "pin":
        if not args.pins or not args.remap:
            raise DmfError("pin injection needs --pins BASE and --remap 'r,c=P[;...]'")
        base = pins.parse_pins(_read(args.pins))
        remap = _option("--remap", "'r,c=P[;r,c=P...]'", _parse_remap, args.remap)
        mutated = base.with_remap(remap)
        out = Path(args.out) if args.out else stem.with_name(stem.stem + "_pin.pins")
        _write(out, pins.serialize_pins(mutated))
        print(f"wrote remapped pin assignment to {out}")
        return 0

    # the locale decoded argv's bytes; the reagent names must be read as the
    # program file is, as UTF-8 (bytes that are not raise UnicodeDecodeError)
    swap = None if args.swap is None else os.fsencode(args.swap).decode("utf-8")
    spec = inject.InjectionSpec(
        code=args.error, line=args.line, pos=args.pos,
        move=_option("--move", "'r,c->r,c'",
                     lambda text: tuple(map(_parse_loc, _split2(text, "->"))), args.move),
        to=_option("--to", "'r,c'", _parse_loc, args.to),
        duration=args.duration,
        swap=_option("--swap", "'A,B'", lambda text: _split2(text, ","), swap))
    mutated, note = inject.inject_error(program, spec)
    out = Path(args.out) if args.out else stem.with_name(f"{stem.stem}_{args.error}.dmf")
    _write(out, serialize_program(mutated))
    print(f"{note}\nwrote {out}")
    return 0


def cmd_render(args) -> int:
    _non_negative("--at", args.at)
    program = _load_program(args.program)
    if program.has_conditionals:
        raise DmfError("render works on straight-line programs; pick a path first")
    upto = args.at if args.at is not None else (
        program.main[-1].t if program.main else 0)

    # stop at the first violation and mark it
    _, report = fluidics.verify_program(program)
    bad_t = None
    if report.violations:
        bad_t = min(v.t for v in report.violations if v.t is not None)
        upto = min(upto, bad_t)

    draw = render.svg_frame if args.svg else render.ascii_frame
    if args.animate and args.svg:
        if not args.out:
            raise DmfError("--animate --svg needs -o DIRECTORY")
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, (t, state) in enumerate(fluidics.ticks(program, upto)):
            _write(outdir / f"frame_{i:04d}_t{t}.svg", draw(state))
    else:
        states = ([state for _, state in fluidics.ticks(program, upto)] if args.animate
                  else [fluidics.state_at(program, upto)])
        body = "\n".join(map(draw, states))
        if args.out:
            _write(args.out, body)
        else:
            sys.stdout.write(body)
    if bad_t is not None and (args.at is None or bad_t <= args.at):
        print(f"rendering stopped at t={upto}: violation at t={bad_t}", file=sys.stderr)
        sys.stdout.write(format_report(report, "text"))
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dmfv", description="Verifier for digital microfluidic actuation programs")
    sub = parser.add_subparsers(dest="command", required=True)
    max_paths_help = f"conditional count guard (default {branches.MAX_CONDITIONALS})"

    pv = sub.add_parser("verify", help="check design rules and protocol conformance")
    pv.add_argument("program", help=".dmf actuation program")
    pv.add_argument("--sg", help="input sequencing graph (.sg) for conformance")
    pv.add_argument("--pins", help="pin assignment (.pins); enables pin-constrained mode")
    pv.add_argument("--tmax", type=int, help="override the completion bound")
    pv.add_argument("--path", help="verify a single path, e.g. --path 10")
    pv.add_argument("--max-paths", type=int, default=branches.MAX_CONDITIONALS,
                    help=max_paths_help)
    pv.add_argument("--all", action="store_true",
                    help="report every violation instead of stopping at the first")
    pv.add_argument("--ignore-waste", action="store_true",
                    help="exclude waste nodes from conformance matching")
    pv.add_argument("--events", metavar="FILE",
                    help="write a newline-delimited event log (debugging aid)")
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("graph", help="reconstruct the realized sequencing graph (DOT)")
    pg.add_argument("program")
    pg.add_argument("-o", "--out")
    pg.set_defaults(func=cmd_graph)

    pp = sub.add_parser("paths", help="list the execution paths of a conditional program")
    pp.add_argument("program")
    pp.add_argument("--max-paths", type=int, default=branches.MAX_CONDITIONALS,
                    help=max_paths_help)
    pp.set_defaults(func=cmd_paths)

    pi = sub.add_parser("inject", help="write a mutated program reproducing an error class")
    pi.add_argument("program")
    pi.add_argument("--error", required=True,
                    choices=("e1", "e2", "e3", "e4", "e5", "e6", "e7", "pin"))
    pi.add_argument("--line", type=int, help="timestamp of the targeted line")
    pi.add_argument("--pos", type=int, help="instruction index within the line")
    pi.add_argument("--move", help="explicit move 'r1,c1->r2,c2' (e1/e2)")
    pi.add_argument("--to", help="wrong dispense cell 'r,c' (e3)")
    pi.add_argument("--duration", type=int, help="shortened mixing time (e6)")
    pi.add_argument("--swap", help="reagent pair 'A,B' to interchange (e7)")
    pi.add_argument("--pins", help="base pin map (pin injection)")
    pi.add_argument("--remap", help="pin remap 'r,c=P[;r,c=P...]' (pin injection)")
    pi.add_argument("-o", "--out")
    pi.set_defaults(func=cmd_inject)

    pr = sub.add_parser("render", help="ASCII or SVG snapshots of the chip")
    pr.add_argument("program")
    pr.add_argument("--at", type=int, help="render the state after tick T")
    pr.add_argument("--animate", action="store_true", help="render every tick")
    pr.add_argument("--svg", action="store_true")
    pr.add_argument("-o", "--out")
    pr.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeError, DmfError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
