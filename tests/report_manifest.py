"""The report manifest: one record per run of a fixed corpus of CLI argvs.

Each run goes through ``dmfv.cli.main`` in process.  Its record is its exit
code and a short SHA-256 over its stdout, its stderr and every file it
wrote, with the corpus' input and output directories written as ``{in}``
and ``{out}`` and the fixtures directory as ``fixtures``.  The corpus is
seeded and fixed:

- every fixture under ``verify`` (text, JSON, ``--all``, ``--sg``,
  ``--ignore-waste``, ``--tmax``, ``--path``, ``--events``), ``graph``,
  ``paths`` and ``render`` (``--at``, ``--animate``, ``--svg``);
- the four pin maps on every 15x15 fixture, with and without ``--all``;
- the default ``inject`` presets on every fixture, and one pin remap;
- the .dmf and .sg mutation corpora of ``test_cli.py``;
- the random conditional corpus of ``test_branches.py``, under each of its
  runs' pin map, spec, policy and completion bound, and under ``paths``;
- two droplets dispensed on one line next to each other, once for each of
  the eight neighbour offsets: only the global separation check, which
  runs on the committed state, sees such a pair;
- one small program for each report line and input error that no run above
  reaches (``_BLIND_SPOTS``), under ``verify`` in text and JSON, and with
  ``--all`` where that adds rows;
- ``verify`` of the program that each default ``inject`` preset writes, and
  one explicit move added before an end marker;
- each ``inject`` preset given an option that it does not read;
- one run for each input error and report line of the .pins and .sg
  readers, the CLI, ``inject``, the serializer and ``render`` that no run
  above reaches (``_input_gap_argvs``), among them a commented pin map that
  guards the comment rule the three input formats share.

``report_manifest.txt`` holds the records, one line per run (argv, exit
code, digest), sorted by argv; ``test_report_manifest.py`` recomputes them.
A change that alters a report on purpose regenerates the file with

    PYTHONPATH=src python tests/report_manifest.py

and its diff names every run whose record changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import shutil
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "report_manifest.txt"

_DMF = ("pcr.dmf", "twowaymix.dmf", "mplex.dmf", "threeway_bad.dmf", "recovery.dmf")
_SG = ("pcr.sg", "twowaymix.sg", "threeway.sg", "recovery.sg")
_PINS = ("mplex.pins", "mplex_pin1.pins", "mplex_pin2.pins", "mplex_pin3.pins")


def _fixture_argvs(fixtures: Path, outdir: Path) -> list[list[str]]:
    fx = lambda name: str(fixtures / name)
    out = lambda name: str(outdir / name)
    argvs = []
    for dmf in _DMF:
        p = fx(dmf)
        for flags in ([], ["--format", "json"], ["--all"], ["--all", "--format", "json"],
                      ["--tmax", "20"], ["--tmax", "20", "--format", "json"],
                      ["--path", "10"], ["--path", "01", "--all"],
                      ["--events", out("events.log")]):
            argvs.append(["verify", p, *flags])
        for sg in _SG:
            for flags in ([], ["--format", "json"], ["--all"], ["--ignore-waste"]):
                argvs.append(["verify", p, "--sg", fx(sg), *flags])
        argvs += [["graph", p], ["graph", p, "-o", out("g.dot")], ["paths", p],
                  ["render", p], ["render", p, "--at", "0"], ["render", p, "--at", "4"],
                  ["render", p, "--at", "20"], ["render", p, "--animate"],
                  ["render", p, "--animate", "-o", out("frames.txt")],
                  ["render", p, "--at", "4", "--svg"],
                  ["render", p, "--animate", "--svg", "-o", out("frames")]]
        argvs += [["inject", p, "--error", e, "-o", out("mutated.dmf")]
                  for e in ("e1", "e2", "e3", "e4", "e5", "e6", "e7")]
        if dmf != "recovery.dmf":       # the pin maps are 15x15
            for pins in _PINS:
                for flags in ([], ["--all"], ["--format", "json"]):
                    argvs.append(["verify", p, "--pins", fx(pins), *flags])
    argvs.append(["inject", fx("mplex.dmf"), "--error", "pin", "--pins", fx("mplex.pins"),
                  "--remap", "13,5=6", "-o", out("bad.pins")])
    return argvs


def _random_conditional_argvs(indir: Path) -> list[list[str]]:
    from dmfv.graph import parse_input_sg
    from dmfv.isa import serialize_program
    from dmfv.pins import serialize_pins
    from test_branches import _OUT_S, _OUT_SB, _random_corpus

    specs = []
    for name, text in (("out_s.sg", _OUT_S), ("out_sb.sg", _OUT_SB)):
        (indir / name).write_text(text)
        specs.append((parse_input_sg(text), str(indir / name)))
    argvs = []
    for k, (prog, runs) in enumerate(_random_corpus()):
        path = indir / f"cond{k:02}.dmf"
        path.write_text(serialize_program(prog))
        argvs.append(["paths", str(path)])
        for kw in runs:
            argv = ["verify", str(path),
                    "--sg", next(f for sg, f in specs if sg == kw["input_sg"])]
            if kw["pin_map"] is not None:
                pins = indir / f"cond{k:02}.pins"
                pins.write_text(serialize_pins(kw["pin_map"]))
                argv += ["--pins", str(pins)]
            if kw["policy"] == "all":
                argv.append("--all")
            if kw["t_max"] is not None:
                argv += ["--tmax", str(kw["t_max"])]
            argvs.append(argv)
    return argvs


def _adjacent_dispense_argvs(indir: Path) -> list[list[str]]:
    argvs = []
    for k, (dr, dc) in enumerate((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                                 if dr or dc):
        path = indir / f"adjacent{k}.dmf"
        path.write_text(f"dim(9,9)\naccuracy 2\nR(5,5,S) R({5 + dr},{5 + dc},B)\n"
                        f"1 d(5,5) d({5 + dr},{5 + dc})\n2 end\n")
        argvs += [["verify", str(path)], ["verify", str(path), "--all", "--format", "json"]]
    return argvs


_TEXT_JSON = ([], ["--format", "json"])
_ALL = (["--all"], ["--all", "--format", "json"])
_GRID = "dim(9,9)\naccuracy 2\n"
_SMALL = "dim(5,5)\naccuracy 2\nR(1,1,S)\n"
_DETECTS = _SMALL + "D(d1,1,1,1)\n1 d(1,1)\n2 detect(d1)\n"

# file -> (program, the flags of each of its verify runs).  A row that only a
# state left by an earlier violation can reach shows under --all alone.
_BLIND_SPOTS = {
    # Phase I rows
    "same_cell.dmf": (_GRID + "R(3,3,S)\n1 d(3,3)\n2 m(3,3,3,4) m(3,5,3,4)\n3 end\n",
                      _TEXT_JSON),
    "claimed.dmf": (_GRID + "R(3,4,S)\n1 d(3,4) m(3,3,3,4)\n2 end\n", _TEXT_JSON),
    "occupied.dmf": (_GRID + "R(5,5,S) R(5,6,B)\n1 d(5,5) d(5,6)\n2 m(5,5,5,6)\n3 end\n", _ALL),
    "dynamic.dmf": (_GRID + "R(3,3,S) R(3,5,B)\n1 d(3,3) d(3,5)\n2 m(3,3,3,4) m(3,5,3,6)\n"
                    "3 end\n", _TEXT_JSON),
    "geometry.dmf": (_GRID + "R(3,3,S) R(3,5,B)\n1 d(3,3) d(3,5)\n2 mix(3,3,3,5,2,14)\n"
                     "5 end\n", _TEXT_JSON),
    "mix_pinned.dmf": (_GRID + "R(3,2,S) R(3,5,B)\n1 d(3,2) d(3,5)\n2 mix(3,2,3,5,4,14)\n"
                       "3 mix(3,2,3,5,4,14)\n8 end\n", _TEXT_JSON),
    "mix_hood.dmf": (_GRID + "R(3,2,S) R(3,3,B) R(3,5,C)\n1 d(3,2) d(3,3) d(3,5)\n"
                     "2 mix(3,2,3,5,2,14)\n5 end\n", _ALL),
    "busy.dmf": (_GRID + "R(3,3,S)\nD(d1,3,3,3)\n1 d(3,3)\n2 detect(d1)\n3 detect(d1)\n"
                 "6 end\n", _TEXT_JSON),
    "detect_mixing.dmf": (_GRID + "R(3,2,S) R(3,5,B)\nD(d1,3,2,2)\n1 d(3,2) d(3,5)\n"
                          "2 mix(3,2,3,5,4,14)\n3 detect(d1)\n8 end\n", _TEXT_JSON),
    "empty_sink.dmf": (_SMALL + "W(5,5)\n1 waste(5,5)\n2 end\n", _TEXT_JSON),
    "mixer_span.dmf": (_GRID + "R(3,3,S) R(4,3,B) R(3,6,C)\n1 d(3,3) d(4,3)\n2 d(3,6)\n"
                       "3 mix(3,3,3,6,3,14) m(4,3,4,4)\n8 end\n", _ALL),
    # pin dispense rows, on shared5.pins
    "pin_self.dmf": (_SMALL + "1 d(1,1)\n2 end\n", _TEXT_JSON),
    "pin_other.dmf": ("dim(5,5)\naccuracy 2\nR(3,3,S) R(1,5,B)\n1 d(3,3)\n2 d(1,5)\n3 end\n",
                      _TEXT_JSON + _ALL),
    # parse errors
    "mix_time.dmf": (_SMALL + "1 mix(1,1,1,4,0,14)\n", ([],)),
    "mix_type.dmf": (_SMALL + "1 mix(1,1,1,4,2,15)\n", ([],)),
    "dup_dim.dmf": ("dim(5,5)\n" + _SMALL, ([],)),
    "zero_dim.dmf": ("dim(0,5)\naccuracy 2\n", ([],)),
    "dup_accuracy.dmf": (_SMALL + "accuracy 3\n", ([],)),
    "stray_endrecovery.dmf": (_SMALL + "1 end\nendrecovery\n", ([],)),
    "dup_recovery.dmf": (_DETECTS + "3 if(d1) call Recovery(1)\n4 end\nrecovery 1:\n"
                         "5 waste(1,1)\nendrecovery\nrecovery 1:\n5 waste(1,1)\nendrecovery\n",
                         ([],)),
    "open_recovery.dmf": (_SMALL + "1 end\nrecovery 1:\n2 d(1,1)\n", ([],)),
    # validation issues
    "bad_accuracy.dmf": ("dim(5,5)\naccuracy 0\nR(1,1,S)\n1 end\n", ([],)),
    "reserved.dmf": ("dim(5,5)\naccuracy 2\nR(1,1,v1)\n1 end\n", ([],)),
    "dup_reservoir.dmf": (_SMALL + "W(1,1)\n1 end\n", ([],)),
    "dup_detector.dmf": (_SMALL + "D(d1,2,2,1) D(d1,3,3,1)\n1 end\n", ([],)),
    "bad_duration.dmf": (_SMALL + "D(d1,2,2,0)\n1 end\n", ([],)),
    "reservoir_off.dmf": (_SMALL + "W(9,9)\n1 end\n", ([],)),
    "detector_off.dmf": (_SMALL + "D(d1,9,9,1)\n1 end\n", ([],)),
    "nested.dmf": (_DETECTS + "3 if(d1) call Recovery(1)\n4 end\nrecovery 1:\n5 detect(d1)\n"
                   "6 if(d1) call Recovery(2)\nendrecovery\nrecovery 2:\n7 waste(1,1)\n"
                   "endrecovery\n", ([],)),
    "not_alone.dmf": (_DETECTS + "3 if(d1) call Recovery(1) m(1,1,1,2)\n4 end\nrecovery 1:\n"
                      "5 m(1,1,1,2)\nendrecovery\n", ([],)),
    "empty_recovery.dmf": (_DETECTS + "3 if(d1) call Recovery(1)\n4 end\nrecovery 1:\n"
                           "endrecovery\n", ([],)),
    "reused.dmf": (_DETECTS + "3 if(d1) call Recovery(1)\n4 detect(d1)\n"
                   "5 if(d1) call Recovery(1)\n6 end\nrecovery 1:\n7 m(1,1,1,2)\nendrecovery\n",
                   ([],)),
    "tmax_small.dmf": (_SMALL + "tmax 1\n1 d(1,1)\n2 end\n", ([],)),
}


def _blind_spot_argvs(fixtures: Path, indir: Path, outdir: Path) -> list[list[str]]:
    from dmfv.isa import Loc
    from conftest import dedicated_map
    from dmfv.pins import serialize_pins

    pins = indir / "shared5.pins"     # pin 1 twice in N4(1,1), pin 5 at (1,5) and (2,3)
    pins.write_text(serialize_pins(dedicated_map(5, 5).with_remap({Loc(1, 2): 1,
                                                                     Loc(2, 3): 5})))
    argvs = []
    for name, (text, runs) in _BLIND_SPOTS.items():
        path = indir / name
        path.write_text(text)
        extra = ["--pins", str(pins)] if name.startswith("pin_") else []
        argvs += [["verify", str(path), *extra, *flags] for flags in runs]
    # twowaymix at accuracy 1: its 1/4 concentration rounds
    coarse = indir / "coarse.dmf"
    coarse.write_text((fixtures / "twowaymix.dmf").read_text().replace("accuracy 5",
                                                                        "accuracy 1"))
    argvs += [["graph", str(coarse)],
              *(["verify", str(coarse), "--sg", str(fixtures / "twowaymix.sg"), *flags]
                for flags in _TEXT_JSON)]
    # what each default inject preset writes, verified; an inapplicable
    # preset writes nothing, and its verify records the missing file
    for dmf in _DMF:
        for e in ("e1", "e2", "e3", "e4", "e5", "e6", "e7"):
            written = str(indir / f"{Path(dmf).stem}_{e}.dmf")
            argvs += [["inject", str(fixtures / dmf), "--error", e, "-o", written],
                      ["verify", written]]
    argvs.append(["inject", str(fixtures / "twowaymix.dmf"), "--error", "e1",
                  "--move", "1,1->1,2", "--line", "36", "-o", str(outdir / "mutated.dmf")])
    return argvs


# file -> text, for the runs of ``_input_gap_argvs``
_GAP_FILES = {
    # .pins errors
    "word.pins": "1 2\nx 4\n",
    "empty.pins": "# no rows\n",
    "ragged.pins": "1 2 3\n4 5\n",
    # .sg errors
    "no_reagents.sg": "reagents\n",
    "no_reagent.sg": "reagents S\nnode S dispense\n",
    "bad_edge.sg": "reagents S\nnode S dispense S\nedge S\n",
    # programs for inject and render
    "boxed.dmf": "dim(2,2)\naccuracy 2\nR(1,1,S) O(1,2) W(2,1)\n1 d(1,1)\n2 end\n",
    "no_dispense.dmf": _SMALL + "1 end\n",
    "vertical.dmf": _GRID + "R(3,3,S) R(6,3,B)\n1 d(3,3) d(6,3)\n2 mix(3,3,6,3,3,41)\n8 end\n",
    "mix_at_zero.dmf": _GRID + "R(3,3,S) R(3,6,B)\n0 mix(3,3,3,6,2,14)\n5 end\n",
    "with_tmax.dmf": "dim(5,5)\naccuracy 2\nR(1,1,S) R(1,5,B)\ntmax 9\n1 d(1,1)\n2 end\n",
    "detector.dmf": (_SMALL + "D(d1,1,3,3)\n1 d(1,1)\n2 m(1,1,1,2)\n3 m(1,2,1,3)\n"
                     "4 detect(d1)\n8 end\n"),
}


def _input_gap_argvs(fixtures: Path, indir: Path, outdir: Path) -> list[list[str]]:
    """One run for each input error and report line of the .pins and .sg
    readers, the CLI, ``inject``, the serializer and ``render`` that no run
    above reaches."""
    f = {name: str(indir / f"gap_{name}") for name in (*_GAP_FILES, "commented.pins")}
    for name, text in _GAP_FILES.items():
        Path(f[name]).write_text(text)
    # mplex.pins with a comment line, a blank line and a trailing comment
    Path(f["commented.pins"]).write_text("# mplex, commented\n\n" + (
        fixtures / "mplex.pins").read_text().replace("\n", "  # row 1\n", 1))
    fx = lambda name: str(fixtures / name)
    mutated = str(outdir / "mutated.dmf")
    argvs = [["verify", fx("mplex.dmf"), "--pins", f["commented.pins"]]]
    argvs += [["verify", fx("twowaymix.dmf"), "--pins", f[name]]
              for name in ("word.pins", "empty.pins", "ragged.pins")]
    argvs += [["verify", fx("twowaymix.dmf"), "--sg", f[name]]
              for name in ("no_reagents.sg", "no_reagent.sg", "bad_edge.sg")]
    argvs += [["inject", fx("mplex.dmf"), "--error", "pin", "--pins", fx("mplex.pins"),
               "-o", str(outdir / "bad.pins")],
              ["render", fx("twowaymix.dmf"), "--animate", "--svg"],
              ["inject", fx("twowaymix.dmf"), "--error", "e1", "--move", "1,1->1,2",
               "--line", "999", "-o", mutated],
              ["inject", fx("pcr.dmf"), "--error", "e7", "--swap", "R1,Zz", "-o", mutated],
              ["inject", fx("pcr.dmf"), "--error", "e7", "--swap", "R1,R2", "-o", mutated],
              ["inject", f["boxed.dmf"], "--error", "e3", "-o", mutated],
              ["inject", f["no_dispense.dmf"], "--error", "e3", "-o", mutated],
              ["inject", f["vertical.dmf"], "--error", "e4", "-o", str(indir / "gap_e4.dmf")],
              ["verify", str(indir / "gap_e4.dmf")],
              ["inject", f["mix_at_zero.dmf"], "--error", "e5", "-o", mutated],
              ["inject", fx("pcr.dmf"), "--error", "e6", "--duration", "99", "-o", mutated],
              ["inject", f["no_dispense.dmf"], "--error", "e7", "-o", mutated],
              ["inject", f["with_tmax.dmf"], "--error", "e7", "-o", mutated],
              ["render", f["detector.dmf"], "--animate"]]
    return argvs


def _inject_refusal_argvs(fixtures: Path, outdir: Path) -> list[list[str]]:
    """Each inject preset, given an option it does not read (e1 and e2 read
    --line only with --move)."""
    pcr, pins = str(fixtures / "pcr.dmf"), str(fixtures / "mplex.pins")
    unread = (("e1", ["--duration", "3"]), ("e1", ["--line", "5"]), ("e2", ["--to", "1,1"]),
              ("e3", ["--line", "5"]), ("e4", ["--pins", pins]), ("e5", ["--swap", "A,B"]),
              ("e6", ["--move", "1,1->1,2"]), ("e7", ["--pos", "2"]),
              ("pin", ["--pins", pins, "--remap", "13,5=6", "--line", "3"]))
    return [["inject", pcr, "--error", e, *flags, "-o", str(outdir / "mutated.dmf")]
            for e, flags in unread]


def corpus(indir: Path, outdir: Path) -> list[list[str]]:
    """Every argv of the manifest; their input files are written to ``indir``."""
    from conftest import FIXTURES
    from test_cli import mutated_dmf_corpus, mutated_sg_corpus

    argvs = _fixture_argvs(FIXTURES, outdir)
    argvs += [argv for _, case in mutated_dmf_corpus(indir, outdir) for argv in case]
    argvs += [argv for argv, _, _ in mutated_sg_corpus(indir)]
    argvs += _random_conditional_argvs(indir)
    argvs += _adjacent_dispense_argvs(indir)
    argvs += _blind_spot_argvs(FIXTURES, indir, outdir)
    argvs += _inject_refusal_argvs(FIXTURES, outdir)
    argvs += _input_gap_argvs(FIXTURES, indir, outdir)
    return argvs


def records(workdir: Path) -> dict[str, str]:
    """{argv: "exit code<TAB>digest"} for every run of the corpus; the runs
    read and write under ``workdir``."""
    from conftest import FIXTURES
    from dmfv.cli import main

    indir, outdir = workdir / "in", workdir / "out"
    indir.mkdir()
    outdir.mkdir()
    paths = ((str(indir), "{in}"), (str(outdir), "{out}"), (str(FIXTURES), "fixtures"))

    def normal(text: str) -> str:
        for path, name in paths:
            text = text.replace(path, name)
        return text

    out: dict[str, str] = {}
    for argv in corpus(indir, outdir):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        digest = hashlib.sha256()
        for text in (stdout.getvalue(), stderr.getvalue()):
            digest.update(normal(text).encode() + b"\0")
        for written in sorted(outdir.rglob("*")):
            if written.is_file():
                digest.update(written.relative_to(outdir).as_posix().encode() + b"\0")
                digest.update(normal(written.read_text()).encode() + b"\0")
        shutil.rmtree(outdir)
        outdir.mkdir()
        key = normal(shlex.join(argv))
        if key in out:
            raise ValueError(f"the corpus runs {key} twice")
        out[key] = f"{rc}\t{digest.hexdigest()[:12]}"
    return out


def read() -> dict[str, str]:
    """The records of the manifest file."""
    return dict(line.split("\t", 1) for line in MANIFEST.read_text().splitlines())


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        recs = records(Path(tmp))
    MANIFEST.write_text("".join(f"{argv}\t{rec}\n" for argv, rec in sorted(recs.items())))
    print(f"wrote {len(recs)} records to {MANIFEST}")


if __name__ == "__main__":
    main()
