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
  runs on the committed state, sees such a pair.

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


def corpus(indir: Path, outdir: Path) -> list[list[str]]:
    """Every argv of the manifest; their input files are written to ``indir``."""
    from conftest import FIXTURES
    from test_cli import mutated_dmf_corpus, mutated_sg_corpus

    argvs = _fixture_argvs(FIXTURES, outdir)
    argvs += [argv for _, case in mutated_dmf_corpus(indir, outdir) for argv in case]
    argvs += [argv for argv, _, _ in mutated_sg_corpus(indir)]
    argvs += _random_conditional_argvs(indir)
    argvs += _adjacent_dispense_argvs(indir)
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
