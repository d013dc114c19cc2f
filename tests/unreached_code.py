"""Unreached ``src/dmfv`` code: lines that no tier-1 test runs, and defs
that no ``src/`` code names.

Run from the repository root, with no flags::

    PYTHONPATH=src python tests/unreached_code.py

It has two halves:

- the line trace runs tier-1 in this process under one ``sys.settrace``
  tracer, limited to frames of ``src/dmfv``, and compares the lines hit
  with each module's executable lines, read from its code objects'
  ``co_lines``;
- the name scan lists every ``def`` and ``class`` of ``src/dmfv`` that no
  ``src/`` code names, other than its own definition and the package's
  re-export in ``__init__``.  Tier-1 runs this half (``test_layering``).

It exits 1 on a finding that ``ALLOWED`` does not name, on an ``ALLOWED``
entry that matches no finding, and when tier-1 fails under the tracer.  An
entry is keyed by module and the stripped source text of the line, not by
line number, and gives its reason.  A subprocess is not traced, so a line
that only a subprocess runs reads as unreached.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dmfv"


class Allowed(NamedTuple):
    module: str         # file name under src/dmfv
    text: str           # the line's source text, stripped
    reason: str


ALLOWED = (
    Allowed("cli.py", "sys.exit(main())",
            "runs only as `python -m dmfv.cli`, in the subprocesses of "
            "test_cli.py's module-entry tests, which the tracer does not see; "
            "the in-process tests call main()"),
)


class Finding(NamedTuple):
    module: str
    line: int
    text: str
    kind: str           # "unreached" or "unnamed"

    def __str__(self) -> str:
        return f"src/dmfv/{self.module}:{self.line}: {self.kind}: {self.text}"


def _text(module: str, line: int) -> str:
    return (SRC / module).read_text().splitlines()[line - 1].strip()


# --- the name scan ---------------------------------------------------------------

def _scan(node, enclosing: frozenset, defs: list, refs: dict, module: str) -> None:
    """Collect the defs under ``node``, and for each name that ``node``'s
    code reads, where it may be defined and the enclosing defs of the place
    that reads it.  A bare name is this module's own or an import, an
    import names its module's def, and an attribute may name any module's."""
    for child in ast.iter_child_nodes(node):
        inner = enclosing
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(child)
            inner = enclosing | {id(child)}
        elif isinstance(child, ast.Name):
            refs.setdefault(child.id, []).append((module, enclosing))
        elif isinstance(child, ast.Attribute):
            refs.setdefault(child.attr, []).append((None, enclosing))
        elif isinstance(child, ast.ImportFrom) and module != "__init__.py":
            for alias in child.names:
                refs.setdefault(alias.name, []).append((f"{child.module}.py", enclosing))
        _scan(child, inner, defs, refs, module)


def unnamed_defs() -> list[Finding]:
    """Every def and class of ``src/dmfv`` that no ``src/`` code names
    outside its own body; dunder methods are called implicitly and left out."""
    defs, refs = [], {}
    for path in sorted(SRC.glob("*.py")):
        found: list = []
        _scan(ast.parse(path.read_text()), frozenset(), found, refs, path.name)
        defs += [(path.name, node) for node in found]
    out = []
    for module, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(where in (None, module) and id(node) not in inside
                   for where, inside in refs.get(name, ())):
            out.append(Finding(module, node.lineno, _text(module, node.lineno), "unnamed"))
    return out


# --- the line trace --------------------------------------------------------------

def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that its code objects, nested ones included, run
    (a module's code starts with an instruction on line 0, which no source
    line holds)."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def traced_tier1() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit code, and the lines of each ``src/dmfv`` module that it
    runs in this process.  No ``dmfv`` module may be imported before."""
    import pytest

    if any(name == "dmfv" or name.startswith("dmfv.") for name in sys.modules):
        raise RuntimeError("dmfv was imported before the tracer started")
    src, mine, hits = str(SRC), {}, {}

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        keep = mine.get(name)
        if keep is None:
            keep = mine[name] = os.path.dirname(os.path.realpath(name)) == src
            if keep:
                hits.setdefault(name, set())
        return line if keep else None

    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    by_module: dict[str, set[int]] = {}
    for name, lines in hits.items():
        by_module.setdefault(Path(name).name, set()).update(lines)
    return int(code), by_module


def unreached_lines(hit: dict[str, set[int]]) -> list[Finding]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        for n in sorted(executable_lines(path) - hit.get(path.name, set())):
            out.append(Finding(path.name, n, _text(path.name, n), "unreached"))
    return out


# --- the verdict -----------------------------------------------------------------

def problems(findings: list[Finding], allowed=ALLOWED) -> list[str]:
    """A finding that no entry names, and an entry that names no finding."""
    keys = {(a.module, a.text) for a in allowed}
    out = [str(f) for f in findings if (f.module, f.text) not in keys]
    hit = {(f.module, f.text) for f in findings}
    out += [f"allowlist entry matches nothing: {a.module}: {a.text}"
            for a in allowed if (a.module, a.text) not in hit]
    return out


def main() -> int:
    code, hit = traced_tier1()
    if code != 0:
        print(f"tier-1 exited {code} under the tracer; its trace is incomplete")
        return 1
    found = unreached_lines(hit) + unnamed_defs()
    bad = problems(found)
    for f in found:
        if str(f) not in bad:
            reason = next(a.reason for a in ALLOWED if (a.module, a.text) == (f.module, f.text))
            print(f"allowed: {f} ({reason})")
    for line in bad:
        print(line)
    print(f"{len(found)} finding(s), {len(bad)} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
