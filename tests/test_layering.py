"""The modules of ``dmfv`` import each other at module level only, and
without a cycle: every module can be read, and loaded, after the ones it
imports.  An import under ``if TYPE_CHECKING:`` counts as well."""

import ast
from pathlib import Path

from unreached_code import ALLOWED, Allowed, Finding, problems, unnamed_defs

SRC = Path(__file__).resolve().parent.parent / "src" / "dmfv"


def _relative_imports(tree: ast.Module):
    """(module, line, inside a function) of each relative import of ``tree``."""
    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                names = [child.module] if child.module else [a.name for a in child.names]
                for name in names:
                    yield name, child.lineno, in_function
            yield from visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    yield from visit(tree, False)


def _module_graph() -> tuple[dict[str, set[str]], list[str]]:
    """Each module's module-level relative imports, and every import made
    inside a function."""
    graph, local = {}, []
    for path in sorted(SRC.glob("*.py")):
        graph[path.stem] = set()
        for name, line, in_function in _relative_imports(ast.parse(path.read_text())):
            if in_function:
                local.append(f"{path.name}:{line} imports .{name}")
            else:
                graph[path.stem].add(name)
    return graph, local


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of ``graph``, as the modules along it, or None."""
    done, stack = set(), []

    def visit(mod):
        if mod in stack:
            return stack[stack.index(mod):] + [mod]
        if mod in done or mod not in graph:
            return None
        stack.append(mod)
        for dep in sorted(graph[mod]):
            found = visit(dep)
            if found:
                return found
        stack.pop()
        done.add(mod)
        return None

    for mod in sorted(graph):
        found = visit(mod)
        if found:
            return found
    return None


def test_no_import_inside_a_function():
    _, local = _module_graph()
    assert not local, local


def test_module_imports_are_acyclic():
    graph, _ = _module_graph()
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_cycle_finder_sees_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_every_def_is_named_in_src():
    """The name scan of ``unreached_code``, whose line trace runs outside
    tier-1: a def or class of ``src/dmfv`` that no ``src/`` code names
    fails here unless its allowlist entry says why."""
    defs = tuple(a for a in ALLOWED if a.text.startswith(("def ", "async def ", "class ")))
    assert problems(unnamed_defs(), defs) == []


def test_unreached_code_verdict_sees_both_faults():
    found = Finding("inject.py", 64, "raise MutationInapplicable(x)", "unreached")
    listed = Allowed("inject.py", "raise MutationInapplicable(x)", "a reason")
    stale = Allowed("cli.py", "sys.exit(main())", "a reason")
    assert problems([found], (listed,)) == []
    assert problems([found], (stale,)) == [
        "src/dmfv/inject.py:64: unreached: raise MutationInapplicable(x)",
        "allowlist entry matches nothing: cli.py: sys.exit(main())"]
