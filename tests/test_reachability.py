"""Nothing in ``src/`` that only tests reach.

A name scan over the source, stdlib ``ast`` only.  Non-test code is every
``*.py`` file under ``src/``, ``perf/``, ``benchmarks/`` and ``examples/``.

* A ``def`` or ``class`` at module or class level in ``src/`` is reached when
  non-test code names it outside the definition's own body, or when
  ``docs/api.md`` or ``README.md`` mentions it as a word.  Naming is a
  ``Name``, an attribute, a ``from ... import`` of it (a package re-export
  counts) or a capitalised string that spells it (a forward reference to a
  class).  Names are matched by spelling, not resolved: ``x.run`` reaches
  every ``run``.  Dunder methods are called by Python and are never findings.
* A module in ``src/`` is reached when non-test code other than itself
  imports it or one of its submodules, or ``pyproject.toml`` names it as a
  script entry point.

Anything else must be on ``ALLOWLIST`` with a reason.  An entry that no
longer names a definition or module, or whose target is now reached, fails
too, so the list cannot outlive what it excuses.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NON_TEST_DIRS = ("src", "perf", "benchmarks", "examples")
DOCUMENTS = ("docs/api.md", "README.md")

# qualified name -> why it stays although only tests reach it
ALLOWLIST: dict[str, str] = {
    "repro.__main__": "run by `python -m repro`, which imports nothing",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _definitions(tree: ast.Module, module: str):
    """(qualified name, simple name, first line, last line) of each module- or
    class-level def / class, methods of nested classes included."""
    stack = [(node, module) for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        qualified = f"{prefix}.{name}"
        yield qualified, name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            stack.extend((child, qualified) for child in node.body)


def _imported_modules(tree: ast.Module, module: str, is_package: bool) -> set[str]:
    """Every module an import in ``module`` loads, its packages included."""
    package = module if is_package else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            # `from pkg import name` loads pkg.name when that is a module
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            found.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return found


def _references(tree: ast.Module):
    """(name, line) of each naming: a ``Name``, an attribute, an imported name,
    a capitalised identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a class named before it is defined: "TraceSpan"
            if node.value.isidentifier() and node.value[0].isupper():
                yield node.value, node.lineno


def _entry_points() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"([\w.]+):', section))


@functools.cache
def _scan() -> tuple[frozenset[str], frozenset[str]]:
    """(findings, every qualified name defined) over the current tree."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for directory in NON_TEST_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    }
    modules = {path: _module_name(path) for path in trees if SRC in path.parents}

    uses: dict[str, list[tuple[Path, int]]] = {}
    imported: set[str] = set(_entry_points())
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
        if path in modules:
            here = modules[path]
            loads = _imported_modules(tree, here, path.name == "__init__.py")
            imported.update(loads - {here})
        else:
            imported.update(_imported_modules(tree, "", True))

    documented = " ".join((ROOT / doc).read_text() for doc in DOCUMENTS)
    words = set(re.findall(r"\w+", documented))

    findings: set[str] = set()
    defined: set[str] = set()
    for path, module in modules.items():
        defined.add(module)
        if module not in imported:
            findings.add(module)
        for qualified, name, first, last in _definitions(trees[path], module):
            defined.add(qualified)
            outside = any(
                use_path != path or not first <= line <= last
                for use_path, line in uses.get(name, ())
            )
            if not outside and name not in words:
                findings.add(qualified)
    return frozenset(findings), frozenset(defined)


def test_nothing_in_src_is_reached_only_by_tests():
    findings, _ = _scan()
    unexcused = sorted(findings - ALLOWLIST.keys())
    assert not unexcused, (
        "reached only by tests (delete it, move a test oracle to tests/, "
        f"document it in docs/api.md, or allowlist it with a reason): {unexcused}"
    )


def test_the_allowlist_is_short_reasoned_and_current():
    findings, defined = _scan()
    assert len(ALLOWLIST) <= 10
    assert all(reason.strip() for reason in ALLOWLIST.values())
    gone = sorted(ALLOWLIST.keys() - defined)
    assert not gone, f"allowlisted but no longer defined: {gone}"
    reached = sorted(ALLOWLIST.keys() - findings)
    assert not reached, f"allowlisted but now reached by non-test code: {reached}"
