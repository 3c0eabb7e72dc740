"""Render the generated tables of ``docs/*.md`` from the code.

    python -m tests.doctables

Each block between a ``<!-- generated: KIND [ARGUMENT] -->`` line and the
next ``<!-- end generated -->`` line is rewritten by the rule of its kind:

``endpoints``
    ``| method | path | legacy alias | lane | request | answer |``, one row per
    row of :data:`repro.api.endpoints.V1_ENDPOINTS`, the answer cell its
    ``help``.
``modules PACKAGE``
    ``| module | summary |``, one row per module of ``PACKAGE`` (a subpackage
    by its ``__init__``, dunder modules left out), in name order, the summary
    the first paragraph of its docstring.

Everything outside the blocks is left as it is, so a second run changes
nothing.  ``tests/test_doctables.py`` fails when a committed block differs
from a fresh render; the fix is to run this module, never to edit a block.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import Callable, Iterable

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

BEGIN = re.compile(r"<!-- generated: (\w+)(?: ([\w.]+))? -->")
END = "<!-- end generated -->"

_ROLE = re.compile(r":\w+:`(~?)([^`]+)`")


def _cell(text: str) -> str:
    """One table cell from reStructuredText: roles and ``literals`` become
    Markdown code spans, whitespace one space, ``|`` escaped."""

    def role(match: re.Match[str]) -> str:
        target = match.group(2)
        return f"`{target.rsplit('.', 1)[-1] if match.group(1) else target}`"

    text = _ROLE.sub(role, text).replace("``", "`")
    return " ".join(text.split()).replace("|", "\\|")


def _table(header: tuple[str, ...], rows: Iterable[tuple[str, ...]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(_cell(cell) for cell in row) + " |" for row in rows]
    return lines


def endpoint_table(argument: str | None = None) -> list[str]:
    from repro.api.endpoints import V1_ENDPOINTS

    rows = []
    for endpoint in V1_ENDPOINTS:
        if not endpoint.help:
            raise ValueError(f"endpoint {endpoint.name!r} has no help text")
        rows.append((
            endpoint.method,
            f"``{endpoint.path}``",
            ", ".join(f"``{alias}``" for alias in endpoint.aliases) or "—",
            f"``{endpoint.lane}``",
            f"``{endpoint.schema.__name__}``" if endpoint.schema is not None else "—",
            endpoint.help,
        ))
    return _table(("method", "path", "legacy alias", "lane", "request", "answer"), rows)


def summary(path: Path) -> str:
    """The first paragraph of a module file's docstring."""
    docstring = ast.get_docstring(ast.parse(path.read_text()))
    if not docstring:
        raise ValueError(f"{path} has no module docstring")
    return docstring.split("\n\n", 1)[0]


def module_table(package: str | None) -> list[str]:
    if package is None:
        raise ValueError("a modules block names its package")
    (directory,) = importlib.import_module(package).__path__
    rows = []
    for path in sorted(Path(directory).iterdir()):
        if path.name.startswith("__"):
            continue
        if path.suffix == ".py":
            rows.append((f"``{package}.{path.stem}``", summary(path)))
        elif (path / "__init__.py").is_file():
            rows.append((f"``{package}.{path.name}``", summary(path / "__init__.py")))
    return _table(("module", "summary"), rows)


RULES: dict[str, Callable[[str | None], list[str]]] = {
    "endpoints": endpoint_table,
    "modules": module_table,
}


def render(text: str) -> str:
    """``text`` with every generated block rewritten."""
    out: list[str] = []
    lines = iter(text.splitlines(keepends=True))
    for line in lines:
        out.append(line)
        match = BEGIN.fullmatch(line.strip())
        if match is None:
            continue
        kind, argument = match.groups()
        if kind not in RULES:
            raise ValueError(f"unknown generated block kind {kind!r}")
        for inner in lines:
            if inner.strip() == END:
                break
        else:
            raise ValueError(f"generated block {kind!r} has no {END!r} line")
        out += [row + "\n" for row in RULES[kind](argument)]
        out.append(inner)
    return "".join(out)


def main() -> None:
    for path in sorted(DOCS.glob("*.md")):
        text = path.read_text()
        rendered = render(text)
        if rendered != text:
            path.write_text(rendered)
            print(f"rewrote {path.relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    main()
