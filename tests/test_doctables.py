"""Each endpoint and each module is written once, in the code.

The tables between ``<!-- generated: … -->`` markers in ``docs/`` must be a
fresh render of :mod:`tests.doctables`, no endpoint or module table may be
written by hand beside them, and ``docs/api.md``'s error-code table must name
exactly the codes ``src/`` sends.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import sys
from pathlib import Path

import pytest

import repro
from repro.api import core as api_core
from repro.api import endpoints
from tests import doctables

DOCS = sorted(doctables.DOCS.glob("*.md"))
API_DOC = doctables.DOCS / "api.md"
HAND_WRITTEN = (*DOCS, doctables.REPO_ROOT / "README.md")


def outside_blocks(text: str) -> list[str]:
    """The lines of ``text`` that no generated block holds."""
    lines, inside = [], False
    for line in text.splitlines():
        if doctables.BEGIN.fullmatch(line.strip()):
            inside = True
        elif line.strip() == doctables.END:
            inside = False
        elif not inside:
            lines.append(line)
    return lines


@pytest.mark.parametrize("path", DOCS, ids=lambda path: path.name)
def test_the_committed_tables_are_a_fresh_render(path):
    text = path.read_text()
    assert doctables.render(text) == text, (
        f"docs/{path.name} differs from a fresh render: run python -m tests.doctables"
    )


def test_a_hand_edit_inside_a_block_is_caught():
    text = API_DOC.read_text()
    edited = text.replace("| GET | `/v1/slow` |", "| GET | `/v1/slower` |", 1)
    assert edited != text
    assert doctables.render(edited) == text


def test_a_changed_endpoint_row_changes_the_render(monkeypatch):
    text = API_DOC.read_text()
    first, *rest = endpoints.V1_ENDPOINTS
    monkeypatch.setattr(
        endpoints, "V1_ENDPOINTS", (dataclasses.replace(first, help="changed"), *rest)
    )
    assert doctables.render(text) != text
    monkeypatch.setattr(
        endpoints, "V1_ENDPOINTS", (dataclasses.replace(first, help=""), *rest)
    )
    with pytest.raises(ValueError, match="'health' has no help text"):
        doctables.render(text)


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A throwaway package ``docpkg``: two modules, a subpackage, a dunder."""
    root = tmp_path / "docpkg"
    (root / "beta").mkdir(parents=True)
    (root / "__init__.py").write_text('"""The package."""\n')
    (root / "__main__.py").write_text('"""Left out."""\n')
    (root / "alpha.py").write_text('"""Alpha: the first | module,\nin ``two`` lines.\n\nNot rendered."""\n')
    (root / "beta" / "__init__.py").write_text('"""Beta holds a :class:`~x.y.Thing`."""\n')
    (root / "notes.txt").write_text("not a module\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield root
    sys.modules.pop("docpkg", None)


BLOCK = "# T\n<!-- generated: modules docpkg -->\nstale\n<!-- end generated -->\ntail\n"


def test_a_module_table_is_each_docstrings_first_paragraph(package):
    assert doctables.render(BLOCK) == (
        "# T\n<!-- generated: modules docpkg -->\n"
        "| module | summary |\n"
        "|---|---|\n"
        "| `docpkg.alpha` | Alpha: the first \\| module, in `two` lines. |\n"
        "| `docpkg.beta` | Beta holds a `Thing`. |\n"
        "<!-- end generated -->\ntail\n"
    )


def test_a_changed_module_docstring_changes_the_render(package):
    rendered = doctables.render(BLOCK)
    (package / "alpha.py").write_text('"""Alpha, changed."""\n')
    assert doctables.render(rendered) != rendered
    (package / "alpha.py").write_text("x = 1\n")
    with pytest.raises(ValueError, match="alpha.py has no module docstring"):
        doctables.render(rendered)


@pytest.mark.parametrize(
    "text, message",
    [
        ("<!-- generated: tables -->\n<!-- end generated -->\n", "unknown generated block kind 'tables'"),
        ("<!-- generated: endpoints -->\n| row |\n", "has no '<!-- end generated -->' line"),
        ("<!-- generated: modules -->\n<!-- end generated -->\n", "a modules block names its package"),
    ],
)
def test_a_malformed_block_is_refused(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        doctables.render(text)


@pytest.mark.parametrize("path", HAND_WRITTEN, ids=lambda path: path.name)
def test_no_endpoint_or_module_table_is_written_by_hand(path):
    hand = outside_blocks(path.read_text())
    endpoint_rows = [line for line in hand if re.match(r"\| *(GET|POST)\b", line)]
    module_tables = [line for line in hand if re.match(r"\| *(module|package) *\|", line, re.I)]
    assert endpoint_rows == [] and module_tables == []


def test_the_package_map_is_generated():
    text = (doctables.DOCS / "architecture.md").read_text()
    section = text.split("## Package map\n", 1)[1].split("\n## ", 1)[0]
    assert "<!-- generated: modules repro -->" in section


def documented_error_codes() -> set[str]:
    section = API_DOC.read_text().split("### Error envelope\n", 1)[1].split("\n### ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` +\|", section, re.M))


def sent_error_codes() -> set[str]:
    """``_STATUS_CODES``' values and the literal code of every ``ErrorEnvelope(``
    call in ``src/``; any other first argument must be ``code_for_status(…)``."""
    codes = set(api_core._STATUS_CODES.values())
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", getattr(node.func, "attr", None)) != "ErrorEnvelope":
                continue
            code = node.args[0]
            if isinstance(code, ast.Constant):
                codes.add(code.value)
            else:
                assert isinstance(code, ast.Call) and code.func.id == "code_for_status", (
                    f"{path}:{node.lineno}: an envelope code the scan cannot read"
                )
    return codes


def test_the_error_code_table_names_exactly_the_codes_src_sends():
    documented, sent = documented_error_codes(), sent_error_codes()
    assert sent - documented == set(), "sent but not documented"
    assert documented - sent == set(), "documented but never sent"
