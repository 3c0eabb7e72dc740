"""``docs/jobs.md``'s journal-record table is the one list of the job journal's
records, held to the code both ways.

Every ``journal.append(`` call in ``src/repro/jobs/`` (an AST scan) names a
literal record type, and each is a row of the table whose fsync column names
exactly the ``sync=`` values its calls pass (``yes`` for ``True``, the default,
``no`` for ``False``).  Every row with an fsync column naming ``yes`` or ``no``
is appended by some call; a row of ``—`` is written by compaction, never
appended.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
JOBS = ROOT / "src" / "repro" / "jobs"
DOC = ROOT / "docs" / "jobs.md"
ROW = re.compile(r"^\| `(?P<record>[a-z_]+)` \| (?P<fsync>[^|]+) \| .+ \|$")


def table() -> dict[str, set[bool]]:
    """The journal section's rows: record type → the ``sync`` values its fsync
    column names (none for ``—``)."""
    section = DOC.read_text().split("## The journal", 1)[1].split("\n## ", 1)[0]
    rows: dict[str, set[bool]] = {}
    for line in section.splitlines():
        match = ROW.match(line)
        if match:
            assert match["record"] not in rows, f"{match['record']} has two rows"
            words = set(re.findall(r"\w+|—", match["fsync"]))
            assert words & {"yes", "no", "—"}, line
            rows[match["record"]] = {word == "yes" for word in words & {"yes", "no"}}
    return rows


def appends() -> dict[str, set[bool]]:
    """Each ``journal.append(`` call's record type → the ``sync`` values it passes."""
    found: dict[str, set[bool]] = {}
    for path in sorted(JOBS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            receiver = node.func.value
            name = receiver.attr if isinstance(receiver, ast.Attribute) else getattr(
                receiver, "id", None
            )
            if node.func.attr != "append" or name != "journal":
                continue
            where = f"{path.name}:{node.lineno}"
            record = node.args[0]
            assert isinstance(record, ast.Constant) and isinstance(record.value, str), where
            sync = True
            for keyword in node.keywords:
                if keyword.arg == "sync":
                    assert isinstance(keyword.value, ast.Constant), where
                    sync = keyword.value.value
            found.setdefault(record.value, set()).add(bool(sync))
    return found


def test_every_append_is_a_row_with_its_fsync():
    rows, calls = table(), appends()
    assert calls, "no journal.append( call found"
    for record, syncs in calls.items():
        assert record in rows, f"{record} is appended but has no row in docs/jobs.md"
        assert syncs == rows[record], f"{record}: sync={syncs}, doc {rows[record]}"


def test_every_row_is_appended_or_compacted():
    rows, calls = table(), appends()
    assert set(rows) >= {"submit", "lease", "finish", "snapshot"}
    for record, syncs in rows.items():
        assert (record in calls) == bool(syncs), f"{record}: fsync {syncs}"
