"""Black-box snapshot-isolation checker over recorded histories.

The checker sees only what a client could observe: for every read, the
wall-clock interval ``[begin, end]`` around the call and the answer value;
for every commit, the interval around the update call and the *version*
(an opaque id) it installed.  Each version has a precomputed ground-truth
answer fingerprint (bitwise — no tolerance), so an answer is *explainable*
by a version iff it equals that version's fingerprint exactly.

Three rules, each sound under client-side timing (measured intervals are
supersets of the true commit/read windows, which only *enlarges* the
admissible sets — the checker can miss a violation but never invents one):

1. **No torn or blended answers** — every read's value must match the
   fingerprint of at least one installed version.  A mid-commit blend of
   two generations matches neither and is flagged.

2. **No stale reads** — a matching version must have a commit event that is
   *admissible* for the read: the commit began before the read ended, and
   no other commit both finished before the read began and definitely
   happened after it (``w.begin >= e.end`` — true even under widened
   measurement).  A pin-at-begin reader can never return a snapshot that a
   fully-finished later commit had already superseded when the read began.

3. **Monotonic reads per session** — a session's reads, in issue order,
   must be assignable to a non-decreasing sequence of commit events (each
   chosen from the read's admissible set).  Feasibility is decided by the
   greedy minimal assignment: picking the earliest admissible event that is
   not before the previous pick maximises the options left for every later
   read, so the greedy succeeds iff any non-decreasing assignment exists.

"Non-decreasing" needs the order in which the store installed the commits,
and client-side timestamps do not give it: of two overlapping commits the
one that *began* later may well be installed first, and a reader that then
sees both in install order would look like it went back in time.  So, as in
"Efficient Black-box Checking of Snapshot Isolation in Databases", the
version order comes from what the history observed — the generation each
commit was acknowledged to have installed — and never from timestamps;
``(begin, end)`` orders only hand-built histories that record no generation.

Every violation message embeds the history's label (driver, seed, mix) so a
CI failure prints the exact seed to replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "CommitEvent",
    "History",
    "ReadEvent",
    "check_snapshot_isolation",
]


@dataclass(frozen=True)
class ReadEvent:
    """One observed answer: issued by ``session`` over ``[begin, end]``.

    ``request_id`` is the X-Request-Id the read travelled under (empty when
    the driver does not tag requests); a violation message names it so the
    offending request can be pulled from server traces and slow-query logs.
    """

    session: str
    begin: float
    end: float
    value: float
    request_id: str = ""


@dataclass(frozen=True)
class CommitEvent:
    """One installed version: the update call spanned ``[begin, end]``.

    ``generation`` is the store generation the update was acknowledged to
    have installed (``None`` when the history did not observe one).
    """

    version: int
    begin: float
    end: float
    request_id: str = ""
    generation: int | None = None


@dataclass
class History:
    """A recorded run: version fingerprints plus every read and commit.

    ``version_values`` maps each version id to its precomputed ground-truth
    answer (computed from a fresh single-generation service, so it is
    bitwise what the store *should* return for that version).  The store
    starts on ``initial_version``, modelled as a commit at ``-inf``.
    """

    label: str
    version_values: dict[int, float]
    reads: list[ReadEvent] = field(default_factory=list)
    commits: list[CommitEvent] = field(default_factory=list)
    initial_version: int = 0

    @property
    def n_events(self) -> int:
        return len(self.reads) + len(self.commits)


def _admissible_events(
    read: ReadEvent, matching: set[int], events: list[CommitEvent]
) -> list[int]:
    """Indices (into version-ordered ``events``) admissible for ``read``."""
    options = []
    for index, event in enumerate(events):
        if event.version not in matching or event.begin > read.end:
            continue
        superseded = any(
            w is not event and w.end <= read.begin and w.begin >= event.end
            for w in events
        )
        if not superseded:
            options.append(index)
    return options


def _who(read: ReadEvent) -> str:
    """``session='r-1' request_id=abc`` — names the offending request."""
    tag = f"session={read.session!r}"
    if read.request_id:
        tag += f" request_id={read.request_id}"
    return tag


def check_snapshot_isolation(history: History) -> list[str]:
    """All snapshot-isolation violations in ``history`` (empty = SI holds)."""
    violations: list[str] = []
    label = history.label
    events = [CommitEvent(history.initial_version, -math.inf, -math.inf)]
    observed = all(c.generation is not None for c in history.commits)
    events.extend(
        sorted(
            history.commits,
            key=lambda c: (c.generation if observed else 0, c.begin, c.end),
        )
    )

    admissible: list[list[int]] = []
    for read in history.reads:
        matching = {
            version
            for version, value in history.version_values.items()
            if value == read.value
        }
        if not matching:
            admissible.append([])
            violations.append(
                f"[{label}] torn/blended answer: {_who(read)} "
                f"value={read.value!r} matches no installed version "
                f"(fingerprints: {history.version_values})"
            )
            continue
        options = _admissible_events(read, matching, events)
        admissible.append(options)
        if not options:
            violations.append(
                f"[{label}] stale read: {_who(read)} "
                f"value={read.value!r} (version(s) {sorted(matching)}) has no "
                f"admissible commit for [{read.begin:.6f}, {read.end:.6f}] — "
                "a later commit fully finished before this read began"
            )

    sessions: dict[str, list[int]] = {}
    for read_index, read in enumerate(history.reads):
        sessions.setdefault(read.session, []).append(read_index)
    for session, read_indices in sessions.items():
        read_indices.sort(key=lambda i: history.reads[i].begin)
        floor = 0
        for read_index in read_indices:
            options = admissible[read_index]
            if not options:  # already reported above; don't constrain others
                continue
            feasible = [i for i in options if i >= floor]
            if not feasible:
                read = history.reads[read_index]
                violations.append(
                    f"[{label}] non-monotonic reads: {_who(read)} "
                    f"observed value={read.value!r} from a snapshot older "
                    f"than one it already observed"
                )
                break
            floor = min(feasible)
    return violations
