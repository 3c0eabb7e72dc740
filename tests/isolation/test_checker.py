"""Soundness of the snapshot-isolation checker itself.

Hand-built histories prove each rule fires exactly when it should, and the
mutation test proves the end-to-end harness rejects a deliberately broken
store (:class:`TornCommitService`) while accepting the real one — without
that, a green stress run would mean nothing.
"""

from __future__ import annotations

import pytest

from .checker import CommitEvent, History, ReadEvent, check_snapshot_isolation
from .harness import (
    CONFIG,
    QUERY_TEXT,
    DirectDriver,
    HistoryRecorder,
    TornCommitService,
    VersionedWorkload,
    run_history,
)

V0, V1 = 10.0, 20.0


def make_history(reads=(), commits=(), values=None, label="unit"):
    return History(
        label=label,
        version_values=dict(values or {0: V0, 1: V1}),
        reads=list(reads),
        commits=list(commits),
    )


class TestExplainability:
    def test_clean_history_passes(self):
        history = make_history(
            reads=[
                ReadEvent("s1", 5.0, 6.0, V0),
                ReadEvent("s1", 12.0, 13.0, V1),
            ],
            commits=[CommitEvent(1, 10.0, 11.0)],
        )
        assert check_snapshot_isolation(history) == []

    def test_blended_answer_is_flagged_with_label(self):
        history = make_history(
            reads=[ReadEvent("s1", 12.0, 13.0, 15.0)],
            commits=[CommitEvent(1, 10.0, 11.0)],
            label="seed=42",
        )
        violations = check_snapshot_isolation(history)
        assert len(violations) == 1
        assert "torn/blended" in violations[0]
        assert "seed=42" in violations[0]  # a failure must print its seed

    def test_read_overlapping_a_commit_may_see_either_side(self):
        commit = CommitEvent(1, 10.0, 11.0)
        for value in (V0, V1):
            history = make_history(
                reads=[ReadEvent("s1", 9.0, 12.0, value)], commits=[commit]
            )
            assert check_snapshot_isolation(history) == []


class TestStaleReads:
    def test_read_after_settled_commit_cannot_see_old_version(self):
        history = make_history(
            reads=[ReadEvent("s1", 20.0, 21.0, V0)],
            commits=[CommitEvent(1, 10.0, 11.0)],
        )
        violations = check_snapshot_isolation(history)
        assert len(violations) == 1
        assert "stale read" in violations[0]

    def test_commit_not_yet_started_is_not_required(self):
        # the read ended before the commit began: V0 is the only legal answer
        history = make_history(
            reads=[ReadEvent("s1", 5.0, 6.0, V0)],
            commits=[CommitEvent(1, 10.0, 11.0)],
        )
        assert check_snapshot_isolation(history) == []

    def test_recommitted_old_version_is_admissible_again(self):
        # v0 -> v1 -> v0 again: a late read of V0 is explained by the second
        # v0 commit even though the first (initial) one is superseded
        history = make_history(
            reads=[ReadEvent("s1", 25.0, 26.0, V0)],
            commits=[CommitEvent(1, 10.0, 11.0), CommitEvent(0, 20.0, 21.0)],
        )
        assert check_snapshot_isolation(history) == []

    def test_overlapping_commits_do_not_supersede_each_other(self):
        # two writers racing: neither commit is definitely-after the other,
        # so a read beginning inside the overlap may see either version
        commits = [CommitEvent(1, 10.0, 15.0), CommitEvent(0, 11.0, 16.0)]
        for value in (V0, V1):
            history = make_history(
                reads=[ReadEvent("s1", 17.0, 18.0, value)], commits=commits
            )
            assert check_snapshot_isolation(history) == []


class TestMonotonicSessions:
    def test_session_going_back_in_time_is_flagged(self):
        # the commit is still in flight when both reads run, so each read on
        # its own is admissible either way — but one session must not see
        # v1 and then v0
        history = make_history(
            reads=[
                ReadEvent("s1", 12.0, 13.0, V1),
                ReadEvent("s1", 14.0, 15.0, V0),
            ],
            commits=[CommitEvent(1, 10.0, 20.0)],
        )
        violations = check_snapshot_isolation(history)
        assert len(violations) == 1
        assert "non-monotonic" in violations[0]
        assert "s1" in violations[0]

    def test_same_order_in_different_sessions_is_fine(self):
        # the offending pair split across two sessions: no violation
        history = make_history(
            reads=[
                ReadEvent("s1", 12.0, 13.0, V1),
                ReadEvent("s2", 14.0, 15.0, V0),
            ],
            commits=[CommitEvent(1, 10.0, 20.0)],
        )
        assert check_snapshot_isolation(history) == []

    def test_forward_progress_within_session_is_fine(self):
        history = make_history(
            reads=[
                ReadEvent("s1", 12.0, 13.0, V0),
                ReadEvent("s1", 14.0, 15.0, V1),
                ReadEvent("s1", 21.0, 22.0, V1),
            ],
            commits=[CommitEvent(1, 10.0, 20.0)],
        )
        assert check_snapshot_isolation(history) == []


class TestVersionOrder:
    """Two writers: the commit begun later is installed first.

    Writer A begins at 10, writer B at 11; B gets the commit lock first
    (generation 1), A follows (generation 2).  A reader that sees B's version
    and then A's went *forward*.  Ordered by client-side begin time — all a
    history without generations has — the same reads look like a step back,
    the false positive tier-1 used to hit with two and three writers.
    """

    V2 = 30.0
    VALUES = {0: V0, 1: V1, 2: V2}

    def commits(self, *, generations: bool):
        first, second = (1, 2) if generations else (None, None)
        return [
            CommitEvent(1, 10.0, 16.0, generation=second),  # writer A
            CommitEvent(2, 11.0, 15.0, generation=first),  # writer B
        ]

    def test_reads_in_install_order_are_monotonic(self):
        history = make_history(
            reads=[
                ReadEvent("s1", 12.5, 13.0, self.V2),
                ReadEvent("s1", 14.0, 14.5, V1),
            ],
            commits=self.commits(generations=True),
            values=self.VALUES,
        )
        assert check_snapshot_isolation(history) == []

    def test_begin_order_alone_would_flag_them(self):
        history = make_history(
            reads=[
                ReadEvent("s1", 12.5, 13.0, self.V2),
                ReadEvent("s1", 14.0, 14.5, V1),
            ],
            commits=self.commits(generations=False),
            values=self.VALUES,
        )
        assert any("non-monotonic" in v for v in check_snapshot_isolation(history))

    def test_reads_against_install_order_are_still_flagged(self):
        history = make_history(
            reads=[
                ReadEvent("s1", 12.5, 13.0, V1),
                ReadEvent("s1", 14.0, 14.5, self.V2),
            ],
            commits=self.commits(generations=True),
            values=self.VALUES,
        )
        violations = check_snapshot_isolation(history)
        assert len(violations) == 1
        assert "non-monotonic" in violations[0]


class TestMutation:
    """The harness end-to-end must reject a broken store and accept the real one."""

    @pytest.fixture(scope="class")
    def workload(self):
        return VersionedWorkload(n_rows=140, n_versions=3, seed=11)

    def test_torn_commit_store_is_rejected(self, workload):
        service = TornCommitService(workload.databases[0], workload.causal_dag, CONFIG)
        recorder = HistoryRecorder("mutation seed=11 store=torn", workload)
        read = lambda: float(service.execute(QUERY_TEXT).value)  # noqa: E731
        service.torn_probe = lambda: recorder.record_read("probe", read)
        try:
            recorder.record_commit(
                1, lambda: service.update_database(workload.databases[1])
            )
            recorder.record_read("probe", read)
        finally:
            service.close()
        violations = check_snapshot_isolation(recorder.history)
        assert violations, "checker accepted a torn (non-atomic) commit"
        assert any("torn/blended" in v for v in violations)
        assert all("seed=11" in v for v in violations)

    def test_real_store_same_schedule_is_accepted(self, workload):
        service = workload.make_service()
        try:
            history = run_history(
                DirectDriver(service, workload),
                workload,
                n_readers=2,
                n_writers=1,
                commits_per_writer=3,
                seed=11,
                min_reads=10,
                label="mutation seed=11 store=real",
            )
        finally:
            service.close()
        assert check_snapshot_isolation(history) == []
