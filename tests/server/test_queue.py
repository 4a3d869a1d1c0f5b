"""Tests for the ledger-backed study queue.

Two layers: the :class:`RunLedger` queue primitives (every transition
one committed transaction, lease semantics under explicit clocks) and
the :class:`StudyQueue` wrapper (validation, state layout, cache
sharding).  The worker pool and HTTP surface are covered end to end
in ``test_server_e2e.py``.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.study import StudyError, StudySpec
from repro.experiments.presets import resolve_spec
from repro.parallel.ledger import (
    STUDY_STATE_OF,
    STUDY_STATES,
    TERMINAL_LEASE_STATES,
    TERMINAL_STUDY_STATES,
    LedgerError,
    RunLedger,
)
from repro.server import StudyQueue


@pytest.fixture
def ledger(tmp_path) -> RunLedger:
    return RunLedger(tmp_path / "queue.sqlite")


def claim(ledger, pid, now, stale_after=10.0):
    return ledger.claim("study", f"server-{pid}", pid, now, stale_after)


class TestLedgerQueue:
    def test_submit_and_read_back(self, ledger):
        ledger.submit_study("st-a", {"name": "a"}, now=1.0)
        row = ledger.study("st-a")
        assert row["state"] == "queued"
        assert row["spec"] == {"name": "a"}
        assert row["submitted_at"] == 1.0
        assert row["started_at"] is None
        assert ledger.study("st-missing") is None

    def test_duplicate_submit_refused(self, ledger):
        ledger.submit_study("st-a", {}, now=1.0)
        with pytest.raises(LedgerError, match="already queued"):
            ledger.submit_study("st-a", {}, now=2.0)

    def test_claim_is_fifo_by_submission(self, ledger):
        ledger.submit_study("st-b", {}, now=2.0)
        ledger.submit_study("st-a", {}, now=1.0)
        assert claim(ledger, pid=7, now=3.0) == ("st-a", 1)
        assert claim(ledger, pid=7, now=3.0) == ("st-b", 1)
        assert claim(ledger, pid=7, now=3.0) is None

    def test_claim_records_lease(self, ledger):
        ledger.submit_study("st-a", {}, now=1.0)
        claim(ledger, pid=42, now=5.0)
        row = ledger.study("st-a")
        assert row["state"] == "running"
        assert row["lease_pid"] == 42
        assert row["heartbeat"] == 5.0
        assert row["started_at"] == 5.0

    def test_fresh_heartbeat_blocks_reclaim(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        _, epoch = claim(ledger, pid=1, now=0.0)
        assert ledger.heartbeat("study", "st-a", epoch, now=8.0)
        assert claim(ledger, pid=2, now=9.0) is None

    def test_stale_heartbeat_is_reclaimed(self, ledger):
        # The crash-recovery path: a SIGKILLed server stops
        # heartbeating, and once the lease goes stale any worker may
        # re-lease the study — under a new epoch — and resume it.
        ledger.submit_study("st-a", {}, now=0.0)
        claim(ledger, pid=1, now=0.0)
        assert claim(ledger, pid=2, now=11.0) == ("st-a", 2)
        row = ledger.study("st-a")
        assert row["lease_pid"] == 2
        assert row["started_at"] == 0.0  # first start is preserved

    def test_heartbeat_can_repoint_lease_pid(self, ledger):
        # The server leases under its own pid, then hands the lease to
        # the runner subprocess it spawned.
        ledger.submit_study("st-a", {}, now=0.0)
        _, epoch = claim(ledger, pid=1, now=0.0)
        ledger.heartbeat("study", "st-a", epoch, now=1.0, pid=999)
        assert ledger.study("st-a")["lease_pid"] == 999

    def test_finish_round_trips_result(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        _, epoch = claim(ledger, pid=1, now=0.0)
        assert ledger.finish_study("st-a", epoch, {"outcomes": {"s": 1}}, now=2.0)
        row = ledger.study("st-a")
        assert row["state"] == "done"
        assert row["result"] == {"outcomes": {"s": 1}}
        assert row["finished_at"] == 2.0

    def test_fail_records_error(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        _, epoch = claim(ledger, pid=1, now=0.0)
        assert ledger.fail_study("st-a", epoch, "Traceback ...", now=2.0)
        row = ledger.study("st-a")
        assert row["state"] == "failed"
        assert row["error"] == "Traceback ..."

    def test_finish_requires_a_held_lease(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        assert not ledger.finish_study("st-a", 0, {}, now=1.0)
        assert ledger.study("st-a")["state"] == "queued"
        assert not ledger.finish_study("st-missing", 1, {}, now=1.0)

    def test_cancel_from_queued_and_running(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        ledger.submit_study("st-b", {}, now=0.0)
        claim(ledger, pid=1, now=0.0)
        assert ledger.cancel("study", "st-a", now=1.0) == "leased"
        assert ledger.cancel("study", "st-b", now=1.0) == "pending"
        assert ledger.study("st-a")["state"] == "cancelled"
        assert ledger.study("st-b")["state"] == "cancelled"

    def test_cancel_never_overwrites_a_terminal_state(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        _, epoch = claim(ledger, pid=1, now=0.0)
        ledger.finish_study("st-a", epoch, {"ok": True}, now=1.0)
        assert ledger.cancel("study", "st-a", now=2.0) is None
        assert ledger.study("st-a")["state"] == "done"
        assert ledger.cancel("study", "st-missing", now=2.0) is None

    def test_cancelled_study_refuses_late_results(self, ledger):
        # A runner finishing after a concurrent cancel must be refused
        # — the queue's word stands.
        ledger.submit_study("st-a", {}, now=0.0)
        _, epoch = claim(ledger, pid=1, now=0.0)
        ledger.cancel("study", "st-a", now=1.0)
        assert not ledger.heartbeat("study", "st-a", epoch, now=1.5)
        assert not ledger.finish_study("st-a", epoch, {"late": True}, now=2.0)
        row = ledger.study("st-a")
        assert (row["state"], row["result"]) == ("cancelled", None)

    def test_studies_lists_oldest_first(self, ledger):
        ledger.submit_study("st-b", {}, now=2.0)
        ledger.submit_study("st-a", {}, now=1.0)
        assert [row["id"] for row in ledger.studies()] == ["st-a", "st-b"]

    def test_state_constants(self):
        assert set(TERMINAL_STUDY_STATES) < set(STUDY_STATES)
        assert "running" not in TERMINAL_STUDY_STATES
        assert [STUDY_STATE_OF[s] for s in TERMINAL_LEASE_STATES] == list(
            TERMINAL_STUDY_STATES
        )


class TestStudyLeaseFencing:
    """A re-leased study belongs to its new holder, whatever the old one says."""

    def test_stale_reclaim_fences_the_old_holder(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        _, old = claim(ledger, pid=1, now=0.0)
        assert ledger.heartbeat("study", "st-a", old, now=1.0, pid=101)
        # Server A pauses past stale_after; server B re-leases the
        # study and points the lease at its own runner.
        _, new = claim(ledger, pid=2, now=20.0)
        assert new > old
        assert ledger.heartbeat("study", "st-a", new, now=20.5, pid=202)
        # A wakes up: its heartbeat, finish and fail are all refused,
        # and none of them re-points the lease back at A's runner.
        assert not ledger.heartbeat("study", "st-a", old, now=21.0, pid=101)
        assert not ledger.finish_study("st-a", old, {"from": "A"}, now=21.0)
        assert not ledger.fail_study("st-a", old, "A died", now=21.0)
        row = ledger.study("st-a")
        assert (row["state"], row["lease_pid"], row["result"], row["error"]) == (
            "running", 202, None, None
        )
        assert row["heartbeat"] == 20.5
        # B's outcome is the one that lands.
        assert ledger.finish_study("st-a", new, {"from": "B"}, now=30.0)
        assert ledger.study("st-a")["result"] == {"from": "B"}

    def test_settled_lease_refuses_every_epoch(self, ledger):
        ledger.submit_study("st-a", {}, now=0.0)
        _, epoch = claim(ledger, pid=1, now=0.0)
        assert ledger.fail_study("st-a", epoch, "boom", now=1.0)
        assert not ledger.heartbeat("study", "st-a", epoch, now=2.0)
        assert not ledger.finish_study("st-a", epoch, {}, now=2.0)
        assert claim(ledger, pid=2, now=100.0) is None
        assert ledger.lease("study", "st-a")["claims"] == epoch


#: The queue schema as written before the ``leases`` table existed.
PARENT_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE tasks (label TEXT NOT NULL, repeat INTEGER NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending', result TEXT,
    PRIMARY KEY (label, repeat));
CREATE TABLE checkpoints (label TEXT NOT NULL, repeat INTEGER NOT NULL,
    steps_done INTEGER NOT NULL, state TEXT NOT NULL,
    PRIMARY KEY (label, repeat));
CREATE TABLE studies (study_id TEXT PRIMARY KEY, spec TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued', submitted_at REAL NOT NULL,
    started_at REAL, finished_at REAL, lease_pid INTEGER, heartbeat REAL,
    result TEXT, error TEXT);
CREATE TABLE task_leases (label TEXT NOT NULL, repeat INTEGER NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending', worker TEXT, lease_pid INTEGER,
    heartbeat REAL, claims INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (label, repeat));
INSERT INTO studies (study_id, spec, state, submitted_at) VALUES
    ('st-q', '{"name":"q"}', 'queued', 3.0);
INSERT INTO studies (study_id, spec, state, submitted_at, started_at,
    lease_pid, heartbeat) VALUES ('st-r', '{}', 'running', 1.0, 2.0, 77, 5.0);
INSERT INTO studies (study_id, spec, state, submitted_at, started_at,
    finished_at, lease_pid, heartbeat, result) VALUES
    ('st-d', '{}', 'done', 0.5, 0.6, 0.9, 66, 0.8, '{"ok":true}');
INSERT INTO task_leases VALUES ('job', 0, 'leased', 'w1', 9, 4.0, 2);
INSERT INTO task_leases VALUES ('job', 1, 'pending', NULL, NULL, NULL, 0);
"""


def parent_format_file(path):
    with sqlite3.connect(path) as conn:
        conn.executescript(PARENT_SCHEMA)
    conn.close()
    return path


class TestParentFileMigration:
    """Queue and run ledgers written before the lease table migrate in place."""

    def test_every_study_and_task_lease_survives(self, tmp_path):
        path = parent_format_file(tmp_path / "queue.sqlite")
        ledger = RunLedger(path)
        rows = {row["id"]: row for row in ledger.studies()}
        assert list(rows) == ["st-d", "st-r", "st-q"]  # submission order
        assert rows["st-q"]["state"] == "queued"
        assert rows["st-q"]["spec"] == {"name": "q"}
        assert rows["st-q"]["submitted_at"] == 3.0
        assert (
            rows["st-r"]["state"], rows["st-r"]["lease_pid"],
            rows["st-r"]["heartbeat"], rows["st-r"]["started_at"],
        ) == ("running", 77, 5.0, 2.0)
        assert (rows["st-d"]["state"], rows["st-d"]["result"]) == (
            "done", {"ok": True}
        )
        assert rows["st-d"]["finished_at"] == 0.9
        assert [
            (r["label"], r["repeat"], r["state"], r["worker"], r["claims"])
            for r in ledger.task_lease_rows()
        ] == [("job", 0, "leased", "w1", 2), ("job", 1, "pending", None, 0)]
        # The stale running study is re-leased under a newer epoch
        # before the queued one; the done study is never claimed.
        assert claim(ledger, pid=1, now=100.0) == ("st-r", 2)
        assert claim(ledger, pid=1, now=100.0) == ("st-q", 1)
        assert claim(ledger, pid=1, now=100.0) is None
        ledger.close()
        with sqlite3.connect(path) as conn:
            tables = {r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )}
            columns = {r[1] for r in conn.execute("PRAGMA table_info(studies)")}
        conn.close()
        assert "task_leases" not in tables
        assert columns == {"study_id", "spec", "result", "error"}
        # Reopening a migrated file is a no-op.
        assert [r["id"] for r in RunLedger(path).studies()] == ["st-d", "st-r", "st-q"]

    def test_failed_migration_is_refused_and_rolled_back(self, tmp_path):
        path = parent_format_file(tmp_path / "queue.sqlite")
        # A stray lease row that collides with a migrating study.
        with sqlite3.connect(path) as conn:
            conn.execute(
                "CREATE TABLE leases (kind TEXT, key TEXT, state TEXT, holder TEXT,"
                " pid INTEGER, heartbeat REAL, claims INTEGER, queued_at REAL,"
                " started_at REAL, finished_at REAL, PRIMARY KEY (kind, key))"
            )
            conn.execute("INSERT INTO leases (kind, key) VALUES ('study', 'st-r')")
        conn.close()
        with pytest.raises(LedgerError, match="cannot migrate"):
            RunLedger(path)
        with sqlite3.connect(path) as conn:
            queued = conn.execute(
                "SELECT study_id, state FROM studies ORDER BY study_id"
            ).fetchall()
            leases = conn.execute("SELECT COUNT(*) FROM task_leases").fetchone()[0]
            stray = conn.execute("SELECT COUNT(*) FROM leases").fetchone()[0]
        conn.close()
        assert queued == [("st-d", "done"), ("st-q", "queued"), ("st-r", "running")]
        assert (leases, stray) == (2, 1)


class TestStudyQueue:
    def test_submit_validates_and_enqueues(self, tmp_path):
        queue = StudyQueue(tmp_path)
        with pytest.raises(StudyError, match="bogus"):
            queue.submit({"name": "x", "bogus": 1})
        study_id = queue.submit(resolve_spec("smoke").to_dict())
        assert study_id.startswith("st-")
        doc = queue.status(study_id)
        assert doc["state"] == "queued"
        assert doc["name"] == "smoke"
        assert doc["progress"] == {
            "jobs": {},
            "done_repeats": 0,
            "total_repeats": None,
            "executions": [],
        }
        assert [row["id"] for row in queue.list_studies()] == [study_id]
        assert queue.status("st-missing") is None

    def test_cancel_unknown_or_terminal_returns_none(self, tmp_path):
        queue = StudyQueue(tmp_path)
        assert queue.cancel("st-missing") is None
        study_id = queue.submit(resolve_spec("smoke").to_dict())
        assert queue.cancel(study_id) == "queued"
        assert queue.cancel(study_id) is None  # already terminal

    def test_state_layout(self, tmp_path):
        queue = StudyQueue(tmp_path)
        assert queue.queue_path == tmp_path / "queue.sqlite"
        assert queue.study_ledger_path("st-x") == (
            tmp_path / "studies" / "st-x.ledger"
        )
        assert queue.study_log_path("st-x").parent == tmp_path / "studies"
        assert queue.queue_path.exists()  # schema materialized eagerly

    def test_cache_shards_key_on_evaluation_identity(self, tmp_path):
        queue = StudyQueue(tmp_path)
        smoke = resolve_spec("smoke")
        clone = StudySpec.from_dict(smoke.to_dict())
        other_eval = smoke.with_overrides(
            {"evaluator": {"source": "surrogate", "params": {"seed": 99}}}
        )
        other_hw = smoke.with_overrides({"hardware": {"name": "embedded-lite"}})
        rescaled = smoke.with_overrides({"execution.num_steps": 7})
        assert queue.cache_shard_path(smoke) == queue.cache_shard_path(clone)
        assert queue.cache_shard_path(smoke) != queue.cache_shard_path(other_eval)
        assert queue.cache_shard_path(smoke) != queue.cache_shard_path(other_hw)
        # Execution knobs don't change evaluation identity: same shard.
        assert queue.cache_shard_path(smoke) == queue.cache_shard_path(rescaled)
        assert queue.cache_shard_path(smoke).parent == tmp_path / "cache"
