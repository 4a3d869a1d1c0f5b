"""Crash-safe run ledger: checkpoint/resume for the search stack.

The paper's headline grids (Fig. 5/6, Table 2) repeat every
(strategy, scenario) experiment many times; at production scale a
sweep holds thousands of independent searches and a crash 90% through
must not cost the whole run.  :class:`RunLedger` is the persistence
layer behind ``run_grid(..., ledger=...)``:

* every (job label, repeat) task has a row in ``tasks`` — ``pending``
  until its search finishes, then ``done`` with the full serialized
  :class:`~repro.search.base.SearchResult` (archive + extras);
* an in-flight search checkpoints its strategy state every N ask/tell
  batches into ``checkpoints`` (RNG stream, archive, populations,
  policy weights, optimizer moments — whatever the strategy's
  ``state_dict`` returns);
* ``meta`` pins the run configuration (steps, repeats, master seed,
  batch size, job labels) so a ledger can never silently mix results
  from incompatible runs;
* ``leases`` is the one coordination primitive, keyed by ``(kind,
  key)``: the serving layer's study queue (:mod:`repro.server`, kind
  ``study``, payloads in ``studies``) and the cluster backend's task
  pool (:mod:`repro.parallel.cluster`, kind ``task``) both claim,
  heartbeat and settle rows through the same code path.  A claim
  returns the key with its fence epoch (the row's ``claims`` counter,
  bumped on every issue); a holder's heartbeat, finish/fail or leased
  record takes effect only while that epoch still holds, so a killed
  *or paused* holder's lease goes stale, is re-issued — the work
  resuming from its last checkpoint — and the old holder can neither
  revive it nor record an outcome.

On resume, ``run_grid`` loads ``done`` tasks instead of re-running
them and restarts interrupted tasks from their last checkpoint;
because evaluation is pure, the replayed batches reproduce exactly
what the crashed process computed and the resumed grid is
bit-identical to an uninterrupted one (see
``tests/integration/test_kill_resume.py``).

Every write is its own committed sqlite transaction, so a ``kill -9``
can lose at most the work since the last checkpoint.  Connections are
guarded by process id: a ledger object captured into a forked worker
transparently opens its own connection instead of reusing the
parent's (sqlite connections are not fork-safe), which lets serial
and process backends share one code path.  Concurrent writers (many
workers, one parent) serialize on sqlite's file lock via
``busy_timeout``; tasks never contend on the same row.

Serialization is tagged JSON: numpy arrays travel as base64-encoded
raw bytes (bit-exact), and the library's value objects (specs,
configs, metrics, archives, results) via their canonical dict forms.
"""

from __future__ import annotations

import base64
import json
import os
import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "LEASE_STATES",
    "LedgerCheckpoint",
    "LedgerError",
    "MemoryCheckpoint",
    "RunLedger",
    "STUDY_STATES",
    "STUDY_STATE_OF",
    "TERMINAL_LEASE_STATES",
    "TERMINAL_STUDY_STATES",
    "decode_state",
    "encode_state",
    "parse_task_key",
    "task_key",
]

#: Matches the EvalCache: generous, because every write is one small
#: transaction and contention only comes from checkpoint bursts.
_BUSY_TIMEOUT_MS = 30_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    label  TEXT NOT NULL,
    repeat INTEGER NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    result TEXT,
    PRIMARY KEY (label, repeat)
);
CREATE TABLE IF NOT EXISTS checkpoints (
    label      TEXT NOT NULL,
    repeat     INTEGER NOT NULL,
    steps_done INTEGER NOT NULL,
    state      TEXT NOT NULL,
    PRIMARY KEY (label, repeat)
);
CREATE TABLE IF NOT EXISTS studies (
    study_id TEXT PRIMARY KEY,
    spec     TEXT NOT NULL,
    result   TEXT,
    error    TEXT
);
CREATE TABLE IF NOT EXISTS leases (
    kind        TEXT NOT NULL,
    key         TEXT NOT NULL,
    state       TEXT NOT NULL DEFAULT 'pending',
    holder      TEXT,
    pid         INTEGER,
    heartbeat   REAL,
    claims      INTEGER NOT NULL DEFAULT 0,
    queued_at   REAL NOT NULL DEFAULT 0,
    started_at  REAL,
    finished_at REAL,
    PRIMARY KEY (kind, key)
);
"""

#: The one lease lifecycle, shared by every kind (``study`` queue rows
#: and cluster ``task`` rows): ``pending`` -> ``leased`` -> one of the
#: terminal states.  A ``leased`` key whose heartbeat is older than
#: ``stale_after`` is claimable again — that is the whole
#: crash-recovery story — and every claim bumps the key's ``claims``
#: counter, which is the lease's *fence epoch*: heartbeats, finishes
#: and leased records only take effect while the caller's epoch is
#: still the current one and the lease is still ``leased``.
LEASE_STATES = ("pending", "leased", "done", "failed", "cancelled")
TERMINAL_LEASE_STATES = ("done", "failed", "cancelled")

#: The study queue names the same lifecycle for its API: a queued
#: study is a pending lease, a running study a leased one.
STUDY_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STUDY_STATES = ("done", "failed", "cancelled")
STUDY_STATE_OF = dict(zip(LEASE_STATES, STUDY_STATES))


class LedgerError(RuntimeError):
    """A ledger cannot serve the requested run (mismatch, misuse)."""


def task_key(label: str, repeat: int) -> str:
    """The lease key of one cluster task: ``<label>#<repeat>``."""
    return f"{label}#{int(repeat)}"


def parse_task_key(key: str) -> tuple[str, int]:
    """Inverse of :func:`task_key` (labels may contain ``#`` themselves)."""
    label, _, repeat = key.rpartition("#")
    return label, int(repeat)


_STUDY_SELECT = (
    "SELECT s.study_id, s.spec, l.state, l.queued_at, l.started_at,"
    " l.finished_at, l.pid, l.heartbeat, s.result, s.error"
    " FROM studies s JOIN leases l ON l.kind='study' AND l.key=s.study_id"
)


def _study_row(row) -> dict:
    return {
        "id": row[0],
        "spec": json.loads(row[1]),
        "state": STUDY_STATE_OF[row[2]],
        "submitted_at": row[3],
        "started_at": row[4],
        "finished_at": row[5],
        "lease_pid": row[6],
        "heartbeat": row[7],
        "result": json.loads(row[8]) if row[8] else None,
        "error": row[9],
    }


def _migrate(db: sqlite3.Connection) -> None:
    """Fold the lease columns and table of an older file into ``leases``.

    Files written before the ``leases`` table kept study lifecycle
    columns on ``studies`` and cluster leases in ``task_leases``.  Both
    move in one transaction (a queued study stays queued, a running one
    running until its heartbeat goes stale), or the file is refused
    with :class:`LedgerError` and left as it was.
    """

    def legacy() -> bool:
        return "state" in {row[1] for row in db.execute("PRAGMA table_info(studies)")}

    if not legacy():
        return
    db.execute("BEGIN IMMEDIATE")
    try:
        if legacy():  # not migrated by a concurrent opener meanwhile
            db.execute(
                "INSERT INTO leases (kind, key, state, pid, heartbeat, claims,"
                " queued_at, started_at, finished_at) SELECT 'study', study_id,"
                " CASE state WHEN 'queued' THEN 'pending' WHEN 'running' THEN"
                " 'leased' ELSE state END, lease_pid, heartbeat, started_at"
                " IS NOT NULL, submitted_at, started_at, finished_at FROM studies"
            )
            db.execute(  # the SQL spelling of task_key()
                "INSERT INTO leases (kind, key, state, holder, pid, heartbeat,"
                " claims) SELECT 'task', label || '#' || repeat, state, worker,"
                " lease_pid, heartbeat, claims FROM task_leases"
            )
            for column in ("state", "submitted_at", "started_at", "finished_at",
                           "lease_pid", "heartbeat"):
                db.execute(f"ALTER TABLE studies DROP COLUMN {column}")
            db.execute("DROP TABLE task_leases")
        db.execute("COMMIT")
    except sqlite3.Error as err:
        db.execute("ROLLBACK")
        raise LedgerError(f"cannot migrate ledger to the leases table: {err}") from err


# ---------------------------------------------------------------------------
# Tagged JSON state serialization
# ---------------------------------------------------------------------------
#
# The value-object imports live inside the codec functions: the
# evaluator layer imports ``repro.parallel`` (for EvalCache) while this
# module serializes the evaluator layer's types, so importing them at
# module scope would be circular.  ``sys.modules`` makes the per-call
# import free after the first.

def encode_state(obj: Any) -> Any:
    """Turn a state value into a JSON-ready tagged structure.

    Bit-exact for floats (JSON's shortest-repr round-trips IEEE-754
    doubles) and numpy arrays (raw little-endian bytes, base64).
    Handles the search stack's value objects plus tuples and dicts
    with non-string keys; rejects anything else loudly rather than
    persisting a lossy approximation.
    """
    from repro.accelerator.config import AcceleratorConfig
    from repro.core.archive import ArchiveEntry, SearchArchive
    from repro.core.metrics import Metrics
    from repro.nasbench.model_spec import ModelSpec
    from repro.search.base import SearchResult

    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {
            "__t__": "ndarray",
            "dtype": obj.dtype.str,
            "shape": list(obj.shape),
            "data": base64.b64encode(np.ascontiguousarray(obj).tobytes()).decode(),
        }
    if isinstance(obj, ModelSpec):
        return {"__t__": "spec", "spec": obj.to_dict()}
    if isinstance(obj, AcceleratorConfig):
        return {"__t__": "config", "config": obj.to_dict()}
    if isinstance(obj, Metrics):
        # Fields go through encode_state too: a custom accuracy source
        # may hand back numpy scalars, which json.dumps rejects raw.
        return {
            "__t__": "metrics",
            "accuracy": encode_state(obj.accuracy),
            "latency_s": encode_state(obj.latency_s),
            "area_mm2": encode_state(obj.area_mm2),
        }
    if isinstance(obj, ArchiveEntry):
        return {
            "__t__": "entry",
            "step": encode_state(obj.step),
            "spec": encode_state(obj.spec),
            "config": encode_state(obj.config),
            "metrics": encode_state(obj.metrics),
            "reward": encode_state(obj.reward),
            "feasible": encode_state(obj.feasible),
            "valid": encode_state(obj.valid),
            "phase": obj.phase,
        }
    if isinstance(obj, SearchArchive):
        return {
            "__t__": "archive",
            "entries": [encode_state(e) for e in obj.entries],
        }
    if isinstance(obj, SearchResult):
        return {
            "__t__": "result",
            "strategy": obj.strategy,
            "scenario": obj.scenario,
            "archive": encode_state(obj.archive),
            "extras": encode_state(obj.extras),
        }
    if isinstance(obj, tuple):
        return {"__t__": "tuple", "items": [encode_state(v) for v in obj]}
    if isinstance(obj, list):
        return [encode_state(v) for v in obj]
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and "__t__" not in obj:
            return {k: encode_state(v) for k, v in obj.items()}
        # Non-string keys (e.g. per-rung archives keyed by threshold)
        # or a literal "__t__" key: keep keys as tagged values.
        return {
            "__t__": "dict",
            "items": [[encode_state(k), encode_state(v)] for k, v in obj.items()],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__} into a ledger")


def decode_state(obj: Any) -> Any:
    """Inverse of :func:`encode_state`."""
    from repro.accelerator.config import AcceleratorConfig
    from repro.core.archive import ArchiveEntry, SearchArchive
    from repro.core.metrics import Metrics
    from repro.nasbench.model_spec import ModelSpec
    from repro.search.base import SearchResult

    if isinstance(obj, list):
        return [decode_state(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    tag = obj.get("__t__")
    if tag is None:
        return {k: decode_state(v) for k, v in obj.items()}
    if tag == "ndarray":
        data = base64.b64decode(obj["data"])
        return np.frombuffer(data, dtype=np.dtype(obj["dtype"])).reshape(
            obj["shape"]
        ).copy()
    if tag == "spec":
        return ModelSpec.from_dict(obj["spec"])
    if tag == "config":
        return AcceleratorConfig.from_dict(obj["config"])
    if tag == "metrics":
        return Metrics(
            accuracy=obj["accuracy"],
            latency_s=obj["latency_s"],
            area_mm2=obj["area_mm2"],
        )
    if tag == "entry":
        return ArchiveEntry(
            step=obj["step"],
            spec=decode_state(obj["spec"]),
            config=decode_state(obj["config"]),
            metrics=decode_state(obj["metrics"]),
            reward=obj["reward"],
            feasible=obj["feasible"],
            valid=obj["valid"],
            phase=obj["phase"],
        )
    if tag == "archive":
        return SearchArchive(entries=[decode_state(e) for e in obj["entries"]])
    if tag == "result":
        return SearchResult(
            strategy=obj["strategy"],
            scenario=obj["scenario"],
            archive=decode_state(obj["archive"]),
            extras=decode_state(obj["extras"]),
        )
    if tag == "tuple":
        return tuple(decode_state(v) for v in obj["items"])
    if tag == "dict":
        return {decode_state(k): decode_state(v) for k, v in obj["items"]}
    raise ValueError(f"unknown state tag {tag!r}")


def _dumps(obj: Any) -> str:
    return json.dumps(encode_state(obj), separators=(",", ":"))


def _loads(text: str) -> Any:
    return decode_state(json.loads(text))


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------

class RunLedger:
    """Sqlite-backed record of a grid run's tasks and checkpoints.

    ``path=None`` keeps the ledger in memory — handy in tests and for
    serial runs that only want same-process checkpointing, but it
    cannot cross a fork (the process backend requires a file path).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._pid = os.getpid()
        self._conn = self._open()

    # -- lifecycle ---------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        if self.path is None:
            conn = sqlite3.connect(":memory:")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path)
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        conn.executescript(_SCHEMA)
        conn.commit()
        try:
            _migrate(conn)
        except BaseException:
            conn.close()
            raise
        return conn

    @contextmanager
    def _transaction(self):
        """One ``BEGIN IMMEDIATE`` write transaction, rolled back on error."""
        db = self._db()
        db.execute("BEGIN IMMEDIATE")
        try:
            yield db
        except BaseException:
            db.execute("ROLLBACK")
            raise
        db.execute("COMMIT")

    def _db(self) -> sqlite3.Connection:
        """The connection, reopened transparently after a fork.

        Sqlite connections are not fork-safe: a forked worker that
        inherits the parent's connection shares its file descriptor
        and transaction state.  Guarding every access on the creating
        pid lets one ledger object be captured into worker closures
        and still give every process a private connection.
        """
        if os.getpid() != self._pid:
            if self.path is None:
                raise LedgerError(
                    "an in-memory ledger cannot cross a fork; give the "
                    "ledger a file path to use it with the process backend"
                )
            # Abandon (never close) the inherited connection object —
            # closing it could flush parent transaction state.
            self._conn = self._open()
            self._pid = os.getpid()
        return self._conn

    def close(self) -> None:
        if os.getpid() == self._pid:
            self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- run configuration -------------------------------------------------
    def begin_run(self, config: dict) -> None:
        """Pin (or validate) the run configuration this ledger serves.

        The first ``begin_run`` stores ``config``; later calls must
        present an identical one — resuming a ledger under different
        steps/seeds/batch sizes would stitch together incompatible
        results, so it raises :class:`LedgerError` instead.
        """
        text = json.dumps(config, sort_keys=True, separators=(",", ":"))
        db = self._db()
        row = db.execute(
            "SELECT value FROM meta WHERE key='run_config'"
        ).fetchone()
        if row is None:
            db.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('run_config', ?)",
                (text,),
            )
            db.commit()
            return
        if row[0] != text:
            raise LedgerError(
                "ledger was created for a different run configuration:\n"
                f"  ledger : {row[0]}\n  request: {text}\n"
                "use a fresh ledger path (or rerun with the original "
                "steps/repeats/seed/batch-size/jobs)"
            )

    def run_config(self) -> dict | None:
        row = self._db().execute(
            "SELECT value FROM meta WHERE key='run_config'"
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    # -- task results ------------------------------------------------------
    def load_result(self, label: str, repeat: int) -> SearchResult | None:
        """The completed result of one task, or ``None`` if not done."""
        row = self._db().execute(
            "SELECT result FROM tasks WHERE label=? AND repeat=? AND status='done'",
            (label, repeat),
        ).fetchone()
        return _loads(row[0]) if row is not None else None

    def record_done(self, label: str, repeat: int, result: SearchResult) -> None:
        """Persist a finished task and drop its checkpoint atomically."""
        db = self._db()
        db.execute(
            "INSERT OR REPLACE INTO tasks (label, repeat, status, result)"
            " VALUES (?, ?, 'done', ?)",
            (label, repeat, _dumps(result)),
        )
        db.execute(
            "DELETE FROM checkpoints WHERE label=? AND repeat=?", (label, repeat)
        )
        db.commit()

    # -- checkpoints -------------------------------------------------------
    def save_checkpoint(self, label: str, repeat: int, state: dict) -> None:
        self._db().execute(
            "INSERT OR REPLACE INTO checkpoints (label, repeat, steps_done, state)"
            " VALUES (?, ?, ?, ?)",
            (label, repeat, int(state.get("steps_done", 0)), _dumps(state)),
        )
        self._db().commit()

    def load_checkpoint(self, label: str, repeat: int) -> dict | None:
        row = self._db().execute(
            "SELECT state FROM checkpoints WHERE label=? AND repeat=?",
            (label, repeat),
        ).fetchone()
        return _loads(row[0]) if row is not None else None

    def checkpoint(self, label: str, repeat: int) -> "LedgerCheckpoint":
        """A :class:`~repro.search.base.Checkpoint` bound to one task."""
        return LedgerCheckpoint(self, label, repeat)

    # -- leases --------------------------------------------------------
    #
    # One lease primitive serves the study queue (:mod:`repro.server`,
    # kind ``study``, key = study id) and the cluster backend
    # (:mod:`repro.parallel.cluster`, kind ``task``, key =
    # :func:`task_key`).  A claim returns the key with its fence epoch;
    # every later write by the holder names that epoch and is refused
    # once the lease was re-issued, cancelled or settled, so a paused
    # or partitioned holder can neither revive its lease nor record an
    # outcome after the lease moved on.

    def claim(
        self, kind: str, holder: str, pid: int, now: float, stale_after: float
    ) -> tuple[str, int] | None:
        """Atomically lease the next runnable key; ``(key, epoch)`` or ``None``.

        Runnable means ``pending``, or ``leased`` with a heartbeat
        older than ``stale_after`` seconds — abandoned by a crashed or
        stalled holder and due for re-issue under a new epoch.  Keys
        are claimed oldest ``queued_at`` first (submission order for
        studies), then in key order; ``BEGIN IMMEDIATE`` means never
        two claimants.
        """
        with self._transaction() as db:
            row = db.execute(
                "SELECT key, claims FROM leases WHERE kind=? AND (state='pending'"
                " OR (state='leased' AND (heartbeat IS NULL OR heartbeat < ?)))"
                " ORDER BY queued_at, key LIMIT 1",
                (kind, now - stale_after),
            ).fetchone()
            if row is None:
                return None
            db.execute(
                "UPDATE leases SET state='leased', holder=?, pid=?, heartbeat=?,"
                " claims=claims+1, started_at=COALESCE(started_at, ?)"
                " WHERE kind=? AND key=?",
                (holder, pid, now, now, kind, row[0]),
            )
        return row[0], row[1] + 1

    def heartbeat(
        self, kind: str, key: str, epoch: int, now: float, pid: int | None = None
    ) -> bool:
        """Refresh a held lease; ``False`` once the lease is revoked.

        Revoked means re-issued (a newer epoch), cancelled, or settled
        — the holder must stop working on the key.  ``pid`` (when
        given) re-points the lease at the process actually doing the
        work: the server claims under its own pid but delegates to a
        runner subprocess, and cancellation needs the runner's process
        group.
        """
        db = self._db()
        held = db.execute(
            "UPDATE leases SET heartbeat=?, pid=COALESCE(?, pid)"
            " WHERE kind=? AND key=? AND claims=? AND state='leased'",
            (now, pid, kind, key, epoch),
        ).rowcount
        db.commit()
        return bool(held)

    def _settle(
        self, kind: str, key: str, epoch: int, state: str, now: float, *writes
    ) -> bool:
        """Move a held lease to a terminal ``state`` iff ``epoch`` still holds.

        ``writes`` (``(sql, params)`` pairs) record the outcome in the
        same transaction, so they land if and only if the lease
        transition does.
        """
        with self._transaction() as db:
            if not db.execute(
                "UPDATE leases SET state=?, finished_at=?"
                " WHERE kind=? AND key=? AND claims=? AND state='leased'",
                (state, now, kind, key, epoch),
            ).rowcount:
                return False
            for sql, params in writes:
                db.execute(sql, params)
        return True

    def cancel(self, kind: str, key: str, now: float) -> str | None:
        """Revoke a ``pending``/``leased`` key; returns its prior lease state.

        Terminal keys are left untouched (``None`` is returned) —
        cancellation must never overwrite a recorded outcome.  The
        holder learns of it from its next refused heartbeat.
        """
        with self._transaction() as db:
            row = db.execute(
                "SELECT state FROM leases WHERE kind=? AND key=?"
                " AND state IN ('pending', 'leased')",
                (kind, key),
            ).fetchone()
            if row is None:
                return None
            db.execute(
                "UPDATE leases SET state='cancelled', finished_at=?"
                " WHERE kind=? AND key=?",
                (now, kind, key),
            )
        return row[0]

    def lease(self, kind: str, key: str) -> dict | None:
        """One lease row as a dict (``claims`` is its current epoch)."""
        cursor = self._db().execute(
            "SELECT * FROM leases WHERE kind=? AND key=?", (kind, key)
        )
        row = cursor.fetchone()
        return dict(zip([c[0] for c in cursor.description], row)) if row else None

    # -- study queue -----------------------------------------------------
    #
    # ``studies`` rows hold the submitted StudySpec and its outcome; the
    # lifecycle is the study's lease, and the search state lives in a
    # per-study run ledger (tasks/checkpoints above).

    def submit_study(self, study_id: str, spec: dict, now: float) -> None:
        """Enqueue one study (``spec`` is a ``StudySpec.to_dict()``)."""
        try:
            with self._transaction() as db:
                db.execute(
                    "INSERT INTO studies (study_id, spec) VALUES (?, ?)",
                    (study_id, json.dumps(spec, separators=(",", ":"))),
                )
                db.execute(
                    "INSERT INTO leases (kind, key, queued_at) VALUES ('study', ?, ?)",
                    (study_id, now),
                )
        except sqlite3.IntegrityError:
            raise LedgerError(f"study {study_id!r} is already queued") from None

    def study(self, study_id: str) -> dict | None:
        """One study's queue row as a dict (spec parsed), or ``None``."""
        row = self._db().execute(
            _STUDY_SELECT + " WHERE s.study_id=?", (study_id,)
        ).fetchone()
        return _study_row(row) if row is not None else None

    def studies(self) -> list[dict]:
        """Every queue row, oldest submission first."""
        rows = self._db().execute(
            _STUDY_SELECT + " ORDER BY l.queued_at, s.study_id"
        ).fetchall()
        return [_study_row(row) for row in rows]

    def finish_study(self, study_id: str, epoch: int, result: dict, now: float) -> bool:
        """Mark a leased study ``done`` with its result summary.

        ``False`` (nothing written) when ``epoch`` no longer holds the
        lease: the study was cancelled, or re-leased elsewhere.
        """
        return self._settle("study", study_id, epoch, "done", now, (
            "UPDATE studies SET result=? WHERE study_id=?",
            (json.dumps(result, separators=(",", ":")), study_id),
        ))

    def fail_study(self, study_id: str, epoch: int, error: str, now: float) -> bool:
        """Mark a leased study ``failed`` with a diagnostic (fenced too)."""
        return self._settle("study", study_id, epoch, "failed", now, (
            "UPDATE studies SET error=? WHERE study_id=?", (error, study_id),
        ))

    # -- cluster tasks ---------------------------------------------------

    def seed_task_leases(self, tasks: list[tuple[str, int]]) -> None:
        """Ensure a lease row exists for every (label, repeat) task.

        Idempotent: existing rows (live leases of an in-flight run, or
        settled rows of a finished one) are left untouched, and live
        rows whose task already completed — e.g. under a *different*
        backend before a resume — are marked ``done``, which also
        revokes any holder's lease.
        """
        with self._transaction() as db:
            db.executemany(
                "INSERT OR IGNORE INTO leases (kind, key) VALUES ('task', ?)",
                [(task_key(label, repeat),) for label, repeat in tasks],
            )
            db.execute(  # the SQL spelling of task_key()
                "UPDATE leases SET state='done' WHERE kind='task'"
                " AND state IN ('pending', 'leased') AND key IN"
                " (SELECT label || '#' || repeat FROM tasks WHERE status='done')"
            )

    def record_leased(
        self, label: str, repeat: int, epoch: int, result: "SearchResult", now: float
    ) -> bool:
        """Persist a leased task's result iff ``epoch`` still holds its lease.

        One transaction settles the lease ``done``, writes the
        ``tasks`` row and drops the task's checkpoint.  A straggler
        whose lease was re-issued gets ``False`` and must discard its
        result — the current holder records the bit-identical one.
        """
        repeat = int(repeat)
        return self._settle(
            "task", task_key(label, repeat), epoch, "done", now,
            ("INSERT OR REPLACE INTO tasks (label, repeat, status, result)"
             " VALUES (?, ?, 'done', ?)", (label, repeat, _dumps(result))),
            ("DELETE FROM checkpoints WHERE label=? AND repeat=?", (label, repeat)),
        )

    def cluster_progress(self) -> dict[str, int]:
        """Task lease-state counts: total / pending / leased / done."""
        counts = {"pending": 0, "leased": 0, "done": 0}
        for state, count in self._db().execute(
            "SELECT state, COUNT(*) FROM leases WHERE kind='task' GROUP BY state"
        ):
            counts[state] = int(count)
        counts["total"] = sum(counts.values())
        return counts

    def task_lease_rows(self) -> list[dict]:
        """Every task lease row as a dict, (label, repeat) order."""
        rows = [
            dict(zip(("label", "repeat"), parse_task_key(key)), state=state,
                 worker=holder, lease_pid=pid, heartbeat=heartbeat, claims=claims)
            for key, state, holder, pid, heartbeat, claims in self._db().execute(
                "SELECT key, state, holder, pid, heartbeat, claims"
                " FROM leases WHERE kind='task'"
            )
        ]
        return sorted(rows, key=lambda row: (row["label"], row["repeat"]))

    # -- execution records -------------------------------------------------
    def record_execution(self, entry: dict) -> None:
        """Append one backend-execution record to the run's history.

        Entries come from :meth:`ExecutionBackend.describe_execution
        <repro.parallel.pool.ExecutionBackend.describe_execution>` —
        the requested backend name plus what *effectively* ran (the
        process backend degrades to serial where ``fork`` is
        unavailable).  A resumed or served study therefore reports
        which backend actually executed each of its runs, not just
        what its spec asked for.
        """
        with self._transaction() as db:
            row = db.execute(
                "SELECT value FROM meta WHERE key='executions'"
            ).fetchone()
            entries = json.loads(row[0]) if row is not None else []
            entries.append(entry)
            db.execute(
                "INSERT OR REPLACE INTO meta (key, value)"
                " VALUES ('executions', ?)",
                (json.dumps(entries, separators=(",", ":")),),
            )

    def executions(self) -> list[dict]:
        """Every recorded backend execution, oldest first."""
        row = self._db().execute(
            "SELECT value FROM meta WHERE key='executions'"
        ).fetchone()
        return json.loads(row[0]) if row is not None else []

    # -- reporting ---------------------------------------------------------
    def task_statuses(self) -> dict[str, dict[str, int]]:
        """Per-label progress: finished repeats and in-flight checkpoints.

        The per-job progress a study server reports.  ``tasks`` rows
        only exist once a repeat finishes, so per-label *totals* come
        from the pinned run configuration (``run_config()['labels']``
        x ``num_repeats``), not from here.
        """
        db = self._db()
        out: dict[str, dict[str, int]] = {}
        for label, done in db.execute(
            "SELECT label, COUNT(*) FROM tasks WHERE status='done' GROUP BY label"
        ):
            out[label] = {"done": int(done), "checkpointed": 0, "checkpointed_steps": 0}
        for label, count, steps in db.execute(
            "SELECT label, COUNT(*), COALESCE(SUM(steps_done), 0)"
            " FROM checkpoints GROUP BY label"
        ):
            entry = out.setdefault(
                label, {"done": 0, "checkpointed": 0, "checkpointed_steps": 0}
            )
            entry["checkpointed"] = int(count)
            entry["checkpointed_steps"] = int(steps)
        return out

    def done_results(self, label: str) -> list["SearchResult"]:
        """Every completed result under one job label, repeat order."""
        rows = self._db().execute(
            "SELECT result FROM tasks WHERE label=? AND status='done'"
            " ORDER BY repeat",
            (label,),
        ).fetchall()
        return [_loads(row[0]) for row in rows]

    def progress(self) -> dict:
        """Counts for resuming humans: done / checkpointed / steps."""
        db = self._db()
        done = db.execute(
            "SELECT COUNT(*) FROM tasks WHERE status='done'"
        ).fetchone()[0]
        checkpointed, steps = db.execute(
            "SELECT COUNT(*), COALESCE(SUM(steps_done), 0) FROM checkpoints"
        ).fetchone()
        return {
            "done": int(done),
            "checkpointed": int(checkpointed),
            "checkpointed_steps": int(steps),
        }


class LedgerCheckpoint:
    """Checkpoint handle binding a ledger to one (label, repeat) task.

    Implements the (duck-typed) :class:`repro.search.base.Checkpoint`
    interface.
    """

    def __init__(self, ledger: RunLedger, label: str, repeat: int) -> None:
        self.ledger = ledger
        self.label = label
        self.repeat = repeat

    def load(self) -> dict | None:
        return self.ledger.load_checkpoint(self.label, self.repeat)

    def save(self, state: dict) -> None:
        self.ledger.save_checkpoint(self.label, self.repeat, state)


class MemoryCheckpoint:
    """In-process checkpoint that snapshots via the ledger serializer.

    Serializing on ``save`` gives the same snapshot/aliasing semantics
    as the sqlite-backed handle (the strategy keeps mutating its state
    after a save), which makes it the reference checkpoint for tests.
    """

    def __init__(self) -> None:
        self._blob: str | None = None
        self.saves = 0

    def load(self) -> dict | None:
        return _loads(self._blob) if self._blob is not None else None

    def save(self, state: dict) -> None:
        self._blob = _dumps(state)
        self.saves += 1
