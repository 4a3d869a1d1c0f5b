"""SIGKILL one cluster worker mid-task; the run must still converge.

The cluster backend's elasticity contract, end to end: a harness
subprocess runs a grid with two forked local workers, the test
SIGKILLs exactly one of them while it holds a lease (the harness and
its other worker keep running), and the run must finish on its own —
the killed worker's lease goes stale, the task is re-issued and
resumed by a survivor, no (label, repeat) is recorded twice, and the
outcomes are bit-identical to a serial run of the same grid.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import RunLedger

HARNESS = Path(__file__).with_name("cluster_kill_harness.py")
KILL_RESUME_HARNESS = Path(__file__).with_name("kill_resume_harness.py")
SRC = Path(__file__).resolve().parents[2] / "src"


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(path.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
    return module


def lease_rows(ledger_path: Path) -> list[dict]:
    """Lease rows via a short-timeout connection (tolerates mid-write)."""
    try:
        with sqlite3.connect(ledger_path, timeout=0.1) as conn:
            rows = conn.execute(
                # Task lease keys are '<label>#<repeat>'.
                "SELECT substr(key, 1, length(rtrim(key, '0123456789')) - 1),"
                " CAST(substr(key, length(rtrim(key, '0123456789')) + 1) AS INTEGER),"
                " state, holder, pid, claims"
                " FROM leases WHERE kind='task' ORDER BY 1, 2"
            ).fetchall()
    except sqlite3.Error:
        return []
    return [
        {"label": r[0], "repeat": r[1], "state": r[2], "worker": r[3],
         "lease_pid": r[4], "claims": r[5]}
        for r in rows
    ]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="cluster local workers fork",
)
def test_sigkill_one_worker_lease_reissued_and_identical(tmp_path):
    ledger_path = tmp_path / "cluster.ledger"
    stderr_path = tmp_path / "harness.stderr"

    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}:{env.get('PYTHONPATH', '')}"
    with open(stderr_path, "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(HARNESS), str(ledger_path), "0.01"],
            env=env,
            start_new_session=True,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
        )
    try:
        coordinator_pid = int(proc.stdout.readline())

        # Wait for a *local worker* (not the coordinator) to hold a
        # lease, then SIGKILL that worker only.
        killed_pid = None
        killed_task = None
        deadline = time.time() + 120
        while time.time() < deadline and killed_pid is None:
            if proc.poll() is not None:
                pytest.fail(
                    "harness exited before a worker could be killed "
                    f"(rc={proc.returncode}): {stderr_path.read_text()[-2000:]}"
                )
            for row in lease_rows(ledger_path):
                if (
                    row["state"] == "leased"
                    and row["lease_pid"] is not None
                    and row["lease_pid"] != coordinator_pid
                ):
                    killed_pid = int(row["lease_pid"])
                    killed_task = (row["label"], row["repeat"])
                    break
            else:
                time.sleep(0.02)
        assert killed_pid is not None, "no worker lease appeared in time"
        os.kill(killed_pid, signal.SIGKILL)

        # The harness itself was not killed: the surviving worker plus
        # the coordinator's mop-up loop must finish the whole grid.
        assert proc.wait(timeout=180) == 0, stderr_path.read_text()[-2000:]
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        proc.stdout.close()

    harness = load_module(HARNESS)
    ledger = RunLedger(ledger_path)

    # Every task done, each exactly once (one tasks row per lease row).
    rows = ledger.task_lease_rows()
    total = 2 * harness.NUM_REPEATS
    assert len(rows) == total
    assert all(row["state"] == "done" for row in rows)
    assert ledger.progress()["done"] == total

    # The killed worker's task was re-issued: claimed at least twice,
    # and finally recorded by someone other than the dead pid.
    killed_row = next(
        row for row in rows
        if (row["label"], row["repeat"]) == killed_task
    )
    assert killed_row["claims"] >= 2
    assert killed_row["lease_pid"] != killed_pid

    # Bit-identity with an uninterrupted serial run of the same grid.
    kill_resume = load_module(KILL_RESUME_HARNESS)
    serial = kill_resume.run(None, "serial", 1)
    for label, outcome in serial.items():
        for repeat, expected in enumerate(outcome.results):
            recovered = ledger.load_result(label, repeat)
            assert recovered is not None
            assert np.array_equal(
                expected.reward_trace(),
                recovered.reward_trace(),
                equal_nan=True,
            )
            assert (expected.best is None) == (recovered.best is None)
            if expected.best is not None:
                assert expected.best.reward == recovered.best.reward
                assert (
                    expected.best.spec.spec_hash()
                    == recovered.best.spec.spec_hash()
                )
