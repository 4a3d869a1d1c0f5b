"""SIGSTOP a study server past its lease, SIGCONT it, and it must yield.

The fencing contract of the study queue, end to end: two ``repro
serve`` processes share one state directory.  Server A leases a slow
study and starts its runner; the test SIGSTOPs A (a paused VM, a GC
storm, a partition — A is alive but silent), waits until server B
re-leases the now-stale study and starts a runner of its own, then
SIGCONTs A.  A's next heartbeat is refused, so A must kill its
runner's process group at once — the lease keeps pointing at B's
runner — and the report B serves must be byte-identical to an
uninterrupted in-process ``run_study`` of the same spec.

Without fencing, A's late heartbeat would re-point the lease at its
own runner, and both runners would race to record the outcome.
"""

from __future__ import annotations

import importlib.util
import os
import signal
import time
from pathlib import Path

import pytest

from repro.cli import _summary_markdown
from repro.core.study import StudySpec, outcome_summary, run_study
from repro.experiments.common import Scale
from repro.parallel.ledger import RunLedger
from repro.server import StudyClient

E2E = Path(__file__).resolve().parents[1] / "server" / "test_server_e2e.py"

#: ``StudyQueue``'s default heartbeat period (``repro serve`` keeps it).
HEARTBEAT_EVERY = 1.0
STALE_AFTER = 2.0


def load_e2e():
    spec = importlib.util.spec_from_file_location("server_e2e_helpers", E2E)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def group_alive(pgid: int) -> bool:
    """Whether any non-zombie process is left in a process group."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    status = Path(f"/proc/{pgid}/status")
    try:
        # The group leader may linger as a zombie until reaped; its
        # own state is what the kill targets.
        return "zombie" not in status.read_text()
    except OSError:
        return True


def wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    pytest.fail(f"timed out after {timeout:.1f}s waiting for {what}")


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP/SIGCONT")
def test_paused_server_yields_its_study_to_the_new_holder(tmp_path):
    e2e = load_e2e()
    plugins = tmp_path / "plugins"
    plugins.mkdir()
    (plugins / "slow_source.py").write_text(e2e.SLOW_SOURCE_PLUGIN)
    state = tmp_path / "state"
    spec_dict = e2e.slow_spec(delay_s=0.3, num_steps=40)

    servers = []
    runners = []
    queue = None
    try:
        proc_a, url_a = e2e.start_server(state, plugins, stale_after=STALE_AFTER)
        servers.append(proc_a)
        client_a = StudyClient(url_a)
        study_id = client_a.submit(spec_dict)["id"]
        queue = RunLedger(state / "queue.sqlite")

        # A's runner is running and has checkpointed real progress.
        def a_runner_mid_flight():
            doc = client_a.status(study_id)
            steps = sum(
                job["checkpointed_steps"] for job in doc["progress"]["jobs"].values()
            )
            if doc["pid"] not in (None, proc_a.pid) and steps >= 2:
                return doc["pid"]
            return None

        a_runner = wait_for(a_runner_mid_flight, 60, "A's runner to make progress")
        runners.append(a_runner)

        # B boots on the same state dir; A's fresh heartbeats keep it idle.
        proc_b, url_b = e2e.start_server(state, plugins, stale_after=STALE_AFTER)
        servers.append(proc_b)
        assert queue.lease("study", study_id)["claims"] == 1

        os.kill(proc_a.pid, signal.SIGSTOP)

        def b_runner_holds_lease():
            row = queue.study(study_id)
            lease = queue.lease("study", study_id)
            pid = row["lease_pid"]
            if lease["claims"] >= 2 and pid not in (proc_a.pid, proc_b.pid, a_runner):
                return pid
            return None

        b_runner = wait_for(b_runner_holds_lease, 30, "B to re-lease the study")
        runners.append(b_runner)
        assert group_alive(a_runner), "A's runner ended before A resumed"

        os.kill(proc_a.pid, signal.SIGCONT)
        resumed = time.monotonic()
        # One heartbeat period, plus scheduling slack.
        wait_for(lambda: not group_alive(a_runner), HEARTBEAT_EVERY + 0.5,
                 "A to kill its runner's process group")
        assert time.monotonic() - resumed <= HEARTBEAT_EVERY + 0.5
        assert queue.study(study_id)["lease_pid"] == b_runner

        final = StudyClient(url_b).wait(study_id, timeout=120)
        assert final["state"] == "done"
        row = queue.study(study_id)
        assert row["lease_pid"] == b_runner
        assert queue.lease("study", study_id)["claims"] == 2

        e2e.register_slow_source_locally(plugins)
        local = run_study(StudySpec.from_dict(spec_dict), scale=Scale.named("smoke"))
        assert final["result"]["outcomes"] == outcome_summary(local)
        # The report `repro watch` renders equals `repro study run`'s.
        assert _summary_markdown(
            final["result"]["name"], final["result"]["outcomes"]
        ) == _summary_markdown(spec_dict["name"], outcome_summary(local))
    finally:
        for proc in servers:
            try:
                os.kill(proc.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            e2e.kill_server(proc)
            proc.stdout.close()
        for pgid in runners:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if queue is not None:
            queue.close()
