"""Stateful property test of the ledger's one fenced lease primitive.

Several holders claim, heartbeat, finish and cancel study and task
leases on one ledger while a clock advances past ``stale_after``
(expiry).  A plain-Python model predicts every answer, and the
invariants pin the fencing contract:

* at most one epoch per key is accepted — a write under any other
  epoch is refused;
* epochs only increase;
* a terminal row never changes again;
* a cancelled or done key is never claimed again.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
)

from repro.core.archive import SearchArchive
from repro.parallel.ledger import (
    TERMINAL_LEASE_STATES,
    RunLedger,
    parse_task_key,
    task_key,
)
from repro.search.base import SearchResult

STALE_AFTER = 10.0
HOLDERS = ("h0", "h1", "h2")
STUDIES = {"st-a": 0.0, "st-b": 1.0}  # study id -> submission time
TASKS = [("a", 0), ("a", 1), ("b", 0)]
KEYS = [("study", key) for key in STUDIES] + [
    ("task", task_key(label, repeat)) for label, repeat in TASKS
]
RESULT = SearchResult(strategy="random", scenario="s", archive=SearchArchive())


class LeaseMachine(RuleBasedStateMachine):
    tickets = Bundle("tickets")

    def __init__(self) -> None:
        super().__init__()
        self.ledger = RunLedger()
        for study_id, submitted in STUDIES.items():
            self.ledger.submit_study(study_id, {}, submitted)
        self.ledger.seed_task_leases(TASKS)
        self.now = 100.0
        # The model: (kind, key) -> state / epoch / heartbeat / queued_at.
        self.model = {
            lease: {
                "state": "pending",
                "epoch": 0,
                "heartbeat": None,
                "queued_at": STUDIES.get(lease[1], 0.0),
            }
            for lease in KEYS
        }
        self.accepted: dict[tuple[str, str], list[int]] = {lease: [] for lease in KEYS}
        self.settled: dict[tuple[str, str], dict] = {}

    def teardown(self) -> None:
        self.ledger.close()

    def _runnable(self, kind: str) -> list[tuple[str, str]]:
        return sorted(
            (
                lease for lease, row in self.model.items()
                if lease[0] == kind and (
                    row["state"] == "pending"
                    or (row["state"] == "leased"
                        and row["heartbeat"] < self.now - STALE_AFTER)
                )
            ),
            key=lambda lease: (self.model[lease]["queued_at"], lease[1]),
        )

    def _accept(self, lease: tuple[str, str], epoch: int) -> None:
        # At most one epoch is ever accepted per key: never an older
        # one once a newer one has been.
        assert all(epoch >= seen for seen in self.accepted[lease])
        self.accepted[lease].append(epoch)

    @rule(target=tickets, kind=st.sampled_from(["study", "task"]),
          holder=st.sampled_from(HOLDERS))
    def claim(self, kind, holder):
        runnable = self._runnable(kind)
        got = self.ledger.claim(kind, holder, HOLDERS.index(holder), self.now, STALE_AFTER)
        if not runnable:
            assert got is None
            return multiple()
        lease = runnable[0]
        row = self.model[lease]
        assert got == (lease[1], row["epoch"] + 1)
        assert row["state"] not in TERMINAL_LEASE_STATES
        row.update(state="leased", epoch=got[1], heartbeat=self.now)
        return (kind, got[0], got[1])

    @rule(ticket=tickets)
    def heartbeat(self, ticket):
        kind, key, epoch = ticket
        row = self.model[(kind, key)]
        held = row["state"] == "leased" and row["epoch"] == epoch
        assert self.ledger.heartbeat(kind, key, epoch, self.now) == held
        if held:
            row["heartbeat"] = self.now
            self._accept((kind, key), epoch)

    @rule(seconds=st.sampled_from([1.0, 6.0, 11.0]))
    def expire(self, seconds):
        self.now += seconds

    @rule(ticket=tickets, failed=st.booleans())
    def finish(self, ticket, failed):
        kind, key, epoch = ticket
        row = self.model[(kind, key)]
        held = row["state"] == "leased" and row["epoch"] == epoch
        if kind == "study" and failed:
            state, ok = "failed", self.ledger.fail_study(key, epoch, "boom", self.now)
        elif kind == "study":
            state, ok = "done", self.ledger.finish_study(key, epoch, {"e": epoch}, self.now)
        else:
            label, repeat = parse_task_key(key)
            state, ok = "done", self.ledger.record_leased(
                label, repeat, epoch, RESULT, self.now
            )
        assert ok == held
        if held:
            row["state"] = state
            self._accept((kind, key), epoch)

    @rule(lease=st.sampled_from(KEYS))
    def cancel(self, lease):
        row = self.model[lease]
        live = row["state"] in ("pending", "leased")
        prior = self.ledger.cancel(*lease, self.now)
        assert prior == (row["state"] if live else None)
        if live:
            row["state"] = "cancelled"

    @invariant()
    def ledger_matches_model_and_settled_rows_are_frozen(self):
        for lease, row in self.model.items():
            actual = self.ledger.lease(*lease)
            assert (actual["state"], actual["claims"]) == (row["state"], row["epoch"])
            if actual["state"] in TERMINAL_LEASE_STATES:
                snapshot = dict(actual)
                if lease[0] == "study":
                    snapshot["study"] = self.ledger.study(lease[1])
                assert self.settled.setdefault(lease, snapshot) == snapshot


TestLeaseMachine = LeaseMachine.TestCase
TestLeaseMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
