"""Ledger-leased elastic cluster backend.

The ``cluster`` :class:`~repro.parallel.pool.ExecutionBackend` scales
a grid beyond one process pool: any number of worker processes —
forked locally by the backend, or started on other machines with
``python -m repro.parallel.worker`` (``repro worker``) against a
shared state directory — cooperate through the run ledger's one
lease primitive (kind ``task``):

* every pending (label, repeat) task gets a lease row;
* workers atomically claim the next runnable task with its fence
  epoch (``BEGIN IMMEDIATE`` — never two claimants), heartbeat under
  that epoch while searching it, and record the result through
  :meth:`~repro.parallel.ledger.RunLedger.record_leased`;
* a crashed or stalled worker's lease heartbeat goes stale and the
  task is re-issued under a new epoch — resuming from its last
  checkpoint, so the work already persisted is replayed, not
  recomputed;
* a stalled worker whose heartbeat is refused stops the task at its
  next checkpoint save, and its late record is refused, so no task is
  ever recorded twice (not even after the same worker re-claimed it);
* workers may join and leave at any point (elasticity): joining means
  opening the ledger and claiming; leaving means simply exiting, with
  any held lease re-issued after ``stale_after`` seconds.

Bit-identity: per-repeat seeds depend only on the master seed and the
repeat index, evaluation is pure, and checkpoints resume exactly, so
*which* worker runs a task — or how many times a task is re-issued —
never changes its result.  ``backend="cluster"`` reproduces the
serial goldens float for float (see
``tests/integration/test_cluster_kill.py``).

Eval-cache merge-back: each worker attaches its own *writable*
:class:`~repro.parallel.cache.EvalCache` connection to the shared
store (concurrent writers are supported — rows are pure, writes
serialize on sqlite's file lock) and flushes its delta when a task
completes, so a joining worker warm-starts from everything the
cluster has already evaluated.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
import warnings
from pathlib import Path

from repro.parallel.cache import EvalCache
from repro.parallel.ledger import LedgerError, RunLedger, parse_task_key
from repro.parallel.pool import (
    ExecutionBackend,
    _mark_worker,
    fork_available,
    register_backend,
    resolve_workers,
)
from repro.utils.rng import hash_seed

__all__ = ["ClusterBackend", "run_worker"]


class _LeaseRevoked(Exception):
    """The task's lease moved on; raised at the next checkpoint save."""


class _FencedCheckpoint:
    """A task checkpoint that ends the search once the lease is revoked.

    Saves fall on batch boundaries, so a worker whose heartbeat was
    refused stops there, leaving the new holder's checkpoint alone.
    """

    def __init__(self, inner, revoked: threading.Event) -> None:
        self.inner = inner
        self.revoked = revoked

    def load(self) -> dict | None:
        return self.inner.load()

    def save(self, state: dict) -> None:
        if self.revoked.is_set():
            raise _LeaseRevoked
        self.inner.save(state)


def _heartbeat_loop(
    path, key: str, epoch: int, every: float, stop: threading.Event,
    revoked: threading.Event,
) -> None:
    # Own ledger (and sqlite connection) per heartbeat thread:
    # connections are neither thread- nor fork-safe, and the worker's
    # main thread is busy inside strategy.run.
    ledger = RunLedger(path)
    try:
        while not stop.wait(every):
            if not ledger.heartbeat("task", key, epoch, time.time()):
                # Lease re-issued (we stalled past stale_after) or
                # settled elsewhere: the current holder owns the task.
                revoked.set()
                return
    finally:
        ledger.close()


def run_worker(
    jobs,
    ledger: RunLedger | str | Path,
    *,
    num_steps: int,
    num_repeats: int,
    master_seed: int = 0,
    batch_size: int = 1,
    checkpoint_every: int = 10,
    cache: EvalCache | str | Path | None = None,
    worker_id: str | None = None,
    stale_after: float = 10.0,
    heartbeat_every: float = 1.0,
    poll_every: float = 0.2,
    max_tasks: int | None = None,
) -> int:
    """Claim-and-run loop of one cluster worker; returns tasks recorded.

    ``jobs`` is the grid's :class:`~repro.search.runner.RepeatJob`
    list (an external worker rebuilds it from the ledger-pinned
    StudySpec — see :mod:`repro.parallel.worker`); ``ledger`` must be
    file-backed, since the lease table *is* the cluster.  The loop
    exits once every lease is ``done`` (or after ``max_tasks``
    recorded tasks, for tests and bounded-contribution workers).

    The run parameters must match the coordinating run's — they are
    what :meth:`RunLedger.begin_run` pins, and the caller is expected
    to have validated against ``ledger.run_config()``.
    """
    if not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger)
    if ledger.path is None:
        raise LedgerError(
            "a cluster worker requires a file-backed ledger — its "
            "lease table is the coordination substrate"
        )
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    by_label = {job.label: job for job in jobs}
    # Idempotent: makes join order irrelevant (a worker may beat the
    # coordinator to the ledger) and marks already-done tasks.
    ledger.seed_task_leases(
        [(job.label, repeat) for job in jobs for repeat in range(num_repeats)]
    )

    # The shared store is attached writable — workers are concurrent
    # writers by design — with one connection per store path for the
    # whole worker lifetime.  An owner-mismatched EvalCache object
    # (inherited through fork) contributes only its path.
    own_cache: EvalCache | None = None
    cache_path = None
    if isinstance(cache, EvalCache):
        if cache.owner_pid == os.getpid():
            own_cache = cache
        else:
            cache_path = cache.path
    elif cache is not None:
        cache_path = Path(cache)

    recorded = 0
    try:
        while True:
            claim = ledger.claim(
                "task", worker_id, os.getpid(), time.time(), stale_after
            )
            if claim is None:
                # Re-sync lease states first: a task recorded outside
                # the lease protocol (a serial resume of the same
                # ledger) leaves its lease un-done, which would stall
                # the progress check below forever.
                ledger.seed_task_leases([])
                progress = ledger.cluster_progress()
                if not progress["pending"] and not progress["leased"]:
                    break
                time.sleep(poll_every)
                continue
            key, epoch = claim
            label, repeat = parse_task_key(key)
            job = by_label.get(label)
            if job is None:
                raise LedgerError(
                    f"claimed a lease for unknown job label {label!r}; this "
                    "worker's jobs do not match the run that seeded the "
                    f"ledger (known: {sorted(by_label)})"
                )
            evaluator = job.evaluator_factory()
            inherited = evaluator.eval_cache
            if inherited is not None and inherited.owner_pid != os.getpid():
                # The factory closed over an evaluator whose cache (and
                # live sqlite connection) came through fork — detach it
                # and reopen by path below.
                evaluator.eval_cache = None
            if evaluator.eval_cache is None:
                store_path = cache_path
                if store_path is None and own_cache is not None:
                    evaluator.attach_eval_cache(
                        own_cache, scenario=job.cache_scenario
                    )
                else:
                    if store_path is None and inherited is not None:
                        store_path = inherited.path  # keep warm-starts
                    if store_path is not None:
                        if (
                            own_cache is None
                            or own_cache.path is None
                            or str(own_cache.path) != str(store_path)
                        ):
                            own_cache = EvalCache(store_path)
                        evaluator.attach_eval_cache(
                            own_cache, scenario=job.cache_scenario
                        )
            worker_cache = evaluator.eval_cache
            stop = threading.Event()
            revoked = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(ledger.path, key, epoch, heartbeat_every, stop, revoked),
                daemon=True,
            )
            beat.start()
            try:
                strategy = job.strategy_factory(
                    hash_seed("repeat", master_seed, repeat)
                )
                result = strategy.run(
                    evaluator,
                    num_steps,
                    batch_size=batch_size,
                    checkpoint=_FencedCheckpoint(
                        ledger.checkpoint(label, repeat), revoked
                    ),
                    checkpoint_every=checkpoint_every,
                )
            except _LeaseRevoked:
                result = None
            finally:
                stop.set()
                beat.join()
            if worker_cache is not None:
                # Delta merge-back at task end: new rows become visible
                # to every other worker (and the coordinator).
                worker_cache.flush()
            if result is not None and ledger.record_leased(
                label, repeat, epoch, result, time.time()
            ):
                recorded += 1
            # No result or a refused record means we were a straggler:
            # the lease was re-issued and the current holder records
            # the bit-identical result.  Either way, move on.
            if max_tasks is not None and recorded >= max_tasks:
                break
    finally:
        if own_cache is not None and own_cache is not cache:
            own_cache.close()
    return recorded


class ClusterBackend(ExecutionBackend):
    """Grid execution over ledger-leased cooperating worker processes.

    ``run_tasks`` seeds lease rows for the pending tasks, forks
    ``workers`` local claim loops (where ``fork`` exists), then mops
    up any remainder in-process — so the run completes even if every
    local worker dies, and external ``repro worker`` processes that
    share the ledger file join the same lease pool.  Declarative
    params (``execution.backend_params`` in a study spec):

    ``stale_after``
        Seconds without a heartbeat before a lease is re-issued.
    ``heartbeat_every``
        Seconds between a worker's liveness stamps on its held lease.
    ``poll_every``
        Idle sleep between claim attempts when nothing is runnable.
    """

    name = "cluster"

    def __init__(
        self,
        stale_after: float = 10.0,
        heartbeat_every: float = 1.0,
        poll_every: float = 0.2,
    ) -> None:
        if stale_after <= 0:
            raise ValueError(f"stale_after must be > 0, got {stale_after}")
        if heartbeat_every <= 0:
            raise ValueError(f"heartbeat_every must be > 0, got {heartbeat_every}")
        if heartbeat_every >= stale_after:
            raise ValueError(
                f"heartbeat_every ({heartbeat_every}) must be smaller than "
                f"stale_after ({stale_after}) or live leases look stale"
            )
        if poll_every <= 0:
            raise ValueError(f"poll_every must be > 0, got {poll_every}")
        self.stale_after = float(stale_after)
        self.heartbeat_every = float(heartbeat_every)
        self.poll_every = float(poll_every)

    def _local_workers(self, grid) -> int:
        if not fork_available() or len(grid.pending) <= 1:
            return 0
        return min(resolve_workers(grid.workers), len(grid.pending))

    def describe_execution(self, grid) -> dict:
        description = super().describe_execution(grid)
        description["workers"] = min(
            resolve_workers(grid.workers), max(len(grid.pending), 1)
        )
        description["local_workers"] = self._local_workers(grid)
        return description

    def _worker_kwargs(self, grid) -> dict:
        return {
            "num_steps": grid.num_steps,
            "num_repeats": grid.num_repeats,
            "master_seed": grid.master_seed,
            "batch_size": grid.batch_size,
            "checkpoint_every": grid.checkpoint_every,
            "cache": grid.cache,
            "stale_after": self.stale_after,
            "heartbeat_every": self.heartbeat_every,
            "poll_every": self.poll_every,
        }

    def _child_main(self, grid, worker_id: str) -> None:
        # Forked child: closures (jobs, the latency matrix behind their
        # factories) arrived copy-on-write.  Nested parallel_map calls
        # must degrade to serial instead of forking pools of their own.
        _mark_worker()
        run_worker(grid.jobs, grid.ledger, worker_id=worker_id, **self._worker_kwargs(grid))

    def run_tasks(self, grid) -> dict:
        ledger = grid.ledger
        if ledger is None or ledger.path is None:
            raise ValueError(
                "the cluster backend requires a file-backed ledger — "
                "workers coordinate through its lease table; pass "
                "ledger=<path> (execution.ledger in a study spec)"
            )
        cache = grid.cache
        if cache is not None and cache.path is None:
            warnings.warn(
                "cluster backend cannot share a path-less (in-memory) "
                "EvalCache with workers; evaluations will not be cached "
                "— give the cache a file path",
                RuntimeWarning,
                stacklevel=2,
            )
        if cache is not None:
            cache.flush()  # workers must see everything known so far
        ledger.seed_task_leases([(grid.labels[j], r) for j, r in grid.pending])

        children = []
        for index in range(self._local_workers(grid)):
            ctx = multiprocessing.get_context("fork")
            child = ctx.Process(
                target=self._child_main,
                args=(grid, f"local-{index}-{os.getpid()}"),
            )
            child.start()
            children.append(child)
        for child in children:
            child.join()
        # Mop-up claim loop in-process: finishes anything the local
        # workers left behind (all killed, fork unavailable, or a
        # straggling external worker's stale lease) and is a no-op on
        # a fully recorded run.
        run_worker(
            grid.jobs,
            ledger,
            worker_id=f"coordinator-{os.getpid()}",
            **self._worker_kwargs(grid),
        )
        if cache is not None:
            # Flush boundaries drop memoized misses, so the coordinator
            # now observes every row the workers wrote to the store.
            cache.flush()

        fresh = {}
        for task in grid.pending:
            label = grid.labels[task[0]]
            result = ledger.load_result(label, task[1])
            if result is None:
                raise LedgerError(
                    f"cluster run ended with task ({label!r}, {task[1]}) "
                    "unrecorded — the lease table converged without its "
                    "result, which should be impossible; re-run to resume"
                )
            fresh[task] = result
        return fresh


register_backend(ClusterBackend)
