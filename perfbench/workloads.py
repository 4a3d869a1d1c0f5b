"""The four pinned benchmark workloads and their seeded inputs.

Each workload is a study spec at a fixed size.  The benchmark seed
derives one ``master_seed`` per study (a *pass* for the in-process
workloads, a submitted study for the served one), so the same seed
always yields the same studies and the same outcomes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

#: Seconds :func:`host_probe` takes on the reference host (2-vCPU
#: 2.1 GHz Xeon) when no other load slows it.
PROBE_REF_S = 0.0100


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now (best of three).

    The loop is the benchmark's own code, so no change to the program
    can make it faster or slower; only the host's speed at that moment
    does.  Timings are scaled by ``PROBE_REF_S / probe`` (see README).
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int        # search steps per strategy and scenario
    processes: int    # fresh processes per untraced run (setup samples)
    pass_s: float     # seconds per pass (or served study), rounded
    served: bool = False

    def passes(self, seconds: float, processes: int) -> int:
        """Passes per process so a run measures about ``seconds``.

        The count depends only on ``seconds``, never on measured time,
        so a seed always runs the same studies on any host.
        """
        return max(1, round(seconds / processes / self.pass_s))


#: ``pass_s`` is about the time of one pass (or served study) on the
#: reference host (2-vCPU 2.1 GHz Xeon); it only sets the pass count.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's study (3 strategies x 3 scenarios, database
        # source, batch 1): controller-bound, heavy set-up.
        Workload("fig5-controller", steps=20, processes=2, pass_s=1.2),
        # Transformer x charm-u50 with two-tier search: surrogate
        # filter plus exact platform calls; no controller, no bundle.
        # A pass's cost depends strongly on the seed (how often
        # evolution re-proposes memoized points), so a run takes the
        # median of many short passes.
        Workload("bert-u50-two-tier", steps=25, processes=3, pass_s=0.2),
        # Random search, tensorized dac2020 evaluation, batch 64: the
        # only workload where decode, tensor lookup, reward and
        # archive dominate.
        Workload("random-tensorized", steps=1600, processes=2, pass_s=1.0),
        # One closed-loop client against an in-process study server:
        # runner spawn, ledger checkpoints and eval-cache writes.  At
        # 300 steps the runner takes ~2.5 s, so the server's 0.25 s
        # claim and events polls are a small share of the latency.
        Workload("served-smoke", steps=300, processes=3, pass_s=2.5, served=True),
    )
}

#: Sizes for the self-test: every code path, a fraction of the time.
TINY_STEPS = {
    "fig5-controller": 4,
    "bert-u50-two-tier": 6,
    "random-tensorized": 128,
    "served-smoke": 4,
}


class Checks:
    """Correctness checks: how many were attempted, which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def study_seed(workload: str, seed: int, index: int) -> int:
    """The ``master_seed`` of study ``index`` under benchmark ``seed``."""
    material = f"{workload}\x1f{seed}\x1f{index}".encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=4).digest(), "little")


def build_spec(workload: str, steps: int, master_seed: int = 0):
    """The study spec of one workload at ``steps`` with ``master_seed``."""
    from repro.core.study import StudySpec
    from repro.experiments.presets import get_preset

    execution = {"num_steps": steps, "num_repeats": 1, "master_seed": master_seed}
    if workload == "fig5-controller":
        spec = get_preset("fig5")
    elif workload == "bert-u50-two-tier":
        spec = get_preset("bert-u50")
        execution.update(surrogate=True, exact_fraction=0.25)
    elif workload == "random-tensorized":
        spec = StudySpec(
            name="random-tensorized",
            strategies=({"name": "random"},),
            scenarios=("unconstrained", "1-constraint"),
            evaluator={"source": "database"},
            hardware=({"name": "dac2020"},),
        )
        execution.update(tensorize=True, batch_size=64)
    elif workload == "served-smoke":
        spec = get_preset("smoke")
    else:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    return spec.with_overrides({f"execution.{k}": v for k, v in execution.items()})


def grid_digest(grid: dict) -> str:
    """Digest of every archived step of a ``run_grid`` result."""
    h = hashlib.sha256()
    for label in sorted(grid):
        h.update(label.encode())
        for result in grid[label].results:
            for e in result.archive.entries:
                h.update(e.spec.matrix.tobytes())
                h.update(repr((e.spec.ops, e.config.to_dict(), e.reward,
                               e.feasible, e.valid)).encode())
    return h.hexdigest()[:16]


def summary_digest(outcomes: dict) -> str:
    """Digest of a JSON outcome summary (served and reference runs)."""
    text = json.dumps(outcomes, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid_best_reward(grid: dict) -> list[float]:
    """Best feasible reward of each job in a one-repeat grid."""
    return [
        float(r.best.reward)
        for label in sorted(grid)
        for r in grid[label].results
        if r.best is not None
    ]
