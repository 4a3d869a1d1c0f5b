"""End-to-end study benchmark: four pinned workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-controller --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 1

Every workload runs in fresh worker processes (``worker.py``), so the
``setup_s`` samples include what each CLI run, server runner or
cluster worker pays.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the workload once untraced and
once with the benchmark's span wrappers installed (``tracer.py``),
checks both give the same outcomes, and reports the per-layer metrics.
Timings are scaled to the reference host's speed by host probes taken
around every timed sample (README, "Host-speed scaling").  The last
line of stdout is one JSON object; the lines before it are a table of
every metric with its unit and sample count.  A failed correctness
gate exits 1.

On-disk caches live in ``.perfbench/cache`` (``REPRO_CACHE_DIR``), never
in the developer's ``.cache``; the first run in a checkout builds them
in an untimed warm-up and records their cold-build times.  Every run is
appended to ``.perfbench/trajectory.jsonl`` (or ``--trajectory PATH``)
with the code digest, git sha, seed, ``nproc`` and workload size.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
CACHE = STATE / "cache"

sys.path.insert(0, str(HERE))
from workloads import PROBE_REF_S, TINY_STEPS, WORKLOADS, Checks  # noqa: E402

#: Wall-clock limits: one run must finish within 180 s (the first
#: warm-up of a checkout may take longer).
RUN_BUDGET_S = 170.0
WARMUP_BUDGET_S = 850.0
STUDY_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """A worker process failed; the run cannot report metrics."""


# ---------------------------------------------------------------------------
# Environment, provenance, worker processes
# ---------------------------------------------------------------------------

def code_digest() -> str:
    """Digest of every source file the benchmark exercises."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["REPRO_CACHE_DIR"] = str(CACHE)
    env.pop("REPRO_SCALE", None)
    env.pop("PERFBENCH_TRACE_DIR", None)
    return env


def spawn(request: dict, timeout: float) -> tuple[dict, float]:
    """Run one worker process; returns (its result, spawn time).

    The spawn time is ``time.monotonic()`` just before the process is
    created — the system-wide clock the worker stamps ``ready`` with.
    """
    out = STATE / "tmp" / f"worker-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    request = dict(request, out=str(out))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL,
            timeout=max(timeout, 5.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{request['mode']} worker timed out after {timeout:.0f}s") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{request['mode']} worker exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result, spawned


def warm_up() -> dict | None:
    """Build the on-disk caches once per code version (untimed)."""
    marker = CACHE / f"warm-{code_digest()}.json"
    if marker.exists():
        return None
    CACHE.mkdir(parents=True, exist_ok=True)
    result, _ = spawn({"mode": "warmup"}, WARMUP_BUDGET_S)
    marker.write_text(json.dumps(result))
    return result["cold_build_s"]


# ---------------------------------------------------------------------------
# Correctness gates shared across runs
# ---------------------------------------------------------------------------

class Gates(Checks):
    """The run's checks, plus the workers' and the digest comparisons."""

    def absorb(self, worker: dict) -> None:
        self.attempted += worker["checks"]
        self.failures.extend(worker["failures"])

    def same_digests(self, keyed: dict, what: str) -> None:
        """Every digest recorded for one key (across processes) agrees."""
        for key, digests in sorted(keyed.items()):
            self.expect(len(set(digests)) == 1, f"{what} {key}: outcome digests differ {digests}")

    def remember(self, prefix: str, keyed: dict) -> None:
        """Digests must also match every earlier run of the same seed."""
        path = STATE / "digests.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        for key, digests in sorted(keyed.items()):
            full = f"{prefix}|{key}"
            if full in known:
                self.expect(known[full] == digests[0],
                            f"{full}: digest {digests[0]} differs from an earlier run's {known[full]}")
            known[full] = digests[0]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True))
        os.replace(tmp, path)


def _by_index(records) -> dict:
    keyed: dict = {}
    for record in records:
        keyed.setdefault(record["index"], []).append(record["digest"])
    return keyed


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def _median_of(samples):
    return _median(samples), samples


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def tail_percentile(values):
    """The highest of p99/p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def timing_metrics(setups, samples):
    """Host-scaled timing metrics, and the same medians unscaled.

    ``setups`` holds ``(seconds, probe)`` per set-up, ``samples``
    ``(seconds, probe, evaluations)`` per pass or served study, where
    ``probe`` is the mean host probe taken around it.  Each time is
    scaled by ``PROBE_REF_S / probe`` to the reference host's speed.
    """
    scaled_setups = [t * PROBE_REF_S / probe for t, probe in setups]
    scaled = [(t * PROBE_REF_S / probe, evals) for t, probe, evals in samples]
    metrics = {
        "setup_s": _median_of(scaled_setups),
        "evals_per_s": _median_of([evals / t for t, evals in scaled]),
        "study_latency_p50_s": _median_of([t for t, _ in scaled]),
    }
    probes = [probe for _, probe in setups] + [probe for _, probe, _ in samples]
    unscaled = {
        "setup_s": _median([t for t, _ in setups]),
        "evals_per_s": _median([evals / t for t, _, evals in samples]),
        "study_latency_p50_s": _median([t for t, _, _ in samples]),
        "host_slowdown": _median(probes) / PROBE_REF_S,
    }
    return metrics, unscaled


# Each runner below returns {metric: (value, samples)}, the run size and
# the unscaled timings (empty when traced).

def run_inproc(w, seed, seconds, steps, processes, trace, gates, deadline):
    base = {"mode": "inproc", "workload": w.name, "seed": seed, "steps": steps,
            "trace": False, "first": 0}
    prefix = f"{w.name}|{seed}|{steps}"
    if trace:
        # The same passes untraced and traced: outcomes must agree, and
        # the wall-time ratio is the tracing overhead.
        base["passes"] = w.passes(seconds, 2)
        plain, _ = spawn(base, deadline - time.monotonic())
        spans_out = STATE / "traces" / f"{w.name}-seed{seed}.json"
        traced, _ = spawn(dict(base, trace=True, spans_out=str(spans_out)),
                          deadline - time.monotonic())
        for worker in (plain, traced):
            gates.absorb(worker)
        keyed = _by_index(plain["passes"] + traced["passes"])
        gates.same_digests(keyed, f"{w.name} traced vs untraced pass")
        gates.remember(prefix, keyed)
        size = {"passes": len(traced["passes"]), "spans": str(spans_out.relative_to(ROOT))}
        return inproc_layers(plain, traced), size, {}
    # Each process runs its own passes, so a run averages over
    # processes x passes distinct study seeds.
    workers, setups, samples = [], [], []
    n = w.passes(seconds, processes)
    for k in range(processes):
        result, spawned = spawn(dict(base, first=k * n, passes=n), deadline - time.monotonic())
        gates.absorb(result)
        workers.append(result)
        probes = result["probes"]
        setups.append((result["ready"] - spawned - result["probe_cost"], _mean(probes[:2])))
        samples += [(p["wall"], _mean(probes[i + 1:i + 3]), p["evals"])
                    for i, p in enumerate(result["passes"])]
    passes = [p for worker in workers for p in worker["passes"]]
    for p in passes:
        gates.expect(p["evals"] == p["jobs"] * steps, f"pass {p['index']}: {p['evals']} evaluations")
    gates.remember(prefix, _by_index(passes))
    rss = [wk["rss_mb"] for wk in workers]
    best = [b for p in passes for b in p["best"]]
    metrics, unscaled = timing_metrics(setups, samples)
    metrics["peak_rss_mb"] = _median_of(rss)
    metrics["best_reward"] = (_mean(best), best)
    return metrics, {"passes": len(passes), "processes": processes}, unscaled


def run_served(w, seed, seconds, steps, processes, trace, gates, deadline):
    base = {"workload": w.name, "seed": seed, "steps": steps}
    setups = []
    if not trace:
        for _ in range(processes):
            result, spawned = spawn(dict(base, mode="setup"), deadline - time.monotonic())
            setups.append((result["ready"] - spawned - result["probe_cost"],
                           _mean(result["probes"])))
    served, _ = spawn(
        dict(base, mode="served", trace=trace, passes=w.passes(seconds, 2 if trace else 1),
             study_timeout=STUDY_TIMEOUT_S,
             state_root=str(STATE / "served" / str(os.getpid()))),
        deadline - time.monotonic(),
    )
    gates.absorb(served)
    studies = served["studies"]
    gates.remember(f"{w.name}|{seed}|{steps}", _by_index(studies))
    if trace:
        return served_layers(served), {"studies": len(studies)}, {}
    best = [b for s in studies for b in s["best"]]
    metrics, unscaled = timing_metrics(
        setups, [(s["latency"], s["probe"], s["evals"]) for s in studies])
    metrics["peak_rss_mb"] = (served["rss_mb"], [served["rss_mb"]])
    metrics["best_reward"] = (_mean(best), best)
    return metrics, {"studies": len(studies), "setup_processes": processes}, unscaled


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _layer_metrics(self_s, calls, counter, distinct_frac):
    """Per-layer metrics from per-study self times, calls and counters."""
    out = {}
    for name in (
        "experiments.load_bundle", "nasbench.enumerate", "nasbench.database",
        "core.pareto_front", "core.build_study", "rl.sample", "rl.update",
        "hw.surrogate_predict", "hw.surrogate_latency", "search.two_tier_select",
        "search.two_tier_score", "core.evaluate", "core.tensor_lookup",
        "hw.latency", "search.ask", "search.tell", "core.reward",
        "core.archive_record", "parallel.checkpoint_save", "parallel.record_done",
        "parallel.cache_get", "parallel.cache_put", "parallel.cache_flush",
    ):
        out[f"{name}_s"] = self_s(name)
    out["rl.calls"] = calls("rl.sample") + calls("rl.update")
    out["hw.latency_calls"] = calls("hw.latency")
    out["parallel.checkpoint_saves"] = calls("parallel.checkpoint_save")
    out["core.evaluations"] = counter("core.evaluations")
    out["core.distinct_frac"] = distinct_frac
    ranked = counter("search.two_tier_ranked")
    out["search.two_tier_kept_frac"] = counter("search.two_tier_kept") / ranked if ranked else 0.0
    lookups = counter("parallel.cache_hits") + counter("parallel.cache_misses")
    out["parallel.cache_hit_rate"] = counter("parallel.cache_hits") / lookups if lookups else 0.0
    return out


def inproc_layers(plain, traced):
    """Self time of one set-up plus one pass (passes averaged)."""
    n = len(traced["passes"])
    setup, passes, counters = traced["setup_layers"], traced["layers"], traced["counters"]

    def self_s(name):
        return setup.get(name, {}).get("self_s", 0.0) + passes.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return setup.get(name, {}).get("calls", 0) + passes.get(name, {}).get("calls", 0) / n

    out = _layer_metrics(self_s, calls, lambda k: counters.get(k, 0) / n,
                         _median([p["distinct_frac"] for p in traced["passes"]]))
    traced_wall = sum(p["wall"] for p in traced["passes"])
    plain_wall = sum(p["wall"] for p in plain["passes"][:n])
    out.update({
        "server.submit_s": 0.0, "server.queue_wait_s": 0.0, "server.runner_s": 0.0,
        "server.notify_lag_s": 0.0, "server.runner_overhead_s": 0.0,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.unattributed_frac": 1.0 - traced["covered"] / traced_wall,
    })
    return {name: (value, [value]) for name, value in out.items()}


def served_layers(served):
    """Runner-side self times per study, server timings as medians."""
    studies, traced = served["studies"], served["traced_studies"]
    n = len(traced)
    layers = served["layers"]
    out = _layer_metrics(
        lambda name: layers.get(name, {}).get("self_s", 0.0) / n,
        lambda name: layers.get(name, {}).get("calls", 0) / n,
        lambda key: layers.get(key, {}).get("calls", 0) / n,
        _median([s["distinct_frac"] for s in studies]),
    )
    walls = served["runner_walls"].values()
    out["trace.overhead_frac"] = (_median([s["latency"] for s in traced])
                                  / _median([s["latency"] for s in studies]) - 1.0)
    out["trace.unattributed_frac"] = (
        1.0 - sum(c for _w, c in walls) / sum(w for w, _c in walls) if walls else 0.0)
    metrics = {name: (value, [value]) for name, value in out.items()}
    for name, key in (("server.submit_s", "submit_s"), ("server.queue_wait_s", "queue_wait"),
                      ("server.runner_s", "runner"), ("server.notify_lag_s", "notify_lag")):
        samples = [s[key] for s in traced]
        metrics[name] = (_median(samples), samples)
    overheads = [s["runner"] - s["inproc_s"] for s in traced]
    metrics["server.runner_overhead_s"] = (_median(overheads), overheads)
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(name, seed, seconds, trace, tiny) -> dict:
    w = WORKLOADS[name]
    steps = TINY_STEPS[name] if tiny else w.steps
    processes = 1 if tiny else w.processes
    gates = Gates()
    deadline = time.monotonic() + RUN_BUDGET_S
    metrics, size, unscaled = {}, {"steps": steps}, {}
    runner = run_served if w.served else run_inproc
    try:
        metrics, extra, unscaled = runner(w, seed, seconds, steps, processes, trace, gates, deadline)
        size.update(extra)
    except BenchError as err:
        gates.expect(False, f"{name}: {err}")
    values = {}
    for metric, unit in declared_metrics(trace).items():
        if metric not in metrics:
            if metrics:  # a failed worker is already counted
                gates.expect(False, f"{name}: metric {metric} was not measured")
            continue
        value, samples = metrics[metric]
        gates.expect(math.isfinite(value), f"{name}: {metric} is {value}")
        values[metric] = {"value": value, "unit": unit, "samples": len(samples)}
        if metric == "study_latency_p50_s":
            values[metric]["tail"] = tail_percentile(samples)
    failed = len(gates.failures)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "metrics": values, "unscaled": unscaled,
        "attempted": max(gates.attempted, 1),
        "failed": failed, "failures": gates.failures,
    }


def print_table(result: dict) -> None:
    kind = "per-layer" if result["trace"] else "end-to-end"
    print(f"## {result['workload']} (seed {result['seed']}, {kind}, size {result['size']})")
    for metric, entry in result["metrics"].items():
        line = f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']:6s} n={entry['samples']}"
        if entry.get("tail"):
            line += f"  p{entry['tail'][0]}={entry['tail'][1]:.6g}"
        print(line)
    if result["unscaled"]:
        print("  unscaled medians: " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["unscaled"].items()))
    rate = result["failed"] / result["attempted"]
    print(f"  {'failure_rate':34s} {rate:>14.6g} {'frac':6s} n={result['attempted']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def append_trajectory(path: Path, result: dict, cold: dict | None) -> None:
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git": git_sha(),
        "code": code_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        **{k: result[k] for k in ("workload", "seed", "seconds", "trace", "size",
                                  "unscaled", "attempted", "failed", "failures")},
        "metrics": {k: {"value": v["value"], "unit": v["unit"], "samples": v["samples"]}
                    for k, v in result["metrics"].items()},
    }
    if cold:
        record["cold_build_s"] = cold
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trajectory", type=Path, default=STATE / "trajectory.jsonl")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: a few steps, one process per workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cold = warm_up()
    if cold:
        print("cold cache builds (untimed warm-up): "
              + ", ".join(f"{k} {v:.1f}s" for k, v in cold.items()), file=sys.stderr)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        append_trajectory(args.trajectory, result, cold)
        print_table(result)
        results.append(result)
    single = len(results) == 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (m if single else f"{r['workload']}/{m}"): {"value": v["value"], "unit": v["unit"]}
            for r in results for m, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
