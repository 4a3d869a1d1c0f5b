"""One fresh benchmark process: set up a workload, run it, report JSON.

Spawned by ``run.py`` (never imported by it), one process per set-up
sample, so ``setup_s`` always includes interpreter start, imports,
``build_study`` and the bundle load a CLI run or server runner pays.
The parent passes a JSON request as ``argv[1]`` and reads the JSON
result from the file named in it.

Modes:

* ``inproc`` -- build the study, then run passes ``first`` ..
  ``first + passes - 1`` (one repeat of the whole grid each, master
  seed derived from the benchmark seed and the pass index);
* ``setup``  -- only import and build the study (served set-up samples);
* ``served`` -- closed loop of one client against an in-process
  :class:`repro.server.StudyServer`;
* ``warmup`` -- build every on-disk cache the workloads read.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer, covered_time, summarize
from workloads import (
    WORKLOADS,
    Checks,
    build_spec,
    grid_best_reward,
    grid_digest,
    host_probe,
    study_seed,
    summary_digest,
)


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


def _check_pass(study, grid, steps: int, checks: Checks) -> None:
    """Every job told ``steps`` exact results; archived rewards re-score.

    The best and the last archived point of each job are evaluated
    again through the scalar ``evaluate`` path of a fresh evaluator
    clone and must match bit for bit.
    """
    jobs = {job.label: job for job in study.jobs}
    for label, outcome in grid.items():
        for result in outcome.results:
            entries = result.archive.entries
            checks.expect(
                len(entries) == steps,
                f"{label}: archived {len(entries)} steps, expected {steps}",
            )
            points = [e for e in (result.best, entries[-1] if entries else None) if e]
            evaluator = jobs[label].evaluator_factory()
            for entry in points:
                fresh = evaluator.evaluate(entry.spec, entry.config)
                checks.expect(
                    fresh.reward.value == entry.reward
                    and fresh.feasible == entry.feasible,
                    f"{label}: step {entry.step} archived reward {entry.reward!r} "
                    f"but re-scores to {fresh.reward.value!r}",
                )


def _first_probe() -> tuple[float, float]:
    """The probe a set-up starts with, and the time it took from set-up."""
    start = time.monotonic()
    probe = host_probe()
    return probe, time.monotonic() - start


def _lone_probe(checks: Checks) -> float:
    """A probe in a process that must run no thread of its own.

    A program thread running beside the probe would slow it and so
    flatter every scaled timing; that counts as a failed check.
    """
    checks.expect(threading.active_count() == 1,
                  f"{threading.active_count() - 1} program thread(s) ran during a host probe")
    return host_probe()


def run_inproc(req: dict) -> dict:
    """Set up, then run the passes; probe the host around each.

    ``probes[0]`` and ``probes[1]`` bracket the set-up, ``probes[i + 1]``
    and ``probes[i + 2]`` bracket pass ``i``.
    """
    workload, steps = req["workload"], req["steps"]
    first_probe, probe_cost = _first_probe()
    tracer = None
    if req["trace"]:
        tracer = Tracer().install()
        tracer.job = "setup"
    # Imported after install, so these names are the wrapped functions.
    from repro.core.study import build_study
    from repro.search.runner import run_grid

    spec = build_spec(workload, steps)
    study = build_study(spec)
    ready = time.monotonic()
    checks = Checks()
    probes = [first_probe, _lone_probe(checks)]
    passes = []
    for index in range(req["first"], req["first"] + req["passes"]):
        master_seed = study_seed(workload, req["seed"], index)
        if tracer is not None:
            tracer.job = f"pass:{index}"
        t0 = time.perf_counter()
        grid = run_grid(
            study.jobs,
            num_steps=study.num_steps,
            num_repeats=1,
            master_seed=master_seed,
            batch_size=spec.execution.batch_size,
        )
        wall = time.perf_counter() - t0
        probes.append(_lone_probe(checks))
        if tracer is not None:
            tracer.job = "check"
        evals = sum(len(r.archive) for o in grid.values() for r in o.results)
        record = {
            "index": index,
            "wall": wall,
            "evals": evals,
            "digest": grid_digest(grid),
            "best": grid_best_reward(grid),
            "jobs": len(grid),
        }
        if tracer is not None:
            valid = sum(1 for o in grid.values() for r in o.results for e in r.archive.entries if e.valid)
            distinct = sum(r.archive.distinct_pairs() for o in grid.values() for r in o.results)
            record["distinct_frac"] = distinct / max(valid, 1)
        if index == req["first"]:
            # Re-scoring calls the wrapped evaluator; keep it out of the counts.
            counts = dict(tracer.counters) if tracer is not None else None
            _check_pass(study, grid, study.num_steps, checks)
            if tracer is not None:
                tracer.counters.clear()
                tracer.counters.update(counts)
        passes.append(record)
    out = {
        "ready": ready,
        "probe_cost": probe_cost,
        "probes": probes,
        "passes": passes,
        "rss_mb": _rss_mb(),
        "checks": checks.attempted,
        "failures": checks.failures,
    }
    if tracer is not None:
        out["setup_layers"] = summarize(tracer.spans, lambda job: job == "setup")
        out["layers"] = summarize(tracer.spans, lambda job: job.startswith("pass:"))
        out["counters"] = dict(tracer.counters)
        out["unbound"] = tracer.unbound
        out["covered"] = covered_time(tracer.spans, lambda job: job.startswith("pass:"))
        if req.get("spans_out"):
            _write_spans(req["spans_out"], tracer)
    return out


def _write_spans(path: str, tracer) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"],
                   "spans": tracer.spans, "unbound": tracer.unbound}, fh)


def run_setup(req: dict) -> dict:
    first_probe, probe_cost = _first_probe()
    from repro.core.study import build_study

    build_study(build_spec(req["workload"], req["steps"]))
    ready = time.monotonic()
    return {"ready": ready, "probe_cost": probe_cost, "probes": [first_probe, host_probe()]}


# ---------------------------------------------------------------------------
# Served workload
# ---------------------------------------------------------------------------

def _since(row, start: str, end: str) -> float:
    if row is None or row[start] is None or row[end] is None:
        return float("nan")
    return row[end] - row[start]


def _serve_loop(req, state_dir: Path, traced: bool) -> list[dict]:
    """Closed loop of one client: submit, wait on /events, repeat.

    Runs ``req["passes"]`` studies.  A study still running at the
    per-study deadline is cancelled, which ends its event stream.

    The queue worker notices a finished runner only on its next
    heartbeat, so a study submitted the moment the last one ends would
    wait out that heartbeat and its latency would track the heartbeat
    period instead of the runner.  An untimed pause of one heartbeat
    plus one claim poll before each submit lets every study start on
    an idle worker.  The host is probed just before each submit and just
    after the terminal state, while the server's threads wait in their
    polls; a study's ``probe`` is the mean of the two.
    """
    from repro.parallel.ledger import RunLedger
    from repro.server import StudyClient, StudyServer

    imports = ("runner_trace",) if traced else ()
    server = StudyServer(state_dir, port=0, workers=1, quiet=True, imports=imports)
    server.start()
    studies = []
    try:
        client = StudyClient(server.url, timeout=30.0)
        queue = RunLedger(server.queue.queue_path)
        idle_after = server.queue.heartbeat_every + server.queue.poll_every
        for index in range(req["passes"]):
            if index:
                time.sleep(idle_after)
            spec = build_spec(req["workload"], req["steps"],
                              study_seed(req["workload"], req["seed"], index))
            before = host_probe()
            submitted = time.time()
            study_id = client.submit(spec.to_dict())["id"]
            submit_s = time.time() - submitted
            watchdog = threading.Timer(req["study_timeout"], client.cancel, [study_id])
            watchdog.start()
            final = None
            try:
                for doc in client.events(study_id):
                    final = doc
            finally:
                watchdog.cancel()
            seen = time.time()
            after = host_probe()
            row = queue.study(study_id)
            result = (row or {}).get("result") or {}
            studies.append({
                "index": index,
                "state": row["state"] if row else None,
                "latency": seen - submitted,
                "submit_s": submit_s,
                "queue_wait": _since(row, "submitted_at", "started_at"),
                "runner": _since(row, "started_at", "finished_at"),
                "notify_lag": seen - row["finished_at"] if row and row["finished_at"] else float("nan"),
                "outcomes": result.get("outcomes"),
                "stream_state": final["state"] if final else None,
                "probe": (before + after) / 2,
            })
        queue.close()
    finally:
        server.stop()
    return studies


def _runner_layers(trace_dir: Path) -> tuple[dict, dict]:
    """Merge the per-runner span summaries the trace plugin wrote."""
    merged: dict[str, dict] = {}
    walls = {}
    for path in sorted(trace_dir.glob("*.json")):
        data = json.loads(path.read_text())
        walls[data["study_id"]] = (data["wall"], data["covered"])
        for name, entry in data["layers"].items():
            into = merged.setdefault(name, {"self_s": 0.0, "calls": 0})
            for key in into:
                into[key] += entry[key]
    return merged, walls


def run_served(req: dict) -> dict:
    from repro.core.study import outcome_summary, run_study

    workload = req["workload"]
    # The client's host probes must see the CPU the runners run on, so
    # the server, its threads and its runner children share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path(req["state_root"])
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    checks = Checks()
    try:
        studies = _serve_loop(req, root / "untraced", traced=False)
        # Before the traced loop and the reference runs below, so the
        # peak is the server's and its runners' alone.
        rss_mb = _rss_mb() + _rss_mb(resource.RUSAGE_CHILDREN)
        traced_studies, runner_layers, walls, tracer = None, {}, {}, None
        if req["trace"]:
            trace_dir = root / "runner-traces"
            trace_dir.mkdir()
            os.environ["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            # Traced too, so runner_overhead_s compares like with like.
            tracer = Tracer().install()
            tracer.job = "ref"
            traced_studies = _serve_loop(req, root / "traced", traced=True)
            runner_layers, walls = _runner_layers(trace_dir)
        # Reference: the same specs run in-process, with a ledger and a
        # shared eval cache like the server's runner uses.
        for study in studies:
            spec = build_spec(workload, req["steps"],
                              study_seed(workload, req["seed"], study["index"]))
            t0 = time.perf_counter()
            result = run_study(
                spec,
                eval_cache=str(root / "reference-cache.sqlite"),
                ledger=str(root / f"reference-{study['index']}.ledger"),
            )
            study["inproc_s"] = time.perf_counter() - t0
            # The served outcomes must equal this run's, so its archives
            # also give the served study's evaluation counts.
            archives = [r.archive for by_strategy in result.outcomes.values()
                        for outcome in by_strategy.values() for r in outcome.results]
            study["evals"] = sum(len(a) for a in archives)
            valid = sum(1 for a in archives for e in a.entries if e.valid)
            study["distinct_frac"] = sum(a.distinct_pairs() for a in archives) / max(valid, 1)
            expected = json.loads(json.dumps(outcome_summary(result)))
            checks.expect(study["state"] == "done" and study["stream_state"] == "done",
                          f"served study {study['index']} ended {study['state']!r}")
            checks.expect(study["outcomes"] == expected,
                          f"served study {study['index']} outcomes differ from an "
                          "in-process run of the same spec")
            study["digest"] = summary_digest(study["outcomes"])
            study["best"] = [
                v["mean_best_reward"]
                for by_strategy in (study["outcomes"] or {}).values()
                for v in by_strategy.values()
                if v["mean_best_reward"] is not None
            ]
        if traced_studies is not None:
            for plain, traced in zip(studies, traced_studies):
                checks.expect(traced["outcomes"] == plain["outcomes"],
                              f"traced served study {plain['index']} outcomes differ "
                              "from the untraced run")
                traced.update(inproc_s=plain["inproc_s"], evals=plain["evals"],
                              distinct_frac=plain["distinct_frac"])
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for study in studies + (traced_studies or []):
        study.pop("outcomes", None)
    out = {
        "studies": studies,
        "rss_mb": rss_mb,
        "checks": checks.attempted,
        "failures": checks.failures,
    }
    if traced_studies is not None:
        out["traced_studies"] = traced_studies
        out["layers"] = runner_layers
        out["runner_walls"] = walls
        out["unbound"] = tracer.unbound
    return out


# ---------------------------------------------------------------------------
# Warm-up
# ---------------------------------------------------------------------------

def run_warmup(req: dict) -> dict:
    """Build the bundle, tensor and surrogate caches; time each cold build."""
    from repro.core.study import build_study
    from repro.search.runner import run_grid

    times = {}
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        spec = build_spec(workload, 2)
        study = build_study(spec)
        run_grid(study.jobs, num_steps=2, num_repeats=1,
                 batch_size=spec.execution.batch_size)
        times[workload] = time.perf_counter() - t0
    return {"cold_build_s": times}


MODES = {"inproc": run_inproc, "setup": run_setup, "served": run_served,
         "warmup": run_warmup}


def main() -> int:
    req = json.loads(sys.argv[1])
    out = MODES[req["mode"]](req)
    tmp = req["out"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh)
    os.replace(tmp, req["out"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
