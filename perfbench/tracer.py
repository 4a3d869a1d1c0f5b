"""Benchmark-owned span recorder: wraps layer entry points from outside.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the functions and methods named in :data:`LAYERS` with thin
wrappers that record one span per call — ``(name, start, end, parent
span index, job id)`` — into an in-memory list.  :func:`summarize`
turns the spans into per-layer self times and call counts; the
benchmark writes the raw spans out only when the run ends.

A target that no longer exists (renamed or deleted by a refactor) is
skipped and listed in ``Tracer.unbound`` so the per-layer table shows
which layers went unmeasured instead of silently reading zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import Counter
from time import perf_counter

#: Span name -> (module, attribute path) targets.  ``*`` as the class
#: part means "every loaded subclass of the named base that defines the
#: method itself", so overriding strategies and platforms are all
#: covered.  Private names appear only where the layer has no public
#: boundary (the per-pair table and tensor lookups inside
#: ``evaluate_batch``).
LAYERS: dict[str, list[tuple[str, str]]] = {
    "experiments.load_bundle": [("repro.experiments.common", "load_bundle")],
    "nasbench.enumerate": [("repro.nasbench.database", "enumerate_unique_cells")],
    "nasbench.database": [("repro.nasbench.database", "CellDatabase.from_specs")],
    "core.pareto_front": [
        ("repro.core.pareto", "product_space_pareto"),
        ("repro.core.pareto", "reward_ranked_points"),
    ],
    "core.build_study": [("repro.core.study", "build_study")],
    "rl.sample": [
        ("repro.rl.reinforce", "ReinforceTrainer.sample_batch"),
        ("repro.rl.reinforce", "ReinforceTrainer.sample"),
    ],
    "rl.update": [
        ("repro.rl.reinforce", "ReinforceTrainer.update_batch"),
        ("repro.rl.reinforce", "ReinforceTrainer.update"),
    ],
    "hw.surrogate_predict": [("repro.hw.surrogate", "RegressorStack.predict")],
    "hw.surrogate_latency": [
        ("repro.hw.surrogate", "SurrogatePlatform.batch_network_latency_s"),
        ("repro.hw.surrogate", "SurrogatePlatform.network_latency_s"),
    ],
    "search.two_tier_select": [("repro.search.two_tier", "TwoTierFilter.select")],
    "core.evaluate": [
        ("repro.core.evaluator", "CodesignEvaluator.evaluate_batch"),
        ("repro.core.evaluator", "CodesignEvaluator.evaluate"),
    ],
    "core.tensor_lookup": [("repro.core.evaluator", "CodesignEvaluator._tensor_metrics")],
    "hw.latency": [
        ("repro.hw.platform", "*HardwarePlatform.batch_network_latency_s"),
        ("repro.hw.platform", "*HardwarePlatform.network_latency_s"),
        ("repro.hw.tensorized", "TensorizedSpace.latency_row"),
        ("repro.core.evaluator", "CodesignEvaluator._latency_hashed"),
    ],
    "search.ask": [("repro.search.base", "*SearchStrategy.ask")],
    "search.tell": [("repro.search.base", "*SearchStrategy.tell")],
    "core.reward": [
        ("repro.core.reward", "RewardFunction.__call__"),
        ("repro.core.reward", "RewardFunction.reward_array"),
    ],
    "core.archive_record": [("repro.core.archive", "SearchArchive.record")],
    "parallel.checkpoint_save": [("repro.parallel.ledger", "LedgerCheckpoint.save")],
    "parallel.record_done": [("repro.parallel.ledger", "RunLedger.record_done")],
    "parallel.cache_get": [("repro.parallel.cache", "EvalCache.get")],
    "parallel.cache_put": [
        ("repro.parallel.cache", "EvalCache.put"),
        ("repro.parallel.cache", "EvalCache.put_many"),
    ],
    "parallel.cache_flush": [("repro.parallel.cache", "EvalCache.flush")],
}


def _count_pairs(counters, args, result):
    # evaluate_batch(self, pairs) or evaluate(self, spec, config)
    counters["core.evaluations"] += len(args[1]) if len(args) == 2 else 1


def _count_cache(counters, args, result):
    counters["parallel.cache_misses" if result is None else "parallel.cache_hits"] += 1


def _count_kept(counters, args, result):
    # select(self, proposals, k) -> kept indices
    counters["search.two_tier_ranked"] += len(args[1])
    counters["search.two_tier_kept"] += len(result)


#: Span name -> hook counting work items from a call's arguments/result.
_COUNTS = {
    "core.evaluate": _count_pairs,
    "parallel.cache_get": _count_cache,
    "search.two_tier_select": _count_kept,
}

#: Modules imported before wrapping, so every registered strategy and
#: platform subclass exists when ``*Base.method`` targets expand.
_PRELOAD = (
    "repro.experiments.common",
    "repro.core.study",
    "repro.search.registry",
    "repro.hw",
    "repro.hw.tensorized",
    "repro.parallel",
)


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Tracer:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.job = ""
        self.counters: Counter = Counter()
        self.unbound: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, name_of=None):
        """``fn`` recording one span per call (``name_of(args)`` may rename)."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            label = name
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if name_of is not None:
                    label = name_of(args)
                tracer.spans[index] = (label, start, end, parent, tracer.job)
            count = _COUNTS.get(label)
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- installation --------------------------------------------------
    def install(self) -> "Tracer":
        for module in _PRELOAD:
            importlib.import_module(module)
        from repro.hw.surrogate import SurrogatePlatform

        def evaluate_name(args):
            # The two-tier filter scores proposals through a surrogate
            # twin evaluator; keep that apart from exact evaluation.
            platform = getattr(args[0], "platform", None)
            if isinstance(platform, SurrogatePlatform):
                return "search.two_tier_score"
            return "core.evaluate"

        for name, targets in LAYERS.items():
            for module_name, path in targets:
                owners, attr = self._resolve(module_name, path)
                if not owners:
                    self.unbound.append(f"{module_name}:{path}")
                for owner in owners:
                    if name == "hw.latency" and issubclass(owner, SurrogatePlatform):
                        continue  # measured as hw.surrogate_latency
                    name_of = evaluate_name if name == "core.evaluate" else None
                    self._patch(owner, attr, name, name_of)
        return self

    def _resolve(self, module_name: str, path: str):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return [], path
        if "." not in path:
            return ([module] if hasattr(module, path) else []), path
        cls_name, attr = path.split(".", 1)
        expand = cls_name.startswith("*")
        cls = getattr(module, cls_name.lstrip("*"), None)
        if cls is None:
            return [], attr
        classes = _subclasses(cls) if expand else [cls]
        return [c for c in classes if attr in vars(c)], attr

    def _patch(self, owner, attr: str, name: str, name_of) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(name, raw.__func__, name_of))
        else:
            replacement = self.wrap(name, raw, name_of)
        setattr(owner, attr, replacement)
        if isinstance(owner, type):
            return
        # A module-level function is also bound wherever another module
        # imported it by name; rebind those references too.
        for module in list(sys.modules.values()):
            if (
                module is not owner
                and getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attr, None) is raw
            ):
                setattr(module, attr, replacement)


def summarize(spans, jobs=None) -> dict[str, dict]:
    """Per-span-name self time and call count.

    Self time is a span's duration minus the durations of its direct
    children (spans of one thread nest, so children never overlap).
    ``calls`` counts only spans not nested inside a span of the same
    name, so a wrapped method calling its wrapped super counts once.
    ``jobs`` (a predicate on the job id) selects which spans count.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict[str, dict] = {}
    for index, span in enumerate(spans):
        if span is None or (jobs is not None and not jobs(span[4])):
            continue
        name, start, end, parent, _job = span
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - child_time[index]
        if not _nested_in_same(spans, parent, name):
            entry["calls"] += 1
    return out


def _nested_in_same(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def covered_time(spans, jobs=None) -> float:
    """Wall time covered by top-level spans (the attributed part)."""
    return sum(
        s[2] - s[1]
        for s in spans
        if s is not None and s[3] < 0 and (jobs is None or jobs(s[4]))
    )
