"""The evaluation function ``E(s)`` (paper Fig. 1's Evaluator).

Given a proposed (cell, accelerator) pair the evaluator:

1. rejects invalid cells (the controller's raw tokens may decode to a
   disconnected or over-budget graph) — these earn the punishment;
2. reads the cell's accuracy from its accuracy source — a
   :class:`repro.nasbench.CellDatabase` (the NASBench-style flow of
   Section III), any callable such as a surrogate or real trainer
   (the CIFAR-100 flow of Section IV);
3. compiles the cell and asks its :class:`repro.hw.HardwarePlatform`
   for latency and area — both memoized, since searches revisit
   configurations frequently;
4. maps the metric vector through the scenario's reward function.

The hardware side is a swappable backend: the evaluator never
constructs area/latency models itself, it queries whatever platform it
was given (default: the registered ``dac2020`` reference platform,
bit-identical to the historical hardwired models — see
:mod:`repro.hw`).

Every pair takes one keyed pipeline: the cell's ``spec_hash``
(through a bounded content-hash memo), the configuration's key (its
flat index in a tensorized space, else its ``config_key``), then the
metrics from the evaluator's one metric source.  Latency comes from the
bundle latency table when the cell has a row, else from the
:class:`repro.hw.TensorizedSpace` arrays when ``tensorize`` is set and
the space is enumerable, else from memoized platform calls.  An
optional shared persistent :class:`repro.parallel.EvalCache` sits in
front of the platform source (so repeats, worker processes, and
re-runs warm-start each other); the tensor source never touches it.
Every memo is bounded and stores a pure function of its key, so caching
never changes results — only evaluation cost.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.lut import config_key
from repro.core.metrics import Metrics
from repro.hw import Dac2020Platform, HardwarePlatform
from repro.core.reward import RewardConfig, RewardFunction, RewardResult
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.database import CellDatabase
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.skeleton import CIFAR10_SKELETON, SkeletonConfig
from repro.nasbench.surrogate import Cifar10Surrogate
from repro.parallel.cache import CacheEntry, EvalCache
from repro.utils.lru import LRUCache

__all__ = [
    "EvaluationResult",
    "CodesignEvaluator",
    "AccuracySourceError",
    "register_accuracy_source",
    "get_accuracy_source",
    "list_accuracy_sources",
    "build_evaluator",
    "accuracy_source_namespace",
    "hardware_namespace",
    "platform_matches_bundle",
    "DEFAULT_CACHE_CAPACITY",
]

#: Default bound on each of the evaluator's in-memory memos.
DEFAULT_CACHE_CAPACITY = 100_000

#: Accuracy source signature: percent accuracy, or ``None`` for
#: "this cell is outside the evaluable space" (punished like invalid).
AccuracyFn = Callable[[ModelSpec], "float | None"]


@dataclass(frozen=True)
class EvaluationResult:
    """Everything the search loop needs about one evaluated point."""

    spec: ModelSpec
    config: AcceleratorConfig
    metrics: Metrics | None
    reward: RewardResult

    @property
    def feasible(self) -> bool:
        return self.reward.feasible

    @property
    def valid(self) -> bool:
        return self.reward.valid


class _Memos:
    """Every memo and precomputed metric array behind an evaluator.

    Clones reference this object instead of copying fields:
    :meth:`CodesignEvaluator.with_reward` shares it whole, and
    :meth:`CodesignEvaluator.with_platform` takes :meth:`for_platform`,
    which keeps only the platform-independent cell memos.
    """

    def __init__(self, capacity: int, cells: tuple | None = None) -> None:
        self.capacity = capacity
        # Pruned-cell content -> spec_hash (the md5 canonicalization
        # dominates per-point cost) and spec_hash -> accuracy.
        self.spec_hash, self.accuracy = cells or (LRUCache(capacity), {})
        self.area = LRUCache(capacity)  # config_key -> mm^2
        self.latency = LRUCache(capacity)  # (spec_hash, config_key) -> s
        self.column = LRUCache(capacity)  # config_key -> table column
        self.table = None  # (latency_ms, row_of_hash, space)
        self.tensor = None  # TensorizedSpace; False once found too large

    def for_platform(self) -> "_Memos":
        return _Memos(self.capacity, (self.spec_hash, self.accuracy))


class CodesignEvaluator:
    """Memoized ``E(s)`` over a fixed accuracy source and HW platform."""

    def __init__(
        self,
        accuracy_fn: AccuracyFn,
        reward_config: RewardConfig,
        skeleton: SkeletonConfig = CIFAR10_SKELETON,
        platform: HardwarePlatform | None = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        tensorize: bool = False,
    ) -> None:
        # No platform means the reference dac2020 platform,
        # bit-identical to the historic hardwired models.
        self.platform = platform if platform is not None else Dac2020Platform()
        self.accuracy_fn = accuracy_fn
        self.reward_fn = RewardFunction(reward_config)
        self.skeleton = skeleton
        # Spec -> IR lowering.  The default compiles NASBench cells
        # onto the CNN skeleton; workload recipes (repro.workloads)
        # install their own — e.g. the transformer workload's GEMM
        # lowering.  Same (spec, skeleton) signature either way.
        self.compile_fn = compile_cell_ops
        self._memos = _Memos(cache_capacity)
        # (spec_hash, flat index) -> (metrics, reward) on the tensor
        # source.  It folds the reward in, so it is never shared.
        self._results: LRUCache = LRUCache(cache_capacity)
        self.eval_cache: EvalCache | None = None
        self.cache_scenario = reward_config.name
        self.num_evaluations = 0
        # Tensorized full-space metric source (see repro.hw.tensorized),
        # built lazily on first use when the platform's space is
        # enumerable, so evaluators that never evaluate pay nothing.
        self.tensorize = bool(tensorize)
        # Registered accuracy-source builders stash their side objects
        # here (e.g. the CIFAR-100 trainer behind ``accuracy_fn``), so
        # callers can reach cost ledgers without private plumbing.
        self.source_info: dict = {}

    def attach_eval_cache(
        self, cache: EvalCache | None, scenario: str | None = None
    ) -> "CodesignEvaluator":
        """Consult (and fill) a shared persistent cache during metrics.

        ``scenario`` namespaces the cache rows; it defaults to the
        reward config's name.  Callers whose accuracy source is not
        fully determined by the scenario (e.g. a surrogate with a
        custom seed) should pass a namespace that includes it.
        """
        self.eval_cache = cache
        if scenario is not None:
            self.cache_scenario = scenario
        return self

    def attach_latency_table(self, latency_ms, row_of_hash, space) -> None:
        """Serve latencies from a precomputed (cell x config) matrix.

        ``latency_ms`` is (num_cells, space.size); ``row_of_hash`` maps
        spec hashes to rows.  Pairs outside the table fall back to the
        next metric source, so attaching a table never changes results
        — only speed (see ``tests/accelerator/test_scheduler.py``).

        The table's configuration space must match the active
        platform's ``config_space()`` exactly: a table enumerated over
        a different space would silently serve wrong latencies (the
        column lookup is positional), so a mismatch refuses loudly.
        """
        table_params = {k: tuple(v) for k, v in space.parameters.items()}
        platform_params = {
            k: tuple(v)
            for k, v in self.platform.config_space().parameters.items()
        }
        if table_params != platform_params:
            differing = sorted(
                name
                for name in set(table_params) | set(platform_params)
                if table_params.get(name) != platform_params.get(name)
            )
            raise ValueError(
                f"latency table's config space does not match platform "
                f"{self.platform.name!r}: parameter(s) {differing} differ "
                "— build the table against this platform's config_space()"
            )
        if latency_ms.shape[1] != space.size:
            raise ValueError(
                f"latency table has {latency_ms.shape[1]} columns but the "
                f"config space enumerates {space.size} configurations"
            )
        self._memos.table = (latency_ms, dict(row_of_hash), space)

    def attach_tensorized(self, tensor) -> "CodesignEvaluator":
        """Serve metrics from a prebuilt :class:`TensorizedSpace`.

        Normally the evaluator builds (or reuses the process-wide memo
        of) the tensor itself when ``tensorize`` is set; attaching
        explicitly exists for callers that need a specific instance —
        a custom cache directory in tests, or a tensor shared across
        evaluators.  The tensor must have been enumerated for this
        evaluator's platform: matching is by ``cache_namespace()``, the
        identity that pins every result-affecting parameter, because a
        tensor from a different platform would silently serve wrong
        metrics.
        """
        if tensor.platform.cache_namespace() != self.platform.cache_namespace():
            raise ValueError(
                f"tensorized space was enumerated for platform namespace "
                f"{tensor.platform.cache_namespace()!r} but this evaluator "
                f"runs {self.platform.cache_namespace()!r} — build the "
                "tensor from this evaluator's platform"
            )
        self._memos.tensor = tensor
        self.tensorize = True
        return self

    def _tensor(self):
        """The tensor metric source, or ``None`` for platform calls."""
        if not self.tensorize:
            return None
        memos = self._memos
        if memos.tensor is None:
            from repro.hw.tensorized import enumerable, tensorized_space

            # Cache a "too large" verdict as False: falling back must
            # not re-ask the platform for its space size on every call.
            memos.tensor = enumerable(self.platform) and tensorized_space(
                self.platform, self.skeleton
            )
        return memos.tensor or None

    # --- constructors -----------------------------------------------------
    @classmethod
    def from_database(
        cls, database: CellDatabase, reward_config: RewardConfig, **kwargs
    ) -> "CodesignEvaluator":
        """NASBench-style evaluator: only database cells are evaluable.

        Cells outside the database receive ``None`` accuracy and are
        punished — this keeps search and Pareto enumeration over
        exactly the same space (the database is exhaustive for the
        micro space, so in that configuration nothing is ever missed).
        """

        def accuracy_fn(spec: ModelSpec) -> float | None:
            record = database.get(spec)
            return None if record is None else record.validation_accuracy

        return cls(accuracy_fn, reward_config, **kwargs)

    @classmethod
    def from_surrogate(
        cls,
        reward_config: RewardConfig,
        surrogate: Cifar10Surrogate | None = None,
        **kwargs,
    ) -> "CodesignEvaluator":
        """Open-space evaluator: any valid cell is evaluable."""
        surrogate = surrogate or Cifar10Surrogate()
        return cls(surrogate.validation_accuracy, reward_config, **kwargs)

    # --- the keyed pipeline -------------------------------------------------
    def _spec_hash(self, spec: ModelSpec) -> str:
        memo = self._memos.spec_hash
        content = (spec.matrix.tobytes(), tuple(spec.ops))
        spec_hash = memo.get(content)
        if spec_hash is None:
            spec_hash = memo[content] = spec.spec_hash()
        return spec_hash

    def _key(self, spec: ModelSpec, config: AcceleratorConfig, tensor) -> tuple:
        """``(spec_hash, config key)``: the key every memo is read by.

        The config key is the flat index on the tensor source and
        ``config_key(config)`` otherwise.
        """
        if tensor is None:
            return self._spec_hash(spec), config_key(config)
        return self._spec_hash(spec), tensor.index_of(config)

    def _result(
        self, spec, config, key, tensor
    ) -> tuple[Metrics | None, RewardResult]:
        """``(metrics, reward)`` of a pair (``key`` None: invalid cell)."""
        if tensor is None:
            metrics = self._cached_metrics(spec, config, key)
            return metrics, self.reward_fn(metrics)
        found = self._results.get(key)
        if found is None:
            metrics = self._metrics(spec, config, key, tensor)
            found = self._results[key] = (metrics, self.reward_fn(metrics))
        return found

    def _cached_metrics(self, spec, config, key) -> Metrics | None:
        """Platform-source metrics behind the persistent eval cache."""
        cache = self.eval_cache
        if cache is None or key is None:
            return self._metrics(spec, config, key, None)
        cache_key = (self.cache_scenario, key[0], str(key[1]))
        hit = cache.get(*cache_key)
        if hit is not None:
            if hit.accuracy is None:
                return None
            return Metrics(
                accuracy=hit.accuracy, latency_s=hit.latency_s, area_mm2=hit.area_mm2
            )
        metrics = self._metrics(spec, config, key, None)
        if metrics is None:
            cache.put(CacheEntry(*cache_key, None, None, None))
        else:
            cache.put(
                CacheEntry(
                    *cache_key, metrics.accuracy, metrics.latency_s, metrics.area_mm2
                )
            )
        return metrics

    def _metrics(self, spec, config, key, tensor) -> Metrics | None:
        """Accuracy, then configuration validity, then latency and area."""
        if key is None:
            return None
        accuracy = self._accuracy(spec, key[0])
        if accuracy is None:
            return None
        if tensor is None:
            if not self.platform.config_valid(config):
                return None
        elif not tensor.valid[key[1]]:
            return None
        return Metrics(
            accuracy=accuracy,
            latency_s=self._latency(spec, config, key, tensor),
            area_mm2=self._area(config, key[1], tensor),
        )

    def _accuracy(self, spec: ModelSpec, spec_hash: str) -> float | None:
        accuracies = self._memos.accuracy
        if spec_hash not in accuracies:
            accuracies[spec_hash] = self.accuracy_fn(spec)
        return accuracies[spec_hash]

    def _latency(self, spec, config, key, tensor) -> float:
        memos = self._memos
        spec_hash, ckey = key
        if memos.table is not None:
            latency_ms, row_of_hash, space = memos.table
            row = row_of_hash.get(spec_hash)
            if row is not None:
                # The table's space is validated against the platform's
                # at attach time, so a tensor's flat index is its column.
                column = ckey
                if tensor is None:
                    column = memos.column.get(ckey)
                    if column is None:
                        column = memos.column[ckey] = space.index_of(config)
                return float(latency_ms[row, column]) / 1e3
        if tensor is not None:
            ir_factory = lambda: self.compile_fn(spec, self.skeleton)  # noqa: E731
            return float(tensor.latency_row(spec_hash, ir_factory)[ckey])
        latency = memos.latency.get(key)
        if latency is None:
            ir = self.compile_fn(spec, self.skeleton)
            latency = memos.latency[key] = self.platform.network_latency_s(ir, config)
        return latency

    def _area(self, config, ckey, tensor) -> float:
        if tensor is not None:
            return float(tensor.area_mm2[ckey])
        areas = self._memos.area
        area = areas.get(ckey)
        if area is None:
            area = areas[ckey] = self.platform.area_mm2(config)
        return area

    # --- pieces -------------------------------------------------------------
    def accuracy(self, spec: ModelSpec) -> float | None:
        if not spec.valid:
            return None
        return self._accuracy(spec, self._spec_hash(spec))

    def area_mm2(self, config: AcceleratorConfig) -> float:
        tensor = self._tensor()
        ckey = config_key(config) if tensor is None else tensor.index_of(config)
        return self._area(config, ckey, tensor)

    def latency_s(self, spec: ModelSpec, config: AcceleratorConfig) -> float:
        tensor = self._tensor()
        return self._latency(spec, config, self._key(spec, config, tensor), tensor)

    def metrics(self, spec: ModelSpec, config: AcceleratorConfig) -> Metrics | None:
        """Metric vector of a pair, or ``None`` if not evaluable."""
        tensor = self._tensor()
        key = self._key(spec, config, tensor) if spec.valid else None
        return self._result(spec, config, key, tensor)[0]

    # --- E(s) ---------------------------------------------------------------
    def evaluate(self, spec: ModelSpec, config: AcceleratorConfig) -> EvaluationResult:
        """Full evaluation: metrics + scenario reward (a one-pair batch)."""
        return self.evaluate_batch(((spec, config),))[0]

    def evaluate_batch(
        self, pairs: Sequence[tuple[ModelSpec, AcceleratorConfig]]
    ) -> list[EvaluationResult]:
        """Evaluate many pairs, computing each distinct pair once.

        Returns one result per input pair, in order; duplicate pairs
        share one computation but still count as evaluations.  A
        repeated ``(spec, config)`` pair of the same objects shares one
        result object; an isomorphic cell or an equal configuration
        gets its own result around the caller's objects, with the same
        metrics and reward.

        Every pair takes the same keyed pipeline (module docstring), so
        results are bit-identical whatever the batch size and whichever
        metric source answers: the tensor's elements *are* the
        platform's batch outputs, which the platform contract pins to
        the scalar calls bit for bit, and the reward is the same scalar
        :class:`RewardFunction` applied once per distinct point.
        """
        tensor = self._tensor()
        self.num_evaluations += len(pairs)
        batch: dict = {}
        out: list[EvaluationResult] = []
        for spec, config in pairs:
            key = self._key(spec, config, tensor) if spec.valid else None
            result = batch.get(key)
            if result is None:
                metrics, reward = self._result(spec, config, key, tensor)
                result = batch[key] = EvaluationResult(spec, config, metrics, reward)
            elif result.spec is not spec or result.config is not config:
                result = EvaluationResult(spec, config, result.metrics, result.reward)
            out.append(result)
        return out

    def with_reward(self, reward_config: RewardConfig) -> "CodesignEvaluator":
        """Same memos and platform under a different scenario.

        Used by the threshold-schedule search (Section IV), which
        raises the perf/area constraint mid-run without discarding the
        latency/area memoization.  The clone keeps the parent's eval
        cache namespace, so rung changes reuse warm rows.
        """
        clone = copy.copy(self)
        clone.reward_fn = RewardFunction(reward_config)
        clone._results = LRUCache(self._memos.capacity)
        clone.num_evaluations = 0
        return clone

    def with_platform(self, platform: HardwarePlatform) -> "CodesignEvaluator":
        """Same accuracy source and scenario on a different platform.

        Used by the two-tier search mode, which scores proposals on a
        :class:`repro.hw.SurrogatePlatform` twin of the exact platform:
        the accuracy function, its memo, and the content-hash memo are
        shared (cell accuracy is platform-independent — re-deriving it
        would re-train trainer-backed sources), but every
        hardware-derived memo starts empty, the precomputed latency
        table and tensor are dropped, and no persistent eval cache is
        attached — approximate metrics must never reach (or be served
        from) the exact platform's cached rows.
        """
        clone = self.with_reward(self.reward_fn.config)
        clone.platform = platform
        clone._memos = self._memos.for_platform()
        clone.eval_cache = None
        clone.tensorize = False
        return clone


# ---------------------------------------------------------------------------
# Accuracy-source registry
# ---------------------------------------------------------------------------
#
# A *source* is a named recipe for the evaluator's accuracy function
# (and skeleton): the piece of ``E(s)`` that is not determined by the
# reward scenario.  Registering sources by name makes evaluators
# constructible from plain JSON — the declarative
# :class:`repro.core.study.StudySpec` path names one (``"database"`` /
# ``"surrogate"`` / ``"cifar100-trainer"``) plus a flat params mapping
# and gets back a fully armed :class:`CodesignEvaluator`.
#
# Builder signature::
#
#     build(reward_config, params, *, bundle=None, store=None,
#           platform=None) -> CodesignEvaluator
#
# ``bundle`` is the enumerated-space bundle for table-backed sources
# (duck-typed; see ``repro.experiments.common.SpaceBundle``);
# ``store`` is an optional :class:`repro.parallel.EvalCache` a training
# source may persist per-cell outcomes into; ``platform`` is the
# :class:`repro.hw.HardwarePlatform` the evaluator should query
# (default: the reference ``dac2020``).  ``namespace`` maps the
# same params to the shared-eval-cache namespace, pinning every
# outcome-affecting parameter so differently configured sources never
# share cached rows; compose it with :func:`hardware_namespace` to pin
# the platform as well.

class AccuracySourceError(ValueError):
    """An accuracy-source name or its params could not be resolved."""


@dataclass(frozen=True)
class AccuracySource:
    """One registered accuracy-source recipe."""

    name: str
    build: Callable[..., "CodesignEvaluator"]
    namespace: Callable[..., str]
    requires_bundle: bool = False


_ACCURACY_SOURCES: dict[str, AccuracySource] = {}


def _params_token(params: dict | None) -> str:
    """A short stable digest of a params mapping ('' when empty).

    Appended to cache namespaces so that *any* parameter difference —
    not just the ones a hand-written namespace spells out — keeps two
    configurations from sharing cached rows.
    """
    import hashlib
    import json

    if not params:
        return ""
    def jsonable(value):
        if hasattr(value, "__dataclass_fields__"):
            from dataclasses import asdict

            return asdict(value)
        return value

    blob = json.dumps(
        {k: jsonable(v) for k, v in params.items()},
        sort_keys=True,
        default=str,
    )
    return "/p" + hashlib.md5(blob.encode()).hexdigest()[:10]


def _skeleton_token(params: dict | None) -> str:
    """Namespace suffix pinning the 'skeleton' param (latency-affecting)."""
    return _params_token(
        {"skeleton": params["skeleton"]} if params and params.get("skeleton") else None
    )


def register_accuracy_source(
    name: str,
    build: Callable[..., "CodesignEvaluator"],
    namespace: Callable[..., str] | None = None,
    requires_bundle: bool = False,
    overwrite: bool = False,
) -> AccuracySource:
    """Register an accuracy source under ``name``.

    Without an explicit ``namespace`` function the source's cache
    namespace is ``study/<name>`` plus a digest of the full params
    mapping, so differently parameterized instances never share rows.
    """
    if name in _ACCURACY_SOURCES and not overwrite:
        raise AccuracySourceError(
            f"accuracy source {name!r} is already registered"
        )
    source = AccuracySource(
        name=name,
        build=build,
        namespace=namespace
        or (lambda params, bundle=None: f"study/{name}{_params_token(params)}"),
        requires_bundle=requires_bundle,
    )
    _ACCURACY_SOURCES[name] = source
    return source


def list_accuracy_sources() -> list[str]:
    """Registered accuracy-source names, sorted."""
    return sorted(_ACCURACY_SOURCES)


def get_accuracy_source(name: str) -> AccuracySource:
    if name not in _ACCURACY_SOURCES:
        raise AccuracySourceError(
            f"unknown accuracy source {name!r}; registered: "
            f"{', '.join(list_accuracy_sources())}"
        )
    return _ACCURACY_SOURCES[name]


def _check_params(source: str, params: dict | None, allowed: tuple[str, ...]) -> dict:
    if params is not None and not isinstance(params, dict):
        raise AccuracySourceError(
            f"accuracy source {source!r}: params must be a mapping, "
            f"got {type(params).__name__}"
        )
    params = dict(params or {})
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise AccuracySourceError(
            f"accuracy source {source!r} got unknown parameter(s) {unknown}; "
            f"allowed: {sorted(allowed)}"
        )
    return params


def _skeleton_from(params: dict, default: SkeletonConfig) -> SkeletonConfig:
    skeleton = params.pop("skeleton", None)
    if skeleton is None:
        return default
    if isinstance(skeleton, SkeletonConfig):
        return skeleton
    if not isinstance(skeleton, dict):
        raise AccuracySourceError(
            f"'skeleton' must be a mapping of SkeletonConfig fields, "
            f"got {type(skeleton).__name__}"
        )
    try:
        return SkeletonConfig(**skeleton)
    except (TypeError, ValueError) as err:
        raise AccuracySourceError(f"bad 'skeleton' params: {err}") from err


def build_evaluator(
    source: str,
    reward_config: RewardConfig,
    params: dict | None = None,
    bundle=None,
    store: EvalCache | None = None,
    platform: HardwarePlatform | None = None,
    tensorize: bool = False,
) -> "CodesignEvaluator":
    """Construct an evaluator from a registered accuracy source.

    ``platform`` selects the hardware backend (see :mod:`repro.hw`);
    ``None`` keeps the reference ``dac2020`` behaviour.  ``tensorize``
    arms the full-space fast path for batch evaluation (a no-op when
    the platform's space is too large to enumerate); it is applied
    after the source builds, so registered builders need not know
    about it.
    """
    entry = get_accuracy_source(source)
    if entry.requires_bundle and bundle is None:
        raise AccuracySourceError(
            f"accuracy source {source!r} needs an enumerated-space bundle "
            "(pass bundle=..., e.g. repro.experiments.common.load_bundle())"
        )
    evaluator = entry.build(
        reward_config, params, bundle=bundle, store=store, platform=platform
    )
    if tensorize:
        evaluator.tensorize = True
    return evaluator


def accuracy_source_namespace(
    source: str, params: dict | None = None, bundle=None
) -> str:
    """Shared-eval-cache namespace pinning the source's parameters."""
    return get_accuracy_source(source).namespace(params or {}, bundle=bundle)


def platform_matches_bundle(
    platform: HardwarePlatform, bundle_platform: HardwarePlatform | None
) -> bool:
    """Whether a bundle's precomputed arrays are valid for ``platform``.

    Bundles predating the platform API carry no platform and were
    enumerated by the reference models; newer bundles pin the platform
    that built them.  Matching is by ``cache_namespace()`` — the
    identity that pins every result-affecting parameter — so two
    equivalent instances (e.g. both built from the same registry
    params) match without having to be the same object.
    """
    if bundle_platform is None:
        return platform.is_reference
    return platform.cache_namespace() == bundle_platform.cache_namespace()


def hardware_namespace(namespace: str, platform: HardwarePlatform | None) -> str:
    """``namespace`` with the platform identity pinned.

    The reference ``dac2020`` platform adds nothing, so every cache and
    ledger row written before the platform API existed stays valid; any
    other platform appends its ``cache_namespace()`` so differently
    modelled hardware never shares rows.
    """
    if platform is None or platform.is_reference:
        return namespace
    return f"{namespace}@{platform.cache_namespace()}"


def _build_database(reward_config, params, bundle=None, store=None, platform=None):
    params = _check_params("database", params, ("skeleton",))
    skeleton = _skeleton_from(params, CIFAR10_SKELETON)
    evaluator = CodesignEvaluator.from_database(
        bundle.database, reward_config, skeleton=skeleton, platform=platform
    )
    # The bundle's precomputed latency matrix is only valid for the
    # platform that enumerated it; any other platform schedules on the
    # fly through its own models instead.
    if platform_matches_bundle(
        evaluator.platform, getattr(bundle, "platform", None)
    ):
        evaluator.attach_latency_table(
            bundle.latency_ms, bundle.row_of_hash(), bundle.space
        )
    evaluator.source_info = {"source": "database"}
    return evaluator


def _database_namespace(params, bundle=None):
    base = (
        "study/database"
        if bundle is None
        else f"study/micro{bundle.cell_encoding.max_vertices}"
    )
    return base + _skeleton_token(params)


_SURROGATE_FIELDS = ("seed", "noise_std", "ceiling", "floor")


def _build_surrogate(reward_config, params, bundle=None, store=None, platform=None):
    params = _check_params("surrogate", params, _SURROGATE_FIELDS + ("skeleton",))
    skeleton = _skeleton_from(params, CIFAR10_SKELETON)
    try:
        surrogate = Cifar10Surrogate(**params)
    except (TypeError, ValueError) as err:
        raise AccuracySourceError(
            f"accuracy source 'surrogate': bad params {params!r}: {err}"
        ) from err
    evaluator = CodesignEvaluator.from_surrogate(
        reward_config, surrogate=surrogate, skeleton=skeleton, platform=platform
    )
    evaluator.source_info = {"source": "surrogate", "surrogate": surrogate}
    return evaluator


def _surrogate_namespace(params, bundle=None):
    surrogate = Cifar10Surrogate(
        **{k: v for k, v in (params or {}).items() if k in _SURROGATE_FIELDS}
    )
    return (
        f"study/surrogate/seed{surrogate.seed}/noise{surrogate.noise_std:g}"
        f"/clip{surrogate.floor:g}-{surrogate.ceiling:g}"
        f"{_skeleton_token(params)}"
    )


_TRAINER_FIELDS = (
    "seed",
    "noise_std",
    "gpu_hours_per_gmac",
    "gpu_hours_base",
    "floor",
    "ceiling",
)


def _build_cifar100_trainer(
    reward_config, params, bundle=None, store=None, platform=None
):
    # Training-stack imports stay function-local: the training layer
    # sits above core in the dependency graph.
    from repro.nasbench.skeleton import CIFAR100_SKELETON
    from repro.training.cache import CachedTrainer
    from repro.training.surrogate_trainer import SurrogateCifar100Trainer

    params = _check_params("cifar100-trainer", params, _TRAINER_FIELDS + ("skeleton",))
    skeleton = _skeleton_from(params, CIFAR100_SKELETON)
    try:
        trainer = SurrogateCifar100Trainer(**params)
    except (TypeError, ValueError) as err:
        raise AccuracySourceError(
            f"accuracy source 'cifar100-trainer': bad params {params!r}: {err}"
        ) from err
    cached = CachedTrainer(trainer, store=store, namespace=trainer.cache_namespace())
    evaluator = CodesignEvaluator(
        accuracy_fn=cached.accuracy_fn, reward_config=reward_config,
        skeleton=skeleton, platform=platform,
    )
    evaluator.source_info = {
        "source": "cifar100-trainer",
        "trainer": trainer,
        "cached": cached,
    }
    return evaluator


def _cifar100_trainer_namespace(params, bundle=None):
    from repro.training.surrogate_trainer import SurrogateCifar100Trainer

    trainer = SurrogateCifar100Trainer(
        **{k: v for k, v in (params or {}).items() if k in _TRAINER_FIELDS}
    )
    return trainer.cache_namespace() + _skeleton_token(params)


register_accuracy_source(
    "database", _build_database, _database_namespace, requires_bundle=True
)
register_accuracy_source("surrogate", _build_surrogate, _surrogate_namespace)
register_accuracy_source(
    "cifar100-trainer", _build_cifar100_trainer, _cifar100_trainer_namespace
)
