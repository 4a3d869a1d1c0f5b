"""Tests for the codesign evaluator E(s)."""

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.core.evaluator import CodesignEvaluator
from repro.core.reward import MetricBounds, RewardConfig
from repro.core.scenarios import unconstrained
from repro.hw import build_platform
from repro.nasbench.database import CellDatabase, enumerate_unique_cells, sample_unique_cells
from repro.nasbench.known_cells import resnet_cell
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.ops import CONV3X3, INPUT, MAXPOOL3X3, OUTPUT
from repro.nasbench.surrogate import Cifar10Surrogate


@pytest.fixture(scope="module")
def db():
    return CellDatabase.from_specs(enumerate_unique_cells(4))


@pytest.fixture
def db_evaluator(db):
    return CodesignEvaluator.from_database(db, unconstrained())


class TestEvaluation:
    def test_valid_pair(self, db_evaluator, default_config):
        result = db_evaluator.evaluate(resnet_cell(), default_config)
        assert result.valid and result.feasible
        assert result.metrics.accuracy > 85
        assert result.metrics.latency_s > 0

    def test_invalid_spec_punished(self, db_evaluator, default_config):
        bad = ModelSpec(np.zeros((3, 3), dtype=int), (INPUT, CONV3X3, OUTPUT))
        result = db_evaluator.evaluate(bad, default_config)
        assert not result.valid
        assert result.metrics is None
        assert result.reward.value < 0

    def test_outside_database_punished(self, db_evaluator, default_config):
        outside = sample_unique_cells(1, seed=0)[0]  # 6-7 vertices
        result = db_evaluator.evaluate(outside, default_config)
        assert not result.valid
        assert result.reward.value < 0

    def test_surrogate_evaluator_accepts_any_valid(self, default_config):
        evaluator = CodesignEvaluator.from_surrogate(unconstrained())
        outside = sample_unique_cells(1, seed=0)[0]
        result = evaluator.evaluate(outside, default_config)
        assert result.valid

    def test_accuracy_matches_database(self, db, db_evaluator):
        record = db.records[0]
        assert db_evaluator.accuracy(record.spec) == record.validation_accuracy


class TestCaching:
    def test_latency_cached(self, db_evaluator, default_config):
        spec = resnet_cell()
        first = db_evaluator.latency_s(spec, default_config)
        assert len(db_evaluator._memos.latency) == 1
        assert db_evaluator.latency_s(spec, default_config) == first
        assert len(db_evaluator._memos.latency) == 1

    def test_evaluation_counter(self, db_evaluator, default_config):
        db_evaluator.evaluate(resnet_cell(), default_config)
        db_evaluator.evaluate(resnet_cell(), default_config)
        assert db_evaluator.num_evaluations == 2

    def test_with_reward_shares_caches(self, db_evaluator, default_config):
        db_evaluator.evaluate(resnet_cell(), default_config)
        clone = db_evaluator.with_reward(
            RewardConfig(weights=(0, 0, 1), bounds=MetricBounds())
        )
        assert clone._memos is db_evaluator._memos
        result = clone.evaluate(resnet_cell(), default_config)
        assert result.valid

    def test_with_platform_starts_fresh_hardware_state(
        self, micro4_bundle, default_config
    ):
        from repro.experiments.search_study import make_bundle_evaluator
        from repro.parallel import EvalCache

        exact = make_bundle_evaluator(micro4_bundle, unconstrained(micro4_bundle.bounds))
        exact.attach_eval_cache(EvalCache())
        exact.tensorize = True
        spec = micro4_bundle.database.records[0].spec
        exact.evaluate(spec, default_config)
        twin = exact.with_platform(build_platform("dac2020-scaled"))
        # Cell memos are shared; every hardware-derived state is fresh.
        assert twin._memos.accuracy is exact._memos.accuracy
        assert twin._memos.spec_hash is exact._memos.spec_hash
        assert twin._memos.table is None and twin._memos.tensor is None
        assert twin.eval_cache is None and not twin.tensorize
        assert len(twin._memos.area) == 0 and len(twin._results) == 0
        twin.evaluate(spec, default_config)
        assert exact._memos.table is not None

    def test_with_reward_changes_reward_only(self, db_evaluator, default_config):
        base = db_evaluator.evaluate(resnet_cell(), default_config)
        clone = db_evaluator.with_reward(
            RewardConfig(weights=(0, 0, 1), bounds=db_evaluator.reward_fn.config.bounds)
        )
        other = clone.evaluate(resnet_cell(), default_config)
        assert other.metrics.latency_s == base.metrics.latency_s
        assert other.reward.value != base.reward.value


class TestLatencyTable:
    def test_fast_path_matches_fallback(self, micro4_bundle):
        bundle = micro4_bundle
        scenario = unconstrained(bundle.bounds)
        fast = CodesignEvaluator.from_database(bundle.database, scenario)
        fast.attach_latency_table(bundle.latency_ms, bundle.row_of_hash(), bundle.space)
        slow = CodesignEvaluator.from_database(bundle.database, scenario)
        spec = bundle.database.records[3].spec
        gen = np.random.default_rng(0)
        for i in map(int, gen.integers(0, bundle.space.size, 5)):
            config = bundle.space.config_at(i)
            assert fast.latency_s(spec, config) == pytest.approx(
                slow.latency_s(spec, config), rel=1e-6
            )

    def test_unknown_cell_falls_back(self, micro4_bundle, default_config):
        bundle = micro4_bundle
        evaluator = CodesignEvaluator.from_surrogate(unconstrained(bundle.bounds))
        evaluator.attach_latency_table(
            bundle.latency_ms, bundle.row_of_hash(), bundle.space
        )
        outside = sample_unique_cells(1, seed=1)[0]
        assert evaluator.latency_s(outside, default_config) > 0


class TestEvaluateBatchExactness:
    """The batched path is bit-identical to per-point evaluate."""

    def _random_pairs(self, micro4_bundle, n, seed):
        from repro.core.search_space import JointSearchSpace

        space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        rng = np.random.default_rng(seed)
        return [space.decode(space.random_actions(rng)) for _ in range(n)]

    def _assert_results_identical(self, batched, pointwise):
        for a, b in zip(batched, pointwise):
            assert a.reward.value == b.reward.value
            assert a.reward.feasible == b.reward.feasible
            assert a.reward.valid == b.reward.valid
            assert a.reward.violations == b.reward.violations
            if b.metrics is None:
                assert a.metrics is None
            else:
                assert a.metrics.accuracy == b.metrics.accuracy
                assert a.metrics.latency_s == b.metrics.latency_s
                assert a.metrics.area_mm2 == b.metrics.area_mm2

    def test_table_backed_batch_equals_pointwise(self, micro4_bundle):
        from repro.experiments.search_study import make_bundle_evaluator

        pairs = self._random_pairs(micro4_bundle, 120, seed=0)
        batched = make_bundle_evaluator(
            micro4_bundle, unconstrained(micro4_bundle.bounds)
        ).evaluate_batch(pairs)
        ev = make_bundle_evaluator(micro4_bundle, unconstrained(micro4_bundle.bounds))
        pointwise = [ev.evaluate(s, c) for s, c in pairs]
        self._assert_results_identical(batched, pointwise)

    def test_tableless_batch_equals_pointwise(self, db):
        pairs_ev = CodesignEvaluator.from_database(db, unconstrained())
        from tests.conftest import sample_configs

        cells = sample_unique_cells(6, seed=1, min_vertices=4, max_vertices=4)
        configs = sample_configs(5, seed=2)
        pairs = [(s, c) for s in cells for c in configs]
        batched = pairs_ev.evaluate_batch(pairs)
        fresh = CodesignEvaluator.from_database(db, unconstrained())
        pointwise = [fresh.evaluate(s, c) for s, c in pairs]
        self._assert_results_identical(batched, pointwise)

    def test_eval_cache_attached_batch_equals_pointwise(self, micro4_bundle, tmp_path):
        from repro.experiments.search_study import make_bundle_evaluator
        from repro.parallel import EvalCache

        pairs = self._random_pairs(micro4_bundle, 60, seed=3)
        ev_a = make_bundle_evaluator(micro4_bundle, unconstrained(micro4_bundle.bounds))
        ev_a.attach_eval_cache(EvalCache(tmp_path / "a.sqlite"))
        batched = ev_a.evaluate_batch(pairs)
        ev_b = make_bundle_evaluator(micro4_bundle, unconstrained(micro4_bundle.bounds))
        ev_b.attach_eval_cache(EvalCache(tmp_path / "b.sqlite"))
        pointwise = [ev_b.evaluate(s, c) for s, c in pairs]
        self._assert_results_identical(batched, pointwise)
        # Both paths persist the same row set.
        ev_a.eval_cache.flush()
        ev_b.eval_cache.flush()
        assert len(ev_a.eval_cache) == len(ev_b.eval_cache)

    def test_duplicates_share_results_and_count(self, micro4_bundle):
        from repro.experiments.search_study import make_bundle_evaluator

        ev = make_bundle_evaluator(micro4_bundle, unconstrained(micro4_bundle.bounds))
        pairs = self._random_pairs(micro4_bundle, 10, seed=4)
        doubled = pairs + pairs
        results = ev.evaluate_batch(doubled)
        assert ev.num_evaluations == 20
        for a, b in zip(results[:10], results[10:]):
            if a.spec.valid:
                assert a is b  # one computation, shared result

    @pytest.mark.parametrize("tensorize", [False, True], ids=["memoized", "tensorized"])
    def test_isomorphic_duplicates_keep_their_own_spec(self, tensorize):
        """Pairs sharing a spec_hash but not a layout keep their own spec."""
        from repro.hw import TensorizedSpace

        platform = build_platform("embedded-lite")
        ev = CodesignEvaluator.from_surrogate(unconstrained(), platform=platform)
        if tensorize:
            ev.attach_tensorized(TensorizedSpace(platform, use_disk_cache=False))
        matrix = np.array([[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
        a = ModelSpec(matrix, (INPUT, CONV3X3, MAXPOOL3X3, OUTPUT))
        b = ModelSpec(matrix, (INPUT, MAXPOOL3X3, CONV3X3, OUTPUT))
        assert a.spec_hash() == b.spec_hash() and a.ops != b.ops
        space = platform.config_space()
        config = next(
            space.config_at(i)
            for i in range(space.size)
            if platform.config_valid(space.config_at(i))
        )
        equal_config = AcceleratorConfig(**config.to_dict())
        pairs = [(a, config), (b, config), (a, equal_config)]
        results = ev.evaluate_batch(pairs)
        for (spec, cfg), result in zip(pairs, results):
            assert result.spec is spec and result.config is cfg
            assert result.metrics == results[0].metrics is not None
            assert result.reward == results[0].reward
        # ... and so do results served from memos filled by a previous batch.
        for (spec, _), result in zip(pairs, ev.evaluate_batch(pairs)):
            assert result.spec is spec

    @pytest.mark.parametrize("tensorize", [False, True], ids=["memoized", "tensorized"])
    def test_public_pieces_match_evaluate(self, tensorize):
        platform = build_platform("embedded-lite")
        ev = CodesignEvaluator.from_surrogate(
            unconstrained(), platform=platform, tensorize=tensorize
        )
        reference = CodesignEvaluator.from_surrogate(
            unconstrained(), platform=build_platform("embedded-lite")
        )
        space = platform.config_space()
        spec = resnet_cell()
        for config in map(space.config_at, range(0, space.size, 37)):
            expected = reference.evaluate(spec, config).metrics
            assert ev.metrics(spec, config) == expected
            if expected is not None:
                assert ev.accuracy(spec) == expected.accuracy
                assert ev.latency_s(spec, config) == expected.latency_s
                assert ev.area_mm2(config) == expected.area_mm2

    def test_batch_warms_pointwise_caches(self, micro4_bundle):
        """Batch and pointwise paths share one coherent cache family."""
        from repro.experiments.search_study import make_bundle_evaluator

        ev = make_bundle_evaluator(micro4_bundle, unconstrained(micro4_bundle.bounds))
        pairs = self._random_pairs(micro4_bundle, 20, seed=5)
        batched = ev.evaluate_batch(pairs)
        pointwise = [ev.evaluate(s, c) for s, c in pairs]
        self._assert_results_identical(batched, pointwise)


class TestAccuracySourceRegistry:
    def test_builtin_sources_registered(self):
        from repro.core.evaluator import list_accuracy_sources

        assert set(list_accuracy_sources()) >= {
            "database", "surrogate", "cifar100-trainer",
        }

    def test_database_requires_bundle(self):
        from repro.core.evaluator import AccuracySourceError, build_evaluator

        with pytest.raises(AccuracySourceError, match="bundle"):
            build_evaluator("database", unconstrained())

    def test_unknown_source_and_params_actionable(self):
        from repro.core.evaluator import AccuracySourceError, build_evaluator

        with pytest.raises(AccuracySourceError, match="registered:"):
            build_evaluator("oracle", unconstrained())
        with pytest.raises(AccuracySourceError, match="noise"):
            build_evaluator("surrogate", unconstrained(), {"noise": 1.0})

    def test_surrogate_params_reach_surrogate(self):
        from repro.core.evaluator import build_evaluator

        evaluator = build_evaluator(
            "surrogate", unconstrained(), {"seed": 7, "noise_std": 0.0}
        )
        surrogate = evaluator.source_info["surrogate"]
        assert (surrogate.seed, surrogate.noise_std) == (7, 0.0)

    def test_skeleton_param_pins_namespace(self):
        from repro.core.evaluator import accuracy_source_namespace

        for source in ("database", "surrogate", "cifar100-trainer"):
            plain = accuracy_source_namespace(source)
            stacked = accuracy_source_namespace(
                source, {"skeleton": {"num_stacks": 2}}
            )
            assert plain != stacked, source

    def test_bad_skeleton_field_rejected(self):
        from repro.core.evaluator import AccuracySourceError, build_evaluator

        with pytest.raises(AccuracySourceError, match="skeleton"):
            build_evaluator(
                "surrogate", unconstrained(), {"skeleton": {"depth": 3}}
            )

    def test_with_reward_carries_source_info(self):
        from repro.core.evaluator import build_evaluator

        evaluator = build_evaluator("surrogate", unconstrained())
        clone = evaluator.with_reward(unconstrained())
        assert clone.source_info is evaluator.source_info
