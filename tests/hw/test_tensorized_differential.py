"""Differential suite: tensorized evaluation == the scalar reference.

The tensorized fast path (:mod:`repro.hw.tensorized` +
``CodesignEvaluator.evaluate_batch`` with ``tensorize``) claims
bit-exactness, not approximation.  This file is the proof:

* for every registered platform with an enumerable space, sweep the
  ENTIRE ``config_space()`` asserting tensor == scalar bit-identity for
  area, latency, and validity (spaces beyond 500 configs run in the
  slow tier; ``embedded-lite``'s 288 keep full-space coverage in
  tier 1);
* a full-space *evaluator* differential: ``evaluate_batch`` under
  tensorization equals pointwise ``evaluate`` — metrics and rewards —
  for every (cell, config) pair;
* hypothesis property tests over random index subsets and random
  ``dac2020-scaled`` parameterizations;
* ask/tell golden replays with tensorization on, proving search
  trajectories are unchanged against the frozen legacy traces;
* the satellite regressions: a full-space sweep must leave the
  evaluator's hardware memos empty, per-platform tensor disk caches
  must not cross-contaminate, and drifted models must never serve
  stale cached rows.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hw.tensorized as tensorized_mod
from repro.core.evaluator import CodesignEvaluator
from repro.core.reward import RewardConfig
from repro.core.scenarios import PAPER_SCENARIOS
from repro.core.search_space import JointSearchSpace
from repro.core.study import StudySpec, build_study
from repro.experiments.search_study import make_bundle_evaluator
from repro.hw import build_platform, list_platforms
from repro.hw.tensorized import (
    TENSORIZE_MAX_CONFIGS,
    TensorizedSpace,
    TensorizeError,
    enumerable,
    skeleton_token,
    tensorized_space,
)
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.known_cells import googlenet_cell, resnet_cell
from repro.nasbench.skeleton import CIFAR10_SKELETON
from repro.search.combined import CombinedSearch
from repro.search.evolution import EvolutionSearch
from repro.search.phase import PhaseSearch
from repro.search.random_search import RandomSearch
from repro.search.separate import SeparateSearch

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

#: Full-space sweeps beyond this many configs run in the slow tier;
#: embedded-lite (288) keeps entire-space coverage in every CI run.
FAST_SWEEP_LIMIT = 500


def _platform_params():
    """Every enumerable registered platform, slow-marked when large.

    Non-enumerable platforms (charm-u50's 393k-config tile space) have
    no tensorized path by design — full-space sweeps cannot apply;
    their batch==scalar contract is covered by the bounded probe suite
    in ``test_platforms.py`` and the surrogate differentials.
    """
    params = []
    for name in list_platforms():
        platform = build_platform(name)
        if not enumerable(platform):
            continue
        size = platform.config_space().size
        marks = [pytest.mark.slow] if size > FAST_SWEEP_LIMIT else []
        params.append(pytest.param(name, marks=marks, id=name))
    return params


@pytest.fixture(scope="module")
def platforms():
    return {name: build_platform(name) for name in list_platforms()}


@pytest.fixture(scope="module")
def tensors(platforms):
    """One hermetic (no disk cache) tensor per registered platform."""
    return {
        name: TensorizedSpace(platform, use_disk_cache=False)
        for name, platform in platforms.items()
        if enumerable(platform)
    }


@pytest.fixture(scope="module")
def resnet_ir():
    return compile_cell_ops(resnet_cell(), CIFAR10_SKELETON)


def _surrogate_pair(platform):
    """(scalar-reference, tensorized) evaluators over one platform.

    Two platform instances on purpose: shared state between the two
    evaluators could mask a divergence.
    """
    reference = CodesignEvaluator.from_surrogate(
        RewardConfig(), platform=build_platform(platform.name, platform.params)
    )
    fast = CodesignEvaluator.from_surrogate(RewardConfig(), platform=platform)
    fast.attach_tensorized(TensorizedSpace(platform, use_disk_cache=False))
    return reference, fast


class TestEnumerability:
    def test_shipped_platform_enumerability_split(self, platforms):
        # charm-u50's tile space deliberately exceeds the tensorization
        # cap (it exists to exercise sampled surrogate fits); every
        # other shipped platform must stay enumerable so its tensorized
        # fast path keeps working.
        oversized = {"charm-u50", "surrogate:charm-u50"}
        for name, platform in platforms.items():
            if name in oversized:
                assert not enumerable(platform), name
                assert platform.config_space().size > TENSORIZE_MAX_CONFIGS
            else:
                assert enumerable(platform), name

    def test_oversized_space_refused(self, platforms, monkeypatch):
        monkeypatch.setattr(tensorized_mod, "TENSORIZE_MAX_CONFIGS", 1)
        assert not enumerable(platforms["embedded-lite"])
        with pytest.raises(TensorizeError, match="tensorization cap"):
            TensorizedSpace(platforms["embedded-lite"], use_disk_cache=False)

    def test_evaluator_falls_back_when_not_enumerable(self, monkeypatch):
        platform = build_platform("embedded-lite")
        fast = CodesignEvaluator.from_surrogate(
            RewardConfig(), platform=platform, tensorize=True
        )
        monkeypatch.setattr(tensorized_mod, "TENSORIZE_MAX_CONFIGS", 1)
        spec = resnet_cell()
        space = platform.config_space()
        pairs = [(spec, space.config_at(i)) for i in range(0, space.size, 7)]
        got = fast.evaluate_batch(pairs)
        assert fast._memos.tensor is False  # the cached fallback verdict
        reference = CodesignEvaluator.from_surrogate(
            RewardConfig(), platform=build_platform("embedded-lite")
        )
        for pair, result in zip(pairs, got):
            expected = reference.evaluate(*pair)
            assert result.metrics == expected.metrics
            assert result.reward == expected.reward


class TestFullSpaceBitIdentity:
    """tensor[i] == scalar(config_at(i)) over the ENTIRE space."""

    @pytest.mark.parametrize("name", _platform_params())
    def test_area_full_space(self, platforms, tensors, name):
        platform, tensor = platforms[name], tensors[name]
        space = platform.config_space()
        scalar = np.array(
            [platform.area_mm2(space.config_at(i)) for i in range(space.size)]
        )
        assert np.array_equal(scalar, tensor.area_mm2)

    @pytest.mark.parametrize("name", _platform_params())
    def test_validity_full_space(self, platforms, tensors, name):
        platform, tensor = platforms[name], tensors[name]
        space = platform.config_space()
        scalar = np.array(
            [platform.config_valid(space.config_at(i)) for i in range(space.size)]
        )
        assert np.array_equal(scalar, tensor.valid)

    @pytest.mark.parametrize("name", _platform_params())
    def test_latency_full_space(self, platforms, tensors, name, resnet_ir):
        platform, tensor = platforms[name], tensors[name]
        space = platform.config_space()
        row = tensor.latency_row("resnet", lambda: resnet_ir)
        scalar = np.array(
            [
                platform.network_latency_s(resnet_ir, space.config_at(i))
                for i in range(space.size)
            ]
        )
        assert np.array_equal(scalar, row)

    @pytest.mark.parametrize("name", _platform_params())
    def test_evaluate_batch_full_space_differential(self, platforms, name):
        """Tensorized evaluate_batch == pointwise evaluate, full space."""
        platform = platforms[name]
        reference, fast = _surrogate_pair(platform)
        spec = resnet_cell()
        space = platform.config_space()
        pairs = [(spec, space.config_at(i)) for i in range(space.size)]
        got = fast.evaluate_batch(pairs)
        for (pair_spec, config), result in zip(pairs, got):
            expected = reference.evaluate(pair_spec, config)
            assert result.metrics == expected.metrics, config
            assert result.reward == expected.reward, config
            assert result.spec is pair_spec and result.config is config


class TestMemoBypassRegression:
    """Satellite: the tensorized path must not touch the scalar memos."""

    def test_full_space_sweep_leaves_lrus_empty(self, platforms):
        platform = platforms["embedded-lite"]
        _, fast = _surrogate_pair(platform)
        spec = resnet_cell()
        space = platform.config_space()
        fast.evaluate_batch(
            [(spec, space.config_at(i)) for i in range(space.size)]
        )
        assert len(fast._memos.area) == 0
        assert len(fast._memos.latency) == 0
        assert len(fast._memos.column) == 0
        # The tensorized path fills only its bounded result memo (one
        # (metrics, reward) per visited (cell, index)) and the shared
        # content-hash memo (one hash per distinct cell content).
        assert len(fast._results) == space.size
        assert len(fast._memos.spec_hash) == 1

    def test_eval_cache_not_consulted_on_tensorized_path(self, platforms):
        class ExplodingCache:
            def get(self, *key):  # pragma: no cover - must never run
                raise AssertionError("eval cache consulted on tensorized path")

            def put(self, entry):  # pragma: no cover - must never run
                raise AssertionError("eval cache written on tensorized path")

        platform = platforms["embedded-lite"]
        _, fast = _surrogate_pair(platform)
        fast.attach_eval_cache(ExplodingCache())
        spec = resnet_cell()
        space = platform.config_space()
        results = fast.evaluate_batch([(spec, space.config_at(0))])
        assert results[0].metrics is not None


class TestIndexCodec:
    @pytest.mark.parametrize("name", _platform_params())
    def test_index_roundtrip_full_space(self, platforms, name):
        space = platforms[name].config_space()
        for i in range(space.size):
            assert space.index_of(space.config_at(i)) == i

    def test_config_at_interns(self, platforms):
        space = platforms["dac2020"].config_space()
        assert space.config_at(17) is space.config_at(17)

    def test_index_of_actions_matches_decode(self, platforms, rng):
        for platform in platforms.values():
            space = platform.config_space()
            for _ in range(50):
                actions = [int(rng.integers(0, v)) for v in space.vocab_sizes]
                index = space.index_of_actions(actions)
                assert space.config_at(index) == space.decode(actions)
                assert index == space.index_of(space.decode(actions))

    def test_index_of_actions_validates_like_decode(self, platforms):
        space = platforms["dac2020"].config_space()
        with pytest.raises(ValueError, match="expected .* actions"):
            space.index_of_actions([0])
        bad = [0] * space.num_tokens
        bad[0] = space.vocab_sizes[0]
        with pytest.raises(ValueError, match="out of range"):
            space.index_of_actions(bad)

    def test_joint_space_hw_index_of(self, micro4_bundle, rng):
        joint = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        for _ in range(25):
            actions = joint.random_actions(rng)
            _, config = joint.decode(actions)
            assert joint.hw_index_of(actions) == (
                joint.accelerator_space.index_of(config)
            )

    def test_tensor_index_of_matches_space(self, platforms, tensors, rng):
        for name, tensor in tensors.items():
            space = platforms[name].config_space()
            for i in rng.integers(0, space.size, size=32):
                config = space.config_at(int(i))
                assert tensor.index_of(config) == int(i)
                # Identity-memoized: a second resolve hits the memo.
                assert tensor.index_of(config) == int(i)

    def test_tensor_index_of_non_interned_config(self, platforms, tensors):
        tensor = tensors["embedded-lite"]
        space = platforms["embedded-lite"].config_space()
        interned = space.config_at(5)
        clone = type(interned)(**interned.to_dict())
        assert clone is not interned
        assert tensor.index_of(clone) == 5


class TestHypothesisDifferential:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_index_subsets(self, platforms, tensors, data):
        name = data.draw(st.sampled_from(sorted(tensors)))
        platform, tensor = platforms[name], tensors[name]
        space = platform.config_space()
        indices = data.draw(
            st.lists(
                st.integers(0, space.size - 1), min_size=1, max_size=16
            )
        )
        spec = data.draw(st.sampled_from((resnet_cell(), googlenet_cell())))
        ir = compile_cell_ops(spec, CIFAR10_SKELETON)
        row = tensor.latency_row(spec.spec_hash(), lambda: ir)
        for i in indices:
            config = space.config_at(i)
            assert tensor.area_mm2[i] == platform.area_mm2(config)
            assert row[i] == platform.network_latency_s(ir, config)
            assert tensor.valid[i] == platform.config_valid(config)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_scaled_platform_params(self, data, resnet_ir):
        """Tensorization stays exact across the parametric family."""
        params = {
            "clock_mhz": data.draw(
                st.floats(50.0, 600.0, allow_nan=False, allow_infinity=False)
            ),
            "axi_clock_mhz": data.draw(
                st.floats(100.0, 500.0, allow_nan=False, allow_infinity=False)
            ),
            "compute_efficiency": data.draw(st.floats(0.1, 1.0)),
            "mem_efficiency": data.draw(st.floats(0.1, 1.0)),
            "area_scale": data.draw(st.floats(0.25, 4.0)),
            "max_pixel_par": data.draw(st.sampled_from([None, 8, 16])),
        }
        platform = build_platform("dac2020-scaled", params)
        tensor = TensorizedSpace(platform, use_disk_cache=False)
        space = platform.config_space()
        row = tensor.latency_row("resnet", lambda: resnet_ir)
        rng = np.random.default_rng(0)
        for i in rng.integers(0, space.size, size=12):
            config = space.config_at(int(i))
            assert tensor.area_mm2[i] == platform.area_mm2(config)
            assert row[i] == platform.network_latency_s(resnet_ir, config)


# ---------------------------------------------------------------------------
# Golden ask/tell replays under tensorization
# ---------------------------------------------------------------------------

GOLDEN_NUM_STEPS = 40

#: Must stay in sync with tests/data/generate_ask_tell_goldens.py.
STRATEGY_FACTORIES = {
    "random": lambda space, seed: RandomSearch(space, seed=seed),
    "evolution": lambda space, seed: EvolutionSearch(
        space, seed=seed, population_size=8, tournament_size=3
    ),
    "combined": lambda space, seed: CombinedSearch(space, seed=seed),
    "separate": lambda space, seed: SeparateSearch(
        space, seed=seed, cnn_fraction=0.6
    ),
    "phase": lambda space, seed: PhaseSearch(
        space, seed=seed, cnn_phase_steps=10, hw_phase_steps=5
    ),
}


def visit_digest(archive) -> str:
    """md5 over the visited (spec_hash, config_key, phase) sequence."""
    parts = []
    for e in archive.entries:
        spec_part = (
            e.spec.spec_hash() if e.spec is not None and e.spec.valid else "invalid"
        )
        parts.append(f"{spec_part}|{tuple(e.config.to_dict().values())}|{e.phase}")
    return hashlib.md5("\n".join(parts).encode()).hexdigest()


@pytest.fixture(scope="module")
def goldens():
    arrays = np.load(DATA_DIR / "ask_tell_goldens.npz")
    meta = json.loads((DATA_DIR / "ask_tell_goldens.json").read_text())
    assert meta["num_steps"] == GOLDEN_NUM_STEPS
    return arrays, meta["digests"]


class TestGoldenReplaysTensorized:
    """Tensorization must not change a single search trajectory.

    Each (strategy, scenario) cell replays seed 0 of the frozen legacy
    traces with the tensorized fast path armed; reward traces and the
    visited (spec, config, phase) sequences must stay bit-identical to
    the pre-refactor per-point loops.
    """

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
    @pytest.mark.parametrize("scenario_name", sorted(PAPER_SCENARIOS))
    def test_trace_matches_golden(
        self, micro4_bundle, goldens, strategy_name, scenario_name
    ):
        seed = 0
        arrays, digests = goldens
        scenario = PAPER_SCENARIOS[scenario_name](micro4_bundle.bounds)
        evaluator = make_bundle_evaluator(micro4_bundle, scenario)
        evaluator.attach_tensorized(
            TensorizedSpace(evaluator.platform, use_disk_cache=False)
        )
        assert evaluator.tensorize
        space = JointSearchSpace(cell_encoding=micro4_bundle.cell_encoding)
        strategy = STRATEGY_FACTORIES[strategy_name](space, seed)
        result = strategy.run(evaluator, GOLDEN_NUM_STEPS, batch_size=1)
        key = f"{strategy_name}__{scenario_name}__{seed}"
        assert np.array_equal(
            result.reward_trace(), arrays[key], equal_nan=True
        ), "tensorized reward trace diverged from the legacy traces"
        assert visit_digest(result.archive) == digests[key], (
            "tensorized visit sequence diverged from the legacy traces"
        )


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

class TestDiskCache:
    def test_round_trip(self, tmp_path, resnet_ir):
        platform = build_platform("embedded-lite")
        t1 = TensorizedSpace(platform, cache_dir=tmp_path)
        row1 = t1.latency_row("resnet", lambda: resnet_ir)
        t1.save()
        t2 = TensorizedSpace(platform, cache_dir=tmp_path)
        assert t2.loaded_rows == 1
        row2 = t2.latency_row(
            "resnet", lambda: pytest.fail("row should come from disk")
        )
        assert np.array_equal(row1, row2)
        assert np.array_equal(t1.area_mm2, t2.area_mm2)

    def test_autosave(self, tmp_path, resnet_ir):
        platform = build_platform("embedded-lite")
        tensor = TensorizedSpace(platform, cache_dir=tmp_path, autosave_every=1)
        assert not tensor.cache_file.exists()
        tensor.latency_row("resnet", lambda: resnet_ir)
        assert tensor.cache_file.exists()

    def test_per_platform_files_do_not_collide(self, tmp_path):
        def cache_file(name, params=None):
            return TensorizedSpace(
                build_platform(name, params),
                cache_dir=tmp_path,
                use_disk_cache=False,
            ).cache_file

        reference = cache_file("dac2020")
        embedded = cache_file("embedded-lite")
        scaled = cache_file("dac2020-scaled", {"clock_mhz": 300.0})
        # Any result-affecting difference keys a different file.
        assert len({reference, embedded, scaled}) == 3
        # ... while dac2020-scaled at its defaults IS the reference
        # (bit-identical models, same cache_namespace), so sharing the
        # reference's tensor file is intentional, not contamination.
        assert cache_file("dac2020-scaled") == reference

    def test_skeleton_keys_the_file(self, tiny_skeleton):
        platform = build_platform("embedded-lite")
        a = TensorizedSpace(platform, use_disk_cache=False)
        b = TensorizedSpace(platform, skeleton=tiny_skeleton, use_disk_cache=False)
        assert a.cache_file != b.cache_file
        assert skeleton_token(CIFAR10_SKELETON) != skeleton_token(tiny_skeleton)

    def test_drifted_models_discard_cached_rows(self, tmp_path, resnet_ir):
        platform = build_platform("embedded-lite")
        t1 = TensorizedSpace(platform, cache_dir=tmp_path)
        t1.latency_row("resnet", lambda: resnet_ir)
        t1.save()
        with np.load(t1.cache_file) as data:
            arrays = dict(data)
        arrays["area_mm2"] = arrays["area_mm2"] * 1.01
        np.savez_compressed(t1.cache_file, **arrays)
        t2 = TensorizedSpace(platform, cache_dir=tmp_path)
        # The fresh eager arrays win; the stale latency rows are dropped.
        assert t2.loaded_rows == 0
        assert np.array_equal(t2.area_mm2, t1.area_mm2)

    def test_corrupt_cache_file_ignored(self, tmp_path):
        platform = build_platform("embedded-lite")
        t1 = TensorizedSpace(platform, cache_dir=tmp_path)
        t1.save()
        t1.cache_file.write_bytes(b"not an npz archive")
        t2 = TensorizedSpace(platform, cache_dir=tmp_path)
        assert t2.loaded_rows == 0

    def test_row_lru_bounded_and_disk_cap(self, tmp_path, resnet_ir):
        platform = build_platform("embedded-lite")
        tensor = TensorizedSpace(
            platform, cache_dir=tmp_path, max_rows=4, max_disk_rows=2
        )
        for i in range(6):
            tensor.latency_row(f"cell{i}", lambda: resnet_ir)
        assert tensor.num_latency_rows == 4
        tensor.save()
        with np.load(tensor.cache_file) as data:
            assert data["latency_s"].shape[0] == 2

    def test_disk_rows_stored_most_recent_first(self, tmp_path, resnet_ir):
        # The regression: save() once persisted the kept slice in LRU
        # iteration order (stale -> fresh), so on-disk row_hashes[0]
        # was the OLDEST kept row — any truncating consumer dropped
        # the newest rows first, contradicting the retention policy.
        platform = build_platform("embedded-lite")
        tensor = TensorizedSpace(
            platform, cache_dir=tmp_path, max_rows=8, max_disk_rows=3
        )
        for i in range(5):
            tensor.latency_row(f"cell{i}", lambda: resnet_ir)
        # Refresh cell1: it must now outrank cell2/cell3 on disk.
        tensor.latency_row("cell1", lambda: pytest.fail("row is resident"))
        tensor.save()
        with np.load(tensor.cache_file) as data:
            hashes = [str(h) for h in data["row_hashes"]]
        assert hashes == ["cell1", "cell4", "cell3"]
        # Saving must not itself perturb recency (snapshot, not
        # __getitem__): an immediate re-save keeps the same order.
        tensor.save()
        with np.load(tensor.cache_file) as data:
            assert [str(h) for h in data["row_hashes"]] == hashes

    def test_retention_round_trip_keeps_newest_rows(self, tmp_path, resnet_ir):
        platform = build_platform("embedded-lite")
        t1 = TensorizedSpace(platform, cache_dir=tmp_path, max_disk_rows=2)
        for i in range(4):
            t1.latency_row(f"cell{i}", lambda: resnet_ir)
        t1.save()
        t2 = TensorizedSpace(platform, cache_dir=tmp_path, max_disk_rows=2)
        assert t2.loaded_rows == 2
        for newest in ("cell2", "cell3"):
            t2.latency_row(newest, lambda: pytest.fail("newest rows must survive"))
        # Reloading into a smaller max_rows evicts the *older* stored
        # row — the load replays stale-first so LRU recency matches
        # the writer's.
        t3 = TensorizedSpace(
            platform, cache_dir=tmp_path, max_rows=1, max_disk_rows=2
        )
        assert t3.num_latency_rows == 1
        t3.latency_row("cell3", lambda: pytest.fail("the newest row survives"))

    def test_zero_disk_rows_persists_no_rows(self, tmp_path, resnet_ir):
        platform = build_platform("embedded-lite")
        tensor = TensorizedSpace(platform, cache_dir=tmp_path, max_disk_rows=0)
        tensor.latency_row("resnet", lambda: resnet_ir)
        tensor.save()
        with np.load(tensor.cache_file) as data:
            assert data["latency_s"].shape == (0, tensor.size)

    def test_failed_save_leaves_no_tmp_file(self, tmp_path, resnet_ir, monkeypatch):
        # The regression: np.savez_compressed dying mid-write (full
        # disk) leaked a .tmp<pid>.npz sibling next to the cache.
        platform = build_platform("embedded-lite")
        tensor = TensorizedSpace(platform, cache_dir=tmp_path)
        tensor.latency_row("resnet", lambda: resnet_ir)
        tensor.save()
        good = tensor.cache_file.read_bytes()
        tensor.latency_row("googlenet", lambda: resnet_ir)

        def die_mid_write(file, **arrays):
            Path(file).write_bytes(b"half an archive")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tensorized_mod.np, "savez_compressed", die_mid_write)
        with pytest.raises(OSError):
            tensor.save()
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp*")) == []
        # ...and the atomic contract held: the previous archive is intact.
        assert tensor.cache_file.read_bytes() == good
        tensor.save()
        t2 = TensorizedSpace(platform, cache_dir=tmp_path)
        assert t2.loaded_rows == 2

    def test_process_memo_reuses_enumeration(self, tmp_path):
        platform = build_platform("embedded-lite")
        a = tensorized_space(platform, cache_dir=tmp_path)
        b = tensorized_space(build_platform("embedded-lite"), cache_dir=tmp_path)
        assert a is b


# ---------------------------------------------------------------------------
# Cross-platform sweeps (satellite)
# ---------------------------------------------------------------------------

class TestCrossPlatformSweep:
    """Tensorize one platform, not the other, in one StudySpec."""

    SPEC = {
        "name": "mixed-tensorize",
        "strategies": [{"name": "random"}],
        "scenarios": ["unconstrained"],
        "evaluator": {"source": "surrogate"},
        "hardware": [
            {"name": "embedded-lite", "tensorize": True},
            {"name": "dac2020-scaled", "params": {"clock_mhz": 300.0}},
        ],
        "execution": {"num_steps": 6, "num_repeats": 1},
    }

    def test_per_platform_tensorize_flags(self):
        spec = StudySpec.from_dict(self.SPEC)
        study = build_study(spec)
        evaluators = {}
        for job in study.jobs:
            evaluator = job.evaluator_factory()
            evaluators[job.label.split(":")[0]] = evaluator
        assert evaluators["embedded-lite"].tensorize
        assert not evaluators["dac2020-scaled"].tensorize

    def test_hardware_override_beats_execution_default(self):
        data = dict(self.SPEC)
        data["execution"] = {**self.SPEC["execution"], "tensorize": True}
        data["hardware"] = [
            {"name": "embedded-lite", "tensorize": False},
            {"name": "dac2020-scaled"},
        ]
        study = build_study(StudySpec.from_dict(data))
        flags = {
            job.label.split(":")[0]: job.evaluator_factory().tensorize
            for job in study.jobs
        }
        assert not flags["embedded-lite"]
        assert flags["dac2020-scaled"]

    def test_namespaces_do_not_cross_contaminate_disk_cache(
        self, tmp_path, monkeypatch, resnet_ir
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        written = {}
        for name in ("embedded-lite", "dac2020-scaled"):
            tensor = tensorized_space(build_platform(name))
            tensor.latency_row("resnet", lambda: resnet_ir)
            written[name] = tensor.save()
        assert written["embedded-lite"] != written["dac2020-scaled"]
        assert all(
            path.parent == tmp_path / "tensorized" for path in written.values()
        )
        # Reloading each platform's file serves only its own rows,
        # bit-identical to that platform's scalar models.
        for name, platform in (
            (n, build_platform(n)) for n in ("embedded-lite", "dac2020-scaled")
        ):
            fresh = TensorizedSpace(platform, cache_dir=tmp_path / "tensorized")
            assert fresh.loaded_rows == 1
            row = fresh.latency_row(
                "resnet", lambda: pytest.fail("row should come from disk")
            )
            space = platform.config_space()
            for i in (0, space.size // 2, space.size - 1):
                assert row[i] == platform.network_latency_s(
                    resnet_ir, space.config_at(i)
                )

    def test_mixed_sweep_outcomes_match_untensorized_run(
        self, tmp_path, monkeypatch
    ):
        from repro.core.study import run_study

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def outcomes(spec_dict):
            result = run_study(StudySpec.from_dict(spec_dict))
            return {
                key: {
                    strategy: outcome.mean_best_reward()
                    for strategy, outcome in by_strategy.items()
                }
                for key, by_strategy in result.outcomes.items()
            }

        plain = dict(self.SPEC)
        plain["hardware"] = [
            {"name": "embedded-lite"},
            {"name": "dac2020-scaled", "params": {"clock_mhz": 300.0}},
        ]
        assert outcomes(self.SPEC) == outcomes(plain)


class TestGoldenTensorSlices:
    """Pinned hex-encoded tensor slices per shipped platform.

    The tensor==scalar differential tests above prove the two paths
    agree — but cannot see *lockstep drift*, where a hardware-model
    change moves both paths together.  These goldens pin absolute
    float64 bit patterns at 16 evenly-spaced indices so any model
    change fails loudly (regenerate deliberately with
    ``tests/data/generate_tensorized_goldens.py``).
    """

    @pytest.fixture(scope="class")
    def goldens(self):
        return json.loads((DATA_DIR / "tensorized_goldens.json").read_text())

    def test_covers_every_registered_platform(self, goldens):
        # surrogate:* platforms are derived from the pinned base models;
        # their own drift guard is the artifact probe contract
        # (tests/hw/test_hw_surrogate.py), not golden tensor slices.
        pinned = {entry["platform"] for entry in goldens.values()}
        exact = {
            name for name in list_platforms() if not name.startswith("surrogate:")
        }
        assert pinned == exact

    def test_slices_match_goldens(self, goldens, resnet_ir):
        for label, entry in goldens.items():
            platform = build_platform(entry["platform"], entry["params"] or None)
            assert platform.cache_namespace() == entry["namespace"], label
            if entry.get("tensorized", True):
                tensor = TensorizedSpace(platform, use_disk_cache=False)
                assert tensor.size == entry["size"], label
                area = tensor.area_mm2
                valid = tensor.valid
                latency = tensor.latency_row("resnet", lambda: resnet_ir)
            else:
                # Non-enumerable platform: the goldens pin the batched
                # column queries at the probe indices instead.
                space = platform.config_space()
                assert space.size == entry["size"], label
                probe = np.asarray(entry["indices"], dtype=np.int64)
                cols = space.columns_at(probe)
                area = dict(zip(entry["indices"], platform.batch_area_mm2(cols)))
                valid = dict(
                    zip(entry["indices"], platform.batch_config_valid(cols))
                )
                latency = dict(
                    zip(
                        entry["indices"],
                        platform.batch_network_latency_s(resnet_ir, cols),
                    )
                )
            for pos, index in enumerate(entry["indices"]):
                assert (
                    float(area[index]).hex() == entry["area_hex"][pos]
                ), f"{label}: area drift at index {index}"
                assert bool(valid[index]) == entry["valid"][pos], (
                    f"{label}: validity drift at index {index}"
                )
                assert (
                    float(latency[index]).hex() == entry["latency_hex"][pos]
                ), f"{label}: latency drift at index {index}"
