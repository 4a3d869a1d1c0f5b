"""The bundle ``.npz`` contract: a warm load is a load, not a rebuild.

A warm :func:`load_bundle` must equal a cold build bit for bit, must not
enumerate, score or compute the Pareto front, and must fall back to a
cold rebuild (with a warning naming the file and the field) whenever the
file is unreadable or the drift check sees a live model disagree.
"""

from __future__ import annotations

import shutil
import warnings

import numpy as np
import pytest

import repro.core.pareto as pareto_mod
import repro.nasbench.database as database_mod
from repro.experiments import common
from repro.hw import build_platform
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.database import CellDatabase
from repro.nasbench.skeleton import CIFAR10_SKELETON
from repro.nasbench.surrogate import Cifar10Surrogate

PLATFORMS = ["dac2020", "embedded-lite"]


def fresh_load(platform, **kwargs):
    """``load_bundle`` at micro4 with the in-process memo out of the way."""
    if isinstance(platform, str):
        platform = build_platform(platform)
    saved = dict(common._BUNDLE_MEMO)
    common._BUNDLE_MEMO.clear()
    try:
        return common.load_bundle(max_vertices=4, platform=platform, **kwargs)
    finally:
        common._BUNDLE_MEMO.clear()
        common._BUNDLE_MEMO.update(saved)


def bundle_file(cache_dir):
    (path,) = cache_dir.glob("bundle_*.npz")
    return path


def assert_same_bundle(a, b) -> None:
    assert a.database.records == b.database.records
    assert [
        (r.spec.original_ops, r.spec.original_matrix.tobytes())
        for r in a.database.records
    ] == [
        (r.spec.original_ops, r.spec.original_matrix.tobytes())
        for r in b.database.records
    ]
    for name in ("accuracy", "area_mm2", "latency_ms"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    for name in ("cell_indices", "config_indices", "latency_ms"):
        x, y = getattr(a.front, name), getattr(b.front, name)
        assert x.tobytes() == y.tobytes(), f"front.{name}"
    assert a.bounds == b.bounds


@pytest.fixture(scope="module")
def cold():
    """Per-platform cold builds that never touch the disk."""
    return {name: fresh_load(name, use_disk_cache=False) for name in PLATFORMS}


@pytest.fixture(scope="module")
def warm_dirs(tmp_path_factory):
    """Per-platform cache dirs holding a freshly written bundle file."""
    dirs = {}
    for name in PLATFORMS:
        dirs[name] = tmp_path_factory.mktemp(f"bundle-{name}")
        fresh_load(name, cache_dir=dirs[name])
    return dirs


@pytest.fixture
def warm_copy(warm_dirs, tmp_path):
    """A private copy of a warm cache dir (tests may overwrite it)."""

    def copy(platform: str):
        shutil.copy(bundle_file(warm_dirs[platform]), tmp_path)
        return tmp_path

    return copy


def load_quietly(platform: str, cache_dir):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fresh_load(platform, cache_dir=cache_dir)


@pytest.mark.parametrize("platform", PLATFORMS)
def test_warm_load_equals_cold_build(platform, cold, warm_dirs):
    assert_same_bundle(load_quietly(platform, warm_dirs[platform]), cold[platform])


@pytest.mark.parametrize("platform", PLATFORMS)
def test_warm_load_skips_enumeration_scoring_and_front(
    platform, cold, warm_copy, monkeypatch
):
    def boom(*args, **kwargs):
        raise AssertionError("a warm load must not rebuild derived data")

    for module in (common, database_mod):
        monkeypatch.setattr(module, "enumerate_unique_cells", boom)
    for module in (common, pareto_mod):
        monkeypatch.setattr(module, "product_space_pareto", boom)
    monkeypatch.setattr(CellDatabase, "from_specs", classmethod(boom))
    assert_same_bundle(load_quietly(platform, warm_copy(platform)), cold[platform])


def test_front_is_the_product_space_front(cold):
    for bundle in cold.values():
        front = pareto_mod.product_space_pareto(
            bundle.accuracy, bundle.area_mm2, bundle.latency_ms
        )
        np.testing.assert_array_equal(bundle.front.cell_indices, front.cell_indices)
        np.testing.assert_array_equal(
            bundle.front.config_indices, front.config_indices
        )


def _drift_surrogate(monkeypatch, platform):
    original = Cifar10Surrogate._mean_accuracy
    monkeypatch.setattr(
        Cifar10Surrogate, "_mean_accuracy", lambda self, f: original(self, f) + 0.5
    )


def _drift_latency(monkeypatch, platform):
    original = platform.batch_network_latency_s
    monkeypatch.setattr(
        platform, "batch_network_latency_s", lambda ir, cols: original(ir, cols) * 1.01
    )


def _drift_area(monkeypatch, platform):
    original = platform.batch_area_mm2
    monkeypatch.setattr(platform, "batch_area_mm2", lambda cols: original(cols) + 1.0)


def _drift_format(monkeypatch, platform):
    monkeypatch.setattr(common, "BUNDLE_FORMAT", common.BUNDLE_FORMAT + 1)


@pytest.mark.parametrize(
    "drift, field",
    [
        (_drift_surrogate, "validation_accuracy"),
        (_drift_latency, "latency_ms"),
        (_drift_area, "area_mm2"),
        (_drift_format, "format"),
    ],
)
def test_drift_check_warns_and_rebuilds(drift, field, warm_copy, monkeypatch):
    cache_dir = warm_copy("embedded-lite")
    platform = build_platform("embedded-lite")
    drift(monkeypatch, platform)
    path = bundle_file(cache_dir)
    with pytest.warns(UserWarning, match=f"{path.name}: field '{field}'"):
        rebuilt = fresh_load(platform, cache_dir=cache_dir)

    # The rebuild follows the live (drifted) models ...
    surrogate = Cifar10Surrogate()
    cols = platform.config_space().columns()
    for i, record in enumerate(rebuilt.database.records):
        assert rebuilt.accuracy[i] == surrogate.validation_accuracy(record.spec)
        ir = compile_cell_ops(record.spec, CIFAR10_SKELETON)
        live = platform.batch_network_latency_s(ir, cols) * 1e3
        assert rebuilt.latency_ms[i].tobytes() == (
            live.astype(np.float32).astype(np.float64).tobytes()
        )
    assert rebuilt.area_mm2.tobytes() == platform.batch_area_mm2(cols).tobytes()
    # ... and the rewritten file passes the check on the next load.
    assert_same_bundle(load_quietly(platform, cache_dir), rebuilt)


def test_truncated_file_is_rebuilt_not_a_crash(cold, warm_copy):
    cache_dir = warm_copy("dac2020")
    path = bundle_file(cache_dir)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.warns(UserWarning, match=f"{path.name}: unreadable"):
        rebuilt = fresh_load("dac2020", cache_dir=cache_dir)
    assert_same_bundle(rebuilt, cold["dac2020"])
    with np.load(path) as npz:
        assert int(npz["format"]) == common.BUNDLE_FORMAT
    assert sorted(p.name for p in cache_dir.iterdir()) == [path.name]
    assert_same_bundle(load_quietly("dac2020", cache_dir), cold["dac2020"])


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    def die_mid_write(file, **arrays):
        with open(file, "wb") as handle:
            handle.write(b"PK partial")
        raise OSError("disk full")

    monkeypatch.setattr(common.np, "savez_compressed", die_mid_write)
    with pytest.raises(OSError, match="disk full"):
        fresh_load("embedded-lite", cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
