"""Shared experiment infrastructure: enumeration bundles and scaling.

The Section III experiments all consume the same enumerated joint
space: the exhaustive micro cell database crossed with the full 8640
accelerator configurations.  :func:`load_bundle` builds that once and
caches it in memory and in one ``.npz`` per ``(max_vertices, platform
namespace)`` holding everything derived from the enumeration:

* the cell table in record order — each cell's original (unpruned)
  matrix padded to ``max_vertices``, its vertex count and op codes,
  ``spec_hash``, :class:`~repro.nasbench.surrogate.CellFeatures`
  columns and surrogate validation/test accuracy and training seconds;
* the area vector and the float32 latency matrix;
* the product-space Pareto front as ``(cell, config)`` index pairs.

A cold build (enumerate, score, one vectorized latency row per cell,
the front) takes about 1.5 minutes at five vertices on a 2-vCPU host;
a warm load reads the arrays and rebuilds the records from them in
about a second, without enumerating, re-scoring or recomputing the
front.

Every warm load passes one drift check first: the format version and
array shapes; the area vector against a live pass of the platform's
area model; and :data:`DRIFT_SAMPLE_ROWS` fixed rows (first and last
included) re-derived through live code — hash, features, surrogate
statistics and float32 latency row, bit for bit.  On a mismatch, or a
file that cannot be read, a warning names the file and the field and
the bundle is rebuilt cold and rewritten atomically.  The check cannot
see a change to *which* cells the enumeration yields; such a change
must bump :data:`BUNDLE_FORMAT`.

Experiment *scale* is controlled by the ``REPRO_SCALE`` environment
variable:

=========  =========  ========  ==============================
scale      steps      repeats   intended use
=========  =========  ========  ==============================
smoke      300        1         CI / unit-test speed
default    1500       3         pytest-benchmark runs
paper      10000      10        full paper-fidelity runs
=========  =========  ========  ==============================
"""

from __future__ import annotations

import hashlib
import os
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.accelerator.space import AcceleratorSpace
from repro.core.pareto import ProductParetoResult, product_space_pareto
from repro.core.reward import MetricBounds
from repro.hw import default_platform
from repro.nasbench.compile import compile_cell_ops
from repro.nasbench.database import CellDatabase, CellRecord, enumerate_unique_cells
from repro.nasbench.encoding import CellEncoding
from repro.nasbench.model_spec import ModelSpec
from repro.nasbench.ops import INPUT, INTERIOR_OPS, OUTPUT
from repro.nasbench.skeleton import CIFAR10_SKELETON
from repro.nasbench.surrogate import CellFeatures, Cifar10Surrogate, extract_features

__all__ = [
    "Scale",
    "SpaceBundle",
    "load_bundle",
    "default_cache_dir",
    "eval_cache_path",
]

_BUNDLE_MEMO: dict[tuple, "SpaceBundle"] = {}

#: Layout version of the bundle ``.npz``.  Bump it when a stored array
#: changes meaning or the enumeration changes which cells it yields.
BUNDLE_FORMAT = 1
#: Rows a warm load re-derives through live code (first and last included).
DRIFT_SAMPLE_ROWS = 8
#: Op label of each code in the stored cell table (``-1`` pads).
_OP_CODES = (INPUT, *INTERIOR_OPS, OUTPUT)
_STATS = ("validation_accuracy", "test_accuracy", "training_seconds")


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    name: str
    search_steps: int
    num_repeats: int
    fig7_target_scale: float  # multiplies the per-rung valid-point targets

    @classmethod
    def named(cls, name: str) -> "Scale":
        """The shipped sizing preset called ``name`` (smoke/default/paper)."""
        presets = {
            "smoke": cls("smoke", 300, 1, 0.1),
            "default": cls("default", 1500, 3, 0.25),
            "paper": cls("paper", 10000, 10, 1.0),
        }
        if name not in presets:
            raise ValueError(
                f"scale must be one of {sorted(presets)}, got {name!r}"
            )
        return presets[name]

    @classmethod
    def from_env(cls, default: str = "default") -> "Scale":
        name = os.environ.get("REPRO_SCALE", default).lower()
        try:
            return cls.named(name)
        except ValueError:
            raise ValueError(
                f"REPRO_SCALE must be one of ['default', 'paper', 'smoke'], "
                f"got {name!r}"
            ) from None


def default_cache_dir() -> Path:
    """On-disk cache location (override with ``REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path(__file__).resolve().parents[3] / ".cache" / "repro"


def eval_cache_path(cache_dir: Path | None = None) -> Path:
    """Location of the shared persistent evaluation store.

    One sqlite file serves every experiment: search evaluations and
    Section IV training outcomes live in separate namespaces inside it
    (see :class:`repro.parallel.EvalCache`).
    """
    return (cache_dir or default_cache_dir()) / "eval_cache.sqlite"


@dataclass
class SpaceBundle:
    """The enumerated joint space the Section III experiments share."""

    database: CellDatabase
    cell_encoding: CellEncoding
    space: AcceleratorSpace
    accuracy: np.ndarray       # (Nc,) percent
    area_mm2: np.ndarray       # (space.size,)
    latency_ms: np.ndarray     # (Nc, space.size)
    bounds: MetricBounds
    front: ProductParetoResult  # exact Pareto front of the product space
    platform: object = None    # the repro.hw platform that enumerated it

    @property
    def num_pairs(self) -> int:
        return int(self.latency_ms.size)

    def row_of_hash(self) -> dict[str, int]:
        return {rec.spec_hash: i for i, rec in enumerate(self.database.records)}

    def perf_per_area(self) -> np.ndarray:
        """(Nc, 8640) img/s/cm2 for every pair."""
        return (1000.0 / self.latency_ms) / (self.area_mm2[None, :] / 100.0)


def load_bundle(
    max_vertices: int = 5,
    use_disk_cache: bool = True,
    cache_dir: Path | None = None,
    platform=None,
) -> SpaceBundle:
    """Build (or reload) the enumerated micro-space bundle.

    ``platform`` (a :class:`repro.hw.HardwarePlatform`) supplies the
    area/latency models and the configuration space; the default is
    the reference ``dac2020`` platform.  Non-reference platforms cache
    under a namespace-tagged filename so differently modelled bundles
    never collide on disk.  A warm file is used only after the drift
    check of the module docstring passes.
    """
    platform = platform or default_platform()
    key = (max_vertices, platform.cache_namespace())
    if key in _BUNDLE_MEMO:
        return _BUNDLE_MEMO[key]

    space = platform.config_space()
    cols = space.columns()
    # Vectorized over the full space; bit-identical to the per-config
    # path (tests/accelerator/test_area.py::TestBatchArea).
    area_mm2 = platform.batch_area_mm2(cols)
    tag = (
        ""
        if platform.is_reference
        else "_" + hashlib.md5(platform.cache_namespace().encode()).hexdigest()[:10]
    )
    cache_file = (cache_dir or default_cache_dir()) / f"bundle_v{max_vertices}{tag}.npz"

    parts = None
    if use_disk_cache and cache_file.exists():
        try:
            parts = _load_parts(cache_file, max_vertices, platform, cols, area_mm2)
        except _BundleDrift as drift:
            warnings.warn(f"{cache_file}: {drift}; rebuilding it", stacklevel=2)
    if parts is None:
        parts = _build_parts(max_vertices, platform, cols, area_mm2)
        if use_disk_cache:
            _save_parts(cache_file, max_vertices, area_mm2, *parts)

    database, latency_ms, front_cells, front_configs = parts
    accuracy = database.accuracies()
    bundle = SpaceBundle(
        database=database,
        cell_encoding=CellEncoding(max_vertices=max_vertices),
        space=space,
        accuracy=accuracy,
        area_mm2=area_mm2,
        latency_ms=latency_ms,
        bounds=MetricBounds.from_arrays(area_mm2, latency_ms, accuracy),
        front=ProductParetoResult.from_indices(
            front_cells, front_configs, accuracy, area_mm2, latency_ms
        ),
        platform=platform,
    )
    _BUNDLE_MEMO[key] = bundle
    return bundle


class _BundleDrift(Exception):
    """A bundle file field is unreadable or disagrees with the live code."""


def _latency_row(platform, spec: ModelSpec, cols) -> np.ndarray:
    """One cell's latency (ms) over the space, at the file's float32."""
    ir = compile_cell_ops(spec, CIFAR10_SKELETON)
    return (platform.batch_network_latency_s(ir, cols) * 1e3).astype(np.float32)


def _build_parts(max_vertices: int, platform, cols, area_mm2: np.ndarray):
    """Cold path: enumerate, score, tabulate latency and find the front."""
    database = CellDatabase.from_specs(enumerate_unique_cells(max_vertices))
    latency = np.empty((len(database), len(area_mm2)), dtype=np.float32)
    for i, record in enumerate(database.records):
        latency[i] = _latency_row(platform, record.spec, cols)
    # The file stores float32; the fresh build goes through the same
    # precision so it is bit-identical to every warm reload after it.
    latency_ms = latency.astype(np.float64)
    front = product_space_pareto(database.accuracies(), area_mm2, latency_ms)
    return database, latency_ms, front.cell_indices, front.config_indices


def _save_parts(
    cache_file: Path,
    max_vertices: int,
    area_mm2: np.ndarray,
    database: CellDatabase,
    latency_ms: np.ndarray,
    front_cells: np.ndarray,
    front_configs: np.ndarray,
) -> None:
    """Atomically write the bundle file (pid-suffixed tmp + ``os.replace``)."""
    records = database.records
    n = len(records)
    matrix = np.zeros((n, max_vertices, max_vertices), dtype=np.int8)
    num_vertices = np.empty(n, dtype=np.int8)
    ops = np.full((n, max_vertices), -1, dtype=np.int8)
    for i, record in enumerate(records):
        k = len(record.spec.original_ops)
        matrix[i, :k, :k] = record.spec.original_matrix
        num_vertices[i] = k
        ops[i, :k] = [_OP_CODES.index(op) for op in record.spec.original_ops]
    cache_file.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache_file.with_suffix(f".tmp{os.getpid()}.npz")
    try:
        np.savez_compressed(
            tmp,
            format=np.int64(BUNDLE_FORMAT),
            latency_ms=latency_ms.astype(np.float32),
            area_mm2=area_mm2,
            matrix=matrix,
            num_vertices=num_vertices,
            ops=ops,
            spec_hash=np.array([r.spec_hash for r in records], dtype=str),
            features=np.stack([r.features.as_vector() for r in records]),
            front_cells=front_cells,
            front_configs=front_configs,
            **{stat: np.array([getattr(r, stat) for r in records]) for stat in _STATS},
        )
        os.replace(tmp, cache_file)
    finally:
        tmp.unlink(missing_ok=True)


def _same_bits(live, stored: np.ndarray) -> bool:
    """``live`` at ``stored``'s dtype has exactly ``stored``'s bytes."""
    live = np.asarray(live, dtype=stored.dtype)
    return live.shape == stored.shape and live.tobytes() == stored.tobytes()


def _load_parts(cache_file: Path, max_vertices: int, platform, cols, area_mm2):
    """Warm path: read the file, run the drift check, rebuild the records."""
    try:
        with np.load(cache_file, allow_pickle=False) as npz:
            data = {name: npz[name] for name in npz.files}
        version = int(data["format"])
        n = len(data["spec_hash"])
        shapes = {
            "latency_ms": (n, len(area_mm2)),
            "area_mm2": area_mm2.shape,
            "matrix": (n, max_vertices, max_vertices),
            "num_vertices": (n,),
            "ops": (n, max_vertices),
            "features": (n, len(CellFeatures.__dataclass_fields__)),
            **{name: (n,) for name in _STATS},
            "front_configs": data["front_cells"].shape,
        }
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as err:
        raise _BundleDrift(f"unreadable ({type(err).__name__}: {err})") from None
    if version != BUNDLE_FORMAT:
        raise _BundleDrift(f"field 'format' is {version}, not {BUNDLE_FORMAT}")
    for name, shape in shapes.items():
        if data[name].shape != shape:
            raise _BundleDrift(
                f"field {name!r} has shape {data[name].shape}, not {shape}"
            )
    if not _same_bits(area_mm2, data["area_mm2"]):
        raise _BundleDrift("field 'area_mm2' differs from the live area model")

    specs = [
        ModelSpec(matrix[:k, :k], tuple(_OP_CODES[c] for c in ops[:k]))
        for matrix, ops, k in zip(
            data["matrix"], data["ops"], data["num_vertices"].tolist()
        )
    ]
    surrogate = Cifar10Surrogate()
    sample = np.linspace(0, n - 1, min(n, DRIFT_SAMPLE_ROWS)).round().astype(int)
    for i in np.unique(sample):
        _check_row(i, specs[i], data, surrogate, platform, cols)

    records = [
        CellRecord(spec, spec_hash, CellFeatures.from_vector(features), *stats)
        for spec, spec_hash, features, *stats in zip(
            specs,
            data["spec_hash"].tolist(),
            data["features"],
            *(data[name].tolist() for name in _STATS),
        )
    ]
    latency_ms = data["latency_ms"].astype(np.float64)
    database = CellDatabase(records, surrogate)
    return database, latency_ms, data["front_cells"], data["front_configs"]


def _check_row(i: int, spec: ModelSpec, data: dict, surrogate, platform, cols):
    """Re-derive stored row ``i`` through live code; raise on any drift."""
    if not spec.valid:
        raise _BundleDrift(f"field 'matrix' row {i} is not a valid cell")
    spec_hash = spec.spec_hash()
    features = extract_features(spec)
    live = {
        "spec_hash": spec_hash,
        "features": features.as_vector(),
        **dict(zip(_STATS, surrogate._stats(features, spec_hash))),
        "latency_ms": _latency_row(platform, spec, cols),
    }
    for name, value in live.items():
        if not _same_bits(value, data[name][i]):
            raise _BundleDrift(f"field {name!r} row {i} differs from the live model")
