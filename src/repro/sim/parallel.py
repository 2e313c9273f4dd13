"""Sweep-point execution with an on-disk result cache.

Every (config, load) point of a sweep is independent and deterministic
— the engine derives all randomness from ``config.seed`` via
:func:`repro.util.rng.make_rng` — so points can fan out across worker
processes and still produce results bit-identical to a serial run.
This module owns what every front end shares: the cache key
(:func:`point_key`), the keyed JSON cache under ``.repro_cache/``
(:class:`ResultCache`) so interrupted paper-scale runs resume instead
of restarting, the pre-schedule dedup (:func:`resolve_points`) and
:func:`run_points`, a thin wrapper over the one dispatch loop in
:mod:`repro.farm` (in-process for one point at a time, a process pool
otherwise).  Crashed points are retried and, if they keep failing,
reported with their config via
:class:`~repro.util.errors.SweepExecutionError`, never silently
dropped.

Cache keys cover the full :class:`~repro.config.SimConfig`, the
warmup/measure window *and* a digest of the package sources
(:func:`code_version`), so editing the simulator invalidates stale
results automatically.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import repro
from repro.config import ExecutionConfig, SimConfig
from repro.sim.results import RunResult
from repro.util.backoff import BackoffPolicy
from repro.util.progress import ProgressReporter

#: default location of the on-disk result cache.
DEFAULT_CACHE_DIR = ".repro_cache"

PointFn = Callable[[SimConfig, int, int], RunResult]

#: pause before each retry of a point so a flapping worker is probed at
#: a geometrically decreasing rate instead of being hammered; jitter
#: draws are seeded, so retry timelines reproduce exactly.
DEFAULT_BACKOFF = BackoffPolicy(base=0.1, factor=2.0, cap=5.0, jitter=0.5)

#: process-wide execution policy; the library default is the legacy
#: behaviour (serial, no cache) so tests and benchmarks are unaffected.
#: The CLI and experiment runner install their own via
#: :func:`set_default_execution`.
_default_execution = ExecutionConfig(workers=1, use_cache=False)


def get_default_execution() -> ExecutionConfig:
    """The execution policy used when a caller does not pass one."""
    return _default_execution


def set_default_execution(execution: ExecutionConfig) -> ExecutionConfig:
    """Install a new process-wide policy; returns the previous one."""
    global _default_execution
    previous = _default_execution
    _default_execution = execution
    return previous


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the ``repro`` package sources, for cache invalidation."""
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def point_key(config: SimConfig, warmup: int, measure: int,
              code: str | None = None) -> str:
    """Stable cache key for one (config, warmup, measure) point.

    ``asdict(config)`` already folds in every config field, but the
    detector configuration is additionally spelled out: two runs that
    differ only in detection mechanism or thresholds produce different
    results, and a key omitting them (as a refactor of the config
    serialization could silently reintroduce) would alias their cache
    entries.  The explicit section makes that collision structurally
    impossible; ``tests/test_parallel.py`` pins it.
    """
    payload = {
        "config": asdict(config),
        "detector": {
            "kind": config.detector,
            "detection_threshold": config.detection_threshold,
            "occupancy_threshold": config.occupancy_threshold,
            "timeout_threshold": config.timeout_threshold,
            "cmh_block_threshold": config.cmh_block_threshold,
            "cmh_probe_interval": config.cmh_probe_interval,
        },
        "warmup": int(warmup),
        "measure": int(measure),
        "code": code if code is not None else code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Keyed on-disk store of :class:`RunResult`s, one JSON file each.

    Writes are atomic (temp file + rename) so concurrent workers — or an
    interrupted run — can never leave a half-written entry behind; a
    corrupt or unreadable file simply reads as a miss.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> RunResult | None:
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text("utf-8"))
            result = RunResult(**payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, config: SimConfig, warmup: int, measure: int,
            result: RunResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "code": code_version(),
            "config": asdict(config),
            "warmup": int(warmup),
            "measure": int(measure),
            "result": result.to_dict(),
        }
        blob = json.dumps(payload, sort_keys=True, default=str, indent=1)
        # Unique temp file per put: concurrent writers of the same key
        # (racing farm twins, a resumed manager next to a live one) must
        # each rename a fully written file, so readers see one complete
        # entry or another — never an interleaved one.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp_name, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


@dataclass
class PointResolution:
    """The cache's answer for a batch of points: hits, keys, misses.

    This is the one dedup implementation shared by every front end
    (:func:`run_points`, farm runs, ``farm status`` and the campaign
    service's pre-schedule dedup): every consumer sees the same keys, so
    a point computed by any of them is a hit for all.
    """

    #: cache key per point, in input order.
    keys: list[str]
    #: cache hit per point (None where the cache missed).
    results: list[RunResult | None]
    #: indices of the points still to compute, in input order.
    missing: list[int]

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def cached(self) -> int:
        return self.total - len(self.missing)


def resolve_points(
    configs: Sequence[SimConfig],
    warmup: int,
    measure: int,
    cache: ResultCache | None,
    *,
    keys: Sequence[str] | None = None,
) -> PointResolution:
    """Resolve a batch of points against the cache (dedup, no execution).

    With ``cache=None`` every point is a miss (the keys are still
    computed, so callers can schedule and later write back).  ``keys``
    lets callers that already hold the batch's keys skip recomputing
    the config digests.
    """
    if keys is None:
        keys = [point_key(config, warmup, measure) for config in configs]
    else:
        keys = list(keys)
        if len(keys) != len(configs):
            raise ValueError(
                f"{len(keys)} keys for {len(configs)} configs"
            )
    resolution = PointResolution(
        keys=keys, results=[None] * len(keys), missing=[]
    )
    for idx, key in enumerate(keys):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            resolution.results[idx] = hit
        else:
            resolution.missing.append(idx)
    return resolution


def run_points(
    configs: Sequence[SimConfig],
    warmup: int,
    measure: int,
    workers: int = 1,
    *,
    cache: ResultCache | None = None,
    retries: int = 1,
    point_fn: PointFn | None = None,
    reporter: ProgressReporter | None = None,
    timeout: float | None = None,
    backoff: BackoffPolicy | None = None,
) -> list[RunResult]:
    """Run every config's point on up to ``workers`` local processes.

    A thin wrapper over :func:`repro.farm.executor.execute_points`, the
    dispatch loop shared with farm sweeps and service jobs.  Results
    come back in input order; cached points never touch the engine and
    executed ones are written back to ``cache``.  A point that raises
    (or whose process dies) is retried up to ``retries`` more times,
    each after ``backoff.delay(attempt, key=f"point{idx}")``; then the
    batch raises :class:`~repro.util.errors.SweepExecutionError` naming
    each failed config with its original exception, while finished
    points stay cached so a rerun resumes.

    With ``timeout`` set, a point running longer than that many
    wall-clock seconds has its process killed (its siblings run on) and
    is retried like a crashed point, finally surfacing as a
    :class:`~repro.util.errors.PointTimeoutError`.  Timed execution
    always uses worker processes (even with ``workers=1``) because an
    in-process point cannot be killed.
    """
    from repro.farm.executor import execute_points

    execution = ExecutionConfig(workers=max(1, workers), retries=retries,
                                point_timeout=timeout)
    return execute_points(configs, warmup, measure, execution, cache=cache,
                          reporter=reporter, point_fn=point_fn,
                          backoff=backoff)
