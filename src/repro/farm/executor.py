"""Point execution for every front end: hosts in, ordered results out.

:func:`execute_points` is the one execution call behind ``run_points``,
``run_sweep``, the scenario sweep and the campaign service: it resolves
the batch against the cache (one key per point), turns the
:class:`~repro.config.ExecutionConfig` into hosts through
:func:`execution_hosts`, and hands the missing points to a
:class:`~repro.farm.manager.FarmManager` — one set of retry, backoff
and timeout rules, bit-identical results whichever hosts run them.
:func:`farm_run_points` is the same contract for a list of farm hosts.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.config import ExecutionConfig, SimConfig
from repro.farm.manager import FarmManager, FarmPolicy
from repro.farm.plan import CampaignSpec
from repro.farm.workers import (
    ExternalWorker,
    FarmWorker,
    InProcessWorker,
    LocalPoolWorker,
    SSHHostWorker,
)
from repro.sim.parallel import (
    DEFAULT_BACKOFF,
    PointFn,
    ResultCache,
    resolve_points,
)
from repro.sim.results import RunResult
from repro.util.errors import ConfigurationError, SweepExecutionError


def farm_width(workers: Sequence[FarmWorker]) -> int:
    """How many points the farm can hold in flight at once: the sum of
    every host's slots (``local:N`` counts N, a remote host one)."""
    return sum(w.width for w in workers)


def parse_hosts(text: str, *, point_timeout: float | None = None,
                job_timeout: float = 600.0) -> list[FarmWorker]:
    """Build workers from a comma-separated ``--hosts`` specification."""
    workers: list[FarmWorker] = []
    entries = [entry.strip() for entry in text.split(",") if entry.strip()]
    if not entries:
        raise ConfigurationError("empty --hosts specification")
    for n, entry in enumerate(entries):
        kind, _, rest = entry.partition(":")
        if kind == "local":
            width = 1
            if rest:
                if not rest.isdigit() or int(rest) < 1:
                    raise ConfigurationError(
                        f"bad local worker width {rest!r} in {entry!r}"
                    )
                width = int(rest)
            workers.append(LocalPoolWorker(
                f"local{n}", workers=width, point_timeout=point_timeout,
            ))
        elif kind == "ssh":
            if not rest:
                raise ConfigurationError(f"ssh host missing in {entry!r}")
            host, _, python = rest.partition(":")
            workers.append(SSHHostWorker(
                f"ssh{n}:{host}", host, python=python or "python3",
                job_timeout=job_timeout,
            ))
        elif kind == "ext":
            if not rest:
                raise ConfigurationError(f"ext job dir missing in {entry!r}")
            workers.append(ExternalWorker(
                f"ext{n}", rest, job_timeout=job_timeout,
            ))
        else:
            raise ConfigurationError(
                f"unknown host kind {kind!r} in {entry!r}"
                " (expected local/ssh/ext)"
            )
    return workers


def execution_hosts(execution: ExecutionConfig, pending: int,
                    point_fn: PointFn | None = None) -> list[FarmWorker]:
    """The hosts that run ``pending`` points under ``execution``.

    ``farm_hosts`` goes through :func:`parse_hosts`.  Otherwise one
    point at a time runs in-process, and anything wider — or anything
    with a ``point_timeout``, since an in-process point cannot be
    killed — gets a process pool of ``min(workers, pending)`` slots.
    """
    if execution.farm_hosts is not None:
        return parse_hosts(execution.farm_hosts,
                           point_timeout=execution.point_timeout)
    width = max(1, min(execution.workers, pending))
    if width == 1 and execution.point_timeout is None:
        return [InProcessWorker(point_fn=point_fn)]
    return [LocalPoolWorker(workers=width, point_fn=point_fn,
                            point_timeout=execution.point_timeout)]


def execute_points(
    configs: Sequence[SimConfig],
    warmup: int,
    measure: int,
    execution: ExecutionConfig,
    *,
    cache: ResultCache | None,
    reporter=None,
    on_point=None,
    point_fn: PointFn | None = None,
    backoff=None,
    keys: Sequence[str] | None = None,
    name: str = "sweep",
) -> list[RunResult]:
    """Run every config's point under ``execution``; ordered results.

    Cached points never reach an executor.  ``reporter`` sees one
    ``update`` per point (``cached=True``, ``elapsed=`` or
    ``failed=True``); ``on_point(idx, result, elapsed)`` fires as each
    computed point lands; ``keys`` spares recomputing known cache keys.
    Exhausted retries raise :class:`SweepExecutionError` (input index
    -> ``(config, original exception)``); finished points stay cached.
    """
    resolution = resolve_points(configs, warmup, measure, cache, keys=keys)
    if reporter is not None:
        for _ in range(resolution.cached):
            reporter.update(cached=True)
    if not resolution.missing:
        return resolution.results  # type: ignore[return-value]

    def landed(idx: int, result: RunResult, elapsed: float) -> None:
        if reporter is not None:
            reporter.update(elapsed=elapsed)
        if on_point is not None:
            on_point(idx, result, elapsed)

    manager = FarmManager(
        execution_hosts(execution, len(resolution.missing), point_fn),
        cache=cache,
        policy=FarmPolicy(retries=execution.retries,
                          backoff=backoff or DEFAULT_BACKOFF),
    )
    spec = CampaignSpec(configs=tuple(configs), warmup=warmup,
                        measure=measure, shard_size=1, name=name)
    try:
        return manager.run(spec, resolution=resolution, on_point=landed)
    except SweepExecutionError as exc:
        if reporter is not None:
            for _ in exc.failures:
                reporter.update(failed=True)
        raise


def farm_run_points(
    configs: Sequence[SimConfig],
    warmup: int,
    measure: int,
    workers: Sequence[FarmWorker],
    *,
    cache: ResultCache | None = None,
    retries: int = 2,
    policy: FarmPolicy | None = None,
    tracer=None,
    name: str = "sweep",
) -> list[RunResult]:
    """Run every config's point across ``workers``; ordered results.

    Single-point shards keep dispatch granularity identical to
    ``run_points``: a lost host re-costs one point, not a chunk.
    Exhausted retries raise :class:`SweepExecutionError` with per-host
    attribution, exactly like a farm campaign — successful points stay
    in ``cache``, so the rerun resumes.
    """
    spec = CampaignSpec(configs=tuple(configs), warmup=warmup,
                        measure=measure, shard_size=1, name=name)
    return FarmManager(list(workers), cache=cache, tracer=tracer,
                       policy=policy or FarmPolicy(retries=retries)).run(spec)
