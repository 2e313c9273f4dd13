"""Load sweeps producing Burton-Normal-Form throughput/latency curves.

Each sweep point builds a fresh engine (independent warm-up and
measurement, as in the paper: "each run lasts for 30,000 simulation
cycles beyond steady state") and records a
:class:`~repro.sim.results.RunResult`.  A sweep can stop early once the
network is clearly past saturation to save time.

Points are dispatched through the one execution call of
:mod:`repro.farm.executor`, so a sweep can fan out across worker
processes or farm hosts and reuse cached results while staying
bit-identical to a serial run: early stopping is preserved by
dispatching loads in chunks as wide as the hosts' slots, lowest loads
first, and truncating the curve at the same point a serial sweep
would.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.config import ExecutionConfig, SimConfig
from repro.sim.engine import build_engine
from repro.sim.parallel import ResultCache, get_default_execution
from repro.sim.results import RunResult, SweepResult
from repro.util.progress import ProgressReporter


def run_point(config: SimConfig, warmup: int, measure: int) -> RunResult:
    """Run one (config, load) point and summarize the window."""
    engine = build_engine(config)
    window = engine.run_measured(warmup, measure)
    return summarize_window(config, engine, window)


def summarize_window(config: SimConfig, engine, window) -> RunResult:
    """Fold one measured window into a :class:`RunResult`.

    Shared by :func:`run_point` and the campaign service's traced
    point execution (:mod:`repro.service.jobs`), so a streamed job and
    a plain sweep summarize identically by construction.
    """
    nodes = engine.topology.num_nodes
    return RunResult(
        scheme=config.scheme,
        pattern=config.pattern,
        num_vcs=config.num_vcs,
        load=config.load,
        cycles=window.cycles,
        messages_delivered=window.messages_delivered,
        throughput_fpc=window.throughput_fpc(nodes),
        mean_latency=window.mean_latency(),
        latency_max=window.latency_max,
        deadlocks=window.deadlocks + window.deadlocks_unresolved,
        normalized_deadlocks=window.normalized_deadlocks(),
        transactions_completed=window.transactions_completed,
        mean_txn_latency=(
            window.txn_latency_sum / window.transactions_completed
            if window.transactions_completed
            else 0.0
        ),
        queue_mode=config.queue_mode,
    )


def run_sweep(
    config: SimConfig,
    loads: Sequence[float],
    warmup: int = 3000,
    measure: int = 10000,
    label: str | None = None,
    stop_past_saturation: bool = True,
    execution: ExecutionConfig | None = None,
) -> SweepResult:
    """Run ``config`` across the applied loads, lowest first.

    With ``stop_past_saturation`` the sweep ends once delivered
    throughput drops noticeably below its running maximum — i.e. "a
    point just beyond saturation" (Section 4.3.1).

    ``execution`` controls workers or farm hosts, caching and progress;
    when omitted the process-wide default applies
    (:func:`repro.sim.parallel.get_default_execution`).  Points computed
    past an early stop by a parallel chunk are cached but excluded from
    the curve, so the returned points match a serial sweep exactly.
    """
    # Imported lazily: repro.farm imports repro.sim, whose package init
    # imports this module.
    from repro.farm.executor import execute_points, execution_hosts, farm_width

    execution = execution or get_default_execution()
    label = label or f"{config.scheme}/{config.pattern}/{config.num_vcs}vc"
    cache = ResultCache(execution.cache_dir) if execution.use_cache else None
    reporter = ProgressReporter(
        total=len(loads), label=label, enabled=execution.progress
    )
    sweep = SweepResult(label=label)
    best = 0.0
    ordered = sorted(loads)
    chunk = max(1, farm_width(execution_hosts(execution, len(ordered))))
    try:
        for start in range(0, len(ordered), chunk):
            batch = [config.with_(load=load)
                     for load in ordered[start:start + chunk]]
            points = execute_points(batch, warmup, measure, execution,
                                    cache=cache, reporter=reporter,
                                    name=label)
            for point in points:
                sweep.points.append(point)
                best = max(best, point.throughput_fpc)
                if (
                    stop_past_saturation
                    and len(sweep.points) >= 3
                    and point.throughput_fpc < 0.9 * best
                ):
                    return sweep
    finally:
        reporter.finish()
    return sweep
