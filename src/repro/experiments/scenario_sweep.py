"""Run named service scenarios through the experiments runner.

The campaign service's scenario library
(:mod:`repro.service.scenarios`) is addressable from experiments too:
``python -m repro.experiments.runner smoke scenarios`` expands every
named scenario at the requested scale and executes it through the same
execution call as the sweeps (workers, farm hosts, retries and point
timeout all honoured) — so a scenario run here, by the service, or via
``repro submit`` produces (and reuses) identical cache entries.
"""

from __future__ import annotations

from repro.experiments.common import Scale, get_scale
from repro.farm.executor import execute_points
from repro.service.scenarios import SCENARIOS, build_campaign
from repro.sim.parallel import ResultCache, get_default_execution
from repro.util.progress import ProgressReporter


def run(scale: str | Scale = "smoke",
        names: list[str] | None = None) -> list[dict]:
    """Execute each named scenario's campaign; one summary row each."""
    sc = get_scale(scale)
    execution = get_default_execution()
    cache = ResultCache(execution.cache_dir) if execution.use_cache else None
    rows = []
    for name in names if names is not None else list(SCENARIOS):
        spec = build_campaign(name, sc)
        counts = ProgressReporter(total=len(spec.configs), enabled=False)
        results = execute_points(spec.configs, spec.warmup, spec.measure,
                                 execution, cache=cache, reporter=counts,
                                 name=spec.name)
        rows.append({
            "scenario": name,
            "category": SCENARIOS[name].category,
            "points": len(results),
            "cached": counts.cache_hits,
            "peak_throughput": max(r.throughput_fpc for r in results),
            "deadlocks": sum(r.deadlocks for r in results),
            "delivered": sum(r.messages_delivered for r in results),
        })
    return rows


def main(scale: str = "smoke") -> None:
    rows = run(scale)
    print("\n== Scenario library: every named campaign ==")
    print(f"{'scenario':24s} {'category':12s} {'pts':>4s} {'cache':>5s}"
          f" {'peak':>7s} {'dlk':>5s} {'deliv':>7s}")
    for row in rows:
        print(f"{row['scenario']:24s} {row['category']:12s}"
              f" {row['points']:4d} {row['cached']:5d}"
              f" {row['peak_throughput']:7.4f} {row['deadlocks']:5d}"
              f" {row['delivered']:7d}")
    print("every scenario resolved, expanded and executed by name;"
          " points shared with the service through the result cache")


if __name__ == "__main__":
    main()
