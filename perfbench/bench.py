"""Measurement loop, the correctness gate and the metric tables.

A run times the set-up, then runs every engine window on both backends
and each front end (pool, farm, service) once; that first pass always
runs whole, so every window and every front end is checked at least
once.  Spare time up to ``--seconds`` alternates between the front end
with the fewest samples and a repeat of the next window, each task only
while its last duration still fits.  Timings are reported as medians
over the run's samples.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from engines import BACKENDS, TAG, WindowRun, build_both, prepare, run_window
from frontends import (
    WORKERS,
    ServiceProcess,
    farm_cold,
    pool_cold,
    resolve,
    span,
    warm_pass,
)
from hostspeed import HostClock
from spans import SpanRecorder
from workloads import Workload

from repro.sim.parallel import ResultCache

#: service starts timed before the first task of the campaign workload,
#: and engine-pair builds timed for the engine workloads.
SETUP_REPEATS = 5
BUILD_REPEATS = 7
#: warm resubmissions per pool run (one takes a few ms).
WARM_REPEATS = 40
#: calibrations on each side of a short batch; the median of five
#: halved the run-to-run spread of warm resubmission times.
BATCH_READINGS = 5

END_TO_END_UNITS = {
    "ref_cycles_per_s": "cycles/s",
    "vec_cycles_per_s": "cycles/s",
    "sim_throughput_fpc": "flits/node/cycle",
    "sim_latency_cycles": "cycles",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pool_cold_s": "s",
    "warm_us_per_point": "us/point",
    "job_done_s": "s",
}

PER_LAYER_UNITS = {
    "traffic.ref_us_per_cycle": "us/cycle",
    "traffic.vec_us_per_cycle": "us/cycle",
    "traffic.messages_created": "count",
    "endpoint.ref_us_per_cycle": "us/cycle",
    "endpoint.vec_us_per_cycle": "us/cycle",
    "endpoint.messages_serviced": "count",
    "endpoint.txns_completed": "count",
    "endpoint.mc_busy_frac": "ratio",
    "fabric.ref_us_per_cycle": "us/cycle",
    "fabric.vec_us_per_cycle": "us/cycle",
    "fabric.flits_forwarded": "count",
    "fabric.alloc_failures": "count",
    "fabric.channel_util": "ratio",
    "scheme.ref_us_per_cycle": "us/cycle",
    "scheme.detections": "count",
    "scheme.recoveries": "count",
    "scheme.pr_rescues": "count",
    "scheme.dr_deflections": "count",
    "scheme.recovery_ratio": "ratio",
    "cache.miss_resolve_us_per_point": "us/point",
    "cache.hit_resolve_us_per_point": "us/point",
    "cache.put_ms": "ms",
    "pool.point_s": "s",
    "pool.overhead_ms_per_point": "ms/point",
    "farm.cold_s": "s",
    "farm.overhead_ms_per_point": "ms/point",
    "service.submit_ms": "ms",
    "service.first_progress_ms": "ms",
    "service.sse_events": "count",
    "service.warm_done_ms": "ms",
    "trace.overhead_frac": "ratio",
}

#: span run id of everything outside the engine windows.
CAMPAIGN_RUN = "campaign/"

#: engine layer -> the span whose self time is that layer's.
ENGINE_LAYERS = {
    "traffic": "traffic.step",
    "endpoint": "engine.step",
    "fabric": "fabric.step",
    "scheme": "scheme.step",
}


@dataclass
class Gate:
    """Attempted and failed operations: engine runs, campaign points and
    service jobs.  Any failure makes the run incorrect."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, ops: int = 1) -> bool:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.problems.append(what)
        return ok


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload: Workload, root: Path, workdir: Path,
                 seconds: float, traced: bool) -> None:
        self.w = workload
        self.root = root
        self.workdir = workdir
        self.seconds = seconds
        self.traced = traced
        self.gate = Gate()
        self.recorder = SpanRecorder(CAMPAIGN_RUN) if traced else None
        #: backend -> window index -> first run (the reference answer).
        self.first: dict[str, dict[int, WindowRun]] = {b: {} for b in BACKENDS}
        #: samples per metric name, appended as tasks run.
        self.samples: dict[str, list[float]] = {}
        #: traced runs: untraced and traced CPU seconds, traced cycles,
        #: and the counts of each window's traced run.
        self.cpu = {"plain": 0.0, "traced": 0.0}
        #: backend -> window index -> rescaled CPU seconds of each run.
        self.window_cpu: dict[str, dict[int, list[float]]] = {
            b: {} for b in BACKENDS}
        self.layer = {b: {"cycles": 0, "windows": 0, "raw_cpu_s": 0.0,
                          "cpu_s": 0.0} for b in BACKENDS}
        self.clock = HostClock()
        #: the campaign workload's set-up is a service start.
        self.serves_setup = workload.name == "campaign-ladder"
        self.traced_counts: dict[int, dict[str, int]] = {}
        #: in-worker point times of the latest pool run (traced runs).
        self.point_s: list[float] = []
        self._dirs = 0

    # ------------------------------------------------------------------
    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def execute(self) -> None:
        prepare()
        if self.serves_setup:
            for _ in range(SETUP_REPEATS):
                with self.clock.sampling() as host:
                    server = ServiceProcess(self.root, self.fresh_dir("setup"))
                self.sample("setup_s", server.setup_s * host["factor"])
                server.stop()
        else:
            for _ in range(BUILD_REPEATS):
                self.clock.restart(BATCH_READINGS)
                self.sample("setup_s", self.clock.scale(
                    build_both(self.w.windows[0]), BATCH_READINGS))
        windows = [(self._window, (i, backend))
                   for i in range(len(self.w.windows)) for backend in BACKENDS]
        frontends = [(self._pool, ()), (self._farm, ()), (self._service, ())]
        deadline = time.perf_counter() + self.seconds
        took: dict[tuple, float] = {}
        runs: dict[tuple, int] = {}

        def run(task) -> None:
            fn, args = task
            # Garbage left by earlier tasks would otherwise be collected
            # at some arbitrary point inside a timed one.
            gc.collect()
            start = time.perf_counter()
            try:
                fn(*args)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.gate.check(False, f"{fn.__name__}{args}: "
                                f"{type(exc).__name__}: {exc}")
            took[task] = time.perf_counter() - start
            runs[task] = runs.get(task, 0) + 1

        def fits(task) -> bool:
            return took[task] <= deadline - time.perf_counter()

        for task in windows + frontends:
            run(task)
        # One pass over the windows already steadies the engine figures;
        # one campaign through a front end varies by about a fifth from
        # one try to the next.  So spare time goes to the front end with
        # the fewest samples, alternating with window repeats.
        turn = 0
        while True:
            ready = [task for task in frontends if fits(task)]
            if ready:
                run(min(ready, key=runs.__getitem__))
            waiting = [task for task in windows if fits(task)]
            if waiting:
                run(waiting[turn % len(waiting)])
                turn += 1
            elif not ready:
                break

    # ------------------------------------------------------------------
    def _window(self, i: int, backend: str) -> None:
        config = self.w.windows[i]
        tag = TAG[backend]
        run = run_window(config, self.w.warmup, self.w.measure, backend,
                         self.clock)
        self.window_cpu[backend].setdefault(i, []).append(run.cpu_s)
        what = f"window {i} ({config.scheme} seed {config.seed}) {backend}"
        first = self.first[backend].setdefault(i, run)
        ok = run.result == first.result and run.counts == first.counts
        other = self.first[BACKENDS[1 - BACKENDS.index(backend)]].get(i)
        if other is not None:
            # Bit-identical backends: RunResult, flit and scheme counters.
            ok = ok and run.result == other.result and (
                run.counts == other.counts)
        self.gate.check(ok, f"{what}: result differs across runs/backends")
        if not self.traced:
            return
        self.recorder.run_id = f"{tag}/w{i}"
        traced = run_window(config, self.w.warmup, self.w.measure, backend,
                            self.clock, self.recorder)
        self.recorder.run_id = CAMPAIGN_RUN
        self.cpu["plain"] += run.cpu_s
        self.cpu["traced"] += traced.cpu_s
        layer = self.layer[backend]
        layer["cycles"] += traced.cycles
        layer["windows"] += 1
        layer["raw_cpu_s"] += traced.raw_cpu_s
        layer["cpu_s"] += traced.cpu_s
        self.traced_counts.setdefault(i, traced.counts)
        self.gate.check(
            traced.result == run.result and traced.counts == run.counts,
            f"{what}: traced run differs from untraced",
        )

    def expected(self) -> list:
        """Direct-engine results for the campaign's points."""
        by_config = {}
        for backend, runs in self.first.items():
            for i, run in runs.items():
                by_config[replace(self.w.windows[i], backend=backend)] = run.result
        return [by_config.get(c) for c in self.w.campaign.configs]

    def _compare(self, label: str, results: list) -> None:
        for config, got, want in zip(self.w.campaign.configs, results,
                                     self.expected()):
            self.gate.check(
                want is not None and got == want,
                f"{label}: point {config.scheme}@{config.load} differs"
                " from the direct engine run",
            )

    def _pool(self) -> None:
        """Cold pool, then warm resubmissions on the cache it wrote."""
        spec = self.w.campaign
        rec = self.recorder
        if rec is not None:
            empty = ResultCache(self.fresh_dir("empty"))
            self._batch("cache.miss_resolve_us_per_point",
                        lambda: resolve(spec, empty, rec))
        with self.clock.sampling() as host:
            pool = pool_cold(spec, self.fresh_dir("pool"), rec)
        self.sample("pool_cold_s", pool.wall_s * host["factor"])
        self._compare("pool", pool.results)
        warm: list = []
        self._batch("warm_us_per_point",
                    lambda: warm_pass(spec, pool.cache, warm))
        self._compare("warm", warm)
        if rec is not None:
            self._batch("cache.hit_resolve_us_per_point",
                        lambda: resolve(spec, pool.cache, rec))
            self._layer_pool(pool)
        shutil.rmtree(pool.cache.root, ignore_errors=True)

    def _farm(self) -> None:
        with self.clock.sampling() as host:
            results, wall = farm_cold(self.w.campaign, self.fresh_dir("farm"),
                                      self.recorder)
        self.sample("farm.cold_s", wall * host["factor"])
        self._compare("farm", results)
        if self.recorder is not None:
            # Point times are measured inside the pool's workers, so a
            # front end's overhead is the worker time it held beyond them.
            self.sample("farm.overhead_ms_per_point",
                        (wall * WORKERS - sum(self.point_s)) / len(self.point_s)
                        * 1e3)

    def _service(self) -> None:
        job, factor = self._serve("service.cold_job")
        self.sample("job_done_s", job.done_s * factor)
        if self.recorder is not None:
            self.sample("service.submit_ms", job.submit_ms)
            if job.first_progress_ms is not None:
                self.sample("service.first_progress_ms",
                            job.first_progress_ms)
            self.sample("service.sse_events", len(job.events))

    def _batch(self, name: str, timed) -> None:
        """``WARM_REPEATS`` calls of ``timed`` (each returns its seconds),
        rescaled as one batch and sampled as µs per campaign point."""
        self.clock.restart(BATCH_READINGS)
        walls = [timed() for _ in range(WARM_REPEATS)]
        factor = self.clock.scale(1.0, BATCH_READINGS)
        points = len(self.w.campaign.configs)
        for wall in walls:
            self.sample(name, wall * factor / points * 1e6)

    def _layer_pool(self, pool) -> None:
        """Per-layer figures of one pool run (traced runs only)."""
        self.point_s = pool.point_s
        self.sample("pool.point_s", statistics.median(pool.point_s))
        self.sample("pool.overhead_ms_per_point",
                    (pool.wall_s * WORKERS - sum(pool.point_s))
                    / len(pool.point_s) * 1e3)
        warm_job, _ = self._serve("service.warm_job", pool.cache.root)
        self.sample("service.warm_done_ms", warm_job.done_s * 1e3)

    def _serve(self, label: str, cache_dir: Path | None = None):
        """The campaign through a freshly started service.

        Returns the job and the host-speed factor of its run.  The
        service start is a ``setup_s`` sample of the campaign workload.
        """
        with span(self.recorder, label):
            with self.clock.sampling() as host:
                server = ServiceProcess(self.root, self.fresh_dir("service"),
                                        cache_dir)
            try:
                with self.clock.sampling() as job_host:
                    job = server.run_job(self.w.campaign)
            finally:
                server.stop()
        if self.serves_setup and cache_dir is None:
            self.sample("setup_s", server.setup_s * host["factor"])
        if self.gate.check(job.state == "done",
                           f"{label}: job ended {job.state}"):
            self._compare(label, job.results)
        return job, job_host["factor"]

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """Metric -> (value, sample count); metrics without samples are
        left out."""
        results = [r.result for _, r in sorted(self.first["reference"].items())]
        out = {
            "sim_throughput_fpc": _summary(
                [r.throughput_fpc for r in results], statistics.fmean),
            "sim_latency_cycles": _summary([r.mean_latency for r in results]),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        for backend, runs in self.window_cpu.items():
            if runs:
                # Each window counts once, at the median of its repeats,
                # so partial passes do not change the mix of windows.
                cycles = self.w.warmup + self.w.measure
                cpu = sum(statistics.median(v) for v in runs.values())
                out[f"{TAG[backend]}_cycles_per_s"] = (
                    cycles * len(runs) / cpu,
                    sum(len(v) for v in runs.values()))
        for name in END_TO_END_UNITS:
            if name in self.samples:
                out[name] = _summary(self.samples[name])
        return {k: v for k, v in out.items() if v is not None}

    def per_layer(self) -> dict[str, tuple[float, int]]:
        rec = self.recorder
        out: dict[str, tuple[float, int]] = {}
        for backend in BACKENDS:
            tag = TAG[backend]
            layer = self.layer[backend]
            # Span times are wall clock; rescale them like the CPU time
            # of the traced windows they fall in.
            if not layer["windows"]:
                continue
            factor = layer["cpu_s"] / layer["raw_cpu_s"]
            self_s = rec.self_times(f"{tag}/")
            for name, span_name in ENGINE_LAYERS.items():
                if name == "scheme" and backend == "vector":
                    continue
                out[f"{name}.{tag}_us_per_cycle"] = (
                    self_s.get(span_name, 0.0) * factor / layer["cycles"]
                    * 1e6, layer["windows"])
        windows = len(self.traced_counts)
        total = {k: sum(c[k] for c in self.traced_counts.values())
                 for k in next(iter(self.traced_counts.values()), {})}
        for name in ("traffic.messages_created", "endpoint.messages_serviced",
                     "endpoint.txns_completed", "fabric.flits_forwarded",
                     "fabric.alloc_failures", "scheme.detections",
                     "scheme.recoveries", "scheme.pr_rescues",
                     "scheme.dr_deflections"):
            out[name] = (total.get(name, 0), windows)
        node_cycles = sum(c["nodes"] * c["cycles"]
                          for c in self.traced_counts.values())
        link_cycles = sum(c["links"] * c["cycles"]
                          for c in self.traced_counts.values())
        out["endpoint.mc_busy_frac"] = (
            total.get("endpoint.busy_cycles", 0) / max(node_cycles, 1), windows)
        out["fabric.channel_util"] = (
            total.get("fabric.flits_forwarded", 0) / max(link_cycles, 1),
            windows)
        detections = total.get("scheme.detections", 0)
        out["scheme.recovery_ratio"] = (
            total.get("scheme.recoveries", 0) / detections if detections
            else 0.0, windows)
        self.samples["cache.put_ms"] = [
            put * 1e3 for put in rec.durations("cache.put")]
        for name in self.samples:
            if name in PER_LAYER_UNITS:
                out[name] = _summary(self.samples[name])
        out["trace.overhead_frac"] = (
            self.cpu["traced"] / self.cpu["plain"] - 1
            if self.cpu["plain"] else 0.0, windows)
        return {k: v for k, v in out.items() if v is not None}


def _summary(values: list[float], center=statistics.median):
    return (center(values), len(values)) if values else None


def report(run: Run) -> dict:
    """Print the metric table; return the result line's object."""
    if run.traced:
        table, units = run.per_layer(), PER_LAYER_UNITS
        print(f"self time per span, {run.w.name} (traced):")
        for prefix in ("ref/", "vec/", CAMPAIGN_RUN):
            for name, secs in sorted(run.recorder.self_times(prefix).items()):
                print(f"  {prefix:10s} {name:20s} {secs:9.3f} s")
    else:
        table, units = run.end_to_end(), END_TO_END_UNITS
    gate = run.gate
    print(f"{'metric':34s} {'value':>14s} {'unit':16s} samples")
    for name, unit in units.items():
        if gate.check(name in table, f"{name}: no samples", ops=0):
            value, count = table[name]
            print(f"{name:34s} {value:14.6g} {unit:16s} {count}")
    print(f"failed_frac {gate.failed}/{gate.attempted} operations")
    for problem in gate.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": table[name][0], "unit": unit}
                    for name, unit in units.items() if name in table},
    }
