"""One campaign through the process pool, the farm and the service.

Every cold run gets an empty cache directory, so points are computed
and the cache is written; warm runs only read a filled cache.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.farm import farm_run_points, parse_hosts
from repro.farm.plan import CampaignSpec
from repro.service.client import ServiceClient
from repro.sim.parallel import ResultCache, resolve_points, run_points
from repro.sim.results import RunResult
from repro.util.progress import ProgressReporter

WORKERS = os.cpu_count() or 1


class _PointTimes(ProgressReporter):
    """Keeps the in-worker time ``run_points`` reports for each point."""

    def __init__(self, total: int) -> None:
        super().__init__(total=total, enabled=False)
        self.elapsed: list[float] = []

    def update(self, *, cached: bool = False, elapsed: float = 0.0,
               failed: bool = False) -> None:
        super().update(cached=cached, elapsed=elapsed, failed=failed)
        if not cached and not failed:
            self.elapsed.append(elapsed)


def _cache(directory: Path, recorder) -> ResultCache:
    cache = ResultCache(directory)
    if recorder is not None:
        recorder.wrap(cache, "put", "cache.put")
    return cache


def span(recorder, name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


@dataclass
class PoolRun:
    results: list[RunResult]
    wall_s: float
    point_s: list[float]
    cache: ResultCache


def pool_cold(spec: CampaignSpec, cache_dir: Path, recorder=None) -> PoolRun:
    cache = _cache(cache_dir, recorder)
    reporter = _PointTimes(len(spec.configs))
    with span(recorder, "pool.run_points"):
        start = time.perf_counter()
        results = run_points(spec.configs, spec.warmup, spec.measure,
                             workers=WORKERS, cache=cache, reporter=reporter)
        wall = time.perf_counter() - start
    return PoolRun(results, wall, reporter.elapsed, cache)


def farm_cold(spec: CampaignSpec, cache_dir: Path,
              recorder=None) -> tuple[list[RunResult], float]:
    cache = _cache(cache_dir, recorder)
    hosts = parse_hosts(f"local:{WORKERS}")
    with span(recorder, "farm.run_points"):
        start = time.perf_counter()
        results = farm_run_points(spec.configs, spec.warmup, spec.measure,
                                  hosts, cache=cache, name=spec.name)
        wall = time.perf_counter() - start
    return results, wall


def warm_pass(spec: CampaignSpec, cache: ResultCache,
              results: list) -> float:
    """Seconds for the campaign resubmitted to ``run_points`` with every
    point cached; ``results`` receives what it returned."""
    start = time.perf_counter()
    results[:] = run_points(spec.configs, spec.warmup, spec.measure,
                            workers=WORKERS, cache=cache)
    return time.perf_counter() - start


def resolve(spec: CampaignSpec, cache: ResultCache, recorder) -> float:
    """Seconds for one ``resolve_points`` over the campaign."""
    with recorder.span("cache.resolve"):
        start = time.perf_counter()
        resolve_points(spec.configs, spec.warmup, spec.measure, cache)
        return time.perf_counter() - start


@dataclass
class JobRun:
    state: str
    results: list[RunResult]
    done_s: float
    submit_ms: float
    first_progress_ms: float | None
    events: list[str] = field(default_factory=list)


class ServiceProcess:
    """``repro serve`` in a child process on a free 127.0.0.1 port."""

    def __init__(self, root: Path, workdir: Path,
                 cache_dir: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONUNBUFFERED="1")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(cache_dir or workdir / "cache"),
             "--jobs-dir", str(workdir / "jobs")],
            cwd=workdir, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"service did not start: {line!r}")
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            self.client = ServiceClient(port=port, timeout=120.0)
            self.client.health()
        except BaseException:
            self.kill()
            raise
        #: service start until the first /api/health answer.
        self.setup_s = time.perf_counter() - start

    def run_job(self, spec: CampaignSpec) -> JobRun:
        """POST the campaign, follow its SSE stream until ``done``."""
        start = time.perf_counter()
        job_id = self.client.submit(spec=spec.to_dict())["job"]["id"]
        submit_ms = (time.perf_counter() - start) * 1e3
        first_progress = None
        events = []
        done_s = None
        for event, _data, _id in self.client.stream_events(job_id):
            events.append(event)
            if event == "progress" and first_progress is None:
                first_progress = (time.perf_counter() - start) * 1e3
            if event == "done":
                done_s = time.perf_counter() - start
        if done_s is None:
            raise RuntimeError(f"job {job_id} stream ended without done")
        job = self.client.job(job_id, results=True)
        results = [RunResult(**r) for r in job["results"] if r is not None]
        return JobRun(job["state"], results, done_s, submit_ms,
                      first_progress, events)

    def stop(self) -> None:
        try:
            self.client.shutdown()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
