"""Asyncio campaign job manager: priorities, dedup, streaming, drain.

A *job* is one :class:`~repro.farm.plan.CampaignSpec` submitted for
execution.  The manager:

* assigns a **deterministic job id** — a digest of the campaign's
  per-point cache keys — so resubmitting the same campaign (same
  scenario, scale, seed, code version) is idempotent: the caller gets
  the existing job back instead of queueing duplicate work;
* **dedups before scheduling** through the shared
  :func:`repro.sim.parallel.resolve_points`, so points already in
  ``.repro_cache`` are filled instantly and never dispatched (a fully
  cached campaign completes without touching the executor at all);
* executes missing points through **one execution call**
  (:func:`repro.farm.executor.execute_points`, shared with
  ``run_points`` and the farm): in-process under a per-point tracer by
  default (live samples + a per-job Perfetto trace), else on a local
  pool (``workers > 1``) or the farm (``farm_hosts``) — one retry
  budget, results bit-identical to ``run_sweep``, and the same
  per-point ``progress`` event on every path;
* streams **progress / sample / status events** through an
  :class:`~repro.service.sse.EventBroker` topic per job id;
* **drains gracefully**: shutdown finishes the running job, then
  persists the still-queued submissions to ``queue.json`` so a
  restarted service resumes them (cached points making the resume
  cheap).
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.config import ExecutionConfig, SimConfig
from repro.farm.executor import execute_points
from repro.farm.plan import CampaignSpec
from repro.sim.parallel import DEFAULT_CACHE_DIR, ResultCache, resolve_points
from repro.sim.results import RunResult
from repro.sim.sweep import summarize_window
from repro.telemetry import Tracer, to_perfetto
from repro.util.errors import UnsupportedFeatureError

#: name of the persisted submission queue inside the jobs directory.
QUEUE_FILENAME = "queue.json"

#: job lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled"
)
_TERMINAL = (DONE, FAILED, CANCELLED)

#: ring-buffer size of each per-point tracer; bounds job trace memory.
TRACE_CAPACITY = 20_000


def job_id_for(spec: CampaignSpec, keys: list[str] | None = None) -> str:
    """Deterministic job id: digest of the campaign's point cache keys.

    Two submissions naming the same points (keys already fold in the
    full config, the window and the code digest) collapse onto one job,
    whatever scenario name or priority they arrived with.  ``keys``
    spares a caller that already holds ``spec.point_keys()`` computing
    them again.
    """
    blob = json.dumps(
        {"keys": keys if keys is not None else spec.point_keys(),
         "warmup": spec.warmup,
         "measure": spec.measure},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass
class Job:
    """One submitted campaign and everything observable about it."""

    id: str
    spec: CampaignSpec
    priority: int = 0
    scenario: str | None = None
    state: str = QUEUED
    seq: int = 0
    #: point indices filled from the cache at submission (the dedup).
    cached_points: list[int] = field(default_factory=list)
    computed: int = 0
    error: str | None = None
    created: float = 0.0
    started: float | None = None
    finished: float | None = None
    results: list[RunResult | None] = field(default_factory=list)
    keys: list[str] = field(default_factory=list)
    trace_path: str | None = None

    @property
    def total(self) -> int:
        return len(self.spec.configs)

    @property
    def done_points(self) -> int:
        return len(self.cached_points) + self.computed

    def to_dict(self, with_results: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "name": self.spec.name,
            "scenario": self.scenario,
            "priority": self.priority,
            "state": self.state,
            "total": self.total,
            "cached": len(self.cached_points),
            "cached_points": list(self.cached_points),
            "computed": self.computed,
            "done_points": self.done_points,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "trace": self.trace_path,
        }
        if with_results:
            out["results"] = [
                r.to_dict() if r is not None else None for r in self.results
            ]
            out["spec"] = self.spec.to_dict()
        return out


def _merge_point_traces(
    point_traces: list[tuple[int, SimConfig, dict[str, Any]]],
) -> dict[str, Any]:
    """Fold per-point engine traces into one job-level Perfetto trace.

    Every point keeps its full track layout, shifted to its own pid
    block (point *k* lives at pids ``1000*(k+1) + original``), with a
    process-name prefix naming the point, so the job trace opens as one
    document with one process group per executed point.
    """
    events: list[dict[str, Any]] = []
    other: dict[str, Any] = {"points": len(point_traces)}
    for idx, config, trace in point_traces:
        base = 1000 * (idx + 1)
        label = f"point{idx} load={config.load:g} {config.scheme}"
        for event in trace["traceEvents"]:
            ev = dict(event)
            ev["pid"] = base + ev["pid"]
            if event.get("ph") == "M" and event.get("name") == "process_name":
                ev = dict(ev)
                ev["args"] = {"name": f"{label}: {event['args']['name']}"}
            events.append(ev)
        other[f"point{idx}"] = trace.get("otherData", {})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


class _TracedPoints:
    """The traced path's point function: one tracer per point attempt,
    readable from the event loop while the point runs.

    Runs in the in-process worker's dispatch thread.  Telemetry hooks
    are non-perturbing (pinned by the backend-equivalence suite), so the
    traced result is bit-identical to ``run_point``.
    """

    def __init__(self, job: "Job", missing: list[int], level: str,
                 sample_every: int) -> None:
        self._index = {id(job.spec.configs[i]): i for i in missing}
        self._level = level
        self._sample_every = sample_every
        #: point index -> [tracer, samples already published].
        self.live: dict[int, list] = {}

    def __call__(self, config: SimConfig, warmup: int,
                 measure: int) -> RunResult:
        from repro.sim.engine import build_engine

        engine = build_engine(config)
        tracer = Tracer(level=self._level, sample_every=self._sample_every,
                        capacity=TRACE_CAPACITY)
        try:
            engine.attach_tracer(tracer)
        except UnsupportedFeatureError:
            # e.g. the vector backend refuses tracing; the point still
            # runs (progress streams, no samples/trace).
            pass
        else:
            self.live[self._index[id(config)]] = [tracer, 0]
        window = engine.run_measured(warmup, measure)
        return summarize_window(config, engine, window)


class JobManager:
    """Priority-ordered campaign execution with streaming telemetry."""

    def __init__(
        self,
        *,
        cache_dir: str | Path = DEFAULT_CACHE_DIR,
        jobs_dir: str | Path = "service_jobs",
        workers: int = 1,
        farm_hosts: str | None = None,
        sample_every: int = 200,
        trace_level: str = "message",
        broker=None,
        poll_interval: float = 0.02,
    ) -> None:
        from repro.service.sse import EventBroker

        self.cache = ResultCache(cache_dir)
        self.jobs_dir = Path(jobs_dir)
        self.workers = workers
        self.farm_hosts = farm_hosts
        self.sample_every = sample_every
        self.trace_level = trace_level
        self.broker = broker if broker is not None else EventBroker()
        self.poll_interval = poll_interval
        self.jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = 0
        self._wake = asyncio.Event()
        self._stopping = False
        self._task: asyncio.Task | None = None
        self.current: Job | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Load persisted state and start the dispatch loop."""
        self._load_records()
        self._load_queue()
        self._task = asyncio.ensure_future(self._loop())

    async def shutdown(self, drain: bool = True) -> None:
        """Stop dispatching; with ``drain`` finish the running job first.

        Queued-but-unstarted jobs are persisted (and marked cancelled in
        memory) so a restarted manager resumes them idempotently.
        """
        self._stopping = True
        self._wake.set()
        if self._task is not None:
            if drain:
                await self._task
            else:
                self._task.cancel()
                try:
                    await self._task
                except asyncio.CancelledError:
                    pass
            self._task = None
        self._persist_queue()
        for job in self.jobs.values():
            if job.state == QUEUED:
                job.state = CANCELLED
                job.error = "service shut down before execution"
                self._publish_status(job)
                self.broker.close_topic(job.id)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec, priority: int = 0,
               scenario: str | None = None) -> tuple[Job, bool]:
        """Queue a campaign; returns ``(job, created)``.

        Identical campaigns collapse onto the existing job (``created``
        False) unless that job failed or was cancelled, in which case it
        is re-queued fresh.  A resubmission with a higher priority
        promotes a still-queued job.
        """
        keys = spec.point_keys()
        jid = job_id_for(spec, keys)
        existing = self.jobs.get(jid)
        if existing is not None and existing.state not in (FAILED, CANCELLED):
            if existing.state == QUEUED and priority > existing.priority:
                existing.priority = priority
                self._push(existing)
            return existing, False

        resolution = resolve_points(
            spec.configs, spec.warmup, spec.measure, self.cache, keys=keys,
        )
        self._seq += 1
        missing_set = set(resolution.missing)
        job = Job(
            id=jid, spec=spec, priority=priority, scenario=scenario,
            seq=self._seq, created=time.time(),
            cached_points=[
                i for i in range(resolution.total) if i not in missing_set
            ],
            results=resolution.results,
            keys=resolution.keys,
        )
        self.jobs[jid] = job
        if not resolution.missing:
            # Fully deduplicated: the cache already holds every point.
            job.state = DONE
            job.started = job.finished = job.created
            self._publish_status(job)
            self._publish(job, "done", job.to_dict())
            self._persist_record(job)
            self.broker.close_topic(job.id)
        else:
            self._push(job)
            self._publish_status(job)
            self._persist_queue()
            self._wake.set()
        return job, True

    def submit_scenario(self, name: str, priority: int = 0,
                        scale: str = "smoke", *, seed: int | None = None,
                        warmup: int | None = None,
                        measure: int | None = None) -> tuple[Job, bool]:
        """Build a named scenario's campaign and submit it."""
        from repro.service.scenarios import build_campaign

        spec = build_campaign(
            name, scale, seed=seed, warmup=warmup, measure=measure
        )
        return self.submit(spec, priority=priority, scenario=name)

    def list_jobs(self) -> list[Job]:
        return sorted(self.jobs.values(), key=lambda j: j.seq)

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, job.seq, job.id))

    def _pop_next(self) -> Job | None:
        while self._heap:
            _, _, jid = heapq.heappop(self._heap)
            job = self.jobs.get(jid)
            # Stale heap entries (re-prioritized or already run) skip.
            if job is not None and job.state == QUEUED:
                return job
        return None

    async def _loop(self) -> None:
        while not self._stopping:
            job = self._pop_next()
            if job is None:
                self._wake.clear()
                if self._stopping:
                    break
                await self._wake.wait()
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        self.current = job
        job.state = RUNNING
        job.started = time.time()
        self._publish_status(job)
        self._persist_queue()
        try:
            await self._execute(job)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        else:
            job.state = DONE
        finally:
            job.finished = time.time()
            self.current = None
        self._publish_status(job)
        self._publish(job, "done", job.to_dict())
        self._persist_record(job)
        self._persist_queue()
        self.broker.close_topic(job.id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _execute(self, job: Job) -> None:
        """Run the job's missing points through the one execution call.

        With one worker and no farm, points run in-process under a
        per-point tracer: samples stream while each point runs and the
        job gets a Perfetto trace.  Every path reports each landed point
        through the same callback, so ``progress`` events are identical.
        """
        missing = [i for i, r in enumerate(job.results) if r is None]
        if not missing:
            return
        loop = asyncio.get_running_loop()
        traced: _TracedPoints | None = None
        if self.workers == 1 and self.farm_hosts is None:
            traced = _TracedPoints(job, missing, self.trace_level,
                                   self.sample_every)

        def on_point(pos: int, result: RunResult, elapsed: float) -> None:
            loop.call_soon_threadsafe(self._point_done, job, missing[pos],
                                      result, elapsed, traced)

        execution = ExecutionConfig(workers=self.workers,
                                    farm_hosts=self.farm_hosts)
        future = loop.run_in_executor(None, lambda: execute_points(
            [job.spec.configs[i] for i in missing], job.spec.warmup,
            job.spec.measure, execution, cache=self.cache,
            keys=[job.keys[i] for i in missing], point_fn=traced,
            on_point=on_point, name=job.spec.name,
        ))
        while not future.done():
            await asyncio.wait({future}, timeout=self.poll_interval)
            if traced is not None:
                for idx, entry in list(traced.live.items()):
                    entry[1] = self._publish_samples(job, idx, *entry)
        await future
        if traced is not None and traced.live:
            self._write_trace(job, [
                (i, job.spec.configs[i], to_perfetto(traced.live[i][0]))
                for i in missing if i in traced.live
            ])

    def _point_done(self, job: Job, idx: int, result: RunResult,
                    elapsed: float, traced: _TracedPoints | None) -> None:
        """A computed point landed: store it, flush its samples, and
        publish its ``progress`` event (the one schema of every path)."""
        job.results[idx] = result
        job.computed += 1
        entry = traced.live.get(idx) if traced is not None else None
        if entry is not None:
            entry[1] = self._publish_samples(job, idx, *entry)
        config = job.spec.configs[idx]
        self._publish(job, "progress", {
            "point": idx,
            "done": job.done_points,
            "total": job.total,
            "cached": False,
            "load": config.load,
            "scheme": config.scheme,
            "pattern": config.pattern,
            "elapsed_ms": round(elapsed * 1e3),
        })

    def _publish_samples(self, job: Job, idx: int, tracer: Tracer,
                         cursor: int) -> int:
        samples = tracer.samples
        for sample in samples[cursor:]:
            occ = sample.get("ni_occupancy", ())
            payload = {
                "point": idx,
                "cycle": sample["cycle"],
                "channel_utilization": sample["channel_utilization"],
                "flit_occupancy": sample["flit_occupancy"],
                "live_messages": sample["live_messages"],
                "blocked_frontiers": sample["blocked_frontiers"],
                "ni_occupied": sum(o for o, _, _ in occ),
            }
            if "token_pos" in sample:
                payload["token_pos"] = sample["token_pos"]
            self._publish(job, "sample", payload)
        return len(samples)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _publish(self, job: Job, event: str, data: dict[str, Any]) -> None:
        self.broker.publish(job.id, event, data)

    def _publish_status(self, job: Job) -> None:
        self._publish(job, "status", job.to_dict())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _queue_path(self) -> Path:
        return self.jobs_dir / QUEUE_FILENAME

    def _record_path(self, jid: str) -> Path:
        return self.jobs_dir / f"job-{jid}.json"

    def trace_file(self, jid: str) -> Path:
        return self.jobs_dir / f"job-{jid}.trace.json"

    def _write_trace(self, job: Job,
                     point_traces: list[tuple[int, SimConfig, dict]]) -> None:
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_file(job.id)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(_merge_point_traces(point_traces),
                       separators=(",", ":")),
            "utf-8",
        )
        tmp.replace(path)
        job.trace_path = str(path)

    def _persist_queue(self) -> None:
        """Snapshot queued + running submissions for restart resume."""
        entries = [
            {"spec": job.spec.to_dict(), "priority": job.priority,
             "scenario": job.scenario}
            for job in self.list_jobs() if job.state in (QUEUED, RUNNING)
        ]
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        path = self._queue_path()
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"queued": entries}, indent=1), "utf-8")
        tmp.replace(path)

    def _load_queue(self) -> None:
        try:
            payload = json.loads(self._queue_path().read_text("utf-8"))
        except (OSError, ValueError):
            return
        for entry in payload.get("queued", ()):
            try:
                spec = CampaignSpec.from_dict(entry["spec"])
            except (KeyError, TypeError, ValueError):
                continue
            self.submit(spec, priority=int(entry.get("priority", 0)),
                        scenario=entry.get("scenario"))

    def _persist_record(self, job: Job) -> None:
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        path = self._record_path(job.id)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(job.to_dict(with_results=True), indent=1),
                       "utf-8")
        tmp.replace(path)

    def _load_records(self) -> None:
        """Rehydrate terminal job records written by earlier runs."""
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            try:
                payload = json.loads(path.read_text("utf-8"))
                spec = CampaignSpec.from_dict(payload["spec"])
                results = [
                    RunResult(**r) if r is not None else None
                    for r in payload.get("results", ())
                ]
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if payload.get("state") not in _TERMINAL:
                continue
            self._seq += 1
            job = Job(
                id=payload["id"], spec=spec,
                priority=int(payload.get("priority", 0)),
                scenario=payload.get("scenario"),
                state=payload["state"], seq=self._seq,
                cached_points=list(payload.get("cached_points", ())),
                computed=int(payload.get("computed", 0)),
                error=payload.get("error"),
                created=payload.get("created", 0.0),
                started=payload.get("started"),
                finished=payload.get("finished"),
                results=results,
                trace_path=payload.get("trace"),
            )
            self.jobs[job.id] = job
