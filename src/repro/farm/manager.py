"""The farm manager: the one dispatch loop behind every front end.

:class:`FarmManager.run` executes one :class:`CampaignSpec` across a set
of :class:`~repro.farm.workers.FarmWorker`\\ s and returns results
bit-identical to a serial :func:`repro.sim.parallel.run_points` — every
point is computed by the same deterministic ``run_point``, wherever it
lands, and the shared ``.repro_cache`` (atomic per-point JSON puts) is
the only coordination channel, so crashed managers resume and racing
twins converge for free.  Local runs (``run_points``, sweeps, the
service) go through this loop too, on the in-process and process-pool
worker kinds.

Robustness machinery, in dispatch-loop order:

* **reap** — finished dispatches are validated before anything touches
  the cache; a worker returning garbage is a host-health event, not a
  corrupted campaign.  A point's *own* failure (raised, process died,
  ``point_timeout``) costs its retry budget, never host health.
* **hang watch** — a dispatch silent past ``hang_timeout`` is abandoned
  (its late answer is discarded) and its shard re-queued.
* **speculation** — once the queue is drained, shards running longer
  than ``straggler_factor`` x the median completed-shard time are
  speculatively re-dispatched to an idle host; first completion wins.
* **dispatch** — pending shards go to hosts with a free slot (a host
  holds up to its ``width`` dispatches) in health order (healthy before
  suspect before quarantine probes), honouring each shard's
  seeded-jitter backoff deadline
  (:class:`~repro.util.backoff.BackoffPolicy`).
* **health** — per-host state machine (:mod:`repro.farm.health`):
  failures escalate healthy -> suspect -> quarantined, quarantined hosts
  earn probation probes on an exponentially growing schedule, and a
  campaign simply completes on the survivors.  If every retry budget is
  exhausted, :class:`~repro.util.errors.SweepExecutionError` reports the
  failed points *and* per-host attribution.
* **wait** — the loop blocks on its dispatch futures until one lands
  or the next deadline falls due.  Clock and executor are injected, so
  a chaos schedule replays exactly on virtual time.

Every decision is recorded on the attached
:class:`~repro.telemetry.Tracer` (dispatch, heartbeat, quarantine,
re-dispatch, merge, ...) with millisecond timestamps, so a campaign
timeline exports to Perfetto like any simulation trace.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

from repro.farm.health import PROBATION, QUARANTINED, SUSPECT, HostHealth
from repro.farm.plan import CampaignSpec, Shard, plan_shards
from repro.farm.workers import FarmWorker, ShardJob, ShardOutcome
from repro.sim.parallel import PointResolution, ResultCache, resolve_points
from repro.sim.results import RunResult
from repro.telemetry import events as ev
from repro.util.backoff import BackoffPolicy
from repro.util.errors import ConfigurationError, SweepExecutionError


class ShardFailure(RuntimeError):
    """A shard dispatch failed: worker crash, transport loss, hang
    abandonment, or validation rejection.  Carried per point inside
    :class:`SweepExecutionError` when retry budgets run out."""


@dataclass
class _Dispatch:
    id: int
    shard: Shard
    host: str
    started_ms: int
    future: Future
    speculative: bool = False
    abandoned: bool = False


@dataclass
class _ShardState:
    shard: Shard
    attempts: int = 0
    status: str = "pending"  # pending | running | done | failed
    ready_at_ms: int = 0
    inflight: int = 0
    speculated: bool = False


@dataclass(frozen=True)
class FarmPolicy:
    """Robustness knobs of a farm run, separate from what it computes."""

    #: failed attempts after which a shard's points are reported lost.
    retries: int = 2
    #: backoff between a shard's retry dispatches (seeded jitter).
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(base=0.2, factor=2.0, cap=10.0)
    )
    #: seconds of dispatch silence before it is abandoned (None = never).
    hang_timeout: float | None = None
    #: speculative re-dispatch once a run exceeds this multiple of the
    #: median completed-shard time (queue must be drained first).
    straggler_factor: float = 3.0
    #: never speculate below this many seconds of runtime.
    straggler_min: float = 1.0
    #: consecutive failures before a host turns suspect / quarantined.
    suspect_after: int = 1
    quarantine_after: int = 2
    #: first quarantine probation delay in seconds (doubles per failed
    #: probe, capped at 30x).
    probation: float = 2.0
    #: wall seconds between heartbeat events per busy host.
    heartbeat_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("farm retries must be >= 0")
        if self.hang_timeout is not None and self.hang_timeout <= 0:
            raise ConfigurationError("hang_timeout must be positive")
        if self.straggler_factor <= 1.0:
            raise ConfigurationError("straggler_factor must exceed 1")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")


class ThreadExecutor:
    """The default executor: dispatch threads on the wall clock.  An
    injected one offers the same ``submit`` and ``wait`` (block until a
    future is done or ``timeout`` seconds pass; return the done ones)."""

    def __init__(self, max_workers: int) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="farm")

    def submit(self, fn, *args) -> Future:
        return self._pool.submit(fn, *args)

    def wait(self, futures, timeout: float | None) -> set[Future]:
        return wait(futures, timeout=timeout, return_when=FIRST_COMPLETED).done

    def shutdown(self) -> None:
        # Abandoned (hung) dispatch threads must not block the
        # campaign's end; they die with the process.
        self._pool.shutdown(wait=False, cancel_futures=True)


class FarmManager:
    """Dispatch a campaign's shards across workers until done or lost."""

    def __init__(
        self,
        workers: list[FarmWorker] | tuple[FarmWorker, ...],
        *,
        cache: ResultCache | None,
        policy: FarmPolicy | None = None,
        tracer=None,
        clock=time.monotonic,
        executor=None,
    ) -> None:
        if not workers:
            raise ConfigurationError("a farm needs at least one worker")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate worker names in {names}")
        self.workers = {w.name: w for w in workers}
        self.cache = cache
        self.policy = policy or FarmPolicy()
        self.tracer = tracer
        self._clock = clock
        self._executor = executor
        self.health: dict[str, HostHealth] = {}
        self._report: dict = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, spec: CampaignSpec, *,
            resolution: PointResolution | None = None,
            on_point=None) -> list[RunResult]:
        """Execute ``spec``; returns results in campaign point order.

        Cached points are never recomputed, so calling ``run`` again
        after a crash (or after this very call raised) *is* the resume
        operation.  ``resolution`` is the caller's cache answer for
        ``spec`` if it already holds one; ``on_point(idx, result,
        elapsed)`` is called (in this thread) as each point lands.
        Workers are closed on return.  Raises
        :class:`SweepExecutionError` with per-host attribution when
        points exhaust their retry budget or every host is lost.
        """
        pol = self.policy
        self._t0 = self._clock()
        self.health = {
            name: HostHealth(
                name=name,
                suspect_after=pol.suspect_after,
                quarantine_after=pol.quarantine_after,
                probation_ms=int(pol.probation * 1000),
                probation_cap_ms=int(pol.probation * 1000) * 30,
            )
            for name in self.workers
        }
        if resolution is None:
            resolution = resolve_points(spec.configs, spec.warmup,
                                        spec.measure, self.cache)
        shards = plan_shards(resolution.missing, spec.shard_size)
        states = {s.index: _ShardState(shard=s) for s in shards}
        failures: dict[int, tuple] = {}
        self._durations_ms: list[int] = []
        self._dispatch_seq = 0
        self._inflight: dict[int, _Dispatch] = {}
        self._busy: dict[str, set[int]] = {name: set() for name in self.workers}
        self._last_heartbeat_ms = 0
        self._on_point = on_point

        if shards:
            executor = self._executor or ThreadExecutor(
                2 * sum(w.width for w in self.workers.values()) + 2
            )
            try:
                self._loop(spec, states, resolution, failures, executor)
            finally:
                if executor is not self._executor:
                    executor.shutdown()
                for worker in self.workers.values():
                    worker.close()

        computed = resolution.total - resolution.cached - len(failures)
        self._emit(ev.FARM_MERGE, total=resolution.total,
                   cached=resolution.cached, computed=computed,
                   failed=len(failures))
        self._report = {
            "total": resolution.total,
            "cached": resolution.cached,
            "computed": computed,
            "failed": sorted(failures),
            "elapsed_ms": self._now_ms(),
            "hosts": self.attribution(),
        }
        if failures:
            host_faults = any(h.shards_failed for h in self.health.values())
            raise SweepExecutionError(
                failures, attribution=self.attribution() if host_faults else None
            )
        return resolution.results  # type: ignore[return-value]

    def attribution(self) -> dict:
        """Per-host summary blocks (state, shard counts, last error)."""
        return {name: h.summary() for name, h in self.health.items()}

    def report(self) -> dict:
        """Summary of the last :meth:`run` (for ``farm status``)."""
        return dict(self._report)

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _loop(self, spec, states, resolution, failures, executor) -> None:
        while True:
            now = self._now_ms()
            self._reap(spec, states, resolution, failures, now)
            self._watch_hangs(spec, states, failures, now)
            if not any(s.status in ("pending", "running")
                       for s in states.values()):
                return
            self._speculate(spec, states, executor, now)
            self._dispatch_pending(spec, states, executor, now)
            self._heartbeat(now)
            wake = self._next_deadline(states, now)
            executor.wait(
                [d.future for d in self._inflight.values()],
                None if wake is None else max(0, wake - now) / 1000,
            )

    def _next_deadline(self, states, now) -> int | None:
        """The next millisecond with work no dispatch completion would
        announce: a backoff or probation ending, a hang limit, or the
        heartbeat (which also paces the straggler check)."""
        pol = self.policy
        due = [s.ready_at_ms for s in states.values() if s.status == "pending"]
        due += [h.quarantined_until for h in self.health.values()
                if h.state == QUARANTINED]
        live = [d for d in self._inflight.values() if not d.abandoned]
        if live:
            due.append(self._last_heartbeat_ms
                       + int(pol.heartbeat_interval * 1000))
        if live and pol.hang_timeout is not None:
            limit = int(pol.hang_timeout * 1000)
            due += [d.started_ms + limit + 1 for d in live]
        due = [t for t in due if t > now]
        return min(due) if due else None

    def _now_ms(self) -> int:
        return int((self._clock() - self._t0) * 1000)

    def _emit(self, kind: str, **payload) -> None:
        if self.tracer is not None:
            self.tracer.farm_event(kind, self._now_ms(), **payload)

    # -- reaping -------------------------------------------------------
    def _reap(self, spec, states, resolution, failures, now) -> None:
        for disp in [d for d in self._inflight.values() if d.future.done()]:
            del self._inflight[disp.id]
            self._busy[disp.host].discard(disp.id)
            if disp.abandoned:
                continue  # already charged when abandoned; answer discarded
            try:
                outcome = disp.future.result()
            except Exception as exc:  # worker crash / transport loss
                self._shard_failed(spec, states, failures, disp,
                                   f"{type(exc).__name__}: {exc}", now,
                                   exc=exc)
                continue
            if not outcome.ok:
                self._shard_failed(spec, states, failures, disp,
                                   outcome.error or "worker reported failure",
                                   now)
                continue
            reason = self._validate(spec, disp.shard, outcome)
            if reason is not None:
                self._shard_failed(spec, states, failures, disp,
                                   f"invalid results: {reason}", now)
                continue
            self._shard_done(spec, states, resolution, failures, disp,
                             outcome, now)

    def _shard_done(self, spec, states, resolution, failures, disp, outcome,
                    now) -> None:
        state = states[disp.shard.index]
        state.inflight -= 1
        if outcome.results:
            self.health[disp.host].record_success(now)
        if state.status == "done":
            return  # the speculative twin already landed this shard
        elapsed = now - disp.started_ms
        for idx in disp.shard.points:
            result = outcome.results.get(idx)
            if result is None or resolution.results[idx] is not None:
                continue
            # First completion wins through the cache's atomic put: a
            # racing twin writes byte-identical content, so whichever
            # rename lands last changes nothing.
            if self.cache is not None:
                self.cache.put(resolution.keys[idx], spec.configs[idx],
                               spec.warmup, spec.measure, result)
            resolution.results[idx] = result
            if self._on_point is not None:
                self._on_point(idx, result,
                               outcome.elapsed.get(idx, elapsed / 1000))
        left = tuple(i for i in state.shard.points
                     if resolution.results[i] is None)
        if left:
            # The points' own failures: retried on their own budget, with
            # their original exceptions, and never held against the host.
            state.shard = replace(state.shard, points=left)
            errors = {i: outcome.failures[i] for i in left}
            self._emit(ev.FARM_SHARD_FAILED, host=disp.host,
                       shard=disp.shard.index,
                       reason="; ".join(f"point {i}: {exc!r}"
                                        for i, exc in errors.items()))
            self._retry_or_fail(spec, state, failures, disp, now, errors)
            return
        self._durations_ms.append(elapsed)
        state.status = "done"
        self._emit(ev.FARM_SHARD_DONE, host=disp.host,
                   shard=disp.shard.index, elapsed_ms=elapsed,
                   points=len(disp.shard.points),
                   speculative=disp.speculative)

    def _shard_failed(self, spec, states, failures, disp, reason, now, *,
                      exc=None) -> None:
        state = states[disp.shard.index]
        state.inflight -= 1
        health = self.health[disp.host]
        before = health.state
        after = health.record_failure(now, error=reason)
        self._emit(ev.FARM_SHARD_FAILED, host=disp.host,
                   shard=disp.shard.index, reason=reason)
        if after != before:
            if after == SUSPECT:
                self._emit(ev.FARM_SUSPECT, host=disp.host, reason=reason)
            elif after == QUARANTINED:
                self._emit(ev.FARM_QUARANTINE, host=disp.host,
                           until_ms=health.quarantined_until, reason=reason)
        error = exc if exc is not None else ShardFailure(
            f"{disp.shard.describe()} failed on {disp.host}: {reason}"
        )
        self._retry_or_fail(spec, state, failures, disp, now,
                            dict.fromkeys(state.shard.points, error))

    def _retry_or_fail(self, spec, state, failures, disp, now,
                       errors) -> None:
        """Charge one attempt to ``state``; back off or give up."""
        pol = self.policy
        if state.status == "done" or state.inflight > 0:
            # A twin already landed it, or is still trying: the failure
            # charges the host but not the shard.
            return
        state.attempts += 1
        if state.attempts > pol.retries:
            state.status = "failed"
            for idx in state.shard.points:
                failures[idx] = (spec.configs[idx], errors[idx])
            return
        # Keyed by the shard's first point, so single-point shards (every
        # local run) back off on the per-point schedule.
        delay = pol.backoff.delay(
            state.attempts, key=f"point{state.shard.points[0]}"
        )
        state.status = "pending"
        state.ready_at_ms = now + int(delay * 1000)
        self._emit(ev.FARM_BACKOFF, shard=state.shard.index,
                   host=disp.host, attempt=state.attempts,
                   delay_ms=int(delay * 1000))

    def _validate(self, spec, shard, outcome: ShardOutcome) -> str | None:
        """None if the outcome is plausible, else a rejection reason.

        Sanity-level, not cryptographic: identity fields must match the
        dispatched configs and the measurable counters must be finite
        and non-negative.  Deterministic recomputation (the cache key
        pins code + config) is the stronger guarantee; this filter
        exists so obviously corrupt workers lose their results *and*
        their health standing before the cache is touched.
        """
        for idx in shard.points:
            if idx in outcome.failures:
                continue
            result = outcome.results.get(idx)
            if not isinstance(result, RunResult):
                return f"point {idx} missing from results"
            config = spec.configs[idx]
            identity = (result.scheme, result.pattern, result.num_vcs,
                        result.load)
            expected = (config.scheme, config.pattern, config.num_vcs,
                        config.load)
            if identity != expected:
                return (f"point {idx} identity {identity!r}"
                        f" != dispatched {expected!r}")
            if result.cycles <= 0 or result.messages_delivered < 0:
                return f"point {idx} has impossible counters"
            if not (result.throughput_fpc >= 0.0
                    and result.mean_latency >= 0.0):
                return f"point {idx} has negative metrics"
        return None

    # -- hang watch ----------------------------------------------------
    def _watch_hangs(self, spec, states, failures, now) -> None:
        pol = self.policy
        if pol.hang_timeout is None:
            return
        limit = int(pol.hang_timeout * 1000)
        for disp in self._inflight.values():
            if disp.abandoned or now - disp.started_ms <= limit:
                continue
            disp.abandoned = True
            # Free the slot: the wedged thread keeps the executor's spare
            # capacity busy, not the host's dispatch slot.
            self._busy[disp.host].discard(disp.id)
            self._shard_failed(
                spec, states, failures, disp,
                f"hang: no answer in {pol.hang_timeout:g}s", now,
            )

    # -- speculation ---------------------------------------------------
    def _speculate(self, spec, states, executor, now) -> None:
        pol = self.policy
        if not self._durations_ms:
            return
        if any(s.status == "pending" and now >= s.ready_at_ms
               for s in states.values()):
            return  # real work first; speculation only soaks idle hosts
        ordered = sorted(self._durations_ms)
        median = ordered[len(ordered) // 2]
        threshold = max(int(pol.straggler_min * 1000),
                        int(pol.straggler_factor * median))
        for disp in sorted(self._inflight.values(), key=lambda d: d.started_ms):
            state = states[disp.shard.index]
            if (disp.abandoned or disp.speculative or state.speculated
                    or state.status != "running" or state.inflight != 1
                    or now - disp.started_ms <= threshold):
                continue
            host = self._pick_host(now, exclude={disp.host})
            if host is None:
                return
            state.speculated = True
            self._emit(ev.FARM_REDISPATCH, shard=disp.shard.index,
                       host=host, straggler=disp.host,
                       running_ms=now - disp.started_ms)
            self._launch(spec, state, host, executor, now, speculative=True)

    # -- dispatch ------------------------------------------------------
    def _dispatch_pending(self, spec, states, executor, now) -> None:
        ready = sorted(
            (s for s in states.values()
             if s.status == "pending" and now >= s.ready_at_ms),
            key=lambda s: s.shard.index,
        )
        for state in ready:
            host = self._pick_host(now)
            if host is None:
                return
            self._launch(spec, state, host, executor, now)

    def _pick_host(self, now, exclude: set[str] | None = None) -> str | None:
        candidates = [
            h for name, h in self.health.items()
            if len(self._busy[name]) < self.workers[name].width
            and (exclude is None or name not in exclude)
            and h.can_dispatch(now)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda h: (
            h.rank(), len(self._busy[h.name]), h.name)).name

    def _launch(self, spec, state, host, executor, now,
                speculative: bool = False) -> None:
        health = self.health[host]
        if health.state == QUARANTINED:
            health.begin_probation(now)
            self._emit(ev.FARM_PROBATION, host=host)
        self._dispatch_seq += 1
        job = ShardJob(
            shard=state.shard,
            configs=tuple(spec.configs[i] for i in state.shard.points),
            warmup=spec.warmup,
            measure=spec.measure,
            dispatch_id=self._dispatch_seq,
        )
        worker = self.workers[host]
        disp = _Dispatch(
            id=self._dispatch_seq, shard=state.shard, host=host,
            started_ms=now, future=executor.submit(worker.run_shard, job),
            speculative=speculative,
        )
        self._inflight[disp.id] = disp
        self._busy[host].add(disp.id)
        state.status = "running"
        state.inflight += 1
        self._emit(ev.FARM_DISPATCH, host=host, shard=state.shard.index,
                   points=len(state.shard.points), attempt=state.attempts,
                   probe=health.state == PROBATION, speculative=speculative)

    # -- heartbeat -----------------------------------------------------
    def _heartbeat(self, now) -> None:
        interval = int(self.policy.heartbeat_interval * 1000)
        if now - self._last_heartbeat_ms < interval:
            return
        self._last_heartbeat_ms = now
        for disp in self._inflight.values():
            if not disp.abandoned:
                self._emit(ev.FARM_HEARTBEAT, host=disp.host,
                           shard=disp.shard.index,
                           busy_ms=now - disp.started_ms)
