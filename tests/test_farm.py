"""Tests for repro.farm: planning, health, chaos, the manager, transports.

The campaign under test is tiny (4x4 torus, 100+200 cycles) so every
test's farm run finishes in well under a second per point; the
robustness machinery — retries, quarantine, hang abandonment,
speculation, resume — is exercised with injected faults and compared
bit-for-bit against serial ``run_points``.  Chaos schedules run on
:class:`VirtualTime` (an injected clock and executor), so every
dispatch, failure and quarantine lands at the same virtual millisecond
on every run.
"""

import heapq
import json
import math
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

import repro
from repro.config import ExecutionConfig, SimConfig
from repro.farm import (
    CampaignSpec,
    farm_run_points,
    farm_width,
    ChaosWorker,
    ExternalWorker,
    FarmManager,
    FarmPolicy,
    FarmWorker,
    HostHealth,
    InProcessWorker,
    LocalPoolWorker,
    SSHHostWorker,
    ShardJob,
    ShardOutcome,
    ShardTransportError,
    parse_hosts,
    parse_worker_fault,
    plan_shards,
)
from repro.farm.chaos import InjectedWorkerCrash, WorkerFaultSpec
from repro.farm.health import HEALTHY, PROBATION, QUARANTINED, SUSPECT
from repro.farm.remote import execute_job, serve_job_dir
from repro.sim.parallel import ResultCache, point_key, resolve_points, run_points
from repro.telemetry import Tracer
from repro.telemetry.export import PID_FARM, to_perfetto
from repro.util.backoff import BackoffPolicy
from repro.util.errors import ConfigurationError, SweepExecutionError

WARMUP = 100
MEASURE = 200
LOADS = (0.002, 0.004, 0.006, 0.008, 0.01)

#: a policy tuned so failure-path tests never wait on real backoff.
FAST = dict(
    backoff=BackoffPolicy(base=0.01, factor=2.0, cap=0.05),
    probation=0.05,
)


def tiny_configs(loads=LOADS):
    return tuple(SimConfig(dims=(4, 4), load=load) for load in loads)


def tiny_spec(loads=LOADS, shard_size=2, **kwargs):
    return CampaignSpec(configs=tiny_configs(loads), warmup=WARMUP,
                        measure=MEASURE, shard_size=shard_size, **kwargs)


def serial_results(loads=LOADS):
    return run_points(list(tiny_configs(loads)), WARMUP, MEASURE)


class VirtualTime:
    """Virtual clock and executor for :class:`FarmManager`.

    A dispatch runs to completion inside ``submit`` (so its real work
    and its chaos faults happen in program order) and its future
    resolves once the virtual clock reaches submit time + ``cost`` +
    whatever the dispatch spent in :meth:`sleep` (a chaos hang).
    ``wait`` jumps the clock straight to the next resolution or
    deadline, so a campaign with a 5 s hang replays in milliseconds.
    """

    def __init__(self, cost=0.1):
        self.now = 0.0
        self.cost = cost
        self._charge = 0.0
        self._due = []
        self._seq = 0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self._charge += seconds

    def submit(self, fn, *args):
        self._charge = self.cost
        future = Future()
        try:
            outcome, error = fn(*args), None
        except Exception as exc:
            outcome, error = None, exc
        self._seq += 1
        heapq.heappush(self._due, (self.now + self._charge, self._seq,
                                   future, outcome, error))
        return future

    def wait(self, futures, timeout):
        horizon = math.inf if timeout is None else self.now + timeout
        if self._due and self._due[0][0] <= horizon:
            self.now = max(self.now, self._due[0][0])
        else:
            assert timeout is not None, "the dispatch loop would block forever"
            self.now = horizon
        while self._due and self._due[0][0] <= self.now:
            _, _, future, outcome, error = heapq.heappop(self._due)
            if error is None:
                future.set_result(outcome)
            else:
                future.set_exception(error)
        return {f for f in futures if f.done()}

    def manager(self, workers, **kwargs):
        return FarmManager(workers, clock=self.clock, executor=self, **kwargs)

    def chaos(self, name, *faults):
        return ChaosWorker(InProcessWorker(name),
                           [parse_worker_fault(f) for f in faults],
                           sleep=self.sleep)


def farm_timeline(tracer, kinds=("farm_dispatch", "farm_shard_done",
                                 "farm_shard_failed", "farm_quarantine",
                                 "farm_redispatch")):
    """(ms, kind, host, shard) of the tracer's farm decisions."""
    return [(t, kind, p.get("host"), p.get("shard"))
            for t, kind, p in tracer.events if kind in kinds]


class CountingWorker(FarmWorker):
    """Wraps a worker, counting the points actually dispatched to it."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.points_run = 0

    def run_shard(self, job):
        self.points_run += len(job.shard.points)
        return self.inner.run_shard(job)


class TestPlanning:
    def test_plan_shards_contiguous_chunks(self):
        shards = plan_shards([3, 5, 7, 9, 11], 2)
        assert [s.points for s in shards] == [(3, 5), (7, 9), (11,)]
        assert [s.index for s in shards] == [0, 1, 2]

    def test_plan_shards_validates_size(self):
        with pytest.raises(ConfigurationError):
            plan_shards([1, 2], 0)

    def test_campaign_spec_round_trip(self, tmp_path):
        spec = tiny_spec(name="trip")
        spec.save(tmp_path / "camp")
        loaded = CampaignSpec.load(tmp_path / "camp")
        assert loaded == spec
        assert loaded.point_keys() == spec.point_keys()

    def test_campaign_spec_load_missing_dir(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CampaignSpec.load(tmp_path / "nope")

    def test_campaign_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(configs=(), warmup=WARMUP, measure=MEASURE)
        with pytest.raises(ConfigurationError):
            tiny_spec(shard_size=0)

    def test_resolve_points_partitions_a_campaign(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "cache")
        done = run_points(list(spec.configs[:2]), WARMUP, MEASURE,
                          cache=cache)
        progress = resolve_points(spec.configs, spec.warmup, spec.measure,
                                  cache)
        assert progress.total == len(LOADS)
        assert progress.cached == 2
        assert progress.missing == [2, 3, 4]
        assert progress.results[:2] == done
        assert progress.results[2:] == [None, None, None]


class TestHostHealth:
    def test_escalation_healthy_suspect_quarantined(self):
        h = HostHealth("w", suspect_after=1, quarantine_after=2,
                       probation_ms=100)
        assert h.state == HEALTHY and h.can_dispatch(0)
        assert h.record_failure(0, "boom") == SUSPECT
        assert h.can_dispatch(0)  # suspect hosts still take work
        assert h.record_failure(0, "boom") == QUARANTINED
        assert not h.can_dispatch(50)
        assert h.can_dispatch(100)  # probation delay elapsed

    def test_probe_success_restores_fully(self):
        h = HostHealth("w", quarantine_after=1, probation_ms=100)
        h.record_failure(0)
        h.begin_probation(100)
        assert h.state == PROBATION
        assert not h.can_dispatch(100)  # the probe is already in flight
        assert h.record_success(150) == HEALTHY
        assert h.consecutive_failures == 0

    def test_failed_probe_doubles_the_delay_capped(self):
        h = HostHealth("w", quarantine_after=1, probation_ms=100,
                       probation_cap_ms=300)
        h.record_failure(0)
        h.begin_probation(100)
        h.record_failure(100)
        assert h.state == QUARANTINED
        assert h.quarantined_until == 300  # 100 + doubled delay
        h.begin_probation(300)
        h.record_failure(300)
        assert h.quarantined_until == 600  # capped at 300ms, not 400
        # recovery resets the delay to its initial value
        h.begin_probation(600)
        h.record_success(600)
        h.record_failure(700)
        assert h.quarantined_until == 700 + 100

    def test_rank_prefers_healthy(self):
        healthy, suspect = HostHealth("a"), HostHealth("b")
        suspect.record_failure(0)
        assert healthy.rank() < suspect.rank()


class TestWorkerFaults:
    def test_parse_round_trip(self):
        spec = parse_worker_fault("crash:host=w0,at=1,count=2")
        assert spec == WorkerFaultSpec(kind="crash", host="w0", at=1, count=2)
        assert parse_worker_fault("hang:duration=0.5").duration == 0.5
        assert parse_worker_fault("garbage") == WorkerFaultSpec(kind="garbage")

    def test_parse_rejects_nonsense(self):
        for text in ("meltdown", "crash:at", "crash:at=x", "crash:when=3"):
            with pytest.raises(ConfigurationError):
                parse_worker_fault(text)

    def test_applies_window(self):
        spec = WorkerFaultSpec(kind="crash", host="w0", at=1, count=2)
        assert not spec.applies("w0", 0)
        assert spec.applies("w0", 1) and spec.applies("w0", 2)
        assert not spec.applies("w0", 3)
        assert not spec.applies("w1", 1)
        assert WorkerFaultSpec(kind="crash").applies("anyone", 0)

    def test_chaos_worker_crashes_on_schedule(self):
        inner = InProcessWorker("w0")
        chaos = ChaosWorker(inner, [parse_worker_fault("crash:at=0")])
        spec = tiny_spec(loads=(0.004,), shard_size=1)
        job = ShardJob(shard=plan_shards([0], 1)[0],
                       configs=spec.configs, warmup=WARMUP, measure=MEASURE)
        with pytest.raises(InjectedWorkerCrash):
            chaos.run_shard(job)
        # second dispatch is past the fault window and runs the real thing
        outcome = chaos.run_shard(job)
        assert outcome.ok and list(outcome.results) == [0]
        assert chaos.activations == ["crash[any,at=0]"]


class TestWireProtocol:
    def test_execute_job_round_trips_results(self):
        spec = tiny_spec(loads=(0.004, 0.006), shard_size=2)
        job = ShardJob(shard=plan_shards([0, 1], 2)[0],
                       configs=spec.configs, warmup=WARMUP, measure=MEASURE)
        # through JSON, as the ssh pipe and the job dir both do
        payload = json.loads(json.dumps(execute_job(job.to_wire())))
        outcome = ShardOutcome.from_wire(payload)
        assert outcome.ok
        assert list(outcome.results) == [0, 1]
        assert outcome.results[0] == serial_results((0.004, 0.006))[0]

    def test_execute_job_folds_errors_into_the_document(self):
        answer = execute_job({"warmup": 100})  # no points/measure
        assert answer["ok"] is False and answer["error"]

    def test_from_wire_rejects_malformed_documents(self):
        for payload in ({}, {"ok": True}, {"ok": True, "results": {"x": 3}}):
            with pytest.raises(ShardTransportError):
                ShardOutcome.from_wire(payload)
        refusal = ShardOutcome.from_wire({"ok": False, "error": "died"})
        assert not refusal.ok and refusal.error == "died"


class TestFarmManager:
    def test_farm_matches_serial_run(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "cache")
        manager = FarmManager(
            [LocalPoolWorker(f"w{i}") for i in range(3)], cache=cache,
        )
        assert manager.run(spec) == serial_results()
        report = manager.report()
        assert report["computed"] == len(LOADS)
        assert report["cached"] == 0 and report["failed"] == []
        # every point landed in the cache under its own key
        assert all(cache.get(k) is not None for k in spec.point_keys())

    def test_chaos_campaign_is_bit_identical(self, tmp_path):
        """Crash + garbage workers: results never diverge from serial,
        the dead host is quarantined, and it all shows in the trace.

        w0 crashes on every dispatch, so while w1 grinds a real shard
        the pending shards can only go to w0 — on virtual time it
        reaches its second consecutive failure (quarantine) at 200 ms,
        on every run.
        """
        spec = tiny_spec()
        tracer = Tracer()
        cache = ResultCache(tmp_path / "cache")
        vt = VirtualTime()
        workers = [vt.chaos("w0", "crash:host=w0,count=99"),
                   vt.chaos("w1", "garbage:host=w1,at=0")]
        manager = vt.manager(workers, cache=cache, tracer=tracer,
                             policy=FarmPolicy(retries=6, **FAST))
        assert manager.run(spec) == serial_results()
        attribution = manager.attribution()
        assert attribution["w0"]["state"] == QUARANTINED
        assert attribution["w0"]["shards_ok"] == 0
        # the corrupted outcome was rejected before it reached the cache
        assert "invalid results" in attribution["w1"]["last_error"]
        assert attribution["w1"]["shards_ok"] == 3  # every real shard
        kinds = {kind for _, kind, _ in tracer.events}
        assert {"farm_dispatch", "farm_shard_failed", "farm_backoff",
                "farm_suspect", "farm_quarantine", "farm_shard_done",
                "farm_merge"} <= kinds
        assert farm_timeline(tracer)[:8] == [
            (0, "farm_dispatch", "w0", 0),
            (0, "farm_dispatch", "w1", 1),
            (100, "farm_shard_failed", "w0", 0),
            (100, "farm_shard_failed", "w1", 1),
            (100, "farm_dispatch", "w0", 2),
            (110, "farm_dispatch", "w1", 0),  # shard 0 after its backoff
            (200, "farm_shard_failed", "w0", 2),
            (200, "farm_quarantine", "w0", None),
        ]

    def test_hung_dispatch_is_abandoned_and_redispatched(self, tmp_path):
        spec = tiny_spec(loads=(0.004, 0.006), shard_size=2)
        tracer = Tracer()
        vt = VirtualTime()
        workers = [vt.chaos("w0", "hang:host=w0,at=0,duration=5"),
                   InProcessWorker("w1")]
        manager = vt.manager(
            workers, cache=ResultCache(tmp_path / "cache"), tracer=tracer,
            policy=FarmPolicy(retries=2, hang_timeout=0.2, **FAST),
        )
        assert manager.run(spec) == serial_results((0.004, 0.006))
        assert vt.now < 5.0  # did not wait out the hang
        assert "hang:" in manager.attribution()["w0"]["last_error"]
        timeline = farm_timeline(tracer)
        assert timeline[:2] == [(0, "farm_dispatch", "w0", 0),
                                (201, "farm_shard_failed", "w0", 0)]
        assert [k[1:] for k in timeline[2:]] == [
            ("farm_dispatch", "w1", 0), ("farm_shard_done", "w1", 0)]

    def test_straggler_is_speculatively_redispatched(self, tmp_path):
        # w1 sits on its shard for 2s with no hang_timeout armed; once
        # the queue drains, the manager must clone the shard onto the
        # idle fast host and take the first answer.
        spec = tiny_spec(loads=LOADS, shard_size=2)
        tracer = Tracer()
        vt = VirtualTime()
        workers = [InProcessWorker("w0"),
                   vt.chaos("w1", "hang:host=w1,at=0,duration=2")]
        manager = vt.manager(
            workers, cache=ResultCache(tmp_path / "cache"), tracer=tracer,
            policy=FarmPolicy(retries=2, straggler_factor=2.0,
                              straggler_min=0.05, **FAST),
        )
        assert manager.run(spec) == serial_results()
        assert vt.now < 2.0
        redispatches = [p for _, kind, p in tracer.events
                        if kind == "farm_redispatch"]
        assert redispatches and redispatches[0]["straggler"] == "w1"
        assert farm_timeline(tracer) == [
            (0, "farm_dispatch", "w0", 0),
            (0, "farm_dispatch", "w1", 1),
            (100, "farm_shard_done", "w0", 0),
            (100, "farm_dispatch", "w0", 2),
            (200, "farm_shard_done", "w0", 2),
            # the next heartbeat tick finds w1 past 2x the median
            (250, "farm_redispatch", "w0", 1),
            (250, "farm_dispatch", "w0", 1),
            (350, "farm_shard_done", "w0", 1),
        ]

    def test_width_two_host_holds_two_dispatches_at_t0(self, tmp_path):
        # local:2 is one host with two slots: both go out at t=0, the
        # third point waits for a free slot.
        tracer = Tracer()
        vt = VirtualTime()
        loads = LOADS[:3]
        manager = vt.manager(parse_hosts("local:2"), tracer=tracer,
                             cache=ResultCache(tmp_path / "cache"))
        assert manager.run(tiny_spec(loads, shard_size=1)) \
            == serial_results(loads)
        dispatches = [(t, p["host"], p["shard"]) for t, kind, p
                      in tracer.events if kind == "farm_dispatch"]
        assert dispatches == [(0, "local0", 0), (0, "local0", 1),
                              (100, "local0", 2)]

    def test_point_failure_is_charged_to_the_point_not_the_host(self):
        # A point that raises keeps its own exception through the retry
        # budget; the host that ran it stays healthy.
        spec = tiny_spec(loads=(0.004, 0.006), shard_size=1)
        vt = VirtualTime()
        manager = vt.manager(
            [InProcessWorker("w0", point_fn=_boom_on_second)], cache=None,
            policy=FarmPolicy(retries=1, **FAST),
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            manager.run(spec)
        assert list(excinfo.value.failures) == [1]
        assert isinstance(excinfo.value.failures[1][1], ValueError)
        assert excinfo.value.attribution == {}
        health = manager.attribution()["w0"]
        assert health["state"] == HEALTHY and health["shards_failed"] == 0

    def test_resume_skips_cached_points(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path / "cache")
        # a "killed" campaign left 3 of 5 points behind
        run_points(list(spec.configs[:3]), WARMUP, MEASURE, cache=cache)
        counting = CountingWorker(LocalPoolWorker("w0"))
        manager = FarmManager([counting], cache=cache)
        assert manager.run(spec) == serial_results()
        assert counting.points_run == 2  # only the missing points ran
        report = manager.report()
        assert report["cached"] == 3 and report["computed"] == 2
        # a second run is pure cache
        counting.points_run = 0
        assert FarmManager([counting], cache=cache).run(spec) \
            == serial_results()
        assert counting.points_run == 0

    def test_exhausted_retries_report_per_host_attribution(self, tmp_path):
        spec = tiny_spec(loads=(0.004,), shard_size=1)
        vt = VirtualTime()
        workers = [vt.chaos(f"w{i}", "crash:count=99") for i in range(2)]
        manager = vt.manager(
            workers, cache=ResultCache(tmp_path / "cache"),
            policy=FarmPolicy(retries=2, **FAST),
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            manager.run(spec)
        message = str(excinfo.value)
        assert "per-host attribution" in message
        assert "w0" in message and "w1" in message
        assert excinfo.value.attribution["w0"]["shards_failed"] >= 1
        assert list(excinfo.value.failures) == [0]
        # the failure is sticky in the report too
        assert manager.report()["failed"] == [0]

    def test_campaign_completes_on_survivors(self, tmp_path):
        # one permanently dead host, one healthy: graceful degradation
        spec = tiny_spec()
        vt = VirtualTime()
        workers = [vt.chaos("dead", "crash:host=dead,at=0,count=99"),
                   InProcessWorker("alive")]
        manager = vt.manager(
            workers, cache=ResultCache(tmp_path / "cache"),
            policy=FarmPolicy(retries=4, **FAST),
        )
        assert manager.run(spec) == serial_results()
        attribution = manager.attribution()
        assert attribution["alive"]["shards_ok"] == 3
        assert attribution["dead"]["shards_ok"] == 0

    def test_manager_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FarmManager([], cache=None)
        with pytest.raises(ConfigurationError):
            FarmManager([LocalPoolWorker("same"), LocalPoolWorker("same")],
                        cache=None)
        with pytest.raises(ConfigurationError):
            FarmPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            FarmPolicy(hang_timeout=0.0)
        with pytest.raises(ConfigurationError):
            FarmPolicy(straggler_factor=1.0)

    def test_farm_trace_exports_to_perfetto(self, tmp_path):
        spec = tiny_spec()
        tracer = Tracer()
        vt = VirtualTime()
        workers = [vt.chaos("w0", "crash:host=w0,at=0,count=3"),
                   InProcessWorker("w1")]
        manager = vt.manager(
            workers, cache=ResultCache(tmp_path / "cache"), tracer=tracer,
            policy=FarmPolicy(retries=4, **FAST),
        )
        manager.run(spec)
        # w0's second consecutive crash quarantines it, on every run
        assert farm_timeline(tracer)[:9] == [
            (0, "farm_dispatch", "w0", 0),
            (0, "farm_dispatch", "w1", 1),
            (100, "farm_shard_failed", "w0", 0),
            (100, "farm_shard_done", "w1", 1),
            (100, "farm_dispatch", "w1", 2),
            (110, "farm_dispatch", "w0", 0),  # only w0 is free
            (200, "farm_shard_done", "w1", 2),
            (210, "farm_shard_failed", "w0", 0),
            (210, "farm_quarantine", "w0", None),
        ]
        events = to_perfetto(tracer)["traceEvents"]
        farm = [e for e in events if e["pid"] == PID_FARM]
        # the farm process and each host got a named track
        names = {e["args"]["name"] for e in farm if e["ph"] == "M"}
        assert {"farm", "campaign", "w0", "w1"} <= names
        # dispatch->completion pairs render as duration spans per host
        spans = [e for e in farm if e["ph"] == "X"]
        assert spans and all(e["name"].startswith("shard ") for e in spans)
        # the quarantine decision is visible as an instant
        assert any(e["ph"] == "i" and e["name"] == "farm_quarantine"
                   for e in farm)


def _boom_on_second(config, warmup, measure):
    from repro.sim.sweep import run_point

    if config.load == 0.006:
        raise ValueError("injected point failure")
    return run_point(config, warmup, measure)


def _pipe_command():
    """Run ``repro.farm.remote`` in-process-equivalent via a subprocess
    whose import path is pinned to this checkout — the ssh transport
    minus the ssh."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return [
        sys.executable, "-c",
        f"import sys; sys.path.insert(0, {src!r});"
        " from repro.farm.remote import main; raise SystemExit(main([]))",
    ]


class TestTransports:
    def test_ssh_worker_full_wire_round_trip(self, tmp_path):
        spec = tiny_spec(loads=(0.004, 0.006), shard_size=2)
        worker = SSHHostWorker("pipe", command=_pipe_command(),
                               job_timeout=120)
        manager = FarmManager(
            [worker], cache=ResultCache(tmp_path / "cache"),
        )
        assert manager.run(spec) == serial_results((0.004, 0.006))

    def test_ssh_worker_dead_pipe_is_a_transport_error(self):
        worker = SSHHostWorker(
            "dead", command=[sys.executable, "-c", "import sys; sys.exit(3)"],
        )
        job = ShardJob(shard=plan_shards([0], 1)[0],
                       configs=tiny_configs((0.004,)),
                       warmup=WARMUP, measure=MEASURE)
        with pytest.raises(ShardTransportError, match="exit 3"):
            worker.run_shard(job)

    def test_ssh_worker_garbage_stdout_is_a_transport_error(self):
        worker = SSHHostWorker(
            "noise", command=[sys.executable, "-c", "print('not json')"],
        )
        job = ShardJob(shard=plan_shards([0], 1)[0],
                       configs=tiny_configs((0.004,)),
                       warmup=WARMUP, measure=MEASURE)
        with pytest.raises(ShardTransportError, match="unreadable"):
            worker.run_shard(job)

    def test_external_worker_through_job_dir(self, tmp_path):
        root = tmp_path / "ext"
        agent = threading.Thread(
            target=serve_job_dir, args=(root,),
            kwargs=dict(idle_timeout=30, poll_interval=0.01), daemon=True,
        )
        agent.start()
        try:
            spec = tiny_spec(loads=(0.004, 0.006), shard_size=1)
            worker = ExternalWorker("ext0", root, job_timeout=60,
                                    poll_interval=0.01)
            manager = FarmManager(
                [worker], cache=ResultCache(tmp_path / "cache"),
            )
            assert manager.run(spec) == serial_results((0.004, 0.006))
        finally:
            (root / "stop").write_text("", "utf-8")
            agent.join(timeout=10)
        assert not agent.is_alive()


class TestParseHosts:
    def test_parses_every_kind(self):
        workers = parse_hosts("local,local:4,ssh:nodeA,ext:/tmp/jobs")
        assert [type(w).__name__ for w in workers] == [
            "LocalPoolWorker", "LocalPoolWorker", "SSHHostWorker",
            "ExternalWorker",
        ]
        assert workers[1].workers == 4
        assert workers[2].host == "nodeA"
        assert str(workers[3].root) == "/tmp/jobs"
        # names are unique, so one machine can appear twice
        assert len({w.name for w in workers}) == 4

    def test_rejects_nonsense(self):
        for text in ("", "warp:9", "local:0", "local:x", "ssh:", "ext:"):
            with pytest.raises(ConfigurationError):
                parse_hosts(text)


class TestFarmExecutor:
    """The farm behind the run_points contract (sweeps, experiments)."""

    def test_farm_width_counts_local_slots(self):
        workers = parse_hosts("local:3,local,ssh:nodeA,ext:/tmp/jobs")
        assert farm_width(workers) == 3 + 1 + 1 + 1

    def test_ordered_and_bit_identical_to_run_points(self):
        loads = LOADS[:3]
        got = farm_run_points(
            tiny_configs(loads), WARMUP, MEASURE,
            parse_hosts("local,local"),
        )
        assert got == serial_results(loads)

    def test_run_sweep_routes_through_farm(self, tmp_path):
        from repro.sim.sweep import run_sweep

        execution = ExecutionConfig(
            farm_hosts="local:2,local",
            cache_dir=str(tmp_path / "cache"),
        )
        config = SimConfig(dims=(4, 4))
        loads = list(LOADS[:3])
        farmed = run_sweep(config, loads, WARMUP, MEASURE,
                           execution=execution)
        serial = run_sweep(config, loads, WARMUP, MEASURE,
                           execution=ExecutionConfig(use_cache=False))
        assert farmed.points == serial.points
        # the farm populated the shared per-point cache
        cache = ResultCache(execution.cache_dir)
        for load in loads:
            key = point_key(config.with_(load=load), WARMUP, MEASURE)
            assert cache.get(key) is not None

    def test_runner_accepts_hosts_flag(self):
        from repro.experiments import runner

        _, _, execution = runner.parse_args(["--hosts", "local:2,local"])
        assert execution.farm_hosts == "local:2,local"
        with pytest.raises(SystemExit, match="--hosts"):
            runner.parse_args(["--hosts"])
        with pytest.raises(SystemExit, match="bad --hosts"):
            runner.parse_args(["--hosts", "warp:9"])

    def test_execution_config_rejects_blank_hosts(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(farm_hosts="  ")


class TestFarmCLI:
    def test_plan_run_status_cycle(self, tmp_path, capsys):
        from repro.cli import main

        camp = str(tmp_path / "camp")
        cache = str(tmp_path / "cache")
        assert main(["farm", "plan", camp, "--dims", "4x4",
                     "--loads", "0.004,0.006", "--warmup", str(WARMUP),
                     "--measure", str(MEASURE), "--shard-size", "1"]) == 0
        assert main(["farm", "run", camp, "--hosts", "local,local",
                     "--cache-dir", cache,
                     "--trace", str(tmp_path / "trace.json")]) == 0
        out = capsys.readouterr().out
        assert "2 computed" in out
        trace = json.loads((tmp_path / "trace.json").read_text("utf-8"))
        assert any(e.get("pid") == PID_FARM for e in trace["traceEvents"])
        state = json.loads((Path(camp) / "state.json").read_text("utf-8"))
        assert state["computed"] == 2 and state["failed"] == []
        assert main(["farm", "status", camp, "--cache-dir", cache]) == 0
        assert "2/2 points cached" in capsys.readouterr().out
        # resume finds everything in cache
        assert main(["farm", "resume", camp, "--hosts", "local",
                     "--cache-dir", cache]) == 0
        assert "0 computed" in capsys.readouterr().out
