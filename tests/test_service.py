"""Campaign service tests: scenarios, SSE, jobs, HTTP API, shutdown.

The slow-client/backpressure and framing tests run at the broker level
(deterministic, no sockets); the API round-trip tests run a real
``CampaignServer`` on an ephemeral port with the blocking client in a
thread, exactly as the CLI uses it.
"""

import asyncio
import json
import threading

import pytest

from repro.experiments.common import Scale
from repro.farm.plan import CampaignSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import CampaignServer
from repro.service.jobs import JobManager, job_id_for
from repro.service.scenarios import (
    SCENARIOS,
    build_campaign,
    describe_scenarios,
    get_scenario,
    scenario_names,
)
from repro.service.sse import EventBroker, format_sse, parse_sse
from repro.sim.parallel import run_points
from repro.sim.sweep import run_point
from repro.util.errors import ConfigurationError

#: tiny windows keep every service test interactive-fast while still
#: simulating real traffic (deliveries > 0 at these loads).
TINY = Scale("tiny", warmup=100, measure=200, sweep_points=2,
             trace_duration=1000)


def tiny_campaign(load: float = 0.008, seed: int = 3,
                  points: int = 2) -> CampaignSpec:
    from repro.config import SimConfig

    configs = tuple(
        SimConfig(dims=(4, 4), scheme="PR", pattern="PAT271", num_vcs=4,
                  load=load + 0.002 * i, seed=seed)
        for i in range(points)
    )
    return CampaignSpec(configs=configs, warmup=TINY.warmup,
                        measure=TINY.measure, name="tiny")


class TestScenarioRegistry:
    def test_every_name_resolves(self):
        for name in scenario_names():
            scenario = get_scenario(name)
            assert scenario.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no-such-scenario")

    def test_expected_categories_present(self):
        categories = {s.category for s in SCENARIOS.values()}
        assert {"synthetic", "splash", "adversarial", "faults",
                "cdg"} <= categories

    def test_every_scenario_builds_nonempty_campaign(self):
        for name in scenario_names():
            spec = build_campaign(name, TINY)
            assert len(spec.configs) > 0, name
            assert spec.warmup == TINY.warmup
            assert spec.name == f"{name}@tiny"

    @pytest.mark.parametrize("name", scenario_names())
    def test_first_point_of_each_scenario_runs(self, name):
        spec = build_campaign(name, TINY)
        result = run_point(spec.configs[0], spec.warmup, spec.measure)
        assert result.cycles == TINY.measure

    def test_describe_is_json_roundtrippable(self):
        listing = describe_scenarios()
        assert json.loads(json.dumps(listing)) == listing
        assert {entry["name"] for entry in listing} == set(scenario_names())

    def test_campaign_spec_roundtrips_through_json(self):
        for name in scenario_names():
            spec = build_campaign(name, TINY)
            clone = CampaignSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert clone.point_keys() == spec.point_keys()

    def test_seed_and_window_overrides(self):
        spec = build_campaign("baseline-pr", TINY, seed=99, warmup=50,
                              measure=75)
        assert all(c.seed == 99 for c in spec.configs)
        assert (spec.warmup, spec.measure) == (50, 75)

    def test_same_inputs_same_job_id(self):
        a = build_campaign("baseline-pr", TINY, seed=7)
        b = build_campaign("baseline-pr", TINY, seed=7)
        c = build_campaign("baseline-pr", TINY, seed=8)
        assert job_id_for(a) == job_id_for(b)
        assert job_id_for(a) != job_id_for(c)


class TestSseFraming:
    def test_roundtrip_single_event(self):
        wire = format_sse("progress", {"done": 3}, event_id=7)
        [(event, data, event_id)] = parse_sse(wire.decode().splitlines())
        assert event == "progress"
        assert json.loads(data) == {"done": 3}
        assert event_id == 7

    def test_multiline_data_split_and_rejoined(self):
        wire = format_sse("log", "line one\nline two")
        assert wire.count(b"data:") == 2
        [(_, data, _)] = parse_sse(wire.decode().splitlines())
        assert data == "line one\nline two"

    def test_comments_ignored_and_frames_delimited(self):
        stream = (
            b": keepalive\n\n" + format_sse("a", "1", 1)
            + format_sse("b", "2", 2)
        )
        events = list(parse_sse(stream.decode().splitlines()))
        assert [(e, d) for e, d, _ in events] == [("a", "1"), ("b", "2")]

    def test_parses_byte_lines(self):
        wire = format_sse("x", {"k": "v"})
        events = list(parse_sse(wire.splitlines()))
        assert events[0][0] == "x"


class TestBrokerBackpressure:
    def test_fanout_and_replay(self):
        broker = EventBroker()
        broker.publish("t", "early", {"n": 1})
        sub = broker.subscribe("t")

        async def drain_one():
            return await sub.get()

        _, event, data = asyncio.run(drain_one())
        assert (event, data) == ("early", {"n": 1})

    def test_slow_client_sees_gap_marker_not_stall(self):
        """A lagging subscriber loses oldest events and is told so."""
        broker = EventBroker(queue_size=4)
        sub = broker.subscribe("t")
        for n in range(10):  # 6 events overflow the bound of 4
            broker.publish("t", "tick", {"n": n})

        async def drain():
            seen = []
            while True:
                try:
                    seen.append(await asyncio.wait_for(sub.get(), 0.2))
                except (StopAsyncIteration, asyncio.TimeoutError):
                    return seen

        seen = asyncio.run(drain())
        events = [e for _, e, _ in seen]
        assert events[0] == "dropped"
        assert seen[0][2] == {"dropped": 6, "total": 6}
        # The bounded tail survived: the newest 4 ticks, in order.
        assert [d["n"] for _, e, d in seen if e == "tick"] == [6, 7, 8, 9]

    def test_fast_subscriber_unaffected_by_slow_one(self):
        broker = EventBroker(queue_size=2)
        slow = broker.subscribe("t")
        fast = broker.subscribe("t", queue_size=100)
        for n in range(50):
            broker.publish("t", "tick", {"n": n})

        async def drain(sub):
            out = []
            while True:
                try:
                    out.append(await asyncio.wait_for(sub.get(), 0.1))
                except (StopAsyncIteration, asyncio.TimeoutError):
                    return out

        fast_seen = asyncio.run(drain(fast))
        assert len([1 for _, e, _ in fast_seen if e == "tick"]) == 50
        assert slow.dropped == 48

    def test_close_topic_ends_streams(self):
        broker = EventBroker()
        sub = broker.subscribe("t")
        broker.publish("t", "only", {})
        broker.close_topic("t")

        async def drain_all():
            return [item async for item in sub]

        items = asyncio.run(drain_all())
        assert [e for _, e, _ in items] == ["only"]


class TestJobManager:
    def run_manager(self, tmp_path, coro_fn, **kwargs):
        async def body():
            manager = JobManager(
                cache_dir=tmp_path / "cache", jobs_dir=tmp_path / "jobs",
                sample_every=50, poll_interval=0.005, **kwargs,
            )
            await manager.start()
            try:
                return await coro_fn(manager)
            finally:
                await manager.shutdown()

        return asyncio.run(body())

    async def _wait_done(self, manager, job, timeout=120.0):
        deadline = asyncio.get_event_loop().time() + timeout
        while job.state not in ("done", "failed", "cancelled"):
            assert asyncio.get_event_loop().time() < deadline
            await asyncio.sleep(0.02)
        return job

    def test_execution_bit_identical_to_run_points(self, tmp_path):
        spec = tiny_campaign()

        async def body(manager):
            job, created = manager.submit(spec)
            assert created and job.state in ("queued", "running")
            await self._wait_done(manager, job)
            assert job.state == "done"
            return job.results

        service_results = self.run_manager(tmp_path, body)
        direct = run_points(list(spec.configs), spec.warmup, spec.measure)
        assert service_results == direct

    def test_resubmission_is_idempotent(self, tmp_path):
        spec = tiny_campaign()

        async def body(manager):
            job1, created1 = manager.submit(spec)
            job2, created2 = manager.submit(spec)
            assert job1.id == job2.id and job1 is job2
            assert created1 and not created2
            await self._wait_done(manager, job1)
            # Resubmitting after completion also reuses the record.
            job3, created3 = manager.submit(spec)
            assert job3 is job1 and not created3

        self.run_manager(tmp_path, body)

    def test_warm_cache_completes_without_executing(self, tmp_path):
        spec = tiny_campaign()

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            # Same campaign under a fresh id: drop the record so the
            # submission takes the dedup path, not the idempotency path.
            del manager.jobs[job.id]
            again, created = manager.submit(spec)
            assert created
            assert again.state == "done"  # instantly, from the cache
            assert again.cached_points == list(range(len(spec.configs)))
            assert again.computed == 0
            assert again.to_dict()["cached"] == len(spec.configs)
            return job.results, again.results

        first, second = self.run_manager(tmp_path, body)
        assert first == second

    def test_priority_orders_queued_jobs(self, tmp_path):
        low = tiny_campaign(seed=5)
        high = tiny_campaign(seed=6)

        async def body(manager):
            # Stall dispatch until both are queued: submit while the
            # loop is busy with a first job.
            first, _ = manager.submit(tiny_campaign(seed=7), priority=9)
            j_low, _ = manager.submit(low, priority=1)
            j_high, _ = manager.submit(high, priority=8)
            await self._wait_done(manager, j_low)
            await self._wait_done(manager, j_high)
            assert j_high.finished <= j_low.finished

        self.run_manager(tmp_path, body)

    def test_progress_and_samples_streamed(self, tmp_path):
        spec = tiny_campaign(points=1)

        async def body(manager):
            job, _ = manager.submit(spec)
            sub = manager.broker.subscribe(job.id)
            await self._wait_done(manager, job)
            return [(e, d) async for _, e, d in sub]

        events = self.run_manager(tmp_path, body)
        kinds = [e for e, _ in events]
        assert "status" in kinds and "done" in kinds
        progress = [d for e, d in events if e == "progress"]
        assert progress and progress[-1]["done"] == 1
        samples = [d for e, d in events if e == "sample"]
        assert samples, "traced execution must stream time series"
        assert all("cycle" in s and "live_messages" in s for s in samples)

    @pytest.mark.parametrize("backend", [
        dict(), dict(workers=2), dict(farm_hosts="local:2"),
    ], ids=["traced", "pool", "farm"])
    def test_every_path_streams_one_progress_schema(self, tmp_path, backend):
        spec = tiny_campaign(points=3)

        async def body(manager):
            job, _ = manager.submit(spec)
            sub = manager.broker.subscribe(job.id)
            await self._wait_done(manager, job)
            assert job.state == "done"
            return job.results, [(e, d) async for _, e, d in sub]

        results, events = self.run_manager(tmp_path, body, **backend)
        assert results == run_points(list(spec.configs), spec.warmup,
                                     spec.measure)
        progress = [d for e, d in events if e == "progress"]
        assert [d["done"] for d in progress] == [1, 2, 3]
        assert sorted(d["point"] for d in progress) == [0, 1, 2]
        assert all(d["total"] == 3 and d["cached"] is False
                   for d in progress)
        for d in progress:
            assert d["load"] == spec.configs[d["point"]].load
            assert d["elapsed_ms"] > 0  # measured per point, every path

    def test_perfetto_trace_written_and_valid(self, tmp_path):
        spec = tiny_campaign(points=2)

        async def body(manager):
            job, _ = manager.submit(spec)
            await self._wait_done(manager, job)
            return job

        job = self.run_manager(tmp_path, body)
        assert job.trace_path is not None
        trace = json.loads(
            (tmp_path / "jobs" / f"job-{job.id}.trace.json").read_text()
        )
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["otherData"]["points"] == 2
        pids = {e["pid"] // 1000 for e in trace["traceEvents"]}
        assert pids == {1, 2}  # one pid block per executed point

    def test_failed_point_fails_job_with_error(self, tmp_path):
        from repro.config import SimConfig

        bad = CampaignSpec(
            configs=(SimConfig(dims=(4, 4), scheme="PR", pattern="PAT271",
                               num_vcs=4, load=0.004, watchdog_timeout=1),),
            warmup=100, measure=200, name="doomed",
        )

        async def body(manager):
            job, _ = manager.submit(bad)
            await self._wait_done(manager, job)
            return job

        job = self.run_manager(tmp_path, body)
        assert job.state == "failed"
        assert job.error

    def test_shutdown_persists_queue_and_restart_resumes(self, tmp_path):
        first = tiny_campaign(seed=11)
        second = tiny_campaign(seed=12)

        async def body1():
            manager = JobManager(cache_dir=tmp_path / "cache",
                                 jobs_dir=tmp_path / "jobs",
                                 poll_interval=0.005)
            await manager.start()
            running, _ = manager.submit(first, priority=5)
            queued, _ = manager.submit(second, priority=1,
                                       scenario="tiny-named")
            while running.state == "queued":  # let dispatch pick it up
                await asyncio.sleep(0.01)
            await manager.shutdown(drain=True)
            # Drain finished the in-flight job; the queued one was
            # cancelled in memory but persisted for the next start.
            assert running.state == "done"
            assert queued.state == "cancelled"
            return running.id, queued.id

        ids = asyncio.run(body1())
        queue = json.loads((tmp_path / "jobs" / "queue.json").read_text())
        entries = queue["queued"]
        assert [e["scenario"] for e in entries] == ["tiny-named"]
        assert entries[0]["priority"] == 1

        async def body2():
            manager = JobManager(cache_dir=tmp_path / "cache",
                                 jobs_dir=tmp_path / "jobs",
                                 poll_interval=0.005)
            await manager.start()
            job = manager.jobs[ids[1]]
            await self._wait_done(manager, job)
            await manager.shutdown()
            return manager

        manager2 = asyncio.run(body2())
        # Restart rehydrated the finished record AND resumed the queue.
        assert manager2.jobs[ids[0]].state == "done"
        assert manager2.jobs[ids[1]].state == "done"
        assert manager2.jobs[ids[1]].scenario == "tiny-named"


class ServerFixture:
    """A real CampaignServer on an ephemeral port, driven from a thread."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path

    def run(self, client_fn, **manager_kwargs):
        out, errs = {}, []

        async def main():
            manager = JobManager(
                cache_dir=self.tmp_path / "cache",
                jobs_dir=self.tmp_path / "jobs",
                sample_every=50, poll_interval=0.005, **manager_kwargs,
            )
            server = CampaignServer(manager, port=0)
            await server.start()

            def body():
                try:
                    client = ServiceClient(port=server.port, timeout=120)
                    out["result"] = client_fn(client)
                except BaseException as exc:  # surfaced after join
                    errs.append(exc)
                finally:
                    try:
                        ServiceClient(port=server.port).shutdown()
                    except Exception:
                        pass

            thread = threading.Thread(target=body)
            thread.start()
            try:
                await asyncio.wait_for(server.serve_forever(), timeout=180)
            finally:
                thread.join(timeout=30)

        asyncio.run(main())
        if errs:
            raise errs[0]
        return out["result"]


class TestHttpApi:
    def test_json_api_roundtrip(self, tmp_path):
        """submit -> watch stream -> results -> trace, over real HTTP."""
        spec = tiny_campaign(points=2)

        def body(client):
            health = client.health()
            assert health["ok"] is True
            names = {s["name"] for s in client.scenarios()}
            assert names == set(scenario_names())

            reply = client.submit(spec=spec.to_dict(), priority=4)
            assert reply["created"] is True
            jid = reply["job"]["id"]
            assert jid == job_id_for(spec)

            events = list(client.stream_events(jid))
            kinds = [e for e, _, _ in events]
            assert "progress" in kinds and "done" in kinds
            assert any(e == "sample" for e in kinds)

            job = client.job(jid, results=True)
            assert job["state"] == "done"
            assert len(job["results"]) == 2
            assert all(r is not None for r in job["results"])

            trace = client.trace(jid)
            assert trace["otherData"]["points"] == 2

            again = client.submit(spec=spec.to_dict())
            assert again["created"] is False
            assert [j["id"] for j in client.jobs()] == [jid]
            return job["results"]

        results = ServerFixture(tmp_path).run(body)
        direct = run_points(list(spec.configs), spec.warmup, spec.measure)
        assert [r["load"] for r in results] == [d.load for d in direct]
        assert [r["throughput_fpc"] for r in results] == [
            d.throughput_fpc for d in direct
        ]

    def test_scenario_submission_by_name(self, tmp_path):
        def body(client):
            reply = client.submit("cdg-torus4x4-tfar", scale="smoke",
                                  warmup=100, measure=200, priority=1)
            jid = reply["job"]["id"]
            final = client.wait(jid)
            assert final["state"] == "done"
            assert final["scenario"] == "cdg-torus4x4-tfar"
            return final

        final = ServerFixture(tmp_path).run(body)
        assert final["total"] == 1

    def test_errors_are_json_with_status(self, tmp_path):
        def body(client):
            with pytest.raises(ServiceError) as nojob:
                client.job("feedfacecafe")
            with pytest.raises(ServiceError) as noscen:
                client.submit("not-a-scenario")
            with pytest.raises(ServiceError) as nothing:
                client._request("GET", "/api/nowhere")
            return nojob.value.status, noscen.value.status, \
                nothing.value.status

        s1, s2, s3 = ServerFixture(tmp_path).run(body)
        assert (s1, s2, s3) == (404, 400, 404)

    def test_trace_404_before_any_execution(self, tmp_path):
        spec = tiny_campaign(points=1)

        def body(client):
            reply = client.submit(spec=spec.to_dict())
            jid = reply["job"]["id"]
            client.wait(jid)
            # Resubmit through a cold manager path is covered in the
            # manager tests; here: unknown job id trace is a 404.
            with pytest.raises(ServiceError) as err:
                client.trace("0123456789ab")
            return err.value.status

        assert ServerFixture(tmp_path).run(body) == 404
