"""Tests for repro.sim.parallel: equivalence, caching, crash handling."""

import functools
import io
import json
import os
import pickle
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import ExecutionConfig, SimConfig
from repro.farm import manager as farm_manager
from repro.farm import workers as farm_workers
from repro.farm.executor import farm_run_points, parse_hosts
from repro.sim import parallel
from repro.sim.parallel import (
    PointResolution,
    ResultCache,
    point_key,
    resolve_points,
    run_points,
)
from repro.sim.sweep import run_point, run_sweep
from repro.util.backoff import BackoffPolicy
from repro.util.errors import LivenessError, PointTimeoutError, SweepExecutionError
from repro.util.progress import ProgressReporter, format_eta

WARMUP = 100
MEASURE = 200
LOADS = (0.002, 0.004, 0.006)


def tiny_config(load: float = 0.004, **kwargs) -> SimConfig:
    return SimConfig(dims=(4, 4), load=load, **kwargs)


def tiny_configs(loads=LOADS) -> list[SimConfig]:
    return [tiny_config(load) for load in loads]


# --- module-level point functions so they pickle into worker processes ---

def _boom(config, warmup, measure):
    raise RuntimeError("engine must not execute")


def _counting_point(counter_dir, config, warmup, measure):
    """Real run_point, recording one file per invocation."""
    fd, _ = tempfile.mkstemp(prefix=f"load{config.load}-", dir=counter_dir)
    os.close(fd)
    return run_point(config, warmup, measure)


def _hung_point(config, warmup, measure):
    """A wedged engine from the pool's point of view: never returns."""
    time.sleep(600)


def _slow_once_point(marker_dir, config, warmup, measure):
    """Hangs on the first attempt per load, runs normally on the retry."""
    marker = os.path.join(marker_dir, f"slow-{config.load}")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("1")
        time.sleep(600)
    return run_point(config, warmup, measure)


def _wedged_point(config, warmup, measure):
    """Raises the engine watchdog's error, dump attached."""
    raise LivenessError(
        "no forward progress", {"cycle": 4242, "reason": "test wedge",
                                "cwg_knots": [["vc1", "vc2"]]},
    )


def _flaky_point(marker_dir, config, warmup, measure):
    """Crashes on the first attempt per load, succeeds on the retry."""
    marker = os.path.join(marker_dir, f"ran-{config.load}")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("1")
        raise RuntimeError(f"injected crash at load {config.load}")
    return run_point(config, warmup, measure)


def _dies_once_point(marker_dir, config, warmup, measure):
    """Kills its own worker process on the first attempt per load."""
    marker = os.path.join(marker_dir, f"died-{config.load}")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("1")
        os._exit(3)
    return run_point(config, warmup, measure)


def _dies_point(config, warmup, measure):
    os._exit(3)


def counting_fn(tmp_path, name="counter"):
    counter_dir = tmp_path / name
    counter_dir.mkdir(exist_ok=True)
    return functools.partial(_counting_point, str(counter_dir)), counter_dir


class TestSerialParallelEquivalence:
    def test_run_points_bit_identical(self):
        configs = tiny_configs()
        serial = run_points(configs, WARMUP, MEASURE, workers=1)
        fanned = run_points(configs, WARMUP, MEASURE, workers=4)
        assert serial == fanned

    def test_results_follow_input_order(self):
        scrambled = tiny_configs((0.006, 0.002, 0.004))
        results = run_points(scrambled, WARMUP, MEASURE, workers=3)
        assert [r.load for r in results] == [0.006, 0.002, 0.004]

    def test_run_sweep_matches_serial(self):
        config = tiny_config()
        serial = run_sweep(config, LOADS, warmup=WARMUP, measure=MEASURE)
        fanned = run_sweep(
            config, LOADS, warmup=WARMUP, measure=MEASURE,
            execution=ExecutionConfig(workers=4, use_cache=False),
        )
        assert serial.points == fanned.points
        assert serial.label == fanned.label


class TestResultCache:
    def test_second_invocation_runs_zero_engines(self, tmp_path):
        configs = tiny_configs()
        cache = ResultCache(tmp_path / "cache")
        first = run_points(configs, WARMUP, MEASURE, workers=4, cache=cache)
        # _boom would crash any executed point: everything must come from disk.
        again = run_points(configs, WARMUP, MEASURE, workers=4, cache=cache,
                           point_fn=_boom)
        assert again == first
        assert cache.hits == len(configs)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        configs = tiny_configs()
        cache = ResultCache(tmp_path / "cache")
        serial = run_points(configs, WARMUP, MEASURE, workers=1, cache=cache)
        fanned = run_points(configs, WARMUP, MEASURE, workers=3, cache=cache,
                            point_fn=_boom)
        assert serial == fanned

    def test_key_depends_on_window_and_config(self):
        base = point_key(tiny_config(), WARMUP, MEASURE)
        assert point_key(tiny_config(), WARMUP + 1, MEASURE) != base
        assert point_key(tiny_config(), WARMUP, MEASURE + 1) != base
        assert point_key(tiny_config(seed=2), WARMUP, MEASURE) != base
        assert point_key(tiny_config(), WARMUP, MEASURE) == base

    def test_key_covers_full_detector_configuration(self):
        """Collision regression: two runs differing only in detection
        mechanism or thresholds must never alias one cache entry."""
        base = point_key(tiny_config(), WARMUP, MEASURE)
        variants = (
            dict(detector="cmh"),
            dict(detector="timeout"),
            dict(detection_threshold=26),
            dict(occupancy_threshold=0.9),
            dict(timeout_threshold=201),
            dict(cmh_block_threshold=5),
            dict(cmh_probe_interval=65),
        )
        keys = [point_key(tiny_config(**v), WARMUP, MEASURE) for v in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys), "detector variants collided"
        # Same detector configuration -> same key (cache still hits).
        assert point_key(tiny_config(detector="cmh"), WARMUP, MEASURE) == keys[0]

    def test_changed_window_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache)
        with pytest.raises(SweepExecutionError):
            run_points(tiny_configs(), WARMUP, MEASURE + 50, cache=cache,
                       point_fn=_boom, retries=0)

    def test_code_version_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        counting, counter_dir = counting_fn(tmp_path)
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                   point_fn=counting)
        assert len(list(counter_dir.iterdir())) == len(LOADS)
        monkeypatch.setattr(parallel, "code_version", lambda: "different")
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                   point_fn=counting)
        assert len(list(counter_dir.iterdir())) == 2 * len(LOADS)

    def test_corrupt_entry_is_a_miss_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        [result] = run_points([tiny_config()], WARMUP, MEASURE, cache=cache)
        key = point_key(tiny_config(), WARMUP, MEASURE)
        cache.path_for(key).write_text("{not json", "utf-8")
        [again] = run_points([tiny_config()], WARMUP, MEASURE, cache=cache)
        assert again == result
        payload = json.loads(cache.path_for(key).read_text("utf-8"))
        assert payload["result"]["load"] == tiny_config().load

    def test_interrupted_run_resumes(self, tmp_path):
        """Failed batch keeps its completed points; the rerun finishes them."""
        cache = ResultCache(tmp_path / "cache")
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        flaky = functools.partial(_flaky_point, str(marker_dir))
        with pytest.raises(SweepExecutionError):
            run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                       point_fn=flaky, retries=0)
        assert cache.hits == 0
        counting, counter_dir = counting_fn(tmp_path)
        resumed = run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                             point_fn=counting)
        # Every point either came from cache or ran exactly once now.
        executed = len(list(counter_dir.iterdir()))
        assert cache.hits + executed == len(LOADS)
        assert resumed == run_points(tiny_configs(), WARMUP, MEASURE)


class TestResolvePoints:
    """The shared pre-schedule dedup helper (pool, farm and service)."""

    def test_cold_cache_everything_missing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache)
        assert isinstance(res, PointResolution)
        assert res.total == len(LOADS)
        assert res.cached == 0
        assert res.missing == list(range(len(LOADS)))
        assert res.results == [None] * len(LOADS)

    def test_warm_cache_fills_results_in_order(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        computed = run_points(tiny_configs(), WARMUP, MEASURE, cache=cache)
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache)
        assert res.missing == []
        assert res.cached == res.total == len(LOADS)
        assert res.results == computed

    def test_partial_hit_reports_missing_indices(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_points([tiny_config(LOADS[1])], WARMUP, MEASURE, cache=cache)
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache)
        assert res.missing == [0, 2]
        assert res.results[1] is not None
        assert res.cached == 1

    def test_none_cache_means_all_missing(self):
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, None)
        assert res.missing == list(range(len(LOADS)))
        assert res.keys == [
            point_key(c, WARMUP, MEASURE) for c in tiny_configs()
        ]

    def test_caller_supplied_keys_are_used_verbatim(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache)
        bogus = ["nope"] * len(LOADS)
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache,
                             keys=bogus)
        assert res.missing == list(range(len(LOADS)))
        assert res.keys == bogus

    def test_key_count_mismatch_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError):
            resolve_points(tiny_configs(), WARMUP, MEASURE, cache,
                           keys=["just-one"])

    def test_run_points_dedup_agrees_with_resolution(self, tmp_path):
        """run_points executes exactly the points resolve_points says."""
        cache = ResultCache(tmp_path / "cache")
        run_points([tiny_config(LOADS[0])], WARMUP, MEASURE, cache=cache)
        res = resolve_points(tiny_configs(), WARMUP, MEASURE, cache)
        counting, counter_dir = counting_fn(tmp_path)
        run_points(tiny_configs(), WARMUP, MEASURE, cache=cache,
                   point_fn=counting)
        assert len(list(counter_dir.iterdir())) == len(res.missing)


class TestCrashHandling:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_crashed_point_is_retried_once(self, tmp_path, workers):
        marker_dir = tmp_path / f"markers{workers}"
        marker_dir.mkdir()
        flaky = functools.partial(_flaky_point, str(marker_dir))
        results = run_points(tiny_configs(), WARMUP, MEASURE, workers=workers,
                             point_fn=flaky, retries=1)
        assert results == run_points(tiny_configs(), WARMUP, MEASURE)
        # one crash marker per load: each point failed once, then succeeded
        assert len(list(marker_dir.iterdir())) == len(LOADS)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_persistent_crash_reports_config(self, workers):
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points(tiny_configs(), WARMUP, MEASURE, workers=workers,
                       point_fn=_boom, retries=1)
        message = str(excinfo.value)
        assert "load=0.004" in message and "scheme=PR" in message
        assert len(excinfo.value.failures) == len(LOADS)


class TestPointTimeout:
    def test_hung_point_times_out_and_is_reported(self):
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points([tiny_config()], WARMUP, MEASURE, workers=1,
                       point_fn=_hung_point, retries=0, timeout=1.0)
        (config, exc) = excinfo.value.failures[0]
        assert isinstance(exc, PointTimeoutError)
        assert exc.timeout == 1.0
        assert config.load == tiny_config().load
        assert "wall-clock timeout" in str(excinfo.value)

    def test_timed_out_point_is_retried(self, tmp_path):
        # First attempt hangs and is killed; the retry completes and the
        # batch succeeds — a transient wedge must not fail a campaign.
        marker_dir = tmp_path / "slow"
        marker_dir.mkdir()
        slow_once = functools.partial(_slow_once_point, str(marker_dir))
        results = run_points([tiny_config()], WARMUP, MEASURE, workers=1,
                             point_fn=slow_once, retries=1, timeout=2.0)
        assert results == run_points([tiny_config()], WARMUP, MEASURE)
        assert len(list(marker_dir.iterdir())) == 1  # hung exactly once

    def test_healthy_points_survive_a_hung_sibling(self):
        # One wedged point in the wave must not take down the others.
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points(tiny_configs(), WARMUP, MEASURE, workers=3,
                       point_fn=_picky_point, retries=0, timeout=5.0)
        failures = excinfo.value.failures
        assert list(failures) == [1]  # only the hung load
        assert isinstance(failures[1][1], PointTimeoutError)

    def test_liveness_dump_survives_the_worker_pool(self):
        # The diagnosing exception pickles back intact, dump and all.
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points([tiny_config()], WARMUP, MEASURE, workers=2,
                       point_fn=_wedged_point, retries=0)
        exc = excinfo.value.failures[0][1]
        assert isinstance(exc, LivenessError)
        assert exc.dump["cycle"] == 4242
        assert "dump: cycle=4242" in str(excinfo.value)

    def test_point_timeout_error_pickles(self):
        exc = PointTimeoutError(2.5, tiny_config())
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.timeout == 2.5
        assert clone.config == tiny_config()

    def test_point_timeout_validation(self):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExecutionConfig(point_timeout=0)
        assert ExecutionConfig(point_timeout=1.5).point_timeout == 1.5


class TestBrokenPoolAccounting:
    def test_pool_death_charges_each_point_once(self, tmp_path):
        """A dying worker process is its own point's failure: charged one
        attempt, its slot respawned — with retries=1 every point's retry
        is still its own and the batch succeeds."""
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        dies_once = functools.partial(_dies_once_point, str(marker_dir))
        results = run_points(tiny_configs(), WARMUP, MEASURE, workers=3,
                             point_fn=dies_once, retries=1)
        assert results == run_points(tiny_configs(), WARMUP, MEASURE)
        assert len(list(marker_dir.iterdir())) == len(LOADS)

    def test_pool_death_past_the_budget_reports_failures(self):
        with pytest.raises(SweepExecutionError) as excinfo:
            run_points(tiny_configs(), WARMUP, MEASURE, workers=3,
                       point_fn=_dies_point, retries=1)
        assert len(excinfo.value.failures) == len(LOADS)
        assert isinstance(excinfo.value.failures[0][1], BrokenProcessPool)


class RecordingBackoff:
    """A backoff policy that records every delay it hands out."""

    def __init__(self, policy=parallel.DEFAULT_BACKOFF):
        self.policy = policy
        self.calls = []

    def delay(self, attempt, key=""):
        delay = self.policy.delay(attempt, key=key)
        self.calls.append((attempt, key, delay))
        return delay


#: run_points arguments selecting each local worker kind.
WORKER_KINDS = {
    "inprocess": dict(workers=1),
    "pool": dict(workers=3),
    "pool-timeout": dict(workers=3, timeout=60.0),
}


class TestRetryBackoff:
    @pytest.mark.parametrize("kind", list(WORKER_KINDS))
    def test_retry_schedule_is_per_point(self, tmp_path, kind):
        """Every worker kind retries on the one per-point schedule:
        ``backoff.delay(attempt, key=f"point{idx}")``."""
        backoff = RecordingBackoff()
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        flaky = functools.partial(_flaky_point, str(marker_dir))
        results = run_points(tiny_configs(), WARMUP, MEASURE,
                             point_fn=flaky, retries=1, backoff=backoff,
                             **WORKER_KINDS[kind])
        assert results == run_points(tiny_configs(), WARMUP, MEASURE)
        assert sorted(backoff.calls) == [
            (1, f"point{idx}",
             parallel.DEFAULT_BACKOFF.delay(1, key=f"point{idx}"))
            for idx in range(len(LOADS))
        ]

    def test_custom_policy_is_honoured(self, tmp_path):
        quiet = RecordingBackoff(
            BackoffPolicy(base=0.25, factor=2.0, cap=1.0, jitter=0.0))
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        flaky = functools.partial(_flaky_point, str(marker_dir))
        run_points(tiny_configs(), WARMUP, MEASURE, workers=1,
                   point_fn=flaky, retries=1, backoff=quiet)
        assert [delay for _, _, delay in quiet.calls] == [0.25] * len(LOADS)

    def test_successful_run_never_sleeps(self):
        backoff = RecordingBackoff()
        run_points(tiny_configs(), WARMUP, MEASURE, workers=1,
                   backoff=backoff)
        assert backoff.calls == []


class TestWarmRun:
    def test_warm_run_computes_each_key_once_and_no_executor(
            self, tmp_path, monkeypatch):
        configs = tiny_configs()
        cache = ResultCache(tmp_path / "cache")
        first = run_points(configs, WARMUP, MEASURE, workers=4, cache=cache)
        calls = []
        real_key = parallel.point_key

        def counting_key(*args, **kwargs):
            calls.append(args[0])
            return real_key(*args, **kwargs)

        def no_executor(*args, **kwargs):
            raise AssertionError("a warm run built an executor")

        monkeypatch.setattr(parallel, "point_key", counting_key)
        monkeypatch.setattr(farm_workers, "ProcessPoolExecutor", no_executor)
        monkeypatch.setattr(farm_manager, "ThreadPoolExecutor", no_executor)
        assert run_points(configs, WARMUP, MEASURE, workers=4,
                          cache=cache) == first
        assert calls == configs
        # the farm path resolves the same way: one key per point
        calls.clear()
        assert farm_run_points(configs, WARMUP, MEASURE,
                               parse_hosts("local:2"), cache=cache) == first
        assert calls == configs


def _picky_point(config, warmup, measure):
    """Hangs on the middle load only; the rest run normally."""
    if config.load == LOADS[1]:
        time.sleep(600)
    return run_point(config, warmup, measure)


class TestExecutionConfig:
    def test_validation(self):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExecutionConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(retries=-1)

    def test_default_execution_round_trip(self):
        previous = parallel.get_default_execution()
        override = ExecutionConfig(workers=2, use_cache=False)
        assert parallel.set_default_execution(override) is previous
        try:
            assert parallel.get_default_execution() is override
        finally:
            parallel.set_default_execution(previous)


class FakeClock:
    """Deterministic monotonic clock for throttle tests."""

    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestProgressReporter:
    def test_non_tty_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=3, label="PR/x", stream=stream)
        reporter.update(elapsed=1.0)
        reporter.update(cached=True)
        reporter.finish()
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("PR/x [1/3]")
        assert "1 cached" in lines[1]

    def test_non_tty_updates_throttled(self):
        # A burst of quick updates must not flood a log file: at most one
        # line per min_interval, with the final state always emitted.
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(total=100, stream=stream, clock=clock,
                                    min_interval=2.0)
        for _ in range(50):
            reporter.update()
            clock.advance(0.01)  # 100 updates/sec
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1  # only the first update rendered
        assert lines[0].startswith("[1/100]")
        reporter.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("[50/100]")

    def test_non_tty_emits_after_interval_elapses(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(total=4, stream=stream, clock=clock,
                                    min_interval=2.0)
        reporter.update()
        clock.advance(0.5)
        reporter.update()  # throttled
        clock.advance(2.0)
        reporter.update()  # interval elapsed: rendered
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[1/4]")
        assert lines[1].startswith("[3/4]")
        reporter.finish()  # nothing suppressed since the last line
        assert len(stream.getvalue().splitlines()) == 2

    def test_finish_without_pending_state_adds_nothing(self):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(total=1, stream=stream, clock=clock)
        reporter.update()
        reporter.finish()
        assert len(stream.getvalue().splitlines()) == 1

    def test_disabled_is_silent(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=2, stream=stream, enabled=False)
        reporter.update()
        reporter.finish()
        assert stream.getvalue() == ""

    def test_format_eta(self):
        assert format_eta(75) == "1:15"
        assert format_eta(3725) == "1:02:05"
