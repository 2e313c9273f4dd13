"""Farm workers: pluggable executors for one shard of a campaign.

A worker is anything with a ``name``, a ``width`` (dispatches it holds
at once) and a blocking ``run_shard(job) -> ShardOutcome`` — the
manager calls it from a dispatch thread, so a worker may take seconds
or minutes.  Four kinds ship here:

``InProcessWorker``
    Runs each point in its dispatch thread (one slot, nothing to kill):
    ``run_points(workers=1)`` and the service's traced path.
``LocalPoolWorker``
    ``workers`` slots, each a single-process executor: a point past
    ``point_timeout`` has its process killed and its slot respawned
    while its siblings run on.  Both local kinds report a point's own
    failure (it raised, its process died, it timed out) in
    :attr:`ShardOutcome.failures`, charged to the point, not the host.
``SSHHostWorker``
    Pipes a JSON job document to ``python -m repro.farm.remote`` on a
    remote machine over plain ``ssh`` (stdlib :mod:`subprocess`, no new
    dependencies).  A custom ``command`` replaces the ssh prefix, which
    is also how tests exercise the full wire protocol without a daemon.
``ExternalWorker``
    The job-dir protocol for externally provisioned machines: the
    manager drops ``<root>/jobs/<job>.json``, the external agent
    (``repro.farm.remote --serve``) answers into
    ``<root>/results/<job>.json``; both sides rename atomically.

Workers *return results*; they never touch the campaign cache.  The
manager validates every outcome before a single byte reaches
``.repro_cache``, so a worker returning garbage is a health event, not
a corrupted campaign.
"""

from __future__ import annotations

import json
import subprocess
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.config import SimConfig
from repro.farm.plan import Shard, config_to_dict
from repro.sim.parallel import PointFn
from repro.sim.results import RunResult
from repro.util.errors import ConfigurationError, PointTimeoutError


def timed(point_fn: PointFn, config: SimConfig, warmup: int,
          measure: int) -> tuple[RunResult, float]:
    """Run one point and time it where it runs (module-level: pickles)."""
    start = time.monotonic()
    result = point_fn(config, warmup, measure)
    return result, time.monotonic() - start


def default_point_fn() -> PointFn:
    from repro.sim.sweep import run_point

    return run_point


class ShardTransportError(RuntimeError):
    """A worker's transport failed: dead ssh pipe, unreadable result
    document, or an external agent that never answered.  The manager
    treats it exactly like a crashed worker: charge the host, retry the
    shard elsewhere."""


@dataclass(frozen=True)
class ShardJob:
    """One dispatch: a shard plus everything needed to compute it."""

    shard: Shard
    configs: tuple[SimConfig, ...]
    warmup: int
    measure: int
    #: campaign-unique dispatch ordinal (re-dispatches get fresh ids).
    dispatch_id: int = 0

    def __post_init__(self) -> None:
        if len(self.configs) != len(self.shard.points):
            raise ConfigurationError(
                "shard/config mismatch:"
                f" {len(self.shard.points)} points,"
                f" {len(self.configs)} configs"
            )

    def to_wire(self) -> dict[str, Any]:
        """The JSON job document of :mod:`repro.farm.remote`."""
        return {
            "warmup": self.warmup,
            "measure": self.measure,
            "points": {
                str(idx): config_to_dict(config)
                for idx, config in zip(self.shard.points, self.configs)
            },
        }


@dataclass
class ShardOutcome:
    """What a worker produced for one dispatch."""

    ok: bool
    #: campaign point index -> result (success only).
    results: dict[int, RunResult] = field(default_factory=dict)
    error: str = ""
    #: campaign point index -> the point's own exception (local kinds).
    failures: dict[int, BaseException] = field(default_factory=dict)
    #: campaign point index -> seconds the point ran, where it ran.
    elapsed: dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_wire(cls, payload: dict[str, Any]) -> "ShardOutcome":
        """Parse a result document; malformed input raises
        :class:`ShardTransportError`."""
        try:
            if not payload["ok"]:
                return cls(ok=False, error=str(payload.get("error", "")))
            results = {
                int(idx): RunResult(**result)
                for idx, result in payload["results"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardTransportError(
                f"malformed result document: {exc!r}"
            ) from exc
        return cls(ok=True, results=results)


class FarmWorker:
    """Interface: named, blocking, up to ``width`` shards at a time."""

    name: str
    #: dispatches the manager may hold on this host at once.
    width: int = 1

    def run_shard(self, job: ShardJob) -> ShardOutcome:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (optional)."""


def _each_point(job: ShardJob, run_one) -> ShardOutcome:
    """``run_one`` over the job's points; a point's exception is its own."""
    outcome = ShardOutcome(ok=True)
    for idx, config in zip(job.shard.points, job.configs):
        try:
            outcome.results[idx], outcome.elapsed[idx] = run_one(config)
        except Exception as exc:
            outcome.failures[idx] = exc
    return outcome


class InProcessWorker(FarmWorker):
    """Points run in the dispatch thread itself (one slot, no kill)."""

    def __init__(self, name: str = "local", *,
                 point_fn: PointFn | None = None) -> None:
        self.name = name
        self.point_fn = point_fn

    def run_shard(self, job: ShardJob) -> ShardOutcome:
        point_fn = self.point_fn or default_point_fn()
        return _each_point(job, lambda config: timed(
            point_fn, config, job.warmup, job.measure))


class LocalPoolWorker(FarmWorker):
    """This machine's processes as one host: ``workers`` slots, each a
    single-process executor, so a wedged point is killed alone."""

    def __init__(self, name: str = "local", *, workers: int = 1,
                 point_timeout: float | None = None,
                 point_fn: PointFn | None = None) -> None:
        self.name = name
        self.width = workers
        self.point_timeout = point_timeout
        self.point_fn = point_fn
        self._lock = threading.Lock()
        self._idle: list[ProcessPoolExecutor] = []
        self._live: set[ProcessPoolExecutor] = set()

    @property
    def workers(self) -> int:
        return self.width

    def run_shard(self, job: ShardJob) -> ShardOutcome:
        point_fn = self.point_fn or default_point_fn()
        slot = self._take()

        def run_one(config):
            nonlocal slot
            future = slot.submit(timed, point_fn, config, job.warmup,
                                 job.measure)
            if not wait([future], timeout=self.point_timeout).done:
                slot = self._respawn(slot)
                raise PointTimeoutError(self.point_timeout, config)
            try:
                return future.result()
            except BrokenProcessPool:
                slot = self._respawn(slot)
                raise

        try:
            return _each_point(job, run_one)
        finally:
            self._give(slot)

    def close(self) -> None:
        """Stop idle slots; kill the busy ones (their answers are moot)."""
        with self._lock:
            idle, busy = self._idle, self._live.difference(self._idle)
            self._idle, self._live = [], set()
        for slot in idle:
            slot.shutdown(wait=True)
        for slot in busy:
            _kill(slot)

    def _take(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._idle:
                return self._idle.pop()
            slot = ProcessPoolExecutor(max_workers=1)
            self._live.add(slot)
            return slot

    def _give(self, slot: ProcessPoolExecutor) -> None:
        with self._lock:
            if slot in self._live:
                self._idle.append(slot)
                return
        slot.shutdown(wait=False)  # closed while this dispatch ran

    def _respawn(self, slot: ProcessPoolExecutor) -> ProcessPoolExecutor:
        with self._lock:
            self._live.discard(slot)
        _kill(slot)
        return self._take()


def _kill(slot: ProcessPoolExecutor) -> None:
    # A wedged point never returns; SIGTERM is the only way out.
    for proc in list((slot._processes or {}).values()):
        proc.terminate()
    slot.shutdown(wait=False, cancel_futures=True)


class SSHHostWorker(FarmWorker):
    """A remote host reached over ``ssh`` running the stdin/stdout
    protocol of :mod:`repro.farm.remote`."""

    def __init__(self, name: str, host: str = "", *,
                 python: str = "python3",
                 remote_pythonpath: str | None = None,
                 command: list[str] | None = None,
                 job_timeout: float | None = 600.0,
                 connect_timeout: float = 10.0) -> None:
        self.name = name
        self.host = host or name
        self.job_timeout = job_timeout
        if command is not None:
            self.command = list(command)
        else:
            remote = f"{python} -m repro.farm.remote"
            if remote_pythonpath:
                remote = f"PYTHONPATH={remote_pythonpath} {remote}"
            self.command = [
                "ssh", "-o", "BatchMode=yes",
                "-o", f"ConnectTimeout={int(connect_timeout)}",
                self.host, remote,
            ]

    def run_shard(self, job: ShardJob) -> ShardOutcome:
        try:
            proc = subprocess.run(
                self.command,
                input=json.dumps(job.to_wire()).encode("utf-8"),
                capture_output=True,
                timeout=self.job_timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ShardTransportError(
                f"{self.host}: no answer within {self.job_timeout:g}s"
            ) from exc
        except OSError as exc:
            raise ShardTransportError(f"{self.host}: {exc}") from exc
        if proc.returncode != 0 and not proc.stdout.strip():
            tail = proc.stderr.decode("utf-8", "replace")[-500:]
            raise ShardTransportError(
                f"{self.host}: exit {proc.returncode}: {tail}"
            )
        try:
            payload = json.loads(proc.stdout.decode("utf-8"))
        except ValueError as exc:
            raise ShardTransportError(
                f"{self.host}: unreadable result document"
            ) from exc
        return ShardOutcome.from_wire(payload)


class ExternalWorker(FarmWorker):
    """An externally provisioned machine speaking the job-dir protocol.

    The manager writes ``<root>/jobs/<name>-<dispatch>.json`` and polls
    for the matching file under ``<root>/results/``.  Whoever serves the
    directory (``repro.farm.remote --serve``, a cron job, a human with a
    laptop) is invisible to the farm — only answer latency matters.
    """

    def __init__(self, name: str, root: str | Path, *,
                 job_timeout: float = 600.0,
                 poll_interval: float = 0.05,
                 clock=time.monotonic, sleep=time.sleep) -> None:
        self.name = name
        self.root = Path(root)
        self.job_timeout = job_timeout
        self.poll_interval = poll_interval
        self._clock = clock
        self._sleep = sleep

    def run_shard(self, job: ShardJob) -> ShardOutcome:
        jobs_dir = self.root / "jobs"
        jobs_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{self.name}-{job.dispatch_id}.json"
        job_path = jobs_dir / stem
        tmp = job_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(job.to_wire()), "utf-8")
        tmp.replace(job_path)
        result_path = self.root / "results" / stem
        deadline = self._clock() + self.job_timeout
        while self._clock() < deadline:
            if result_path.exists():
                try:
                    payload = json.loads(result_path.read_text("utf-8"))
                except (OSError, ValueError):
                    pass  # torn read is impossible post-rename; retry
                else:
                    return ShardOutcome.from_wire(payload)
            self._sleep(self.poll_interval)
        raise ShardTransportError(
            f"{self.name}: no result for {stem}"
            f" within {self.job_timeout:g}s"
        )
