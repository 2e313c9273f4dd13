"""Deterministic fault injection for the farm *itself*.

:mod:`repro.faults` attacks the simulated network; this module attacks
the machinery that runs it.  A :class:`ChaosWorker` wraps any real
worker and misbehaves on schedule, driven by the same spec-string style
as ``repro.faults.parse_fault`` so a chaos campaign is configured,
cached and reproduced like a faulted simulation:

``crash``
    The dispatch raises (a worker process that died mid-shard).
``hang``
    The dispatch sleeps ``duration`` seconds before answering (a wedged
    or unreachable host); with the manager's ``hang_timeout`` armed the
    dispatch is abandoned and the shard re-dispatched elsewhere, and
    the late answer is discarded.
``garbage``
    The dispatch returns syntactically valid results whose payloads are
    corrupted (bit-rot, a wrong checkout, a cosmic ray) — the manager's
    validation layer must catch them before they reach the cache.

Scheduling is by *dispatch ordinal on that worker* (``at`` / ``count``),
which is deterministic for a fixed manager configuration: the fault
fires on the Nth..(N+count-1)th shard handed to the host, whatever
those shards are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.farm.workers import FarmWorker, ShardJob, ShardOutcome
from repro.util.errors import ConfigurationError

WORKER_FAULT_KINDS = ("crash", "hang", "garbage")


class InjectedWorkerCrash(RuntimeError):
    """The failure raised by a scheduled ``crash`` fault."""


@dataclass(frozen=True)
class WorkerFaultSpec:
    """One scheduled misbehaviour of one farm worker."""

    #: one of :data:`WORKER_FAULT_KINDS`.
    kind: str
    #: worker name the fault applies to ("" = every worker).
    host: str = ""
    #: 0-based dispatch ordinal (per worker) on which the fault fires.
    at: int = 0
    #: number of consecutive dispatches affected.
    count: int = 1
    #: hang duration in seconds (``hang`` only).
    duration: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ConfigurationError(
                f"worker fault kind {self.kind!r} not in {WORKER_FAULT_KINDS}"
            )
        if self.at < 0 or self.count < 1:
            raise ConfigurationError("worker fault at/count must be sane")
        if self.duration < 0:
            raise ConfigurationError("worker fault duration must be >= 0")

    def applies(self, host: str, ordinal: int) -> bool:
        if self.host and self.host != host:
            return False
        return self.at <= ordinal < self.at + self.count

    def describe(self) -> str:
        where = f"host={self.host}" if self.host else "any"
        life = f"at={self.at}" + (f"x{self.count}" if self.count > 1 else "")
        return f"{self.kind}[{where},{life}]"


def parse_worker_fault(text: str) -> WorkerFaultSpec:
    """Parse ``kind[:key=value,...]``, e.g. ``crash:host=w0,at=1`` or
    ``hang:host=w1,at=0,duration=0.5``."""
    kind, _, rest = text.partition(":")
    kwargs: dict[str, object] = {}
    if rest:
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"bad worker fault parameter {pair!r} (expected key=value)"
                )
            try:
                if key == "host":
                    kwargs[key] = value
                elif key in ("at", "count"):
                    kwargs[key] = int(value)
                elif key == "duration":
                    kwargs[key] = float(value)
                else:
                    raise ConfigurationError(
                        f"unknown worker fault parameter {key!r}"
                    )
            except ValueError:
                raise ConfigurationError(
                    f"bad value {value!r} for worker fault parameter {key!r}"
                ) from None
    return WorkerFaultSpec(kind=kind, **kwargs)  # type: ignore[arg-type]


def _corrupt(outcome: ShardOutcome) -> ShardOutcome:
    """Valid-looking but wrong: every result's identity fields drift."""
    results = {
        idx: replace(result, load=result.load + 1.0,
                     throughput_fpc=-result.throughput_fpc - 1.0)
        for idx, result in outcome.results.items()
    }
    return ShardOutcome(ok=True, results=results)


class ChaosWorker(FarmWorker):
    """Wrap ``inner`` and misbehave according to ``faults``."""

    def __init__(self, inner: FarmWorker,
                 faults: tuple[WorkerFaultSpec, ...] | list[WorkerFaultSpec],
                 *, sleep=time.sleep) -> None:
        self.inner = inner
        self.name = inner.name
        self.width = inner.width
        self.faults = tuple(faults)
        self._sleep = sleep
        self.dispatches = 0
        #: what actually fired, for asserting a chaos run did its job.
        self.activations: list[str] = []

    def run_shard(self, job: ShardJob) -> ShardOutcome:
        ordinal = self.dispatches
        self.dispatches += 1
        active = [f for f in self.faults if f.applies(self.name, ordinal)]
        for fault in active:
            if fault.kind == "hang":
                self.activations.append(fault.describe())
                self._sleep(fault.duration)
        for fault in active:
            if fault.kind == "crash":
                self.activations.append(fault.describe())
                raise InjectedWorkerCrash(
                    f"{self.name}: injected crash on dispatch {ordinal}"
                )
        outcome = self.inner.run_shard(job)
        for fault in active:
            if fault.kind == "garbage":
                self.activations.append(fault.describe())
                outcome = _corrupt(outcome)
        return outcome

    def close(self) -> None:
        self.inner.close()
