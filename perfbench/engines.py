"""Engine windows on both backends: timing, layer counts, layer spans."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from hostspeed import HostClock

from repro.config import SimConfig
from repro.sim.engine import build_engine
from repro.sim.results import RunResult
from repro.sim.sweep import summarize_window
from repro.sim.vector.kernel import load_kernel

BACKENDS = ("reference", "vector")
#: cycles between host-speed calibrations; about 0.1 s of the reference
#: engine on the saturated 8x8 torus.
CHUNK = 250
#: short backend tags used in metric names and span run ids.
TAG = {"reference": "ref", "vector": "vec"}


@dataclass
class WindowRun:
    result: RunResult
    #: deterministic layer counters over the whole run (warmup+measure).
    counts: dict[str, int]
    cycles: int
    #: CPU seconds of the cycle loop, rescaled to the nominal host.
    cpu_s: float
    raw_cpu_s: float


def prepare() -> None:
    """Lazy set-up kept out of ``setup_s``: the vector kernel build
    (once per checkout) and the first-use imports of both engines (once
    per process, before any config is built)."""
    load_kernel()
    for backend in BACKENDS:
        build_engine(SimConfig(dims=(2, 2), backend=backend))


def build_both(config: SimConfig) -> float:
    """Seconds from config to runnable engines on both backends."""
    start = time.perf_counter()
    for backend in BACKENDS:
        build_engine(replace(config, backend=backend))
    return time.perf_counter() - start


def _instrument(engine, recorder, backend: str) -> None:
    """Spans around the public per-cycle calls of each layer.

    The endpoint phase has no public call to time (``ni.step`` per node
    on the reference, private ``_step_node`` on the vector backend), so
    it is the self time of ``engine.step``, together with
    ``stats.on_cycle`` (``SimStats`` has ``__slots__``) and, on the
    vector backend, the scheme step it makes through private methods.
    """
    recorder.wrap(engine, "step", "engine.step")
    recorder.wrap(engine.traffic, "step", "traffic.step")
    recorder.wrap(engine.fabric, "step", "fabric.step")
    if backend == "reference":
        recorder.wrap(engine.scheme, "step", "scheme.step")


def _counts(engine) -> dict[str, int]:
    scheme = engine.scheme
    controller = getattr(scheme, "controller", None)
    controllers = [ni.controller for ni in engine.interfaces]
    return {
        "cycles": engine.now,
        "nodes": engine.topology.num_nodes,
        "links": len(engine.topology.links),
        "traffic.messages_created": engine.traffic.generated,
        "endpoint.messages_serviced": sum(c.messages_serviced
                                          for c in controllers),
        "endpoint.txns_completed": engine.stats.total.transactions_completed,
        "endpoint.busy_cycles": sum(c.busy_cycles for c in controllers),
        "fabric.flits_forwarded": engine.fabric.flits_forwarded,
        "fabric.alloc_failures": engine.fabric.alloc_failures,
        "scheme.detections": scheme.deadlocks_detected,
        "scheme.recoveries": scheme.recoveries,
        "scheme.pr_rescues": getattr(controller, "rescues", 0),
        "scheme.dr_deflections": getattr(controller, "deflections", 0),
    }


def _run(engine, cycles: int, clock: HostClock) -> tuple[float, float]:
    """``engine.run`` in chunks; raw and rescaled CPU seconds."""
    raw = scaled = 0.0
    for start in range(0, cycles, CHUNK):
        t0 = time.process_time()
        engine.run(min(CHUNK, cycles - start))
        cpu = time.process_time() - t0
        raw += cpu
        scaled += clock.scale(cpu)
    return raw, scaled


def run_window(config: SimConfig, warmup: int, measure: int, backend: str,
               clock: HostClock, recorder=None) -> WindowRun:
    """One seeded window on ``backend``, as ``Engine.run_measured`` runs
    it.  Host time is CPU time of the cycle loop only (engine
    construction is ``setup_s``), rescaled chunk by chunk."""
    config = replace(config, backend=backend)
    engine = build_engine(config)
    if recorder is not None:
        _instrument(engine, recorder, backend)
    clock.restart()
    raw, scaled = _run(engine, warmup, clock)
    engine.stats.begin_window(engine.now)
    raw2, scaled2 = _run(engine, measure, clock)
    window = engine.stats.end_window(engine.now)
    return WindowRun(summarize_window(config, engine, window),
                     _counts(engine), warmup + measure, scaled + scaled2,
                     raw + raw2)
