"""The vector backend's engine: endpoints and fabric in the C kernel.

:class:`VectorEngine` keeps the reference cycle order — traffic, the NI
sweep, the fabric, the scheme — but the NI sweep (``k_endpoint``), the
fabric (``k_step``) and every endpoint detector (``k_detect``) run in
the compiled kernel over :class:`~repro.sim.vector.state.VectorState`.
The kernel runs every node and every detector every cycle, exactly as
the reference does, so no state can drift between the backends.

Python keeps two jobs:

* **traffic** — generation is the reference ``SyntheticTraffic`` /
  ``TraceTraffic``; ``enqueue_root`` registers each root in the
  kernel's message table;
* **rare recovery actions** — DR's ``_try_deflect`` and PR's capture,
  lane and priority-service callback run unchanged against the thin
  views of :mod:`repro.sim.vector.endpoint` and
  :mod:`repro.sim.vector.fabric`.  The kernel suspends where the
  reference interleaves them: ``k_endpoint`` returns when a priority
  service completes mid-sweep, ``k_detect`` (DR) when a fired detector
  can deflect, and each resumes where it stopped.

The introspection layers (telemetry tracing, fault injection, runtime
invariants, the liveness watchdog, CWG detection) and the non-endpoint
detectors are reference-only.  Requesting any of them raises
:class:`~repro.util.errors.UnsupportedFeatureError` at construction —
never a silent no-op.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.vector.endpoint import VecDetector, VecNI, VecStats
from repro.sim.vector.fabric import VectorFabric
from repro.sim.vector.state import (
    DET_DR,
    DET_NONE,
    DET_PR,
    H_NEWDET,
    H_OCC,
    H_PN,
    H_TLOG,
    MC_IDLE,
    VectorState,
)
from repro.util.errors import SimulationError, UnsupportedFeatureError


def _check_supported(config: SimConfig) -> None:
    unsupported = []
    if config.faults:
        unsupported.append("fault injection (faults=...)")
    if config.invariants_every:
        unsupported.append("runtime invariants (invariants_every=...)")
    if config.watchdog_timeout:
        unsupported.append("the liveness watchdog (watchdog_timeout=...)")
    if config.cwg_interval:
        unsupported.append("CWG detection (cwg_interval=...)")
    if config.detector != "endpoint":
        # The kernel runs only the endpoint state machine; CMH probes
        # and timeout sites are reference objects.
        unsupported.append(f"non-default detectors (detector={config.detector!r})")
    if unsupported:
        raise UnsupportedFeatureError(
            "the vector backend does not support "
            + ", ".join(unsupported)
            + "; run these with backend='reference'"
        )


class _NodeFlags:
    """``dict.get`` over the kernel's per-node fired flags (PR's
    ``_fired``)."""

    __slots__ = ("flags",)

    def __init__(self, flags) -> None:
        self.flags = flags

    def get(self, node, default=None):
        return True if self.flags[node] else default


class VectorEngine(Engine):
    """Engine variant running endpoints, fabric and detection in C."""

    def __init__(self, config: SimConfig, **kwargs) -> None:
        _check_supported(config)
        super().__init__(config, **kwargs)
        scheme = self.scheme
        name = scheme.name
        st = self.state
        detector = scheme.detector
        if name == "SA":
            self._scheme_step = scheme.step  # base no-op
        elif name in ("NONE", "DR", "PR"):
            sites = detector.sites
            st.add_detectors(sites)
            views = [VecDetector(st, i, det) for i, det in enumerate(sites)]
            detector.sites = views
            if name == "NONE":
                scheme.detectors = views
                self._scheme_step = self._none_step
            else:
                scheme.controller.detectors = views
                self._dets = views
                if name == "DR":
                    self._scheme_step = self._dr_step
                else:
                    pc = scheme.controller
                    pc._dets_by_node = {}
                    for det in views:
                        pc._dets_by_node.setdefault(det.ni.node, []).append(det)
                    self._fired = _NodeFlags(st.fired)
                    self._scheme_step = self._pr_step
                    self._install_pr_hooks()
        else:
            raise UnsupportedFeatureError(
                f"the vector backend does not support scheme {name!r}; "
                "run it with backend='reference'"
            )

    # ------------------------------------------------------------------
    # Construction hooks
    # ------------------------------------------------------------------
    def _build_fabric(self, config: SimConfig) -> VectorFabric:
        self.state = VectorState(self.topology, self.scheme, config)
        return VectorFabric(self.state, config.num_vcs, self.scheme.routing)

    def _build_stats(self) -> VecStats:
        return VecStats(self, self.state)

    def _build_interfaces(self, config: SimConfig) -> list:
        return [
            VecNI(self.state, node, self.scheme, self.stats)
            for node in range(self.topology.num_nodes)
        ]

    def attach_tracer(self, tracer) -> None:
        raise UnsupportedFeatureError(
            "telemetry tracing is not supported by the vector backend; "
            "run traced experiments with backend='reference'"
        )

    # ------------------------------------------------------------------
    # Cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        """``Engine.step`` for every supported configuration (the
        skipped layers — faults, CWG, tracer, invariants — are rejected
        at construction)."""
        self.now += 1
        now = self.now
        self.traffic.step(now)
        self._endpoint_step(now)
        self.fabric.step(now)
        self._scheme_step(now)
        self.stats.on_cycle(now)

    def _endpoint_step(self, now: int) -> None:
        """The NI sweep, resuming after each priority completion."""
        st = self.state
        st.ensure_room()
        lib, k = st.lib, st.k
        node = lib.k_endpoint(k, now, 0, 0)
        while node >= 0:
            self.interfaces[node].controller.complete_priority(now)
            st.ensure_room()
            node = lib.k_endpoint(k, now, node, 1)
        n = st.hdr[H_TLOG]
        if n:
            for tid in st.tlog[:n].tolist():
                st.txn_completed(tid, now)

    # ------------------------------------------------------------------
    # Scheme steps: kernel detection, reference recovery actions
    # ------------------------------------------------------------------
    def _none_step(self, now: int) -> None:
        st = self.state
        st.lib.k_detect(st.k, now, DET_NONE, 0)
        n = st.hdr[H_NEWDET]
        if n:
            self.scheme.deadlocks_detected += int(n)

    def _dr_step(self, now: int) -> None:
        st = self.state
        lib, k = st.lib, st.k
        d = lib.k_detect(k, now, DET_DR, 0)
        if d < 0:
            return
        controller = self.scheme.controller
        drain = self.scheme.config.recovery_policy == "drain"
        while d >= 0:
            det = self._dets[d]
            if not controller._try_deflect(det, now):  # pragma: no cover
                raise SimulationError("kernel deflection guard diverged")
            if drain:
                out_q = det.ni.out_bank.queue(det.out_cls)
                while out_q.admission_full and controller._try_deflect(det, now):
                    pass
            det.reset(now)
            d = lib.k_detect(k, now, DET_DR, d + 1)

    def _pr_step(self, now: int) -> None:
        st = self.state
        st.lib.k_detect(st.k, now, DET_PR, 0)
        pc = self.scheme.controller
        pc._fired = self._fired
        if pc.phase == pc.IDLE:
            pc._circulate(now)
        elif pc.phase == pc.LANE:
            if pc.lane.step(now):
                pc._on_lane_arrival(now)
        elif pc.phase == pc.RETURN:
            pc._return_timer -= 1
            if pc._return_timer <= 0:
                pc._on_token_returned(now)
        # SERVICE: nothing to do; the MC callback advances the machine.

    def _install_pr_hooks(self) -> None:
        """Route the router-capture scan through the kernel."""
        pc = self.scheme.controller
        fabric = self.fabric
        st = self.state
        timeout = self.scheme.config.router_timeout

        def _blocked_at_router(router: int, now: int):
            sid = st.lib.k_longest_blocked(st.k, router, now, timeout)
            return None if sid < 0 else fabric._handle(sid)

        pc._blocked_at_router = _blocked_at_router

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_queued_messages(self) -> int:
        st = self.state
        n = st.QSRC
        return int(st.q_len[:n].sum() + st.q_held[:n].sum())

    def _empty(self) -> bool:
        st = self.state
        if st.hdr[H_OCC] > 0 or st.hdr[H_PN] > 0:
            return False
        if self.total_queued_messages() > 0 or st.q_len[st.QSRC:].any():
            return False
        if (st.mc_cur != MC_IDLE).any() or (st.s_owner[st.NVC:] >= 0).any():
            return False
        return self._scheme_and_traffic_idle()
