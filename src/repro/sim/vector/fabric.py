"""Struct-of-arrays fabric: the network phases of the C kernel.

:class:`VectorFabric` is a drop-in replacement for
:class:`repro.network.fabric.Fabric`.  All per-channel and per-message
network state lives in the flat numpy arrays of
:class:`~repro.sim.vector.state.VectorState`, and ``step`` is one kernel
call (``k_step``) that runs ejection, allocation and link traversal in
the reference order.  Delivery-slot claims and deliveries read and
write the NI input queues' arrays directly, so no endpoint work comes
back to Python.

Id spaces
---------
* virtual channel / sender id ``c`` in ``[0, NVC)`` with
  ``NVC = links * num_vcs``; ``c = lid * num_vcs + index``.
* injection sender id ``NVC + node * C + cls`` (``C`` queue classes).
* a packet's owner is its message slot in the state's ``m_*`` arrays.

Recovery schemes see the fabric through thin handle objects
(:class:`VecVC`, :class:`VecInjChannel`) that satisfy the sender
interface of :mod:`repro.network.channel`, so the unmodified scheme
controllers (including progressive recovery's lane) work against the
array state.  A captured packet leaves the arrays when the lane has
pulled its tail (``release``): from then on Python owns the message.
"""

from __future__ import annotations

from repro.protocol.message import Message
from repro.util.errors import SimulationError

from repro.sim.vector.state import (
    C_ALLOCFAIL,
    C_EJECTED,
    C_FORWARDED,
    C_INJECTED,
    H_OCC,
    H_PN,
    VectorState,
)

#: Sentinel returned by handle ``next_sink`` for routed senders; only
#: ``is None`` tests are ever performed on it (and it is always truthy).
_ROUTED = object()


class VecVC:
    """Sender-interface view of one virtual channel's array state.

    Handed to progressive recovery (``fabric.pending`` entries, lane
    sources); mutations go straight to the shared arrays, so the kernel
    sees them next cycle.
    """

    __slots__ = ("st", "sid", "router")

    is_injection = False

    def __init__(self, st: VectorState, sid: int) -> None:
        self.st = st
        self.sid = sid
        self.router = int(st.s_router[sid])

    @property
    def owner(self) -> Message | None:
        e = self.st.s_owner[self.sid]
        return None if e < 0 else self.st.message(e)

    @property
    def next_sink(self):
        return None if self.st.s_sink[self.sid] < 0 else _ROUTED

    # -- sender interface (recovery lane) -------------------------------
    def ready_flit(self, now: int) -> int | None:
        st = self.st
        sid = self.sid
        if st.v_count[sid] == 0:
            return None
        p = sid * st.D + st.v_hp[sid]
        if st.v_arr[p] >= now:
            return None
        return int(st.v_flit[p])

    def pop_flit(self) -> int:
        st = self.st
        sid = self.sid
        hp = int(st.v_hp[sid])
        flit = int(st.v_flit[sid * st.D + hp])
        st.v_hp[sid] = 0 if hp + 1 == st.D else hp + 1
        st.v_count[sid] -= 1
        st.hdr[H_OCC] -= 1
        return flit

    def release(self) -> None:
        st = self.st
        sid = self.sid
        if st.v_count[sid] != 0:  # pragma: no cover - guarded by callers
            raise SimulationError(f"releasing non-empty VC sid={sid}")
        _release(st, sid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VecVC(sid={self.sid} owner={int(self.st.s_owner[self.sid])} "
            f"occ={int(self.st.v_count[self.sid])})"
        )


class VecInjChannel:
    """Per-(node, class) injection channel over the array state.

    Flit progress lives in the owner's ``m_sent`` slot, so it stays
    coherent with the kernel's streaming.
    """

    __slots__ = ("st", "sid", "node", "router", "vc_class")

    is_injection = True

    def __init__(self, st: VectorState, sid: int, node: int, vc_class: int) -> None:
        self.st = st
        self.sid = sid
        self.node = node
        self.router = int(st.s_router[sid])
        self.vc_class = vc_class

    @property
    def owner(self) -> Message | None:
        e = self.st.s_owner[self.sid]
        return None if e < 0 else self.st.message(e)

    @property
    def idle(self) -> bool:
        return self.st.s_owner[self.sid] < 0

    @property
    def next_sink(self):
        return None if self.st.s_sink[self.sid] < 0 else _ROUTED

    # -- sender interface (recovery lane) -------------------------------
    def ready_flit(self, now: int) -> int | None:
        st = self.st
        e = st.s_owner[self.sid]
        if e < 0 or st.m_sent[e] >= st.m_size[e]:
            return None
        return int(st.m_sent[e])

    def pop_flit(self) -> int:
        st = self.st
        e = st.s_owner[self.sid]
        flit = int(st.m_sent[e])
        st.m_sent[e] = flit + 1
        return flit

    def release(self) -> None:
        _release(self.st, self.sid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VecInj(node={self.node} cls={self.vc_class} "
            f"owner={int(self.st.s_owner[self.sid])})"
        )


def _release(st: VectorState, sid: int) -> None:
    """The lane pulled the tail: the sender frees, and the packet's
    message slot with it (the rescue holds the message in Python)."""
    e = int(st.s_owner[sid])
    st.s_owner[sid] = -1
    st.s_sink[sid] = -1
    if e >= 0:
        st.free_message(e)


class VectorFabric:
    """Array-backed fabric; same cycle semantics as the reference."""

    def __init__(self, st: VectorState, num_vcs: int, routing) -> None:
        self.st = st
        self.topology = st.topology
        self.num_vcs = num_vcs
        self.flit_buffer_depth = st.D
        self.routing = routing
        self.soa = st.soa
        self.NVC = st.NVC
        self.C = st.C
        self.tracer = None  # never set; VectorEngine rejects tracers
        self._inj_channels: dict[tuple[int, int], VecInjChannel] = {}
        self._vc_handles: dict[int, VecVC] = {}

    def injection_channel(self, node: int, vc_class: int) -> VecInjChannel:
        key = (node, vc_class)
        chan = self._inj_channels.get(key)
        if chan is None:
            sid = self.NVC + node * self.C + vc_class
            chan = self._inj_channels[key] = VecInjChannel(
                self.st, sid, node, vc_class
            )
        return chan

    # ------------------------------------------------------------------
    # Cycle
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        st = self.st
        st.check(st.lib.k_step(st.k, now))

    # ------------------------------------------------------------------
    # Introspection (recovery, quiesce, tests)
    # ------------------------------------------------------------------
    def _handle(self, sid: int):
        if sid >= self.NVC:
            node, cls = divmod(sid - self.NVC, self.C)
            return self.injection_channel(node, cls)
        h = self._vc_handles.get(sid)
        if h is None:
            h = self._vc_handles[sid] = VecVC(self.st, sid)
        return h

    @property
    def pending(self) -> list:
        """Frontier handles in kernel order."""
        st = self.st
        return [self._handle(int(sid)) for sid in st.pending[: st.hdr[H_PN]]]

    def frontier_senders(self) -> list:
        return [
            s for s in self.pending
            if s.owner is not None and s.next_sink is None
        ]

    def blocked_frontiers(self, now: int, threshold: int) -> list:
        out = []
        for s in self.pending:
            msg = s.owner
            if (
                msg is not None
                and s.next_sink is None
                and msg.blocked_since >= 0
                and now - msg.blocked_since > threshold
            ):
                out.append(s)
        return out

    def detach_frontier(self, sender) -> None:
        """Remove a frontier from the pending set (rescue path)."""
        self.st.lib.k_detach(self.st.k, sender.sid)

    def occupancy(self) -> int:
        return int(self.st.hdr[H_OCC])

    @property
    def flits_forwarded(self) -> int:
        return int(self.st.cnt[C_FORWARDED])

    @property
    def flits_injected(self) -> int:
        return int(self.st.cnt[C_INJECTED])

    @property
    def flits_ejected(self) -> int:
        return int(self.st.cnt[C_EJECTED])

    @property
    def alloc_failures(self) -> int:
        return int(self.st.cnt[C_ALLOCFAIL])
