"""Endpoint views: the reference NI/queue/controller/detector/stats
surfaces over the vector backend's arrays.

The kernel advances every endpoint every cycle; these thin objects only
let the rest of the program read that state (``ni.outstanding``,
``len(ni.source_queue)``, ``controller.messages_serviced``, queue slot
accounting, ``engine.stats``) and let the unchanged recovery code — DR's
``_try_deflect``, PR's capture, lane and priority-service callback —
peek, pop, push, reserve and request priority service exactly as it
does on the reference objects.
"""

from __future__ import annotations

from repro.endpoint.controller import MemoryController
from repro.endpoint.queues import QueueBank
from repro.sim.stats import SimStats, WindowCounters, _new_type_row
from repro.util.errors import SimulationError

from repro.sim.vector.state import (
    C_CREATED,
    H_FIRST_DL,
    H_MEAS,
    MC_IDLE,
    MC_PRIORITY,
    R_FIELDS_D,
    R_FIELDS_I,
    R_ND,
    R_NI,
    W_CONSUMED,
    W_DEADLOCKS,
    W_DELIVERED,
    W_FIELDS_D,
    W_FIELDS_I,
    W_FLITS,
    W_LATMAX,
    W_LATSUM,
    W_ND,
    W_NI,
    W_TXNLATSUM,
    W_TXNS,
    W_UNRESOLVED,
    VectorState,
)


class VecQueue:
    """One NI input or output queue (``MessageQueue`` surface)."""

    __slots__ = ("st", "q", "capacity")

    def __init__(self, st: VectorState, q: int) -> None:
        self.st = st
        self.q = q
        self.capacity = st.qcap

    # -- slot accounting --------------------------------------------------
    @property
    def held(self) -> int:
        return int(self.st.q_held[self.q])

    @held.setter
    def held(self, value: int) -> None:
        self.st.q_held[self.q] = value

    @property
    def reserved(self) -> int:
        return int(self.st.q_res[self.q])

    @reserved.setter
    def reserved(self, value: int) -> None:
        self.st.q_res[self.q] = value

    @property
    def version(self) -> int:
        return int(self.st.q_ver[self.q])

    @property
    def entries(self) -> list:
        return self.st.queue_messages(self.q)

    def __len__(self) -> int:
        return int(self.st.q_len[self.q])

    @property
    def free_slots(self) -> int:
        st, q = self.st, self.q
        return int(self.capacity - st.q_len[q] - st.q_held[q] - st.q_res[q])

    @property
    def admission_full(self) -> bool:
        return self.free_slots <= 0

    @property
    def occupancy(self) -> int:
        return int(self.st.q_len[self.q] + self.st.q_held[self.q])

    # -- queue operations (MessageQueue semantics) ------------------------
    def try_claim_slot(self, msg) -> bool:
        if msg.has_reservation and self.reserved > 0:
            self.reserved -= 1
            self.held += 1
            return True
        if self.free_slots > 0:
            self.held += 1
            return True
        return False

    def commit(self, msg) -> None:
        if self.held <= 0:  # pragma: no cover - guarded
            raise SimulationError("commit without a held slot")
        self.held -= 1
        self._append(msg)

    push_held = commit

    def try_reserve_reply(self, extra: int = 0) -> bool:
        if self.free_slots + extra > 0:
            self.reserved += 1
            return True
        return False

    def release_reservation(self) -> None:
        if self.reserved <= 0:  # pragma: no cover - guarded
            raise SimulationError("releasing a reservation that was never made")
        self.reserved -= 1

    def push(self, msg) -> None:
        if self.free_slots <= 0:  # pragma: no cover - guarded by callers
            raise SimulationError("push into a full queue")
        self._append(msg)

    def hold_slot(self) -> bool:
        if self.free_slots > 0:
            self.held += 1
            return True
        return False

    def release_held(self) -> None:
        if self.held <= 0:  # pragma: no cover - guarded
            raise SimulationError("releasing a held slot that was never held")
        self.held -= 1

    def peek(self):
        """A copy of the head message (None when empty)."""
        st = self.st
        return st.message(st.q_head[self.q]) if st.q_len[self.q] else None

    def pop(self):
        """Remove the head; the returned copy is Python's from now on."""
        st = self.st
        msg = st.message(st.q_head[self.q])
        st.free_message(st.lib.k_qpop(st.k, self.q))
        return msg

    def _append(self, msg) -> None:
        st = self.st
        st.lib.k_qpush(st.k, self.q, st.add_message(msg))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VecQueue(occ={len(self)} held={self.held} "
            f"rsvd={self.reserved}/{self.capacity})"
        )


class _SourceQueue:
    """``len()`` and truthiness of a node's source queue."""

    __slots__ = ("st", "q")

    def __init__(self, st: VectorState, q: int) -> None:
        self.st = st
        self.q = q

    def __len__(self) -> int:
        return int(self.st.q_len[self.q])


class VecController:
    """One memory controller (``MemoryController`` surface).

    ``_priority`` holds the pending rescue ``(message, callback)``; the
    kernel only knows that one is requested and how long it takes, and
    hands the completion back (:meth:`complete_priority`).
    """

    __slots__ = ("st", "node", "policy", "stats", "_priority")

    stalled = False
    tracer = None

    def __init__(self, st: VectorState, node: int, policy, stats) -> None:
        self.st = st
        self.node = node
        self.policy = policy
        self.stats = stats
        self._priority = None

    @property
    def current(self):
        cur = self.st.mc_cur[self.node]
        if cur == MC_IDLE:
            return None
        if cur == MC_PRIORITY:
            return self._priority[0]
        return self.st.message(cur)

    @property
    def idle(self) -> bool:
        return self.st.mc_cur[self.node] == MC_IDLE

    @property
    def current_in_cls(self) -> int | None:
        cls = int(self.st.mc_incls[self.node])
        return None if cls < 0 else cls

    @property
    def busy_until(self) -> int:
        return int(self.st.mc_until[self.node])

    @property
    def messages_serviced(self) -> int:
        return int(self.st.mc_serviced[self.node])

    @property
    def busy_cycles(self) -> int:
        return int(self.st.mc_busy[self.node])

    def request_priority_service(self, msg, callback) -> None:
        if self._priority is not None:  # pragma: no cover - guarded
            raise SimulationError("second concurrent priority service")
        self._priority = (msg, callback)
        st = self.st
        st.mc_prio[self.node] = 1
        st.mc_pdur[self.node] = (
            self.policy.service_time if msg.continuation else self.policy.sink_time
        )

    instantiate_subordinates = MemoryController.instantiate_subordinates

    def complete_priority(self, now: int) -> None:
        """The Python half of ``_complete`` for a priority service (the
        kernel has cleared ``current`` and counted it serviced)."""
        msg, callback = self._priority
        self._priority = None
        self.st.mc_prio[self.node] = 0
        subs = self.instantiate_subordinates(msg, now)
        callback(msg, subs, now)
        self._account_consumption(msg, now)

    def _account_consumption(self, msg, now: int) -> None:
        msg.consumed_cycle = now
        self.stats.on_consumed(msg, now)
        txn = msg.transaction
        if txn is not None:
            st = self.st
            tid = st.txn_id(txn)
            st.t_out[tid] -= 1
            if st.t_out[tid] == 0 and not st.t_done[tid]:
                st.t_done[tid] = 1
                st.txn_completed(tid, now)
                self.stats.on_transaction_complete(txn, now)


class VecNI:
    """One network interface (``NetworkInterface`` surface)."""

    __slots__ = ("st", "node", "in_bank", "out_bank", "source_queue",
                 "controller")

    dmb = None
    tracer = None

    def __init__(self, st: VectorState, node: int, policy, stats) -> None:
        self.st = st
        self.node = node
        C = st.C
        self.in_bank = QueueBank.of(
            [VecQueue(st, st.QIN + node * C + cls) for cls in range(C)]
        )
        self.out_bank = QueueBank.of(
            [VecQueue(st, st.QOUT + node * C + cls) for cls in range(C)]
        )
        self.source_queue = _SourceQueue(st, st.QSRC + node)
        self.controller = VecController(st, node, policy, stats)

    @property
    def outstanding(self) -> int:
        return int(self.st.ni_out[self.node])

    @outstanding.setter
    def outstanding(self, value: int) -> None:
        self.st.ni_out[self.node] = value

    def enqueue_root(self, root) -> None:
        """Hand a freshly generated transaction root to the kernel."""
        self.st.enqueue_root(self.node, root)

    def on_transaction_complete(self) -> None:
        self.st.ni_out[self.node] -= 1


class VecDetector:
    """One endpoint ``DetectorPair`` whose state machine the kernel runs."""

    __slots__ = ("st", "i", "ni", "in_cls", "out_cls", "threshold",
                 "occupancy_threshold", "require_request_child")

    def __init__(self, st: VectorState, i: int, det) -> None:
        self.st = st
        self.i = i
        self.ni = det.ni
        self.in_cls = det.in_cls
        self.out_cls = det.out_cls
        self.threshold = det.threshold
        self.occupancy_threshold = det.occupancy_threshold
        self.require_request_child = det.require_request_child

    @property
    def since(self) -> int:
        return int(self.st.d_since[self.i])

    @since.setter
    def since(self, value: int) -> None:
        self.st.d_since[self.i] = value

    @property
    def episode_counted(self) -> bool:
        return bool(self.st.d_counted[self.i])

    @episode_counted.setter
    def episode_counted(self, value: bool) -> None:
        self.st.d_counted[self.i] = value

    def head(self):
        return self.ni.in_bank.queue(self.in_cls).peek()

    def reset(self, now: int) -> None:
        self.since = now
        self.episode_counted = False


class VecStats(SimStats):
    """``SimStats`` whose counters are the kernel's arrays.

    The kernel accumulates deliveries, consumptions, admissions,
    transaction completions and endpoint detections; the hooks below
    serve the Python recovery code, writing the same arrays in the same
    order, so every float sum matches the reference's.
    """

    __slots__ = ("st", "_window_span")

    def __init__(self, engine, st: VectorState) -> None:
        self.engine = engine
        self.st = st
        self._window_span: list[int] | None = None
        self.load_samples = []
        self._load_interval = 0
        self._last_sample_cycle = 0
        self._last_injected_flits = 0
        for t in engine.protocol.all_types:
            st.row_id(t.name)

    # -- counter views ----------------------------------------------------
    def _counters(self, w: int, start: int, end: int) -> WindowCounters:
        st = self.st
        ints = st.st_i[w * W_NI : (w + 1) * W_NI].tolist()
        floats = st.st_d[w * W_ND : (w + 1) * W_ND].tolist()
        return WindowCounters(
            start_cycle=start, end_cycle=end,
            **dict(zip(W_FIELDS_I, ints)), **dict(zip(W_FIELDS_D, floats)),
        )

    @property
    def total(self) -> WindowCounters:
        return self._counters(0, 0, 0)

    @property
    def window(self) -> WindowCounters | None:
        span = self._window_span
        return None if span is None else self._counters(1, *span)

    @property
    def measuring(self) -> bool:
        return bool(self.st.hdr[H_MEAS])

    @property
    def messages_created(self) -> int:
        return int(self.st.cnt[C_CREATED])

    @property
    def first_deadlock_cycle(self) -> int:
        return int(self.st.hdr[H_FIRST_DL])

    @property
    def by_type(self) -> dict[str, dict[str, float]]:
        st = self.st
        out = {}
        for row, name in enumerate(st.row_names):
            ints = st.r_i[row * R_NI : (row + 1) * R_NI].tolist()
            if not ints[0]:
                continue
            floats = st.r_d[row * R_ND : (row + 1) * R_ND].tolist()
            out[name] = {**_new_type_row(), **dict(zip(R_FIELDS_I, ints)),
                         **dict(zip(R_FIELDS_D, floats))}
        return out

    # -- window control -----------------------------------------------------
    def begin_window(self, now: int) -> None:
        st = self.st
        st.st_i[W_NI:] = 0
        st.st_d[W_ND:] = 0.0
        self._window_span = [now, now]
        st.hdr[H_MEAS] = 1

    def end_window(self, now: int) -> WindowCounters:
        assert self._window_span is not None
        self._window_span[1] = now
        self.st.hdr[H_MEAS] = 0
        return self.window

    # -- events from Python recovery code ---------------------------------
    def _live(self):
        return range(2 if self.st.hdr[H_MEAS] else 1)

    def on_created(self, msg) -> None:
        self.st.cnt[C_CREATED] += 1

    def on_delivered(self, msg, now: int) -> None:
        st = self.st
        latency = now - msg.created_cycle
        ri = st.row_id(msg.mtype.name) * R_NI
        rd = ri // R_NI * R_ND
        st.r_i[ri] += 1
        st.r_i[ri + 1] += msg.size
        st.r_d[rd] += latency
        entered = msg.injected_cycle if msg.injected_cycle >= 0 else msg.created_cycle
        st.r_d[rd + 1] += entered - msg.created_cycle
        st.r_d[rd + 2] += now - entered
        if msg.rescued:
            st.r_i[ri + 2] += 1
        for w in self._live():
            i = w * W_NI
            st.st_i[i + W_DELIVERED] += 1
            st.st_i[i + W_FLITS] += msg.size
            st.st_d[w * W_ND + W_LATSUM] += latency
            if latency > st.st_i[i + W_LATMAX]:
                st.st_i[i + W_LATMAX] = latency

    def on_consumed(self, msg, now: int) -> None:
        for w in self._live():
            self.st.st_i[w * W_NI + W_CONSUMED] += 1

    def on_transaction_complete(self, txn, now: int) -> None:
        self.engine.interfaces[txn.requester].on_transaction_complete()
        latency = now - txn.created_cycle
        for w in self._live():
            self.st.st_i[w * W_NI + W_TXNS] += 1
            self.st.st_d[w * W_ND + W_TXNLATSUM] += latency

    def on_deadlock(self, now: int, resolved: bool) -> None:
        st = self.st
        if st.hdr[H_FIRST_DL] < 0:
            st.hdr[H_FIRST_DL] = now
        field = W_DEADLOCKS if resolved else W_UNRESOLVED
        for w in self._live():
            st.st_i[w * W_NI + field] += 1
