"""The vector backend's struct-of-arrays state, shared with the kernel.

:class:`VectorState` owns every array the compiled kernel
(``kernel.c``) advances — fabric, message table, NI queues, memory
controllers, transactions, detectors and statistics — plus the tables
that turn Python protocol objects into kernel ids:

* **message types** (``ty_*``): queue class, VC class, reply
  preallocation and flit count from the scheme's endpoint policy, and
  the per-name statistics row;
* **continuation shapes** (``sh_off``/``sblob``): a continuation is a
  shape — the types and nesting of its specs, interned once with the
  reply-reserving specs of ``Scheme.make_reservations``'s walk and the
  output-slot needs of ``MemoryController._try_begin`` — plus the
  destinations of its specs in walk order (``dstore``, from the
  message's ``m_dbase``).  Subordinates are instantiated in C from the
  shape table and share their parent's destinations;
* **transactions** (``t_*``): outstanding count, completion flag,
  requester and creation cycle; the Python ``Transaction`` objects get
  ``completed_cycle``/``outstanding`` written back when they complete.

Messages are slots in the ``m_*`` arrays from registration (a root in
``enqueue_root``, a message Python pushes into a queue) until
consumption; queues are lists linked through ``m_next``.  Python only
sees a message as a :class:`~repro.protocol.message.Message` copy made
by :meth:`VectorState.message` (recovery code peeking or popping a
queue, or reading a packet's owner).

The source queue is unbounded, so the message table grows: Python keeps
more free slots than one cycle's subordinates could take
(``_reserve``), grows every table by doubling, and rebinds the kernel
(``k_bind``) between kernel calls.
"""

from __future__ import annotations

import ctypes
import struct

import numpy as np

from repro.network.soa import TopologySoA, build_route_table
from repro.protocol.message import Message, MessageSpec, NetClass
from repro.util.errors import ConfigurationError, SimulationError

from repro.sim.vector.kernel import load_kernel

# Header cells (must match kernel.c).
H_PN = 0
H_OCC = 1
H_BUSYN = 2
H_ERR = 3
H_MFREE = 4
H_MFREEN = 5
H_MEAS = 6
H_TLOG = 7
H_NEWDET = 8
H_FIRST_DL = 9
H_ND = 10
H_DSTN = 11

ERRORS = {1: "route table has no row for a reachable key",
          2: "message table exhausted"}

# int64 counters (must match kernel.c).
C_FORWARDED = 0
C_INJECTED = 1
C_EJECTED = 2
C_ALLOCFAIL = 3
C_CREATED = 4

# Window counters: int64 fields (W_NI per window) and doubles (W_ND).
W_FIELDS_I = ("messages_delivered", "flits_delivered", "latency_max",
              "messages_consumed", "transactions_completed", "deadlocks",
              "deadlocks_unresolved", "messages_admitted")
W_FIELDS_D = ("latency_sum", "txn_latency_sum")
W_NI = len(W_FIELDS_I)
W_ND = len(W_FIELDS_D)
W_DELIVERED, W_FLITS, W_LATMAX, W_CONSUMED, W_TXNS = 0, 1, 2, 3, 4
W_DEADLOCKS, W_UNRESOLVED = 5, 6
W_LATSUM, W_TXNLATSUM = 0, 1

# Per-type-name delivery rows: int64 (R_NI) and double (R_ND) fields.
R_FIELDS_I = ("delivered", "flits", "rescued")
R_FIELDS_D = ("latency_sum", "queue_wait_sum", "network_sum")
R_NI = len(R_FIELDS_I)
R_ND = len(R_FIELDS_D)

# Memory-controller sentinels and k_detect modes.
MC_IDLE = -1
MC_PRIORITY = -2
DET_NONE, DET_DR, DET_PR = 1, 2, 3

#: staged message fields (kernel.c's G_* order), then the walk.
_FIELDS = 21

#: Routing-memo keys are densely indexed; refuse configurations whose
#: key space would not fit comfortably in memory (4 bytes per key).
_MAX_ROUTE_KEYS = 8 << 20

# Kernel binding order (must match k_bind in kernel.c): (name, dtype).
_I32, _I64, _F64 = np.int32, np.int64, np.float64
_ARRAYS = (
    ("s_owner", _I32), ("s_sink", _I32), ("s_router", _I32),
    ("v_count", _I32), ("v_hp", _I32), ("v_flit", _I32), ("v_arr", _I32),
    ("vc_dim", _I32), ("vc_dateline", _I32),
    ("ls_s", _I32), ("ls_sink", _I32), ("ls_inj", _I32), ("ls_n", _I32),
    ("l_rr", _I32), ("busy_order", _I32), ("busy_in", _I32),
    ("ep_s", _I32), ("ep_n", _I32), ("ep_rr", _I32), ("pending", _I32),
    ("still", _I32), ("rk_idx", _I32), ("rows", _I32),
    ("inj_used", _I32), ("hdr", _I32), ("cnt", _I64),
    ("m_type", _I32), ("m_src", _I32), ("m_dst", _I32), ("m_dstr", _I32),
    ("m_size", _I32), ("m_shape", _I32), ("m_dbase", _I32),
    ("m_tid", _I32),
    ("m_created", _I32), ("m_injected", _I32), ("m_vcls", _I32),
    ("m_qcls", _I32), ("m_hasres", _I32), ("m_rescued", _I32),
    ("m_sent", _I32), ("m_crossed", _I32), ("m_hops", _I32),
    ("m_blocked", _I32), ("m_ejected", _I32), ("m_next", _I32),
    ("q_head", _I32), ("q_tail", _I32), ("q_len", _I32), ("q_held", _I32),
    ("q_res", _I32), ("q_ver", _I32),
    ("node_router", _I32), ("ni_out", _I32),
    ("mc_cur", _I32), ("mc_incls", _I32), ("mc_until", _I32),
    ("mc_rr", _I32), ("mc_prio", _I32), ("mc_pdur", _I32),
    ("mc_serviced", _I32), ("mc_busy", _I32),
    ("t_out", _I32), ("t_done", _I32), ("t_req", _I32),
    ("t_created", _I32), ("tlog", _I32),
    ("ty_qcls", _I32), ("ty_vcls", _I32), ("ty_res", _I32),
    ("ty_flits", _I32), ("ty_row", _I32),
    ("sh_off", _I32), ("sblob", _I32), ("dstore", _I32),
    ("d_node", _I32), ("d_inq", _I32), ("d_outq", _I32), ("d_incls", _I32),
    ("d_thr", _I32), ("d_full", _I32), ("d_req", _I32), ("d_since", _I32),
    ("d_counted", _I32), ("fired", _I32), ("d_lastver", _I64),
    ("d_occthr", _F64),
    ("st_i", _I64), ("st_d", _F64), ("r_i", _I64), ("r_d", _F64),
    ("stage", _I32),
)

#: growable tables: arrays indexed by one id.
_MSG = tuple(name for name, _ in _ARRAYS if name.startswith("m_"))
_TXN = ("t_out", "t_done", "t_req", "t_created")
_TYPES = ("ty_qcls", "ty_vcls", "ty_res", "ty_flits", "ty_row")
_DETS = ("d_node", "d_inq", "d_outq", "d_incls", "d_thr", "d_full",
         "d_req", "d_since", "d_counted", "d_lastver", "d_occthr")


class VectorState:
    """Every array of one vector engine, bound to one kernel instance."""

    def __init__(self, topology, scheme, config) -> None:
        routing = scheme.routing
        num_vcs = config.num_vcs
        self.topology = topology
        self.scheme = scheme
        self.soa = soa = TopologySoA(topology, num_vcs)
        L = soa.num_links
        V = num_vcs
        self.D = D = config.flit_buffer_depth
        self.N = N = topology.num_nodes
        self.C = C = scheme.num_queue_classes
        R = topology.num_routers
        ndim = topology.ndim
        VCLS = routing.vc_map.num_classes
        self.qcap = qcap = config.queue_capacity
        self.NVC = NVC = L * V
        #: total sender ids: all VCs plus one injection channel per
        #: (node, queue class).
        self.S = S = NVC + N * C
        keys = (R * R * VCLS) << ndim
        if keys > _MAX_ROUTE_KEYS:
            raise ConfigurationError(
                f"vector backend: routing key space {keys} exceeds "
                f"{_MAX_ROUTE_KEYS}; use backend='reference' for this "
                "topology size"
            )
        maxcand = routing.max_static_candidates()
        # Claims convert free or reserved slots into held ones, so the
        # senders parked at one ejection port are bounded per class by
        # the queue capacity (plus the transient over-commit of
        # reservation vacating).
        epcap = C * (qcap + 4) + 8
        scap = S + 8
        #: queue ids: in (node, cls), out (node, cls), source (node).
        self.QIN, self.QOUT, self.QSRC = 0, N * C, 2 * N * C
        QN = 2 * N * C + N

        rk_idx, rows = build_route_table(topology, routing, num_vcs, 2 + maxcand)
        s_router = np.zeros(S, dtype=np.int32)
        s_router[:NVC] = soa.vc_router
        node_router = np.array(
            [topology.router_of_node(n) for n in range(N)], dtype=np.int32
        )
        s_router[NVC:] = np.repeat(node_router, C)
        mcap = S + 2 * QN * qcap + 64
        sizes = {
            "s_owner": S, "s_sink": S, "s_router": S,
            "v_count": NVC, "v_hp": NVC, "v_flit": NVC * D, "v_arr": NVC * D,
            "vc_dim": NVC, "vc_dateline": NVC,
            "ls_s": L * V, "ls_sink": L * V, "ls_inj": L * V, "ls_n": L,
            "l_rr": L, "busy_order": L, "busy_in": L,
            "ep_s": N * epcap, "ep_n": N, "ep_rr": N,
            "pending": scap, "still": scap,
            "inj_used": N, "hdr": 16, "cnt": 8,
            **dict.fromkeys(_MSG, mcap),
            **dict.fromkeys(("q_head", "q_tail", "q_len", "q_held",
                             "q_res", "q_ver"), QN),
            "ni_out": N,
            **dict.fromkeys(("mc_cur", "mc_incls", "mc_until", "mc_rr",
                             "mc_prio", "mc_pdur", "mc_serviced",
                             "mc_busy"), N),
            **dict.fromkeys(_TXN, 256), "tlog": N + 8,
            **dict.fromkeys(_TYPES, 8),
            "sh_off": 16, "sblob": 256, "dstore": 4096,
            **dict.fromkeys(_DETS, 1), "fired": N,
            "st_i": 2 * W_NI, "st_d": 2 * W_ND,
            "r_i": 8 * R_NI, "r_d": 8 * R_ND,
            "stage": _FIELDS + 16,
        }
        for name, dtype in _ARRAYS:
            if name not in sizes:
                continue
            setattr(self, name, np.zeros(sizes[name], dtype=dtype))
        self.rk_idx, self.rows = rk_idx, rows
        self.node_router = node_router
        self.s_router = s_router
        self.vc_dim[:] = soa.vc_dim
        self.vc_dateline[:] = soa.vc_dateline
        self.s_owner.fill(-1)
        self.s_sink.fill(-1)
        self.q_head.fill(-1)
        self.q_tail.fill(-1)
        self.mc_cur.fill(MC_IDLE)
        self.mc_incls.fill(-1)
        self.hdr[H_FIRST_DL] = -1
        self.m_next[:] = np.arange(1, mcap + 1, dtype=np.int32)
        self.m_next[-1] = -1
        self.hdr[H_MFREE] = 0
        self.hdr[H_MFREEN] = mcap

        # Id tables: Python objects <-> kernel ids.
        self.types: list = []
        self._type_ids: dict[int, int] = {}
        self.row_names: list[str] = []
        self._row_ids: dict[str, int] = {}
        #: shape id -> nested ((type id, child shape key), ...) key
        self.shapes: list[tuple] = []
        self._shape_ids: dict[tuple, int] = {}
        self._blob_n = 0
        self._packers: dict[int, struct.Struct] = {}
        self.txns: list = []
        self._txn_ids: dict[int, int] = {}
        #: widest continuation interned so far (subordinates per service)
        self._width = 1
        #: free message slots kept above one cycle's allocations.
        self._reserve = N + 8
        self.shape_id(())

        self.lib = lib = load_kernel()
        boffq = 0
        if scheme.name == "DR":
            boffq = scheme.queue_class_of(scheme.protocol.backoff)
        dims = (ctypes.c_int32 * 16)(
            L, V, D, N, C, R, ndim, epcap, maxcand, scap, VCLS, qcap,
            config.max_outstanding, scheme.service_time, scheme.sink_time,
            boffq,
        )
        self.k = lib.k_new(dims)
        if not self.k:  # pragma: no cover - allocation failure
            raise MemoryError("kernel state allocation failed")
        self.bind()

    def __del__(self):  # pragma: no cover - lifecycle
        k = getattr(self, "k", None)
        if k:
            self.lib.k_free(k)
            self.k = None

    def bind(self) -> None:
        """Hand every array's current buffer to the kernel."""
        ptrs = (ctypes.c_int64 * len(_ARRAYS))(
            *(getattr(self, name).ctypes.data for name, _ in _ARRAYS)
        )
        self.lib.k_bind(self.k, ptrs)

    def _grow(self, names, need: int, per: int = 1) -> None:
        """Double the tables ``names`` until ``need`` ids fit."""
        cap = len(getattr(self, names[0])) // per
        new = cap
        while new < need:
            new *= 2
        for name in names:
            old = getattr(self, name)
            arr = np.zeros(new * (len(old) // cap), dtype=old.dtype)
            arr[: len(old)] = old
            setattr(self, name, arr)
        self.bind()

    def check(self, code: int) -> None:
        if code:
            raise SimulationError(
                f"vector kernel: {ERRORS.get(code, f'error {code}')}"
            )

    # ------------------------------------------------------------------
    # Id tables
    # ------------------------------------------------------------------
    def row_id(self, name: str) -> int:
        """Statistics row of a message-type name (created on first use)."""
        row = self._row_ids.get(name)
        if row is None:
            row = self._row_ids[name] = len(self.row_names)
            self.row_names.append(name)
            if row >= len(self.r_i) // R_NI:
                self._grow(("r_i", "r_d"), row + 1, R_NI)
        return row

    def type_id(self, mtype) -> int:
        tix = self._type_ids.get(id(mtype))
        if tix is not None:
            return tix
        tix = len(self.types)
        self.types.append(mtype)  # keeps id(mtype) unique
        self._type_ids[id(mtype)] = tix
        if tix >= len(self.ty_qcls):
            self._grow(_TYPES, tix + 1)
        policy = self.scheme
        self.ty_qcls[tix] = policy.queue_class_of(mtype)
        self.ty_vcls[tix] = policy.vc_class_of(mtype)
        self.ty_res[tix] = 1 if policy.wants_reservation(mtype) else 0
        self.ty_flits[tix] = mtype.flits
        self.ty_row[tix] = self.row_id(mtype.name)
        return tix

    def walk(self, cont: tuple, dsts: list) -> tuple:
        """Shape key of ``cont``; appends its destinations in walk order."""
        type_id = self.type_id
        key = []
        for spec in cont:
            dsts.append(spec.dst)
            child = spec.continuation
            key.append((type_id(spec.mtype),
                        self.walk(child, dsts) if child else ()))
        return tuple(key)

    def shape_id(self, key: tuple) -> int:
        sid = self._shape_ids.get(key)
        if sid is None:
            sid = self._intern(key)
        return sid

    def _intern(self, key: tuple) -> int:
        types = self.types
        policy = self.scheme
        specs, res = [], []

        def visit(node: tuple, pos: int) -> int:
            for tix, child in node:
                mtype = types[tix]
                if policy.wants_reservation(mtype):
                    res.append((pos, policy.queue_class_of(mtype)))
                pos = visit(child, pos + 1)
            return pos

        pos = 0
        for tix, child in key:
            specs.append((tix, pos, self.shape_id(child)))
            if policy.wants_reservation(types[tix]):
                res.append((pos, policy.queue_class_of(types[tix])))
            pos = visit(child, pos + 1)
        need: dict[int, int] = {}
        for tix, _child in key:
            cls = policy.queue_class_of(types[tix])
            need[cls] = need.get(cls, 0) + 1
        has_req = any(types[tix].net_class == NetClass.REQUEST for tix, _ in key)
        rec = [len(specs), int(has_req), len(res), len(need)]
        for triple in specs:
            rec.extend(triple)
        for pair in res:
            rec.extend(pair)
        for pair in need.items():
            rec.extend(pair)
        sid = len(self.shapes)
        if sid >= len(self.sh_off):
            self._grow(("sh_off",), sid + 1)
        off = self._blob_n
        if off + len(rec) > len(self.sblob):
            self._grow(("sblob",), off + len(rec))
        self.sblob[off : off + len(rec)] = rec
        self.sh_off[sid] = off
        self._blob_n = off + len(rec)
        self.shapes.append(key)
        self._shape_ids[key] = sid
        if len(key) > self._width:
            self._width = len(key)
            self._reserve = self.N * self._width + 8
        return sid

    def continuation(self, sid: int, dbase: int) -> tuple:
        """Rebuild the ``MessageSpec`` tuple of a shape and its walk."""
        dstore = self.dstore

        def build(key: tuple, pos: int) -> tuple[tuple, int]:
            out = []
            for tix, child in key:
                dst = int(dstore[pos])
                sub, pos = build(child, pos + 1)
                out.append(MessageSpec(self.types[tix], dst, sub))
            return tuple(out), pos

        return build(self.shapes[sid], int(dbase))[0]

    def _new_txn(self, txn) -> int:
        tid = len(self.txns)
        if tid >= len(self.t_out):
            self._grow(_TXN, tid + 1)
        self.txns.append(txn)  # keeps id(txn) unique
        self._txn_ids[id(txn)] = tid
        return tid

    def txn_id(self, txn) -> int:
        """Kernel id of a transaction (registered on first use)."""
        tid = self._txn_ids.get(id(txn))
        if tid is None:
            tid = self._new_txn(txn)
            self.t_out[tid] = txn.outstanding
            self.t_done[tid] = 1 if txn.completed else 0
            self.t_req[tid] = txn.requester
            self.t_created[tid] = txn.created_cycle
        return tid

    def txn_completed(self, tid: int, now: int) -> None:
        """Write a kernel-side completion back to the Python object."""
        txn = self.txns[tid]
        txn.outstanding = 0
        txn.completed_cycle = now
        del self._txn_ids[id(txn)]

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def ensure_room(self) -> None:
        """Keep more free message slots than one kernel call can take."""
        if self.hdr[H_MFREEN] <= self._reserve:
            old = len(self.m_next)
            self._grow(_MSG, 2 * old)
            new = len(self.m_next)
            # chain the added slots in front of the free list
            self.m_next[old:new] = np.arange(old + 1, new + 1, dtype=np.int32)
            self.m_next[new - 1] = self.hdr[H_MFREE]
            self.hdr[H_MFREE] = old
            self.hdr[H_MFREEN] += new - old

    def _stage(self, msg: Message) -> None:
        self.ensure_room()
        dsts: list[int] = []
        sid = self.shape_id(self.walk(msg.continuation, dsts))
        n = len(dsts)
        if self.hdr[H_DSTN] + n > len(self.dstore):
            self._grow(("dstore",), int(self.hdr[H_DSTN]) + n)
        if _FIELDS + n > len(self.stage):
            self._grow(("stage",), _FIELDS + n)
        packer = self._packers.get(n)
        if packer is None:
            packer = self._packers[n] = struct.Struct(f"{_FIELDS + n}i")
        txn = msg.transaction
        new = 0
        if txn is None:
            tid = -1
        else:
            tid = self._txn_ids.get(id(txn))
            if tid is None:
                if txn.completed:
                    tid = self.txn_id(txn)
                else:  # registered by the kernel from the staged fields
                    tid = self._new_txn(txn)
                    new = 1
        packer.pack_into(
            self.stage, 0,
            self.type_id(msg.mtype), msg.src, msg.dst, msg.size, sid, tid,
            msg.created_cycle, msg.injected_cycle, msg.vc_class,
            msg.has_reservation, msg.rescued, msg.flits_sent,
            msg.crossed_mask, msg.hops, msg.blocked_since, msg.flits_ejected,
            new, txn.outstanding if new else 0, txn.requester if new else 0,
            txn.created_cycle if new else 0, n, *dsts,
        )

    def add_message(self, msg: Message) -> int:
        """Register a Python message; returns its slot (not queued)."""
        self._stage(msg)
        e = self.lib.k_add_msg(self.k)
        if e < 0:  # pragma: no cover - ensure_room keeps slots free
            self.check(int(self.hdr[H_ERR]))
        return e

    def enqueue_root(self, node: int, root: Message) -> None:
        """``NetworkInterface.enqueue_root``: count, register, queue."""
        self._stage(root)
        if self.lib.k_enqueue_root(self.k, node) < 0:  # pragma: no cover
            self.check(int(self.hdr[H_ERR]))

    def message(self, e: int) -> Message:
        """A :class:`Message` copy of slot ``e``."""
        e = int(e)
        tid = int(self.m_tid[e])
        msg = Message(
            self.types[self.m_type[e]],
            src=int(self.m_src[e]),
            dst=int(self.m_dst[e]),
            continuation=self.continuation(self.m_shape[e], self.m_dbase[e]),
            transaction=None if tid < 0 else self.txns[tid],
            created_cycle=int(self.m_created[e]),
            size=int(self.m_size[e]),
        )
        msg.injected_cycle = int(self.m_injected[e])
        msg.flits_sent = int(self.m_sent[e])
        msg.flits_ejected = int(self.m_ejected[e])
        msg.vc_class = int(self.m_vcls[e])
        msg.dst_router = int(self.m_dstr[e])
        msg.blocked_since = int(self.m_blocked[e])
        msg.rescued = bool(self.m_rescued[e])
        msg.hops = int(self.m_hops[e])
        msg.crossed_mask = int(self.m_crossed[e])
        msg.has_reservation = bool(self.m_hasres[e])
        return msg

    def free_message(self, e: int) -> None:
        self.lib.k_free_msg(self.k, int(e))

    def queue_messages(self, q: int) -> list[Message]:
        out = []
        e = int(self.q_head[q])
        for _ in range(int(self.q_len[q])):
            out.append(self.message(e))
            e = int(self.m_next[e])
        return out

    # ------------------------------------------------------------------
    # Detectors
    # ------------------------------------------------------------------
    def add_detectors(self, detectors) -> None:
        """Register ``DetectorPair`` sites, in build order."""
        n = len(detectors)
        self._grow(_DETS, n)
        C = self.C
        for i, det in enumerate(detectors):
            node = det.ni.node
            self.d_node[i] = node
            self.d_inq[i] = self.QIN + node * C + det.in_cls
            self.d_outq[i] = self.QOUT + node * C + det.out_cls
            self.d_incls[i] = det.in_cls
            self.d_thr[i] = det.threshold
            self.d_full[i] = det.occupancy_threshold >= 1.0
            self.d_req[i] = det.require_request_child
            self.d_since[i] = det.since
            self.d_counted[i] = det.episode_counted
            self.d_lastver[i] = det.last_version
            self.d_occthr[i] = det.occupancy_threshold
        self.hdr[H_ND] = n
