"""Engine-level end-to-end tests: all schemes, conservation, stats."""

import pytest

from repro import SimConfig
from repro.sim.engine import Engine
from repro.sim.vector import VectorEngine
from repro.util.errors import ConfigurationError
from tests.helpers import build_engine


class TestConstruction:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            Engine(SimConfig(pattern="PATX"))

    def test_custom_traffic_requires_metadata(self):
        class Dummy:
            def attach(self, e): ...

        with pytest.raises(ConfigurationError):
            Engine(SimConfig(), traffic=Dummy())

    def test_interfaces_one_per_node(self):
        e = build_engine(scheme="PR", dims=(2, 4), bristling=2)
        assert len(e.interfaces) == 16

    # Built only, never stepped: before the check these configurations
    # hung in the third-party draw loop or failed at the first arrival.
    def test_chains_of_three_need_three_nodes(self):
        with pytest.raises(ConfigurationError, match="at least 3 nodes"):
            build_engine(dims=(2, 1), pattern="PAT721", load=0.5)

    def test_one_node_cannot_pick_a_home(self):
        with pytest.raises(ConfigurationError, match="at least 2 nodes"):
            build_engine(dims=(1, 1), pattern="PAT100", load=0.5)

    def test_small_networks_build_when_traffic_fits(self):
        assert build_engine(dims=(2, 1), pattern="PAT100", load=0.5).topology.num_nodes == 2
        assert build_engine(dims=(2, 1), pattern="PAT721", load=0.0).topology.num_nodes == 2


@pytest.mark.parametrize(
    "scheme,pattern,vcs",
    [
        ("PR", "PAT721", 4),
        ("DR", "PAT721", 4),
        ("SA", "PAT100", 4),
        ("SA", "PAT721", 8),
        ("NONE", "PAT271", 4),
        ("PR", "PAT280", 4),
        ("DR", "PAT280", 4),
    ],
)
class TestEndToEnd:
    def test_low_load_delivers_and_drains(self, scheme, pattern, vcs):
        e = build_engine(scheme=scheme, pattern=pattern, num_vcs=vcs,
                         load=0.003, seed=7)
        w = e.run_measured(warmup=500, measure=1500)
        assert w.messages_delivered > 50
        assert w.mean_latency() > 0
        # Conservation: stopping traffic drains everything.
        assert e.quiesce(max_cycles=50_000)
        total = e.stats.total
        assert total.messages_consumed == total.messages_delivered
        # Every generated transaction completed.
        live = [t for t in e.traffic.transactions if not t.completed]
        assert live == []


class TestDeterminism:
    def test_same_seed_same_results(self):
        runs = []
        for _ in range(2):
            e = build_engine(scheme="PR", load=0.005, seed=13)
            w = e.run_measured(500, 1000)
            runs.append(
                (w.messages_delivered, w.latency_sum, e.fabric.flits_forwarded)
            )
        assert runs[0] == runs[1]

    def test_different_seed_differs(self):
        a = build_engine(scheme="PR", load=0.005, seed=13)
        b = build_engine(scheme="PR", load=0.005, seed=14)
        wa = a.run_measured(500, 1000)
        wb = b.run_measured(500, 1000)
        assert (wa.messages_delivered, wa.latency_sum) != (
            wb.messages_delivered,
            wb.latency_sum,
        )


class TestStatsWindows:
    def test_window_separate_from_total(self):
        e = build_engine(scheme="PR", load=0.004, seed=3)
        e.run(800)
        before = e.stats.total.messages_delivered
        w = e.run_measured(0, 800)
        assert w.messages_delivered <= e.stats.total.messages_delivered
        assert e.stats.total.messages_delivered > before

    def test_throughput_and_normalized_deadlocks(self):
        e = build_engine(scheme="PR", load=0.004, seed=3)
        w = e.run_measured(500, 1000)
        thr = w.throughput_fpc(e.topology.num_nodes)
        assert 0 < thr < 1.5
        assert w.normalized_deadlocks() == 0.0  # low load: none

    def test_load_sampling(self):
        e = build_engine(scheme="PR", load=0.004, seed=3)
        e.stats.enable_load_sampling(100)
        e.run(1000)
        assert len(e.stats.load_samples) == 10
        assert all(s >= 0 for s in e.stats.load_samples)


class TestBristling:
    def test_bristled_network_runs(self):
        e = build_engine(scheme="PR", dims=(2, 2), bristling=4, load=0.004,
                         seed=3)
        w = e.run_measured(500, 1000)
        assert w.messages_delivered > 10
        assert e.topology.num_nodes == 16
        assert e.quiesce(max_cycles=50_000)

    def test_sibling_nodes_share_router(self):
        e = build_engine(scheme="PR", dims=(2, 2), bristling=4, load=0.0)
        assert e.interfaces[0].router == e.interfaces[3].router


class TestCwgInterval:
    def test_periodic_cwg_check_runs(self):
        e = build_engine(scheme="PR", load=0.003, seed=3, cwg_interval=50)
        e.run(500)
        assert e.cwg_knots_seen == 0


class _ScriptedTraffic:
    """Trace-style source: replays (cycle, requester, home) triples.

    Deliberately exposes no ``load`` attribute — quiesce/_empty must not
    assume the synthetic-traffic interface (regression: AttributeError
    when quiescing a trace-driven engine).
    """

    def __init__(self, pattern, events):
        self.pattern = pattern
        self.events = sorted(events)
        self.engine = None
        self.transactions = []

    def attach(self, engine):
        self.engine = engine

    @property
    def exhausted(self):
        return not self.events

    def step(self, now):
        while self.events and self.events[0][0] <= now:
            _, requester, home = self.events.pop(0)
            txn = self.pattern.build_transaction(
                requester=requester, home=home, third=requester,
                created_cycle=now, length=2,
            )
            self.transactions.append(txn)
            self.engine.interfaces[requester].enqueue_root(txn.root)


class TestTraceQuiesce:
    def _engine(self, events):
        from repro.protocol.transactions import PAT100
        from repro.traffic.synthetic import pattern_couplings

        traffic = _ScriptedTraffic(PAT100, events)
        return Engine(
            SimConfig(dims=(4, 4), scheme="PR", seed=3),
            traffic=traffic,
            protocol=PAT100.protocol,
            types_used=PAT100.types_used,
            couplings=pattern_couplings(PAT100),
        )

    def test_quiesce_without_load_attribute(self):
        # quiesce()/_empty() must tolerate traffic sources that have no
        # ``load`` knob instead of raising AttributeError.
        e = self._engine([(1, 0, 5), (3, 2, 9), (10, 7, 1)])
        e.run(20)
        assert e.quiesce(max_cycles=20_000)
        assert e.traffic.exhausted
        total = e.stats.total
        assert total.messages_delivered > 0
        assert total.messages_consumed == total.messages_delivered
        assert all(t.completed for t in e.traffic.transactions)

    def test_empty_is_false_while_messages_in_flight(self):
        e = self._engine([(1, 0, 5)])
        e.run(2)  # root admitted, flits in the network
        assert not e._empty()


class _SinkAtNode:
    """Coherence stand-in: every access is a one-message transaction, a
    terminating request from the accessing cpu to ``block``'s node."""

    def __init__(self, num_nodes, protocol):
        self.num_nodes = num_nodes
        self.mtype = protocol.types[0]

    def access(self, cpu, op, block, now):
        from types import SimpleNamespace

        from repro.protocol.message import Message, Transaction

        txn = Transaction(uid=0, requester=cpu, home=block, chain_length=1,
                          created_cycle=now, outstanding=1, messages_used=1)
        txn.root = Message(self.mtype, src=cpu, dst=block, transaction=txn,
                           created_cycle=now)
        return SimpleNamespace(transaction=txn, requester=cpu, roots=[txn.root])


def _admission_cycles(backend):
    """(admission cycle of each node's waiting root, completion cycle of
    its first transaction) for nodes 9 and 1, both sending their
    one-message transactions to node 2 with one MSHR each."""
    from repro.protocol.transactions import PAT100
    from repro.traffic.synthetic import pattern_couplings
    from repro.traffic.trace import TraceRecord, TraceTraffic

    records = [TraceRecord(1, cpu, "R", 2) for cpu in (9, 9, 1, 1)]
    e = (VectorEngine if backend == "vector" else Engine)(
        SimConfig(dims=(4, 4), scheme="PR", max_outstanding=1,
                  backend=backend),
        traffic=TraceTraffic(records, _SinkAtNode(16, PAT100.protocol)),
        protocol=PAT100.protocol,
        types_used=PAT100.types_used,
        couplings=pattern_couplings(PAT100),
    )
    admitted = {}
    while len(admitted) < 2 and e.now < 500:
        e.step()
        for cpu in (9, 1):
            if cpu not in admitted and not e.interfaces[cpu].source_queue:
                admitted[cpu] = e.now
    first = {}
    for t in e.traffic.transactions:
        first.setdefault(t.requester, t.completed_cycle)
    return admitted, first


class TestSameSweepAdmission:
    def test_mshr_freed_mid_sweep(self):
        """A transaction completing during node 2's step frees an MSHR at
        node 9 (still ahead in the sweep), which admits its waiting root
        in the same cycle, and at node 1 (already passed), which admits
        it the next cycle — on both backends."""
        ref = _admission_cycles("reference")
        admitted, done = ref
        assert min(done.values()) > 1
        assert admitted == {9: done[9], 1: done[1] + 1}
        assert _admission_cycles("vector") == ref
