"""Tests for the simulated communication substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommCorruptionError,
    CommDeadlockError,
    CommRetriesExhaustedError,
    MailboxLeakError,
    MessageEnvelope,
    SimWorld,
    build_exchange_pattern,
    payload_checksum,
)
from repro.comm.exchange import (
    exchange_halo,
    exchange_halo_begin,
    exchange_halo_finish,
    overlapped_halo,
    owner_of,
)
from repro.comm.traffic import TrafficLog
from repro.resilience import FaultInjector, FaultSpec


class TestTrafficLog:
    def test_message_counts_and_bytes(self):
        log = TrafficLog()
        log.record_message(0, 1, 100, "a")
        log.record_message(1, 0, 50, "a")
        log.record_message(0, 2, 10, "b")
        assert log.message_count() == 3
        assert log.message_count("a") == 2
        assert log.message_bytes("a") == 150
        assert log.message_bytes() == 160

    def test_max_rank_statistics(self):
        log = TrafficLog()
        log.record_message(0, 1, 100, "x")
        log.record_message(0, 2, 100, "x")
        log.record_message(1, 0, 500, "x")
        assert log.max_rank_messages("x") == 2
        assert log.max_rank_bytes("x") == 500

    def test_collectives(self):
        log = TrafficLog()
        log.record_collective("allreduce", 8, 8, "solve")
        assert log.collective_count("solve") == 1
        assert log.collective_bytes("solve") == 8
        assert log.collective_count("other") == 0

    def test_phases_and_clear(self):
        log = TrafficLog()
        log.record_message(0, 1, 1, "p1")
        log.record_collective("barrier", 2, 0, "p2")
        assert log.phases() == ["p1", "p2"]
        log.clear()
        assert log.message_count() == 0
        assert log.phases() == []

    def test_bulk_record_consistent_global_count(self):
        """Bulk record_messages counts like `count` separate messages.

        Regression: message_count(None) used to return len(messages),
        disagreeing with the per-phase aggregates and the
        comm.total_messages gauge after a bulk record.
        """
        log = TrafficLog()
        log.record_messages(0, 1, count=5, nbytes=500, phase="setup")
        log.record_message(0, 2, 10, "solve")
        assert log.message_count() == 6
        assert log.message_count("setup") == 5
        assert log.message_count() == sum(
            log.message_count(ph) for ph in log.phases()
        )
        assert log.phases() == ["setup", "solve"]
        assert log.max_rank_messages("setup") == 5

    def test_bulk_record_matches_total_messages_gauge(self):
        from repro.obs.metrics import MetricsRegistry

        log = TrafficLog()
        log.record_messages(1, 0, count=7, nbytes=70, phase="graph")
        log.record_message(1, 2, 8, "graph")
        reg = MetricsRegistry()
        log.publish_metrics(reg)
        assert reg.gauge("comm.total_messages").value == log.message_count()
        assert log.message_count() == 8


class TestSimWorld:
    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            SimWorld(0)

    def test_phase_scope_nesting(self):
        w = SimWorld(2)
        assert w.phase == "default"
        with w.phase_scope("outer"):
            assert w.phase == "outer"
            with w.phase_scope("inner"):
                assert w.phase == "inner"
            assert w.phase == "outer"
        assert w.phase == "default"

    def test_send_recv_roundtrip(self):
        w = SimWorld(2)
        c0, c1 = w.comms()
        payload = np.arange(5.0)
        c0.send(1, payload)
        got = c1.recv(0)
        assert np.array_equal(got, payload)
        assert w.traffic.message_count() == 1
        assert w.traffic.message_bytes() == payload.nbytes

    def test_send_to_self_rejected(self):
        w = SimWorld(2)
        with pytest.raises(ValueError):
            w.comm(0).send(0, np.zeros(1))

    def test_recv_without_send_raises(self):
        w = SimWorld(2)
        with pytest.raises(RuntimeError):
            w.comm(1).recv(0)

    def test_fifo_message_order(self):
        w = SimWorld(2)
        w.comm(0).send(1, 1)
        w.comm(0).send(1, 2)
        assert w.comm(1).recv(0) == 1
        assert w.comm(1).recv(0) == 2

    def test_alltoallv_delivery(self):
        w = SimWorld(3)
        send = [[None] * 3 for _ in range(3)]
        send[0][1] = np.array([1.0])
        send[0][2] = np.array([2.0])
        send[2][0] = np.array([3.0])
        recv = w.alltoallv(send)
        assert recv[1][0][0] == 1.0
        assert recv[2][0][0] == 2.0
        assert recv[0][0][0] == 3.0
        assert w.traffic.message_count() == 3

    def test_alltoallv_skips_empty_arrays(self):
        w = SimWorld(2)
        send = [[None, np.zeros(0)], [None, None]]
        recv = w.alltoallv(send)
        assert recv == [[], []]
        assert w.traffic.message_count() == 0

    def test_alltoallv_self_payload_is_local_not_traffic(self):
        """Diagonal src == dst payloads are delivered but not recorded.

        A rank keeping its own data is a local copy, not a network
        message (SimComm.send rejects self-sends for the same reason), so
        per-phase counts and busiest-rank statistics must not include it.
        """
        w = SimWorld(2)
        send = [
            [np.array([1.0]), np.array([2.0])],
            [None, np.array([3.0])],
        ]
        with w.phase_scope("exchange"):
            recv = w.alltoallv(send)
        # Delivery includes the diagonals, in sender-rank order.
        assert recv[0][0][0] == 1.0
        assert [p[0] for p in recv[1]] == [2.0, 3.0]
        # Only the off-diagonal 0 -> 1 message hits the log.
        assert w.traffic.message_count() == 1
        assert w.traffic.message_count("exchange") == 1
        assert w.traffic.max_rank_messages("exchange") == 1
        assert w.traffic.max_rank_bytes("exchange") == 8

    def test_allreduce_and_allgather(self):
        w = SimWorld(4)
        total = w.allreduce([1.0, 2.0, 3.0, 4.0])
        assert total == 10.0
        gathered = w.allgather([10, 20, 30, 40])
        assert gathered == [10, 20, 30, 40]
        assert w.traffic.collective_count() == 2

    def test_pending_messages(self):
        w = SimWorld(2)
        assert w.pending_messages() == 0
        w.comm(0).send(1, 5)
        assert w.pending_messages() == 1
        w.comm(1).recv(0)
        assert w.pending_messages() == 0


class TestExchangePattern:
    def test_owner_of(self):
        offs = np.array([0, 3, 6, 10])
        assert list(owner_of(np.array([0, 2, 3, 5, 6, 9]), offs)) == [
            0,
            0,
            1,
            1,
            2,
            2,
        ]

    def test_basic_pattern_and_halo(self):
        offs = np.array([0, 3, 6])
        pat = build_exchange_pattern(
            offs, [np.array([4]), np.array([0, 2])]
        )
        assert pat.per_rank[0].n_ext == 1
        assert pat.per_rank[1].n_ext == 2
        assert pat.total_messages() == 2
        w = SimWorld(2)
        ext = exchange_halo(
            w, pat, [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])]
        )
        assert ext[0].tolist() == [5.0]
        assert ext[1].tolist() == [1.0, 3.0]

    def test_unsorted_ext_ids_rejected(self):
        offs = np.array([0, 3, 6])
        with pytest.raises(ValueError):
            build_exchange_pattern(offs, [np.array([5, 4]), np.array([])])

    def test_owned_ids_in_ext_rejected(self):
        offs = np.array([0, 3, 6])
        with pytest.raises(ValueError):
            build_exchange_pattern(offs, [np.array([1]), np.array([])])

    @settings(max_examples=25, deadline=None)
    @given(
        nranks=st.integers(2, 5),
        per_rank=st.integers(2, 8),
        seed=st.integers(0, 1000),
    )
    def test_halo_exchange_matches_global_gather(
        self, nranks, per_rank, seed
    ):
        """Property: exchanged external values equal the owners' values."""
        rng = np.random.default_rng(seed)
        n = nranks * per_rank
        offs = np.arange(nranks + 1) * per_rank
        x = rng.standard_normal(n)
        ext_ids = []
        for r in range(nranks):
            owned = np.arange(offs[r], offs[r + 1])
            others = np.setdiff1d(np.arange(n), owned)
            take = rng.choice(
                others, size=min(3, others.size), replace=False
            )
            ext_ids.append(np.unique(take))
        pat = build_exchange_pattern(offs, ext_ids)
        w = SimWorld(nranks)
        owned = [x[offs[r] : offs[r + 1]] for r in range(nranks)]
        ext = exchange_halo(w, pat, owned)
        for r in range(nranks):
            assert np.allclose(ext[r], x[ext_ids[r]])


def two_rank_halo():
    """The basic 2-rank pattern/owned fixture used by the retry tests."""
    pat = build_exchange_pattern(
        np.array([0, 3, 6]), [np.array([4]), np.array([0, 2])]
    )
    owned = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])]
    return pat, owned


class TestEnvelopeTransport:
    def test_payload_checksum_detects_bit_flip(self):
        a = np.arange(8.0)
        before = payload_checksum(a)
        a[3] += 1e-12
        assert payload_checksum(a) != before

    def test_payload_checksum_is_crc_of_value_bytes(self):
        """Computed over the array's buffer, no copy — and still the
        CRC32 of the C-order value bytes for slices and strided views."""
        import zlib

        a = np.arange(24.0)
        for view in (a, a[3:11], a[::3], a.reshape(4, 6).T, a[:0]):
            assert payload_checksum(view) == zlib.crc32(view.tobytes())

    def test_payload_checksum_covers_tuple_payloads(self):
        idx = np.arange(3)
        vals = np.ones(3)
        before = payload_checksum((idx, idx, vals))
        vals[1] = 2.0
        assert payload_checksum((idx, idx, vals)) != before

    def test_envelope_stamped_and_verified(self):
        payload = np.arange(4.0)
        env = MessageEnvelope(seq=0, src=0, dst=1, phase="p", payload=payload)
        assert env.checksum == payload_checksum(payload)
        assert env.verify()
        env.payload = payload + 1.0  # corrupted in flight
        assert not env.verify()

    def test_per_channel_sequence_numbers(self):
        w = SimWorld(3)
        w.comm(0).send(1, 1.0)
        w.comm(0).send(1, 2.0)
        w.comm(2).send(1, 3.0)
        assert [e.seq for e in w._mailboxes[(0, 1)]] == [0, 1]
        assert [e.seq for e in w._mailboxes[(2, 1)]] == [0]
        for src in (0, 0, 2):
            w.comm(1).recv(src)

    def test_deadlock_error_carries_pending_snapshot(self):
        """Regression: a hung recv names the phase and every in-flight
        message, not just 'no message posted'."""
        w = SimWorld(3)
        with w.phase_scope("assembly/scatter"):
            w.comm(0).send(1, np.ones(2))
        with w.phase_scope("halo/x"):
            with pytest.raises(CommDeadlockError) as ei:
                w.comm(1).recv(2)
        err = ei.value
        assert err.phase == "halo/x"
        assert (err.src, err.dst) == (2, 1)
        assert err.pending == [
            {
                "src": 0,
                "dst": 1,
                "phase": "assembly/scatter",
                "count": 1,
                "seqs": [0],
            }
        ]
        d = err.to_dict()
        assert d["type"] == "CommDeadlockError"
        assert d["pending"][0]["phase"] == "assembly/scatter"

    def test_duplicate_discarded_by_sequence_number(self):
        w = SimWorld(2)
        w.fault_injector = FaultInjector(
            (FaultSpec("message_duplicate", at=0),)
        )
        payload = np.arange(3.0)
        w.comm(0).send(1, payload)
        assert w.pending_messages() == 2  # both copies hit the wire
        assert np.array_equal(w.comm(1).recv(0), payload)
        # The stale copy is drained, not delivered (and not leaked).
        assert w.pending_messages() == 0
        assert (
            w.metrics.counter_total("comm.duplicates_discarded") == 1
        )
        # The duplicate transmitted twice, so traffic records two sends.
        assert w.traffic.message_count() == 2

    def test_corruption_detected_on_receive(self):
        w = SimWorld(2)
        w.fault_injector = FaultInjector(
            (FaultSpec("message_corrupt", at=0),)
        )
        with w.phase_scope("halo/x"):
            w.comm(0).send(1, np.ones(4))
            with pytest.raises(CommCorruptionError) as ei:
                w.comm(1).recv(0)
        err = ei.value
        assert (err.src, err.dst, err.seq) == (0, 1, 0)
        assert err.expected_checksum != err.actual_checksum
        assert w.metrics.counter_total("comm.corrupt_detected") == 1

    def test_drop_leaves_channel_empty(self):
        w = SimWorld(2)
        w.fault_injector = FaultInjector((FaultSpec("message_drop", at=0),))
        w.comm(0).send(1, np.ones(4))
        assert w.pending_messages() == 0
        # The transmission was still recorded: it was lost on the wire,
        # not at the source.
        assert w.traffic.message_count() == 1
        with pytest.raises(CommDeadlockError):
            w.comm(1).recv(0)


class TestHaloRetryProtocol:
    def test_dropped_message_is_retried_transparently(self):
        pat, owned = two_rank_halo()
        w = SimWorld(2)
        w.fault_injector = FaultInjector((FaultSpec("message_drop", at=0),))
        ext = exchange_halo(w, pat, owned)
        assert ext[0].tolist() == [5.0]
        assert ext[1].tolist() == [1.0, 3.0]
        assert w.metrics.counter_total("comm.retries") == 1
        assert w.metrics.counter_total("comm.drops_detected") == 1
        assert w.pending_messages() == 0

    def test_corrupted_message_is_retried_transparently(self):
        pat, owned = two_rank_halo()
        w = SimWorld(2)
        w.fault_injector = FaultInjector(
            (FaultSpec("message_corrupt", at=0),)
        )
        ext = exchange_halo(w, pat, owned)
        assert ext[1].tolist() == [1.0, 3.0]
        assert w.metrics.counter_total("comm.retries") == 1
        assert w.metrics.counter_total("comm.corrupt_detected") == 1

    def test_duplicate_is_transparent_to_halo(self):
        pat, owned = two_rank_halo()
        w = SimWorld(2)
        w.fault_injector = FaultInjector(
            (FaultSpec("message_duplicate", at=0),)
        )
        ext = exchange_halo(w, pat, owned)
        assert ext[0].tolist() == [5.0]
        assert ext[1].tolist() == [1.0, 3.0]
        assert w.metrics.counter_total("comm.duplicates_discarded") == 1
        assert w.pending_messages() == 0

    def test_faulted_halo_matches_nominal_bitwise(self):
        pat, owned = two_rank_halo()
        nominal = exchange_halo(SimWorld(2), pat, owned)
        w = SimWorld(2)
        w.fault_injector = FaultInjector(
            (
                FaultSpec("message_drop", at=0),
                FaultSpec("message_corrupt", at=1),
            )
        )
        recovered = exchange_halo(w, pat, owned)
        for a, b in zip(nominal, recovered):
            assert a.tobytes() == b.tobytes()

    def test_retry_budget_exhaustion_raises_structured_error(self):
        pat, owned = two_rank_halo()
        w = SimWorld(2)
        w.comm_max_retries = 0
        w.fault_injector = FaultInjector((FaultSpec("message_drop", at=0),))
        with w.phase_scope("halo/x"):
            with pytest.raises(CommRetriesExhaustedError) as ei:
                exchange_halo(w, pat, owned)
        err = ei.value
        assert (err.src, err.dst) == (0, 1)
        assert err.attempts == 1
        assert err.last_error == "dropped"
        assert err.phase == "halo/x"

    def test_shape_mismatch_consumes_retry_budget(self):
        """A wrong-length payload is a corruption like any other: it is
        re-requested within the retry budget instead of escalating
        past it (the real message is next on the channel)."""
        pat, owned = two_rank_halo()
        w = SimWorld(2)
        # Out-of-band junk on the (0, 1) channel reaches the halo
        # receive first: checksum-valid but the wrong shape.
        w._post(0, 1, np.zeros(7))
        ext = exchange_halo(w, pat, owned)
        assert ext[1].tolist() == [1.0, 3.0]
        assert w.metrics.counter_total("comm.retries") == 1
        assert w.metrics.counter_total("comm.corrupt_detected") == 1
        w.purge_pending()

    def test_shape_mismatch_exhausts_budget_when_retries_disabled(self):
        pat, owned = two_rank_halo()
        w = SimWorld(2)
        w.comm_max_retries = 0
        w._post(0, 1, np.zeros(7))
        with pytest.raises(CommRetriesExhaustedError) as ei:
            exchange_halo(w, pat, owned)
        assert ei.value.last_error == "truncated"
        w.purge_pending()


def ring_halo(nranks=5, per_rank=6, seed=0):
    """A pattern where every rank needs entries of both ring neighbors
    and of one rank further away (uneven message counts and sizes)."""
    rng = np.random.default_rng(seed)
    offs = np.arange(nranks + 1) * per_rank
    ext = []
    for r in range(nranks):
        need = []
        for hop, k in ((-1, 2), (1, 3), (2, 1 + r % 2)):
            q = (r + hop) % nranks
            need.append(offs[q] + rng.choice(per_rank, k, replace=False))
        ext.append(np.unique(np.concatenate(need)))
    return offs, build_exchange_pattern(offs, ext), ext


def traffic_queries(log):
    """Every query the cost model, telemetry and gauges read."""
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    log.publish_metrics(reg)
    phases = log.phases()
    return {
        "phases": phases,
        "count": [log.message_count(ph) for ph in [None, *phases]],
        "bytes": [log.message_bytes(ph) for ph in [None, *phases]],
        "max_rank": [
            (log.max_rank_messages(ph), log.max_rank_bytes(ph))
            for ph in phases
        ],
        "rank_totals": log.rank_totals(),
        "gauges": reg.as_dict(),
    }


class TestRoundRecording:
    """A halo round is recorded once, from the pattern's tables; every
    aggregate must equal recording its transmissions one by one."""

    def test_round_sums_equal_the_per_rank_description(self):
        _offs, pat, ext = ring_halo()
        per_source, count, nbytes = pat.round_sums
        assert count == pat.total_messages() == len(pat.channels)
        assert nbytes == 8 * pat.total_halo_entries()
        assert per_source == [
            (
                r,
                rx.n_neighbors_send,
                8 * sum(idx.size for _dst, idx in rx.send_to),
            )
            for r, rx in enumerate(pat.per_rank)
        ]
        assert pat.ext_bounds == np.cumsum([0, *map(len, ext)]).tolist()

    def test_rounds_match_per_message_recording(self):
        """Clean rounds, a round with an injected duplicate and one with
        a dropped-then-retried message, against a log that records every
        observed transmission with ``record_message``."""
        offs, pat, ext = ring_halo()
        w = SimWorld(len(offs) - 1)
        n_msgs = pat.total_messages()
        w.fault_injector = FaultInjector(
            (
                FaultSpec("message_duplicate", at=n_msgs + 3),
                FaultSpec("message_drop", at=2 * n_msgs + 5),
            )
        )
        reference = TrafficLog()
        w.hub.subscribe(
            "exchange",
            lambda kind, phase, src=None, dst=None, nbytes=0: (
                reference.record_message(src, dst, nbytes, phase)
                if kind == "p2p"
                else None
            ),
        )
        x = np.random.default_rng(1).standard_normal(offs[-1])
        for phase in ("clean", "duplicate", "drop", "clean"):
            with w.phase_scope(phase):
                got = exchange_halo(w, pat, x)
            for r, ids in enumerate(ext):
                assert np.array_equal(got[r], x[ids])
        assert w.metrics.counter_total("comm.duplicates_discarded") == 1
        assert w.metrics.counter_total("comm.retries") == 1
        assert reference.message_count() == 4 * n_msgs + 2

        assert traffic_queries(w.traffic) == traffic_queries(reference)
        # One bulk record per round plus one per extra transmission.
        assert w.traffic.message_count() == 4 * n_msgs + 2
        assert [w.traffic.message_count(ph) for ph in w.traffic.phases()] == [
            2 * n_msgs, n_msgs + 1, n_msgs + 1
        ]

    def test_empty_round_leaves_no_trace(self):
        offs = np.array([0, 4, 8])
        pat = build_exchange_pattern(offs, [np.array([]), np.array([])])
        w = SimWorld(2)
        with w.phase_scope("quiet"):
            ext = exchange_halo(w, pat, np.arange(8.0))
        assert [e.size for e in ext] == [0, 0]
        assert w.traffic.phases() == [] and w.traffic.message_count() == 0


@pytest.fixture(scope="module")
def pressure_matrix(assemble_tiny_pressure):
    """Assembled pressure-Poisson operator of the tiny turbine, 4 ranks."""
    return assemble_tiny_pressure(4)


class TestFaultModelSeesSameWire:
    """Posting order, sequence numbers and the retry protocol are the
    fault model's coordinates.  The pinned values were produced by the
    per-message implementation this one replaced (commit 9fce510)."""

    SPECS = (
        FaultSpec("message_drop", at=3),
        FaultSpec("message_corrupt", at=7),
        FaultSpec("message_duplicate", at=12),
        FaultSpec("message_drop", at=20),
    )
    FIRED = [
        ("message_drop", "pin/halo", 1, 2, 1),
        ("message_corrupt", "pin/halo", 1, 2, 2),
        ("message_duplicate", "pin/halo", 2, 0, 2),
        ("message_drop", "pin/halo", 1, 2, 5),
    ]
    COUNTERS = {
        "comm.retries": 3,
        "comm.drops_detected": 2,
        "comm.corrupt_detected": 1,
        "comm.duplicates_discarded": 1,
    }

    def test_fired_faults_and_counters_match_pins(self, pressure_matrix):
        w, A, rhs = pressure_matrix
        assert A.pattern.total_messages() == 8
        x = A.new_vector(rhs.data.copy())
        clean = A.matvec(x).data.copy()
        before = {k: w.metrics.counter_total(k) for k in self.COUNTERS}
        sent = w.traffic.message_count()
        events = []
        off = w.hub.subscribe(
            "exchange", lambda kind, **_kw: events.append(kind)
        )
        w.fault_injector = FaultInjector(self.SPECS, seed=11)
        try:
            with w.phase_scope("pin/halo"):
                results = [
                    A.matvec(x).data.copy(),
                    A.matvec(x, overlap=True).data.copy(),
                    A.matvec(x).data.copy(),
                ]
        finally:
            fired = w.fault_injector.fired
            w.fault_injector = None
            off()
        for y in results:
            assert np.array_equal(y, clean)
        assert [
            (f["kind"], f["phase"], f["src"], f["dst"], f["seq"])
            for f in fired
        ] == self.FIRED
        assert {
            k: w.metrics.counter_total(k) - before[k] for k in self.COUNTERS
        } == self.COUNTERS
        # 3 rounds of 8, 3 re-posts, 1 duplicate: one event each.
        assert w.traffic.message_count() - sent == 28
        assert events.count("p2p") == 28
        assert w.pending_messages() == 0

    def test_exhaustion_still_escalates(self, pressure_matrix):
        w, A, rhs = pressure_matrix
        x = A.new_vector(rhs.data.copy())
        clean = A.matvec(x).data.copy()
        # Drop the first-received message and both its re-posts.  The
        # round posts 8 messages, re-posts are opportunities 8 and 9; a
        # spec does not count an opportunity an earlier spec fired on.
        src, dst = A.pattern.receives[0][:2]
        first = A.pattern.channels.index((src, dst))
        w.fault_injector = FaultInjector(
            (
                FaultSpec("message_drop", at=first),
                FaultSpec("message_drop", at=7),
                FaultSpec("message_drop", at=7),
            )
        )
        try:
            with pytest.raises(CommRetriesExhaustedError) as ei:
                A.matvec(x, overlap=True)
        finally:
            w.fault_injector = None
            w.purge_pending()
        assert (ei.value.src, ei.value.dst) == (src, dst)
        assert ei.value.attempts == 1 + w.comm_max_retries == 3
        assert ei.value.last_error == "dropped"
        # The ladder's purge released the pattern: the next round is clean.
        assert np.array_equal(A.matvec(x).data, clean)


class TestLeakDetection:
    def test_barrier_passes_when_all_messages_consumed(self):
        w = SimWorld(2)
        w.comm(0).send(1, 1.0)
        w.comm(1).recv(0)
        w.barrier()

    def test_barrier_raises_on_leaked_message(self):
        w = SimWorld(2)
        w.comm(0).send(1, 1.0)
        with pytest.raises(MailboxLeakError):
            w.barrier()

    def test_leak_report_carries_phase_label(self):
        """Regression: a leaked mailbox is reported with the phase its
        oldest undelivered message was posted under."""
        w = SimWorld(3)
        with w.phase_scope("assembly/scatter"):
            w.comm(0).send(2, np.ones(2))
            w.comm(0).send(2, np.ones(2))
        with pytest.raises(MailboxLeakError) as ei:
            w.assert_no_pending(context="end-of-phase")
        err = ei.value
        assert err.pending == [
            {
                "src": 0,
                "dst": 2,
                "phase": "assembly/scatter",
                "count": 2,
                "seqs": [0, 1],
            }
        ]
        assert "assembly/scatter" in str(err)
        assert "end-of-phase" in str(err)

    def test_leak_check_opt_out(self):
        w = SimWorld(2)
        w.leak_check = False
        w.comm(0).send(1, 1.0)
        w.barrier()  # no leak check: legacy permissive behavior
        assert w.pending_messages() == 1

    def test_no_leaks_in_halo_workload(self):
        rng = np.random.default_rng(3)
        pat, _ = two_rank_halo()
        w = SimWorld(2)
        for round_ in range(4):
            owned = [rng.standard_normal(3) for _ in range(2)]
            with w.phase_scope(f"halo/round{round_}"):
                exchange_halo(w, pat, owned)
            assert w.pending_messages() == 0
            w.barrier()

    def test_no_leaks_in_amg_setup_workload(self):
        from scipy import sparse

        from repro.amg import AMGHierarchy, AMGPreconditioner
        from repro.linalg import ParCSRMatrix, ParVector

        n = 32
        A = sparse.diags(
            [-1.0, 2.0, -1.0], [-1, 0, 1], (n, n), format="csr"
        )
        w = SimWorld(4)
        offs = np.linspace(0, n, 5).astype(np.int64)
        Ap = ParCSRMatrix(w, A, offs)
        with w.phase_scope("amg/setup"):
            hierarchy = AMGHierarchy(Ap)
        w.barrier()
        pre = AMGPreconditioner(hierarchy)
        with w.phase_scope("amg/cycle"):
            pre.apply(ParVector(w, offs, np.ones(n)))
        w.barrier()
        assert w.pending_messages() == 0

    def test_no_leaks_across_simulation_step(self):
        """Assembly + halo + AMG workloads of a full step leave no
        message in flight: the end-of-run barrier's leak check passes."""
        from repro.core.simulation import NaluWindSimulation

        sim = NaluWindSimulation("turbine_tiny")
        assert sim.world.leak_check
        sim.run(1)
        assert sim.world.pending_messages() == 0
        sim.world.barrier()


class TestSplitHaloGuard:
    """A second exchange_halo_begin on a pattern whose first round is
    still in flight would double-post every send, so it raises instead.
    Outside repro.comm.exchange the two halves are reachable only through
    the overlapped_halo scope (lint rule RL007), which pairs them."""

    def _fixture(self):
        offs = np.array([0, 3, 6])
        pat = build_exchange_pattern(offs, [np.array([4]), np.array([0, 2])])
        owned = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])]
        return SimWorld(2), pat, owned

    def test_double_begin_raises_and_counts(self):
        w, pat, owned = self._fixture()
        h = exchange_halo_begin(w, pat, owned)
        with pytest.raises(RuntimeError, match="twice on the same pattern"):
            exchange_halo_begin(w, pat, owned)
        assert w.metrics.counter_total("comm.double_begin") == 1
        # The first round is still intact and drains normally.
        ext = exchange_halo_finish(w, h)
        assert ext[0].tolist() == [5.0]
        assert w.pending_messages() == 0

    def test_begin_finish_begin_is_legal(self):
        w, pat, owned = self._fixture()
        for _ in range(3):
            ext = exchange_halo_finish(
                w, exchange_halo_begin(w, pat, owned)
            )
            assert ext[1].tolist() == [1.0, 3.0]
        assert w.metrics.counter_total("comm.double_begin") == 0

    def test_purge_pending_clears_inflight_set(self):
        w, pat, owned = self._fixture()
        exchange_halo_begin(w, pat, owned)
        # Recovery path: the ladder abandons the round wholesale.
        w.purge_pending()
        h = exchange_halo_begin(w, pat, owned)
        ext = exchange_halo_finish(w, h)
        assert ext[0].tolist() == [5.0]

    def test_distinct_patterns_may_overlap(self):
        w, pat, owned = self._fixture()
        offs = np.array([0, 3, 6])
        pat2 = build_exchange_pattern(
            offs, [np.array([4]), np.array([0, 2])]
        )
        h1 = exchange_halo_begin(w, pat, owned)
        h2 = exchange_halo_begin(w, pat2, owned)
        assert exchange_halo_finish(w, h2)[0].tolist() == [5.0]
        assert exchange_halo_finish(w, h1)[0].tolist() == [5.0]

    def test_scope_drains_on_every_normal_exit(self):
        w, pat, owned = self._fixture()
        with overlapped_halo(w, pat, owned) as ext:
            assert w.pending_messages() == pat.total_messages()
        assert ext.tolist() == [5.0, 1.0, 3.0]

        def early_return():
            with overlapped_halo(w, pat, owned) as ext:
                return ext

        assert early_return().tolist() == [5.0, 1.0, 3.0]
        assert w.pending_messages() == 0
        assert w.metrics.counter_total("comm.overlapped_exchanges") == 2
        assert w.metrics.counter_total("comm.double_begin") == 0

    def test_nested_scope_on_the_same_pattern_raises(self):
        w, pat, owned = self._fixture()
        with overlapped_halo(w, pat, owned) as ext:
            with pytest.raises(RuntimeError, match="twice on the same"):
                with overlapped_halo(w, pat, owned):
                    pass
        assert w.metrics.counter_total("comm.double_begin") == 1
        # The outer round was not disturbed and drained on exit.
        assert ext.tolist() == [5.0, 1.0, 3.0]
        assert w.pending_messages() == 0

    def test_exception_in_scope_leaves_the_round_to_purge_pending(self):
        from scipy import sparse

        from repro.linalg import ParCSRMatrix

        n = 12
        w = SimWorld(3)
        A = ParCSRMatrix(
            w,
            sparse.diags([-1.0, 2.5, -1.5], [-1, 0, 1], (n, n), format="csr"),
            np.array([0, 4, 8, 12]),
        )
        x = A.new_vector(np.linspace(1.0, 2.0, n))
        with pytest.raises(ZeroDivisionError):
            with overlapped_halo(w, A.pattern, x.data):
                1 / 0
        # Nothing was drained and the pattern is still marked in flight.
        assert w.pending_messages() == A.pattern.total_messages()
        with pytest.raises(RuntimeError, match="twice on the same"):
            A.matvec(x, overlap=True)
        # The recovery ladder's purge owns the aborted round.
        w.purge_pending("test")
        assert w.pending_messages() == 0
        assert np.array_equal(
            A.matvec(x, overlap=True).data, A.matvec(x).data
        )
