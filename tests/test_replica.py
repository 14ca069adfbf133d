"""Replication units and pair integration (repro.replica).

Unit layers first — the durable epoch sidecar, the wire envelopes, the
log manager's adopt/reserve primitives — then live in-process pairs:
attach and semi-synchronous shipping, readiness, promotion, and the
epoch fence against a zombie primary.
"""

from __future__ import annotations

import time

import pytest

from repro.common.errors import WALViolationError
from repro.common.identifiers import NULL_SI
from repro.core.operation import Operation, OpKind
from repro.kernel.system import RecoverableSystem
from repro.replica import (
    INITIAL_EPOCH,
    EpochStore,
    ReplicationConfig,
    WitnessConfig,
    WitnessDaemon,
)
from repro.replica.wire import (
    batch_frame,
    decode_records,
    encode_records,
    shippable,
)
from repro.serve import (
    DaemonClient,
    DaemonConfig,
    FencedError,
    ProtocolError,
    RetryPolicy,
    ServeDaemon,
    ServeError,
    ServerUnavailableError,
)
from repro.wal.log_manager import LogManager
from repro.wal.records import (
    CheckpointRecord,
    EpochRecord,
    FenceRecord,
    InstallationRecord,
    LogRecord,
    OperationRecord,
)
from repro.workloads import register_workload_functions
from tests.queue_gate import install_gate, run_on_own_connections, wait_queued


def _op_record(lsi: int, obj: str = "x", value: bytes = b"v") -> OperationRecord:
    record = OperationRecord(
        Operation(
            f"op@{lsi}",
            OpKind.PHYSICAL,
            reads=set(),
            writes={obj},
            payload={obj: value},
        )
    )
    record.lsi = lsi
    record.op.lsi = lsi
    return record


# ----------------------------------------------------------------------
# the durable epoch sidecar
# ----------------------------------------------------------------------
class TestEpochStore:
    def test_memory_store_starts_at_initial(self):
        store = EpochStore()
        assert store.load() == INITIAL_EPOCH

    def test_memory_store_is_monotone(self):
        store = EpochStore()
        assert store.save(3) == 3
        assert store.save(2) == 3  # smaller numbers are ignored
        assert store.load() == 3

    def test_file_store_survives_reopen(self, tmp_path):
        root = str(tmp_path / "epoch")
        EpochStore(root).save(7)
        # A fresh instance — the reboot — must see the promoted number.
        assert EpochStore(root).load() == 7

    def test_file_store_is_monotone_across_instances(self, tmp_path):
        root = str(tmp_path / "epoch")
        EpochStore(root).save(5)
        assert EpochStore(root).save(4) == 5
        assert EpochStore(root).load() == 5

    def test_corrupt_sidecar_degrades_to_initial(self, tmp_path):
        root = str(tmp_path / "epoch")
        store = EpochStore(root)
        store.save(9)
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        assert store.load() == INITIAL_EPOCH


# ----------------------------------------------------------------------
# the wire envelopes
# ----------------------------------------------------------------------
class TestWire:
    def test_shippable_filter(self):
        assert shippable(_op_record(1))
        assert shippable(FenceRecord("f", 0, (0,), {0: 1}))
        assert shippable(EpochRecord(2, "primary"))
        # The primary's private bookkeeping never crosses the channel.
        assert not shippable(CheckpointRecord({}))
        assert not shippable(InstallationRecord({}, {}, []))
        assert not shippable(LogRecord())

    def test_encode_decode_round_trip(self):
        records = [_op_record(4, value=b"payload"), _op_record(7)]
        decoded = decode_records(encode_records(records))
        assert [r.lsi for r in decoded] == [4, 7]
        assert decoded[0].op.payload == {"x": b"payload"}

    def test_batch_frame_shape(self):
        frame = batch_frame(2, 9, [_op_record(8)], checkpoint=True)
        assert frame["kind"] == "repl_batch"
        assert frame["epoch"] == 2
        assert frame["through"] == 9
        assert frame["checkpoint"] is True
        assert len(frame["records"]) == 1

    def test_decode_rejects_non_string(self):
        with pytest.raises(ProtocolError):
            decode_records([42])

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_records(["not base64 pickle!!"])

    def test_decode_rejects_non_record_pickle(self):
        import base64
        import pickle

        blob = base64.b64encode(pickle.dumps({"not": "a record"})).decode()
        with pytest.raises(ProtocolError):
            decode_records([blob])


# ----------------------------------------------------------------------
# the log manager's adoption primitives
# ----------------------------------------------------------------------
class TestAdoptRecords:
    def test_adopt_preserves_origin_lsis_with_gaps(self):
        log = LogManager()
        adopted = log.adopt_records([_op_record(3), _op_record(7)])
        assert adopted == 2
        assert [r.lsi for r in log.stable_records()] == [3, 7]
        assert log.stable_end_lsi() == 7

    def test_adopt_skips_duplicates_from_reship(self):
        log = LogManager()
        log.adopt_records([_op_record(3), _op_record(5)])
        # A reconnect re-ships an overlapping window; only the new
        # suffix lands.
        assert log.adopt_records([_op_record(3), _op_record(5),
                                  _op_record(8)]) == 1
        assert [r.lsi for r in log.stable_records()] == [3, 5, 8]

    def test_adopt_rejects_out_of_order_batch(self):
        log = LogManager()
        with pytest.raises(WALViolationError):
            log.adopt_records([_op_record(5), _op_record(4)])

    def test_adopt_refuses_buffered_local_appends(self):
        log = LogManager()
        log.append(LogRecord())  # volatile local append, not forced
        with pytest.raises(WALViolationError):
            log.adopt_records([_op_record(9)])

    def test_adopted_records_are_stable_immediately(self):
        # The receipt ack is a durability promise: adoption goes
        # through the forced path, nothing lingers in the buffer.
        log = LogManager()
        log.adopt_records([_op_record(2)])
        assert log.is_stable(2)

    def test_reserve_lsis_through_fences_old_history(self):
        log = LogManager()
        log.adopt_records([_op_record(4)])
        log.reserve_lsis_through(10)
        lsi = log.append(LogRecord())
        assert lsi == 11  # no lSI the old primary may have used

    def test_reserve_never_moves_backwards(self):
        log = LogManager()
        log.reserve_lsis_through(10)
        log.reserve_lsis_through(3)
        assert log.append(LogRecord()) == 11


# ----------------------------------------------------------------------
# live pairs
# ----------------------------------------------------------------------
def _primary(ack_timeout_s: float = 2.0) -> ServeDaemon:
    """A not-yet-started replicating primary."""
    primary_system = RecoverableSystem()
    register_workload_functions(primary_system.registry)
    return ServeDaemon(
        primary_system,
        DaemonConfig(port=0, http_port=None, retry_after_ms=5),
        replication=ReplicationConfig(ack_timeout_s=ack_timeout_s,
                                      retry_after_ms=5),
    )


def _with_witness(primary: ServeDaemon, redo_every_records: int = 8):
    """Start ``primary`` and a witness of it; wait until attached."""
    primary.start()
    witness_system = RecoverableSystem()
    register_workload_functions(witness_system.registry)
    witness = WitnessDaemon(
        witness_system,
        DaemonConfig(port=0, http_port=None, retry_after_ms=5),
        witness=WitnessConfig(
            primary_port=primary.port,
            redo_every_records=redo_every_records,
            reconnect_delay_s=0.02,
        ),
    ).start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if witness.attached and primary.replication.attached:
            return primary, witness
        time.sleep(0.01)
    witness.stop(graceful=False)
    primary.kill()
    raise AssertionError("witness never attached")


def _start_pair(redo_every_records: int = 8):
    """A started primary/witness pair."""
    return _with_witness(_primary(), redo_every_records)


def _start_gated_pair(ack_timeout_s: float = 2.0):
    """A started pair whose primary's apply loop waits for
    ``gate.opened``; returns ``(primary, witness, gate)``."""
    primary = _primary(ack_timeout_s)
    gate = install_gate(primary)
    return (*_with_witness(primary), gate)


def _client(port: int, attempts: int = 5) -> DaemonClient:
    return DaemonClient(
        "127.0.0.1", port,
        policy=RetryPolicy(attempts=attempts, base_delay=0.01,
                           max_delay=0.05),
    )


class TestPair:
    def test_acks_wait_for_witness_watermark(self):
        primary, witness = _start_pair()
        try:
            client = _client(primary.port)
            for index in range(6):
                response = client.request(
                    "put", obj="p:x", value=f"v{index}"
                )
                assert response["ok"]
                # Semi-synchronous: by ack time the witness's durable
                # watermark covers the acked lSI.
                assert witness.system.log.is_stable(response["lsi"])
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_witness_refuses_data_ops_before_promotion(self):
        primary, witness = _start_pair()
        try:
            client = _client(witness.port, attempts=1)
            with pytest.raises(ServerUnavailableError):
                client.request("put", obj="w:x", value="nope")
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_primary_refuses_replication_frames_from_clients(self):
        primary, witness = _start_pair()
        try:
            client = _client(witness.port, attempts=1)
            with pytest.raises(ServeError) as err:
                client.request("repl_subscribe", watermark=0, epoch=1)
            assert err.value.code == "BAD_REQUEST"
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_readiness_tracks_attachment_and_promotion(self):
        primary, witness = _start_pair()
        try:
            status, ready = primary._ready_payload()
            assert status == 200
            assert ready["ready"] is True
            wstatus, wready = witness._ready_payload()
            # An attached, caught-up witness is "ready" as a witness.
            assert wstatus == 200
            assert wready["role"] == "witness"
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_kill_promote_serves_acked_state(self):
        primary, witness = _start_pair()
        try:
            client = _client(primary.port)
            acked = {}
            for index in range(10):
                obj = f"kp:{index % 3}"
                value = f"v{index}"
                response = client.request("put", obj=obj, value=value)
                acked[obj] = (value, response["lsi"])
            client.close()
            primary.kill()
            pclient = _client(witness.port, attempts=10)
            promote = pclient.request("promote")
            assert promote["role"] == "primary"
            assert promote["epoch"] == INITIAL_EPOCH + 1
            assert witness.promoted
            # Every acked write is visible, exactly once, at or past
            # its acked lSI.
            for obj, (value, lsi) in acked.items():
                got = pclient.request("get", obj=obj)
                assert got["value"] == value
                assert got["vsi"] >= lsi
            # And the promoted daemon accepts new writes.
            assert pclient.request("put", obj="kp:new", value="after")["ok"]
            pclient.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_promotion_watermark_covers_receipts_after_a_redo_cycle(self):
        primary, witness = _start_pair(redo_every_records=4)
        try:
            client = _client(primary.port)
            lsis = [client.request("put", obj=f"pw:{i}", value=i)["lsi"]
                    for i in range(4)]
            client.close()
            primary.kill()
            pclient = _client(witness.port, attempts=10)
            promote = pclient.request("promote")
            pclient.close()
            # The fourth receipt started a redo cycle, which installed
            # and truncated the whole adopted log.
            assert witness.redo_cycles >= 1
            assert promote["watermark"] >= max(lsis)
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_resubscribe_after_a_redo_cycle_keeps_the_watermark(
        self, monkeypatch
    ):
        from repro.replica import wire

        subscribed = []
        original_frame = wire.subscribe_frame

        def recording_frame(watermark, epoch):
            subscribed.append(watermark)
            return original_frame(watermark, epoch)

        monkeypatch.setattr(wire, "subscribe_frame", recording_frame)
        primary = _primary()
        gauged = []
        original_gauge = primary.system.obs.gauge

        def recording_gauge(name, value, *args, **kwargs):
            if name == "repl.witness_watermark":
                gauged.append(value)
            return original_gauge(name, value, *args, **kwargs)

        primary.system.obs.gauge = recording_gauge
        primary, witness = _with_witness(primary, redo_every_records=4)
        try:
            client = _client(primary.port)
            acked = max(client.request("put", obj=f"rw:{i}", value=i)["lsi"]
                        for i in range(4))
            deadline = time.monotonic() + 10.0
            while witness.redo_cycles < 1:
                assert time.monotonic() < deadline, "no redo cycle ran"
                time.sleep(0.01)
            # The cycle installed and truncated the whole adopted log.
            assert witness.system.log.stable_end_lsi() == NULL_SI
            gauged.clear()
            subscribes = primary.system.obs.counter_value("repl.subscribes")
            witness._close_subscriber_sock()
            while not (primary.system.obs.counter_value("repl.subscribes")
                       > subscribes and witness.attached):
                assert time.monotonic() < deadline, "never re-subscribed"
                time.sleep(0.01)
            assert len(subscribed) >= 2
            assert subscribed[-1] >= acked
            assert gauged and min(gauged) >= acked
            assert primary.replication.watermark >= acked
            # The pair still acks after the reconnect.
            assert client.request("put", obj="rw:after", value=1)["ok"]
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_promotion_is_idempotent(self):
        primary, witness = _start_pair()
        try:
            primary.kill()
            client = _client(witness.port, attempts=10)
            first = client.request("promote")
            second = client.request("promote")
            assert second["epoch"] == first["epoch"]
            assert second["role"] == "primary"
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_zombie_primary_is_fenced(self):
        primary, witness = _start_pair()
        try:
            client = _client(primary.port)
            client.request("put", obj="z:x", value="before")
            client.close()
            # Promote while the primary is still alive: the fence ack
            # must depose it.
            pclient = _client(witness.port, attempts=10)
            pclient.request("promote")
            pclient.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if primary.replication.status()["fenced"]:
                    break
                time.sleep(0.01)
            assert primary.replication.status()["fenced"]
            zombie = _client(primary.port, attempts=1)
            with pytest.raises(FencedError):
                zombie.request("put", obj="z:x", value="zombie")
            zombie.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_client_fails_over_from_fenced_primary(self):
        primary, witness = _start_pair()
        try:
            pclient = _client(witness.port, attempts=10)
            pclient.request("promote")
            pclient.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if primary.replication.status()["fenced"]:
                    break
                time.sleep(0.01)
            # A failover-aware client pointed at the fenced primary
            # rotates to the promoted witness and gets its ack there.
            client = DaemonClient(
                "127.0.0.1", primary.port,
                failover=[("127.0.0.1", witness.port)],
                policy=RetryPolicy(attempts=6, base_delay=0.01,
                                   max_delay=0.05),
            )
            response = client.request("put", obj="fo:x", value="moved")
            assert response["ok"]
            assert response["epoch"] == INITIAL_EPOCH + 1
            client.close()
        finally:
            witness.stop(graceful=False)
            primary.kill()

    def test_unreplicated_primary_acks_without_witness(self):
        # Replication off: the single-daemon contract is unchanged.
        system = RecoverableSystem()
        register_workload_functions(system.registry)
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None)
        ).start()
        try:
            client = _client(daemon.port)
            assert client.request("put", obj="solo", value="v")["ok"]
            client.close()
        finally:
            daemon.kill()

    def test_replicated_primary_without_witness_refuses_acks(self):
        # CP choice: rather than ack a write the witness never saw,
        # the primary answers UNAVAILABLE (retryable) until one
        # attaches.
        system = RecoverableSystem()
        register_workload_functions(system.registry)
        daemon = ServeDaemon(
            system,
            DaemonConfig(port=0, http_port=None, retry_after_ms=5),
            replication=ReplicationConfig(ack_timeout_s=0.1,
                                          retry_after_ms=5),
        ).start()
        try:
            client = _client(daemon.port, attempts=2)
            with pytest.raises(ServerUnavailableError):
                client.request("put", obj="np:x", value="v")
            client.close()
        finally:
            daemon.kill()


# ----------------------------------------------------------------------
# grouped acks on the replicated primary
# ----------------------------------------------------------------------
def _puts(prefix: str, count: int):
    return [
        (lambda client, i=i: client.request(
            "put", obj=f"{prefix}{i}", value=i)["lsi"])
        for i in range(count)
    ]


class TestGroupedReplication:
    def test_queued_writes_share_one_force_and_one_batch(self):
        primary, witness, gate = _start_gated_pair()
        try:
            obs = primary.system.obs
            results, join = run_on_own_connections(
                lambda: _client(primary.port, attempts=1), _puts("gr", 6)
            )
            wait_queued(primary, 6)
            forces = obs.counter_value("io.log_forces")
            batches = obs.counter_value("repl.batches")
            gate.opened.set()
            join()
            assert all(isinstance(lsi, int) for lsi in results), results
            assert obs.counter_value("io.log_forces") == forces + 1
            assert obs.counter_value("repl.batches") == batches + 1
            # Every acked lSI was covered by the witness's receipt.
            assert all(witness.system.log.is_stable(lsi) for lsi in results)
        finally:
            gate.opened.set()
            witness.stop(graceful=False)
            primary.kill()

    def test_withheld_receipt_acks_no_member(self):
        primary, witness, gate = _start_gated_pair(ack_timeout_s=0.3)
        original = witness._send_to_primary

        def no_receipts(sock, frame):
            if frame.get("kind") != "repl_ack":
                original(sock, frame)

        witness._send_to_primary = no_receipts
        try:
            obs = primary.system.obs
            results, join = run_on_own_connections(
                lambda: _client(primary.port, attempts=1), _puts("wr", 4)
            )
            wait_queued(primary, 4)
            acked = obs.counter_value("serve.acked_writes")
            gate.opened.set()
            join()
            assert all(isinstance(r, ServerUnavailableError)
                       for r in results), results
            assert obs.counter_value("serve.acked_writes") == acked
        finally:
            gate.opened.set()
            witness.stop(graceful=False)
            primary.kill()

    def test_member_whose_deadline_passes_before_the_receipt_is_not_acked(
        self
    ):
        primary, witness, gate = _start_gated_pair(ack_timeout_s=5.0)
        original = witness._send_to_primary
        doomed = []

        def late_receipts(sock, frame):
            # Hold the group's receipt until the short member's own
            # deadline has passed; the others' deadlines have not.
            if frame.get("kind") == "repl_ack" and doomed:
                while time.monotonic() <= doomed[0]:
                    time.sleep(0.002)
            original(sock, frame)

        witness._send_to_primary = late_receipts
        calls = [
            lambda client: client.request(
                "put", obj="ld0", value=0)["lsi"],
            lambda client: client.request(
                "put", obj="ld1", value=1, deadline_ms=1000)["lsi"],
            lambda client: client.request(
                "put", obj="ld2", value=2)["lsi"],
        ]
        try:
            obs = primary.system.obs
            results, join = run_on_own_connections(
                lambda: _client(primary.port, attempts=1), calls
            )
            wait_queued(primary, 3)
            doomed.append(min(work.deadline for work in list(gate.queue)))
            acked = obs.counter_value("serve.acked_writes")
            batches = obs.counter_value("repl.batches")
            gate.opened.set()
            join()
            assert isinstance(results[1], ServerUnavailableError), results
            assert isinstance(results[0], int), results
            assert isinstance(results[2], int), results
            # The short member executed in the group (it did not expire
            # in the queue) and shared its batch, but was not acked.
            assert primary.system.cache.vsi_of("ld1") != 0
            assert obs.counter_value("repl.batches") == batches + 1
            assert obs.counter_value("serve.acked_writes") == acked + 2
        finally:
            gate.opened.set()
            witness.stop(graceful=False)
            primary.kill()

    def test_every_member_has_a_complete_trace_tree(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry, dump_jsonl
        from repro.obs import tracetree

        primary, witness, gate = _start_gated_pair()
        registries = [MetricsRegistry() for _ in range(5)]
        pool = iter(registries)
        clients = []

        def connect():
            client = DaemonClient(
                "127.0.0.1", primary.port, obs=next(pool),
                policy=RetryPolicy(attempts=1),
            )
            clients.append(client)
            return client

        try:
            results, join = run_on_own_connections(connect, _puts("tr", 5))
            wait_queued(primary, 5)
            gate.opened.set()
            join()
            assert all(isinstance(lsi, int) for lsi in results), results
        finally:
            gate.opened.set()
            # Stopped first: the witness records its ack span after the
            # primary may already have acked.
            witness.stop(graceful=False)
            primary.kill()
        paths = []
        for name, registry in [("primary", primary.system.obs),
                               ("witness", witness.system.obs)] + [
                (f"client{i}", r) for i, r in enumerate(registries)]:
            path = str(tmp_path / f"{name}.jsonl")
            dump_jsonl(registry, path)
            paths.append(path)
        expect = ["client.put", "ack.queue_ms", "ack.apply_ms",
                  "ack.force_ms", "ack.repl_wait_ms"]
        spans = tracetree.collect_spans(paths)
        with_witness_chain = 0
        for client in clients:
            trace_id = client.last_trace
            assert tracetree.main(paths, trace_id=trace_id,
                                  expect=expect) == 0
            roots = tracetree.build_trace(spans, trace_id)
            nodes = {node.name: node for node in roots[0].walk()}
            if "witness.ack_ms" in nodes:
                with_witness_chain += 1
                # The chain hangs under the leader's replication wait.
                ship = nodes["repl.ship_ms"]
                assert ship in nodes["ack.repl_wait_ms"].children
                assert nodes["witness.adopt_ms"] in ship.children
        capsys.readouterr()
        # One group, one shipped batch: exactly one member carries it.
        assert with_witness_chain == 1
