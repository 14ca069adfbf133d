"""The serving daemon: admission gating, deadlines, shutdown, watchdog.

Every test runs a real daemon on an ephemeral port and talks to it
over real sockets; the system underneath is the in-memory kernel, so
crashes and recoveries are driven deterministically.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.common.errors import DegradedModeError, SimulatedCrash
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.serve import (
    BackpressureError,
    BadRequestError,
    DaemonClient,
    DaemonConfig,
    DeadlineExceededError,
    RetryPolicy,
    ServeDaemon,
    ServerFailedError,
    ServerUnavailableError,
    ShuttingDownError,
)
from repro.replica import ReplicationConfig, WitnessConfig, WitnessDaemon
from repro.shard import ShardedSystem
from repro.workloads import register_workload_functions
from tests.queue_gate import (
    install_gate,
    run_on_own_connections,
    wait_queued,
)

ONE_SHOT = RetryPolicy(attempts=1)


@pytest.fixture
def served():
    """A started daemon over a fresh system, torn down after the test."""
    system = RecoverableSystem()
    register_workload_functions(system.registry)
    daemon = ServeDaemon(
        system, DaemonConfig(port=0, http_port=None, max_queue=4)
    ).start()
    try:
        yield daemon
    finally:
        daemon.stop(graceful=False)


def client_for(daemon, **kw):
    kw.setdefault("policy", RetryPolicy(attempts=1))
    return DaemonClient("127.0.0.1", daemon.port, **kw)


class TestRoundTrips:
    def test_put_get_delete(self, served):
        client = client_for(served)
        lsi = client.put("user:1", b"alice")
        assert client.get("user:1") == (b"alice", lsi)
        del_lsi = client.delete("user:1")
        assert del_lsi > lsi
        value, _vsi = client.get("user:1")
        assert value is None
        client.close()

    def test_apply_logical_operation(self, served):
        client = client_for(served)
        client.put("src", b"payload")
        response = client.apply(
            "wl_derive", reads=["src"], writes=["dst"],
            params=["src", "dst"],
        )
        assert response["ok"]
        written = response["writes"]["dst"]
        value, vsi = client.get("dst")
        assert value == __import__("base64").b64decode(
            written["__bytes__"]
        )
        assert vsi == response["lsi"]
        client.close()

    def test_acks_are_forced(self, served):
        client = client_for(served)
        lsi = client.put("x", b"v")
        assert served.system.log.is_stable(lsi)
        assert served.system.log.buffered_lsis() == []
        client.close()

    def test_ping_reports_version_and_health(self, served):
        client = client_for(served)
        response = client.ping()
        from repro import __version__

        assert response["version"] == __version__
        assert response["health"] == "healthy"
        client.close()

    def test_stats_exposes_serve_counters(self, served):
        client = client_for(served)
        client.put("x", b"v")
        stats = client.stats()
        assert stats["counters"]["serve.acked_writes"] >= 1
        client.close()

    def test_unknown_kind_rejected(self, served):
        client = client_for(served)
        with pytest.raises(BadRequestError):
            client.request("explode")
        client.close()

    def test_bad_deadline_rejected(self, served):
        client = client_for(served)
        with pytest.raises(BadRequestError):
            client.request("put", obj="x", value="v",
                           deadline_ms="not-a-number")
        client.close()

    def test_missing_obj_rejected(self, served):
        client = client_for(served)
        with pytest.raises(BadRequestError):
            client.request("get")
        client.close()


class TestHealthGating:
    def test_degraded_rejects_writes_serves_reads(self, served):
        client = client_for(served)
        client.put("keep", b"safe")
        served.system.enter_degraded({"gone"})
        with pytest.raises(DegradedModeError):
            client.put("keep", b"more")
        value, _vsi = client.get("keep")
        assert value == b"safe"
        # Reads of the lost object raise the same structured condition.
        with pytest.raises(DegradedModeError):
            client.get("gone")
        client.close()

    def test_failed_refuses_everything(self, served):
        client = client_for(served)
        served.system.mark_failed()
        with pytest.raises(ServerFailedError):
            client.put("x", b"v")
        with pytest.raises(ServerFailedError):
            client.get("x")
        # Liveness requests still answer (bypass the kernel).
        assert client.ping()["health"] == "failed"
        assert client.health()["health"] == "failed"
        client.close()

    def test_draining_rejects_new_work(self, served):
        served._draining.set()
        client = client_for(served)
        with pytest.raises(ShuttingDownError):
            client.put("x", b"v")
        # Liveness stays answerable mid-drain.
        assert client.ping()["ok"]
        client.close()


class _StalledApply:
    """Blocks the apply loop inside system.execute until released."""

    def __init__(self, system):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._original = system.execute
        system.execute = self._stalled

    def _stalled(self, op):
        self.entered.set()
        assert self.release.wait(timeout=10.0)
        return self._original(op)


class TestBackpressureAndDeadlines:
    def test_full_queue_answers_backpressure(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None, max_queue=1,
                                 retry_after_ms=7)
        ).start()
        stall = _StalledApply(system)
        try:
            blocked = client_for(daemon)
            result = {}
            worker = threading.Thread(
                target=lambda: result.update(
                    lsi=blocked.put("a", b"1")
                )
            )
            worker.start()
            assert stall.entered.wait(timeout=5.0)
            # Apply is busy with "a"; this one fills the queue...
            queued = client_for(daemon)
            queued_result = {}
            queued_worker = threading.Thread(
                target=lambda: queued_result.update(
                    lsi=queued.put("b", b"2")
                )
            )
            queued_worker.start()
            deadline = time.monotonic() + 5.0
            while daemon._queue.empty() and time.monotonic() < deadline:
                time.sleep(0.005)
            # ...and the next arrival bounces with the configured hint.
            overflow = client_for(daemon)
            with pytest.raises(BackpressureError) as excinfo:
                overflow.put("c", b"3")
            assert excinfo.value.retry_after_ms == 7
            assert excinfo.value.retryable
            stall.release.set()
            worker.join(timeout=10.0)
            queued_worker.join(timeout=10.0)
            assert "lsi" in result and "lsi" in queued_result
            for c in (blocked, queued, overflow):
                c.close()
        finally:
            stall.release.set()
            daemon.stop(graceful=False)

    def test_deadline_expires_in_queue(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None, max_queue=4)
        ).start()
        stall = _StalledApply(system)
        try:
            blocked = client_for(daemon)
            worker = threading.Thread(
                target=lambda: blocked.put("a", b"1")
            )
            worker.start()
            assert stall.entered.wait(timeout=5.0)
            doomed = client_for(daemon)
            doomed_error = []
            doomed_worker = threading.Thread(
                target=lambda: doomed_error.append(
                    pytest.raises(
                        DeadlineExceededError,
                        doomed.put, "b", b"2", deadline_ms=1,
                    )
                )
            )
            doomed_worker.start()
            time.sleep(0.05)  # let the 1ms budget expire in the queue
            stall.release.set()
            worker.join(timeout=10.0)
            doomed_worker.join(timeout=10.0)
            assert doomed_error  # DEADLINE came back, mapped and raised
            # The expired request never touched the kernel.
            assert system.cache.vsi_of("b") == 0
            blocked.close()
            doomed.close()
        finally:
            stall.release.set()
            daemon.stop(graceful=False)

    def test_deadline_capped_by_config(self, served):
        # A huge client deadline is clamped server-side; the request
        # still succeeds (the cap is a ceiling, not a rejection).
        client = client_for(served)
        assert client.put("x", b"v", deadline_ms=10_000_000) > 0
        client.close()


class TestWatchdog:
    def test_mid_serve_crash_restarts_and_serves_again(self, served):
        system = served.system
        original = system.log.force_through
        fired = []

        def flaky(lsi):
            if not fired:
                fired.append(lsi)
                raise SimulatedCrash("device lost mid-force")
            return original(lsi)

        system.log.force_through = flaky
        client = client_for(
            served,
            policy=RetryPolicy(attempts=4, base_delay=0.001),
        )
        lsi = client.put("x", b"precious")
        # First attempt crashed serving (never acked), the watchdog
        # recovered, the retry succeeded — and the ack is stable.
        assert fired
        assert served.watchdog.restarts == 1
        assert system.health is SystemHealth.HEALTHY
        assert client.get("x") == (b"precious", lsi)
        assert system.log.is_stable(lsi)
        client.close()

    def test_restart_budget_exhaustion_fails_the_system(self):
        from repro.kernel.supervisor import SupervisorConfig
        from repro.serve import WatchdogConfig

        system = RecoverableSystem()
        daemon = ServeDaemon(
            system,
            DaemonConfig(
                port=0, http_port=None,
                watchdog=WatchdogConfig(
                    supervisor=SupervisorConfig(), max_restarts=0
                ),
            ),
        ).start()
        try:
            system.log.force_through = lambda lsi: (_ for _ in ()).throw(
                SimulatedCrash("always")
            )
            client = client_for(daemon)
            with pytest.raises(
                (ServerFailedError, DeadlineExceededError, Exception)
            ):
                client.put("x", b"v")
            # The crash is answered to the client *before* the watchdog
            # runs, so give the apply thread a moment to mark FAILED.
            deadline = time.monotonic() + 5.0
            while (
                system.health is not SystemHealth.FAILED
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert system.health is SystemHealth.FAILED
            with pytest.raises(ServerFailedError):
                client.get("x")
            client.close()
        finally:
            daemon.stop(graceful=False)


class TestShutdown:
    def test_graceful_stop_forces_and_checkpoints(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None)
        ).start()
        client = client_for(daemon)
        lsi = client.put("x", b"v")
        client.close()
        assert daemon.stop(graceful=True) == 0
        assert system.log.buffered_lsis() == []
        assert system.log.is_stable(lsi)
        assert system.health is SystemHealth.HEALTHY

    def test_stop_is_idempotent(self, served):
        assert served.stop() == 0
        assert served.stop() == 0

    def test_kill_preserves_acked_writes(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=None)
        ).start()
        client = client_for(daemon)
        lsi = client.put("x", b"survives")
        client.close()
        daemon.kill()
        # The harness completes the SIGKILL simulation.
        system.crash()
        system.recover()
        assert system.read("x") == b"survives"
        assert system.cache.vsi_of("x") >= lsi

    def test_connection_refused_after_stop(self, served):
        served.stop()
        client = client_for(served)
        with pytest.raises(Exception):
            client.ping()
        client.close()


class TestHTTPEndpoint:
    def test_healthz_and_metrics(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=0)
        ).start()
        try:
            base = f"http://127.0.0.1:{daemon.http_port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=5) as r:
                assert r.status == 200
                body = json.loads(r.read().decode())
            assert body["health"] == "healthy"
            assert body["restarts"] == 0
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as r:
                assert r.status == 200
                text = r.read().decode()
            assert "# TYPE" in text
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert excinfo.value.code == 404
        finally:
            daemon.stop(graceful=False)

    def test_liveness_vs_readiness_when_degraded(self):
        # The split: DEGRADED is *live* (restarting the process would
        # only repeat the escalation ladder) but not *ready* (it should
        # not receive fresh traffic).  Plain /healthz answers 200 with
        # the degraded body; /healthz?ready=1 answers 503.
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=0)
        ).start()
        try:
            system.enter_degraded({"gone"})
            base = f"http://127.0.0.1:{daemon.http_port}/healthz"
            with urllib.request.urlopen(base, timeout=5) as r:
                assert r.status == 200
                body = json.loads(r.read().decode())
            assert body["health"] == "degraded"
            assert body["lost_objects"] == ["gone"]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}?ready=1", timeout=5)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode())
            assert body["ready"] is False
            assert any("degraded" in r for r in body["not_ready_reasons"])
        finally:
            daemon.stop(graceful=False)

    def test_readiness_200_when_healthy(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=0)
        ).start()
        try:
            url = f"http://127.0.0.1:{daemon.http_port}/healthz?ready=1"
            with urllib.request.urlopen(url, timeout=5) as r:
                assert r.status == 200
                body = json.loads(r.read().decode())
            assert body["ready"] is True
        finally:
            daemon.stop(graceful=False)

    def test_liveness_503_only_when_failed(self):
        system = RecoverableSystem()
        daemon = ServeDaemon(
            system, DaemonConfig(port=0, http_port=0)
        ).start()
        try:
            system.mark_failed()
            url = f"http://127.0.0.1:{daemon.http_port}/healthz"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode())
            assert body["health"] == "failed"
        finally:
            daemon.stop(graceful=False)


# ----------------------------------------------------------------------
# grouped acks: one force per batch of queued writes
# ----------------------------------------------------------------------
def gated_daemon(system):
    """A started daemon whose apply loop waits for ``gate.opened``."""
    daemon = ServeDaemon(
        system, DaemonConfig(port=0, http_port=None, max_queue=16)
    )
    gate = install_gate(daemon)
    return daemon.start(), gate


def put_call(obj, value, **kw):
    return lambda client: client.put(obj, value, **kw)


def gated_sharded_daemon(shards=2):
    """A started sharded daemon whose shard 0 waits for ``gate.opened``."""
    sharded = ShardedSystem.build(shards)
    register_workload_functions(sharded.registry)
    daemon = ServeDaemon(
        sharded, DaemonConfig(port=0, http_port=None, max_queue=16)
    )
    gate = install_gate(daemon, shard=0)
    return daemon.start(), gate


def keys_on(daemon, shard, count, tag="k"):
    """``count`` object names the daemon routes to ``shard``."""
    router, keys, probe = daemon.sharded.router, [], 0
    while len(keys) < count:
        key = f"{tag}:{probe}"
        probe += 1
        if router.shard_of(key) == shard:
            keys.append(key)
    return keys


def shard_forces(daemon, shard):
    return daemon.sharded.systems[shard].obs.counter_value("io.log_forces")


class TestGroupedAcks:
    def test_queued_writes_share_one_force(self):
        system = RecoverableSystem()
        daemon, gate = gated_daemon(system)
        try:
            results, join = run_on_own_connections(
                lambda: client_for(daemon),
                [put_call(f"g{i}", b"v%d" % i) for i in range(5)],
            )
            wait_queued(daemon, 5)
            forces = system.obs.counter_value("io.log_forces")
            gate.opened.set()
            join()
            assert all(isinstance(lsi, int) for lsi in results), results
            assert len(set(results)) == 5
            assert system.obs.counter_value("io.log_forces") == forces + 1
            assert all(system.log.is_stable(lsi) for lsi in results)
        finally:
            gate.opened.set()
            daemon.stop(graceful=False)

    def test_sequential_client_forces_once_per_write(self, served):
        system = served.system
        client = client_for(served)
        forces = system.obs.counter_value("io.log_forces")
        for index in range(4):
            client.put("seq", index)
        assert system.obs.counter_value("io.log_forces") == forces + 4
        client.close()

    def test_fault_on_the_group_force_acks_no_member(self):
        system = RecoverableSystem()
        daemon, gate = gated_daemon(system)
        original = system.log.force_through
        forced = []

        def crashing(lsi):
            forced.append(lsi)
            if len(forced) == 1:
                raise SimulatedCrash("device lost mid-force")
            return original(lsi)

        system.log.force_through = crashing
        try:
            results, join = run_on_own_connections(
                lambda: client_for(daemon),
                [put_call(f"f{i}", i) for i in range(4)],
            )
            wait_queued(daemon, 4)
            gate.opened.set()
            join()
            assert len(forced) == 1
            assert all(isinstance(r, ServerUnavailableError)
                       for r in results), results
            # The watchdog took over once, and the daemon serves again.
            assert daemon.watchdog.restarts == 1
            assert system.health is SystemHealth.HEALTHY
            client = client_for(daemon)
            assert client.get("f0")[1] == 0  # never acked, never durable
            assert client.put("f0", b"again") > 0
            client.close()
        finally:
            gate.opened.set()
            daemon.stop(graceful=False)

    def test_crash_mid_group_serves_the_rest_after_recovery(self):
        system = RecoverableSystem()
        daemon, gate = gated_daemon(system)
        original = system.execute
        calls = []

        def crash_second(op):
            calls.append(op)
            if len(calls) == 2:
                raise SimulatedCrash("device lost mid-execute")
            return original(op)

        system.execute = crash_second
        try:
            results, join = run_on_own_connections(
                lambda: client_for(daemon),
                [put_call(f"m{i}", i) for i in range(3)],
            )
            wait_queued(daemon, 3)
            gate.opened.set()
            join()
            # The executed member and the crashed one are refused; the
            # third runs after the watchdog's recovery and is acked.
            refused = [r for r in results
                       if isinstance(r, ServerUnavailableError)]
            acked = [r for r in results if isinstance(r, int)]
            assert len(refused) == 2 and len(acked) == 1, results
            assert daemon.watchdog.restarts == 1
            assert system.log.is_stable(acked[0])
        finally:
            gate.opened.set()
            daemon.stop(graceful=False)

    def test_member_past_its_deadline_is_not_acked(self):
        system = RecoverableSystem()
        daemon, gate = gated_daemon(system)
        try:
            results, join = run_on_own_connections(
                lambda: client_for(daemon),
                [
                    put_call("d0", 0),
                    put_call("d1", 1, deadline_ms=1),
                    put_call("d2", 2),
                ],
            )
            wait_queued(daemon, 3)
            doomed = min(work.deadline for work in list(gate.queue))
            while time.monotonic() <= doomed:
                time.sleep(0.001)
            forces = system.obs.counter_value("io.log_forces")
            gate.opened.set()
            join()
            by_key = dict(zip(("d0", "d1", "d2"), results))
            assert isinstance(by_key["d1"], DeadlineExceededError)
            assert isinstance(by_key["d0"], int)
            assert isinstance(by_key["d2"], int)
            assert system.cache.vsi_of("d1") == 0
            assert system.obs.counter_value("io.log_forces") == forces + 1
        finally:
            gate.opened.set()
            daemon.stop(graceful=False)

    def test_answers_keep_connection_order_and_follow_the_group(
        self, monkeypatch
    ):
        from repro.serve import protocol
        from repro.serve.server import _Connection

        sent = []
        original_send = _Connection.send

        def recording_send(conn, message):
            sent.append(message.get("id"))
            original_send(conn, message)

        monkeypatch.setattr(_Connection, "send", recording_send)
        system = RecoverableSystem()
        daemon, gate = gated_daemon(system)
        a = socket.create_connection(("127.0.0.1", daemon.port))
        b = socket.create_connection(("127.0.0.1", daemon.port))
        try:
            def send(sock, **frame):
                protocol.send_frame(sock, frame)
                wait_queued(daemon, len(sent_frames) + 1)
                sent_frames.append(frame["id"])

            sent_frames = []
            send(a, id="a1", kind="put", obj="k1", value="one")
            send(b, id="b1", kind="put", obj="k2", value="two")
            send(a, id="a2", kind="get", obj="k2")
            send(a, id="a3", kind="put", obj="k1", value="three")
            forces = system.obs.counter_value("io.log_forces")
            gate.opened.set()
            on_a = [protocol.recv_frame(a) for _ in range(3)]
            on_b = protocol.recv_frame(b)
            assert [r["id"] for r in on_a] == ["a1", "a2", "a3"]
            assert all(r["ok"] for r in on_a + [on_b])
            # The get closed the {a1, b1} group: it is answered after
            # both acks, and it sees b1's write at b1's lSI.
            assert sent == ["a1", "b1", "a2", "a3"]
            assert on_a[1]["value"] == "two"
            assert on_a[1]["vsi"] == on_b["lsi"]
            # One force for the group, one for the write after the get.
            assert system.obs.counter_value("io.log_forces") == forces + 2
        finally:
            a.close()
            b.close()
            gate.opened.set()
            daemon.stop(graceful=False)

    # The same grouped commit on a 2-shard daemon: each shard groups its
    # own queued writes, and shard 1 is never held up by shard 0.
    def test_sharded_queued_writes_share_one_force_per_shard(self):
        daemon, gate = gated_sharded_daemon()
        try:
            keys = keys_on(daemon, 0, 4, "g")
            results, join = run_on_own_connections(
                lambda: client_for(daemon),
                [put_call(key, b"v") for key in keys],
            )
            wait_queued(daemon, 4, shard=0)
            before = [shard_forces(daemon, k) for k in (0, 1)]
            gate.opened.set()
            join()
            assert all(isinstance(lsi, int) for lsi in results), results
            assert shard_forces(daemon, 0) == before[0] + 1
            assert shard_forces(daemon, 1) == before[1]
            log = daemon.sharded.systems[0].log
            assert all(log.is_stable(lsi) for lsi in results)
        finally:
            gate.opened.set()
            daemon.stop(graceful=False)

    def test_cross_shard_apply_closes_the_group(self, monkeypatch):
        from repro.serve.server import _Connection

        sent = []
        original_send = _Connection.send

        def recording_send(conn, message):
            sent.append("cross" if message.get("cross") else "ack")
            original_send(conn, message)

        monkeypatch.setattr(_Connection, "send", recording_send)
        daemon, gate = gated_sharded_daemon()
        try:
            keys = keys_on(daemon, 0, 3, "c")
            (dst,) = keys_on(daemon, 1, 1, "d")
            calls = [put_call(key, b"v") for key in keys]
            results, join = run_on_own_connections(
                lambda: client_for(daemon), calls
            )
            wait_queued(daemon, 3, shard=0)
            cross, cross_join = run_on_own_connections(
                lambda: client_for(daemon),
                [lambda client: client.apply(
                    "wl_derive", reads=[keys[0]], writes=[dst],
                    params=[keys[0], dst],
                )],
            )
            wait_queued(daemon, 4, shard=0)
            forces = shard_forces(daemon, 0)
            gate.opened.set()
            join()
            cross_join()
            assert all(isinstance(lsi, int) for lsi in results), results
            assert cross[0]["cross"] is True, cross
            # The three puts share one force and are acked before the
            # cross apply, which runs alone and forces its own fence.
            assert sent == ["ack", "ack", "ack", "cross"]
            assert shard_forces(daemon, 0) == forces + 2
        finally:
            gate.opened.set()
            daemon.stop(graceful=False)

    def test_sharded_force_fault_acks_no_member_of_that_shard(self):
        daemon, gate = gated_sharded_daemon()
        system = daemon.sharded.systems[0]
        original = system.log.force_through
        forced = []

        def crashing(lsi):
            forced.append(lsi)
            if len(forced) == 1:
                raise SimulatedCrash("device lost mid-force")
            return original(lsi)

        system.log.force_through = crashing
        try:
            keys = keys_on(daemon, 0, 3, "f")
            (other,) = keys_on(daemon, 1, 1, "o")
            results, join = run_on_own_connections(
                lambda: client_for(daemon),
                [put_call(key, b"v") for key in keys],
            )
            wait_queued(daemon, 3, shard=0)
            client = client_for(daemon)
            # Shard 1 acks while shard 0's group is held...
            assert client.put(other, b"1") > 0
            gate.opened.set()
            join()
            assert len(forced) == 1
            assert all(isinstance(r, ServerUnavailableError)
                       for r in results), results
            # ...and after shard 0's force fault, which only shard 0's
            # watchdog handled.
            assert client.put(other, b"2") > 0
            shards = client.health()["shards"]
            assert shards["0"]["restarts"] == 1
            assert shards["1"]["restarts"] == 0
            assert client.get(keys[0])[0] is None  # never acked
            client.close()
        finally:
            gate.opened.set()
            daemon.stop(graceful=False)

    def test_replication_refuses_a_sharded_system(self):
        with pytest.raises(ValueError, match="one recovery domain"):
            ServeDaemon(
                ShardedSystem.build(2),
                DaemonConfig(port=0, http_port=None),
                replication=ReplicationConfig(),
            )
        with pytest.raises(ValueError, match="one recovery domain"):
            WitnessDaemon(
                ShardedSystem.build(2),
                DaemonConfig(port=0, http_port=None),
                witness=WitnessConfig(),
            )
