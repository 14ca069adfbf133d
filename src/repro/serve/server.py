"""The serving daemon: one supervised socket front end over 1..N domains.

``ServeDaemon`` puts the length-prefixed JSON protocol of
:mod:`repro.serve.protocol` in front of either one
:class:`~repro.kernel.system.RecoverableSystem` or a
:class:`~repro.shard.ShardedSystem`, and turns the escalation-ladder
machinery into an *operable* long-running process.  Each recovery
domain — one log, one write graph, one REDO test — is served as a
*shard* with its own watchdog, bounded admission queue and apply
thread; a single system is the 1-shard case.  Every shard runs the
same pipeline:

* **supervised startup** — the listener does not open until each
  shard's :class:`~repro.serve.watchdog.ServingWatchdog` has driven
  recovery to a terminal state, so a daemon restarted over SIGKILL
  debris serves its first request from verified state;
* **health-gated admission** — requests are admitted when HEALTHY,
  queued (bounded backlog) while RECOVERING, answered read-only while
  DEGRADED (writes get a structured ``DEGRADED`` rejection), and
  refused outright when FAILED — per shard, so one shard's outage
  leaves the others acking;
* **single-writer apply loop** — a kernel is not thread-safe, so all
  access to shard k's kernel is confined to shard k's apply thread fed
  by its admission queue; reader threads only frame, validate, gate and
  enqueue;
* **grouped acks** — after taking a write (``put``/``delete``/
  ``apply``) the apply loop also takes every write already waiting in
  its queue; an empty queue, a non-write or a cross-shard request
  closes the group.  The members execute in queue order, then one
  ``force_through`` of the group's highest lSI (and, when replicating,
  one witness round trip) commits them all, and only then is each
  member answered, in queue order.  A group of one is the
  single-client case; there is no interval, size or flag to tune.
  Because every acknowledgment is sent *after* its record is forced
  stable (and covered by the witness's durable watermark), an acked
  write is durable by construction; a failed force, serving crash or
  replication refusal answers every executed member of the group with
  that error and acks none;
* **deadlines and backpressure** — every request carries a deadline
  budget (``deadline_ms``, defaulted and capped by config); a request
  that expires while queued is answered ``DEADLINE`` without touching
  the system, a replicated write whose deadline passes before the
  witness's receipt is answered ``UNAVAILABLE`` (never acked), even
  when the rest of its group is acked, and a full queue answers
  ``BACKPRESSURE`` with a ``retry_after_ms`` hint the client's backoff
  honors;
* **mid-serve crash watchdog** — a storage failure surfacing inside an
  apply loop discards that shard's volatile state and re-runs its
  supervisor ladder while admission keeps queueing; the in-flight
  group's executed requests get a retryable ``UNAVAILABLE`` answer, and
  the group's unexecuted rest is served after the recovery;
* **graceful shutdown** — ``stop()`` (the SIGTERM path) stops
  admitting, drains the queues, forces every WAL, checkpoints, and
  closes; ``kill()`` models SIGKILL for harnesses: everything stops now
  and whatever the WALs did not force never happened.

What only a sharded system adds:

* **routing** — object verbs go to the owner shard
  (``router.shard_of``), an ``apply`` to its read/write footprint;
  answers and rejections carry the ``shard`` they came from, so clients
  back off one jammed shard only;
* **cross-shard rendezvous** — an ``apply`` whose footprint spans
  shards is enqueued to every participant under one daemon-wide lock
  (so cross jobs keep the same relative order in every queue and can
  never deadlock each other); the lowest participant coordinates while
  the others park, and
  :meth:`~repro.shard.ShardedSystem.execute_cross` runs the fence
  protocol, forcing every participant before the ack.  A cross request
  is never taken into a group: it is served alone;
* **chaos endpoints** — with ``allow_chaos`` the kinds ``kill_shard`` /
  ``revive_shard`` kill one shard's worker in place (the SIGKILL model)
  and revive it through supervised recovery;
* **aggregate health and metrics** — ``/healthz`` answers for the worst
  shard; the daemon keeps its own registry (``serve.*`` plus
  ``serve.shard.<k>.*``) while each kernel keeps its own (collector
  prefixes would collide on a shared one), and ``/metrics`` renders the
  merged view with ``shard<k>.`` prefixes.  A single kernel's registry
  is the daemon registry.

Replication (:mod:`repro.replica`) pairs one recovery domain with a
witness, so a replicated or witness daemon serves a single system.
"""

from __future__ import annotations

import contextlib
import itertools
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.replica.sender import ReplicationConfig

from repro.common.errors import (
    CorruptObjectError,
    DegradedModeError,
    ReproError,
    SimulatedCrash,
    TransientStorageError,
)
from repro.common.identifiers import StateId
from repro.core.operation import Operation, OpKind, delete_object
from repro.kernel.system import RecoverableSystem, SystemHealth
from repro.obs.flightrec import FlightRecorder
from repro.obs.http import ObsHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceContext
from repro.serve import protocol
from repro.serve.errors import FencedError, ServerUnavailableError
from repro.serve.watchdog import ServingWatchdog, WatchdogConfig
from repro.shard.group import CrossShardError, ShardedSystem
from repro.storage.backup import FuzzyBackup

#: Request kinds that mutate state (gated in DEGRADED health).
WRITE_KINDS = frozenset({"put", "delete", "apply"})

#: Failures inside the apply loop that discard volatile state and hand
#: the shard to its watchdog.
_SERVING_CRASHES = (SimulatedCrash, CorruptObjectError, TransientStorageError)

#: Health severity order for the aggregate health.
_HEALTH_RANK = {
    SystemHealth.HEALTHY: 0,
    SystemHealth.RECOVERING: 1,
    SystemHealth.DEGRADED: 2,
    SystemHealth.FAILED: 3,
}


@dataclass
class DaemonConfig:
    """Ports, budgets and shutdown policy for one daemon."""

    host: str = "127.0.0.1"
    #: TCP port for the request listener (0 = ephemeral).
    port: int = 0
    #: Port for the /metrics + /healthz HTTP endpoint (0 = ephemeral,
    #: None = no HTTP endpoint).
    http_port: Optional[int] = 0
    #: Bounded admission backlog per shard: arrivals past this get
    #: BACKPRESSURE.
    max_queue: int = 64
    #: Deadline budget applied to requests that carry none.
    default_deadline_ms: int = 5_000
    #: Ceiling on client-supplied deadlines.
    max_deadline_ms: int = 60_000
    #: Backoff hint returned with BACKPRESSURE / UNAVAILABLE answers.
    retry_after_ms: int = 50
    #: Graceful shutdown: how long to drain the queues before answering
    #: the stragglers SHUTTING_DOWN.
    drain_deadline_s: float = 10.0
    #: Write a checkpoint during graceful shutdown (HEALTHY shards only).
    checkpoint_on_shutdown: bool = True
    #: Watchdog/supervisor policy (ladder budgets, restart cap).
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    #: Flight-recorder persistence path (``flightrec.jsonl`` under the
    #: data dir when run via the CLI; None = in-memory ring only, still
    #: served by ``/debug/flightrec``).
    flightrec_path: Optional[str] = None
    #: Flight-recorder ring capacity (recent events kept).
    flightrec_capacity: int = 2048
    #: Accept ``kill_shard`` / ``revive_shard`` chaos requests on a
    #: sharded daemon.  Off by default: only harnesses and CI smoke jobs
    #: should ever enable it.
    allow_chaos: bool = False


class _CrossJob:
    """One cross-shard request's rendezvous state."""

    def __init__(
        self,
        request: Dict[str, Any],
        conn: "_Connection",
        deadline: float,
        participants: Tuple[int, ...],
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.request = request
        self.conn = conn
        self.deadline = deadline
        self.participants = participants
        self.trace = trace
        self.coordinator = participants[0]
        self._lock = threading.Lock()
        self._arrived: set = set()
        self.all_arrived = threading.Event()
        #: Set exactly once, after the coordinator answered (or the job
        #: was cancelled); parked participants resume on it.
        self.done = threading.Event()
        self.cancelled = False

    def arrive(self, shard: int) -> None:
        with self._lock:
            self._arrived.add(shard)
            if self._arrived >= set(self.participants):
                self.all_arrived.set()


@dataclass
class _Work:
    """One admitted request waiting in a shard's queue."""

    request: Dict[str, Any]
    conn: "_Connection"
    deadline: float
    enqueued: float
    #: Distributed-trace context minted by the client (None untraced).
    trace: Optional[TraceContext] = None
    #: The rendezvous this token belongs to (cross-shard requests only).
    cross: Optional[_CrossJob] = None


@dataclass
class _Ack:
    """An executed write waiting for its group's commit."""

    request_id: Any
    lsi: StateId
    #: Extra fields of the ok answer (an apply's computed writes).
    fields: Dict[str, Any]


#: What executing one request yields: its answer, or an ack to be sent
#: once its group commits.
_Reply = Union[Dict[str, Any], _Ack]


class _Connection:
    """A client socket plus the lock that serializes frame sends."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.alive = True

    def send(self, message: Dict[str, Any]) -> None:
        """Best-effort frame send; a gone peer just marks us dead."""
        with self.lock:
            if not self.alive:
                return
            try:
                protocol.send_frame(self.sock, message)
            except (OSError, protocol.ProtocolError):
                self.alive = False

    def close(self) -> None:
        with self.lock:
            self.alive = False
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass


class _ShardEventSink:
    """Tags one shard kernel's events with its index, then records them.

    Health transitions, watchdog restarts and fault-point events from
    all N recovery domains land in the daemon's one flight recorder
    with the shard attributed.
    """

    def __init__(self, recorder: FlightRecorder, index: int) -> None:
        self._recorder = recorder
        self._index = index

    def emit(self, kind: str, **details: Any) -> None:
        details.setdefault("shard", self._index)
        self._recorder.emit(kind, **details)


class _Shard:
    """One recovery domain's serving-side state."""

    def __init__(
        self,
        index: int,
        system: RecoverableSystem,
        watchdog: ServingWatchdog,
        max_queue: int,
        sharded: bool,
    ) -> None:
        self.index = index
        self.system = system
        self.watchdog = watchdog
        self.queue: "queue.Queue[_Work]" = queue.Queue(
            maxsize=max(1, max_queue)
        )
        self.thread: Optional[threading.Thread] = None
        self.stop = threading.Event()
        self.idle = threading.Event()
        self.idle.set()
        #: True between kill_shard and revive_shard: the worker is dead
        #: and the shard's volatile state is gone.
        self.killed = False
        #: Wire field and span tag naming the shard (empty when the
        #: daemon serves a single, unsharded system).
        self.label: Dict[str, int] = {"shard": index} if sharded else {}
        #: Message prefix naming the shard.
        self.where = f"shard {index}: " if sharded else ""

    def series(self, name: str) -> Optional[str]:
        """This shard's ``serve.shard.<k>.<name>`` (None unsharded)."""
        return f"serve.shard.{self.index}.{name}" if self.label else None


class ServeDaemon:
    """A long-running, supervised serving loop over 1..N domains."""

    #: What this daemon serves as; a witness starts as ``"witness"``.
    role = "primary"

    def __init__(
        self,
        system: Union[RecoverableSystem, ShardedSystem],
        config: Optional[DaemonConfig] = None,
        backup: Union[
            FuzzyBackup, Sequence[Optional[FuzzyBackup]], None
        ] = None,
        replication: Optional["ReplicationConfig"] = None,
    ) -> None:
        """Serve ``system``: one kernel, or a ShardedSystem of N.

        ``backup`` is the media-recovery backup for a single system, or
        a sequence with one (optional) entry per shard.
        """
        #: The sharded system being served (None for a single system).
        self.sharded = system if isinstance(system, ShardedSystem) else None
        if self.sharded is not None and (
            replication is not None or self.role != "primary"
        ):
            raise ValueError(
                "replication serves one recovery domain per daemon; a "
                "replicated or witness daemon cannot serve a sharded "
                "system (--replicate/--witness-of with --shards > 1)"
            )
        self.config = config if config is not None else DaemonConfig()
        if self.sharded is None:
            #: The one kernel (None when sharded: see ``sharded``).
            self.system: Optional[RecoverableSystem] = system
            if not system.obs.enabled:
                system.attach_metrics(MetricsRegistry())
            #: Daemon registry: a single kernel's own; with N kernels
            #: the daemon's, and each kernel keeps its own.
            self.obs = system.obs
            systems = [system]
        else:
            self.system = None
            self.obs = MetricsRegistry()
            systems = self.sharded.systems
        #: Crash flight recorder: taps the registries' event streams
        #: (health transitions, watchdog restarts, epoch changes) into a
        #: bounded ring persisted at ``flightrec_path``.
        self.flightrec = FlightRecorder(
            self.config.flightrec_path,
            capacity=self.config.flightrec_capacity,
        )
        self.obs.subscribe(self.flightrec)
        backups = (
            list(backup) if isinstance(backup, (list, tuple)) else [backup]
        )
        self._shards: List[_Shard] = []
        for index, shard_system in enumerate(systems):
            if self.sharded is not None:
                if not shard_system.obs.enabled:
                    shard_system.attach_metrics(MetricsRegistry())
                shard_system.obs.subscribe(
                    _ShardEventSink(self.flightrec, index)
                )
            watchdog = ServingWatchdog(
                shard_system,
                backup=backups[index] if index < len(backups) else None,
                config=self.config.watchdog,
            )
            self._shards.append(_Shard(
                index, shard_system, watchdog, self.config.max_queue,
                self.sharded is not None,
            ))
        #: The one kernel's watchdog (None when sharded).
        self.watchdog = (
            self._shards[0].watchdog if self.sharded is None else None
        )
        #: Primary-side replication (None = standalone).  With a sender
        #: attached, every write's ack additionally waits for the
        #: witness's durable receipt — see :mod:`repro.replica.sender`.
        self.replication = None
        if replication is not None:
            from repro.replica.sender import ReplicationSender

            self.replication = ReplicationSender(self, replication)
        self._listener: Optional[socket.socket] = None
        self._http: Optional[ObsHTTPServer] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._readers: List[threading.Thread] = []
        self._conns: List[_Connection] = []
        self._conns_lock = threading.Lock()
        #: Serializes cross-job enqueues: tokens of different cross jobs
        #: appear in the same relative order in every participant queue,
        #: which is the no-deadlock argument for the rendezvous.
        self._cross_lock = threading.Lock()
        #: Serializes chaos operations (kill/revive) with each other.
        self._control_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopping = threading.Event()
        self._started = False
        self._op_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of recovery domains served."""
        return len(self._shards)

    @property
    def _queue(self) -> "queue.Queue[_Work]":
        """The first shard's admission queue (a single system's only)."""
        return self._shards[0].queue

    @property
    def port(self) -> Optional[int]:
        """Bound request port once started."""
        if self._listener is None:
            return None
        return self._listener.getsockname()[1]

    @property
    def http_port(self) -> Optional[int]:
        """Bound scrape port once started (None when disabled)."""
        return self._http.port if self._http is not None else None

    def restarts(self) -> int:
        """Watchdog restarts summed over the shards."""
        return sum(shard.watchdog.restarts for shard in self._shards)

    def aggregate_health(self) -> SystemHealth:
        """The worst health across shards (the conservative headline)."""
        return max(
            (shard.system.health for shard in self._shards),
            key=_HEALTH_RANK.__getitem__,
        )

    def start(self) -> "ServeDaemon":
        """Supervised startup, then open the listener and HTTP endpoint.

        Recovery runs **before** the first connection can be accepted:
        a client that manages to connect has, by definition, a server
        whose escalation ladders already landed somewhere terminal.
        Startup recovery is per shard and sequential; a shard that lands
        DEGRADED or FAILED does not block the others.
        """
        if self._started:
            raise RuntimeError("daemon already started")
        self._started = True
        self.flightrec.record(
            "daemon.start",
            {"role": self.role, "shards": len(self._shards),
             "health": self.aggregate_health().value},
        )
        for shard in self._shards:
            shard.watchdog.supervised_startup()
        if self.config.http_port is not None:
            self._http = ObsHTTPServer(
                self._snapshot,
                self._health_payload,
                host=self.config.host,
                port=self.config.http_port,
                ready_provider=self._ready_payload,
                flightrec_provider=lambda: self.flightrec,
            )
            self._http.start()
        listener = socket.create_server(
            (self.config.host, self.config.port), backlog=32
        )
        listener.settimeout(0.1)
        self._listener = listener
        self.flightrec.record(
            "daemon.serving",
            {
                "role": self.role,
                "health": self.aggregate_health().value,
                "port": listener.getsockname()[1],
            },
        )
        for shard in self._shards:
            self._start_worker(shard)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _start_worker(self, shard: _Shard) -> None:
        shard.stop = threading.Event()
        shard.thread = threading.Thread(
            target=self._apply_loop,
            args=(shard,),
            name=(f"repro-shard-apply-{shard.index}" if shard.label
                  else "repro-serve-apply"),
            daemon=True,
        )
        shard.thread.start()

    def stop(self, graceful: bool = True) -> int:
        """Shut down; the SIGTERM path when ``graceful``.

        Graceful order: stop admitting → drain the backlogs (bounded by
        ``drain_deadline_s``; stragglers get SHUTTING_DOWN) → force each
        WAL → checkpoint (HEALTHY shards only) → close.  Returns the
        process exit status (0 on a clean drain).
        """
        if not self._started:
            return 0
        self._draining.set()
        if graceful:
            deadline = time.monotonic() + self.config.drain_deadline_s
            while time.monotonic() < deadline:
                if all(
                    shard.queue.empty() and shard.idle.is_set()
                    for shard in self._shards
                    if not shard.killed
                ):
                    break
                time.sleep(0.01)
        # Apply and accept loops poll their stop flags; join them before
        # touching the kernels so the final forces race nothing.
        self._halt_workers()
        for shard in self._shards:
            self._flush_queue(
                shard, "SHUTTING_DOWN", "server is shutting down"
            )
        status = 0
        for shard in self._shards:
            if not graceful or shard.killed or shard.system._crashed:
                continue
            try:
                shard.system.log.force()
                if (
                    self.config.checkpoint_on_shutdown
                    and shard.system.health is SystemHealth.HEALTHY
                ):
                    shard.system.checkpoint(truncate=True)
                if self.replication is not None:
                    # Nudge the witness to materialize what it holds;
                    # its receipt is not waited for (we are exiting).
                    self.replication.ship_checkpoint_hint()
            except (ReproError, SimulatedCrash):
                # A device that dies during the final force leaves a
                # cleanly recoverable WAL tail (the torn-tail repair
                # path); the next startup's supervised recovery owns it.
                status = 1
        if self.sharded is not None:
            self.sharded.close()
        # Closing the sockets unblocks reader threads parked in recv.
        self._close_everything()
        for thread in list(self._readers):
            thread.join(timeout=5.0)
        self.flightrec.record(
            "daemon.stop",
            {"graceful": graceful, "status": status,
             "health": self.aggregate_health().value},
        )
        self.flightrec.close("sigterm" if graceful else "stop")
        return status

    def kill(self) -> None:
        """Abrupt stop (the SIGKILL model for in-process harnesses).

        No drain, no force, no checkpoint: connections die mid-frame
        and whatever sat in the volatile log buffers is lost.  The
        harness completes the simulation by crashing the systems before
        handing the storage to a restarted daemon.
        """
        if not self._started:
            return
        self._draining.set()
        self._stopping.set()
        self._close_everything()
        self._halt_workers()
        for thread in list(self._readers):
            thread.join(timeout=5.0)
        for shard in self._shards:
            self._flush_queue(shard, None, None)

    def _halt_workers(self) -> None:
        self._stopping.set()
        for shard in self._shards:
            shard.stop.set()
        for thread in [s.thread for s in self._shards] + [self._accept_thread]:
            if thread is not None:
                thread.join(timeout=5.0)

    def _close_everything(self) -> None:
        if self.replication is not None:
            self.replication.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()
        if self._http is not None:
            self._http.stop()
            self._http = None

    def _flush_queue(
        self, shard: _Shard, code: Optional[str], message: Optional[str]
    ) -> None:
        """Answer (or drop, when ``code`` is None) any leftover work."""
        while True:
            try:
                work = shard.queue.get_nowait()
            except queue.Empty:
                return
            if work.cross is not None:
                work.cross.cancelled = True
                work.cross.done.set()
            if code is not None:
                work.conn.send(self._error(
                    work.request.get("id"), code, message or "", shard=shard
                ))

    # ------------------------------------------------------------------
    # chaos: kill and revive one shard
    # ------------------------------------------------------------------
    def kill_shard(self, index: int) -> None:
        """Kill shard ``index``'s worker in place (SIGKILL model).

        The worker thread is stopped and joined, the shard's volatile
        state (cache + unforced WAL buffer) is discarded, and its
        queued requests are answered ``UNAVAILABLE``.  Every other
        shard keeps serving; cross-shard requests naming the victim
        time out at the rendezvous and answer ``UNAVAILABLE`` too.
        """
        with self._control_lock:
            shard = self._shards[index]
            if shard.killed:
                return
            shard.killed = True
            shard.stop.set()
            if shard.thread is not None:
                shard.thread.join(timeout=10.0)
            if not shard.system._crashed:
                shard.system.crash()
            self.obs.count(f"serve.shard.{index}.kills")
            self.obs.emit("shard.kill", shard=index)
            self._flush_queue(
                shard, "UNAVAILABLE", f"shard {index} worker was killed"
            )

    def revive_shard(self, index: int) -> None:
        """Recover a killed shard and put a fresh worker on it."""
        with self._control_lock:
            shard = self._shards[index]
            if not shard.killed:
                raise ValueError(f"shard {index} is not killed")
            shard.watchdog.supervised_startup()
            self._start_worker(shard)
            shard.killed = False
            self.obs.count(f"serve.shard.{index}.revives")
            self.obs.emit(
                "shard.revive", shard=index, health=shard.system.health.value
            )

    def _handle_chaos(self, conn: _Connection, request: Dict[str, Any],
                      reject) -> None:
        if not self.config.allow_chaos:
            reject(
                "BAD_REQUEST",
                "chaos endpoints are disabled (start with allow_chaos)",
            )
            return
        raw = request.get("shard")
        if not isinstance(raw, int) or not 0 <= raw < len(self._shards):
            reject("BAD_REQUEST", f"bad shard index {raw!r}")
            return
        try:
            if request.get("kind") == "kill_shard":
                self.kill_shard(raw)
            else:
                self.revive_shard(raw)
        except ValueError as exc:
            reject("BAD_REQUEST", str(exc), shard=self._shards[raw])
            return
        conn.send(protocol.ok_response(
            request.get("id"),
            self.aggregate_health().value,
            shard=raw,
            killed=self._shards[raw].killed,
        ))

    # ------------------------------------------------------------------
    # accept + read side
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn = _Connection(sock)
            with self._conns_lock:
                self._conns.append(conn)
            thread = threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            )
            thread.start()
            self._readers.append(thread)

    def _reader_loop(self, conn: _Connection) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    request = protocol.recv_frame(conn.sock)
                except (protocol.ProtocolError, OSError):
                    break
                if request is None:
                    break
                self._admit(conn, request)
        finally:
            if self.replication is not None:
                self.replication.detach(conn)
            conn.close()

    def _admit(self, conn: _Connection, request: Dict[str, Any]) -> None:
        """The admission gate: validate, route, health-gate, enqueue."""
        obs = self.obs
        request_id = request.get("id")
        kind = request.get("kind")
        obs.count("serve.requests")

        def reject(
            code: str,
            message: str,
            retry_after_ms: Optional[int] = None,
            shard: Optional[_Shard] = None,
        ) -> None:
            obs.count(f"serve.rejected.{code.lower()}")
            conn.send(self._error(
                request_id, code, message, retry_after_ms, shard
            ))

        if kind in protocol.REPLICATION_KINDS:
            # Replication frames route around the admission queue: the
            # subscribe/ack stream must flow while the backlog is
            # jammed, and the sender owns its own locking.
            if self.replication is None:
                reject(
                    "BAD_REQUEST",
                    "replication is not enabled on this server",
                )
                return
            self.replication.handle_frame(conn, request)
            return
        if kind in protocol.CHAOS_KINDS and self.sharded is not None:
            self._handle_chaos(conn, request, reject)
            return
        if kind not in protocol.REQUEST_KINDS:
            reject("BAD_REQUEST", f"unknown request kind {kind!r}")
            return
        # Liveness requests bypass the queue: they touch only
        # attributes and the registry snapshots, never a kernel, and
        # must answer even when the backlog is jammed.
        if kind in ("ping", "health", "stats"):
            conn.send(self._inline_answer(kind, request_id))
            return
        if self._draining.is_set():
            reject(
                "SHUTTING_DOWN",
                "server is draining for shutdown",
                self.config.retry_after_ms,
            )
            return
        try:
            targets = self._route(request, kind)
        except protocol.ProtocolError as exc:
            reject("BAD_REQUEST", str(exc))
            return
        for index in targets:
            refused = self._gate(self._shards[index], kind)
            if refused is not None:
                reject(*refused, shard=self._shards[index])
                return
        # HEALTHY admits; RECOVERING queues against the bounded backlog.
        now = time.monotonic()
        budget_ms = request.get("deadline_ms")
        if budget_ms is None:
            budget_ms = self.config.default_deadline_ms
        try:
            budget_ms = min(int(budget_ms), self.config.max_deadline_ms)
        except (TypeError, ValueError):
            reject("BAD_REQUEST", f"bad deadline_ms: {budget_ms!r}")
            return
        deadline = now + budget_ms / 1000.0
        trace = protocol.request_trace(request)
        job = None
        if len(targets) > 1:
            job = _CrossJob(request, conn, deadline, targets, trace)
        # One rendezvous token per participant, enqueued atomically: a
        # full participant queue cancels the whole job (tokens already
        # enqueued become no-ops).
        with (self._cross_lock if job else contextlib.nullcontext()):
            for index in targets:
                shard = self._shards[index]
                try:
                    shard.queue.put_nowait(
                        _Work(request, conn, deadline, now, trace, job)
                    )
                except queue.Full:
                    if job is not None:
                        job.cancelled = True
                        job.done.set()
                    reject(
                        "BACKPRESSURE",
                        f"{shard.where}admission queue full "
                        f"({self.config.max_queue} waiting)",
                        self.config.retry_after_ms,
                        shard=shard,
                    )
                    return
        if job is not None:
            obs.count("serve.cross_shard_requests")
        else:
            self._gauge_queue(self._shards[targets[0]])

    def _route(self, request: Dict[str, Any], kind: str) -> Tuple[int, ...]:
        """The shards a request needs: the owner, or an apply's footprint."""
        if self.sharded is None:
            return (0,)
        router = self.sharded.router
        if kind in ("get", "put", "delete"):
            return (router.shard_of(self._require_obj(request)),)
        writes = request.get("writes") or []
        if not writes:
            raise protocol.ProtocolError("apply requires a writeset")
        reads = request.get("reads") or []
        return tuple(sorted(router.shards_of([*reads, *writes])))

    def _gate(
        self, shard: _Shard, kind: Optional[str]
    ) -> Optional[Tuple[str, str, Optional[int]]]:
        """Why ``shard`` refuses a ``kind`` request now (None admits):
        the rejection's code, message and retry hint."""
        health = shard.system.health
        if shard.killed:
            return (
                "UNAVAILABLE",
                f"shard {shard.index} worker is down",
                self.config.retry_after_ms,
            )
        if health is SystemHealth.FAILED:
            return (
                "FAILED",
                f"{shard.where}recovery did not converge; the system is "
                "failed",
                None,
            )
        if health is SystemHealth.DEGRADED and kind in WRITE_KINDS:
            return (
                "DEGRADED",
                f"{shard.where}system is in degraded read-only mode (lost "
                f"objects: {sorted(map(str, shard.system.lost_objects))})",
                None,
            )
        return None

    def _inline_answer(self, kind: str, request_id: Any) -> Dict[str, Any]:
        health = self.aggregate_health().value
        if kind == "ping":
            from repro import __version__

            fields: Dict[str, Any] = {"version": __version__}
            if self.sharded is not None:
                fields["shards"] = len(self._shards)
            return protocol.ok_response(request_id, health, **fields)
        if kind == "health":
            fields = {"draining": self._draining.is_set()}
            if self.sharded is None:
                fields.update(
                    lost_objects=sorted(map(str, self.system.lost_objects)),
                    queue_depth=self._queue.qsize(),
                    restarts=self.watchdog.restarts,
                )
            else:
                fields["shards"] = {
                    str(shard.index): {
                        "health": shard.system.health.value,
                        "killed": shard.killed,
                        "queue_depth": shard.queue.qsize(),
                        "restarts": shard.watchdog.restarts,
                        "lost_objects": sorted(
                            map(str, shard.system.lost_objects)
                        ),
                    }
                    for shard in self._shards
                }
            return protocol.ok_response(request_id, health, **fields)
        # stats: the counter/gauge ledger, JSON-safe by construction.
        snapshot = self._snapshot()
        return protocol.ok_response(
            request_id,
            health,
            stats={
                "counters": snapshot.get("counters", {}),
                "gauges": snapshot.get("gauges", {}),
            },
        )

    # ------------------------------------------------------------------
    # apply side: one loop per shard, the only thread on its kernel
    # ------------------------------------------------------------------
    def _apply_loop(self, shard: _Shard) -> None:
        while True:
            try:
                work: Optional[_Work] = shard.queue.get(timeout=0.05)
            except queue.Empty:
                if shard.stop.is_set():
                    return
                continue
            shard.idle.clear()
            try:
                while work is not None:
                    if work.cross is not None:
                        self._participate(shard, work.cross)
                        break
                    group, work = self._take_group(shard, work)
                    while group:
                        group = self._serve_group(shard, group)
            finally:
                shard.idle.set()
                self._gauge_queue(shard)

    def _gauge_queue(self, shard: _Shard) -> None:
        self.obs.gauge(
            shard.series("queue_depth") or "serve.queue_depth",
            shard.queue.qsize(),
        )

    def _take_group(
        self, shard: _Shard, first: _Work
    ) -> Tuple[List[_Work], Optional[_Work]]:
        """``first`` plus every write already queued behind it.

        A write opens a group and takes the writes waiting in the queue;
        an empty queue, a non-write or a cross-shard token closes it,
        and that closing request is returned to be served after the
        group's acks.  A non-write is a group of its own.  There is no
        interval or size limit: the group is whatever is already queued.
        """
        group = [first]
        if first.request.get("kind") not in WRITE_KINDS:
            return group, None
        while True:
            try:
                work = shard.queue.get_nowait()
            except queue.Empty:
                return group, None
            if work.cross is not None or (
                work.request.get("kind") not in WRITE_KINDS
            ):
                return group, work
            group.append(work)

    def _serve_group(self, shard: _Shard, group: List[_Work]) -> List[_Work]:
        """Execute ``group`` in queue order, commit its writes, answer.

        The members execute one after another; the writes among them
        then share one WAL force and one replication round trip
        (:meth:`_commit`), and only after that is every member answered,
        in queue order.  So no ack precedes its record's force (and
        witness receipt), and each connection's answers keep its request
        order.  A failed commit, or a serving crash while executing,
        answers every executed write with that error and acks none; a
        write whose own deadline passed before the witness's receipt
        arrived is refused ``UNAVAILABLE`` as it would be alone.

        Returns the members a serving crash left unexecuted; the caller
        serves them as the next group, after the watchdog's recovery.
        """
        replies: List[Tuple[_Work, _Reply, float]] = []
        failure: Optional[BaseException] = None
        failure_trace: Optional[TraceContext] = None
        rest: List[_Work] = []
        for index, work in enumerate(group):
            started = time.monotonic()
            try:
                reply = self._execute(shard, work, started)
            except _SERVING_CRASHES as exc:
                failure, failure_trace = exc, work.trace
                reply = self._refusal(exc, work.request.get("id"), shard)
                rest = group[index + 1:]
            replies.append((work, reply, started))
            if failure is not None:
                break
        writes = [(work, reply) for work, reply, _ in replies
                  if isinstance(reply, _Ack)]
        received: Optional[float] = None
        if writes and failure is None:
            try:
                received = self._commit(shard, writes)
            except Exception as exc:  # noqa: BLE001 - answered below
                failure = exc
                failure_trace = next(
                    (work.trace for work, _ in writes if work.trace), None
                )
        for work, reply, started in replies:
            if isinstance(reply, _Ack):
                if failure is not None:
                    reply = self._refusal(failure, reply.request_id, shard)
                elif received is not None and received > work.deadline:
                    reply = self._late_receipt(shard, reply)
                else:
                    reply = self._acknowledge(shard, reply)
            self.obs.observe(
                "serve.request_seconds", time.monotonic() - started
            )
            work.conn.send(reply)
        if isinstance(failure, _SERVING_CRASHES):
            # Every member is answered (retryable) before the ladder
            # runs, so no client waits out the whole recovery.
            crashes = shard.series("crashes")
            if crashes is not None:
                self.obs.count(crashes)
            shard.watchdog.handle_serving_crash(failure, trace=failure_trace)
        return rest

    def _execute(self, shard: _Shard, work: _Work, now: float) -> _Reply:
        """Gate and run one member: its answer, or an :class:`_Ack`.

        A serving crash propagates to :meth:`_serve_group`; any other
        error becomes this member's answer.
        """
        request = work.request
        request_id = request.get("id")
        if now > work.deadline:
            self.obs.count("serve.rejected.deadline")
            return self._error(
                request_id,
                "DEADLINE",
                f"deadline expired after {now - work.enqueued:.3f}s in queue",
                shard=shard,
            )
        # Health may have moved while the request sat in the backlog
        # (a watchdog restart ran): re-gate before touching the kernel.
        refused = self._gate(shard, request.get("kind"))
        if refused is not None:
            return self._error(request_id, *refused, shard=shard)
        self.obs.record_span(
            "ack.queue_ms", now - work.enqueued, kind=request.get("kind"),
            **shard.label, **(work.trace.child().tags() if work.trace else {})
        )
        try:
            return self._dispatch(shard, request, request_id, work.trace)
        except _SERVING_CRASHES:
            raise
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            return self._refusal(exc, request_id, shard)

    def _error(
        self,
        request_id: Any,
        code: str,
        message: str,
        retry_after_ms: Optional[int] = None,
        shard: Optional[_Shard] = None,
        health: Optional[SystemHealth] = None,
    ) -> Dict[str, Any]:
        """A rejection labeled with ``shard`` (daemon-wide when None)."""
        if health is None:
            health = (shard.system.health if shard is not None
                      else self.aggregate_health())
        return protocol.error_response(
            request_id, code, message, health.value, retry_after_ms,
            **(shard.label if shard is not None else {}),
        )

    def _refusal(
        self, exc: BaseException, request_id: Any,
        shard: Optional[_Shard] = None,
    ) -> Dict[str, Any]:
        """The answer to a request that ``exc`` stopped: never an ack.

        ``shard`` is None for a cross-shard request, whose answer
        carries the aggregate health and no shard label.
        """
        def refuse(code, message, retry_after_ms=None, health=None):
            return self._error(
                request_id, code, message, retry_after_ms, shard, health
            )

        if isinstance(exc, FencedError):
            return refuse("FENCED", str(exc))
        if isinstance(exc, (ServerUnavailableError, CrossShardError)):
            # Replication could not confirm the witness's durable
            # receipt, or a cross-shard participant is not HEALTHY: the
            # write was NOT acked, so at-least-once retries are safe.
            return refuse(
                "UNAVAILABLE",
                str(exc),
                getattr(exc, "retry_after_ms", None)
                or self.config.retry_after_ms,
            )
        if isinstance(exc, DegradedModeError):
            return refuse("DEGRADED", str(exc))
        if isinstance(exc, _SERVING_CRASHES):
            # Mid-serve crash: the request's durability is whatever the
            # WAL made of it (never acked here), and the watchdog owns
            # getting the system back.
            where = shard.where if shard is not None else "cross-shard "
            return refuse(
                "UNAVAILABLE",
                f"{where}serving crash ({type(exc).__name__}: {exc}); "
                "recovery in progress",
                self.config.retry_after_ms,
                SystemHealth.RECOVERING,
            )
        code = "BAD_REQUEST" if isinstance(exc, ReproError) else "INTERNAL"
        return refuse(code, f"{type(exc).__name__}: {exc}")

    def _dispatch(
        self,
        shard: _Shard,
        request: Dict[str, Any],
        request_id: Any,
        trace: Optional[TraceContext],
    ) -> _Reply:
        kind = request["kind"]
        system = shard.system
        if kind == "get":
            obj = self._require_obj(request)
            value = system.read(obj)
            return protocol.ok_response(
                request_id,
                system.health.value,
                value=protocol.encode_value(value),
                vsi=system.cache.vsi_of(obj),
                **shard.label,
            )
        if kind == "put":
            obj = self._require_obj(request)
            op = Operation(
                f"serve.put({obj})#{next(self._op_ids)}",
                OpKind.PHYSICAL,
                reads=frozenset(),
                writes=frozenset({obj}),
                payload={obj: protocol.decode_value(request.get("value"))},
            )
            return self._execute_write(shard, op, request_id, trace)
        if kind == "delete":
            op = delete_object(self._require_obj(request))
            return self._execute_write(shard, op, request_id, trace)
        if kind == "apply":
            return self._execute_write(
                shard, self._apply_operation(request), request_id, trace,
                include_writes=True,
            )
        if kind == "promote":
            raise protocol.ProtocolError(
                "this server is not a witness; there is nothing to promote"
            )
        raise protocol.ProtocolError(f"unhandled request kind {kind!r}")

    def _apply_operation(self, request: Dict[str, Any]) -> Operation:
        """The logical operation an ``apply`` request names."""
        fn = request.get("fn")
        writes = request.get("writes") or []
        if not isinstance(fn, str) or not fn:
            raise protocol.ProtocolError("apply requires a function name")
        if not writes:
            raise protocol.ProtocolError("apply requires a writeset")
        params = [
            protocol.decode_value(param)
            for param in (request.get("params") or [])
        ]
        return Operation(
            request.get("name") or f"serve.apply({fn})#{next(self._op_ids)}",
            OpKind.LOGICAL,
            reads=frozenset(request.get("reads") or []),
            writes=frozenset(writes),
            fn=fn,
            params=tuple(params),
        )

    def _execute_write(
        self,
        shard: _Shard,
        op: Operation,
        request_id: Any,
        trace: Optional[TraceContext],
        include_writes: bool = False,
    ) -> _Ack:
        """Execute a write; its ack waits for the group's :meth:`_commit`."""
        if self.replication is not None and self.replication.fenced:
            raise FencedError(
                f"primary epoch {self.replication.epoch} is fenced; a "
                "promoted witness is serving"
            )
        # The ack pipeline, one ``ack.*_ms`` stage span per phase, each a
        # direct child of the client's root span: apply here, the shared
        # force and replication wait in _commit.
        with self.obs.span("ack.apply_ms", **shard.label,
                           **(trace.child().tags() if trace else {})):
            writes = shard.system.execute(op)
        fields: Dict[str, Any] = {}
        if include_writes:
            fields["writes"] = {
                str(obj): protocol.encode_value(value)
                for obj, value in writes.items()
            }
        return _Ack(request_id, op.lsi, fields)

    def _commit(
        self, shard: _Shard, writes: List[Tuple[_Work, _Ack]]
    ) -> Optional[float]:
        """Make a group's writes durable: one force, one receipt.

        The force is the acknowledgment contract: forcing the shard's
        log prefix through the group's highest lSI puts every member's
        record on the stable log, so no crash — SIGKILL included — can
        take an ack back.  With replication enabled the contract widens:
        the acks additionally wait for the witness's durable watermark
        to cover that lSI (semi-synchronous shipping, one batch for the
        group), bounded by the latest member deadline, so an acked write
        survives the loss of either machine.  Returns when the witness's
        receipt arrived (None without replication): a member whose own
        deadline had passed by then is refused, not acked.  Raises when
        either step fails; the caller then acks no member.

        Every member's trace gets the shared ``ack.force_ms`` and
        ``ack.repl_wait_ms`` spans; the first traced member leads, and
        its wait context rides the shipped batch, so the ship and the
        witness's adopt and ack spans nest under it.
        """
        lsi = max(ack.lsi for _, ack in writes)
        traces = [work.trace for work, _ in writes]
        self._stage("ack.force_ms", traces, shard.label,
                    lambda lead: shard.system.log.force_through(lsi))
        if self.replication is None:
            return None
        deadline = max(work.deadline for work, _ in writes)
        self._stage("ack.repl_wait_ms", traces, {},
                    lambda lead: self.replication.replicate(
                        lsi, deadline, trace=lead))
        return time.monotonic()

    def _stage(
        self,
        name: str,
        traces: List[Optional[TraceContext]],
        tags: Dict[str, Any],
        run: Callable[[Optional[TraceContext]], Any],
    ) -> None:
        """Run one group stage, timed as a span in every member's trace.

        ``run`` gets the span context of the first traced member (None
        when no member is traced).  Untraced members still get a span
        carrying only ``tags``, so the stage histogram counts one
        observation per write.
        """
        contexts = [trace.child() if trace else None for trace in traces]
        ts, start = time.time(), time.perf_counter()
        error: Optional[str] = None
        try:
            run(next((ctx for ctx in contexts if ctx is not None), None))
        except BaseException as exc:
            error = repr(exc)
            raise
        finally:
            seconds = time.perf_counter() - start
            for ctx in contexts:
                span_tags = dict(tags, **(ctx.tags() if ctx else {}))
                if error is not None:
                    span_tags.update(outcome="error", error=error)
                self.obs.record_span(name, seconds, ts=ts, **span_tags)

    def _late_receipt(self, shard: _Shard, ack: _Ack) -> Dict[str, Any]:
        """The answer to a write whose deadline ran out before the
        witness's receipt: the same refusal a lone write would get."""
        return self._refusal(
            ServerUnavailableError(
                "write executed but not acknowledged: witness receipt for "
                f"lSI {ack.lsi} did not arrive in time",
                retry_after_ms=self.replication.config.retry_after_ms,
            ),
            ack.request_id,
            shard,
        )

    def _acknowledge(self, shard: _Shard, ack: _Ack) -> Dict[str, Any]:
        """The ok answer for a write whose group committed."""
        self.obs.count("serve.acked_writes")
        acked = shard.series("acked_writes")
        if acked is not None:
            self.obs.count(acked)
        fields: Dict[str, Any] = {"lsi": ack.lsi, **shard.label}
        epoch = self.current_epoch()
        if epoch is not None:
            fields["epoch"] = epoch
        fields.update(ack.fields)
        return protocol.ok_response(
            ack.request_id, shard.system.health.value, **fields
        )

    def current_epoch(self) -> Optional[int]:
        """This server's replication epoch (None when standalone)."""
        if self.replication is not None:
            return self.replication.epoch
        return None

    @staticmethod
    def _require_obj(request: Dict[str, Any]) -> str:
        obj = request.get("obj")
        if not isinstance(obj, str) or not obj:
            raise protocol.ProtocolError("request requires an 'obj' string")
        return obj

    # ------------------------------------------------------------------
    # cross-shard rendezvous
    # ------------------------------------------------------------------
    def _participate(self, shard: _Shard, job: _CrossJob) -> None:
        if job.cancelled:
            return
        job.arrive(shard.index)
        if shard.index != job.coordinator:
            # Park: the coordinator borrows this shard's kernel turn.
            # done is set in the coordinator's finally (or at cancel),
            # so the park cannot outlive the job; stop breaks the park
            # when this worker is being killed.
            while not job.done.wait(0.05):
                if shard.stop.is_set():
                    return
            return
        self._coordinate(shard, job)

    def _coordinate(self, shard: _Shard, job: _CrossJob) -> None:
        obs = self.obs
        request_id = job.request.get("id")
        start = time.monotonic()

        def tags() -> Dict[str, Any]:
            return job.trace.child().tags() if job.trace else {}

        try:
            while not job.all_arrived.wait(0.05):
                if shard.stop.is_set():
                    return
                if time.monotonic() > job.deadline:
                    obs.count("serve.rejected.cross_rendezvous")
                    job.conn.send(self._refusal(ServerUnavailableError(
                        "cross-shard rendezvous timed out on shards "
                        f"{list(job.participants)} (a participant is down "
                        "or jammed)"
                    ), request_id))
                    return
            # All participants parked: this thread owns every kernel.
            # Rendezvous latency (time for every participant queue to
            # reach this job) is the sharding tax on the write.
            obs.record_span(
                "ack.rendezvous_ms", time.monotonic() - start,
                shards=len(job.participants), **tags(),
            )
            try:
                op = self._apply_operation(job.request)
                with obs.span("ack.apply_ms", cross=True,
                              shards=len(job.participants), **tags()):
                    writes = self.sharded.execute_cross(
                        op, set(job.participants)
                    )
            except Exception as exc:  # noqa: BLE001 - answered here
                job.conn.send(self._refusal(exc, request_id))
                if isinstance(exc, _SERVING_CRASHES):
                    # A device died mid-protocol.  Nothing was acked;
                    # each participant recovers independently and any
                    # partial fence is, by construction, unacked.
                    obs.count("serve.cross_shard_crashes")
                    for index in job.participants:
                        if not self._shards[index].killed:
                            self._shards[index].watchdog.handle_serving_crash(
                                exc, trace=job.trace
                            )
                return
            obs.count("serve.acked_writes")
            obs.count("serve.cross_shard_acked")
            for index in job.participants:
                obs.count(f"serve.shard.{index}.acked_writes")
            obs.observe("serve.cross_shard_seconds", time.monotonic() - start)
            job.conn.send(protocol.ok_response(
                request_id,
                self.aggregate_health().value,
                shards=list(job.participants),
                cross=True,
                writes={
                    str(obj): protocol.encode_value(value)
                    for obj, value in writes.items()
                },
            ))
        finally:
            job.done.set()

    # ------------------------------------------------------------------
    # HTTP endpoint providers
    # ------------------------------------------------------------------
    def _snapshot(self) -> Dict[str, Any]:
        """The daemon registry plus, when sharded, every shard kernel's
        registry under its ``shard<k>.`` prefix."""
        merged = self.obs.snapshot()
        if self.sharded is None:
            return merged
        for shard in self._shards:
            snap = shard.system.obs.snapshot()
            prefix = f"shard{shard.index}."
            for section in ("counters", "gauges", "histograms", "info"):
                base = merged.setdefault(section, {})
                for name, value in snap.get(section, {}).items():
                    base[prefix + name] = value
        return merged

    def _health_payload(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness: 200 while the process can make progress.

        RECOVERING and DEGRADED are *live* states (the watchdog or an
        operator is working the problem; restarting the process would
        only repeat the ladder) — only a FAILED shard, which explicitly
        needs an operator, answers 503.  Load balancers and rolling
        deploys should poll readiness (``/healthz?ready=1``) instead,
        which additionally requires every shard HEALTHY and alive,
        not-draining, and a caught-up replication pair.
        """
        payload: Dict[str, Any] = {
            "health": self.aggregate_health().value,
            "role": self.role,
            "restarts": self.restarts(),
            "draining": self._draining.is_set(),
        }
        if self.sharded is None:
            payload.update(
                lost_objects=sorted(map(str, self.system.lost_objects)),
                queue_depth=self._queue.qsize(),
            )
        else:
            payload.update(
                shards={str(shard.index): shard.system.health.value
                        for shard in self._shards},
                killed=[shard.index for shard in self._shards
                        if shard.killed],
            )
        if self.replication is not None:
            payload.update(self.replication.status())
        failed = any(shard.system.health is SystemHealth.FAILED
                     for shard in self._shards)
        return (503 if failed else 200), payload

    def _ready_payload(self) -> Tuple[int, Dict[str, Any]]:
        """Readiness: 200 only when this server should receive traffic.

        Requires every shard HEALTHY (not RECOVERING/DEGRADED/FAILED)
        and alive, not draining, and — when replication is enabled — an
        attached, unfenced witness (writes cannot be acked without its
        receipt).  The witness daemon overrides this with its own
        caught-up rule.
        """
        _status, payload = self._health_payload()
        reasons = []
        for shard in self._shards:
            health = shard.system.health
            if shard.killed:
                reasons.append(f"shard {shard.index} worker is down")
            elif health is not SystemHealth.HEALTHY:
                reasons.append(f"{shard.where}health is {health.value}")
        if self._draining.is_set():
            reasons.append("draining for shutdown")
        if self.replication is not None:
            if self.replication.fenced:
                reasons.append("fenced: a newer epoch is serving")
            elif not self.replication.attached:
                reasons.append(
                    "no witness attached; writes cannot be acknowledged"
                )
        payload["ready"] = not reasons
        payload["not_ready_reasons"] = reasons
        return (200 if not reasons else 503), payload
