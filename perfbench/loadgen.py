"""Closed-loop load over the serve wire protocol, and daemon processes.

Everything here runs in the single load-generator process.  Daemons are
real ``python -m repro serve`` child processes (or the traced launcher
in this directory, which ends in the same serve path); the generator
talks to them only through :mod:`repro.serve.protocol` frames: it sends
with ``protocol.send_frame`` and reads with a buffered, non-blocking
version of ``protocol.recv_frame`` that lets one connection carry
several outstanding requests.

A *caller* is a generator function: it yields one request dict, is sent
the response (or ``None`` on a timeout), and yields the next.  Each
caller is a closed loop — it has at most one request outstanding — and
the callers are spread over a few connections, so a connection carries
several outstanding requests at once.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, Iterator, List,
                    Optional, Sequence, Tuple)

from repro.serve import protocol

#: The frame header of :mod:`repro.serve.protocol`: payload length, u32 LE.
_LEN = struct.Struct("<I")
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: A request with no answer after this long counts as failed.
REQUEST_TIMEOUT_S = 20.0

Caller = Generator[Dict[str, Any], Optional[Dict[str, Any]], None]


class BenchError(RuntimeError):
    """The run cannot go on (a daemon died, a set-up step failed)."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class Conn:
    """One client connection: blocking sends, buffered frame reads."""

    def __init__(self, port: int, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def send(self, message: Dict[str, Any]) -> None:
        protocol.send_frame(self.sock, message)

    def read_available(self) -> List[Dict[str, Any]]:
        """Read what the socket has (it is readable) and parse frames."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("daemon closed a client connection")
        self._buf += chunk
        frames = []
        while len(self._buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(self._buf)
            end = _LEN.size + length
            if len(self._buf) < end:
                break
            frames.append(json.loads(bytes(self._buf[_LEN.size:end])))
            del self._buf[:end]
        return frames

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One synchronous request/response (set-up and probes only)."""
        self.send(message)
        while True:
            for frame in self.read_available():
                if frame.get("id") == message.get("id"):
                    return frame

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def request_once(port: int, kind: str, timeout: float = 10.0,
                 **fields: Any) -> Dict[str, Any]:
    """Open a connection, make one request, close."""
    conn = Conn(port, timeout)
    try:
        return conn.call({"id": 0, "kind": kind, **fields})
    finally:
        conn.close()


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One completed request, as the client saw it."""

    kind: str
    start_ns: int
    end_ns: int
    ok: bool
    request_id: int
    cross: bool = False


@dataclass
class LoopResult:
    samples: List[Sample] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0
    cpu_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


def run_closed_loop(port: int, callers: List[Caller], connections: int,
                    ids: Iterator[int]) -> LoopResult:
    """Drive ``callers`` over ``connections`` sockets until all finish.

    Caller ``i`` uses connection ``i % connections``; ``ids`` hands out
    request ids that stay unique across the run.  A refused or failed
    answer is handed to the caller like any other and counted by the
    sample's ``ok`` flag; nothing is retried here.
    """
    conns = [Conn(port) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for index, conn in enumerate(conns):
        selector.register(conn.sock, selectors.EVENT_READ, index)
    result = LoopResult()
    # request id -> (caller index, kind, start_ns, cross flag)
    inflight: Dict[int, Tuple[int, str, int, bool]] = {}
    live = 0
    cpu0 = time.process_time()
    result.start_ns = time.monotonic_ns()
    record = result.samples.append

    def issue(index: int, request: Dict[str, Any]) -> None:
        request_id = next(ids)
        request["id"] = request_id
        cross = bool(request.pop("_cross", False))
        inflight[request_id] = (
            index, request["kind"], time.monotonic_ns(), cross
        )
        conns[index % connections].send(request)

    def advance(index: int, response: Optional[Dict[str, Any]]) -> None:
        nonlocal live
        try:
            request = callers[index].send(response)
        except StopIteration:
            live -= 1
            return
        issue(index, request)

    try:
        for index, caller in enumerate(callers):
            try:
                request = next(caller)
            except StopIteration:
                continue
            live += 1
            issue(index, request)
        while live:
            for key, _ in selector.select(timeout=0.5):
                for frame in conns[key.data].read_available():
                    entry = inflight.pop(frame.get("id"), None)
                    if entry is None:
                        continue  # the answer to a timed-out request
                    index, kind, start, cross = entry
                    record(Sample(
                        kind, start, time.monotonic_ns(),
                        bool(frame.get("ok")), frame.get("id"), cross,
                    ))
                    advance(index, frame)
            now = time.monotonic_ns()
            for request_id, (index, kind, start, cross) in list(
                inflight.items()
            ):
                if now - start > REQUEST_TIMEOUT_S * 1e9:
                    del inflight[request_id]
                    record(
                        Sample(kind, start, now, False, request_id, cross)
                    )
                    advance(index, None)
    finally:
        result.end_ns = time.monotonic_ns()
        result.cpu_s = time.process_time() - cpu0
        selector.close()
        for conn in conns:
            conn.close()
    return result


# ----------------------------------------------------------------------
# daemon processes
# ----------------------------------------------------------------------
class Daemon:
    """One ``serve`` child process and what /proc says about it."""

    def __init__(self, argv: List[str], data_dir: str, env: Dict[str, str],
                 cwd: str, log_path: str,
                 spans_out: Optional[str] = None) -> None:
        self.data_dir = data_dir
        #: Where a traced daemon writes its spans (None: untraced).
        self.spans_out = spans_out
        self.port_file = data_dir + ".port"
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv + ["--data-dir", data_dir, "--port-file", self.port_file],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=cwd,
        )
        self.port = 0
        self.pid = self.proc.pid

    def wait_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"listening (see {self._log.name})"
                )
            try:
                with open(self.port_file, encoding="utf-8") as handle:
                    self.port = int(json.load(handle)["port"])
                return self.port
            except (OSError, ValueError, KeyError):
                time.sleep(0.005)
        raise BenchError("daemon did not start listening in time")

    def cpu_s(self) -> float:
        """utime + stime of the process so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            stat = handle.read().rsplit(")", 1)[1].split()
        return (int(stat[11]) + int(stat[12])) / _CLK_TCK

    def status_kb(self, key: str) -> int:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        return 0

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("daemon did not drain in time")
        self._log.close()
        return code

    def kill(self) -> None:
        """SIGKILL and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


class Fleet:
    """Every daemon a run started, so all are stopped on the way out."""

    def __init__(self, env: Dict[str, str], cwd: str, log_path: str,
                 launcher: str) -> None:
        self.env = env
        self.cwd = cwd
        self.log_path = log_path
        self.launcher = launcher
        self.daemons: List[Daemon] = []

    def spawn(self, data_dir: str, *serve_args: str,
              spans_out: Optional[str] = None) -> Daemon:
        """Start ``serve``; through the traced launcher with spans_out."""
        if spans_out is not None:
            argv = [sys.executable, self.launcher, "--spans-out", spans_out,
                    "--", "serve", *serve_args]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        daemon = Daemon(argv, data_dir, self.env, self.cwd, self.log_path,
                        spans_out)
        self.daemons.append(daemon)
        return daemon

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.kill()
        self.daemons.clear()


def wait_until(predicate: Callable[[], bool], timeout: float,
               what: str, step: float = 0.005) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(step)
    raise BenchError(f"timed out waiting for {what}")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples to take a quantile of")
    rank = max(1, min(len(ordered), int(round(q * len(ordered) + 0.5))))
    return ordered[rank - 1]


def dir_bytes(root: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path

