"""Traced launcher: ``serve`` with a span recorder around each layer.

Usage::

    PYTHONPATH=src python3 perfbench/launch.py --spans-out SPANS.json \\
        -- serve --data-dir D --port-file F [serve flags...]

The launcher wraps public entry points of each ``repro`` layer (listed
in :data:`TARGETS`) with a recorder, then hands the remaining arguments
to the CLI's ``main`` — the same serve path ``python -m repro serve``
runs.  Nothing under ``src/`` changes.

Each span records its name, start and end (``time.monotonic_ns``, one
clock for every process on the host), its parent span, and the thread
CPU it used (``time.thread_time_ns``).  Self time (a span minus its
direct children) is computed as spans close.  Spans stay in memory and
are written to ``--spans-out`` when ``main`` returns, which is after a
graceful SIGTERM drain, and on SIGUSR1, which the benchmark sends before
it SIGKILLs a daemon.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Frame kinds that belong to the replication stream, not to clients.
REPLICATION_FRAMES = frozenset({"repl_batch", "repl_ack", "repl_subscribe"})

# (module, class, method, span name)
TARGETS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.kernel.system", "RecoverableSystem", "execute", "kernel.execute"),
    ("repro.kernel.system", "RecoverableSystem", "read", "kernel.read"),
    ("repro.kernel.system", "RecoverableSystem", "recover", "kernel.recover"),
    ("repro.kernel.supervisor", "RecoverySupervisor", "run",
     "kernel.supervise"),
    ("repro.cache.cache_manager", "CacheManager", "execute", "cache.execute"),
    ("repro.core.refined_write_graph", "RefinedWriteGraph", "add_operation",
     "core.addop"),
    ("repro.core.recovery", "RecoveryManager", "run", "core.redo"),
    ("repro.wal.log_manager", "LogManager", "append", "wal.append"),
    ("repro.wal.log_manager", "LogManager", "force_through", "wal.force"),
    ("repro.wal.log_manager", "LogManager", "adopt_records", "replica.adopt"),
    ("repro.wal.log_manager", "LogManager", "stable_records",
     "wal.stable_records"),
    ("repro.persist.file_log", "FileLogManager", "__init__", "wal.load"),
    ("repro.storage.stable_store", "StableStore", "read", "storage.read"),
    ("repro.storage.stable_store", "StableStore", "write", "storage.write"),
    ("repro.storage.stable_store", "StableStore", "write_many",
     "storage.write"),
    ("repro.storage.file_store", "FileStableStore", "__init__",
     "storage.open"),
    ("repro.storage.file_store", "FileStableStore", "write", "storage.write"),
    ("repro.storage.file_store", "FileStableStore", "write_many",
     "storage.write"),
    ("repro.storage.logstore", "LogStructuredStableStore", "__init__",
     "storage.open"),
    ("repro.storage.logstore", "LogStructuredStableStore", "write",
     "storage.write"),
    ("repro.storage.logstore", "LogStructuredStableStore", "write_many",
     "storage.write"),
    ("repro.shard.group", "ShardedSystem", "execute_cross", "shard.cross"),
    ("repro.replica.sender", "ReplicationSender", "replicate",
     "replica.wait"),
    ("repro.obs.metrics", "MetricsRegistry", "count", "obs"),
    ("repro.obs.metrics", "MetricsRegistry", "gauge", "obs"),
    ("repro.obs.metrics", "MetricsRegistry", "observe", "obs"),
    ("repro.obs.metrics", "MetricsRegistry", "record_span", "obs"),
    ("repro.obs.metrics", "MetricsRegistry", "_record_span", "obs"),
    ("repro.obs.metrics", "MetricsRegistry", "emit", "obs"),
    ("repro.obs.metrics", "MetricsRegistry", "snapshot", "obs"),
    ("repro.obs.flightrec", "FlightRecorder", "record", "obs"),
]

_clock = time.monotonic_ns
_cpu = time.thread_time_ns


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        #: (id, parent, name, thread, start, end, cpu, self_wall,
        #:  self_cpu, tag)
        self.spans: List[Tuple[Any, ...]] = []
        self.threads: Dict[int, str] = {}
        self.registries: List[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            self.threads[thread.ident] = thread.name
        return stack

    def wrap(self, fn: Callable, name: str,
             tag: Optional[Callable[[tuple, Any], Any]] = None,
             consume: bool = False) -> Callable:
        """``fn`` wrapped in a span; ``tag(args, result)`` labels it."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            # [id, child wall, child cpu]
            frame = [next(ids), 0, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            result = None
            start, cpu0 = _clock(), _cpu()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                end, cpu1 = _clock(), _cpu()
                stack.pop()
                wall, cpu = end - start, cpu1 - cpu0
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                label = None
                if tag is not None:
                    try:
                        label = tag(args, result)
                    except Exception:  # noqa: BLE001 - e.g. the call raised
                        label = None
                spans.append((frame[0], parent, name, threading.get_ident(),
                              start, end, cpu, wall - frame[1],
                              cpu - frame[2], label))
            return iter(result) if consume else result

        return traced

    def dump(self, path: str, argv: List[str]) -> None:
        snapshots = []
        for registry in list(self.registries):
            try:
                snap = registry.snapshot()
            except Exception:  # noqa: BLE001 - a dead registry
                continue
            snapshots.append({"counters": snap.get("counters", {}),
                              "gauges": snap.get("gauges", {})})
        payload = {
            "argv": argv,
            "pid": os.getpid(),
            # list() copies under the interpreter lock: other threads
            # keep registering while a SIGUSR1 dump runs.
            "threads": {str(k): v for k, v in list(self.threads.items())},
            "spans": self.spans,
            "registries": snapshots,
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, path)


def _request_id(message: Any) -> Any:
    """A client frame's request id; None for replication frames."""
    if not isinstance(message, dict):
        return None
    if message.get("kind") in REPLICATION_FRAMES:
        return None
    return message.get("id")


#: Span name -> ``tag(args, result)``: what a span records besides time.
TAGS: Dict[str, Callable[[tuple, Any], Any]] = {
    "serve.recv": lambda args, result: _request_id(result),
    "serve.send": lambda args, result: _request_id(args[1]),
    "replica.adopt": lambda args, result: len(args[1]),
    # RecoveryManager.run's RecoveryReport counts (the rSI REDO test)
    "core.redo": lambda args, result: [
        result.report.ops_redone, result.report.ops_skipped_installed,
        result.report.ops_skipped_unexposed, result.report.records_scanned,
    ],
}


def install(recorder: Recorder) -> None:
    import importlib

    for module_name, class_name, attr, name in TARGETS:
        owner = getattr(importlib.import_module(module_name), class_name)
        # stable_records is a generator: time the whole scan, not its start
        setattr(owner, attr, recorder.wrap(
            owner.__dict__[attr], name, TAGS.get(name),
            consume=(attr == "stable_records")))

    from repro.serve import protocol

    for attr, name in (("recv_frame", "serve.recv"),
                       ("send_frame", "serve.send")):
        setattr(protocol, attr,
                recorder.wrap(getattr(protocol, attr), name, TAGS[name]))

    from repro.obs.metrics import MetricsRegistry

    original_init = MetricsRegistry.__init__

    def registry_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        recorder.registries.append(self)

    MetricsRegistry.__init__ = registry_init

    from repro.kernel.system import RecoverableSystem

    original_attach = RecoverableSystem.attach_metrics

    def attach_metrics(self, registry=None):
        registry = original_attach(self, registry)
        registry.add_collector("bench", lambda: _paper_state(self))
        return registry

    RecoverableSystem.attach_metrics = attach_metrics


def _paper_state(system) -> Dict[str, int]:
    """Dirty objects and rW shape, read when ``stats`` is asked for."""
    try:
        sizes = system.engine.flush_set_sizes()
        return {
            "dirty_objects": len(system.cache.dirty_objects()),
            "rw_nodes": len(system.engine),
            "max_flush_set": max(sizes, default=0),
        }
    except RuntimeError:  # the apply thread mutated a dict mid-read
        return {}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- then the repro CLI arguments")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    recorder = Recorder()
    install(recorder)
    # SIGUSR1 asks for the spans so far: the benchmark sends it before a
    # SIGKILL, which leaves no chance to write them at exit.
    signal.signal(signal.SIGUSR1,
                  lambda *_: recorder.dump(args.spans_out, cli))
    from repro.__main__ import main as repro_main

    try:
        return repro_main(cli)
    finally:
        recorder.dump(args.spans_out, cli)


if __name__ == "__main__":
    raise SystemExit(main())
